#include "algos/bfs.hpp"

#include <algorithm>
#include <queue>

#include "core/collectives.hpp"
#include "support/contract.hpp"
#include "support/rng.hpp"

namespace qsm::algos {

void Graph::validate() const {
  QSM_REQUIRE(offsets.size() == n + 1, "offsets must have n+1 entries");
  QSM_REQUIRE(offsets.front() == 0 && offsets.back() == targets.size(),
              "offsets must span the target array");
  for (std::uint64_t v = 0; v < n; ++v) {
    QSM_REQUIRE(offsets[v] <= offsets[v + 1], "offsets must be monotone");
  }
  for (const std::uint64_t t : targets) {
    QSM_REQUIRE(t < n, "edge target out of range");
  }
}

Graph make_random_graph(std::uint64_t n, double avg_degree,
                        std::uint64_t seed) {
  QSM_REQUIRE(n >= 1, "graph needs at least one vertex");
  QSM_REQUIRE(avg_degree >= 0, "degree must be non-negative");
  support::Xoshiro256 rng(seed, 0xbf5);
  const auto undirected =
      static_cast<std::uint64_t>(avg_degree * static_cast<double>(n) / 2.0);
  std::vector<std::pair<std::uint64_t, std::uint64_t>> edges;
  edges.reserve(2 * undirected);
  for (std::uint64_t e = 0; e < undirected; ++e) {
    const std::uint64_t a = rng.below(n);
    const std::uint64_t b = rng.below(n);
    if (a == b) continue;
    edges.emplace_back(a, b);
    edges.emplace_back(b, a);
  }
  std::sort(edges.begin(), edges.end());
  edges.erase(std::unique(edges.begin(), edges.end()), edges.end());

  Graph g;
  g.n = n;
  g.offsets.assign(n + 1, 0);
  for (const auto& [a, b] : edges) g.offsets[a + 1]++;
  for (std::uint64_t v = 0; v < n; ++v) g.offsets[v + 1] += g.offsets[v];
  g.targets.reserve(edges.size());
  for (const auto& [a, b] : edges) g.targets.push_back(b);
  g.validate();
  return g;
}

std::vector<std::int64_t> sequential_bfs(const Graph& g,
                                         std::uint64_t source) {
  QSM_REQUIRE(source < g.n, "source out of range");
  std::vector<std::int64_t> dist(g.n, -1);
  std::queue<std::uint64_t> frontier;
  dist[source] = 0;
  frontier.push(source);
  while (!frontier.empty()) {
    const std::uint64_t v = frontier.front();
    frontier.pop();
    for (std::uint64_t e = g.offsets[v]; e < g.offsets[v + 1]; ++e) {
      const std::uint64_t u = g.targets[e];
      if (dist[u] < 0) {
        dist[u] = dist[v] + 1;
        frontier.push(u);
      }
    }
  }
  return dist;
}

BfsOutcome parallel_bfs(rt::Runtime& runtime, const Graph& g,
                        std::uint64_t source,
                        rt::GlobalArray<std::int64_t> dist) {
  g.validate();
  QSM_REQUIRE(source < g.n, "source out of range");
  QSM_REQUIRE(dist.n == g.n, "dist array must match the graph");
  const int p = runtime.nprocs();
  const std::uint64_t n = g.n;
  const std::uint64_t m = g.edges();

  // Per-call scratch, freed on return and on throw.
  rt::ScopedArrays arrays(runtime);
  // Shared structure: per-vertex edge start and degree (owned with the
  // vertex), targets distributed by edge index.
  auto start = arrays.alloc<std::uint64_t>(n, rt::Layout::Block, "bfs-start");
  auto degree = arrays.alloc<std::uint64_t>(n, rt::Layout::Block, "bfs-deg");
  auto targets = m > 0 ? arrays.alloc<std::uint64_t>(m, rt::Layout::Block,
                                                     "bfs-adj")
                       : rt::GlobalArray<std::uint64_t>{};
  {
    std::vector<std::uint64_t> st(n);
    std::vector<std::uint64_t> deg(n);
    for (std::uint64_t v = 0; v < n; ++v) {
      st[v] = g.offsets[v];
      deg[v] = g.offsets[v + 1] - g.offsets[v];
    }
    runtime.host_fill(start, st);
    runtime.host_fill(degree, deg);
    if (m > 0) runtime.host_fill(targets, g.targets);
  }
  runtime.host_fill(dist, std::vector<std::int64_t>(n, -1));

  rt::Collectives coll(runtime, "bfs-coll");

  BfsOutcome out;
  out.timing = runtime.run([&](rt::Context& ctx) {
    const int me = ctx.rank();
    const auto range = rt::block_range(n, p, me);
    if (rt::owner_of(rt::Layout::Block, source, n, p, 0) == me) {
      ctx.write_local(dist, source, std::int64_t{0});
    }

    for (std::int64_t level = 0;; ++level) {
      // Frontier = owned vertices at the current level (local scan).
      std::vector<std::uint64_t> frontier;
      for (std::uint64_t v = range.begin; v < range.end; ++v) {
        if (ctx.read_local(dist, v) == level) frontier.push_back(v);
      }
      ctx.charge_mem(static_cast<std::int64_t>(range.size()),
                     static_cast<std::int64_t>(range.size()) * 8);

      // Global termination test (one phase).
      const auto total = coll.allreduce_sum(
          ctx, static_cast<std::int64_t>(frontier.size()));
      if (total == 0) break;
      if (me == 0) out.levels = static_cast<int>(level) + 1;

      // Phase: fetch the frontier's adjacency lists.
      std::vector<std::uint64_t> adj;
      {
        std::uint64_t needed = 0;
        for (const std::uint64_t v : frontier) {
          needed += ctx.read_local(degree, v);
        }
        adj.resize(needed);
        std::uint64_t off = 0;
        for (const std::uint64_t v : frontier) {
          const std::uint64_t deg = ctx.read_local(degree, v);
          if (deg == 0) continue;
          ctx.get_range(targets, ctx.read_local(start, v), deg,
                        adj.data() + off);
          off += deg;
        }
        ctx.charge_ops(static_cast<std::int64_t>(frontier.size()) * 3);
      }
      ctx.sync();

      // Phase: read the neighbors' current distances (deduplicated).
      std::sort(adj.begin(), adj.end());
      adj.erase(std::unique(adj.begin(), adj.end()), adj.end());
      std::vector<std::int64_t> seen(adj.size());
      for (std::size_t k = 0; k < adj.size(); ++k) {
        ctx.get(dist, adj[k], &seen[k]);
      }
      ctx.charge_ops(static_cast<std::int64_t>(adj.size()) * 4);
      ctx.sync();

      // Phase: claim undiscovered neighbors. Several nodes may put the
      // same value to the same vertex — queuing writes make that benign.
      for (std::size_t k = 0; k < adj.size(); ++k) {
        if (seen[k] < 0) {
          ctx.put(dist, adj[k], level + 1);
        }
      }
      ctx.charge_ops(static_cast<std::int64_t>(adj.size()));
      ctx.sync();
    }
  });
  return out;
}

}  // namespace qsm::algos
