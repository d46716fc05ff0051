#include "algos/components.hpp"

#include <algorithm>
#include <unordered_set>
#include <vector>

#include "core/collectives.hpp"
#include "support/contract.hpp"

namespace qsm::algos {

std::vector<std::int64_t> sequential_components(const Graph& g) {
  g.validate();
  std::vector<std::int64_t> label(g.n, -1);
  std::vector<std::uint64_t> stack;
  for (std::uint64_t start = 0; start < g.n; ++start) {
    if (label[start] >= 0) continue;
    label[start] = static_cast<std::int64_t>(start);
    stack.push_back(start);
    while (!stack.empty()) {
      const std::uint64_t v = stack.back();
      stack.pop_back();
      for (std::uint64_t e = g.offsets[v]; e < g.offsets[v + 1]; ++e) {
        const std::uint64_t u = g.targets[e];
        if (label[u] < 0) {
          label[u] = static_cast<std::int64_t>(start);
          stack.push_back(u);
        }
      }
    }
  }
  return label;
}

ComponentsOutcome connected_components(rt::Runtime& runtime, const Graph& g,
                                       rt::GlobalArray<std::int64_t> labels) {
  g.validate();
  QSM_REQUIRE(labels.n == g.n, "labels array must match the graph");
  const int p = runtime.nprocs();
  const std::uint64_t n = g.n;
  const std::uint64_t m = g.edges();

  // Per-call scratch, freed on return and on throw.
  rt::ScopedArrays arrays(runtime);
  auto start = arrays.alloc<std::uint64_t>(n, rt::Layout::Block, "cc-start");
  auto degree = arrays.alloc<std::uint64_t>(n, rt::Layout::Block, "cc-deg");
  auto targets = m > 0 ? arrays.alloc<std::uint64_t>(m, rt::Layout::Block,
                                                     "cc-adj")
                       : rt::GlobalArray<std::uint64_t>{};
  auto dirty = arrays.alloc<std::int64_t>(n, rt::Layout::Block, "cc-dirty");
  {
    std::vector<std::uint64_t> st(n);
    std::vector<std::uint64_t> deg(n);
    std::vector<std::int64_t> init(n);
    for (std::uint64_t v = 0; v < n; ++v) {
      st[v] = g.offsets[v];
      deg[v] = g.offsets[v + 1] - g.offsets[v];
      init[v] = static_cast<std::int64_t>(v);
    }
    runtime.host_fill(start, st);
    runtime.host_fill(degree, deg);
    if (m > 0) runtime.host_fill(targets, g.targets);
    runtime.host_fill(labels, init);
    runtime.host_fill(dirty, std::vector<std::int64_t>(n, -1));
  }

  rt::Collectives coll(runtime, "cc-coll");

  ComponentsOutcome out;
  out.timing = runtime.run([&](rt::Context& ctx) {
    const auto range = rt::block_range(n, p, ctx.rank());

    for (std::int64_t round = 0;; ++round) {
      // Active = every owned vertex in round 0, afterwards those a
      // neighbor marked dirty last round.
      std::vector<std::uint64_t> active;
      for (std::uint64_t v = range.begin; v < range.end; ++v) {
        if (round == 0 || ctx.read_local(dirty, v) == round - 1) {
          active.push_back(v);
        }
      }
      ctx.charge_mem(static_cast<std::int64_t>(range.size()),
                     static_cast<std::int64_t>(range.size()) * 8);

      // Phase A: fetch the active vertices' adjacency lists.
      std::vector<std::uint64_t> adj;
      std::vector<std::uint64_t> adj_off(active.size() + 1, 0);
      {
        std::uint64_t needed = 0;
        for (std::size_t k = 0; k < active.size(); ++k) {
          needed += ctx.read_local(degree, active[k]);
          adj_off[k + 1] = needed;
        }
        adj.resize(needed);
        for (std::size_t k = 0; k < active.size(); ++k) {
          const std::uint64_t deg = adj_off[k + 1] - adj_off[k];
          if (deg == 0) continue;
          ctx.get_range(targets, ctx.read_local(start, active[k]), deg,
                        adj.data() + adj_off[k]);
        }
        ctx.charge_ops(static_cast<std::int64_t>(active.size()) * 3);
      }
      ctx.sync();

      // Phase B: read the neighbors' labels (deduplicated).
      std::vector<std::uint64_t> uniq(adj.begin(), adj.end());
      std::sort(uniq.begin(), uniq.end());
      uniq.erase(std::unique(uniq.begin(), uniq.end()), uniq.end());
      std::vector<std::int64_t> uniq_label(uniq.size());
      for (std::size_t k = 0; k < uniq.size(); ++k) {
        ctx.get(labels, uniq[k], &uniq_label[k]);
      }
      ctx.charge_ops(static_cast<std::int64_t>(adj.size()) * 4);
      ctx.sync();

      auto label_of = [&](std::uint64_t u) {
        const auto it = std::lower_bound(uniq.begin(), uniq.end(), u);
        return uniq_label[static_cast<std::size_t>(it - uniq.begin())];
      };

      // Phase C: adopt neighborhood minima; notify neighbors of changes.
      std::int64_t changed = 0;
      for (std::size_t k = 0; k < active.size(); ++k) {
        const std::uint64_t v = active[k];
        std::int64_t best = ctx.read_local(labels, v);
        for (std::uint64_t e = adj_off[k]; e < adj_off[k + 1]; ++e) {
          best = std::min(best, label_of(adj[e]));
        }
        if (best < ctx.read_local(labels, v)) {
          ctx.write_local(labels, v, best);
          ++changed;
          for (std::uint64_t e = adj_off[k]; e < adj_off[k + 1]; ++e) {
            ctx.put(dirty, adj[e], round);
          }
        }
      }
      ctx.charge_ops(static_cast<std::int64_t>(adj.size()) * 2);
      ctx.sync();

      // Termination: one collective phase.
      const auto total = coll.allreduce_sum(ctx, changed);
      if (ctx.rank() == 0) out.rounds = static_cast<int>(round) + 1;
      if (total == 0) break;
    }
  });

  const auto final_labels = runtime.host_read(labels);
  std::unordered_set<std::int64_t> distinct(final_labels.begin(),
                                            final_labels.end());
  out.components = distinct.size();
  return out;
}

}  // namespace qsm::algos
