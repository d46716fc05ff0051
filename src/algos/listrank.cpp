#include "algos/listrank.hpp"

#include <algorithm>
#include <unordered_map>

#include "support/contract.hpp"
#include "support/rng.hpp"

namespace qsm::algos {

ListProblem make_random_list(std::uint64_t n, std::uint64_t seed) {
  QSM_REQUIRE(n >= 1, "list needs at least one element");
  // order[k] = index of the k-th list element.
  std::vector<std::uint64_t> order(n);
  for (std::uint64_t i = 0; i < n; ++i) order[i] = i;
  support::Xoshiro256 rng(seed, /*stream=*/0x115f);
  support::deterministic_shuffle(order.begin(), order.end(), rng);

  ListProblem list;
  list.succ.assign(n, 0);
  list.pred.assign(n, 0);
  list.head = order.front();
  list.tail = order.back();
  for (std::uint64_t k = 0; k < n; ++k) {
    const std::uint64_t i = order[k];
    list.succ[i] = (k + 1 < n) ? order[k + 1] : i;
    list.pred[i] = (k > 0) ? order[k - 1] : i;
  }
  return list;
}

std::vector<std::int64_t> sequential_list_rank(const ListProblem& list) {
  const std::uint64_t n = list.size();
  std::vector<std::int64_t> rank(n, 0);
  // Walk head -> tail once to find positions; rank = distance to tail.
  std::uint64_t cur = list.head;
  std::uint64_t pos = 0;
  while (true) {
    rank[cur] = static_cast<std::int64_t>(n - 1 - pos);
    if (cur == list.tail) break;
    cur = list.succ[cur];
    ++pos;
  }
  QSM_REQUIRE(pos == n - 1, "list is not a single chain over all elements");
  return rank;
}

namespace {

std::uint64_t ceil_log2(std::uint64_t n) {
  std::uint64_t l = 0;
  while ((1ULL << l) < n) ++l;
  return l;
}

struct Removal {
  std::uint64_t idx;
  std::uint64_t succ_at_removal;
  std::int64_t weight_at_removal;
};

}  // namespace

ListRankOutcome list_rank(rt::Runtime& runtime, const ListProblem& list,
                          rt::GlobalArray<std::int64_t> ranks,
                          int iteration_c) {
  const int p = runtime.nprocs();
  const auto up = static_cast<std::uint64_t>(p);
  const std::uint64_t n = list.size();
  QSM_REQUIRE(iteration_c >= 1, "iteration factor must be >= 1");
  QSM_REQUIRE(ranks.n == n, "ranks array must match the list size");
  QSM_REQUIRE(n >= 4 * up, "list ranking wants at least a few elements/node");

  const int iters =
      p == 1 ? 0
             : static_cast<int>(static_cast<std::uint64_t>(iteration_c) *
                                std::max<std::uint64_t>(1, ceil_log2(up)));

  // Per-call scratch, freed on return and on throw.
  rt::ScopedArrays arrays(runtime);
  // Shared state. All block layout over the index space; an element's
  // bookkeeping lives with its owner.
  auto S = arrays.alloc<std::uint64_t>(n, rt::Layout::Block, "lr-succ");
  auto P = arrays.alloc<std::uint64_t>(n, rt::Layout::Block, "lr-pred");
  auto W = arrays.alloc<std::int64_t>(n, rt::Layout::Block, "lr-weight");
  auto F = arrays.alloc<std::uint8_t>(n, rt::Layout::Block, "lr-flip");
  auto wadd_val = arrays.alloc<std::int64_t>(n, rt::Layout::Block,
                                             "lr-wadd-val");
  auto wadd_iter = arrays.alloc<std::int64_t>(n, rt::Layout::Block,
                                              "lr-wadd-iter");
  // Gather area for the sequential phase (z = O(n/p) elements, so the
  // region [0, z) is owned by node 0 in the common case).
  auto g_idx = arrays.alloc<std::uint64_t>(n, rt::Layout::Block, "lr-gidx");
  auto g_succ = arrays.alloc<std::uint64_t>(n, rt::Layout::Block, "lr-gsucc");
  auto g_w = arrays.alloc<std::int64_t>(n, rt::Layout::Block, "lr-gw");
  // counts_b[j*p + i] = active count of node i, broadcast to node j.
  auto counts_b = arrays.alloc<std::int64_t>(up * up, rt::Layout::Block,
                                             "lr-counts");

  runtime.host_fill(S, list.succ);
  runtime.host_fill(P, list.pred);
  runtime.host_fill(W, std::vector<std::int64_t>(n, 1));
  runtime.host_fill(wadd_iter, std::vector<std::int64_t>(n, -1));

  ListRankOutcome out;
  out.iterations = iters;
  out.x.assign(static_cast<std::size_t>(iters), 0);
  // Instrumentation (no simulated cost): each lane records its own active
  // counts in a private row and the rows are max-merged after run()
  // returns — no lock in the per-iteration loop, and the run()/join edge
  // orders the merge.
  std::vector<std::vector<std::uint64_t>> x_lane(
      up, std::vector<std::uint64_t>(static_cast<std::size_t>(iters), 0));

  out.timing = runtime.run([&](rt::Context& ctx) {
    const int me = ctx.rank();
    const auto ume = static_cast<std::uint64_t>(me);
    const auto range = rt::block_range(n, p, me);

    // Local active set (owned, still-linked elements).
    std::vector<std::uint64_t> active;
    active.reserve(range.size());
    for (std::uint64_t i = range.begin; i < range.end; ++i) active.push_back(i);

    std::vector<std::vector<Removal>> removed(
        static_cast<std::size_t>(iters) + 1);

    // --- Major step 1: random-mate elimination ------------------------------
    std::vector<std::uint8_t> succ_flip(range.size(), 0);
    for (int it = 1; it <= iters; ++it) {
      x_lane[ume][static_cast<std::size_t>(it - 1)] =
          static_cast<std::uint64_t>(active.size());

      // Phase A: absorb weights from last iteration's removals, then flip.
      for (const std::uint64_t i : active) {
        if (ctx.read_local(wadd_iter, i) == it - 1) {
          ctx.write_local(W, i,
                          ctx.read_local(W, i) + ctx.read_local(wadd_val, i));
        }
        ctx.write_local(F, i, static_cast<std::uint8_t>(ctx.rng().bit()));
      }
      ctx.charge_ops(static_cast<std::int64_t>(active.size()) * 4);
      ctx.charge_mem(static_cast<std::int64_t>(active.size()) * 3,
                     static_cast<std::int64_t>(range.size()) * 8);
      ctx.sync();

      // Phase B: elements that flipped 1 (and are neither head nor tail)
      // read their successor's flip.
      std::vector<std::uint64_t> candidates;
      for (const std::uint64_t i : active) {
        const bool is_head = ctx.read_local(P, i) == i;
        const bool is_tail = ctx.read_local(S, i) == i;
        if (!is_head && !is_tail && ctx.read_local(F, i) != 0) {
          candidates.push_back(i);
          ctx.get(F, ctx.read_local(S, i),
                  &succ_flip[i - range.begin]);
        }
      }
      ctx.charge_ops(static_cast<std::int64_t>(active.size()) * 3);
      ctx.sync();

      // Phase C: splice out i when flip(i)=1 and flip(succ)=0.
      std::vector<std::uint64_t> still_active;
      still_active.reserve(active.size());
      std::vector<bool> gone(range.size(), false);
      for (const std::uint64_t i : candidates) {
        if (succ_flip[i - range.begin] != 0) continue;
        const std::uint64_t s = ctx.read_local(S, i);
        const std::uint64_t pr = ctx.read_local(P, i);
        const std::int64_t w = ctx.read_local(W, i);
        removed[static_cast<std::size_t>(it)].push_back(Removal{i, s, w});
        gone[i - range.begin] = true;
        ctx.put(S, pr, s);
        ctx.put(P, s, pr);
        ctx.put(wadd_val, pr, w);
        ctx.put(wadd_iter, pr, static_cast<std::int64_t>(it));
      }
      for (const std::uint64_t i : active) {
        if (!gone[i - range.begin]) still_active.push_back(i);
      }
      active.swap(still_active);
      ctx.charge_ops(static_cast<std::int64_t>(candidates.size()) * 6);
      ctx.sync();
    }

    // Absorb any weight transferred in the final iteration.
    for (const std::uint64_t i : active) {
      if (ctx.read_local(wadd_iter, i) == iters) {
        ctx.write_local(W, i,
                        ctx.read_local(W, i) + ctx.read_local(wadd_val, i));
      }
    }
    ctx.charge_ops(static_cast<std::int64_t>(active.size()) * 2);

    // --- Major step 2: gather to node 0, sequential rank ---------------------
    // Broadcast active counts so every node can compute its gather offset.
    for (int j = 0; j < p; ++j) {
      const std::uint64_t slot = static_cast<std::uint64_t>(j) * up + ume;
      const auto cnt = static_cast<std::int64_t>(active.size());
      if (j == me) {
        ctx.write_local(counts_b, slot, cnt);
      } else {
        ctx.put(counts_b, slot, cnt);
      }
    }
    ctx.sync();

    std::uint64_t offset = 0;
    std::uint64_t z = 0;
    for (std::uint64_t i = 0; i < up; ++i) {
      const auto c = static_cast<std::uint64_t>(
          ctx.read_local(counts_b, ume * up + i));
      if (i < ume) offset += c;
      z += c;
    }
    ctx.charge_ops(2 * p);
    // Rank 0 is the only writer, and out is read after run() returns.
    if (me == 0) out.z = z;

    // Ship (index, successor, weight) triples into the gather area.
    {
      std::vector<std::uint64_t> idx_buf;
      std::vector<std::uint64_t> succ_buf;
      std::vector<std::int64_t> w_buf;
      idx_buf.reserve(active.size());
      for (const std::uint64_t i : active) {
        idx_buf.push_back(i);
        succ_buf.push_back(ctx.read_local(S, i));
        w_buf.push_back(ctx.read_local(W, i));
      }
      ctx.charge_mem(static_cast<std::int64_t>(active.size()) * 3,
                     static_cast<std::int64_t>(range.size()) * 8);
      if (!idx_buf.empty()) {
        ctx.put_range(g_idx, offset, idx_buf.size(), idx_buf.data());
        ctx.put_range(g_succ, offset, succ_buf.size(), succ_buf.data());
        ctx.put_range(g_w, offset, w_buf.size(), w_buf.data());
      }
      ctx.sync();
    }

    // Node 0 pulls the gathered triples (they are mostly local to it).
    std::vector<std::uint64_t> all_idx(me == 0 ? z : 0);
    std::vector<std::uint64_t> all_succ(me == 0 ? z : 0);
    std::vector<std::int64_t> all_w(me == 0 ? z : 0);
    if (me == 0 && z > 0) {
      ctx.get_range(g_idx, 0, z, all_idx.data());
      ctx.get_range(g_succ, 0, z, all_succ.data());
      ctx.get_range(g_w, 0, z, all_w.data());
    }
    ctx.sync();

    if (me == 0) {
      // Sequential list rank of the compressed list: walk head -> tail,
      // then accumulate weights backwards (rank(tail) = 0).
      std::unordered_map<std::uint64_t, std::pair<std::uint64_t, std::int64_t>>
          node;  // idx -> (succ, w)
      node.reserve(z * 2);
      for (std::uint64_t k = 0; k < z; ++k) {
        node[all_idx[k]] = {all_succ[k], all_w[k]};
      }
      std::vector<std::uint64_t> chain;
      chain.reserve(z);
      std::uint64_t cur = list.head;
      while (true) {
        chain.push_back(cur);
        const auto& [s, w] = node.at(cur);
        if (s == cur) break;  // tail
        cur = s;
      }
      QSM_REQUIRE(chain.size() == z,
                  "compressed list does not reach every surviving element");
      // rank(chain[k]) = rank(chain[k+1]) + w(chain[k]); the tail's stored
      // weight is never used (it has no outgoing edge).
      std::int64_t acc = 0;
      std::vector<std::int64_t> final_rank(z);
      final_rank[z - 1] = 0;
      for (std::uint64_t k = z - 1; k-- > 0;) {
        acc += node.at(chain[k]).second;
        final_rank[k] = acc;
      }
      // Scatter the final ranks of surviving elements.
      for (std::uint64_t k = 0; k < z; ++k) {
        ctx.put(ranks, chain[k], final_rank[k]);
      }
      ctx.charge_ops(static_cast<std::int64_t>(z) * 8);
      ctx.charge_mem(static_cast<std::int64_t>(z) * 4,
                     static_cast<std::int64_t>(z) * 24);
    }
    ctx.sync();

    // --- Major step 3: expansion, reverse iteration order --------------------
    std::vector<std::int64_t> succ_rank(range.size(), 0);
    for (int it = iters; it >= 1; --it) {
      for (const Removal& r : removed[static_cast<std::size_t>(it)]) {
        ctx.get(ranks, r.succ_at_removal, &succ_rank[r.idx - range.begin]);
      }
      ctx.charge_ops(static_cast<std::int64_t>(
                         removed[static_cast<std::size_t>(it)].size()) *
                     2);
      ctx.sync();
      for (const Removal& r : removed[static_cast<std::size_t>(it)]) {
        ctx.write_local(ranks, r.idx,
                        succ_rank[r.idx - range.begin] + r.weight_at_removal);
      }
      ctx.charge_ops(static_cast<std::int64_t>(
                         removed[static_cast<std::size_t>(it)].size()) *
                     2);
      ctx.sync();
    }
  });
  for (const auto& lane : x_lane) {
    for (std::size_t i = 0; i < lane.size(); ++i) {
      out.x[i] = std::max(out.x[i], lane[i]);
    }
  }
  return out;
}

}  // namespace qsm::algos
