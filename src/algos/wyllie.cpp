#include "algos/wyllie.hpp"

#include <vector>

#include "support/contract.hpp"

namespace qsm::algos {

namespace {
int rounds_for(std::uint64_t n) {
  int r = 0;
  while ((1ULL << r) < n) ++r;
  return r;
}
}  // namespace

WyllieOutcome wyllie_list_rank(rt::Runtime& runtime, const ListProblem& list,
                               rt::GlobalArray<std::int64_t> ranks) {
  const int p = runtime.nprocs();
  const std::uint64_t n = list.size();
  QSM_REQUIRE(ranks.n == n, "ranks array must match the list size");

  // Per-call scratch, freed on return and on throw.
  rt::ScopedArrays arrays(runtime);
  auto succ = arrays.alloc<std::uint64_t>(n, rt::Layout::Block, "wy-succ");
  runtime.host_fill(succ, list.succ);
  {
    // rank = 1 for every element with a successor, 0 for the tail.
    std::vector<std::int64_t> init(n, 1);
    init[list.tail] = 0;
    runtime.host_fill(ranks, init);
  }

  WyllieOutcome out;
  out.rounds = rounds_for(n);

  out.timing = runtime.run([&](rt::Context& ctx) {
    const auto range = rt::block_range(n, p, ctx.rank());
    const std::uint64_t mine = range.size();
    std::vector<std::int64_t> succ_rank(mine);
    std::vector<std::uint64_t> succ_succ(mine);

    for (int round = 0; round < out.rounds; ++round) {
      // Phase 1: every element that has not yet reached the tail reads its
      // successor's rank and successor.
      for (std::uint64_t k = 0; k < mine; ++k) {
        const std::uint64_t i = range.begin + k;
        const std::uint64_t s = ctx.read_local(succ, i);
        if (s == i) continue;
        ctx.get(ranks, s, &succ_rank[k]);
        ctx.get(succ, s, &succ_succ[k]);
      }
      ctx.charge_ops(static_cast<std::int64_t>(mine) * 3);
      ctx.charge_mem(static_cast<std::int64_t>(mine),
                     static_cast<std::int64_t>(mine) * 8);
      ctx.sync();

      // Phase 2: jump. Locally owned state, so plain writes.
      for (std::uint64_t k = 0; k < mine; ++k) {
        const std::uint64_t i = range.begin + k;
        const std::uint64_t s = ctx.read_local(succ, i);
        if (s == i) continue;
        ctx.write_local(ranks, i, ctx.read_local(ranks, i) + succ_rank[k]);
        ctx.write_local(succ, i, succ_succ[k]);
      }
      ctx.charge_ops(static_cast<std::int64_t>(mine) * 4);
      ctx.charge_mem(2 * static_cast<std::int64_t>(mine),
                     static_cast<std::int64_t>(mine) * 8);
      ctx.sync();
    }
  });
  return out;
}

}  // namespace qsm::algos
