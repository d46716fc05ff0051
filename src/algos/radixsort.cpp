#include "algos/radixsort.hpp"

#include <vector>

#include "core/collectives.hpp"
#include "support/contract.hpp"

namespace qsm::algos {

RadixSortOutcome radix_sort(rt::Runtime& runtime,
                            rt::GlobalArray<std::int64_t> data,
                            int digit_bits) {
  QSM_REQUIRE(digit_bits >= 1 && digit_bits <= 16,
              "digit width must be 1..16 bits");
  const int p = runtime.nprocs();
  const auto up = static_cast<std::uint64_t>(p);
  const std::uint64_t n = data.n;
  const std::uint64_t radix = 1ULL << digit_bits;

  // Per-call scratch, freed on return and on throw.
  rt::ScopedArrays arrays(runtime);
  // Ping-pong buffer and the replicated count matrix: region j holds the
  // full p x radix digit histogram for node j's consumption.
  auto scratch = arrays.alloc<std::int64_t>(n, rt::Layout::Block,
                                            "radix-scratch");
  auto counts = arrays.alloc<std::int64_t>(up * up * radix,
                                           rt::Layout::Block,
                                           "radix-counts");
  rt::Collectives coll(runtime, "radix-coll");

  RadixSortOutcome out;
  out.digit_bits = digit_bits;

  out.timing = runtime.run([&](rt::Context& ctx) {
    const int me = ctx.rank();
    const auto ume = static_cast<std::uint64_t>(me);
    const auto range = rt::block_range(n, p, me);
    const auto mine = static_cast<std::int64_t>(range.size());

    // Discover the global maximum to size the pass count (one phase).
    std::int64_t local_max = 0;
    for (std::uint64_t i = range.begin; i < range.end; ++i) {
      const std::int64_t v = ctx.read_local(data, i);
      QSM_REQUIRE(v >= 0, "radix sort requires non-negative keys");
      local_max = std::max(local_max, v);
    }
    ctx.charge_mem(mine, mine * 8);
    const std::int64_t global_max = coll.allreduce_max(ctx, local_max);
    int passes = 1;
    while (passes * digit_bits < 63 &&
           (static_cast<std::uint64_t>(global_max) >>
            (static_cast<unsigned>(passes * digit_bits))) != 0) {
      ++passes;
    }
    if (me == 0) out.passes = passes;

    auto src = data;
    auto dst = scratch;
    for (int pass = 0; pass < passes; ++pass) {
      const unsigned shift = static_cast<unsigned>(pass * digit_bits);

      // Local digit histogram over the owned block, in block order
      // (stability requires preserving that order within a digit).
      std::vector<std::int64_t> block(range.size());
      std::vector<std::int64_t> hist(radix, 0);
      for (std::uint64_t i = 0; i < range.size(); ++i) {
        block[i] = ctx.read_local(src, range.begin + i);
        hist[(static_cast<std::uint64_t>(block[i]) >> shift) &
             (radix - 1)]++;
      }
      ctx.charge_ops(2 * mine);
      ctx.charge_mem(2 * mine, mine * 8);

      // Broadcast my histogram row to every node's count region.
      for (int j = 0; j < p; ++j) {
        const std::uint64_t base =
            static_cast<std::uint64_t>(j) * up * radix + ume * radix;
        if (j == me) {
          for (std::uint64_t d = 0; d < radix; ++d) {
            ctx.write_local(counts, base + d, hist[d]);
          }
        } else {
          ctx.put_range(counts, base, radix, hist.data());
        }
      }
      ctx.sync();

      // Global positions: for digit d, node i's elements start at
      // sum of all smaller digits everywhere + sum of digit d on nodes
      // before i.
      std::vector<std::int64_t> digit_total(radix, 0);
      std::vector<std::int64_t> before_me(radix, 0);
      for (std::uint64_t i = 0; i < up; ++i) {
        for (std::uint64_t d = 0; d < radix; ++d) {
          const std::int64_t c =
              ctx.read_local(counts, ume * up * radix + i * radix + d);
          digit_total[d] += c;
          if (i < ume) before_me[d] += c;
        }
      }
      std::vector<std::int64_t> cursor(radix);
      std::int64_t acc = 0;
      for (std::uint64_t d = 0; d < radix; ++d) {
        cursor[d] = acc + before_me[d];
        acc += digit_total[d];
      }
      ctx.charge_ops(static_cast<std::int64_t>(up * radix) * 2);
      ctx.charge_mem(static_cast<std::int64_t>(up * radix),
                     static_cast<std::int64_t>(up * radix) * 8);

      // Scatter: every key goes to its computed global slot.
      for (const std::int64_t v : block) {
        const std::uint64_t d =
            (static_cast<std::uint64_t>(v) >> shift) & (radix - 1);
        ctx.put(dst, static_cast<std::uint64_t>(cursor[d]), v);
        cursor[d]++;
      }
      ctx.charge_ops(3 * mine);
      ctx.sync();

      std::swap(src, dst);
    }

    // If the sorted sequence ended in the scratch buffer, copy the owned
    // block back (same indices, so purely local work).
    if (passes % 2 == 1) {
      for (std::uint64_t i = range.begin; i < range.end; ++i) {
        ctx.write_local(data, i, ctx.read_local(scratch, i));
      }
      ctx.charge_mem(2 * mine, mine * 8);
    }
    ctx.sync();
  });
  return out;
}

}  // namespace qsm::algos
