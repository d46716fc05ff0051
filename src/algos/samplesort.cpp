#include "algos/samplesort.hpp"

#include <algorithm>
#include <cmath>
#include <vector>

#include "support/contract.hpp"

namespace qsm::algos {

namespace {

std::uint64_t ceil_log2(std::uint64_t n) {
  std::uint64_t l = 0;
  while ((1ULL << l) < n) ++l;
  return l;
}

/// Charge for sorting k elements locally. On the Table 2 machine (8 KB L1,
/// 256 KB L2) a comparison-sort step is a handful of instructions plus
/// several data touches that mostly miss L1 once the working set is large,
/// so we charge 3 ops and 4 hierarchy-priced accesses per comparison.
void charge_sort(rt::Context& ctx, std::uint64_t k) {
  if (k < 2) return;
  const auto comparisons =
      static_cast<std::int64_t>(k * ceil_log2(k));
  ctx.charge_ops(3 * comparisons);
  ctx.charge_mem(4 * comparisons, static_cast<std::int64_t>(k) * 8);
}

}  // namespace

SampleSortOutcome sample_sort(rt::Runtime& runtime,
                              rt::GlobalArray<std::int64_t> data,
                              int oversample_c) {
  const int p = runtime.nprocs();
  const auto up = static_cast<std::uint64_t>(p);
  const std::uint64_t n = data.n;
  QSM_REQUIRE(oversample_c >= 1, "oversampling factor must be >= 1");
  const std::uint64_t s =
      static_cast<std::uint64_t>(oversample_c) * std::max<std::uint64_t>(
                                                     1, ceil_log2(n));
  QSM_REQUIRE(p == 1 || up * up * s <= n * static_cast<std::uint64_t>(
                                              oversample_c) * 4,
              "sample sort wants p <= ~sqrt(n / log n)");
  QSM_REQUIRE(n >= up * up, "need at least p elements per node");

  // Per-call scratch, freed on return and on throw.
  rt::ScopedArrays arrays(runtime);
  // Shared scratch. Region sizes divide evenly so block ownership is exact.
  auto samples_all = arrays.alloc<std::int64_t>(up * up * s,
                                                rt::Layout::Block,
                                                "sort-samples");
  auto counts = arrays.alloc<std::int64_t>(up * up, rt::Layout::Block,
                                           "sort-counts");
  auto ptrs = arrays.alloc<std::int64_t>(up * up, rt::Layout::Block,
                                         "sort-ptrs");
  auto totals = arrays.alloc<std::int64_t>(up * up, rt::Layout::Block,
                                           "sort-totals");

  SampleSortOutcome out;
  out.oversample_c = oversample_c;
  out.samples_per_node = s;

  out.timing = runtime.run([&](rt::Context& ctx) {
    const int me = ctx.rank();
    const auto ume = static_cast<std::uint64_t>(me);
    const auto range = rt::block_range(n, p, me);
    const auto mine = range.size();

    // --- Phase 1: registration --------------------------------------------
    ctx.charge_ops(64);  // bookkeeping for shared-array registration
    ctx.sync();

    // --- Phase 2: pick and broadcast samples -------------------------------
    std::vector<std::int64_t> my_samples;
    my_samples.reserve(s);
    for (std::uint64_t k = 0; k < s; ++k) {
      const std::uint64_t idx = range.begin + ctx.rng().below(mine);
      my_samples.push_back(ctx.read_local(data, idx));
    }
    ctx.charge_ops(static_cast<std::int64_t>(s) * 4);
    ctx.charge_mem(static_cast<std::int64_t>(s),
                   static_cast<std::int64_t>(mine) * 8);
    for (int j = 0; j < p; ++j) {
      const std::uint64_t base =
          static_cast<std::uint64_t>(j) * up * s + ume * s;
      if (j == me) {
        for (std::uint64_t k = 0; k < s; ++k) {
          ctx.write_local(samples_all, base + k, my_samples[k]);
        }
      } else {
        ctx.put_range(samples_all, base, s, my_samples.data());
      }
    }
    ctx.sync();

    // --- Phase 3: pivots, classification, counts ----------------------------
    std::vector<std::int64_t> all_samples(up * s);
    for (std::uint64_t k = 0; k < up * s; ++k) {
      all_samples[k] = ctx.read_local(samples_all, ume * up * s + k);
    }
    std::sort(all_samples.begin(), all_samples.end());
    charge_sort(ctx, up * s);

    std::vector<std::int64_t> pivots;  // p-1 pivots, every s-th sample
    pivots.reserve(up - 1);
    for (std::uint64_t b = 1; b < up; ++b) {
      pivots.push_back(all_samples[b * s]);
    }

    // Bucket of a value: first pivot greater than it.
    auto bucket_of = [&](std::int64_t v) {
      return static_cast<std::uint64_t>(
          std::upper_bound(pivots.begin(), pivots.end(), v) - pivots.begin());
    };

    // Group the owned block by bucket (counting sort), in place in the
    // shared array so bucket owners can fetch contiguous ranges.
    std::vector<std::int64_t> block(mine);
    for (std::uint64_t i = 0; i < mine; ++i) {
      block[i] = ctx.read_local(data, range.begin + i);
    }
    std::vector<std::uint64_t> cnt(up, 0);
    for (const std::int64_t v : block) cnt[bucket_of(v)]++;
    std::vector<std::uint64_t> group_start(up, 0);
    for (std::uint64_t b = 1; b < up; ++b) {
      group_start[b] = group_start[b - 1] + cnt[b - 1];
    }
    std::vector<std::uint64_t> cursor = group_start;
    for (const std::int64_t v : block) {
      const std::uint64_t b = bucket_of(v);
      ctx.write_local(data, range.begin + cursor[b], v);
      cursor[b]++;
    }
    // Binary search over the pivots plus the counting-sort scatter: per
    // element, ~2 ops and one access per pivot level, and three passes
    // over the block.
    ctx.charge_ops(static_cast<std::int64_t>(
        mine * 2 * (ceil_log2(up) + 1)));
    ctx.charge_mem(static_cast<std::int64_t>(mine * (ceil_log2(up) + 3)),
                   static_cast<std::int64_t>(mine) * 8);

    // Send (count, pointer) to each bucket owner.
    for (std::uint64_t b = 0; b < up; ++b) {
      const auto count = static_cast<std::int64_t>(cnt[b]);
      const auto ptr =
          static_cast<std::int64_t>(range.begin + group_start[b]);
      const std::uint64_t slot = b * up + ume;
      if (b == ume) {
        ctx.write_local(counts, slot, count);
        ctx.write_local(ptrs, slot, ptr);
      } else {
        ctx.put(counts, slot, count);
        ctx.put(ptrs, slot, ptr);
      }
    }
    ctx.sync();

    // --- Phase 4: fetch my bucket; broadcast bucket totals ------------------
    std::int64_t total_me = 0;
    std::vector<std::int64_t> contrib_count(up);
    std::vector<std::int64_t> contrib_ptr(up);
    for (std::uint64_t i = 0; i < up; ++i) {
      contrib_count[i] = ctx.read_local(counts, ume * up + i);
      contrib_ptr[i] = ctx.read_local(ptrs, ume * up + i);
      total_me += contrib_count[i];
    }
    ctx.charge_ops(3 * p);

    std::vector<std::int64_t> bucket(
        static_cast<std::uint64_t>(total_me));
    {
      std::uint64_t off = 0;
      for (std::uint64_t i = 0; i < up; ++i) {
        const auto c = static_cast<std::uint64_t>(contrib_count[i]);
        if (c == 0) continue;
        ctx.get_range(data, static_cast<std::uint64_t>(contrib_ptr[i]), c,
                      bucket.data() + off);
        off += c;
      }
    }
    for (int j = 0; j < p; ++j) {
      const std::uint64_t slot = static_cast<std::uint64_t>(j) * up + ume;
      if (j == me) {
        ctx.write_local(totals, slot, total_me);
      } else {
        ctx.put(totals, slot, total_me);
      }
    }
    ctx.sync();

    // --- Phase 5: local sort and write-back ---------------------------------
    std::sort(bucket.begin(), bucket.end());
    charge_sort(ctx, static_cast<std::uint64_t>(total_me));

    std::int64_t offset = 0;
    for (std::uint64_t b = 0; b < ume; ++b) {
      offset += ctx.read_local(totals, ume * up + b);
    }
    ctx.charge_ops(p);
    if (!bucket.empty()) {
      ctx.put_range(data, static_cast<std::uint64_t>(offset), bucket.size(),
                    bucket.data());
    }
    ctx.sync();
  });

  // --- skew instrumentation (B and r) from the shared scratch ---------------
  const auto counts_h = runtime.host_read(counts);
  for (std::uint64_t b = 0; b < up; ++b) {
    std::uint64_t total = 0;
    std::uint64_t own = 0;
    for (std::uint64_t i = 0; i < up; ++i) {
      const auto c = static_cast<std::uint64_t>(counts_h[b * up + i]);
      total += c;
      if (i == b) own = c;
    }
    out.largest_bucket = std::max(out.largest_bucket, total);
    if (total > 0) {
      const double r =
          static_cast<double>(total - own) / static_cast<double>(total);
      out.remote_fraction = std::max(out.remote_fraction, r);
    }
  }
  return out;
}

}  // namespace qsm::algos
