// Algorithms free their per-call shared scratch.
//
// A Runtime reused across calls must not grow per call, so every array an
// algorithm allocates for itself is freed when the call returns. The probe:
// call the algorithm twice on one Runtime and allocate (then free) one
// array after each call. The store hands out the most recently freed slot
// id first, so the two probes get the same id only if the second call
// freed every slot it took, in the same order as the first.
#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <type_traits>
#include <vector>

#include "algos/bfs.hpp"
#include "algos/components.hpp"
#include "algos/listrank.hpp"
#include "algos/prefix.hpp"
#include "algos/radixsort.hpp"
#include "algos/samplesort.hpp"
#include "algos/wyllie.hpp"
#include "core/collectives.hpp"
#include "core/runtime.hpp"
#include "machine/presets.hpp"
#include "support/rng.hpp"

namespace qsm::algos {
namespace {

constexpr int kProcs = 4;

using Call = std::function<void(rt::Runtime&, rt::GlobalArray<std::int64_t>)>;

/// Calls `call` twice on one Runtime (an n-element caller array passed
/// each time) and compares the ids of the probes allocated after each.
void expect_same_probe_id(std::uint64_t n, const Call& call) {
  rt::Runtime runtime(machine::default_sim(kProcs));
  auto data = runtime.alloc<std::int64_t>(n);
  std::uint32_t probe_ids[2];
  for (std::uint32_t& id : probe_ids) {
    call(runtime, data);
    const auto probe = runtime.alloc<std::int64_t>(1);
    id = probe.id;
    runtime.free(probe);
  }
  EXPECT_EQ(probe_ids[0], probe_ids[1]);
}

std::vector<std::int64_t> random_values(std::uint64_t n) {
  support::Xoshiro256 rng(3, 0);
  std::vector<std::int64_t> v(n);
  for (auto& x : v) x = static_cast<std::int64_t>(rng.below(1u << 20));
  return v;
}

TEST(AlgorithmScratch, ListRankFreesItsArrays) {
  const auto list = make_random_list(256, 7);
  expect_same_probe_id(list.size(),
                       [&](rt::Runtime& runtime, auto ranks) {
                         (void)list_rank(runtime, list, ranks);
                       });
}

TEST(AlgorithmScratch, WyllieFreesItsArrays) {
  const auto list = make_random_list(256, 7);
  expect_same_probe_id(list.size(),
                       [&](rt::Runtime& runtime, auto ranks) {
                         (void)wyllie_list_rank(runtime, list, ranks);
                       });
}

TEST(AlgorithmScratch, SampleSortFreesItsArrays) {
  const auto values = random_values(4096);
  expect_same_probe_id(values.size(), [&](rt::Runtime& runtime, auto data) {
    runtime.host_fill(data, values);
    (void)sample_sort(runtime, data);
  });
}

TEST(AlgorithmScratch, RadixSortFreesItsArraysAndCollectives) {
  const auto values = random_values(4096);
  expect_same_probe_id(values.size(), [&](rt::Runtime& runtime, auto data) {
    runtime.host_fill(data, values);
    (void)radix_sort(runtime, data);
  });
}

TEST(AlgorithmScratch, PrefixFreesItsArrays) {
  const auto values = random_values(1024);
  expect_same_probe_id(values.size(), [&](rt::Runtime& runtime, auto data) {
    runtime.host_fill(data, values);
    (void)parallel_prefix(runtime, data);
  });
}

TEST(AlgorithmScratch, BfsFreesItsArraysAndCollectives) {
  const auto g = make_random_graph(500, 3.0, 7);
  expect_same_probe_id(g.n, [&](rt::Runtime& runtime, auto dist) {
    (void)parallel_bfs(runtime, g, 0, dist);
  });
}

TEST(AlgorithmScratch, ComponentsFreeItsArraysAndCollectives) {
  const auto g = make_random_graph(500, 0.8, 5);
  expect_same_probe_id(g.n, [&](rt::Runtime& runtime, auto labels) {
    (void)connected_components(runtime, g, labels);
  });
}

TEST(AlgorithmScratch, CollectivesFreeTheirSlotsAndCannotBeCopied) {
  static_assert(!std::is_copy_constructible_v<rt::Collectives>);
  static_assert(!std::is_copy_assignable_v<rt::Collectives>);
  expect_same_probe_id(1, [](rt::Runtime& runtime, auto) {
    rt::Collectives coll(runtime);
    (void)runtime.run([&](rt::Context& ctx) {
      (void)coll.allreduce_sum(ctx, ctx.rank());
    });
  });
}

}  // namespace
}  // namespace qsm::algos
