#include "core/store.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "support/contract.hpp"

namespace qsm::rt {
namespace {

TEST(SharedStore, AllocateZeroesAndRecordsMetadata) {
  SharedStore store(1, 4);
  const auto h = store.allocate(10, Layout::Block, "a");
  const auto& s = store.slot(h.id, h.generation);
  EXPECT_EQ(s.name, "a");
  EXPECT_EQ(s.n, 10u);
  EXPECT_EQ(s.chunk, 3u);  // ceil(10 / 4)
  ASSERT_EQ(s.data.size(), 10u);
  for (const auto w : s.data) EXPECT_EQ(w, 0u);
}

TEST(SharedStore, ReleaseRecyclesSlotIds) {
  SharedStore store(1, 4);
  const auto a = store.allocate(8, Layout::Block, "");
  const auto b = store.allocate(8, Layout::Block, "");
  store.release(a.id, a.generation);
  const auto c = store.allocate(16, Layout::Cyclic, "");
  // The freed id comes back instead of growing the slot table.
  EXPECT_EQ(c.id, a.id);
  EXPECT_GT(c.generation, a.generation);
  EXPECT_EQ(store.slot_count(), 2u);
  EXPECT_EQ(store.allocations(), 3u);
  EXPECT_EQ(store.slot(c.id, c.generation).n, 16u);
  EXPECT_EQ(store.slot(b.id, b.generation).n, 8u);
}

TEST(SharedStore, StaleHandleFaults) {
  SharedStore store(1, 4);
  const auto a = store.allocate(8, Layout::Block, "");
  store.release(a.id, a.generation);
  EXPECT_THROW((void)store.slot(a.id, a.generation),
               support::ContractViolation);
  const auto b = store.allocate(8, Layout::Block, "");
  ASSERT_EQ(b.id, a.id);
  // The recycled slot is live again, but the old handle stays dead.
  EXPECT_NO_THROW((void)store.slot(b.id, b.generation));
  EXPECT_THROW((void)store.slot(a.id, a.generation),
               support::ContractViolation);
}

TEST(SharedStore, DoubleFreeFaults) {
  SharedStore store(1, 4);
  const auto a = store.allocate(8, Layout::Block, "");
  store.release(a.id, a.generation);
  EXPECT_THROW(store.release(a.id, a.generation),
               support::ContractViolation);
}

TEST(SharedStore, BogusIdFaults) {
  SharedStore store(1, 4);
  EXPECT_THROW((void)store.slot(0, 0), support::ContractViolation);
  EXPECT_THROW(store.release(7, 0), support::ContractViolation);
}

TEST(SharedStore, HashedSaltsIgnoreSlotRecycling) {
  // Two stores run the "same program": scratch array then a hashed array.
  // One frees the scratch first, so the hashed array lands in a recycled
  // slot. The salt (and therefore every ownership decision) must not see
  // the difference — that is what keeps simulated timing independent of
  // free() patterns.
  SharedStore keep(42, 8);
  (void)keep.allocate(64, Layout::Block, "scratch");
  const auto hk = keep.allocate(1000, Layout::Hashed, "");

  SharedStore churn(42, 8);
  const auto scratch = churn.allocate(64, Layout::Block, "scratch");
  churn.release(scratch.id, scratch.generation);
  const auto hc = churn.allocate(1000, Layout::Hashed, "");

  const auto& sk = keep.slot(hk.id, hk.generation);
  const auto& sc = churn.slot(hc.id, hc.generation);
  EXPECT_EQ(sk.salt, sc.salt);
  EXPECT_EQ(sk.name, sc.name);  // default names count allocations, not slots
  for (std::uint64_t i = 0; i < 1000; ++i) {
    ASSERT_EQ(keep.owner(sk, i), churn.owner(sc, i)) << "index " << i;
  }
}

TEST(SharedStore, BlockRunDecompositionMatchesPerWordOwner) {
  SharedStore store(1, 5);
  const auto h = store.allocate(23, Layout::Block, "");
  const auto& s = store.slot(h.id, h.generation);
  for (std::uint64_t start = 0; start < 23; ++start) {
    for (std::uint64_t count = 1; count <= 23 - start; ++count) {
      std::uint64_t covered = start;
      store.for_each_block_run(
          s, start, count,
          [&](int owner, std::uint64_t begin, std::uint64_t len) {
            ASSERT_EQ(begin, covered) << "gap in run decomposition";
            ASSERT_GT(len, 0u);
            for (std::uint64_t i = begin; i < begin + len; ++i) {
              ASSERT_EQ(store.owner(s, i), owner);
            }
            covered = begin + len;
          });
      ASSERT_EQ(covered, start + count);
    }
  }
}

/// Per-owner word counts of [start, start + count) from the store walk.
/// Also checks the walk's order contract: Block and Cyclic visit each
/// owner once, ascending.
std::vector<std::uint64_t> walk_counts(const SharedStore& store,
                                       const ArraySlot& s,
                                       std::uint64_t start,
                                       std::uint64_t count) {
  std::vector<std::uint64_t> counts(static_cast<std::size_t>(store.nprocs()),
                                    0);
  int prev = -1;
  store.for_each_owner(s, start, count, [&](int owner, std::uint64_t words) {
    EXPECT_GT(words, 0u);
    if (s.layout != Layout::Hashed) {
      EXPECT_GT(owner, prev) << "owners not visited once, ascending";
      prev = owner;
    }
    counts[static_cast<std::size_t>(owner)] += words;
  });
  return counts;
}

TEST(SharedStore, OwnerCountsMatchPerWordOwnerForEveryLayout) {
  // Spans shorter than p, exactly p, longer than p, and wrapping past the
  // last owner (Cyclic) all count each word at the owner owner() names.
  const int p = 7;
  SharedStore store(99, p);
  for (const Layout layout :
       {Layout::Block, Layout::Cyclic, Layout::Hashed}) {
    const auto h = store.allocate(61, layout, "");
    const auto& s = store.slot(h.id, h.generation);
    for (std::uint64_t start = 0; start < 61; start += 3) {
      for (const std::uint64_t len : {1u, 5u, 7u, 17u}) {
        const std::uint64_t count = std::min<std::uint64_t>(len, 61 - start);
        std::vector<std::uint64_t> naive(p, 0);
        for (std::uint64_t i = start; i < start + count; ++i) {
          naive[static_cast<std::size_t>(store.owner(s, i))]++;
        }
        EXPECT_EQ(walk_counts(store, s, start, count), naive)
            << "layout " << to_string(layout) << " start " << start
            << " count " << count;
      }
    }
  }
}

TEST(SharedStore, AccumulateIsAdditive) {
  for (const Layout layout :
       {Layout::Block, Layout::Cyclic, Layout::Hashed}) {
    SharedStore store(1, 4);
    const auto h = store.allocate(100, layout, "");
    const auto& s = store.slot(h.id, h.generation);
    std::vector<std::uint64_t> halves = walk_counts(store, s, 0, 50);
    const std::vector<std::uint64_t> upper = walk_counts(store, s, 50, 50);
    for (std::size_t o = 0; o < halves.size(); ++o) halves[o] += upper[o];
    EXPECT_EQ(halves, walk_counts(store, s, 0, 100)) << to_string(layout);
  }
}

}  // namespace
}  // namespace qsm::rt
