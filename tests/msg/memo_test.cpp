// BoundedMemo: the capacity rules behind Comm's plan and xfer memos, at
// small caps. A clear is invisible to simulated results, so these rules
// are pinned here rather than by the goldens.
#include "msg/memo.hpp"

#include <gtest/gtest.h>

#include <functional>

namespace qsm::msg {
namespace {

using Memo = BoundedMemo<int, int, std::hash<int>>;

/// A borrowed key that counts how often the memo turns it into a Key.
struct CountingKey {
  int key;
  int* made;
  operator int() const {
    ++*made;
    return key;
  }
};

TEST(BoundedMemo, EntryCapClearsBeforeTheStoreThatWouldExceedIt) {
  Memo memo({.max_entries = 3});
  for (int k = 0; k < 3; ++k) {
    ASSERT_EQ(memo.find(k), nullptr);
    memo.insert(k, 10 * k);
  }
  EXPECT_EQ(memo.size(), 3u);
  EXPECT_EQ(memo.stats().clears, 0u);
  ASSERT_NE(memo.find(2), nullptr);
  EXPECT_EQ(*memo.find(2), 20);

  // The fourth entry would exceed the cap: everything goes, then it lands.
  memo.insert(3, 30);
  EXPECT_EQ(memo.size(), 1u);
  EXPECT_EQ(memo.stats().clears, 1u);
  EXPECT_EQ(memo.stats().installs, 4u);
  EXPECT_EQ(memo.find(0), nullptr);
  ASSERT_NE(memo.find(3), nullptr);
  EXPECT_EQ(*memo.find(3), 30);
}

TEST(BoundedMemo, WordCapClearsOnOverflowButNotOnAnExactFit) {
  Memo memo({.max_words = 10});
  memo.insert(1, 1, 4);
  memo.insert(2, 2, 6);  // 10 words: exactly at the cap
  EXPECT_EQ(memo.size(), 2u);
  EXPECT_EQ(memo.stats().clears, 0u);

  memo.insert(3, 3, 1);  // 11 words would pass the cap
  EXPECT_EQ(memo.size(), 1u);
  EXPECT_EQ(memo.stats().clears, 1u);
  EXPECT_EQ(memo.find(1), nullptr);
  EXPECT_NE(memo.find(3), nullptr);

  // The clear reset the word count: 1 + 9 fits again.
  memo.insert(4, 4, 9);
  EXPECT_EQ(memo.size(), 2u);
  EXPECT_EQ(memo.stats().clears, 1u);
}

TEST(BoundedMemo, OversizeEntryIsCountedNotStoredAndDoesNotClear) {
  Memo memo({.max_words = 10, .max_entry_words = 5});
  memo.insert(1, 1, 3);
  memo.insert(2, 2, 6);  // heavier than one entry may be
  EXPECT_EQ(memo.stats().oversize, 1u);
  EXPECT_EQ(memo.stats().clears, 0u);
  EXPECT_EQ(memo.stats().installs, 1u);
  EXPECT_EQ(memo.size(), 1u);
  EXPECT_EQ(memo.find(2), nullptr);
  EXPECT_NE(memo.find(1), nullptr);

  memo.insert(3, 3, 5);  // exactly the per-entry cap is stored
  EXPECT_EQ(memo.stats().oversize, 1u);
  EXPECT_EQ(memo.size(), 2u);
  EXPECT_EQ(memo.stats().hits, 1u);
  EXPECT_EQ(memo.stats().misses, 1u);

  // A borrowed key is copied into the memo only for an entry it stores.
  int made = 0;
  memo.insert(CountingKey{4, &made}, 4, 6);
  EXPECT_EQ(made, 0);
  EXPECT_EQ(memo.stats().oversize, 2u);
  memo.insert(CountingKey{5, &made}, 5, 1);
  EXPECT_EQ(made, 1);
  EXPECT_NE(memo.find(5), nullptr);
}

}  // namespace
}  // namespace qsm::msg
