// BoundedMemo: the capacity rule behind Comm's plan memo, at a small cap.
// A clear is invisible to simulated results, so the rule is pinned here
// rather than by the goldens.
#include "msg/memo.hpp"

#include <gtest/gtest.h>

#include <functional>

namespace qsm::msg {
namespace {

using Memo = BoundedMemo<int, int, std::hash<int>>;

TEST(BoundedMemo, EntryCapClearsBeforeTheStoreThatWouldExceedIt) {
  Memo memo(3);
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

}  // namespace
}  // namespace qsm::msg
