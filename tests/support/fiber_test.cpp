// The fiber primitive underneath the cooperative lane engine.
#include "support/fiber.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <numeric>
#include <vector>

#include "support/contract.hpp"

namespace qsm::support {
namespace {

TEST(Fiber, RunsToCompletionAcrossResumes) {
  std::vector<int> events;
  Fiber f([&] {
    events.push_back(1);
    Fiber::yield();
    events.push_back(2);
    Fiber::yield();
    events.push_back(3);
  });
  EXPECT_FALSE(f.finished());
  f.resume();
  EXPECT_EQ(events, (std::vector<int>{1}));
  EXPECT_FALSE(f.finished());
  f.resume();
  EXPECT_EQ(events, (std::vector<int>{1, 2}));
  f.resume();
  EXPECT_EQ(events, (std::vector<int>{1, 2, 3}));
  EXPECT_TRUE(f.finished());
}

TEST(Fiber, InFiberTracksContext) {
  EXPECT_FALSE(Fiber::in_fiber());
  bool inside = false;
  Fiber f([&] { inside = Fiber::in_fiber(); });
  f.resume();
  EXPECT_TRUE(inside);
  EXPECT_FALSE(Fiber::in_fiber());
}

TEST(Fiber, InterleavesLikeCooperativeLanes) {
  // The Executor's usage pattern in miniature: round-robin resume of many
  // fibers, each yielding at a "barrier" between steps.
  constexpr int kLanes = 16;
  constexpr int kSteps = 4;
  std::vector<int> order;
  std::vector<std::unique_ptr<Fiber>> lanes;
  lanes.reserve(kLanes);
  for (int r = 0; r < kLanes; ++r) {
    lanes.push_back(std::make_unique<Fiber>([&order, r] {
      for (int s = 0; s < kSteps; ++s) {
        order.push_back(s * kLanes + r);
        if (s + 1 < kSteps) Fiber::yield();
      }
    }));
  }
  std::size_t live = lanes.size();
  while (live > 0) {
    for (auto& lane : lanes) {
      if (lane->finished()) continue;
      lane->resume();
      if (lane->finished()) --live;
    }
  }
  std::vector<int> expected(kLanes * kSteps);
  std::iota(expected.begin(), expected.end(), 0);
  EXPECT_EQ(order, expected);  // strict round-robin, step by step
}

TEST(Fiber, DeepStackUseSurvivesSwitches) {
  // Grow a real stack footprint between yields; ASan/TSan builds exercise
  // the fake-stack bookkeeping here.
  std::uint64_t sum = 0;
  Fiber f(
      [&] {
        volatile std::uint64_t frame[4096];
        for (std::size_t i = 0; i < 4096; ++i) {
          frame[i] = i;
        }
        Fiber::yield();
        for (std::size_t i = 0; i < 4096; ++i) {
          sum += frame[i];
        }
      },
      std::size_t{256} << 10);
  f.resume();
  f.resume();
  EXPECT_TRUE(f.finished());
  EXPECT_EQ(sum, 4095u * 4096u / 2);
}

TEST(Fiber, MisuseFaultsLoudly) {
  EXPECT_THROW(Fiber::yield(), ContractViolation);  // outside any fiber
  Fiber f([] {});
  f.resume();
  EXPECT_TRUE(f.finished());
  EXPECT_THROW(f.resume(), ContractViolation);  // finished fiber
  EXPECT_THROW(Fiber(nullptr), ContractViolation);
}

}  // namespace
}  // namespace qsm::support
