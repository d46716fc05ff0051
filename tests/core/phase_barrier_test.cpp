// The phase barrier behind Context::sync(), across carrier layouts.
//
// The barrier has two levels: a lane first arrives at its own carrier's
// tally, and only the carrier's last lane to arrive reaches the shared
// barrier. Every mismatch, error and wakeup path must hold however the
// lanes split over carriers, so each case runs at host budgets 1, 3 and 16
// with p = 7 and p = 64: one carrier, uneven splits (7 lanes over 3
// carriers) and one to four lanes per carrier.
#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/runtime.hpp"
#include "machine/presets.hpp"

namespace qsm {
namespace {

/// Restores the hardware-default host thread budget when a test that
/// changes it ends, however it ends.
struct BudgetReset {
  ~BudgetReset() { rt::set_host_thread_budget(0); }
};

constexpr int kBudgets[] = {1, 3, 16};
constexpr int kProcs[] = {7, 64};

using Program = std::function<void(rt::Context&)>;

/// Calls check(runtime) on a fresh p-lane Runtime built under each budget.
void for_each_layout(const rt::Options& opts,
                     const std::function<void(rt::Runtime&)>& check) {
  BudgetReset reset;
  for (const int budget : kBudgets) {
    for (const int p : kProcs) {
      rt::set_host_thread_budget(budget);
      rt::Runtime runtime(machine::default_sim(p), opts);
      SCOPED_TRACE("budget " + std::to_string(budget) + ", p " +
                   std::to_string(p) + ", " +
                   std::to_string(runtime.host_carriers()) + " carriers");
      check(runtime);
    }
  }
}

void for_each_layout(const std::function<void(rt::Runtime&)>& check) {
  for_each_layout(rt::Options{}, check);
}

bool contains(const std::string& text, const std::string& part) {
  return text.find(part) != std::string::npos;
}

/// run(program) must fail with the barrier's mismatch ContractViolation.
void expect_mismatch(rt::Runtime& runtime, const Program& program) {
  try {
    (void)runtime.run(program);
    ADD_FAILURE() << "a program with mismatched sync() counts completed";
  } catch (const support::ContractViolation& e) {
    EXPECT_TRUE(contains(e.what(), "different numbers of sync() calls"))
        << e.what();
  }
}

/// Thrown by a program lane; must reach run() as itself.
struct LaneError : std::runtime_error {
  LaneError() : std::runtime_error("lane error") {}
};

/// One good phase with a ring put, then `then(ctx)`.
Program after_one_phase(rt::GlobalArray<std::int64_t> a,
                        std::function<void(rt::Context&)> then) {
  return [a, then = std::move(then)](rt::Context& ctx) {
    const auto p = static_cast<std::uint64_t>(ctx.nprocs());
    const auto r = static_cast<std::uint64_t>(ctx.rank());
    ctx.put(a, (r + 1) % p, static_cast<std::int64_t>(r));
    ctx.charge_ops(static_cast<std::int64_t>(r % 3) + 1);
    ctx.sync();
    then(ctx);
  };
}

// ---- mismatches ------------------------------------------------------------

// Rank p - 1 is the last lane of its carrier, so its carrier-mates have
// arrived before it returns.
TEST(PhaseBarrier, LaneReturnsWhileItsCarrierMatesWait) {
  for_each_layout([](rt::Runtime& runtime) {
    const int last = runtime.nprocs() - 1;
    expect_mismatch(runtime, [last](rt::Context& ctx) {
      if (ctx.rank() != last) ctx.sync();
    });
  });
}

TEST(PhaseBarrier, EveryLaneOfOneCarrierReturnsWhileAnotherWaits) {
  for_each_layout([](rt::Runtime& runtime) {
    const int carriers = runtime.host_carriers();
    if (carriers == 1) return;  // needs a second carrier to wait
    // Carrier 0 owns the ranks r with r % carriers == 0.
    expect_mismatch(runtime, [carriers](rt::Context& ctx) {
      if (ctx.rank() % carriers != 0) ctx.sync();
    });
  });
}

// On one carrier, rank p - 1 completes the first phase and returns at
// once, then ranks 0 .. p - 3 resume and return before rank p - 2 syncs
// again: its arrival is the carrier's, after every other lane retired.
TEST(PhaseBarrier, LaneSyncsAfterOthersReturned) {
  for_each_layout([](rt::Runtime& runtime) {
    const int extra = runtime.nprocs() - 2;
    auto a = runtime.alloc<std::int64_t>(
        static_cast<std::uint64_t>(runtime.nprocs()));
    expect_mismatch(runtime, after_one_phase(a, [extra](rt::Context& ctx) {
                      if (ctx.rank() == extra) ctx.sync();
                    }));
  });
}

TEST(PhaseBarrier, MismatchAfterThreeGoodPhases) {
  for_each_layout([](rt::Runtime& runtime) {
    auto a = runtime.alloc<std::int64_t>(
        static_cast<std::uint64_t>(runtime.nprocs()));
    expect_mismatch(runtime, [a](rt::Context& ctx) {
      const auto p = static_cast<std::uint64_t>(ctx.nprocs());
      const auto r = static_cast<std::uint64_t>(ctx.rank());
      for (int phase = 0; phase < 3; ++phase) {
        ctx.put(a, (r + 1) % p, static_cast<std::int64_t>(phase));
        ctx.sync();
      }
      if (ctx.rank() == 0) ctx.sync();
    });
  });
}

// ---- exceptions ------------------------------------------------------------

// Rank 1 throws at its second sync while lanes before it, on its own
// carrier and on others, are parked there; whenever its carrier has more
// than one lane it is not the carrier's last.
TEST(PhaseBarrier, LaneExceptionReachesRunAsItself) {
  for_each_layout([](rt::Runtime& runtime) {
    auto a = runtime.alloc<std::int64_t>(
        static_cast<std::uint64_t>(runtime.nprocs()));
    EXPECT_THROW((void)runtime.run(after_one_phase(a,
                                                   [](rt::Context& ctx) {
                                                     if (ctx.rank() == 1) {
                                                       throw LaneError();
                                                     }
                                                     ctx.sync();
                                                   })),
                 LaneError);
  });
}

TEST(PhaseBarrier, CompletionExceptionReachesRunAsItself) {
  for_each_layout(rt::Options{.check_rules = true}, [](rt::Runtime& runtime) {
    auto a = runtime.alloc<std::int64_t>(
        static_cast<std::uint64_t>(runtime.nprocs()));
    try {
      (void)runtime.run([a](rt::Context& ctx) {
        // Rank 0 writes a[1] while rank 1 reads it: the completion's rule
        // check throws.
        std::int64_t v = 0;
        if (ctx.rank() == 0) ctx.put(a, 1, std::int64_t{7});
        if (ctx.rank() == 1) ctx.get(a, 1, &v);
        ctx.sync();
      });
      ADD_FAILURE() << "a read and write of one location in a phase passed";
    } catch (const support::ContractViolation& e) {
      EXPECT_TRUE(contains(e.what(), "bulk-synchrony violation")) << e.what();
    }
  });
}

// ---- reuse after a failure ------------------------------------------------

TEST(PhaseBarrier, FailedRunLeavesRuntimeReusable) {
  const rt::Options opts{.seed = 5, .check_rules = true};
  for_each_layout(opts, [&](rt::Runtime& runtime) {
    const int p = runtime.nprocs();
    const int last = p - 1;
    const auto up = static_cast<std::uint64_t>(p);
    const auto good = [up](rt::GlobalArray<std::int64_t> a) {
      return [a, up](rt::Context& ctx) {
        const auto r = static_cast<std::uint64_t>(ctx.rank());
        ctx.put(a, (r + 1) % up, static_cast<std::int64_t>(r));
        ctx.charge_ops(static_cast<std::int64_t>(r) + 1);
        ctx.sync();
        std::int64_t v = 0;
        ctx.get(a, (r + 2) % up, &v);
        ctx.sync();
      };
    };

    rt::RunResult expected;
    {
      rt::Runtime fresh(runtime.machine(), opts);
      expected = fresh.run(good(fresh.alloc<std::int64_t>(up)));
    }

    auto a = runtime.alloc<std::int64_t>(up);
    const std::vector<std::pair<std::string, Program>> failures{
        {"a lane returns while others wait",
         [last](rt::Context& ctx) {
           if (ctx.rank() != last) ctx.sync();
         }},
        {"a lane syncs after others returned",
         [last](rt::Context& ctx) {
           ctx.sync();
           if (ctx.rank() == last) ctx.sync();
         }},
        {"a user exception while others wait",
         [](rt::Context& ctx) {
           if (ctx.rank() == 1) throw LaneError();
           ctx.sync();
         }},
        {"a rule violation thrown by the completion",
         [a](rt::Context& ctx) {
           std::int64_t v = 0;
           if (ctx.rank() == 0) ctx.put(a, 1, std::int64_t{7});
           if (ctx.rank() == 1) ctx.get(a, 1, &v);
           ctx.sync();
         }},
    };
    for (const auto& [kind, program] : failures) {
      SCOPED_TRACE(kind);
      EXPECT_ANY_THROW((void)runtime.run(program));
      rt::RunResult again;
      EXPECT_NO_THROW(again = runtime.run(good(a)));
      EXPECT_EQ(again, expected);
    }
  });
}

// ---- lost wakeups ----------------------------------------------------------

// Many phases with rank-dependent host work before each sync(), so lanes
// reach the barrier in a different order on every carrier and carriers
// fall asleep and wake at different points of each phase. Any lost wakeup
// hangs the test; any carrier-dependent result fails the comparison with
// one carrier.
TEST(PhaseBarrier, ManyPhasesMatchOneCarrier) {
  constexpr int kPhases = 2000;
  BudgetReset reset;
  for (const int p : {5, 64, 257}) {
    const auto up = static_cast<std::uint64_t>(p);
    std::vector<rt::RunResult> results;
    std::vector<std::vector<std::uint64_t>> sinks;
    for (const int budget : kBudgets) {
      rt::set_host_thread_budget(budget);
      rt::Runtime runtime(machine::default_sim(p));
      auto a = runtime.alloc<std::int64_t>(up, rt::Layout::Cyclic);
      std::vector<std::uint64_t> sink(up);
      results.push_back(runtime.run([&](rt::Context& ctx) {
        const auto r = static_cast<std::uint64_t>(ctx.rank());
        std::uint64_t x = r + 1;
        for (int phase = 0; phase < kPhases; ++phase) {
          const auto ph = static_cast<std::uint64_t>(phase);
          for (std::uint64_t k = 0; k < (r * 37 + ph * 11) % 97; ++k) {
            x = x * 6364136223846793005ULL + 1442695040888963407ULL;
          }
          ctx.charge_ops(static_cast<std::int64_t>((r + ph) % 5) + 1);
          ctx.put(a, (r + 1 + ph) % up, static_cast<std::int64_t>(x >> 1));
          ctx.sync();
        }
        sink[r] = x;
      }));
      sinks.push_back(sink);
    }
    for (std::size_t i = 1; i < results.size(); ++i) {
      EXPECT_EQ(results[i], results[0])
          << "p " << p << ", budget " << kBudgets[i];
      EXPECT_EQ(sinks[i], sinks[0]);
    }
  }
}

}  // namespace
}  // namespace qsm
