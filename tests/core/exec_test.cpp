// Executor reuse and host-parallelism plumbing.
//
// The refactor's contract: run() executes its fiber program lanes on
// persistent carrier threads and the phase pipeline on a persistent worker
// pool, so a long-lived Runtime creates a fixed number of OS threads no
// matter how many programs it runs — and neither the carrier count nor the
// phase-worker count is visible in program results.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <numeric>
#include <vector>

#include "core/runtime.hpp"
#include "machine/presets.hpp"

namespace qsm {
namespace {

/// Restores the hardware-default host thread budget when a test that
/// lowers or raises it ends, however it ends.
struct BudgetReset {
  ~BudgetReset() { rt::set_host_thread_budget(0); }
};

void exchange_program(rt::Runtime& runtime, rt::GlobalArray<std::int64_t> a,
                      std::uint64_t per) {
  runtime.run([&](rt::Context& ctx) {
    const auto rank = static_cast<std::uint64_t>(ctx.rank());
    const auto p = static_cast<std::uint64_t>(ctx.nprocs());
    std::vector<std::int64_t> out(per);
    for (std::uint64_t k = 0; k < per; ++k) {
      out[k] = static_cast<std::int64_t>(rank * per + k);
    }
    ctx.put_range(a, rank * per, per, out.data());
    ctx.sync();
    std::vector<std::int64_t> in(per);
    ctx.get_range(a, ((rank + 1) % p) * per, per, in.data());
    ctx.sync();
  });
}

TEST(Executor, RepeatedRunsCreateNoNewThreads) {
  rt::Runtime runtime(machine::default_sim(8));
  auto a = runtime.alloc<std::int64_t>(1024, rt::Layout::Cyclic);

  exchange_program(runtime, a, 1024 / 8);
  const std::uint64_t after_first = runtime.host_threads_created();
  EXPECT_GE(after_first,  // at least the carriers
            static_cast<std::uint64_t>(runtime.host_carriers()));

  for (int rep = 0; rep < 5; ++rep) {
    exchange_program(runtime, a, 1024 / 8);
    EXPECT_EQ(runtime.host_threads_created(), after_first)
        << "rep " << rep << " spawned fresh OS threads";
  }
}

TEST(Executor, ForcedPhaseWorkersCreateNoNewThreadsAcrossRuns) {
  rt::Runtime runtime(machine::default_sim(8),
                      rt::Options{.host_workers = 4});
  EXPECT_EQ(runtime.host_phase_workers(), 4);
  auto a = runtime.alloc<std::int64_t>(1 << 16, rt::Layout::Cyclic);

  exchange_program(runtime, a, (1u << 16) / 8);
  const std::uint64_t after_first = runtime.host_threads_created();
  EXPECT_EQ(after_first,  // carriers + phase workers
            static_cast<std::uint64_t>(runtime.host_carriers()) + 4u);

  for (int rep = 0; rep < 3; ++rep) {
    exchange_program(runtime, a, (1u << 16) / 8);
    EXPECT_EQ(runtime.host_threads_created(), after_first);
  }
}

TEST(Executor, FiberLanesBoundHostThreadsByCarriersNotP) {
  // p = 64 simulated processors must not cost 64 OS threads: the lane
  // engine multiplexes them onto carriers sized from the host budget.
  rt::Runtime runtime(machine::default_sim(64),
                      rt::Options{.host_workers = 1});
  EXPECT_GE(runtime.host_carriers(), 1);
  EXPECT_LE(runtime.host_carriers(), 16);
  auto a = runtime.alloc<std::int64_t>(1024, rt::Layout::Cyclic);

  exchange_program(runtime, a, 1024 / 64);
  const std::uint64_t after_first = runtime.host_threads_created();
  EXPECT_EQ(after_first,
            static_cast<std::uint64_t>(runtime.host_carriers()));
  EXPECT_LT(after_first, 64u);

  for (int rep = 0; rep < 3; ++rep) {
    exchange_program(runtime, a, 1024 / 64);
    EXPECT_EQ(runtime.host_threads_created(), after_first)
        << "rep " << rep << " spawned fresh OS threads";
  }
}

TEST(Executor, CarriersSizedFromBudgetNotP) {
  BudgetReset reset;
  {
    // One lane: one carrier, and it is the only OS thread a run creates
    // (p = 1 leaves the phase pipeline serial).
    rt::Runtime single(machine::default_sim(1));
    EXPECT_EQ(single.host_carriers(), 1);
    (void)single.run([](rt::Context& ctx) { ctx.sync(); });
    EXPECT_EQ(single.host_threads_created(), 1u);
  }
  // Twice the budget in lanes: carriers stop at the budget, then at 16.
  for (const int budget : {rt::host_thread_budget(), 3, 32}) {
    rt::set_host_thread_budget(budget);
    rt::Runtime wide(machine::default_sim(2 * budget));
    EXPECT_EQ(wide.host_carriers(), std::min(budget, 16))
        << "budget " << budget;
  }
}

TEST(Executor, CarrierCountDoesNotChangeResultsOrTiming) {
  // The lane engine's oracle in miniature: one carrier (lanes in rank
  // order on one thread) and one carrier per lane must produce identical
  // array contents and identical simulated timing.
  BudgetReset reset;
  const std::uint64_t n = 1 << 14;
  std::vector<std::int64_t> contents[2];
  rt::RunResult timing[2];
  const int budgets[2] = {1, 16};
  const int carriers[2] = {1, 8};
  for (int w = 0; w < 2; ++w) {
    rt::set_host_thread_budget(budgets[w]);
    rt::Runtime runtime(machine::default_sim(8),
                        rt::Options{.seed = 11,
                                    .check_rules = true,
                                    .track_kappa = true});
    ASSERT_EQ(runtime.host_carriers(), carriers[w]);
    auto a = runtime.alloc<std::int64_t>(n, rt::Layout::Cyclic);
    timing[w] = runtime.run([&](rt::Context& ctx) {
      const auto rank = static_cast<std::uint64_t>(ctx.rank());
      const auto p = static_cast<std::uint64_t>(ctx.nprocs());
      const std::uint64_t per = n / p;
      std::vector<std::int64_t> out(per);
      for (std::uint64_t k = 0; k < per; ++k) {
        out[k] = static_cast<std::int64_t>((rank * per + k) * 7 + 5);
      }
      ctx.put_range(a, rank * per, per, out.data());
      ctx.sync();
      std::vector<std::int64_t> in(per);
      ctx.get_range(a, ((rank + 5) % p) * per, per, in.data());
      ctx.sync();
    });
    contents[w] = runtime.host_read(a);
  }
  EXPECT_EQ(contents[0], contents[1]);
  EXPECT_EQ(timing[0], timing[1]);  // full trace, phase by phase
}

TEST(Executor, HostOnlyUseSpawnsNoThreads) {
  rt::Runtime runtime(machine::default_sim(8));
  auto a = runtime.alloc<std::int64_t>(256);
  std::vector<std::int64_t> v(256);
  std::iota(v.begin(), v.end(), 0);
  runtime.host_fill(a, v);
  EXPECT_EQ(runtime.host_read(a), v);
  EXPECT_EQ(runtime.host_threads_created(), 0u);
}

TEST(Executor, WorkerCountDoesNotChangeResultsOrTiming) {
  // Same program, serial vs forced-parallel phase processing: identical
  // array contents and identical simulated timing.
  const std::uint64_t n = 1 << 16;
  std::vector<std::int64_t> contents[2];
  rt::RunResult timing[2];
  const int workers[2] = {1, 4};
  for (int w = 0; w < 2; ++w) {
    rt::Runtime runtime(machine::default_sim(8),
                        rt::Options{.seed = 9,
                                    .check_rules = true,
                                    .track_kappa = true,
                                    .host_workers = workers[w]});
    auto a = runtime.alloc<std::int64_t>(n, rt::Layout::Cyclic);
    timing[w] = runtime.run([&](rt::Context& ctx) {
      const auto rank = static_cast<std::uint64_t>(ctx.rank());
      const auto p = static_cast<std::uint64_t>(ctx.nprocs());
      const std::uint64_t per = n / p;
      std::vector<std::int64_t> out(per);
      for (std::uint64_t k = 0; k < per; ++k) {
        out[k] = static_cast<std::int64_t>((rank * per + k) * 3 + 1);
      }
      ctx.put_range(a, rank * per, per, out.data());
      ctx.sync();
      std::vector<std::int64_t> in(per);
      ctx.get_range(a, ((rank + 3) % p) * per, per, in.data());
      ctx.sync();
    });
    contents[w] = runtime.host_read(a);
  }
  EXPECT_EQ(contents[0], contents[1]);
  EXPECT_EQ(timing[0].total_cycles, timing[1].total_cycles);
  EXPECT_EQ(timing[0].comm_cycles, timing[1].comm_cycles);
  EXPECT_EQ(timing[0].rw_total, timing[1].rw_total);
  EXPECT_EQ(timing[0].kappa_max, timing[1].kappa_max);
}

TEST(Executor, RuntimeLevelSlotRecyclingKeepsHandlesSafe) {
  rt::Runtime runtime(machine::default_sim(4));
  auto a = runtime.alloc<std::int64_t>(64);
  const auto stale = a;
  runtime.free(a);
  auto b = runtime.alloc<std::int64_t>(64);
  EXPECT_EQ(b.id, stale.id);  // slot recycled...
  EXPECT_THROW((void)runtime.host_read(stale),  // ...but old handle faults
               support::ContractViolation);
  EXPECT_NO_THROW((void)runtime.host_read(b));
}

}  // namespace
}  // namespace qsm
