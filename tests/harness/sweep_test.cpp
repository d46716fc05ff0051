// SweepRunner: scheduling, caching, deduplication, and the thread-budget
// contract with the Executor layer.
//
// The determinism test runs real Runtimes inside the compute closures on
// purpose: under TSan this exercises the exact concurrent path the bench
// binaries use (J scheduler workers, each owning a Runtime with its own
// lane carriers and phase pool).
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/exec.hpp"
#include "core/runtime.hpp"
#include "harness/cache.hpp"
#include "harness/point.hpp"
#include "harness/sweep.hpp"
#include "machine/presets.hpp"

namespace qsm::harness {
namespace {

namespace fs = std::filesystem;

/// Fresh per-test cache directory under the gtest temp root.
std::string test_dir(const std::string& leaf) {
  const fs::path dir = fs::path(::testing::TempDir()) / "qsm_sweep_test" / leaf;
  fs::remove_all(dir);
  return dir.string();
}

/// Restores the process-wide default budget no matter how a test exits.
struct BudgetReset {
  ~BudgetReset() { rt::set_host_thread_budget(0); }
};

PointKey key_for(std::uint64_t n, std::uint64_t seed) {
  KeyBuilder key("sweep_test");
  key.add("n", n);
  key.add("seed", seed);
  return key.build();
}

/// A real simulation: neighbor exchange on a cyclic array. Returns both a
/// timing trace and a data-derived metric so cached results are checked
/// end to end.
PointResult simulate_point(std::uint64_t n, std::uint64_t seed) {
  rt::Runtime runtime(machine::default_sim(4), rt::Options{.seed = seed});
  auto a = runtime.alloc<std::int64_t>(n, rt::Layout::Cyclic);
  PointResult out;
  out.timing = runtime.run([&](rt::Context& ctx) {
    const auto rank = static_cast<std::uint64_t>(ctx.rank());
    const auto p = static_cast<std::uint64_t>(ctx.nprocs());
    const std::uint64_t per = n / p;
    std::vector<std::int64_t> v(per);
    for (std::uint64_t k = 0; k < per; ++k) {
      v[k] = static_cast<std::int64_t>((rank * per + k) * seed + 1);
    }
    ctx.put_range(a, rank * per, per, v.data());
    ctx.sync();
    ctx.get_range(a, ((rank + 1) % p) * per, per, v.data());
    ctx.sync();
  });
  double sum = 0;
  for (const auto x : runtime.host_read(a)) sum += static_cast<double>(x);
  out.metrics["sum"] = sum;
  return out;
}

std::vector<PointResult> run_grid(int jobs, bool cache,
                                  const std::string& cache_dir) {
  RunnerOptions opts;
  opts.workload = "sweep_test";
  opts.jobs = jobs;
  opts.cache = cache;
  opts.cache_dir = cache_dir;
  SweepRunner runner(opts);
  for (std::uint64_t n : {256u, 512u, 1024u}) {
    for (std::uint64_t seed : {1u, 2u}) {
      runner.submit(key_for(n, seed), [n, seed] {
        return simulate_point(n, seed);
      });
    }
  }
  return runner.run_all();
}

TEST(SweepRunner, ResultsIdenticalForAnyJobCount) {
  // The determinism contract behind golden_jobs.sh: simulated numbers and
  // data-derived metrics may not depend on how many host workers ran the
  // grid.
  const auto serial = run_grid(1, /*cache=*/false, "");
  const auto sharded = run_grid(4, /*cache=*/false, "");
  ASSERT_EQ(serial.size(), 6u);
  ASSERT_EQ(sharded.size(), 6u);
  for (std::size_t i = 0; i < serial.size(); ++i) {
    EXPECT_EQ(serial[i], sharded[i]) << "point " << i;
    EXPECT_GT(serial[i].timing.total_cycles, 0);
  }
}

TEST(SweepRunner, WarmRunComputesNothingAndMatches) {
  const std::string dir = test_dir("warm");
  const auto cold = run_grid(2, /*cache=*/true, dir);

  RunnerOptions opts;
  opts.workload = "sweep_test";
  opts.jobs = 2;
  opts.cache_dir = dir;
  SweepRunner warm(opts);
  std::atomic<int> calls{0};
  for (std::uint64_t n : {256u, 512u, 1024u}) {
    for (std::uint64_t seed : {1u, 2u}) {
      warm.submit(key_for(n, seed), [&calls] {
        calls.fetch_add(1);
        return PointResult{};  // poison: must never be used
      });
    }
  }
  const auto results = warm.run_all();
  EXPECT_EQ(calls.load(), 0);
  EXPECT_EQ(warm.stats().cached, 6u);
  EXPECT_EQ(warm.stats().computed, 0u);
  ASSERT_EQ(results.size(), cold.size());
  for (std::size_t i = 0; i < results.size(); ++i) {
    EXPECT_EQ(results[i], cold[i]) << "point " << i;
  }
}

TEST(SweepRunner, DuplicateKeysWithinBatchComputeOnce) {
  RunnerOptions opts;
  opts.jobs = 1;
  opts.cache = false;
  SweepRunner runner(opts);
  std::atomic<int> calls{0};
  const auto make = [&calls](double z) {
    return [&calls, z] {
      calls.fetch_add(1);
      PointResult r;
      r.metrics["z"] = z;
      return r;
    };
  };
  runner.submit(PointKey{"dup"}, make(1.0));
  runner.submit(PointKey{"other"}, make(2.0));
  runner.submit(PointKey{"dup"}, make(3.0));  // alias of index 0
  const auto results = runner.run_all();
  EXPECT_EQ(calls.load(), 2);
  EXPECT_EQ(runner.stats().computed, 2u);
  EXPECT_EQ(runner.stats().points, 3u);
  ASSERT_EQ(results.size(), 3u);
  EXPECT_DOUBLE_EQ(results[0].metric("z"), 1.0);
  EXPECT_DOUBLE_EQ(results[1].metric("z"), 2.0);
  EXPECT_EQ(results[2], results[0]);  // first occurrence wins
}

TEST(SweepRunner, NoCacheModeNeverTouchesDisk) {
  const std::string dir = test_dir("nocache");
  RunnerOptions opts;
  opts.jobs = 1;
  opts.cache = false;
  opts.cache_dir = dir;
  SweepRunner runner(opts);
  runner.submit(PointKey{"p"}, [] { return PointResult{}; });
  (void)runner.run_all();
  EXPECT_FALSE(fs::exists(dir));
  EXPECT_EQ(runner.stats().computed, 1u);
}

TEST(SweepRunner, ThreadBudgetSharedBetweenJobsAndPhaseWorkers) {
  BudgetReset reset;
  rt::set_host_thread_budget(8);
  RunnerOptions opts;
  opts.jobs = 4;
  opts.cache = false;
  SweepRunner runner(opts);
  EXPECT_EQ(runner.jobs(), 4);
  EXPECT_EQ(runner.phase_workers_per_job(), 2);  // 8 threads / 4 jobs

  // Inside run_all every closure sees the lowered per-job budget — that is
  // what a Runtime built inside the closure sizes its phase pool from.
  std::atomic<int> observed{-1};
  for (int i = 0; i < 4; ++i) {
    PointKey key{"budget" + std::to_string(i)};
    runner.submit(std::move(key), [&observed] {
      observed.store(rt::host_thread_budget());
      return PointResult{};
    });
  }
  (void)runner.run_all();
  EXPECT_EQ(observed.load(), 2);
  EXPECT_EQ(rt::host_thread_budget(), 8);  // restored after run_all
}

TEST(SweepRunner, AutoJobsFollowTheBudget) {
  BudgetReset reset;
  rt::set_host_thread_budget(3);
  EXPECT_EQ(SweepRunner(RunnerOptions{}).jobs(), 3);
  rt::set_host_thread_budget(64);
  EXPECT_EQ(SweepRunner(RunnerOptions{}).jobs(), 16);  // capped
  RunnerOptions forced;
  forced.jobs = 5;
  EXPECT_EQ(SweepRunner(forced).jobs(), 5);  // explicit --jobs wins
}

TEST(SweepRunner, ClosureExceptionsPropagateAndRestoreBudget) {
  BudgetReset reset;
  rt::set_host_thread_budget(4);
  RunnerOptions opts;
  opts.jobs = 2;
  opts.cache = false;
  SweepRunner runner(opts);
  runner.submit(PointKey{"ok"}, [] { return PointResult{}; });
  runner.submit(PointKey{"boom"}, []() -> PointResult {
    throw std::runtime_error("verification mismatch");
  });
  EXPECT_THROW((void)runner.run_all(), std::runtime_error);
  EXPECT_EQ(rt::host_thread_budget(), 4);  // BudgetGuard unwound
}

TEST(SweepRunner, TolerateFailuresRecordsErrorRowsAndContinues) {
  const std::string dir = test_dir("tolerate");
  RunnerOptions opts;
  opts.workload = "sweep_test";
  opts.jobs = 2;
  opts.cache_dir = dir;
  opts.tolerate_failures = true;
  SweepRunner runner(opts);
  runner.submit(PointKey{"good"}, [] {
    PointResult r;
    r.metrics["z"] = 1.0;
    return r;
  });
  runner.submit(PointKey{"bad"}, []() -> PointResult {
    throw std::runtime_error("synthetic chaos");
  });
  const auto results = runner.run_all();  // must not throw
  ASSERT_EQ(results.size(), 2u);
  EXPECT_TRUE(results[0].ok());
  EXPECT_FALSE(results[1].ok());
  EXPECT_EQ(results[1].status, "error");
  EXPECT_NE(results[1].fail_reason.find("synthetic chaos"), std::string::npos);
  EXPECT_GE(results[1].fail_elapsed_s, 0.0);
  EXPECT_EQ(runner.stats().failed, 1u);
  EXPECT_EQ(runner.stats().computed, 2u);
  // The failure row is persisted so a later --resume can accept it.
  ResultCache cache(dir, "sweep_test");
  const PointResult* cached = cache.lookup(PointKey{"bad"});
  ASSERT_NE(cached, nullptr);
  EXPECT_EQ(cached->status, "error");
}

TEST(SweepRunner, WatchdogDeadlineTurnsPointsIntoTimeoutRows) {
  // A breached watchdog never aborts the sweep, tolerate_failures or not:
  // the deadline exists precisely to skip the stuck point and move on. The
  // Runtime built inside the closure captures the armed policy and trips
  // its run()-entry poll against the already-expired deadline.
  RunnerOptions opts;
  opts.jobs = 1;
  opts.cache = false;
  opts.point_timeout_s = 1e-9;
  SweepRunner runner(opts);
  runner.submit(PointKey{"stuck"}, [] { return simulate_point(256, 1); });
  runner.submit(PointKey{"after"}, [] {
    PointResult r;
    r.metrics["z"] = 2.0;
    return r;
  });
  const auto results = runner.run_all();
  ASSERT_EQ(results.size(), 2u);
  EXPECT_EQ(results[0].status, "timeout");
  EXPECT_FALSE(results[0].fail_reason.empty());
  EXPECT_TRUE(results[1].ok());  // the sweep continued past the breach
  EXPECT_EQ(runner.stats().failed, 1u);
}

TEST(SweepRunner, MemoryBudgetTurnsPointsIntoMemoryRows) {
  RunnerOptions opts;
  opts.jobs = 1;
  opts.cache = false;
  opts.point_rss_mb = 1;  // any live process dwarfs 1 MiB
  SweepRunner runner(opts);
  runner.submit(PointKey{"fat"}, [] { return simulate_point(256, 1); });
  const auto results = runner.run_all();
  ASSERT_EQ(results.size(), 1u);
  EXPECT_EQ(results[0].status, "memory");
  EXPECT_EQ(runner.stats().failed, 1u);
}

TEST(SweepRunner, ResumeAcceptsCachedFailureRowsRetriesThemOtherwise) {
  const std::string dir = test_dir("resume");
  {
    RunnerOptions opts;
    opts.workload = "sweep_test";
    opts.cache_dir = dir;
    opts.jobs = 1;
    opts.tolerate_failures = true;
    SweepRunner runner(opts);
    runner.submit(PointKey{"flaky"}, []() -> PointResult {
      throw std::runtime_error("first attempt");
    });
    (void)runner.run_all();
    ASSERT_EQ(runner.stats().failed, 1u);
  }
  {
    // --resume: the cached failure row is accepted as-is, nothing runs.
    RunnerOptions opts;
    opts.workload = "sweep_test";
    opts.cache_dir = dir;
    opts.jobs = 1;
    opts.resume = true;
    SweepRunner runner(opts);
    std::atomic<int> calls{0};
    runner.submit(PointKey{"flaky"}, [&calls] {
      calls.fetch_add(1);
      return PointResult{};
    });
    const auto results = runner.run_all();
    EXPECT_EQ(calls.load(), 0);
    EXPECT_EQ(runner.stats().resumed, 1u);
    EXPECT_EQ(runner.stats().cached, 1u);
    ASSERT_EQ(results.size(), 1u);
    EXPECT_EQ(results[0].status, "error");
  }
  {
    // Default: failure rows are retried; a success supersedes the row.
    RunnerOptions opts;
    opts.workload = "sweep_test";
    opts.cache_dir = dir;
    opts.jobs = 1;
    SweepRunner runner(opts);
    std::atomic<int> calls{0};
    runner.submit(PointKey{"flaky"}, [&calls] {
      calls.fetch_add(1);
      PointResult r;
      r.metrics["z"] = 9.0;
      return r;
    });
    const auto results = runner.run_all();
    EXPECT_EQ(calls.load(), 1);
    EXPECT_EQ(runner.stats().computed, 1u);
    EXPECT_EQ(runner.stats().resumed, 0u);
    ASSERT_EQ(results.size(), 1u);
    EXPECT_TRUE(results[0].ok());
  }
  // The fresh success is what reloads from disk now.
  ResultCache cache(dir, "sweep_test");
  const PointResult* hit = cache.lookup(PointKey{"flaky"});
  ASSERT_NE(hit, nullptr);
  EXPECT_TRUE(hit->ok());
  EXPECT_DOUBLE_EQ(hit->metric("z"), 9.0);
}

TEST(SweepRunner, KilledSweepKeepsFinishedPrefixOnDisk) {
  // store_one drains completed points in submission order, so the cache
  // file after N completions holds exactly the first N records — the
  // invariant the SIGKILL/--resume script relies on.
  const std::string dir = test_dir("prefix");
  RunnerOptions opts;
  opts.workload = "sweep_test";
  opts.cache_dir = dir;
  opts.jobs = 1;
  SweepRunner runner(opts);
  std::string store_dir;
  std::vector<std::size_t> records_seen;
  for (int i = 0; i < 3; ++i) {
    runner.submit(PointKey{"p" + std::to_string(i)}, [&, i] {
      if (i > 0) {
        // A cold read-only scan of the live store directory: exactly
        // what a post-kill recovery would find at this instant.
        support::durable::SegmentStore probe(store_dir, {});
        records_seen.push_back(probe.load(nullptr).size());
      }
      PointResult r;
      r.metrics["z"] = i;
      return r;
    });
  }
  store_dir = dir + "/sweep_test.qstore";
  (void)runner.run_all();
  // When point i ran, points 0..i-1 were already on disk.
  ASSERT_EQ(records_seen.size(), 2u);
  EXPECT_EQ(records_seen[0], 1u);
  EXPECT_EQ(records_seen[1], 2u);
  ResultCache cache(dir, "sweep_test");
  EXPECT_EQ(cache.loaded_entries(), 3u);
}

TEST(SweepRunner, RecoveredUnsealedSegmentBehavesLikeCleanShutdown) {
  // A sweep killed mid-point leaves an unsealed (footerless) tail
  // segment, possibly with a torn final record. On the next run —
  // resumed or not — the records recovered from that segment must behave
  // exactly like records written by a clean shutdown: successes hit,
  // failure rows resume or retry per --resume.
  const std::string dir = test_dir("recovered_rows");
  {
    RunnerOptions opts;
    opts.workload = "sweep_test";
    opts.cache_dir = dir;
    opts.jobs = 1;
    opts.tolerate_failures = true;
    SweepRunner runner(opts);
    runner.submit(PointKey{"good"}, [] {
      PointResult r;
      r.metrics["z"] = 1.0;
      return r;
    });
    runner.submit(PointKey{"flaky"}, []() -> PointResult {
      throw std::runtime_error("transient");
    });
    (void)runner.run_all();
    ASSERT_EQ(runner.stats().failed, 1u);
  }
  // Simulate the kill: the tail segment gains a torn half-record, as if
  // the process died inside the very next append. The two finished
  // records now live in a recovered-but-unsealed segment.
  {
    std::ofstream out(dir + "/sweep_test.qstore/" +
                          support::durable::SegmentStore::segment_name(0),
                      std::ios::binary | std::ios::app);
    out.write("\x40\x00\x00\x00torn", 8);
  }
  {
    // --resume: the recovered success hits, the recovered failure row is
    // accepted as-is; nothing recomputes.
    RunnerOptions opts;
    opts.workload = "sweep_test";
    opts.cache_dir = dir;
    opts.jobs = 1;
    opts.resume = true;
    SweepRunner runner(opts);
    std::atomic<int> calls{0};
    runner.submit(PointKey{"good"}, [&calls] {
      calls.fetch_add(1);
      return PointResult{};
    });
    runner.submit(PointKey{"flaky"}, [&calls] {
      calls.fetch_add(1);
      return PointResult{};
    });
    const auto results = runner.run_all();
    EXPECT_EQ(calls.load(), 0);
    EXPECT_EQ(runner.stats().cached, 2u);
    EXPECT_EQ(runner.stats().resumed, 1u);
    ASSERT_EQ(results.size(), 2u);
    EXPECT_TRUE(results[0].ok());
    EXPECT_EQ(results[1].status, "error");
  }
  {
    // Default: the recovered failure row is retried (and superseded by
    // the fresh success); the recovered success still hits.
    RunnerOptions opts;
    opts.workload = "sweep_test";
    opts.cache_dir = dir;
    opts.jobs = 1;
    SweepRunner runner(opts);
    std::atomic<int> calls{0};
    runner.submit(PointKey{"good"}, [&calls] {
      calls.fetch_add(1);
      return PointResult{};
    });
    runner.submit(PointKey{"flaky"}, [&calls] {
      calls.fetch_add(1);
      PointResult r;
      r.metrics["z"] = 9.0;
      return r;
    });
    const auto results = runner.run_all();
    EXPECT_EQ(calls.load(), 1);  // only the failure row recomputed
    EXPECT_EQ(runner.stats().cached, 1u);
    EXPECT_EQ(runner.stats().computed, 1u);
    ASSERT_EQ(results.size(), 2u);
    EXPECT_TRUE(results[0].ok());
    EXPECT_TRUE(results[1].ok());
  }
  // The retry's success — appended after healing the torn tail — is what
  // a fresh recovery reads back.
  ResultCache cache(dir, "sweep_test");
  EXPECT_FALSE(cache.torn_tail());
  ASSERT_NE(cache.lookup(PointKey{"flaky"}), nullptr);
  EXPECT_TRUE(cache.lookup(PointKey{"flaky"})->ok());
}

TEST(SweepRunner, RunAllClearsTheQueueAndAccumulatesStats) {
  RunnerOptions opts;
  opts.jobs = 1;
  opts.cache = false;
  SweepRunner runner(opts);
  runner.submit(PointKey{"a"}, [] { return PointResult{}; });
  EXPECT_EQ(runner.run_all().size(), 1u);
  EXPECT_EQ(runner.run_all().size(), 0u);  // queue drained
  runner.submit(PointKey{"b"}, [] { return PointResult{}; });
  EXPECT_EQ(runner.run_all().size(), 1u);
  EXPECT_EQ(runner.stats().points, 2u);
  EXPECT_EQ(runner.stats().computed, 2u);
}

}  // namespace
}  // namespace qsm::harness
