// ResultCache: content-addressed persistence behind the sweep runner.
//
// The warm-run guarantee ("byte-identical tables, zero simulations")
// reduces to: serialize/deserialize is lossless — including cycle counts
// past 2^53 and doubles to the last bit — and load() tolerates torn lines
// instead of failing the run.
#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>
#include <thread>
#include <vector>

#include "harness/cache.hpp"
#include "harness/point.hpp"
#include "support/durable/segment_store.hpp"
#include "support/json.hpp"

namespace qsm::harness {
namespace {

namespace fs = std::filesystem;

/// Fresh per-test directory under the gtest temp root.
std::string test_dir(const std::string& leaf) {
  const fs::path dir = fs::path(::testing::TempDir()) / "qsm_cache_test" / leaf;
  fs::remove_all(dir);
  return dir.string();
}

PointResult sample_result() {
  PointResult r;
  r.timing.total_cycles = 123456789;
  r.timing.compute_cycles = 1000;
  r.timing.kappa_max = (1ull << 60) + 3;  // not representable as double
  r.timing.wire_bytes = -1;               // signed field keeps its sign
  rt::PhaseStats ps;
  ps.arrival_spread = 7;
  ps.exchange_cycles = 42;
  ps.barrier_cycles = 5;
  ps.m_rw_max = (1ull << 55) + 1;
  ps.rw_total = 99;
  r.timing.add_phase(ps);
  ps.exchange_cycles = 43;
  r.timing.add_phase(ps);
  r.metrics["z"] = 0.1;
  r.metrics["remote_fraction"] = 1.0 / 3.0;
  return r;
}

/// Records on disk, duplicates included — a cold read-only scan of the
/// store directory (the segment-store analogue of counting JSONL lines).
std::size_t store_records(const std::string& store_dir) {
  support::durable::SegmentStore store(store_dir, {});
  return store.load(nullptr).size();
}

TEST(CacheFileStem, SanitizesWorkloadIds) {
  EXPECT_EQ(cache_file_stem("fig1_prefix"), "fig1_prefix");
  EXPECT_EQ(cache_file_stem("a b/c.d"), "a_b_c_d");
  EXPECT_EQ(cache_file_stem(""), "default");
}

TEST(ResultCache, SerializeDeserializeIsLossless) {
  const PointResult r = sample_result();
  const auto doc = support::parse_json(ResultCache::serialize(r));
  ASSERT_TRUE(doc.has_value());
  const auto back = ResultCache::deserialize(*doc);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(*back, r);
}

TEST(ResultCache, MetricsOnlyResultOmitsTiming) {
  PointResult r;
  r.metrics["cycles"] = 12.5;
  const std::string text = ResultCache::serialize(r);
  EXPECT_EQ(text.find("\"t\""), std::string::npos);
  const auto back = ResultCache::deserialize(*support::parse_json(text));
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(*back, r);
  EXPECT_EQ(back->timing, rt::RunResult{});
}

TEST(ResultCache, StoreCreatesDirAndRoundTrips) {
  const std::string dir = test_dir("roundtrip") + "/nested/deeper";
  const PointKey key{"epoch=qsm1;workload=w;n=5"};
  const PointResult r = sample_result();
  {
    ResultCache cache(dir, "w");
    EXPECT_EQ(cache.lookup(key), nullptr);  // cold: no file yet
    cache.store({{key, r}});
  }
  ResultCache reloaded(dir, "w");
  EXPECT_EQ(reloaded.loaded_entries(), 1u);
  const PointResult* hit = reloaded.lookup(key);
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(*hit, r);
  EXPECT_EQ(reloaded.lookup(PointKey{"epoch=qsm1;workload=w;n=6"}), nullptr);
}

TEST(ResultCache, DuplicateStoresAppendNothing) {
  const std::string dir = test_dir("dedup");
  const PointKey key{"epoch=qsm1;workload=w;n=5"};
  const PointResult r = sample_result();
  ResultCache cache(dir, "w");
  cache.store({{key, r}});
  cache.store({{key, r}});              // same instance: in-memory dedup
  cache.store({{key, r}, {key, r}});    // duplicate within one batch
  EXPECT_EQ(store_records(cache.path()), 1u);
  ResultCache twin(dir, "w");
  twin.store({{key, r}});               // fresh instance: dedup via load()
  EXPECT_EQ(store_records(cache.path()), 1u);
}

TEST(ResultCache, LeftoverJsonlIsNotLoadedRenamedOrDeleted) {
  // Older builds kept a flat <workload>.jsonl. The store never reads it,
  // and never touches it either.
  const std::string dir = test_dir("leftover_jsonl");
  const PointKey key{"epoch=qsm1;workload=w;n=5"};
  const std::string line = "{\"h\":\"0000000000000000\",\"k\":\"" +
                           key.text + "\",\"r\":" +
                           ResultCache::serialize(sample_result()) + "}\n";
  fs::create_directories(dir);
  std::ofstream(dir + "/w.jsonl", std::ios::binary) << line;
  ResultCache cache(dir, "w");
  EXPECT_EQ(cache.loaded_entries(), 0u);
  EXPECT_EQ(cache.lookup(key), nullptr);
  EXPECT_FALSE(cache.torn_tail());
  EXPECT_EQ(cache.corrupt_lines(), 0u);
  ASSERT_TRUE(fs::exists(dir + "/w.jsonl"));
  EXPECT_FALSE(fs::exists(dir + "/w.jsonl.migrated"));
  std::ifstream in(dir + "/w.jsonl", std::ios::binary);
  const std::string text((std::istreambuf_iterator<char>(in)),
                         std::istreambuf_iterator<char>());
  EXPECT_EQ(text, line);
}

TEST(ResultCache, FailedAppendLeavesTheKeyUncached) {
  // The cache directory sits under a regular file, so the store cannot
  // create its segment and every append fails. The index must not claim
  // a result the disk does not hold.
  const std::string root = test_dir("failed_append");
  fs::create_directories(root);
  std::ofstream(root + "/blocker", std::ios::binary) << "not a directory";
  const PointKey key{"epoch=qsm1;workload=w;n=5"};
  ResultCache cache(root + "/blocker/cache", "w");
  cache.store_one(key, sample_result());
  EXPECT_EQ(cache.lookup(key), nullptr);
  EXPECT_EQ(cache.loaded_entries(), 0u);
}

TEST(ResultCache, ReportsTornTailSeparatelyFromMidFileCorruption) {
  const std::string dir = test_dir("torn");
  const PointKey k1{"epoch=qsm1;workload=w;n=1"};
  const PointKey k2{"epoch=qsm1;workload=w;n=2"};
  {
    ResultCache cache(dir, "w");
    cache.store({{k1, sample_result()}, {k2, sample_result()}});
  }
  // Clean store: neither counter fires.
  {
    ResultCache cache(dir, "w");
    EXPECT_FALSE(cache.torn_tail());
    EXPECT_EQ(cache.corrupt_lines(), 0u);
  }
  // Damage the first record in place (mid-log corruption) and append
  // trailing garbage (the torn artifact a crash leaves).
  const std::string seg =
      dir + "/w.qstore/" + support::durable::SegmentStore::segment_name(0);
  {
    std::fstream f(seg, std::ios::in | std::ios::out | std::ios::binary);
    f.seekp(16);
    f.put('~');
  }
  std::ofstream(seg, std::ios::binary | std::ios::app) << "torn!";
  ResultCache cache(dir, "w");
  EXPECT_EQ(cache.loaded_entries(), 1u);  // k1 damaged, k2 recovered
  EXPECT_TRUE(cache.torn_tail());
  EXPECT_GE(cache.corrupt_lines(), 1u);
  EXPECT_EQ(cache.lookup(k1), nullptr);
  EXPECT_NE(cache.lookup(k2), nullptr);
}

TEST(ResultCache, TruncationMidRecordLosesOnlyThatRecord) {
  // Simulate a SIGKILL mid-append: truncate the segment inside the last
  // record. Every earlier record must reload; the torn one recomputes.
  const std::string dir = test_dir("truncate");
  const PointKey k1{"epoch=qsm1;workload=w;n=1"};
  const PointKey k2{"epoch=qsm1;workload=w;n=2"};
  const PointResult r = sample_result();
  {
    ResultCache cache(dir, "w");
    cache.store({{k1, r}, {k2, r}});
  }
  const std::string seg =
      dir + "/w.qstore/" + support::durable::SegmentStore::segment_name(0);
  const auto size = fs::file_size(seg);
  fs::resize_file(seg, size - 25);  // cut into k2's record
  ResultCache cache(dir, "w");
  EXPECT_EQ(cache.loaded_entries(), 1u);
  EXPECT_TRUE(cache.torn_tail());
  EXPECT_EQ(cache.corrupt_lines(), 0u);
  ASSERT_NE(cache.lookup(k1), nullptr);
  EXPECT_EQ(*cache.lookup(k1), r);
  EXPECT_EQ(cache.lookup(k2), nullptr);
  // Storing the recomputed record heals the store: the first append
  // truncates the torn fragment away before writing, so it can never
  // garble the replacement record.
  cache.store_one(k2, r);
  ResultCache healed(dir, "w");
  ASSERT_NE(healed.lookup(k1), nullptr);
  ASSERT_NE(healed.lookup(k2), nullptr);
  EXPECT_EQ(*healed.lookup(k2), r);
  EXPECT_FALSE(healed.torn_tail());  // the log ends at a frame boundary
}

TEST(ResultCache, FailureRowsRoundTrip) {
  PointResult fail;
  fail.status = "timeout";
  fail.fail_reason = "watchdog: phase exceeded the 0.5s host deadline";
  fail.fail_elapsed_s = 0.625;
  const std::string text = ResultCache::serialize(fail);
  EXPECT_NE(text.find("\"f\""), std::string::npos);
  const auto back = ResultCache::deserialize(*support::parse_json(text));
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(*back, fail);
  EXPECT_FALSE(back->ok());

  const std::string dir = test_dir("failrow");
  const PointKey key{"epoch=qsm1;workload=w;n=5"};
  {
    ResultCache cache(dir, "w");
    cache.store({{key, fail}});
  }
  ResultCache cache(dir, "w");
  const PointResult* hit = cache.lookup(key);
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(hit->status, "timeout");
  EXPECT_DOUBLE_EQ(hit->fail_elapsed_s, 0.625);
}

TEST(ResultCache, FreshResultSupersedesCachedFailureRow) {
  const std::string dir = test_dir("supersede");
  const PointKey key{"epoch=qsm1;workload=w;n=5"};
  PointResult fail;
  fail.status = "error";
  fail.fail_reason = "transient";
  const PointResult good = sample_result();
  ResultCache cache(dir, "w");
  cache.store({{key, fail}});
  EXPECT_EQ(store_records(cache.path()), 1u);
  cache.store_one(key, good);  // retry succeeded: superseding record
  EXPECT_EQ(store_records(cache.path()), 2u);
  ASSERT_NE(cache.lookup(key), nullptr);
  EXPECT_TRUE(cache.lookup(key)->ok());
  // Reload: the later record wins.
  ResultCache reloaded(dir, "w");
  ASSERT_NE(reloaded.lookup(key), nullptr);
  EXPECT_EQ(*reloaded.lookup(key), good);
  // A success is never overwritten (by a failure or anything else).
  reloaded.store_one(key, fail);
  EXPECT_EQ(store_records(reloaded.path()), 2u);
}

TEST(ResultCache, FaultCountersExtendTimingRowsOnlyWhenPresent) {
  PointResult plain = sample_result();
  const std::string plain_text = ResultCache::serialize(plain);

  PointResult faulted = sample_result();
  faulted.timing.trace[0].retries = 3;
  faulted.timing.trace[0].drops = 2;
  faulted.timing.trace[1].replays = 1;
  faulted.timing.trace[1].p_effective = 7;
  faulted.timing.retries = 3;
  faulted.timing.drops = 2;
  faulted.timing.replays = 1;
  const std::string fault_text = ResultCache::serialize(faulted);
  EXPECT_NE(plain_text, fault_text);
  // Fault-free records keep the pre-fault byte layout (9 aggregate
  // fields); faulted ones extend to 13 + 17.
  EXPECT_LT(plain_text.size(), fault_text.size());

  const auto back = ResultCache::deserialize(*support::parse_json(fault_text));
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(*back, faulted);
  EXPECT_EQ(back->timing.trace[1].p_effective, 7u);

  const auto plain_back =
      ResultCache::deserialize(*support::parse_json(plain_text));
  ASSERT_TRUE(plain_back.has_value());
  EXPECT_EQ(*plain_back, plain);
}

TEST(ResultCache, ConcurrentStoresAppendEachKeyExactlyOnce) {
  // Multi-job sweeps drain completions from pool threads. Every distinct
  // key must land in the file exactly once even when racing writers carry
  // the same key, and the file must reload cleanly (no torn or interleaved
  // lines) — each store checks the index and appends under one lock.
  const std::string dir = test_dir("concurrent");
  constexpr int kThreads = 4;
  constexpr int kKeys = 24;
  const PointResult r = sample_result();
  {
    ResultCache cache(dir, "w");
    std::vector<std::thread> writers;
    writers.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t) {
      writers.emplace_back([&cache, &r, t] {
        for (int k = 0; k < kKeys; ++k) {
          // Interleave so every key is contended by all threads, in
          // different orders per thread.
          const int key_id = (k + t * 7) % kKeys;
          const PointKey key{"epoch=qsm1;workload=w;n=" +
                             std::to_string(key_id)};
          cache.store_one(key, r);
        }
      });
    }
    for (auto& w : writers) w.join();
    EXPECT_EQ(cache.durable_store().records(),
              static_cast<std::size_t>(kKeys));
  }
  ResultCache reloaded(dir, "w");
  EXPECT_EQ(reloaded.loaded_entries(), static_cast<std::size_t>(kKeys));
  EXPECT_FALSE(reloaded.torn_tail());
  EXPECT_EQ(reloaded.corrupt_lines(), 0u);
  for (int k = 0; k < kKeys; ++k) {
    const PointKey key{"epoch=qsm1;workload=w;n=" + std::to_string(k)};
    const PointResult* hit = reloaded.lookup(key);
    ASSERT_NE(hit, nullptr);
    EXPECT_EQ(*hit, r);
  }
}

TEST(ResultCache, ConcurrentSupersedeKeepsFileParseable) {
  // Failure rows may be superseded by racing successes; whatever
  // interleaving wins, the file must stay line-parseable and reload to a
  // success for every key.
  const std::string dir = test_dir("concurrent_supersede");
  constexpr int kKeys = 8;
  PointResult fail;
  fail.status = "error";
  fail.fail_reason = "transient";
  const PointResult good = sample_result();
  {
    ResultCache cache(dir, "w");
    for (int k = 0; k < kKeys; ++k) {
      cache.store_one(PointKey{"n=" + std::to_string(k)}, fail);
    }
    std::vector<std::thread> writers;
    for (int t = 0; t < 4; ++t) {
      writers.emplace_back([&cache, &good, t] {
        for (int k = 0; k < kKeys; ++k) {
          cache.store_one(PointKey{"n=" + std::to_string((k + t) % kKeys)},
                          good);
        }
      });
    }
    for (auto& w : writers) w.join();
  }
  ResultCache reloaded(dir, "w");
  EXPECT_EQ(reloaded.corrupt_lines(), 0u);
  EXPECT_FALSE(reloaded.torn_tail());
  EXPECT_EQ(reloaded.loaded_entries(), static_cast<std::size_t>(kKeys));
  for (int k = 0; k < kKeys; ++k) {
    const PointResult* hit = reloaded.lookup(PointKey{"n=" + std::to_string(k)});
    ASSERT_NE(hit, nullptr);
    EXPECT_TRUE(hit->ok());  // the success superseded the failure row
  }
}

TEST(ResultCache, SeparateWorkloadsUseSeparateFiles) {
  const std::string dir = test_dir("namespaces");
  const PointKey key{"epoch=qsm1;workload=w;n=5"};
  ResultCache a(dir, "fig1");
  ResultCache b(dir, "fig2");
  a.store({{key, sample_result()}});
  EXPECT_NE(a.path(), b.path());
  EXPECT_EQ(b.lookup(key), nullptr);  // namespaces do not leak
}

}  // namespace
}  // namespace qsm::harness
