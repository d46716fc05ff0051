// Durable-store benchmark: what the segmented result store costs and buys.
//
// The result cache persists every computed grid point through a
// checksummed segment store (support/durable/segment_store.hpp). Three
// costs matter to a sweep:
//
//   1. Append throughput per sync policy. Every record rides the
//      typestate pipeline (Pending -> Written -> Synced -> Indexed); the
//      --cache-sync policy decides how much of that pipeline touches the
//      disk per record. `none` is an in-page-cache append (process-crash
//      safe only), `data` adds an fdatasync per record, `full` also
//      fsyncs file metadata and the directory on create/seal/compact.
//      This section measures the append+certify rate of each policy over
//      the same record stream — the price list behind the flag.
//
//   2. Warm open. A warm sweep's first cache probe pays one full
//      recovery scan (every frame re-CRC'd) and then serves every lookup
//      from the in-memory index. Measured: recovery records/s through
//      ResultCache (scan + parse + index prime) and warm lookups/s
//      against the primed index.
//
//   3. Compaction. A store whose keys were superseded (failure rows
//      retried, points recomputed) carries dead records until compaction
//      rewrites the live set into one fresh segment (write, fsync,
//      rename, fsync dir). Measured on a half-dead store: wall seconds
//      and input records/s.
//
// BENCH_store.json mirrors the tables for the CI artifact.
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/exec.hpp"
#include "harness/cache.hpp"
#include "harness/point.hpp"
#include "support/cli.hpp"
#include "support/contract.hpp"
#include "support/durable/record.hpp"
#include "support/durable/segment_store.hpp"
#include "support/json.hpp"
#include "support/table.hpp"

namespace {

using namespace qsm;
namespace fs = std::filesystem;
using support::durable::SegmentStore;
using support::durable::StoreOptions;
using support::durable::SyncPolicy;

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

void reset_dir(const std::string& dir) {
  std::error_code ec;
  fs::remove_all(dir, ec);
  fs::create_directories(dir, ec);
}

std::string record_key(std::size_t i) {
  return "epoch=qsm1;workload=bench_store;i=" + std::to_string(i);
}

/// A value shaped like a serialized PointResult of `value_bytes` total.
std::string record_value(std::size_t i, std::size_t value_bytes) {
  std::string v = "{\"t\":" + std::to_string(1000 + i) + ",\"pad\":\"";
  while (v.size() + 2 < value_bytes) {
    v += static_cast<char>('a' + (v.size() + i) % 26);
  }
  v += "\"}";
  return v;
}

/// Appends + certifies `records` values through the typestate pipeline.
/// Returns wall seconds.
double run_appends(const std::string& dir, SyncPolicy policy,
                   std::size_t records, std::size_t value_bytes,
                   std::uint64_t* bytes_out) {
  reset_dir(dir);
  StoreOptions opts;
  opts.sync = policy;
  opts.auto_compact = false;
  SegmentStore store(dir, opts);
  std::uint64_t bytes = 0;
  const auto t0 = std::chrono::steady_clock::now();
  for (std::size_t i = 0; i < records; ++i) {
    auto pending = store.make(record_key(i), record_value(i, value_bytes));
    bytes += pending.frame_bytes();
    auto written = store.append(std::move(pending));
    QSM_REQUIRE(written.has_value(), "append failed mid-bench");
    auto synced = store.sync(std::move(*written));
    QSM_REQUIRE(synced.has_value(), "sync failed mid-bench");
    (void)store.publish(std::move(*synced));
  }
  const double dt = seconds_since(t0);
  QSM_REQUIRE(store.records() == records, "store lost records");
  if (bytes_out != nullptr) *bytes_out = bytes;
  return dt;
}

harness::PointResult make_result(std::size_t i) {
  harness::PointResult r;
  r.timing.total_cycles = static_cast<std::int64_t>(1000 + i);
  r.timing.comm_cycles = static_cast<std::int64_t>(400 + i % 7);
  r.timing.compute_cycles = static_cast<std::int64_t>(600 + i % 11);
  r.metrics = {{"z", 0.37 + static_cast<double>(i % 5)},
               {"remote_fraction", 1.0 / 3.0}};
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  support::ArgParser args(
      "bench_store",
      "segment-store durability: append rate per sync policy, warm "
      "open/lookup throughput, compaction cost");
  args.flag_i64("records", 2000, "records per append run");
  args.flag_i64("value-bytes", 256, "approximate serialized value size");
  args.flag_i64("lookups", 200000, "warm lookups against the primed index");
  args.flag_i64("reps", 3, "attempts per cell (best wall-clock kept)");
  args.flag_bool("quick", false, "CI smoke: tiny record/lookup counts");
  args.flag_str("scratch", "bench_store_scratch",
                "scratch directory (wiped and recreated per section)");
  args.flag_str("out", "BENCH_store.json", "machine-readable output file");
  if (!args.parse(argc, argv)) return 0;

  const bool quick = args.boolean("quick");
  const auto records =
      static_cast<std::size_t>(quick ? 300 : args.i64("records"));
  const auto value_bytes = static_cast<std::size_t>(args.i64("value-bytes"));
  const std::int64_t lookups = quick ? 5000 : args.i64("lookups");
  const int reps = quick ? 1 : args.i32("reps");
  const std::string scratch = args.str("scratch");
  // Both numbers say what host the rows below came from.
  const int host_cores =
      std::max(1, static_cast<int>(std::thread::hardware_concurrency()));
  const int thread_budget = rt::host_thread_budget();

  std::printf(
      "== Durable segment store (%zu records, ~%zu-byte values, reps=%d, "
      "%d host cores, thread budget %d) ==\n\n",
      records, value_bytes, reps, host_cores, thread_budget);

  // 1. Append throughput per sync policy.
  struct PolicyRow {
    SyncPolicy policy;
    double per_s;
    double mb_per_s;
  };
  std::vector<PolicyRow> policy_rows;
  for (const SyncPolicy policy :
       {SyncPolicy::None, SyncPolicy::Data, SyncPolicy::Full}) {
    double best = 1e30;
    std::uint64_t bytes = 0;
    for (int rep = 0; rep < reps; ++rep) {
      best = std::min(
          best, run_appends(scratch + "/append.qstore", policy, records,
                            value_bytes, &bytes));
    }
    policy_rows.push_back(
        {policy, static_cast<double>(records) / best,
         static_cast<double>(bytes) / best / (1024.0 * 1024.0)});
  }
  support::TextTable append_table(
      {"sync policy", "appends/s", "MB/s", "vs none"});
  append_table.set_precision(1, 0);
  append_table.set_precision(2, 2);
  append_table.set_precision(3, 3);
  for (const PolicyRow& row : policy_rows) {
    append_table.add_row({std::string(to_string(row.policy)), row.per_s,
                          row.mb_per_s, row.per_s / policy_rows[0].per_s});
  }
  std::printf("%s\n", append_table.to_string().c_str());

  // 2. Warm open: recovery scan + index prime, then warm lookups, through
  // the same ResultCache the sweep scheduler uses.
  double open_s = 1e30;
  double lookup_s = 1e30;
  {
    const std::string cache_dir = scratch + "/cache";
    reset_dir(cache_dir);
    std::vector<harness::PointKey> keys;
    keys.reserve(records);
    for (std::size_t i = 0; i < records; ++i) {
      keys.push_back(harness::PointKey{record_key(i)});
    }
    {
      StoreOptions opts;
      opts.sync = SyncPolicy::None;
      harness::ResultCache seed(cache_dir, "bench_store", opts);
      for (std::size_t i = 0; i < records; ++i) {
        seed.store_one(keys[i], make_result(i));
      }
    }
    for (int rep = 0; rep < reps; ++rep) {
      harness::ResultCache cache(cache_dir, "bench_store");
      const auto t0 = std::chrono::steady_clock::now();
      QSM_REQUIRE(cache.loaded_entries() == records, "warm open lost records");
      open_s = std::min(open_s, seconds_since(t0));
      const auto t1 = std::chrono::steady_clock::now();
      std::uint64_t rng = 0x9e37;
      std::int64_t sink = 0;
      for (std::int64_t i = 0; i < lookups; ++i) {
        rng = rng * 6364136223846793005ULL + 1442695040888963407ULL;
        const harness::PointKey& key = keys[(rng >> 33) % keys.size()];
        const harness::PointResult* hit = cache.lookup(key);
        QSM_REQUIRE(hit != nullptr, "warm lookup missed — bench is broken");
        sink += hit->timing.total_cycles;
      }
      QSM_REQUIRE(sink != 0, "checksum collapsed to zero");
      lookup_s = std::min(lookup_s, seconds_since(t1));
    }
  }
  const double open_per_s = static_cast<double>(records) / open_s;
  const double lookups_per_s = static_cast<double>(lookups) / lookup_s;
  std::printf("warm open: %zu records in %.4fs (%.0f records/s)\n", records,
              open_s, open_per_s);
  std::printf("warm lookups: %.0f lookups/s over %lld probes\n\n",
              lookups_per_s, static_cast<long long>(lookups));

  // 3. Compaction of a half-dead store: every key written twice, so the
  // live set is half the log.
  double compact_s = 1e30;
  std::uint64_t dead_before = 0;
  for (int rep = 0; rep < reps; ++rep) {
    const std::string dir = scratch + "/compact.qstore";
    reset_dir(dir);
    StoreOptions opts;
    opts.sync = SyncPolicy::None;
    opts.auto_compact = false;
    SegmentStore store(dir, opts);
    for (std::size_t pass = 0; pass < 2; ++pass) {
      for (std::size_t i = 0; i < records; ++i) {
        auto written =
            store.append(store.make(record_key(i), record_value(i + pass,
                                                                value_bytes)));
        QSM_REQUIRE(written.has_value(), "append failed mid-bench");
      }
    }
    dead_before = store.dead_records();
    const auto t0 = std::chrono::steady_clock::now();
    store.compact();
    compact_s = std::min(compact_s, seconds_since(t0));
    QSM_REQUIRE(store.records() == records, "compaction lost records");
    QSM_REQUIRE(store.dead_records() == 0, "compaction kept dead records");
  }
  const double compact_in_per_s =
      static_cast<double>(2 * records) / compact_s;
  std::printf(
      "compaction: %zu records (%llu dead) -> %zu live in %.4fs "
      "(%.0f input records/s)\n\n",
      2 * records, static_cast<unsigned long long>(dead_before), records,
      compact_s, compact_in_per_s);

  support::JsonWriter json;
  json.begin_object();
  json.key("bench");
  json.value("store");
  json.key("records");
  json.value(static_cast<std::int64_t>(records));
  json.key("value_bytes");
  json.value(static_cast<std::int64_t>(value_bytes));
  json.key("lookups");
  json.value(lookups);
  json.key("reps");
  json.value(static_cast<std::int64_t>(reps));
  json.key("quick");
  json.value(quick);
  json.key("host_cores");
  json.value(static_cast<std::int64_t>(host_cores));
  json.key("host_thread_budget");
  json.value(static_cast<std::int64_t>(thread_budget));
  json.key("append");
  json.begin_array();
  for (const PolicyRow& row : policy_rows) {
    json.begin_object();
    json.key("sync");
    json.value(std::string(to_string(row.policy)));
    json.key("appends_per_s");
    json.value(row.per_s);
    json.key("mb_per_s");
    json.value(row.mb_per_s);
    json.key("vs_none");
    json.value(row.per_s / policy_rows[0].per_s);
    json.end_object();
  }
  json.end_array();
  json.key("warm_open_records_per_s");
  json.value(open_per_s);
  json.key("warm_lookups_per_s");
  json.value(lookups_per_s);
  json.key("compact_input_records_per_s");
  json.value(compact_in_per_s);
  json.key("compact_seconds");
  json.value(compact_s);
  json.end_object();

  const std::string out_path = args.str("out");
  std::FILE* f = std::fopen(out_path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", out_path.c_str());
    return 1;
  }
  std::fprintf(f, "%s\n", json.str().c_str());
  std::fclose(f);
  std::printf("(json written to %s)\n", out_path.c_str());
  std::printf(
      "expected shape: `none` appends at memory speed, `data` pays one "
      "fdatasync per record, `full` a little more; warm lookups run far "
      "above any append rate (they never touch the disk); compaction "
      "streams the live half of the log at sequential-write speed.\n");

  std::error_code ec;
  fs::remove_all(scratch, ec);
  return 0;
}
