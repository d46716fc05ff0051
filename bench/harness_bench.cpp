// Scheduler benchmark: measures the experiment harness itself.
//
// Times a synthetic sample-sort grid through the SweepRunner three ways —
// cold with one job, cold across a --jobs scaling curve, and warm from the
// result cache — and emits the numbers as machine-readable JSON
// (BENCH_harness.json) plus a human-readable table. The grid is the same
// shape the figure regenerators submit, so points/sec here is the unit the
// regen pipeline's wall-clock is made of.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "algos/samplesort.hpp"
#include "common.hpp"
#include "core/exec.hpp"
#include "core/runtime.hpp"
#include "support/json.hpp"

namespace {

using namespace qsm;

struct GridTiming {
  double seconds{0};
  std::size_t computed{0};
  std::size_t cached{0};
};

/// Runs the synthetic grid once against `cache_dir` and times run_all.
GridTiming run_grid(const bench::CommonConfig& cfg, int points, int jobs,
                    std::uint64_t n, const std::string& cache_dir) {
  harness::RunnerOptions opts;
  opts.workload = "harness_bench";
  opts.jobs = jobs;
  opts.cache = true;
  opts.cache_dir = cache_dir;
  harness::SweepRunner runner(opts);
  for (int i = 0; i < points; ++i) {
    harness::KeyBuilder key("samplesort");
    key.add("machine", cfg.machine);
    key.add("n", n);
    key.add("seed", cfg.seed);
    key.add("rep", i);
    runner.submit(key.build(), [&cfg, n, i] {
      rt::Runtime runtime(
          cfg.machine,
          rt::Options{.seed = cfg.seed + static_cast<std::uint64_t>(i)});
      auto data = runtime.alloc<std::int64_t>(n);
      runtime.host_fill(
          data, bench::scratch_keys(
                    n, cfg.seed + n * 31 + static_cast<std::uint64_t>(i)));
      harness::PointResult out;
      out.timing = algos::sample_sort(runtime, data).timing;
      return out;
    });
  }
  const auto t0 = std::chrono::steady_clock::now();
  const auto results = runner.run_all();
  const auto t1 = std::chrono::steady_clock::now();
  GridTiming t;
  t.seconds = std::chrono::duration<double>(t1 - t0).count();
  t.computed = runner.stats().computed;
  t.cached = runner.stats().cached;
  return t;
}

int run(int argc, const char* const* argv) {
  support::ArgParser args("bench_harness",
                          "scheduler/cache benchmark: points/sec, cold vs "
                          "warm, --jobs scaling");
  bench::register_common_flags(args);
  args.flag_i64("points", 24, "grid points in the synthetic sweep");
  args.flag_i64("n", 1 << 14, "sample-sort size per grid point");
  args.flag_str("jobs-curve", "1,2,4,8",
                "comma-separated job counts for the scaling curve");
  args.flag_bool("allow-oversubscribe", false,
                 "run jobs-curve entries above the host thread budget "
                 "instead of clamping them");
  args.flag_str("out", "BENCH_harness.json", "machine-readable output file");
  args.flag_str("scratch", "outputs/.bench_harness_scratch",
                "scratch directory for throwaway cache files");
  if (!args.parse(argc, argv)) return 0;
  const auto cfg = bench::read_common_flags(args);
  const int points = args.i32("points");
  const auto n = static_cast<std::uint64_t>(args.i64("n"));
  const auto curve = bench::parse_csv_i64(args.str("jobs-curve"));
  const std::string scratch = args.str("scratch");

  std::printf("== Scheduler benchmark (machine %s, %d points, n=%llu) ==\n\n",
              cfg.machine.name.c_str(), points,
              static_cast<unsigned long long>(n));

  // Cold serial baseline, then warm re-run from the same cache.
  std::filesystem::remove_all(scratch);
  const std::string serial_dir = scratch + "/serial";
  const auto cold = run_grid(cfg, points, 1, n, serial_dir);
  const auto warm = run_grid(cfg, points, 1, n, serial_dir);

  // Scaling claims only mean something against the hardware they ran on:
  // by default every curve entry is clamped to the host thread budget, so
  // the curve measures parallel speedup, never scheduling overhead under
  // oversubscription. --allow-oversubscribe restores the raw behavior.
  const bool allow_oversubscribe = args.boolean("allow-oversubscribe");
  const int budget = rt::host_thread_budget();
  const int host_cores =
      std::max(1, static_cast<int>(std::thread::hardware_concurrency()));

  // Cold scaling curve, one fresh cache per requested job count.
  struct CurvePoint {
    int requested{1};
    int jobs{1};
    bool clamped{false};
    GridTiming timing;
  };
  std::vector<CurvePoint> curve_results;
  for (const long long jobs : curve) {
    const std::string dir = scratch + "/jobs" + std::to_string(jobs);
    CurvePoint cp;
    cp.requested = static_cast<int>(jobs);
    cp.jobs = allow_oversubscribe ? cp.requested
                                  : std::min(cp.requested, budget);
    cp.clamped = cp.jobs != cp.requested;
    cp.timing = run_grid(cfg, points, cp.jobs, n, dir);
    curve_results.push_back(cp);
  }
  std::filesystem::remove_all(scratch);

  support::TextTable table({"run", "jobs", "seconds", "points/sec",
                            "speedup vs cold-1"});
  table.set_precision(2, 4);
  table.set_precision(3, 1);
  table.set_precision(4, 2);
  table.add_row({std::string("cold"), 1LL, cold.seconds,
                 points / cold.seconds, 1.0});
  table.add_row({std::string("warm"), 1LL, warm.seconds,
                 points / warm.seconds, cold.seconds / warm.seconds});
  bool any_clamped = false;
  bool any_oversubscribed = false;
  for (const auto& cp : curve_results) {
    const bool over = cp.jobs > host_cores;
    any_clamped = any_clamped || cp.clamped;
    any_oversubscribed = any_oversubscribed || over;
    table.add_row({cp.clamped ? "cold^" : (over ? "cold*" : "cold"),
                   static_cast<long long>(cp.jobs), cp.timing.seconds,
                   points / cp.timing.seconds,
                   cold.seconds / cp.timing.seconds});
  }
  bench::emit(table, cfg);
  if (any_clamped) {
    std::printf(
        "^ requested jobs clamped to the host thread budget (%d); pass "
        "--allow-oversubscribe to run them anyway.\n\n",
        budget);
  }
  if (any_oversubscribed) {
    std::printf(
        "* jobs exceeds the %d host core%s: those rows measure scheduling "
        "overhead under oversubscription, not parallel speedup.\n\n",
        host_cores, host_cores == 1 ? "" : "s");
  }

  if (warm.computed != 0) {
    std::fprintf(stderr, "warm run recomputed %zu points!\n", warm.computed);
    return 1;
  }

  const std::string out_path = args.str("out");
  support::JsonWriter json;
  json.begin_object();
  json.key("bench");
  json.value("harness");
  json.key("machine");
  json.value(cfg.machine.name);
  json.key("points");
  json.value(static_cast<std::int64_t>(points));
  json.key("n");
  json.value(static_cast<std::uint64_t>(n));
  json.key("host_threads");
  json.value(static_cast<std::int64_t>(rt::host_thread_budget()));
  json.key("host_cores");
  json.value(static_cast<std::int64_t>(host_cores));
  json.key("cold_serial_seconds");
  json.value(cold.seconds);
  json.key("warm_seconds");
  json.value(warm.seconds);
  json.key("warm_over_cold");
  json.value(warm.seconds / cold.seconds);
  json.key("points_per_second_cold");
  json.value(points / cold.seconds);
  json.key("points_per_second_warm");
  json.value(points / warm.seconds);
  json.key("jobs_curve");
  json.begin_array();
  for (const auto& cp : curve_results) {
    json.begin_object();
    json.key("requested_jobs");
    json.value(static_cast<std::int64_t>(cp.requested));
    json.key("jobs");
    json.value(static_cast<std::int64_t>(cp.jobs));
    json.key("clamped");
    json.value(cp.clamped);
    json.key("seconds");
    json.value(cp.timing.seconds);
    json.key("speedup_vs_serial");
    json.value(cold.seconds / cp.timing.seconds);
    json.key("oversubscribed");
    json.value(cp.jobs > host_cores);
    json.end_object();
  }
  json.end_array();
  json.end_object();

  std::FILE* f = std::fopen(out_path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", out_path.c_str());
    return 1;
  }
  std::fprintf(f, "%s\n", json.str().c_str());
  std::fclose(f);
  std::printf("(json written to %s)\n", out_path.c_str());
  std::printf(
      "expected shape: warm_over_cold well under 0.1 (the cache replaces "
      "simulation with a JSONL read); speedup_vs_serial tracking the job "
      "count up to the host's core count (flat on a single-core host).\n");
  return 0;
}

}  // namespace

int main(int argc, char** argv) { return run(argc, argv); }
