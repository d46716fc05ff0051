#include "common.hpp"

#include <cstdio>
#include <stdexcept>
#include <string>

#include "machine/custom.hpp"
#include "machine/presets.hpp"
#include "support/contract.hpp"
#include "support/rng.hpp"

namespace qsm::bench {

void register_common_flags(support::ArgParser& args) {
  args.flag_str("machine", "default",
                "machine preset: default, now, tcp, t3e, paragon, cs2");
  args.flag_str("machine-file", "",
                "load a custom machine description instead of a preset");
  args.flag_i64("p", 0, "override processor count (0 = preset value)");
  args.flag_i64("reps", 3, "repetitions per configuration (paper used 10)");
  args.flag_i64("seed", 1, "base random seed");
  args.flag_str("csv", "", "also write the table to this CSV file");
  args.flag_i64("jobs", 0,
                "grid points simulated concurrently (0 = host thread budget)");
  args.flag_bool("no-cache", false,
                 "recompute every grid point, ignore the result cache");
  args.flag_str("cache-dir", "outputs/.cache",
                "content-addressed result cache location (one segment store "
                "per workload)");
  args.flag_str("cache-sync", "data",
                "cache durability: none (process-crash safe only), data "
                "(fdatasync per record), full (also fsync metadata + dir)");
  // Fault injection (all off by default; any nonzero probability changes
  // the cache keys, so fault-free caches are untouched).
  args.flag_f64("fault-drop", 0, "per-message drop probability");
  args.flag_f64("fault-dup", 0, "per-message duplication probability");
  args.flag_f64("fault-delay", 0, "per-message delay-spike probability");
  args.flag_i64("fault-delay-spike", 20000, "delay-spike size in cycles");
  args.flag_f64("fault-stall", 0, "per-node per-phase stall probability");
  args.flag_i64("fault-stall-cycles", 50000, "stall size in cycles");
  args.flag_f64("fault-slow", 0, "per-node per-phase slowdown probability");
  args.flag_f64("fault-slow-factor", 2.0,
                "compute multiplier for a slowed node (>= 1)");
  args.flag_f64("fault-node-fail", 0,
                "per-node per-phase failure probability (triggers replay)");
  args.flag_i64("fault-timeout", 8000, "ack timeout before retransmit, cycles");
  args.flag_f64("fault-backoff", 2.0, "retransmit backoff multiplier (>= 1)");
  args.flag_i64("fault-attempts", 8, "delivery attempts per message (1..62)");
  args.flag_i64("fault-seed", 1, "fault-draw seed (independent of --seed)");
  // Per-point robustness guards and crash recovery.
  args.flag_f64("point-timeout", 0,
                "host seconds per grid point before the watchdog fails it "
                "(0 = off)");
  args.flag_i64("point-rss-mb", 0,
                "process RSS budget in MB while a point runs (0 = off)");
  args.flag_bool("tolerate-failures", false,
                 "record throwing points as failure rows and keep sweeping");
  args.flag_bool("resume", false,
                 "accept cached failure rows instead of retrying them");
}

CommonConfig read_common_flags(const support::ArgParser& args) {
  CommonConfig cfg;
  const std::string& file = args.str("machine-file");
  cfg.machine = file.empty() ? machine::preset_by_name(args.str("machine"))
                             : machine::machine_from_file(file);
  const int p = args.i32("p");
  if (p > 0) cfg.machine.p = p;
  cfg.reps = args.i32("reps");
  QSM_REQUIRE(cfg.reps >= 1, "--reps must be at least 1");
  cfg.seed = static_cast<std::uint64_t>(args.i64("seed"));
  cfg.csv = args.str("csv");
  cfg.jobs = args.i32("jobs");
  QSM_REQUIRE(cfg.jobs >= 0, "--jobs must be non-negative");
  cfg.cache = !args.boolean("no-cache");
  cfg.cache_dir = args.str("cache-dir");
  {
    const std::string& sync = args.str("cache-sync");
    const auto policy = support::durable::sync_policy_from_string(sync);
    QSM_REQUIRE(policy.has_value(),
                "--cache-sync must be none, data, or full");
    cfg.cache_sync = *policy;
  }
  net::FaultParams& fault = cfg.machine.net.fault;
  fault.drop_prob = args.f64("fault-drop");
  fault.dup_prob = args.f64("fault-dup");
  fault.delay_prob = args.f64("fault-delay");
  fault.delay_cycles = args.i64("fault-delay-spike");
  fault.stall_prob = args.f64("fault-stall");
  fault.stall_cycles = args.i64("fault-stall-cycles");
  fault.slow_prob = args.f64("fault-slow");
  fault.slow_factor = args.f64("fault-slow-factor");
  fault.node_fail_prob = args.f64("fault-node-fail");
  fault.ack_timeout = args.i64("fault-timeout");
  fault.ack_backoff = args.f64("fault-backoff");
  fault.max_attempts = args.i32("fault-attempts");
  fault.seed = static_cast<std::uint64_t>(args.i64("fault-seed"));
  fault.validate();

  cfg.point_timeout_s = args.f64("point-timeout");
  QSM_REQUIRE(cfg.point_timeout_s >= 0, "--point-timeout must be >= 0");
  cfg.point_rss_mb = args.i64("point-rss-mb");
  QSM_REQUIRE(cfg.point_rss_mb >= 0, "--point-rss-mb must be >= 0");
  cfg.tolerate_failures = args.boolean("tolerate-failures");
  cfg.resume = args.boolean("resume");
  return cfg;
}

harness::RunnerOptions runner_options(const CommonConfig& cfg,
                                      std::string workload) {
  harness::RunnerOptions opts;
  opts.workload = std::move(workload);
  opts.jobs = cfg.jobs;
  opts.cache = cfg.cache;
  opts.cache_dir = cfg.cache_dir;
  opts.cache_sync = cfg.cache_sync;
  opts.point_timeout_s = cfg.point_timeout_s;
  opts.point_rss_mb = cfg.point_rss_mb;
  opts.tolerate_failures = cfg.tolerate_failures;
  opts.resume = cfg.resume;
  return opts;
}

void print_runner_stats(const harness::SweepRunner& runner) {
  const harness::RunnerStats& s = runner.stats();
  std::printf(
      "harness: points=%zu cached=%zu computed=%zu failed=%zu resumed=%zu "
      "jobs=%d workers/job=%d compute=%.3fs cache=%s\n\n",
      s.points, s.cached, s.computed, s.failed, s.resumed, s.jobs,
      s.phase_workers_per_job, s.compute_seconds,
      runner.options().cache ? runner.options().cache_dir.c_str() : "off");
}

void fill_random_keys(std::vector<std::int64_t>& out, std::uint64_t n,
                      std::uint64_t seed) {
  support::Xoshiro256 rng(seed);
  out.resize(n);
  for (auto& x : out) x = static_cast<std::int64_t>(rng() >> 1);
}

std::vector<std::int64_t> random_keys(std::uint64_t n, std::uint64_t seed) {
  std::vector<std::int64_t> v;
  fill_random_keys(v, n, seed);
  return v;
}

const std::vector<std::int64_t>& scratch_keys(std::uint64_t n,
                                              std::uint64_t seed) {
  struct Scratch {
    std::vector<std::int64_t> keys;
    std::uint64_t n{0};
    std::uint64_t seed{0};
    bool valid{false};
  };
  thread_local Scratch scratch;
  if (!scratch.valid || scratch.n != n || scratch.seed != seed) {
    fill_random_keys(scratch.keys, n, seed);
    scratch.n = n;
    scratch.seed = seed;
    scratch.valid = true;
  }
  return scratch.keys;
}

RepeatedRuns summarize_runs(const std::vector<rt::RunResult>& runs) {
  std::vector<double> total;
  std::vector<double> comm;
  std::vector<double> compute;
  total.reserve(runs.size());
  comm.reserve(runs.size());
  compute.reserve(runs.size());
  for (const auto& r : runs) {
    total.push_back(static_cast<double>(r.total_cycles));
    comm.push_back(static_cast<double>(r.comm_cycles));
    compute.push_back(static_cast<double>(r.compute_cycles));
  }
  RepeatedRuns out;
  out.total = support::summarize(total);
  out.comm = support::summarize(comm);
  out.compute = support::summarize(compute);
  return out;
}

RepeatedRuns summarize_points(const std::vector<harness::PointResult>& results,
                              std::size_t first, std::size_t count) {
  QSM_REQUIRE(first + count <= results.size(), "point range out of bounds");
  std::vector<double> total;
  std::vector<double> comm;
  std::vector<double> compute;
  total.reserve(count);
  comm.reserve(count);
  compute.reserve(count);
  for (std::size_t i = first; i < first + count; ++i) {
    const rt::RunResult& r = results[i].timing;
    total.push_back(static_cast<double>(r.total_cycles));
    comm.push_back(static_cast<double>(r.comm_cycles));
    compute.push_back(static_cast<double>(r.compute_cycles));
  }
  RepeatedRuns out;
  out.total = support::summarize(total);
  out.comm = support::summarize(comm);
  out.compute = support::summarize(compute);
  return out;
}

void add_membench_machine(harness::KeyBuilder& key,
                          const membench::BankMachineConfig& m) {
  key.add("mb.name", m.name);
  key.add("mb.procs", m.procs);
  key.add("mb.banks", m.banks);
  key.add("mb.hz", m.clock.hz);
  key.add("mb.sw", m.sw_overhead);
  key.add("mb.lat", m.interconnect_latency);
  key.add("mb.occ", m.bank_occupancy);
  key.add("mb.out", m.outstanding);
}

void print_preamble(const std::string& title, const CommonConfig& cfg,
                    const models::Calibration& cal) {
  std::printf("== %s ==\n", title.c_str());
  std::printf(
      "machine %s: p=%d  g=%.2f c/B  o=%lld cy  l=%lld cy  clock=%.0f MHz\n",
      cfg.machine.name.c_str(), cfg.machine.p, cfg.machine.net.gap_cpb,
      static_cast<long long>(cfg.machine.net.overhead),
      static_cast<long long>(cfg.machine.net.latency),
      cfg.machine.cpu.clock.hz / 1e6);
  std::printf(
      "observed through library: put %.1f cy/word (%.1f c/B), "
      "get %.1f cy/word (%.1f c/B), L=%s cy, reps=%d\n\n",
      cal.put_cpw, cal.put_cpb(), cal.get_cpw, cal.get_cpb(),
      support::with_commas(cal.phase_overhead).c_str(), cfg.reps);
}

void emit(const support::TextTable& table, const CommonConfig& cfg) {
  std::printf("%s", table.to_string().c_str());
  if (!cfg.csv.empty()) {
    table.write_csv(cfg.csv);
    std::printf("(csv written to %s)\n", cfg.csv.c_str());
  }
  std::printf("\n");
}

std::vector<long long> parse_csv_i64(const std::string& spec) {
  std::vector<long long> out;
  if (spec.empty()) return out;
  std::size_t pos = 0;
  while (true) {
    const auto comma = spec.find(',', pos);
    const std::string item = spec.substr(pos, comma - pos);
    std::size_t used = 0;
    try {
      out.push_back(std::stoll(item, &used));
    } catch (const std::exception&) {
      used = 0;  // no number at all, e.g. an empty item in "64,,256"
    }
    if (used == 0 || used != item.size()) {
      throw std::runtime_error(
          "expected a comma-separated integer list, got '" + spec + "'");
    }
    if (comma == std::string::npos) return out;
    pos = comma + 1;
  }
}

std::vector<std::uint64_t> size_sweep(std::uint64_t lo, std::uint64_t hi,
                                      double factor) {
  QSM_REQUIRE(lo >= 1 && hi >= lo && factor > 1.0, "bad sweep bounds");
  std::vector<std::uint64_t> out;
  double v = static_cast<double>(lo);
  while (static_cast<std::uint64_t>(v) <= hi) {
    out.push_back(static_cast<std::uint64_t>(v));
    v *= factor;
  }
  if (out.empty() || out.back() != hi) out.push_back(hi);
  return out;
}

}  // namespace qsm::bench
