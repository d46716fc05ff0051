// Lane sync-floor benchmark: what one phase costs the program-lane engine.
//
// Every program lane is a stackful fiber on a carrier thread (DESIGN.md
// §4), so a phase with no work still pays p user-space park/resume
// switches, one barrier arrival per carrier, the cross-carrier wakeups and
// the phase completion. This bench runs a barrier-dominated synthetic
// program (one word exchanged per node per phase — all overhead, no work)
// at p in {16, 64, 256, 1024}, reports phases/sec, OS threads created and
// carriers, and emits BENCH_lanes.json next to the other machine-readable
// bench outputs. The defaults (500 phases, best of 5 reps) make each width
// run long enough to be stable on a shared host; the CI lane gate runs
// them too, so its reading is comparable with the committed file.
//
// Each width's trace is also checked against a run on one carrier (lanes
// in rank order); the carrier count may not change a simulated number.
// The lane-parity test suites are the real oracle.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "common.hpp"
#include "core/exec.hpp"
#include "core/runtime.hpp"
#include "support/json.hpp"

namespace {

using namespace qsm;

struct LaneTiming {
  double best_seconds{0};
  std::uint64_t threads_created{0};
  int carriers{0};
  rt::RunResult trace;
};

/// Runs `phases` one-word ring-exchange phases at width p, `reps` times on
/// one long-lived runtime (carriers warm after the first run), and keeps
/// the best wall-clock.
LaneTiming time_lanes(const machine::MachineConfig& base, int p, int phases,
                      int reps, std::uint64_t seed) {
  auto variant = base;
  variant.p = p;
  rt::Runtime runtime(variant, rt::Options{.seed = seed});
  auto a = runtime.alloc<std::int64_t>(static_cast<std::uint64_t>(p),
                                       rt::Layout::Block);
  const auto program = [&](rt::Context& ctx) {
    const auto rank = static_cast<std::uint64_t>(ctx.rank());
    const auto np = static_cast<std::uint64_t>(ctx.nprocs());
    for (int ph = 0; ph < phases; ++ph) {
      ctx.put(a, (rank + 1) % np, static_cast<std::int64_t>(rank + 1));
      ctx.sync();
    }
  };

  LaneTiming t;
  t.trace = runtime.run(program);  // warm-up: creates the carriers
  t.best_seconds = 1e30;
  for (int rep = 0; rep < reps; ++rep) {
    const auto t0 = std::chrono::steady_clock::now();
    const auto r = runtime.run(program);
    const auto t1 = std::chrono::steady_clock::now();
    QSM_REQUIRE(r == t.trace, "trace drifted across reps");
    t.best_seconds =
        std::min(t.best_seconds, std::chrono::duration<double>(t1 - t0).count());
  }
  t.threads_created = runtime.host_threads_created();
  t.carriers = runtime.host_carriers();
  return t;
}

int run(int argc, const char* const* argv) {
  support::ArgParser args("bench_lanes",
                          "fiber program lanes: phases/sec on a "
                          "barrier-dominated workload");
  bench::register_common_flags(args);
  args.flag_i64("reps", 5, "timed runs per width; the best one counts");
  args.flag_str("procs", "16,64,256,1024", "comma-separated processor counts");
  args.flag_i64("phases", 500, "sync phases per run");
  args.flag_str("out", "BENCH_lanes.json", "machine-readable output file");
  if (!args.parse(argc, argv)) return 0;
  const auto cfg = bench::read_common_flags(args);
  const int phases = args.i32("phases");
  const auto procs = bench::parse_csv_i64(args.str("procs"));

  const int host_cores =
      std::max(1, static_cast<int>(std::thread::hardware_concurrency()));
  const int thread_budget = rt::host_thread_budget();
  std::printf(
      "== Lane sync floor (machine %s, %d phases/run, %d reps, %d host "
      "cores, thread budget %d) ==\n\n",
      cfg.machine.name.c_str(), phases, cfg.reps, host_cores, thread_budget);

  struct Row {
    int p;
    LaneTiming lanes;
    bool identical;
  };
  std::vector<Row> rows;
  for (const long long pll : procs) {
    Row row;
    row.p = static_cast<int>(pll);
    row.lanes = time_lanes(cfg.machine, row.p, phases, cfg.reps, cfg.seed);
    // The same program on one carrier: the budget is read when the runtime
    // is built, so it is restored before the next width.
    rt::set_host_thread_budget(1);
    row.identical =
        time_lanes(cfg.machine, row.p, phases, 0, cfg.seed).trace ==
        row.lanes.trace;
    rt::set_host_thread_budget(thread_budget);
    rows.push_back(row);
  }

  support::TextTable table({"p", "phases/s", "OS threads", "carriers"});
  table.set_precision(1, 0);
  for (const Row& row : rows) {
    table.add_row({static_cast<long long>(row.p),
                   phases / row.lanes.best_seconds,
                   static_cast<long long>(row.lanes.threads_created),
                   static_cast<long long>(row.lanes.carriers)});
  }
  bench::emit(table, cfg);

  bool all_identical = true;
  for (const Row& row : rows) all_identical = all_identical && row.identical;
  std::printf("traces identical to one-carrier runs: %s\n",
              all_identical ? "yes" : "NO — determinism bug");

  support::JsonWriter json;
  json.begin_object();
  json.key("bench");
  json.value("lanes");
  json.key("machine");
  json.value(cfg.machine.name);
  json.key("phases_per_run");
  json.value(static_cast<std::int64_t>(phases));
  json.key("reps");
  json.value(static_cast<std::int64_t>(cfg.reps));
  json.key("host_cores");
  json.value(static_cast<std::int64_t>(host_cores));
  json.key("host_thread_budget");
  json.value(static_cast<std::int64_t>(thread_budget));
  json.key("traces_identical");
  json.value(all_identical);
  json.key("grid");
  json.begin_array();
  for (const Row& row : rows) {
    json.begin_object();
    json.key("p");
    json.value(static_cast<std::int64_t>(row.p));
    json.key("seconds");
    json.value(row.lanes.best_seconds);
    json.key("phases_per_sec");
    json.value(phases / row.lanes.best_seconds);
    json.key("os_threads");
    json.value(static_cast<std::uint64_t>(row.lanes.threads_created));
    json.key("carriers");
    json.value(static_cast<std::int64_t>(row.lanes.carriers));
    json.end_object();
  }
  json.end_array();
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
  return all_identical ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) { return run(argc, argv); }
