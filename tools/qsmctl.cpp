// qsmctl — one entry point to the library for people who do not want to
// write C++ first.
//
//   qsmctl machines                         list presets and their parameters
//   qsmctl calibrate --machine t3e          Table-3 style calibration
//   qsmctl run --algo sort --n 65536        run a workload, print the trace
//   qsmctl predict --algo rank --n 1000000  closed-form predictions only
//   qsmctl membench --accesses 2000         the Section-4 microbenchmark
//
// Every subcommand accepts --machine <preset> or --machine-file <cfg>.
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "algos/bfs.hpp"
#include "algos/components.hpp"
#include "algos/listrank.hpp"
#include "algos/prefix.hpp"
#include "algos/radixsort.hpp"
#include "algos/samplesort.hpp"
#include "algos/wyllie.hpp"
#include "core/runtime.hpp"
#include "core/trace_io.hpp"
#include "machine/custom.hpp"
#include "machine/presets.hpp"
#include "membench/membench.hpp"
#include "models/calibration.hpp"
#include "models/nmin.hpp"
#include "models/predictors.hpp"
#include "support/cli.hpp"
#include "support/durable/segment_store.hpp"
#include "support/rng.hpp"
#include "support/table.hpp"

namespace {

using namespace qsm;

machine::MachineConfig machine_from(const support::ArgParser& args) {
  auto m = args.str("machine-file").empty()
               ? machine::preset_by_name(args.str("machine"))
               : machine::machine_from_file(args.str("machine-file"));
  if (const int p = args.i32("p"); p > 0) m.p = p;
  return m;
}

void add_machine_flags(support::ArgParser& args) {
  args.flag_str("machine", "default", "machine preset");
  args.flag_str("machine-file", "", "custom machine description file");
  args.flag_i64("p", 0, "override processor count (0 = preset)");
}

int cmd_machines() {
  support::TextTable t({"preset", "name", "p", "g (c/B)", "o (cy)", "l (cy)",
                        "clock MHz"});
  t.set_precision(3, 2);
  const std::vector<std::string> names = machine::preset_names();
  for (const auto& key : names) {
    const auto m = machine::preset_by_name(key);
    t.add_row({key, m.name, static_cast<long long>(m.p), m.net.gap_cpb,
               static_cast<long long>(m.net.overhead),
               static_cast<long long>(m.net.latency),
               static_cast<long long>(m.cpu.clock.hz / 1e6)});
  }
  std::printf("%s", t.to_string().c_str());
  return 0;
}

int cmd_calibrate(int argc, const char* const* argv) {
  support::ArgParser args("qsmctl calibrate",
                          "measure observed network constants (Table 3)");
  add_machine_flags(args);
  args.flag_i64("words", 1 << 15, "bulk transfer size per node");
  if (!args.parse(argc, argv)) return 0;
  const auto m = machine_from(args);
  const auto cal = models::calibrate(
      m, static_cast<std::uint64_t>(args.i64("words")));
  std::printf("machine %s (p=%d)\n", m.name.c_str(), cal.p);
  std::printf("  put: %8.1f cy/word  (%6.2f cy/B vs %.2f raw)\n",
              cal.put_cpw, cal.put_cpb(), m.net.gap_cpb);
  std::printf("  get: %8.1f cy/word  (%6.2f cy/B)\n", cal.get_cpw,
              cal.get_cpb());
  std::printf("  barrier: %s cy; empty sync: %s cy\n",
              support::with_commas(cal.barrier).c_str(),
              support::with_commas(cal.phase_overhead).c_str());
  if (m.p >= 2) {
    std::printf("  n_min/p guidance (10%% tol): %.0f elements/processor\n",
                models::nmin_per_proc_samplesort(models::nmin_input_from(m)));
  }
  return 0;
}

int cmd_run(int argc, const char* const* argv) {
  support::ArgParser args("qsmctl run", "run a workload and print the trace");
  add_machine_flags(args);
  args.flag_str("algo", "sort",
                "prefix | sort | radix | rank | wyllie | bfs | cc");
  args.flag_i64("n", 1 << 16, "problem size");
  args.flag_i64("seed", 1, "random seed");
  args.flag_bool("trace", false, "print the per-phase trace table");
  args.flag_str("trace-csv", "", "write the per-phase trace to this file");
  if (!args.parse(argc, argv)) return 0;
  const auto m = machine_from(args);
  const auto n = static_cast<std::uint64_t>(args.i64("n"));
  const auto seed = static_cast<std::uint64_t>(args.i64("seed"));
  const std::string& algo = args.str("algo");

  rt::Runtime runtime(m, rt::Options{.seed = seed});
  rt::RunResult result;
  if (algo == "prefix" || algo == "sort" || algo == "radix") {
    auto data = runtime.alloc<std::int64_t>(n);
    {
      support::Xoshiro256 rng(seed);
      std::vector<std::int64_t> v(n);
      for (auto& x : v) x = static_cast<std::int64_t>(rng() >> 1);
      runtime.host_fill(data, v);
    }
    if (algo == "prefix") {
      result = algos::parallel_prefix(runtime, data).timing;
    } else if (algo == "sort") {
      result = algos::sample_sort(runtime, data).timing;
    } else {
      result = algos::radix_sort(runtime, data).timing;
    }
  } else if (algo == "rank" || algo == "wyllie") {
    const auto list = algos::make_random_list(n, seed);
    auto ranks = runtime.alloc<std::int64_t>(n);
    result = algo == "rank"
                 ? algos::list_rank(runtime, list, ranks).timing
                 : algos::wyllie_list_rank(runtime, list, ranks).timing;
  } else if (algo == "bfs") {
    const auto g = algos::make_random_graph(n, 6.0, seed);
    auto dist = runtime.alloc<std::int64_t>(n);
    result = algos::parallel_bfs(runtime, g, 0, dist).timing;
  } else if (algo == "cc") {
    const auto g = algos::make_random_graph(n, 3.0, seed);
    auto labels = runtime.alloc<std::int64_t>(n);
    const auto cc = algos::connected_components(runtime, g, labels);
    std::printf("(%llu components in %d rounds)\n",
                static_cast<unsigned long long>(cc.components), cc.rounds);
    result = cc.timing;
  } else {
    std::fprintf(stderr, "unknown --algo '%s'\n", algo.c_str());
    return 1;
  }

  const auto& clk = m.cpu.clock;
  std::printf("%s on %s (p=%d), n=%llu, seed=%llu\n", algo.c_str(),
              m.name.c_str(), m.p, static_cast<unsigned long long>(n),
              static_cast<unsigned long long>(seed));
  std::printf("  total   %14s cy  (%.3f ms)\n",
              support::with_commas(result.total_cycles).c_str(),
              clk.cycles_to_us(result.total_cycles) / 1000.0);
  std::printf("  compute %14s cy\n",
              support::with_commas(result.compute_cycles).c_str());
  std::printf("  comm    %14s cy  (%llu phases, %llu remote words, %s wire "
              "bytes)\n",
              support::with_commas(result.comm_cycles).c_str(),
              static_cast<unsigned long long>(result.phases),
              static_cast<unsigned long long>(result.rw_total),
              support::with_commas(result.wire_bytes).c_str());
  if (args.boolean("trace")) {
    std::printf("%s", rt::trace_table(result).to_string().c_str());
  }
  if (!args.str("trace-csv").empty()) {
    rt::write_trace_csv(result, args.str("trace-csv"));
    std::printf("trace written to %s\n", args.str("trace-csv").c_str());
  }
  return 0;
}

int cmd_predict(int argc, const char* const* argv) {
  support::ArgParser args("qsmctl predict",
                          "closed-form QSM/BSP communication predictions");
  add_machine_flags(args);
  args.flag_str("algo", "sort", "prefix | sort | rank");
  args.flag_i64("n", 1 << 16, "problem size");
  if (!args.parse(argc, argv)) return 0;
  const auto m = machine_from(args);
  const auto n = static_cast<std::uint64_t>(args.i64("n"));
  const std::string& algo = args.str("algo");
  const auto cal = models::calibrate(m);

  models::CommPrediction best;
  models::CommPrediction whp;
  if (algo == "prefix") {
    best = whp = models::prefix_comm(cal);
  } else if (algo == "sort") {
    best = models::samplesort_comm(cal, n, m.p,
                                   models::samplesort_best_skew(n, m.p));
    whp = models::samplesort_comm(cal, n, m.p,
                                  models::samplesort_whp_skew(n, m.p));
  } else if (algo == "rank") {
    best =
        models::listrank_comm(cal, n, m.p, models::listrank_best_skew(n, m.p));
    whp =
        models::listrank_comm(cal, n, m.p, models::listrank_whp_skew(n, m.p));
  } else {
    std::fprintf(stderr, "unknown --algo '%s'\n", algo.c_str());
    return 1;
  }
  std::printf("%s on %s (p=%d), n=%llu — predicted communication cycles:\n",
              algo.c_str(), m.name.c_str(), m.p,
              static_cast<unsigned long long>(n));
  std::printf("  QSM best case: %14.0f\n", best.qsm);
  std::printf("  QSM whp bound: %14.0f\n", whp.qsm);
  std::printf("  BSP best case: %14.0f\n", best.bsp);
  std::printf("  BSP whp bound: %14.0f\n", whp.bsp);
  return 0;
}

int cmd_membench(int argc, const char* const* argv) {
  support::ArgParser args("qsmctl membench",
                          "Section-4 bank-contention microbenchmark");
  args.flag_i64("accesses", 2000, "accesses per processor");
  args.flag_i64("seed", 1, "random seed");
  if (!args.parse(argc, argv)) return 0;
  const auto accesses = static_cast<std::uint64_t>(args.i64("accesses"));
  const auto seed = static_cast<std::uint64_t>(args.i64("seed"));
  support::TextTable t({"machine", "pattern", "avg access us"});
  t.set_precision(2, 2);
  for (const auto& m : membench::fig7_presets()) {
    for (const auto pattern :
         {membench::Pattern::NoConflict, membench::Pattern::Random,
          membench::Pattern::Conflict}) {
      const auto r = run_membench(m, pattern, accesses, seed);
      t.add_row({m.name, std::string(to_string(pattern)), r.avg_access_us});
    }
  }
  std::printf("%s", t.to_string().c_str());
  return 0;
}

int cmd_cacheinfo(int argc, const char* const* argv) {
  support::ArgParser args("qsmctl cache-info",
                          "scan a result-cache segment store and report "
                          "recovery statistics");
  args.flag_str("store", "", "path to a <workload>.qstore directory");
  if (!args.parse(argc, argv)) return 0;
  const std::string& dir = args.str("store");
  if (dir.empty()) {
    std::fputs("qsmctl cache-info: --store <dir> is required\n", stderr);
    return 2;
  }
  // Read-only scan: never heals, never appends, safe to run while a sweep
  // (or a crash test) owns the store. A missing directory is an empty
  // store, so pollers can start before the first record lands.
  support::durable::StoreOptions opts;
  opts.sync = support::durable::SyncPolicy::None;
  support::durable::SegmentStore store(dir, opts);
  support::durable::ScanReport rep;
  (void)store.load(&rep);
  std::printf(
      "store=%s records=%llu live=%llu dead=%llu segments=%zu sealed=%zu "
      "bytes=%llu torn_tail=%d corrupt_events=%llu\n",
      dir.c_str(), static_cast<unsigned long long>(rep.records),
      static_cast<unsigned long long>(rep.live),
      static_cast<unsigned long long>(rep.dead), rep.segments, rep.sealed,
      static_cast<unsigned long long>(rep.bytes), rep.torn_tail ? 1 : 0,
      static_cast<unsigned long long>(rep.corrupt_events));
  return 0;
}

int usage() {
  std::fputs(
      "qsmctl <command> [flags]\n"
      "commands:\n"
      "  machines    list machine presets\n"
      "  calibrate   measure observed network constants (Table 3)\n"
      "  run         run a workload, print timing and optional trace\n"
      "  predict     closed-form QSM/BSP predictions\n"
      "  membench    the Section-4 bank-contention microbenchmark\n"
      "  cache-info  scan a result-cache segment store, print recovery stats\n"
      "each command accepts --help for its flags\n",
      stdout);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string cmd = argv[1];
  const int sub_argc = argc - 1;
  char** sub_argv = argv + 1;
  try {
    if (cmd == "machines") return cmd_machines();
    if (cmd == "calibrate") return cmd_calibrate(sub_argc, sub_argv);
    if (cmd == "run") return cmd_run(sub_argc, sub_argv);
    if (cmd == "predict") return cmd_predict(sub_argc, sub_argv);
    if (cmd == "membench") return cmd_membench(sub_argc, sub_argv);
    if (cmd == "cache-info") return cmd_cacheinfo(sub_argc, sub_argv);
    if (cmd == "--help" || cmd == "-h" || cmd == "help") {
      usage();
      return 0;
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "qsmctl %s: %s\n", cmd.c_str(), e.what());
    return 1;
  }
  std::fprintf(stderr, "unknown command '%s'\n\n", cmd.c_str());
  return usage();
}
