// Figure 3: measured vs predicted performance for list ranking.
//
// The irregular-communication workload: random-mate elimination over a
// randomly-ordered linked list. Reports measured communication time against
// the Best-case closed form (ideal geometric decay), the Chernoff WHP
// bound, and the QSM/BSP estimates priced from the measured per-phase skew.
#include <cstdio>
#include <vector>

#include "algos/listrank.hpp"
#include "support/ascii_chart.hpp"
#include "common.hpp"
#include "core/runtime.hpp"
#include "models/calibration.hpp"
#include "models/predictors.hpp"

namespace {

using namespace qsm;

int run(int argc, const char* const* argv) {
  support::ArgParser args("bench_fig3_listrank",
                          "Figure 3: list ranking, measured vs Best-case / "
                          "WHP / QSM-estimate / BSP-estimate");
  bench::register_common_flags(args);
  args.flag_i64("nmin", 1 << 13, "smallest list size");
  args.flag_i64("nmax", 1 << 18, "largest list size");
  args.flag_i64("iteration-c", 4, "elimination iterations per log2(p)");
  if (!args.parse(argc, argv)) return 0;
  const auto cfg = bench::read_common_flags(args);
  const int c = args.i32("iteration-c");

  const auto cal = models::calibrate(cfg.machine);
  bench::print_preamble("Figure 3: list ranking", cfg, cal);

  harness::SweepRunner runner(bench::runner_options(cfg, "fig3_listrank"));
  const auto sizes =
      bench::size_sweep(static_cast<std::uint64_t>(args.i64("nmin")),
                        static_cast<std::uint64_t>(args.i64("nmax")));
  for (const std::uint64_t n : sizes) {
    for (int rep = 0; rep < cfg.reps; ++rep) {
      harness::KeyBuilder key("listrank");
      key.add("machine", cfg.machine);
      key.add("n", n);
      key.add("seed", cfg.seed);
      key.add("rep", rep);
      key.add("c", c);
      runner.submit(key.build(), [&cfg, n, rep, c] {
        rt::Runtime runtime(
            cfg.machine,
            rt::Options{.seed = cfg.seed + static_cast<std::uint64_t>(rep)});
        const auto list = algos::make_random_list(
            n, cfg.seed + n * 17 + static_cast<std::uint64_t>(rep));
        auto ranks = runtime.alloc<std::int64_t>(n);
        const auto ranked = algos::list_rank(runtime, list, ranks, c);
        harness::PointResult out;
        out.timing = ranked.timing;
        out.metrics["z"] = static_cast<double>(ranked.z);
        return out;
      });
    }
  }
  const auto results = runner.run_all();

  support::TextTable table({"n", "total", "comm", "cv%", "best", "whp",
                            "qsm-est", "bsp-est", "z"});
  for (std::size_t col : {1u, 2u, 4u, 5u, 6u, 7u}) table.set_precision(col, 0);
  table.set_precision(3, 1);

  const int p = cfg.machine.p;
  std::vector<double> xs, meas, bests, whps, ests;
  std::size_t at = 0;
  for (const std::uint64_t n : sizes) {
    double qsm_est = 0;
    double bsp_est = 0;
    std::uint64_t z = 0;
    const std::size_t first = at;
    for (int rep = 0; rep < cfg.reps; ++rep, ++at) {
      const harness::PointResult& r = results[at];
      qsm_est += models::qsm_estimate_from_trace(cal, r.timing);
      bsp_est += models::bsp_estimate_from_trace(cal, r.timing);
      z = std::max(z, static_cast<std::uint64_t>(r.metric("z")));
    }
    qsm_est /= cfg.reps;
    bsp_est /= cfg.reps;
    const auto s = bench::summarize_points(
        results, first, static_cast<std::size_t>(cfg.reps));
    const auto best =
        models::listrank_comm(cal, n, p, models::listrank_best_skew(n, p, c));
    const auto whp = models::listrank_comm(
        cal, n, p, models::listrank_whp_skew(n, p, c, 0.1));
    const double cv =
        s.comm.mean > 0 ? 100.0 * s.comm.stddev / s.comm.mean : 0.0;
    table.add_row({static_cast<long long>(n), s.total.mean, s.comm.mean, cv,
                   best.qsm, whp.qsm, qsm_est, bsp_est,
                   static_cast<long long>(z)});
    xs.push_back(static_cast<double>(n));
    meas.push_back(s.comm.mean);
    bests.push_back(best.qsm);
    whps.push_back(whp.qsm);
    ests.push_back(qsm_est);
  }
  bench::emit(table, cfg);

  support::AsciiChart chart({.width = 68,
                             .height = 18,
                             .log_x = true,
                             .log_y = true,
                             .x_label = "n",
                             .y_label = "comm cycles"});
  chart.add_series("measured", xs, meas);
  chart.add_series("best", xs, bests);
  chart.add_series("whp", xs, whps);
  chart.add_series("qsm-est", xs, ests);
  std::printf("%s\n", chart.render().c_str());
  std::printf(
      "expected shape: best <= comm <= whp; qsm-est within ~15%% of comm "
      "once n >= ~60k (paper section 3.2); comm dominates total for this "
      "irregular workload; cv%% small except at tiny n (the paper's <2%% "
      "claim).\n");
  bench::print_runner_stats(runner);
  return 0;
}

}  // namespace

int main(int argc, char** argv) { return run(argc, argv); }
