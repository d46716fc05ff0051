// Figure 2: measured vs predicted performance for sample sort.
//
// Reproduces both panels: (a) total running time vs communication time and
// (b) measured communication against the Best-case closed form, the
// Chernoff WHP bound, the QSM estimate priced from the actually-measured
// skew (gap only), and the BSP estimate (QSM + 5L).
#include <cstdio>
#include <vector>

#include "algos/samplesort.hpp"
#include "support/ascii_chart.hpp"
#include "common.hpp"
#include "core/runtime.hpp"
#include "models/calibration.hpp"
#include "models/predictors.hpp"

namespace {

using namespace qsm;

int run(int argc, const char* const* argv) {
  support::ArgParser args("bench_fig2_samplesort",
                          "Figure 2: sample sort, measured vs Best-case / "
                          "WHP / QSM-estimate / BSP-estimate");
  bench::register_common_flags(args);
  args.flag_i64("nmin", 1 << 14, "smallest problem size");
  args.flag_i64("nmax", 1 << 20, "largest problem size");
  args.flag_i64("oversample", 4, "oversampling factor c");
  if (!args.parse(argc, argv)) return 0;
  const auto cfg = bench::read_common_flags(args);
  const int c = args.i32("oversample");

  const auto cal = models::calibrate(cfg.machine);
  bench::print_preamble("Figure 2: sample sort", cfg, cal);

  harness::SweepRunner runner(bench::runner_options(cfg, "fig2_samplesort"));
  const auto sizes =
      bench::size_sweep(static_cast<std::uint64_t>(args.i64("nmin")),
                        static_cast<std::uint64_t>(args.i64("nmax")));
  for (const std::uint64_t n : sizes) {
    for (int rep = 0; rep < cfg.reps; ++rep) {
      harness::KeyBuilder key("samplesort");
      key.add("machine", cfg.machine);
      key.add("n", n);
      key.add("seed", cfg.seed);
      key.add("rep", rep);
      key.add("c", c);
      runner.submit(key.build(), [&cfg, n, rep, c] {
        rt::Runtime runtime(
            cfg.machine,
            rt::Options{.seed = cfg.seed + static_cast<std::uint64_t>(rep)});
        auto data = runtime.alloc<std::int64_t>(n);
        runtime.host_fill(
            data, bench::scratch_keys(
                      n, cfg.seed + n * 31 + static_cast<std::uint64_t>(rep)));
        const auto sorted = algos::sample_sort(runtime, data, c);
        harness::PointResult out;
        out.timing = sorted.timing;
        out.metrics["largest_bucket"] =
            static_cast<double>(sorted.largest_bucket);
        out.metrics["remote_fraction"] = sorted.remote_fraction;
        return out;
      });
    }
  }
  const auto results = runner.run_all();

  support::TextTable table({"n", "total", "comm", "cv%", "best", "whp",
                            "qsm-est", "bsp-est", "B", "r"});
  for (std::size_t col : {1u, 2u, 4u, 5u, 6u, 7u}) table.set_precision(col, 0);
  table.set_precision(3, 1);
  table.set_precision(9, 3);

  const int p = cfg.machine.p;
  std::vector<double> xs, meas, bests, whps, ests;
  std::size_t at = 0;
  for (const std::uint64_t n : sizes) {
    double qsm_est = 0;
    double bsp_est = 0;
    std::uint64_t largest_bucket = 0;
    double remote_fraction = 0;
    const std::size_t first = at;
    for (int rep = 0; rep < cfg.reps; ++rep, ++at) {
      const harness::PointResult& r = results[at];
      qsm_est += models::qsm_estimate_from_trace(cal, r.timing);
      bsp_est += models::bsp_estimate_from_trace(cal, r.timing);
      largest_bucket = std::max(
          largest_bucket,
          static_cast<std::uint64_t>(r.metric("largest_bucket")));
      remote_fraction = std::max(remote_fraction, r.metric("remote_fraction"));
    }
    qsm_est /= cfg.reps;
    bsp_est /= cfg.reps;
    const auto s = bench::summarize_points(
        results, first, static_cast<std::size_t>(cfg.reps));
    const auto best =
        models::samplesort_comm(cal, n, p, models::samplesort_best_skew(n, p), c);
    const auto whp = models::samplesort_comm(
        cal, n, p, models::samplesort_whp_skew(n, p, 0.1, c), c);
    const double cv =
        s.comm.mean > 0 ? 100.0 * s.comm.stddev / s.comm.mean : 0.0;
    table.add_row({static_cast<long long>(n), s.total.mean, s.comm.mean, cv,
                   best.qsm, whp.qsm, qsm_est, bsp_est,
                   static_cast<long long>(largest_bucket), remote_fraction});
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
      "expected shape: best <= comm <= whp for all but tiny n; qsm-est "
      "within ~10%% of comm once n is large; bsp-est = qsm-est + 5L closes "
      "the gap at small n; cv%% below ~11 (the paper's run-to-run "
      "variability for sample sort).\n");
  bench::print_runner_stats(runner);
  return 0;
}

}  // namespace

int main(int argc, char** argv) { return run(argc, argv); }
