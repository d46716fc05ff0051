// Example: choosing a machine for a sorting workload.
//
// A downstream user's question: "I need to sort 1M keys — how would the
// same QSM program behave on a Cray T3E, a Berkeley NOW, and commodity
// PCs over TCP?" Because QSM programs are architecture-neutral, the same
// sample-sort runs unmodified on every preset; the simulated clocks and
// the calibrated model predictions do the comparison.
//
//   $ ./example_sortapp [--n 262144]
#include <algorithm>
#include <cstdio>
#include <vector>

#include "algos/samplesort.hpp"
#include "machine/presets.hpp"
#include "models/calibration.hpp"
#include "models/predictors.hpp"
#include "support/cli.hpp"
#include "support/rng.hpp"
#include "support/table.hpp"

using namespace qsm;

int main(int argc, char** argv) {
  support::ArgParser args("example_sortapp",
                          "sort the same keys on several simulated machines");
  args.flag_i64("n", 1 << 18, "number of keys");
  args.flag_i64("p", 8, "processors to use on every machine");
  if (!args.parse(argc, argv)) return 0;
  const auto n = static_cast<std::uint64_t>(args.i64("n"));
  const int p = args.i32("p");

  std::vector<std::int64_t> keys(n);
  {
    support::Xoshiro256 rng(2024);
    for (auto& k : keys) k = static_cast<std::int64_t>(rng() >> 1);
  }
  auto expected = keys;
  std::sort(expected.begin(), expected.end());

  std::printf("sorting %llu keys on %d processors of each machine\n\n",
              static_cast<unsigned long long>(n), p);

  support::TextTable table({"machine", "wall (ms)", "comm share",
                            "QSM-est err", "B skew", "phases"});
  table.set_precision(1, 2);
  table.set_precision(2, 2);
  table.set_precision(3, 3);
  table.set_precision(4, 2);

  for (const char* preset : {"default", "now", "t3e", "cs2", "tcp"}) {
    auto cfg = machine::preset_by_name(preset);
    cfg.p = p;
    const auto cal = models::calibrate(cfg);

    rt::Runtime runtime(cfg);
    auto data = runtime.alloc<std::int64_t>(n);
    runtime.host_fill(data, keys);
    const auto out = algos::sample_sort(runtime, data);
    if (runtime.host_read(data) != expected) {
      std::fprintf(stderr, "%s produced an unsorted result!\n", preset);
      return 1;
    }

    const double wall_ms =
        cfg.cpu.clock.cycles_to_us(out.timing.total_cycles) / 1000.0;
    const double comm_share =
        static_cast<double>(out.timing.comm_cycles) /
        static_cast<double>(out.timing.total_cycles);
    const double est = models::qsm_estimate_from_trace(cal, out.timing);
    const double err =
        std::abs(est - static_cast<double>(out.timing.comm_cycles)) /
        static_cast<double>(out.timing.comm_cycles);
    table.add_row({cfg.name, wall_ms, comm_share, err,
                   static_cast<double>(out.largest_bucket) /
                       (static_cast<double>(n) / p),
                   static_cast<long long>(out.timing.phases)});
  }
  std::printf("%s", table.to_string().c_str());
  std::printf(
      "\nreading the table: the T3E's fast network keeps the comm share "
      "low; TCP-over-Ethernet inverts the balance completely — but the "
      "*program* never changed, which is the QSM portability argument.\n");
  return 0;
}
