// Phase-pipeline scaling benchmark: what one phase costs the host as p grows.
//
// The phase pipeline carries each phase's per-(source, owner) traffic as
// CSR rows, so a phase should cost O(active pairs + p), never O(p^2). This
// bench times it on the two extremes of the paper's workloads:
//
//   listrank at n = 4p — the irregular-communication workload at its
//       sparsest: O(1) list items per node, so each phase touches a few
//       thousand pairs at p = 4096, except the one all-pairs count
//       broadcast, which touches all p(p - 1);
//   samplesort — the key exchange is a genuine all-to-all.
//
// Reported as phases/sec and, for each listrank row, the per-phase cost
// relative to the previous listrank row's p: at 4x the processors, about
// 4x is linear in p and 16x is quadratic. Emits BENCH_sparsity.json.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "algos/listrank.hpp"
#include "algos/samplesort.hpp"
#include "common.hpp"
#include "core/exec.hpp"
#include "core/runtime.hpp"
#include "support/json.hpp"

namespace {

using namespace qsm;

struct Row {
  std::string workload;
  int p{0};
  std::uint64_t n{0};
  std::uint64_t phases{0};
  double best_seconds{0};
  /// Per-phase cost over the previous listrank row's; 0 when there is none.
  double cost_ratio{0};

  [[nodiscard]] double phases_per_sec() const {
    return static_cast<double>(phases) / best_seconds;
  }
  [[nodiscard]] double seconds_per_phase() const {
    return best_seconds / static_cast<double>(phases);
  }
};

/// Smallest power-of-two n satisfying sample sort's p^2 * ceil(log2 n) <= n.
std::uint64_t sort_n_for(int p) {
  const auto p2 = static_cast<std::uint64_t>(p) * static_cast<std::uint64_t>(p);
  std::uint64_t n = 1ULL << 14;
  const auto ceil_log2 = [](std::uint64_t v) {
    std::uint64_t lg = 0;
    while ((1ULL << lg) < v) ++lg;
    return lg;
  };
  while (p2 * ceil_log2(n) > n) n <<= 1;
  return n;
}

/// Times `reps` runs of `run_once` on one long-lived runtime at p (one
/// warmup run first: lanes spawn and the phases' exchange patterns land in
/// the comm memos, so timed reps measure the pipeline, not first-touch
/// pricing). A pattern over the xfer memo's per-entry cap is never stored
/// and is priced again in every rep: listrank's all-pairs count broadcast
/// at p = 4096 (~33.6M words against the 16M-word cap). Every pattern at
/// p <= 1024 fits.
template <typename RunOnce>
void time_row(Row& row, const machine::MachineConfig& base,
              std::uint64_t seed, RunOnce run_once, int reps) {
  auto machine = base;
  machine.p = row.p;
  rt::Runtime runtime(machine, rt::Options{.seed = seed});
  row.phases = run_once(runtime).phases;
  row.best_seconds = 1e30;
  for (int rep = 0; rep < reps; ++rep) {
    const auto t0 = std::chrono::steady_clock::now();
    const auto r = run_once(runtime);
    const auto t1 = std::chrono::steady_clock::now();
    QSM_REQUIRE(r.phases == row.phases, "phase count drifted across reps");
    row.best_seconds = std::min(
        row.best_seconds, std::chrono::duration<double>(t1 - t0).count());
  }
}

Row listrank_row(const machine::MachineConfig& base, int p, int reps,
                 std::uint64_t seed) {
  Row row;
  row.workload = "listrank";
  row.p = p;
  row.n = static_cast<std::uint64_t>(4) * static_cast<std::uint64_t>(p);
  const auto list = algos::make_random_list(row.n, seed ^ 5);
  time_row(row, base, seed,
           [&](rt::Runtime& runtime) {
             auto ranks = runtime.alloc<std::int64_t>(row.n);
             auto timing = algos::list_rank(runtime, list, ranks).timing;
             runtime.free(ranks);
             return timing;
           },
           reps);
  return row;
}

Row samplesort_row(const machine::MachineConfig& base, int p, int reps,
                   std::uint64_t seed) {
  Row row;
  row.workload = "samplesort";
  row.p = p;
  row.n = sort_n_for(p);
  const auto& keys = bench::scratch_keys(row.n, seed ^ 7);
  time_row(row, base, seed,
           [&](rt::Runtime& runtime) {
             auto data = runtime.alloc<std::int64_t>(row.n);
             runtime.host_fill(data, keys);
             auto timing = algos::sample_sort(runtime, data).timing;
             runtime.free(data);
             return timing;
           },
           reps);
  return row;
}

int run(int argc, const char* const* argv) {
  support::ArgParser args("bench_sparsity",
                          "phase-pipeline scaling: phases/sec and per-phase "
                          "cost growth with p on sparse (listrank) and "
                          "all-to-all (samplesort) workloads");
  bench::register_common_flags(args);
  args.flag_str("procs", "64,256,1024,4096",
                "listrank processor counts (n = 4p each)");
  args.flag_str("sort-procs", "64,256",
                "samplesort processor counts (n = smallest feasible)");
  args.flag_str("out", "BENCH_sparsity.json", "machine-readable output file");
  if (!args.parse(argc, argv)) return 0;
  const auto cfg = bench::read_common_flags(args);
  const auto procs = bench::parse_csv_i64(args.str("procs"));
  const auto sort_procs = bench::parse_csv_i64(args.str("sort-procs"));

  // Classify and gets run on the phase workers, which Runtime sizes from
  // the thread budget; both numbers say what host the rows came from.
  const int host_cores =
      std::max(1, static_cast<int>(std::thread::hardware_concurrency()));
  const int thread_budget = rt::host_thread_budget();
  std::printf(
      "== Phase-pipeline scaling (machine %s, %d reps, best-of, %d host "
      "cores, thread budget %d) ==\n\n",
      cfg.machine.name.c_str(), cfg.reps, host_cores, thread_budget);

  std::vector<Row> rows;
  for (const long long pll : procs) {
    rows.push_back(
        listrank_row(cfg.machine, static_cast<int>(pll), cfg.reps, cfg.seed));
    if (rows.size() > 1) {
      rows.back().cost_ratio = rows.back().seconds_per_phase() /
                               rows[rows.size() - 2].seconds_per_phase();
    }
  }
  for (const long long pll : sort_procs) {
    rows.push_back(samplesort_row(cfg.machine, static_cast<int>(pll),
                                  cfg.reps, cfg.seed));
  }

  support::TextTable table({"workload", "p", "n", "phases", "ph/s",
                            "us/phase", "cost vs prev p"});
  table.set_precision(4, 1);
  table.set_precision(5, 1);
  table.set_precision(6, 2);
  for (const Row& row : rows) {
    table.add_row({row.workload, static_cast<long long>(row.p),
                   static_cast<long long>(row.n),
                   static_cast<long long>(row.phases), row.phases_per_sec(),
                   row.seconds_per_phase() * 1e6,
                   row.cost_ratio > 0 ? support::Cell(row.cost_ratio)
                                      : support::Cell(std::string("-"))});
  }
  bench::emit(table, cfg);

  support::JsonWriter json;
  json.begin_object();
  json.key("bench");
  json.value("sparsity");
  json.key("machine");
  json.value(cfg.machine.name);
  json.key("reps");
  json.value(static_cast<std::int64_t>(cfg.reps));
  json.key("host_cores");
  json.value(static_cast<std::int64_t>(host_cores));
  json.key("host_thread_budget");
  json.value(static_cast<std::int64_t>(thread_budget));
  json.key("grid");
  json.begin_array();
  for (const Row& row : rows) {
    json.begin_object();
    json.key("workload");
    json.value(row.workload);
    json.key("p");
    json.value(static_cast<std::int64_t>(row.p));
    json.key("n");
    json.value(static_cast<std::uint64_t>(row.n));
    json.key("phases");
    json.value(row.phases);
    json.key("seconds");
    json.value(row.best_seconds);
    json.key("phases_per_sec");
    json.value(row.phases_per_sec());
    json.key("us_per_phase");
    json.value(row.seconds_per_phase() * 1e6);
    if (row.cost_ratio > 0) {
      json.key("phase_cost_vs_prev_p");
      json.value(row.cost_ratio);
    }
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
  std::printf(
      "expected shape: listrank's per-phase cost grows about linearly in p "
      "(~4x per 4x p), well under the quadratic 16x.\n");
  return 0;
}

}  // namespace

int main(int argc, char** argv) { return run(argc, argv); }
