// Traffic-representation benchmark: what the sparse phase pipeline buys.
//
// The phase pipeline carries per-(source, owner) traffic either as CSR-style
// sparse lists (cost O(active pairs + p) per phase) or as the classic p x p
// matrices (cost O(p^2) regardless of how many pairs are active). This bench
// times both on the two extremes of the paper's workloads:
//
//   listrank at n = 4p — the irregular-communication workload at its
//       sparsest: O(1) list items per node, so each phase touches a few
//       thousand pairs while the dense form walks tens of millions of
//       matrix cells at p = 4096;
//   samplesort — the key exchange is a genuine all-to-all, where Auto's
//       density pre-pass must bail to the dense form and cost no more than
//       a few percent over forcing it.
//
// Reported as phases/sec, forced-dense vs auto, with the auto runs' mode
// counters showing which representation actually ran. Both modes must
// produce bit-identical traces (the sparse-parity suite is the real
// oracle; the JSON records the check). Emits BENCH_sparsity.json.
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

struct ModeTiming {
  double best_seconds{0};
  std::uint64_t phases{0};
  std::uint64_t sparse_phases{0};
  std::uint64_t dense_phases{0};
  rt::RunResult trace;
};

struct Row {
  std::string workload;
  int p{0};
  std::uint64_t n{0};
  ModeTiming dense;
  ModeTiming autod;
  bool identical{false};
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

/// Times `reps` runs of `run_once` on one long-lived runtime (one warmup
/// run first: lanes spawn and the phases' exchange patterns land in the
/// comm memos, so timed reps measure the pipeline, not first-touch
/// pricing). A pattern over the xfer memo's per-entry cap is never stored
/// and is priced again in every rep: listrank's all-pairs count broadcast
/// at p = 4096 (~33.6M words against the 16M-word cap). Every pattern at
/// p <= 1024 fits.
template <typename MakeRuntime, typename RunOnce>
ModeTiming time_mode(MakeRuntime make_runtime, RunOnce run_once, int reps) {
  auto runtime = make_runtime();
  ModeTiming t;
  t.trace = run_once(*runtime);
  t.phases = t.trace.phases;
  t.best_seconds = 1e30;
  for (int rep = 0; rep < reps; ++rep) {
    const auto t0 = std::chrono::steady_clock::now();
    const auto r = run_once(*runtime);
    const auto t1 = std::chrono::steady_clock::now();
    QSM_REQUIRE(r.phases == t.trace.phases, "phase count drifted across reps");
    t.best_seconds = std::min(
        t.best_seconds, std::chrono::duration<double>(t1 - t0).count());
  }
  t.sparse_phases = runtime->host_sparse_phases();
  t.dense_phases = runtime->host_dense_phases();
  return t;
}

Row listrank_row(const machine::MachineConfig& base, int p, int reps,
                 std::uint64_t seed) {
  Row row;
  row.workload = "listrank";
  row.p = p;
  row.n = static_cast<std::uint64_t>(4) * static_cast<std::uint64_t>(p);
  const auto list = algos::make_random_list(row.n, seed ^ 5);
  const auto make = [&](rt::TrafficMode mode) {
    return [&base, p, mode, seed] {
      auto variant = base;
      variant.p = p;
      return std::make_unique<rt::Runtime>(
          variant, rt::Options{.seed = seed, .traffic = mode});
    };
  };
  const auto once = [&](rt::Runtime& runtime) {
    auto ranks = runtime.alloc<std::int64_t>(row.n);
    auto timing = algos::list_rank(runtime, list, ranks).timing;
    runtime.free(ranks);
    return timing;
  };
  row.dense = time_mode(make(rt::TrafficMode::Dense), once, reps);
  row.autod = time_mode(make(rt::TrafficMode::Auto), once, reps);
  row.identical = row.dense.trace == row.autod.trace;
  return row;
}

Row samplesort_row(const machine::MachineConfig& base, int p, int reps,
                   std::uint64_t seed) {
  Row row;
  row.workload = "samplesort";
  row.p = p;
  row.n = sort_n_for(p);
  const auto& keys = bench::scratch_keys(row.n, seed ^ 7);
  const auto make = [&](rt::TrafficMode mode) {
    return [&base, p, mode, seed] {
      auto variant = base;
      variant.p = p;
      return std::make_unique<rt::Runtime>(
          variant, rt::Options{.seed = seed, .traffic = mode});
    };
  };
  const auto once = [&](rt::Runtime& runtime) {
    auto data = runtime.alloc<std::int64_t>(row.n);
    runtime.host_fill(data, keys);
    auto timing = algos::sample_sort(runtime, data).timing;
    runtime.free(data);
    return timing;
  };
  row.dense = time_mode(make(rt::TrafficMode::Dense), once, reps);
  row.autod = time_mode(make(rt::TrafficMode::Auto), once, reps);
  row.identical = row.dense.trace == row.autod.trace;
  return row;
}

int run(int argc, const char* const* argv) {
  support::ArgParser args("bench_sparsity",
                          "dense vs sparse per-phase traffic representation: "
                          "phases/sec on sparse (listrank) and all-to-all "
                          "(samplesort) workloads");
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

  // Dense phases parallelize classification and gets over the phase
  // workers, which Runtime sizes from the thread budget; both numbers say
  // what host the rows below came from.
  const int host_cores =
      std::max(1, static_cast<int>(std::thread::hardware_concurrency()));
  const int thread_budget = rt::host_thread_budget();
  std::printf(
      "== Traffic representation (machine %s, %d reps, best-of, %d host "
      "cores, thread budget %d) ==\n\n",
      cfg.machine.name.c_str(), cfg.reps, host_cores, thread_budget);

  std::vector<Row> rows;
  for (const long long pll : procs) {
    rows.push_back(
        listrank_row(cfg.machine, static_cast<int>(pll), cfg.reps, cfg.seed));
  }
  for (const long long pll : sort_procs) {
    rows.push_back(samplesort_row(cfg.machine, static_cast<int>(pll),
                                  cfg.reps, cfg.seed));
  }

  support::TextTable table({"workload", "p", "n", "dense ph/s", "auto ph/s",
                            "speedup", "auto sparse/dense phases"});
  table.set_precision(3, 1);
  table.set_precision(4, 1);
  table.set_precision(5, 2);
  for (const Row& row : rows) {
    table.add_row({row.workload, static_cast<long long>(row.p),
                   static_cast<long long>(row.n),
                   static_cast<double>(row.dense.phases) /
                       row.dense.best_seconds,
                   static_cast<double>(row.autod.phases) /
                       row.autod.best_seconds,
                   row.dense.best_seconds / row.autod.best_seconds,
                   std::to_string(row.autod.sparse_phases) + "/" +
                       std::to_string(row.autod.dense_phases)});
  }
  bench::emit(table, cfg);

  bool all_identical = true;
  for (const Row& row : rows) all_identical = all_identical && row.identical;
  std::printf("traces identical across representations: %s\n",
              all_identical ? "yes" : "NO — determinism bug");

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
  json.key("traces_identical");
  json.value(all_identical);
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
    json.value(row.dense.phases);
    json.key("dense_seconds");
    json.value(row.dense.best_seconds);
    json.key("auto_seconds");
    json.value(row.autod.best_seconds);
    json.key("dense_phases_per_sec");
    json.value(static_cast<double>(row.dense.phases) / row.dense.best_seconds);
    json.key("auto_phases_per_sec");
    json.value(static_cast<double>(row.autod.phases) / row.autod.best_seconds);
    json.key("speedup");
    json.value(row.dense.best_seconds / row.autod.best_seconds);
    json.key("auto_sparse_phases");
    json.value(row.autod.sparse_phases);
    json.key("auto_dense_phases");
    json.value(row.autod.dense_phases);
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
      "expected shape: auto rides the sparse representation on listrank "
      "(speedup growing ~p^2/active-pairs) and falls back to dense on "
      "samplesort (speedup ~1.0, the pre-pass is noise).\n");
  return all_identical ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) { return run(argc, argv); }
