// Shared plumbing for the figure/table regenerators.
//
// Every bench binary follows the same pattern: parse flags (machine
// preset, problem sizes, repetitions, CSV output, scheduler knobs),
// submit the grid of simulations the paper ran to a harness::SweepRunner,
// run them (sharded across --jobs host threads, resolved from the result
// cache where possible), print the same rows/series the paper reports,
// and optionally mirror them to CSV for plotting.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/trace.hpp"
#include "harness/point.hpp"
#include "harness/sweep.hpp"
#include "machine/config.hpp"
#include "membench/membench.hpp"
#include "models/calibration.hpp"
#include "support/cli.hpp"
#include "support/stats.hpp"
#include "support/table.hpp"

namespace qsm::bench {

/// Flags shared by all harnesses. Call register_common_flags() before
/// parse(), then common_* accessors after.
void register_common_flags(support::ArgParser& args);

struct CommonConfig {
  machine::MachineConfig machine;
  int reps{3};
  std::uint64_t seed{1};
  std::string csv;  ///< empty = no CSV mirror
  // Scheduler knobs (see harness::SweepRunner).
  int jobs{0};            ///< 0 = auto (host thread budget, capped at 16)
  bool cache{true};       ///< false with --no-cache
  std::string cache_dir;  ///< result cache location (segment stores)
  /// Cache durability policy (--cache-sync={none,data,full}).
  support::durable::SyncPolicy cache_sync{support::durable::SyncPolicy::Data};
  // Robustness knobs (--point-timeout, --point-rss-mb, --tolerate-failures,
  // --resume); the fault-injection --fault-* flags land directly in
  // machine.net.fault.
  double point_timeout_s{0};
  std::int64_t point_rss_mb{0};
  bool tolerate_failures{false};
  bool resume{false};
};

[[nodiscard]] CommonConfig read_common_flags(const support::ArgParser& args);

/// SweepRunner options for this binary. `workload` names the cache file;
/// benches that share grid points (the four crossover harnesses) pass a
/// shared id so each other's cached points are reusable.
[[nodiscard]] harness::RunnerOptions runner_options(const CommonConfig& cfg,
                                                    std::string workload);

/// One-line scheduler/cache report every harness prints after its sweeps:
///   harness: points=40 cached=40 computed=0 jobs=4 workers/job=2 ...
/// The golden cache test greps warm runs for "computed=0".
void print_runner_stats(const harness::SweepRunner& runner);

/// Random non-negative 63-bit keys.
[[nodiscard]] std::vector<std::int64_t> random_keys(std::uint64_t n,
                                                    std::uint64_t seed);

/// Same sequence as random_keys(), written into `out` (resized to n) so
/// callers can reuse one allocation across repetitions.
void fill_random_keys(std::vector<std::int64_t>& out, std::uint64_t n,
                      std::uint64_t seed);

/// Thread-local memoized key buffer: same values as random_keys(n, seed),
/// but the buffer is reused across calls on the same thread — a scheduler
/// worker draining a grid stops reallocating (and for a repeated (n, seed)
/// pair stops regenerating) keys per point. The reference is valid until
/// the next scratch_keys() call on this thread.
[[nodiscard]] const std::vector<std::int64_t>& scratch_keys(
    std::uint64_t n, std::uint64_t seed);

/// Repeated-run summary of one workload configuration.
struct RepeatedRuns {
  support::Summary total;    ///< total cycles
  support::Summary comm;     ///< communication cycles
  support::Summary compute;  ///< max local compute cycles
};

/// Folds a set of RunResults into summaries.
[[nodiscard]] RepeatedRuns summarize_runs(
    const std::vector<rt::RunResult>& runs);

/// Folds the timing of `count` consecutive harness results starting at
/// `first` (the per-rep points of one configuration) into summaries.
[[nodiscard]] RepeatedRuns summarize_points(
    const std::vector<harness::PointResult>& results, std::size_t first,
    std::size_t count);

/// Appends every field of a membench machine to a key (the harness knows
/// the QSM MachineConfig; the Figure 7 bank machines live here).
void add_membench_machine(harness::KeyBuilder& key,
                          const membench::BankMachineConfig& m);

/// Prints the standard header: machine, calibration constants, rep count.
void print_preamble(const std::string& title, const CommonConfig& cfg,
                    const models::Calibration& cal);

/// Writes the table to stdout and, when cfg.csv is non-empty, to that file.
void emit(const support::TextTable& table, const CommonConfig& cfg);

/// Parses a comma-separated integer list ("1,8,32") — the processor and
/// multiplier flags of the sweeps. An empty spec is an empty list; an item
/// that is not a whole integer throws std::runtime_error quoting the list.
[[nodiscard]] std::vector<long long> parse_csv_i64(const std::string& spec);

/// Geometric sweep of problem sizes [lo, hi] multiplying by `factor`.
[[nodiscard]] std::vector<std::uint64_t> size_sweep(std::uint64_t lo,
                                                    std::uint64_t hi,
                                                    double factor = 2.0);

}  // namespace qsm::bench
