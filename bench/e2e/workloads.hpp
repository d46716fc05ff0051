// The four workloads of the end-to-end benchmark and the loop that
// measures one of them in the current process.
//
// Every workload runs through the public APIs the way a bench binary
// does: points are submitted to a harness::SweepRunner backed by an empty
// durable result store, each point runs an algos call on a fresh
// rt::Runtime, and a warm pass reopens the store and resolves every point
// from it. Sizes, iteration counts and job counts are constants in
// workloads.cpp; only the seed and the measuring time come from outside.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

namespace qsm::e2e {

struct RunConfig {
  std::string workload;
  std::uint64_t seed{1};
  /// Wall time of the measured loop; at least a few iterations always run.
  double seconds{20};
  /// Record spans, and take the measurements that only the per-layer
  /// metrics need (sync floor, store scan, tracing overhead).
  bool traced{false};
  /// Tiny sizes for the smoke test.
  bool quick{false};
  /// Existing directory that holds this run's result stores.
  std::string store_root;
  /// Expected trace hash; nullopt checks only that the hash is stable.
  std::optional<std::uint64_t> golden;
};

struct Metric {
  std::string unit;
  double value{0};  ///< median of the samples, or the named percentile
  std::size_t samples{0};
  double q1{0};
  double q3{0};
};

struct WorkloadReport {
  /// Every metric the run measured, end-to-end and per-layer, by name.
  std::map<std::string, Metric> metrics;
  std::uint64_t attempted{0};  ///< output checks made
  std::uint64_t failed{0};     ///< output checks that failed
  std::vector<std::string> failures;  ///< the first few, for the log
  std::uint64_t trace_hash{0};
  int jobs{1};
};

[[nodiscard]] const std::vector<std::string>& workload_names();

/// Measures one workload; throws on a simulation error.
[[nodiscard]] WorkloadReport run_workload(const RunConfig& cfg);

/// Median of a sample (mean of the middle two for an even count).
[[nodiscard]] double median(std::vector<double> xs);
/// First and third quartiles by the "exclusive" method of Python's
/// statistics.quantiles(xs, n=4).
[[nodiscard]] std::pair<double, double> quartiles(std::vector<double> xs);

}  // namespace qsm::e2e
