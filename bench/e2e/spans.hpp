// Spans for the end-to-end benchmark.
//
// Every call the benchmark makes into a layer (Runtime construction, the
// first empty run, SweepRunner::run_all, a store scan, ...) is wrapped in a
// Stage. A Stage always reads the clock, because the per-layer metrics are
// those durations; when the process-wide Tracer is enabled it also keeps
// the span (name, start, end, parent, iteration, thread) in a vector that
// was allocated up front, so recording never allocates. At exit the spans
// are written as Chrome trace-event JSON, which Perfetto and
// chrome://tracing load.
//
// Span names are the per-layer metric stems: the span "core.ctor" times
// what the metric "core.ctor_s" sums.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace qsm::e2e {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_between(Clock::time_point a,
                                            Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

struct Span {
  const char* name{""};  ///< static string, a per-layer metric stem
  std::int64_t start_ns{0};  ///< since the tracer's epoch
  std::int64_t end_ns{0};
  std::uint32_t parent{0};  ///< span id (index + 1) of the parent, 0 = root
  std::uint32_t iteration{0};
  std::uint32_t thread{0};  ///< small per-process thread number
};

class Tracer {
 public:
  /// Reserves room for `capacity` spans; spans past it are counted as
  /// dropped, never reallocated.
  void reserve(std::size_t capacity);

  /// Recording on or off (the clock is read either way).
  void set_enabled(bool on) { enabled_.store(on, std::memory_order_relaxed); }
  [[nodiscard]] bool enabled() const {
    return enabled_.load(std::memory_order_relaxed);
  }
  /// Iteration id stamped on spans opened from now on.
  void set_iteration(std::uint32_t it) {
    iteration_.store(it, std::memory_order_relaxed);
  }

  /// Opens a span and returns its id (0 when not recording).
  std::uint32_t open(const char* name, std::uint32_t parent,
                     Clock::time_point start);
  void close(std::uint32_t id, Clock::time_point end);

  [[nodiscard]] std::size_t recorded() const;
  [[nodiscard]] std::uint64_t dropped() const {
    return dropped_.load(std::memory_order_relaxed);
  }

  /// Chrome trace events of every recorded span, one JSON object per
  /// element, `pid` identifying the process (one per workload).
  [[nodiscard]] std::vector<std::string> chrome_events(
      int pid, const std::string& process_name) const;

  static Tracer& global();

 private:
  Clock::time_point epoch_{Clock::now()};
  std::vector<Span> spans_;
  std::atomic<std::size_t> next_{0};
  std::atomic<std::uint64_t> dropped_{0};
  std::atomic<bool> enabled_{false};
  std::atomic<std::uint32_t> iteration_{0};
};

/// Times one call into a layer. The span's parent is the innermost Stage
/// still open on this thread, or `parent` when a stage starts on another
/// thread than its parent (a sweep job's closure).
class Stage {
 public:
  explicit Stage(const char* name, std::uint32_t parent = kInherit);
  ~Stage() { stop(); }

  Stage(const Stage&) = delete;
  Stage& operator=(const Stage&) = delete;

  /// Ends the span (once) and returns its duration in seconds.
  double stop();
  [[nodiscard]] std::uint32_t id() const { return id_; }

  static constexpr std::uint32_t kInherit = UINT32_MAX;

 private:
  Clock::time_point start_;
  double seconds_{-1};
  std::uint32_t id_{0};
  std::uint32_t outer_{0};
};

/// Writes `{"traceEvents":[...]}` with the given events to `path`.
/// Returns false when the file cannot be written.
bool write_chrome_trace(const std::string& path,
                        const std::vector<std::string>& events);

}  // namespace qsm::e2e
