#include "harness/sweep.hpp"

#include <algorithm>
#include <chrono>
#include <mutex>
#include <unordered_map>

#include "core/exec.hpp"
#include "support/contract.hpp"
#include "support/watchdog.hpp"

namespace qsm::harness {

namespace {

/// Restores the process thread budget even when a compute closure throws.
class BudgetGuard {
 public:
  explicit BudgetGuard(int per_job_budget)
      : previous_(rt::host_thread_budget()) {
    rt::set_host_thread_budget(per_job_budget);
  }
  ~BudgetGuard() { rt::set_host_thread_budget(previous_); }

  BudgetGuard(const BudgetGuard&) = delete;
  BudgetGuard& operator=(const BudgetGuard&) = delete;

 private:
  int previous_;
};

}  // namespace

SweepRunner::SweepRunner(RunnerOptions opts) : opts_(std::move(opts)) {
  const int budget = rt::host_thread_budget();
  jobs_ = opts_.jobs > 0 ? opts_.jobs : std::clamp(budget, 1, 16);
  phase_workers_per_job_ = std::max(1, budget / jobs_);
  stats_.jobs = jobs_;
  stats_.phase_workers_per_job = phase_workers_per_job_;
  if (opts_.cache) {
    support::durable::StoreOptions store_opts;
    store_opts.sync = opts_.cache_sync;
    cache_ = std::make_unique<ResultCache>(opts_.cache_dir, opts_.workload,
                                           store_opts);
  }
}

SweepRunner::~SweepRunner() = default;

std::size_t SweepRunner::submit(PointKey key,
                                std::function<PointResult()> compute) {
  QSM_REQUIRE(compute != nullptr, "grid point needs a compute closure");
  pending_.push_back(Pending{std::move(key), std::move(compute)});
  return pending_.size() - 1;
}

std::vector<PointResult> SweepRunner::run_all() {
  const std::size_t n = pending_.size();
  stats_.points += n;
  std::vector<PointResult> results(n);

  // Resolve cache hits and dedupe identical keys within the batch: the
  // first occurrence computes, later ones copy (equal key => equal result
  // by the content-address contract).
  std::vector<std::size_t> misses;          // first-occurrence miss indices
  std::vector<std::size_t> alias(n, SIZE_MAX);  // i -> earlier twin index
  std::unordered_map<std::string_view, std::size_t> first_seen;
  for (std::size_t i = 0; i < n; ++i) {
    const PointKey& key = pending_[i].key;
    if (cache_) {
      if (const PointResult* hit = cache_->lookup(key)) {
        // A cached failure row is a hit only when resuming; otherwise the
        // point is retried (the failure may have been transient) and the
        // fresh result supersedes the row in the cache file.
        if (hit->ok() || opts_.resume) {
          results[i] = *hit;
          results[i].key_text = key.text;
          stats_.cached += 1;
          if (!hit->ok()) stats_.resumed += 1;
          continue;
        }
      }
    }
    const auto [it, inserted] = first_seen.emplace(key.text, i);
    if (!inserted) {
      alias[i] = it->second;
      continue;
    }
    misses.push_back(i);
  }

  if (!misses.empty()) {
    // Lower the process thread budget to this runner's per-job share so
    // the phase worker pools inside concurrently-running points share the
    // host instead of each assuming they own it.
    BudgetGuard budget(phase_workers_per_job_);
    const support::WatchdogPolicy guard_policy{
        opts_.point_timeout_s,
        opts_.point_rss_mb > 0 ? opts_.point_rss_mb << 20 : 0};

    // Completed points drain to the cache in submission order: a worker
    // finishing point t appends every finished point up to the first
    // still-running one. File byte order is therefore the miss-list order
    // for any --jobs N, and a killed sweep keeps its finished prefix.
    std::mutex drain_m;
    std::vector<char> drained_ready(misses.size(), 0);
    std::size_t drain_cursor = 0;
    const auto drain = [&](std::size_t t) {
      if (!cache_) return;
      const std::lock_guard lk(drain_m);
      drained_ready[t] = 1;
      while (drain_cursor < misses.size() && drained_ready[drain_cursor]) {
        const std::size_t i = misses[drain_cursor];
        cache_->store_one(pending_[i].key, results[i]);
        ++drain_cursor;
      }
    };

    const auto t0 = std::chrono::steady_clock::now();
    const auto compute_one = [&](std::size_t t) {
      const std::size_t i = misses[t];
      const auto p0 = std::chrono::steady_clock::now();
      const auto elapsed = [&p0] {
        return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                             p0)
            .count();
      };
      try {
        const support::WatchdogScope arm(guard_policy);
        results[i] = pending_[i].compute();
      } catch (const support::SimError& e) {
        // Watchdog breaches are always recorded as failure rows — they are
        // the guard doing its job. Other simulation errors propagate
        // unless the caller opted into tolerate_failures.
        if (e.kind() == support::SimError::Kind::Generic &&
            !opts_.tolerate_failures) {
          throw;
        }
        results[i] = PointResult{};
        results[i].status = e.kind() == support::SimError::Kind::Timeout
                                ? "timeout"
                                : e.kind() == support::SimError::Kind::MemoryBudget
                                      ? "memory"
                                      : "error";
        results[i].fail_reason = e.what();
        results[i].fail_elapsed_s = elapsed();
      } catch (const std::exception& e) {
        if (!opts_.tolerate_failures) throw;
        results[i] = PointResult{};
        results[i].status = "error";
        results[i].fail_reason = e.what();
        results[i].fail_elapsed_s = elapsed();
      }
      results[i].key_text = pending_[i].key.text;
      drain(t);
    };
    if (jobs_ > 1 && misses.size() > 1) {
      if (!pool_) {
        pool_ = std::make_unique<support::WorkerPool>(jobs_);
      }
      pool_->parallel_for(misses.size(), compute_one);
    } else {
      for (std::size_t t = 0; t < misses.size(); ++t) compute_one(t);
    }
    const auto t1 = std::chrono::steady_clock::now();
    stats_.compute_seconds += std::chrono::duration<double>(t1 - t0).count();
    stats_.computed += misses.size();
    for (const std::size_t i : misses) {
      if (!results[i].ok()) stats_.failed += 1;
    }
  }

  for (std::size_t i = 0; i < n; ++i) {
    if (alias[i] != SIZE_MAX) results[i] = results[alias[i]];
  }

  pending_.clear();
  return results;
}

}  // namespace qsm::harness
