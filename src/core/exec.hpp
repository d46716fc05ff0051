// Host-side execution layer of the runtime.
//
// The Executor owns every OS thread the runtime uses and reuses them across
// run() calls. Simulated processors execute on "program lanes": p stackful
// fibers (support/fiber) multiplexed onto a small set of carrier threads.
// A lane blocked at the phase barrier parks with a user-space context
// switch; the kernel is only involved when a whole carrier runs out of
// runnable lanes. This is what makes p >> host cores simulations run at
// full speed, and it bounds host_threads_created() by the carrier count
// instead of p.
//
// The executor also holds the first level of the phase barrier: each
// carrier tallies its own lanes (live, and arrived this phase). Only the
// carrier's thread runs those lanes, so the tally needs no lock, and only
// the carrier's last lane to arrive goes on to the shared barrier
// (Runtime::Barrier). Every lane blocks through one primitive, lane_park().
//
// The carrier count is a host-throughput knob like the phase-worker count:
// the determinism guarantee (DESIGN.md §4) means no carrier count may
// change a single simulated number — the GoldenDeterminism and lane-parity
// suites pin exactly that.
//
// The executor also owns an optional pool of phase workers that the
// PhasePipeline uses to parallelize classification and data movement inside
// the barrier. Phase workers are sized independently of p (simulated
// processors are a model parameter; host workers are a hardware resource).
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>

#include "support/worker_pool.hpp"

namespace qsm::rt {

/// Process-wide host thread budget for throughput-only parallelism.
///
/// Two layers want host threads: each Runtime's phase worker pool, and the
/// experiment scheduler (src/harness) that runs many Runtimes concurrently.
/// Without coordination, J concurrent simulations each defaulting to 8
/// phase workers oversubscribe the host J times over. The contract: the
/// scheduler divides the budget among its jobs and lowers the process
/// budget to the per-job share while its workers run; every Executor built
/// with `phase_workers <= 0` sizes its pool from the budget *at
/// construction time* (min(nprocs, budget, 8)). Fiber carriers follow the
/// same rule (min(nprocs, budget, 16)). No budget value may change a
/// simulated number; this is purely a host-throughput knob.
///
/// Returns the hardware concurrency (>= 1) until set_host_thread_budget()
/// installs an explicit value.
[[nodiscard]] int host_thread_budget();

/// Installs an explicit budget; `threads <= 0` resets to the hardware
/// default.
void set_host_thread_budget(int threads);

class Executor {
 public:
  /// `nprocs` program lanes on clamp(min(nprocs, host thread budget), 1,
  /// 16) carriers; `phase_workers` <= 0 picks a host-sized default
  /// (min(nprocs, budget, 8)), 1 disables phase parallelism.
  Executor(int nprocs, int phase_workers);
  ~Executor();

  Executor(const Executor&) = delete;
  Executor& operator=(const Executor&) = delete;

  /// Runs fn(rank) for every rank on the program lanes; blocks until all
  /// lanes finish. Lanes block on each other at the phase barrier through
  /// lane_arrive() and lane_park(), which park them on their carrier.
  void run_program(const std::function<void(int)>& fn);

  /// Counts the calling lane as arrived at the current phase in its
  /// carrier's tally. Returns true when it is the carrier's last live lane
  /// to arrive: the caller then arrives once for the whole carrier at the
  /// shared barrier, and the tally restarts at zero for the next phase.
  [[nodiscard]] bool lane_arrive();

  /// Lanes of the calling lane's carrier that have arrived at the current
  /// phase while the carrier itself has not.
  [[nodiscard]] std::size_t carrier_lanes_arrived() const;

  /// Parks the calling lane until ready() holds: the one way a lane
  /// blocks. Whatever can make ready() true must be followed by
  /// lane_notify_all(). The lane snapshots the scheduler generation before
  /// each evaluation of ready(), so a change that lands between the check
  /// and the park still wakes it. The lane parks in user space and its
  /// carrier runs sibling lanes instead.
  void lane_park(const std::function<bool()>& ready);

  /// Wakes every parked lane to evaluate its ready() again.
  void lane_notify_all();

  /// Runs fn(t) for t in [0, tasks). Executes inline on the calling thread
  /// unless `spread` is true and phase workers exist; either way the work
  /// is identical, so results never depend on the worker count.
  void parallel(std::size_t tasks, bool spread,
                const std::function<void(std::size_t)>& fn);

  [[nodiscard]] int nprocs() const { return nprocs_; }
  [[nodiscard]] int phase_workers() const { return phase_workers_; }
  [[nodiscard]] bool parallel_enabled() const { return phase_workers_ > 1; }

  /// Worker slot that parallel() statically assigns task t to (the pool
  /// hands out tasks by striding: task t runs on worker t % phase_workers,
  /// and tasks sharing a worker run sequentially). Lets callers keep
  /// per-slot scratch — the sparse classifier's owner counters — without
  /// locks: two tasks with the same shard never run concurrently, whether
  /// the call spreads over the pool or executes inline on one thread.
  [[nodiscard]] int worker_shard(std::size_t task) const {
    const int w = phase_workers_ > 0 ? phase_workers_ : 1;
    return static_cast<int>(task % static_cast<std::size_t>(w));
  }

  /// Carrier threads multiplexing the program lanes.
  [[nodiscard]] int carriers() const { return carriers_; }

  /// Total OS threads this executor has ever created: the carriers plus
  /// the phase workers, never p. Stable across repeated run_program()
  /// calls once the pools exist — the executor reuse tests assert exactly
  /// that.
  [[nodiscard]] std::uint64_t host_threads_created() const;

 private:
  struct LaneSched;  // fiber parking/wakeup state, defined in exec.cpp

  void run_carrier(int carrier, const std::function<void(int)>& fn);

  int nprocs_;
  int phase_workers_;
  int carriers_;
  /// Lazily built so host-only Runtime use (alloc/host_fill/host_read)
  /// never spawns a thread.
  std::unique_ptr<support::WorkerPool> carrier_pool_;
  std::unique_ptr<support::WorkerPool> phase_pool_;
  std::unique_ptr<LaneSched> sched_;
};

}  // namespace qsm::rt
