#include "core/exec.hpp"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <thread>
#include <vector>

#include "support/contract.hpp"
#include "support/fiber.hpp"

namespace qsm::rt {

namespace {

/// 0 = no explicit budget installed; fall back to hardware concurrency.
std::atomic<int> g_thread_budget{0};

int hardware_threads() {
  const auto hw = static_cast<int>(std::thread::hardware_concurrency());
  // hardware_concurrency() may return 0 ("unknown"); treat as 1.
  return hw == 0 ? 1 : hw;
}

int default_phase_workers(int nprocs) {
  // Cap at 8: phase stages are memory-bound and stop scaling well before
  // that. The budget term is what keeps concurrent sweep jobs from
  // oversubscribing the host (see host_thread_budget()).
  return std::clamp(std::min(nprocs, host_thread_budget()), 1, 8);
}

/// Per-lane parking slot. Lives in the carrier's lane table; exposed to
/// the lane itself (lane_park runs on the fiber, which shares the carrier's
/// OS thread) through tl_park.
struct LanePark {
  bool parked{false};
  std::uint64_t park_gen{0};
};

/// A carrier's tally of its own lanes: the phase barrier's first level.
/// Lives in run_carrier; exposed to the carrier's lanes through tl_tally.
/// Only the carrier's thread runs those lanes, so it needs no lock.
struct CarrierTally {
  std::size_t live{0};     ///< lanes whose fiber has not finished
  std::size_t arrived{0};  ///< lanes at sync() before the carrier arrived
};

thread_local LanePark* tl_park = nullptr;
thread_local CarrierTally* tl_tally = nullptr;

}  // namespace

int host_thread_budget() {
  const int b = g_thread_budget.load(std::memory_order_relaxed);
  return b > 0 ? b : hardware_threads();
}

void set_host_thread_budget(int threads) {
  g_thread_budget.store(threads > 0 ? threads : 0,
                        std::memory_order_relaxed);
}

/// Fiber parking/wakeup state shared by one executor's carriers and lanes.
///
/// The protocol is the user-space mirror of a condition variable: a lane
/// that must wait snapshots the notify generation *before* it checks its
/// ready() condition (so a change that lands after the check has bumped
/// the generation past the snapshot), parks, and its carrier skips it
/// until the generation moves past the snapshot. lane_notify_all() bumps
/// the generation and wakes any carrier that ran out of runnable lanes and
/// fell asleep in the kernel — the only kernel involvement in steady state
/// is that cross-carrier edge; a single carrier switches phases entirely in
/// user space.
struct Executor::LaneSched {
  std::mutex m;
  std::condition_variable cv;
  std::atomic<std::uint64_t> gen{0};

  void notify_all() {
    {
      // The lock pairs with sleeping carriers' cv predicate re-check so a
      // bump between their scan and their wait is never lost.
      std::lock_guard lk(m);
      gen.fetch_add(1, std::memory_order_release);
    }
    cv.notify_all();
  }

  void wait_past(std::uint64_t stale) {
    std::unique_lock lk(m);
    cv.wait(lk, [&] {
      return gen.load(std::memory_order_acquire) != stale;
    });
  }
};

Executor::Executor(int nprocs, int phase_workers)
    : nprocs_(nprocs),
      phase_workers_(phase_workers > 0 ? phase_workers
                                       : default_phase_workers(nprocs)),
      // Carriers are compute resources like phase workers: sized from the
      // host budget, never from p.
      carriers_(std::clamp(std::min(nprocs, host_thread_budget()), 1, 16)),
      sched_(std::make_unique<LaneSched>()) {
  QSM_REQUIRE(nprocs_ >= 1, "executor needs at least one program lane");
}

Executor::~Executor() = default;

void Executor::run_program(const std::function<void(int)>& fn) {
  if (!carrier_pool_) {
    carrier_pool_ = std::make_unique<support::WorkerPool>(carriers_);
  }
  carrier_pool_->parallel_for(static_cast<std::size_t>(carriers_),
                              [this, &fn](std::size_t c) {
                                run_carrier(static_cast<int>(c), fn);
                              });
}

void Executor::run_carrier(int carrier, const std::function<void(int)>& fn) {
  // This carrier owns ranks {carrier, carrier + C, ...}: static striding,
  // so lane-to-host placement is deterministic.
  struct Lane {
    std::unique_ptr<support::Fiber> fiber;
    LanePark park;
  };
  std::vector<Lane> lanes;
  lanes.reserve(static_cast<std::size_t>(
      (nprocs_ - carrier + carriers_ - 1) / carriers_));
  for (int rank = carrier; rank < nprocs_; rank += carriers_) {
    lanes.emplace_back();
    lanes.back().fiber = std::make_unique<support::Fiber>(
        [&fn, rank] { fn(rank); });
  }

  CarrierTally tally{.live = lanes.size()};
  tl_tally = &tally;
  while (tally.live > 0) {
    // Snapshot before scanning: a notify that lands mid-scan makes the
    // fall-asleep check below return immediately instead of being lost.
    const std::uint64_t stale = sched_->gen.load(std::memory_order_acquire);
    bool progressed = false;
    for (Lane& lane : lanes) {
      if (lane.fiber->finished()) continue;
      if (lane.park.parked &&
          sched_->gen.load(std::memory_order_acquire) == lane.park.park_gen) {
        continue;  // still waiting on the same generation
      }
      lane.park.parked = false;
      tl_park = &lane.park;
      lane.fiber->resume();
      tl_park = nullptr;
      progressed = true;
      if (lane.fiber->finished()) --tally.live;
    }
    if (tally.live > 0 && !progressed) {
      // Every live lane is parked on the current generation: this carrier
      // has nothing to run until another carrier's lane notifies.
      sched_->wait_past(stale);
    }
  }
  tl_tally = nullptr;
}

bool Executor::lane_arrive() {
  CarrierTally* tally = tl_tally;
  QSM_REQUIRE(tally != nullptr, "sync() outside a program lane");
  if (++tally->arrived < tally->live) return false;
  tally->arrived = 0;
  return true;
}

std::size_t Executor::carrier_lanes_arrived() const {
  QSM_REQUIRE(tl_tally != nullptr, "barrier tally read outside a program lane");
  return tl_tally->arrived;
}

void Executor::lane_park(const std::function<bool()>& ready) {
  LanePark* park = tl_park;
  QSM_REQUIRE(park != nullptr, "lane_park() outside a program lane");
  while (true) {
    // Order matters: snapshot the generation before checking ready().
    // Whatever makes ready() true is followed by a generation bump, so
    // either this read sees the bump (and ready() sees the change) or the
    // bump comes later and the carrier sees gen != park_gen.
    const std::uint64_t gen = sched_->gen.load(std::memory_order_acquire);
    if (ready()) return;
    park->parked = true;
    park->park_gen = gen;
    support::Fiber::yield();
  }
}

void Executor::lane_notify_all() { sched_->notify_all(); }

// Tasks are whatever the caller enumerates — the sparse phase pipeline
// passes its *active* source/owner lists here, so a phase's host work
// shards over the nodes that actually have traffic, not all p. Striding
// (task t on worker t % phase_workers) keeps the worker_shard() contract.
void Executor::parallel(std::size_t tasks, bool spread,
                        const std::function<void(std::size_t)>& fn) {
  if (spread && parallel_enabled() && tasks > 1) {
    if (!phase_pool_) {
      phase_pool_ = std::make_unique<support::WorkerPool>(phase_workers_);
    }
    phase_pool_->parallel_for(tasks, fn);
    return;
  }
  for (std::size_t t = 0; t < tasks; ++t) fn(t);
}

std::uint64_t Executor::host_threads_created() const {
  return (carrier_pool_ ? carrier_pool_->threads_created() : 0) +
         (phase_pool_ ? phase_pool_->threads_created() : 0);
}

}  // namespace qsm::rt
