#include "core/runtime.hpp"

#include <algorithm>
#include <bit>
#include <mutex>
#include <utility>

namespace qsm::rt {

static_assert(std::endian::native == std::endian::little,
              "word packing in the QSM runtime assumes a little-endian host");

// ---- phase barrier --------------------------------------------------------

/// Cyclic barrier whose last arriver runs the phase-processing completion
/// function. Exceptions thrown by the completion (e.g. bulk-synchrony rule
/// violations) are captured and rethrown on *every* participating lane so
/// program lanes unwind instead of deadlocking; a lane that dies outside
/// the barrier calls abort_with() to wake the others.
///
/// Waiting goes through Executor::lane_wait/lane_notify_all rather than a
/// condition variable of its own: the blocked lane parks in user space and
/// its carrier keeps running sibling lanes. Every pred-changing transition
/// below notifies under `m`, which is what the fiber parking protocol
/// needs to never lose a wakeup.
struct Runtime::Barrier {
  explicit Barrier(Executor& e) : exec(e) {}

  Executor& exec;
  std::mutex m;
  int initial{0};       ///< participants at reset()
  int participants{0};  ///< still-running program lanes
  int waiting{0};
  std::uint64_t generation{0};
  std::function<void()> completion;
  std::exception_ptr error;

  void reset(int n, std::function<void()> fn) {
    std::lock_guard lk(m);
    QSM_REQUIRE(waiting == 0, "cannot reset a barrier with waiters");
    initial = n;
    participants = n;
    waiting = 0;
    generation = 0;
    completion = std::move(fn);
    error = nullptr;
  }

  [[nodiscard]] std::exception_ptr mismatch_error() const {
    return std::make_exception_ptr(support::ContractViolation(
        "program threads executed different numbers of sync() calls",
        std::source_location::current()));
  }

  void arrive_and_wait() {
    std::unique_lock lk(m);
    if (error) std::rethrow_exception(error);
    if (participants != initial) {
      // Some lane already finished its program but this one wants
      // another phase: the program is not bulk-synchronous.
      error = mismatch_error();
      exec.lane_notify_all();
      std::rethrow_exception(error);
    }
    const std::uint64_t gen = generation;
    ++waiting;
    if (waiting == participants) {
      try {
        completion();
      } catch (...) {
        error = std::current_exception();
      }
      waiting = 0;
      ++generation;
      exec.lane_notify_all();
      if (error) std::rethrow_exception(error);
    } else {
      exec.lane_wait(lk,
                     [&] { return generation != gen || error != nullptr; });
      if (error) std::rethrow_exception(error);
    }
  }

  /// A lane finished its program normally and leaves the barrier.
  void retire() {
    std::lock_guard lk(m);
    --participants;
    if (waiting > 0 && !error) {
      // Other lanes are blocked at a sync this lane never reached.
      error = mismatch_error();
      exec.lane_notify_all();
    }
  }

  /// A lane died with an exception; wake everyone with it.
  void abort_with(std::exception_ptr e) {
    std::lock_guard lk(m);
    if (!error) error = std::move(e);
    --participants;
    exec.lane_notify_all();
  }

  std::exception_ptr take_error() {
    std::lock_guard lk(m);
    return std::exchange(error, nullptr);
  }
};

// ---- Context thin methods --------------------------------------------------

int Context::nprocs() const { return rt_->nprocs(); }

support::cycles_t Context::now() const {
  return rt_->nodes_[static_cast<std::size_t>(rank_)].now;
}

void Context::charge_ops(std::int64_t n) {
  auto& nd = rt_->nodes_[static_cast<std::size_t>(rank_)];
  const cycles_t c = rt_->machine().cpu.op_cost(n);
  nd.now += c;
  nd.compute += c;
}

void Context::charge_mem(std::int64_t n, std::int64_t working_set_bytes) {
  auto& nd = rt_->nodes_[static_cast<std::size_t>(rank_)];
  const cycles_t c = rt_->machine().cpu.access_cost(n, working_set_bytes);
  nd.now += c;
  nd.compute += c;
}

void Context::charge_cycles(cycles_t c) {
  QSM_REQUIRE(c >= 0, "cannot charge negative cycles");
  auto& nd = rt_->nodes_[static_cast<std::size_t>(rank_)];
  nd.now += c;
  nd.compute += c;
}

support::Xoshiro256& Context::rng() {
  return *rt_->nodes_[static_cast<std::size_t>(rank_)].rng;
}

void Context::sync() { rt_->barrier_->arrive_and_wait(); }

// ---- Runtime: thin orchestration over Store / Pipeline / Executor ---------

Runtime::Runtime(machine::MachineConfig cfg, Options opts)
    : comm_(std::move(cfg)),
      opts_(opts),
      store_(opts.seed, comm_.nprocs()),
      exec_(comm_.nprocs(), opts.host_workers),
      pipeline_(store_, comm_, exec_, opts.check_rules, opts.track_kappa),
      nodes_(static_cast<std::size_t>(comm_.nprocs())),
      watchdog_(support::pending_watchdog()),
      barrier_(std::make_unique<Barrier>(exec_)) {
  reset_clocks();
}

Runtime::~Runtime() = default;

void Runtime::reset_clocks() {
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    auto& nd = nodes_[i];
    nd.now = 0;
    nd.compute = 0;
    nd.compute_at_phase_start = 0;
    nd.rng = std::make_unique<support::Xoshiro256>(
        opts_.seed, (run_counter_ << 20) | i);
    nd.gets.clear();
    nd.puts.clear();
    nd.put_buf.clear();
    nd.enq_words = 0;
    nd.phase_count = 0;
  }
}

void Runtime::check_queues_empty() const {
  for (const auto& nd : nodes_) {
    QSM_REQUIRE(nd.gets.empty() && nd.puts.empty(),
                "program ended with get/put requests never synchronized");
  }
}

RunResult Runtime::run(const std::function<void(Context&)>& program) {
  QSM_REQUIRE(program != nullptr, "null program");
  run_counter_++;
  watchdog_.poll("run()");
  reset_clocks();
  result_ = RunResult{};
  barrier_->reset(nprocs(), [this] {
    // The completion runs on whichever lane arrives last, serialized by
    // the barrier — a budget breach here unwinds every program lane.
    watchdog_.poll("phase");
    result_.add_phase(pipeline_.run_phase(nodes_));
  });

  exec_.run_program([this, &program](int rank) {
    Context ctx(this, rank);
    try {
      program(ctx);
      barrier_->retire();
    } catch (...) {
      barrier_->abort_with(std::current_exception());
    }
  });

  if (auto e = barrier_->take_error()) std::rethrow_exception(e);
  check_queues_empty();
  for (const auto& nd : nodes_) {
    QSM_REQUIRE(nd.phase_count == nodes_.front().phase_count,
                "nodes disagree on phase count");
  }

  for (const auto& nd : nodes_) {
    result_.total_cycles = std::max(result_.total_cycles, nd.now);
    result_.compute_cycles = std::max(result_.compute_cycles, nd.compute);
  }
  return std::move(result_);
}

}  // namespace qsm::rt
