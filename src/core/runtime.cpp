#include "core/runtime.hpp"

#include <algorithm>
#include <atomic>
#include <bit>
#include <mutex>
#include <utility>

namespace qsm::rt {

static_assert(std::endian::native == std::endian::little,
              "word packing in the QSM runtime assumes a little-endian host");

// ---- phase barrier --------------------------------------------------------

/// Two-level cyclic barrier whose last arriver runs the phase-processing
/// completion function.
///
/// Level one is each carrier's tally of its own lanes
/// (Executor::lane_arrive): a lane that is not its carrier's last live lane
/// to arrive parks at once and touches no shared state. Level two is this
/// struct: the carrier's last lane takes `m` once and records one carrier
/// arrival, and the last carrier runs the completion, bumps `generation`
/// and wakes every carrier. In a fault-free run `m` is taken once per
/// carrier per phase, plus once per lane at retire.
///
/// Every lane blocks in Executor::lane_park until `generation` moves or
/// `failed` is set; both change only before a lane_notify_all(), which is
/// what the park needs to never lose a wakeup.
///
/// Exceptions thrown by the completion (e.g. bulk-synchrony rule
/// violations) or by a lane are captured and rethrown on *every* lane, so
/// program lanes unwind instead of deadlocking. A program whose lanes make
/// different numbers of sync() calls has a lane retire (finish its
/// program) while another is at, or will reach, a sync it never reaches.
/// Whichever of the two comes second detects it: a carrier arrival fails
/// if any lane has retired this run, and a retire fails if lanes of its own
/// carrier have arrived or any carrier has.
struct Runtime::Barrier {
  explicit Barrier(Executor& e) : exec(e) {}

  Executor& exec;
  std::mutex m;
  int carriers_arrived{0};   ///< under m
  bool retired{false};       ///< under m: a lane finished its program
  std::exception_ptr error;  ///< under m; set before `failed`
  std::atomic<std::uint64_t> generation{0};
  std::atomic<bool> failed{false};
  std::function<void()> completion;

  /// Clears every per-run field however the last run ended: run() returns
  /// only after every lane has finished, so no lane is parked here.
  void reset(std::function<void()> fn) {
    std::lock_guard lk(m);
    carriers_arrived = 0;
    retired = false;
    error = nullptr;
    failed.store(false, std::memory_order_relaxed);
    completion = std::move(fn);
  }

  [[nodiscard]] static std::exception_ptr mismatch_error() {
    return std::make_exception_ptr(support::ContractViolation(
        "program threads executed different numbers of sync() calls",
        std::source_location::current()));
  }

  /// Keeps the run's first error and wakes every lane with it. Caller
  /// holds m.
  void fail(std::exception_ptr e) {
    if (!error) error = std::move(e);
    failed.store(true, std::memory_order_release);
    exec.lane_notify_all();
  }

  [[noreturn]] void rethrow() {
    std::exception_ptr e;
    {
      std::lock_guard lk(m);
      e = error;
    }
    std::rethrow_exception(e);
  }

  void arrive_and_wait() {
    const std::uint64_t gen = generation.load(std::memory_order_acquire);
    if (exec.lane_arrive()) arrive_carrier();
    exec.lane_park([this, gen] {
      return generation.load(std::memory_order_acquire) != gen ||
             failed.load(std::memory_order_acquire);
    });
    if (failed.load(std::memory_order_acquire)) rethrow();
  }

  /// The calling lane is its carrier's last live lane to arrive: counts
  /// the carrier in, and completes the phase if it is the last carrier.
  void arrive_carrier() {
    std::lock_guard lk(m);
    if (error) return;  // no completion after a failure; the park sees it
    if (retired) {
      // Some lane already finished its program but this carrier's lanes
      // want another phase: the program is not bulk-synchronous.
      fail(mismatch_error());
      return;
    }
    if (++carriers_arrived < exec.carriers()) return;
    carriers_arrived = 0;
    try {
      completion();
    } catch (...) {
      fail(std::current_exception());
      return;
    }
    generation.fetch_add(1, std::memory_order_release);
    exec.lane_notify_all();
  }

  /// A lane finished its program normally and leaves the barrier.
  void retire() {
    const bool left_behind = exec.carrier_lanes_arrived() > 0;
    std::lock_guard lk(m);
    retired = true;
    // Other lanes are blocked at a sync this lane never reached.
    if (left_behind || carriers_arrived > 0) fail(mismatch_error());
  }

  /// A lane died with an exception; wake everyone with it.
  void abort_with(std::exception_ptr e) {
    std::lock_guard lk(m);
    fail(std::move(e));
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
  return rt_->nodes_[static_cast<std::size_t>(rank_)].rng;
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
    nd.rng = support::Xoshiro256(opts_.seed, (run_counter_ << 20) | i);
    nd.gets.clear();
    nd.puts.clear();
    nd.put_buf.clear();
    nd.enq_words = 0;
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
  barrier_->reset([this] {
    // The completion runs on whichever lane arrives last, serialized by
    // the barrier — a budget breach here unwinds every program lane.
    watchdog_.poll("phase");
    result_.add_phase(pipeline_.run_phase(nodes_, result_.phases));
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
    result_.total_cycles = std::max(result_.total_cycles, nd.now);
    result_.compute_cycles = std::max(result_.compute_cycles, nd.compute);
  }
  return std::move(result_);
}

}  // namespace qsm::rt
