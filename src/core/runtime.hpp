// The QSM runtime library.
//
// This is the paper's bulk-synchronous shared-memory library: programs are
// written as per-processor C++ against a Context whose get()/put() calls
// "merely enqueue requests on the local node"; data moves only at sync(),
// when the runtime builds a communication plan, exchanges it, moves put data
// and get requests/replies through the simulated network, and closes the
// phase with a tree barrier.
//
// Data is computed for real (tests verify sorted outputs and list ranks);
// *time* is simulated: local work is charged through the machine's CPU cost
// model and communication is priced by the event-driven network model, so a
// run yields both correct results and a cycle-accurate-style timing trace.
//
// Bulk-synchronous contract (paper section 2): values returned by gets
// issued in a phase are not usable until after the sync, and the same
// location must not be both read and written in one phase (checked when
// Options::check_rules is set). Concurrent writes to one location queue;
// we resolve the final value deterministically by (rank, enqueue order),
// with the last writer winning.
//
// The Runtime itself is a thin orchestrator over three layers (see
// DESIGN.md "Runtime architecture"):
//   SharedStore   (core/store) — array storage, layouts, ownership queries;
//   PhasePipeline (core/phase) — classify / move / price inside the barrier;
//   Executor      (core/exec)  — fiber program lanes on persistent carrier
//                                threads, plus phase workers, reused
//                                across run()s.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <functional>
#include <memory>
#include <string>
#include <type_traits>
#include <vector>

#include "core/exec.hpp"
#include "core/layout.hpp"
#include "core/phase.hpp"
#include "core/store.hpp"
#include "core/trace.hpp"
#include "machine/config.hpp"
#include "msg/comm.hpp"
#include "support/contract.hpp"
#include "support/rng.hpp"
#include "support/watchdog.hpp"

namespace qsm::rt {

/// Shared-memory element types: trivially copyable, at most one 8-byte word
/// (the library is word-grained, like the paper's).
template <typename T>
concept Word = std::is_trivially_copyable_v<T> && sizeof(T) <= 8;

/// Typed handle to a shared array. Cheap to copy; valid until the array is
/// freed (the store recycles slots, so handles carry the slot generation
/// and stale use faults loudly).
template <Word T>
struct GlobalArray {
  std::uint32_t id{UINT32_MAX};
  std::uint64_t n{0};
  std::uint32_t gen{0};

  [[nodiscard]] bool valid() const { return id != UINT32_MAX; }
};

/// Runtime options. `seed`, `check_rules` and `track_kappa` define the run;
/// `host_workers` only chooses how the host executes it, and no value of it
/// changes a simulated number.
struct Options {
  /// Seed for all per-node RNG streams and hashed layouts.
  std::uint64_t seed{1};
  /// Detect same-phase read+write of a location (throws ContractViolation
  /// from sync()). Checked by sorted sweeps over the request spans, so
  /// enabling it no longer changes a phase's algorithmic complexity.
  bool check_rules{false};
  /// Track kappa (max accesses to any one location per phase).
  bool track_kappa{false};
  /// Host worker threads for the phase pipeline: 0 picks a default from
  /// the host's core count, 1 forces serial phase processing. Purely a
  /// host-throughput knob — simulated timing is identical for any value.
  int host_workers{0};
};

class Runtime;

/// Per-processor view of the machine, passed to the program function.
class Context {
 public:
  [[nodiscard]] int rank() const { return rank_; }
  [[nodiscard]] int nprocs() const;
  /// This node's simulated clock.
  [[nodiscard]] cycles_t now() const;

  /// Charges local compute: n simple operations.
  void charge_ops(std::int64_t n);
  /// Charges n data accesses over a working set of the given byte size
  /// (prices through the Table 2 cache hierarchy).
  void charge_mem(std::int64_t n, std::int64_t working_set_bytes);
  /// Charges raw cycles.
  void charge_cycles(cycles_t c);

  /// Deterministic per-node random stream.
  [[nodiscard]] support::Xoshiro256& rng();

  /// Direct access to an element this node owns (no network, no queueing).
  /// Owner mismatch is a contract violation — remote data must use get/put.
  template <Word T>
  [[nodiscard]] T read_local(GlobalArray<T> a, std::uint64_t idx);
  template <Word T>
  void write_local(GlobalArray<T> a, std::uint64_t idx, T value);

  /// Enqueues a read of a[idx] into *dest; *dest is filled during the next
  /// sync(). dest must stay valid until then.
  template <Word T>
  void get(GlobalArray<T> a, std::uint64_t idx, T* dest) {
    get_range(a, idx, 1, dest);
  }
  /// Enqueues a write of value to a[idx], applied at the next sync().
  template <Word T>
  void put(GlobalArray<T> a, std::uint64_t idx, T value) {
    put_range(a, idx, 1, &value);
  }

  /// Range forms: count consecutive elements starting at `start`. The
  /// library is word-grained (each word is one remote operation, m_rw),
  /// but ranges keep host-side bookkeeping compact. Destination buffers
  /// must not be shared between nodes.
  template <Word T>
  void get_range(GlobalArray<T> a, std::uint64_t start, std::uint64_t count,
                 T* dest);
  template <Word T>
  void put_range(GlobalArray<T> a, std::uint64_t start, std::uint64_t count,
                 const T* src);

  /// Ends the phase: exchanges all enqueued traffic and synchronizes.
  void sync();

  Context(const Context&) = delete;
  Context& operator=(const Context&) = delete;

 private:
  friend class Runtime;
  Context(Runtime* rt, int rank) : rt_(rt), rank_(rank) {}

  Runtime* rt_;
  int rank_;
};

/// Owns shared arrays and executes bulk-synchronous programs on the
/// simulated machine.
class Runtime {
 public:
  explicit Runtime(machine::MachineConfig cfg, Options opts = {});
  ~Runtime();

  Runtime(const Runtime&) = delete;
  Runtime& operator=(const Runtime&) = delete;

  [[nodiscard]] const machine::MachineConfig& machine() const {
    return comm_.config();
  }
  [[nodiscard]] const msg::Comm& comm() const { return comm_; }
  [[nodiscard]] const Options& options() const { return opts_; }
  [[nodiscard]] int nprocs() const { return comm_.nprocs(); }

  /// Allocates an n-element shared array (contents zero).
  template <Word T>
  GlobalArray<T> alloc(std::uint64_t n, Layout layout = Layout::Block,
                       std::string name = "");

  /// Releases an array's storage. The handle (and any copy of it) becomes
  /// invalid; further use is a contract violation. Must not be called
  /// while a program is running. Long-lived runtimes that call algorithms
  /// repeatedly use this to drop per-call scratch arrays; the freed slot
  /// id is recycled by the next alloc.
  template <Word T>
  void free(GlobalArray<T> a) {
    store_.release(a.id, a.gen);
  }

  /// Host-side (outside simulated time) bulk initialization and readback.
  template <Word T>
  void host_fill(GlobalArray<T> a, const std::vector<T>& values);
  template <Word T>
  [[nodiscard]] std::vector<T> host_read(GlobalArray<T> a);

  /// Runs `program` once on every simulated processor (p fiber lanes on
  /// persistent carrier threads). The program must be bulk-synchronous:
  /// every node executes the same number of sync() calls. Clocks reset at
  /// the start of each run; array contents persist across runs.
  RunResult run(const std::function<void(Context&)>& program);

  /// Total OS threads the runtime has created so far. Constant across
  /// repeated run() calls: carriers and phase workers are persistent.
  [[nodiscard]] std::uint64_t host_threads_created() const {
    return exec_.host_threads_created();
  }
  /// Host worker threads available to the phase pipeline.
  [[nodiscard]] int host_phase_workers() const {
    return exec_.phase_workers();
  }
  /// Carrier threads multiplexing the p fiber lanes:
  /// clamp(min(p, host thread budget at construction), 1, 16).
  [[nodiscard]] int host_carriers() const { return exec_.carriers(); }

 private:
  friend class Context;
  friend class ScopedArrays;

  void reset_clocks();
  void check_queues_empty() const;

  // --- word packing (little-endian host assumed; checked in runtime.cpp).
  template <Word T>
  static std::uint64_t to_word(T v) {
    std::uint64_t w = 0;
    std::memcpy(&w, &v, sizeof(T));
    return w;
  }
  template <Word T>
  static T from_word(std::uint64_t w) {
    T v;
    std::memcpy(&v, &w, sizeof(T));
    return v;
  }

  msg::Comm comm_;
  Options opts_;
  SharedStore store_;
  Executor exec_;
  PhasePipeline pipeline_;
  std::vector<NodeState> nodes_;
  RunResult result_;  ///< being assembled by the current run()
  std::uint64_t run_counter_{0};
  /// Captured from the constructing thread's pending policy (the sweep
  /// harness arms one around each point closure; see support/watchdog.hpp).
  /// Polled at every phase boundary and at run() entry; breaches throw
  /// SimError through the barrier's error plumbing.
  support::Watchdog watchdog_;

  struct Barrier;  // internal phase barrier with completion + error plumbing
  std::unique_ptr<Barrier> barrier_;
};

/// Shared arrays that live for one scope: every array allocated through a
/// ScopedArrays is freed when it goes out of scope, on return and on throw.
/// Algorithms keep their per-call scratch in one, so a Runtime reused
/// across calls does not grow per call. Arrays are freed in reverse
/// allocation order, so each call recycles the same slot ids. Must not be
/// destroyed while a program is running (run() returns or throws only
/// after every lane has finished).
class ScopedArrays {
 public:
  explicit ScopedArrays(Runtime& runtime) : runtime_(runtime) {}
  ~ScopedArrays() {
    for (auto it = owned_.rbegin(); it != owned_.rend(); ++it) {
      runtime_.store_.release(it->id, it->generation);
    }
  }

  ScopedArrays(const ScopedArrays&) = delete;
  ScopedArrays& operator=(const ScopedArrays&) = delete;

  template <Word T>
  GlobalArray<T> alloc(std::uint64_t n, Layout layout = Layout::Block,
                       std::string name = "") {
    const GlobalArray<T> a = runtime_.alloc<T>(n, layout, std::move(name));
    owned_.push_back(SharedStore::Handle{a.id, a.gen});
    return a;
  }

 private:
  Runtime& runtime_;
  std::vector<SharedStore::Handle> owned_;
};

// ---- Context templates --------------------------------------------------

template <Word T>
T Context::read_local(GlobalArray<T> a, std::uint64_t idx) {
  auto& s = rt_->store_.slot(a.id, a.gen);
  QSM_REQUIRE(idx < s.n, "read_local out of bounds");
  QSM_REQUIRE(rt_->store_.owner(s, idx) == rank_,
              "read_local on an element this node does not own");
  return Runtime::from_word<T>(s.data[idx]);
}

template <Word T>
void Context::write_local(GlobalArray<T> a, std::uint64_t idx, T value) {
  auto& s = rt_->store_.slot(a.id, a.gen);
  QSM_REQUIRE(idx < s.n, "write_local out of bounds");
  QSM_REQUIRE(rt_->store_.owner(s, idx) == rank_,
              "write_local on an element this node does not own");
  s.data[idx] = Runtime::to_word(value);
}

template <Word T>
void Context::get_range(GlobalArray<T> a, std::uint64_t start,
                        std::uint64_t count, T* dest) {
  if (count == 0) return;
  auto& s = rt_->store_.slot(a.id, a.gen);
  QSM_REQUIRE(start < s.n && count <= s.n - start, "get_range out of bounds");
  auto& node = rt_->nodes_[static_cast<std::size_t>(rank_)];
  // Run merging: programs that walk an array element by element (get(i),
  // get(i+1), ...) would otherwise build one request entry per word. When
  // the new request extends the tail entry — same array, contiguous
  // locations, contiguous destination — grow it in place instead. Every
  // simulated quantity (m_rw, kappa, messages, the trace hash) is derived
  // from word counts and location spans, never from entry counts, so this
  // is purely a host-memory/-time optimization.
  auto* dst = reinterpret_cast<std::byte*>(dest);
  if (!node.gets.empty()) {
    GetReq& tail = node.gets.back();
    if (tail.array == a.id && tail.elem_size == sizeof(T) &&
        tail.start + tail.count == start &&
        tail.dest + tail.count * sizeof(T) == dst) {
      tail.count += count;
      dst = nullptr;  // merged
    }
  }
  if (dst != nullptr) {
    node.gets.push_back(GetReq{a.id, static_cast<std::uint32_t>(sizeof(T)),
                               start, count, dst});
  }
  node.enq_words += count;
  // Enqueueing is local CPU work done during the phase ("get() and put()
  // calls merely enqueue requests on the local node").
  charge_cycles(static_cast<cycles_t>(count) *
                rt_->machine().sw.per_request_cpu);
}

template <Word T>
void Context::put_range(GlobalArray<T> a, std::uint64_t start,
                        std::uint64_t count, const T* src) {
  if (count == 0) return;
  auto& s = rt_->store_.slot(a.id, a.gen);
  QSM_REQUIRE(start < s.n && count <= s.n - start, "put_range out of bounds");
  auto& node = rt_->nodes_[static_cast<std::size_t>(rank_)];
  const std::size_t off = node.put_buf.size();
  if constexpr (sizeof(T) == sizeof(std::uint64_t)) {
    // Full words pack by straight copy.
    node.put_buf.resize(off + count);
    std::memcpy(node.put_buf.data() + off, src,
                count * sizeof(std::uint64_t));
  } else {
    node.put_buf.reserve(off + count);
    for (std::uint64_t k = 0; k < count; ++k) {
      node.put_buf.push_back(Runtime::to_word(src[k]));
    }
  }
  // Run merging, mirroring get_range: the tail entry grows when the new
  // request extends it. The packed words always land at the end of
  // put_buf, so buffer contiguity (tail.buf_offset + tail.count == off)
  // holds exactly when the tail was the previous enqueue. Merging never
  // spans distinct locations' write order, so last-writer-wins replay is
  // untouched.
  bool merged = false;
  if (!node.puts.empty()) {
    PutReq& tail = node.puts.back();
    if (tail.array == a.id && tail.start + tail.count == start &&
        tail.buf_offset + tail.count == off) {
      tail.count += count;
      merged = true;
    }
  }
  if (!merged) {
    node.puts.push_back(PutReq{a.id, start, count, off});
  }
  node.enq_words += count;
  charge_cycles(static_cast<cycles_t>(count) *
                rt_->machine().sw.per_request_cpu);
}

// ---- Runtime templates ---------------------------------------------------

template <Word T>
GlobalArray<T> Runtime::alloc(std::uint64_t n, Layout layout,
                              std::string name) {
  const auto h = store_.allocate(n, layout, std::move(name));
  return GlobalArray<T>{h.id, n, h.generation};
}

template <Word T>
void Runtime::host_fill(GlobalArray<T> a, const std::vector<T>& values) {
  auto& s = store_.slot(a.id, a.gen);
  QSM_REQUIRE(values.size() == s.n, "host_fill size mismatch");
  for (std::uint64_t i = 0; i < s.n; ++i) {
    s.data[i] = to_word(values[i]);
  }
}

template <Word T>
std::vector<T> Runtime::host_read(GlobalArray<T> a) {
  auto& s = store_.slot(a.id, a.gen);
  std::vector<T> out(s.n);
  for (std::uint64_t i = 0; i < s.n; ++i) {
    out[i] = from_word<T>(s.data[i]);
  }
  return out;
}

}  // namespace qsm::rt
