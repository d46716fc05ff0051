// Message-passing collective layer (the libmvpplus substitute).
//
// The paper's shared-memory library runs on Armadillo's message-passing
// library. Comm is our equivalent: given a machine description it prices
// the collective patterns the QSM runtime needs — personalized all-to-all
// exchanges, allgathers (the communication plan), gathers to a root, and
// barriers — all through the deterministic event-driven network model.
#pragma once

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "machine/config.hpp"
#include "msg/memo.hpp"
#include "net/barrier.hpp"
#include "net/exchange.hpp"

namespace qsm::msg {

using support::cycles_t;

class Comm {
 public:
  explicit Comm(machine::MachineConfig cfg);

  [[nodiscard]] const machine::MachineConfig& config() const { return cfg_; }
  [[nodiscard]] int nprocs() const { return cfg_.p; }

  /// Cost of the end-of-phase tree barrier (closed form).
  [[nodiscard]] cycles_t barrier_cost() const {
    return net::tree_barrier_cost(cfg_.net, cfg_.sw, cfg_.p);
  }

  /// Event-driven barrier with per-node arrival times; returns release time.
  [[nodiscard]] cycles_t barrier(const std::vector<cycles_t>& arrive) const {
    return net::simulate_tree_barrier(cfg_.net, cfg_.sw, arrive);
  }

  /// Personalized all-to-all: node i sends bytes[i][j] payload to node j.
  /// `fault_salt` (see net/fault.hpp) activates message-fault draws for
  /// this exchange; 0 — the default everywhere — is the fault-free path.
  [[nodiscard]] net::ExchangeResult alltoallv(
      const std::vector<cycles_t>& start,
      const std::vector<std::vector<std::int64_t>>& bytes,
      std::uint64_t fault_salt = 0) const {
    return net::simulate_alltoallv(cfg_.net, cfg_.sw, start, bytes,
                                   fault_salt);
  }

  /// Sparse form of the same exchange: `traffic` lists only the active
  /// messages as (src * p + dst, bytes) pairs, ascending in flat index,
  /// with bytes > 0 and src != dst, so it costs O(active pairs), not
  /// O(p^2). Memoized by (relative arrival pattern, traffic list) via the
  /// same time-translation argument as allgather(); iterative algorithms
  /// whose phases repeat a traffic shape price it once. A miss on a
  /// uniform all-pairs pattern (all p(p-1) off-diagonal entries with one
  /// byte count) is priced in closed form, as allgather() prices its
  /// misses; any other miss runs the event simulation.
  [[nodiscard]] net::ExchangeResult alltoallv_sparse(
      const std::vector<cycles_t>& start,
      const std::vector<std::pair<std::int64_t, std::int64_t>>& traffic,
      std::uint64_t fault_salt = 0) const;

  /// Allgather: every node broadcasts `bytes_per_node` payload to all
  /// others (the communication-plan distribution during sync()). Set
  /// `control` for fast-path control traffic such as the plan counts.
  ///
  /// This is the one p*(p-1)-message exchange every phase pays, so it is
  /// memoized: simulate_exchange is exactly time-translation invariant
  /// (every resource grant and event time shifts with the start times, and
  /// busy/message/byte totals do not move at all), so the result for a
  /// given *relative* arrival pattern is priced once in canonical time
  /// (min start == 0) and replayed by adding the base offset back. Phases
  /// with repeating arrival shapes — the common case in bulk-synchronous
  /// programs — skip pricing entirely. A miss, control or data, is priced
  /// by net::simulate_uniform_all_pairs whenever
  /// net::uniform_all_pairs_exact holds, and by the event simulation
  /// otherwise. Bit-identical to the unmemoized event simulation; the
  /// closed-form oracle tests and the golden-determinism suite check it.
  [[nodiscard]] net::ExchangeResult allgather(
      const std::vector<cycles_t>& start, std::int64_t bytes_per_node,
      bool control = false, std::uint64_t fault_salt = 0) const;

  /// Gather: every node sends bytes[i] payload to `root`.
  [[nodiscard]] net::ExchangeResult gather(
      const std::vector<cycles_t>& start, int root,
      const std::vector<std::int64_t>& bytes) const;

  /// One isolated point-to-point message of `bytes` payload.
  [[nodiscard]] cycles_t point_to_point(std::int64_t bytes) const {
    return net::MsgCost{cfg_.net, cfg_.sw}.isolated(bytes);
  }

  /// Memo-cache counters (host diagnostics, never in a trace). Every entry
  /// point probes once per call, so `misses` counts simulations.
  [[nodiscard]] MemoStats plan_cache_stats() const {
    return plan_cache_.stats();
  }
  [[nodiscard]] MemoStats xfer_cache_stats() const {
    return xfer_cache_.stats();
  }

 private:
  /// Canonical-time allgather memo key: arrival pattern relative to the
  /// earliest node, payload size, and control-path flag. Equality is exact
  /// (full vector compare) — a hash collision may cost a lookup, never a
  /// wrong simulated number.
  struct PlanKey {
    std::vector<cycles_t> rel_start;
    std::int64_t bytes{0};
    bool control{false};
    /// Fault salt of the exchange (0 on the fault-free path, which keeps
    /// pre-fault cache entries byte-identical). Faulted draws depend on the
    /// salt, so it must discriminate entries.
    std::uint64_t fault_salt{0};
    bool operator==(const PlanKey&) const = default;
  };
  struct PlanKeyHash {
    std::size_t operator()(const PlanKey& k) const {
      std::uint64_t h = 1469598103934665603ULL;  // FNV-1a
      const auto mix = [&h](std::uint64_t v) {
        h = (h ^ v) * 1099511628211ULL;
      };
      mix(static_cast<std::uint64_t>(k.bytes));
      mix(k.control ? 1 : 0);
      mix(k.fault_salt);
      for (const cycles_t s : k.rel_start) {
        mix(static_cast<std::uint64_t>(s));
      }
      return static_cast<std::size_t>(h);
    }
  };

  /// Borrowed form of an XferKey: the hot path (a memoized phase pattern)
  /// probes with the caller's traffic list and a scratch rel_start, and
  /// the memo copies them into an owning key only when it stores the
  /// entry — never for an entry over its per-entry cap.
  struct XferKeyView {
    const std::vector<cycles_t>& rel_start;
    const std::vector<std::pair<std::int64_t, std::int64_t>>& traffic;
    std::uint64_t fault_salt{0};
  };
  /// Canonical-time alltoallv memo key: arrival pattern relative to the
  /// earliest node plus the (flat index, bytes) traffic list in row-major
  /// order. Sparse so a ring pattern keys in O(p), not O(p^2).
  struct XferKey {
    explicit XferKey(const XferKeyView& v)
        : rel_start(v.rel_start),
          traffic(v.traffic),
          fault_salt(v.fault_salt) {}
    std::vector<cycles_t> rel_start;
    std::vector<std::pair<std::int64_t, std::int64_t>> traffic;
    std::uint64_t fault_salt{0};
  };
  struct XferKeyHash {
    using is_transparent = void;
    template <typename Key>  // XferKey or XferKeyView
    std::size_t operator()(const Key& k) const {
      std::uint64_t h = 1469598103934665603ULL;  // FNV-1a
      const auto mix = [&h](std::uint64_t v) {
        h = (h ^ v) * 1099511628211ULL;
      };
      for (const cycles_t s : k.rel_start) {
        mix(static_cast<std::uint64_t>(s));
      }
      mix(k.traffic.size());
      for (const auto& [idx, b] : k.traffic) {
        mix(static_cast<std::uint64_t>(idx));
        mix(static_cast<std::uint64_t>(b));
      }
      mix(k.fault_salt);
      return static_cast<std::size_t>(h);
    }
  };
  struct XferKeyEq {
    using is_transparent = void;
    template <typename A, typename B>  // any mix of XferKey / XferKeyView
    bool operator()(const A& a, const B& b) const {
      return a.fault_salt == b.fault_salt && a.rel_start == b.rel_start &&
             a.traffic == b.traffic;
    }
  };

  machine::MachineConfig cfg_;
  // No lock on either memo: a Comm belongs to one Runtime, which calls it
  // only from its price stage, and the phase barrier orders one phase's
  // price stage before the next, whichever carrier thread runs it.
  mutable BoundedMemo<PlanKey, net::ExchangeResult, PlanKeyHash> plan_cache_;
  mutable BoundedMemo<XferKey, net::ExchangeResult, XferKeyHash, XferKeyEq>
      xfer_cache_;
};

}  // namespace qsm::msg
