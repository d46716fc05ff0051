// Message-passing collective layer (the libmvpplus substitute).
//
// The paper's shared-memory library runs on Armadillo's message-passing
// library, and every sync() costs three steps there: the communication-plan
// allgather, the put/get data rounds and a tree barrier. Comm prices
// exactly those three through the deterministic event-driven network model.
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

  /// Event-driven barrier with per-node arrival times; returns release time.
  [[nodiscard]] cycles_t barrier(const std::vector<cycles_t>& arrive) const {
    return net::simulate_tree_barrier(cfg_.net, cfg_.sw, arrive);
  }

  /// Personalized all-to-all (a put/get data round): `traffic` lists only
  /// the active messages as (src * p + dst, bytes) pairs, ascending in flat
  /// index, with bytes > 0 and src != dst, so it costs O(active pairs), not
  /// O(p^2). `fault_salt` (see net/fault.hpp) activates message-fault draws
  /// for this exchange; 0 — the default everywhere — is the fault-free
  /// path. A uniform all-pairs pattern (all p(p-1) off-diagonal entries
  /// with one byte count) is priced in closed form, as allgather() prices
  /// its misses; any other pattern runs the event simulation. Every call is
  /// priced at the caller's start times: a phase's data rounds rarely
  /// repeat both their traffic and their relative arrival pattern.
  [[nodiscard]] net::ExchangeResult alltoallv_sparse(
      const std::vector<cycles_t>& start,
      const std::vector<std::pair<std::int64_t, std::int64_t>>& traffic,
      std::uint64_t fault_salt = 0) const;

  /// Allgather of the communication plan: every node broadcasts
  /// `bytes_per_node` of control traffic (its per-destination counts) to
  /// all others, on the library's fast path.
  ///
  /// This is the one p*(p-1)-message exchange every phase pays, so it is
  /// memoized: simulate_exchange is exactly time-translation invariant
  /// (every resource grant and event time shifts with the start times, and
  /// busy/message/byte totals do not move at all), so the result for a
  /// given *relative* arrival pattern is priced once in canonical time
  /// (min start == 0) and replayed by adding the base offset back. Phases
  /// with repeating arrival shapes — the common case in bulk-synchronous
  /// programs — skip pricing entirely. A miss is priced by
  /// net::simulate_uniform_all_pairs whenever net::uniform_all_pairs_exact
  /// holds, and by the event simulation otherwise. Bit-identical to the
  /// unmemoized event simulation; the closed-form oracle tests and the
  /// golden-determinism suite check it.
  [[nodiscard]] net::ExchangeResult allgather(
      const std::vector<cycles_t>& start, std::int64_t bytes_per_node,
      std::uint64_t fault_salt = 0) const;

  /// Memo counters (host diagnostics, never in a trace). The plan memo
  /// probes once per allgather() call, so `misses` counts simulations.
  [[nodiscard]] MemoStats plan_cache_stats() const {
    return plan_cache_.stats();
  }
  /// alltoallv_sparse() keeps no memo: every call is one simulation and
  /// counts as a miss, and the other fields stay 0. It keeps the MemoStats
  /// form because the e2e benchmark reads both counter sets by field name.
  [[nodiscard]] MemoStats xfer_cache_stats() const { return xfer_stats_; }

 private:
  /// Canonical-time allgather memo key: arrival pattern relative to the
  /// earliest node and payload size. Equality is exact (full vector
  /// compare) — a hash collision may cost a lookup, never a wrong
  /// simulated number.
  struct PlanKey {
    std::vector<cycles_t> rel_start;
    std::int64_t bytes{0};
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
      mix(k.fault_salt);
      for (const cycles_t s : k.rel_start) {
        mix(static_cast<std::uint64_t>(s));
      }
      return static_cast<std::size_t>(h);
    }
  };

  machine::MachineConfig cfg_;
  // No lock on the memo or the counters: a Comm belongs to one Runtime,
  // which calls it only from its price stage, and the phase barrier orders
  // one phase's price stage before the next, whichever carrier thread runs
  // it.
  mutable BoundedMemo<PlanKey, net::ExchangeResult, PlanKeyHash> plan_cache_;
  mutable MemoStats xfer_stats_;
};

}  // namespace qsm::msg
