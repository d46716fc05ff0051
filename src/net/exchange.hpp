// Event-driven simulation of a bulk exchange.
//
// This is the timing heart of the QSM runtime's sync(): a set of messages
// between nodes is pushed through a three-stage pipeline per message —
// sender CPU -> sender NIC -> wire latency -> receiver NIC -> receiver CPU —
// where each node's CPU and each NIC direction is a FIFO resource. Sends are
// scheduled in the staggered round-robin partner order (round r: node i
// sends to (i + r) mod p) that the paper's library uses "to reduce
// contention and avoid deadlock".
#pragma once

#include <cstdint>
#include <vector>

#include "net/params.hpp"
#include "support/cycles.hpp"

namespace qsm::net {

/// One message of the exchange. `bytes` is wire payload excluding the
/// per-message header (records, data words, plan entries...).
struct Transfer {
  int src{0};
  int dst{0};
  std::int64_t bytes{0};
};

struct ExchangeSpec {
  int p{0};
  /// Per-node time at which the node may begin sending (its arrival at the
  /// sync point). Size p; all >= 0.
  std::vector<cycles_t> start;
  /// Messages to deliver. src==dst transfers are a contract violation
  /// (local work is not network traffic).
  std::vector<Transfer> transfers;
  /// Control-plane exchange (plan counts): messages take the library's
  /// fast path, paying only the hardware per-message overhead on the CPU.
  bool control{false};
  /// Send order. Staggered is the library's default ("an order designed to
  /// reduce contention"): node i's round-r message goes to (i + r) mod p.
  /// FixedTarget is the naive order — every node walks destinations
  /// 0, 1, 2, ... — which convoys the receivers (ablation only).
  enum class SendOrder { Staggered, FixedTarget };
  SendOrder order{SendOrder::Staggered};
  /// Fault-injection salt for this exchange (see net/fault.hpp). 0 disables
  /// message faults regardless of hw.fault; nonzero activates them when
  /// hw.fault.message_faults_enabled(). The salt — never the simulated
  /// time — keys every draw, so faulted results stay time-translation
  /// invariant and memoizable.
  std::uint64_t fault_salt{0};
};

struct NodeTimings {
  cycles_t cpu_busy{0};   ///< cycles the node CPU spent on send/recv work
  cycles_t tx_busy{0};    ///< cycles the outgoing NIC was serializing
  cycles_t rx_busy{0};    ///< cycles the incoming NIC was serializing
  cycles_t finish{0};     ///< when this node completed all its work
};

struct ExchangeResult {
  cycles_t finish{0};  ///< global completion time
  std::vector<NodeTimings> nodes;
  std::uint64_t messages{0};
  std::int64_t wire_bytes{0};  ///< payload + headers actually serialized
  // Fault accounting (all 0 on a fault-free exchange). Retried and
  // duplicated attempts are included in `messages` / `wire_bytes`: they
  // really crossed the wire.
  std::uint64_t retries{0};     ///< retransmissions after a drop
  std::uint64_t drops{0};       ///< attempts lost on the wire
  std::uint64_t duplicates{0};  ///< extra copies delivered
};

/// Simulates the exchange event by event; deterministic for a given spec.
/// This and the two alltoallv forms below never take the closed form, so
/// tests can use them as its oracle.
[[nodiscard]] ExchangeResult simulate_exchange(const NetworkParams& hw,
                                               const SoftwareParams& sw,
                                               const ExchangeSpec& spec);

/// Convenience: an all-to-all personalized exchange where node i sends
/// `bytes[i][j]` payload bytes to node j (zero entries produce no message).
[[nodiscard]] ExchangeResult simulate_alltoallv(
    const NetworkParams& hw, const SoftwareParams& sw,
    const std::vector<cycles_t>& start,
    const std::vector<std::vector<std::int64_t>>& bytes,
    std::uint64_t fault_salt = 0);

/// Sparse all-to-all entry point: `traffic` lists only the active messages
/// as (src * p + dst, bytes) pairs with bytes > 0 and src != dst. Schedules
/// exactly those messages — identical to simulate_alltoallv on the matrix
/// whose nonzero entries are `traffic`, without ever materializing the p x p
/// matrix. p is taken from start.size().
[[nodiscard]] ExchangeResult simulate_alltoallv_sparse(
    const NetworkParams& hw, const SoftwareParams& sw,
    const std::vector<cycles_t>& start,
    const std::vector<std::pair<std::int64_t, std::int64_t>>& traffic,
    std::uint64_t fault_salt = 0);

/// True when simulate_uniform_all_pairs reproduces simulate_exchange
/// exactly on `hw` for an exchange carrying `fault_salt`: a fully connected
/// topology (one latency for every pair), no fabric congestion (no
/// resource shared by all senders) and no message faults (salt 0). Callers
/// take the closed form only when this holds.
[[nodiscard]] bool uniform_all_pairs_exact(const NetworkParams& hw,
                                           std::uint64_t fault_salt);

/// Exact closed-form/fold evaluation of a uniform all-pairs exchange:
/// every ordered pair (i, j != i) sends one message of `bytes` payload in
/// the staggered order, as control traffic when `control` is set and as
/// data otherwise. Bit-identical to simulate_exchange on the same spec in
/// every ExchangeResult field, at O(p) to O(p^2) arithmetic instead of
/// p(p-1) messages' events. Every grant on a CPU then has one length
/// (control_cpu, or send_cpu == recv_cpu for data) and every grant on a
/// NIC another, so FIFO grant ends depend only on request-time multisets,
/// never on tie order (DESIGN.md §4 gives the argument). Requires
/// uniform_all_pairs_exact(hw, 0).
[[nodiscard]] ExchangeResult simulate_uniform_all_pairs(
    const NetworkParams& hw, const SoftwareParams& sw,
    const std::vector<cycles_t>& start, std::int64_t bytes, bool control);

}  // namespace qsm::net
