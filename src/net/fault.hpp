// Deterministic, seed-driven fault injection for the exchange DES.
//
// Every fault decision is a *pure function* of a counter key — no mutable
// RNG state anywhere. A message outcome is drawn from
// mix(seed, phase-salt, src, dst, attempt); a node-level event from
// mix(seed, phase-salt, node). This is what makes faulted traces
// bit-identical across lane engines (threads vs fibers), host worker
// counts, and harness job counts: the draw does not depend on which host
// thread asks, in what order, or at what simulated time. Time-independence
// also preserves the exchange simulator's time-translation invariance, so
// the comm memo layer stays sound (keys gain the fault salt; fault-free
// keys are unchanged).
#pragma once

#include <cstdint>
#include <string>

#include "support/contract.hpp"
#include "support/cycles.hpp"

namespace qsm::net {

using support::cycles_t;

/// Fault-injection knobs. All probabilities default to 0: a
/// default-constructed FaultParams is the failure-free machine and changes
/// nothing anywhere (no draws, no key text, no extra trace fields).
struct FaultParams {
  /// Per-message-attempt probability the payload is dropped on the wire.
  /// The sender detects the loss by ack timeout and retransmits.
  double drop_prob{0.0};
  /// Per-message probability the fabric delivers two copies (both are
  /// serialized, received, and ingested — duplicates cost real time).
  double dup_prob{0.0};
  /// Per-message probability of a latency spike of `delay_cycles`.
  double delay_prob{0.0};
  cycles_t delay_cycles{20000};
  /// Per-phase, per-node probability of a transient stall (OS jitter,
  /// page fault storm) of `stall_cycles` before the node reaches the
  /// exchange.
  double stall_prob{0.0};
  cycles_t stall_cycles{50000};
  /// Per-phase, per-node probability the node runs its local work slowed
  /// by `slow_factor` (>= 1).
  double slow_prob{0.0};
  double slow_factor{2.0};
  /// Per-phase, per-node probability the node is declared failed at the
  /// end of the phase's exchange; the phase replays from the barrier
  /// checkpoint (see PhasePipeline::price).
  double node_fail_prob{0.0};
  /// Simulated cycles for the membership layer to detect a failed node,
  /// and for the surviving configuration to restore the checkpoint before
  /// replay begins.
  cycles_t detect_cycles{200000};
  cycles_t recovery_cycles{400000};
  /// Ack/retry protocol: base retransmit timeout (cycles), exponential
  /// backoff multiplier, and the attempt cap after which delivery is
  /// forced (models "the network eventually delivers"; keeps the DES and
  /// the replay loop finite).
  cycles_t ack_timeout{8000};
  double ack_backoff{2.0};
  int max_attempts{8};
  /// Root seed for every draw.
  std::uint64_t seed{1};

  /// True if any fault axis can fire.
  [[nodiscard]] bool enabled() const {
    return message_faults_enabled() || node_faults_enabled();
  }
  /// True if per-message faults (drop/dup/delay) can fire; gates the
  /// exchange stage machine and the uniform all-pairs closed form.
  [[nodiscard]] bool message_faults_enabled() const {
    return drop_prob > 0.0 || dup_prob > 0.0 || delay_prob > 0.0;
  }
  /// True if per-node faults (stall/slowdown/failure) can fire; gates the
  /// pricing-time node draws and the replay loop.
  [[nodiscard]] bool node_faults_enabled() const {
    return stall_prob > 0.0 || slow_prob > 0.0 || node_fail_prob > 0.0;
  }

  void validate() const {
    QSM_REQUIRE(drop_prob >= 0.0 && drop_prob <= 1.0 && dup_prob >= 0.0 &&
                    dup_prob <= 1.0 && delay_prob >= 0.0 && delay_prob <= 1.0,
                "message fault probabilities must be in [0, 1]");
    QSM_REQUIRE(drop_prob + dup_prob + delay_prob <= 1.0,
                "message fault probabilities must sum to <= 1");
    QSM_REQUIRE(stall_prob >= 0.0 && stall_prob <= 1.0 && slow_prob >= 0.0 &&
                    slow_prob <= 1.0 && node_fail_prob >= 0.0 &&
                    node_fail_prob <= 1.0,
                "node fault probabilities must be in [0, 1]");
    QSM_REQUIRE(delay_cycles >= 0 && stall_cycles >= 0 && detect_cycles >= 0 &&
                    recovery_cycles >= 0,
                "fault delays must be non-negative");
    QSM_REQUIRE(slow_factor >= 1.0, "slow factor must be >= 1");
    QSM_REQUIRE(ack_timeout > 0, "ack timeout must be positive");
    QSM_REQUIRE(ack_backoff >= 1.0, "ack backoff must be >= 1");
    QSM_REQUIRE(max_attempts >= 1 && max_attempts <= 62,
                "max attempts must be in [1, 62]");
  }
};

/// What happened to one message attempt.
enum class MsgFate : std::uint8_t { Deliver, Drop, Duplicate, Delay };

/// Stateless draw functions over FaultParams. All methods are const and
/// reentrant; the model is shared freely across threads.
class FaultModel {
 public:
  explicit FaultModel(const FaultParams& params) : fp_(params) {}

  /// SplitMix64 finalizer — the bit mixer under every draw.
  [[nodiscard]] static std::uint64_t mix(std::uint64_t x) {
    x += 0x9e3779b97f4a7c15ULL;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
  }

  /// Combines the fault seed with a per-exchange discriminator
  /// (phase counter, replay attempt, round id) into the salt carried by
  /// ExchangeSpec / the comm memo keys. Guaranteed nonzero so that
  /// salt == 0 always means "no message faults in this exchange".
  [[nodiscard]] static std::uint64_t exchange_salt(std::uint64_t seed,
                                                  std::uint64_t phase,
                                                  std::uint64_t attempt,
                                                  std::uint64_t round) {
    std::uint64_t s =
        mix(mix(mix(mix(seed) ^ phase) ^ (attempt << 8)) ^ round);
    return s == 0 ? 0x9e3779b97f4a7c15ULL : s;
  }

  /// Per-phase salt for node-level draws (stall/slow/fail).
  [[nodiscard]] static std::uint64_t node_salt(std::uint64_t seed,
                                               std::uint64_t phase,
                                               std::uint64_t attempt) {
    return mix(mix(seed ^ 0x5bf0fb3eULL) ^ phase ^ (attempt << 40));
  }

  /// Outcome of attempt `attempt` (1-based) of the (src -> dst) message in
  /// the exchange identified by `salt`.
  [[nodiscard]] MsgFate message_fate(std::uint64_t salt, int src, int dst,
                                     int attempt) const {
    const double u = uniform(
        mix(salt ^ (static_cast<std::uint64_t>(static_cast<std::uint32_t>(
                        src)) << 32) ^
            static_cast<std::uint32_t>(dst)) ^
        static_cast<std::uint64_t>(attempt));
    if (u < fp_.drop_prob) return MsgFate::Drop;
    if (u < fp_.drop_prob + fp_.dup_prob) return MsgFate::Duplicate;
    if (u < fp_.drop_prob + fp_.dup_prob + fp_.delay_prob)
      return MsgFate::Delay;
    return MsgFate::Deliver;
  }

  /// Retransmit delay after the `attempt`-th (1-based) attempt was lost:
  /// ack_timeout * backoff^(attempt - 1), in cycles.
  [[nodiscard]] cycles_t retry_delay(int attempt) const {
    double d = static_cast<double>(fp_.ack_timeout);
    for (int i = 1; i < attempt; ++i) d *= fp_.ack_backoff;
    return support::ceil_cycles(d);
  }

  /// Transient stall for `node` this phase (0 if the draw misses).
  [[nodiscard]] cycles_t node_stall(std::uint64_t salt, int node) const {
    if (fp_.stall_prob <= 0.0) return 0;
    const double u = uniform(mix(salt ^ 0xa11ce5ULL) ^
                             static_cast<std::uint64_t>(node));
    return u < fp_.stall_prob ? fp_.stall_cycles : 0;
  }

  /// Slowdown multiplier for `node`'s local work this phase (1.0 if the
  /// draw misses).
  [[nodiscard]] double node_slow_mult(std::uint64_t salt, int node) const {
    if (fp_.slow_prob <= 0.0) return 1.0;
    const double u = uniform(mix(salt ^ 0x5103d0ULL) ^
                             static_cast<std::uint64_t>(node));
    return u < fp_.slow_prob ? fp_.slow_factor : 1.0;
  }

  /// Whether `node` is declared failed at the end of this phase attempt.
  [[nodiscard]] bool node_failed(std::uint64_t salt, int node) const {
    if (fp_.node_fail_prob <= 0.0) return false;
    const double u = uniform(mix(salt ^ 0xdeadULL) ^
                             static_cast<std::uint64_t>(node));
    return u < fp_.node_fail_prob;
  }

  [[nodiscard]] const FaultParams& params() const { return fp_; }

 private:
  /// Uniform in [0, 1) from a mixed key: top 53 bits / 2^53.
  [[nodiscard]] static double uniform(std::uint64_t key) {
    return static_cast<double>(mix(key) >> 11) * 0x1.0p-53;
  }

  FaultParams fp_;
};

/// Stable hash of every fault knob (0 when faults are disabled). Mixed into
/// exchange salts so two fault configurations never share draws, and usable
/// as a cheap equality token.
[[nodiscard]] std::uint64_t fault_fingerprint(const FaultParams& fp);

/// Canonical key-text fragment for harness cache keys. Empty when faults
/// are disabled — fault-free keys are byte-identical to builds that predate
/// the fault layer.
[[nodiscard]] std::string describe(const FaultParams& fp);

}  // namespace qsm::net
