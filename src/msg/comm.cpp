#include "msg/comm.hpp"

#include <algorithm>
#include <utility>

#include "support/contract.hpp"

namespace qsm::msg {

namespace {

/// Replays a canonical-time (min start == 0) exchange result at absolute
/// time `base`. Only the completion times move; busy cycles, message and
/// byte totals are durations and stay put.
net::ExchangeResult shift_result(net::ExchangeResult r, cycles_t base) {
  r.finish += base;
  for (auto& node : r.nodes) node.finish += base;
  return r;
}

/// Memo entries are ~p words of key plus ~4p words of result; at the cap
/// the cache tops out around a few MB even at p = 512. A full clear (not
/// LRU) keeps hits O(1) and is invisible to results — only to speed.
constexpr std::size_t kPlanCacheCap = 512;

}  // namespace

Comm::Comm(machine::MachineConfig cfg)
    : cfg_(std::move(cfg)), plan_cache_(kPlanCacheCap) {
  cfg_.validate();
}

net::ExchangeResult Comm::allgather(const std::vector<cycles_t>& start,
                                    std::int64_t bytes_per_node,
                                    std::uint64_t fault_salt) const {
  QSM_REQUIRE(bytes_per_node >= 0, "negative allgather payload");
  // The salt only matters when message faults can actually fire; collapsing
  // it to 0 otherwise keeps the memo maximally shared.
  if (!cfg_.net.fault.message_faults_enabled()) fault_salt = 0;
  const int p = cfg_.p;
  QSM_REQUIRE(start.size() == static_cast<std::size_t>(p),
              "start times must cover every node");
  cycles_t base = start[0];
  for (const cycles_t s : start) {
    QSM_REQUIRE(s >= 0, "start times must be non-negative");
    base = std::min(base, s);
  }

  PlanKey key;
  key.rel_start.reserve(start.size());
  for (const cycles_t s : start) key.rel_start.push_back(s - base);
  key.bytes = bytes_per_node;
  key.fault_salt = fault_salt;

  if (const auto* hit = plan_cache_.find(key)) {
    return shift_result(*hit, base);
  }

  net::ExchangeResult canonical;
  if (net::uniform_all_pairs_exact(cfg_.net, fault_salt)) {
    // An allgather is a complete graph of identical messages: its closed
    // form is bit-identical to the event simulation at O(p^2) arithmetic
    // instead of O(p^2) heap events, so the per-phase plan exchange stays
    // affordable at large p even when its arrival pattern is new every
    // phase (and can never hit the memo).
    canonical = net::simulate_uniform_all_pairs(
        cfg_.net, cfg_.sw, key.rel_start, bytes_per_node, /*control=*/true);
  } else {
    net::ExchangeSpec spec;
    spec.p = p;
    spec.start = key.rel_start;  // canonical time: earliest node at 0
    spec.control = true;
    spec.fault_salt = fault_salt;
    for (int i = 0; i < p; ++i) {
      for (int j = 0; j < p; ++j) {
        if (i != j) spec.transfers.push_back({i, j, bytes_per_node});
      }
    }
    canonical = net::simulate_exchange(cfg_.net, cfg_.sw, spec);
  }

  // The memo clears itself before the store that would exceed its entry
  // cap.
  plan_cache_.insert(std::move(key), canonical);
  return shift_result(std::move(canonical), base);
}

net::ExchangeResult Comm::alltoallv_sparse(
    const std::vector<cycles_t>& start,
    const std::vector<std::pair<std::int64_t, std::int64_t>>& traffic,
    std::uint64_t fault_salt) const {
  const int p = cfg_.p;
  if (!cfg_.net.fault.message_faults_enabled()) fault_salt = 0;
  const auto up = static_cast<std::size_t>(p);
  QSM_REQUIRE(start.size() == up, "start times must cover every node");
  for (const cycles_t s : start) {
    QSM_REQUIRE(s >= 0, "start times must be non-negative");
  }

  // The caller supplies each message once: flat index ascending
  // (row-major), positive bytes, no diagonal. The closed-form check below
  // counts on it. The ascending walk lets the row tracking advance instead
  // of dividing.
  std::int64_t prev_idx = -1;
  std::int64_t row = 0;
  std::int64_t row_base = 0;
  for (const auto& [idx, b] : traffic) {
    QSM_REQUIRE(idx > prev_idx, "sparse traffic must ascend in flat index");
    QSM_REQUIRE(idx < static_cast<std::int64_t>(up * up),
                "sparse traffic index out of range");
    while (idx >= row_base + p) {
      row_base += p;
      ++row;
    }
    QSM_REQUIRE(idx - row_base != row, "self-transfer is not network traffic");
    QSM_REQUIRE(b > 0, "sparse traffic entries must be positive");
    prev_idx = idx;
  }
  ++xfer_stats_.misses;

  // The traffic was validated above as ascending flat indices off the
  // diagonal, so p(p-1) entries are exactly the complete graph; if they
  // also share one byte count, the closed form prices the exchange.
  const auto p64 = static_cast<std::int64_t>(p);
  const bool uniform =
      p >= 2 && static_cast<std::int64_t>(traffic.size()) == p64 * (p64 - 1) &&
      std::all_of(traffic.begin(), traffic.end(), [&](const auto& entry) {
        return entry.second == traffic.front().second;
      });
  if (uniform && net::uniform_all_pairs_exact(cfg_.net, fault_salt)) {
    return net::simulate_uniform_all_pairs(cfg_.net, cfg_.sw, start,
                                           traffic.front().second,
                                           /*control=*/false);
  }
  return net::simulate_alltoallv_sparse(cfg_.net, cfg_.sw, start, traffic,
                                        fault_salt);
}

}  // namespace qsm::msg
