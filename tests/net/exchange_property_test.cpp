// Property tests for the exchange simulator: bounds, invariances, and
// conservation laws that must hold for any traffic pattern.
#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "net/exchange.hpp"
#include "support/rng.hpp"

namespace qsm::net {
namespace {

ExchangeSpec random_spec(int p, std::uint64_t seed, int max_msgs_per_node) {
  support::Xoshiro256 rng(seed);
  ExchangeSpec spec;
  spec.p = p;
  spec.start.assign(static_cast<std::size_t>(p), 0);
  for (int i = 0; i < p; ++i) {
    const auto msgs = rng.below(static_cast<std::uint64_t>(max_msgs_per_node) + 1);
    for (std::uint64_t m = 0; m < msgs; ++m) {
      int dst = static_cast<int>(rng.below(static_cast<std::uint64_t>(p)));
      if (dst == i) dst = (dst + 1) % p;
      if (dst == i) continue;  // p == 1
      spec.transfers.push_back(
          {i, dst, static_cast<std::int64_t>(rng.below(8192))});
    }
    spec.start[static_cast<std::size_t>(i)] =
        static_cast<support::cycles_t>(rng.below(5000));
  }
  return spec;
}

class ExchangeProperties
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(ExchangeProperties, FinishBoundedBelowByPerNodeWork) {
  const auto [p, seed] = GetParam();
  const auto spec = random_spec(p, static_cast<std::uint64_t>(seed), 12);
  const NetworkParams hw;
  const SoftwareParams sw;
  const MsgCost cost{hw, sw};
  const auto r = simulate_exchange(hw, sw, spec);

  // Each node must at least work through its own send CPU time from its
  // start, and the global finish covers the busiest sender.
  for (int i = 0; i < p; ++i) {
    support::cycles_t send_cpu = 0;
    for (const auto& t : spec.transfers) {
      if (t.src == i) send_cpu += cost.send_cpu(t.bytes);
    }
    EXPECT_GE(r.nodes[static_cast<std::size_t>(i)].finish,
              spec.start[static_cast<std::size_t>(i)] + send_cpu)
        << "node " << i;
  }
  // And any delivered message implies at least one full pipeline.
  if (!spec.transfers.empty()) {
    EXPECT_GE(r.finish, hw.latency);
  }
}

TEST_P(ExchangeProperties, FinishBoundedAboveBySerializedCost) {
  const auto [p, seed] = GetParam();
  const auto spec = random_spec(p, static_cast<std::uint64_t>(seed), 12);
  const NetworkParams hw;
  const SoftwareParams sw;
  const MsgCost cost{hw, sw};
  const auto r = simulate_exchange(hw, sw, spec);

  support::cycles_t serialized = 0;
  for (const auto& t : spec.transfers) serialized += cost.isolated(t.bytes);
  support::cycles_t max_start = 0;
  for (const auto s : spec.start) max_start = std::max(max_start, s);
  EXPECT_LE(r.finish, max_start + serialized);
}

TEST_P(ExchangeProperties, TransferOrderIsIrrelevant) {
  // Restricted to one message per (src, dst) pair: with several messages
  // between one pair, their relative order is a real degree of freedom
  // (the stable sort keeps enqueue order), so only unique-pair specs must
  // be order-invariant.
  const auto [p, seed] = GetParam();
  auto spec = random_spec(p, static_cast<std::uint64_t>(seed), 10);
  std::sort(spec.transfers.begin(), spec.transfers.end(),
            [](const Transfer& a, const Transfer& b) {
              return std::tie(a.src, a.dst, a.bytes) <
                     std::tie(b.src, b.dst, b.bytes);
            });
  spec.transfers.erase(
      std::unique(spec.transfers.begin(), spec.transfers.end(),
                  [](const Transfer& a, const Transfer& b) {
                    return a.src == b.src && a.dst == b.dst;
                  }),
      spec.transfers.end());
  const NetworkParams hw;
  const SoftwareParams sw;
  const auto a = simulate_exchange(hw, sw, spec);
  // Shuffle the transfer list: the staggered schedule re-sorts, so the
  // timing must be identical for the same multiset of messages.
  support::Xoshiro256 rng(static_cast<std::uint64_t>(seed) + 99);
  support::deterministic_shuffle(spec.transfers.begin(),
                                 spec.transfers.end(), rng);
  const auto b = simulate_exchange(hw, sw, spec);
  EXPECT_EQ(a.finish, b.finish);
  EXPECT_EQ(a.wire_bytes, b.wire_bytes);
  for (int i = 0; i < p; ++i) {
    EXPECT_EQ(a.nodes[static_cast<std::size_t>(i)].cpu_busy,
              b.nodes[static_cast<std::size_t>(i)].cpu_busy);
  }
}

TEST_P(ExchangeProperties, WireBytesConserved) {
  const auto [p, seed] = GetParam();
  const auto spec = random_spec(p, static_cast<std::uint64_t>(seed), 12);
  const SoftwareParams sw;
  const auto r = simulate_exchange(NetworkParams{}, sw, spec);
  std::int64_t expected = 0;
  for (const auto& t : spec.transfers) {
    expected += t.bytes + sw.msg_header_bytes;
  }
  EXPECT_EQ(r.wire_bytes, expected);
  EXPECT_EQ(r.messages, spec.transfers.size());
}

/// `delayed` is `base` moved later by exactly `shift`: the global finish
/// and every node's finish move by the shift, and every other field — busy
/// cycles, message, byte and fault counts — is equal.
void expect_translated(const ExchangeResult& base,
                       const ExchangeResult& delayed, support::cycles_t shift) {
  EXPECT_EQ(delayed.finish, base.finish + shift);
  EXPECT_EQ(delayed.messages, base.messages);
  EXPECT_EQ(delayed.wire_bytes, base.wire_bytes);
  EXPECT_EQ(delayed.retries, base.retries);
  EXPECT_EQ(delayed.drops, base.drops);
  EXPECT_EQ(delayed.duplicates, base.duplicates);
  ASSERT_EQ(delayed.nodes.size(), base.nodes.size());
  for (std::size_t i = 0; i < base.nodes.size(); ++i) {
    SCOPED_TRACE("node " + std::to_string(i));
    EXPECT_EQ(delayed.nodes[i].finish, base.nodes[i].finish + shift);
    EXPECT_EQ(delayed.nodes[i].cpu_busy, base.nodes[i].cpu_busy);
    EXPECT_EQ(delayed.nodes[i].tx_busy, base.nodes[i].tx_busy);
    EXPECT_EQ(delayed.nodes[i].rx_busy, base.nodes[i].rx_busy);
  }
}

// Exact time translation: the exchange is priced wherever the phase's
// arrivals put it, and the plan memo replays an allgather at another start
// time by adding the offset back, so a uniform shift of every start must
// shift every completion time by exactly that much and move nothing else.
// Checked on every topology and on a congested fabric, for random traffic
// and for the uniform all-pairs graph as control and as data traffic, and,
// where it applies, for the closed form of that graph.
TEST_P(ExchangeProperties, LaterStartsNeverFinishEarlier) {
  const auto [p, seed] = GetParam();
  const auto random = random_spec(p, static_cast<std::uint64_t>(seed), 8);
  const auto bytes = static_cast<std::int64_t>(256 * seed);
  ExchangeSpec all_pairs;
  all_pairs.p = p;
  all_pairs.start = random.start;
  for (int i = 0; i < p; ++i) {
    for (int j = 0; j < p; ++j) {
      if (i != j) all_pairs.transfers.push_back({i, j, bytes});
    }
  }
  ExchangeSpec all_pairs_control = all_pairs;
  all_pairs_control.control = true;
  const std::vector<std::pair<std::string, const ExchangeSpec*>> specs{
      {"random", &random},
      {"all-pairs data", &all_pairs},
      {"all-pairs control", &all_pairs_control}};
  constexpr support::cycles_t kShift = 10000;
  const auto delay = [](std::vector<support::cycles_t> start) {
    for (auto& s : start) s += kShift;
    return start;
  };

  std::vector<std::pair<std::string, NetworkParams>> machines;
  machines.emplace_back("fully-connected", NetworkParams{});
  machines.emplace_back("ring", NetworkParams{});
  machines.back().second.topology = Topology::Ring;
  machines.emplace_back("torus-2d", NetworkParams{});
  machines.back().second.topology = Topology::Torus2D;
  machines.emplace_back("one fabric link", NetworkParams{});
  machines.back().second.fabric_links = 1;
  const SoftwareParams sw;

  for (const auto& [name, hw] : machines) {
    for (const auto& [what, spec] : specs) {
      SCOPED_TRACE(name + ": " + what);
      auto delayed = *spec;
      delayed.start = delay(spec->start);
      expect_translated(simulate_exchange(hw, sw, *spec),
                        simulate_exchange(hw, sw, delayed), kShift);
    }
    if (!uniform_all_pairs_exact(hw, 0)) continue;
    for (const bool control : {false, true}) {
      SCOPED_TRACE(name + (control ? ": closed form control"
                                   : ": closed form data"));
      const auto base =
          simulate_uniform_all_pairs(hw, sw, random.start, bytes, control);
      expect_translated(base,
                        simulate_uniform_all_pairs(hw, sw, delay(random.start),
                                                   bytes, control),
                        kShift);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, ExchangeProperties,
    ::testing::Combine(::testing::Values(2, 3, 8, 16),
                       ::testing::Values(1, 2, 3, 4)));

}  // namespace
}  // namespace qsm::net
