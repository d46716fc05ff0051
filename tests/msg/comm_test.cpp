#include "msg/comm.hpp"

#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "machine/presets.hpp"

namespace qsm::msg {
namespace {

Comm default_comm(int p = 4) { return Comm(machine::default_sim(p)); }

TEST(Comm, BarrierCostMatchesNetModel) {
  // Simultaneous arrivals release after exactly the closed-form tree cost.
  const auto c = default_comm(16);
  EXPECT_EQ(c.barrier(std::vector<support::cycles_t>(16, 0)),
            net::tree_barrier_cost(c.config().net, c.config().sw, 16));
}

TEST(Comm, BarrierWaitsForStragglers) {
  const auto c = default_comm(8);
  std::vector<support::cycles_t> arrive(8, 0);
  arrive[3] = 500'000;
  EXPECT_GE(c.barrier(arrive), 500'000);
}

TEST(Comm, AllgatherSendsPSquaredMessages) {
  const auto c = default_comm(4);
  const auto r = c.allgather(std::vector<support::cycles_t>(4, 0), 64);
  EXPECT_EQ(r.messages, 12u);  // p*(p-1)
  EXPECT_GT(r.finish, 0);
}

TEST(Comm, AllgatherZeroBytesStillSendsControlMessages) {
  const auto c = default_comm(4);
  const auto r = c.allgather(std::vector<support::cycles_t>(4, 0), 0);
  EXPECT_EQ(r.messages, 12u);
}

/// Every ordered pair (i, j != i) sends `bytes`: the complete graph as a
/// sparse traffic list.
std::vector<std::pair<std::int64_t, std::int64_t>> all_pairs(
    int p, std::int64_t bytes) {
  std::vector<std::pair<std::int64_t, std::int64_t>> traffic;
  for (std::int64_t i = 0; i < p; ++i) {
    for (std::int64_t j = 0; j < p; ++j) {
      if (i != j) traffic.emplace_back(i * p + j, bytes);
    }
  }
  return traffic;
}

TEST(Comm, ControlAllgatherIsCheaperThanDataAllgather) {
  // The plan distribution takes the library's fast path: the same
  // messages sent as data (every node's payload to every other node) pay
  // the marshalling costs.
  const auto c = default_comm(8);
  const std::vector<support::cycles_t> start(8, 0);
  const auto data = c.alltoallv_sparse(start, all_pairs(8, 256));
  const auto control = c.allgather(start, 256);
  EXPECT_LT(control.finish, data.finish);
  EXPECT_EQ(control.messages, data.messages);
}

TEST(Comm, SparseAlltoallvRejectsMalformedTraffic) {
  const auto c = default_comm(4);
  const std::vector<support::cycles_t> start(4, 0);
  using Traffic = std::vector<std::pair<std::int64_t, std::int64_t>>;
  // Descending flat index.
  EXPECT_THROW((void)c.alltoallv_sparse(start, Traffic{{6, 8}, {1, 8}}),
               support::ContractViolation);
  // Diagonal entry (5 = 1*4 + 1).
  EXPECT_THROW((void)c.alltoallv_sparse(start, Traffic{{5, 8}}),
               support::ContractViolation);
  // Zero bytes.
  EXPECT_THROW((void)c.alltoallv_sparse(start, Traffic{{1, 0}}),
               support::ContractViolation);
  // Index out of range.
  EXPECT_THROW((void)c.alltoallv_sparse(start, Traffic{{16, 8}}),
               support::ContractViolation);
}

TEST(Comm, AllgatherMemoHitsOnRepeatAndRelativePattern) {
  const auto c = default_comm(4);
  const std::vector<support::cycles_t> flat(4, 0);
  auto s0 = c.plan_cache_stats();
  EXPECT_EQ(s0.hits, 0u);
  EXPECT_EQ(s0.misses, 0u);

  const auto a = c.allgather(flat, 64);
  auto s1 = c.plan_cache_stats();
  EXPECT_EQ(s1.misses, 1u);
  EXPECT_EQ(s1.hits, 0u);
  EXPECT_EQ(s1.installs, 1u);

  // Identical call: pure memo hit, identical result.
  const auto b = c.allgather(flat, 64);
  auto s2 = c.plan_cache_stats();
  EXPECT_EQ(s2.hits, 1u);
  EXPECT_EQ(s2.misses, 1u);
  EXPECT_EQ(a.finish, b.finish);

  // The key is the relative arrival pattern: a uniform shift hits the
  // same entry and the result is re-based, not re-simulated.
  std::vector<support::cycles_t> shifted(4, 1000);
  const auto shifted_result = c.allgather(shifted, 64);
  auto s3 = c.plan_cache_stats();
  EXPECT_EQ(s3.hits, 2u);
  EXPECT_EQ(s3.misses, 1u);
  EXPECT_EQ(shifted_result.finish, a.finish + 1000);

  // Different payload size is a genuinely different plan: miss + install.
  (void)c.allgather(flat, 128);
  auto s4 = c.plan_cache_stats();
  EXPECT_EQ(s4.hits, 2u);
  EXPECT_EQ(s4.misses, 2u);
  EXPECT_EQ(s4.installs, 2u);
}

TEST(Comm, SparseAlltoallvCountsEveryCallAsOneMiss) {
  // alltoallv_sparse keeps no memo: repeats and shifted repeats are each
  // priced again, uniform all-pairs or not, and a rejected call prices
  // nothing.
  const auto c = default_comm(4);
  const std::vector<support::cycles_t> start(4, 0);
  using Traffic = std::vector<std::pair<std::int64_t, std::int64_t>>;
  const Traffic traffic{{1, 64}, {4, 64}, {11, 32}};
  (void)c.alltoallv_sparse(start, traffic);
  (void)c.alltoallv_sparse(start, traffic);
  (void)c.alltoallv_sparse(std::vector<support::cycles_t>(4, 700), traffic);
  (void)c.alltoallv_sparse(start, all_pairs(4, 16));
  EXPECT_THROW((void)c.alltoallv_sparse(start, Traffic{{5, 8}}),
               support::ContractViolation);
  const auto stats = c.xfer_cache_stats();
  EXPECT_EQ(stats.misses, 4u);
  EXPECT_EQ(stats.hits, 0u);
  EXPECT_EQ(stats.installs, 0u);
  EXPECT_EQ(stats.clears, 0u);
  EXPECT_EQ(stats.oversize, 0u);
  // The plan memo is a separate counter set.
  EXPECT_EQ(c.plan_cache_stats().misses, 0u);
}

void expect_same_result(const net::ExchangeResult& got,
                        const net::ExchangeResult& want,
                        const std::string& where) {
  SCOPED_TRACE(where);
  EXPECT_EQ(got.finish, want.finish);
  EXPECT_EQ(got.messages, want.messages);
  EXPECT_EQ(got.wire_bytes, want.wire_bytes);
  EXPECT_EQ(got.retries, want.retries);
  EXPECT_EQ(got.drops, want.drops);
  EXPECT_EQ(got.duplicates, want.duplicates);
  ASSERT_EQ(got.nodes.size(), want.nodes.size());
  for (std::size_t i = 0; i < got.nodes.size(); ++i) {
    SCOPED_TRACE("node " + std::to_string(i));
    EXPECT_EQ(got.nodes[i].finish, want.nodes[i].finish);
    EXPECT_EQ(got.nodes[i].cpu_busy, want.nodes[i].cpu_busy);
    EXPECT_EQ(got.nodes[i].tx_busy, want.nodes[i].tx_busy);
    EXPECT_EQ(got.nodes[i].rx_busy, want.nodes[i].rx_busy);
  }
}

// A uniform complete graph is priced in closed form; each near miss below
// must stay on the event simulation. Either way, alltoallv_sparse must
// equal net::simulate_exchange on the same spec in every field, and so must
// a repeated call, which prices the exchange again. The plan allgather on
// the same machines must equal the event simulation of the same graph as
// control traffic. The payload and the single fabric link are chosen so
// that each near miss, priced in closed form, would give a different
// result.
TEST(Comm, UniformAlltoallvMatchesEventSimulationAndNearMisses) {
  constexpr int p = 6;
  constexpr std::size_t up = p;
  constexpr std::int64_t b = 128;
  struct Case {
    std::string name;
    machine::MachineConfig cfg;
    std::vector<std::int64_t> flat;
    std::uint64_t salt{0};
  };
  std::vector<std::int64_t> uniform(up * up, b);
  for (std::size_t i = 0; i < up; ++i) uniform[i * up + i] = 0;
  const auto base = machine::default_sim(p);
  std::vector<Case> cases;
  cases.push_back({"uniform", base, uniform});
  cases.push_back({"one pair bigger", base, uniform});
  cases.back().flat[1 * up + 4] = 2 * b;
  cases.push_back({"one pair missing", base, uniform});
  cases.back().flat[3 * up + 0] = 0;
  cases.push_back({"message faults", base, uniform, 0x5eedULL});
  cases.back().cfg.net.fault.drop_prob = 0.2;
  cases.back().cfg.net.fault.dup_prob = 0.1;
  cases.back().cfg.net.fault.delay_prob = 0.1;
  cases.push_back({"ring", base, uniform});
  cases.back().cfg.net.topology = net::Topology::Ring;
  cases.push_back({"fabric congestion", base, uniform});
  cases.back().cfg.net.fabric_links = 1;

  std::vector<support::cycles_t> start(up);
  for (std::size_t i = 0; i < up; ++i) {
    start[i] = 1000 + static_cast<support::cycles_t>((i * 929) % 1400);
  }
  for (const Case& tc : cases) {
    net::ExchangeSpec spec;
    spec.p = p;
    spec.start = start;
    spec.fault_salt = tc.salt;
    std::vector<std::pair<std::int64_t, std::int64_t>> traffic;
    for (std::size_t i = 0; i < up; ++i) {
      for (std::size_t j = 0; j < up; ++j) {
        const std::int64_t bytes = tc.flat[i * up + j];
        if (bytes == 0) continue;
        spec.transfers.push_back(
            {static_cast<int>(i), static_cast<int>(j), bytes});
        traffic.emplace_back(static_cast<std::int64_t>(i * up + j), bytes);
      }
    }
    const auto want = net::simulate_exchange(tc.cfg.net, tc.cfg.sw, spec);

    const Comm sparse_comm(tc.cfg);
    expect_same_result(sparse_comm.alltoallv_sparse(start, traffic, tc.salt),
                       want, tc.name + ": sparse");
    expect_same_result(sparse_comm.alltoallv_sparse(start, traffic, tc.salt),
                       want, tc.name + ": repeat");
    EXPECT_EQ(sparse_comm.xfer_cache_stats().misses, 2u) << tc.name;

    if (tc.flat == uniform) {
      spec.control = true;
      const Comm gather_comm(tc.cfg);
      expect_same_result(gather_comm.allgather(start, b, tc.salt),
                         net::simulate_exchange(tc.cfg.net, tc.cfg.sw, spec),
                         tc.name + ": allgather");
    }
  }
}

TEST(Comm, SparseAlltoallvMatchesFlat) {
  // The sparse caller supplies exactly the nonzeros of a flat p x p byte
  // matrix; the result must equal the event simulation of the transfers
  // read from that matrix, in every field.
  const auto c = default_comm(6);
  const std::size_t p = 6;
  std::vector<std::int64_t> flat(p * p, 0);
  std::vector<std::pair<std::int64_t, std::int64_t>> traffic;
  for (std::size_t i = 0; i < p; ++i) {
    for (std::size_t j = 0; j < p; ++j) {
      if (i == j || (i + j) % 3 != 0) continue;
      const auto b = static_cast<std::int64_t>(128 + 8 * (i * p + j));
      flat[i * p + j] = b;
      traffic.emplace_back(static_cast<std::int64_t>(i * p + j), b);
    }
  }
  std::vector<support::cycles_t> start(p);
  for (std::size_t i = 0; i < p; ++i) {
    start[i] = static_cast<support::cycles_t>((i * 53) % 4) * 250;
  }
  net::ExchangeSpec spec;
  spec.p = static_cast<int>(p);
  spec.start = start;
  for (std::size_t i = 0; i < p; ++i) {
    for (std::size_t j = 0; j < p; ++j) {
      if (flat[i * p + j] == 0) continue;
      spec.transfers.push_back(
          {static_cast<int>(i), static_cast<int>(j), flat[i * p + j]});
    }
  }
  const auto want =
      net::simulate_exchange(c.config().net, c.config().sw, spec);
  expect_same_result(c.alltoallv_sparse(start, traffic), want, "sparse");
}

TEST(Comm, BiggerMachineHasCostlierBarrier) {
  EXPECT_GT(default_comm(64).barrier(std::vector<support::cycles_t>(64, 0)),
            default_comm(4).barrier(std::vector<support::cycles_t>(4, 0)));
}

}  // namespace
}  // namespace qsm::msg
