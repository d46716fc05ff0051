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
  const auto c = default_comm(16);
  EXPECT_EQ(c.barrier_cost(),
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

TEST(Comm, GatherConvergesOnRoot) {
  const auto c = default_comm(4);
  const std::vector<std::int64_t> bytes{0, 100, 100, 100};
  const auto r = c.gather(std::vector<support::cycles_t>(4, 0), 0, bytes);
  EXPECT_EQ(r.messages, 3u);
  // Root's receive resources did all the receiving.
  EXPECT_GT(r.nodes[0].rx_busy, 0);
  EXPECT_EQ(r.nodes[1].rx_busy, 0);
}

TEST(Comm, GatherRootSendsNothing) {
  const auto c = default_comm(3);
  const std::vector<std::int64_t> bytes{999, 10, 10};
  const auto r = c.gather(std::vector<support::cycles_t>(3, 0), 0, bytes);
  EXPECT_EQ(r.messages, 2u);  // root's own contribution is local
}

TEST(Comm, AlltoallvDiagonalIgnored) {
  const auto c = default_comm(3);
  std::vector<std::vector<std::int64_t>> bytes{
      {50, 10, 10}, {10, 50, 10}, {10, 10, 50}};
  const auto r = c.alltoallv(std::vector<support::cycles_t>(3, 0), bytes);
  EXPECT_EQ(r.messages, 6u);
}

TEST(Comm, PointToPointMatchesIsolatedCost) {
  const auto c = default_comm(2);
  const net::MsgCost mc{c.config().net, c.config().sw};
  EXPECT_EQ(c.point_to_point(4096), mc.isolated(4096));
}

TEST(Comm, InvalidRootRejected) {
  const auto c = default_comm(3);
  EXPECT_THROW(
      (void)c.gather(std::vector<support::cycles_t>(3, 0), 7, {1, 1, 1}),
      support::ContractViolation);
}

TEST(Comm, ControlAllgatherIsCheaperThanDataAllgather) {
  // The plan distribution takes the library's fast path: same messages,
  // no marshalling costs.
  const auto c = default_comm(8);
  const std::vector<support::cycles_t> start(8, 0);
  const auto data = c.allgather(start, 256, /*control=*/false);
  const auto control = c.allgather(start, 256, /*control=*/true);
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

TEST(Comm, SparseAlltoallvMemoSharesEntriesAcrossEntryPoints) {
  const auto c = default_comm(4);
  const std::vector<support::cycles_t> start(4, 0);
  using Traffic = std::vector<std::pair<std::int64_t, std::int64_t>>;
  const Traffic traffic{{1, 64}, {4, 64}, {11, 32}};

  // Cold pattern: the borrowed-view probe misses once, and the miss
  // simulates and installs without probing again.
  (void)c.alltoallv_sparse(start, traffic);
  const auto s1 = c.xfer_cache_stats();
  EXPECT_EQ(s1.misses, 1u);
  EXPECT_EQ(s1.hits, 0u);
  EXPECT_EQ(s1.installs, 1u);

  // Warm repeat: one view-probe hit.
  (void)c.alltoallv_sparse(start, traffic);
  const auto s2 = c.xfer_cache_stats();
  EXPECT_EQ(s2.hits, 1u);
  EXPECT_EQ(s2.misses, 1u);

  // The key is the relative arrival pattern: a uniform shift hits the
  // entry the first call installed.
  (void)c.alltoallv_sparse(std::vector<support::cycles_t>(4, 700), traffic);
  const auto s3 = c.xfer_cache_stats();
  EXPECT_EQ(s3.hits, 2u);
  EXPECT_EQ(s3.installs, 1u);

  // A different byte on one pair is a different pattern: new install.
  Traffic other = traffic;
  other[2].second = 48;
  (void)c.alltoallv_sparse(start, other);
  const auto s4 = c.xfer_cache_stats();
  EXPECT_EQ(s4.installs, 2u);
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

// A memo miss on a uniform complete graph is priced in closed form; each
// near miss below must stay on the event simulation. Either way,
// alltoallv_sparse (and, for uniform traffic, a data allgather) must equal
// net::simulate_exchange on the same spec in every field, and a repeated
// call must be a plain memo hit. The payload and the single fabric link are
// chosen so that each near miss, priced in closed form, would give a
// different result.
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
    if (tc.flat == uniform) {
      const Comm gather_comm(tc.cfg);
      expect_same_result(
          gather_comm.allgather(start, b, /*control=*/false, tc.salt), want,
          tc.name + ": allgather");
    }

    expect_same_result(sparse_comm.alltoallv_sparse(start, traffic, tc.salt),
                       want, tc.name + ": repeat");
    const auto stats = sparse_comm.xfer_cache_stats();
    EXPECT_EQ(stats.misses, 1u) << tc.name;
    EXPECT_EQ(stats.hits, 1u) << tc.name;
    EXPECT_EQ(stats.installs, 1u) << tc.name;
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
  EXPECT_GT(default_comm(64).barrier_cost(), default_comm(4).barrier_cost());
}

}  // namespace
}  // namespace qsm::msg
