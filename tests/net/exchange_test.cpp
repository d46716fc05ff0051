#include "net/exchange.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <tuple>

namespace qsm::net {
namespace {

NetworkParams default_hw() { return NetworkParams{}; }
SoftwareParams default_sw() { return SoftwareParams{}; }

TEST(Exchange, SingleMessageMatchesIsolatedAlgebra) {
  const auto hw = default_hw();
  const auto sw = default_sw();
  ExchangeSpec spec;
  spec.p = 2;
  spec.start = {0, 0};
  spec.transfers = {{0, 1, 1024}};
  const auto r = simulate_exchange(hw, sw, spec);
  const MsgCost cost{hw, sw};
  EXPECT_EQ(r.finish, cost.isolated(1024));
  EXPECT_EQ(r.messages, 1u);
  EXPECT_EQ(r.wire_bytes, 1024 + sw.msg_header_bytes);
  EXPECT_EQ(r.nodes[0].tx_busy, cost.wire_time(1024));
  EXPECT_EQ(r.nodes[1].rx_busy, cost.wire_time(1024));
}

TEST(Exchange, EmptyExchangeFinishesAtMaxStart) {
  ExchangeSpec spec;
  spec.p = 3;
  spec.start = {5, 42, 17};
  const auto r = simulate_exchange(default_hw(), default_sw(), spec);
  EXPECT_EQ(r.finish, 42);
  EXPECT_EQ(r.messages, 0u);
  EXPECT_EQ(r.nodes[0].finish, 5);
  EXPECT_EQ(r.nodes[1].finish, 42);
  EXPECT_EQ(r.nodes[2].finish, 17);
}

TEST(Exchange, StartTimesDelaySends) {
  const auto hw = default_hw();
  const auto sw = default_sw();
  ExchangeSpec spec;
  spec.p = 2;
  spec.start = {1000, 0};
  spec.transfers = {{0, 1, 64}};
  const auto r = simulate_exchange(hw, sw, spec);
  EXPECT_EQ(r.finish, 1000 + (MsgCost{hw, sw}.isolated(64)));
}

TEST(Exchange, TwoSendersSerializeAtReceiver) {
  const auto hw = default_hw();
  const auto sw = default_sw();
  ExchangeSpec spec;
  spec.p = 3;
  spec.start = {0, 0, 0};
  spec.transfers = {{0, 2, 4096}, {1, 2, 4096}};
  const auto r = simulate_exchange(hw, sw, spec);
  const MsgCost cost{hw, sw};
  // Both messages arrive nearly simultaneously; node 2's rx NIC and CPU
  // must process them back to back, so completion exceeds a single
  // isolated message by at least one extra receive pipeline stage.
  EXPECT_GE(r.finish, cost.isolated(4096) + cost.recv_cpu(4096));
  EXPECT_EQ(r.nodes[2].rx_busy, 2 * cost.wire_time(4096));
  EXPECT_EQ(r.nodes[2].cpu_busy, 2 * cost.recv_cpu(4096));
}

TEST(Exchange, SenderCpuSerializesItsOwnSends) {
  const auto hw = default_hw();
  const auto sw = default_sw();
  ExchangeSpec spec;
  spec.p = 3;
  spec.start = {0, 0, 0};
  spec.transfers = {{0, 1, 2048}, {0, 2, 2048}};
  const auto r = simulate_exchange(hw, sw, spec);
  const MsgCost cost{hw, sw};
  EXPECT_EQ(r.nodes[0].cpu_busy, 2 * cost.send_cpu(2048));
  // The second message cannot finish before two send-CPU slots plus its
  // pipeline.
  EXPECT_GE(r.finish, 2 * cost.send_cpu(2048) + cost.wire_time(2048) +
                          hw.latency + cost.wire_time(2048) +
                          cost.recv_cpu(2048));
}

TEST(Exchange, SelfTransferIsRejected) {
  ExchangeSpec spec;
  spec.p = 2;
  spec.start = {0, 0};
  spec.transfers = {{1, 1, 8}};
  EXPECT_THROW(simulate_exchange(default_hw(), default_sw(), spec),
               support::ContractViolation);
}

TEST(Exchange, BadSpecsAreRejected) {
  ExchangeSpec spec;
  spec.p = 2;
  spec.start = {0};  // wrong size
  EXPECT_THROW(simulate_exchange(default_hw(), default_sw(), spec),
               support::ContractViolation);
  spec.start = {0, -1};
  EXPECT_THROW(simulate_exchange(default_hw(), default_sw(), spec),
               support::ContractViolation);
  spec.start = {0, 0};
  spec.transfers = {{0, 5, 8}};
  EXPECT_THROW(simulate_exchange(default_hw(), default_sw(), spec),
               support::ContractViolation);
}

TEST(Exchange, DeterministicAcrossRuns) {
  const auto hw = default_hw();
  const auto sw = default_sw();
  ExchangeSpec spec;
  spec.p = 8;
  spec.start.assign(8, 0);
  for (int i = 0; i < 8; ++i) {
    for (int j = 0; j < 8; ++j) {
      if (i != j) spec.transfers.push_back({i, j, 128 * (i + 1)});
    }
  }
  const auto a = simulate_exchange(hw, sw, spec);
  const auto b = simulate_exchange(hw, sw, spec);
  EXPECT_EQ(a.finish, b.finish);
  for (std::size_t i = 0; i < 8; ++i) {
    EXPECT_EQ(a.nodes[i].finish, b.nodes[i].finish);
    EXPECT_EQ(a.nodes[i].cpu_busy, b.nodes[i].cpu_busy);
  }
}

TEST(Exchange, MoreBytesNeverFinishEarlier) {
  const auto hw = default_hw();
  const auto sw = default_sw();
  support::cycles_t prev = 0;
  for (std::int64_t b : {64, 256, 1024, 4096, 16384}) {
    std::vector<std::vector<std::int64_t>> bytes(
        4, std::vector<std::int64_t>(4, b));
    for (int i = 0; i < 4; ++i) bytes[static_cast<std::size_t>(i)][static_cast<std::size_t>(i)] = 0;
    const auto r = simulate_alltoallv(hw, sw, std::vector<support::cycles_t>(4, 0), bytes);
    EXPECT_GT(r.finish, prev);
    prev = r.finish;
  }
}

TEST(Exchange, SparseAlltoallvMatchesDenseMatrix) {
  const auto hw = default_hw();
  const auto sw = default_sw();
  // A handful of patterns from near-empty to full: the sparse entry point
  // must schedule exactly the messages the matrix form extracts.
  for (const int fill : {1, 3, 7}) {
    const std::size_t p = 8;
    std::vector<std::vector<std::int64_t>> bytes(
        p, std::vector<std::int64_t>(p, 0));
    std::vector<std::pair<std::int64_t, std::int64_t>> traffic;
    for (std::size_t i = 0; i < p; ++i) {
      for (std::size_t j = 0; j < p; ++j) {
        if (i == j || (i * p + j) % static_cast<std::size_t>(fill + 1) != 0) {
          continue;
        }
        const auto b = static_cast<std::int64_t>(64 * (i + 2 * j + 1));
        bytes[i][j] = b;
        traffic.emplace_back(static_cast<std::int64_t>(i * p + j), b);
      }
    }
    std::vector<support::cycles_t> start(p);
    for (std::size_t i = 0; i < p; ++i) {
      start[i] = static_cast<support::cycles_t>((i * 37) % 5) * 100;
    }
    const auto dense = simulate_alltoallv(hw, sw, start, bytes);
    const auto sparse = simulate_alltoallv_sparse(hw, sw, start, traffic);
    ASSERT_EQ(dense.nodes.size(), sparse.nodes.size()) << "fill=" << fill;
    EXPECT_EQ(dense.finish, sparse.finish) << "fill=" << fill;
    EXPECT_EQ(dense.messages, sparse.messages) << "fill=" << fill;
    EXPECT_EQ(dense.wire_bytes, sparse.wire_bytes) << "fill=" << fill;
    for (std::size_t i = 0; i < p; ++i) {
      EXPECT_EQ(dense.nodes[i].finish, sparse.nodes[i].finish);
      EXPECT_EQ(dense.nodes[i].cpu_busy, sparse.nodes[i].cpu_busy);
      EXPECT_EQ(dense.nodes[i].tx_busy, sparse.nodes[i].tx_busy);
      EXPECT_EQ(dense.nodes[i].rx_busy, sparse.nodes[i].rx_busy);
    }
  }
}

// The closed form replaces the event heap for uniform all-pairs exchanges:
// the per-phase plan allgather (control) and all-pairs data rounds such as
// list ranking's count broadcast. simulate_exchange on the same complete
// graph is its oracle, field for field. The arrival patterns below drive
// every evaluation strategy: the O(p) collapsed schedule for sorted
// low-jitter arrivals (taken only when w >= c, which data reaches only on
// the wide-wire machine), the O(p^2) FIFO fold for unsorted ones, and the
// interference pass for wide spreads.
TEST(UniformAllPairs, MatchesEventSimulationAcrossArrivalPatterns) {
  struct Machine {
    const char* name;
    NetworkParams hw;
    SoftwareParams sw;
  };
  std::vector<Machine> machines{{"default", default_hw(), default_sw()}};
  Machine wide{"wide-wire", default_hw(), default_sw()};
  wide.hw.gap_cpb = 8.0;  // w >= c for data as well as control
  wide.hw.overhead = 100;
  wide.sw.per_message_cpu = 100;
  wide.sw.copy_cpb = 1.0;
  machines.push_back(wide);

  for (const Machine& m : machines) {
    for (const bool control : {true, false}) {
      for (const int p : {2, 3, 4, 8, 16, 33}) {
        const std::int64_t bytes = 16 * p;
        const MsgCost cost{m.hw, m.sw};
        const support::cycles_t c =
            control ? cost.control_cpu() : cost.send_cpu(bytes);
        const support::cycles_t u = std::max(c, cost.wire_time(bytes));
        const auto up = static_cast<std::size_t>(p);
        std::vector<std::vector<support::cycles_t>> patterns;
        const auto ramp = [&](support::cycles_t step) {
          std::vector<support::cycles_t> s(up);
          for (std::size_t i = 0; i < up; ++i) {
            s[i] = static_cast<support::cycles_t>(i) * step;
          }
          return s;
        };
        patterns.push_back(std::vector<support::cycles_t>(up, 0));  // ties
        patterns.push_back(ramp(100));    // sorted, tight: collapsed schedule
        patterns.push_back(ramp(450));    // adjacent gaps near a u boundary
        patterns.push_back(ramp(u));      // adjacent gaps exactly u
        patterns.push_back(ramp(u + 1));  // one cycle past u
        patterns.push_back(ramp(5000));   // wide spread: interference pass
        std::vector<support::cycles_t> spikes(up, 0);
        for (std::size_t i = 1; i < up; i += 2) spikes[i] = 1900;  // unsorted
        patterns.push_back(std::move(spikes));
        std::vector<support::cycles_t> straggler(up, 0);
        straggler[up - 1] = 50'000;  // one late node past the window
        patterns.push_back(std::move(straggler));
        std::vector<support::cycles_t> jitter(up);
        for (std::size_t i = 0; i < up; ++i) {
          jitter[i] = static_cast<support::cycles_t>((i * 929) % 1400);
        }
        patterns.push_back(std::move(jitter));

        for (std::size_t pat = 0; pat < patterns.size(); ++pat) {
          ExchangeSpec spec;
          spec.p = p;
          spec.start = patterns[pat];
          spec.control = control;
          for (int i = 0; i < p; ++i) {
            for (int j = 0; j < p; ++j) {
              if (i != j) spec.transfers.push_back({i, j, bytes});
            }
          }
          const auto des = simulate_exchange(m.hw, m.sw, spec);
          const auto fast = simulate_uniform_all_pairs(
              m.hw, m.sw, patterns[pat], bytes, control);
          SCOPED_TRACE(std::string(m.name) + (control ? " control" : " data") +
                       " p=" + std::to_string(p) +
                       " pattern=" + std::to_string(pat));
          EXPECT_EQ(des.finish, fast.finish);
          EXPECT_EQ(des.messages, fast.messages);
          EXPECT_EQ(des.wire_bytes, fast.wire_bytes);
          EXPECT_EQ(des.retries, fast.retries);
          EXPECT_EQ(des.drops, fast.drops);
          EXPECT_EQ(des.duplicates, fast.duplicates);
          ASSERT_EQ(des.nodes.size(), fast.nodes.size());
          for (std::size_t i = 0; i < up; ++i) {
            SCOPED_TRACE("node " + std::to_string(i));
            EXPECT_EQ(des.nodes[i].finish, fast.nodes[i].finish);
            EXPECT_EQ(des.nodes[i].cpu_busy, fast.nodes[i].cpu_busy);
            EXPECT_EQ(des.nodes[i].tx_busy, fast.nodes[i].tx_busy);
            EXPECT_EQ(des.nodes[i].rx_busy, fast.nodes[i].rx_busy);
          }
        }
      }
    }
  }
}

struct SweepParam {
  double gap;
  support::cycles_t overhead;
  support::cycles_t latency;
};

class ExchangeMonotonicity : public ::testing::TestWithParam<SweepParam> {};

TEST_P(ExchangeMonotonicity, SlowerHardwareNeverFinishesEarlier) {
  const SweepParam sp = GetParam();
  NetworkParams base;
  NetworkParams worse;
  worse.gap_cpb = base.gap_cpb + sp.gap;
  worse.overhead = base.overhead + sp.overhead;
  worse.latency = base.latency + sp.latency;
  const SoftwareParams sw;

  ExchangeSpec spec;
  spec.p = 4;
  spec.start.assign(4, 0);
  for (int i = 0; i < 4; ++i)
    for (int j = 0; j < 4; ++j)
      if (i != j) spec.transfers.push_back({i, j, 512});

  const auto fast = simulate_exchange(base, sw, spec);
  const auto slow = simulate_exchange(worse, sw, spec);
  EXPECT_GE(slow.finish, fast.finish);
}

INSTANTIATE_TEST_SUITE_P(
    HardwareSweep, ExchangeMonotonicity,
    ::testing::Values(SweepParam{1.0, 0, 0}, SweepParam{0, 400, 0},
                      SweepParam{0, 0, 3200}, SweepParam{5.0, 1000, 10000},
                      SweepParam{0.5, 100, 100}));

}  // namespace
}  // namespace qsm::net
