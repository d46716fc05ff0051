// Differential test of the exchange simulation against a naive reference.
//
// reference_exchange() runs the five-stage message pipeline (sender CPU ->
// sender NIC -> optional shared fabric -> wire -> receiver NIC -> receiver
// CPU) as closures on sim::Engine, whose single std::priority_queue pops
// events in (time, seq) order. It shares only the cost formulas (MsgCost,
// hops, FaultModel) and the FIFO Resource with net::simulate_exchange; the
// send ordering, the event queue and the per-attempt state are its own. The
// production simulator must match it field for field, per node, on every
// seeded random spec below.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "net/exchange.hpp"
#include "net/fault.hpp"
#include "sim/engine.hpp"
#include "sim/resource.hpp"
#include "support/rng.hpp"

namespace qsm::net {
namespace {

using support::cycles_t;

ExchangeResult reference_exchange(const NetworkParams& hw,
                                  const SoftwareParams& sw,
                                  const ExchangeSpec& spec) {
  const int p = spec.p;
  const auto up = static_cast<std::size_t>(p);
  const MsgCost cost{hw, sw};
  const FaultModel fault(hw.fault);
  const bool faulty =
      spec.fault_salt != 0 && hw.fault.message_faults_enabled();

  // Per sender: ascending round (dst - src) mod p, or ascending destination
  // for the naive order; ties keep the caller's order.
  std::vector<Transfer> sends = spec.transfers;
  const auto key = [&](const Transfer& t) {
    if (spec.order == ExchangeSpec::SendOrder::FixedTarget) return t.dst;
    return ((t.dst - t.src) % p + p) % p;
  };
  std::stable_sort(sends.begin(), sends.end(),
                   [&](const Transfer& a, const Transfer& b) {
                     if (a.src != b.src) return a.src < b.src;
                     return key(a) < key(b);
                   });

  sim::Engine engine;
  std::vector<sim::Resource> cpu(up);
  std::vector<sim::Resource> tx(up);
  std::vector<sim::Resource> rx(up);
  sim::Resource fabric("fabric");

  ExchangeResult result;
  result.nodes.assign(up, NodeTimings{});
  for (std::size_t i = 0; i < up; ++i) result.nodes[i].finish = spec.start[i];
  const auto note_finish = [&](int node, cycles_t t) {
    auto& f = result.nodes[static_cast<std::size_t>(node)].finish;
    f = std::max(f, t);
  };
  const auto cpu_cost = [&](const Transfer& t, bool sending) {
    if (spec.control) return cost.control_cpu();
    return sending ? cost.send_cpu(t.bytes) : cost.recv_cpu(t.bytes);
  };

  // One attempt's journey after it leaves the sender CPU. `fate` and
  // `flight` belong to the attempt, so every closure captures them by value.
  std::function<void(Transfer, int)> send;
  std::function<void(Transfer, int, MsgFate, cycles_t, cycles_t)> depart;
  const auto transmit = [&](Transfer t, int attempt, MsgFate fate,
                            cycles_t flight) {
    const auto g = tx[static_cast<std::size_t>(t.src)].serve(
        engine.now(), cost.wire_time(t.bytes));
    note_finish(t.src, g.end);
    if (hw.fabric_links > 0) {
      engine.schedule(g.end, [&, t, attempt, fate, flight] {
        const auto f = fabric.serve(engine.now(), cost.fabric_time(t.bytes));
        depart(t, attempt, fate, flight, f.end);
      });
      return;
    }
    depart(t, attempt, fate, flight, g.end);
  };
  depart = [&](Transfer t, int attempt, MsgFate fate, cycles_t flight,
               cycles_t end) {
    if (fate == MsgFate::Drop && attempt < hw.fault.max_attempts) {
      result.drops++;
      result.retries++;
      engine.schedule(end + flight + fault.retry_delay(attempt),
                      [&, t, attempt] { send(t, attempt + 1); });
      return;
    }
    engine.schedule(end + flight, [&, t] {
      const auto g = rx[static_cast<std::size_t>(t.dst)].serve(
          engine.now(), cost.wire_time(t.bytes));
      engine.schedule(g.end, [&, t] {
        const auto r = cpu[static_cast<std::size_t>(t.dst)].serve(
            engine.now(), cpu_cost(t, false));
        note_finish(t.dst, r.end);
      });
    });
  };
  send = [&](Transfer t, int attempt) {
    const auto g = cpu[static_cast<std::size_t>(t.src)].serve(
        engine.now(), cpu_cost(t, true));
    note_finish(t.src, g.end);
    result.messages++;
    result.wire_bytes += t.bytes + sw.msg_header_bytes;
    cycles_t flight = hw.latency * hops(hw.topology, t.src, t.dst, p);
    const MsgFate fate =
        faulty ? fault.message_fate(spec.fault_salt, t.src, t.dst, attempt)
               : MsgFate::Deliver;
    int copies = 1;
    if (fate == MsgFate::Delay) {
      flight += hw.fault.delay_cycles;
    } else if (fate == MsgFate::Duplicate) {
      result.duplicates++;
      result.messages++;
      result.wire_bytes += t.bytes + sw.msg_header_bytes;
      copies = 2;
    }
    for (int c = 0; c < copies; ++c) {
      engine.schedule(g.end, [&, t, attempt, fate, flight] {
        transmit(t, attempt, fate, flight);
      });
    }
  };

  for (const Transfer& t : sends) {
    engine.schedule(spec.start[static_cast<std::size_t>(t.src)],
                    [&, t] { send(t, 1); });
  }
  engine.run();

  for (std::size_t i = 0; i < up; ++i) {
    result.nodes[i].cpu_busy = cpu[i].busy_cycles();
    result.nodes[i].tx_busy = tx[i].busy_cycles();
    result.nodes[i].rx_busy = rx[i].busy_cycles();
    result.finish = std::max(result.finish, result.nodes[i].finish);
  }
  return result;
}

enum class Pattern { Sparse, AllPairs, HotReceiver };

struct Case {
  NetworkParams hw;
  ExchangeSpec spec;
  std::string what;
};

/// A random exchange: p in [1, 64], one of three traffic shapes with mixed
/// sizes (zero-byte messages and repeated pairs included), start vectors
/// with ties, either send order, every topology, fabric_links 0 or 2, and
/// message faults under a nonzero salt on about half the cases. The
/// transfer list arrives either in flat-index order (as every collective
/// builds it) or shuffled.
Case random_case(std::uint64_t seed) {
  support::Xoshiro256 rng(seed);
  const auto below = [&rng](std::uint64_t n) { return rng.below(n); };
  Case c;
  const int p = 1 + static_cast<int>(below(64));
  const auto pattern = static_cast<Pattern>(below(3));
  ExchangeSpec& spec = c.spec;
  spec.p = p;

  const auto size = [&] {
    switch (below(4)) {
      case 0:
        return std::int64_t{0};
      case 1:
        return static_cast<std::int64_t>(below(64));
      case 2:
        return static_cast<std::int64_t>(below(2048));
      default:
        return static_cast<std::int64_t>(below(16384));
    }
  };
  switch (pattern) {
    case Pattern::Sparse:
      for (int i = 0; i < p; ++i) {
        const auto k = below(5);
        for (std::uint64_t m = 0; m < k && p > 1; ++m) {
          int dst = static_cast<int>(below(static_cast<std::uint64_t>(p)));
          if (dst == i) dst = (dst + 1) % p;
          spec.transfers.push_back({i, dst, size()});
        }
      }
      break;
    case Pattern::AllPairs:
      for (int i = 0; i < p; ++i) {
        for (int j = 0; j < p; ++j) {
          if (i != j) spec.transfers.push_back({i, j, size()});
        }
      }
      break;
    case Pattern::HotReceiver: {
      const int hot = static_cast<int>(below(static_cast<std::uint64_t>(p)));
      for (int i = 0; i < p; ++i) {
        if (i != hot) spec.transfers.push_back({i, hot, size()});
        if (below(4) == 0 && p > 1) {
          int dst = static_cast<int>(below(static_cast<std::uint64_t>(p)));
          if (dst == i) dst = (dst + 1) % p;
          spec.transfers.push_back({i, dst, size()});
        }
      }
      break;
    }
  }
  const bool flat_order = below(2) == 0;
  if (flat_order) {
    std::stable_sort(spec.transfers.begin(), spec.transfers.end(),
                     [](const Transfer& a, const Transfer& b) {
                       return a.src != b.src ? a.src < b.src : a.dst < b.dst;
                     });
  } else {
    for (std::size_t k = spec.transfers.size(); k > 1; --k) {
      std::swap(spec.transfers[k - 1], spec.transfers[below(k)]);
    }
  }

  // Few distinct start values, so ties are common.
  const auto spread = below(3);
  for (int i = 0; i < p; ++i) {
    spec.start.push_back(
        static_cast<cycles_t>(below(spread == 0 ? 1 : 4) * (spread * 5000)));
  }
  spec.control = below(4) == 0;
  spec.order = below(3) == 0 ? ExchangeSpec::SendOrder::FixedTarget
                             : ExchangeSpec::SendOrder::Staggered;

  c.hw.topology = static_cast<Topology>(below(3));
  c.hw.fabric_links = below(2) == 0 ? 0 : 2;
  const bool faults = below(2) == 0;
  if (faults) {
    c.hw.fault.drop_prob = 0.15;
    c.hw.fault.dup_prob = 0.1;
    c.hw.fault.delay_prob = 0.1;
    c.hw.fault.max_attempts = 3;
    c.hw.fault.seed = seed;
    spec.fault_salt = FaultModel::exchange_salt(seed, 1, 1, 2);
  }

  c.what = "seed " + std::to_string(seed) + ": p=" + std::to_string(p) +
           " pattern=" + std::to_string(static_cast<int>(pattern)) +
           " msgs=" + std::to_string(spec.transfers.size()) +
           (flat_order ? " flat" : " shuffled") +
           " order=" + std::to_string(static_cast<int>(spec.order)) +
           " topology=" + std::to_string(static_cast<int>(c.hw.topology)) +
           " fabric=" + std::to_string(c.hw.fabric_links) +
           (spec.control ? " control" : "") + (faults ? " faults" : "");
  return c;
}

void expect_same(const ExchangeResult& got, const ExchangeResult& want) {
  EXPECT_EQ(got.finish, want.finish);
  EXPECT_EQ(got.messages, want.messages);
  EXPECT_EQ(got.wire_bytes, want.wire_bytes);
  EXPECT_EQ(got.retries, want.retries);
  EXPECT_EQ(got.drops, want.drops);
  EXPECT_EQ(got.duplicates, want.duplicates);
  ASSERT_EQ(got.nodes.size(), want.nodes.size());
  for (std::size_t i = 0; i < got.nodes.size(); ++i) {
    SCOPED_TRACE("node " + std::to_string(i));
    EXPECT_EQ(got.nodes[i].cpu_busy, want.nodes[i].cpu_busy);
    EXPECT_EQ(got.nodes[i].tx_busy, want.nodes[i].tx_busy);
    EXPECT_EQ(got.nodes[i].rx_busy, want.nodes[i].rx_busy);
    EXPECT_EQ(got.nodes[i].finish, want.nodes[i].finish);
  }
}

TEST(ExchangeReference, MatchesEngineFormulationOnRandomSpecs) {
  const SoftwareParams sw;
  bool saw_faults = false;
  for (std::uint64_t seed = 1; seed <= 240; ++seed) {
    const Case c = random_case(seed);
    SCOPED_TRACE(c.what);
    const ExchangeResult want = reference_exchange(c.hw, sw, c.spec);
    expect_same(simulate_exchange(c.hw, sw, c.spec), want);
    saw_faults = saw_faults || want.retries > 0 || want.duplicates > 0;
    if (::testing::Test::HasFailure()) return;
  }
  EXPECT_TRUE(saw_faults) << "no case exercised a retry or duplicate";
}

// The collectives reach the simulator through the sparse entry point with
// flat-index-ordered traffic; it must price that list exactly as the
// reference prices the equivalent spec.
TEST(ExchangeReference, SparseEntryPointMatchesReference) {
  const SoftwareParams sw;
  for (std::uint64_t seed = 1000; seed < 1060; ++seed) {
    Case c = random_case(seed);
    ExchangeSpec& spec = c.spec;
    spec.order = ExchangeSpec::SendOrder::Staggered;
    spec.control = false;
    std::vector<std::pair<std::int64_t, std::int64_t>> traffic;
    for (const Transfer& t : spec.transfers) {
      if (t.bytes > 0) {
        traffic.emplace_back(static_cast<std::int64_t>(t.src) * spec.p + t.dst,
                             t.bytes);
      }
    }
    std::sort(traffic.begin(), traffic.end());
    traffic.erase(std::unique(traffic.begin(), traffic.end(),
                              [](const auto& a, const auto& b) {
                                return a.first == b.first;
                              }),
                  traffic.end());
    spec.transfers.clear();
    for (const auto& [idx, b] : traffic) {
      spec.transfers.push_back({static_cast<int>(idx / spec.p),
                                static_cast<int>(idx % spec.p), b});
    }
    SCOPED_TRACE(c.what);
    expect_same(simulate_alltoallv_sparse(c.hw, sw, spec.start, traffic,
                                          spec.fault_salt),
                reference_exchange(c.hw, sw, spec));
    if (::testing::Test::HasFailure()) return;
  }
}

}  // namespace
}  // namespace qsm::net
