#include "core/collectives.hpp"

#include <gtest/gtest.h>

#include <cstdint>

#include "machine/presets.hpp"

namespace qsm::rt {
namespace {

TEST(Collectives, BroadcastDeliversRootValue) {
  Runtime rt(machine::default_sim(4));
  Collectives coll(rt);
  rt.run([&](Context& ctx) {
    const auto got = coll.broadcast(ctx, 100 + ctx.rank(), /*root=*/2);
    EXPECT_EQ(got, 102);
  });
}

TEST(Collectives, AllreduceSum) {
  Runtime rt(machine::default_sim(8));
  Collectives coll(rt);
  rt.run([&](Context& ctx) {
    const auto got = coll.allreduce_sum(ctx, ctx.rank() + 1);
    EXPECT_EQ(got, 36);  // 1+2+...+8
  });
}

TEST(Collectives, AllreduceMax) {
  Runtime rt(machine::default_sim(5));
  Collectives coll(rt);
  rt.run([&](Context& ctx) {
    const auto got = coll.allreduce_max(ctx, (ctx.rank() * 7) % 5);
    EXPECT_EQ(got, 4);
  });
}

TEST(Collectives, ExscanSum) {
  Runtime rt(machine::default_sim(6));
  Collectives coll(rt);
  rt.run([&](Context& ctx) {
    const auto got = coll.exscan_sum(ctx, 10);
    EXPECT_EQ(got, 10 * ctx.rank());
  });
}

TEST(Collectives, AllgatherOrderedByRank) {
  Runtime rt(machine::default_sim(4));
  Collectives coll(rt);
  rt.run([&](Context& ctx) {
    const auto got = coll.allgather(ctx, ctx.rank() * ctx.rank());
    ASSERT_EQ(got.size(), 4u);
    for (int i = 0; i < 4; ++i) {
      EXPECT_EQ(got[static_cast<std::size_t>(i)], i * i);
    }
  });
}

TEST(Collectives, EachCallIsOnePhaseWithPMinusOnePuts) {
  const int p = 8;
  Runtime rt(machine::default_sim(p));
  Collectives coll(rt);
  const auto result = rt.run([&](Context& ctx) {
    (void)coll.allreduce_sum(ctx, 1);
    (void)coll.broadcast(ctx, 2, 0);
    (void)coll.exscan_sum(ctx, 3);
  });
  EXPECT_EQ(result.phases, 3u);
  for (const auto& ps : result.trace) {
    EXPECT_EQ(ps.m_rw_max, static_cast<std::uint64_t>(p - 1));
  }
}

TEST(Collectives, ChainedOperationsStayConsistent) {
  Runtime rt(machine::default_sim(4));
  Collectives coll(rt);
  rt.run([&](Context& ctx) {
    // Total, then everyone checks the exclusive scan against it.
    const auto total = coll.allreduce_sum(ctx, ctx.rank() + 1);
    const auto before = coll.exscan_sum(ctx, ctx.rank() + 1);
    const auto after = total - before - (ctx.rank() + 1);
    EXPECT_GE(after, 0);
    if (ctx.rank() == ctx.nprocs() - 1) {
      EXPECT_EQ(after, 0);
    }
  });
}

TEST(Collectives, InvalidRootRejected) {
  Runtime rt(machine::default_sim(2));
  Collectives coll(rt);
  EXPECT_THROW(rt.run([&](Context& ctx) {
                 (void)coll.broadcast(ctx, 1, 5);
                 ctx.sync();
               }),
               support::ContractViolation);
}

TEST(Collectives, SingleNodeDegenerates) {
  Runtime rt(machine::default_sim(1));
  Collectives coll(rt);
  rt.run([&](Context& ctx) {
    EXPECT_EQ(coll.allreduce_sum(ctx, 9), 9);
    EXPECT_EQ(coll.exscan_sum(ctx, 9), 0);
    EXPECT_EQ(coll.broadcast(ctx, 5, 0), 5);
  });
}

/// FNV-1a over every RunResult and PhaseStats field.
std::uint64_t run_hash(const RunResult& r) {
  std::uint64_t h = 1469598103934665603ULL;
  const auto mix = [&h](std::uint64_t v) {
    h ^= v;
    h *= 1099511628211ULL;
  };
  mix(static_cast<std::uint64_t>(r.total_cycles));
  mix(static_cast<std::uint64_t>(r.comm_cycles));
  mix(static_cast<std::uint64_t>(r.barrier_cycles));
  mix(static_cast<std::uint64_t>(r.compute_cycles));
  mix(r.phases);
  mix(r.rw_total);
  mix(r.kappa_max);
  mix(r.messages);
  mix(static_cast<std::uint64_t>(r.wire_bytes));
  mix(r.retries);
  mix(r.drops);
  mix(r.duplicates);
  mix(r.replays);
  for (const PhaseStats& ps : r.trace) {
    mix(static_cast<std::uint64_t>(ps.arrival_spread));
    mix(static_cast<std::uint64_t>(ps.exchange_cycles));
    mix(static_cast<std::uint64_t>(ps.barrier_cycles));
    mix(static_cast<std::uint64_t>(ps.m_op_max));
    mix(ps.m_rw_max);
    mix(ps.max_put_words);
    mix(ps.max_get_words);
    mix(ps.rw_total);
    mix(ps.local_words);
    mix(ps.kappa);
    mix(ps.messages);
    mix(static_cast<std::uint64_t>(ps.wire_bytes));
    mix(ps.retries);
    mix(ps.drops);
    mix(ps.duplicates);
    mix(ps.replays);
    mix(ps.p_effective);
  }
  return h;
}

TEST(Collectives, SparseDenseParity) {
  // The transposed cyclic slot matrix turns each collective's outgoing row
  // into two strided put_range spans, which the phase pipeline prices from
  // two closed-form owner runs per source. The hashes were recorded at the
  // last commit that carried a dense p x p traffic form beside the CSR
  // rows, where forcing either form gave these same traces.
  struct Pinned {
    int p;
    std::uint64_t hash;
  };
  for (const Pinned& pin : {Pinned{4, 0x13cb679e9c93b8c1ULL},
                            Pinned{16, 0xb72b247ac079568dULL},
                            Pinned{64, 0xc999e509066ac5bdULL}}) {
    const int p = pin.p;
    Runtime rt(machine::default_sim(p));
    Collectives coll(rt);
    const auto r = rt.run([&](Context& ctx) {
      const auto sum = coll.allreduce_sum(ctx, ctx.rank() + 1);
      EXPECT_EQ(sum, p * (p + 1) / 2);
      (void)coll.broadcast(ctx, ctx.rank(), p - 1);
      (void)coll.exscan_sum(ctx, 2);
      (void)coll.allgather(ctx, ctx.rank() * 3);
    });
    EXPECT_EQ(r.phases, 4u) << "p=" << p;
    EXPECT_EQ(run_hash(r), pin.hash) << "trace diverged at p=" << p;
  }
}

TEST(Collectives, WorksUnderRuleChecking) {
  Runtime rt(machine::default_sim(4), Options{.check_rules = true});
  Collectives coll(rt);
  EXPECT_NO_THROW(rt.run([&](Context& ctx) {
    (void)coll.allreduce_sum(ctx, 1);
    (void)coll.allgather(ctx, 2);
  }));
}

}  // namespace
}  // namespace qsm::rt
