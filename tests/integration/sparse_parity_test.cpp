// Density sweep of the phase pipeline, pinned to an oracle.
//
// A synthetic program sweeps communication density from one partner per
// node to all-to-all, across seeds, machine sizes and all three layouts.
// Each case must reproduce an FNV-1a over every RunResult and PhaseStats
// field and one over each array's contents. The hashes were recorded at
// the last commit that still carried a dense p x p traffic form beside the
// CSR rows; there, forced-sparse, forced-dense and auto runs of every case
// agreed bit for bit, so each hash is the value all three forms produced.
// A spread variant pushes the same program through the phase-worker pool
// (sharded classify, parallel gets) and must give the same hashes with 1
// and 4 workers.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <iterator>
#include <string>
#include <vector>

#include "core/runtime.hpp"
#include "machine/presets.hpp"

namespace qsm {
namespace {

constexpr std::uint64_t kSeeds[] = {1, 42, 1234};
constexpr int kProcs[] = {16, 64, 256};

struct Fnv {
  std::uint64_t h = 1469598103934665603ULL;
  void mix(std::uint64_t v) {
    h ^= v;
    h *= 1099511628211ULL;
  }
};

std::uint64_t run_hash(const rt::RunResult& r) {
  Fnv f;
  f.mix(static_cast<std::uint64_t>(r.total_cycles));
  f.mix(static_cast<std::uint64_t>(r.comm_cycles));
  f.mix(static_cast<std::uint64_t>(r.barrier_cycles));
  f.mix(static_cast<std::uint64_t>(r.compute_cycles));
  f.mix(r.phases);
  f.mix(r.rw_total);
  f.mix(r.kappa_max);
  f.mix(r.messages);
  f.mix(static_cast<std::uint64_t>(r.wire_bytes));
  f.mix(r.retries);
  f.mix(r.drops);
  f.mix(r.duplicates);
  f.mix(r.replays);
  for (const rt::PhaseStats& ps : r.trace) {
    f.mix(static_cast<std::uint64_t>(ps.arrival_spread));
    f.mix(static_cast<std::uint64_t>(ps.exchange_cycles));
    f.mix(static_cast<std::uint64_t>(ps.barrier_cycles));
    f.mix(static_cast<std::uint64_t>(ps.m_op_max));
    f.mix(ps.m_rw_max);
    f.mix(ps.max_put_words);
    f.mix(ps.max_get_words);
    f.mix(ps.rw_total);
    f.mix(ps.local_words);
    f.mix(ps.kappa);
    f.mix(ps.messages);
    f.mix(static_cast<std::uint64_t>(ps.wire_bytes));
    f.mix(ps.retries);
    f.mix(ps.drops);
    f.mix(ps.duplicates);
    f.mix(ps.replays);
    f.mix(ps.p_effective);
  }
  return f.h;
}

std::uint64_t data_hash(const std::vector<std::int64_t>& v) {
  Fnv f;
  for (const std::int64_t x : v) f.mix(static_cast<std::uint64_t>(x));
  return f.h;
}

/// The hashes one run is checked on.
struct Outcome {
  std::uint64_t run;
  std::uint64_t block;
  std::uint64_t cyclic;
  std::uint64_t hashed;
};

/// Four-phase synthetic program with a tunable partner count per node:
///   1. Block puts into `partners` pseudo-random partners' chunks plus one
///      locally-owned put (local_w_ coverage);
///   2. Block gets from the same partners plus a Cyclic put that fans each
///      source over min(region, p) owners;
///   3. Hashed puts derived from the phase-2 get results (data flows
///      through the pipeline, so content divergence would surface) plus
///      Cyclic gets;
///   4. a straggler phase where only every fourth node sends one word —
///      the active-source list at its sparsest.
/// The partner stride 11 is coprime to p - 1 for every p in kProcs, so the
/// k-th partner offsets are distinct and requests never merge into one run.
Outcome run_density(int p, std::uint64_t seed, int partners,
                    std::uint64_t region, int host_workers = 1) {
  partners = std::clamp(partners, 1, p - 1);
  rt::Options opts;
  opts.seed = seed;
  opts.check_rules = true;
  opts.track_kappa = true;
  opts.host_workers = host_workers;
  rt::Runtime runtime(machine::default_sim(p), opts);
  const std::uint64_t n = static_cast<std::uint64_t>(p) * region;
  auto a = runtime.alloc<std::int64_t>(n, rt::Layout::Block, "a");
  auto c = runtime.alloc<std::int64_t>(n, rt::Layout::Cyclic, "c");
  auto h = runtime.alloc<std::int64_t>(n, rt::Layout::Hashed, "h");

  auto timing = runtime.run([&](rt::Context& ctx) {
    const int i = ctx.rank();
    const auto base = static_cast<std::uint64_t>(i) * region;
    const auto partner = [&](int k) {
      return (i + 1 + (k * 11) % (p - 1)) % p;
    };
    std::vector<std::int64_t> buf(region);
    std::vector<std::int64_t> in(region *
                                 static_cast<std::uint64_t>(partners));

    for (int k = 0; k < partners; ++k) {
      const auto j = static_cast<std::uint64_t>(partner(k));
      for (std::uint64_t t = 0; t < region; ++t) {
        buf[t] = static_cast<std::int64_t>(
            (seed ^ (j * region + t)) * 1000003 + static_cast<unsigned>(i));
      }
      ctx.put_range(a, j * region, region, buf.data());
    }
    for (std::uint64_t t = 0; t < region; ++t) {
      buf[t] = static_cast<std::int64_t>(base + t);
    }
    ctx.put_range(a, base, region, buf.data());
    ctx.sync();

    for (int k = 0; k < partners; ++k) {
      ctx.get_range(a, static_cast<std::uint64_t>(partner(k)) * region,
                    region, in.data() + static_cast<std::uint64_t>(k) * region);
    }
    for (std::uint64_t t = 0; t < region; ++t) {
      buf[t] = static_cast<std::int64_t>(base * 31 + t * 7);
    }
    ctx.put_range(c, base, region, buf.data());
    ctx.sync();

    for (std::uint64_t t = 0; t < region; ++t) {
      buf[t] = in[t % in.size()] + static_cast<std::int64_t>(t);
    }
    ctx.put_range(h, base, region, buf.data());
    ctx.get_range(c, static_cast<std::uint64_t>((i + 1) % p) * region,
                  region, in.data());
    ctx.sync();

    if (i % 4 == 0) {
      const std::int64_t one = i;
      ctx.put_range(a, static_cast<std::uint64_t>(partner(0)) * region, 1,
                    &one);
    }
    ctx.sync();
  });

  return {run_hash(timing), data_hash(runtime.host_read(a)),
          data_hash(runtime.host_read(c)), data_hash(runtime.host_read(h))};
}

struct PinnedCase {
  std::uint64_t seed;
  int p;
  int partners;
  Outcome want;
};

// kSeeds x kProcs x partners {1, 4, p/8, p/2, p-1}, in that loop order,
// region 8, one worker.
constexpr PinnedCase kSweep[] = {
    {1, 16, 1, {0x95a9c42cd3db2667ULL, 0xf9986d31498a28f3ULL,
                0x42675683023bf703ULL, 0x0f3a4a8960358b93ULL}},
    {1, 16, 4, {0x6dd47ea94506a29aULL, 0x2fa1b9b8a31b0d23ULL,
                0x42675683023bf703ULL, 0xa752ac675c6be7c3ULL}},
    {1, 16, 2, {0x39ed84317abfca68ULL, 0xe66d72a785b9e1e7ULL,
                0x42675683023bf703ULL, 0x435586ce34a245c3ULL}},
    {1, 16, 8, {0x1041cbae12030c58ULL, 0x2fe38d01115e07c3ULL,
                0x42675683023bf703ULL, 0x50ae6f24b078f853ULL}},
    {1, 16, 15, {0x40f81798dd2ba875ULL, 0x7ecf0135ba5771b3ULL,
                 0x42675683023bf703ULL, 0x2ca0d0f8f81f8a33ULL}},
    {1, 64, 1, {0x095e413f13625daeULL, 0xb69ee9e223b85e13ULL,
                0x91eba642e81b6983ULL, 0xbb248b2a19b7d5d3ULL}},
    {1, 64, 4, {0xb050dcd08bcfe9b7ULL, 0x2f41ad724ac61174ULL,
                0x91eba642e81b6983ULL, 0x94fee7979091e8a3ULL}},
    {1, 64, 8, {0xf032c4ab2c6497afULL, 0xca70a3ae75b39144ULL,
                0x91eba642e81b6983ULL, 0x8ab51f0165157343ULL}},
    {1, 64, 32, {0x65ce5395b0f1035bULL, 0x969afec27860045bULL,
                 0x91eba642e81b6983ULL, 0xc6f027b81a60e663ULL}},
    {1, 64, 63, {0x6936d93133805e84ULL, 0xfc15a89635fa6313ULL,
                 0x91eba642e81b6983ULL, 0x780f014810271b73ULL}},
    {1, 256, 1, {0xff574196911ad225ULL, 0x58246525531f2713ULL,
                 0xa37d9657fb467b83ULL, 0x86910dc7d54515d3ULL}},
    {1, 256, 4, {0xab43be0f95c23a88ULL, 0xa22803bc5ac500b4ULL,
                 0xa37d9657fb467b83ULL, 0xcabaccecf44c5623ULL}},
    {1, 256, 32, {0xd55f02a4081d4ba4ULL, 0xf5dd1207aef4f727ULL,
                  0xa37d9657fb467b83ULL, 0x35480f93a34cb6a3ULL}},
    {1, 256, 128, {0x0bd25e6e1df39e94ULL, 0xebd644e3bf8b1019ULL,
                   0xa37d9657fb467b83ULL, 0xb9324e21bb3da7e3ULL}},
    {1, 256, 255, {0x2d2b9cbc07f9a243ULL, 0x05984a78f9c0b713ULL,
                   0xa37d9657fb467b83ULL, 0x5568cfcd25ee5473ULL}},
    {42, 16, 1, {0x6541d4af31c66993ULL, 0x9b14fa3791fe519bULL,
                 0x42675683023bf703ULL, 0xfb26fb75619708cbULL}},
    {42, 16, 4, {0x90bbcc66aa74cd36ULL, 0x39279067ae451d48ULL,
                 0x42675683023bf703ULL, 0xbde95c07c2289c5bULL}},
    {42, 16, 2, {0x173e297d70261e70ULL, 0x9bcd8c5e10fba14cULL,
                 0x42675683023bf703ULL, 0x3750982b08e5f40bULL}},
    {42, 16, 8, {0x715098fe011770dcULL, 0x5e022119d7c7ed8bULL,
                 0x42675683023bf703ULL, 0xcd583d2616d40b5bULL}},
    {42, 16, 15, {0xa71674cb79198c4dULL, 0xbef8b2301f578c3bULL,
                  0x42675683023bf703ULL, 0x920202e43429372bULL}},
    {42, 64, 1, {0x7bbf27dff08a8de8ULL, 0xd5b2f9c92be5873bULL,
                 0x91eba642e81b6983ULL, 0x36ed369a6298556bULL}},
    {42, 64, 4, {0x821610ea4413dcedULL, 0xf3257e4ffa0a7abdULL,
                 0x91eba642e81b6983ULL, 0xc58fdf296717254bULL}},
    {42, 64, 8, {0x4c52a4a7babb311dULL, 0x3ecab1794ca05a1eULL,
                 0x91eba642e81b6983ULL, 0xb5cf88654198a34bULL}},
    {42, 64, 32, {0x51622d2576228029ULL, 0x1e71ad741dbe08e3ULL,
                  0x91eba642e81b6983ULL, 0xe3374272276bc653ULL}},
    {42, 64, 63, {0x464326e4e16e62beULL, 0xc45be98f73f897dbULL,
                  0x91eba642e81b6983ULL, 0xb1c185feec28dacbULL}},
    {42, 256, 1, {0x0b3ed2d68fca4d5dULL, 0x150f32c6ea53f13bULL,
                  0xa37d9657fb467b83ULL, 0x2b98321cf3deee6bULL}},
    {42, 256, 4, {0x63f4ae8070f30fb8ULL, 0x08bd02ffda5582fdULL,
                  0xa37d9657fb467b83ULL, 0x57e109eefa5b74cbULL}},
    {42, 256, 32, {0x70842f4f162fb374ULL, 0x3503ef547e51a24fULL,
                   0xa37d9657fb467b83ULL, 0x982c6f0d4f8d338bULL}},
    {42, 256, 128, {0xad8193cb9bba3c74ULL, 0x5aa685036d4f8e1dULL,
                    0xa37d9657fb467b83ULL, 0xc92bd2f661b4247bULL}},
    {42, 256, 255, {0xd2015f2fb4dba5dfULL, 0x243b22f692094e5bULL,
                    0xa37d9657fb467b83ULL, 0x1f9df45acb7089cbULL}},
    {1234, 16, 1, {0x4f5d59d39e4471ddULL, 0xea5161892b59634bULL,
                   0x42675683023bf703ULL, 0xfa3ddcdd9b915e1bULL}},
    {1234, 16, 4, {0x7f0af0a3d79ad350ULL, 0x41a876eecc395890ULL,
                   0x42675683023bf703ULL, 0x96a40783880e8eabULL}},
    {1234, 16, 2, {0x824b870770658176ULL, 0x62190807c649cfb4ULL,
                   0x42675683023bf703ULL, 0xbdcc67d48831f81bULL}},
    {1234, 16, 8, {0x626c869a1f66e252ULL, 0x60ff8085c80804ebULL,
                   0x42675683023bf703ULL, 0x1b44ea4eb75f408bULL}},
    {1234, 16, 15, {0x3d5d646ead039d63ULL, 0xf3f9edb8a3c699cbULL,
                    0x42675683023bf703ULL, 0x9061c4179c2c1b5bULL}},
    {1234, 64, 1, {0x0edaa678cce2b998ULL, 0x071e07660c76a64bULL,
                   0x91eba642e81b6983ULL, 0xf4835090f24e2f5bULL}},
    {1234, 64, 4, {0xa18a9e696a4ec969ULL, 0xbcceb6d92be5df25ULL,
                   0x91eba642e81b6983ULL, 0x48f53a0d528d60fbULL}},
    {1234, 64, 8, {0xf9f7a9c6266c3f81ULL, 0x3f5de28f296e57ceULL,
                   0x91eba642e81b6983ULL, 0x8912fa803ac37afbULL}},
    {1234, 64, 32, {0x5ad2db1ab68a462dULL, 0x1ead4df74aad5283ULL,
                    0x91eba642e81b6983ULL, 0xd49429bf1ebeba73ULL}},
    {1234, 64, 63, {0xbcb8d6c92d2f12c6ULL, 0x0681b4652602e70bULL,
                    0x91eba642e81b6983ULL, 0xb32e67597479595bULL}},
    {1234, 256, 1, {0x3afe86843cefacd4ULL, 0x33c6cf9f7edd2e4bULL,
                    0xa37d9657fb467b83ULL, 0x66e60642023f90dbULL}},
    {1234, 256, 4, {0x7f8bb1b4478f6c1dULL, 0x642509a20e34bfe5ULL,
                    0xa37d9657fb467b83ULL, 0x85a498817b0156fbULL}},
    {1234, 256, 32, {0x5fca421f364dc8f1ULL, 0x36e0ba57ed7a35cfULL,
                     0xa37d9657fb467b83ULL, 0x00decd95e4dc173bULL}},
    {1234, 256, 128, {0x138713b08bc69591ULL, 0xaacfacf33a2888bdULL,
                      0xa37d9657fb467b83ULL, 0xab64d1cdab5b6d6bULL}},
    {1234, 256, 255, {0x354ed2e4a9db8a1aULL, 0xc1999f2c5f52778bULL,
                      0xa37d9657fb467b83ULL, 0x18e2fe6dc5d85c5bULL}},
};

// p = 16, partners 4, region 512.
struct PinnedSpread {
  std::uint64_t seed;
  Outcome want;
};
constexpr PinnedSpread kSpread[] = {
    {1, {0x1f3624f3dfd5d7f3ULL, 0xfbd63a54c0ed15d3ULL,
           0x1eba08d9a0452383ULL, 0x1b0eaf860bb51383ULL}},
    {42, {0xeba640f13f11facdULL, 0x3574c7a05f6e4a88ULL,
            0x1eba08d9a0452383ULL, 0xa6b3658120312183ULL}},
};

void expect_outcome(const Outcome& got, const Outcome& want,
                    const std::string& what) {
  EXPECT_EQ(got.run, want.run) << what << ": trace diverged";
  EXPECT_EQ(got.block, want.block) << what << ": block array diverged";
  EXPECT_EQ(got.cyclic, want.cyclic) << what << ": cyclic array diverged";
  EXPECT_EQ(got.hashed, want.hashed) << what << ": hashed array diverged";
}

TEST(SparseParity, DensitySweepMatchesPinnedHashes) {
  std::size_t k = 0;
  for (const std::uint64_t seed : kSeeds) {
    for (const int p : kProcs) {
      for (const int partners : {1, 4, p / 8, p / 2, p - 1}) {
        const std::string what = "p=" + std::to_string(p) +
                                 " partners=" + std::to_string(partners) +
                                 " seed=" + std::to_string(seed);
        ASSERT_LT(k, std::size(kSweep)) << what;
        const PinnedCase& pin = kSweep[k++];
        ASSERT_EQ(pin.seed, seed) << what;
        ASSERT_EQ(pin.p, p) << what;
        ASSERT_EQ(pin.partners, partners) << what;
        expect_outcome(run_density(p, seed, partners, 8), pin.want, what);
      }
    }
  }
  EXPECT_EQ(k, std::size(kSweep));
}

TEST(SparseParity, SpreadPhasesMatchPinnedHashesForAnyWorkerCount) {
  // Enough queued words (16 * 5 * 512 = 40960 >= the spread threshold)
  // that classify and the gets run on the phase-worker pool, exercising
  // the sharded owner counters.
  for (const PinnedSpread& pin : kSpread) {
    for (const int workers : {1, 4}) {
      const std::string what = "spread seed=" + std::to_string(pin.seed) +
                               " workers=" + std::to_string(workers);
      expect_outcome(run_density(16, pin.seed, 4, 512, workers), pin.want,
                     what);
    }
  }
}

}  // namespace
}  // namespace qsm
