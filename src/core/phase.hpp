// The phase pipeline: everything that happens inside a sync().
//
// When the last program lane arrives at the phase barrier, the pipeline
// runs three explicit stages over the queued get/put traffic:
//
//   classify — reduce each active source's queued words to one CSR-style
//       row of (owner, put words, get words) entries, owner-ascending, with
//       the words it owns itself counted apart as local. Ownership comes
//       from SharedStore::for_each_owner at run granularity (closed-form
//       for Block and Cyclic layouts; per-word hashing only for Hashed), so
//       a row costs O(requests + owners touched), not O(p). The
//       bulk-synchrony rule check and kappa tracking run here as sorted
//       interval passes over the request spans — O(requests log requests),
//       not a hash-map probe per word.
//
//   move — execute the semantics: gets copy pre-phase values into their
//       destination buffers (parallel over requesting nodes — each node's
//       destinations are private), then puts apply serially, whole
//       requests in (source rank, enqueue order) order, so the last writer
//       in rank-major order wins. The stage boundary is a worker-pool
//       barrier, which is what makes "reads see pre-phase values" hold
//       under parallelism.
//
//   price — feed the rows through the simulated communication plan, data
//       rounds, and closing tree barrier, and advance every node's
//       simulated clock to the release time.
//
// Every stage costs O(active pairs + p) host work plus the words it copies,
// never O(p^2): a list-ranking round at p = 4096 touches a few thousand
// (source, owner) pairs, not 16.7M matrix cells (DESIGN.md §4).
//
// Host parallelism is confined to classify and the gets, whose outputs are
// exact counts and memory contents; price consumes only those counts.
// Simulated clocks and PhaseStats are therefore byte-identical for any
// worker count — the pipeline is a host-side throughput layer, never a
// model change.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "core/store.hpp"
#include "core/trace.hpp"
#include "msg/comm.hpp"
#include "support/rng.hpp"

namespace qsm::rt {

class Executor;

struct GetReq {
  std::uint32_t array;
  std::uint32_t elem_size;
  std::uint64_t start;
  std::uint64_t count;
  std::byte* dest;
};

struct PutReq {
  std::uint32_t array;
  std::uint64_t start;
  std::uint64_t count;
  std::size_t buf_offset;  // into NodeState::put_buf
};

/// Per-simulated-processor state: the node's clocks, RNG stream, and the
/// request queues the next sync() will drain.
struct NodeState {
  cycles_t now{0};
  cycles_t compute{0};
  cycles_t compute_at_phase_start{0};
  support::Xoshiro256 rng{0};  ///< re-seeded by every run()
  std::vector<GetReq> gets;
  std::vector<PutReq> puts;
  std::vector<std::uint64_t> put_buf;
  std::uint64_t enq_words{0};
};

class PhasePipeline {
 public:
  PhasePipeline(SharedStore& store, const msg::Comm& comm, Executor& exec,
                bool check_rules, bool track_kappa);

  /// Runs one phase: classifies and moves all queued traffic, prices the
  /// exchange, advances every node's clock to the barrier release time,
  /// and clears the queues. `phase_idx` (the run's count of completed
  /// phases) keys the phase's fault draws. Throws ContractViolation on a
  /// bulk-synchrony rule violation (when rule checking is on).
  [[nodiscard]] PhaseStats run_phase(std::vector<NodeState>& nodes,
                                     std::uint64_t phase_idx);

 private:
  /// One classify row entry: remote words the row's source moves to
  /// `owner` this phase.
  struct OwnerTraffic {
    std::int32_t owner;
    std::uint64_t put_w;
    std::uint64_t get_w;
  };

  /// Per-worker-shard owner accumulator: epoch-stamped lazy-zeroed
  /// p-vectors plus the touched-owner list, so accumulating a source with
  /// k active partners costs O(k), not O(p) zero-fill.
  struct OwnerCounter {
    std::vector<std::uint64_t> put_w;
    std::vector<std::uint64_t> get_w;
    std::vector<std::uint32_t> stamp;
    std::uint32_t epoch{0};
    std::vector<std::int32_t> touched;

    void begin(std::size_t p) {
      if (stamp.size() < p) {
        put_w.resize(p);
        get_w.resize(p);
        stamp.assign(p, 0);
        epoch = 0;
      }
      ++epoch;
      if (epoch == 0) {  // wrapped: every stale stamp could collide
        std::fill(stamp.begin(), stamp.end(), 0);
        epoch = 1;
      }
      touched.clear();
    }
    void touch(int o) {
      const auto uo = static_cast<std::size_t>(o);
      if (stamp[uo] != epoch) {
        stamp[uo] = epoch;
        put_w[uo] = 0;
        get_w[uo] = 0;
        touched.push_back(o);
      }
    }
    void add_put(int o, std::uint64_t words) {
      touch(o);
      put_w[static_cast<std::size_t>(o)] += words;
    }
    void add_get(int o, std::uint64_t words) {
      touch(o);
      get_w[static_cast<std::size_t>(o)] += words;
    }
  };

  void classify(const std::vector<NodeState>& nodes, bool spread);
  void check_rules_and_kappa(const std::vector<NodeState>& nodes,
                             PhaseStats& ps) const;
  void move_data(std::vector<NodeState>& nodes, bool spread);
  void price(std::vector<NodeState>& nodes, std::uint64_t phase_idx,
             PhaseStats& ps);

  SharedStore& store_;
  const msg::Comm& comm_;
  Executor& exec_;
  bool check_rules_;
  bool track_kappa_;

  // --- per-phase scratch, reused across phases -----------------------------
  std::vector<int> active_src_;  ///< sources with queued traffic
  /// Per-source classify rows, owner-ascending, self excluded; each keeps
  /// its capacity, so a repeating traffic shape allocates nothing.
  std::vector<std::vector<OwnerTraffic>> rows_;
  std::vector<OwnerCounter> counters_;  ///< one per worker shard
  std::vector<std::uint64_t> local_w_;  ///< locally-owned words per node
  std::vector<std::uint64_t> get_row_;  ///< per-source remote get words
  std::vector<std::uint64_t> recv_w_;   ///< per-owner received words
  /// Round-1 and round-2 (get reply) traffic lists for alltoallv_sparse,
  /// and the per-owner offsets that lay out round 2 owner-major.
  std::vector<std::pair<std::int64_t, std::int64_t>> traffic1_;
  std::vector<std::pair<std::int64_t, std::int64_t>> traffic2_;
  std::vector<std::size_t> reply_off_;
  std::vector<cycles_t> t_ready_;
  std::vector<cycles_t> t_done_;
  /// Pricing-round completion times, reused across phases so the steady
  /// state allocates nothing per phase.
  std::vector<cycles_t> t_plan_;
  std::vector<cycles_t> t1_;
  std::vector<cycles_t> t2_;
};

}  // namespace qsm::rt
