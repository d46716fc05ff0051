// The phase pipeline: everything that happens inside a sync().
//
// When the last program lane arrives at the phase barrier, the pipeline
// runs three explicit stages over the queued get/put traffic:
//
//   classify — resolve every queued word to its owning node and reduce the
//       traffic to per-(source, owner) word counts. Ownership is resolved
//       at run granularity through the SharedStore's cached resolvers
//       (closed-form for Block and Cyclic layouts; per-word hashing only
//       for Hashed). The bulk-synchrony rule check and kappa tracking run
//       here as sorted interval passes over the request spans —
//       O(requests log requests), not a hash-map probe per word.
//
//   move — execute the semantics: gets copy pre-phase values into their
//       destination buffers (parallel over requesting nodes — each node's
//       destinations are private), then puts apply in (source rank,
//       enqueue order) order, so the last writer in rank-major order wins.
//       Dense phases copy whole put requests serially in that order, at
//       O(requests + words); sparse phases move classify's put runs
//       owner-partitioned on the worker pool, each owner's runs in that
//       order. The stage boundary is a worker-pool barrier, which is what
//       makes "reads see pre-phase values" hold under parallelism.
//
//   price — feed the per-(source, owner) counts through the simulated
//       communication plan, data rounds, and closing tree barrier, and
//       advance every node's simulated clock to the release time.
//
// Traffic representation (DESIGN.md §4): the per-(source, owner) counts
// live in one of two host-side forms, chosen per phase:
//
//   sparse — classify emits CSR-style per-source lists of (owner, put
//       words, get words) entries built from the run-coalesced request
//       spans, plus owner-partitioned put runs for the move stage. Every
//       stage then costs O(active pairs + p), not O(p^2): a list-ranking
//       round at p = 4096 touches a few thousand pairs, not 16.7M matrix
//       cells.
//   dense — the classic p x p word matrices. A cheap pre-pass bounds the
//       phase's active pairs from the request spans (O(1) per request) and
//       falls back to dense when the bound exceeds p^2/4, so all-to-all
//       phases like sample sort's key exchange never regress to
//       list-walking overhead. The p^2 matrices are allocated lazily, on
//       the first dense phase — a sparse-only run at p = 4096 never pays
//       the half-gigabyte footprint.
//
// The choice is host-side only. Both forms hold identical integer counts,
// price() derives identical byte totals in identical (row-major) order, and
// both feed the same memoized collectives with byte-identical keys — so
// simulated clocks, PhaseStats, and memory contents are bit-identical
// between the forms by construction. Options::traffic can force either
// form; the parity suite sweeps density and asserts trace equality.
//
// Host parallelism is confined to classify and move, whose outputs are
// exact counts and memory contents; price consumes only those counts.
// Simulated clocks and PhaseStats are therefore byte-identical for any
// worker count — the pipeline is a host-side throughput layer, never a
// model change.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
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
  std::unique_ptr<support::Xoshiro256> rng;
  std::vector<GetReq> gets;
  std::vector<PutReq> puts;
  std::vector<std::uint64_t> put_buf;
  std::uint64_t enq_words{0};
  std::uint64_t phase_count{0};
};

/// Host-side representation of a phase's per-(source, owner) traffic.
/// Auto picks per phase from the pre-pass density bound; Sparse/Dense
/// force one form for every phase. Purely a host-throughput knob: every
/// mode produces bit-identical traces (see the file comment).
enum class TrafficMode { Auto, Sparse, Dense };

/// "auto" / "sparse" / "dense" (flag spelling); throws on anything else.
[[nodiscard]] TrafficMode traffic_mode_from_string(const std::string& name);
[[nodiscard]] const char* traffic_mode_name(TrafficMode mode);

class PhasePipeline {
 public:
  PhasePipeline(SharedStore& store, const msg::Comm& comm, Executor& exec,
                bool check_rules, bool track_kappa,
                TrafficMode traffic = TrafficMode::Auto);

  /// Runs one phase: classifies and moves all queued traffic, prices the
  /// exchange, advances every node's clock to the barrier release time,
  /// and clears the queues. Throws ContractViolation on a bulk-synchrony
  /// rule violation (when rule checking is on).
  [[nodiscard]] PhaseStats run_phase(std::vector<NodeState>& nodes);

  /// Phases processed through each representation so far (host
  /// introspection for benches and tests; never part of a trace).
  [[nodiscard]] std::uint64_t sparse_phases() const { return sparse_phases_; }
  [[nodiscard]] std::uint64_t dense_phases() const { return dense_phases_; }

 private:
  /// One sparse classify output entry: remote words node `src` moves to
  /// `owner` this phase. Rows are per-source, owner-ascending.
  struct OwnerTraffic {
    std::int32_t owner;
    std::uint64_t put_w;
    std::uint64_t get_w;
  };

  /// One owner-contiguous strided span of put data for the sparse move
  /// stage: dst[dst_begin + t*stride] = put_buf(src)[buf_begin + t*stride]
  /// for t in [0, words). Stride is 1 (Block, Hashed) or p (Cyclic).
  struct PutRun {
    std::uint32_t src;
    std::uint32_t array;
    std::int32_t owner;
    std::uint64_t dst_begin;
    std::uint64_t buf_begin;
    std::uint64_t words;
    std::uint64_t stride;
  };

  /// Per-worker-shard owner accumulator: epoch-stamped lazy-zeroed
  /// p-vectors plus the touched-owner list, so accumulating a source with
  /// k active partners costs O(k), not O(p) zero-fill.
  struct SparseCounter {
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

  /// Pre-pass (Auto/Sparse): bounds each source's active pairs and put runs
  /// from the request spans to pick the phase's representation and lay out
  /// the CSR arenas.
  void decide_mode(const std::vector<NodeState>& nodes);
  void ensure_dense_scratch();

  void classify(std::vector<NodeState>& nodes, bool spread);
  void classify_sparse(std::vector<NodeState>& nodes, bool spread);
  void check_rules_and_kappa(const std::vector<NodeState>& nodes,
                             PhaseStats& ps) const;
  void move_data(std::vector<NodeState>& nodes, bool spread);
  void move_puts_sparse(std::vector<NodeState>& nodes, bool spread);
  void price(std::vector<NodeState>& nodes, PhaseStats& ps);

  SharedStore& store_;
  const msg::Comm& comm_;
  Executor& exec_;
  bool check_rules_;
  bool track_kappa_;
  TrafficMode traffic_;

  bool sparse_phase_{false};  ///< this phase's representation
  bool dense_ready_{false};   ///< p x p scratch allocated (lazily)
  std::uint64_t sparse_phases_{0};
  std::uint64_t dense_phases_{0};

  // --- per-phase scratch, reused across phases -----------------------------
  // Dense form (allocated on first dense phase):
  std::vector<std::uint64_t> put_w_;    ///< p x p remote put words, row-major
  std::vector<std::uint64_t> get_w_;    ///< p x p remote get words, row-major
  std::vector<std::int64_t> bytes1_;  ///< p x p wire bytes, round 1
  std::vector<std::int64_t> bytes2_;  ///< p x p wire bytes, round 2
  // Sparse form (CSR with per-source slack from the pre-pass bounds):
  std::vector<int> active_src_;        ///< sources with queued traffic
  std::vector<std::size_t> row_off_;   ///< per-source entry arena offset
  std::vector<std::uint32_t> row_len_; ///< per-source emitted entries
  std::vector<OwnerTraffic> entries_;
  std::vector<std::size_t> run_off_;   ///< per-source put-run arena offset
  std::vector<std::uint32_t> run_len_;
  std::vector<PutRun> runs_;           ///< source-major put runs
  std::vector<PutRun> owner_runs_;     ///< the same runs, owner-partitioned
  std::vector<std::size_t> owner_off_;
  std::vector<std::size_t> owner_cursor_;
  std::vector<int> active_owner_;
  std::vector<SparseCounter> counters_;  ///< one per worker shard
  std::vector<std::pair<std::int64_t, std::int64_t>> traffic1_;
  std::vector<std::pair<std::int64_t, std::int64_t>> traffic2_;
  // Both forms:
  std::vector<std::uint64_t> local_w_;  ///< locally-owned words per node
  std::vector<std::uint64_t> get_row_;  ///< per-source remote get words
  std::vector<std::uint64_t> recv_w_;  ///< per-owner received words
  std::vector<cycles_t> t_ready_;
  std::vector<cycles_t> t_done_;
  /// Pricing-round completion times, reused across phases so the steady
  /// state allocates nothing per phase.
  std::vector<cycles_t> t_plan_;
  std::vector<cycles_t> t1_;
  std::vector<cycles_t> t2_;
};

}  // namespace qsm::rt
