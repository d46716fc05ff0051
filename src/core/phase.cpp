#include "core/phase.hpp"

#include <algorithm>
#include <cstring>
#include <utility>

#include "core/exec.hpp"
#include "net/barrier.hpp"
#include "net/fault.hpp"

namespace qsm::rt {

namespace {

/// Below this many queued words a phase is classified and moved inline on
/// the completion thread: waking the worker pool costs more than the work.
constexpr std::uint64_t kSpreadWordThreshold = 1u << 14;

std::uint64_t loc_key(std::uint32_t array, std::uint64_t idx) {
  return (static_cast<std::uint64_t>(array) << kLocIndexBits) | idx;
}

/// Half-open key interval covered by one request.
struct LocSpan {
  std::uint64_t begin;
  std::uint64_t end;
};

void push_span(std::vector<LocSpan>& spans, std::uint32_t array,
               std::uint64_t start, std::uint64_t count) {
  QSM_REQUIRE(start + count - 1 < (1ULL << kLocIndexBits),
              "array too large for location tracking");
  spans.push_back({loc_key(array, start), loc_key(array, start + count)});
}

}  // namespace

TrafficMode traffic_mode_from_string(const std::string& name) {
  if (name == "auto") return TrafficMode::Auto;
  if (name == "sparse") return TrafficMode::Sparse;
  if (name == "dense") return TrafficMode::Dense;
  throw support::ContractViolation(
      "unknown traffic mode '" + name + "' (want auto, sparse, or dense)",
      std::source_location::current());
}

const char* traffic_mode_name(TrafficMode mode) {
  switch (mode) {
    case TrafficMode::Auto:
      return "auto";
    case TrafficMode::Sparse:
      return "sparse";
    case TrafficMode::Dense:
      return "dense";
  }
  return "?";
}

PhasePipeline::PhasePipeline(SharedStore& store, const msg::Comm& comm,
                             Executor& exec, bool check_rules,
                             bool track_kappa, TrafficMode traffic)
    : store_(store),
      comm_(comm),
      exec_(exec),
      check_rules_(check_rules),
      track_kappa_(track_kappa),
      traffic_(traffic) {
  const auto up = static_cast<std::size_t>(comm_.nprocs());
  // O(p) state only; the p x p dense matrices are allocated on the first
  // dense phase (see ensure_dense_scratch) so sparse-only runs at large p
  // never pay their footprint.
  local_w_.resize(up);
  get_row_.resize(up);
  recv_w_.resize(up);
  t_ready_.resize(up);
  t_done_.resize(up);
  row_off_.resize(up + 1);
  row_len_.resize(up);
  run_off_.resize(up + 1);
  run_len_.resize(up);
  owner_off_.resize(up + 1);
  owner_cursor_.resize(up);
}

void PhasePipeline::ensure_dense_scratch() {
  if (dense_ready_) return;
  const auto up = static_cast<std::size_t>(comm_.nprocs());
  put_w_.resize(up * up);
  get_w_.resize(up * up);
  bytes1_.resize(up * up);
  bytes2_.resize(up * up);
  dense_ready_ = true;
}

void PhasePipeline::decide_mode(const std::vector<NodeState>& nodes) {
  const int p = comm_.nprocs();
  const auto up = nodes.size();

  sparse_phase_ = false;
  if (p <= 1 || traffic_ == TrafficMode::Dense) return;

  // Density bound: every request contributes owner_span_bound() active
  // pairs at most, so the sum (capped at p per source) bounds the phase's
  // active (source, owner) pairs. Auto takes the dense fallback when the
  // bound exceeds p^2/4 — and short-circuits on the request count alone
  // (each request contributes at least one pair to the bound), so an
  // all-to-all phase decides in O(p) without walking its p^2 requests.
  const auto cap = static_cast<std::uint64_t>(p) *
                   static_cast<std::uint64_t>(p) / 4;
  if (traffic_ == TrafficMode::Auto) {
    std::uint64_t requests = 0;
    for (const NodeState& nd : nodes) {
      requests += nd.puts.size() + nd.gets.size();
    }
    if (requests > cap) return;
  }

  std::uint64_t est = 0;
  for (std::size_t i = 0; i < up; ++i) {
    const NodeState& nd = nodes[i];
    std::uint64_t pairs = 0;
    std::uint64_t put_runs = 0;
    for (const PutReq& rq : nd.puts) {
      const ArraySlot& s = store_.slot_unchecked(rq.array);
      pairs += store_.owner_span_bound(s, rq.start, rq.count);
      // Run bound: Block runs == owners touched; Cyclic one strided run
      // per owner; Hashed one single-word run per word.
      put_runs += s.layout == Layout::Hashed
                      ? rq.count
                      : store_.owner_span_bound(s, rq.start, rq.count);
    }
    for (const GetReq& rq : nd.gets) {
      pairs += store_.owner_span_bound(store_.slot_unchecked(rq.array),
                                       rq.start, rq.count);
    }
    const auto row_cap =
        std::min<std::uint64_t>(pairs, static_cast<std::uint64_t>(p));
    row_off_[i + 1] = row_cap;   // caps for now; prefix-summed below
    run_off_[i + 1] = put_runs;
    est += row_cap;
    if (traffic_ == TrafficMode::Auto && est > cap) return;
  }

  sparse_phase_ = true;
  row_off_[0] = 0;
  run_off_[0] = 0;
  active_src_.clear();
  for (std::size_t i = 0; i < up; ++i) {
    row_off_[i + 1] += row_off_[i];
    run_off_[i + 1] += run_off_[i];
    row_len_[i] = 0;
    run_len_[i] = 0;
    if (!nodes[i].puts.empty() || !nodes[i].gets.empty()) {
      active_src_.push_back(static_cast<int>(i));
    }
  }
  if (entries_.size() < row_off_[up]) entries_.resize(row_off_[up]);
  if (runs_.size() < run_off_[up]) runs_.resize(run_off_[up]);
  if (counters_.empty()) {
    counters_.resize(static_cast<std::size_t>(
        std::max(1, exec_.phase_workers())));
  }
}

PhaseStats PhasePipeline::run_phase(std::vector<NodeState>& nodes) {
  PhaseStats ps;

  cycles_t max_arrive = nodes[0].now;
  cycles_t min_arrive = nodes[0].now;
  std::uint64_t total_words = 0;
  for (const auto& nd : nodes) {
    max_arrive = std::max(max_arrive, nd.now);
    min_arrive = std::min(min_arrive, nd.now);
    total_words += nd.enq_words;
  }
  ps.arrival_spread = max_arrive - min_arrive;

  const bool spread =
      exec_.parallel_enabled() && total_words >= kSpreadWordThreshold;

  decide_mode(nodes);
  if (sparse_phase_) {
    ++sparse_phases_;
  } else {
    ++dense_phases_;
  }

  classify(nodes, spread);
  check_rules_and_kappa(nodes, ps);
  move_data(nodes, spread);
  price(nodes, ps);

  for (auto& nd : nodes) {
    // Per-phase m_op: everything charged locally since the last sync,
    // including the local-fraction applies added during pricing.
    ps.m_op_max =
        std::max(ps.m_op_max, nd.compute - nd.compute_at_phase_start);
    nd.compute_at_phase_start = nd.compute;
    nd.gets.clear();
    nd.puts.clear();
    nd.put_buf.clear();
    nd.enq_words = 0;
    nd.phase_count++;
  }
  return ps;
}

void PhasePipeline::classify(std::vector<NodeState>& nodes, bool spread) {
  if (sparse_phase_) {
    classify_sparse(nodes, spread);
    return;
  }
  ensure_dense_scratch();
  const auto up = nodes.size();
  exec_.parallel(up, spread, [&](std::size_t i) {
    NodeState& nd = nodes[i];
    std::uint64_t* pw = put_w_.data() + i * up;
    std::uint64_t* gw = get_w_.data() + i * up;
    std::fill(pw, pw + up, 0);
    std::fill(gw, gw + up, 0);

    for (const PutReq& rq : nd.puts) {
      store_.accumulate_owner_counts(store_.slot_unchecked(rq.array),
                                     rq.start, rq.count, pw);
    }
    for (const GetReq& rq : nd.gets) {
      store_.accumulate_owner_counts(store_.slot_unchecked(rq.array),
                                     rq.start, rq.count, gw);
    }
    // Words whose owner is the requesting node never touch the network.
    local_w_[i] = pw[i] + gw[i];
    pw[i] = 0;
    gw[i] = 0;
  });
}

void PhasePipeline::classify_sparse(std::vector<NodeState>& nodes,
                                    bool spread) {
  const auto up = nodes.size();
  const int p = static_cast<int>(up);
  std::fill(local_w_.begin(), local_w_.end(), 0);

  // Shard over the active sources only. Counter state is per worker shard
  // (see Executor::worker_shard): tasks sharing a shard never run
  // concurrently, and each task re-begins its counter, so the emitted rows
  // are independent of the shard assignment.
  exec_.parallel(active_src_.size(), spread, [&](std::size_t t) {
    const auto i = static_cast<std::size_t>(active_src_[t]);
    NodeState& nd = nodes[i];
    SparseCounter& ctr =
        counters_[static_cast<std::size_t>(exec_.worker_shard(t))];
    ctr.begin(up);

    const auto p64 = static_cast<std::uint64_t>(up);
    std::size_t rpos = run_off_[i];
    for (const PutReq& rq : nd.puts) {
      const ArraySlot& s = store_.slot_unchecked(rq.array);
      const auto src = static_cast<std::uint32_t>(i);
      switch (s.layout) {
        case Layout::Block:
          store_.for_each_block_run(
              s, rq.start, rq.count,
              [&](int o, std::uint64_t begin, std::uint64_t len) {
                ctr.add_put(o, len);
                runs_[rpos++] =
                    PutRun{src, rq.array, o, begin,
                           rq.buf_offset + (begin - rq.start), len, 1};
              });
          break;
        case Layout::Cyclic: {
          // One strided run per owner with any word: owner of index
          // rq.start + t2 for t2 < min(count, p), holding every p-th word
          // from there.
          const std::uint64_t lim = std::min(rq.count, p64);
          for (std::uint64_t t2 = 0; t2 < lim; ++t2) {
            const std::uint64_t first = rq.start + t2;
            const int o = static_cast<int>(first % p64);
            const std::uint64_t words = (rq.count - t2 + p64 - 1) / p64;
            ctr.add_put(o, words);
            runs_[rpos++] = PutRun{src, rq.array, o, first,
                                   rq.buf_offset + t2, words, p64};
          }
          break;
        }
        case Layout::Hashed:
          for (std::uint64_t k = rq.start; k < rq.start + rq.count; ++k) {
            const int o = static_cast<int>(hash_index(k, s.salt) % p64);
            ctr.add_put(o, 1);
            runs_[rpos++] = PutRun{src, rq.array, o, k,
                                   rq.buf_offset + (k - rq.start), 1, 1};
          }
          break;
      }
    }
    for (const GetReq& rq : nd.gets) {
      const ArraySlot& s = store_.slot_unchecked(rq.array);
      switch (s.layout) {
        case Layout::Block:
          store_.for_each_block_run(
              s, rq.start, rq.count,
              [&](int o, std::uint64_t, std::uint64_t len) {
                ctr.add_get(o, len);
              });
          break;
        case Layout::Cyclic: {
          const std::uint64_t lim = std::min(rq.count, p64);
          for (std::uint64_t t2 = 0; t2 < lim; ++t2) {
            const std::uint64_t first = rq.start + t2;
            ctr.add_get(static_cast<int>(first % p64),
                        (rq.count - t2 + p64 - 1) / p64);
          }
          break;
        }
        case Layout::Hashed:
          for (std::uint64_t k = rq.start; k < rq.start + rq.count; ++k) {
            ctr.add_get(static_cast<int>(hash_index(k, s.salt) % p64), 1);
          }
          break;
      }
    }
    run_len_[i] = static_cast<std::uint32_t>(rpos - run_off_[i]);

    // Emit the source's row owner-ascending (the order the dense matrix
    // walk visits them, so price() extracts identical traffic lists).
    std::sort(ctr.touched.begin(), ctr.touched.end());
    const int self = static_cast<int>(i);
    std::size_t epos = row_off_[i];
    for (const int o : ctr.touched) {
      const auto uo = static_cast<std::size_t>(o);
      if (o == self) {
        local_w_[i] = ctr.put_w[uo] + ctr.get_w[uo];
        continue;
      }
      entries_[epos++] = OwnerTraffic{o, ctr.put_w[uo], ctr.get_w[uo]};
    }
    row_len_[i] = static_cast<std::uint32_t>(epos - row_off_[i]);
    QSM_ASSERT(epos <= row_off_[i + 1] && rpos <= run_off_[i + 1],
               "sparse classify overflowed its pre-pass bound");
  });
  (void)p;
}

void PhasePipeline::check_rules_and_kappa(const std::vector<NodeState>& nodes,
                                          PhaseStats& ps) const {
  if (!check_rules_ && !track_kappa_) return;

  std::vector<LocSpan> put_spans;
  std::vector<LocSpan> get_spans;
  for (const NodeState& nd : nodes) {
    for (const PutReq& rq : nd.puts) {
      push_span(put_spans, rq.array, rq.start, rq.count);
    }
    for (const GetReq& rq : nd.gets) {
      push_span(get_spans, rq.array, rq.start, rq.count);
    }
  }
  const auto by_begin = [](const LocSpan& a, const LocSpan& b) {
    return a.begin < b.begin;
  };
  std::sort(put_spans.begin(), put_spans.end(), by_begin);
  std::sort(get_spans.begin(), get_spans.end(), by_begin);

  if (check_rules_) {
    // Two sorted sweeps: any overlap between a put span and a get span is a
    // location both read and written this phase.
    std::size_t pi = 0;
    std::size_t gi = 0;
    while (pi < put_spans.size() && gi < get_spans.size()) {
      const LocSpan& pu = put_spans[pi];
      const LocSpan& ge = get_spans[gi];
      if (pu.end <= ge.begin) {
        ++pi;
      } else if (ge.end <= pu.begin) {
        ++gi;
      } else {
        const std::uint64_t key = std::max(pu.begin, ge.begin);
        const auto array = static_cast<std::uint32_t>(key >> kLocIndexBits);
        const std::uint64_t idx = key & ((1ULL << kLocIndexBits) - 1);
        throw support::ContractViolation(
            "bulk-synchrony violation: location read and written in the "
            "same phase (array '" +
                store_.slot_unchecked(array).name + "', index " +
                std::to_string(idx) + ")",
            std::source_location::current());
      }
    }
  }

  if (track_kappa_) {
    // Max accesses to any one location == max overlap depth of the access
    // spans. Sweep +1/-1 boundary events; ends sort before starts at equal
    // keys because spans are half-open.
    std::vector<std::pair<std::uint64_t, int>> events;
    events.reserve(2 * (put_spans.size() + get_spans.size()));
    for (const auto* spans : {&put_spans, &get_spans}) {
      for (const LocSpan& sp : *spans) {
        events.emplace_back(sp.begin, +1);
        events.emplace_back(sp.end, -1);
      }
    }
    std::sort(events.begin(), events.end());
    std::int64_t depth = 0;
    std::int64_t max_depth = 0;
    for (const auto& [key, delta] : events) {
      depth += delta;
      max_depth = std::max(max_depth, depth);
    }
    ps.kappa = std::max(ps.kappa, static_cast<std::uint64_t>(max_depth));
  }
}

void PhasePipeline::move_data(std::vector<NodeState>& nodes, bool spread) {
  const auto up = nodes.size();

  // Gets first: reads see pre-phase values. Each node's destination buffers
  // are private to it, so requesting nodes proceed in parallel; the stage
  // boundary below is a pool barrier, so no put lands before a get reads.
  // Sparse phases shard over the active sources only.
  const auto copy_gets = [&](std::size_t i) {
    for (const GetReq& rq : nodes[i].gets) {
      const ArraySlot& s = store_.slot_unchecked(rq.array);
      const std::uint64_t* src = s.data.data() + rq.start;
      if (rq.elem_size == sizeof(std::uint64_t)) {
        std::memcpy(rq.dest, src, rq.count * sizeof(std::uint64_t));
      } else {
        for (std::uint64_t k = 0; k < rq.count; ++k) {
          std::memcpy(rq.dest + k * rq.elem_size, &src[k], rq.elem_size);
        }
      }
    }
  };
  if (sparse_phase_) {
    exec_.parallel(active_src_.size(), spread, [&](std::size_t t) {
      copy_gets(static_cast<std::size_t>(active_src_[t]));
    });
    move_puts_sparse(nodes, spread);
    return;
  }
  exec_.parallel(up, spread, copy_gets);

  // Puts apply serially, whole requests in rank-major enqueue order, so the
  // last writer in that order wins. The copies are O(words) and memory
  // bound; partitioning them by owner for the worker pool would take a pass
  // over every request per owner — O(p × requests), ~10^9 steps for an
  // all-pairs phase at p = 1024.
  for (auto& nd : nodes) {
    for (const PutReq& rq : nd.puts) {
      ArraySlot& s = store_.slot_unchecked(rq.array);
      std::memcpy(s.data.data() + rq.start, nd.put_buf.data() + rq.buf_offset,
                  rq.count * sizeof(std::uint64_t));
    }
  }
}

void PhasePipeline::move_puts_sparse(std::vector<NodeState>& nodes,
                                     bool spread) {
  // Stable counting sort of the classify-stage put runs by owner. Sources
  // emitted their runs rank-major into source-contiguous arena regions, so
  // walking those regions in rank order and scattering stably gives every
  // owner its runs in (source rank, enqueue order, ascending index) order —
  // the serial last-writer-wins resolution order projected onto that owner.
  std::uint64_t total_runs = 0;
  for (const int i : active_src_) {
    total_runs += run_len_[static_cast<std::size_t>(i)];
  }
  if (total_runs == 0) return;

  const auto up = nodes.size();
  std::fill(owner_off_.begin(), owner_off_.end(), 0);
  for (const int i : active_src_) {
    const auto ui = static_cast<std::size_t>(i);
    for (std::size_t r = run_off_[ui]; r < run_off_[ui] + run_len_[ui]; ++r) {
      owner_off_[static_cast<std::size_t>(runs_[r].owner) + 1]++;
    }
  }
  active_owner_.clear();
  for (std::size_t j = 0; j < up; ++j) {
    if (owner_off_[j + 1] > 0) active_owner_.push_back(static_cast<int>(j));
    owner_off_[j + 1] += owner_off_[j];
    owner_cursor_[j] = owner_off_[j];
  }
  if (owner_runs_.size() < total_runs) owner_runs_.resize(total_runs);
  for (const int i : active_src_) {
    const auto ui = static_cast<std::size_t>(i);
    for (std::size_t r = run_off_[ui]; r < run_off_[ui] + run_len_[ui]; ++r) {
      owner_runs_[owner_cursor_[static_cast<std::size_t>(runs_[r].owner)]++] =
          runs_[r];
    }
  }

  // Owners write disjoint locations, so active owners proceed in parallel;
  // a strided copy executes each run in ascending index order.
  exec_.parallel(active_owner_.size(), spread, [&](std::size_t t) {
    const auto j = static_cast<std::size_t>(active_owner_[t]);
    for (std::size_t r = owner_off_[j]; r < owner_off_[j + 1]; ++r) {
      const PutRun& run = owner_runs_[r];
      ArraySlot& s = store_.slot_unchecked(run.array);
      const std::uint64_t* src =
          nodes[run.src].put_buf.data() + run.buf_begin;
      std::uint64_t* dst = s.data.data() + run.dst_begin;
      if (run.stride == 1) {
        std::memcpy(dst, src, run.words * sizeof(std::uint64_t));
      } else {
        for (std::uint64_t k = 0; k < run.words; ++k) {
          dst[k * run.stride] = src[k * run.stride];
        }
      }
    }
  });
}

void PhasePipeline::price(std::vector<NodeState>& nodes, PhaseStats& ps) {
  const int p = comm_.nprocs();
  const auto up = static_cast<std::size_t>(p);
  const auto& sw = comm_.config().sw;

  // One fused pass over the phase's traffic — the p x p word matrices in
  // dense form, the CSR rows in sparse form: per-row stats, the round-1
  // wire bytes, and the per-owner received-word column sums. Both forms
  // visit the same nonzero counts in the same source-major, owner-ascending
  // order and add the same integers, so every derived number (and every
  // collective's memo key) is identical between them.
  std::uint64_t total_get_words = 0;
  std::uint64_t total_remote = 0;
  bool any1 = false;
  std::fill(recv_w_.begin(), recv_w_.end(), 0);
  if (sparse_phase_) {
    traffic1_.clear();
    for (std::size_t i = 0; i < up; ++i) {
      std::uint64_t put_i = 0;
      std::uint64_t get_i = 0;
      for (std::size_t e = row_off_[i]; e < row_off_[i] + row_len_[i]; ++e) {
        const OwnerTraffic& ot = entries_[e];
        const auto j = static_cast<std::size_t>(ot.owner);
        put_i += ot.put_w;
        get_i += ot.get_w;
        total_get_words += ot.get_w;
        recv_w_[j] += ot.put_w + ot.get_w;
        const std::int64_t b1 =
            static_cast<std::int64_t>(ot.put_w) * sw.put_record_bytes +
            static_cast<std::int64_t>(ot.get_w) * sw.get_request_bytes;
        if (b1 > 0) {
          traffic1_.emplace_back(
              static_cast<std::int64_t>(i * up + j), b1);
        }
      }
      get_row_[i] = get_i;
      total_remote += put_i + get_i;
      ps.m_rw_max = std::max(ps.m_rw_max, put_i + get_i);
      ps.max_put_words = std::max(ps.max_put_words, put_i);
      ps.max_get_words = std::max(ps.max_get_words, get_i);
      ps.local_words += local_w_[i];
    }
    any1 = !traffic1_.empty();
  } else {
    for (std::size_t i = 0; i < up; ++i) {
      std::uint64_t put_i = 0;
      std::uint64_t get_i = 0;
      for (std::size_t j = 0; j < up; ++j) {
        const std::uint64_t pw = put_w_[i * up + j];
        const std::uint64_t gw = get_w_[i * up + j];
        put_i += pw;
        get_i += gw;
        total_get_words += gw;
        recv_w_[j] += pw + gw;
        const std::int64_t b1 =
            static_cast<std::int64_t>(pw) * sw.put_record_bytes +
            static_cast<std::int64_t>(gw) * sw.get_request_bytes;
        bytes1_[i * up + j] = b1;
        any1 = any1 || b1 > 0;
      }
      get_row_[i] = get_i;
      total_remote += put_i + get_i;
      ps.m_rw_max = std::max(ps.m_rw_max, put_i + get_i);
      ps.max_put_words = std::max(ps.max_put_words, put_i);
      ps.max_get_words = std::max(ps.max_get_words, get_i);
      ps.local_words += local_w_[i];
    }
  }
  ps.rw_total = total_remote;

  // Request enqueueing was already charged at the get()/put() call sites.
  // Applying the locally-owned fraction is local memory work: it delays the
  // node's readiness but counts as compute, not communication.
  cycles_t max_ready = 0;
  for (std::size_t i = 0; i < up; ++i) {
    const cycles_t local_apply =
        static_cast<cycles_t>(local_w_[i]) * sw.per_apply_cpu;
    t_ready_[i] = nodes[i].now + local_apply;
    nodes[i].compute += local_apply;
    max_ready = std::max(max_ready, t_ready_[i]);
  }

  // Fault injection (net/fault.hpp). Everything below is gated so the
  // fault-free path (the default) executes exactly the pre-fault code:
  // salts stay 0, no draw ever happens, and the memo keys are unchanged.
  // Fault draws key on (fingerprint, phase index, attempt, round) — never
  // on simulated time or host scheduling — which is what keeps faulted
  // traces bit-identical across lane engines, worker counts, and job
  // counts. The phase index comes off the node phase counters, which every
  // lane advances in lockstep.
  const net::FaultParams& fparams = comm_.config().net.fault;
  const bool msg_faults = fparams.message_faults_enabled();
  const bool node_faults = fparams.node_faults_enabled();
  const std::uint64_t ffp =
      (msg_faults || node_faults) ? net::fault_fingerprint(fparams) : 0;
  const std::uint64_t phase_idx = nodes.empty() ? 0 : nodes[0].phase_count;
  if (node_faults) {
    // Transient stalls and slowdowns delay the node's arrival at the
    // exchange. They are applied after max_ready is taken, so the lost
    // time is charged to exchange_cycles (time the healthy nodes spend
    // waiting on stragglers) — simulated time, not host time.
    const net::FaultModel model(fparams);
    const std::uint64_t nsalt = net::FaultModel::node_salt(ffp, phase_idx, 0);
    for (std::size_t i = 0; i < up; ++i) {
      cycles_t delay = model.node_stall(nsalt, static_cast<int>(i));
      const double mult = model.node_slow_mult(nsalt, static_cast<int>(i));
      if (mult > 1.0) {
        const cycles_t phase_compute =
            nodes[i].compute - nodes[i].compute_at_phase_start;
        delay += support::ceil_cycles(
            (mult - 1.0) * static_cast<double>(phase_compute));
      }
      t_ready_[i] += delay;
    }
  }

  t_done_ = t_ready_;
  if (p > 1) {
    // Pricing rounds, wrapped in the phase-replay loop: bulk-synchronous
    // phases checkpoint at each barrier, so when a node is declared failed
    // the phase re-prices from the (uniform) post-recovery restart time
    // with a fresh attempt salt. Replaying costs only pricing — gets read
    // pre-phase values and puts are last-writer-wins deterministic, so the
    // memory effects of the phase are idempotent and never rolled back.
    // Failed attempts' traffic stays in the stats: it really crossed the
    // wire.
    const int max_attempts = node_faults ? fparams.max_attempts : 1;
    for (int attempt = 1;; ++attempt) {
      const std::uint64_t salt_plan =
          msg_faults ? net::FaultModel::exchange_salt(
                           ffp, phase_idx, static_cast<std::uint64_t>(attempt),
                           1)
                     : 0;
      const std::uint64_t salt_r1 =
          msg_faults ? net::FaultModel::exchange_salt(
                           ffp, phase_idx, static_cast<std::uint64_t>(attempt),
                           2)
                     : 0;
      const std::uint64_t salt_r2 =
          msg_faults ? net::FaultModel::exchange_salt(
                           ffp, phase_idx, static_cast<std::uint64_t>(attempt),
                           3)
                     : 0;

      // Communication plan: every node broadcasts its per-destination
      // put/get counts.
      const std::int64_t plan_bytes =
          2 * static_cast<std::int64_t>(p) * sw.plan_entry_bytes;
      const auto plan =
          comm_.allgather(t_ready_, plan_bytes, /*control=*/true, salt_plan);
      ps.messages += plan.messages;
      ps.wire_bytes += plan.wire_bytes;
      ps.retries += plan.retries;
      ps.drops += plan.drops;
      ps.duplicates += plan.duplicates;
      t_plan_.resize(up);
      for (std::size_t i = 0; i < up; ++i) t_plan_[i] = plan.nodes[i].finish;

      // Round 1: put data and get requests. Both forms hand the collective
      // layer the same nonzero (flat index, bytes) list — the sparse entry
      // point just skips materializing the matrix — so the memoized results
      // are shared and identical.
      t1_ = t_plan_;
      if (any1) {
        const auto r1 =
            sparse_phase_
                ? comm_.alltoallv_sparse(t_plan_, traffic1_, salt_r1)
                : comm_.alltoallv_flat(t_plan_, bytes1_, salt_r1);
        ps.messages += r1.messages;
        ps.wire_bytes += r1.wire_bytes;
        ps.retries += r1.retries;
        ps.drops += r1.drops;
        ps.duplicates += r1.duplicates;
        for (std::size_t i = 0; i < up; ++i) t1_[i] = r1.nodes[i].finish;
      }

      // Owners apply received puts and service received get requests
      // (recv_w_ holds the column sums from the fused pass).
      t2_ = t1_;
      for (std::size_t j = 0; j < up; ++j) {
        t2_[j] += static_cast<cycles_t>(recv_w_[j]) * sw.per_apply_cpu;
      }

      // Round 2: get replies travel back (owner j -> requester i, so the
      // flat index transposes to j*p + i).
      t_done_ = t2_;
      if (total_get_words > 0) {
        net::ExchangeResult r2;
        if (sparse_phase_) {
          traffic2_.clear();
          for (std::size_t i = 0; i < up; ++i) {
            for (std::size_t e = row_off_[i]; e < row_off_[i] + row_len_[i];
                 ++e) {
              const OwnerTraffic& ot = entries_[e];
              if (ot.get_w == 0) continue;
              traffic2_.emplace_back(
                  static_cast<std::int64_t>(ot.owner) * p +
                      static_cast<std::int64_t>(i),
                  static_cast<std::int64_t>(ot.get_w) * sw.get_reply_bytes);
            }
          }
          std::sort(traffic2_.begin(), traffic2_.end());
          r2 = comm_.alltoallv_sparse(t2_, traffic2_, salt_r2);
        } else {
          for (std::size_t i = 0; i < up; ++i) {
            for (std::size_t j = 0; j < up; ++j) {
              bytes2_[j * up + i] =
                  static_cast<std::int64_t>(get_w_[i * up + j]) *
                  sw.get_reply_bytes;
            }
          }
          r2 = comm_.alltoallv_flat(t2_, bytes2_, salt_r2);
        }
        ps.messages += r2.messages;
        ps.wire_bytes += r2.wire_bytes;
        ps.retries += r2.retries;
        ps.drops += r2.drops;
        ps.duplicates += r2.duplicates;
        for (std::size_t i = 0; i < up; ++i) {
          // get_row_ holds each requester's remote get words from the fused
          // pass (same owner-ascending summation order).
          t_done_[i] = r2.nodes[i].finish +
                       static_cast<cycles_t>(get_row_[i]) * sw.per_apply_cpu;
        }
      }

      if (!node_faults || attempt >= max_attempts) break;
      const std::uint64_t fsalt = net::FaultModel::node_salt(
          ffp, phase_idx, static_cast<std::uint64_t>(attempt));
      const net::FaultModel model(fparams);
      std::uint64_t failed = 0;
      for (std::size_t i = 0; i < up; ++i) {
        if (model.node_failed(fsalt, static_cast<int>(i))) ++failed;
      }
      if (failed == 0) break;
      // Replay: the failure is detected detect_cycles after the exchange
      // settles; the checkpoint restore costs recovery_cycles; every node
      // (including the recovered one — its state replays from the
      // checkpoint) restarts the phase's pricing from that uniform time.
      ps.replays += 1;
      const std::uint64_t survivors = static_cast<std::uint64_t>(p) - failed;
      ps.p_effective = ps.p_effective == 0
                           ? survivors
                           : std::min(ps.p_effective, survivors);
      cycles_t settle = 0;
      for (const cycles_t t : t_done_) settle = std::max(settle, t);
      const cycles_t restart =
          settle + fparams.detect_cycles + fparams.recovery_cycles;
      std::fill(t_ready_.begin(), t_ready_.end(), restart);
    }
  }

  cycles_t finish = 0;
  for (cycles_t t : t_done_) finish = std::max(finish, t);
  ps.exchange_cycles = finish - max_ready;

  cycles_t release = finish;
  if (p > 1) {
    release = net::simulate_tree_barrier(comm_.config().net, sw, t_done_);
  }
  ps.barrier_cycles = release - finish;

  for (auto& nd : nodes) nd.now = release;
}

}  // namespace qsm::rt
