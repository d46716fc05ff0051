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

PhasePipeline::PhasePipeline(SharedStore& store, const msg::Comm& comm,
                             Executor& exec, bool check_rules,
                             bool track_kappa)
    : store_(store),
      comm_(comm),
      exec_(exec),
      check_rules_(check_rules),
      track_kappa_(track_kappa) {
  const auto up = static_cast<std::size_t>(comm_.nprocs());
  rows_.resize(up);
  counters_.resize(
      static_cast<std::size_t>(std::max(1, exec_.phase_workers())));
  local_w_.resize(up);
  get_row_.resize(up);
  recv_w_.resize(up);
  reply_off_.resize(up + 1);
  t_ready_.resize(up);
  t_done_.resize(up);
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

void PhasePipeline::classify(const std::vector<NodeState>& nodes,
                             bool spread) {
  const auto up = nodes.size();
  active_src_.clear();
  for (std::size_t i = 0; i < up; ++i) {
    rows_[i].clear();
    local_w_[i] = 0;
    if (!nodes[i].puts.empty() || !nodes[i].gets.empty()) {
      active_src_.push_back(static_cast<int>(i));
    }
  }

  // Shard over the active sources only. Counter state is per worker shard
  // (see Executor::worker_shard): tasks sharing a shard never run
  // concurrently, and each task re-begins its counter, so the emitted rows
  // are independent of the shard assignment.
  exec_.parallel(active_src_.size(), spread, [&](std::size_t t) {
    const auto i = static_cast<std::size_t>(active_src_[t]);
    const NodeState& nd = nodes[i];
    OwnerCounter& ctr =
        counters_[static_cast<std::size_t>(exec_.worker_shard(t))];
    ctr.begin(up);
    for (const PutReq& rq : nd.puts) {
      store_.for_each_owner(store_.slot_unchecked(rq.array), rq.start,
                            rq.count, [&](int o, std::uint64_t words) {
                              ctr.add_put(o, words);
                            });
    }
    for (const GetReq& rq : nd.gets) {
      store_.for_each_owner(store_.slot_unchecked(rq.array), rq.start,
                            rq.count, [&](int o, std::uint64_t words) {
                              ctr.add_get(o, words);
                            });
    }

    // The walk visits each request's owners ascending (Block, Cyclic), so
    // a source whose requests ascend — every collective's row, list
    // ranking's all-pairs count broadcast — needs no sort.
    if (!std::is_sorted(ctr.touched.begin(), ctr.touched.end())) {
      std::sort(ctr.touched.begin(), ctr.touched.end());
    }
    std::vector<OwnerTraffic>& row = rows_[i];
    for (const int o : ctr.touched) {
      const auto uo = static_cast<std::size_t>(o);
      if (uo == i) {
        // Words whose owner is the requesting node never touch the network.
        local_w_[i] = ctr.put_w[uo] + ctr.get_w[uo];
        continue;
      }
      row.push_back(OwnerTraffic{o, ctr.put_w[uo], ctr.get_w[uo]});
    }
  });
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
  // Gets first: reads see pre-phase values. Each node's destination buffers
  // are private to it, so requesting nodes proceed in parallel; the stage
  // boundary below is a pool barrier, so no put lands before a get reads.
  exec_.parallel(active_src_.size(), spread, [&](std::size_t t) {
    const NodeState& nd = nodes[static_cast<std::size_t>(active_src_[t])];
    for (const GetReq& rq : nd.gets) {
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
  });

  // Puts apply serially, whole requests in rank-major enqueue order, so the
  // last writer in that order wins. The copies are O(words) and memory
  // bound. Moving them per owner on the worker pool would first split every
  // request into per-owner runs (one per word under Hashed); the repo
  // benchmark measured no gain from doing so.
  for (const int i : active_src_) {
    const NodeState& nd = nodes[static_cast<std::size_t>(i)];
    for (const PutReq& rq : nd.puts) {
      ArraySlot& s = store_.slot_unchecked(rq.array);
      std::memcpy(s.data.data() + rq.start, nd.put_buf.data() + rq.buf_offset,
                  rq.count * sizeof(std::uint64_t));
    }
  }
}

void PhasePipeline::price(std::vector<NodeState>& nodes, PhaseStats& ps) {
  const int p = comm_.nprocs();
  const auto up = static_cast<std::size_t>(p);
  const auto& sw = comm_.config().sw;

  // One fused pass over the rows, source-major and owner-ascending: per-row
  // stats, the round-1 traffic list (ascending flat index, as
  // alltoallv_sparse requires), the per-owner received-word column sums,
  // and the per-owner count of get replies for round 2.
  std::uint64_t total_get_words = 0;
  std::uint64_t total_remote = 0;
  std::fill(recv_w_.begin(), recv_w_.end(), 0);
  std::fill(reply_off_.begin(), reply_off_.end(), 0);
  traffic1_.clear();
  for (std::size_t i = 0; i < up; ++i) {
    std::uint64_t put_i = 0;
    std::uint64_t get_i = 0;
    for (const OwnerTraffic& ot : rows_[i]) {
      const auto j = static_cast<std::size_t>(ot.owner);
      put_i += ot.put_w;
      get_i += ot.get_w;
      recv_w_[j] += ot.put_w + ot.get_w;
      if (ot.get_w > 0) ++reply_off_[j + 1];
      const std::int64_t b1 =
          static_cast<std::int64_t>(ot.put_w) * sw.put_record_bytes +
          static_cast<std::int64_t>(ot.get_w) * sw.get_request_bytes;
      if (b1 > 0) {
        traffic1_.emplace_back(static_cast<std::int64_t>(i * up + j), b1);
      }
    }
    get_row_[i] = get_i;
    total_get_words += get_i;
    total_remote += put_i + get_i;
    ps.m_rw_max = std::max(ps.m_rw_max, put_i + get_i);
    ps.max_put_words = std::max(ps.max_put_words, put_i);
    ps.max_get_words = std::max(ps.max_get_words, get_i);
    ps.local_words += local_w_[i];
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

  if (total_get_words > 0) {
    // Round 2's list is owner-major. A stable counting pass by owner over
    // the source-major rows lays it out ascending in O(entries + p),
    // without a comparison sort.
    for (std::size_t j = 0; j < up; ++j) reply_off_[j + 1] += reply_off_[j];
    traffic2_.resize(reply_off_[up]);
    for (std::size_t i = 0; i < up; ++i) {
      for (const OwnerTraffic& ot : rows_[i]) {
        if (ot.get_w == 0) continue;
        const auto j = static_cast<std::size_t>(ot.owner);
        traffic2_[reply_off_[j]++] = {
            static_cast<std::int64_t>(j * up + i),
            static_cast<std::int64_t>(ot.get_w) * sw.get_reply_bytes};
      }
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

      // Round 1: put data and get requests.
      t1_ = t_plan_;
      if (!traffic1_.empty()) {
        const auto r1 = comm_.alltoallv_sparse(t_plan_, traffic1_, salt_r1);
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

      // Round 2: get replies travel back (owner j -> requester i, flat
      // index j*p + i).
      t_done_ = t2_;
      if (total_get_words > 0) {
        const auto r2 = comm_.alltoallv_sparse(t2_, traffic2_, salt_r2);
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
