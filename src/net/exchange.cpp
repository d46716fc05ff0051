#include "net/exchange.hpp"

#include <algorithm>
#include <limits>

#include "net/fault.hpp"
#include "sim/resource.hpp"
#include "support/contract.hpp"

namespace qsm::net {

namespace {

/// Puts validated transfers into the library's send order: source-major,
/// then ascending round (Staggered) or ascending destination (FixedTarget),
/// stable among equal pairs.
///
/// FixedTarget is the naive order: every sender walks destinations 0, 1,
/// 2, ... so all nodes hammer the same receiver at once. Staggered is the
/// round-robin schedule: node i's r-th send goes to partner (i + r) mod p,
/// so a message's round is (dst - src) mod p. For one source, rounds ascend
/// over the destinations above src, then wrap to those below it, so the
/// staggered order is a per-source rotation of the FixedTarget order.
/// Rotation keeps repeated pairs in input order. Collectives build their
/// lists in flat-index order, which already is the FixedTarget order, so
/// they skip the sort.
void order_sends(std::vector<Transfer>& sends,
                 ExchangeSpec::SendOrder order) {
  const auto by_pair = [](const Transfer& a, const Transfer& b) {
    return a.src != b.src ? a.src < b.src : a.dst < b.dst;
  };
  if (!std::is_sorted(sends.begin(), sends.end(), by_pair)) {
    std::stable_sort(sends.begin(), sends.end(), by_pair);
  }
  if (order != ExchangeSpec::SendOrder::Staggered) return;
  for (auto b = sends.begin(); b != sends.end();) {
    const int src = b->src;
    const auto e = std::find_if(
        b, sends.end(), [src](const Transfer& t) { return t.src != src; });
    const auto mid = std::partition_point(
        b, e, [src](const Transfer& t) { return t.dst < src; });
    std::rotate(b, mid, e);
    b = e;
  }
}

/// Per-message pipeline stage, dispatched by the event loop below.
enum class Stage : std::uint8_t { Send, Tx, Fabric, Rx, Recv };
constexpr std::uint32_t kStages = 5;
constexpr std::uint32_t kNil = std::numeric_limits<std::uint32_t>::max();

/// A pending event as the loop dispatches it, and as the overflow heap
/// holds it: plain data, 24 bytes.
struct Event {
  cycles_t at;
  std::uint64_t seq;
  std::uint32_t msg;
  Stage stage;
};

/// An event queued in a stream, linked to the stream's next event by pool
/// index. The stage is the stream's, so a node takes 24 bytes.
struct QueuedEvent {
  cycles_t at;
  std::uint64_t seq;
  std::uint32_t msg;
  std::uint32_t next;
};

/// The earliest event of one nonempty stream, as the merge heap holds it.
struct StreamHead {
  cycles_t at;
  std::uint64_t seq;
  std::uint32_t stream;
  Stage stage;
};

/// Heap order for both heaps: the top is the least (time, seq).
struct Later {
  template <typename A, typename B>
  bool operator()(const A& a, const B& b) const {
    if (a.at != b.at) return a.at > b.at;
    return a.seq > b.seq;
  }
};
constexpr Later later{};

/// The pending events of one exchange, popped in (time, seq) order — the
/// order the generic sim::Engine executes them in.
///
/// Events live in per-(stage, node) FIFO streams: Send, Tx, Fabric and Rx
/// events keyed by sender, Recv events by receiver. A stream accepts an
/// event only at or after its tail's time; an event scheduled earlier goes
/// to an overflow heap instead. A min-heap of stream heads (at most 5p
/// entries) merges the streams.
///
/// Why this pops exactly the sequence that one heap of every pending event
/// (sim::Engine's queue) pops: every pending event sits in one stream or in
/// the overflow heap. seq grows with every schedule, so the append rule
/// keeps each stream sorted by (time, seq), and a stream's head is its
/// least event. The lesser of the two heap tops is then the least pending
/// (time, seq), which is unique because seq is. Same pop, same handler,
/// same schedules with the same seqs — by induction, the same run.
///
/// The keying only decides how often the overflow heap is used. Each event
/// time is a FIFO resource's grant end (plus, for Rx, the flight time), and
/// a resource's grant ends never decrease: the sender CPU for Tx, the
/// sender NIC for Fabric, the sender NIC or the one shared fabric for Rx,
/// the receiver NIC for Recv. A sender's initial Sends all share its start
/// time. So only fault retries, delay spikes, and hop-dependent flight on
/// Ring/Torus2D can land before a tail. The merge heap stays O(p) where a
/// single heap grows to about one entry per message.
class EventQueue {
 public:
  /// Empties the queue for an exchange over p nodes; `events` sizes the
  /// pool for the usual peak (every message pending in one stage at once).
  void reset(int p, std::size_t events) {
    p_ = static_cast<std::uint32_t>(p);
    pool_.clear();
    pool_.reserve(events);
    free_ = kNil;
    first_.assign(kStages * p_, kNil);
    last_.resize(kStages * p_);
    heads_.clear();
    overflow_.clear();
    next_seq_ = 0;
  }

  void push(cycles_t at, Stage stage, int node, std::uint32_t msg) {
    const std::uint64_t seq = next_seq_++;
    const std::uint32_t stream = static_cast<std::uint32_t>(stage) * p_ +
                                 static_cast<std::uint32_t>(node);
    const bool empty = first_[stream] == kNil;
    if (!empty && at < pool_[last_[stream]].at) {
      overflow_.push_back(Event{at, seq, msg, stage});
      std::push_heap(overflow_.begin(), overflow_.end(), later);
      return;
    }
    std::uint32_t idx = free_;
    if (idx != kNil) {
      free_ = pool_[idx].next;
      pool_[idx] = QueuedEvent{at, seq, msg, kNil};
    } else {
      QSM_REQUIRE(pool_.size() < kNil, "exchange has too many pending events");
      idx = static_cast<std::uint32_t>(pool_.size());
      pool_.push_back(QueuedEvent{at, seq, msg, kNil});
    }
    if (empty) {
      first_[stream] = idx;
      heads_.push_back(StreamHead{at, seq, stream, stage});
      std::push_heap(heads_.begin(), heads_.end(), later);
    } else {
      pool_[last_[stream]].next = idx;
    }
    last_[stream] = idx;
  }

  /// Removes the least pending event into `ev`; false once none is left.
  bool pop(Event& ev) {
    if (heads_.empty() && overflow_.empty()) return false;
    if (!overflow_.empty() &&
        (heads_.empty() || later(heads_.front(), overflow_.front()))) {
      std::pop_heap(overflow_.begin(), overflow_.end(), later);
      ev = overflow_.back();
      overflow_.pop_back();
      return true;
    }
    std::pop_heap(heads_.begin(), heads_.end(), later);
    StreamHead& head = heads_.back();
    const std::uint32_t idx = first_[head.stream];
    QueuedEvent& node = pool_[idx];
    ev = Event{node.at, node.seq, node.msg, head.stage};
    const std::uint32_t next = node.next;
    first_[head.stream] = next;
    node.next = free_;
    free_ = idx;
    if (next == kNil) {
      heads_.pop_back();
    } else {
      head.at = pool_[next].at;
      head.seq = pool_[next].seq;
      std::push_heap(heads_.begin(), heads_.end(), later);
    }
    return true;
  }

  /// Frees the event pool and the overflow heap where either has room for
  /// more than `keep` events.
  void trim(std::size_t keep) {
    if (pool_.capacity() > keep) std::vector<QueuedEvent>().swap(pool_);
    if (overflow_.capacity() > keep) std::vector<Event>().swap(overflow_);
  }

 private:
  std::uint32_t p_{0};
  std::vector<QueuedEvent> pool_;  ///< stream nodes; freed ones are chained
  std::uint32_t free_{kNil};
  std::vector<std::uint32_t> first_;  ///< per stream: head node, or kNil
  std::vector<std::uint32_t> last_;   ///< per stream: tail node, if nonempty
  std::vector<StreamHead> heads_;
  std::vector<Event> overflow_;
  std::uint64_t next_seq_{0};
};

/// Host scratch reused by every exchange on a thread, so a steady stream of
/// exchanges allocates nothing but each result's node vector.
struct Workspace {
  std::vector<Transfer> sends;  ///< the exchange's messages, in send order
  EventQueue queue;
  std::vector<std::uint8_t> attempt;  ///< 1-based per-message attempt
  std::vector<MsgFate> fate;          ///< fate of the in-flight attempt
  std::vector<sim::Resource> cpu;
  std::vector<sim::Resource> tx;
  std::vector<sim::Resource> rx;

  /// Releases the message-sized buffers once they outgrow the bound below:
  /// an all-pairs exchange at p = 1024 would otherwise pin ~40 MB on every
  /// thread that ever priced one.
  void trim() {
    constexpr std::size_t kKeptMessages = std::size_t{1} << 16;
    if (sends.capacity() > kKeptMessages) std::vector<Transfer>().swap(sends);
    if (attempt.capacity() > kKeptMessages) {
      std::vector<std::uint8_t>().swap(attempt);
      std::vector<MsgFate>().swap(fate);
    }
    queue.trim(kKeptMessages);
  }
};

Workspace& workspace() {
  thread_local Workspace ws;
  return ws;
}

/// Lends the calling thread's Workspace to one exchange and trims it when
/// the exchange ends, by return or by throw.
struct WorkspaceLoan {
  Workspace& ws;
  WorkspaceLoan() : ws(workspace()) {}
  ~WorkspaceLoan() { ws.trim(); }
};

/// Per-message pipeline state machine over FIFO resources. Stages request
/// resources and schedule follow-ups in exactly the order of the closure
/// formulation on sim::Engine (tests/net/exchange_reference_test.cpp keeps
/// it), and EventQueue pops them in that formulation's order.
struct ExchangeSim {
  const NetworkParams& hw;
  const SoftwareParams& sw;
  MsgCost cost;
  int p;
  bool control;
  const std::vector<Transfer>& sends;
  // Fault injection (inactive unless the spec carries a nonzero salt AND
  // hw.fault enables message faults; then every draw is a pure function of
  // (salt, src, dst, attempt) — never of simulated time, so results stay
  // time-translation invariant).
  FaultModel fault;
  std::uint64_t salt;
  bool faulty;
  std::vector<std::uint8_t>& attempt;
  std::vector<MsgFate>& fate;

  EventQueue& queue;
  cycles_t now{0};
  std::vector<sim::Resource>& cpu;
  std::vector<sim::Resource>& tx;
  std::vector<sim::Resource>& rx;
  sim::Resource fabric{"fabric"};  // used only when hw.fabric_links > 0

  ExchangeResult result;

  ExchangeSim(const NetworkParams& hw_in, const SoftwareParams& sw_in,
              int p_in, bool control_in, std::uint64_t salt_in,
              Workspace& ws)
      : hw(hw_in),
        sw(sw_in),
        cost{hw_in, sw_in},
        p(p_in),
        control(control_in),
        sends(ws.sends),
        fault(hw_in.fault),
        salt(salt_in),
        faulty(salt_in != 0 && hw_in.fault.message_faults_enabled()),
        attempt(ws.attempt),
        fate(ws.fate),
        queue(ws.queue),
        cpu(ws.cpu),
        tx(ws.tx),
        rx(ws.rx) {
    const auto up = static_cast<std::size_t>(p);
    cpu.assign(up, sim::Resource{});
    tx.assign(up, sim::Resource{});
    rx.assign(up, sim::Resource{});
    queue.reset(p, sends.size() + up);
    if (faulty) {
      attempt.assign(sends.size(), 1);
      fate.assign(sends.size(), MsgFate::Deliver);
    }
  }

  void schedule(cycles_t at, Stage stage, std::uint32_t msg) {
    QSM_REQUIRE(at >= now, "cannot schedule an event in the past");
    const Transfer& t = sends[msg];
    queue.push(at, stage, stage == Stage::Recv ? t.dst : t.src, msg);
  }

  void run() {
    Event ev{};
    while (queue.pop(ev)) {
      QSM_ASSERT(ev.at >= now, "event queue went backwards");
      now = ev.at;
      switch (ev.stage) {
        case Stage::Send:
          send_stage(ev.msg);
          break;
        case Stage::Tx:
          tx_stage(ev.msg);
          break;
        case Stage::Fabric:
          fabric_stage(ev.msg);
          break;
        case Stage::Rx:
          rx_stage(ev.msg);
          break;
        case Stage::Recv:
          recv_stage(ev.msg);
          break;
      }
    }
  }

  void note_finish(int node, cycles_t t) {
    auto& f = result.nodes[static_cast<std::size_t>(node)].finish;
    f = std::max(f, t);
  }

  /// Sender CPU builds the message. Under fault injection this is also the
  /// retransmission entry point: a retried attempt pays the full send CPU,
  /// NIC serialization, and wire costs again.
  void send_stage(std::uint32_t i) {
    const Transfer& t = sends[i];
    const auto send_grant = cpu[static_cast<std::size_t>(t.src)].serve(
        now, control ? cost.control_cpu() : cost.send_cpu(t.bytes));
    note_finish(t.src, send_grant.end);
    result.messages++;
    result.wire_bytes += t.bytes + sw.msg_header_bytes;
    if (faulty) {
      fate[i] = fault.message_fate(salt, t.src, t.dst, attempt[i]);
      if (fate[i] == MsgFate::Duplicate) {
        // The fabric will deliver two copies; both serialize, fly, and are
        // ingested. The second copy is its own Tx event right behind the
        // first, so it queues FIFO on the same NIC.
        result.duplicates++;
        result.messages++;
        result.wire_bytes += t.bytes + sw.msg_header_bytes;
        schedule(send_grant.end, Stage::Tx, i);
      }
    }
    schedule(send_grant.end, Stage::Tx, i);
  }

  /// Sender NIC serializes onto the wire.
  void tx_stage(std::uint32_t i) {
    const Transfer& t = sends[i];
    const auto tx_grant =
        tx[static_cast<std::size_t>(t.src)].serve(now, cost.wire_time(t.bytes));
    note_finish(t.src, tx_grant.end);
    // With congestion modeling on, the message also streams through the
    // shared fabric before crossing the wire. The fabric serve happens in
    // its own event so resource requests stay in time order.
    if (hw.fabric_links > 0) {
      schedule(tx_grant.end, Stage::Fabric, i);
      return;
    }
    depart(i, tx_grant.end);
  }

  void fabric_stage(std::uint32_t i) {
    const auto fab = fabric.serve(now, cost.fabric_time(sends[i].bytes));
    depart(i, fab.end);
  }

  /// Wire time of the in-flight attempt: hops * l (1 hop when fully
  /// connected), plus the spike of a delayed attempt.
  cycles_t flight(std::uint32_t i) const {
    const Transfer& t = sends[i];
    cycles_t f = hw.latency * hops(hw.topology, t.src, t.dst, p);
    if (faulty && fate[i] == MsgFate::Delay) f += fault.params().delay_cycles;
    return f;
  }

  /// The attempt leaves the sender at `end`. Fault-free (and for delayed,
  /// duplicated, or forcibly delivered attempts) it reaches the receiver
  /// NIC after the flight time; a dropped attempt vanishes on the wire and
  /// the sender re-enters Send once the ack timeout (with exponential
  /// backoff) expires. After max_attempts the delivery is forced — the
  /// retry protocol models "the network eventually delivers", which keeps
  /// both the event loop and the pricing replay loop finite.
  void depart(std::uint32_t i, cycles_t end) {
    if (faulty && fate[i] == MsgFate::Drop &&
        attempt[i] < fault.params().max_attempts) {
      result.drops++;
      result.retries++;
      const cycles_t wait = fault.retry_delay(attempt[i]);
      const cycles_t arrive = end + flight(i);
      attempt[i] = static_cast<std::uint8_t>(attempt[i] + 1);
      schedule(arrive + wait, Stage::Send, i);
      return;
    }
    schedule(end + flight(i), Stage::Rx, i);
  }

  /// Receiver NIC pulls the message off the wire.
  void rx_stage(std::uint32_t i) {
    const Transfer& t = sends[i];
    const auto rx_grant =
        rx[static_cast<std::size_t>(t.dst)].serve(now, cost.wire_time(t.bytes));
    schedule(rx_grant.end, Stage::Recv, i);
  }

  /// Receiver CPU consumes the message.
  void recv_stage(std::uint32_t i) {
    const Transfer& t = sends[i];
    const auto recv_grant = cpu[static_cast<std::size_t>(t.dst)].serve(
        now, control ? cost.control_cpu() : cost.recv_cpu(t.bytes));
    note_finish(t.dst, recv_grant.end);
  }
};

/// Validates the messages in `ws.sends`, puts them in send order, and
/// simulates the exchange.
ExchangeResult simulate_sends(const NetworkParams& hw, const SoftwareParams& sw,
                              const std::vector<cycles_t>& start,
                              bool control, ExchangeSpec::SendOrder order,
                              std::uint64_t fault_salt, Workspace& ws) {
  hw.validate();
  sw.validate();
  const int p = static_cast<int>(start.size());
  QSM_REQUIRE(p >= 1, "exchange needs at least one node");
  for (cycles_t s : start) {
    QSM_REQUIRE(s >= 0, "start times must be non-negative");
  }
  for (const Transfer& t : ws.sends) {
    QSM_REQUIRE(t.src >= 0 && t.src < p && t.dst >= 0 && t.dst < p,
                "transfer endpoint out of range");
    QSM_REQUIRE(t.src != t.dst, "self-transfer is not network traffic");
    QSM_REQUIRE(t.bytes >= 0, "negative transfer size");
  }
  QSM_REQUIRE(ws.sends.size() < kNil, "too many messages in one exchange");
  order_sends(ws.sends, order);

  ExchangeSim sim(hw, sw, p, control, fault_salt, ws);
  // Every node is at least "finished" at its own start time (a node with no
  // traffic is done when it arrives).
  sim.result.nodes.resize(start.size());
  for (std::size_t i = 0; i < start.size(); ++i) {
    sim.result.nodes[i].finish = start[i];
  }

  // Kick off each node's send chain. Each send event claims the node CPU;
  // the NIC hand-off, wire flight, receive NIC, and receive CPU are the
  // chained stage events. Resource::serve() calls always happen inside
  // events, so request times are nondecreasing and the FIFO analytic
  // bookkeeping is causally valid.
  for (std::uint32_t i = 0; i < ws.sends.size(); ++i) {
    const auto s = static_cast<std::size_t>(ws.sends[i].src);
    sim.schedule(start[s], Stage::Send, i);
  }

  sim.run();

  ExchangeResult result = std::move(sim.result);
  for (std::size_t u = 0; u < start.size(); ++u) {
    result.nodes[u].cpu_busy = sim.cpu[u].busy_cycles();
    result.nodes[u].tx_busy = sim.tx[u].busy_cycles();
    result.nodes[u].rx_busy = sim.rx[u].busy_cycles();
    result.finish = std::max(result.finish, result.nodes[u].finish);
  }
  return result;
}

}  // namespace

ExchangeResult simulate_exchange(const NetworkParams& hw,
                                 const SoftwareParams& sw,
                                 const ExchangeSpec& spec) {
  QSM_REQUIRE(spec.p >= 1, "exchange needs at least one node");
  QSM_REQUIRE(spec.start.size() == static_cast<std::size_t>(spec.p),
              "start times must cover every node");
  WorkspaceLoan loan;
  Workspace& ws = loan.ws;
  ws.sends.assign(spec.transfers.begin(), spec.transfers.end());
  return simulate_sends(hw, sw, spec.start, spec.control, spec.order,
                        spec.fault_salt, ws);
}

ExchangeResult simulate_alltoallv(
    const NetworkParams& hw, const SoftwareParams& sw,
    const std::vector<cycles_t>& start,
    const std::vector<std::vector<std::int64_t>>& bytes,
    std::uint64_t fault_salt) {
  const int p = static_cast<int>(start.size());
  QSM_REQUIRE(bytes.size() == start.size(), "bytes matrix must be p x p");
  WorkspaceLoan loan;
  Workspace& ws = loan.ws;
  ws.sends.clear();
  for (int i = 0; i < p; ++i) {
    const auto& row = bytes[static_cast<std::size_t>(i)];
    QSM_REQUIRE(row.size() == start.size(), "bytes matrix must be p x p");
    for (int j = 0; j < p; ++j) {
      const std::int64_t b = row[static_cast<std::size_t>(j)];
      if (i != j && b > 0) {
        ws.sends.push_back(Transfer{i, j, b});
      }
    }
  }
  return simulate_sends(hw, sw, start, false,
                        ExchangeSpec::SendOrder::Staggered, fault_salt, ws);
}

ExchangeResult simulate_alltoallv_sparse(
    const NetworkParams& hw, const SoftwareParams& sw,
    const std::vector<cycles_t>& start,
    const std::vector<std::pair<std::int64_t, std::int64_t>>& traffic,
    std::uint64_t fault_salt) {
  const int p = static_cast<int>(start.size());
  WorkspaceLoan loan;
  Workspace& ws = loan.ws;
  ws.sends.clear();
  ws.sends.reserve(traffic.size());
  for (const auto& [idx, b] : traffic) {
    QSM_REQUIRE(idx >= 0 && idx < static_cast<std::int64_t>(p) * p,
                "sparse traffic index out of range");
    const int src = static_cast<int>(idx / p);
    const int dst = static_cast<int>(idx % p);
    QSM_REQUIRE(b > 0, "sparse traffic entries must be positive");
    ws.sends.push_back(Transfer{src, dst, b});
  }
  return simulate_sends(hw, sw, start, false,
                        ExchangeSpec::SendOrder::Staggered, fault_salt, ws);
}

bool uniform_all_pairs_exact(const NetworkParams& hw,
                             std::uint64_t fault_salt) {
  return fault_salt == 0 && hw.topology == Topology::FullyConnected &&
         hw.fabric_links == 0;
}

ExchangeResult simulate_uniform_all_pairs(const NetworkParams& hw,
                                          const SoftwareParams& sw,
                                          const std::vector<cycles_t>& start,
                                          std::int64_t bytes, bool control) {
  hw.validate();
  sw.validate();
  QSM_REQUIRE(uniform_all_pairs_exact(hw, 0),
              "the uniform all-pairs closed form requires a fully connected, "
              "contention-free fabric");
  QSM_REQUIRE(bytes >= 0, "negative transfer size");
  const int p = static_cast<int>(start.size());
  QSM_REQUIRE(p >= 1, "exchange needs at least one node");
  for (cycles_t s : start) {
    QSM_REQUIRE(s >= 0, "start times must be non-negative");
  }

  const auto up = static_cast<std::size_t>(p);
  ExchangeResult result;
  result.nodes.assign(up, NodeTimings{});
  for (std::size_t i = 0; i < up; ++i) result.nodes[i].finish = start[i];
  if (p == 1) {
    result.finish = start[0];
    return result;
  }

  // Complete graph of p*(p-1) identical messages. Because every service
  // duration on a given resource is the same (c on CPUs, one wire_time on
  // NICs), the FIFO grant-END sequence of each resource depends only on the
  // multiset of request times — never on how the DES breaks ties among
  // equal requests — so the schedule below, which mirrors the event order
  // of simulate_exchange up to such ties, reproduces its results exactly.
  // See DESIGN.md §4 for the full argument.
  const MsgCost cost{hw, sw};
  const cycles_t c = control ? cost.control_cpu() : cost.send_cpu(bytes);
  QSM_REQUIRE(control || cost.recv_cpu(bytes) == c,
              "the closed form needs one CPU grant length for sends and "
              "receives");
  const cycles_t w = cost.wire_time(bytes);
  const cycles_t L = hw.latency;
  const cycles_t u = std::max(c, w);  // tx departure spacing per sender
  const std::int64_t n_sends = static_cast<std::int64_t>(p) * (p - 1);
  result.messages = static_cast<std::uint64_t>(n_sends);
  result.wire_bytes = (bytes + sw.msg_header_bytes) * n_sends;
  for (std::size_t i = 0; i < up; ++i) {
    result.nodes[i].cpu_busy = 2 * static_cast<cycles_t>(p - 1) * c;
    result.nodes[i].tx_busy = static_cast<cycles_t>(p - 1) * w;
    result.nodes[i].rx_busy = static_cast<cycles_t>(p - 1) * w;
  }

  // All of node s's send events execute back-to-back at time start[s] (they
  // carry the lowest sequence numbers at that instant), so its CPU send
  // block is contiguous: [T0, T0 + (p-1)c) with T0 = max(start[s], end of
  // the receive grants requested strictly before start[s]). The tx NIC then
  // serves only sends, requested exactly c apart, giving the closed-form
  // departure of round r (1-based): T0 + c + w + (r-1)*u.
  std::vector<cycles_t> t0(start.begin(), start.end());
  cycles_t smin = start[0];
  cycles_t smax = start[0];
  for (cycles_t s : start) {
    smin = std::min(smin, s);
    smax = std::max(smax, s);
  }
  // A receive can only delay a node's send block if some message's rx grant
  // ends before that node starts; the earliest rx end anywhere is
  // min_start + c + 2w + L.
  const bool no_interference = smax <= smin + c + 2 * w + L;

  // O(p) collapse of the receive folds. When w >= c the tx spacing u equals
  // the rx service time w, so the rx FIFO unrolls exactly:
  //   rx_end_r = max_{j<=r}(a_j + (r-j+1)w)  with  a_j = t0[s_j] + c + L + jw
  //            = (r+1)w + c + L + max_{j<=r} t0[s_j],
  // provided arrivals ascend in round order (adjacent-pair start spread
  // <= u guarantees it for every receiver at once). No interference puts
  // the send block first on every CPU (rx_end_1 >= smin + c + 2w + L >=
  // smax >= start[d]), and rx ends are then spaced >= w >= c apart so the
  // receive-CPU chain never queues on itself — only behind the block:
  //   last_recv_end = max(rx_end_last + c, block_end + (p-1)c).
  // Each receiver therefore needs only max_{s != d} start[s], which the
  // global max and second max provide. Bit-identical to the folds below —
  // this is the same arithmetic with the maxes taken in closed form.
  if (no_interference && w >= c && p >= 2) {
    bool adjacent_ok = true;
    for (std::size_t s = 0; s < up; ++s) {
      const std::size_t before = (s + up - 1) % up;
      if (start[s] - start[before] > u) {
        adjacent_ok = false;
        break;
      }
    }
    if (adjacent_ok) {
      cycles_t m1 = start[0];
      cycles_t m2 = -1;
      int m1_count = 1;
      for (std::size_t s = 1; s < up; ++s) {
        const cycles_t v = start[s];
        if (v > m1) {
          m2 = m1;
          m1 = v;
          m1_count = 1;
        } else if (v == m1) {
          ++m1_count;
        } else if (v > m2) {
          m2 = v;
        }
      }
      const cycles_t block_len = static_cast<cycles_t>(p - 1) * c;
      cycles_t global_finish = 0;
      for (std::size_t d = 0; d < up; ++d) {
        const cycles_t others_max =
            (start[d] == m1 && m1_count == 1) ? m2 : m1;
        const cycles_t rx_last =
            static_cast<cycles_t>(p) * w + c + L + others_max;
        const cycles_t block_end = start[d] + block_len;
        const cycles_t last_recv_end =
            std::max(rx_last + c, block_end + block_len);
        const cycles_t last_tx =
            start[d] + c + w + static_cast<cycles_t>(p - 2) * u;
        cycles_t fin = std::max(start[d], block_end);
        fin = std::max(fin, last_tx);
        fin = std::max(fin, last_recv_end);
        result.nodes[d].finish = fin;
        global_finish = std::max(global_finish, fin);
      }
      result.finish = global_finish;
      return result;
    }
  }

  if (!no_interference) {
    std::vector<int> order(up);
    for (std::size_t i = 0; i < up; ++i) order[i] = static_cast<int>(i);
    std::sort(order.begin(), order.end(), [&](int a, int b) {
      return start[static_cast<std::size_t>(a)] <
             start[static_cast<std::size_t>(b)];
    });
    // arr[d] accumulates arrival times at d from already-processed senders.
    // Any arrival from a later-starting sender lands at or after its start
    // (>= start[s'] + c + w + L), so when node s is processed in ascending
    // start order, every arrival that could precede start[s] is present.
    std::vector<std::vector<cycles_t>> arr(up);
    std::vector<cycles_t> pre;
    for (const int si : order) {
      const auto s = static_cast<std::size_t>(si);
      pre.clear();
      for (const cycles_t a : arr[s]) {
        if (a < start[s]) pre.push_back(a);
      }
      if (!pre.empty()) {
        std::sort(pre.begin(), pre.end());
        // rx FIFO over the early arrivals, then the receive-CPU grants they
        // request strictly before start[s]; later arrivals cannot change
        // these grants.
        cycles_t rx_nf = 0;
        cycles_t cpu_nf = 0;
        for (const cycles_t a : pre) {
          const cycles_t rx_end = std::max(a, rx_nf) + w;
          rx_nf = rx_end;
          if (rx_end < start[s]) cpu_nf = std::max(rx_end, cpu_nf) + c;
        }
        t0[s] = std::max(start[s], cpu_nf);
      }
      const cycles_t dep0 = t0[s] + c + w;
      for (int r = 1; r < p; ++r) {
        const int d = (si + r) % p;
        arr[static_cast<std::size_t>(d)].push_back(
            dep0 + static_cast<cycles_t>(r - 1) * u + L);
      }
    }
  }

  // Per node: last send-CPU grant, last tx grant, and the receive fold —
  // rx FIFO over arrivals in time order feeding the CPU, with the send
  // block inserted before any receive requested at or after start[d].
  std::vector<cycles_t> sorted;
  cycles_t global_finish = 0;
  for (int d = 0; d < p; ++d) {
    const auto ud = static_cast<std::size_t>(d);
    cycles_t fin = start[ud];
    const cycles_t block_req = start[ud];
    const cycles_t block_len = static_cast<cycles_t>(p - 1) * c;
    // Arrivals at d in round order r: from s = d - r (mod p), at
    // t0[s] + c + w + (r-1)u + L — usually already nondecreasing (the
    // spacing u dominates the start spread); fall back to a sort when not.
    bool sorted_ok = true;
    cycles_t prev = 0;
    sorted.clear();
    for (int r = 1; r < p; ++r) {
      const auto s = static_cast<std::size_t>(((d - r) % p + p) % p);
      const cycles_t a = t0[s] + c + w + static_cast<cycles_t>(r - 1) * u + L;
      if (r > 1 && a < prev) sorted_ok = false;
      prev = a;
      sorted.push_back(a);
    }
    if (!sorted_ok) std::sort(sorted.begin(), sorted.end());

    cycles_t rx_nf = 0;
    cycles_t cpu_nf = 0;
    bool block_done = false;
    cycles_t block_start = 0;
    cycles_t last_recv_end = 0;
    for (const cycles_t a : sorted) {
      const cycles_t rx_end = std::max(a, rx_nf) + w;
      rx_nf = rx_end;
      if (!block_done && rx_end >= block_req) {
        block_start = std::max(block_req, cpu_nf);
        cpu_nf = block_start + block_len;
        block_done = true;
      }
      last_recv_end = std::max(rx_end, cpu_nf) + c;
      cpu_nf = last_recv_end;
    }
    if (!block_done) {
      block_start = std::max(block_req, cpu_nf);
      cpu_nf = block_start + block_len;
    }
    // The fold just recomputed the send-block start from the receive grants;
    // it must agree with the interference pass (or with start[d] when that
    // pass was skipped).
    QSM_ASSERT(block_start == t0[ud], "send block fold mismatch");

    const cycles_t send_end = t0[ud] + block_len;
    const cycles_t last_tx = t0[ud] + c + w + static_cast<cycles_t>(p - 2) * u;
    fin = std::max(fin, send_end);
    fin = std::max(fin, last_tx);
    fin = std::max(fin, last_recv_end);
    result.nodes[ud].finish = fin;
    global_finish = std::max(global_finish, fin);
  }
  result.finish = global_finish;
  return result;
}

}  // namespace qsm::net
