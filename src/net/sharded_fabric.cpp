#include "net/sharded_fabric.hpp"

#include <algorithm>
#include <cstddef>
#include <stdexcept>
#include <utility>
#include <vector>

namespace nicmcast::net {

namespace {

/// splitmix64 finalizer — the schedule-independent loss coin.  Deciding a
/// drop from (seed, edge, iter, attempt) instead of a draw from a shared
/// RNG stream is what keeps drop/retransmit counts identical across shard
/// counts: no shard interleaving can reorder the draws.
std::uint64_t mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

}  // namespace

ShardedFabric::ShardedFabric(Topology topology, FabricTree tree,
                             FabricOptions options, std::size_t shards)
    : topology_(std::move(topology)),
      tree_(std::move(tree)),
      options_(options),
      partition_(switch_cut(topology_, shards, options.net)) {
  if (tree_.size() != topology_.endpoint_count()) {
    throw std::invalid_argument(
        "ShardedFabric: tree size != topology endpoint count");
  }
  if (tree_.child_off.size() != tree_.size() + 1) {
    throw std::invalid_argument("ShardedFabric: malformed child_off");
  }
  if (options_.workload == FabricWorkload::kBarrier &&
      options_.loss_rate > 0.0) {
    // The barrier's arrive/release packets ride the ack path (which the
    // loss model deliberately never touches); silently running it lossy
    // would report a reliability we don't simulate.
    throw std::invalid_argument(
        "ShardedFabric: kBarrier requires loss_rate == 0");
  }
  if (options_.workload == FabricWorkload::kMultisend &&
      tree_.child_count(tree_.root) + 1 != tree_.size()) {
    throw std::invalid_argument(
        "ShardedFabric: kMultisend needs a star tree (every endpoint a "
        "direct child of the root)");
  }
  // partition_.shards, not the requested count: switch_cut clamps to the
  // leaf-block count so no worker ends up owning zero endpoints.
  engine_ = std::make_unique<sim::ShardedEngine>(
      partition_.shards, partition_.lookahead, options_.seed);
  // Hand the engine the partition's per-pair channel lookaheads (post()
  // enforces them as the send window).  With the model's uniform hop
  // latency every entry equals the global floor, so this changes no
  // schedule — it wires the derivation end to end.
  for (std::size_t from = 0; from < partition_.shards; ++from) {
    for (std::size_t to = 0; to < partition_.shards; ++to) {
      if (from != to) {
        engine_->set_channel_lookahead(
            from, to, partition_.channel_lookahead_of(from, to));
      }
    }
  }
  shards_.reserve(partition_.shards);
  for (std::size_t s = 0; s < partition_.shards; ++s) {
    shards_.push_back(std::make_unique<ShardState>(topology_));
  }
  link_free_.assign(topology_.link_count(), sim::TimePoint{0});
  received_iter_.assign(tree_.size(), -1);
  edges_.assign(tree_.size(), EdgeState{});
  if (options_.workload == FabricWorkload::kBarrier) {
    barrier_arrivals_.assign(tree_.size(), 0);
    barrier_self_ready_.assign(tree_.size(), 0);
    barrier_round_.assign(tree_.size(), 0);
  }
  // The single message allocation every delivery slices out of (the GM
  // zero-copy posture): slices travel inside cross-shard posted closures
  // and are released on whichever shard executes them.
  std::vector<std::byte> bytes(options_.message_bytes);
  for (std::size_t i = 0; i < bytes.size(); ++i) {
    bytes[i] = static_cast<std::byte>(i & 0xff);
  }
  payload_ = Buffer::take(std::move(bytes));
}

std::size_t ShardedFabric::packets_per_message() const {
  return (options_.message_bytes + options_.nic.max_packet_payload - 1) /
         options_.nic.max_packet_payload;
}

std::size_t ShardedFabric::train_wire_bytes() const {
  // A >4096B message travels as a back-to-back packet train; the train
  // occupies the path for its summed wire size and is acked once.
  return options_.message_bytes +
         packets_per_message() * options_.net.framing_bytes;
}

bool ShardedFabric::dropped(NodeId child, std::int32_t iter,
                            std::uint32_t attempt) const {
  if (options_.loss_rate <= 0.0) return false;
  const std::uint64_t h =
      mix64(options_.seed ^ (static_cast<std::uint64_t>(child) << 40) ^
            (static_cast<std::uint64_t>(static_cast<std::uint32_t>(iter))
             << 8) ^
            attempt);
  const double coin =
      static_cast<double>(h >> 11) * 0x1.0p-53;  // uniform in [0, 1)
  return coin < options_.loss_rate;
}

sim::Duration ShardedFabric::skew_of(std::int32_t iter, NodeId node) const {
  if (options_.avg_skew_us <= 0.0) return sim::usec(0.0);
  // Counter hash, not an RNG stream: the draw for (iter, node) is the same
  // no matter which shard computes it or in what order, which is what
  // makes skewed runs shard-count invariant.
  const std::uint64_t h =
      mix64(options_.seed ^ 0x736b6577ULL ^
            (static_cast<std::uint64_t>(node) << 24) ^
            static_cast<std::uint64_t>(static_cast<std::uint32_t>(iter)));
  const double coin = static_cast<double>(h >> 11) * 0x1.0p-53;
  return sim::usec(coin * 2.0 * options_.avg_skew_us);  // mean avg_skew_us
}

void ShardedFabric::start_iteration(std::int32_t iter) {
  const std::uint32_t me = shard_of(tree_.root);
  sim::Simulator& sim = sim_of(me);
  const sim::TimePoint now = sim.now();
  ctrl_iter_ = iter;
  ctrl_remaining_ = tree_.size() - 1;
  ctrl_iter_start_ = now;
  ctrl_last_delivery_ = now;
  if (ctrl_remaining_ == 0) return;  // single-node tree: nothing to send

  const nic::NicConfig& nic = options_.nic;
  const std::size_t npkts = packets_per_message();
  const sim::Duration ser = sim::transfer_time(train_wire_bytes(),
                                               options_.net.bandwidth_mbps);
  // Process skew applies to receivers only, mirroring the coroutine-stack
  // experiment (mpi::run_skew_experiment): skew is measured relative to the
  // root's entry, so the root injects on time and late receivers are
  // accounted at the controller.  Skewing the root here would delay every
  // delivery and charge the wait to the receivers' CPU — inverting the
  // paper's flat NIC-multicast curve.
  // Host posts the multicast send; the NIC DMAs the payload once and chains
  // one replica per child off a single send token (the paper's alternative
  // 2: re-queue the packet descriptor with a rewritten header).
  sim::TimePoint inject =
      now + nic.host_post_overhead + nic.host_to_nic_delay + nic.dma_startup +
      sim::transfer_time(options_.message_bytes, nic.host_dma_mbps) +
      nic.send_token_processing +
      nic.per_packet_processing * static_cast<std::int64_t>(npkts);
  const std::size_t nc = tree_.child_count(tree_.root);
  for (std::size_t q = 0; q < nc; ++q) {
    const NodeId child = tree_.child(tree_.root, q);
    if (q > 0) ++shards_[me]->nic.header_rewrites;
    sim.schedule_at(inject, [this, child, iter] {
      send_data(tree_.root, child, iter, 0, sim_of(shard_of(tree_.root)).now());
    });
    inject = inject + nic.header_rewrite + ser;
  }
}

void ShardedFabric::send_data(NodeId from, NodeId to, std::int32_t iter,
                              std::uint32_t attempt, sim::TimePoint inject) {
  const std::uint32_t me = shard_of(from);
  ShardState& st = *shards_[me];
  sim::Simulator& sim = sim_of(me);

  // Shard-local descriptor churn: acquired at injection, recycled when the
  // transmit completes (end of this event) — same lifecycle the firmware
  // model uses, now with one pool per shard.
  Packet packet;
  packet.header.type = PacketType::kMcastData;
  packet.header.src = from;
  packet.header.dst = to;
  packet.header.msg_length =
      static_cast<std::uint32_t>(options_.message_bytes);
  const nic::DescriptorRef descriptor = st.pool.acquire(std::move(packet));

  const std::size_t npkts = packets_per_message();
  st.nic.packets_sent += npkts;

  // Arm (or re-arm) the per-edge Go-back-N timer.  A stale timer from the
  // previous iteration can still be pending here — its ack raced the
  // controller's completion — and is simply replaced.
  EdgeState& edge = edges_[to];
  if (edge.timer_armed) sim.cancel(edge.timer);
  edge.attempt = attempt;
  edge.iter = iter;
  edge.timer_armed = true;
  edge.timer =
      sim.schedule_at(inject + options_.nic.retransmit_timeout,
                      [this, from, to, iter] { retransmit(from, to, iter); });

  const std::size_t wire = train_wire_bytes();
  if (wire <= options_.net.small_packet_bypass_bytes) {
    // Control-sized data: flit-interleaved, no path reservation.
    const RouteView path = st.routes.route(from, to);
    const sim::TimePoint arrival =
        inject +
        options_.net.hop_latency * static_cast<std::int64_t>(path.size()) +
        sim::transfer_time(wire, options_.net.bandwidth_mbps);
    engine_->post(me, shard_of(to), arrival,
                  [this, from, to, iter, attempt,
                   payload = payload_.slice(0, options_.message_bytes)] {
                    deliver(from, to, iter, attempt, payload);
                  });
    return;
  }
  // The first route link leaves `from` itself, so its owner is this shard.
  continue_segment(me, from, to, 0, inject, iter, attempt);
}

void ShardedFabric::continue_segment(std::uint32_t owner, NodeId from,
                                     NodeId to, std::size_t seg,
                                     sim::TimePoint inject, std::int32_t iter,
                                     std::uint32_t attempt) {
  const sim::Duration hop = options_.net.hop_latency;
  const sim::Duration ser = sim::transfer_time(train_wire_bytes(),
                                               options_.net.bandwidth_mbps);
  // Route lookup from the executing shard's own table: recomputing here is
  // cheaper and safer than shipping RouteViews across threads (a
  // hand-wired table's memo mutates under later lookups).
  ShardState& st = *shards_[owner];
  const RouteView path = st.routes.route(from, to);

  // Owner-maximal segment [seg, end): all consecutive links this shard owns.
  std::size_t end = seg + 1;
  while (end < path.size() && partition_.link_owner[path[end]] == owner) {
    ++end;
  }

  // Wormhole cut-through over the segment: the earliest (virtual) injection
  // instant at which the head finds every segment link free on arrival,
  // then staggered occupancy — the exact Network::transmit formula, applied
  // per segment.  With one shard the segment is the whole path.
  sim::TimePoint v = inject;
  for (std::size_t k = seg; k < end; ++k) {
    const sim::TimePoint needed =
        link_free_[path[k]] - hop * static_cast<std::int64_t>(k);
    v = std::max(v, needed);
  }
  for (std::size_t k = seg; k < end; ++k) {
    link_free_[path[k]] = v + hop * static_cast<std::int64_t>(k) + ser;
  }

  if (end < path.size()) {
    // Head reaches the first foreign link at v + end*hop — at least one
    // full hop after this event, so the post respects the lookahead.
    const std::uint32_t next_owner = partition_.link_owner[path[end]];
    engine_->post(owner, next_owner,
                  v + hop * static_cast<std::int64_t>(end),
                  [this, next_owner, from, to, end, v, iter, attempt] {
                    continue_segment(next_owner, from, to, end, v, iter,
                                     attempt);
                  });
    return;
  }
  const sim::TimePoint arrival =
      v + hop * static_cast<std::int64_t>(path.size()) + ser;
  // The payload slice rides the closure to the destination shard, where it
  // is released after delivery — the cross-shard refcount traffic the
  // atomic Buffer exists for.
  engine_->post(owner, shard_of(to), arrival,
                [this, from, to, iter, attempt,
                 payload = payload_.slice(0, options_.message_bytes)] {
                  deliver(from, to, iter, attempt, payload);
                });
}

void ShardedFabric::deliver(NodeId from, NodeId to, std::int32_t iter,
                            std::uint32_t attempt, Buffer payload) {
  const std::uint32_t me = shard_of(to);
  ShardState& st = *shards_[me];
  sim::Simulator& sim = sim_of(me);
  const std::size_t npkts = packets_per_message();
  const nic::NicConfig& nic = options_.nic;

  if (dropped(to, iter, attempt)) {
    // Receiver-side CRC failure: the train traversed (and charged) every
    // link but is not acknowledged; the sender's timer will drive a resend.
    st.nic.crc_drops += npkts;
    return;
  }
  const sim::TimePoint base =
      sim.now() + nic.recv_packet_processing * static_cast<std::int64_t>(npkts);
  if (received_iter_[to] == iter) {
    // Duplicate from a retransmission whose original ack was in flight:
    // drop the payload, but re-ack so the sender's timer is disarmed.
    st.nic.duplicate_drops += npkts;
    sim.schedule_at(base + nic.ack_processing,
                    [this, from, to, iter] { send_ack(to, from, iter); });
    return;
  }
  received_iter_[to] = iter;
  st.nic.packets_received += npkts;
  ++st.deliveries;

  sim.schedule_at(base + nic.ack_processing,
                  [this, from, to, iter] { send_ack(to, from, iter); });

  // Forward down the tree: the receive token transforms into a send token
  // for the first child; every further replica is a header rewrite.
  const std::size_t nc = tree_.child_count(to);
  if (nc > 0) {
    const sim::Duration ser = sim::transfer_time(
        train_wire_bytes(), options_.net.bandwidth_mbps);
    st.nic.forwards += npkts * nc;
    st.nic.header_rewrites += nc - 1;
    sim::TimePoint inject = base + nic.forward_processing;
    for (std::size_t q = 0; q < nc; ++q) {
      const NodeId child = tree_.child(to, q);
      sim.schedule_at(inject, [this, to, child, iter] {
        send_data(to, child, iter, 0, sim_of(shard_of(to)).now());
      });
      inject = inject + nic.header_rewrite + ser;
    }
  }

  // kMultisend completion is sender-side (the last ack landing back at the
  // root), so receivers stay silent towards the controller.
  if (options_.workload == FabricWorkload::kMultisend) return;

  // Land the payload in host memory and report completion to the
  // controller.  The notification travels at exactly +lookahead no matter
  // where the root shard is, so controller pacing — and with it the whole
  // iteration schedule — is identical across shard counts.  (payload.size()
  // == message_bytes: the DMA charges for the bytes that actually landed.)
  sim::TimePoint host_time =
      base + nic.event_delivery + nic.dma_startup +
      sim::transfer_time(payload.size(), nic.host_dma_mbps);
  if (options_.workload == FabricWorkload::kBcast ||
      options_.workload == FabricWorkload::kSkewBcast) {
    host_time = host_time + options_.host_entry_overhead;
  }
  engine_->post(me, shard_of(tree_.root), sim.now() + partition_.lookahead,
                [this, to, host_time] {
                  // Runs on the root's shard worker: post() targeted it.
                  controller_role_.assert_held();
                  notify_controller(to, host_time);
                });
}

void ShardedFabric::send_ack(NodeId from, NodeId to, std::int32_t iter) {
  const std::uint32_t me = shard_of(from);
  ShardState& st = *shards_[me];
  sim::Simulator& sim = sim_of(me);
  ++st.nic.acks_sent;
  // Acks are framing-only control packets: always under the wormhole
  // bypass threshold, so they neither wait on nor add to link occupancy.
  const RouteView path = st.routes.route(from, to);
  const sim::TimePoint arrival =
      sim.now() +
      options_.net.hop_latency * static_cast<std::int64_t>(path.size()) +
      sim::transfer_time(options_.net.framing_bytes,
                         options_.net.bandwidth_mbps);
  engine_->post(me, shard_of(to), arrival, [this, from, to, iter] {
    ack_arrived(to, from, iter);
  });
}

void ShardedFabric::ack_arrived(NodeId parent, NodeId child,
                                std::int32_t iter) {
  EdgeState& edge = edges_[child];
  if (edge.timer_armed && edge.iter == iter) {
    // The cross-shard in-flight cancel: the ack disarms a retransmit timer
    // living on another shard's wheel.
    sim_of(shard_of(parent)).cancel(edge.timer);
    edge.timer_armed = false;
    // Exactly one ack per (child, iter) reaches this branch: re-acks from
    // duplicate deliveries find the timer already disarmed above.
    if (options_.workload == FabricWorkload::kMultisend &&
        parent == tree_.root) {
      // This ack executes on parent's shard and parent is the root, so
      // the controller role is structurally held here.
      controller_role_.assert_held();
      multisend_ack_completed(iter);
    }
  }
}

void ShardedFabric::multisend_ack_completed(std::int32_t iter) {
  // Runs on the root's shard: the star tree makes the root every ack's
  // destination, and controller state is root-shard-owned.
  if (iter != ctrl_iter_) return;
  const nic::NicConfig& nic = options_.nic;
  sim::Simulator& sim = sim_of(shard_of(tree_.root));
  // Sender-side completion: the NIC raises the send-complete event to the
  // host once this child's ack lands (paper Figure 3's measured quantity).
  ctrl_last_delivery_ =
      std::max(ctrl_last_delivery_, sim.now() + nic.event_delivery);
  if (--ctrl_remaining_ > 0) return;

  if (ctrl_iter_ >= options_.warmup) {
    latency_us_.push_back(
        (ctrl_last_delivery_ - ctrl_iter_start_).microseconds());
  }
  const std::int32_t next = ctrl_iter_ + 1;
  if (next >= options_.warmup + options_.iterations) return;
  const sim::TimePoint start =
      std::max(sim.now(), ctrl_last_delivery_) + nic.host_post_overhead;
  sim.schedule_at(start, [this, next] {
    controller_role_.assert_held();  // scheduled on the root's shard
    start_iteration(next);
  });
}

void ShardedFabric::retransmit(NodeId from, NodeId to, std::int32_t iter) {
  EdgeState& edge = edges_[to];
  edge.timer_armed = false;
  if (edge.iter != iter) return;  // iteration already moved on
  const std::uint32_t next_attempt = edge.attempt + 1;
  if (next_attempt > options_.nic.max_retries) {
    throw std::runtime_error(
        "ShardedFabric: retries exhausted on edge " + std::to_string(from) +
        "->" + std::to_string(to));
  }
  const std::uint32_t me = shard_of(from);
  shards_[me]->nic.retransmissions += packets_per_message();
  send_data(from, to, iter, next_attempt, sim_of(me).now());
}

void ShardedFabric::notify_controller(NodeId node, sim::TimePoint host_time) {
  if (options_.workload == FabricWorkload::kSkewBcast) {
    // Receiver-side skew is applied here rather than threaded through the
    // data path: the rank is not at its MPI_Bcast call until `ready`, so
    // the bcast charges it CPU only from then on — the paper's flat
    // NIC-multicast curve is precisely this quantity staying put as
    // avg_skew_us grows.
    const sim::Duration skew = skew_of(ctrl_iter_, node);
    const sim::TimePoint ready = ctrl_iter_start_ + skew;
    const sim::TimePoint completion = std::max(host_time, ready);
    if (ctrl_iter_ >= options_.warmup) {
      const double cpu = (completion - ready).microseconds();
      ctrl_cpu_sum_us_ += cpu;
      ctrl_cpu_max_us_ = std::max(ctrl_cpu_max_us_, cpu);
      ctrl_skew_sum_us_ += skew.microseconds();
      ++ctrl_cpu_count_;
    }
    host_time = completion;
  }
  ctrl_last_delivery_ = std::max(ctrl_last_delivery_, host_time);
  if (--ctrl_remaining_ > 0) return;

  if (ctrl_iter_ >= options_.warmup) {
    latency_us_.push_back(
        (ctrl_last_delivery_ - ctrl_iter_start_).microseconds());
  }
  const std::int32_t next = ctrl_iter_ + 1;
  if (next >= options_.warmup + options_.iterations) return;
  if (options_.workload == FabricWorkload::kBarrier) {
    // Rounds chain through the tree itself (each node re-arms after its
    // release); the controller only rolls its bookkeeping forward.
    ctrl_iter_ = next;
    ctrl_remaining_ = tree_.size();
    ctrl_iter_start_ = ctrl_last_delivery_;
    return;
  }
  sim::Simulator& sim = sim_of(shard_of(tree_.root));
  // The next iteration starts once the slowest host delivery has landed —
  // max() because completion notifications outrun the host DMA by design.
  const sim::TimePoint start =
      std::max(sim.now(), ctrl_last_delivery_) + options_.nic.host_post_overhead;
  sim.schedule_at(start, [this, next] {
    controller_role_.assert_held();  // scheduled on the root's shard
    start_iteration(next);
  });
}

sim::TimePoint ShardedFabric::ctrl_packet_arrival(std::uint32_t me,
                                                  NodeId from, NodeId to) {
  // Framing-only control packet on the wormhole bypass path: always at
  // least one hop out, so posting at this instant respects the lookahead.
  ShardState& st = *shards_[me];
  const RouteView path = st.routes.route(from, to);
  return sim_of(me).now() +
         options_.net.hop_latency * static_cast<std::int64_t>(path.size()) +
         sim::transfer_time(options_.net.framing_bytes,
                            options_.net.bandwidth_mbps);
}

void ShardedFabric::barrier_ready(NodeId node, std::int32_t round) {
  if (round != barrier_round_[node]) {
    throw std::logic_error("ShardedFabric: barrier ready for wrong round");
  }
  barrier_self_ready_[node] = 1;
  barrier_try_send_up(node);
}

void ShardedFabric::barrier_child_arrived(NodeId node, std::int32_t round) {
  // Causality makes early arrivals impossible: a child only sends round r
  // after its own r-1 release, which the parent forwarded — so the parent
  // has already rolled to r.  Anything else is a protocol bug.
  if (round != barrier_round_[node]) {
    throw std::logic_error("ShardedFabric: barrier arrive for wrong round");
  }
  ++shards_[shard_of(node)]->nic.packets_received;
  ++barrier_arrivals_[node];
  barrier_try_send_up(node);
}

void ShardedFabric::barrier_try_send_up(NodeId node) {
  if (barrier_self_ready_[node] == 0) return;
  if (barrier_arrivals_[node] != tree_.child_count(node)) return;
  const std::int32_t round = barrier_round_[node];
  const std::uint32_t me = shard_of(node);
  sim::Simulator& sim = sim_of(me);
  const nic::NicConfig& nic = options_.nic;
  if (node == tree_.root) {
    // The whole fabric has arrived: the release wave starts here after the
    // NIC turns the last combined arrive into a send token.
    sim.schedule_at(sim.now() + nic.forward_processing,
                    [this, node, round] { barrier_release(node, round); });
    return;
  }
  // Combine the subtree into one arrive packet up the tree.
  ++shards_[me]->nic.packets_sent;
  const NodeId parent = tree_.parent[node];
  const sim::TimePoint arrival =
      ctrl_packet_arrival(me, node, parent) + nic.ack_processing;
  engine_->post(me, shard_of(parent), arrival, [this, parent, round] {
    barrier_child_arrived(parent, round);
  });
}

void ShardedFabric::barrier_release(NodeId node, std::int32_t round) {
  const std::uint32_t me = shard_of(node);
  ShardState& st = *shards_[me];
  sim::Simulator& sim = sim_of(me);
  const nic::NicConfig& nic = options_.nic;
  if (node != tree_.root) ++st.nic.packets_received;

  // Fan the release out, one control packet per child, paced by the cost
  // of re-queuing the descriptor with a rewritten header.
  const std::size_t nch = tree_.child_count(node);
  sim::TimePoint send = sim.now();
  for (std::size_t q = 0; q < nch; ++q) {
    const NodeId child = tree_.child(node, q);
    ++st.nic.packets_sent;
    if (q > 0) ++st.nic.header_rewrites;
    const RouteView path = st.routes.route(node, child);
    const sim::TimePoint arrival =
        send +
        options_.net.hop_latency * static_cast<std::int64_t>(path.size()) +
        sim::transfer_time(options_.net.framing_bytes,
                           options_.net.bandwidth_mbps);
    engine_->post(me, shard_of(child), arrival, [this, child, round] {
      barrier_release(child, round);
    });
    send = send + nic.header_rewrite;
  }

  // The host learns the barrier completed via a GM event; the controller
  // hears about it at exactly +lookahead (shard-count-invariant pacing).
  const sim::TimePoint host_time = sim.now() + nic.event_delivery;
  ++st.deliveries;
  engine_->post(me, shard_of(tree_.root), sim.now() + partition_.lookahead,
                [this, node, host_time] {
                  // Runs on the root's shard worker: post() targeted it.
                  controller_role_.assert_held();
                  notify_controller(node, host_time);
                });

  // Reset and arm the next round locally — rounds self-chain through the
  // tree, with the node's per-round process skew applied at re-entry.
  barrier_arrivals_[node] = 0;
  barrier_self_ready_[node] = 0;
  barrier_round_[node] = round + 1;
  if (round + 1 >= options_.warmup + options_.iterations) return;
  const sim::TimePoint ready =
      sim.now() + nic.host_post_overhead + skew_of(round + 1, node);
  sim.schedule_at(ready, [this, node, next = round + 1] {
    barrier_ready(node, next);
  });
}

FabricResult ShardedFabric::run() {
  if (options_.workload == FabricWorkload::kBarrier) {
    // Round 0: every node becomes ready after its own skew delay.  All
    // rounds after that chain through barrier_release; the controller only
    // counts tree_.size() completions per round.
    {
      // Workers have not started: the calling thread owns everything.
      const sim::RoleGuard controller(controller_role_);
      ctrl_iter_ = 0;
      ctrl_remaining_ = tree_.size();
      ctrl_iter_start_ = sim::TimePoint{0};
      ctrl_last_delivery_ = sim::TimePoint{0};
    }
    for (std::size_t i = 0; i < tree_.size(); ++i) {
      const NodeId node = static_cast<NodeId>(i);
      const sim::TimePoint ready = sim::TimePoint{0} + skew_of(0, node);
      sim_of(shard_of(node)).schedule_at(ready, [this, node] {
        barrier_ready(node, 0);
      });
    }
  } else {
    sim_of(shard_of(tree_.root))
        .schedule_at(sim::TimePoint{0}, [this] {
          controller_role_.assert_held();  // runs on the root's shard
          start_iteration(0);
        });
  }
  engine_->run();

  FabricResult out;
  {
    // Workers joined in engine_->run(): the calling thread owns the
    // controller state again.
    const sim::RoleGuard controller(controller_role_);
    out.latency_us = std::move(latency_us_);
    if (ctrl_cpu_count_ > 0) {
      const double n = static_cast<double>(ctrl_cpu_count_);
      out.avg_bcast_cpu_us = ctrl_cpu_sum_us_ / n;
      out.max_bcast_cpu_us = ctrl_cpu_max_us_;
      out.avg_applied_skew_us = ctrl_skew_sum_us_ / n;
    }
  }
  out.cross_links = partition_.cross_links;
  out.lbts_rounds = engine_->lbts_rounds();
  out.shard_order_hashes = engine_->shard_order_hashes();
  out.merged_order_hash = engine_->merged_order_hash();
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    const ShardState& st = *shards_[s];
    nic::accumulate(out.nic_totals, st.nic);
    out.nic_totals.descriptor_allocs += st.pool.allocs();
    out.nic_totals.descriptor_reuses += st.pool.reuses();
    out.deliveries += st.deliveries;

    const sim::EventQueue::Stats& q = engine_->shard(s).queue_stats();
    out.events_scheduled += q.scheduled;
    out.events_executed += q.executed;
    out.events_cancelled += q.cancelled;
    out.heap_actions += q.heap_actions;
    out.pool_slots += q.pool_slots;
    out.wheel_cascades += q.wheel_cascades;
    out.overflow_scheduled += q.overflow_scheduled;
    out.overflow_promotions += q.overflow_promotions;
    out.shard_wheel_occupancy_peak.push_back(q.wheel_occupancy_peak);

    const RouteTableStats& r = st.routes.stats();
    out.routes_materialized += r.routes_materialized;
    out.route_links_stored += r.links_stored;

    const sim::ShardedEngine::ShardStats& ss = engine_->shard_stats(s);
    out.cross_shard_msgs += ss.cross_shard_msgs_sent;
    out.horizon_stalls += ss.horizon_stalls;
    out.channel_spills += ss.channel_spills;
    out.blocked_waits += ss.blocked_waits;
  }
  return out;
}

}  // namespace nicmcast::net
