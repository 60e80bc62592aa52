// NIC-timing-faithful experiment fabric on the sharded PDES engine.
//
// The coroutine-based gm::Cluster stack is single-threaded by construction
// (shared closures, one global Network); what runs sharded is the
// packet-level behaviour of the paper's experiment families — NIC-based
// multicast, flat multisend, MPI-style bcast, the NIC tree barrier and the
// process-skew bcast — with injection/forward/ack/retransmit timing from
// nic::NicConfig, wormhole link contention from net::NetworkConfig and
// per-edge Go-back-N, expressed as shard-local state so the fabric
// parallelises:
//
//   - every tree node, link, and per-edge ARQ record is owned by exactly
//     one shard (net::switch_cut), and only that shard's worker touches it;
//   - packets crossing a shard boundary become ShardedEngine::post calls,
//     legal because every hand-off lies at least one hop_latency ahead;
//   - wormhole cut-through is computed per owner-maximal route segment: at
//     shards=1 the single segment reproduces Network::transmit's formula
//     bit-for-bit, at shards>1 a stalled boundary simply does not
//     retro-extend upstream reservations (a slightly optimistic upstream
//     release; DESIGN.md §4.5);
//   - loss is decided by a counter hash of (seed, edge, iter, attempt) and
//     applied at the receiver like a CRC drop, so drop/retransmit counts —
//     and therefore total deliveries — are invariant across shard counts.
#pragma once

#include <cstdint>
#include <limits>
#include <memory>
#include <vector>

#include "net/network.hpp"
#include "net/packet.hpp"
#include "net/partition.hpp"
#include "net/topology.hpp"
#include "nic/config.hpp"
#include "nic/packet_descriptor.hpp"
#include "nic/types.hpp"
#include "sim/sharded_engine.hpp"
#include "sim/thread_annotations.hpp"
#include "sim/time.hpp"

namespace nicmcast::net {

/// A multicast spanning tree in flat arrays (65536 endpoints = 128k ids;
/// the unordered_map-based mcast::Tree is for protocol code, this is for
/// the data path).  Child order is meaningful: replicas to children are
/// serialised in this order, exactly like the GM send-record chain.
struct FabricTree {
  static constexpr NodeId kNoParent = std::numeric_limits<NodeId>::max();

  NodeId root = 0;
  std::vector<NodeId> parent;           // kNoParent at the root
  std::vector<std::uint32_t> child_off; // node -> first child; size n+1
  std::vector<NodeId> children;         // flattened child lists

  [[nodiscard]] std::size_t size() const { return parent.size(); }
  [[nodiscard]] std::size_t child_count(NodeId n) const {
    return child_off[n + 1u] - child_off[n];
  }
  [[nodiscard]] NodeId child(NodeId n, std::size_t slot) const {
    return children[child_off[n] + slot];
  }
};

/// Which experiment family the fabric runs.  All families share the
/// shard-local link/route/descriptor machinery; they differ in who sends,
/// what completion means, and which metrics the controller collects.
enum class FabricWorkload : std::uint8_t {
  /// Root multicasts down the tree each iteration; NICs forward; latency
  /// is the last host delivery (the original PR 6 fabric — its event
  /// schedule is pinned by goldens and must not change).
  kMcast,
  /// Flat NIC-based multisend: the tree must be a star (every endpoint a
  /// direct child of the root).  Completion is sender-side — the last
  /// Go-back-N ack landing back at the root, plus host event delivery —
  /// exactly what the paper's Figure 3 measures.
  kMultisend,
  /// MPI_Bcast over the NIC multicast: kMcast plus a host-entry overhead
  /// per delivery (the MPI decode/matching cost on top of the GM event).
  kBcast,
  /// NIC tree barrier: arrive packets combine up the tree, a release
  /// wave fans back down; rounds chain through the tree itself.  Control
  /// packets only — requires loss_rate == 0.  avg_skew_us staggers each
  /// node's per-round arrival.
  kBarrier,
  /// kBcast under process skew: each rank enters the bcast avg_skew_us
  /// late on average (deterministic per (iter, rank)); the NIC data path
  /// is oblivious — only host-side completion shifts, which is the
  /// paper's headline flat-curve result.
  kSkewBcast,
};

[[nodiscard]] constexpr const char* to_string(FabricWorkload w) {
  switch (w) {
    case FabricWorkload::kMcast: return "mcast";
    case FabricWorkload::kMultisend: return "multisend";
    case FabricWorkload::kBcast: return "bcast";
    case FabricWorkload::kBarrier: return "barrier";
    case FabricWorkload::kSkewBcast: return "skew_bcast";
  }
  return "?";
}

struct FabricOptions {
  FabricWorkload workload = FabricWorkload::kMcast;
  std::size_t message_bytes = 512;
  int warmup = 1;
  int iterations = 2;
  double loss_rate = 0.0;
  /// Mean process skew (kBarrier, kSkewBcast): each node's per-iteration
  /// entry is delayed uniformly in [0, 2 * avg_skew_us), derived from a
  /// counter hash of (seed, iter, node) so it is shard-count invariant.
  double avg_skew_us = 0.0;
  /// Host-side MPI entry cost added to every kBcast/kSkewBcast delivery.
  sim::Duration host_entry_overhead = sim::usec(1.0);
  std::uint64_t seed = 1;
  nic::NicConfig nic;
  NetworkConfig net;
};

/// Everything the harness folds into a RunResult.
struct FabricResult {
  std::vector<double> latency_us;          // timed iterations only
  nic::NicStats nic_totals;
  std::uint64_t deliveries = 0;            // first deliveries, all iters

  // kSkewBcast host-side metrics (timed iterations, receivers only).
  double avg_bcast_cpu_us = 0.0;   // mean (completion - ready) per rank
  double max_bcast_cpu_us = 0.0;   // worst rank
  double avg_applied_skew_us = 0.0;

  // Engine counters, aggregated over shards.
  std::uint64_t events_scheduled = 0;
  std::uint64_t events_executed = 0;
  std::uint64_t events_cancelled = 0;
  std::uint64_t heap_actions = 0;
  std::uint64_t pool_slots = 0;
  std::uint64_t wheel_cascades = 0;
  std::uint64_t overflow_scheduled = 0;
  std::uint64_t overflow_promotions = 0;
  std::uint64_t routes_materialized = 0;
  std::uint64_t route_links_stored = 0;

  // Shard-boundary counters (the new observability surface).
  std::uint64_t cross_shard_msgs = 0;
  std::uint64_t lbts_rounds = 0;
  std::uint64_t horizon_stalls = 0;
  std::uint64_t channel_spills = 0;
  std::uint64_t cross_links = 0;
  std::uint64_t blocked_waits = 0;  // timing-dependent, informational
  std::vector<std::uint64_t> shard_order_hashes;
  std::vector<std::uint64_t> shard_wheel_occupancy_peak;
  std::uint64_t merged_order_hash = 0;
};

class ShardedFabric {
 public:
  ShardedFabric(Topology topology, FabricTree tree, FabricOptions options,
                std::size_t shards);

  /// Runs warmup + timed iterations to completion and collects the result.
  /// Deterministic for a fixed (options, shards); throws when any edge
  /// exhausts nic.max_retries.
  FabricResult run();

 private:
  struct ShardState {
    explicit ShardState(const Topology& topology) : routes(topology) {}
    RouteTable routes;            // per shard: a hand-wired memo mutates
    nic::DescriptorPool pool;     // shard-local descriptor recycling
    nic::NicStats nic;
    std::uint64_t deliveries = 0;
  };

  /// Go-back-N record for the tree edge parent->child, stored at the
  /// child's index and owned by the parent's shard.
  struct EdgeState {
    sim::EventId timer{};
    std::uint32_t attempt = 0;
    std::int32_t iter = -1;
    bool timer_armed = false;
  };

  [[nodiscard]] std::uint32_t shard_of(NodeId n) const {
    return partition_.vertex_shard[n];
  }
  [[nodiscard]] sim::Simulator& sim_of(std::uint32_t shard) {
    return engine_->shard(shard);
  }
  [[nodiscard]] bool dropped(NodeId child, std::int32_t iter,
                             std::uint32_t attempt) const;
  /// Deterministic per-(iter, node) process skew, uniform in
  /// [0, 2 * avg_skew_us) — shard-count invariant by construction.
  [[nodiscard]] sim::Duration skew_of(std::int32_t iter, NodeId node) const;

  void start_iteration(std::int32_t iter) NM_REQUIRES(controller_role_);
  /// Injects the data train for edge parent->child at `inject` (an absolute
  /// time on the parent's shard clock) and arms the retransmit timer.
  void send_data(NodeId from, NodeId to, std::int32_t iter,
                 std::uint32_t attempt, sim::TimePoint inject);
  /// Wormhole traversal of the owner-maximal route segment starting at
  /// link index `seg`, with virtual injection instant `inject`.  `owner`
  /// is the executing shard (= link_owner of route link `seg`); it is
  /// passed in because deriving it would need a route lookup in some other
  /// shard's table.
  void continue_segment(std::uint32_t owner, NodeId from, NodeId to,
                        std::size_t seg, sim::TimePoint inject,
                        std::int32_t iter, std::uint32_t attempt);
  void deliver(NodeId from, NodeId to, std::int32_t iter,
               std::uint32_t attempt, Buffer payload);
  void send_ack(NodeId from, NodeId to, std::int32_t iter);
  void ack_arrived(NodeId parent, NodeId child, std::int32_t iter);
  void retransmit(NodeId from, NodeId to, std::int32_t iter);
  void notify_controller(NodeId node, sim::TimePoint host_time)
      NM_REQUIRES(controller_role_);
  /// kMultisend: one more root->child ack landed; executes on the root's
  /// shard (the star tree makes every ack's parent the root).
  void multisend_ack_completed(std::int32_t iter)
      NM_REQUIRES(controller_role_);

  // -- kBarrier (control packets up/down the tree; rounds self-chain) --
  /// The node's own entry into round `round` (after its skew delay).
  void barrier_ready(NodeId node, std::int32_t round);
  /// An arrive packet from `child` landed at `node` for `round`.
  void barrier_child_arrived(NodeId node, std::int32_t round);
  /// Sends the combined arrive up (or releases, at the root) once the
  /// node itself is ready and every child has arrived.
  void barrier_try_send_up(NodeId node);
  /// Release wave: host completion, fan out to children, arm next round.
  void barrier_release(NodeId node, std::int32_t round);
  /// Bypass-path control-packet arrival time from `from` to `to`.
  [[nodiscard]] sim::TimePoint ctrl_packet_arrival(std::uint32_t me,
                                                   NodeId from, NodeId to);

  [[nodiscard]] std::size_t packets_per_message() const;
  [[nodiscard]] std::size_t train_wire_bytes() const;

  Topology topology_;
  FabricTree tree_;
  FabricOptions options_;
  FabricPartition partition_;
  std::unique_ptr<sim::ShardedEngine> engine_;
  std::vector<std::unique_ptr<ShardState>> shards_;

  // The one message block every delivery slices (GM zero-copy): slices of
  // it cross shard boundaries inside posted closures, which is exactly the
  // traffic the atomic Buffer refcount exists for.
  Buffer payload_;

  // Node/link state: every element is touched by exactly one shard's
  // worker (the owner), which is what makes the fabric race-free.
  std::vector<sim::TimePoint> link_free_;     // owner(link) only
  std::vector<std::int32_t> received_iter_;   // owner(node) only
  std::vector<EdgeState> edges_;              // owner(parent(node)) only

  // kBarrier per-node state, owner(node) only.  `round` is the round the
  // node is currently collecting; arrivals/self_ready reset on release.
  std::vector<std::uint32_t> barrier_arrivals_;
  std::vector<std::uint8_t> barrier_self_ready_;
  std::vector<std::int32_t> barrier_round_;

  // Controller state: root's shard only.  The phantom controller role
  // (thread_annotations.hpp) makes that ownership checkable — closures
  // posted to the root's shard assert it, run() claims it before the
  // workers start and after they join, and any new code path touching
  // these members without either is a -Wthread-safety error in Clang CI.
  sim::Role controller_role_;
  std::int32_t ctrl_iter_ NM_GUARDED_BY(controller_role_) = 0;
  std::size_t ctrl_remaining_ NM_GUARDED_BY(controller_role_) = 0;
  sim::TimePoint ctrl_iter_start_ NM_GUARDED_BY(controller_role_){0};
  sim::TimePoint ctrl_last_delivery_ NM_GUARDED_BY(controller_role_){0};
  std::vector<double> latency_us_ NM_GUARDED_BY(controller_role_);

  // kSkewBcast host-side accumulators (root's shard only; timed iters).
  double ctrl_cpu_sum_us_ NM_GUARDED_BY(controller_role_) = 0.0;
  double ctrl_cpu_max_us_ NM_GUARDED_BY(controller_role_) = 0.0;
  double ctrl_skew_sum_us_ NM_GUARDED_BY(controller_role_) = 0.0;
  std::uint64_t ctrl_cpu_count_ NM_GUARDED_BY(controller_role_) = 0;
};

}  // namespace nicmcast::net
