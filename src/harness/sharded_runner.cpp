// The --shards axis: run_sharded executes a spec on the conservative-PDES
// fabric (net::ShardedFabric over sim::ShardedEngine) instead of the
// coroutine gm::Cluster stack.  Specs are translated, not reinterpreted:
// same wiring resolution, same tree builder, same NIC and network knobs.
// The fabric is still a separate protocol model, though: it sends each
// message as one train where the classic NIC forwards per packet, so
// multi-packet messages give different results at --shards 1 (the classic
// stack) and --shards N (the fabric).  Results agree across shard counts
// above 1.  Five families run sharded (gm_mcast, multisend, mpi_bcast,
// skew_bcast, barrier); allreduce and host-based algorithms stay
// coroutine-only and throw with a sharding-specific diagnostic.
#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "harness/experiment_util.hpp"
#include "harness/run_result.hpp"
#include "harness/run_spec.hpp"
#include "harness/runners.hpp"
#include "mcast/tree.hpp"
#include "net/sharded_fabric.hpp"
#include "net/topology.hpp"

namespace nicmcast::harness {
namespace {

net::Topology make_topology(const RunSpec& spec) {
  switch (resolve_wiring(spec)) {
    case gm::ClusterConfig::Wiring::kSingleSwitch:
      return net::Topology::single_switch(spec.nodes);
    case gm::ClusterConfig::Wiring::kClos:
      return net::Topology::clos(spec.nodes, spec.switch_radix);
    case gm::ClusterConfig::Wiring::kBackToBack:
      return net::Topology::back_to_back();
  }
  throw std::logic_error("run_sharded: unmapped wiring");
}

// mcast::Tree is hash-map-based protocol plumbing; the fabric wants flat
// arrays.  Child order is preserved — it is the GM send-record chain order
// and part of the determinism contract.
net::FabricTree flatten_tree(const mcast::Tree& tree, std::size_t nodes) {
  net::FabricTree flat;
  flat.root = tree.root();
  flat.parent.assign(nodes, net::FabricTree::kNoParent);
  flat.child_off.assign(nodes + 1, 0);
  for (std::size_t i = 0; i < nodes; ++i) {
    const auto node = static_cast<net::NodeId>(i);
    flat.child_off[i + 1] =
        flat.child_off[i] + static_cast<std::uint32_t>(
                                tree.children(node).size());
    if (const auto p = tree.parent(node)) flat.parent[i] = *p;
  }
  flat.children.reserve(flat.child_off[nodes]);
  for (std::size_t i = 0; i < nodes; ++i) {
    for (const net::NodeId c : tree.children(static_cast<net::NodeId>(i))) {
      flat.children.push_back(c);
    }
  }
  return flat;
}

// The spanning tree a spec's family runs over.  size_t indices on purpose:
// a NodeId loop historically wrapped forever at the id-width boundary.
net::FabricTree make_tree(const RunSpec& spec) {
  if (spec.experiment == Experiment::kMultisend) {
    // Flat NIC multisend: a star, every destination a direct child of the
    // root — no forwarding, which is the point of Fig. 3.
    net::FabricTree star;
    star.root = 0;
    star.parent.assign(spec.nodes, net::FabricTree::kNoParent);
    star.child_off.assign(spec.nodes + 1,
                          static_cast<std::uint32_t>(spec.nodes - 1));
    star.child_off[0] = 0;
    star.children.reserve(spec.nodes - 1);
    for (std::size_t i = 1; i < spec.nodes; ++i) {
      star.parent[i] = 0;
      star.children.push_back(static_cast<net::NodeId>(i));
    }
    return star;
  }
  std::vector<net::NodeId> dests;
  dests.reserve(spec.nodes - 1);
  for (std::size_t i = 1; i < spec.nodes; ++i) {
    dests.push_back(static_cast<net::NodeId>(i));
  }
  return flatten_tree(build_tree(spec, dests), spec.nodes);
}

net::FabricWorkload workload_of(const RunSpec& spec) {
  switch (spec.experiment) {
    case Experiment::kGmMulticast: return net::FabricWorkload::kMcast;
    case Experiment::kMultisend: return net::FabricWorkload::kMultisend;
    case Experiment::kMpiBcast: return net::FabricWorkload::kBcast;
    case Experiment::kSkewBcast: return net::FabricWorkload::kSkewBcast;
    case Experiment::kBarrier: return net::FabricWorkload::kBarrier;
    case Experiment::kAllreduce:
    case Experiment::kCustom:
      break;
  }
  throw std::invalid_argument(
      "run_sharded: no sharded runner for experiment '" +
      std::string(to_string(spec.experiment)) +
      "' (NIC-level reduction and custom bodies are gm::Cluster-only); "
      "the sharded FabricWorkload families are gm_mcast, multisend, "
      "mpi_bcast, skew_bcast and barrier — drop --shards");
}

}  // namespace

RunResult run_sharded(const RunSpec& spec) {
  const net::FabricWorkload workload = workload_of(spec);
  if (spec.shards == 0) {
    throw std::invalid_argument("run_sharded: shards must be >= 1");
  }
  if (spec.algo != Algo::kNicBased) {
    throw std::invalid_argument(
        "run_sharded: the sharded fabric models the NIC-based data path "
        "only (host-based staging is gm::Cluster-only)");
  }
  if (spec.faults != FaultFamily::kUniform || spec.corrupt_rate != 0.0) {
    throw std::invalid_argument(
        "run_sharded: sharded runs support uniform loss only (the "
        "counter-hash loss model keeps drops shard-count invariant)");
  }
  if (spec.experiment == Experiment::kMultisend &&
      (spec.destinations == 0 || spec.nodes != spec.destinations + 1)) {
    // Mirrors run_multisend so the two paths reject the same specs.
    throw std::invalid_argument(
        "run_sharded: need destinations >= 1 and nodes == destinations + 1");
  }
  if (spec.experiment == Experiment::kMpiBcast && spec.rdma) {
    throw std::invalid_argument(
        "run_sharded: the RDMA-multicast bcast variant is gm::Cluster-only; "
        "the sharded FabricWorkload families are gm_mcast, multisend, "
        "mpi_bcast (plain), skew_bcast and barrier — drop --rdma or "
        "--shards");
  }

  net::FabricOptions options;
  options.workload = workload;
  options.message_bytes = spec.message_bytes;
  options.warmup = spec.warmup;
  options.iterations = spec.iterations;
  options.loss_rate = spec.loss_rate;
  options.avg_skew_us = spec.avg_skew_us;
  options.seed = spec.seed;
  options.nic = spec.nic;

  net::ShardedFabric fabric(make_topology(spec), make_tree(spec), options,
                            spec.shards);
  const net::FabricResult fr = fabric.run();

  RunResult result;
  result.spec = spec;
  for (const double us : fr.latency_us) result.latency_us.add(us);
  result.nic_totals = fr.nic_totals;

  EngineCounters& e = result.engine;
  e.events_scheduled = fr.events_scheduled;
  e.events_executed = fr.events_executed;
  e.events_cancelled = fr.events_cancelled;
  e.heap_actions = fr.heap_actions;
  e.pool_slots = fr.pool_slots;
  e.descriptor_allocs = fr.nic_totals.descriptor_allocs;
  e.descriptor_reuses = fr.nic_totals.descriptor_reuses;
  e.payload_bytes_copied = fr.nic_totals.payload_bytes_copied;
  e.payload_refs = fr.nic_totals.payload_refs;
  e.wheel_cascades = fr.wheel_cascades;
  e.overflow_scheduled = fr.overflow_scheduled;
  e.overflow_promotions = fr.overflow_promotions;
  e.routes_materialized = fr.routes_materialized;
  e.route_links_stored = fr.route_links_stored;
  e.event_order_hash = fr.merged_order_hash;
  // Effective count: switch_cut clamps the request to its leaf-block count,
  // so small topologies may run on fewer shards than the spec asked for.
  e.shard_count = fr.shard_order_hashes.size();
  e.cross_shard_msgs = fr.cross_shard_msgs;
  e.lbts_rounds = fr.lbts_rounds;
  e.horizon_stalls = fr.horizon_stalls;
  e.channel_spills = fr.channel_spills;
  e.cross_links = fr.cross_links;
  e.blocked_waits = fr.blocked_waits;
  e.shard_order_hashes = fr.shard_order_hashes;
  e.shard_wheel_occupancy_peak = fr.shard_wheel_occupancy_peak;
  // The scalar peak keeps its sequential meaning (busiest single wheel).
  for (const std::uint64_t peak : fr.shard_wheel_occupancy_peak) {
    if (peak > e.wheel_occupancy_peak) e.wheel_occupancy_peak = peak;
  }

  const auto iters =
      static_cast<std::uint64_t>(spec.warmup) +
      static_cast<std::uint64_t>(spec.iterations);
  // One first delivery per receiver per iteration — except the barrier,
  // where every node (root included) completes every round.
  const std::uint64_t per_iter = spec.experiment == Experiment::kBarrier
                                     ? spec.nodes
                                     : spec.nodes - 1;
  const std::uint64_t expected = per_iter * iters;
  result.set_metric("delivered", fr.deliveries == expected ? 1.0 : 0.0);
  result.set_metric("deliveries", static_cast<double>(fr.deliveries));
  if (spec.experiment == Experiment::kSkewBcast) {
    result.set_metric("avg_bcast_cpu_us", fr.avg_bcast_cpu_us);
    result.set_metric("max_bcast_cpu_us", fr.max_bcast_cpu_us);
    result.set_metric("avg_applied_skew_us", fr.avg_applied_skew_us);
  }
  if (spec.experiment == Experiment::kBarrier && !fr.latency_us.empty()) {
    double sum = 0.0;
    for (const double us : fr.latency_us) sum += us;
    result.set_metric("wall_us_per_round",
                      sum / static_cast<double>(fr.latency_us.size()));
  }
  return result;
}

}  // namespace nicmcast::harness
