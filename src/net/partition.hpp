// Switch-granularity topology partitioning for the sharded PDES engine.
//
// The Clos is cut at switch boundaries: every switch (and the endpoints
// cabled to it) is assigned to exactly one shard, and every link is owned
// by the shard of its source vertex.  Because each endpoint's first route
// link leaves the endpoint itself, a packet always starts on its source's
// shard, and every shard hand-off happens at least one `hop_latency` after
// the previous shard touched the packet — which is exactly why
// `lookahead = hop_latency` is a valid conservative bound (see DESIGN.md
// §4.5 for the derivation).
#pragma once

#include <cstdint>
#include <vector>

#include "net/network.hpp"
#include "net/topology.hpp"
#include "sim/time.hpp"

namespace nicmcast::net {

struct FabricPartition {
  std::size_t shards = 1;
  /// Shard of every vertex (endpoints and switches share the id space).
  std::vector<std::uint32_t> vertex_shard;
  /// Shard owning each unidirectional link: vertex_shard[link.from].
  std::vector<std::uint32_t> link_owner;
  /// Links whose endpoints live on different shards.
  std::uint64_t cross_links = 0;
  /// Conservative synchronization window: the minimum latency any packet
  /// needs to cross a shard boundary.
  sim::Duration lookahead{0};
  /// Per-ordered-pair channel lookahead, row-major [from * shards + to]:
  /// the minimum latency over the cut links leaving shard `from` for shard
  /// `to`.  Pairs joined by no direct cut link fall back to the global
  /// `lookahead` — the fabric also posts controller notifications between
  /// arbitrary shard pairs at exactly `now + lookahead`, so no channel may
  /// promise more than the global floor unless a direct link justifies it.
  /// ShardedFabric installs each entry as its channel's send window
  /// (sim::ShardedEngine::set_channel_lookahead), which post() enforces;
  /// horizons still use the global `lookahead`.  Every entry is >= the
  /// global `lookahead`; the diagonal is unused.
  std::vector<sim::Duration> channel_lookahead;

  [[nodiscard]] std::uint32_t shard_of_endpoint(NodeId node) const {
    return vertex_shard[node];
  }

  /// The channel lookahead of the ordered shard pair from → to.
  [[nodiscard]] sim::Duration channel_lookahead_of(std::size_t from,
                                                   std::size_t to) const {
    return channel_lookahead[from * shards + to];
  }
};

/// Cuts `topology` into `shards` parts at switch granularity.
///
/// Leaf switches (those with at least one endpoint neighbour) are dealt
/// round-robin in contiguous blocks — leaf i goes to shard i*S/L — so a
/// Clos leaf and all its endpoints stay together and most tree edges in a
/// leaf-local subtree never cross a shard.  Spine switches are spread the
/// same way.  Endpoints inherit the shard of their lowest-id neighbouring
/// switch; in switchless (back-to-back) topologies they fall back to
/// node_id % shards.
///
/// `shards` is clamped to the number of leaf blocks (endpoint count for
/// switchless wirings): requesting more would leave shards that own no
/// endpoints, spinning through LBTS rounds for nothing.  Check the
/// returned partition's `shards` for the effective count.
[[nodiscard]] FabricPartition switch_cut(const Topology& topology,
                                         std::size_t shards,
                                         const NetworkConfig& config = {});

}  // namespace nicmcast::net
