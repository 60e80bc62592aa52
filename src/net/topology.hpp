// Switched-network topology and source-route computation.
//
// A topology is a graph over two vertex kinds: NIC endpoints (the leaves)
// and crossbar switches.  Myrinet uses source routing: the sending NIC knows
// the full path.  On the canned wirings that path has a closed form; on
// hand-wired graphs it is the shortest path a BFS finds.  RouteTable hands
// the per-pair link sequence to the channel model.
#pragma once

#include <array>
#include <cstdint>
#include <limits>
#include <stdexcept>
#include <string>
#include <unordered_map>
#include <vector>

#include "net/packet.hpp"

namespace nicmcast::net {

/// Index of a vertex in the topology graph (endpoints and switches share
/// one id space internally; NodeId maps onto the first `endpoint_count`
/// vertices).
using VertexId = std::uint32_t;

/// Index of a (unidirectional) link.
using LinkId = std::uint32_t;

struct LinkDesc {
  VertexId from = 0;
  VertexId to = 0;
};

/// A source route: the sequence of links a packet traverses from the source
/// NIC to the destination NIC.
using Route = std::vector<LinkId>;

class Topology {
 public:
  /// Builds an empty topology with `endpoints` NIC endpoints and no links.
  /// Rejects counts the NodeId width cannot address: before NodeId was
  /// widened to 32 bits, a 65536-endpoint fabric silently wrapped endpoint
  /// ids to 0 and aliased distinct endpoints — the guard turns any future
  /// recurrence into a loud construction error instead.
  explicit Topology(std::size_t endpoints) : endpoint_count_(endpoints) {
    if (endpoints == 0) throw std::invalid_argument("topology needs >=1 node");
    if (endpoints > max_addressable_endpoints()) {
      throw std::invalid_argument(
          "topology: " + std::to_string(endpoints) +
          " endpoints exceeds the NodeId width (max " +
          std::to_string(max_addressable_endpoints()) + ")");
    }
    vertex_count_ = static_cast<VertexId>(endpoints);
  }

  /// Largest endpoint count whose ids fit NodeId, with the top id reserved
  /// for the nic::kNoNode / FabricTree::kNoParent sentinel.
  [[nodiscard]] static constexpr std::size_t max_addressable_endpoints() {
    return static_cast<std::size_t>(std::numeric_limits<NodeId>::max());
  }

  /// Adds a crossbar switch vertex and returns its id.
  VertexId add_switch() { return vertex_count_++; }

  /// Adds a bidirectional cable as two unidirectional links.
  /// Returns the id of the a->b link (the b->a link is id+1).  The graph
  /// counts as hand-wired afterwards, so route() searches it.
  LinkId add_cable(VertexId a, VertexId b) {
    check_vertex(a);
    check_vertex(b);
    const LinkId id = static_cast<LinkId>(links_.size());
    links_.push_back(LinkDesc{a, b});
    links_.push_back(LinkDesc{b, a});
    wiring_ = Wiring::kHand;
    return id;
  }

  [[nodiscard]] std::size_t endpoint_count() const { return endpoint_count_; }
  [[nodiscard]] std::size_t vertex_count() const { return vertex_count_; }
  [[nodiscard]] std::size_t link_count() const { return links_.size(); }
  [[nodiscard]] const LinkDesc& link(LinkId id) const { return links_.at(id); }

  [[nodiscard]] bool is_endpoint(VertexId v) const {
    return v < endpoint_count_;
  }

  /// The shortest route (fewest links) between two endpoints, the one the
  /// BFS reference picks.  O(1) closed form on the canned wirings; a BFS on
  /// hand-wired graphs, where direct endpoint-to-endpoint cables are
  /// allowed.  Throws if no path exists.
  [[nodiscard]] Route route(NodeId from, NodeId to) const;

  /// The longest closed-form route: up, leaf -> spine, spine -> leaf, down.
  static constexpr std::size_t kMaxClosedFormHops = 4;

  /// True on the canned wirings, whose routes have a closed form.
  [[nodiscard]] bool has_closed_form() const {
    return wiring_ != Wiring::kHand;
  }

  /// Writes the closed-form route from `from` to `to` into `out` and
  /// returns its length.  Preconditions: has_closed_form(), both ids in
  /// range and distinct.
  std::size_t closed_form_route(
      NodeId from, NodeId to,
      std::array<LinkId, kMaxClosedFormHops>& out) const;

  /// All-pairs routes between endpoints by BFS, whatever the wiring;
  /// routes[i][j].  O(n^2 * hops) memory — the reference route() is tested
  /// against; the simulation data path uses RouteTable.
  [[nodiscard]] std::vector<std::vector<Route>> all_routes() const;

  // ---- Canned topologies ----

  /// All `n` endpoints on one crossbar switch (a Myrinet-2000 line card;
  /// the paper's 16-node cluster fits one 16-port switch).
  static Topology single_switch(std::size_t n);

  /// Two-level Clos (leaf/spine) network of `radix`-port switches, the
  /// default Myrinet wiring for larger clusters.  Each leaf switch hosts
  /// radix/2 endpoints and uplinks to radix/2 spine switches.  Cross-leaf
  /// routes all climb through spine 0, the one the BFS reaches first.
  static Topology clos(std::size_t n, std::size_t radix = 16);

  /// Two endpoints wired back to back (no switch).
  static Topology back_to_back();

 private:
  void check_vertex(VertexId v) const {
    if (v >= vertex_count_) throw std::out_of_range("bad vertex id");
  }

  /// What route() may assume about the cable order.  Only the canned
  /// constructors set a closed-form wiring; single_switch is one leaf with
  /// no spines.
  enum class Wiring : std::uint8_t { kHand, kBackToBack, kLeafSpine };

  std::size_t endpoint_count_;
  VertexId vertex_count_ = 0;
  std::vector<LinkDesc> links_;
  Wiring wiring_ = Wiring::kHand;
  std::size_t per_leaf_ = 0;  // kLeafSpine: endpoints per leaf switch
  std::size_t spines_ = 0;    // kLeafSpine: spine switches (uplinks per leaf)
};

/// Observability counters for RouteTable (surfaced per run through
/// harness::EngineCounters so the scale benches can record route memory).
/// Closed-form routes are computed, not stored, so both read 0 on the
/// canned wirings.
struct RouteTableStats {
  std::uint64_t routes_materialized = 0;  // hand-wired (src, dst) pairs kept
  std::uint64_t links_stored = 0;         // LinkIds held by those routes
};

/// A source route handed out by RouteTable: closed-form routes live inline
/// (no allocation), hand-wired ones point into the table's memo, which
/// never moves a stored route.
class RouteView {
 public:
  [[nodiscard]] std::size_t size() const { return size_; }
  [[nodiscard]] LinkId operator[](std::size_t i) const { return data()[i]; }
  /// Materializes a plain Route (tests/debugging; the data path never does).
  [[nodiscard]] Route to_route() const { return Route(data(), data() + size_); }

 private:
  friend class RouteTable;
  [[nodiscard]] const LinkId* data() const {
    return memo_ != nullptr ? memo_ : inline_.data();
  }
  std::array<LinkId, Topology::kMaxClosedFormHops> inline_{};
  const LinkId* memo_ = nullptr;
  std::uint32_t size_ = 0;
};

/// The simulation's route source.  On the canned wirings a route is a pure
/// function of (src, dst) — Myrinet's source route, which the sending NIC
/// knows whole — so route() computes it in closed form into the view, with
/// no lookup, storage or allocation.  Hand-wired graphs (tests only) memo
/// each pair's BFS route on first use.  Either way the route is exactly
/// Topology::route's, and so are injection timings and the event order.
class RouteTable {
 public:
  explicit RouteTable(const Topology& topology) : topo_(&topology) {}

  /// The route from `from` to `to`.  Throws like Topology::route on bad ids
  /// or unreachable destinations.
  [[nodiscard]] RouteView route(NodeId from, NodeId to);

  [[nodiscard]] const RouteTableStats& stats() const { return stats_; }

 private:
  const Topology* topo_;
  std::unordered_map<std::uint64_t, Route> memo_;  // hand-wired graphs only
  RouteTableStats stats_;
};

}  // namespace nicmcast::net
