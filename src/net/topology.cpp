#include "net/topology.hpp"

#include <algorithm>
#include <limits>
#include <queue>

namespace nicmcast::net {

namespace {
constexpr LinkId kNoLink = std::numeric_limits<LinkId>::max();

/// Single-source BFS over `out` (each vertex's out-links in increasing id
/// order): returns via[v], the link that first reached v, or kNoLink where
/// v is unreachable.  Packets may not pass *through* an endpoint vertex
/// (NICs do not cut through), so intermediate hops are switches.
std::vector<LinkId> bfs_via(const Topology& t,
                            const std::vector<std::vector<LinkId>>& out,
                            NodeId from) {
  std::vector<LinkId> via(t.vertex_count(), kNoLink);
  std::queue<VertexId> frontier;
  frontier.push(from);
  while (!frontier.empty()) {
    const VertexId v = frontier.front();
    frontier.pop();
    if (v != from && t.is_endpoint(v)) continue;  // endpoints terminate paths
    for (const LinkId id : out[v]) {
      const VertexId next = t.link(id).to;
      if (next == from || via[next] != kNoLink) continue;
      via[next] = id;
      frontier.push(next);
    }
  }
  return via;
}

std::vector<std::vector<LinkId>> out_links(const Topology& t) {
  // Links appended in id order keep each vertex's out-links in increasing
  // id order, which fixes the BFS discovery order and so the routes.
  std::vector<std::vector<LinkId>> out(t.vertex_count());
  for (LinkId id = 0; id < t.link_count(); ++id) {
    out[t.link(id).from].push_back(id);
  }
  return out;
}

/// Walks `via` back from `to` to `from`.
Route path_to(const Topology& t, const std::vector<LinkId>& via, NodeId from,
              NodeId to) {
  if (via[to] == kNoLink) {
    throw std::runtime_error("no route between endpoints " +
                             std::to_string(from) + " and " +
                             std::to_string(to));
  }
  Route path;
  for (VertexId v = to; v != from; v = t.link(via[v]).from) {
    path.push_back(via[v]);
  }
  std::reverse(path.begin(), path.end());
  return path;
}
}  // namespace

std::size_t Topology::closed_form_route(
    NodeId from, NodeId to,
    std::array<LinkId, kMaxClosedFormHops>& out) const {
  // Read off the constructors' cable order: cable e is links 2e (first end
  // -> second end) and 2e+1 (back).  Each route equals the BFS's choice,
  // which all_routes() checks in the tests.
  if (wiring_ == Wiring::kBackToBack) {
    out[0] = static_cast<LinkId>(from);  // cable 0: 0->1 is 0, 1->0 is 1
    return 1;
  }
  // kLeafSpine.  Endpoint cables come first, so e's uplink is 2e and its
  // downlink 2e+1; leaf l's cable to spine j follows at 2n + 2(l*spines+j).
  out[0] = static_cast<LinkId>(2 * std::size_t{from});
  const std::size_t leaf_a = from / per_leaf_;
  const std::size_t leaf_b = to / per_leaf_;
  if (leaf_a == leaf_b) {
    out[1] = static_cast<LinkId>(2 * std::size_t{to} + 1);
    return 2;
  }
  // The BFS expands spine 0 first and reaches every other leaf through it,
  // so every cross-leaf route climbs through spine 0.
  const std::size_t spine_cables = 2 * endpoint_count_;
  out[1] = static_cast<LinkId>(spine_cables + 2 * leaf_a * spines_);
  out[2] = static_cast<LinkId>(spine_cables + 2 * leaf_b * spines_ + 1);
  out[3] = static_cast<LinkId>(2 * std::size_t{to} + 1);
  return 4;
}

Route Topology::route(NodeId from, NodeId to) const {
  if (from >= endpoint_count_ || to >= endpoint_count_) {
    throw std::out_of_range("route: endpoint id out of range");
  }
  if (from == to) return {};
  if (has_closed_form()) {
    std::array<LinkId, kMaxClosedFormHops> links{};
    const std::size_t hops = closed_form_route(from, to, links);
    return Route(links.data(), links.data() + hops);
  }
  return path_to(*this, bfs_via(*this, out_links(*this), from), from, to);
}

std::vector<std::vector<Route>> Topology::all_routes() const {
  // One BFS per *source*, not per pair: the discovery order is
  // deterministic, so every extracted route equals the per-pair one.
  const auto out = out_links(*this);
  std::vector<std::vector<Route>> routes(endpoint_count_);
  for (NodeId from = 0; from < endpoint_count_; ++from) {
    const std::vector<LinkId> via = bfs_via(*this, out, from);
    routes[from].resize(endpoint_count_);
    for (NodeId to = 0; to < endpoint_count_; ++to) {
      if (to != from) routes[from][to] = path_to(*this, via, from, to);
    }
  }
  return routes;
}

// ---------------------------------------------------------------------------
// RouteTable

RouteView RouteTable::route(NodeId from, NodeId to) {
  if (from >= topo_->endpoint_count() || to >= topo_->endpoint_count()) {
    throw std::out_of_range("route: endpoint id out of range");
  }
  RouteView view;
  if (from == to) return view;
  if (topo_->has_closed_form()) {
    view.size_ = static_cast<std::uint32_t>(
        topo_->closed_form_route(from, to, view.inline_));
    return view;
  }
  const std::uint64_t key = (std::uint64_t{from} << 32) | to;
  auto it = memo_.find(key);
  if (it == memo_.end()) {
    // Node-based map: a stored route never moves, so views stay valid.
    it = memo_.emplace(key, topo_->route(from, to)).first;
    ++stats_.routes_materialized;
    stats_.links_stored += it->second.size();
  }
  view.memo_ = it->second.data();
  view.size_ = static_cast<std::uint32_t>(it->second.size());
  return view;
}

Topology Topology::single_switch(std::size_t n) {
  Topology t(n);
  const VertexId sw = t.add_switch();
  for (VertexId e = 0; e < n; ++e) {
    t.add_cable(e, sw);
  }
  t.wiring_ = Wiring::kLeafSpine;
  t.per_leaf_ = n;
  return t;
}

Topology Topology::clos(std::size_t n, std::size_t radix) {
  if (radix < 2 || radix % 2 != 0) {
    throw std::invalid_argument("clos: radix must be even and >= 2");
  }
  if (n <= radix) return single_switch(n);

  const std::size_t per_leaf = radix / 2;
  const std::size_t leaves = (n + per_leaf - 1) / per_leaf;
  const std::size_t spines = radix / 2;

  Topology t(n);
  std::vector<VertexId> leaf_ids;
  std::vector<VertexId> spine_ids;
  leaf_ids.reserve(leaves);
  spine_ids.reserve(spines);
  for (std::size_t i = 0; i < leaves; ++i) leaf_ids.push_back(t.add_switch());
  for (std::size_t i = 0; i < spines; ++i) spine_ids.push_back(t.add_switch());

  for (VertexId e = 0; e < n; ++e) {
    t.add_cable(e, leaf_ids[e / per_leaf]);
  }
  for (VertexId leaf : leaf_ids) {
    for (VertexId spine : spine_ids) {
      t.add_cable(leaf, spine);
    }
  }
  t.wiring_ = Wiring::kLeafSpine;
  t.per_leaf_ = per_leaf;
  t.spines_ = spines;
  return t;
}

Topology Topology::back_to_back() {
  Topology t(2);
  t.add_cable(0, 1);
  t.wiring_ = Wiring::kBackToBack;
  return t;
}

}  // namespace nicmcast::net
