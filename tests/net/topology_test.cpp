#include "net/topology.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <new>
#include <queue>
#include <set>
#include <vector>

// Counts every global allocation in this test binary, so a test can assert
// that a code path allocates nothing.
namespace {
std::uint64_t g_allocations = 0;
}  // namespace

[[gnu::noinline]] void* operator new(std::size_t size) {
  ++g_allocations;
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
// All out of line, so GCC does not pair the malloc() and free() inside
// them with the new- and delete-expressions that call them.
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept {
  std::free(p);
}

namespace nicmcast::net {
namespace {

TEST(Topology, BackToBackRouteIsOneLink) {
  const Topology t = Topology::back_to_back();
  EXPECT_EQ(t.endpoint_count(), 2u);
  const Route r = t.route(0, 1);
  ASSERT_EQ(r.size(), 1u);
  EXPECT_EQ(t.link(r[0]).from, 0u);
  EXPECT_EQ(t.link(r[0]).to, 1u);
}

TEST(Topology, RouteToSelfIsEmpty) {
  const Topology t = Topology::single_switch(4);
  EXPECT_TRUE(t.route(2, 2).empty());
}

TEST(Topology, SingleSwitchRoutesAreTwoLinks) {
  const Topology t = Topology::single_switch(16);
  for (NodeId i = 0; i < 16; ++i) {
    for (NodeId j = 0; j < 16; ++j) {
      if (i == j) continue;
      const Route r = t.route(i, j);
      EXPECT_EQ(r.size(), 2u) << i << "->" << j;
      EXPECT_EQ(t.link(r.front()).from, i);
      EXPECT_EQ(t.link(r.back()).to, j);
    }
  }
}

TEST(Topology, RouteLinksAreContiguous) {
  const Topology t = Topology::clos(32, 8);
  const Route r = t.route(0, 31);
  ASSERT_FALSE(r.empty());
  for (std::size_t i = 1; i < r.size(); ++i) {
    EXPECT_EQ(t.link(r[i - 1]).to, t.link(r[i]).from);
  }
}

TEST(Topology, ClosSmallFallsBackToSingleSwitch) {
  const Topology t = Topology::clos(8, 16);
  EXPECT_EQ(t.route(0, 7).size(), 2u);
}

TEST(Topology, ClosSameLeafIsTwoHops) {
  // radix 8 -> 4 endpoints per leaf; nodes 0..3 share a leaf.
  const Topology t = Topology::clos(32, 8);
  EXPECT_EQ(t.route(0, 3).size(), 2u);
}

TEST(Topology, ClosCrossLeafIsFourHops) {
  // leaf -> spine -> leaf: 4 links endpoint to endpoint.
  const Topology t = Topology::clos(32, 8);
  EXPECT_EQ(t.route(0, 31).size(), 4u);
}

TEST(Topology, ClosConnectsAllPairs) {
  const Topology t = Topology::clos(20, 8);
  for (NodeId i = 0; i < 20; ++i) {
    for (NodeId j = 0; j < 20; ++j) {
      if (i == j) continue;
      EXPECT_NO_THROW(static_cast<void>(t.route(i, j)));
    }
  }
}

TEST(Topology, RoutesNeverCutThroughEndpoints) {
  const Topology t = Topology::clos(32, 8);
  for (NodeId i : {NodeId{0}, NodeId{5}, NodeId{17}}) {
    for (NodeId j : {NodeId{3}, NodeId{12}, NodeId{31}}) {
      if (i == j) continue;
      const Route r = t.route(i, j);
      for (std::size_t k = 0; k + 1 < r.size(); ++k) {
        EXPECT_FALSE(t.is_endpoint(t.link(r[k]).to));
      }
    }
  }
}

TEST(Topology, AllRoutesMatrixShape) {
  const Topology t = Topology::single_switch(4);
  const auto routes = t.all_routes();
  ASSERT_EQ(routes.size(), 4u);
  for (NodeId i = 0; i < 4; ++i) {
    ASSERT_EQ(routes[i].size(), 4u);
    EXPECT_TRUE(routes[i][i].empty());
  }
  EXPECT_EQ(routes[1][3].size(), 2u);
}

TEST(Topology, DisconnectedThrows) {
  Topology t(3);
  t.add_cable(0, 1);
  EXPECT_THROW(static_cast<void>(t.route(0, 2)), std::runtime_error);
}

TEST(Topology, InvalidArgumentsThrow) {
  EXPECT_THROW(Topology t(0), std::invalid_argument);
  EXPECT_THROW(Topology::clos(32, 7), std::invalid_argument);
  Topology t(2);
  EXPECT_THROW(t.add_cable(0, 99), std::out_of_range);
  EXPECT_THROW(static_cast<void>(t.route(0, 5)), std::out_of_range);
}

TEST(Topology, CableCreatesBothDirections) {
  Topology t(2);
  const LinkId id = t.add_cable(0, 1);
  EXPECT_EQ(t.link_count(), 2u);
  EXPECT_EQ(t.link(id).from, 0u);
  EXPECT_EQ(t.link(id + 1).from, 1u);
  EXPECT_EQ(t.link(id + 1).to, 0u);
}

TEST(Topology, ForwardAndReverseRoutesUseDistinctLinks) {
  const Topology t = Topology::single_switch(3);
  const Route fwd = t.route(0, 1);
  const Route rev = t.route(1, 0);
  std::set<LinkId> fwd_set(fwd.begin(), fwd.end());
  for (LinkId l : rev) {
    EXPECT_FALSE(fwd_set.contains(l));
  }
}

// ---- Closed-form routes vs the BFS reference -------------------------------

/// Checks Topology::route and a fresh RouteTable against all_routes() on
/// every ordered pair.
void expect_routes_match_bfs(const Topology& t, const std::string& name) {
  const auto bfs = t.all_routes();
  RouteTable table(t);
  const std::size_t n = t.endpoint_count();
  for (NodeId i = 0; i < n; ++i) {
    for (NodeId j = 0; j < n; ++j) {
      ASSERT_EQ(t.route(i, j), bfs[i][j]) << name << " " << i << "->" << j;
      ASSERT_EQ(table.route(i, j).to_route(), bfs[i][j])
          << name << " table " << i << "->" << j;
    }
  }
}

TEST(Topology, SingleSwitchRoutesMatchBfsOnAllPairs) {
  for (std::size_t n = 1; n <= 16; ++n) {
    expect_routes_match_bfs(Topology::single_switch(n),
                            "single_switch(" + std::to_string(n) + ")");
  }
  expect_routes_match_bfs(Topology::back_to_back(), "back_to_back");
}

TEST(Topology, ClosRoutesMatchBfsOnAllPairs) {
  struct Case {
    std::size_t n;
    std::size_t radix;
  };
  // radix + 1: the smallest true Clos; 130 and 1000/r32 end in a partial
  // leaf; 128 and 512 are the pinned scale points.
  for (const auto [n, radix] :
       {Case{5, 4}, Case{9, 8}, Case{17, 16}, Case{33, 32}, Case{130, 16},
        Case{1000, 32}, Case{128, 16}, Case{128, 32}, Case{512, 16},
        Case{512, 32}}) {
    expect_routes_match_bfs(Topology::clos(n, radix),
                            "clos(" + std::to_string(n) + ", " +
                                std::to_string(radix) + ")");
  }
}

/// A BFS over the public graph accessors only, independent of topology.cpp:
/// via[v] is the link that first reached v.
std::vector<LinkId> reference_bfs(const Topology& t, NodeId from) {
  constexpr LinkId kNone = ~LinkId{0};
  std::vector<std::vector<LinkId>> out(t.vertex_count());
  for (LinkId id = 0; id < t.link_count(); ++id) {
    out[t.link(id).from].push_back(id);
  }
  std::vector<LinkId> via(t.vertex_count(), kNone);
  std::queue<VertexId> frontier;
  frontier.push(from);
  while (!frontier.empty()) {
    const VertexId v = frontier.front();
    frontier.pop();
    if (v != from && t.is_endpoint(v)) continue;
    for (const LinkId id : out[v]) {
      const VertexId next = t.link(id).to;
      if (next == from || via[next] != kNone) continue;
      via[next] = id;
      frontier.push(next);
    }
  }
  return via;
}

TEST(Topology, ClosRoutesMatchBfsOnSampledSourcesAt16k) {
  // all_routes() does not fit in memory here: 16 sources x every
  // destination against a BFS written over link()/link_count().
  const std::size_t n = 16384;
  const Topology t = Topology::clos(n, 16);
  RouteTable table(t);
  for (NodeId from = 0; from < n; from += 1031) {  // 16 sources, mixed leaves
    const std::vector<LinkId> via = reference_bfs(t, from);
    for (NodeId to = 0; to < n; ++to) {
      Route expected;
      for (VertexId v = to; v != from; v = t.link(via[v]).from) {
        expected.insert(expected.begin(), via[v]);
      }
      ASSERT_EQ(t.route(from, to), expected) << from << "->" << to;
      ASSERT_EQ(table.route(from, to).to_route(), expected)
          << "table " << from << "->" << to;
    }
  }
}

TEST(Topology, CrossLeafRoutesAllClimbThroughSpineZero) {
  // Pins the single-path choice: spreading traffic over spines would move
  // every Clos golden, so it has to be a deliberate change.
  const std::size_t n = 128;
  const std::size_t per_leaf = 8;  // radix 16
  const Topology t = Topology::clos(n, 16);
  const auto spine0 = static_cast<VertexId>(n + n / per_leaf);
  for (NodeId i = 0; i < n; ++i) {
    for (NodeId j = 0; j < n; ++j) {
      if (i / per_leaf == j / per_leaf) continue;
      const Route r = t.route(i, j);
      ASSERT_EQ(r.size(), 4u);
      EXPECT_EQ(t.link(r[1]).to, spine0) << i << "->" << j;
    }
  }
}

TEST(Topology, CableAddedToCannedWiringFallsBackToBfs) {
  // A hand-added cable can shorten paths, so the closed form must not apply.
  Topology t = Topology::clos(32, 8);
  const LinkId shortcut = t.add_cable(0, 31);
  EXPECT_EQ(t.route(0, 31), Route{shortcut});
  EXPECT_EQ(t.route(31, 0), Route{shortcut + 1});
  EXPECT_EQ(t.route(0, 3).size(), 2u);
}

// ---- RouteTable -----------------------------------------------------------

/// Three switches in a ring, two endpoints on each, plus a direct
/// endpoint-to-endpoint cable: no closed form applies.
Topology hand_wired_ring() {
  Topology t(6);
  const VertexId s0 = t.add_switch();
  const VertexId s1 = t.add_switch();
  const VertexId s2 = t.add_switch();
  const VertexId sw[] = {s0, s0, s1, s1, s2, s2};
  for (VertexId e = 0; e < 6; ++e) t.add_cable(e, sw[e]);
  t.add_cable(s0, s1);
  t.add_cable(s1, s2);
  t.add_cable(s2, s0);
  t.add_cable(0, 5);
  return t;
}

TEST(RouteTable, MatchesEagerRoutesOnEveryTopology) {
  Topology shortcut = Topology::clos(32, 8);
  shortcut.add_cable(0, 31);
  const Topology topos[] = {Topology::back_to_back(),
                            Topology::single_switch(16),
                            Topology::clos(32, 8), Topology::clos(40, 16),
                            hand_wired_ring(), shortcut};
  for (const Topology& t : topos) {
    RouteTable table(t);
    const auto eager = t.all_routes();
    const std::size_t n = t.endpoint_count();
    for (NodeId i = 0; i < n; ++i) {
      for (NodeId j = 0; j < n; ++j) {
        const RouteView v = table.route(i, j);
        ASSERT_EQ(v.to_route(), eager[i][j])
            << i << "->" << j << " (n=" << n << ")";
        ASSERT_EQ(v.size(), eager[i][j].size());
      }
    }
  }
}

TEST(RouteTable, CannedWiringRoutesDoNotAllocate) {
  const Topology topos[] = {Topology::back_to_back(),
                            Topology::single_switch(16),
                            Topology::clos(512, 16)};
  for (const Topology& t : topos) {
    RouteTable table(t);
    const auto n = static_cast<NodeId>(t.endpoint_count());
    const NodeId step = n > 64 ? 7 : 1;  // sampled pairs on the big fabric
    std::uint64_t hops = 0;
    const std::uint64_t before = g_allocations;
    for (NodeId i = 0; i < n; i += step) {
      for (NodeId j = 0; j < n; ++j) hops += table.route(i, j).size();
    }
    EXPECT_EQ(g_allocations, before) << "n=" << n;
    EXPECT_GT(hops, 0u);
    EXPECT_EQ(table.stats().routes_materialized, 0u);
    EXPECT_EQ(table.stats().links_stored, 0u);
  }
  // The counter is live: a hand-wired graph's first route allocates.
  const Topology ring = hand_wired_ring();
  RouteTable memo(ring);
  const std::uint64_t before = g_allocations;
  (void)memo.route(0, 3);
  EXPECT_GT(g_allocations, before);
}

TEST(RouteTable, HandWiredRoutesAreMemoizedOnceAndViewsStayValid) {
  const Topology t = hand_wired_ring();
  RouteTable table(t);
  const RouteView first = table.route(0, 3);
  const Route snapshot = first.to_route();
  EXPECT_EQ(table.stats().routes_materialized, 1u);
  for (NodeId i = 0; i < 6; ++i) {
    for (NodeId j = 0; j < 6; ++j) (void)table.route(i, j);  // grows the memo
  }
  EXPECT_EQ(first.to_route(), snapshot);
  EXPECT_EQ(table.stats().routes_materialized, 30u);  // self routes are free
  (void)table.route(0, 3);
  EXPECT_EQ(table.stats().routes_materialized, 30u);
}

// Regression for the pre-widening NodeId wrap: with a 16-bit id,
// endpoint 65536 aliased endpoint 0 and id loops never terminated at
// n == 65536.  The 32-bit id keeps every id below the guard distinct,
// and construction rejects counts the id width cannot address.
TEST(Topology, EndpointCountsBeyondTheIdWidthAreRejected) {
  static_assert(sizeof(NodeId) >= 4,
                ">65536-endpoint fabrics require a 32-bit NodeId");
  // The ctor allocates nothing per endpoint, so the boundary is testable.
  EXPECT_NO_THROW(Topology{Topology::max_addressable_endpoints()});
  EXPECT_THROW(Topology{Topology::max_addressable_endpoints() + 1},
               std::invalid_argument);
}

TEST(Topology, IdsPastTheOldSixteenBitWrapStayDistinct) {
  const std::size_t n = 65536 + 64;
  std::set<NodeId> seen;
  for (std::size_t i = 0; i < n; ++i) {  // wrapped forever with 16-bit ids
    seen.insert(static_cast<NodeId>(i));
  }
  EXPECT_EQ(seen.size(), n);  // 16-bit ids aliased 65536 -> 0 here
  EXPECT_NE(static_cast<NodeId>(65536), static_cast<NodeId>(0));
}

TEST(RouteTable, ThrowsLikeTopologyRoute) {
  Topology t(3);
  t.add_cable(0, 1);
  RouteTable table(t);
  EXPECT_THROW((void)table.route(0, 5), std::out_of_range);
  EXPECT_THROW((void)table.route(0, 2), std::runtime_error);
  // A failed destination must not poison later lookups.
  EXPECT_EQ(table.route(0, 1).size(), 1u);
}

}  // namespace
}  // namespace nicmcast::net
