#include "net/topology.hpp"

#include <gtest/gtest.h>

#include <queue>
#include <set>
#include <vector>

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

TEST(RouteTable, MatchesEagerRoutesOnEveryTopology) {
  const Topology topos[] = {Topology::back_to_back(),
                            Topology::single_switch(16),
                            Topology::clos(32, 8), Topology::clos(40, 16)};
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

TEST(RouteTable, LazyPerSourceFill) {
  const Topology t = Topology::clos(32, 8);
  RouteTable table(t);
  EXPECT_EQ(table.stats().routes_materialized, 0u);
  EXPECT_EQ(table.stats().sources_touched, 0u);

  (void)table.route(0, 31);
  EXPECT_EQ(table.stats().routes_materialized, 1u);
  EXPECT_EQ(table.stats().sources_touched, 1u);

  // Repeat lookups are cache hits, not recomputations.
  (void)table.route(0, 31);
  EXPECT_EQ(table.stats().routes_materialized, 1u);

  (void)table.route(5, 2);
  EXPECT_EQ(table.stats().routes_materialized, 2u);
  EXPECT_EQ(table.stats().sources_touched, 2u);

  // Self routes are free.
  EXPECT_TRUE(table.route(7, 7).empty());
  EXPECT_EQ(table.stats().routes_materialized, 2u);
}

TEST(RouteTable, InternsSharedPrefixSpans) {
  // Destinations behind the same leaf switch share the source's path to
  // that leaf; the second route must reuse the interned span instead of
  // storing its full hop sequence again.
  const Topology t = Topology::clos(32, 8);  // 4 endpoints per leaf
  RouteTable table(t);
  const RouteView a = table.route(0, 28);  // cross-leaf: 4 links
  ASSERT_EQ(a.size(), 4u);
  const std::uint64_t stored_after_first = table.stats().links_stored;
  EXPECT_EQ(table.stats().links_shared, 0u);

  const RouteView b = table.route(0, 29);  // same destination leaf
  ASSERT_EQ(b.size(), 4u);
  EXPECT_GT(table.stats().links_shared, 0u);
  // The second route stored strictly fewer new links than its length.
  EXPECT_LT(table.stats().links_stored - stored_after_first, b.size());
  // Shared prefix: identical links up to the destination leaf.
  EXPECT_EQ(a[0], b[0]);
  EXPECT_EQ(a[1], b[1]);
  EXPECT_NE(a[3], b[3]);  // different final hop
}

TEST(RouteTable, ViewsStayValidAsArenaGrows) {
  const Topology t = Topology::single_switch(32);
  RouteTable table(t);
  const RouteView first = table.route(0, 1);
  const Route snapshot = first.to_route();
  for (NodeId j = 2; j < 32; ++j) {
    (void)table.route(0, j);  // grows the source arena
  }
  EXPECT_EQ(first.to_route(), snapshot);  // offsets, not pointers
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
