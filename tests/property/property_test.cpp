// Property-style sweeps (parameterized gtest): protocol invariants that
// must hold across the cross-product of message sizes, fault positions and
// topologies — not just the hand-picked cases of the unit suites.
#include <gtest/gtest.h>

#include "gm/cluster.hpp"
#include "mcast/bcast.hpp"
#include "mcast/postal_tree.hpp"

namespace nicmcast {
namespace {

using gm::Cluster;
using gm::ClusterConfig;
using gm::Payload;

Payload make_payload(std::size_t n, std::uint8_t salt = 0) {
  Payload p(n);
  for (std::size_t i = 0; i < n; ++i) {
    p[i] = std::byte{static_cast<std::uint8_t>(i * 131u + salt)};
  }
  return p;
}

// ---------------------------------------------------------------------------
// Property: point-to-point delivery is exact for any size and any single
// dropped data packet.
// ---------------------------------------------------------------------------

struct P2pCase {
  std::size_t size;
  int drop_packet;  // -1: no fault; k: drop the k-th data packet once
};

class P2pDeliverySweep : public ::testing::TestWithParam<P2pCase> {};

TEST_P(P2pDeliverySweep, DeliversExactlyOnceInOrder) {
  const auto [size, drop_packet] = GetParam();
  ClusterConfig config;
  config.nodes = 2;
  config.nic.retransmit_timeout = sim::usec(150);
  Cluster c(config);
  if (drop_packet >= 0) {
    auto faults = std::make_unique<net::ScriptedFaults>();
    faults->add_rule({.type = net::PacketType::kData,
                      .seq = static_cast<std::uint32_t>(drop_packet)},
                     net::FaultAction::kDrop);
    c.network().set_fault_injector(std::move(faults));
  }
  c.port(1).provide_receive_buffer(std::max<std::size_t>(size, 64));
  const Payload msg = make_payload(size);
  int completions = 0;
  c.simulator().spawn([](Cluster& cl, Payload m, int& n) -> sim::Task<void> {
    EXPECT_EQ(co_await cl.port(0).send(1, 0, std::move(m), 5),
              gm::SendStatus::kOk);
    ++n;
  }(c, msg, completions));
  Payload got;
  c.simulator().spawn([](Cluster& cl, Payload& out) -> sim::Task<void> {
    gm::RecvMessage r = co_await cl.port(1).receive();
    out = std::move(r.data);
  }(c, got));
  c.run();
  EXPECT_EQ(completions, 1);
  EXPECT_EQ(got, msg);
  EXPECT_EQ(c.port(1).pending_messages(), 0u);  // exactly once
}

INSTANTIATE_TEST_SUITE_P(
    SizesAndDrops, P2pDeliverySweep,
    ::testing::Values(
        P2pCase{0, -1}, P2pCase{1, -1}, P2pCase{1, 0}, P2pCase{4095, -1},
        P2pCase{4096, 0}, P2pCase{4097, 1}, P2pCase{8192, 0},
        P2pCase{8192, 1}, P2pCase{12000, 2}, P2pCase{16287, -1},
        P2pCase{16287, 3}, P2pCase{20000, 4}),
    [](const auto& param_info) {
      return "size" + std::to_string(param_info.param.size) + "_drop" +
             std::to_string(param_info.param.drop_packet + 1);
    });

// ---------------------------------------------------------------------------
// Property: a multicast survives the loss of ANY single data packet on ANY
// tree edge, with exactly one retransmission, charged to the owning hop.
// ---------------------------------------------------------------------------

struct McastDropCase {
  net::NodeId edge_src;
  net::NodeId edge_dst;
  std::uint32_t packet;  // which packet of the 3-packet message
};

class McastSingleDropSweep : public ::testing::TestWithParam<McastDropCase> {
};

TEST_P(McastSingleDropSweep, RecoversWithOneOwnedRetransmission) {
  const auto [src, dst, packet] = GetParam();
  ClusterConfig config;
  config.nodes = 6;
  config.nic.retransmit_timeout = sim::usec(200);
  Cluster c(config);
  // Tree: 0 -> {1, 2}; 1 -> {3, 4}; 2 -> {5}.
  mcast::Tree tree(0);
  tree.add_edge(0, 1);
  tree.add_edge(0, 2);
  tree.add_edge(1, 3);
  tree.add_edge(1, 4);
  tree.add_edge(2, 5);
  mcast::install_group(c, tree, 4);
  for (net::NodeId n = 1; n < 6; ++n) {
    c.port(n).provide_receive_buffer(16384);
  }
  auto faults = std::make_unique<net::ScriptedFaults>();
  faults->add_predicate_rule(
      [s = src, d = dst, k = packet](const net::Packet& p) {
        return p.header.type == net::PacketType::kMcastData &&
               p.header.src == s && p.header.dst == d &&
               p.header.msg_offset == k * 4096;
      },
      net::FaultAction::kDrop);
  c.network().set_fault_injector(std::move(faults));

  const Payload msg = make_payload(11000);  // 3 packets
  int ok = 0;
  c.run_on_all([&tree, &msg, &ok](Cluster& cl,
                                  net::NodeId me) -> sim::Task<void> {
    Payload data;
    if (me == 0) data = msg;
    Payload got = co_await mcast::nic_bcast(cl.port(me), tree, 4,
                                            std::move(data), 9);
    if (got == msg) ++ok;
  });
  c.run();
  EXPECT_EQ(ok, 6);
  // Go-back-N: the owning hop retransmits the dropped packet AND its
  // successors towards that child (3 - k packets); nobody else resends.
  for (net::NodeId n = 0; n < 6; ++n) {
    const auto expected = n == src ? 3u - packet : 0u;
    EXPECT_EQ(c.nic(n).stats().retransmissions, expected) << "node " << n;
  }
}

INSTANTIATE_TEST_SUITE_P(
    EdgesAndPackets, McastSingleDropSweep,
    ::testing::Values(McastDropCase{0, 1, 0}, McastDropCase{0, 1, 2},
                      McastDropCase{0, 2, 1}, McastDropCase{1, 3, 0},
                      McastDropCase{1, 3, 2}, McastDropCase{1, 4, 1},
                      McastDropCase{2, 5, 0}, McastDropCase{2, 5, 2}),
    [](const auto& param_info) {
      return "edge" + std::to_string(param_info.param.edge_src) + "to" +
             std::to_string(param_info.param.edge_dst) + "_pkt" +
             std::to_string(param_info.param.packet);
    });

// ---------------------------------------------------------------------------
// Property: tree builders keep their invariants over randomised member
// sets: full coverage, valid structure, the deadlock id-ordering rule and
// run-to-run determinism.
// ---------------------------------------------------------------------------

class TreeInvariantSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(TreeInvariantSweep, AllBuildersAllInvariants) {
  sim::Rng rng(GetParam());
  // Random subset of a 64-node id space, random root from the subset.
  std::vector<net::NodeId> members;
  for (net::NodeId i = 0; i < 64; ++i) {
    if (rng.chance(0.4)) members.push_back(i);
  }
  if (members.size() < 2) members = {3, 7};
  const net::NodeId root =
      members[rng.uniform_int(0, static_cast<std::int64_t>(members.size()) - 1)];
  std::vector<net::NodeId> dests = members;
  std::erase(dests, root);

  const auto postal_cost = mcast::PostalCostModel::nic_based(
      static_cast<std::size_t>(rng.uniform_int(1, 20000)), nic::NicConfig{},
      net::NetworkConfig{});
  const std::vector<mcast::Tree> trees{
      mcast::build_binomial_tree(root, dests),
      mcast::build_chain_tree(root, dests),
      mcast::build_flat_tree(root, dests),
      mcast::build_postal_tree(root, dests, postal_cost),
  };
  for (const auto& tree : trees) {
    tree.validate();
    EXPECT_EQ(tree.size(), members.size());
    for (net::NodeId m : members) EXPECT_TRUE(tree.contains(m));
    EXPECT_TRUE(tree.satisfies_id_ordering());
    EXPECT_EQ(tree.root(), root);
  }
  // Determinism: rebuilding yields the identical structure.
  EXPECT_EQ(mcast::build_postal_tree(root, dests, postal_cost).describe(),
            trees[3].describe());
}

INSTANTIATE_TEST_SUITE_P(Seeds, TreeInvariantSweep,
                         ::testing::Range<std::uint64_t>(1, 21));

// ---------------------------------------------------------------------------
// Property: whole-cluster broadcast correctness across (nodes, size, seed)
// under random loss — the end-to-end reliability sweep.
// ---------------------------------------------------------------------------

struct LossyBcastCase {
  std::size_t nodes;
  std::size_t size;
  std::uint64_t seed;
};

class LossyBcastSweep : public ::testing::TestWithParam<LossyBcastCase> {};

TEST_P(LossyBcastSweep, EveryNodeExactPayload) {
  const auto [nodes, size, seed] = GetParam();
  ClusterConfig config;
  config.nodes = nodes;
  config.nic.retransmit_timeout = sim::usec(250);
  Cluster c(config);
  c.network().set_fault_injector(
      std::make_unique<net::RandomFaults>(0.06, 0.03, sim::Rng(seed)));
  std::vector<net::NodeId> dests;
  for (net::NodeId i = 1; i < nodes; ++i) dests.push_back(i);
  const auto tree = mcast::build_postal_tree(
      0, dests,
      mcast::PostalCostModel::nic_based(size, nic::NicConfig{},
                                        net::NetworkConfig{}));
  mcast::install_group(c, tree, 2);
  for (net::NodeId n = 1; n < nodes; ++n) {
    c.port(n).provide_receive_buffer(std::max<std::size_t>(size, 64) * 2);
  }
  const Payload msg = make_payload(size, static_cast<std::uint8_t>(seed));
  int ok = 0;
  c.run_on_all([&tree, &msg, &ok](Cluster& cl,
                                  net::NodeId me) -> sim::Task<void> {
    Payload data;
    if (me == 0) data = msg;
    Payload got = co_await mcast::nic_bcast(cl.port(me), tree, 2,
                                            std::move(data), 1);
    if (got == msg) ++ok;
  });
  c.run();
  EXPECT_EQ(ok, static_cast<int>(nodes));
}

INSTANTIATE_TEST_SUITE_P(
    NodesSizesSeeds, LossyBcastSweep,
    ::testing::Values(LossyBcastCase{4, 100, 1}, LossyBcastCase{4, 9000, 2},
                      LossyBcastCase{8, 100, 3}, LossyBcastCase{8, 9000, 4},
                      LossyBcastCase{8, 16384, 5},
                      LossyBcastCase{16, 100, 6},
                      LossyBcastCase{16, 4096, 7},
                      LossyBcastCase{16, 16384, 8}),
    [](const auto& param_info) {
      // append rather than operator+(const char*, string&&): GCC 12 at -O3
      // reports a false -Wrestrict inside the latter.
      std::string name("n");
      name.append(std::to_string(param_info.param.nodes))
          .append("_b")
          .append(std::to_string(param_info.param.size))
          .append("_s")
          .append(std::to_string(param_info.param.seed));
      return name;
    });

}  // namespace
}  // namespace nicmcast
