#include "net/network.hpp"

#include <gtest/gtest.h>

#include <vector>

namespace nicmcast::net {
namespace {

struct RecordingSink final : PacketSink {
  struct Arrival {
    Packet packet;
    sim::TimePoint when;
  };
  sim::Simulator* sim = nullptr;
  std::vector<Arrival> arrivals;

  void packet_arrived(Packet packet) override {
    arrivals.push_back(Arrival{std::move(packet), sim->now()});
  }
};

class NetworkTest : public ::testing::Test {
 protected:
  void attach_all(Network& net, std::size_t n) {
    sinks_.resize(n);
    for (std::size_t i = 0; i < n; ++i) {
      sinks_[i].sim = &sim_;
      net.attach(static_cast<NodeId>(i), sinks_[i]);
    }
  }

  Packet make_packet(NodeId src, NodeId dst, std::size_t bytes,
                     std::uint32_t seq = 0) {
    Packet p;
    p.header.src = src;
    p.header.dst = dst;
    p.header.seq = seq;
    p.payload = Buffer::filled(bytes, std::byte{0xab});
    return p;
  }

  sim::Simulator sim_;
  std::deque<RecordingSink> sinks_;
};

TEST_F(NetworkTest, DeliversPacketWithExpectedLatency) {
  Network net(sim_, Topology::single_switch(4));
  attach_all(net, 4);
  const auto timing = net.transmit(make_packet(0, 1, 1000));
  // ser = (1000 + 24) / 250 MB/s = 4.096us (+1ns rounding); 2 hops * 0.3us.
  EXPECT_NEAR(timing.tx_done.microseconds(), 4.096, 0.01);
  EXPECT_NEAR(timing.arrival.microseconds(), 4.696, 0.01);
  EXPECT_TRUE(timing.delivered);
  sim_.run();
  ASSERT_EQ(sinks_[1].arrivals.size(), 1u);
  EXPECT_EQ(sinks_[1].arrivals[0].when, timing.arrival);
  EXPECT_EQ(sinks_[1].arrivals[0].packet.payload.size(), 1000u);
}

TEST_F(NetworkTest, PayloadContentSurvivesTransit) {
  Network net(sim_, Topology::back_to_back());
  attach_all(net, 2);
  Packet p = make_packet(0, 1, 8);
  std::vector<std::byte> bytes(8);
  for (std::size_t i = 0; i < 8; ++i) bytes[i] = std::byte{std::uint8_t(i)};
  p.payload = Buffer::take(std::move(bytes));
  net.transmit(std::move(p));
  sim_.run();
  ASSERT_EQ(sinks_[1].arrivals.size(), 1u);
  for (std::size_t i = 0; i < 8; ++i) {
    EXPECT_EQ(sinks_[1].arrivals[0].packet.payload[i],
              std::byte{std::uint8_t(i)});
  }
}

TEST_F(NetworkTest, BackToBackHasOneHop) {
  Network net(sim_, Topology::back_to_back());
  attach_all(net, 2);
  const auto t = net.transmit(make_packet(0, 1, 0));
  // ser = 24B/250MBps = 0.096us; 1 hop.
  EXPECT_NEAR(t.arrival.microseconds() - t.tx_done.microseconds(), 0.3, 1e-6);
}

TEST_F(NetworkTest, SameLinkTransmissionsSerialize) {
  Network net(sim_, Topology::single_switch(4));
  attach_all(net, 4);
  const auto t1 = net.transmit(make_packet(0, 1, 4096));
  const auto t2 = net.transmit(make_packet(0, 2, 4096));
  // Both use link 0->switch; the second must wait for the first.
  EXPECT_GE(t2.tx_done.nanoseconds(),
            t1.tx_done.nanoseconds() + (t1.tx_done - sim::TimePoint{0}).nanoseconds() - 1);
  EXPECT_GE((t2.arrival - t1.arrival).nanoseconds(), 0);
  sim_.run();
  EXPECT_EQ(sinks_[1].arrivals.size(), 1u);
  EXPECT_EQ(sinks_[2].arrivals.size(), 1u);
}

TEST_F(NetworkTest, SmallDataPacketQueuesBehindDataButAcksBypass) {
  // A message's short tail packet must not overtake the full packet still
  // serialising ahead of it on the same single-lane path; an ack on that
  // path interleaves at flit granularity and still arrives first.
  Network net(sim_, Topology::single_switch(4));
  attach_all(net, 4);
  const auto full = net.transmit(make_packet(0, 1, 4096, 0));
  Packet tail = make_packet(0, 1, 1, 1);
  ASSERT_LE(tail.wire_size(net.config().framing_bytes),
            net.config().small_packet_bypass_bytes);
  const auto tail_timing = net.transmit(std::move(tail));
  Packet ack;
  ack.header.type = PacketType::kAck;
  ack.header.src = 0;
  ack.header.dst = 1;
  const auto ack_timing = net.transmit(std::move(ack));
  EXPECT_GT(tail_timing.arrival, full.arrival);
  EXPECT_LT(ack_timing.arrival, full.arrival);
  sim_.run();
  ASSERT_EQ(sinks_[1].arrivals.size(), 3u);
  EXPECT_EQ(sinks_[1].arrivals[0].packet.header.type, PacketType::kAck);
  EXPECT_EQ(sinks_[1].arrivals[1].packet.header.seq, 0u);
  EXPECT_EQ(sinks_[1].arrivals[2].packet.header.seq, 1u);
}

TEST_F(NetworkTest, DisjointPathsDoNotInterfere) {
  Network net(sim_, Topology::single_switch(4));
  attach_all(net, 4);
  const auto t1 = net.transmit(make_packet(0, 1, 4096));
  const auto t2 = net.transmit(make_packet(2, 3, 4096));
  EXPECT_EQ(t1.tx_done, t2.tx_done);
  EXPECT_EQ(t1.arrival, t2.arrival);
}

TEST_F(NetworkTest, FanInContendsOnDestinationLink) {
  Network net(sim_, Topology::single_switch(4));
  attach_all(net, 4);
  const auto t1 = net.transmit(make_packet(0, 3, 4096));
  const auto t2 = net.transmit(make_packet(1, 3, 4096));
  // Different source links, same switch->3 link: arrivals serialize.
  EXPECT_GT(t2.arrival.nanoseconds(), t1.arrival.nanoseconds());
}

TEST_F(NetworkTest, SelfTransmitIsRejected) {
  Network net(sim_, Topology::single_switch(4));
  attach_all(net, 4);
  EXPECT_THROW(net.transmit(make_packet(1, 1, 0)), std::logic_error);
}

TEST_F(NetworkTest, MissingSinkIsAnError) {
  Network net(sim_, Topology::single_switch(4));
  // only node 0 attached
  sinks_.resize(1);
  sinks_[0].sim = &sim_;
  net.attach(0, sinks_[0]);
  EXPECT_THROW(net.transmit(make_packet(0, 1, 0)), std::logic_error);
}

TEST_F(NetworkTest, DroppedPacketNeverArrives) {
  Network net(sim_, Topology::single_switch(4));
  attach_all(net, 4);
  auto faults = std::make_unique<ScriptedFaults>();
  faults->add_rule({.seq = 1}, FaultAction::kDrop);
  net.set_fault_injector(std::move(faults));
  const auto t1 = net.transmit(make_packet(0, 1, 100, 0));
  const auto t2 = net.transmit(make_packet(0, 1, 100, 1));
  EXPECT_TRUE(t1.delivered);
  EXPECT_FALSE(t2.delivered);
  sim_.run();
  EXPECT_EQ(sinks_[1].arrivals.size(), 1u);
  EXPECT_EQ(net.stats().packets_dropped, 1u);
  EXPECT_EQ(net.stats().packets_delivered, 1u);
}

TEST_F(NetworkTest, CorruptedPacketArrivesMarked) {
  Network net(sim_, Topology::single_switch(4));
  attach_all(net, 4);
  auto faults = std::make_unique<ScriptedFaults>();
  faults->add_rule({}, FaultAction::kCorrupt);
  net.set_fault_injector(std::move(faults));
  net.transmit(make_packet(0, 1, 100));
  sim_.run();
  ASSERT_EQ(sinks_[1].arrivals.size(), 1u);
  EXPECT_TRUE(sinks_[1].arrivals[0].packet.corrupted);
  EXPECT_EQ(net.stats().packets_corrupted, 1u);
}

TEST_F(NetworkTest, StatsCountPayloadBytes) {
  Network net(sim_, Topology::single_switch(4));
  attach_all(net, 4);
  net.transmit(make_packet(0, 1, 300));
  net.transmit(make_packet(1, 2, 700));
  sim_.run();
  EXPECT_EQ(net.stats().packets_injected, 2u);
  EXPECT_EQ(net.stats().payload_bytes_delivered, 1000u);
}

TEST_F(NetworkTest, SerializationTimeMatchesBandwidth) {
  Network net(sim_, Topology::single_switch(2));
  // 4096 + 24 framing at 250 MB/s = 16.48us.
  EXPECT_NEAR(net.serialization_time(4096).microseconds(), 16.48, 0.01);
}

TEST_F(NetworkTest, LargerPacketsTakeLonger) {
  Network net(sim_, Topology::single_switch(4));
  attach_all(net, 4);
  const auto small = net.transmit(make_packet(0, 1, 64));
  sim_.run();
  const sim::Duration small_latency = sinks_[1].arrivals[0].when - sim::TimePoint{0};

  sim::Simulator sim2;
  Network net2(sim2, Topology::single_switch(4));
  RecordingSink sink;
  sink.sim = &sim2;
  net2.attach(1, sink);
  net2.attach(0, sink);  // unused
  net2.transmit(make_packet(0, 1, 4096));
  sim2.run();
  EXPECT_GT(sink.arrivals[0].when.nanoseconds(), small_latency.nanoseconds());
  static_cast<void>(small);
}

TEST_F(NetworkTest, ClosCrossLeafLatencyHigherThanSameLeaf) {
  Network net(sim_, Topology::clos(32, 8));
  attach_all(net, 32);
  const auto near = net.transmit(make_packet(0, 1, 100));   // same leaf
  const auto far = net.transmit(make_packet(0, 31, 100));   // via spine
  EXPECT_GT(far.arrival.nanoseconds(), near.arrival.nanoseconds());
  sim_.run();
}

TEST_F(NetworkTest, NullFaultInjectorRejected) {
  Network net(sim_, Topology::single_switch(2));
  EXPECT_THROW(net.set_fault_injector(nullptr), std::invalid_argument);
}

TEST_F(NetworkTest, BringUpMaterializesNoRoutes) {
  // Construction must not walk the all-pairs table, and a canned wiring's
  // closed-form routes are computed per packet, never stored (the
  // 4096-node scale bench depends on this).
  Network net(sim_, Topology::clos(32, 8));
  attach_all(net, 32);
  EXPECT_EQ(net.route_stats().routes_materialized, 0u);

  net.transmit(make_packet(0, 31, 64));
  net.transmit(make_packet(31, 0, 64));
  EXPECT_EQ(net.route_stats().routes_materialized, 0u);
  EXPECT_EQ(net.route_stats().links_stored, 0u);
  sim_.run();
}

}  // namespace
}  // namespace nicmcast::net
