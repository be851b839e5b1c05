#include "net/network.hpp"

#include <gtest/gtest.h>

#include <vector>

namespace stopwatch::net {
namespace {

struct Fixture {
  sim::ShardedSimulator sharded{sim::ShardedConfig{}};
  sim::Simulator& sim{sharded.shard(0)};
  Network net{sharded, Rng(1234)};
};

Frame guest_frame(NodeId src, NodeId dst, std::uint32_t bytes) {
  Frame f;
  f.src = src;
  f.dst = dst;
  f.size_bytes = bytes;
  Packet p;
  p.src = src;
  p.dst = dst;
  p.size_bytes = bytes;
  f.payload = GuestPacketPayload{p};
  return f;
}

TEST(Network, DeliversFrameToHandler) {
  Fixture fx;
  int received = 0;
  const NodeId a = fx.net.add_node("a", [](const Frame&) {});
  const NodeId b = fx.net.add_node("b", [&](const Frame& f) {
    ++received;
    EXPECT_EQ(f.src, a);
  });
  fx.net.send(guest_frame(a, b, 100));
  fx.sim.run();
  EXPECT_EQ(received, 1);
}

TEST(Network, LatencyIsAtLeastBasePlusSerialization) {
  Fixture fx;
  RealTime arrival{};
  const NodeId a = fx.net.add_node("a", [](const Frame&) {});
  const NodeId b =
      fx.net.add_node("b", [&](const Frame&) { arrival = fx.sim.now(); });
  LinkModel lm;
  lm.base_latency = Duration::millis(5);
  lm.jitter_sigma = 0.0;
  lm.bytes_per_second = 1e6;  // 1 MB/s -> 1000 bytes = 1 ms
  fx.net.set_link(a, b, lm);
  fx.net.send(guest_frame(a, b, 1000));
  fx.sim.run();
  EXPECT_EQ(arrival.ns, Duration::millis(6).ns);
}

TEST(Network, SerializationQueuesBackToBack) {
  Fixture fx;
  std::vector<RealTime> arrivals;
  const NodeId a = fx.net.add_node("a", [](const Frame&) {});
  const NodeId b = fx.net.add_node(
      "b", [&](const Frame&) { arrivals.push_back(fx.sim.now()); });
  LinkModel lm;
  lm.base_latency = Duration::millis(1);
  lm.jitter_sigma = 0.0;
  lm.bytes_per_second = 1e6;
  fx.net.set_link(a, b, lm);
  // Two 1000-byte frames sent at t=0 serialize at 1 ms each.
  fx.net.send(guest_frame(a, b, 1000));
  fx.net.send(guest_frame(a, b, 1000));
  fx.sim.run();
  ASSERT_EQ(arrivals.size(), 2u);
  EXPECT_EQ(arrivals[0].ns, Duration::millis(2).ns);
  EXPECT_EQ(arrivals[1].ns, Duration::millis(3).ns);
}

TEST(Network, LossDropsFrames) {
  Fixture fx;
  int received = 0;
  const NodeId a = fx.net.add_node("a", [](const Frame&) {});
  const NodeId b = fx.net.add_node("b", [&](const Frame&) { ++received; });
  LinkModel lm;
  lm.loss_probability = 1.0;
  fx.net.set_link(a, b, lm);
  EXPECT_FALSE(fx.net.send(guest_frame(a, b, 100)));
  fx.sim.run();
  EXPECT_EQ(received, 0);
  EXPECT_EQ(fx.net.frames_dropped(), 1u);
}

TEST(Network, StatsAreCounted) {
  Fixture fx;
  const NodeId a = fx.net.add_node("a", [](const Frame&) {});
  const NodeId b = fx.net.add_node("b", [](const Frame&) {});
  fx.net.send(guest_frame(a, b, 500));
  fx.sim.run();
  EXPECT_EQ(fx.net.stats(a).frames_sent, 1u);
  EXPECT_EQ(fx.net.stats(a).bytes_sent, 500u);
  EXPECT_EQ(fx.net.stats(b).frames_received, 1u);
  EXPECT_EQ(fx.net.stats(b).bytes_received, 500u);
}

TEST(Network, PerDirectionLinksAreIndependent) {
  Fixture fx;
  RealTime ab{}, ba{};
  NodeId a{}, b{};
  a = fx.net.add_node("a", [&](const Frame&) { ba = fx.sim.now(); });
  b = fx.net.add_node("b", [&](const Frame&) { ab = fx.sim.now(); });
  LinkModel fast;
  fast.base_latency = Duration::micros(10);
  fast.jitter_sigma = 0.0;
  fast.bytes_per_second = 1e12;
  LinkModel slow = fast;
  slow.base_latency = Duration::millis(10);
  fx.net.set_link(a, b, fast);
  fx.net.set_link(b, a, slow);
  fx.net.send(guest_frame(a, b, 10));
  fx.net.send(guest_frame(b, a, 10));
  fx.sim.run();
  EXPECT_LT(ab.ns, Duration::millis(1).ns);
  EXPECT_GE(ba.ns, Duration::millis(10).ns);
}

TEST(Network, PacketContentHashDiscriminates) {
  Packet p1, p2;
  p1.seq = 1;
  p2.seq = 2;
  EXPECT_NE(p1.content_hash(), p2.content_hash());
  p2.seq = 1;
  EXPECT_EQ(p1.content_hash(), p2.content_hash());
}

TEST(Network, UnknownNodeRejected) {
  Fixture fx;
  const NodeId a = fx.net.add_node("a", [](const Frame&) {});
  Frame f = guest_frame(a, NodeId{99}, 10);
  EXPECT_THROW(fx.net.send(f), ContractViolation);
}

TEST(Network, NodeLinkAppliesToAllTrafficOfANode) {
  // One set_node_link entry must model a slow client against every peer —
  // the O(1) alternative to per-pair links against each of Θ(n²) VMs.
  Fixture fx;
  RealTime to_client{}, to_peer{}, from_client{};
  const NodeId client = fx.net.add_node(
      "client", [&](const Frame&) { to_client = fx.sim.now(); });
  const NodeId a =
      fx.net.add_node("a", [&](const Frame&) { from_client = fx.sim.now(); });
  const NodeId b =
      fx.net.add_node("b", [&](const Frame&) { to_peer = fx.sim.now(); });
  LinkModel fast;
  fast.base_latency = Duration::micros(10);
  fast.jitter_sigma = 0.0;
  fast.bytes_per_second = 1e12;
  fx.net.set_default_link(fast);
  LinkModel slow = fast;
  slow.base_latency = Duration::millis(20);
  fx.net.set_node_link(client, slow);

  fx.net.send(guest_frame(a, client, 10));  // dst-node link applies
  fx.net.send(guest_frame(client, a, 10));  // src-node link applies
  fx.net.send(guest_frame(a, b, 10));       // untouched pair stays fast
  fx.sim.run();
  EXPECT_GE(to_client.ns, Duration::millis(20).ns);
  EXPECT_GE(from_client.ns, Duration::millis(20).ns);
  EXPECT_LT(to_peer.ns, Duration::millis(1).ns);
}

TEST(Network, PairLinkOverridesNodeLink) {
  Fixture fx;
  RealTime arrival{};
  const NodeId client =
      fx.net.add_node("client", [&](const Frame&) { arrival = fx.sim.now(); });
  const NodeId a = fx.net.add_node("a", [](const Frame&) {});
  LinkModel fast;
  fast.base_latency = Duration::micros(10);
  fast.jitter_sigma = 0.0;
  fast.bytes_per_second = 1e12;
  LinkModel slow = fast;
  slow.base_latency = Duration::millis(20);
  fx.net.set_node_link(client, slow);
  fx.net.set_link(a, client, fast);  // explicit pair wins
  fx.net.send(guest_frame(a, client, 10));
  fx.sim.run();
  EXPECT_LT(arrival.ns, Duration::millis(1).ns);
}

}  // namespace
}  // namespace stopwatch::net
