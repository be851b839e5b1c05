// Shard-parallel Cloud execution: the sim_shards knob, the
// activate_sharded activation-set contract, and end-to-end equivalence of
// a sharded cloud against the sequential run of the same seed.
#include <gtest/gtest.h>

#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/contracts.hpp"
#include "core/cloud.hpp"

namespace stopwatch::core {
namespace {

/// Echoes every request back to its sender.
class EchoProgram final : public vm::GuestProgram {
 public:
  void on_boot(vm::GuestApi&) override {}
  void on_timer_tick(vm::GuestApi&, std::uint64_t) override {}
  void on_packet(vm::GuestApi& api, const net::Packet& pkt) override {
    if (pkt.kind != net::PacketKind::kRequest) return;
    net::Packet reply;
    reply.dst = pkt.src;
    reply.kind = net::PacketKind::kData;
    reply.seq = pkt.seq;
    reply.size_bytes = 100;
    api.send_packet(reply);
  }
};

/// Sends one data packet straight to another guest (when given one) on
/// its first timer tick, and counts the packets it receives.
class PeerProgram final : public vm::GuestProgram {
 public:
  explicit PeerProgram(std::optional<NodeId> peer = std::nullopt)
      : peer_(peer) {}
  void on_boot(vm::GuestApi&) override {}
  void on_timer_tick(vm::GuestApi& api, std::uint64_t tick) override {
    if (tick != 1 || !peer_) return;
    net::Packet pkt;
    pkt.dst = *peer_;
    pkt.kind = net::PacketKind::kData;
    pkt.seq = 1;
    pkt.size_bytes = 100;
    api.send_packet(pkt);
  }
  void on_packet(vm::GuestApi&, const net::Packet&) override { ++received_; }
  [[nodiscard]] int received() const { return received_; }

 private:
  std::optional<NodeId> peer_;
  int received_{0};
};

CloudConfig sharded_config(int shards, std::uint64_t seed = 42) {
  CloudConfig cfg;
  cfg.seed = seed;
  cfg.policy = Policy::kStopWatch;
  cfg.machine_count = 9;
  cfg.wiring = WiringMode::kLazy;
  cfg.sim_shards = shards;
  return cfg;
}

/// Builds a 3-VM cloud on disjoint machine triples, drives each VM with
/// `requests` echo requests, and returns (reply src addr, arrival ns)
/// pairs in arrival order.
std::vector<std::pair<std::uint32_t, std::int64_t>> run_echo_cloud(
    const CloudConfig& cfg, int requests) {
  Cloud cloud(cfg);
  std::vector<VmHandle> vms;
  for (int v = 0; v < 3; ++v) {
    vms.push_back(cloud.add_vm(
        "echo" + std::to_string(v),
        [] { return std::make_unique<EchoProgram>(); },
        {3 * v, 3 * v + 1, 3 * v + 2}));
  }
  std::vector<std::pair<std::uint32_t, std::int64_t>> replies;
  const NodeId client = cloud.add_external_node(
      "client", [&replies, &cloud](const net::Packet& pkt) {
        replies.emplace_back(pkt.src.value, cloud.simulator().now().ns);
      });
  cloud.activate_sharded(vms);
  cloud.start();
  for (int v = 0; v < 3; ++v) {
    for (int i = 0; i < requests; ++i) {
      const VmHandle vm = vms[static_cast<std::size_t>(v)];
      const std::uint64_t seq = static_cast<std::uint64_t>(i);
      cloud.simulator().schedule_at(
          RealTime::nanos(1'000'000 + 7'000'000 * i + 1'000 * v),
          [&cloud, client, vm, seq] {
            net::Packet req;
            req.dst = cloud.vm_addr(vm);
            req.kind = net::PacketKind::kRequest;
            req.seq = seq;
            req.size_bytes = 80;
            cloud.send_external(client, req);
          });
    }
  }
  cloud.run_for(Duration::millis(7 * requests + 100));
  cloud.halt_all();
  return replies;
}

TEST(CloudSharded, FourShardsReproduceTheSequentialRunExactly) {
  const auto sequential = run_echo_cloud(sharded_config(1), 6);
  const auto sharded = run_echo_cloud(sharded_config(4), 6);
  ASSERT_FALSE(sequential.empty());
  EXPECT_EQ(sequential, sharded);
}

TEST(CloudSharded, RepeatedShardedRunsAreIdentical) {
  const auto a = run_echo_cloud(sharded_config(3), 4);
  const auto b = run_echo_cloud(sharded_config(3), 4);
  ASSERT_FALSE(a.empty());
  EXPECT_EQ(a, b);
}

TEST(CloudSharded, RunForRequiresActivationWhenSharded) {
  Cloud cloud(sharded_config(2));
  cloud.start();
  EXPECT_THROW(cloud.run_for(Duration::millis(1)), ContractViolation);
}

TEST(CloudSharded, TrafficOutsideTheActivationSetThrows) {
  Cloud cloud(sharded_config(2));
  const VmHandle active = cloud.add_vm(
      "active", [] { return std::make_unique<EchoProgram>(); }, {0, 1, 2});
  const VmHandle dormant = cloud.add_vm(
      "dormant", [] { return std::make_unique<EchoProgram>(); }, {3, 4, 5});
  const NodeId client =
      cloud.add_external_node("client", [](const net::Packet&) {});
  cloud.activate_sharded({active});
  cloud.start();
  // A frame reaching the dormant VM's ingress would have to wire it from a
  // worker thread mid-window; the activation-set contract throws instead,
  // and the sharded kernel rethrows on the driving thread.
  net::Packet req;
  req.dst = cloud.vm_addr(dormant);
  req.kind = net::PacketKind::kRequest;
  req.seq = 1;
  req.size_bytes = 80;
  cloud.send_external(client, req);
  EXPECT_THROW(cloud.run_for(Duration::millis(50)), ContractViolation);
}

TEST(CloudSharded, TunnelingPolicyTapAllowedAcrossShards) {
  // StopWatch tunnels guest output through the egress gate, so the tap
  // fires only on the egress owner core — single-writer, even sharded.
  Cloud cloud(sharded_config(2));
  const VmHandle vm = cloud.add_vm(
      "echo", [] { return std::make_unique<EchoProgram>(); }, {0, 1, 2});
  cloud.activate_sharded({vm});
  cloud.set_egress_tap([](std::uint32_t, RealTime, const net::Packet&) {});
  EXPECT_TRUE(cloud.has_egress_tap());
}

TEST(CloudSharded, NonTunnelingTapRejectedWhenVmsSpanShards) {
  // Baseline Xen emits output from the replica send path — with active
  // VMs on two shards the tap would fire from two worker threads.
  CloudConfig cfg = sharded_config(2);
  cfg.policy = Policy::kBaselineXen;
  Cloud cloud(cfg);
  const VmHandle a = cloud.add_vm(
      "a", [] { return std::make_unique<EchoProgram>(); }, {0});
  const VmHandle b = cloud.add_vm(
      "b", [] { return std::make_unique<EchoProgram>(); }, {1});
  cloud.activate_sharded({a, b});
  EXPECT_THROW(
      cloud.set_egress_tap([](std::uint32_t, RealTime, const net::Packet&) {}),
      ContractViolation);
}

TEST(CloudSharded, NonTunnelingTapPreinstalledRejectedAtActivation) {
  CloudConfig cfg = sharded_config(2);
  cfg.policy = Policy::kBaselineXen;
  Cloud cloud(cfg);
  cloud.set_egress_tap([](std::uint32_t, RealTime, const net::Packet&) {});
  const VmHandle a = cloud.add_vm(
      "a", [] { return std::make_unique<EchoProgram>(); }, {0});
  const VmHandle b = cloud.add_vm(
      "b", [] { return std::make_unique<EchoProgram>(); }, {1});
  EXPECT_THROW(cloud.activate_sharded({a, b}), ContractViolation);
}

TEST(CloudSharded, NonTunnelingTapAllowedWhenActiveSetSharesAShard) {
  // One active VM -> one owner shard -> the replica send path is a single
  // writer even though shard_count > 1.
  CloudConfig cfg = sharded_config(2);
  cfg.policy = Policy::kBaselineXen;
  Cloud cloud(cfg);
  const VmHandle a = cloud.add_vm(
      "a", [] { return std::make_unique<EchoProgram>(); }, {0});
  cloud.activate_sharded({a});
  cloud.set_egress_tap([](std::uint32_t, RealTime, const net::Packet&) {});
  EXPECT_TRUE(cloud.has_egress_tap());
}

TEST(CloudSharded, EgressAndExternalsLeaveCoreZero) {
  Cloud cloud(sharded_config(2));
  const NodeId client =
      cloud.add_external_node("client", [](const net::Packet&) {});
  const VmHandle vm = cloud.add_vm(
      "echo", [] { return std::make_unique<EchoProgram>(); }, {0, 1, 2});
  cloud.activate_sharded({vm});
  const int egress = cloud.topology().shard_plan().egress_shard();
  EXPECT_GT(egress, 0);  // the single component fills shard 0
  EXPECT_EQ(cloud.network().node_owner(cloud.egress_node()), egress);
  EXPECT_EQ(cloud.network().node_owner(client), egress);
  // The driver core follows: external scheduling stays on the owner core.
  EXPECT_EQ(&cloud.simulator(), &cloud.sharded().shard(egress));
  // Externals registered after activation land there directly too.
  const NodeId late =
      cloud.add_external_node("late", [](const net::Packet&) {});
  EXPECT_EQ(cloud.network().node_owner(late), egress);
}

TEST(CloudSharded, GuestTrafficToAVmOnAnotherShardThrowsNamingThePair) {
  // The declared lookahead is hub-and-spoke around the egress shard: it
  // reaches worker shards only over the slow client link, and worker
  // shards never exchange traffic. A guest sending to a VM on another
  // worker shard breaks that shape: its output leaves the egress gate
  // for the receiver over the datacenter fabric, well inside the
  // receiver's granted window. The per-entry contract must name that
  // (egress, receiver) pair instead of reordering events. With three
  // cores the sender, the receiver and the egress gate each sit on their
  // own core.
  const auto run = [](int shards,
                      const std::function<void(Cloud&, VmHandle)>& check) {
    CloudConfig cfg = sharded_config(shards);
    cfg.machine_count = 6;
    Cloud cloud(cfg);
    const VmHandle receiver = cloud.add_vm(
        "receiver", [] { return std::make_unique<PeerProgram>(); }, {3, 4, 5});
    const NodeId peer = cloud.vm_addr(receiver);
    const VmHandle sender = cloud.add_vm(
        "sender", [peer] { return std::make_unique<PeerProgram>(peer); },
        {0, 1, 2});
    cloud.activate_sharded({sender, receiver});
    cloud.start();
    check(cloud, receiver);
  };

  run(3, [](Cloud& cloud, VmHandle) {
    const topology::ShardPlan& plan = cloud.topology().shard_plan();
    const int sender_shard = plan.shard_of_machine(0);
    const int from = plan.egress_shard();
    const int to = plan.shard_of_machine(3);
    ASSERT_NE(sender_shard, to);
    ASSERT_NE(sender_shard, from);
    ASSERT_NE(to, from);
    try {
      cloud.run_for(Duration::millis(50));
      ADD_FAILURE() << "expected a ContractViolation";
    } catch (const ContractViolation& e) {
      const std::string what = e.what();
      const std::string pair = "from shard " + std::to_string(from) +
                               " to shard " + std::to_string(to);
      EXPECT_NE(what.find(pair), std::string::npos) << what;
    }
  });

  run(1, [](Cloud& cloud, VmHandle receiver) {
    EXPECT_NO_THROW(cloud.run_for(Duration::millis(50)));
    cloud.halt_all();
    for (int r = 0; r < cloud.replicas_of(receiver); ++r) {
      const auto& program =
          static_cast<PeerProgram&>(cloud.replica(receiver, r).program());
      EXPECT_EQ(program.received(), 1);
    }
  });
}

/// Runs `fn` and returns the ContractViolation message it throws ("" and
/// a test failure if it throws none).
std::string violation_message(const std::function<void()>& fn) {
  try {
    fn();
  } catch (const ContractViolation& e) {
    return e.what();
  }
  ADD_FAILURE() << "expected a ContractViolation";
  return "";
}

TEST(CloudSharded, ActivationRequiresLazyWiring) {
  CloudConfig cfg = sharded_config(2);
  cfg.wiring = WiringMode::kEager;
  Cloud cloud(cfg);
  const VmHandle vm = cloud.add_vm(
      "echo", [] { return std::make_unique<EchoProgram>(); }, {0, 1, 2});
  const std::string what =
      violation_message([&] { cloud.activate_sharded({vm}); });
  EXPECT_NE(what.find("WiringMode::kLazy"), std::string::npos) << what;
}

TEST(CloudSharded, ActivationRunsOnceAndBeforeStart) {
  Cloud twice(sharded_config(2));
  const VmHandle vm = twice.add_vm(
      "echo", [] { return std::make_unique<EchoProgram>(); }, {0, 1, 2});
  twice.activate_sharded({vm});
  EXPECT_THROW(twice.activate_sharded({vm}), ContractViolation);

  Cloud late(sharded_config(2));
  const VmHandle v = late.add_vm(
      "echo", [] { return std::make_unique<EchoProgram>(); }, {0, 1, 2});
  late.start();
  EXPECT_THROW(late.activate_sharded({v}), ContractViolation);
}

TEST(CloudSharded, DuplicateHandlesInTheActivationSetWireOnce) {
  Cloud cloud(sharded_config(2));
  const VmHandle vm = cloud.add_vm(
      "echo", [] { return std::make_unique<EchoProgram>(); }, {0, 1, 2});
  cloud.activate_sharded({vm, vm});
  EXPECT_TRUE(cloud.vm_materialized(vm));
  EXPECT_EQ(cloud.topology().materialized_vm_count(), 1u);
}

TEST(CloudSharded, MaterializingOutsideTheLockedSetThrowsNamingTheVm) {
  Cloud cloud(sharded_config(2));
  const VmHandle active = cloud.add_vm(
      "active", [] { return std::make_unique<EchoProgram>(); }, {0, 1, 2});
  const VmHandle dormant = cloud.add_vm(
      "dormant", [] { return std::make_unique<EchoProgram>(); }, {3, 4, 5});
  cloud.activate_sharded({active});
  const std::string what =
      violation_message([&] { cloud.materialize(dormant); });
  EXPECT_NE(what.find("'dormant'"), std::string::npos) << what;
  EXPECT_FALSE(cloud.vm_materialized(dormant));
}

TEST(CloudSharded, RejectsNonPositiveShardCount) {
  CloudConfig cfg = sharded_config(0);
  EXPECT_THROW(Cloud{cfg}, ContractViolation);
}

}  // namespace
}  // namespace stopwatch::core
