#include "core/cloud.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "workload/timing.hpp"

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

/// Counts PIT ticks (for clock-rate checks).
class TickCounterProgram final : public vm::GuestProgram {
 public:
  void on_boot(vm::GuestApi&) override {}
  void on_timer_tick(vm::GuestApi& api, std::uint64_t) override {
    ++ticks;
    last_tick_virt_ns = api.now().ns;
  }
  void on_packet(vm::GuestApi&, const net::Packet&) override {}
  std::uint64_t ticks{0};
  std::int64_t last_tick_virt_ns{0};
};

CloudConfig stopwatch_config(std::uint64_t seed = 42) {
  CloudConfig cfg;
  cfg.seed = seed;
  cfg.policy = Policy::kStopWatch;
  cfg.machine_count = 3;
  return cfg;
}

struct EchoRun {
  std::vector<std::int64_t> reply_times_ns;
  std::vector<std::uint64_t> reply_seqs;
};

EchoRun run_echo_cloud(const CloudConfig& cfg, int requests,
                       Duration spacing) {
  Cloud cloud(cfg);
  const VmHandle vm = cloud.add_vm(
      "echo", [] { return std::make_unique<EchoProgram>(); }, {0, 1, 2});
  EchoRun run;
  const NodeId client = cloud.add_external_node(
      "client", [&run, &cloud](const net::Packet& pkt) {
        run.reply_times_ns.push_back(cloud.simulator().now().ns);
        run.reply_seqs.push_back(pkt.seq);
      });
  cloud.start();
  for (int i = 0; i < requests; ++i) {
    cloud.simulator().schedule_at(
        RealTime{} + spacing * (i + 1), [&cloud, client, vm, i] {
          net::Packet req;
          req.dst = cloud.vm_addr(vm);
          req.kind = net::PacketKind::kRequest;
          req.seq = static_cast<std::uint64_t>(i);
          req.size_bytes = 80;
          cloud.send_external(client, req);
        });
  }
  cloud.run_for(Duration::seconds(3));
  EXPECT_TRUE(cloud.replicas_deterministic(vm));
  EXPECT_EQ(cloud.egress_stats(vm).hash_mismatches, 0u);
  EXPECT_EQ(cloud.total_divergences(), 0u);
  return run;
}

TEST(Cloud, StopWatchEchoesAllRequests) {
  const EchoRun run =
      run_echo_cloud(stopwatch_config(), 20, Duration::millis(20));
  ASSERT_EQ(run.reply_seqs.size(), 20u);
  for (std::uint64_t i = 0; i < 20; ++i) EXPECT_EQ(run.reply_seqs[i], i);
}

TEST(Cloud, RunsAreBitReproducible) {
  const EchoRun a = run_echo_cloud(stopwatch_config(7), 10, Duration::millis(15));
  const EchoRun b = run_echo_cloud(stopwatch_config(7), 10, Duration::millis(15));
  EXPECT_EQ(a.reply_times_ns, b.reply_times_ns);
  EXPECT_EQ(a.reply_seqs, b.reply_seqs);
}

TEST(Cloud, DifferentSeedsChangeTimings) {
  const EchoRun a = run_echo_cloud(stopwatch_config(7), 10, Duration::millis(15));
  const EchoRun b = run_echo_cloud(stopwatch_config(8), 10, Duration::millis(15));
  EXPECT_NE(a.reply_times_ns, b.reply_times_ns);
}

TEST(Cloud, BaselineEchoes) {
  CloudConfig cfg = stopwatch_config();
  cfg.policy = Policy::kBaselineXen;
  const EchoRun run = run_echo_cloud(cfg, 10, Duration::millis(10));
  EXPECT_EQ(run.reply_seqs.size(), 10u);
}

TEST(Cloud, StopWatchDeliveryIsSlowerThanBaseline) {
  // The same echo exchange pays the Δn-median path under StopWatch.
  CloudConfig base_cfg = stopwatch_config();
  base_cfg.policy = Policy::kBaselineXen;
  const EchoRun base = run_echo_cloud(base_cfg, 10, Duration::millis(50));
  const EchoRun sw = run_echo_cloud(stopwatch_config(), 10, Duration::millis(50));
  ASSERT_EQ(base.reply_times_ns.size(), 10u);
  ASSERT_EQ(sw.reply_times_ns.size(), 10u);
  // Compare per-request round trips (request i sent at (i+1)*50 ms).
  double base_avg = 0.0, sw_avg = 0.0;
  for (int i = 0; i < 10; ++i) {
    const auto sent = (Duration::millis(50) * (i + 1)).ns;
    base_avg += static_cast<double>(base.reply_times_ns[static_cast<std::size_t>(i)] - sent);
    sw_avg += static_cast<double>(sw.reply_times_ns[static_cast<std::size_t>(i)] - sent);
  }
  EXPECT_GT(sw_avg, base_avg * 1.5);
  // But not absurdly slower (delivery pipeline works).
  EXPECT_LT(sw_avg, base_avg * 40.0);
}

TEST(Cloud, ReplicasObserveIdenticalVirtualDeliveryTimes) {
  CloudConfig cfg = stopwatch_config();
  Cloud cloud(cfg);
  const VmHandle vm = cloud.add_vm(
      "probe", [] { return std::make_unique<workload::AttackerProbeProgram>(); },
      {0, 1, 2});
  workload::BackgroundBroadcaster bcast(cloud, "bcast", cloud.vm_addr(vm),
                                        80.0, 5);
  cloud.start();
  bcast.start();
  cloud.run_for(Duration::seconds(5));
  cloud.halt_all();

  auto obs = [&](int r) {
    return static_cast<workload::AttackerProbeProgram&>(
               cloud.replica(vm, r).program())
        .observations_ns();
  };
  const auto& o0 = obs(0);
  const auto& o1 = obs(1);
  const auto& o2 = obs(2);
  ASSERT_GT(o0.size(), 100u);
  const std::size_t n = std::min({o0.size(), o1.size(), o2.size()});
  for (std::size_t i = 0; i < n; ++i) {
    ASSERT_EQ(o0[i], o1[i]) << "replica 0 vs 1 at obs " << i;
    ASSERT_EQ(o0[i], o2[i]) << "replica 0 vs 2 at obs " << i;
  }
  EXPECT_EQ(cloud.total_divergences(), 0u);
}

TEST(Cloud, TimerTicksTrackVirtualTimeAt250Hz) {
  CloudConfig cfg = stopwatch_config();
  Cloud cloud(cfg);
  const VmHandle vm = cloud.add_vm(
      "ticker", [] { return std::make_unique<TickCounterProgram>(); },
      {0, 1, 2});
  cloud.start();
  cloud.run_for(Duration::seconds(2));
  cloud.halt_all();
  for (int r = 0; r < 3; ++r) {
    auto& prog =
        static_cast<TickCounterProgram&>(cloud.replica(vm, r).program());
    ASSERT_GT(prog.ticks, 100u);
    // Tick N fires once virtual time passes N * 4 ms: 250 Hz in virt.
    const double measured_rate =
        static_cast<double>(prog.ticks) /
        (static_cast<double>(prog.last_tick_virt_ns) / 1e9 + 1e-12);
    EXPECT_NEAR(measured_rate, 250.0, 25.0) << "replica " << r;
  }
}

TEST(Cloud, EgressReleasesOnSecondCopy) {
  CloudConfig cfg = stopwatch_config();
  Cloud cloud(cfg);
  const VmHandle vm = cloud.add_vm(
      "echo", [] { return std::make_unique<EchoProgram>(); }, {0, 1, 2});
  int client_received = 0;
  const NodeId client = cloud.add_external_node(
      "client", [&](const net::Packet&) { ++client_received; });
  cloud.start();
  cloud.simulator().schedule_at(RealTime::millis(10), [&] {
    net::Packet req;
    req.dst = cloud.vm_addr(vm);
    req.kind = net::PacketKind::kRequest;
    req.size_bytes = 80;
    cloud.send_external(client, req);
  });
  cloud.run_for(Duration::seconds(2));
  EXPECT_EQ(client_received, 1);
  EXPECT_EQ(cloud.egress_stats(vm).packets_released, 1u);
}

/// Sends a request to a fixed destination every few PIT ticks.
class PeriodicSenderProgram final : public vm::GuestProgram {
 public:
  explicit PeriodicSenderProgram(NodeId dst) : dst_(dst) {}
  void on_boot(vm::GuestApi&) override {}
  void on_timer_tick(vm::GuestApi& api, std::uint64_t tick) override {
    if (tick % 8 != 0) return;  // every ~32 ms of virtual time
    net::Packet req;
    req.dst = dst_;
    req.kind = net::PacketKind::kRequest;
    req.seq = tick;
    req.size_bytes = 80;
    api.send_packet(req);
  }
  void on_packet(vm::GuestApi&, const net::Packet&) override {}

 private:
  NodeId dst_;
};

TEST(Cloud, VmToVmTrafficFlowsThroughEgressAndIngress) {
  // VM1's outputs leave via the egress (median timing) and re-enter through
  // VM2's ingress, where they are median-agreed again — both replicated VMs
  // must stay deterministic end to end.
  CloudConfig cfg = stopwatch_config();
  cfg.machine_count = 6;
  Cloud cloud(cfg);
  const VmHandle receiver = cloud.add_vm(
      "receiver",
      [] { return std::make_unique<workload::AttackerProbeProgram>(); },
      {0, 1, 2});
  const VmHandle sender = cloud.add_vm(
      "sender",
      [&cloud, receiver] {
        return std::make_unique<PeriodicSenderProgram>(cloud.vm_addr(receiver));
      },
      {3, 4, 5});
  cloud.start();
  cloud.run_for(Duration::seconds(3));
  cloud.halt_all();

  // ~3 s / 32 ms = ~90 requests; each released once by the sender's egress.
  EXPECT_GT(cloud.egress_stats(sender).packets_released, 60u);
  auto obs = [&](int r) {
    return static_cast<workload::AttackerProbeProgram&>(
               cloud.replica(receiver, r).program())
        .observations_ns();
  };
  ASSERT_GT(obs(0).size(), 60u);
  const std::size_t n =
      std::min({obs(0).size(), obs(1).size(), obs(2).size()});
  for (std::size_t i = 0; i < n; ++i) {
    ASSERT_EQ(obs(0)[i], obs(1)[i]);
    ASSERT_EQ(obs(0)[i], obs(2)[i]);
  }
  EXPECT_TRUE(cloud.replicas_deterministic(sender));
  EXPECT_TRUE(cloud.replicas_deterministic(receiver));
  EXPECT_EQ(cloud.total_divergences(), 0u);
}

TEST(Cloud, ReplicaPlacementOnSameMachineRejected) {
  Cloud cloud(stopwatch_config());
  EXPECT_THROW(cloud.add_vm(
                   "bad", [] { return std::make_unique<EchoProgram>(); },
                   {0, 0, 1}),
               ContractViolation);
}

TEST(Cloud, RejectedAddVmLeavesNoEntryBehind) {
  // A rejected placement must not consume a VM index: the index seeds the
  // VM's deterministic RNG, so a retry has to behave like a fresh cloud.
  Cloud cloud(stopwatch_config());
  const auto factory = [] { return std::make_unique<EchoProgram>(); };
  EXPECT_THROW(cloud.add_vm("dup", factory, {0, 0, 1}), ContractViolation);
  EXPECT_THROW(cloud.add_vm("range", factory, {0, 1, 7}), ContractViolation);
  const VmHandle vm = cloud.add_vm("ok", factory, {0, 1, 2});
  EXPECT_EQ(vm.index, 0u);
  EXPECT_EQ(cloud.topology().vm_count(), 1u);
  std::uint64_t vms = 0;
  for (const auto& [name, value] : cloud.observability().counters) {
    if (name == "topology.vms") vms = value;
  }
  EXPECT_EQ(vms, 1u);
}

/// Expects Cloud(cfg) to throw a ContractViolation whose message mentions
/// `needle` — misconfiguration must explain itself at the boundary instead
/// of failing deep inside wiring.
void expect_config_rejected(const CloudConfig& cfg, const std::string& needle) {
  try {
    Cloud cloud(cfg);
    FAIL() << "expected ContractViolation mentioning '" << needle << "'";
  } catch (const ContractViolation& e) {
    EXPECT_NE(std::string(e.what()).find(needle), std::string::npos)
        << e.what();
  }
}

TEST(Cloud, ConfigValidatedUpFrontWithClearMessages) {
  CloudConfig cfg = stopwatch_config();
  cfg.machine_count = 0;
  expect_config_rejected(cfg, "machine_count must be >= 1");

  cfg = stopwatch_config();
  cfg.replica_count = 0;
  expect_config_rejected(cfg, "replica_count must be >= 1");

  cfg = stopwatch_config();
  cfg.replica_count = -3;
  expect_config_rejected(cfg, "replica_count must be >= 1");

  cfg = stopwatch_config();
  cfg.replica_count = 4;
  expect_config_rejected(cfg, "must be odd");

  cfg = stopwatch_config();
  cfg.replica_count = 5;  // > machine_count = 3
  expect_config_rejected(cfg, "cannot exceed machine_count");

  cfg = stopwatch_config();
  cfg.shard_size = 0;
  expect_config_rejected(cfg, "shard_size must be >= 1");

  cfg = stopwatch_config();
  cfg.clock_offset_spread = Duration::millis(-1);
  expect_config_rejected(cfg, "clock_offset_spread");

  // Baseline runs single replicas, so replica_count > machine_count is
  // fine there (the knob is documented as ignored).
  CloudConfig baseline = stopwatch_config();
  baseline.policy = Policy::kBaselineXen;
  baseline.machine_count = 1;
  baseline.replica_count = 3;
  Cloud ok(baseline);
  EXPECT_EQ(ok.machine_count(), 1);
}

TEST(Cloud, SingleReplicaStopWatchRejectedUpFront) {
  // A median of one replica is that replica's own timing: StopWatch with
  // replica_count = 1 is refused at construction, naming the field,
  // instead of running until its first inbound packet.
  CloudConfig cfg = stopwatch_config();
  cfg.replica_count = 1;
  expect_config_rejected(cfg, "CloudConfig.replica_count must be >= 3");

  // The unreplicated backends run one replica by design.
  for (const Policy policy :
       {Policy::kBaselineXen, Policy::kDeterland, Policy::kTifcPacing}) {
    CloudConfig single = stopwatch_config();
    single.policy = policy;
    single.replica_count = 1;
    const EchoRun run = run_echo_cloud(single, 1, Duration::millis(10));
    EXPECT_EQ(run.reply_seqs.size(), 1u)
        << hypervisor::policy_choice_name(policy);
  }
}

TEST(Cloud, FiveReplicaCloudWorks) {
  CloudConfig cfg = stopwatch_config();
  cfg.machine_count = 5;
  cfg.replica_count = 5;
  Cloud cloud(cfg);
  const VmHandle vm = cloud.add_vm(
      "echo", [] { return std::make_unique<EchoProgram>(); },
      {0, 1, 2, 3, 4});
  int received = 0;
  const NodeId client =
      cloud.add_external_node("client", [&](const net::Packet&) { ++received; });
  cloud.start();
  cloud.simulator().schedule_at(RealTime::millis(5), [&] {
    net::Packet req;
    req.dst = cloud.vm_addr(vm);
    req.kind = net::PacketKind::kRequest;
    req.size_bytes = 80;
    cloud.send_external(client, req);
  });
  cloud.run_for(Duration::seconds(2));
  EXPECT_EQ(received, 1);
  EXPECT_TRUE(cloud.replicas_deterministic(vm));
  EXPECT_EQ(cloud.total_divergences(), 0u);
}

}  // namespace
}  // namespace stopwatch::core
