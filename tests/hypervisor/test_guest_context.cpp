// Direct tests of the VMM per-replica driver: clock virtualization, PIT
// injection, the network/disk device-model protocols, throttling, epoch
// resync, and the baseline-Xen emulation — against a hand-built harness
// with deterministic (jitter-free) machine parameters.
#include "hypervisor/guest_context.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "common/contracts.hpp"
#include "hypervisor/machine.hpp"
#include "sim/simulator.hpp"

namespace stopwatch::hypervisor {
namespace {

/// Guest program that records delivery timestamps via the guest clock.
class RecorderProgram final : public vm::GuestProgram {
 public:
  void on_boot(vm::GuestApi& api) override {
    api_ = &api;
    if (boot_action) boot_action(api);
  }
  void on_timer_tick(vm::GuestApi& api, std::uint64_t) override {
    tick_virt_ns.push_back(api.now().ns);
  }
  void on_packet(vm::GuestApi& api, const net::Packet& pkt) override {
    packet_virt_ns.push_back(api.now().ns);
    packet_seqs.push_back(pkt.seq);
  }

  std::function<void(vm::GuestApi&)> boot_action;
  vm::GuestApi* api_{nullptr};
  std::vector<std::int64_t> tick_virt_ns;
  std::vector<std::int64_t> packet_virt_ns;
  std::vector<std::uint64_t> packet_seqs;
};

MachineConfig exact_machine() {
  MachineConfig mc;
  mc.base_ips = 1e9;
  mc.ips_jitter_sigma = 0.0;
  mc.contention_alpha = 0.0;
  mc.exit_overhead = Duration{};
  mc.vmm_base_delay = Duration::micros(50);
  mc.vmm_load_delay = Duration{};
  mc.vmm_delay_jitter_sigma = 0.0;
  mc.disk_seek_min = Duration::millis(3);
  mc.disk_seek_max = Duration::millis(3);
  mc.preempt_wait = Duration{};
  mc.clock_offset = Duration{};
  return mc;
}

struct Harness {
  sim::Simulator sim;
  Machine machine;
  RecorderProgram* program{nullptr};
  std::unique_ptr<GuestContext> ctx;
  std::vector<net::Proposal> own_proposals;
  std::vector<net::EpochReport> own_reports;
  std::vector<net::Frame> frames_out;

  explicit Harness(GuestContextConfig cfg,
                   std::function<void(vm::GuestApi&)> boot = nullptr,
                   MachineConfig mc = exact_machine())
      : machine(MachineId{0}, sim, mc, Rng(5)) {
    auto prog = std::make_unique<RecorderProgram>();
    prog->boot_action = std::move(boot);
    program = prog.get();

    ReplicaServices svc;
    svc.machine_node = NodeId{100};
    svc.egress_node = NodeId{200};
    svc.send_frame = [this](net::Frame f) { frames_out.push_back(std::move(f)); };
    svc.control_multicast = [this](net::FramePayload payload, std::uint32_t) {
      // Synchronous self-delivery, as MulticastGroup provides.
      if (const auto* p = std::get_if<net::Proposal>(&payload)) {
        own_proposals.push_back(*p);
        ctx->on_proposal(*p);
      } else if (const auto* e = std::get_if<net::EpochReport>(&payload)) {
        own_reports.push_back(*e);
        ctx->on_epoch_report(*e);
      } else if (const auto* b = std::get_if<net::SyncBeacon>(&payload)) {
        ctx->on_sync_beacon(*b);
      }
    };
    ctx = std::make_unique<GuestContext>(VmId{1}, ReplicaIndex{0}, NodeId{50},
                                         machine, sim, cfg, std::move(prog),
                                         777, svc);
  }

  void start() { ctx->start(VirtTime{}); }

  void feed_peer_proposal(std::uint64_t seq, std::int64_t virt_ns,
                          std::uint32_t machine_id) {
    net::Proposal p;
    p.vm = VmId{1};
    p.copy_seq = seq;
    p.proposed_delivery = VirtTime{virt_ns};
    p.proposer = MachineId{machine_id};
    ctx->on_proposal(p);
  }

  void feed_ingress(std::uint64_t seq, std::uint64_t pkt_seq = 0) {
    net::IngressCopy copy;
    copy.vm = VmId{1};
    copy.copy_seq = seq;
    copy.pkt.seq = pkt_seq;
    copy.pkt.size_bytes = 100;
    ctx->on_ingress_copy(copy);
  }
};

GuestContextConfig stopwatch_cfg() {
  GuestContextConfig cfg;
  cfg.policy = Policy::kStopWatch;
  cfg.replica_count = 3;
  cfg.policy.stopwatch.delta_n = Duration::millis(10);
  cfg.policy.stopwatch.delta_d = Duration::millis(12);
  return cfg;
}

TEST(GuestContext, VirtualTimeTracksInstructionsExactly) {
  Harness h(stopwatch_cfg());
  h.start();
  h.sim.run_until(RealTime::millis(50));
  // base_ips 1e9 and slope 1.0 with zero overheads: virt == real.
  EXPECT_NEAR(static_cast<double>(h.ctx->virt_now().ns), 50e6, 2e5);
}

TEST(GuestContext, TimerTicksAt250HzVirtual) {
  Harness h(stopwatch_cfg());
  h.start();
  h.sim.run_until(RealTime::millis(100));
  // 250 Hz -> one tick per 4 ms -> ~25 ticks in 100 ms.
  ASSERT_GE(h.program->tick_virt_ns.size(), 23u);
  ASSERT_LE(h.program->tick_virt_ns.size(), 25u);
  // Tick k is handled just after virtual time (k+1) * 4 ms.
  for (std::size_t k = 0; k < h.program->tick_virt_ns.size(); ++k) {
    const double expected = 4e6 * static_cast<double>(k + 1);
    EXPECT_NEAR(static_cast<double>(h.program->tick_virt_ns[k]), expected,
                1.5e5)
        << "tick " << k;
  }
}

TEST(GuestContext, ProposalIsVirtAtLastExitPlusDeltaN) {
  Harness h(stopwatch_cfg());
  h.start();
  h.sim.run_until(RealTime::millis(20));
  h.feed_ingress(1);
  // Dom0 processing: 50 us with zero jitter/load.
  h.sim.run_until(RealTime::millis(21));
  ASSERT_EQ(h.own_proposals.size(), 1u);
  // Proposal = virt at last exit (~20.05 ms) + 10 ms.
  EXPECT_NEAR(static_cast<double>(h.own_proposals[0].proposed_delivery.ns),
              30.05e6, 2e5);
}

TEST(GuestContext, PacketDeliveredAtMedianProposal) {
  Harness h(stopwatch_cfg());
  h.start();
  h.sim.run_until(RealTime::millis(5));
  h.feed_ingress(1, /*pkt_seq=*/42);
  h.sim.run_until(RealTime::millis(6));  // our proposal goes out (~15 ms)
  // Peers propose 18 ms and 40 ms; median = 18 ms.
  h.feed_peer_proposal(1, 18'000'000, 1);
  h.feed_peer_proposal(1, 40'000'000, 2);
  h.sim.run_until(RealTime::millis(30));
  ASSERT_EQ(h.program->packet_seqs.size(), 1u);
  EXPECT_EQ(h.program->packet_seqs[0], 42u);
  // Delivered at the first exit past virt 18 ms (+ handler cost ~2 us).
  EXPECT_NEAR(static_cast<double>(h.program->packet_virt_ns[0]), 18.0e6, 2e5);
  EXPECT_EQ(h.ctx->stats().net_deliveries, 1u);
  EXPECT_EQ(h.ctx->stats().divergence_median_passed, 0u);
}

TEST(GuestContext, PacketsInjectedInIngressOrder) {
  Harness h(stopwatch_cfg());
  h.start();
  h.sim.run_until(RealTime::millis(5));
  h.feed_ingress(1, 10);
  h.feed_ingress(2, 20);
  h.sim.run_until(RealTime::millis(6));
  // Packet 2's median is EARLIER than packet 1's; order must still hold.
  h.feed_peer_proposal(1, 25'000'000, 1);
  h.feed_peer_proposal(1, 25'000'000, 2);
  h.feed_peer_proposal(2, 20'000'000, 1);
  h.feed_peer_proposal(2, 20'000'000, 2);
  h.sim.run_until(RealTime::millis(40));
  ASSERT_EQ(h.program->packet_seqs.size(), 2u);
  EXPECT_EQ(h.program->packet_seqs[0], 10u);
  EXPECT_EQ(h.program->packet_seqs[1], 20u);
  EXPECT_LE(h.program->packet_virt_ns[0], h.program->packet_virt_ns[1]);
}

TEST(GuestContext, MedianAlreadyPassedCountsDivergence) {
  Harness h(stopwatch_cfg());
  h.start();
  h.sim.run_until(RealTime::millis(20));
  h.feed_ingress(1);
  h.sim.run_until(RealTime::millis(21));
  // Peer proposals in the past (virt ~1 ms): median passed.
  h.feed_peer_proposal(1, 1'000'000, 1);
  h.feed_peer_proposal(1, 1'100'000, 2);
  h.sim.run_until(RealTime::millis(25));
  EXPECT_EQ(h.ctx->stats().divergence_median_passed, 1u);
  EXPECT_EQ(h.ctx->stats().net_deliveries, 1u);  // delivered ASAP
}

TEST(GuestContext, DiskDeliveredAtDeltaD) {
  GuestContextConfig cfg = stopwatch_cfg();
  std::vector<std::int64_t> completion_virt;
  Harness h(cfg, [&completion_virt](vm::GuestApi& api) {
    api.disk_read(4096, [&completion_virt, &api] {
      completion_virt.push_back(api.now().ns);
    });
  });
  h.start();
  h.sim.run_until(RealTime::millis(30));
  ASSERT_EQ(completion_virt.size(), 1u);
  // Request trapped at the first exit (~0.02-0.1 ms); delivery at +12 ms.
  EXPECT_NEAR(static_cast<double>(completion_virt[0]), 12.1e6, 3e5);
  EXPECT_EQ(h.ctx->stats().disk_deliveries, 1u);
  EXPECT_EQ(h.ctx->stats().divergence_disk_late, 0u);
}

TEST(GuestContext, DiskLateWhenDeltaDTooSmall) {
  GuestContextConfig cfg = stopwatch_cfg();
  cfg.policy.stopwatch.delta_d = Duration::millis(1);  // disk takes 3 ms seek
  Harness h(cfg, [](vm::GuestApi& api) { api.disk_read(4096, [] {}); });
  h.start();
  h.sim.run_until(RealTime::millis(30));
  EXPECT_EQ(h.ctx->stats().divergence_disk_late, 1u);
  EXPECT_EQ(h.ctx->stats().disk_deliveries, 1u);  // still deterministic
}

TEST(GuestContext, OutputsAreTunneledToEgress) {
  Harness h(stopwatch_cfg(), [](vm::GuestApi& api) {
    net::Packet pkt;
    pkt.dst = NodeId{9};
    pkt.size_bytes = 100;
    api.send_packet(pkt);
  });
  h.start();
  h.sim.run_until(RealTime::millis(1));
  ASSERT_EQ(h.frames_out.size(), 1u);
  EXPECT_EQ(h.frames_out[0].dst, (NodeId{200}));  // egress node
  const auto* t = std::get_if<net::TunneledOutput>(&h.frames_out[0].payload);
  ASSERT_NE(t, nullptr);
  EXPECT_EQ(t->out_seq, 1u);
  EXPECT_EQ(t->pkt.dst, (NodeId{9}));
  EXPECT_EQ(t->content_hash, t->pkt.content_hash());
}

TEST(GuestContext, BaselineSendsDirectlyAndUsesRealClock) {
  GuestContextConfig cfg;
  cfg.policy = Policy::kBaselineXen;
  cfg.replica_count = 1;
  MachineConfig mc = exact_machine();
  mc.clock_offset = Duration::millis(500);
  Harness h(cfg, [](vm::GuestApi& api) {
    net::Packet pkt;
    pkt.dst = NodeId{9};
    pkt.size_bytes = 100;
    api.send_packet(pkt);
  }, mc);
  h.start();
  h.sim.run_until(RealTime::millis(10));
  ASSERT_EQ(h.frames_out.size(), 1u);
  EXPECT_EQ(h.frames_out[0].dst, (NodeId{9}));  // direct, no egress
  // Passthrough clock = machine-local real time (offset included).
  EXPECT_NEAR(static_cast<double>(h.ctx->virt_now().ns), 510e6, 1e5);
}

TEST(GuestContext, BaselineDeliversAfterProcessingDelay) {
  GuestContextConfig cfg;
  cfg.policy = Policy::kBaselineXen;
  cfg.replica_count = 1;
  Harness h(cfg);
  h.start();
  h.sim.run_until(RealTime::millis(5));
  net::Packet pkt;
  pkt.seq = 3;
  pkt.size_bytes = 80;
  h.ctx->on_direct_packet(pkt);
  h.sim.run_until(RealTime::millis(8));
  ASSERT_EQ(h.program->packet_seqs.size(), 1u);
  // Delivery ~5 ms + 50 us Dom0 + exit quantization.
  EXPECT_NEAR(static_cast<double>(h.program->packet_virt_ns[0]), 5.05e6, 2e5);
}

TEST(GuestContext, ReplicatedPolicyRequiresThreeReplicas) {
  GuestContextConfig cfg = stopwatch_cfg();
  cfg.replica_count = 1;
  EXPECT_THROW({ Harness h(cfg); }, ContractViolation);
}

TEST(GuestContext, ThrottleStallsFastestReplica) {
  GuestContextConfig cfg = stopwatch_cfg();
  cfg.policy.stopwatch.max_replica_gap = Duration::millis(2);
  Harness h(cfg);
  h.start();
  // Peers report virtual times far behind ours.
  net::SyncBeacon b1;
  b1.vm = VmId{1};
  b1.machine = MachineId{1};
  b1.virt = VirtTime::millis(1);
  net::SyncBeacon b2 = b1;
  b2.machine = MachineId{2};
  h.ctx->on_sync_beacon(b1);
  h.ctx->on_sync_beacon(b2);
  h.sim.run_until(RealTime::millis(20));
  // We must have stalled: virt stays near peers' + gap, well below 20 ms.
  EXPECT_GT(h.ctx->stats().throttle_stalls, 0u);
  EXPECT_LT(h.ctx->virt_now().ns, Duration::millis(5).ns);

  // Peers catch up -> we resume.
  b1.virt = VirtTime::millis(50);
  b2.virt = VirtTime::millis(50);
  h.ctx->on_sync_beacon(b1);
  h.ctx->on_sync_beacon(b2);
  h.sim.run_until(RealTime::millis(40));
  EXPECT_GT(h.ctx->virt_now().ns, Duration::millis(10).ns);
}

TEST(GuestContext, EpochReportsEmittedAndClockRebased) {
  GuestContextConfig cfg = stopwatch_cfg();
  cfg.policy.stopwatch.epoch_resync = true;
  cfg.policy.stopwatch.epoch_instr = 10'000'000;  // 10 ms epochs
  cfg.policy.stopwatch.slope_min = 0.5;
  cfg.policy.stopwatch.slope_max = 2.0;
  Harness h(cfg);
  h.start();

  // Run in short phases, relaying our own reports as if the two peer
  // machines sent identical ones (identical hardware).
  std::size_t relayed = 0;
  for (int ms = 2; ms <= 80; ms += 2) {
    h.sim.run_until(RealTime::millis(ms));
    for (; relayed < h.own_reports.size(); ++relayed) {
      net::EpochReport r = h.own_reports[relayed];
      for (std::uint32_t m : {1u, 2u}) {
        r.machine = MachineId{m};
        h.ctx->on_epoch_report(r);
      }
    }
  }
  EXPECT_GE(h.own_reports.size(), 3u);
  EXPECT_GE(h.ctx->stats().epoch_rebase_count, 1u);
  // With identical machines the rebased slope stays ~1: virt ~ real.
  EXPECT_NEAR(static_cast<double>(h.ctx->virt_now().ns), 80e6, 2e6);
}

TEST(GuestContext, PacketTracesRecordProtocolTimeline) {
  GuestContextConfig cfg = stopwatch_cfg();
  cfg.record_packet_traces = true;
  Harness h(cfg);
  h.start();
  h.sim.run_until(RealTime::millis(5));
  h.feed_ingress(1, 9);
  h.sim.run_until(RealTime::millis(6));
  h.feed_peer_proposal(1, 17'000'000, 1);
  h.feed_peer_proposal(1, 19'000'000, 2);
  h.sim.run_until(RealTime::millis(30));
  ASSERT_EQ(h.ctx->stats().packet_traces.size(), 1u);
  const auto& tr = h.ctx->stats().packet_traces[0];
  EXPECT_EQ(tr.copy_seq, 1u);
  EXPECT_NEAR(tr.arrival_real_ms, 5.0, 0.1);
  EXPECT_EQ(tr.proposals_ms.size(), 3u);
  EXPECT_NEAR(tr.chosen_delivery_virt_ms, 17.0, 0.1);  // median of 15/17/19
  EXPECT_GE(tr.inject_virt_ms, tr.chosen_delivery_virt_ms);
}

}  // namespace
}  // namespace stopwatch::hypervisor
