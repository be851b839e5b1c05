// The per-replica VMM driver — StopWatch's modified hypervisor + QEMU
// device models (paper Secs. IV-V), one instance per (guest VM, replica).
//
// Responsibilities:
//  * execution engine: runs the guest in instruction slices whose real
//    duration reflects host speed, contention, and jitter; every slice ends
//    in a guest-caused VM exit (periodic, or at a trapping I/O instruction);
//  * the guest clock and PIT timer-interrupt injection (Sec. IV-B);
//  * the network card device model: buffer-hide inbound packets and deliver
//    them at the policy's delivery time — under StopWatch: propose
//    virt(last exit) + Δn, multicast proposals, adopt the median, inject at
//    the first guest-caused exit past the delivery time, and only then copy
//    data to the guest (anti-polling) (Sec. V);
//  * the IDE disk / DMA device model: deliver completion interrupts at the
//    policy's disk deadline (virt(request) + Δd under StopWatch), provided
//    the physical transfer finished (Sec. V);
//  * output tunneling to the egress node, when the policy tunnels (Sec. VI);
//  * fastest-replica throttling via virtual-time sync beacons (Sec. VII-A);
//  * epoch-based clock resynchronization (Sec. IV-A);
//  * divergence detection (synchrony violations).
//
// Every policy-dependent decision is delegated to the MitigationPolicy
// built from GuestContextConfig::policy (see hypervisor/policy.hpp): under
// PolicyKind::kBaselineXen the same machinery emulates unmodified Xen —
// the guest clock passes through machine-local real time, and interrupts
// are delivered as soon as Dom0 has processed them — which is exactly what
// leaks coresident-victim activity.
#pragma once

#include <array>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <vector>

#include "common/ids.hpp"
#include "common/time.hpp"
#include "hypervisor/machine.hpp"
#include "hypervisor/policy.hpp"
#include "hypervisor/virtual_clock.hpp"
#include "net/frame.hpp"
#include "sim/simulator.hpp"
#include "vm/guest.hpp"

namespace stopwatch::hypervisor {

struct GuestContextConfig {
  /// Mitigation-policy selection + per-policy knobs (StopWatch's Δn/Δd,
  /// aggregation rule, throttle gap, epoch resync, ... live in
  /// policy.stopwatch; see hypervisor/policy.hpp).
  PolicyConfig policy{};
  /// Replicas per guest VM (3 in the paper; 5 hardens against Sec. IX).
  /// At least 3 under replicated policies; 1 under the others.
  int replica_count{3};
  /// Keep per-packet protocol traces (first 32 inbound packets).
  bool record_packet_traces{false};
};

/// Timeline of one inbound packet through the StopWatch protocol (Fig. 2/3).
struct PacketTrace {
  std::uint64_t copy_seq{0};
  double arrival_real_ms{0.0};
  /// (machine, proposed delivery in virtual ms), in arrival order.
  std::vector<std::pair<std::uint32_t, double>> proposals_ms;
  double chosen_delivery_virt_ms{0.0};
  double inject_virt_ms{0.0};
  double inject_real_ms{0.0};
};

/// Divergence and delivery statistics (per replica).
struct GuestContextStats {
  std::uint64_t net_deliveries{0};
  std::uint64_t disk_deliveries{0};
  std::uint64_t timer_injections{0};
  std::uint64_t outputs_tunneled{0};
  /// Median delivery time had already passed when determined (synchrony
  /// assumption violated; Sec. V footnote 4).
  std::uint64_t divergence_median_passed{0};
  /// Physical disk transfer not finished by the virtual delivery time
  /// (Δd too small).
  std::uint64_t divergence_disk_late{0};
  /// Epoch reports incomplete at the (deterministic) apply point.
  std::uint64_t divergence_epoch_missing{0};
  std::uint64_t throttle_stalls{0};
  Duration total_stall_time{};
  std::uint64_t epoch_rebase_count{0};

  /// Per-packet spread (max - min) of the three proposals, in ms of virtual
  /// time — the quantity Δn must dominate (Sec. VII-A calibration).
  std::vector<double> proposal_spread_ms;
  /// Slack between median determination and the median deadline, ms.
  std::vector<double> median_margin_ms;
  /// Slack between physical disk completion and virtual delivery, ms.
  std::vector<double> disk_margin_ms;
  /// Protocol traces (when GuestContextConfig::record_packet_traces).
  std::vector<PacketTrace> packet_traces;
};

/// Hooks the GuestContext needs from the cloud fabric.
struct ReplicaServices {
  /// Multicast a control payload to the VM's replica VMM group (reliable;
  /// includes synchronous self-delivery).
  std::function<void(net::FramePayload, std::uint32_t bytes)> control_multicast;
  /// Send a frame from this machine's network node.
  std::function<void(net::Frame)> send_frame;
  NodeId machine_node{};
  NodeId egress_node{};
};

class GuestContext final : public LoadSource {
 public:
  GuestContext(VmId vm, ReplicaIndex replica, NodeId vm_addr,
               Machine& machine, sim::Simulator& sim, GuestContextConfig cfg,
               std::unique_ptr<vm::GuestProgram> program,
               std::uint64_t det_seed, ReplicaServices services);

  GuestContext(const GuestContext&) = delete;
  GuestContext& operator=(const GuestContext&) = delete;

  /// Boot the guest and begin execution. `start` is the initial virtual
  /// time (median of the replicas' machine clocks under StopWatch).
  void start(VirtTime start);

  /// Stop scheduling further slices (end of experiment).
  void halt();

  // --- Cloud-facing event entry points ---

  /// Replicated policies: an ingress copy of an inbound guest packet
  /// arrived at this machine's Dom0.
  void on_ingress_copy(const net::IngressCopy& copy);
  /// A peer VMM's (or our own) proposal for an inbound packet.
  void on_proposal(const net::Proposal& p);
  /// A peer replica's virtual-time beacon.
  void on_sync_beacon(const net::SyncBeacon& b);
  /// A peer replica's epoch report.
  void on_epoch_report(const net::EpochReport& r);
  /// Non-replicated policies: a packet delivered directly to this machine
  /// for this guest.
  void on_direct_packet(const net::Packet& pkt);

  // --- Introspection for experiments ---

  [[nodiscard]] VirtTime virt_now() const;
  [[nodiscard]] std::uint64_t instr() const { return guest_->instr(); }
  [[nodiscard]] const GuestContextStats& stats() const { return stats_; }
  [[nodiscard]] const MitigationPolicy& policy() const { return *policy_; }
  [[nodiscard]] const vm::GuestCounters& guest_counters() const {
    return guest_->counters();
  }
  [[nodiscard]] vm::GuestProgram& program() { return guest_->program(); }
  [[nodiscard]] VmId vm() const { return vm_; }
  [[nodiscard]] ReplicaIndex replica() const { return replica_; }
  [[nodiscard]] Machine& machine() { return *machine_; }
  /// Per-packet output hashes, for prefix comparison across replicas.
  [[nodiscard]] const std::vector<std::uint64_t>& output_hashes() const {
    return out_hashes_;
  }
  [[nodiscard]] double activity() const override { return activity_ema_; }

 private:
  // Execution engine.
  void schedule_slice();
  void on_slice_end(std::uint64_t n);
  void on_guest_exit();
  void beacon_tick();
  void process_io_ops();
  void inject_due_interrupts();
  void check_epoch(std::uint64_t exit_instr);
  bool should_stall() const;
  void enter_stall();
  void recheck_stall();

  // Guest-clock "now" in ns (virtual under StopWatch/Deterland,
  // machine-local real under baseline/TIFC) as of the last guest-caused
  // exit.
  [[nodiscard]] std::int64_t guest_clock_at_last_exit() const {
    return last_exit_clock_ns_;
  }

  // Device-model state for one pending inbound packet.
  struct NetSlot {
    net::Packet pkt;
    bool have_pkt{false};
    /// Proposals received so far, keyed by proposer machine.
    std::map<std::uint32_t, std::int64_t> proposals;
    std::optional<std::int64_t> delivery;  // guest-clock ns
    std::int64_t proposal_base{0};
  };
  struct DiskSlot {
    std::uint64_t request_id{0};
    std::int64_t delivery{0};   // guest-clock ns
    RealTime physical_done{};
    bool read{false};
    bool late_counted{false};
  };

  VmId vm_;
  ReplicaIndex replica_;
  NodeId vm_addr_;
  Machine* machine_;
  sim::Simulator* sim_;
  GuestContextConfig cfg_;
  ReplicaServices services_;

  /// Built before clock_ (clock mode is a policy capability).
  std::unique_ptr<MitigationPolicy> policy_;
  std::unique_ptr<vm::GuestVm> guest_;
  VirtualClock clock_;

  bool running_{false};
  bool halted_{false};
  bool stalled_{false};
  RealTime stall_began_{};
  std::uint64_t pending_slice_n_{0};
  /// Periodic timers each own one simulator arena slot for their lifetime
  /// (re-armed in place via Simulator::reschedule_after; the handles stay
  /// valid across re-arms, so halt() can still cancel them).
  std::optional<sim::EventId> slice_event_;
  std::optional<sim::EventId> beacon_event_;
  std::optional<sim::EventId> stall_event_;

  std::uint64_t last_exit_instr_{0};
  std::int64_t last_exit_clock_ns_{0};
  std::uint64_t next_periodic_exit_{0};
  std::int64_t next_timer_tick_ns_{0};
  std::uint64_t next_preempt_instr_{0};

  // Network device model.
  std::map<std::uint64_t, NetSlot> net_slots_;  // keyed by ingress copy_seq
  std::uint64_t next_net_inject_seq_{1};
  std::uint64_t baseline_arrival_seq_{1};
  std::map<std::uint64_t, PacketTrace> live_traces_;

  // Disk device model (FIFO: requests complete in order).
  std::deque<DiskSlot> disk_slots_;

  // Output path.
  std::uint64_t out_seq_{0};
  std::vector<std::uint64_t> out_hashes_;

  // Peer tracking (throttle).
  std::map<std::uint32_t, std::int64_t> peer_virt_ns_;  // by machine id

  // Epoch resync state.
  std::uint64_t epoch_index_{0};
  RealTime epoch_start_local_{};
  struct EpochReports {
    std::map<std::uint32_t, net::EpochReport> by_machine;
  };
  std::map<std::uint64_t, EpochReports> epoch_reports_;
  /// virt_k(I): this replica's virtual time at the end of epoch k (recorded
  /// when the epoch report is emitted; consumed by the rebase).
  std::map<std::uint64_t, std::int64_t> epoch_end_virt_;

  double activity_ema_{0.0};

  GuestContextStats stats_;
};

}  // namespace stopwatch::hypervisor
