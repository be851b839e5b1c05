// The StopWatch cloud — the paper's primary contribution assembled.
//
// A Cloud owns the simulator, the network fabric, and the whole topology:
// the sharded machine table (topology::MachineTable), the ingress and
// egress nodes, and one VmEntry per guest VM. It is the one place that
// builds replicas (each replica's hypervisor::GuestContextConfig comes
// from CloudConfig::policy, the effective replica count and
// CloudConfig::record_packet_traces), machines and links. The kernel is
// always a sim::ShardedSimulator — one shard is the sequential case — and
// both the fabric and the machine table route through it, the table
// following the cloud's ShardPlan (trivial until activate_sharded).
//
// The mitigation backend is chosen by CloudConfig::policy
// (hypervisor::PolicyConfig — see src/hypervisor/policy.hpp). Under the
// StopWatch policy every guest VM added is transparently replicated
// `replica_count` times (at least three: the median of fewer is one
// replica's timing) across the requested machines and wired into:
//   * a per-VM ingress entry (its logical network address) that replicates
//     every inbound packet to all hosting VMMs via reliable multicast
//     (Sec. V);
//   * a per-VM control multicast group carrying delivery-time proposals,
//     virtual-time sync beacons, and epoch reports among the replica VMMs;
//   * the egress node, which forwards a guest output packet to its
//     destination upon receiving the *second* replica copy — the median
//     emission timing (Sec. VI) — and simultaneously verifies replica
//     output determinism via content hashes.
// That frame routing is placement-scale plumbing, not policy: the
// delivery-time agreement itself stays in hypervisor::GuestContext.
//
// Two wiring modes govern when a VM's expensive parts — its multicast
// groups, its replica GuestContexts, its machines' shards — come into
// existence:
//  * WiringMode::kEager (the default): everything is built inside add_vm
//    and booted by start(), with boot events batched per machine shard
//    into single simulator entries (Simulator::schedule_batch).
//  * WiringMode::kLazy: add_vm records only the placement (name, machine
//    triple, program factory, deterministic seed) and registers the VM's
//    ingress address node; the first frame that arrives there materializes
//    the wiring and boots the replicas at the median of their machines'
//    clocks — exactly the Sec. IV-A boot rule, applied on demand. This is
//    the mode placement-scale scenarios use to register Θ(n²) VM
//    placements over n = 501 machines at O(VMs) records and zero scheduled
//    events, paying for replicas only on the VMs actually driven.
//
// Under the baseline-Xen policy the same topology runs unreplicated
// guests on unmodified-Xen semantics (real clocks, immediate interrupt
// delivery): the comparison baseline for every experiment. The Deterland
// and TIFC policies reuse the unreplicated wiring with their own delivery
// and egress-release rules.
//
// Everything here is event-driven on sim::Simulator's slab/timer-wheel
// core: callbacks are sim::Task (48-byte inline storage — every scheduling
// lambda in this tree fits), and periodic mechanisms (vCPU slices, sync
// beacons, stall rechecks, multicast SPM/NAK timers, workload issue loops)
// re-arm their one arena slot via Simulator::reschedule_after.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/ids.hpp"
#include "common/rng.hpp"
#include "common/time.hpp"
#include "hypervisor/guest_context.hpp"
#include "hypervisor/machine.hpp"
#include "hypervisor/policy.hpp"
#include "net/multicast.hpp"
#include "net/network.hpp"
#include "obs/metrics.hpp"
#include "obs/timeseries.hpp"
#include "obs/trace.hpp"
#include "sim/sharded.hpp"
#include "sim/simulator.hpp"
#include "topology/machine_table.hpp"
#include "topology/shard_plan.hpp"
#include "vm/guest.hpp"

namespace stopwatch::core {

using hypervisor::Policy;
using hypervisor::PolicyConfig;
using hypervisor::PolicyKind;

/// When a VM's replicas, multicast groups, and machine shards are built.
enum class WiringMode {
  kEager,  ///< at add_vm (all tests/scenarios predating lazy wiring)
  kLazy,   ///< on the first frame reaching the VM's ingress address
};

/// Per-VM egress statistics.
struct EgressStats {
  std::uint64_t packets_released{0};
  /// Replica output hash mismatches observed at the egress (must stay 0:
  /// replicas are deterministic).
  std::uint64_t hash_mismatches{0};
};

struct CloudConfig {
  std::uint64_t seed{1};
  /// Mitigation-policy selection + per-policy knobs (implicitly
  /// constructible from a PolicyKind; see hypervisor/policy.hpp).
  PolicyConfig policy{};
  /// Replicas per guest VM under replicated policies (3 in the paper, 5
  /// for Sec. IX hardening; at least 3, odd). Ignored (forced to 1) under
  /// non-replicated policies.
  int replica_count{3};
  int machine_count{3};
  /// Machines per shard of the machine table.
  int shard_size{64};
  /// When VM replicas are wired: at add_vm (kEager) or on first ingress
  /// traffic (kLazy).
  WiringMode wiring{WiringMode::kEager};
  hypervisor::MachineConfig machine_template{};
  /// Keep each replica's per-packet protocol traces (the first 32 inbound
  /// packets; GuestContextStats::packet_traces).
  bool record_packet_traces{false};
  /// Intra-cloud links (machine <-> machine / ingress / egress).
  net::LinkModel cloud_link{Duration::micros(150), 0.15, 125e6, 0.0};
  /// External client links (the paper's campus-wireless client).
  net::LinkModel client_link{Duration::millis(3), 0.20, 2.5e6, 0.0};
  /// Machine clock offsets drawn uniformly from [0, spread).
  Duration clock_offset_spread{Duration::millis(40)};
  /// Simulator cores. 1 = the sequential kernel. >1 enables shard-parallel
  /// execution once activate_sharded() partitions the active VMs across
  /// cores; scenario output stays byte-identical to sim_shards=1.
  int sim_shards{1};
};

/// Opaque handle to a guest VM in the cloud.
struct VmHandle {
  std::uint32_t index{0};
};

class Cloud {
 public:
  using ProgramFactory = std::function<std::unique_ptr<vm::GuestProgram>()>;
  using PacketHandler = std::function<void(const net::Packet&)>;
  /// Observer of egress packet releases — the attacker-visible event. Fires
  /// at the instant the egress forwards a guest output (the median emission
  /// timing under StopWatch, the sole copy under baseline, the batch
  /// boundary under Deterland, the paced-queue slot under TifcPacing), for
  /// every VM.
  using EgressTap =
      std::function<void(std::uint32_t vm, RealTime when, const net::Packet&)>;

  explicit Cloud(CloudConfig cfg);

  Cloud(const Cloud&) = delete;
  Cloud& operator=(const Cloud&) = delete;

  /// Adds a guest VM replicated across `machine_indices` (first
  /// `replica_count` entries used; baseline uses only the first; validated:
  /// in range, pairwise distinct). The factory is invoked once per replica;
  /// all replicas receive the same deterministic seed. Under lazy wiring
  /// the factory runs at materialization instead of here.
  VmHandle add_vm(std::string name, const ProgramFactory& factory,
                  const std::vector<int>& machine_indices);

  /// Adds an external endpoint (client, collector...) reached over the
  /// client link model (one per-node link entry, not a per-VM fan-out).
  NodeId add_external_node(std::string name, PacketHandler on_packet);

  /// Sends a packet from an external node (src is filled in).
  void send_external(NodeId from, net::Packet pkt);

  /// Boots every wired VM, batched per machine shard: exchanges machine
  /// clocks and starts each replica with the median as the initial virtual
  /// time (Sec. IV-A). Lazily wired VMs boot at materialization instead.
  void start();

  /// Runs the simulation for `d` (of simulated real time).
  void run_for(Duration d);

  /// Stops all guests (no further slices are scheduled).
  void halt_all();

  /// Wires (and, once started, boots) a lazily wired VM now. Idempotent:
  /// the first call materializes, replays are no-ops — the property the
  /// lazy ingress path relies on.
  void materialize(VmHandle vm);

  /// Declares `driven` the activation set and partitions it across the
  /// configured sim_shards cores (whole shares-a-machine components per
  /// core — see topology::ShardPlan). Every machine (and every VM whose
  /// replicas it hosts) is then built on the core the plan assigns it, and
  /// the egress gateway and the external nodes move to the plan's egress
  /// shard. The listed VMs are wired up front, in index order, and the set
  /// is LOCKED: traffic reaching a VM outside it would have to materialize
  /// machines from a worker thread mid-window, so that path throws instead.
  /// Required before run_for when sim_shards > 1; valid (and the same code
  /// path, so outputs stay comparable) when sim_shards == 1. Requires
  /// WiringMode::kLazy and must run once, before start().
  void activate_sharded(const std::vector<VmHandle>& driven);

  /// Installs (or, with nullptr, removes) the egress release observer —
  /// the hook the leakage subsystem's TimingTap uses to record
  /// attacker-visible egress timings (see src/leakage/timing_tap.hpp). At
  /// most one tap is active; it sees releases of every VM. Across >1 shard
  /// the tap must stay single-writer: the policy tunnels output (the tap
  /// fires only on the egress core), or every wired VM lives on one shard.
  void set_egress_tap(EgressTap tap);
  [[nodiscard]] bool has_egress_tap() const {
    return static_cast<bool>(egress_tap_);
  }

  // --- Introspection ---

  /// The driver core — the core owning every external node and the egress
  /// gateway (the plan's egress shard: 0 until activate_sharded, always 0
  /// unsharded). Client-side drivers schedule here, which keeps
  /// external-node state single-core.
  [[nodiscard]] sim::Simulator& simulator() {
    return sharded_.shard(plan_.egress_shard());
  }
  /// The sharded kernel itself (shard_count() == 1 unless configured up).
  [[nodiscard]] sim::ShardedSimulator& sharded() { return sharded_; }
  /// Events executed across all cores.
  [[nodiscard]] std::uint64_t events_executed() const {
    return sharded_.events_executed();
  }
  [[nodiscard]] net::Network& network() { return net_; }
  /// The cloud itself: perfbench/ reaches the topology queries through
  /// this accessor.
  [[nodiscard]] Cloud& topology() { return *this; }
  [[nodiscard]] topology::MachineTable& machines() { return table_; }
  [[nodiscard]] hypervisor::Machine& machine(int idx);
  [[nodiscard]] int machine_count() const { return table_.machine_count(); }
  /// The machine-to-core assignment (trivial one-shard plan until
  /// activate_sharded installs a real one).
  [[nodiscard]] const topology::ShardPlan& shard_plan() const { return plan_; }
  [[nodiscard]] std::size_t vm_count() const { return vms_.size(); }
  [[nodiscard]] std::size_t materialized_vm_count() const {
    return materialized_vms_;
  }
  /// Materialized replica `replica` of `vm` (throws while lazily unwired).
  [[nodiscard]] hypervisor::GuestContext& replica(VmHandle vm, int replica);
  /// Materialized replicas of `vm` (0 while lazily unwired).
  [[nodiscard]] int replicas_of(VmHandle vm) const;
  [[nodiscard]] bool vm_materialized(VmHandle vm) const {
    return vm_entry(vm.index).wired;
  }
  [[nodiscard]] NodeId vm_addr(VmHandle vm) const {
    return vm_entry(vm.index).addr;
  }
  /// The machines hosting VM `vm` (by index), one per effective replica.
  [[nodiscard]] const std::vector<int>& vm_machines(std::uint32_t vm) const {
    return vm_entry(vm).machines;
  }
  [[nodiscard]] NodeId egress_node() const { return egress_node_; }
  [[nodiscard]] const EgressStats& egress_stats(VmHandle vm) const {
    return vm_entry(vm.index).egress_stats;
  }
  [[nodiscard]] const CloudConfig& config() const { return cfg_; }

  /// True if every pair of materialized replicas of `vm` agrees on the
  /// common prefix of emitted packet hashes (replica determinism, Sec. VI;
  /// vacuously true while unwired).
  [[nodiscard]] bool replicas_deterministic(VmHandle vm) const;

  /// Sum of divergence counters across all materialized replicas of all
  /// VMs plus egress hash mismatches.
  [[nodiscard]] std::uint64_t total_divergences() const;

  /// End-of-run metrics snapshot: kernel counters summed over cores,
  /// sharded-execution stats, per-class frame counts, policy decision
  /// counters, memory-accounting gauges (arena bytes, live/due/far
  /// high-water marks, peak cross-shard lane bytes), and the frame-size /
  /// merge-batch histograms. Intended for a Result's `observability`
  /// block — call once after run_for.
  [[nodiscard]] obs::Snapshot observability();

  /// Sim-time rollup series owned by the cloud, named for a Result's
  /// `timeseries` block. Currently one series: `egress.release_latency_ns`,
  /// fed one sample per egress release (first replica copy -> policy
  /// release instant). Values are pure functions of sim time, so the
  /// snapshots are byte-identical across sim_shards and --jobs.
  [[nodiscard]] std::vector<std::pair<std::string, obs::TimeSeriesSnapshot>>
  timeseries() const {
    return {{"egress.release_latency_ns", egress_series_.snapshot()}};
  }

 private:
  struct VmEntry {
    std::string name;
    VmId id{};
    NodeId addr{};
    std::vector<int> machines;
    ProgramFactory factory;
    std::uint64_t det_seed{0};
    bool wired{false};
    bool booted{false};
    std::vector<std::unique_ptr<hypervisor::GuestContext>> replicas;
    std::unique_ptr<net::MulticastGroup> control_group;
    std::unique_ptr<net::MulticastGroup> ingress_group;
    std::uint32_t ingress_group_id{0};
    std::uint64_t ingress_seq{0};
    // Egress reassembly: out_seq -> (copies seen, first hash, released).
    struct EgressSlot {
      int copies{0};
      std::uint64_t hash{0};
      bool released{false};
      /// Arrival time of the first replica copy — the base of the
      /// release-latency sample fed to the egress latency series.
      std::int64_t first_copy_ns{0};
    };
    std::map<std::uint64_t, EgressSlot> egress_slots;
    EgressStats egress_stats;
    /// Frame-lifecycle trace track (null when tracing is inactive). Events
    /// are written only from the core owning the VM's machines — one
    /// writer per track, which is what the recorder's lock-free append
    /// relies on.
    obs::TraceTrack* track{nullptr};
  };

  [[nodiscard]] const VmEntry& vm_entry(std::uint32_t vm) const;
  [[nodiscard]] int effective_replicas() const {
    return policy_->effective_replicas(cfg_.replica_count);
  }
  void wire(std::uint32_t vm_index);
  void boot(VmEntry& entry);
  /// The simulator core that owns `machine` (core 0 under the trivial
  /// plan).
  [[nodiscard]] sim::Simulator& core_of_machine(int machine) {
    return sharded_.shard(plan_.shard_of_machine(machine));
  }
  /// Throws unless an installed egress tap stays single-writer under the
  /// current plan: one core, a tunneling policy (the tap fires only on
  /// the egress core), or every wired VM on one shard (non-tunneled sends
  /// fire it only from that core).
  void expect_tap_single_writer(bool has_tap) const;
  void on_addr_frame(std::uint32_t vm_index, const net::Frame& frame);
  void on_ingress_packet(std::uint32_t vm_index, const net::Packet& pkt);
  void on_machine_frame(int machine_idx, const net::Frame& frame);
  void on_egress_frame(const net::Frame& frame);
  /// Forwards a released output of VM `vm` from the egress node to its
  /// destination, on the egress core (trace instant + egress tap first).
  void release_output(std::uint32_t vm, const net::Packet& pkt);

  CloudConfig cfg_;
  /// The topology-level instance (egress release gating, capability
  /// queries), built and validated before anything else.
  std::unique_ptr<hypervisor::MitigationPolicy> policy_;
  Rng root_rng_;
  sim::ShardedSimulator sharded_;
  net::Network net_;
  /// Trace session active at construction (null = tracing off). Captured
  /// once so every track this cloud creates shares one recorder.
  obs::TraceRecorder* trace_;
  topology::ShardPlan plan_;
  topology::MachineTable table_;
  NodeId egress_node_{};
  /// Egress-gate track (pid 0/tid 0): replica copies, holds, releases.
  /// Written only from the egress node's owner core (the egress shard).
  obs::TraceTrack* egress_track_{nullptr};
  EgressTap egress_tap_;
  std::vector<VmEntry> vms_;
  std::map<std::uint32_t, std::uint32_t> addr_to_vm_;  // addr node -> vm idx
  std::map<std::uint32_t, net::MulticastGroup*> groups_;  // by group id
  std::uint32_t next_group_id_{1};
  std::size_t materialized_vms_{0};
  /// Set by activate_sharded once the activation set is wired: any
  /// further wire() is a contract violation.
  bool activation_locked_{false};
  bool started_{false};
  /// Owns every named metric of this cloud; histograms are created in the
  /// constructor (single-threaded) and recorded into concurrently.
  obs::Registry registry_;
  /// Egress release-latency rollups, keyed by the release time. Single
  /// writer (the egress owner core), so the series is byte-identical
  /// across shard counts. 64-window budget; the 50 ms initial width
  /// doubles as long horizons coarsen it.
  obs::TimeSeries egress_series_{50 * 1000 * 1000, 64};
  /// Kernel execution-counter bridges, one per core, alive for the
  /// cloud's lifetime (the cores hold raw pointers). Only populated when
  /// a trace session is active at construction.
  std::vector<std::unique_ptr<obs::KernelCounterSink>> kernel_sinks_;
  /// Barrier-window trace track (kParallel) + previous barrier time for
  /// span construction. Null / unset when tracing is off.
  obs::TraceTrack* barrier_track_{nullptr};
  std::int64_t prev_barrier_ns_{-1};
  /// External endpoints registered so far; activate_sharded re-homes them
  /// (with the egress) onto the plan's egress shard.
  std::vector<NodeId> external_nodes_;
};

}  // namespace stopwatch::core
