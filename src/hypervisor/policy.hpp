// The pluggable mitigation-policy layer: every decision that used to be a
// scattered `if (policy == kStopWatch)` branch in the hypervisor, topology,
// and core layers now lives behind one interface.
//
// A MitigationPolicy owns four groups of decisions:
//   * the guest-clock source (virtualized Eqn.-1 clock vs machine-local
//     real time);
//   * inbound delivery-time computation (median-of-r proposal agreement vs
//     immediate delivery vs artificial-time batch boundaries);
//   * whether replicas and the ingress/control multicast groups exist at
//     all (capability queries consumed by core::Cloud — the single home
//     of the "replica_count forced to 1" rule);
//   * egress release semantics (inline on the median copy, batched at a
//     quantum boundary, or per-flow paced), which is exactly what the
//     leakage subsystem's TimingTap observes.
//
// Backends (one translation unit each):
//   * BaselineXen — unmodified Xen: real clocks, immediate delivery, direct
//     output emission. The comparison baseline for every experiment.
//   * StopWatch — the paper's system: replicated VMs, virtual clocks,
//     median-of-r delivery proposals, tunneled outputs released on the
//     median copy. Behavior-preserving port of the former enum branches
//     (pinned byte-identical by tests/sim/test_golden_identity.cpp).
//   * Deterland — deterministic execution on an artificial (virtual) clock;
//     deliveries and outputs become visible only at batch boundaries of the
//     artificial time (arXiv:1504.07070).
//   * TifcPacing — real clocks, immediate delivery, but outputs drain
//     through per-flow paced egress queues on a fixed release quantum
//     (arXiv:1003.5303).
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/time.hpp"
#include "hypervisor/virtual_clock.hpp"

namespace stopwatch::hypervisor {

/// Which mitigation the cloud runs. Selects a MitigationPolicy backend via
/// make_policy().
enum class PolicyKind {
  kBaselineXen,  ///< unmodified Xen: real clocks, immediate delivery
  kStopWatch,    ///< the paper's system
  kDeterland,    ///< artificial-time batching (arXiv:1504.07070)
  kTifcPacing,   ///< paced egress queues (arXiv:1003.5303)
};

/// Backwards-compatible name: the pre-policy-API enum was
/// `hypervisor::Policy` with the first two enumerators.
using Policy = PolicyKind;

/// How the StopWatch VMMs combine proposed delivery times (ablation E11;
/// the paper argues only the median resists both a coresident victim and a
/// leader that copies its timing to all replicas).
enum class AggregationRule {
  kMedian,  ///< the paper's choice
  kMin,     ///< earliest proposal dictates
  kMax,     ///< latest proposal dictates
  kLeader,  ///< one fixed replica dictates (classic replication systems)
};

/// Knobs of the StopWatch backend (formerly spread over
/// GuestContextConfig). Customizing any of these under a non-replicated
/// policy is a ContractViolation — the knobs would be silently dead.
struct StopWatchPolicyConfig {
  /// Δn: virtual-time offset for network-interrupt proposals.
  Duration delta_n{Duration::millis(10)};
  /// Δd: virtual-time offset for disk/DMA completion delivery.
  Duration delta_d{Duration::millis(12)};
  AggregationRule aggregation{AggregationRule::kMedian};
  /// For AggregationRule::kLeader: machine id whose proposal dictates.
  std::uint32_t leader_machine{0};
  /// Maximum allowed virtual-time lead of the fastest replica over the
  /// second fastest; enforced by slowing the leader.
  Duration max_replica_gap{Duration::millis(3)};
  /// Real-time period of virtual-time sync beacons.
  Duration sync_interval{Duration::millis(2)};
  /// Epoch-based resynchronization of virt toward real time (Sec. IV-A).
  bool epoch_resync{false};
  std::uint64_t epoch_instr{200'000'000};  // the paper's I
  double slope_min{0.90};                  // ℓ
  double slope_max{1.10};                  // u

  bool operator==(const StopWatchPolicyConfig&) const = default;
};

/// Knobs of the Deterland backend: everything the guest can observe is
/// quantized up to a multiple of the artificial-time batch quantum.
struct DeterlandPolicyConfig {
  /// Artificial-time batch length. Deliveries land on the next boundary at
  /// or after guest-now + delta; egress releases on the next real-time
  /// boundary (the gateway projects the batch grid onto the wire).
  Duration batch_quantum{Duration::millis(1)};
  /// Minimum artificial-time delay before an inbound packet is visible.
  Duration delta_n{Duration::millis(10)};
  /// Minimum artificial-time delay before a disk completion is visible.
  Duration delta_d{Duration::millis(12)};

  bool operator==(const DeterlandPolicyConfig&) const = default;
};

/// Knobs of the TifcPacing backend: per-flow (per-VM lane) paced egress.
struct TifcPolicyConfig {
  /// Fixed release quantum: consecutive releases of one VM's flow are
  /// grid-aligned and at least this far apart.
  Duration release_quantum{Duration::micros(500)};

  bool operator==(const TifcPolicyConfig&) const = default;
};

/// Policy selection plus per-backend knobs. Implicitly constructible from a
/// PolicyKind so `cfg.policy = PolicyKind::kBaselineXen` keeps working at
/// every pre-redesign call site.
struct PolicyConfig {
  PolicyKind kind{PolicyKind::kStopWatch};
  StopWatchPolicyConfig stopwatch{};
  DeterlandPolicyConfig deterland{};
  TifcPolicyConfig tifc{};

  PolicyConfig() = default;
  // NOLINTNEXTLINE(google-explicit-constructor): intentional implicit
  // conversion — the enum is the common spelling at call sites.
  PolicyConfig(PolicyKind k) : kind(k) {}

  bool operator==(const PolicyConfig&) const = default;
};

/// Decision counters every backend keeps (observability; surfaced in the
/// Result JSON's `observability` block). Each counter ticks in the method
/// that makes the corresponding decision, whichever backend implements it.
struct PolicyStats {
  /// Inbound deliveries whose visible time was quantized/deferred away
  /// from the physical arrival (Deterland batch boundaries).
  std::uint64_t deliveries_quantized{0};
  /// egress_release_delay() calls — one per release-gate decision.
  std::uint64_t egress_releases{0};
  /// combine_proposals() calls — one per replica-agreement round.
  std::uint64_t replica_aggregations{0};
};

/// One mitigation backend. Stateless except where noted
/// (egress_release_delay); one instance per GuestContext and one per
/// core::Cloud, all built by make_policy() from the same PolicyConfig.
class MitigationPolicy {
 public:
  virtual ~MitigationPolicy() = default;

  /// Decision counters accumulated by this instance. Each instance is
  /// confined to one shard's core, so plain (non-atomic) counters are
  /// safe; aggregation across instances happens at scenario end.
  [[nodiscard]] const PolicyStats& stats() const { return stats_; }

  [[nodiscard]] virtual PolicyKind kind() const = 0;
  /// Stable lowercase identifier ("baseline", "stopwatch", "deterland",
  /// "tifc") — matches the --param policy=... choices.
  [[nodiscard]] virtual std::string_view name() const = 0;

  // --- Capabilities (consumed by core::Cloud) ---

  /// Whether guest VMs are replicated and the ingress/control multicast
  /// groups exist. Non-replicated policies force one replica per VM.
  [[nodiscard]] virtual bool replicated() const = 0;
  /// Whether guest outputs are tunneled to the egress node (and released
  /// there per egress_release_copies / egress_release_delay) instead of
  /// being emitted directly by the hosting machine.
  [[nodiscard]] virtual bool tunnels_output() const = 0;
  /// The guest-clock source.
  [[nodiscard]] virtual VirtualClock::Mode clock_mode() const = 0;

  /// The single home of the "replica_count forced to 1 under non-replicated
  /// policies" rule.
  [[nodiscard]] int effective_replicas(int requested) const {
    return replicated() ? requested : 1;
  }
  /// CloudConfig's replica/machine validation (messages name
  /// "CloudConfig.replica_count"). The odd-count requirement is
  /// unconditional (the knob must be a valid median width even where it is
  /// ignored); the at-least-three and distinct-machines bounds apply only
  /// when replicated.
  void validate_replicas(int replica_count, int machine_count) const;

  // --- Inbound delivery times (guest-clock ns) ---

  /// Replicated policies: this replica's proposed delivery time for an
  /// ingress copy, given the guest clock at the last guest-caused exit.
  [[nodiscard]] virtual std::int64_t propose_delivery(
      std::int64_t guest_now) const;
  /// Replicated policies: combine all replicas' proposals (keyed by
  /// proposer machine id) into the agreed delivery time.
  [[nodiscard]] virtual std::int64_t combine_proposals(
      const std::map<std::uint32_t, std::int64_t>& by_machine) const;
  /// Non-replicated policies: delivery time of a directly routed packet.
  /// `arrival_local` is Dom0-processing-done in machine-local real ns;
  /// `guest_now` is the guest clock at the last exit.
  [[nodiscard]] virtual std::int64_t direct_delivery(
      std::int64_t arrival_local, std::int64_t guest_now) const;

  // --- Disk/DMA completion ---

  /// Delivery time (guest-clock ns) of a disk completion trapped at
  /// guest-clock `guest_now` whose physical transfer finishes at
  /// machine-local real `done_local`.
  [[nodiscard]] virtual std::int64_t disk_delivery(
      std::int64_t guest_now, std::int64_t done_local) const = 0;
  /// Whether the disk deadline is deterministic (independent of the
  /// physical transfer), so a transfer unfinished at the deadline is a
  /// divergence to count (Sec. V footnote 4).
  [[nodiscard]] virtual bool deterministic_disk_deadline() const {
    return false;
  }

  // --- Replica pacing / epochs (no-ops unless replicated) ---

  /// Real-time period of virtual-time sync beacons (0 = no beacons).
  [[nodiscard]] virtual Duration sync_interval() const { return {}; }
  [[nodiscard]] virtual Duration max_replica_gap() const { return {}; }
  /// Epoch length in instructions (0 = epoch resync disabled).
  [[nodiscard]] virtual std::uint64_t epoch_instructions() const { return 0; }
  /// Admissible slope closest to the candidate (Sec. IV-A clamp).
  [[nodiscard]] virtual double epoch_slope(double candidate) const {
    return candidate;
  }

  // --- Egress release semantics (consumed by core::Cloud's egress gate) ---

  /// How many tunneled replica copies of an output must arrive before the
  /// egress releases it ((r+1)/2 under StopWatch: the median timing).
  [[nodiscard]] virtual int egress_release_copies(int wired_replicas) const;
  /// Additional real-time hold applied at the release gate. 0 = release
  /// inline at the gating copy's arrival (StopWatch/baseline). Stateful for
  /// paced policies: each call advances the VM's release lane.
  [[nodiscard]] virtual Duration egress_release_delay(std::uint32_t vm,
                                                      RealTime now);
  /// Quantum with which wire-visible release instants are discretized
  /// (0 = none). Capability consumed by scenarios that model the channel
  /// analytically (leakage_capacity).
  [[nodiscard]] virtual Duration release_quantum() const { return {}; }

 protected:
  /// Mutable: several decision methods are const (they compute times
  /// without changing policy behaviour) but still count as decisions.
  mutable PolicyStats stats_;
};

/// Builds the backend selected by `cfg.kind`, validating the per-backend
/// knobs. Throws ContractViolation — naming the policy — when StopWatch
/// replica knobs are customized under a non-replicated backend.
std::unique_ptr<MitigationPolicy> make_policy(const PolicyConfig& cfg);

/// Capability shortcut: whether `kind` replicates guest VMs (with default
/// knobs — replication is a property of the backend, not of its knobs).
[[nodiscard]] bool policy_replicated(PolicyKind kind);

/// The --param policy=... choice list, in enum order.
[[nodiscard]] const std::vector<std::string>& policy_choices();
/// Maps a choice ("baseline" | "stopwatch" | "deterland" | "tifc") to its
/// kind. Throws ContractViolation on an unknown choice.
[[nodiscard]] PolicyKind policy_kind_from_choice(const std::string& choice);
/// The stable lowercase name of `kind` (inverse of policy_kind_from_choice).
[[nodiscard]] std::string_view policy_choice_name(PolicyKind kind);

// Per-backend factories (one translation unit each).
std::unique_ptr<MitigationPolicy> make_baseline_xen_policy();
std::unique_ptr<MitigationPolicy> make_stopwatch_policy(
    const StopWatchPolicyConfig& cfg);
std::unique_ptr<MitigationPolicy> make_deterland_policy(
    const DeterlandPolicyConfig& cfg);
std::unique_ptr<MitigationPolicy> make_tifc_policy(const TifcPolicyConfig& cfg);

}  // namespace stopwatch::hypervisor
