// Shared scenario builders for the experiment harnesses (see DESIGN.md §4).
#pragma once

#include <cmath>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/contracts.hpp"
#include "core/cloud.hpp"
#include "experiment/scenario.hpp"
#include "hypervisor/guest_context.hpp"
#include "hypervisor/policy.hpp"
#include "leakage/estimators.hpp"
#include "stats/detection.hpp"
#include "stats/ecdf.hpp"
#include "stats/summary.hpp"
#include "workload/timing.hpp"

namespace stopwatch::bench {

/// Configuration of a Fig. 4-style timing-channel run: an attacker VM whose
/// deliveries are timed, optionally a file-serving victim VM with exactly
/// one replica coresident with one attacker replica, and Poisson background
/// broadcast traffic.
struct TimingScenarioConfig {
  /// Which mitigation backend runs the cloud. Replicated backends
  /// (StopWatch) get the 2r-1 machine overlap layout; unreplicated ones
  /// run attacker and victim coresident on one machine.
  hypervisor::PolicyKind policy{hypervisor::PolicyKind::kStopWatch};
  bool victim_present{true};
  int replica_count{3};
  double broadcast_rate_hz{80.0};
  Duration run_time{Duration::seconds(40)};
  std::uint64_t seed{1};
  /// Sec. IX collaborating attacker: extra host load injected on the first
  /// `marginalize_machines` attacker machines.
  double marginalize_load{0.0};
  int marginalize_machines{0};
  hypervisor::AggregationRule aggregation{
      hypervisor::AggregationRule::kMedian};
  /// For AggregationRule::kLeader: dictating machine (the victim-coresident
  /// machine is replica_count - 1 in this scenario's layout).
  std::uint32_t leader_machine{0};
  Duration delta_n{Duration::millis(10)};
  Duration delta_d{Duration::millis(30)};
  bool epoch_resync{false};
  std::uint64_t epoch_instr{200'000'000};
  double base_ips{1e9};
  double slope_min{0.90};
  double slope_max{1.10};
  /// Deterland virtual-time batch quantum (kDeterland only).
  Duration batch_quantum{Duration::millis(1)};
  /// TIFC egress pacing quantum (kTifcPacing only).
  Duration release_quantum{Duration::micros(500)};
};

struct TimingScenarioResult {
  /// The attacker's measurement series (guest-clock inter-delivery, ms).
  std::vector<double> inter_arrival_ms;
  std::uint64_t divergences{0};
  std::uint64_t deliveries{0};
  /// Per-packet proposal spread / median margin across the run (replica 0).
  std::vector<double> proposal_spread_ms;
  std::vector<double> median_margin_ms;
  std::vector<double> disk_margin_ms;
  /// |virt - real| of attacker replica 0 at the end (seconds).
  double clock_drift_s{0.0};
  bool deterministic{true};
};

/// Cloud config of a one-VM workload scenario on machines {0, 1, 2}: lazy
/// wiring plus an explicit activation set (Cloud::activate_sharded), the
/// same code path whether `sim_shards` is 1 or more, so the report is
/// byte-identical across the knob (the shard-identity test pins this).
inline core::CloudConfig workload_cloud_config(core::Policy policy,
                                               std::uint64_t seed,
                                               int sim_shards) {
  core::CloudConfig cfg;
  cfg.seed = seed;
  cfg.policy = policy;
  cfg.machine_count = 3;
  cfg.wiring = core::WiringMode::kLazy;
  cfg.sim_shards = sim_shards;
  return cfg;
}

inline TimingScenarioResult run_timing_scenario(
    const TimingScenarioConfig& tc) {
  core::CloudConfig cfg;
  cfg.seed = tc.seed;
  cfg.policy = hypervisor::PolicyConfig{tc.policy};
  const bool replicated = hypervisor::policy_replicated(tc.policy);
  cfg.replica_count = tc.replica_count;
  // Host-load model for the timing experiments: a bursting coresident
  // victim visibly perturbs the Dom0 packet path and the vCPU scheduler
  // (paper Sec. V-B testbed).
  cfg.machine_template.vmm_load_delay = Duration::millis(3);
  cfg.machine_template.contention_alpha = 0.8;
  cfg.machine_template.preempt_wait = Duration::millis(12);
  cfg.machine_template.preempt_interval_instr = 5'000'000;
  cfg.machine_template.base_ips = tc.base_ips;
  // StopWatch knobs only go under kind = kStopWatch: customizing them on a
  // non-replicated backend is a ContractViolation by design.
  if (replicated) {
    auto& sw = cfg.policy.stopwatch;
    sw.delta_n = tc.delta_n;
    sw.delta_d = tc.delta_d;
    sw.aggregation = tc.aggregation;
    sw.leader_machine = tc.leader_machine;
    sw.epoch_resync = tc.epoch_resync;
    sw.epoch_instr = tc.epoch_instr;
    sw.slope_min = tc.slope_min;
    sw.slope_max = tc.slope_max;
  }
  cfg.policy.deterland.batch_quantum = tc.batch_quantum;
  cfg.policy.deterland.delta_n = tc.delta_n;
  cfg.policy.deterland.delta_d = tc.delta_d;
  cfg.policy.tifc.release_quantum = tc.release_quantum;

  std::vector<int> attacker_machines;
  std::vector<int> victim_machines;
  if (replicated) {
    const int r = tc.replica_count;
    cfg.machine_count = 2 * r - 1;
    for (int i = 0; i < r; ++i) attacker_machines.push_back(i);
    // The victim's replica set overlaps the attacker's in exactly one
    // machine (vertex-sharing is allowed; edge-disjointness holds).
    for (int i = r - 1; i < 2 * r - 1; ++i) victim_machines.push_back(i);
  } else {
    cfg.machine_count = 1;
    attacker_machines = {0};
    victim_machines = {0};
  }

  core::Cloud cloud(cfg);
  const core::VmHandle attacker = cloud.add_vm(
      "attacker",
      [] { return std::make_unique<workload::AttackerProbeProgram>(); },
      attacker_machines);

  const NodeId sink =
      cloud.add_external_node("sink", [](const net::Packet&) {});
  core::VmHandle victim{};
  if (tc.victim_present) {
    workload::VictimServerProgram::Config vc;
    vc.sink = sink;
    vc.packets_per_unit = 3;
    vc.disk_probability = 0.12;
    vc.disk_bytes = 32 * 1024;
    victim = cloud.add_vm(
        "victim",
        [vc] { return std::make_unique<workload::VictimServerProgram>(vc); },
        victim_machines);
  }

  for (int m = 0; m < tc.marginalize_machines && m < cloud.machine_count();
       ++m) {
    cloud.machine(m).set_extra_load(tc.marginalize_load);
  }

  workload::BackgroundBroadcaster bcast(cloud, "bcast",
                                        cloud.vm_addr(attacker),
                                        tc.broadcast_rate_hz, tc.seed ^ 0x55);
  cloud.start();
  bcast.start();
  cloud.run_for(tc.run_time);
  cloud.halt_all();

  TimingScenarioResult result;
  auto& probe = static_cast<workload::AttackerProbeProgram&>(
      cloud.replica(attacker, 0).program());
  result.inter_arrival_ms = probe.inter_arrival_ms();
  result.divergences = cloud.total_divergences();
  const auto& s = cloud.replica(attacker, 0).stats();
  result.deliveries = s.net_deliveries;
  result.proposal_spread_ms = s.proposal_spread_ms;
  result.median_margin_ms = s.median_margin_ms;
  result.disk_margin_ms = tc.victim_present && replicated
                              ? cloud.replica(victim, 0).stats().disk_margin_ms
                              : s.disk_margin_ms;
  result.clock_drift_s =
      std::abs(cloud.replica(attacker, 0).virt_now().to_seconds() -
               cloud.simulator().now().to_seconds());
  result.deterministic = cloud.replicas_deterministic(attacker);
  return result;
}

/// The enum knob every detection-driven and leakage scenario exposes as
/// --param binning=...: "adaptive" (the default: equiprobable cells,
/// resolution concentrating where the mass is — the sub-millisecond burst
/// cluster, which is where host contention shows), "fixed" (equal-width
/// cells, the paper's layout), and "sturges" (equal-width with
/// ceil(log2 n) + 1 cells from the sample size). One declaration site so
/// the choice list cannot drift between scenarios.
inline experiment::ParamSpec binning_param() {
  return experiment::ParamSpec::enumeration(
      "binning", "observation cell layout", "adaptive",
      {"fixed", "adaptive", "sturges"});
}

/// The simulator-core count the cloud scenarios expose as
/// --param sim_shards=N (CloudConfig::sim_shards); one spec so the range
/// and wording cannot drift between scenarios.
inline experiment::ParamSpec sim_shards_param() {
  const experiment::ParamSpec spec{
      "sim_shards", "simulator cores (output is byte-identical across values)",
      1.0, 1.0};
  return spec.with_int_range(1, 64);
}

/// The enum knob policy-sweepable scenarios expose as --param policy=...;
/// choices come from hypervisor::policy_choices() so the list cannot drift
/// from the backends that actually exist. The default is "stopwatch":
/// running without the param reproduces the golden outputs byte-for-byte.
inline experiment::ParamSpec policy_param() {
  return experiment::ParamSpec::enumeration(
      "policy", "mitigation policy backend", "stopwatch",
      hypervisor::policy_choices());
}

/// Observations needed to distinguish two measured series, per confidence.
/// `binning` is a binning_param() choice, dispatched through the leakage
/// subsystem's mapping (one source of truth for the knob): fixed ->
/// 40 equal-width cells, adaptive -> 40 equiprobable-under-null cells,
/// sturges -> ceil(log2 n) + 1 equal-width cells from the *null* sample
/// size (the detector's reference distribution).
inline stats::ChiSquaredDetector make_detector(
    const std::vector<double>& null_samples,
    const std::vector<double>& victim_samples,
    const std::string& binning = "adaptive") {
  const stats::Ecdf null_ecdf(null_samples);
  const stats::Ecdf victim_ecdf(victim_samples);
  switch (leakage::binning_mode_from_choice(binning)) {
    case leakage::BinningMode::kFixed:
      return stats::ChiSquaredDetector::from_samples(
          null_ecdf, victim_ecdf, 40, stats::Binning::kEqualWidth);
    case leakage::BinningMode::kSturges:
      return stats::ChiSquaredDetector::from_samples(
          null_ecdf, victim_ecdf,
          leakage::sturges_bin_count(null_ecdf.size()),
          stats::Binning::kEqualWidth);
    case leakage::BinningMode::kAdaptive:
      break;
  }
  return stats::ChiSquaredDetector::from_samples(null_ecdf, victim_ecdf, 40,
                                                 stats::Binning::kEquiprobable);
}

}  // namespace stopwatch::bench
