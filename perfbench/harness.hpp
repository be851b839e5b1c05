// What one workload process measures, and the spanned calls it makes into
// core::Cloud. Every workload builds its clouds through these helpers so
// that each call is timed the same way and per-layer counts are summed over
// every cloud the workload builds, not just the last one.
#pragma once

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/cloud.hpp"
#include "spans.hpp"

namespace perfbench {

using namespace stopwatch;

/// Everything a workload process reports. `sim` holds simulated-time
/// quantities only, so it must repeat exactly for a given seed.
struct Report {
  std::uint64_t issued{0};
  std::uint64_t completed{0};
  /// Client-observed latency of each completed request, timed from the
  /// instant the request was due (sim ms).
  std::vector<double> latencies_ms;
  /// steady_clock reading when the first run_for began (-1: not yet).
  std::int64_t first_run_ns{-1};
  std::map<std::string, double> sim;
  std::vector<std::pair<std::string, bool>> checks;
  /// FNV-1a over the generated inputs (seeds, schedules, secrets).
  std::uint64_t inputs_digest{0xcbf29ce484222325ULL};
  int clouds{0};
  /// Set-up-only processes stop at the first run_for: they measure set-up
  /// time and nothing else.
  bool setup_only{false};

  void digest(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      inputs_digest ^= (v >> (8 * i)) & 0xFF;
      inputs_digest *= 0x100000001b3ULL;
    }
  }
  /// Records a check; a name checked again (once per cloud) must hold
  /// every time.
  void check(std::string name, bool ok) {
    for (auto& [seen, passed] : checks) {
      if (seen == name) {
        passed = passed && ok;
        return;
      }
    }
    checks.emplace_back(std::move(name), ok);
  }
  void add(const std::string& name, double v) { sim[name] += v; }
  void max(const std::string& name, double v) {
    double& slot = sim[name];
    if (v > slot) slot = v;
  }
};

/// Constructs the workload's next cloud; later spans carry its index.
inline std::unique_ptr<core::Cloud> make_cloud(Report& r,
                                               const core::CloudConfig& cfg) {
  recorder().set_cloud(r.clouds++);
  return spanned(SpanId::kCloudConstruct,
                 [&] { return std::make_unique<core::Cloud>(cfg); });
}

inline core::VmHandle add_vm(core::Cloud& cloud, std::string name,
                             const core::Cloud::ProgramFactory& factory,
                             const std::vector<int>& machines) {
  return spanned(SpanId::kAddVm, [&] {
    return cloud.add_vm(std::move(name), factory, machines);
  });
}

inline void activate(core::Cloud& cloud,
                     const std::vector<core::VmHandle>& vms) {
  spanned(SpanId::kActivate, [&] { cloud.activate_sharded(vms); });
}

inline void start(core::Cloud& cloud) {
  spanned(SpanId::kStart, [&] { cloud.start(); });
}

inline void run_for(Report& r, core::Cloud& cloud, Duration d) {
  if (r.first_run_ns < 0) {
    r.first_run_ns = monotonic_ns();
    if (r.setup_only) {
      std::printf("{\"first_run_ns\":%lld}\n",
                  static_cast<long long>(r.first_run_ns));
      std::fflush(stdout);
      std::_Exit(0);
    }
  }
  spanned(SpanId::kRunFor, [&] { cloud.run_for(d); });
}

/// Halts the cloud and folds its counters into the report: observability
/// counters are summed over clouds, gauges (high-water marks, footprints)
/// keep their maximum, and the hypervisor counters are summed over every
/// replica of every materialized VM in `vms`.
inline void harvest(Report& r, core::Cloud& cloud,
                    const std::vector<core::VmHandle>& vms) {
  spanned(SpanId::kHaltAll, [&] { cloud.halt_all(); });
  const obs::Snapshot snap =
      spanned(SpanId::kSnapshot, [&] { return cloud.observability(); });
  const ScopedSpan scope(SpanId::kAnalysis);
  for (const auto& [name, v] : snap.counters) {
    r.add(name, static_cast<double>(v));
  }
  for (const auto& [name, v] : snap.gauges) {
    r.max(name, static_cast<double>(v));
  }
  r.max("topology.network_nodes",
        static_cast<double>(cloud.network().node_count()));
  double stall_ms = 0.0;
  for (const core::VmHandle vm : vms) {
    if (!cloud.vm_materialized(vm)) continue;
    for (int i = 0; i < cloud.replicas_of(vm); ++i) {
      const hypervisor::GuestContextStats& s = cloud.replica(vm, i).stats();
      r.add("hypervisor.net_deliveries", static_cast<double>(s.net_deliveries));
      r.add("hypervisor.disk_deliveries",
            static_cast<double>(s.disk_deliveries));
      r.add("hypervisor.timer_injections",
            static_cast<double>(s.timer_injections));
      stall_ms += s.total_stall_time.to_millis();
    }
  }
  r.add("hypervisor.stall_ms", stall_ms);
}

inline void destroy(std::unique_ptr<core::Cloud>& cloud) {
  spanned(SpanId::kCloudDestroy, [&] { cloud.reset(); });
}

/// The workload parts (workloads.cpp). Each builds its inputs from `seed`.
void fleet_echo(Report& r, std::uint64_t seed, int sim_shards);
void nfs_ramp(Report& r, std::uint64_t seed);
void policy_sweep(Report& r, std::uint64_t seed);

/// The benchmark's workloads, each a sequence of parts in one process.
/// fleet: fleet_echo on one simulator core, then on two; the sharded run
/// must repeat the sequential one's simulated results exactly.
void fleet(Report& r, std::uint64_t seed);
/// nfs_policy: nfs_ramp, then policy_sweep.
void nfs_policy(Report& r, std::uint64_t seed);

}  // namespace perfbench
