// perfbench_driver: runs one workload once and prints one JSON line.
//
//   perfbench_driver --workload <name> --seed <n>
//                    [--trace-out <path> | --setup-only 1]
//
// <name> is a benchmark workload (fleet, nfs_policy) or one of their parts
// (fleet_echo, fleet_echo_sharded, nfs_ramp, policy_sweep).
//
// Without --trace-out nothing is recorded but the instant the first
// run_for begins. With it, every call into src/ is spanned, the spans are
// written to <path> at exit, and the in-kernel obs::Profiler is armed.
// With --setup-only 1 the process prints only that instant and exits there.
// Exit status: 0 when every correctness check passed, 1 when one failed,
// 2 on a usage error.
#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>
#include <vector>

#include "harness.hpp"
#include "obs/profiler.hpp"

namespace {

using namespace perfbench;

/// Nearest-rank quantile of sorted values.
double quantile(const std::vector<double>& sorted, double q) {
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(sorted.size())));
  return sorted[std::max<std::size_t>(rank, 1) - 1];
}

void print_number(double v) {
  if (std::isfinite(v)) {
    std::printf("%.17g", v);
  } else {
    std::printf("null");
  }
}

int usage() {
  std::fprintf(stderr,
               "usage: perfbench_driver --workload "
               "fleet|nfs_policy|fleet_echo|fleet_echo_sharded|nfs_ramp|"
               "policy_sweep "
               "--seed <n> [--trace-out <path> | --setup-only 1]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload;
  std::string trace_out;
  std::uint64_t seed = 0;
  bool have_seed = false;
  bool setup_only = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    if (flag == "--workload") {
      workload = argv[i + 1];
    } else if (flag == "--seed") {
      seed = std::strtoull(argv[i + 1], nullptr, 10);
      have_seed = true;
    } else if (flag == "--trace-out") {
      trace_out = argv[i + 1];
    } else if (flag == "--setup-only") {
      setup_only = std::string(argv[i + 1]) == "1";
    } else {
      return usage();
    }
  }
  if (argc % 2 != 1 || !have_seed) return usage();

  const bool traced = !trace_out.empty();
  obs::Profiler profiler;
  if (traced) {
    recorder().arm();
    profiler.arm();
    obs::set_active_profiler(&profiler);
  }

  Report r;
  r.setup_only = setup_only;
  try {
    const ScopedSpan root(SpanId::kWorkload);
    if (workload == "fleet") {
      fleet(r, seed);
    } else if (workload == "nfs_policy") {
      nfs_policy(r, seed);
    } else if (workload == "fleet_echo") {
      fleet_echo(r, seed, 1);
    } else if (workload == "fleet_echo_sharded") {
      fleet_echo(r, seed, 2);
    } else if (workload == "nfs_ramp") {
      nfs_ramp(r, seed);
    } else if (workload == "policy_sweep") {
      policy_sweep(r, seed);
    } else {
      return usage();
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench_driver: %s: %s\n", workload.c_str(),
                 e.what());
    return 1;
  }
  obs::set_active_profiler(nullptr);

  std::vector<double> sorted = r.latencies_ms;
  std::sort(sorted.begin(), sorted.end());
  const double p50 = sorted.empty() ? NAN : quantile(sorted, 0.50);
  const double p99 = sorted.empty() ? NAN : quantile(sorted, 0.99);
  const auto beyond_p99 = static_cast<std::uint64_t>(
      sorted.end() - std::upper_bound(sorted.begin(), sorted.end(), p99));
  bool finite = std::isfinite(p50) && std::isfinite(p99);
  for (const auto& [name, v] : r.sim) finite = finite && std::isfinite(v);
  r.check("sim_metrics_finite", finite);
  r.check("p99_has_ten_samples_beyond", beyond_p99 >= 10);
  r.check("completed_not_above_issued", r.completed <= r.issued);

  std::printf("{\"workload\":\"%s\",\"seed\":%" PRIu64
              ",\"issued\":%" PRIu64 ",\"completed\":%" PRIu64
              ",\"latency_samples\":%zu,\"beyond_p99\":%" PRIu64
              ",\"clouds\":%d,\"first_run_ns\":%" PRId64
              ",\"inputs_digest\":\"%016" PRIx64 "\",\"p50_ms\":",
              workload.c_str(), seed, r.issued, r.completed, sorted.size(),
              beyond_p99, r.clouds, r.first_run_ns, r.inputs_digest);
  print_number(p50);
  std::printf(",\"p99_ms\":");
  print_number(p99);
  std::printf(",\"checks\":{");
  bool all_ok = true;
  for (std::size_t i = 0; i < r.checks.size(); ++i) {
    std::printf("%s\"%s\":%s", i == 0 ? "" : ",", r.checks[i].first.c_str(),
                r.checks[i].second ? "true" : "false");
    all_ok = all_ok && r.checks[i].second;
  }
  std::printf("},\"sim\":{");
  for (auto it = r.sim.begin(); it != r.sim.end(); ++it) {
    std::printf("%s\"%s\":", it == r.sim.begin() ? "" : ",",
                it->first.c_str());
    print_number(it->second);
  }
  std::printf("}");
  if (traced) {
    const auto totals = recorder().totals();
    std::printf(",\"spans\":{");
    for (std::size_t i = 0; i < kSpanNames.size(); ++i) {
      std::printf("%s\"%s\":{\"calls\":%" PRIu64
                  ",\"total_s\":%.9f,\"self_s\":%.9f}",
                  i == 0 ? "" : ",", kSpanNames[i], totals[i].calls,
                  static_cast<double>(totals[i].total_ns) / 1e9,
                  static_cast<double>(totals[i].self_ns) / 1e9);
    }
    const obs::ProfilerSnapshot prof = profiler.snapshot();
    std::printf("},\"prof\":{");
    for (std::size_t i = 0; i < obs::kProfPhaseCount; ++i) {
      std::printf("%s\"%s\":%.9f", i == 0 ? "" : ",", obs::kProfPhases[i],
                  static_cast<double>(prof.phases[i].self_ns) / 1e9);
    }
    std::printf("},\"span_count\":%zu", recorder().size());
    if (!recorder().write(trace_out, workload)) {
      std::fprintf(stderr, "perfbench_driver: cannot write %s\n",
                   trace_out.c_str());
      all_ok = false;
    }
  }
  std::printf("}\n");
  return all_ok ? 0 : 1;
}
