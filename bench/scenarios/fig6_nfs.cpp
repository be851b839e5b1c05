// Scenario E5 — Paper Fig. 6: NFS server under an nhfsstone-like load.
// (a) average latency per operation vs offered load, baseline vs StopWatch;
// (b) average TCP packets per operation in both directions.
#include <algorithm>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "bench_util.hpp"
#include "core/cloud.hpp"
#include "experiment/registry.hpp"
#include "stats/summary.hpp"
#include "workload/nfs.hpp"

namespace stopwatch::bench {
namespace {

using experiment::ParamSpec;
using experiment::Result;
using experiment::ScenarioContext;

const std::vector<double> kRates = {25, 50, 100, 200, 400};

struct Row {
  double avg_latency_ms{0};
  double c2s_packets_per_op{0};
  double s2c_packets_per_op{0};
  std::uint64_t ops{0};
  obs::Snapshot obs;
};

Row run_nfs(core::Policy policy, double rate, double run_time_s,
            std::uint64_t seed, int sim_shards) {
  core::CloudConfig cfg = workload_cloud_config(policy, seed, sim_shards);
  // Server disk profile: write-cached / short-stroked (nhfsstone touches a
  // small working set), so the queue stays well under Δd at 400 ops/s.
  cfg.machine_template.disk_seek_min = Duration::micros(500);
  cfg.machine_template.disk_seek_max = Duration::millis(3);
  if (hypervisor::policy_replicated(policy)) {
    cfg.policy.stopwatch.delta_n = Duration::millis(7);
    cfg.policy.stopwatch.delta_d = Duration::millis(10);
  }
  // Campus-wireless client hop (the paper's T400 on 802.11): ~10 ms RTT.
  cfg.client_link.base_latency = Duration::millis(5);
  core::Cloud cloud(cfg);
  const core::VmHandle vm = cloud.add_vm(
      "nfs", [] { return std::make_unique<workload::NfsServerProgram>(); },
      {0, 1, 2});
  workload::NfsLoadGenerator gen(cloud, "nhfsstone", cloud.vm_addr(vm),
                                 /*processes=*/5, rate,
                                 workload::paper_nfs_mix(), seed ^ 0x9e37);
  cloud.activate_sharded({vm});
  cloud.start();
  gen.start();
  cloud.run_for(Duration::seconds(run_time_s));
  cloud.halt_all();

  Row row;
  row.ops = gen.ops_completed();
  if (!gen.latencies_ms().empty()) {
    row.avg_latency_ms = stats::summarize(gen.latencies_ms()).mean;
  }
  const auto& ts = gen.tcp_stats();
  const double ops = static_cast<double>(std::max<std::uint64_t>(1, row.ops));
  row.c2s_packets_per_op =
      static_cast<double>(ts.data_packets_sent + ts.ack_packets_sent +
                          ts.control_packets_sent) /
      ops;
  row.s2c_packets_per_op = static_cast<double>(ts.packets_received) / ops;
  row.obs = cloud.observability();
  return row;
}

Result run(const ScenarioContext& ctx) {
  const auto rate_count = static_cast<std::size_t>(ctx.param_int("rate_count"));
  const double run_time_s = ctx.param("run_time_s");
  const int sim_shards = ctx.param_int("sim_shards");
  // The mitigated arm is selectable (--param policy=...); the comparison
  // arm is always unmodified Xen. Metric names keep the historical
  // "stopwatch" labels for the mitigated arm regardless of the choice.
  const core::Policy mitigated =
      hypervisor::policy_kind_from_choice(ctx.param_choice("policy"));

  Result result("fig6_nfs");
  std::vector<double> rates;
  std::vector<double> base_lat;
  std::vector<double> sw_lat;
  std::vector<double> ratio;
  std::vector<double> c2s;
  std::vector<double> s2c;
  std::vector<double> ops_done;
  double max_ratio = 0.0;
  obs::Snapshot last_obs;
  for (std::size_t i = 0; i < rate_count; ++i) {
    const double rate = kRates[i];
    const Row base = run_nfs(core::Policy::kBaselineXen, rate, run_time_s,
                             ctx.seed() ^ 31, sim_shards);
    Row sw = run_nfs(mitigated, rate, run_time_s, ctx.seed() ^ 31, sim_shards);
    last_obs = std::move(sw.obs);
    const double r = sw.avg_latency_ms / base.avg_latency_ms;
    max_ratio = std::max(max_ratio, r);
    rates.push_back(rate);
    base_lat.push_back(base.avg_latency_ms);
    sw_lat.push_back(sw.avg_latency_ms);
    ratio.push_back(r);
    c2s.push_back(sw.c2s_packets_per_op);
    s2c.push_back(sw.s2c_packets_per_op);
    ops_done.push_back(static_cast<double>(sw.ops));
  }
  result.add_series("offered_load", "ops/s", rates);
  result.add_series("baseline_latency", "ms", base_lat);
  result.add_series("stopwatch_latency", "ms", sw_lat);
  result.add_series("latency_ratio", "x", ratio);
  result.add_series("client_to_server_packets_per_op", "packets", c2s);
  result.add_series("server_to_client_packets_per_op", "packets", s2c);
  result.add_series("ops_completed", "ops", ops_done);
  result.add_metric("max_latency_ratio", max_ratio, "x");
  result.add_metric("c2s_packets_per_op_first", c2s.front(), "packets");
  result.add_metric("c2s_packets_per_op_last", c2s.back(), "packets");
  result.set_note(
      "Paper shape check: latency increase stays below ~2.7x and "
      "client->server packets/op decrease with load (ACK coalescing across "
      "pipelined operations).");
  // Observability of the last (highest-load) mitigated run. Shard-count-
  // dependent counters live here, so cross-sim_shards comparisons strip
  // the block before diffing reports.
  result.set_observability(std::move(last_obs));
  return result;
}

[[maybe_unused]] const experiment::ScenarioRegistrar kRegistrar{{
    .name = "fig6_nfs",
    .description =
        "Fig. 6: NFS latency and packets/op vs offered load under an "
        "nhfsstone-like mix, baseline Xen vs StopWatch",
    .params = {ParamSpec{"run_time_s", "simulated seconds per load level",
                         15.0, 4.0}.with_range(0.01, 3600),
               ParamSpec{"rate_count",
                         "number of load levels from {25,50,100,200,400}",
                         5.0, 2.0}.with_int_range(1, 5),
               sim_shards_param(), policy_param()},
    .deterministic = true,
    .run = run,
}};

}  // namespace
}  // namespace stopwatch::bench
