// The placement-scale end-to-end scenario: its measured co-residence and
// utilization must agree with the analytic placement_utilization numbers,
// lazy wiring must only pay for driven VMs, and — like every deterministic
// scenario — its JSON must be byte-identical across reruns and --jobs
// settings.
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "experiment/registry.hpp"
#include "experiment/result.hpp"
#include "experiment/runner.hpp"

namespace stopwatch::experiment {
namespace {

TEST(PlacementE2e, SmokeRunCrossChecksAnalyticPlacement) {
  const Result r =
      ScenarioRegistry::instance().run("placement_e2e", /*seed=*/7,
                                       /*smoke=*/true);
  // n = 501 end to end, at the full Θ(n²) placement.
  EXPECT_EQ(r.metric("machines"), 501.0);
  EXPECT_EQ(r.metric("vms_placed"), 41750.0);
  EXPECT_EQ(r.metric("placement_valid"), 1.0);

  // Agreement with the analytic placement_utilization quantities: the
  // constructed improvement factor hits the Theorem 2 bound exactly, and
  // the sampled co-residence probability lands within the scenario's
  // stated 25% relative tolerance of the occupancy-exact value.
  EXPECT_EQ(r.metric("agrees_with_placement_utilization"), 1.0);
  EXPECT_EQ(r.metric("coresidence_within_tolerance"), 1.0);
  EXPECT_NEAR(r.metric("coresidence_measured"),
              r.metric("coresidence_analytic"),
              0.25 * r.metric("coresidence_analytic"));

  // And the same number placement_utilization itself reports at n = 501.
  const Result analytic = ScenarioRegistry::instance().run(
      "placement_utilization", /*seed=*/7, /*smoke=*/false);
  EXPECT_DOUBLE_EQ(r.metric("improvement_over_isolation"),
                   analytic.metric("improvement_over_isolation_at_largest_n"));

  // End-to-end pipeline health over the driven sample.
  EXPECT_GT(r.metric("replies_received"), 0.0);
  EXPECT_EQ(r.metric("replies_received"), r.metric("egress_packets_released"));
  EXPECT_EQ(r.metric("driven_replica_placement_errors"), 0.0);
  EXPECT_EQ(r.metric("nondeterministic_vms"), 0.0);
  EXPECT_EQ(r.metric("divergences"), 0.0);

  // Lazy wiring: only the driven sample materialized replicas.
  EXPECT_EQ(r.metric("lazy_materialized_only_driven"), 1.0);
  EXPECT_EQ(r.metric("materialized_vms"), r.metric("driven_vms"));
}

TEST(PlacementE2e, JobsZeroByteIdenticalToSequential) {
  // The satellite guarantee: running placement_e2e alongside siblings on
  // the thread pool (--jobs 0 = hardware threads) serializes to exactly
  // the bytes of the sequential run.
  const std::vector<std::string> names = {
      "fig2_protocol_trace", "placement_e2e", "placement_utilization"};
  std::vector<const Scenario*> selected;
  for (const std::string& name : names) {
    const Scenario* s = ScenarioRegistry::instance().find(name);
    ASSERT_NE(s, nullptr) << name;
    selected.push_back(s);
  }
  const auto report_of = [](const std::vector<ScenarioOutcome>& outcomes) {
    std::vector<Result> results;
    for (const ScenarioOutcome& o : outcomes) {
      if (o.ok) results.push_back(o.result);
    }
    return report_to_json(results);
  };
  const auto sequential =
      run_scenarios(selected, {}, /*seed=*/3, /*smoke=*/true, /*jobs=*/1);
  const auto parallel =
      run_scenarios(selected, {}, /*seed=*/3, /*smoke=*/true, /*jobs=*/0);
  for (const auto& o : sequential) EXPECT_TRUE(o.ok) << o.error;
  for (const auto& o : parallel) EXPECT_TRUE(o.ok) << o.error;
  EXPECT_EQ(report_of(sequential), report_of(parallel));
}

TEST(PlacementE2e, ShardCountsByteIdentical) {
  // The PR 7 tentpole guarantee end to end: the same cloud on four
  // simulator cores serializes to exactly the bytes of the sequential run
  // — only the stamped sim_shards parameter and the `observability` block
  // (whose counters are shard-count-dependent by design) may differ.
  const auto run_with = [](const std::string& shards) {
    Result r = ScenarioRegistry::instance().run(
        "placement_e2e", /*seed=*/11, /*smoke=*/true,
        {{"machines", "99"},
         {"driven_vms", "8"},
         {"run_time_s", "0.4"},
         {"pair_samples", "2000"},
         {"sim_shards", shards}});
    std::string json = r.to_json();
    const std::string block = ",\n  \"observability\"";
    const std::size_t block_at = json.find(block);
    EXPECT_NE(block_at, std::string::npos);
    if (block_at != std::string::npos) {
      json.erase(block_at);
      json += "\n}";
    }
    const std::string stamp = "\"sim_shards\": " + shards;
    const std::size_t at = json.find(stamp);
    EXPECT_NE(at, std::string::npos) << json.substr(0, 400);
    json.replace(at, stamp.size(), "\"sim_shards\": _");
    return json;
  };
  const std::string one = run_with("1");
  const std::string four = run_with("4");
  EXPECT_EQ(one, four);
}

TEST(PlacementE2e, AdaptiveWindowCutsBarriersThreefold) {
  // The perf claim behind the earliest-input-time windows, asserted on the
  // scenario's own observability counters: a fixed-width window would pay
  // one barrier per uniform window (sharded.window_ns, the network's
  // latency floor) over the whole simulated span; on the 4-core smoke run
  // the adaptive bound crosses idle stretches in one window and must cut
  // that count at least threefold.
  const Result r = ScenarioRegistry::instance().run(
      "placement_e2e", /*seed=*/11, /*smoke=*/true,
      {{"machines", "99"},
       {"driven_vms", "8"},
       {"run_time_s", "0.4"},
       {"pair_samples", "2000"},
       {"sim_shards", "4"}});
  const auto counter = [&r](const std::string& name) -> std::uint64_t {
    for (const auto& [n, v] : r.observability().counters) {
      if (n == name) return v;
    }
    ADD_FAILURE() << "missing counter " << name;
    return 0;
  };
  const std::uint64_t barriers = counter("sharded.barriers");
  const std::uint64_t window_ns = counter("sharded.window_ns");
  ASSERT_GT(window_ns, 0u);
  // 0.4 s of driven traffic plus the scenario's 500 ms drain.
  constexpr std::uint64_t span_ns = 900'000'000;
  EXPECT_GT(counter("sharded.adaptive_extensions"), 0u);
  ASSERT_GT(barriers, 0u);
  EXPECT_LE(3 * barriers, span_ns / window_ns)
      << "barriers=" << barriers << " fixed-width=" << span_ns / window_ns;
}

TEST(PlacementE2e, GreedyPlacementModeRunsArbitraryN) {
  // The enum knob switches the construction; greedy handles n not ≡ 3
  // (mod 6) where Theorem 2 does not apply.
  const Result r = ScenarioRegistry::instance().run(
      "placement_e2e", /*seed=*/5, /*smoke=*/true,
      {{"machines", "100"},
       {"placement", "greedy"},
       {"driven_vms", "4"},
       {"pair_samples", "5000"}});
  EXPECT_EQ(r.metric("machines"), 100.0);
  EXPECT_EQ(r.metric("placement_valid"), 1.0);
  EXPECT_GT(r.metric("vms_placed"), 100.0);  // well past one VM per machine
  EXPECT_EQ(r.metric("coresidence_within_tolerance"), 1.0);
  EXPECT_EQ(r.metric("divergences"), 0.0);
}

}  // namespace
}  // namespace stopwatch::experiment
