#include "hypervisor/policy.hpp"

#include <gtest/gtest.h>

#include <map>
#include <string>

#include "common/contracts.hpp"
#include "common/time.hpp"

namespace stopwatch::hypervisor {
namespace {

// --- Capability matrix -----------------------------------------------------

TEST(Policy, CapabilityMatrix) {
  const auto baseline = make_policy(PolicyConfig{PolicyKind::kBaselineXen});
  const auto sw = make_policy(PolicyConfig{PolicyKind::kStopWatch});
  const auto det = make_policy(PolicyConfig{PolicyKind::kDeterland});
  const auto tifc = make_policy(PolicyConfig{PolicyKind::kTifcPacing});

  EXPECT_FALSE(baseline->replicated());
  EXPECT_TRUE(sw->replicated());
  EXPECT_FALSE(det->replicated());
  EXPECT_FALSE(tifc->replicated());

  EXPECT_FALSE(baseline->tunnels_output());
  EXPECT_TRUE(sw->tunnels_output());
  EXPECT_TRUE(det->tunnels_output());
  EXPECT_TRUE(tifc->tunnels_output());

  EXPECT_EQ(baseline->clock_mode(), VirtualClock::Mode::kRealPassthrough);
  EXPECT_EQ(sw->clock_mode(), VirtualClock::Mode::kVirtualized);
  EXPECT_EQ(det->clock_mode(), VirtualClock::Mode::kVirtualized);
  EXPECT_EQ(tifc->clock_mode(), VirtualClock::Mode::kRealPassthrough);
}

TEST(Policy, EffectiveReplicasCollapsesForNonReplicatedBackends) {
  for (const PolicyKind kind :
       {PolicyKind::kBaselineXen, PolicyKind::kDeterland,
        PolicyKind::kTifcPacing}) {
    const auto policy = make_policy(PolicyConfig{kind});
    EXPECT_EQ(policy->effective_replicas(3), 1) << policy->name();
    EXPECT_EQ(policy->effective_replicas(5), 1) << policy->name();
  }
  const auto sw = make_policy(PolicyConfig{PolicyKind::kStopWatch});
  EXPECT_EQ(sw->effective_replicas(3), 3);
  EXPECT_EQ(sw->effective_replicas(5), 5);
  EXPECT_FALSE(policy_replicated(PolicyKind::kDeterland));
  EXPECT_TRUE(policy_replicated(PolicyKind::kStopWatch));
}

TEST(Policy, ValidateReplicasOddUnconditionalDistinctOnlyIfReplicated) {
  const auto sw = make_policy(PolicyConfig{PolicyKind::kStopWatch});
  const auto baseline = make_policy(PolicyConfig{PolicyKind::kBaselineXen});
  EXPECT_THROW(sw->validate_replicas(0, 3), ContractViolation);
  EXPECT_THROW(sw->validate_replicas(4, 5), ContractViolation);
  // Distinct-machines bound binds only replicated backends.
  EXPECT_THROW(sw->validate_replicas(5, 3), ContractViolation);
  EXPECT_NO_THROW(baseline->validate_replicas(5, 3));
  EXPECT_THROW(baseline->validate_replicas(4, 5), ContractViolation);
  // A replicated median needs at least three replicas; one is fine only
  // where replication is off.
  EXPECT_THROW(sw->validate_replicas(1, 3), ContractViolation);
  EXPECT_NO_THROW(baseline->validate_replicas(1, 3));
}

// --- Choice mapping --------------------------------------------------------

TEST(Policy, ChoiceNamesRoundTrip) {
  ASSERT_EQ(policy_choices().size(), 4u);
  for (const std::string& choice : policy_choices()) {
    const PolicyKind kind = policy_kind_from_choice(choice);
    EXPECT_EQ(policy_choice_name(kind), choice);
    EXPECT_EQ(make_policy(PolicyConfig{kind})->name(), choice);
  }
  EXPECT_THROW((void)policy_kind_from_choice("xen"), ContractViolation);
}

// --- ContractViolation for dead knobs --------------------------------------

TEST(Policy, StopWatchKnobsUnderNonReplicatedBackendAreRejectedByName) {
  for (const PolicyKind kind :
       {PolicyKind::kBaselineXen, PolicyKind::kDeterland,
        PolicyKind::kTifcPacing}) {
    PolicyConfig cfg{kind};
    cfg.stopwatch.delta_n = Duration::millis(99);
    try {
      (void)make_policy(cfg);
      FAIL() << "customized StopWatch knobs accepted under "
             << std::string(policy_choice_name(kind));
    } catch (const ContractViolation& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find(std::string(policy_choice_name(kind))),
                std::string::npos)
          << what;
    }
  }
  // Default (untouched) StopWatch sub-config stays legal everywhere.
  EXPECT_NO_THROW((void)make_policy(PolicyConfig{PolicyKind::kBaselineXen}));
  // And under StopWatch itself the knobs are live, not dead.
  PolicyConfig sw{PolicyKind::kStopWatch};
  sw.stopwatch.delta_n = Duration::millis(99);
  EXPECT_NO_THROW((void)make_policy(sw));
}

// --- StopWatch delivery rules ----------------------------------------------

TEST(Policy, StopWatchProposalAndAggregationRules) {
  StopWatchPolicyConfig cfg;
  cfg.delta_n = Duration::millis(10);
  const auto sw = make_stopwatch_policy(cfg);
  EXPECT_EQ(sw->propose_delivery(5'000'000), 15'000'000);

  const std::map<std::uint32_t, std::int64_t> proposals = {
      {0, 30}, {1, 10}, {2, 20}};
  EXPECT_EQ(sw->combine_proposals(proposals), 20);  // median

  cfg.aggregation = AggregationRule::kMin;
  EXPECT_EQ(make_stopwatch_policy(cfg)->combine_proposals(proposals), 10);
  cfg.aggregation = AggregationRule::kMax;
  EXPECT_EQ(make_stopwatch_policy(cfg)->combine_proposals(proposals), 30);
  cfg.aggregation = AggregationRule::kLeader;
  cfg.leader_machine = 1;
  EXPECT_EQ(make_stopwatch_policy(cfg)->combine_proposals(proposals), 10);
}

TEST(Policy, StopWatchDiskDeadlineIsDeterministic) {
  StopWatchPolicyConfig cfg;
  cfg.delta_d = Duration::millis(12);
  const auto sw = make_stopwatch_policy(cfg);
  // Deadline depends on the trap-time guest clock, not the physical
  // completion.
  EXPECT_EQ(sw->disk_delivery(1'000'000, 999'000'000), 13'000'000);
  EXPECT_TRUE(sw->deterministic_disk_deadline());
  EXPECT_EQ(sw->egress_release_copies(3), 2);
  EXPECT_EQ(sw->egress_release_copies(5), 3);
  EXPECT_EQ(sw->egress_release_delay(0, RealTime::millis(7)).ns, 0);
}

// --- Deterland batch-boundary quantization ----------------------------------

TEST(Policy, DeterlandQuantizesDeliveriesUpToBatchBoundaries) {
  DeterlandPolicyConfig cfg;
  cfg.batch_quantum = Duration::millis(1);
  cfg.delta_n = Duration::millis(10);
  cfg.delta_d = Duration::millis(12);
  const auto det = make_deterland_policy(cfg);

  // guest_now + delta_n = 10.4 ms -> next boundary 11 ms.
  EXPECT_EQ(det->direct_delivery(/*arrival_local=*/0, /*guest_now=*/400'000),
            11'000'000);
  // Exactly on a boundary stays put.
  EXPECT_EQ(det->direct_delivery(0, 1'000'000), 11'000'000);
  EXPECT_EQ(det->direct_delivery(0, 0), 10'000'000);
  // Disk: guest_now + delta_d, quantized; completion time is irrelevant.
  EXPECT_EQ(det->disk_delivery(500'000, 999'000'000), 13'000'000);
  EXPECT_TRUE(det->deterministic_disk_deadline());
}

TEST(Policy, DeterlandHoldsEgressToTheNextBatchBoundary) {
  DeterlandPolicyConfig cfg;
  cfg.batch_quantum = Duration::millis(1);
  const auto det = make_deterland_policy(cfg);
  EXPECT_EQ(det->egress_release_delay(0, RealTime{{400'000}}).ns, 600'000);
  // On-boundary releases go out immediately (hold 0), keeping the wire
  // grid exactly the batch grid.
  EXPECT_EQ(det->egress_release_delay(0, RealTime{{2'000'000}}).ns, 0);
  EXPECT_EQ(det->release_quantum().ns, 1'000'000);
}

// --- TIFC paced-lane release order ------------------------------------------

TEST(Policy, TifcReleasesAreGridAlignedAndSpacedPerVm) {
  TifcPolicyConfig cfg;
  cfg.release_quantum = Duration::micros(500);
  const auto tifc = make_tifc_policy(cfg);
  const std::int64_t q = 500'000;

  // First release: aligned up to the grid.
  const Duration h1 = tifc->egress_release_delay(7, RealTime{{100'000}});
  EXPECT_EQ(100'000 + h1.ns, q);
  // Second release at the same instant: the lane advances a full quantum.
  const Duration h2 = tifc->egress_release_delay(7, RealTime{{100'000}});
  EXPECT_EQ(100'000 + h2.ns, 2 * q);
  // A later burst keeps spacing >= q from the lane's last release.
  const Duration h3 = tifc->egress_release_delay(7, RealTime{{150'000}});
  EXPECT_EQ(150'000 + h3.ns, 3 * q);
  // Once real time has moved past the lane, alignment dominates again.
  const Duration h4 = tifc->egress_release_delay(7, RealTime{{10'200'000}});
  EXPECT_EQ(10'200'000 + h4.ns, 10'500'000);

  // Independent lanes: a different VM is not delayed by VM 7's backlog.
  const Duration other = tifc->egress_release_delay(8, RealTime{{100'000}});
  EXPECT_EQ(100'000 + other.ns, q);

  EXPECT_EQ(tifc->release_quantum().ns, q);
  EXPECT_FALSE(tifc->deterministic_disk_deadline());
  // Real-clock passthrough disk completion: delivered when done.
  EXPECT_EQ(tifc->disk_delivery(1'000'000, 3'000'000), 3'000'000);
}

}  // namespace
}  // namespace stopwatch::hypervisor
