// Sharded-kernel correctness: the N-shard run must be indistinguishable
// from the 1-shard reference — the parallel mirror of the timer-wheel
// differential test. A synthetic entity workload (self-rescheduling
// chains + cross-entity messages through the lanes) is replayed under
// different shard counts, thread counts, and lane drain orders; per-entity
// event logs must match entry for entry, and at every barrier the sharded
// logs must be an exact prefix of the sequential reference. Barrier counts
// are checked against what the inputs allow: a fixed-width window would
// pay one barrier per `kWindow` of simulated time, and the earliest-
// input-time bound must never do worse.
//
// Timestamp parity keeps the comparison tie-free by construction: chain
// ticks land on even nanoseconds, message deliveries on odd ones, and a
// message's arrival time encodes its source entity — so two messages can
// collide in time only when they share a source, where both orderings
// degenerate to the source's own (deterministic) send order.
#include "sim/sharded.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <numeric>
#include <string>
#include <vector>

#include "common/contracts.hpp"
#include "common/rng.hpp"

namespace stopwatch::sim {
namespace {

constexpr Duration kWindow = Duration::nanos(10'000);  // even: parity trick

struct DiffHarness {
  struct Entry {
    std::int64_t t{0};
    int kind{0};         // 0 = chain tick, 1 = message delivery
    std::uint64_t a{0};  // tick number / source entity
    std::uint64_t b{0};  // message id (per source)
    bool operator==(const Entry&) const = default;
  };

  DiffHarness(int shards, int entities, std::uint64_t seed,
              std::size_t threads = 0)
      : entities_(entities),
        sim_({shards, kWindow, threads}),
        logs_(static_cast<std::size_t>(entities)),
        ticks_(static_cast<std::size_t>(entities), 0),
        sent_(static_cast<std::size_t>(entities), 0) {
    const Rng root(seed);
    rngs_.reserve(static_cast<std::size_t>(entities));
    for (int e = 0; e < entities; ++e) {
      rngs_.push_back(root.fork(static_cast<std::uint64_t>(1000 + e)));
    }
    for (int e = 0; e < entities; ++e) {
      sim_.shard(shard_of(e)).schedule_at(RealTime::nanos(2 * (e + 1)),
                                          [this, e] { tick(e); });
    }
  }

  [[nodiscard]] int shard_of(int e) const { return e % sim_.shard_count(); }

  void tick(int e) {
    const auto eu = static_cast<std::size_t>(e);
    Simulator& core = sim_.shard(shard_of(e));
    logs_[eu].push_back({core.now().ns, 0, ticks_[eu]++, 0});
    Rng& rng = rngs_[eu];
    if (rng.chance(0.35)) {
      const int target = static_cast<int>(rng.uniform_int(0, entities_ - 1));
      const std::int64_t draw = rng.uniform_int(0, 499);
      // Beyond the lookahead (the pair's lead), odd, and with the
      // arrival's half-tick residue mod entities_ pinned to the sender —
      // so two sources can never collide on an arrival time, and
      // same-source collisions order by send sequence under both kernels.
      const std::int64_t lead = lead_ns(e, target);
      const std::int64_t half = (core.now().ns + lead) / 2;
      std::int64_t residue = (e - half) % entities_;
      if (residue < 0) residue += entities_;
      const std::int64_t at =
          core.now().ns + lead + 2 * (draw * entities_ + residue) + 1;
      const std::uint64_t msg = ++sent_[eu];
      auto deliver = [this, target, e, msg] {
        logs_[static_cast<std::size_t>(target)].push_back(
            {sim_.shard(shard_of(target)).now().ns, 1,
             static_cast<std::uint64_t>(e), msg});
      };
      const int src_shard = shard_of(e);
      const int dst_shard = shard_of(target);
      if (src_shard == dst_shard) {
        core.schedule_at(RealTime::nanos(at), std::move(deliver));
      } else {
        sim_.cross_schedule(src_shard, dst_shard, RealTime::nanos(at),
                            std::move(deliver));
      }
    }
    const Duration delay = Duration::nanos(2 * rng.uniform_int(1, 800));
    core.schedule_after(delay, [this, e] { tick(e); });
  }

  /// Minimum delay of a message from entity `src` to entity `dst`. Must
  /// be even (the parity trick) and depend only on the entities, so the
  /// 1-shard reference sends at the same times; kWindow unless a test
  /// declares slower pairs.
  std::function<std::int64_t(int src, int dst)> lead_ns =
      [](int, int) { return kWindow.ns; };

  int entities_;
  ShardedSimulator sim_;
  std::vector<std::vector<Entry>> logs_;
  std::vector<Rng> rngs_;
  std::vector<std::uint64_t> ticks_;
  std::vector<std::uint64_t> sent_;
};

void expect_logs_equal(const DiffHarness& a, const DiffHarness& b) {
  ASSERT_EQ(a.logs_.size(), b.logs_.size());
  for (std::size_t e = 0; e < a.logs_.size(); ++e) {
    EXPECT_EQ(a.logs_[e], b.logs_[e]) << "entity " << e;
  }
}

TEST(ShardedSimulator, SingleShardDelegatesToPlainCore) {
  ShardedSimulator sharded({1, kWindow, 1});
  Simulator plain;
  std::vector<int> got_sharded;
  std::vector<int> got_plain;
  for (int i = 0; i < 5; ++i) {
    sharded.shard(0).schedule_at(
        RealTime::nanos(100 * (5 - i)),
        [&got_sharded, i] { got_sharded.push_back(i); });
    plain.schedule_at(RealTime::nanos(100 * (5 - i)),
                      [&got_plain, i] { got_plain.push_back(i); });
  }
  sharded.run_until(RealTime::nanos(600));
  plain.run_until(RealTime::nanos(600));
  EXPECT_EQ(got_sharded, got_plain);
  EXPECT_EQ(sharded.now(), plain.now());
  EXPECT_EQ(sharded.events_executed(), plain.events_executed());
  EXPECT_EQ(sharded.barriers(), 0u);  // bypass: no windows at all
}

TEST(ShardedSimulator, IdleFastPathJumpsTheClock) {
  ShardedSimulator sharded({4, kWindow, 1});
  sharded.run_until(RealTime::seconds(10));
  EXPECT_EQ(sharded.now(), RealTime::seconds(10));
  for (int s = 0; s < 4; ++s) {
    EXPECT_EQ(sharded.shard(s).now(), RealTime::seconds(10));
  }
  EXPECT_EQ(sharded.barriers(), 0u);
}

TEST(ShardedSimulator, CrossScheduleOutsideWindowIsDirect) {
  ShardedSimulator sharded({2, kWindow, 1});
  std::vector<int> order;
  sharded.cross_schedule(0, 1, RealTime::nanos(200),
                         [&] { order.push_back(2); });
  sharded.shard(1).schedule_at(RealTime::nanos(100),
                               [&] { order.push_back(1); });
  sharded.run_until(RealTime::nanos(300));
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
}

TEST(ShardedSimulator, LookaheadViolationThrows) {
  ShardedSimulator sharded({2, kWindow, 1});
  // Local work makes shard 1 run its window (to t_min(shard 0) + window).
  sharded.shard(1).schedule_at(RealTime::nanos(50), [] {});
  sharded.shard(0).schedule_at(RealTime::nanos(10), [&sharded] {
    // Arrival before the window barrier: the destination shard may have
    // run past it already — must be rejected.
    sharded.cross_schedule(0, 1, RealTime::nanos(500), [] {});
  });
  EXPECT_THROW(sharded.run_until(RealTime::nanos(20'000)), ContractViolation);
}

TEST(ShardedSimulator, CrossShardDeliveryExecutesAtExactTime) {
  ShardedSimulator sharded({2, kWindow, 1});
  std::int64_t delivered_at = -1;
  sharded.shard(0).schedule_at(RealTime::nanos(100), [&sharded, &delivered_at] {
    sharded.cross_schedule(0, 1, RealTime::nanos(25'000),
                           [&sharded, &delivered_at] {
                             delivered_at = sharded.shard(1).now().ns;
                           });
  });
  sharded.run_until(RealTime::nanos(40'000));
  EXPECT_EQ(delivered_at, 25'000);
  EXPECT_EQ(sharded.cross_scheduled(), 1u);
  // Only one core ever has work in a window (shard 0 until the send,
  // then shard 1), so every window runs inline: no join, no barrier.
  EXPECT_EQ(sharded.barriers(), 0u);
}

TEST(ShardedSimulator, FinalWindowArrivalAtEndTimeStillExecutes) {
  // run_until(t) is inclusive: a cross-shard entry landing exactly at t
  // during the final window must run before run_until returns.
  ShardedSimulator sharded({2, kWindow, 1});
  bool delivered = false;
  sharded.shard(0).schedule_at(RealTime::nanos(100), [&sharded, &delivered] {
    sharded.cross_schedule(0, 1, RealTime::nanos(10'000),
                           [&delivered] { delivered = true; });
  });
  sharded.run_until(RealTime::nanos(10'000));
  EXPECT_TRUE(delivered);
  EXPECT_EQ(sharded.now(), RealTime::nanos(10'000));
}

TEST(ShardedSimulator, DifferentialRandomizedStress) {
  // N-shard == 1-shard on the same seed, for several seeds and shard
  // counts, with real worker threads. This dense workload keeps events
  // pending in every window, where a fixed-width window would pay exactly
  // one barrier per kWindow of the horizon; the earliest-input-time
  // bound may never need more, and must widen some windows past it.
  const RealTime horizon = RealTime::nanos(400'000);
  const std::uint64_t fixed_width_barriers =
      static_cast<std::uint64_t>(horizon.ns / kWindow.ns);
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    DiffHarness reference(1, 12, seed);
    reference.sim_.run_until(horizon);
    for (int shards : {2, 3, 4}) {
      DiffHarness sharded(shards, 12, seed);
      sharded.sim_.run_until(horizon);
      SCOPED_TRACE("seed=" + std::to_string(seed) +
                   " shards=" + std::to_string(shards));
      expect_logs_equal(reference, sharded);
      EXPECT_EQ(reference.sim_.events_executed(),
                sharded.sim_.events_executed());
      EXPECT_LE(sharded.sim_.barriers(), fixed_width_barriers);
      EXPECT_GT(sharded.sim_.adaptive_extensions(), 0u);
    }
  }
}

TEST(ShardedSimulator, AdaptiveWindowCrossesIdleGapsInOneBarrier) {
  // Ten bursts separated by 500 idle windows: a fixed-width window would
  // pay a barrier per window while events remain pending (4,502 here);
  // the earliest-input-time bound jumps each gap, so each burst costs at
  // most one barrier and every delivery still lands at its exact time.
  constexpr int kBursts = 10;
  ShardedSimulator sim({2, kWindow, 1});
  std::vector<std::int64_t> delivered;
  std::vector<std::int64_t> expected;
  for (int k = 0; k < kBursts; ++k) {
    const std::int64_t at = k * 500 * kWindow.ns + 2;
    expected.push_back(at + kWindow.ns + 1);
    sim.shard(0).schedule_at(RealTime::nanos(at), [&sim, &delivered, at] {
      sim.cross_schedule(0, 1, RealTime::nanos(at + kWindow.ns + 1),
                         [&sim, &delivered] {
                           delivered.push_back(sim.shard(1).now().ns);
                         });
    });
  }
  sim.run_until(RealTime::nanos(kBursts * 500 * kWindow.ns));
  EXPECT_EQ(delivered, expected);
  EXPECT_GT(sim.adaptive_extensions(), 0u);
  EXPECT_LE(sim.barriers(), static_cast<std::uint64_t>(kBursts));
}

TEST(ShardedSimulator, AdaptiveLookaheadViolationThrows) {
  // A send one nanosecond behind the realized barrier: shard 1 has its
  // own work, so it is granted a window reaching t_min(shard 2) +
  // lookahead, and shard 2's entry lands one nanosecond short of that
  // bound. The contract tracks the *realized* per-destination window
  // end, so the violation must be caught — and named by its pair — not
  // silently reordered. (Without local work shard 1 would skip the
  // window, keep its clock, and the late entry would deliver safely —
  // the contract only rejects what could actually misorder.)
  ShardedSimulator sharded({3, kWindow, 1});
  sharded.shard(1).schedule_at(RealTime::nanos(50), [] {});
  sharded.shard(1).schedule_at(RealTime::nanos(200), [] {});
  sharded.shard(2).schedule_at(RealTime::nanos(100), [&sharded] {
    sharded.cross_schedule(2, 1, RealTime::nanos(100 + kWindow.ns - 1),
                           [] {});
  });
  try {
    sharded.run_until(RealTime::nanos(20'000));
    ADD_FAILURE() << "expected a ContractViolation";
  } catch (const ContractViolation& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("from shard 2"), std::string::npos) << what;
    EXPECT_NE(what.find("to shard 1"), std::string::npos) << what;
  }
}

TEST(ShardedSimulator, BarrierCutsArePrefixesOfTheSequentialRun) {
  // "Identical event orderings at every barrier": at each barrier, every
  // entity's sharded log must be an exact prefix of the sequential
  // reference log, and the first un-run reference entry must lie beyond
  // the clock of the core that owns the entity (cores stop at their own
  // window ends, so there is no single barrier time to compare with).
  const RealTime horizon = RealTime::nanos(300'000);
  const std::uint64_t seed = 42;
  DiffHarness reference(1, 10, seed);
  reference.sim_.run_until(horizon);

  DiffHarness sharded(4, 10, seed);
  std::uint64_t checked_barriers = 0;
  sharded.sim_.set_barrier_hook([&](RealTime barrier) {
    ++checked_barriers;
    for (std::size_t e = 0; e < sharded.logs_.size(); ++e) {
      const auto& cur = sharded.logs_[e];
      const auto& ref = reference.logs_[e];
      ASSERT_LE(cur.size(), ref.size()) << "entity " << e;
      EXPECT_TRUE(std::equal(cur.begin(), cur.end(), ref.begin()))
          << "entity " << e << " diverged at barrier t=" << barrier.ns;
      if (cur.size() < ref.size()) {
        const int owner = sharded.shard_of(static_cast<int>(e));
        EXPECT_GT(ref[cur.size()].t, sharded.sim_.shard(owner).now().ns)
            << "entity " << e;
      }
    }
  });
  sharded.sim_.run_until(horizon);
  EXPECT_GT(checked_barriers, 10u);
  expect_logs_equal(reference, sharded);
}

TEST(ShardedSimulator, MergeOrderStableUnderPermutedDrainOrder) {
  // The merge must be a pure function of lane content: drain the lanes
  // in adversarial orders (a stand-in for arbitrary worker completion
  // order) and with different thread counts — identical logs required.
  const RealTime horizon = RealTime::nanos(300'000);
  const std::uint64_t seed = 7;
  const int shards = 4;
  DiffHarness baseline(shards, 12, seed, /*threads=*/1);
  baseline.sim_.run_until(horizon);

  std::vector<int> reversed(static_cast<std::size_t>(shards * shards));
  std::iota(reversed.begin(), reversed.end(), 0);
  std::reverse(reversed.begin(), reversed.end());
  DiffHarness permuted(shards, 12, seed, /*threads=*/1);
  permuted.sim_.set_lane_drain_order(reversed);
  permuted.sim_.run_until(horizon);
  expect_logs_equal(baseline, permuted);

  // An interleaved permutation plus real threads (worker completion
  // order is genuinely nondeterministic here).
  std::vector<int> interleaved;
  for (int i = 0; i < shards * shards; i += 2) interleaved.push_back(i);
  for (int i = 1; i < shards * shards; i += 2) interleaved.push_back(i);
  DiffHarness threaded(shards, 12, seed, /*threads=*/4);
  threaded.sim_.set_lane_drain_order(interleaved);
  threaded.sim_.run_until(horizon);
  expect_logs_equal(baseline, threaded);
}

TEST(ShardedSimulator, RepeatedRunsWithThreadsAreIdentical) {
  const RealTime horizon = RealTime::nanos(200'000);
  DiffHarness first(3, 9, 11, /*threads=*/3);
  first.sim_.run_until(horizon);
  for (int repeat = 0; repeat < 3; ++repeat) {
    DiffHarness again(3, 9, 11, /*threads=*/3);
    again.sim_.run_until(horizon);
    expect_logs_equal(first, again);
  }
}

TEST(ShardedSimulator, AggregateCountersSumOverCores) {
  DiffHarness h(4, 8, 3);
  h.sim_.run_until(RealTime::nanos(100'000));
  std::uint64_t executed = 0;
  std::size_t pending = 0;
  for (int s = 0; s < 4; ++s) {
    executed += h.sim_.shard(s).events_executed();
    pending += h.sim_.shard(s).pending();
  }
  EXPECT_EQ(h.sim_.events_executed(), executed);
  EXPECT_EQ(h.sim_.pending(), pending);  // lanes are empty between runs
  EXPECT_GT(h.sim_.cross_scheduled(), 0u);
}

TEST(ShardedSimulator, AsymmetricFloorsKeepBothCoresBusyEachWindow) {
  // The cloud's floor shape on two cores: shard 0 reaches shard 1 at a
  // short floor, shard 1 reaches shard 0 only at 15x that, and both run
  // dense chains. Run to the earliest-input-time bounds alone, the pair
  // leapfrogs — one core runs a long window while the other runs a
  // short one, then they swap — so the busier core of each window does
  // ~90% of all events and threads barely overlap. The span cap must
  // keep the per-window work even: summed over windows, the larger of
  // the two cores' event counts stays at most 60% of the total. The
  // count is deterministic (thread count cannot change it).
  constexpr std::int64_t kSlowLead = 15 * kWindow.ns;
  const auto lead = [](int src, int dst) {
    return src % 2 == 1 && dst % 2 == 0 ? kSlowLead : kWindow.ns;
  };
  const RealTime horizon = RealTime::nanos(4'000'000);
  DiffHarness reference(1, 12, 21);
  reference.lead_ns = lead;
  reference.sim_.run_until(horizon);

  DiffHarness sharded(2, 12, 21);
  sharded.lead_ns = lead;
  sharded.sim_.set_lookahead(0, 1, kWindow);
  sharded.sim_.set_lookahead(1, 0, Duration::nanos(kSlowLead));
  std::uint64_t prev0 = 0;
  std::uint64_t prev1 = 0;
  std::uint64_t busiest_sum = 0;
  sharded.sim_.set_barrier_hook([&](RealTime) {
    const std::uint64_t now0 = sharded.sim_.shard(0).events_executed();
    const std::uint64_t now1 = sharded.sim_.shard(1).events_executed();
    busiest_sum += std::max(now0 - prev0, now1 - prev1);
    prev0 = now0;
    prev1 = now1;
  });
  sharded.sim_.run_until(horizon);
  expect_logs_equal(reference, sharded);
  const std::uint64_t total = sharded.sim_.events_executed();
  EXPECT_EQ(total, reference.sim_.events_executed());
  EXPECT_GT(sharded.sim_.cross_scheduled(), 0u);
  EXPECT_LE(static_cast<double>(busiest_sum),
            0.6 * static_cast<double>(total))
      << "busiest-core events per window summed: " << busiest_sum
      << " of " << total;
}

TEST(ShardedSimulator, WorkerCoreViolationReachesCallerAndShutsDown) {
  // Shard 1 runs on a worker thread whenever there are two or more
  // threads. Its lookahead violation must surface from run_until on the
  // calling thread, naming the pair, and the simulator must still stop
  // and join its workers on destruction (a hang fails by timeout).
  for (const std::size_t threads : {std::size_t{0}, std::size_t{3}}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    ShardedSimulator sharded({3, kWindow, threads});
    // Shard 0 has work, so it is granted a window to t_min(shard 1) +
    // lookahead; shard 1's entry lands one nanosecond short of it.
    sharded.shard(0).schedule_at(RealTime::nanos(50), [] {});
    sharded.shard(0).schedule_at(RealTime::nanos(200), [] {});
    sharded.shard(1).schedule_at(RealTime::nanos(100), [&sharded] {
      sharded.cross_schedule(1, 0, RealTime::nanos(100 + kWindow.ns - 1),
                             [] {});
    });
    try {
      sharded.run_until(RealTime::nanos(20'000));
      ADD_FAILURE() << "expected a ContractViolation";
    } catch (const ContractViolation& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find("from shard 1"), std::string::npos) << what;
      EXPECT_NE(what.find("to shard 0"), std::string::npos) << what;
    }
    EXPECT_FALSE(sharded.running());
  }
}

TEST(ShardedSimulator, ConstructAndDestroyWithoutRunning) {
  for (const std::size_t threads :
       {std::size_t{0}, std::size_t{1}, std::size_t{2}, std::size_t{8}}) {
    ShardedSimulator sharded({4, kWindow, threads});
    EXPECT_EQ(sharded.shard_count(), 4);
    EXPECT_EQ(sharded.barriers(), 0u);
  }
}

TEST(ShardedSimulator, RepeatedRunUntilCallsMatchOneRun) {
  // One simulator driven to the horizon in uneven steps: the workers
  // persist across calls, and the result must equal one sequential run.
  const RealTime horizon = RealTime::nanos(300'000);
  DiffHarness reference(1, 12, 5);
  reference.sim_.run_until(horizon);
  DiffHarness stepped(3, 12, 5, /*threads=*/3);
  for (const std::int64_t at : {1, 7'000, 7'001, 64'000, 150'000, 299'999}) {
    stepped.sim_.run_until(RealTime::nanos(at));
    EXPECT_EQ(stepped.sim_.now(), RealTime::nanos(at));
  }
  stepped.sim_.run_until(horizon);
  stepped.sim_.run_until(horizon);  // a zero-length call is a no-op
  expect_logs_equal(reference, stepped);
  EXPECT_EQ(reference.sim_.events_executed(),
            stepped.sim_.events_executed());
}

TEST(ShardedSimulator, MoreShardsThanThreadsMatchesOneCore) {
  // Four cores on two threads: each thread owns two cores for good.
  const RealTime horizon = RealTime::nanos(300'000);
  DiffHarness reference(1, 12, 9);
  reference.sim_.run_until(horizon);
  DiffHarness sharded(4, 12, 9, /*threads=*/2);
  sharded.sim_.run_until(horizon);
  expect_logs_equal(reference, sharded);
  EXPECT_EQ(reference.sim_.events_executed(),
            sharded.sim_.events_executed());
  EXPECT_GT(sharded.sim_.barriers(), 0u);
}

TEST(ShardedSimulator, RejectsInvalidConfig) {
  EXPECT_THROW(ShardedSimulator({0, kWindow, 1}), ContractViolation);
  EXPECT_THROW(ShardedSimulator({2, Duration::nanos(0), 1}),
               ContractViolation);
  ShardedSimulator ok({2, kWindow, 1});
  EXPECT_THROW(ok.set_window(Duration::nanos(-5)), ContractViolation);
  EXPECT_THROW(static_cast<void>(ok.shard(2)), ContractViolation);
  EXPECT_THROW(ok.set_lane_drain_order({0, 1, 2}), ContractViolation);
}

}  // namespace
}  // namespace stopwatch::sim
