// Machine-to-shard assignment for shard-parallel simulation.
//
// A VM's replicas call synchronously into their hosting machines (clock
// reads, preemption draws, disk scheduling), and replicas of one VM
// exchange multicast traffic whose group state must stay single-threaded
// — so all machines hosting one VM must land on the same simulator core.
// Transitively, any two VMs sharing a machine must co-locate too. The
// plan therefore clusters the *active* VMs' machine triples into
// connected components (union-find over the shares-a-machine graph) and
// distributes whole components across shards with a deterministic greedy
// balance: components ordered by (size desc, smallest machine index asc),
// each assigned to the currently least-loaded shard (ties to the lowest
// shard index). Machines touched by no active VM get a round-robin
// fallback assignment; under the activation contract they never
// materialize mid-run, so the fallback only keeps shard_of_machine total.
#pragma once

#include <vector>

namespace stopwatch::topology {

class ShardPlan {
 public:
  /// Trivial plan: one shard owning everything.
  ShardPlan() = default;

  /// Builds a plan over `machine_count` machines for `shards` cores from
  /// the machine groups of the VMs that will be active. Deterministic: a
  /// pure function of the arguments.
  static ShardPlan build(int shards, int machine_count,
                         const std::vector<std::vector<int>>& machine_groups);

  [[nodiscard]] int shards() const { return shards_; }
  [[nodiscard]] int shard_of_machine(int machine) const;
  /// Shard that owns the egress gateway and the external-client nodes:
  /// the least-loaded shard after the component deal, ties to the
  /// *highest* index — non-zero whenever shards > 1, so egress traffic
  /// stops funneling through core 0. 0 for the trivial plan.
  [[nodiscard]] int egress_shard() const { return egress_shard_; }

 private:
  int shards_{1};
  std::vector<int> machine_shard_;  // -1 = unplanned (round-robin fallback)
  int egress_shard_{0};
};

}  // namespace stopwatch::topology
