#include "core/cloud.hpp"

#include <algorithm>
#include <array>
#include <string>
#include <utility>

#include "common/contracts.hpp"
#include "obs/profiler.hpp"

namespace stopwatch::core {

namespace {

/// Boundary validation of the whole configuration, before anything is
/// built: a bad replica/machine combination should explain itself here
/// instead of failing deep inside group or shard construction. Returns the
/// topology-level policy, whose construction validates the per-policy
/// knobs (including the "replica knobs on a non-replicated backend"
/// contract) and whose capability owns the replica/machine check.
std::unique_ptr<hypervisor::MitigationPolicy> validated_policy(
    const CloudConfig& cfg) {
  SW_EXPECTS_MSG(cfg.sim_shards >= 1,
                 "CloudConfig.sim_shards must be >= 1 (got " +
                     std::to_string(cfg.sim_shards) + ")");
  SW_EXPECTS_MSG(cfg.machine_count >= 1,
                 "CloudConfig.machine_count must be >= 1 (got " +
                     std::to_string(cfg.machine_count) + ")");
  auto policy = hypervisor::make_policy(cfg.policy);
  policy->validate_replicas(cfg.replica_count, cfg.machine_count);
  SW_EXPECTS_MSG(cfg.shard_size >= 1,
                 "CloudConfig.shard_size must be >= 1 (got " +
                     std::to_string(cfg.shard_size) + ")");
  SW_EXPECTS_MSG(cfg.clock_offset_spread.ns >= 0,
                 "CloudConfig.clock_offset_spread must be >= 0 (got " +
                     std::to_string(cfg.clock_offset_spread.ns) + " ns)");
  return policy;
}

sim::ShardedConfig sharded_config(const CloudConfig& cfg) {
  sim::ShardedConfig sc;
  sc.shards = cfg.sim_shards;
  return sc;
}

}  // namespace

Cloud::Cloud(CloudConfig cfg)
    : cfg_(cfg),
      policy_(validated_policy(cfg)),
      root_rng_(cfg.seed),
      sharded_(sharded_config(cfg)),
      net_(sharded_, root_rng_.fork(0xF00D)),
      trace_(obs::active_trace()),
      table_(sharded_, plan_, net_,
             topology::MachineTableConfig{cfg.machine_count, cfg.shard_size,
                                          cfg.seed, cfg.machine_template,
                                          cfg.clock_offset_spread},
             [this](int machine, const net::Frame& f) {
               on_machine_frame(machine, f);
             }) {
  net_.set_default_link(cfg_.cloud_link);
  // Eager mode reproduces the dense construction: machines (and their
  // network nodes) exist up front, then the egress node.
  if (cfg_.wiring == WiringMode::kEager) table_.materialize_all();
  egress_node_ = net_.add_node(
      "egress", [this](const net::Frame& f) { on_egress_frame(f); });
  if (trace_ != nullptr) {
    egress_track_ = trace_->track(0, 0, "egress", "release-gate");
  }
  // Histograms exist up front (worker threads record into them); counters
  // are copied in at observability() time.
  net_.set_bytes_histogram(registry_.histogram("net.frame_bytes"));
  sharded_.set_merge_histogram(registry_.histogram("sharded.merge_batch"));
  if (trace_ != nullptr) {
    // Execution-machinery tracks are inherently shard-dependent, so they
    // carry Category::kParallel and stay out of the default export.
    for (int s = 0; s < sharded_.shard_count(); ++s) {
      std::string tname = "core-";
      tname += std::to_string(s);
      obs::TraceTrack* track =
          trace_->track(900 + static_cast<std::uint32_t>(s), 0, "sim-kernel",
                        std::move(tname), obs::Category::kParallel);
      kernel_sinks_.push_back(std::make_unique<obs::KernelCounterSink>(track));
      sharded_.shard(s).set_trace_sink(kernel_sinks_.back().get());
    }
    if (sharded_.shard_count() > 1) {
      barrier_track_ = trace_->track(800, 0, "parallel", "barriers",
                                     obs::Category::kParallel);
      sharded_.set_barrier_hook([this](RealTime barrier_time) {
        if (prev_barrier_ns_ >= 0 && barrier_time.ns > prev_barrier_ns_) {
          barrier_track_->complete(prev_barrier_ns_,
                                   barrier_time.ns - prev_barrier_ns_,
                                   "window", "crossed",
                                   sharded_.cross_scheduled());
        }
        prev_barrier_ns_ = barrier_time.ns;
      });
    }
  }
}

VmHandle Cloud::add_vm(std::string name, const ProgramFactory& factory,
                       const std::vector<int>& machine_indices) {
  SW_EXPECTS(!started_);
  SW_EXPECTS(factory != nullptr);
  const int replicas = effective_replicas();
  SW_EXPECTS_MSG(static_cast<int>(machine_indices.size()) >= replicas,
                 "VM '" + name + "' needs " + std::to_string(replicas) +
                     " machine indices, got " +
                     std::to_string(machine_indices.size()));
  std::vector<int> machines(machine_indices.begin(),
                            machine_indices.begin() + replicas);
  // Validated before anything is recorded, so a rejected VM leaves no
  // entry behind (its index, and with it its seed, stays free).
  for (int m : machines) {
    SW_EXPECTS_MSG(m >= 0 && m < cfg_.machine_count,
                   "VM '" + name + "' machine index " + std::to_string(m) +
                       " out of range [0, " +
                       std::to_string(cfg_.machine_count) + ")");
  }
  // Replica placement constraint sanity: distinct machines.
  for (std::size_t i = 0; i < machines.size(); ++i) {
    for (std::size_t j = i + 1; j < machines.size(); ++j) {
      SW_EXPECTS_MSG(machines[i] != machines[j],
                     "VM '" + name + "' places two replicas on machine " +
                         std::to_string(machines[i]));
    }
  }

  const auto vm_index = static_cast<std::uint32_t>(vms_.size());
  VmEntry& entry = vms_.emplace_back();
  entry.name = std::move(name);
  entry.id = VmId{vm_index};
  entry.machines = std::move(machines);
  entry.factory = factory;
  entry.det_seed = SplitMix64(cfg_.seed ^ (0xABCDULL + vm_index)).next();
  // The VM's logical address doubles as its ingress entry point. This is
  // the only per-VM state a lazy registration pays for.
  entry.addr = net_.add_node(
      "vm-" + entry.name + "-addr",
      [this, vm_index](const net::Frame& f) { on_addr_frame(vm_index, f); });
  addr_to_vm_[entry.addr.value] = vm_index;

  if (cfg_.wiring == WiringMode::kEager) wire(vm_index);
  return VmHandle{vm_index};
}

NodeId Cloud::add_external_node(std::string name, PacketHandler on_packet) {
  SW_EXPECTS(on_packet != nullptr);
  const NodeId id = net_.add_node(
      std::move(name), [cb = std::move(on_packet)](const net::Frame& f) {
        if (const auto* gp = std::get_if<net::GuestPacketPayload>(&f.payload)) {
          cb(gp->pkt);
        }
      });
  // One node-scoped link entry covers this endpoint's traffic with every
  // VM ingress, machine, and the egress — no per-VM fan-out.
  net_.set_node_link(id, cfg_.client_link);
  external_nodes_.push_back(id);
  // Externals live on the driver core (the egress shard once a plan is
  // active): client sends, replies, and the egress release path all stay
  // off the worker cores' critical path.
  if (plan_.egress_shard() != 0) net_.set_node_owner(id, plan_.egress_shard());
  return id;
}

void Cloud::send_external(NodeId from, net::Packet pkt) {
  pkt.src = from;
  net::Frame f;
  f.src = from;
  f.dst = pkt.dst;
  f.size_bytes = pkt.size_bytes;
  f.payload = net::GuestPacketPayload{pkt};
  net_.send(std::move(f));
}

void Cloud::wire(std::uint32_t vm_index) {
  VmEntry& entry = vms_[vm_index];
  SW_ASSERT(!entry.wired);
  SW_EXPECTS_MSG(!activation_locked_,
                 "VM '" + entry.name +
                     "' is outside the sharded activation set: traffic "
                     "reached a VM that activate_sharded did not "
                     "pre-materialize, and wiring it now would build "
                     "machines from a worker thread mid-window");
  // The plan clusters a VM's machine triple into one component, so all
  // replicas — and the synchronous machine calls between them — live on a
  // single core.
  const int owner = plan_.shard_of_machine(entry.machines.front());
  for (int m : entry.machines) SW_ASSERT(plan_.shard_of_machine(m) == owner);
  const int replicas = effective_replicas();

  if (trace_ != nullptr && entry.track == nullptr) {
    // Track identity is the machine-table shard + VM index — both
    // invariant under sim_shards, unlike the owner core.
    const auto table_shard =
        static_cast<std::uint32_t>(entry.machines.front() / cfg_.shard_size);
    std::string pname = "machine-shard-";
    pname += std::to_string(table_shard);
    entry.track =
        trace_->track(1 + table_shard, vm_index, std::move(pname), entry.name);
  }

  // Control and ingress multicast groups (replicated policies only).
  if (policy_->replicated()) {
    entry.control_group =
        std::make_unique<net::MulticastGroup>(net_, next_group_id_++);
    entry.ingress_group =
        std::make_unique<net::MulticastGroup>(net_, next_group_id_++);
    entry.ingress_group_id = next_group_id_ - 1;
    groups_[next_group_id_ - 2] = entry.control_group.get();
    groups_[next_group_id_ - 1] = entry.ingress_group.get();

    // Ingress node is the (sole) sender in the ingress group; NAKs flowing
    // back to it are routed by on_addr_frame.
    entry.ingress_group->add_member(entry.addr,
                                    [](NodeId, const net::FramePayload&) {});
  }

  for (int r = 0; r < replicas; ++r) {
    const int m = entry.machines[static_cast<std::size_t>(r)];
    hypervisor::GuestContextConfig gc;
    gc.policy = cfg_.policy;
    gc.replica_count = replicas;
    gc.record_packet_traces = cfg_.record_packet_traces;

    sim::Simulator& core = core_of_machine(m);
    hypervisor::ReplicaServices services;
    services.machine_node = table_.machine_node(m);
    services.egress_node = egress_node_;
    services.send_frame = [this, vm_index, owner = &core](net::Frame f) {
      // Non-tunneling guests emit output directly (no egress gate), so the
      // attacker-visible instant is this send; tunneled outputs are
      // observed at their egress release instead. The timestamp must come
      // from the replica's own core: this lambda runs on its worker thread.
      if (egress_tap_) {
        if (const auto* gp =
                std::get_if<net::GuestPacketPayload>(&f.payload)) {
          egress_tap_(vm_index, owner->now(), gp->pkt);
        }
      }
      net_.send(std::move(f));
    };
    if (entry.control_group) {
      net::MulticastGroup* group = entry.control_group.get();
      const NodeId node = table_.machine_node(m);
      services.control_multicast = [group, node](net::FramePayload payload,
                                                 std::uint32_t bytes) {
        group->send(node, std::move(payload), bytes);
      };
    }

    auto ctx = std::make_unique<hypervisor::GuestContext>(
        entry.id, ReplicaIndex{static_cast<std::uint32_t>(r)}, entry.addr,
        table_.machine(m), core, gc, entry.factory(), entry.det_seed,
        std::move(services));

    if (entry.control_group) {
      hypervisor::GuestContext* raw = ctx.get();
      entry.control_group->add_member(
          table_.machine_node(m),
          [raw](NodeId, const net::FramePayload& p) {
            if (const auto* prop = std::get_if<net::Proposal>(&p)) {
              raw->on_proposal(*prop);
            } else if (const auto* b = std::get_if<net::SyncBeacon>(&p)) {
              raw->on_sync_beacon(*b);
            } else if (const auto* e = std::get_if<net::EpochReport>(&p)) {
              raw->on_epoch_report(*e);
            }
          });
    }
    if (entry.ingress_group) {
      hypervisor::GuestContext* raw = ctx.get();
      entry.ingress_group->add_member(
          table_.machine_node(m),
          [raw](NodeId, const net::FramePayload& p) {
            if (const auto* c = std::get_if<net::IngressCopy>(&p)) {
              raw->on_ingress_copy(*c);
            }
          });
    }
    entry.replicas.push_back(std::move(ctx));
  }
  entry.wired = true;
  ++materialized_vms_;
}

void Cloud::boot(VmEntry& entry) {
  SW_ASSERT(entry.wired && !entry.booted);
  // Exchange of boot-time machine clocks; start = median (Sec. IV-A).
  std::vector<std::int64_t> clocks;
  for (int m : entry.machines) {
    clocks.push_back(table_.machine(m).local_clock().ns);
  }
  std::sort(clocks.begin(), clocks.end());
  const VirtTime start{clocks[(clocks.size() - 1) / 2]};
  for (auto& replica : entry.replicas) {
    replica->start(start);
  }
  if (entry.track != nullptr) {
    entry.track->instant(core_of_machine(entry.machines.front()).now().ns,
                         "boot", "virt_start",
                         static_cast<std::uint64_t>(start.ns));
  }
  entry.booted = true;
}

void Cloud::start() {
  SW_EXPECTS(!started_);
  started_ = true;
  // One boot batch per (owner core, machine shard): a shard of wired VMs
  // costs one simulator arena slot instead of one per VM, each boot thunk
  // a 16-byte capture riding the batch vector's storage, and each batch
  // lands on the core that owns the booting replicas. Under the trivial
  // plan the key degenerates to (0, table shard) — the seed batching, byte
  // for byte.
  std::map<std::pair<int, int>, std::vector<sim::Task>> batches;
  for (std::uint32_t i = 0; i < vms_.size(); ++i) {
    if (!vms_[i].wired || vms_[i].booted) continue;
    const int machine = vms_[i].machines.front();
    batches[{plan_.shard_of_machine(machine), table_.shard_of(machine)}]
        .push_back([this, i] { boot(vms_[i]); });
  }
  for (auto& [key, batch] : batches) {
    sim::Simulator& core = sharded_.shard(key.first);
    core.schedule_batch(core.now(), std::move(batch));
  }
}

void Cloud::materialize(VmHandle vm) {
  if (vm_entry(vm.index).wired) return;  // idempotent: replays never re-wire
  wire(vm.index);
  if (started_) boot(vms_[vm.index]);
}

void Cloud::activate_sharded(const std::vector<VmHandle>& driven) {
  SW_EXPECTS_MSG(cfg_.wiring == WiringMode::kLazy,
                 "activate_sharded requires WiringMode::kLazy: eager mode "
                 "materializes every machine on one core in the constructor");
  SW_EXPECTS(!started_ && !activation_locked_);
  SW_EXPECTS_MSG(table_.materialized_machines() == 0,
                 "activate_sharded must run before any machine materializes");
  // The activation set in index order — deterministic regardless of the
  // order the caller discovered the VMs in.
  std::vector<std::uint32_t> active;
  active.reserve(driven.size());
  for (const VmHandle vm : driven) active.push_back(vm.index);
  std::sort(active.begin(), active.end());
  active.erase(std::unique(active.begin(), active.end()), active.end());
  std::vector<std::vector<int>> groups;
  groups.reserve(active.size());
  for (const std::uint32_t vm : active) groups.push_back(vm_machines(vm));
  plan_ = topology::ShardPlan::build(cfg_.sim_shards, cfg_.machine_count,
                                     groups);
  // The egress gateway and every external endpoint leave core 0 together:
  // their nodes deliver — and the gate's clock reads and hold releases,
  // plus all driver scheduling via simulator(), run — on the plan's egress
  // shard.
  const int driver = plan_.egress_shard();
  net_.set_node_owner(egress_node_, driver);
  for (const NodeId id : external_nodes_) net_.set_node_owner(id, driver);

  // Wire the activation set, then lock it.
  for (const std::uint32_t vm : active) {
    if (!vms_[vm].wired) wire(vm);
    // The VM's ingress address delivers on the shard hosting its replicas,
    // keeping the whole ingress -> replicate -> deliver path one-core.
    net_.set_node_owner(vms_[vm].addr,
                        plan_.shard_of_machine(vms_[vm].machines.front()));
  }
  activation_locked_ = true;
  expect_tap_single_writer(has_egress_tap());

  // Per-pair lookahead floors for the barrier windows. The cloud's
  // cross-shard traffic is hub-and-spoke around the egress shard: worker
  // shards reach it over the datacenter fabric (tunneled output to the
  // egress gate) or the client link (direct replies to externals), and it
  // reaches worker shards only through client requests on the client
  // link, whose latency floor is typically an order of magnitude above
  // the fabric's — that asymmetry is what lets worker shards run windows
  // far wider than the uniform floor. Worker shards never exchange
  // traffic with each other: VMs sharing a machine share its shard (the
  // plan union-finds co-resident VMs), so guest traffic can only cross
  // shards via an external endpoint. The per-entry contract still
  // validates every cross event against the granted bound, so a workload
  // that breaks this shape (say, a guest sending to a VM on another
  // worker shard) throws a ContractViolation naming the pair; such
  // workloads run with sim_shards=1.
  const int shards = sharded_.shard_count();
  const Duration to_egress = std::min(cfg_.cloud_link.min_latency(),
                                      cfg_.client_link.min_latency());
  const Duration from_egress = cfg_.client_link.min_latency();
  if (shards > 1 && to_egress.ns > 0 && from_egress.ns > 0) {
    for (int s = 0; s < shards; ++s) {
      for (int d = 0; d < shards; ++d) {
        if (s == d) continue;
        if (d == driver) {
          sharded_.set_lookahead(s, d, to_egress);
        } else if (s == driver) {
          sharded_.set_lookahead(s, d, from_egress);
        } else {
          sharded_.set_lookahead_unreachable(s, d);
        }
      }
    }
  }
}

void Cloud::expect_tap_single_writer(bool has_tap) const {
  if (!has_tap || sharded_.shard_count() == 1 || policy_->tunnels_output()) {
    return;
  }
  int owner = -1;
  for (const auto& vm : vms_) {
    if (!vm.wired) continue;
    const int o = plan_.shard_of_machine(vm.machines.front());
    SW_EXPECTS_MSG(owner == -1 || o == owner,
                   "egress tap is not single-writer under this sharding: the "
                   "policy does not tunnel output, so replica sends fire the "
                   "tap from every shard hosting an active VM");
    owner = o;
  }
}

void Cloud::set_egress_tap(EgressTap tap) {
  expect_tap_single_writer(tap != nullptr);
  egress_tap_ = std::move(tap);
}

void Cloud::run_for(Duration d) {
  OBS_PROF_SCOPE("cloud.run");
  SW_EXPECTS(started_);
  if (sharded_.shard_count() > 1) {
    SW_EXPECTS_MSG(
        plan_.shards() == sharded_.shard_count(),
        "sim_shards > 1 requires activate_sharded() before run_for");
    // Conservative lookahead: every cross-shard frame takes at least the
    // network's minimum-latency floor — the uniform floor for pairs
    // without a declared one.
    const Duration window = net_.min_latency_floor();
    SW_EXPECTS_MSG(window.ns > 0,
                   "shard-parallel run needs a positive lookahead window "
                   "(a zero-latency link defeats conservative windowing)");
    sharded_.set_window(window);
  }
  sharded_.run_until(sharded_.now() + d);
}

void Cloud::halt_all() {
  for (auto& vm : vms_) {
    for (auto& r : vm.replicas) r->halt();
  }
}

hypervisor::Machine& Cloud::machine(int idx) {
  SW_EXPECTS(idx >= 0 && idx < machine_count());
  return table_.machine(idx);
}

const Cloud::VmEntry& Cloud::vm_entry(std::uint32_t vm) const {
  SW_EXPECTS(vm < vms_.size());
  return vms_[vm];
}

hypervisor::GuestContext& Cloud::replica(VmHandle vm, int replica) {
  const VmEntry& entry = vm_entry(vm.index);
  SW_EXPECTS_MSG(entry.wired,
                 "VM '" + entry.name +
                     "' is not materialized yet (lazy wiring: no traffic has "
                     "reached it)");
  SW_EXPECTS(replica >= 0 && replica < static_cast<int>(entry.replicas.size()));
  return *entry.replicas[static_cast<std::size_t>(replica)];
}

int Cloud::replicas_of(VmHandle vm) const {
  return static_cast<int>(vm_entry(vm.index).replicas.size());
}

bool Cloud::replicas_deterministic(VmHandle vm) const {
  const VmEntry& entry = vm_entry(vm.index);
  for (std::size_t i = 1; i < entry.replicas.size(); ++i) {
    const auto& a = entry.replicas[0]->output_hashes();
    const auto& b = entry.replicas[i]->output_hashes();
    const std::size_t n = std::min(a.size(), b.size());
    for (std::size_t k = 0; k < n; ++k) {
      if (a[k] != b[k]) return false;
    }
  }
  return true;
}

std::uint64_t Cloud::total_divergences() const {
  std::uint64_t total = 0;
  for (const auto& vm : vms_) {
    for (const auto& r : vm.replicas) {
      const auto& s = r->stats();
      total += s.divergence_median_passed + s.divergence_disk_late +
               s.divergence_epoch_missing;
    }
    total += vm.egress_stats.hash_mismatches;
  }
  return total;
}

void Cloud::on_addr_frame(std::uint32_t vm_index, const net::Frame& frame) {
  // Lazy wiring: the first frame reaching a VM's ingress address
  // materializes its replicas (pre-start frames wire too — materialize()
  // defers the boot to start() — so laziness never drops traffic an eager
  // cloud would deliver). Replays find the entry wired and fall straight
  // through to delivery.
  if (!vms_[vm_index].wired && cfg_.wiring == WiringMode::kLazy) {
    materialize(VmHandle{vm_index});
  }
  VmEntry& entry = vms_[vm_index];
  if (entry.ingress_group && frame.rm_group == entry.ingress_group_id) {
    // NAKs of the ingress stream flow back to the (sender) ingress node.
    entry.ingress_group->on_frame(entry.addr, frame);
    return;
  }
  if (const auto* gp = std::get_if<net::GuestPacketPayload>(&frame.payload)) {
    on_ingress_packet(vm_index, gp->pkt);
  }
}

void Cloud::on_ingress_packet(std::uint32_t vm_index, const net::Packet& pkt) {
  VmEntry& entry = vms_[vm_index];
  SW_ASSERT(entry.wired);  // on_addr_frame materialized lazy entries
  if (entry.track != nullptr) {
    entry.track->instant(core_of_machine(entry.machines.front()).now().ns,
                         "ingress", "bytes", pkt.size_bytes);
  }
  if (entry.ingress_group) {
    net::IngressCopy copy;
    copy.vm = entry.id;
    copy.copy_seq = ++entry.ingress_seq;
    copy.pkt = pkt;
    entry.ingress_group->send(entry.addr, copy,
                              pkt.size_bytes + net::kHeaderBytes);
  } else {
    // Unreplicated: forward to the (single) hosting machine.
    net::Frame f;
    f.src = entry.addr;
    f.dst = table_.machine_node(entry.machines[0]);
    f.size_bytes = pkt.size_bytes;
    f.payload = net::GuestPacketPayload{pkt};
    net_.send(std::move(f));
  }
}

void Cloud::on_machine_frame(int machine_idx, const net::Frame& frame) {
  // Reliable-multicast frames route to their group.
  if (frame.rm_group != 0) {
    const auto it = groups_.find(frame.rm_group);
    SW_ASSERT(it != groups_.end());
    it->second->on_frame(table_.machine_node(machine_idx), frame);
    return;
  }
  // Baseline direct guest packet: find the addressed VM on this machine.
  if (const auto* gp = std::get_if<net::GuestPacketPayload>(&frame.payload)) {
    const auto it = addr_to_vm_.find(gp->pkt.dst.value);
    if (it == addr_to_vm_.end()) return;
    VmEntry& entry = vms_[it->second];
    for (std::size_t r = 0; r < entry.replicas.size(); ++r) {
      if (entry.machines[r] == machine_idx) {
        entry.replicas[r]->on_direct_packet(gp->pkt);
        return;
      }
    }
  }
}

void Cloud::on_egress_frame(const net::Frame& frame) {
  const auto* out = std::get_if<net::TunneledOutput>(&frame.payload);
  if (out == nullptr) return;
  SW_ASSERT(out->vm.value < vms_.size());
  VmEntry& entry = vms_[out->vm.value];
  SW_ASSERT(entry.wired);  // only running replicas tunnel output
  // The egress node's owner core: every gate clock read and hold release
  // runs here.
  sim::Simulator& core = simulator();
  auto& slot = entry.egress_slots[out->out_seq];
  if (slot.copies == 0) {
    slot.hash = out->content_hash;
    slot.first_copy_ns = core.now().ns;
  } else if (slot.hash != out->content_hash) {
    ++entry.egress_stats.hash_mismatches;
  }
  ++slot.copies;
  if (egress_track_ != nullptr) {
    egress_track_->instant(core.now().ns, "replica_copy", "vm", out->vm.value);
  }

  // Gate on the policy's copy count ((r+1)/2 under StopWatch: the median
  // emission timing; the sole copy elsewhere), then release after the
  // policy's hold (0 = inline; Deterland holds to the next batch boundary,
  // TifcPacing to the VM flow's next paced-queue slot).
  const int release_at =
      policy_->egress_release_copies(static_cast<int>(entry.replicas.size()));
  if (!slot.released && slot.copies >= release_at) {
    OBS_PROF_SCOPE("policy.release");
    slot.released = true;
    ++entry.egress_stats.packets_released;
    const Duration hold =
        policy_->egress_release_delay(out->vm.value, core.now());
    // Sample at gating time for both the inline and the held path: the
    // release instant is already decided here, so the rollup stays a pure
    // function of sim time (byte-identical across shard counts).
    const std::int64_t released_at =
        core.now().ns + std::max<std::int64_t>(hold.ns, 0);
    egress_series_.record(
        released_at,
        static_cast<std::uint64_t>(released_at - slot.first_copy_ns));
    if (hold.ns <= 0) {
      release_output(out->vm.value, out->pkt);
    } else {
      if (egress_track_ != nullptr) {
        // The hold is the attacker-relevant quantity: the span runs from
        // the gating copy's arrival to the policy's release instant.
        egress_track_->complete(core.now().ns, hold.ns, "egress_hold", "vm",
                                out->vm.value);
      }
      const std::uint32_t vm_index = out->vm.value;
      core.schedule_after(hold, [this, vm_index, pkt = out->pkt] {
        release_output(vm_index, pkt);
      });
    }
  }
  if (slot.copies >= static_cast<int>(entry.replicas.size())) {
    entry.egress_slots.erase(out->out_seq);
  }
}

void Cloud::release_output(std::uint32_t vm, const net::Packet& pkt) {
  const RealTime now = simulator().now();
  if (egress_track_ != nullptr) {
    egress_track_->instant(now.ns, "release", "vm", vm);
  }
  if (egress_tap_) egress_tap_(vm, now, pkt);
  net::Frame f;
  f.src = egress_node_;
  f.dst = pkt.dst;
  f.size_bytes = pkt.size_bytes;
  f.payload = net::GuestPacketPayload{pkt};
  net_.send(std::move(f));
}

obs::Snapshot Cloud::observability() {
  // Names of the FramePayload alternatives, in variant-index order.
  static constexpr std::array<const char*, net::Network::kFrameClasses>
      kClassNames = {"guest_packet", "ingress_copy",    "proposal",
                     "sync_beacon",  "epoch_report",    "tunneled_output",
                     "mcast_nak",    "mcast_spm"};

  sim::KernelStats kernel{};
  std::uint64_t arena_bytes = 0;
  for (int s = 0; s < sharded_.shard_count(); ++s) {
    const sim::KernelStats& ks = sharded_.shard(s).kernel_stats();
    kernel.scheduled += ks.scheduled;
    kernel.cancelled += ks.cancelled;
    kernel.rescheduled += ks.rescheduled;
    kernel.heap_fallbacks += ks.heap_fallbacks;
    kernel.due_sorted_pops += ks.due_sorted_pops;
    kernel.due_fallback_pushes += ks.due_fallback_pushes;
    kernel.placed_due += ks.placed_due;
    kernel.placed_wheel += ks.placed_wheel;
    kernel.placed_far += ks.placed_far;
    kernel.arena_chunks += ks.arena_chunks;
    kernel.max_live += ks.max_live;
    kernel.max_due += ks.max_due;
    kernel.max_far += ks.max_far;
    arena_bytes += sharded_.shard(s).arena_bytes();
  }
  registry_.set_counter("sim.events_scheduled", kernel.scheduled);
  registry_.set_counter("sim.events_cancelled", kernel.cancelled);
  registry_.set_counter("sim.events_rescheduled", kernel.rescheduled);
  registry_.set_counter("sim.events_executed", sharded_.events_executed());
  registry_.set_counter("sim.heap_fallbacks", kernel.heap_fallbacks);
  registry_.set_counter("sim.due_sorted_pops", kernel.due_sorted_pops);
  registry_.set_counter("sim.due_fallback_pushes", kernel.due_fallback_pushes);
  registry_.set_counter("sim.placed_due", kernel.placed_due);
  registry_.set_counter("sim.placed_wheel", kernel.placed_wheel);
  registry_.set_counter("sim.placed_far", kernel.placed_far);
  registry_.set_counter("sim.arena_chunks", kernel.arena_chunks);

  // Memory-accounting gauges: deterministic quantities only (wall-clock
  // and RSS measurements belong in the --profile output, never here —
  // this snapshot participates in byte-identity comparisons).
  registry_.set_gauge("mem.arena_bytes", arena_bytes);
  registry_.set_gauge("mem.live_events_highwater", kernel.max_live);
  registry_.set_gauge("mem.due_highwater", kernel.max_due);
  registry_.set_gauge("mem.far_highwater", kernel.max_far);
  registry_.set_gauge("mem.lane_bytes_highwater",
                      sharded_.lane_bytes_highwater());

  registry_.set_counter("sharded.shards",
                        static_cast<std::uint64_t>(sharded_.shard_count()));
  registry_.set_counter("sharded.barriers", sharded_.barriers());
  registry_.set_counter("sharded.cross_scheduled", sharded_.cross_scheduled());
  registry_.set_counter("sharded.max_merge_batch", sharded_.max_merge_batch());
  registry_.set_counter("sharded.window_ns",
                        static_cast<std::uint64_t>(sharded_.window().ns));
  registry_.set_counter("sharded.adaptive_extensions",
                        sharded_.adaptive_extensions());

  for (std::size_t c = 0; c < net::Network::kFrameClasses; ++c) {
    registry_.set_counter(std::string("net.frames_sent.") + kClassNames[c],
                          net_.frames_sent_of_class(c));
  }
  registry_.set_counter("net.frames_dropped", net_.frames_dropped());

  // The topology-level instance gates egress releases; each replica's
  // instance makes the delivery/aggregation decisions for that replica.
  hypervisor::PolicyStats policy = policy_->stats();
  for (const auto& vm : vms_) {
    for (const auto& r : vm.replicas) {
      const hypervisor::PolicyStats& s = r->policy().stats();
      policy.deliveries_quantized += s.deliveries_quantized;
      policy.egress_releases += s.egress_releases;
      policy.replica_aggregations += s.replica_aggregations;
    }
  }
  registry_.set_counter("policy.deliveries_quantized",
                        policy.deliveries_quantized);
  registry_.set_counter("policy.egress_releases", policy.egress_releases);
  registry_.set_counter("policy.replica_aggregations",
                        policy.replica_aggregations);

  registry_.set_counter("topology.vms", static_cast<std::uint64_t>(vm_count()));
  registry_.set_counter("topology.materialized_vms",
                        static_cast<std::uint64_t>(materialized_vms_));
  registry_.set_counter("topology.divergences", total_divergences());

  return registry_.snapshot();
}

}  // namespace stopwatch::core
