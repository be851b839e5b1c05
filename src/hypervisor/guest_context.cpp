#include "hypervisor/guest_context.hpp"

#include <algorithm>
#include <climits>
#include <utility>

#include "common/contracts.hpp"

namespace stopwatch::hypervisor {

namespace {
/// Guest-caused VM exits occur at least every this many instructions.
constexpr std::uint64_t kExitIntervalInstr = 100'000;
/// PIT period (250 Hz in the paper's guests).
constexpr Duration kTimerPeriod = Duration::micros(4000);
/// Initial virtual-clock slope (ns of virtual time per instruction).
constexpr double kInitialSlope = 1.0;
}  // namespace

GuestContext::GuestContext(VmId vm, ReplicaIndex replica, NodeId vm_addr,
                           Machine& machine, sim::Simulator& sim,
                           GuestContextConfig cfg,
                           std::unique_ptr<vm::GuestProgram> program,
                           std::uint64_t det_seed, ReplicaServices services)
    : vm_(vm),
      replica_(replica),
      vm_addr_(vm_addr),
      machine_(&machine),
      sim_(&sim),
      cfg_(cfg),
      services_(std::move(services)),
      policy_(make_policy(cfg.policy)),
      clock_(policy_->clock_mode(), [m = machine_] { return m->local_clock(); }) {
  SW_EXPECTS(cfg_.replica_count >= 1);
  SW_EXPECTS(services_.send_frame != nullptr);
  if (policy_->replicated()) {
    SW_EXPECTS_MSG(cfg_.replica_count >= 3,
                   "GuestContextConfig.replica_count must be >= 3 under a "
                   "replicated policy: a median of fewer votes is one "
                   "replica's timing");
    SW_EXPECTS(services_.control_multicast != nullptr);
  }
  guest_ = std::make_unique<vm::GuestVm>(
      vm, vm_addr, std::move(program), det_seed,
      [this] { return clock_.now(guest_->instr()); });
  machine_->register_load_source(this);
}

void GuestContext::start(VirtTime start) {
  SW_EXPECTS(!running_);
  running_ = true;
  clock_.initialize(start, kInitialSlope);
  guest_->boot();

  last_exit_instr_ = 0;
  last_exit_clock_ns_ = clock_.now(0).ns;
  next_periodic_exit_ = kExitIntervalInstr;
  next_timer_tick_ns_ = last_exit_clock_ns_ + kTimerPeriod.ns;
  epoch_start_local_ = machine_->local_clock();

  // Launch the beacon loop used for fastest-replica throttling. The loop
  // owns one arena slot for its whole life: each tick re-arms the same
  // event via reschedule_after instead of scheduling a fresh one.
  if (policy_->replicated()) {
    beacon_event_ = sim_->schedule_after(policy_->sync_interval(),
                                         [this] { beacon_tick(); });
  }

  schedule_slice();
}

void GuestContext::beacon_tick() {
  if (halted_) return;
  net::SyncBeacon b;
  b.vm = vm_;
  b.machine = machine_->id();
  b.virt = VirtTime{last_exit_clock_ns_};
  b.instr = guest_->instr();
  services_.control_multicast(b, 64);
  sim_->reschedule_after(*beacon_event_, policy_->sync_interval());
}

void GuestContext::halt() {
  halted_ = true;
  if (slice_event_) {
    sim_->cancel(*slice_event_);
    slice_event_.reset();
  }
}

VirtTime GuestContext::virt_now() const {
  return clock_.now(guest_->instr());
}

void GuestContext::schedule_slice() {
  if (halted_ || stalled_) return;
  SW_ASSERT(!slice_event_ || !sim_->is_scheduled(*slice_event_));
  const std::uint64_t cur = guest_->instr();
  SW_ASSERT(next_periodic_exit_ > cur);
  const std::uint64_t to_periodic = next_periodic_exit_ - cur;
  std::uint64_t n = std::min(guest_->instr_to_boundary(), to_periodic);
  if (n == 0) n = 1;

  const double other_load = machine_->load_excluding(this);
  const double ips = machine_->effective_ips(other_load);
  auto run_time = Duration::from_seconds_f(static_cast<double>(n) / ips) +
                  machine_->config().exit_overhead;
  // Periodic loss of the physical core to coresident load (vCPU scheduling).
  if (cur >= next_preempt_instr_) {
    run_time += machine_->preemption_wait(other_load);
    next_preempt_instr_ = cur + machine_->config().preempt_interval_instr;
  }
  pending_slice_n_ = n;
  if (slice_event_ && sim_->is_executing(*slice_event_)) {
    // The common case: the slice that just ended re-arms itself — same
    // arena slot, same Task, no allocation or construction per slice.
    sim_->reschedule_after(*slice_event_, run_time);
  } else {
    slice_event_ = sim_->schedule_after(
        run_time, [this] { on_slice_end(pending_slice_n_); });
  }
}

void GuestContext::on_slice_end(std::uint64_t n) {
  guest_->advance(n);
  on_guest_exit();
}

void GuestContext::on_guest_exit() {
  const std::uint64_t exit_instr = guest_->instr();
  last_exit_instr_ = exit_instr;
  last_exit_clock_ns_ = clock_.now(exit_instr).ns;
  next_periodic_exit_ = exit_instr + kExitIntervalInstr;

  process_io_ops();
  if (policy_->epoch_instructions() > 0) {
    check_epoch(exit_instr);
  }
  inject_due_interrupts();

  // Host-load bookkeeping (not guest-visible).
  const double busy = guest_->is_idle() ? 0.0 : 1.0;
  activity_ema_ = 0.98 * activity_ema_ + 0.02 * busy;

  if (policy_->replicated() && should_stall()) {
    enter_stall();
    return;
  }
  schedule_slice();
}

void GuestContext::process_io_ops() {
  for (auto& op : guest_->drain_io_ops()) {
    if (const auto* rd = std::get_if<vm::DiskReadOp>(&op)) {
      const RealTime done = machine_->schedule_disk_op(rd->bytes);
      DiskSlot slot;
      slot.request_id = rd->request_id;
      slot.physical_done = done;
      slot.read = true;
      slot.delivery = policy_->disk_delivery(
          last_exit_clock_ns_, done.ns + machine_->config().clock_offset.ns);
      disk_slots_.push_back(slot);
    } else if (const auto* wr = std::get_if<vm::DiskWriteOp>(&op)) {
      const RealTime done = machine_->schedule_disk_op(wr->bytes);
      DiskSlot slot;
      slot.request_id = wr->request_id;
      slot.physical_done = done;
      slot.read = false;
      slot.delivery = policy_->disk_delivery(
          last_exit_clock_ns_, done.ns + machine_->config().clock_offset.ns);
      disk_slots_.push_back(slot);
    } else if (auto* sp = std::get_if<vm::SendPacketOp>(&op)) {
      ++out_seq_;
      out_hashes_.push_back(sp->pkt.content_hash());
      if (policy_->tunnels_output()) {
        net::Frame f;
        f.src = services_.machine_node;
        f.dst = services_.egress_node;
        f.size_bytes = sp->pkt.size_bytes + net::kHeaderBytes;  // tunneled
        net::TunneledOutput t;
        t.vm = vm_;
        t.replica = replica_;
        t.out_seq = out_seq_;
        t.content_hash = sp->pkt.content_hash();
        t.pkt = sp->pkt;
        f.payload = t;
        services_.send_frame(std::move(f));
        ++stats_.outputs_tunneled;
      } else {
        net::Frame f;
        f.src = services_.machine_node;
        f.dst = sp->pkt.dst;
        f.size_bytes = sp->pkt.size_bytes;
        f.payload = net::GuestPacketPayload{sp->pkt};
        services_.send_frame(std::move(f));
      }
    }
  }
}

void GuestContext::inject_due_interrupts() {
  const std::int64_t now_ns = last_exit_clock_ns_;

  // PIT timer interrupts (virtual-time schedule; Sec. IV-B).
  while (next_timer_tick_ns_ <= now_ns) {
    guest_->inject_timer_tick();
    ++stats_.timer_injections;
    next_timer_tick_ns_ += kTimerPeriod.ns;
  }

  // Guest soft timers (deterministic: driven by the guest clock).
  guest_->fire_due_timers();

  // Disk/DMA completions, in request (FIFO) order.
  while (!disk_slots_.empty() && disk_slots_.front().delivery <= now_ns) {
    DiskSlot& slot = disk_slots_.front();
    if (policy_->deterministic_disk_deadline() &&
        sim_->now().ns < slot.physical_done.ns && !slot.late_counted) {
      // Δd was too small: the physical transfer has not finished by the
      // virtual delivery time. In the real system this replica would have
      // to be recovered from a peer (Sec. V footnote 4); here we count the
      // violation and proceed at the deterministic virtual deadline (the
      // delivered *contents* are deterministic either way), so the
      // experiment quantifies how often a deployment's Δd would have been
      // too small.
      slot.late_counted = true;
      ++stats_.divergence_disk_late;
    }
    // Real-time slack between the physical transfer finishing and this
    // injection (negative = the virtual deadline beat the hardware).
    stats_.disk_margin_ms.push_back(
        static_cast<double>(sim_->now().ns - slot.physical_done.ns) / 1e6);
    guest_->inject_disk_complete(slot.request_id);
    ++stats_.disk_deliveries;
    disk_slots_.pop_front();
  }

  // Network packets, in ingress copy_seq order.
  for (;;) {
    const auto it = net_slots_.find(next_net_inject_seq_);
    if (it == net_slots_.end()) break;
    NetSlot& slot = it->second;
    if (!slot.delivery.has_value() || !slot.have_pkt) break;
    if (*slot.delivery > now_ns) break;
    guest_->inject_net_packet(slot.pkt);
    ++stats_.net_deliveries;
    const auto trace_it = live_traces_.find(next_net_inject_seq_);
    if (trace_it != live_traces_.end()) {
      trace_it->second.inject_virt_ms = static_cast<double>(now_ns) / 1e6;
      trace_it->second.inject_real_ms =
          static_cast<double>(sim_->now().ns) / 1e6;
      stats_.packet_traces.push_back(std::move(trace_it->second));
      live_traces_.erase(trace_it);
    }
    net_slots_.erase(it);
    ++next_net_inject_seq_;
  }

  guest_->commit_injections();
}

bool GuestContext::should_stall() const {
  if (peer_virt_ns_.size() + 1 <
      static_cast<std::size_t>(cfg_.replica_count)) {
    return false;  // not all peers known yet
  }
  std::int64_t max_peer = INT64_MIN;
  for (const auto& [machine, virt] : peer_virt_ns_) {
    max_peer = std::max(max_peer, virt);
  }
  // I am the fastest and my lead over the second-fastest exceeds the cap.
  return last_exit_clock_ns_ - max_peer > policy_->max_replica_gap().ns;
}

void GuestContext::enter_stall() {
  SW_ASSERT(!stalled_);
  stalled_ = true;
  stall_began_ = sim_->now();
  ++stats_.throttle_stalls;
  stall_event_ =
      sim_->schedule_after(Duration::micros(500), [this] { recheck_stall(); });
}

void GuestContext::recheck_stall() {
  if (halted_) return;
  if (should_stall()) {
    // Still the fastest replica: the recheck re-arms its own slot.
    sim_->reschedule_after(*stall_event_, Duration::micros(500));
    return;
  }
  stalled_ = false;
  stats_.total_stall_time += sim_->now() - stall_began_;
  schedule_slice();
}

void GuestContext::on_ingress_copy(const net::IngressCopy& copy) {
  SW_EXPECTS(policy_->replicated());
  if (copy.vm != vm_) return;
  NetSlot& slot = net_slots_[copy.copy_seq];
  slot.pkt = copy.pkt;
  slot.have_pkt = true;
  if (cfg_.record_packet_traces && copy.copy_seq <= 32) {
    PacketTrace& tr = live_traces_[copy.copy_seq];
    tr.copy_seq = copy.copy_seq;
    tr.arrival_real_ms = static_cast<double>(sim_->now().ns) / 1e6;
  }

  // Dom0 device-model processing before the proposal goes out; this is
  // where coresident load perturbs the proposal (and where StopWatch's
  // median protects: the perturbation affects only this replica's vote).
  const Duration processing =
      machine_->vmm_processing_delay(machine_->load_excluding(nullptr));
  const std::uint64_t seq = copy.copy_seq;
  sim_->schedule_after(processing, [this, seq] {
    if (halted_) return;
    net::Proposal p;
    p.vm = vm_;
    p.copy_seq = seq;
    p.proposed_delivery =
        VirtTime{policy_->propose_delivery(last_exit_clock_ns_)};
    p.proposer = machine_->id();
    const auto it = net_slots_.find(seq);
    if (it != net_slots_.end()) {
      it->second.proposal_base = last_exit_clock_ns_;
    }
    services_.control_multicast(p, 96);
  });
}

void GuestContext::on_proposal(const net::Proposal& p) {
  SW_EXPECTS(policy_->replicated());
  if (p.vm != vm_) return;
  if (p.copy_seq < next_net_inject_seq_) return;  // already delivered
  NetSlot& slot = net_slots_[p.copy_seq];
  slot.proposals[p.proposer.value] = p.proposed_delivery.ns;
  {
    const auto trace_it = live_traces_.find(p.copy_seq);
    if (trace_it != live_traces_.end()) {
      trace_it->second.proposals_ms.emplace_back(
          p.proposer.value, static_cast<double>(p.proposed_delivery.ns) / 1e6);
    }
  }
  if (slot.delivery.has_value()) return;
  if (slot.proposals.size() <
      static_cast<std::size_t>(cfg_.replica_count)) {
    return;
  }

  // All proposals in: combine per the policy's aggregation rule (median of
  // the replicas' votes in the paper).
  std::int64_t median = policy_->combine_proposals(slot.proposals);

  // Spread between the two *fastest* replicas — the gap Δn must dominate
  // (the slowest replica may lag arbitrarily; the median never comes from
  // it, and the throttle only paces the leaders, Sec. VII-A).
  std::vector<std::int64_t> vals;
  vals.reserve(slot.proposals.size());
  for (const auto& [machine, v] : slot.proposals) vals.push_back(v);
  std::sort(vals.begin(), vals.end());
  stats_.proposal_spread_ms.push_back(
      static_cast<double>(vals[vals.size() - 1] - vals[vals.size() - 2]) /
      1e6);
  const std::int64_t margin = median - last_exit_clock_ns_;
  stats_.median_margin_ms.push_back(static_cast<double>(margin) / 1e6);
  if (margin < 0) {
    // The chosen median already passed on this replica: synchrony violated
    // (Sec. V footnote 4). Deliver as soon as possible and count it.
    ++stats_.divergence_median_passed;
    median = last_exit_clock_ns_;
  }
  slot.delivery = median;
  {
    const auto trace_it = live_traces_.find(p.copy_seq);
    if (trace_it != live_traces_.end()) {
      trace_it->second.chosen_delivery_virt_ms =
          static_cast<double>(median) / 1e6;
    }
  }
}

void GuestContext::on_sync_beacon(const net::SyncBeacon& b) {
  if (b.vm != vm_) return;
  if (b.machine == machine_->id()) return;  // self-delivery
  auto& v = peer_virt_ns_[b.machine.value];
  v = std::max(v, b.virt.ns);
}

void GuestContext::on_epoch_report(const net::EpochReport& r) {
  if (r.vm != vm_) return;
  epoch_reports_[r.epoch].by_machine[r.machine.value] = r;
}

void GuestContext::on_direct_packet(const net::Packet& pkt) {
  SW_EXPECTS(!policy_->replicated());
  const Duration processing =
      machine_->vmm_processing_delay(machine_->load_excluding(nullptr));
  const std::uint64_t seq = baseline_arrival_seq_++;
  NetSlot slot;
  slot.pkt = pkt;
  slot.have_pkt = true;
  slot.delivery = policy_->direct_delivery(
      (sim_->now() + processing).ns + machine_->config().clock_offset.ns,
      last_exit_clock_ns_);
  net_slots_.emplace(seq, std::move(slot));
}

void GuestContext::check_epoch(std::uint64_t exit_instr) {
  const std::uint64_t epoch_instr = policy_->epoch_instructions();
  const std::uint64_t boundary = (epoch_index_ + 1) * epoch_instr;
  if (exit_instr < boundary) return;

  // Apply the update derived from the *previous* epoch's reports. Doing it
  // exactly when the next boundary is crossed gives all replicas the same
  // (instruction-indexed) application point.
  if (epoch_index_ >= 1) {
    const std::uint64_t prev = epoch_index_ - 1;
    const auto it = epoch_reports_.find(prev);
    if (it == epoch_reports_.end() ||
        it->second.by_machine.size() <
            static_cast<std::size_t>(cfg_.replica_count)) {
      ++stats_.divergence_epoch_missing;
    } else {
      // Median report by R_k; D* comes from the same machine (Sec. IV-A).
      std::vector<net::EpochReport> reports;
      for (const auto& [machine, rep] : it->second.by_machine) {
        reports.push_back(rep);
      }
      std::sort(reports.begin(), reports.end(),
                [](const net::EpochReport& a, const net::EpochReport& b) {
                  return a.r_k.ns < b.r_k.ns;
                });
      const net::EpochReport& med = reports[(reports.size() - 1) / 2];
      // Paper Sec. IV-A: slope_{k+1} = clamp((R*_k - virt_k(I) + D*_k) / I).
      const auto end_it = epoch_end_virt_.find(prev);
      SW_ASSERT(end_it != epoch_end_virt_.end());
      const double virt_at_epoch_end = static_cast<double>(end_it->second);
      const double candidate =
          (static_cast<double>(med.r_k.ns) - virt_at_epoch_end +
           static_cast<double>(med.d_k.ns)) /
          static_cast<double>(epoch_instr);
      const double slope = policy_->epoch_slope(candidate);
      clock_.rebase(exit_instr, slope);
      ++stats_.epoch_rebase_count;
    }
    epoch_reports_.erase(prev);
    epoch_end_virt_.erase(prev);
  }

  // Emit this epoch's report.
  epoch_end_virt_[epoch_index_] = clock_.at_instr(exit_instr).ns;
  net::EpochReport rep;
  rep.vm = vm_;
  rep.machine = machine_->id();
  rep.epoch = epoch_index_;
  rep.d_k = machine_->local_clock() - epoch_start_local_;
  rep.r_k = machine_->local_clock();
  services_.control_multicast(rep, 96);
  epoch_start_local_ = machine_->local_clock();
  ++epoch_index_;
}

}  // namespace stopwatch::hypervisor
