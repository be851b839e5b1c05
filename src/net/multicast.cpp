#include "net/multicast.hpp"

#include <algorithm>
#include <utility>

#include "common/contracts.hpp"

namespace stopwatch::net {

MulticastGroup::MulticastGroup(Network& network, std::uint32_t group_id)
    : net_(&network), group_id_(group_id) {
  SW_EXPECTS(group_id != 0);
}

void MulticastGroup::add_member(NodeId node, DeliverFn deliver) {
  SW_EXPECTS(deliver != nullptr);
  SW_EXPECTS(find_member(node) == nullptr);
  members_.push_back(MemberState{node, std::move(deliver), {}});
}

MulticastGroup::MemberState* MulticastGroup::find_member(NodeId node) {
  for (auto& m : members_) {
    if (m.node == node) return &m;
  }
  return nullptr;
}

void MulticastGroup::send(NodeId from, FramePayload payload,
                          std::uint32_t size_bytes) {
  MemberState* self = find_member(from);
  SW_EXPECTS(self != nullptr);

  SenderState& snd = senders_[from.value];
  const std::uint64_t seq = snd.next_seq++;
  snd.buffer.emplace(seq, std::make_pair(payload, size_bytes));
  // Bound the retransmission buffer; in PGM terms, the transmit window.
  while (snd.buffer.size() > 4096) snd.buffer.erase(snd.buffer.begin());

  for (auto& m : members_) {
    if (m.node == from) continue;
    Frame f;
    f.src = from;
    f.dst = m.node;
    f.size_bytes = size_bytes;
    f.payload = payload;
    f.rm_group = group_id_;
    f.rm_seq = seq;
    net_->send(std::move(f));
  }
  // Local synchronous self-delivery (a VMM "hears" its own proposal).
  self->deliver(from, payload);

  // (Re)start the SPM chain advertising the sender's highest sequence so
  // receivers can detect tail loss.
  snd.spm_remaining = kSpmAttempts;
  arm_spm(from);
}

void MulticastGroup::arm_spm(NodeId from) {
  SenderState& snd = senders_[from.value];
  if (snd.spm_armed) return;
  snd.spm_armed = true;
  // The SPM chain belongs to the sending node: its timer must live on the
  // sender's owning shard so the group's state stays shard-confined.
  sim::Simulator& sim = net_->simulator_for(from);
  if (snd.spm_event && sim.is_executing(*snd.spm_event)) {
    // Re-armed from inside the SPM timer itself: reuse its arena slot.
    sim.reschedule_after(*snd.spm_event, spm_interval_);
    return;
  }
  snd.spm_event =
      sim.schedule_after(spm_interval_, [this, from] { on_spm_timer(from); });
}

void MulticastGroup::on_spm_timer(NodeId from) {
  SenderState& s = senders_[from.value];
  s.spm_armed = false;
  if (s.spm_remaining <= 0) return;
  --s.spm_remaining;
  const std::uint64_t max_seq = s.next_seq - 1;
  for (auto& m : members_) {
    if (m.node == from) continue;
    Frame f;
    f.src = from;
    f.dst = m.node;
    f.size_bytes = kHeaderBytes;
    f.payload = McastSpm{group_id_, max_seq};
    f.rm_group = group_id_;
    f.rm_seq = 0;
    net_->send(std::move(f));
  }
  if (s.spm_remaining > 0) arm_spm(from);
}

void MulticastGroup::on_frame(NodeId member, const Frame& frame) {
  SW_EXPECTS(frame.rm_group == group_id_);
  MemberState* m = find_member(member);
  SW_EXPECTS(m != nullptr);

  // NAK handling at the sender side.
  if (const auto* nak = std::get_if<McastNak>(&frame.payload)) {
    SenderState& snd = senders_[member.value];
    for (std::uint64_t s = nak->begin; s < nak->end; ++s) {
      const auto it = snd.buffer.find(s);
      if (it == snd.buffer.end()) continue;  // beyond the transmit window
      Frame f;
      f.src = member;
      f.dst = nak->from;
      f.size_bytes = it->second.second;
      f.payload = it->second.first;
      f.rm_group = group_id_;
      f.rm_seq = s;
      net_->send(std::move(f));
      ++retransmissions_;
    }
    return;
  }

  const NodeId sender = frame.src;
  auto& rx = m->rx[sender.value];

  if (const auto* spm = std::get_if<McastSpm>(&frame.payload)) {
    rx.highest_advertised = std::max(rx.highest_advertised, spm->max_seq);
    if (rx.next_expected <= rx.highest_advertised) {
      maybe_schedule_nak(*m, sender, rx);
    }
    return;
  }

  if (frame.rm_seq < rx.next_expected) return;  // duplicate
  rx.highest_advertised = std::max(rx.highest_advertised, frame.rm_seq);
  rx.stashed.emplace(frame.rm_seq, frame.payload);
  deliver_in_order(*m, sender, rx);
  if (!rx.stashed.empty()) maybe_schedule_nak(*m, sender, rx);
}

void MulticastGroup::deliver_in_order(MemberState& m, NodeId sender,
                                      MemberState::RxState& rx) {
  auto it = rx.stashed.begin();
  while (it != rx.stashed.end() && it->first == rx.next_expected) {
    m.deliver(sender, it->second);
    it = rx.stashed.erase(it);
    ++rx.next_expected;
  }
}

void MulticastGroup::maybe_schedule_nak(MemberState& m, NodeId sender,
                                        MemberState::RxState& rx) {
  if (rx.nak_scheduled) return;
  rx.nak_scheduled = true;
  // NAK timers fire on the receiving member's shard.
  sim::Simulator& sim = net_->simulator_for(m.node);
  if (rx.nak_event && sim.is_executing(*rx.nak_event)) {
    // Re-armed from the tail of the NAK timer itself (NAK or retransmission
    // may be lost): reuse its arena slot.
    sim.reschedule_after(*rx.nak_event, kNakDelay);
    return;
  }
  const NodeId member = m.node;
  rx.nak_event = sim.schedule_after(
      kNakDelay, [this, member, sender] { on_nak_timer(member, sender); });
}

void MulticastGroup::on_nak_timer(NodeId member, NodeId sender) {
  MemberState* mm = find_member(member);
  if (mm == nullptr) return;
  auto& rxs = mm->rx[sender.value];
  rxs.nak_scheduled = false;

  const bool tail_gap =
      rxs.stashed.empty() && rxs.next_expected <= rxs.highest_advertised;
  const bool middle_gap = !rxs.stashed.empty();
  if (!tail_gap && !middle_gap) {
    rxs.nak_attempts = 0;
    return;  // healed meanwhile
  }
  const std::uint64_t gap_end =
      middle_gap ? rxs.stashed.begin()->first : rxs.highest_advertised + 1;
  SW_ASSERT(gap_end > rxs.next_expected);

  if (rxs.next_expected > rxs.last_nak_position) {
    rxs.nak_attempts = 0;  // progress since the last attempt
  }
  rxs.last_nak_position = rxs.next_expected;

  if (++rxs.nak_attempts > 12) {
    // Unrecoverable (sender evicted the data from its window): skip the
    // gap, as PGM does when data falls outside the transmit window.
    rxs.next_expected = gap_end;
    rxs.nak_attempts = 0;
    deliver_in_order(*mm, sender, rxs);
    return;
  }

  Frame f;
  f.src = member;
  f.dst = sender;
  f.size_bytes = kHeaderBytes;
  f.payload = McastNak{group_id_, member, rxs.next_expected, gap_end};
  f.rm_group = group_id_;
  f.rm_seq = 0;
  net_->send(std::move(f));
  ++naks_sent_;
  // Re-arm in case the NAK or the retransmission is lost.
  maybe_schedule_nak(*mm, sender, rxs);
}

}  // namespace stopwatch::net
