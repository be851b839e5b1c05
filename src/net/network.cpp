#include "net/network.hpp"

#include <algorithm>
#include <cmath>
#include <memory>
#include <utility>

namespace stopwatch::net {

namespace {
/// Lower clamp for the lognormal jitter multiplier: a 6-sigma tail event
/// (~1e-9 per frame), observationally a no-op, but it turns the link's
/// statistical latency into the hard floor conservative parallel
/// execution needs.
double jitter_floor(double sigma) { return std::exp(-6.0 * sigma); }
}  // namespace

Duration LinkModel::min_latency() const {
  if (jitter_sigma <= 0.0) return base_latency;
  return Duration::from_seconds_f(base_latency.to_seconds() *
                                  jitter_floor(jitter_sigma));
}

NodeId Network::add_node(std::string name, Handler handler) {
  SW_EXPECTS(!sharded_->running());
  const NodeId id{static_cast<std::uint32_t>(nodes_.size())};
  nodes_.push_back(Node{std::move(name), std::move(handler), {}, RealTime{},
                        rng_.fork(id.value), 0});
  return id;
}

void Network::set_handler(NodeId node_id, Handler handler) {
  node(node_id).handler = std::move(handler);
}

void Network::set_node_owner(NodeId node_id, int shard) {
  SW_EXPECTS(!sharded_->running());
  SW_EXPECTS(shard >= 0 && shard < sharded_->shard_count());
  node(node_id).owner = shard;
}

void Network::set_link(NodeId src, NodeId dst, LinkModel model) {
  SW_EXPECTS(src.value < nodes_.size() && dst.value < nodes_.size());
  links_[{src.value, dst.value}] = model;
}

void Network::set_node_link(NodeId node_id, LinkModel model) {
  SW_EXPECTS(node_id.value < nodes_.size());
  node_links_[node_id.value] = model;
}

Duration Network::min_latency_floor() const {
  Duration floor = default_link_.min_latency();
  for (const auto& [key, model] : links_) {
    floor = std::min(floor, model.min_latency());
  }
  for (const auto& [key, model] : node_links_) {
    floor = std::min(floor, model.min_latency());
  }
  return floor;
}

const LinkModel& Network::link_for(NodeId src, NodeId dst) const {
  const auto it = links_.find({src.value, dst.value});
  if (it != links_.end()) return it->second;
  const auto src_it = node_links_.find(src.value);
  if (src_it != node_links_.end()) return src_it->second;
  const auto dst_it = node_links_.find(dst.value);
  if (dst_it != node_links_.end()) return dst_it->second;
  return default_link_;
}

Network::Node& Network::node(NodeId id) {
  SW_EXPECTS(id.value < nodes_.size());
  return nodes_[id.value];
}

const Network::Node& Network::node(NodeId id) const {
  SW_EXPECTS(id.value < nodes_.size());
  return nodes_[id.value];
}

bool Network::send(Frame frame) {
  Node& src = node(frame.src);
  Node& dst = node(frame.dst);
  SW_EXPECTS(dst.handler != nullptr);

  const LinkModel& link = link_for(frame.src, frame.dst);
  // All mutable state touched on the send path (src stats, src tx_free,
  // src rng) belongs to the source node, and send() runs on the source
  // owner's core — shard-confined by construction. Destination state is
  // only touched by the delivery task below, on the destination's core.
  sim::Simulator& src_core = core_for(src.owner);

  src.stats.frames_sent += 1;
  src.stats.bytes_sent += frame.size_bytes;
  frames_by_class_[frame.payload.index()].fetch_add(
      1, std::memory_order_relaxed);
  if (bytes_hist_ != nullptr) bytes_hist_->record(frame.size_bytes);

  if (link.loss_probability > 0.0 && src.rng.chance(link.loss_probability)) {
    frames_dropped_.fetch_add(1, std::memory_order_relaxed);
    return false;
  }

  // Serialization: the sender's uplink transmits frames back to back.
  const auto serialization = Duration::from_seconds_f(
      static_cast<double>(frame.size_bytes) / link.bytes_per_second);
  const RealTime tx_start =
      src.tx_free.ns > src_core.now().ns ? src.tx_free : src_core.now();
  const RealTime tx_done = tx_start + serialization;
  src.tx_free = tx_done;

  // Propagation + jitter (clamped below — see LinkModel::min_latency).
  double jitter = 1.0;
  if (link.jitter_sigma > 0.0) {
    jitter = std::max(src.rng.lognormal(0.0, link.jitter_sigma),
                      jitter_floor(link.jitter_sigma));
  }
  const auto prop =
      Duration::from_seconds_f(link.base_latency.to_seconds() * jitter);

  const RealTime arrival = tx_done + prop;
  const NodeId dst_id = frame.dst;
  // The frame (with its variant payload) is too big for the event record's
  // inline buffer, so it is boxed: the delivery task itself — pointer +
  // destination — stays inline in the slab, and the frame costs the one
  // heap allocation it always did.
  sim::Task deliver(
      [this, dst_id, f = std::make_unique<Frame>(std::move(frame))]() {
        // nodes_ is a deque precisely so this reference survives handlers
        // that register new nodes mid-delivery (lazy replica wiring).
        Node& d = node(dst_id);
        d.stats.frames_received += 1;
        d.stats.bytes_received += f->size_bytes;
        d.handler(*f);
      });
  if (dst.owner != src.owner) {
    sharded_->cross_schedule(src.owner, dst.owner, arrival,
                             std::move(deliver));
  } else {
    src_core.schedule_at(arrival, std::move(deliver));
  }
  return true;
}

const NodeStats& Network::stats(NodeId node_id) const {
  return node(node_id).stats;
}

const std::string& Network::name(NodeId node_id) const {
  return node(node_id).name;
}

}  // namespace stopwatch::net
