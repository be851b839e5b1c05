// The simulated network: nodes joined by links with latency, jitter,
// serialization delay (bandwidth), and loss.
//
// Topology used by StopWatch experiments: cloud machines, the ingress and
// egress nodes, and external clients all attach here. Per-pair link models
// can be overridden (e.g., a slow "wireless client" hop as in the paper's
// evaluation; fast intra-cloud links for VMM-to-VMM proposal traffic).
//
// Shard awareness: the fabric routes through the sim::ShardedSimulator it
// is built on (one shard is the sequential case), and every node has an
// owner shard (default 0). A frame between same-owner nodes is scheduled
// directly on the owner's core, while a frame crossing shards goes
// through the sharded kernel's deterministic (source shard, destination
// shard) lanes. Stochastic draws (loss, jitter) come from a
// per-node RNG stream forked from the fabric seed by node id — so the
// draw sequence a node sees is a function of its own traffic only, never
// of global send interleaving. That is what keeps an N-shard run
// byte-identical to the sequential one.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <string>
#include <variant>

#include "common/contracts.hpp"
#include "common/ids.hpp"
#include "common/rng.hpp"
#include "common/time.hpp"
#include "net/frame.hpp"
#include "obs/metrics.hpp"
#include "sim/sharded.hpp"
#include "sim/simulator.hpp"

namespace stopwatch::net {

/// Link behaviour between a pair of nodes (per direction).
struct LinkModel {
  /// Fixed propagation delay.
  Duration base_latency{Duration::micros(100)};
  /// Lognormal jitter: multiplier exp(N(0, sigma)) applied to base latency.
  /// The multiplier is clamped below at exp(-6 sigma) — a ~1e-9 tail event
  /// — which gives every link a hard latency floor of
  /// base_latency * exp(-6 sigma), the lookahead bound the sharded
  /// simulator's barrier window relies on.
  double jitter_sigma{0.1};
  /// Link rate in bytes per second (serialization delay = size / rate).
  double bytes_per_second{125e6};  // 1 Gbps
  /// Independent per-frame loss probability.
  double loss_probability{0.0};

  /// Guaranteed minimum propagation delay under the jitter clamp.
  [[nodiscard]] Duration min_latency() const;
};

/// Statistics kept per node.
struct NodeStats {
  std::uint64_t frames_sent{0};
  std::uint64_t frames_received{0};
  std::uint64_t bytes_sent{0};
  std::uint64_t bytes_received{0};
};

/// The network fabric. Owns no node logic; nodes register handlers.
class Network {
 public:
  using Handler = std::function<void(const Frame&)>;

  /// Same-owner traffic schedules on the owner's core of `sharded`,
  /// cross-owner traffic through its merge lanes. The kernel must outlive
  /// the fabric.
  Network(sim::ShardedSimulator& sharded, Rng rng)
      : sharded_(&sharded), rng_(std::move(rng)) {}

  /// Registers a node; the handler is invoked on frame arrival.
  NodeId add_node(std::string name, Handler handler);

  /// Replaces a node's handler (used when wiring mutually dependent parts).
  void set_handler(NodeId node, Handler handler);

  /// Assigns the shard that owns a node's events (default 0). Must not be
  /// called while the sharded kernel is mid-window.
  void set_node_owner(NodeId node, int shard);
  [[nodiscard]] int node_owner(NodeId node_id) const {
    return node(node_id).owner;
  }

  /// Sets the link model for the (src -> dst) direction.
  void set_link(NodeId src, NodeId dst, LinkModel model);
  /// Default model for any frame with `node` as source or destination that
  /// has no explicit per-pair link. One entry covers a node's traffic with
  /// the whole cloud — O(1) state instead of a per-pair entry against every
  /// VM, which is what lets a 40k-VM topology wire an external client
  /// without dense fan-out. Resolution order: pair link, then source node
  /// link, then destination node link, then the global default.
  void set_node_link(NodeId node, LinkModel model);
  /// Default model for pairs without an explicit link.
  void set_default_link(LinkModel model) { default_link_ = model; }

  /// Minimum guaranteed latency over every link model registered so far
  /// (pair links, node links, and the default) — the lookahead bound: no
  /// frame sent at t can arrive before t + min_latency_floor(). The
  /// sharded barrier window must not exceed it.
  [[nodiscard]] Duration min_latency_floor() const;

  /// Sends a frame; delivery is scheduled on the simulator. Returns false if
  /// the frame was dropped by the loss model.
  bool send(Frame frame);

  [[nodiscard]] const NodeStats& stats(NodeId node) const;
  [[nodiscard]] const std::string& name(NodeId node) const;
  [[nodiscard]] std::size_t node_count() const { return nodes_.size(); }
  /// The simulator core that owns a node's events.
  [[nodiscard]] sim::Simulator& simulator_for(NodeId node_id) {
    return core_for(node(node_id).owner);
  }

  /// Total frames dropped by loss models (diagnostics).
  [[nodiscard]] std::uint64_t frames_dropped() const {
    return frames_dropped_.load(std::memory_order_relaxed);
  }

  /// Number of FramePayload alternatives — the frame-class axis of the
  /// per-class send counters.
  static constexpr std::size_t kFrameClasses =
      std::variant_size_v<FramePayload>;

  /// Frames sent carrying the payload alternative at `payload_index`
  /// (the FramePayload variant index). Includes frames later dropped by
  /// the loss model — the counter classifies offered traffic.
  [[nodiscard]] std::uint64_t frames_sent_of_class(
      std::size_t payload_index) const {
    SW_EXPECTS(payload_index < kFrameClasses);
    return frames_by_class_[payload_index].load(std::memory_order_relaxed);
  }

  /// Installs (or, with nullptr, removes) a histogram receiving every
  /// sent frame's size in bytes. The histogram's commutative atomic
  /// buckets are what make one shared instance safe here: send() runs
  /// concurrently on different shards' workers.
  void set_bytes_histogram(obs::Histogram* hist) { bytes_hist_ = hist; }

 private:
  struct Node {
    std::string name;
    Handler handler;
    NodeStats stats;
    /// Earliest time the node's uplink is free (serialization queueing).
    RealTime tx_free{};
    /// Per-node stochastic stream: loss and jitter draws for frames this
    /// node sends. Forked from the fabric RNG by node id, so the stream
    /// is independent of other nodes' traffic (and of shard count).
    Rng rng;
    /// Shard whose core runs this node's events.
    int owner{0};
  };

  [[nodiscard]] const LinkModel& link_for(NodeId src, NodeId dst) const;
  Node& node(NodeId id);
  const Node& node(NodeId id) const;
  [[nodiscard]] sim::Simulator& core_for(int owner) {
    return sharded_->shard(owner);
  }

  sim::ShardedSimulator* sharded_;
  Rng rng_;
  /// Deque, not vector: handlers may register new nodes mid-delivery (lazy
  /// replica wiring materializes on first traffic), and a deque keeps the
  /// executing node — and its handler — reference-stable through that.
  std::deque<Node> nodes_;
  std::map<std::pair<std::uint32_t, std::uint32_t>, LinkModel> links_;
  std::map<std::uint32_t, LinkModel> node_links_;
  LinkModel default_link_{};
  /// Atomic: loss draws happen on the owning shard's worker, and two
  /// shards can drop concurrently within a window.
  std::atomic<std::uint64_t> frames_dropped_{0};
  /// Per-payload-class send counts (same concurrency story as above).
  std::array<std::atomic<std::uint64_t>, kFrameClasses> frames_by_class_{};
  obs::Histogram* bytes_hist_{nullptr};
};

}  // namespace stopwatch::net
