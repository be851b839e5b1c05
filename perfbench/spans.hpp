// In-memory span recorder for the benchmark's traced runs.
//
// Every call the benchmark makes into a module of src/ is wrapped in a
// ScopedSpan naming the module and the call. Spans keep a name, start, end,
// parent span, the cloud (workload step) they belong to and a request id,
// stay in memory while the workload runs, and are written out once at exit.
// A layer's self time is its spans' duration minus the part their child
// spans cover.
//
// Disarmed (untraced runs) a ScopedSpan costs one well-predicted branch
// and records nothing.
#pragma once

#include <array>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

namespace perfbench {

/// The span vocabulary: one entry per call site the benchmark times.
enum class SpanId : std::uint8_t {
  kWorkload,            // root: the whole workload inside main()
  kPlacementConstruct,  // placement::theorem2_placement
  kPlacementValidate,   // placement::valid_placement
  kCloudConstruct,      // core::Cloud constructor
  kAddVm,               // core::Cloud::add_vm
  kActivate,            // core::Cloud::activate_sharded
  kStart,               // core::Cloud::start
  kRunFor,              // core::Cloud::run_for
  kHaltAll,             // core::Cloud::halt_all
  kSnapshot,            // core::Cloud::observability
  kCloudDestroy,        // core::Cloud destructor
  kWorkloadDrive,       // workload generators: construction, start, issue
  kBinEdges,            // leakage::make_bin_edges
  kJoint,               // leakage::joint_from_log
  kMutualInfo,          // leakage::mutual_information_miller_madow
  kDetect,              // stats::ChiSquaredDetector (+ its Ecdfs)
  kAnalysis,            // the benchmark's own checks and bookkeeping
  kCount,
};

inline constexpr std::size_t kSpanCount =
    static_cast<std::size_t>(SpanId::kCount);

inline constexpr std::array<const char*, kSpanCount> kSpanNames = {
    "bench.workload",
    "placement.theorem2_placement",
    "placement.valid_placement",
    "core.Cloud",
    "topology.add_vm",
    "topology.activate_sharded",
    "topology.start",
    "core.run_for",
    "core.halt_all",
    "obs.observability",
    "core.~Cloud",
    "workload.drive",
    "leakage.make_bin_edges",
    "leakage.joint_from_log",
    "leakage.mutual_information_miller_madow",
    "stats.ChiSquaredDetector",
    "bench.analysis"};

inline std::int64_t monotonic_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct Span {
  std::int64_t start_ns{0};
  std::int64_t end_ns{0};
  std::int64_t request{-1};
  std::int32_t parent{-1};
  std::int32_t cloud{-1};
  SpanId id{SpanId::kWorkload};
};

/// Per-name totals derived from the recorded spans.
struct SpanTotals {
  std::uint64_t calls{0};
  std::int64_t total_ns{0};
  std::int64_t self_ns{0};
};

class SpanRecorder {
 public:
  void arm() { armed_ = true; }
  [[nodiscard]] bool armed() const { return armed_; }

  /// Tags subsequent spans with the cloud (workload step) they serve.
  void set_cloud(int cloud) { cloud_ = cloud; }
  /// Tags subsequent spans with a request id (-1: not per request).
  void set_request(std::int64_t request) { request_ = request; }

  std::int32_t open(SpanId id) {
    const auto index = static_cast<std::int32_t>(spans_.size());
    spans_.push_back(Span{monotonic_ns(), 0, request_, top_, cloud_, id});
    top_ = index;
    return index;
  }
  void close(std::int32_t index) {
    Span& s = spans_[static_cast<std::size_t>(index)];
    s.end_ns = monotonic_ns();
    top_ = s.parent;
  }

  [[nodiscard]] std::size_t size() const { return spans_.size(); }

  [[nodiscard]] std::array<SpanTotals, kSpanCount> totals() const {
    std::array<SpanTotals, kSpanCount> out{};
    for (const Span& s : spans_) {
      const std::int64_t d = s.end_ns - s.start_ns;
      SpanTotals& t = out[static_cast<std::size_t>(s.id)];
      ++t.calls;
      t.total_ns += d;
      t.self_ns += d;
      if (s.parent >= 0) {
        const Span& parent = spans_[static_cast<std::size_t>(s.parent)];
        out[static_cast<std::size_t>(parent.id)].self_ns -= d;
      }
    }
    return out;
  }

  /// Writes every span as one JSON document; returns false on I/O failure.
  bool write(const std::string& path, const std::string& workload) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    std::fprintf(f, "{\"workload\":\"%s\",\"names\":[", workload.c_str());
    for (std::size_t i = 0; i < kSpanNames.size(); ++i) {
      std::fprintf(f, "%s\"%s\"", i == 0 ? "" : ",", kSpanNames[i]);
    }
    std::fprintf(f, "],\"spans\":[\n");
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::fprintf(f,
                   "%s{\"name\":%d,\"start_ns\":%lld,\"end_ns\":%lld,"
                   "\"parent\":%d,\"cloud\":%d,\"request\":%lld}\n",
                   i == 0 ? "" : ",", static_cast<int>(s.id),
                   static_cast<long long>(s.start_ns),
                   static_cast<long long>(s.end_ns), s.parent, s.cloud,
                   static_cast<long long>(s.request));
    }
    std::fprintf(f, "]}\n");
    return std::fclose(f) == 0;
  }

 private:
  bool armed_{false};
  std::int32_t top_{-1};
  std::int32_t cloud_{-1};
  std::int64_t request_{-1};
  std::vector<Span> spans_;
};

/// The process-wide recorder (one workload per process).
inline SpanRecorder& recorder() {
  static SpanRecorder r;
  return r;
}

class ScopedSpan {
 public:
  explicit ScopedSpan(SpanId id)
      : index_(recorder().armed() ? recorder().open(id) : -1) {}
  ~ScopedSpan() {
    if (index_ >= 0) recorder().close(index_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  std::int32_t index_;
};

/// Runs `f` inside a span named `id` and returns its result.
template <class F>
decltype(auto) spanned(SpanId id, F&& f) {
  const ScopedSpan scope(id);
  return f();
}

}  // namespace perfbench
