// The benchmark's workload parts, built through the public APIs of src/.
// The benchmark runs two workloads, each a sequence of parts in one
// process: fleet (fleet_echo, then fleet_echo_sharded) and nfs_policy
// (nfs_ramp, then policy_sweep).
//
//  * fleet_echo / fleet_echo_sharded: Theorem-2 placement of 41,750
//    three-replica VMs over 501 machines, lazily wired; 24 of them echo
//    open-loop Poisson traffic at 40 req/s each for 2 s of sim time. Idle
//    protocol timers dominate the event count. The sharded variant runs the
//    same inputs on two simulator cores and must report identical
//    simulated metrics.
//  * nfs_ramp: one NFS server VM on 3 machines serving the nhfsstone mix
//    from 5 open-loop client processes, stepped through 25..400 ops/s under
//    baseline Xen and StopWatch. Request-dense: transport, protocol frames
//    and egress release do the work.
//  * policy_sweep: all four mitigation backends, each running the Fig. 4
//    detection channel (eager wiring, victim present then absent) and a
//    secret-size UDP file-download channel observed by a TimingTap, then
//    chi-squared detection and Miller-Madow MI. The only workload that
//    reaches the leakage and stats modules.
#include <algorithm>
#include <cmath>
#include <cstdint>
#include <memory>
#include <set>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "harness.hpp"
#include "hypervisor/policy.hpp"
#include "leakage/estimators.hpp"
#include "leakage/observation_log.hpp"
#include "leakage/timing_tap.hpp"
#include "placement/placement.hpp"
#include "stats/detection.hpp"
#include "stats/ecdf.hpp"
#include "workload/file_service.hpp"
#include "workload/nfs.hpp"
#include "workload/timing.hpp"

namespace perfbench {
namespace {

/// Echoes every request straight back to its sender.
class EchoProgram final : public vm::GuestProgram {
 public:
  void on_boot(vm::GuestApi&) override {}
  void on_timer_tick(vm::GuestApi&, std::uint64_t) override {}
  void on_packet(vm::GuestApi& api, const net::Packet& pkt) override {
    if (pkt.kind != net::PacketKind::kRequest) return;
    net::Packet reply;
    reply.dst = pkt.src;
    reply.kind = net::PacketKind::kData;
    reply.seq = pkt.seq;
    reply.size_bytes = 120;
    api.send_packet(reply);
  }
};

/// Per-driven-VM request book: due time of each request and whether its
/// reply has arrived.
struct EchoBook {
  std::vector<std::int64_t> due_ns;
  std::vector<bool> replied;
};

/// Sampled co-residence probability against the occupancy-exact value.
double coresidence_rel_error(const std::vector<placement::Triangle>& tri,
                             int n, std::uint64_t seed, int pair_samples) {
  const auto k = static_cast<long>(tri.size());
  double coresident_pairs = 0.0;
  for (const int o : placement::occupancy(tri, n)) {
    coresident_pairs += static_cast<double>(o) * (o - 1) / 2.0;
  }
  const double p_exact =
      coresident_pairs / (static_cast<double>(k) * (k - 1) / 2.0);
  Rng rng(SplitMix64(seed ^ 0xC0DE51DEULL).next());
  long shared = 0;
  for (int s = 0; s < pair_samples; ++s) {
    const auto i = static_cast<std::size_t>(rng.uniform_int(0, k - 1));
    auto j = static_cast<std::size_t>(rng.uniform_int(0, k - 2));
    if (j >= i) ++j;
    const int av[3] = {tri[i].a, tri[i].b, tri[i].c};
    const int bv[3] = {tri[j].a, tri[j].b, tri[j].c};
    bool hit = false;
    for (const int x : av) {
      for (const int y : bv) hit = hit || x == y;
    }
    shared += hit ? 1 : 0;
  }
  const double p_sampled = static_cast<double>(shared) / pair_samples;
  return std::abs(p_sampled - p_exact) / p_exact;
}

/// Fig. 4 detection-channel run: attacker triple timing inbound broadcast
/// deliveries, optionally with a file-serving victim sharing one machine.
/// Returns the attacker's inter-delivery series (guest clock, ms).
std::vector<double> detection_run(Report& r, hypervisor::PolicyKind kind,
                                  bool victim_present, std::uint64_t seed) {
  core::CloudConfig cfg;
  cfg.seed = seed;
  cfg.policy = hypervisor::PolicyConfig{kind};
  const bool replicated = hypervisor::policy_replicated(kind);
  // Host-load model of the timing experiments: a bursting coresident
  // victim perturbs the Dom0 packet path and the vCPU scheduler.
  cfg.machine_template.vmm_load_delay = Duration::millis(3);
  cfg.machine_template.contention_alpha = 0.8;
  cfg.machine_template.preempt_wait = Duration::millis(12);
  cfg.machine_template.preempt_interval_instr = 5'000'000;
  if (replicated) cfg.policy.stopwatch.delta_d = Duration::millis(30);
  cfg.policy.deterland.delta_d = Duration::millis(30);
  std::vector<int> attacker_machines = {0};
  std::vector<int> victim_machines = {0};
  cfg.machine_count = 1;
  if (replicated) {
    cfg.machine_count = 5;
    attacker_machines = {0, 1, 2};
    victim_machines = {2, 3, 4};
  }

  auto cloud = make_cloud(r, cfg);
  std::vector<core::VmHandle> vms;
  vms.push_back(add_vm(
      *cloud, "attacker",
      [] { return std::make_unique<workload::AttackerProbeProgram>(); },
      attacker_machines));
  std::unique_ptr<workload::BackgroundBroadcaster> bcast;
  spanned(SpanId::kWorkloadDrive, [&] {
    const NodeId sink =
        cloud->add_external_node("sink", [](const net::Packet&) {});
    if (victim_present) {
      workload::VictimServerProgram::Config vc;
      vc.sink = sink;
      vc.packets_per_unit = 3;
      vc.disk_probability = 0.12;
      vc.disk_bytes = 32 * 1024;
      vms.push_back(add_vm(
          *cloud, "victim",
          [vc] { return std::make_unique<workload::VictimServerProgram>(vc); },
          victim_machines));
    }
    bcast = std::make_unique<workload::BackgroundBroadcaster>(
        *cloud, "bcast", cloud->vm_addr(vms[0]), 80.0, seed ^ 0x55);
  });
  start(*cloud);
  spanned(SpanId::kWorkloadDrive, [&] { bcast->start(); });
  run_for(r, *cloud, Duration::seconds(20));
  harvest(r, *cloud, vms);

  std::vector<double> series;
  {
    const ScopedSpan scope(SpanId::kAnalysis);
    auto& probe = static_cast<workload::AttackerProbeProgram&>(
        cloud->replica(vms[0], 0).program());
    series = probe.inter_arrival_ms();
    r.check("detection_replicas_deterministic",
            cloud->replicas_deterministic(vms[0]));
  }
  bcast.reset();
  destroy(cloud);
  return series;
}

}  // namespace

void fleet_echo(Report& r, std::uint64_t seed, int sim_shards) {
  constexpr int kMachines = 501;
  constexpr int kCapacity = (kMachines - 1) / 2;
  constexpr int kDriven = 24;
  constexpr double kRateHz = 40.0;
  constexpr double kRunS = 2.0;
  constexpr int kPairSamples = 20000;

  const std::vector<placement::Triangle> triangles =
      spanned(SpanId::kPlacementConstruct,
              [] { return placement::theorem2_placement(kMachines,
                                                        kCapacity); });

  core::CloudConfig cfg;
  cfg.seed = seed;
  cfg.policy = core::Policy::kStopWatch;
  cfg.replica_count = 3;
  cfg.machine_count = kMachines;
  cfg.wiring = core::WiringMode::kLazy;
  cfg.sim_shards = sim_shards;
  auto cloud = make_cloud(r, cfg);
  std::vector<core::VmHandle> vms;
  vms.reserve(triangles.size());
  for (const placement::Triangle& t : triangles) {
    vms.push_back(add_vm(*cloud, "vm" + std::to_string(vms.size()),
                         [] { return std::make_unique<EchoProgram>(); },
                         {t.a, t.b, t.c}));
  }

  // Driven sample and its request schedule: the generated inputs.
  std::vector<std::size_t> driven;
  std::vector<core::VmHandle> driven_handles;
  std::vector<EchoBook> books(kDriven);
  std::unordered_map<std::uint32_t, std::size_t> slot_of_addr;
  NodeId client{};
  spanned(SpanId::kWorkloadDrive, [&] {
    Rng rng(SplitMix64(seed ^ 0xD21BE2ULL).next());
    std::set<std::size_t> picked;
    while (picked.size() < kDriven) {
      picked.insert(static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(vms.size()) - 1)));
    }
    driven.assign(picked.begin(), picked.end());
    for (std::size_t s = 0; s < driven.size(); ++s) {
      driven_handles.push_back(vms[driven[s]]);
      slot_of_addr[cloud->vm_addr(vms[driven[s]]).value] = s;
      r.digest(driven[s]);
      double t_s = 0.001;  // small head start past start()
      while (true) {
        t_s += rng.exponential(kRateHz);
        if (t_s >= kRunS) break;
        const std::int64_t due = Duration::from_seconds_f(t_s).ns;
        books[s].due_ns.push_back(due);
        r.digest(static_cast<std::uint64_t>(due));
      }
      books[s].replied.assign(books[s].due_ns.size(), false);
    }
    client = cloud->add_external_node("client", [&](const net::Packet& pkt) {
      const auto it = slot_of_addr.find(pkt.src.value);
      if (it == slot_of_addr.end()) return;
      EchoBook& book = books[it->second];
      if (pkt.seq >= book.due_ns.size() || book.replied[pkt.seq]) return;
      book.replied[pkt.seq] = true;
      ++r.completed;
      r.latencies_ms.push_back(
          static_cast<double>(cloud->simulator().now().ns -
                              book.due_ns[pkt.seq]) /
          1e6);
    });
  });

  activate(*cloud, driven_handles);
  start(*cloud);
  spanned(SpanId::kWorkloadDrive, [&] {
    core::Cloud* c = cloud.get();
    for (std::size_t s = 0; s < driven.size(); ++s) {
      const core::VmHandle vm = driven_handles[s];
      for (std::uint64_t seq = 0; seq < books[s].due_ns.size(); ++seq) {
        ++r.issued;
        c->simulator().schedule_at(
            RealTime{} + Duration::nanos(books[s].due_ns[seq]),
            [c, client, vm, seq] {
              net::Packet req;
              req.dst = c->vm_addr(vm);
              req.kind = net::PacketKind::kRequest;
              req.seq = seq;
              req.size_bytes = 90;
              c->send_external(client, req);
            });
      }
    }
  });
  // The last requests are due just before kRunS; 500 ms drains them.
  run_for(r, *cloud, Duration::from_seconds_f(kRunS) + Duration::millis(500));
  harvest(r, *cloud, driven_handles);

  const bool valid = spanned(SpanId::kPlacementValidate, [&] {
    return placement::valid_placement(triangles, kMachines, kCapacity);
  });
  {
    const ScopedSpan scope(SpanId::kAnalysis);
    r.check("placement_valid", valid);
    r.check("placement_meets_theorem2_bound",
            static_cast<long>(triangles.size()) ==
                placement::theorem2_bound(kMachines, kCapacity));
    r.check("coresidence_within_25pct",
            coresidence_rel_error(triangles, kMachines, seed, kPairSamples) <=
                0.25);
    bool deterministic = true;
    bool on_assigned = true;
    for (const core::VmHandle vm : driven_handles) {
      deterministic = deterministic && cloud->replicas_deterministic(vm);
      const auto& assigned = cloud->topology().vm_machines(vm.index);
      for (int i = 0; i < cloud->replicas_of(vm); ++i) {
        const auto hosted = static_cast<int>(
            cloud->replica(vm, i).machine().id().value);
        on_assigned = on_assigned &&
                      hosted == assigned[static_cast<std::size_t>(i)];
      }
    }
    r.check("driven_replicas_deterministic", deterministic);
    r.check("replicas_on_assigned_machines", on_assigned);
    r.check("only_driven_vms_materialized",
            cloud->topology().materialized_vm_count() == driven.size());
  }
  destroy(cloud);
}

void nfs_ramp(Report& r, std::uint64_t seed) {
  constexpr double kRates[] = {25, 50, 100, 200, 400};
  constexpr int kRunS = 15;
  const core::Policy kPolicies[] = {core::Policy::kBaselineXen,
                                    core::Policy::kStopWatch};
  SplitMix64 seeds(seed ^ 0x4E465352ULL);
  for (const double rate : kRates) {
    for (const core::Policy policy : kPolicies) {
      const std::uint64_t cloud_seed = seeds.next();
      const std::uint64_t gen_seed = seeds.next();
      r.digest(cloud_seed);
      r.digest(gen_seed);
      core::CloudConfig cfg;
      cfg.seed = cloud_seed;
      cfg.policy = policy;
      cfg.machine_count = 3;
      cfg.wiring = core::WiringMode::kLazy;
      // Write-cached, short-stroked server disk; ~10 ms client RTT.
      cfg.machine_template.disk_seek_min = Duration::micros(500);
      cfg.machine_template.disk_seek_max = Duration::millis(3);
      if (hypervisor::policy_replicated(policy)) {
        cfg.policy.stopwatch.delta_n = Duration::millis(7);
        cfg.policy.stopwatch.delta_d = Duration::millis(10);
      }
      cfg.client_link.base_latency = Duration::millis(5);
      auto cloud = make_cloud(r, cfg);
      const core::VmHandle vm = add_vm(
          *cloud, "nfs",
          [] { return std::make_unique<workload::NfsServerProgram>(); },
          {0, 1, 2});
      auto gen = spanned(SpanId::kWorkloadDrive, [&] {
        return std::make_unique<workload::NfsLoadGenerator>(
            *cloud, "nhfsstone", cloud->vm_addr(vm), /*processes=*/5, rate,
            workload::paper_nfs_mix(), gen_seed);
      });
      activate(*cloud, {vm});
      start(*cloud);
      spanned(SpanId::kWorkloadDrive, [&] { gen->start(); });
      run_for(r, *cloud, Duration::seconds(kRunS));
      // Open loop: stop issuing, then let in-flight operations drain.
      gen->stop();
      run_for(r, *cloud, Duration::seconds(1));
      harvest(r, *cloud, {vm});

      {
        const ScopedSpan scope(SpanId::kAnalysis);
        r.issued += gen->ops_issued();
        r.completed += gen->ops_completed();
        r.latencies_ms.insert(r.latencies_ms.end(), gen->latencies_ms().begin(),
                              gen->latencies_ms().end());
        const transport::TcpStats& ts = gen->tcp_stats();
        r.add("transport.packets", static_cast<double>(
                                       ts.data_packets_sent +
                                       ts.ack_packets_sent +
                                       ts.control_packets_sent +
                                       ts.packets_received));
        r.add("transport.retransmissions",
              static_cast<double>(ts.retransmissions));
        r.check("nfs_replicas_deterministic",
                cloud->replicas_deterministic(vm));
      }
      spanned(SpanId::kWorkloadDrive, [&] { gen.reset(); });
      destroy(cloud);
    }
  }
}

void policy_sweep(Report& r, std::uint64_t seed) {
  // 100 downloads per size class and backend: 1,200 downloads, so the
  // pooled p99 has at least ten samples beyond it.
  constexpr int kTrialsPerClass = 100;
  constexpr int kBins = 12;
  constexpr std::uint32_t kSizes[] = {24 << 10, 72 << 10, 144 << 10};
  std::uint64_t index = 0;
  std::int64_t request = 0;
  for (const std::string& choice : hypervisor::policy_choices()) {
    const hypervisor::PolicyKind kind =
        hypervisor::policy_kind_from_choice(choice);
    const std::uint64_t backend_seed =
        SplitMix64(seed ^ ((++index) * 0x9e3779b97f4aULL)).next();
    r.digest(backend_seed);

    // Detection channel: observations to detect the victim at 0.99.
    const std::vector<double> victim =
        detection_run(r, kind, true, backend_seed);
    const std::vector<double> clean =
        detection_run(r, kind, false, backend_seed);
    const long obs99 = spanned(SpanId::kDetect, [&] {
      const stats::Ecdf null_ecdf(clean);
      const stats::Ecdf victim_ecdf(victim);
      return stats::ChiSquaredDetector::from_samples(
                 null_ecdf, victim_ecdf, 40, stats::Binning::kEquiprobable)
          .observations_needed(0.99);
    });
    r.check("obs99_positive_" + choice, obs99 > 0);
    r.add("stats.obs99_" + choice, static_cast<double>(obs99));

    // Egress channel: secret file-size class -> download span at egress.
    core::CloudConfig cfg;
    cfg.seed = backend_seed ^ 0xF11E;
    cfg.policy = hypervisor::PolicyConfig{kind};
    cfg.machine_count = 3;
    auto cloud = make_cloud(r, cfg);
    const core::VmHandle vm = add_vm(
        *cloud, "fileserver",
        [] { return std::make_unique<workload::FileServerProgram>(); },
        {0, 1, 2});
    auto client = spanned(SpanId::kWorkloadDrive, [&] {
      return std::make_unique<workload::FileDownloadClient>(
          *cloud, "client", cloud->vm_addr(vm),
          workload::FileDownloadClient::Protocol::kUdp);
    });
    leakage::ObservationLog log(
        leakage::ObservationLogConfig{cfg.seed, /*reservoir_capacity=*/8192});
    auto tap = std::make_unique<leakage::TimingTap>(
        *cloud, vm, leakage::TimingTap::Mode::kTrialDuration, log);
    start(*cloud);
    Rng secrets(SplitMix64(backend_seed ^ 0x5EC2E7ULL).next());
    for (int t = 0; t < kTrialsPerClass; ++t) {
      // Each round serves every class once, in a seed-drawn order.
      int order[3] = {0, 1, 2};
      for (int i = 2; i > 0; --i) {
        std::swap(order[i], order[secrets.uniform_int(0, i)]);
      }
      for (const int c : order) {
        r.digest(static_cast<std::uint64_t>(c));
        recorder().set_request(request++);
        const ScopedSpan scope(SpanId::kWorkloadDrive);
        tap->begin_trial(c);
        bool done = false;
        ++r.issued;
        client->download(kSizes[c], [&](Duration d) {
          done = true;
          ++r.completed;
          r.latencies_ms.push_back(d.to_millis());
        });
        while (!done) run_for(r, *cloud, Duration::millis(50));
        tap->end_trial();
      }
    }
    recorder().set_request(-1);
    harvest(r, *cloud, {vm});

    const std::vector<double> edges = spanned(SpanId::kBinEdges, [&] {
      return leakage::make_bin_edges(log.pooled_samples(),
                                     leakage::BinningMode::kAdaptive, kBins);
    });
    const leakage::JointDistribution joint =
        spanned(SpanId::kJoint,
                [&] { return leakage::joint_from_log(log, edges); });
    const double mi = spanned(SpanId::kMutualInfo, [&] {
      return leakage::mutual_information_miller_madow(joint);
    });
    {
      const ScopedSpan scope(SpanId::kAnalysis);
      r.add("leakage.samples", static_cast<double>(log.total_count()));
      r.add("leakage.bits_" + choice, mi);
      r.check("mi_within_log2_classes_" + choice,
              std::isfinite(mi) && mi >= 0.0 && mi <= std::log2(3.0) + 1e-9);
      r.check("fileserver_replicas_deterministic_" + choice,
              cloud->replicas_deterministic(vm));
    }
    tap.reset();
    spanned(SpanId::kWorkloadDrive, [&] { client.reset(); });
    destroy(cloud);
  }
}

void fleet(Report& r, std::uint64_t seed) {
  fleet_echo(r, seed, 1);
  const Report seq = r;
  fleet_echo(r, seed, 2);
  const ScopedSpan scope(SpanId::kAnalysis);
  // The sharded run appended its latencies and added its counts to the
  // sequential run's: both halves must be equal.
  const std::size_t n = seq.latencies_ms.size();
  bool same = r.issued == 2 * seq.issued &&
              r.completed == 2 * seq.completed &&
              r.latencies_ms.size() == 2 * n &&
              std::equal(seq.latencies_ms.begin(), seq.latencies_ms.end(),
                         r.latencies_ms.begin() + static_cast<long>(n));
  for (const auto& [name, v] : seq.sim) {
    if (name == "sim.events_executed" || name.starts_with("net.frames_")) {
      same = same && r.sim.at(name) == 2 * v;
    }
  }
  r.check("sharded_matches_sequential", same);
}

void nfs_policy(Report& r, std::uint64_t seed) {
  nfs_ramp(r, seed);
  policy_sweep(r, seed);
}

}  // namespace perfbench
