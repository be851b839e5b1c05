#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of the StopWatch cloud simulator.

    python3 perfbench/run.py --workload <name|all> --seed <n>
                             --seconds <s> --trace <0|1>

Run from the repository root. The first call configures and builds
perfbench_driver (the simulator library from src/ plus the workload
driver) under .bench_build/perfbench; later calls rebuild only what changed.

There are two workloads, each a sequence of parts run in one process:
fleet (fleet_echo on one simulator core, then on two) and nfs_policy
(nfs_ramp, then policy_sweep). One run repeats the workload, one process
per repetition, for about --seconds (at least three repetitions), and
reports medians over the repetitions. Untraced runs also
start a few processes per repetition that stop at their first run_for, so
that setup_s is the median of many set-ups. Every repetition
uses the same seed, so its simulated-time results must repeat exactly; the
run checks that, and the driver's own correctness checks, and exits 1 when
any fails. The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}.

Host time is reported against a fixed reference kernel (perfbench_reference,
which uses nothing from src/), run before the first repetition and after
every untraced one: wall_ref_x is the median repetition wall time over the
median reference time. This host's speed drifts over minutes, and the
ratio cancels much of that drift; raw seconds are per-layer host.wall_s.

--trace 0 reports the end-to-end metrics. --trace 1 alternates untraced and
traced repetitions and reports the per-layer metrics: span self times of
every call into src/ (spans are written to
.bench_build/perfbench/spans-<workload>.json), the in-kernel profiler's
phase self times, and the simulator's own counters summed over every cloud
the workload builds.
"""

import argparse
import json
import math
import os
import shutil
import subprocess
import sys
import time
from statistics import median

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
DRIVER = os.path.join(BUILD, "perfbench_driver")
REFERENCE = os.path.join(BUILD, "perfbench_reference")

# Steps of the reference kernel: about 0.45 s on the 4-vCPU host NOTES.md
# describes, a tenth of a repetition.
REFERENCE_STEPS = 1_200_000

WORKLOADS = ("fleet", "nfs_policy")

# Extra set-up-only processes per repetition: set-up is short, so a run
# samples it more often than the whole workload to report a steady median.
SETUPS_PER_REP = 4

# Span self times reported per layer (driver span names, summed).
SPAN_METRICS = {
    "placement.construct_s": ["placement.theorem2_placement"],
    "placement.validate_s": ["placement.valid_placement"],
    "core.construct_s": ["core.Cloud"],
    "topology.add_vm_s": ["topology.add_vm"],
    "topology.activate_s": ["topology.activate_sharded", "topology.start"],
    "core.run_s": ["core.run_for"],
    "core.teardown_s": ["core.halt_all", "core.~Cloud"],
    "obs.snapshot_s": ["obs.observability"],
    "workload.drive_s": ["workload.drive"],
    "leakage.estimate_s": [
        "leakage.make_bin_edges",
        "leakage.joint_from_log",
        "leakage.mutual_information_miller_madow",
    ],
    "stats.detect_s": ["stats.ChiSquaredDetector"],
    "bench.analysis_s": ["bench.analysis"],
}

# In-kernel obs::Profiler phases (self time).
PROF_METRICS = {
    "prof.sharded.barrier_wait_s": "sharded.barrier_wait",
    "prof.sharded.merge_s": "sharded.merge",
    "prof.policy.release_s": "policy.release",
    "prof.sim.harvest_s": "sim.harvest",
}

FRAME_CLASSES = (
    "guest_packet", "ingress_copy", "proposal", "sync_beacon",
    "epoch_report", "tunneled_output", "mcast_nak", "mcast_spm",
)

# Simulated-time counters reported as they are (summed over clouds).
SIM_COUNTERS = (
    "sim.events_executed", "sim.events_scheduled", "sim.events_rescheduled",
    "sim.events_cancelled", "sim.heap_fallbacks", "sim.due_fallback_pushes",
    "sim.placed_far", "mem.arena_bytes", "mem.live_events_highwater",
    "sharded.barriers", "sharded.cross_scheduled",
    "sharded.adaptive_extensions", "topology.materialized_vms",
    "topology.network_nodes", "net.frames_dropped", "policy.egress_releases",
    "policy.replica_aggregations", "policy.deliveries_quantized",
    "hypervisor.net_deliveries", "hypervisor.disk_deliveries",
    "hypervisor.timer_injections", "hypervisor.stall_ms",
    "transport.retransmissions", "leakage.samples",
) + tuple("net.frames_sent." + c for c in FRAME_CLASSES)

END_TO_END_UNITS = {
    "wall_ref_x": "x",
    "setup_s": "s",
    "requests_per_ref": "1/ref",
    "peak_rss_mb": "MiB",
    "completed_frac": "frac",
    "sim_latency_p50_ms": "ms",
    "sim_latency_p99_ms": "ms",
}


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    if not os.path.isdir(os.path.join(ROOT, "src")):
        log("perfbench: no src/ beside perfbench/; nothing to build")
        return False
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            return False
    jobs = str(min(4, os.cpu_count() or 1))
    cmd = ["cmake", "--build", BUILD, "-j", jobs]
    return subprocess.run(cmd, stdout=sys.stderr).returncode == 0


def spawn(cmd):
    """Runs the driver to completion.

    Returns its parsed report (the last line of its output), exit code,
    host wall time in ns and resource usage.
    """
    t0 = time.monotonic_ns()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE)
    try:
        out = proc.stdout.read()
        _, status, usage = os.wait4(proc.pid, 0)
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    wall_ns = time.monotonic_ns() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    proc.stdout.close()
    if proc.returncode != 0 and not out.strip():
        raise RuntimeError(f"{cmd[2]}: driver exited {proc.returncode}")
    rep = json.loads(out.decode().strip().splitlines()[-1])
    # first_run_ns and t0 both read CLOCK_MONOTONIC.
    rep["setup_s"] = (rep["first_run_ns"] - t0) / 1e9
    return rep, proc.returncode, wall_ns, usage


def run_rep(workload, seed, trace):
    """Runs the workload once; returns its report plus host wall and RSS."""
    cmd = [DRIVER, "--workload", workload, "--seed", str(seed)]
    if trace:
        cmd += ["--trace-out", os.path.join(BUILD, f"spans-{workload}.json")]
    rep, code, wall_ns, usage = spawn(cmd)
    rep["exit_code"] = code
    rep["wall_s"] = wall_ns / 1e9
    rep["peak_rss_mb"] = usage.ru_maxrss / 1024.0  # ru_maxrss is in KiB
    return rep


def run_setup(workload, seed):
    """Set-up time of one process that stops at its first run_for."""
    return spawn([DRIVER, "--workload", workload, "--seed", str(seed),
                  "--setup-only", "1"])[0]["setup_s"]


def run_reference():
    """Host seconds of the fixed reference kernel."""
    proc = subprocess.run([REFERENCE, str(REFERENCE_STEPS)],
                          capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"reference kernel exited {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])["reference_s"]


def sim_fingerprint(rep):
    keys = ("issued", "completed", "latency_samples", "beyond_p99",
            "p50_ms", "p99_ms", "inputs_digest", "sim")
    return json.dumps({k: rep[k] for k in keys}, sort_keys=True)


def problems(reps):
    """Correctness failures across a run's repetitions."""
    found = []
    for rep in reps:
        if rep["exit_code"] != 0:
            found.append(f"driver exited {rep['exit_code']}")
        found += [f"check failed: {k}" for k, ok in rep["checks"].items()
                  if not ok]
        values = [rep["p50_ms"], rep["p99_ms"], *rep["sim"].values()]
        if not all(isinstance(v, (int, float)) and math.isfinite(v)
                   for v in values):
            found.append("non-finite simulated metric")
    if len({sim_fingerprint(r) for r in reps}) > 1:
        found.append("simulated-time results differ between repetitions "
                     "of one seed")
    return sorted(set(found))


def end_to_end(reps, setups, refs):
    first = reps[0]
    wall_ref_x = median([r["wall_s"] for r in reps]) / median(refs)
    return {
        "wall_ref_x": wall_ref_x,
        "setup_s": median([r["setup_s"] for r in reps] + setups),
        "requests_per_ref": first["completed"] / wall_ref_x,
        "peak_rss_mb": median([r["peak_rss_mb"] for r in reps]),
        "completed_frac": first["completed"] / max(first["issued"], 1),
        "sim_latency_p50_ms": first["p50_ms"],
        "sim_latency_p99_ms": first["p99_ms"],
    }


def layer_values(rep):
    """Per-layer metrics of one traced repetition."""
    sim = rep["sim"]
    spans = rep["spans"]
    completed = max(rep["completed"], 1)
    out = {name: sum(spans[s]["self_s"] for s in parts)
           for name, parts in SPAN_METRICS.items()}
    out.update({name: rep["prof"][phase]
                for name, phase in PROF_METRICS.items()})
    out.update({name: sim.get(name, 0.0) for name in SIM_COUNTERS})
    out["hypervisor.divergences"] = sim["topology.divergences"]
    events = sim["sim.events_executed"]
    out["core.ns_per_event"] = out["core.run_s"] * 1e9 / max(events, 1)
    out["sim.events_per_request"] = events / completed
    out["net.frames_per_request"] = sum(
        sim["net.frames_sent." + c] for c in FRAME_CLASSES) / completed
    out["transport.packets_per_op"] = (
        sim.get("transport.packets", 0.0) / completed)
    out["workload.issued"] = rep["issued"]
    out["workload.completed"] = rep["completed"]
    out["workload.failed_frac"] = (
        (rep["issued"] - rep["completed"]) / max(rep["issued"], 1))
    out["workload.latency_samples"] = rep["latency_samples"]
    out["workload.beyond_p99"] = rep["beyond_p99"]
    attributed = sum(v["self_s"] for k, v in spans.items()
                     if k != "bench.workload")
    out["trace.coverage"] = attributed / rep["wall_s"]
    out["trace.spans"] = rep["span_count"]
    return out


def per_layer(untraced, traced, refs):
    per_rep = [layer_values(r) for r in traced]
    out = {name: median([v[name] for v in per_rep]) for name in per_rep[0]}
    out["host.wall_s"] = median([r["wall_s"] for r in untraced])
    out["host.reference_s"] = median(refs)
    out["trace.overhead_x"] = (median([r["wall_s"] for r in traced]) /
                               median([r["wall_s"] for r in untraced]))
    return out


def layer_unit(name):
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ref"):
        return "1/ref"
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("_x"):
        return "x"
    if name == "core.ns_per_event":
        return "ns"
    if name.startswith("mem."):
        return "bytes" if name.endswith("_bytes") else "count"
    if name.endswith("_frac") or name == "trace.coverage":
        return "frac"
    if name.endswith("_per_request") or name.endswith("_per_op"):
        return "count/req"
    return "count"


def run_workload(workload, seed, seconds, trace):
    """One measured run of one workload: (values, units, first rep, bad)."""
    untraced, traced, setups = [], [], []
    start = time.monotonic()
    # The reference kernel runs before the first repetition and after each
    # untraced one, so that its median and the repetitions' median see the
    # same host.
    refs = [run_reference()]
    # At least three repetitions (medians); after that, another one only
    # if it should end within `seconds`, judged by the last one's time.
    while True:
        rep_start = time.monotonic()
        untraced.append(run_rep(workload, seed, False))
        refs.append(run_reference())
        if trace:
            traced.append(run_rep(workload, seed, True))
        else:
            setups += [run_setup(workload, seed)
                       for _ in range(SETUPS_PER_REP)]
        now = time.monotonic()
        if (len(untraced) + len(traced) >= 3 and
                now - start + (now - rep_start) > seconds):
            break
    reps = untraced + traced
    for r in reps:
        log(f"perfbench: {workload} rep: wall {r['wall_s']:.3f} s,"
            f" setup {r['setup_s']:.4f} s, rss {r['peak_rss_mb']:.1f} MiB")
    bad = problems(reps)
    for p in bad:
        log(f"perfbench: {workload}: {p}")

    first = reps[0]
    if trace:
        values = per_layer(untraced, traced, refs)
        units = {name: layer_unit(name) for name in values}
    else:
        values = end_to_end(untraced, setups, refs)
        units = END_TO_END_UNITS
    print(f"# {workload} seed={seed}: {len(untraced)} untraced"
          f" + {len(traced)} traced repetitions; host wall median"
          f" {median([r['wall_s'] for r in untraced]):.4f} s, reference"
          f" median {median(refs):.4f} s; latency"
          f" n={first['latency_samples']},"
          f" {first['beyond_p99']} samples beyond p99")
    for name in sorted(values):
        print(f"{workload}: {name} = {values[name]:.6g} {units[name]}")
    return values, units, first, bad


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args()
    if args.seed < 0:
        ap.error("--seed must be >= 0")

    if not build():
        log("perfbench: build failed")
        return 2

    # "all" runs every workload in turn; its metrics are prefixed by name.
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    metrics, attempted, failed, correct = {}, 0, 0, True
    for workload in workloads:
        try:
            values, units, first, bad = run_workload(
                workload, args.seed, args.seconds, args.trace)
        except RuntimeError as e:
            log(f"perfbench: {e}")
            return 1
        prefix = workload + "." if args.workload == "all" else ""
        metrics.update({prefix + name: {"value": values[name],
                                        "unit": units[name]}
                        for name in sorted(values)})
        attempted += first["issued"]
        failed += first["issued"] - first["completed"]
        correct = correct and not bad
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
