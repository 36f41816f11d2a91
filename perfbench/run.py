#!/usr/bin/env python3
"""The simulator's benchmark: one command, three workloads, every check.

    python3 perfbench/run.py --workload p2p_paper --seed 1 --seconds 25 --trace 0

Run from the root of a checkout. The first run builds perfbench/ (CMake,
Release) into .bench_build/perfbench; later runs only rebuild what changed.

A run starts one fresh process per pass (so each pass's peak RSS is its own)
and keeps starting passes until --seconds is used up. Host timings are medians
over the passes; simulated results and work counts are deterministic, and
every pass must reproduce them exactly.

Host times are calibrated: each pass also times a fixed reference kernel
(reference.cpp) just before and after its workload, and every host time of
the pass is scaled by REFERENCE_NOMINAL_S / (the kernel's measured time). On a
shared host whose speed drifts by up to 1.8x within minutes, this keeps the
figures comparable across runs; the raw wall time and the kernel's time are
reported too (host.wall_s, host.reference_s).

  --trace 0  end-to-end metrics: host_s, setup_s, peak_rss_mb
  --trace 1  per-layer metrics. Traced passes (Telemetry on, every call the
             rank programs make timed) alternate with untraced ones; the two
             must give identical simulated results, and the ratio of their
             host times is trace.overhead_ratio.

A human-readable table goes to stdout first; the last line of stdout is one
JSON object: {"correct", "attempted", "failed", "metrics"}.
"""
import argparse
import json
import os
import subprocess
import sys
import time
from statistics import median, quantiles

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
WORKLOADS = ("p2p_paper", "coll_256", "apps_64_lossy")
PASS_TIMEOUT_S = 150
MIN_PASSES = 3  # per kind: untraced, and traced on --trace 1
# The reference kernel's time on a quiet host (4-core Xeon VM): host_s is the
# pass's wall time at the speed where the kernel takes this long.
REFERENCE_NOMINAL_S = 0.08

END_TO_END = [("host_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MiB")]

# Per-layer metrics: (name, unit, where the value comes from).
#   det    deterministic simulated result or Machine::stats count
#   telem  Telemetry-derived value or queue-depth sample (traced passes)
#   host   host timing, median over the traced passes
PER_LAYER = [
    ("host.wall_s", "s", None),
    ("host.reference_s", "s", None),
    ("sim_elapsed_ms", "sim_ms", "det"),
    ("sim_lat_8b_us", "sim_us", "det"),
    ("sim_lat_irq_8b_us", "sim_us", "det"),
    ("sim_bw_1mib_mbs", "MB/s", "det"),
    ("fail_ratio", "ratio", None),
    ("sim.events", "count", "det"),
    ("sim.host_ns_per_event", "ns", None),
    ("sim.queue_depth_max", "count", "telem"),
    ("sim.inline_action_ratio", "ratio", "det"),
    ("sim.pool_misses", "count", "det"),
    ("sim.fallback_allocs", "count", "det"),
    ("net.packets", "count", "det"),
    ("net.bytes", "bytes", "det"),
    ("net.dropped", "count", "det"),
    ("net.duplicated", "count", "det"),
    ("net.frame_recycle_ratio", "ratio", "det"),
    ("hal.packets_sent", "count", "det"),
    ("hal.staged_bytes", "bytes", "det"),
    ("hal.interrupts", "count", "det"),
    ("hal.irq_service_ns_p50", "sim_ns", "telem"),
    ("hal.rdma_writes", "count", "det"),
    ("hal.rdma_reads", "count", "det"),
    ("pipes.acks", "count", "det"),
    ("pipes.retransmits", "count", "det"),
    ("pipes.dup_deliveries", "count", "det"),
    ("pipes.reacks_coalesced", "count", "det"),
    ("lapi.messages", "count", "det"),
    ("lapi.acks", "count", "det"),
    ("lapi.retransmits", "count", "det"),
    ("lapi.dup_deliveries", "count", "det"),
    ("lapi.reacks_coalesced", "count", "det"),
    ("lapi.completion_thread_dispatches", "count", "det"),
    ("lapi.completion_inline_runs", "count", "det"),
    ("lapi.host_ns_per_msg", "ns", "host"),
    ("mpci.eager_sends", "count", "det"),
    ("mpci.rendezvous_sends", "count", "det"),
    ("mpci.early_arrivals", "count", "det"),
    ("mpci.ea_fallbacks", "count", "det"),
    ("mpci.match_attempts", "count", "telem"),
    ("mpci.match_scanned_mean", "entries", "telem"),
    ("mpci.match_scanned_p99", "entries", "telem"),
    ("mpi.calls", "count", "telem"),
    ("mpi.host_ns_per_msg", "ns", "host"),
    ("mpi.p2p_sim_us_p50", "sim_us", "telem"),
    ("mpi.p2p_sim_us_p99", "sim_us", "telem"),
    ("mpi.coll_sim_us_p50", "sim_us", "telem"),
    ("mpi.coll_sim_us_p99", "sim_us", "telem"),
    ("mpi.comm_frac", "ratio", "telem"),
    ("nas.is.sim_ms", "sim_ms", "det"),
    ("nas.cg.sim_ms", "sim_ms", "det"),
    ("nas.lu.sim_ms", "sim_ms", "det"),
    ("nas.ft.sim_ms", "sim_ms", "det"),
    ("trace.overhead_ratio", "ratio", None),
]

# The paper's headline numbers, taken from the p2p_paper pass's per-point
# results (MPI-LAPI Enhanced): name -> (unit, key in the pass's results).
PAPER = {
    "sim_lat_8b_us": ("sim_us", "lat_us.enhanced.8"),
    "sim_lat_irq_8b_us": ("sim_us", "irq_lat_us.enhanced.8"),
    "sim_bw_1mib_mbs": ("MB/s", "bw_mbs.enhanced.1048576"),
}


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def build():
    """Configure and build perfbench (incremental after the first run)."""
    steps = [["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"],
             ["cmake", "--build", BUILD, "-j", "4"]]
    for cmd in steps:
        p = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
        if p.returncode != 0:
            sys.stderr.write(p.stdout[-4000:] + p.stderr[-4000:])
            fail("build failed: " + " ".join(cmd))
    return os.path.join(BUILD, "perfbench")


def run_pass(binary, workload, seed, traced):
    cmd = [binary, "pass", "--workload", workload, "--seed", str(seed),
           "--trace", "1" if traced else "0"]
    p = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=PASS_TIMEOUT_S)
    if p.returncode != 0:
        sys.stderr.write(p.stderr)
        fail(f"pass exited with {p.returncode}: " + " ".join(cmd))
    return json.loads(p.stdout.strip().splitlines()[-1])


def selftest(binary, seed):
    """The benchmark's own tests; returns (attempted, failed)."""
    p = subprocess.run([binary, "selftest", "--seed", str(seed)], cwd=ROOT,
                       capture_output=True, text=True, timeout=PASS_TIMEOUT_S)
    if p.returncode not in (0, 1):
        sys.stderr.write(p.stderr)
        fail(f"selftest exited with {p.returncode}")
    lines = [l for l in p.stdout.splitlines() if l.startswith(("PASS", "FAIL"))]
    failures = [l for l in lines if l.startswith("FAIL")]
    for l in failures:
        print(f"selftest: {l}", file=sys.stderr)
    return len(lines), len(failures)


def run_passes(binary, workload, seed, seconds, traced_mode):
    """Alternate pass kinds until the time is used; at least MIN_PASSES each."""
    kinds = [False, True] if traced_mode else [False]
    passes = {k: [] for k in kinds}
    start = time.monotonic()
    i = 0
    while True:
        kind = kinds[i % len(kinds)]
        passes[kind].append(run_pass(binary, workload, seed, kind))
        i += 1
        elapsed = time.monotonic() - start
        enough = all(len(v) >= MIN_PASSES for v in passes.values())
        if enough and i % len(kinds) == 0 and elapsed * (i + len(kinds)) / i > seconds:
            return passes


def calibrate(p):
    """Scale a pass's host times to the reference kernel's nominal speed."""
    scale = REFERENCE_NOMINAL_S / p["ref_s"]
    p["wall_s"] = p["host_s"]
    p["host_s"] *= scale
    p["setup_s"] *= scale
    p["host"] = {k: v * scale for k, v in p["host"].items()}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    binary = build()
    attempted, failed = selftest(binary, args.seed)
    passes = run_passes(binary, args.workload, args.seed, args.seconds, args.trace == 1)
    plain = passes[False]
    traced = passes.get(True, [])
    every = plain + traced
    for p in every:
        calibrate(p)

    for p in every:
        attempted += p["attempted"]
        failed += p["failed"]
        for what in p["failures"]:
            print(f"check failed: {what}", file=sys.stderr)
    # Determinism: every pass reproduces the first one's simulated results and
    # counts, traced or not; traced passes also agree on Telemetry values.
    for p in every[1:]:
        attempted += 1
        if p["det"] != every[0]["det"]:
            failed += 1
            print("check failed: simulated results differ between passes", file=sys.stderr)
    for p in traced[1:]:
        attempted += 1
        if p["telem"] != traced[0]["telem"]:
            failed += 1
            print("check failed: telemetry values differ between traced passes", file=sys.stderr)

    host = [p["host_s"] for p in plain]
    metrics = {}
    if args.trace == 0:
        values = {
            "host_s": median(host),
            "setup_s": median(p["setup_s"] for p in plain),
            "peak_rss_mb": median(p["peak_rss_mb"] for p in plain),
        }
        for name, unit in END_TO_END:
            metrics[name] = {"value": values[name], "unit": unit}
    else:
        det = dict(every[0]["det"])
        for name, (_, key) in PAPER.items():
            det[name] = det.get(key, 0.0)
        telem = traced[0]["telem"]
        derived = {
            "fail_ratio": failed / attempted,
            "sim.host_ns_per_event": median(host) * 1e9 / det["sim.events"],
            "trace.overhead_ratio": median(p["host_s"] for p in traced) / median(host),
            "host.wall_s": median(p["wall_s"] for p in plain),
            "host.reference_s": median(p["ref_s"] for p in plain),
        }
        for name, unit, source in PER_LAYER:
            if source == "det":
                value = det.get(name, 0.0)
            elif source == "telem":
                value = telem[name]
            elif source == "host":
                value = median(p["host"][name] for p in traced)
            else:
                value = derived[name]
            metrics[name] = {"value": value, "unit": unit}

    q = quantiles(host, n=4)
    print(f"workload {args.workload}  seed {args.seed}  passes {len(plain)} untraced"
          + (f", {len(traced)} traced" if traced else ""))
    print(f"  host_s per pass: median {q[1]:.4f}  quartiles {q[0]:.4f}..{q[2]:.4f}  "
          f"max {max(host):.4f}")
    print(f"  uncalibrated wall s per pass: median {median(p['wall_s'] for p in plain):.4f}  "
          f"reference kernel s: median {median(p['ref_s'] for p in plain):.4f}")
    det = every[0]["det"]
    simulated = [("sim_elapsed_ms", "sim_ms", "sim_elapsed_ms")]
    simulated += [(name, unit, key) for name, (unit, key) in PAPER.items() if key in det]
    for name, unit, key in simulated:
        print(f"  {name:40s} {det[key]:.6g} {unit}")
    for name, m in metrics.items():
        print(f"  {name:40s} {m['value']:.6g} {m['unit']}")
    print(f"  checks: {attempted} attempted, {failed} failed (fail_ratio {failed / attempted:.3g})")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))


if __name__ == "__main__":
    main()
