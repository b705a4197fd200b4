#!/usr/bin/env python3
"""Host-time benchmark of the NOVA simulator.

Builds the benchmark runner (perfbench/CMakeLists.txt, which compiles
the simulator libraries from src/) into .bench_build/perfbench, runs one
workload for a time budget, checks every answer and prints each metric
with its unit. The last line of stdout is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones; with --trace 1 the
per-layer ones (from traced repetitions, each paired with an untraced
one), and the spans are written as Chrome trace-event JSON.

Usage, from the repository root:

    python3 perfbench/run.py --workload sssp_rmat_1gpn [--seed 1]
        [--seconds 30] [--trace 0|1]

README.md in this directory explains the workloads and metrics.
"""

import argparse
import hashlib
import json
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"

WORKLOADS = ("sssp_rmat_1gpn", "pr_rmat_8gpn_t1", "serve_rmat_mixed")
DEFAULT_SEED = 1
# Seconds the runner process may take before it is killed; it stops
# starting repetitions at 140 s on its own.
RUNNER_TIMEOUT = 170
BUILD_TIMEOUT = 840

# End-to-end metrics: name -> unit.
END_TO_END = {
    "slowdown_vs_reference": "x",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "success_ratio": "ratio",
}

# Per-layer metrics: name -> unit.
PER_LAYER = {
    "wall_s": "s",
    "medges_per_s": "Medges/s",
    "queries_per_s": "1/s",
    "graph.generate_s": "s",
    "graph.map_s": "s",
    "core.construct_s": "s",
    "core.run_s": "s",
    "core.ns_per_event": "ns",
    "core.cpu_util": "ratio",
    "sim.events": "count",
    "noc.messages": "count",
    "noc.cross_gpn_messages": "count",
    "noc.bytes": "bytes",
    "noc.send_rejects": "count",
    "mem.cache_hit_ratio": "ratio",
    "mem.cache_accesses": "count",
    "mem.mshr_rejects": "count",
    "mem.edge_row_hit_ratio": "ratio",
    "mem.edge_row_accesses": "count",
    "mem.vertex_bytes": "bytes",
    "mem.edge_bytes": "bytes",
    "core.vmu_spill_ratio": "ratio",
    "core.vmu_inserts": "count",
    "core.vmu_useful_prefetch_ratio": "ratio",
    "core.vmu_prefetch_bytes": "bytes",
    "core.mgu_send_stalls": "count",
    "core.coalescing_rate": "ratio",
    "core.messages_processed": "count",
    "core.traversed_edges": "count",
    "core.sim_ms": "ms",
    "core.sim_gteps": "GTEPS",
    "workloads.validate_s": "s",
    "workloads.reference_s": "s",
    "core.serving.run_s": "s",
    "core.serving.dispatches": "count",
    "core.serving.host_ms_per_dispatch": "ms",
    "core.serving.offered": "count",
    "core.serving.served": "count",
    "core.serving.shed": "count",
    "core.serving.sim_latency_p50_ms": "ms",
    "core.serving.sim_latency_p99_ms": "ms",
    "core.serving.latency_samples": "count",
    "graph.self_s": "s",
    "core.self_s": "s",
    "workloads.self_s": "s",
    "unattributed_s": "s",
    "unattributed_ratio": "ratio",
    "trace.overhead_s": "s",
    "trace.overhead_ratio": "ratio",
    "trace.spans": "count",
}

# Each ratio is printed next to the count it is a share of.
RATIO_BASES = {
    "mem.cache_hit_ratio": "mem.cache_accesses",
    "mem.edge_row_hit_ratio": "mem.edge_row_accesses",
    "core.vmu_spill_ratio": "core.vmu_inserts",
    "core.vmu_useful_prefetch_ratio": "core.vmu_prefetch_bytes",
    "core.coalescing_rate": "core.messages_processed",
    "unattributed_ratio": "wall_s",
    "trace.overhead_ratio": "wall_s",
    "core.cpu_util": "core.run_s",
    "success_ratio": "attempted",
    "slowdown_vs_reference": "workloads.reference_s",
}


def fail(message):
    """Exit non-zero without printing a result line."""
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def build():
    """Configure (once) and build the runner; return its path."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"no simulator sources under {ROOT / 'src'}")
    if shutil.which("cmake") is None:
        fail("cmake not found")
    if not (BUILD / "CMakeCache.txt").is_file():
        cmd = ["cmake", "-S", str(HERE), "-B", str(BUILD),
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        run_build_step(cmd)
    run_build_step(["cmake", "--build", str(BUILD), "--target",
                    "perfbench_runner", "-j", "4"])
    return BUILD / "perfbench_runner"


def run_build_step(cmd):
    try:
        # Build output goes to stderr: stdout ends with the result line.
        proc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=BUILD_TIMEOUT)
    except subprocess.TimeoutExpired:
        fail(f"build step timed out: {' '.join(cmd)}")
    if proc.returncode != 0:
        fail(f"build step failed: {' '.join(cmd)}")


def source_hash():
    """Digest of everything the runner binary is built from."""
    h = hashlib.sha256()
    paths = sorted(p for p in (ROOT / "src").rglob("*") if p.is_file())
    paths += [HERE / "CMakeLists.txt", HERE / "runner.cc"]
    for path in paths:
        h.update(str(path.relative_to(ROOT)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def run_runner(runner, args):
    cmd = [str(runner), f"--workload={args.workload}",
           f"--seed={args.seed}", f"--seconds={args.seconds}",
           f"--trace={args.trace}"]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                            cwd=ROOT)
    try:
        out, _ = proc.communicate(timeout=RUNNER_TIMEOUT)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        fail("runner timed out")
    if proc.returncode != 0:
        fail(f"runner exited with code {proc.returncode}")
    reps, spans, process = [], [], None
    for line in out.splitlines():
        record = json.loads(line)
        kind = record.pop("type")
        if kind == "rep":
            reps.append(record)
        elif kind == "span":
            spans.append(record)
        elif kind == "process":
            process = record
    if not reps or process is None:
        fail("runner printed no repetitions")
    return reps, spans, process


def model_counters(rep):
    """The repetition's simulated counters: everything but host data."""
    return {k: v for k, v in rep["values"].items()
            if not k.startswith("host.")}


def check(workload, reps):
    """Count attempted and failed operations; mark drifting reps.

    An engine repetition is one operation: it fails when it misses the
    reference, raises, or its simulated counters differ from another
    repetition of the same instance (in this run, or in an earlier run
    of the same sources, through the determinism record). A serving
    repetition has one operation per offered query: a query fails when
    it is shed or still pending, and all of them fail when the campaign
    does.
    """
    record_path = BUILD / "determinism" / f"{source_hash()}.json"
    try:
        record = json.loads(record_path.read_text())
    except (OSError, ValueError):
        record = {}
    serve = workload.startswith("serve")
    attempted = failed = 0
    errors = []
    for rep in reps:
        key = f"{workload}/{rep['seed']}"
        counters = model_counters(rep)
        if rep["ok"]:
            previous = record.setdefault(key, counters)
            if previous != counters:
                rep["ok"] = False
                rep["error"] = "simulated counters drifted between " \
                    "repetitions of the same input"
        values = rep["values"]
        ops = max(1, int(values.get("core.serving.offered", 1))) \
            if serve else 1
        attempted += ops
        if not rep["ok"]:
            failed += ops
            errors.append(f"instance {rep['instance']} (seed "
                          f"{rep['seed']}): {rep['error']}")
        elif serve:
            failed += int(values["core.serving.shed"] +
                          values["core.serving.pending"])
    record_path.parent.mkdir(parents=True, exist_ok=True)
    record_path.write_text(json.dumps(record, sort_keys=True))
    return attempted, failed, errors


def median(reps, fn):
    return statistics.median(fn(r) for r in reps)


def first_per_instance(reps):
    """One repetition per instance (their model counters are equal)."""
    seen = {}
    for rep in reps:
        seen.setdefault(rep["instance"], rep)
    return list(seen.values())


def per_instance(reps, name):
    """Mean over the run's instances of one model counter."""
    return statistics.fmean(r["values"].get(name, 0.0)
                            for r in first_per_instance(reps))


def run_seconds(workload, r):
    """Host seconds of the simulator call: NovaSystem or ServingSystem."""
    serve = workload.startswith("serve")
    return r["times"]["core.serving.run" if serve else "core.run"]


def queries(workload, r):
    """Served queries; one engine run counts as one query."""
    serve = workload.startswith("serve")
    return r["values"]["core.serving.served"] if serve else 1


def host_rates(workload, reps):
    """Absolute host figures: medians over the given repetitions."""
    serve = workload.startswith("serve")

    def edges(r):
        v = r["values"]
        # ServingReport has no traversed-edge count: each served query
        # counts as one pass over its E-edge resident graph.
        return v["core.serving.served"] * v["graph.edges"] if serve \
            else v["core.traversed_edges"]

    return {
        "wall_s": median(reps, lambda r: r["times"]["wall"]),
        "medges_per_s": median(
            reps, lambda r: edges(r) / run_seconds(workload, r) / 1e6),
        "queries_per_s": median(
            reps, lambda r: queries(workload, r) / run_seconds(workload, r)),
    }


def end_to_end(workload, reps, process, attempted, failed):
    """Medians over every timed repetition of the run; see README.md.

    slowdown_vs_reference divides the simulator's host time per query
    by the sequential reference's host time per call on the same input,
    measured in the same repetition, so a change in the host's speed
    cancels out.
    """
    answered = [r for r in reps if queries(workload, r)]
    return {
        "slowdown_vs_reference": median(
            answered, lambda r: run_seconds(workload, r) /
            queries(workload, r) / r["values"]["host.reference_call_s"]),
        "setup_s": median(reps, lambda r: r["times"]["setup"]),
        "peak_rss_mb": process["peak_rss_kb"] / 1024,
        "success_ratio": 1 - failed / attempted,
    }


def self_times(spans):
    """Per traced repetition: self seconds per layer and unattributed."""
    out = {}
    for s in spans:
        rep = out.setdefault(s["rep"], {"graph": 0.0, "core": 0.0,
                                        "workloads": 0.0, "wall": 0.0,
                                        "spans": 0})
        seconds = (s["end_us"] - s["start_us"]) / 1e6
        rep["spans"] += 1
        if s["parent"] < 0:
            rep["wall"] = seconds
        else:
            rep[s["name"].split(".")[0]] += seconds
    for rep in out.values():
        rep["unattributed"] = rep["wall"] - (rep["graph"] + rep["core"] +
                                            rep["workloads"])
    return out


def per_layer(workload, reps, spans):
    """Timings are medians over traced repetitions, counters are means
    over instances, ratios are taken of those means."""
    traced = [r for r in reps if r["traced"]]
    serve = workload.startswith("serve")

    def time_of(name):
        return median(traced, lambda r: r["times"].get(name, 0.0))

    m = {}
    m["graph.generate_s"] = time_of("graph.generate")
    m["graph.map_s"] = time_of("graph.map")
    m["core.construct_s"] = time_of("core.serving.construct" if serve
                                    else "core.construct")
    m["workloads.validate_s"] = time_of("workloads.validate")
    m["workloads.reference_s"] = median(
        traced, lambda r: r["values"]["host.reference_call_s"])
    m["core.run_s"] = run_s = time_of("core.run")
    threads = traced[0]["values"].get("host.threads", 1)
    m["core.cpu_util"] = median(
        traced, lambda r: r["values"].get("host.run_cpu_s", 0.0) /
        (r["times"]["core.run"] * threads) if "core.run" in r["times"]
        else 0.0)
    for name in ("sim.events", "noc.messages", "noc.cross_gpn_messages",
                 "noc.bytes", "noc.send_rejects", "mem.mshr_rejects",
                 "mem.vertex_bytes", "mem.edge_bytes",
                 "core.mgu_send_stalls", "core.messages_processed",
                 "core.traversed_edges", "core.sim_ms", "core.sim_gteps",
                 "core.serving.dispatches", "core.serving.offered",
                 "core.serving.served", "core.serving.shed",
                 "core.serving.sim_latency_p50_ms",
                 "core.serving.sim_latency_p99_ms",
                 "core.serving.latency_samples"):
        m[name] = per_instance(traced, name)
    m["core.ns_per_event"] = median(
        traced, lambda r: r["times"]["core.run"] /
        r["values"]["sim.events"] * 1e9
        if r["values"].get("sim.events") else 0.0)

    def share(part, rest):
        p = per_instance(traced, part)
        total = p + per_instance(traced, rest)
        return (p / total if total else 0.0), total

    m["mem.cache_hit_ratio"], m["mem.cache_accesses"] = share(
        "mem.cache_hits", "mem.cache_misses")
    m["mem.edge_row_hit_ratio"], m["mem.edge_row_accesses"] = share(
        "mem.edge_row_hits", "mem.edge_row_misses")
    m["core.vmu_spill_ratio"], m["core.vmu_inserts"] = share(
        "core.vmu_spills", "core.vmu_direct_inserts")
    m["core.vmu_useful_prefetch_ratio"], m["core.vmu_prefetch_bytes"] = \
        share("core.vmu_useful_prefetch_bytes",
              "core.vmu_wasteful_prefetch_bytes")
    processed = m["core.messages_processed"]
    m["core.coalescing_rate"] = (
        per_instance(traced, "core.coalesced_updates") / processed
        if processed else 0.0)

    m["core.serving.run_s"] = time_of("core.serving.run")
    m["core.serving.host_ms_per_dispatch"] = median(
        traced, lambda r: r["times"]["core.serving.run"] /
        r["values"]["core.serving.dispatches"] * 1e3
        if r["values"].get("core.serving.dispatches") else 0.0)

    # Self time per layer and the unattributed rest, from the spans.
    per_rep = self_times(spans)
    for layer in ("graph", "core", "workloads", "unattributed"):
        key = "unattributed_s" if layer == "unattributed" \
            else f"{layer}.self_s"
        m[key] = statistics.median(t[layer] for t in per_rep.values())
    wall = time_of("wall")
    m["unattributed_ratio"] = m["unattributed_s"] / wall
    # The runner pairs each traced repetition with an untraced one of
    # the same instance.
    pairs = {}
    for r in reps:
        pairs.setdefault(r["pair"], {})[r["traced"]] = r["times"]["wall"]
    diffs = [p[True] - p[False] for p in pairs.values() if len(p) == 2]
    m["trace.overhead_s"] = statistics.median(diffs) if diffs else 0.0
    m["trace.overhead_ratio"] = m["trace.overhead_s"] / wall
    m["trace.spans"] = statistics.median(t["spans"]
                                         for t in per_rep.values())
    # Absolute host figures from the untraced half of each pair.
    m.update(host_rates(workload, [r for r in reps if not r["traced"]]))
    return m


def write_chrome_trace(workload, seed, spans, reps):
    """Spans as Chrome trace-event JSON (opens in Perfetto)."""
    instance = {r["rep"]: (r["instance"], r["seed"]) for r in reps}
    events = []
    for s in spans:
        inst, inst_seed = instance[s["rep"]]
        parent = spans[s["parent"]]["name"] if s["parent"] >= 0 else None
        events.append({
            "name": s["name"], "cat": s["name"].split(".")[0], "ph": "X",
            "ts": s["start_us"], "dur": s["end_us"] - s["start_us"],
            "pid": 1, "tid": 1,
            "args": {"run_id": s["rep"], "instance": inst,
                     "input_seed": inst_seed, "parent": parent},
        })
    path = BUILD / "traces" / f"{workload}-seed{seed}.json"
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps({"traceEvents": events,
                                "displayTimeUnit": "ms"}))
    return path


def print_metrics(metrics, units, base_values):
    for name, value in metrics.items():
        base = RATIO_BASES.get(name)
        note = ""
        if base is not None and base in base_values:
            note = f"  (of {base_values[base]:.6g} {base})"
        print(f"  {name:<36} {value:>16.6g} {units[name]}{note}")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not 0 <= args.seed < 2 ** 40:
        fail("--seed must be in [0, 2^40)")

    runner = build()
    reps, spans, process = run_runner(runner, args)
    attempted, failed, errors = check(args.workload, reps)
    for e in errors:
        print(f"FAILED {e}", file=sys.stderr)

    print(f"perfbench {args.workload} seed={args.seed} reps={len(reps)} "
          f"instances={len(first_per_instance(reps))}")
    # Timings and counters come from the timed repetitions that passed.
    passed = [r for r in reps if r["ok"] and not r["warmup"]]
    if not passed or (args.trace and not any(r["traced"] for r in passed)):
        fail("no repetition passed its checks")
    if args.trace:
        layer = per_layer(args.workload, passed, spans)
        path = write_chrome_trace(args.workload, args.seed, spans, reps)
        print(f"trace: {path.relative_to(ROOT)} ({len(spans)} spans)")
        metrics = {k: layer[k] for k in PER_LAYER}
        print_metrics(metrics, PER_LAYER, layer)
        units = PER_LAYER
    else:
        metrics = end_to_end(args.workload, passed, process, attempted,
                             failed)
        reference_s = median(passed,
                             lambda r: r["values"]["host.reference_call_s"])
        print_metrics(metrics, END_TO_END,
                      {"attempted": attempted,
                       "workloads.reference_s": reference_s})
        units = END_TO_END
    print(f"  failed_ratio {failed / attempted:.6g} "
          f"(of {attempted} attempted)")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]}
                    for k, v in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
