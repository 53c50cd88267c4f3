#!/usr/bin/env python3
"""xtrees benchmark: one workload per run, metrics as one JSON line.

    python3 perfbench/run.py --workload census --seed 1 --seconds 35 --trace 0
    python3 perfbench/run.py --smoke

Run from the root of a source checkout; the library is imported from
``src/`` and nothing is built. A run repeats the workload's fixed batch
until ``--seconds`` would be exceeded (at least once), times set-up in a
fresh interpreter after every pass and at least seven times
(``setup_s`` is their median), and reports the median pass, measured in reference slices timed
alongside it (``wall_ref``; see workloads.Batch). With ``--trace 1`` it instead
runs one pass without and one pass with spans around every call into the
library, then the workload's per-layer probes, writes the spans to
``.bench_out/`` and reports the per-layer metrics. The last line of standard output is
``{"correct", "attempted", "failed", "metrics"}``; the line before it
records the environment. ``--smoke`` runs every workload on a tiny batch in
both modes and checks that every metric named in BENCHMARK.json is emitted
with its unit. See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_REPS = 7  # fewest set-ups timed in a run

END_TO_END = {
    "setup_s": "s",
    "wall_ref": "ref",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "kernels.calls": "count",
    "kernels.busy_s": "s",
    "kernels.maps": "count",
    "kernels.maps_per_s": "1/s",
    "kernels.pure.s": "s",
    "kernels.agree": "count",
    "containment.queries": "count",
    "containment.busy_s": "s",
    "containment.found_frac": "ratio",
    "containment.overhead_s": "s",
    "constructions.graphs": "count",
    "constructions.edges": "count",
    "constructions.busy_s": "s",
    "walks.extractions": "count",
    "walks.extract_busy_s": "s",
    "walks.size_over_bound": "ratio",
    "walks.detector_calls": "count",
    "walks.detector_busy_s": "s",
    "order.transforms": "count",
    "order.transform_busy_s": "s",
    "order.chi_calls": "count",
    "order.chi_busy_s": "s",
    "trees.enumerated": "count",
    "trees.enumerate_busy_s": "s",
    "trees.classify_calls": "count",
    "trees.classify_busy_s": "s",
    "trees.decompose_calls": "count",
    "trees.decompose_busy_s": "s",
    "trees.detector_busy_s": "s",
    "solver.solves": "count",
    "solver.nodes": "count",
    "solver.busy_s": "s",
    "solver.nodes_per_s": "1/s",
    "solver.n8_s": "s",
    "embed.calls": "count",
    "embed.busy_s": "s",
    "embed.found_frac": "ratio",
    **{f"verify.c{i:02d}_s": "s" for i in range(1, 12)},
    "verify.serial_sum_s": "s",
    "verify.reported_over_wall": "ratio",
    "cli.import_s": "s",
    "io.roundtrip_s": "s",
    "trace.overhead_frac": "ratio",
}

def _ratio(num, den):
    return num / den if den else 0.0


def environment(seed: int) -> dict:
    from xtrees.kernels import ACTIVE_KERNEL, available_kernels

    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "active_kernel": ACTIVE_KERNEL,
        "available_kernels": sorted(available_kernels()),
        "XTREES_KERNEL": os.environ.get("XTREES_KERNEL"),
        "seed": seed,
        "loadavg_at_start": os.getloadavg()[0],
    }


def time_setup(name: str, seed: int, smoke: bool) -> float:
    """Wall time of a fresh interpreter that imports the library and builds the inputs."""
    from workloads import library_env

    cmd = [sys.executable, str(HERE / "run.py"), "--workload", name,
           "--seed", str(seed), "--setup-only"] + (["--smoke"] if smoke else [])
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, env=library_env(), capture_output=True,
                          text=True, timeout=60)
    wall = time.perf_counter() - t0
    if proc.returncode != 0:
        raise RuntimeError(f"set-up of {name} failed: {proc.stderr.strip()[-500:]}")
    return wall


def run_passes(wl, inputs, tracer, seconds: float, count=None, between=None):
    """Repeat the batch ``count`` times, or while another pass fits in
    ``seconds``; call ``between()`` after each pass."""
    from workloads import Batch

    batches = []
    start = time.perf_counter()
    while True:
        b = Batch(tracer)
        with b.metered():
            wl.run(inputs, b)
        batches.append(b)
        if between is not None:
            between()
        if len(batches) == count or count is None and (
                time.perf_counter() - start + statistics.median(x.work for x in batches) > seconds):
            return batches


def layer_metrics(tr, extra: dict) -> dict:
    c = tr.counts
    kc, kb = tr.busy("kernels")
    cq, cb = tr.busy("containment")
    gn, gb = tr.busy("constructions")
    wx, wxb = tr.busy("walks", {"extract_walk_free"})
    wd, wdb = tr.busy("walks", {"find_forbidden_walk"})
    ot, otb = tr.busy("order", {"mirror", "rotate", "reflect"})
    oc, ocb = tr.busy("order", {"chi_interval", "chi_cyclic"})
    _, teb = tr.busy("trees", {"enumerate_trees"})
    tc, tcb = tr.busy("trees", {"classify_tree"})
    td, tdb = tr.busy("trees", {"z_decompose", "cg_z_decompose"})
    _, tdd = tr.busy("trees", {"detect_crossing_path4", "detect_twin_crossing_paths"})
    solves = {f"extremal_number.n{n}" for n in range(2, 9)}
    ss, sb = tr.busy("solver", solves)
    _, s8 = tr.busy("solver", {"extremal_number.n8"})
    ec, eb = tr.busy("solver", {"embed_dense"})
    checks = {f"verify.c{i:02d}_s": tr.busy("verify", {f"c{i:02d}"})[1] for i in range(1, 12)}
    m = {
        "kernels.calls": kc,
        "kernels.busy_s": kb,
        "kernels.maps": c["kernels.maps"],
        "kernels.maps_per_s": _ratio(c["kernels.maps"], kb),
        "kernels.pure.s": extra.get("kernels.pure.s", 0.0),
        "kernels.agree": c["kernels.agree"],
        "containment.queries": cq,
        "containment.busy_s": cb,
        "containment.found_frac": _ratio(c["containment.found"], cq),
        "containment.overhead_s": extra.get("containment.overhead_s", 0.0),
        "constructions.graphs": gn,
        "constructions.edges": c["constructions.edges"],
        "constructions.busy_s": gb,
        "walks.extractions": wx,
        "walks.extract_busy_s": wxb,
        "walks.size_over_bound": _ratio(c["walks.size"], c["walks.bound"]),
        "walks.detector_calls": wd,
        "walks.detector_busy_s": wdb,
        "order.transforms": ot,
        "order.transform_busy_s": otb,
        "order.chi_calls": oc,
        "order.chi_busy_s": ocb,
        "trees.enumerated": c["trees.enumerated"],
        "trees.enumerate_busy_s": teb,
        "trees.classify_calls": tc,
        "trees.classify_busy_s": tcb,
        "trees.decompose_calls": td,
        "trees.decompose_busy_s": tdb,
        "trees.detector_busy_s": tdd,
        "solver.solves": ss,
        "solver.nodes": c["solver.nodes"],
        "solver.busy_s": sb,
        "solver.nodes_per_s": _ratio(c["solver.nodes"], sb),
        "solver.n8_s": s8,
        "embed.calls": ec,
        "embed.busy_s": eb,
        "embed.found_frac": _ratio(c["embed.found"], ec),
        **checks,
        "verify.serial_sum_s": sum(checks.values()),
        "verify.reported_over_wall": extra.get("verify.reported_over_wall", 0.0),
        "cli.import_s": extra.get("cli.import_s", 0.0),
        "io.roundtrip_s": tr.busy("io")[1],
        "trace.overhead_frac": extra["trace.overhead_frac"],
    }
    return m


def measure(name: str, seed: int, seconds: float, trace: bool, smoke: bool = False):
    """Run one workload; returns (environment, result)."""
    from tracing import Tracer
    from workloads import OUT_DIR, WORKLOADS

    env = environment(seed)
    wl = WORKLOADS[name]
    tr = Tracer(trace)
    inputs = wl.build(seed, tr, smoke)
    # Set-up is timed after every pass, so that its median samples the
    # machine over the whole run, as the passes do.
    setups: list[float] = []

    def set_up():
        setups.append(time_setup(name, seed, smoke))

    # a traced run needs only one untraced pass, as the base of the overhead
    batches = run_passes(wl, inputs, Tracer(False), seconds, 1 if trace or smoke else None,
                         None if trace else set_up)
    attempted = sum(b.attempted for b in batches)
    failures = [f for b in batches for f in b.failures]
    walls = [b.work for b in batches]

    if not trace:
        while len(setups) < (1 if smoke else SETUP_REPS):
            set_up()
        metrics = {
            "setup_s": statistics.median(setups),
            "wall_ref": statistics.median(b.cost for b in batches),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        units = END_TO_END
        times = [t for b in batches for t in b.times]
        env["samples"] = {"passes": len(batches), "items": len(times), "setups": len(setups),
                          "pass_refs": [b.cost for b in batches],
                          "wall_s": statistics.median(walls), "pass_walls": walls,
                          "ref_slice_us": statistics.median(r for b in batches for r in b.ref) * 1e6,
                          "item_p50_ms": statistics.median(times) * 1e3}
        if len(times) >= 100:
            env["samples"]["item_p90_ms"] = statistics.quantiles(
                times, n=10, method="inclusive")[8] * 1e3
    else:
        traced = run_passes(wl, inputs, tr, seconds, 1)[0]
        attempted += traced.attempted
        failures += traced.failures
        probe_attempted, probe_failures, extra = wl.probe(inputs, tr, seed, smoke)
        attempted += probe_attempted
        failures += probe_failures
        extra["trace.overhead_frac"] = traced.work / statistics.median(walls) - 1
        metrics = layer_metrics(tr, extra)
        units = PER_LAYER
        env["self_s"] = tr.self_time()
        env["extra"] = {k: v for k, v in extra.items() if k not in PER_LAYER}
        doc = {"workload": name, "env": env, "metrics": metrics, "spans": tr.dump()}
        OUT_DIR.mkdir(exist_ok=True)
        path = OUT_DIR / f"trace-{name}-seed{seed}.json"
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        env["trace_file"] = str(path.relative_to(ROOT))
    env["fail_frac"] = _ratio(len(failures), attempted)
    env["failures"] = failures[:10]
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": min(len(failures), attempted),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    return env, result


def smoke() -> int:
    """Every workload in both modes on a tiny batch; every named metric must appear."""
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    problems = []
    for w in spec["workloads"]:
        for trace, declared in ((False, spec["end_to_end"]), (True, spec["per_layer"])):
            _, result = measure(w["name"], 1, 0, trace, smoke=True)
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            want = {m["name"]: m["unit"] for m in declared}
            if got != want:
                problems.append(f"{w['name']} trace={int(trace)}: metrics differ from "
                                f"BENCHMARK.json: {sorted(set(got.items()) ^ set(want.items()))}")
            if not result["correct"]:
                problems.append(f"{w['name']} trace={int(trace)}: {result['failed']} failed")
            print(f"smoke {w['name']} trace={int(trace)}: {len(got)} metrics, "
                  f"{result['attempted']} items, {result['failed']} failed")
    for p in problems:
        print(p, file=sys.stderr)
    return 1 if problems else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="xtrees benchmark")
    parser.add_argument("--workload", choices=("census", "structure", "solver"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny batches, check metric names")
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "xtrees" / "__init__.py").is_file() or not (ROOT / "golden").is_dir():
        print(f"error: no xtrees sources (src/xtrees, golden/) under {ROOT}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    if args.setup_only:
        from tracing import Tracer
        from workloads import WORKLOADS

        WORKLOADS[args.workload].build(args.seed, Tracer(False), args.smoke)
        return 0
    if args.smoke:
        return smoke()
    if args.workload is None:
        parser.error("--workload is required")
    env, result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    m = result["metrics"]
    print("summary: " + ", ".join(f"{k}={v['value']:.6g} {v['unit']}" for k, v in m.items())
          + f"; {result['failed']}/{result['attempted']} failed")
    print(json.dumps({"env": env}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
