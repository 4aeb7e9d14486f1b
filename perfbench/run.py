#!/usr/bin/env python3
"""Builds and runs one workload of the MCCIO collective-I/O benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload ior-1080 --seed 20120512 \
        --seconds 27 --trace 0

The first run builds the simulator and the benchmark driver with CMake
into $CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench); later
runs reuse that build. Human-readable notes go to stdout first; the last
line of stdout is one JSON object with the keys correct, attempted,
failed and metrics. --trace 0 reports the end-to-end metrics of
BENCHMARK.json, --trace 1 its per-layer metrics. README.md in this
directory documents the workloads and metrics.
"""

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("ior-1080", "collperf-3d", "ior-scale", "ior-pressure")
DEFAULT_SEED = 20120512
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def build(bdir):
    """Configures once, then lets the build tool decide what is stale."""
    steps = []
    if not os.path.exists(os.path.join(bdir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", bdir,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", bdir, "-j", jobs])
    for cmd in steps:
        try:
            subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                           check=True, timeout=BUILD_TIMEOUT_S)
        except (OSError, subprocess.SubprocessError) as e:
            fail(f"build failed: {e}")
    return os.path.join(bdir, "mccio_perfbench")


def expected_metrics(trace):
    """(name, unit) pairs BENCHMARK.json asks for in this mode."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return [(m["name"], m["unit"])
            for m in spec["per_layer" if trace else "end_to_end"]]


def run(args, binary, bdir, spans_path):
    """Runs the driver once; returns its result document."""
    out = os.path.join(bdir, f"result-{args.workload}-{args.trace}.json")
    cmd = [binary, f"--workload={args.workload}", f"--seed={args.seed}",
           f"--trace={args.trace}", f"--out={out}"]
    if args.trace:
        cmd.append(f"--trace-out={spans_path}")
    if args.tiny:
        cmd.append("--tiny")
    if os.path.exists(out):
        os.remove(out)
    try:
        subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr, check=True,
                       timeout=RUN_TIMEOUT_S)
    except (OSError, subprocess.SubprocessError) as e:
        fail(f"benchmark driver failed: {e}")
    with open(out) as f:
        return json.load(f)


def end_to_end(args, binary, bdir):
    """One-pass driver processes while the next is predicted to end inside
    --seconds (at least one), merged into one result document.

    The process, not the pass, is the unit of repetition: on a shared
    host passes inside one process agree far better than separate
    processes do, so a median over processes is the steadier figure.
    Host metrics are medians over the processes; the simulated ones must
    repeat bit for bit in every process (the replay check).
    """
    docs = []
    start = time.monotonic()
    while True:
        began = time.monotonic()
        docs.append(run(args, binary, bdir, None))
        took = time.monotonic() - began
        if time.monotonic() - start + took > args.seconds:
            break
    doc = dict(docs[0])
    doc["attempted"] = sum(d["attempted"] for d in docs)
    doc["failed"] = sum(d["failed"] for d in docs)
    doc["failures"] = [f for d in docs for f in d["failures"]]
    cells = docs[0]["info"]["cells"]
    doc["checks"] = {"replay": all(d["info"]["cells"] == cells for d in docs)}
    metrics = dict(doc["metrics"])
    for name in ("wall_s", "setup_s", "peak_rss_mb"):
        metrics[name] = dict(metrics[name], value=statistics.median(
            d["metrics"][name]["value"] for d in docs))
    doc["metrics"] = metrics
    doc["info"] = dict(doc["info"], processes=len(docs),
                       process_wall_s=[d["metrics"]["wall_s"]["value"]
                                       for d in docs])
    return doc


def select_metrics(doc, trace):
    """The metrics BENCHMARK.json names, each checked for unit and value."""
    produced = doc["metrics"]
    metrics = {}
    for name, unit in expected_metrics(trace):
        m = produced.get(name)
        if m is None:
            fail(f"metric {name} not produced")
        if m["unit"] != unit:
            fail(f"metric {name} has unit {m['unit']}, expected {unit}")
        if not math.isfinite(m["value"]):
            fail(f"metric {name} is {m['value']}")
        metrics[name] = {"value": m["value"], "unit": unit}
    return metrics


def self_times(path):
    """Self time per kind of span in a traced run's span file, seconds."""
    with open(path) as f:
        spans = json.load(f)["spans"]
    kinds = {}
    for s in spans:
        name = s["name"]
        if name.startswith(("setup", "plan ")):
            kind = name
        elif name.endswith((" write", " read")):
            kind = "collective " + name.rsplit(" ", 1)[1]
            kinds["driver slices"] = (kinds.get("driver slices", 0.0)
                                      + s["driver_slices_s"])
        elif name == "traced pass":
            continue
        else:
            kind = "simulation outside set-up and collectives"
        kinds[kind] = kinds.get(kind, 0.0) + s["self_s"]
    return kinds


def report(doc, spans_path):
    """Human-readable notes ahead of the result line."""
    print(f"workload {doc['workload']} seed {doc['seed']} "
          f"ranks {doc['ranks']}: {doc['attempted']} operations, "
          f"{doc['failed']} failed")
    for name, ok in doc["checks"].items():
        print(f"check {name}: {'ok' if ok else 'FAILED'}")
    for failure in doc["failures"]:
        print(f"failure: {failure}")
    info = doc["info"]
    if "processes" in info:
        walls = ", ".join(f"{w:.3f}" for w in info["process_wall_s"])
        print(f"processes: {info['processes']} (wall s: {walls})")
    for name, e in info.get("model_error", {}).items():
        print(f"model error {name}: measured {e['measured']:.4g}, "
              f"paper {e['paper']:.4g}, relative {e['relative_error']:+.1%}")
    if "traced_wall_s" in info:
        print(f"trace overhead: traced {info['traced_wall_s']:.3f} s - "
              f"untraced {info['untraced_wall_s']:.3f} s = "
              f"{info['traced_wall_s'] - info['untraced_wall_s']:+.3f} s")
        for kind, seconds in sorted(self_times(spans_path).items()):
            print(f"self time {kind}: {seconds:.3f} s")


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=27.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true",
                   help="shrink every workload to a few nodes (self-test)")
    args = p.parse_args()

    bdir = build_dir()
    binary = build(bdir)
    spans_path = os.path.join(bdir, f"spans-{args.workload}-1.json")
    if args.trace:
        doc = run(args, binary, bdir, spans_path)
    else:
        doc = end_to_end(args, binary, bdir)
    metrics = select_metrics(doc, args.trace)
    report(doc, spans_path)
    correct = (doc["failed"] == 0 and all(doc["checks"].values())
               and doc["metrics"].get("verify.findings",
                                      {"value": 0})["value"] == 0)
    print(json.dumps({"correct": correct, "attempted": doc["attempted"],
                      "failed": doc["failed"], "metrics": metrics}))


if __name__ == "__main__":
    main()
