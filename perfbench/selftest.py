#!/usr/bin/env python3
"""Self-test of the benchmark: every workload at a tiny size.

Run from the repository root:

    python3 perfbench/selftest.py

For each workload, on the default seed and on one other, it runs
perfbench/run.py in both modes and checks that the result line names
exactly the metrics BENCHMARK.json lists for that mode, each with its
unit; that every operation passed (correct, no failures); that the
traced run's passivity cross-check held; and that an unknown workload
is refused with a nonzero exit. Exits nonzero on the first failure.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = os.path.join(HERE, "run.py")
WORKLOADS = ("ior-1080", "collperf-3d", "ior-scale", "ior-pressure")
SEEDS = (20120512, 7)


def expect(cond, what):
    if not cond:
        print(f"selftest: FAILED: {what}", file=sys.stderr)
        sys.exit(1)


def run(*args):
    return subprocess.run([sys.executable, RUN, *args], cwd=ROOT,
                          capture_output=True, text=True, timeout=900)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    for workload in WORKLOADS:
        for seed in SEEDS:
            for trace in (0, 1):
                what = f"{workload} seed {seed} trace {trace}"
                p = run("--workload", workload, "--seed", str(seed),
                        "--seconds", "1", "--trace", str(trace), "--tiny")
                expect(p.returncode == 0,
                       f"{what}: exit {p.returncode}\n{p.stderr[-2000:]}")
                lines = p.stdout.strip().splitlines()
                result = json.loads(lines[-1])
                expect(set(result) ==
                       {"correct", "attempted", "failed", "metrics"},
                       f"{what}: result keys {sorted(result)}")
                wanted = spec["per_layer" if trace else "end_to_end"]
                expect([m["name"] for m in wanted] == list(result["metrics"]),
                       f"{what}: metric names differ from BENCHMARK.json")
                for m in wanted:
                    got = result["metrics"][m["name"]]
                    expect(got["unit"] == m["unit"],
                           f"{what}: {m['name']} unit {got['unit']}")
                expect(result["correct"] and result["failed"] == 0 and
                       result["attempted"] > 0,
                       f"{what}: not correct\n{p.stdout}")
                if trace:
                    expect("check passivity: ok" in lines,
                           f"{what}: passivity cross-check\n{p.stdout}")
                    expect(result["metrics"]["verify.findings"]["value"] == 0,
                           f"{what}: audit findings")
                print(f"selftest: {what}: ok "
                      f"({result['attempted']} operations)")
    p = run("--workload", "no-such-workload", "--seconds", "1")
    expect(p.returncode != 0, "unknown workload accepted")
    print("selftest: all passed")


if __name__ == "__main__":
    main()
