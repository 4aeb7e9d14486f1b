#!/usr/bin/env python3
"""Compares bench --json outputs against their committed perf/ snapshots.

Usage:
  tools/check_snapshots.py SNAPSHOT OUTPUT [SNAPSHOT OUTPUT ...]

Each pair is compared with the host fields (wall_s, peak_rss_bytes,
run_peak_rss_bytes) dropped at every level. A pair that differs prints
its differing JSON paths (the first 40); the script exits non-zero
naming every stale snapshot, and 0 when all pairs match.
"""
import json
import sys

HOST = {"wall_s", "peak_rss_bytes", "run_peak_rss_bytes"}
ABSENT = object()


def strip(o):
    if isinstance(o, dict):
        return {k: strip(v) for k, v in o.items() if k not in HOST}
    if isinstance(o, list):
        return [strip(v) for v in o]
    return o


def show(v):
    return "(absent)" if v is ABSENT else json.dumps(v)


def diff(a, b, path, out):
    if isinstance(a, dict) and isinstance(b, dict):
        for k in list(a) + [k for k in b if k not in a]:
            diff(a.get(k, ABSENT), b.get(k, ABSENT), f"{path}.{k}", out)
    elif isinstance(a, list) and isinstance(b, list):
        for i in range(max(len(a), len(b))):
            diff(a[i] if i < len(a) else ABSENT,
                 b[i] if i < len(b) else ABSENT, f"{path}[{i}]", out)
    elif a is ABSENT or b is ABSENT or a != b:
        out.append(f"{path or '.'}: {show(a)} → {show(b)}")


def main(args):
    if not args or len(args) % 2 != 0:
        sys.exit(__doc__.strip())
    stale = []
    for snap, out in zip(args[0::2], args[1::2]):
        want, got = (strip(json.load(open(p))) for p in (snap, out))
        if want != got:
            paths = []
            diff(want, got, "", paths)
            print(f"{snap} vs {out}: {len(paths)} differing paths")
            for line in paths[:40]:
                print("  " + line)
            if len(paths) > 40:
                print(f"  ... {len(paths) - 40} more")
            stale.append(snap)
    if stale:
        sys.exit("output differs from its perf/ snapshot: " + ", ".join(stale))


if __name__ == "__main__":
    main(sys.argv[1:])
