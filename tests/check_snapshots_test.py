#!/usr/bin/env python3
"""Tests tools/check_snapshots.py on the fixture pairs in snapshot_fixtures/.

base.json is the snapshot of every pair. host.json differs from it only
in the host fields (wall_s, peak_rss_bytes, run_peak_rss_bytes) at every
level; sim.json differs only in one simulated number, by one ulp.

Usage: tests/check_snapshots_test.py [-v]
"""
import pathlib
import subprocess
import sys
import unittest

HERE = pathlib.Path(__file__).resolve().parent
FIXTURES = HERE / "snapshot_fixtures"
CHECKER = HERE.parent / "tools" / "check_snapshots.py"


def check(*names):
    paths = [str(FIXTURES / n) for n in names]
    return subprocess.run([sys.executable, str(CHECKER), *paths],
                          capture_output=True, text=True)


class CheckSnapshots(unittest.TestCase):
    def test_identical_pair_passes(self):
        r = check("base.json", "base.json")
        self.assertEqual(r.returncode, 0, r.stdout + r.stderr)
        self.assertEqual(r.stdout, "")

    def test_host_fields_are_ignored(self):
        r = check("base.json", "host.json")
        self.assertEqual(r.returncode, 0, r.stdout + r.stderr)

    def test_simulated_difference_fails_and_names_its_path(self):
        r = check("base.json", "sim.json")
        self.assertNotEqual(r.returncode, 0)
        self.assertIn("1 differing paths", r.stdout)
        self.assertIn(".points[1].write_mbs:", r.stdout)
        self.assertIn("base.json", r.stderr)

    def test_one_stale_pair_fails_the_run(self):
        r = check("base.json", "host.json", "base.json", "sim.json")
        self.assertNotEqual(r.returncode, 0)
        self.assertIn(".points[1].write_mbs:", r.stdout)


if __name__ == "__main__":
    unittest.main()
