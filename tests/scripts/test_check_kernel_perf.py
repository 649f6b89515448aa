#!/usr/bin/env python3
"""Unit tests for scripts/check_kernel_perf.py on synthetic recorded/fresh
BENCH_kernel.json pairs: a fresh file equal to the recorded one passes,
each gated number just past its threshold exits 1, a soak length with no
recorded entry stays informational, and an unoptimized fresh file exits 2.

Run: python3 tests/scripts/test_check_kernel_perf.py
"""
import copy
import json
import os
import subprocess
import sys
import tempfile
import unittest

SCRIPT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "..",
                      "scripts", "check_kernel_perf.py")

RECORDED = {
    "host": {"cores": 1},
    "chain": {
        "events": 200000,
        "events_per_sec": 8.0e7,
        "allocs_per_million_events": 0,
        "events_per_sec_profiled": 6.0e7,
        "profiler_overhead_pct": 120.0,
    },
    "fifo_soak": {
        "400": {
            "cycles_per_sec_disarmed": 1.0e5,
            "allocs_per_million_cycles_disarmed": 2.0e4,
            "cycles_per_sec_monitors": 9.0e4,
            "monitors_overhead_pct": 11.1,
            "cycles_per_sec_telemetry": 3.0e4,
            "telemetry_overhead_pct": 150.0,
        },
    },
    "sampler": {
        "samples": 20000,
        "samples_per_sec_8_sources": 1.0e5,
        "samples_per_sec_64_sources": 5.0e4,
    },
    "campaign": {
        "runs": 9,
        "cycles_per_run": 100,
        "runs_per_sec": {"1": 500.0, "2": 900.0, "4": 1500.0, "8": 1400.0},
    },
}

OPTIMIZED = {"cores": 4, "build_type": "RelWithDebInfo", "sanitizers": "none"}


def fresh_copy() -> dict:
    fresh = copy.deepcopy(RECORDED)
    fresh["host"] = dict(OPTIMIZED)
    return fresh


class CheckKernelPerfTest(unittest.TestCase):
    def setUp(self) -> None:
        self.tmp = tempfile.TemporaryDirectory()
        self.addCleanup(self.tmp.cleanup)

    def run_gate(self, fresh: dict, recorded: dict = RECORDED):
        paths = []
        for name, doc in (("recorded.json", recorded), ("fresh.json", fresh)):
            path = os.path.join(self.tmp.name, name)
            with open(path, "w") as f:
                json.dump(doc, f)
            paths.append(path)
        proc = subprocess.run([sys.executable, SCRIPT] + paths,
                              capture_output=True, text=True)
        return proc.returncode, proc.stdout

    def assert_exit(self, fresh: dict, code: int) -> str:
        got, out = self.run_gate(fresh)
        self.assertEqual(got, code, out)
        return out

    def test_fresh_equal_to_recorded_passes(self):
        out = self.assert_exit(fresh_copy(), 0)
        self.assertNotIn("REGRESSION", out)
        self.assertIn("fifo_soak[400].cycles_per_sec_disarmed", out)
        self.assertIn("campaign_runs_per_sec[1w]", out)

    def test_chain_floor_is_15_percent(self):
        fresh = fresh_copy()
        fresh["chain"]["events_per_sec"] = 8.0e7 * 0.851
        self.assert_exit(fresh, 0)
        fresh["chain"]["events_per_sec"] = 8.0e7 * 0.849
        self.assert_exit(fresh, 1)

    def test_single_worker_campaign_floor_is_15_percent(self):
        fresh = fresh_copy()
        fresh["campaign"]["runs_per_sec"]["1"] = 500.0 * 0.849
        self.assert_exit(fresh, 1)

    def test_multi_worker_campaign_is_informational(self):
        fresh = fresh_copy()
        fresh["campaign"]["runs_per_sec"]["4"] = 1.0
        self.assert_exit(fresh, 0)

    def test_campaign_of_another_shape_is_informational(self):
        fresh = fresh_copy()
        fresh["campaign"]["runs"] = 24
        fresh["campaign"]["runs_per_sec"]["1"] = 1.0
        out = self.assert_exit(fresh, 0)
        self.assertIn("informational: workload shapes differ", out)

    def test_profiler_ceiling_is_recorded_plus_15_percent(self):
        fresh = fresh_copy()
        fresh["chain"]["profiler_overhead_pct"] = 137.9
        self.assert_exit(fresh, 0)
        fresh["chain"]["profiler_overhead_pct"] = 138.1
        self.assert_exit(fresh, 1)

    def test_profiler_ceiling_never_drops_below_100_percent(self):
        recorded = copy.deepcopy(RECORDED)
        recorded["chain"]["profiler_overhead_pct"] = 29.1
        fresh = fresh_copy()
        fresh["chain"]["profiler_overhead_pct"] = 100.0
        self.assertEqual(self.run_gate(fresh, recorded)[0], 0)
        fresh["chain"]["profiler_overhead_pct"] = 100.1
        self.assertEqual(self.run_gate(fresh, recorded)[0], 1)

    def test_disarmed_soak_floor_is_a_fixed_5_percent(self):
        fresh = fresh_copy()
        soak = fresh["fifo_soak"]["400"]
        soak["cycles_per_sec_disarmed"] = 1.0e5 * 0.951
        self.assert_exit(fresh, 0)
        soak["cycles_per_sec_disarmed"] = 1.0e5 * 0.949
        self.assert_exit(fresh, 1)

    def test_alloc_ceiling_is_recorded_plus_15_percent(self):
        fresh = fresh_copy()
        soak = fresh["fifo_soak"]["400"]
        soak["allocs_per_million_cycles_disarmed"] = 2.29e4
        self.assert_exit(fresh, 0)
        soak["allocs_per_million_cycles_disarmed"] = 2.31e4
        self.assert_exit(fresh, 1)

    def test_alloc_ceiling_never_drops_below_1e4(self):
        recorded = copy.deepcopy(RECORDED)
        recorded["fifo_soak"]["400"]["allocs_per_million_cycles_disarmed"] = 0
        fresh = fresh_copy()
        soak = fresh["fifo_soak"]["400"]
        soak["allocs_per_million_cycles_disarmed"] = 1e4
        self.assertEqual(self.run_gate(fresh, recorded)[0], 0)
        soak["allocs_per_million_cycles_disarmed"] = 1.0001e4
        self.assertEqual(self.run_gate(fresh, recorded)[0], 1)

    def test_telemetry_ceiling_is_twice_recorded_and_at_least_200(self):
        fresh = fresh_copy()
        soak = fresh["fifo_soak"]["400"]
        soak["telemetry_overhead_pct"] = 300.0
        self.assert_exit(fresh, 0)
        soak["telemetry_overhead_pct"] = 300.1
        self.assert_exit(fresh, 1)
        recorded = copy.deepcopy(RECORDED)
        recorded["fifo_soak"]["400"]["telemetry_overhead_pct"] = 50.0
        soak["telemetry_overhead_pct"] = 200.0
        self.assertEqual(self.run_gate(fresh, recorded)[0], 0)
        soak["telemetry_overhead_pct"] = 200.1
        self.assertEqual(self.run_gate(fresh, recorded)[0], 1)

    def test_monitors_overhead_and_sampler_are_informational(self):
        fresh = fresh_copy()
        fresh["fifo_soak"]["400"]["monitors_overhead_pct"] = 1e4
        fresh["sampler"]["samples_per_sec_8_sources"] = 1.0
        fresh["sampler"]["samples_per_sec_64_sources"] = 1.0
        self.assert_exit(fresh, 0)

    def test_soak_length_without_recorded_entry_is_informational(self):
        fresh = fresh_copy()
        soak = fresh["fifo_soak"].pop("400")
        soak["cycles_per_sec_disarmed"] = 1.0
        soak["allocs_per_million_cycles_disarmed"] = 1e9
        soak["telemetry_overhead_pct"] = 1e6
        fresh["fifo_soak"]["4000"] = soak
        out = self.assert_exit(fresh, 0)
        self.assertIn("no recorded value for this soak length", out)

    def test_debug_build_exits_2(self):
        fresh = fresh_copy()
        fresh["host"]["build_type"] = "Debug"
        out = self.assert_exit(fresh, 2)
        self.assertIn("'Debug' build", out)

    def test_sanitized_build_exits_2(self):
        fresh = fresh_copy()
        fresh["host"]["sanitizers"] = "address,undefined"
        self.assert_exit(fresh, 2)

    def test_unstamped_fresh_file_exits_2(self):
        fresh = fresh_copy()
        del fresh["host"]
        self.assert_exit(fresh, 2)

    def test_wrong_argument_count_exits_2(self):
        proc = subprocess.run([sys.executable, SCRIPT, "only-one.json"],
                              capture_output=True, text=True)
        self.assertEqual(proc.returncode, 2)
        self.assertIn("Usage", proc.stdout)


if __name__ == "__main__":
    unittest.main()
