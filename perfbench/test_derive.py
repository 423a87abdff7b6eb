"""Self-tests for the benchmark's derivation code.

    python3 -m unittest discover -s perfbench -p 'test_*.py'

They need neither a build nor the simulator.
"""

import json
import os
import sys
import unittest

sys.dont_write_bytecode = True
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import derive  # noqa: E402
import run  # noqa: E402


class LadderTest(unittest.TestCase):
    def test_each_layer_is_the_difference_of_adjacent_rungs(self):
        times = {"emulate-apponly": 0.5, "emulate": 2.5,
                 "inorder-nocache": 4.5, "inorder-cache": 6.0,
                 "ooo-nocache": 5.5, "ooo-cache": 9.5}
        m = derive.ladder_layers(times, insts=1_000_000_000, invocations=4000)
        self.assertAlmostEqual(m["os.plan_us_per_service"], 500.0)
        self.assertAlmostEqual(m["os.plan_frac_of_emulate"], 0.8)
        self.assertAlmostEqual(m["sim.emulate_ns_per_inst"], 2.5)
        self.assertAlmostEqual(m["sim.inorder_ns_per_inst"], 2.0)
        self.assertAlmostEqual(m["sim.ooo_ns_per_inst"], 3.0)
        self.assertAlmostEqual(m["mem.ns_per_inst"], 4.0)

    def test_no_services_means_no_planning_cost(self):
        times = dict.fromkeys(derive.LADDER, 1.0)
        m = derive.ladder_layers(times, insts=10, invocations=0)
        self.assertEqual(m["os.plan_us_per_service"], 0.0)


class Eq10Test(unittest.TestCase):
    def test_nothing_predicted_is_no_speedup(self):
        self.assertEqual(derive.eq10_speedup(1000, 0, 133.0), 1.0)

    def test_everything_predicted_is_r(self):
        self.assertAlmostEqual(derive.eq10_speedup(1000, 1000, 40.0), 40.0)

    def test_paper_form(self):
        # N / (X/R + N - X) with N = 100, X = 75, R = 25: 100 / 28.
        self.assertAlmostEqual(derive.eq10_speedup(100, 75, 25.0),
                               100.0 / 28.0)

    def test_residual_is_zero_when_the_model_explains_the_run(self):
        n, x = 1000, 600
        t_full, t_emul, busy = 10.0, 0.5, 0.25
        t_accel = x * t_emul / n + (n - x) * t_full / n + busy
        self.assertAlmostEqual(
            derive.eq10_residual_s(t_accel, t_full, t_emul, n, x, busy), 0.0)

    def test_residual_is_the_unexplained_time(self):
        r = derive.eq10_residual_s(t_accel=7.0, t_full=10.0, t_emulate=1.0,
                                   n=100, x=50, core_busy_s=0.5)
        # Model: 50 * 0.01 + 50 * 0.1 = 5.5 s, plus 0.5 s busy.
        self.assertAlmostEqual(r, 1.0)


class ErrorTest(unittest.TestCase):
    def test_segment_error_does_not_cancel(self):
        full = [100, 50, 50]
        accel = [100, 60, 40]
        self.assertAlmostEqual(derive.segment_error_pct(full, accel), 10.0)
        self.assertEqual(derive.total_error_pct(200, 200), 0.0)

    def test_exact_match_reads_half_a_cycle(self):
        self.assertAlmostEqual(derive.segment_error_pct([400, 100], [400, 100]),
                               0.1)

    def test_mismatched_segments_are_rejected(self):
        with self.assertRaises(ValueError):
            derive.segment_error_pct([1, 2], [1, 2, 3])

    def test_pooled_rms(self):
        # One group of two errors, +0.1 and -0.1: mean 0, sd sqrt(0.02).
        self.assertAlmostEqual(
            derive.pooled_rms_pct([(2, 0.0, 0.02 ** 0.5)]), 10.0)
        # A constant error of 0.2 has rms 0.2 whatever n is.
        self.assertAlmostEqual(
            derive.pooled_rms_pct([(1, 0.2, 0.0), (3, 0.2, 0.0)]), 20.0)


class FailRatioTest(unittest.TestCase):
    def test_never_zero(self):
        self.assertGreater(derive.fail_ratio(0, 100), 0.0)

    def test_synthetic_failing_operation_raises_it(self):
        bench = run.Bench(build_dir="unused", work_dir="unused",
                          traced=False)
        for _ in range(20):
            bench.op(True, "passing check")
        clean = derive.fail_ratio(bench.failed, bench.attempted)
        stderr, sys.stderr = sys.stderr, open(os.devnull, "w")
        try:
            bench.op(False, "synthetic failure")
        finally:
            sys.stderr.close()
            sys.stderr = stderr
        self.assertEqual((bench.attempted, bench.failed), (21, 1))
        dirty = derive.fail_ratio(bench.failed, bench.attempted)
        self.assertGreater(dirty, 1.5 * clean)


class ManifestTest(unittest.TestCase):
    def test_benchmark_json_lists_exactly_the_reported_metrics(self):
        path = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                            os.pardir, "BENCHMARK.json")
        with open(path) as f:
            manifest = json.load(f)
        self.assertEqual(
            {m["name"]: m["unit"] for m in manifest["end_to_end"]},
            run.E2E_UNITS)
        self.assertEqual(
            {m["name"]: m["unit"] for m in manifest["per_layer"]},
            run.LAYER_UNITS)
        self.assertEqual([w["name"] for w in manifest["workloads"]],
                         list(run.WORKLOADS))


class DocumentTest(unittest.TestCase):
    def test_strip_volatile_ignores_only_wall_clock_fields(self):
        a = {"cells": [{"x": 1, "wall_s": 1.0}], "timing": {"wall_s": 3}}
        b = {"cells": [{"x": 1, "wall_s": 2.0}], "timing": {"wall_s": 4}}
        c = {"cells": [{"x": 2, "wall_s": 1.0}], "timing": {"wall_s": 3}}
        self.assertEqual(derive.strip_volatile(a), derive.strip_volatile(b))
        self.assertNotEqual(derive.strip_volatile(a), derive.strip_volatile(c))


if __name__ == "__main__":
    unittest.main()
