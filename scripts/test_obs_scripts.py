#!/usr/bin/env python3
"""Unit tests for bench_gate.py and validate_obs.py (stdlib only).

Run directly (`python3 scripts/test_obs_scripts.py`) or via ctest
(registered as test_obs_scripts).  validate_obs.py reports failures by
calling sys.exit, so its checks run through subprocess; bench_gate's
command functions return exit codes and are exercised in-process.
"""
from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile
import unittest

SCRIPTS_DIR = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, SCRIPTS_DIR)

import bench_gate  # noqa: E402


def _write_with_overrides(tmpdir: str, name: str, doc: dict,
                          overrides: dict) -> str:
    for dotted, value in overrides.items():
        node = doc
        parts = dotted.split(".")
        for part in parts[:-1]:
            node = node[int(part)] if part.isdigit() else node[part]
        last = parts[-1]
        node[int(last) if last.isdigit() else last] = value
    path = os.path.join(tmpdir, name)
    with open(path, "w", encoding="utf-8") as f:
        json.dump(doc, f)
    return path


def make_bench(tmpdir: str, name: str, **overrides) -> str:
    """Write a minimal bench JSON modeled on BENCH_parallel_sweep.json."""
    doc = {
        "bench": "parallel_sweep",
        "manifest": {
            "tool": "bench_parallel_sweep",
            "config": "sizes=64 threads=1 reps=3",
            "git_sha": "deadbeef",
            "host_threads": 4,
            "schema_versions": {"trace": "hjsvd.trace.v2",
                                "metrics": "hjsvd.metrics.v1"},
        },
        "reps": 3,
        "sizes": [{"n": 64, "sequential_modified_s": 0.010,
                   "engines": [{"threads": 1, "modified_s": 0.008,
                                "bit_identical": True}]}],
        "batch": {"count": 24, "runs": [{"threads": 1, "seconds": 0.0067,
                                         "matrices_per_s": 3575.0,
                                         "bit_identical": True}]},
        "all_bit_identical": True,
    }
    return _write_with_overrides(tmpdir, name, doc, overrides)


def make_batch_sweep(tmpdir: str, name: str, **overrides) -> str:
    """Write a minimal bench JSON modeled on BENCH_batch_sweep.json."""
    doc = {
        "bench": "batch_sweep",
        "manifest": {
            "tool": "bench_batch_sweep",
            "config": "count=16 small-n=48 large-n=96 threads=1,2 reps=3",
            "git_sha": "deadbeef",
            "host_threads": 4,
            "schema_versions": {"trace": "hjsvd.trace.v2",
                                "metrics": "hjsvd.metrics.v1"},
        },
        "hardware_threads": 4,
        "count": 17,
        "reps": 3,
        "runs": [
            {"threads": 1, "seconds": 0.82,
             "matrices_per_s": 20.7, "steals": 0, "idle_fraction": 0.0,
             "bit_identical": True},
            {"threads": 2, "seconds": 0.49,
             "matrices_per_s": 34.7, "steals": 4, "idle_fraction": 0.08,
             "bit_identical": True},
        ],
        "max_steals_multithread": 4,
        "all_bit_identical": True,
    }
    return _write_with_overrides(tmpdir, name, doc, overrides)


class BenchGateCompare(unittest.TestCase):
    def setUp(self):
        self.tmp = tempfile.TemporaryDirectory()
        self.addCleanup(self.tmp.cleanup)
        self.old = make_bench(self.tmp.name, "old.json")

    def compare(self, new_path: str, max_slowdown: float = 0.10) -> int:
        return bench_gate.cmd_compare(self.old, new_path, max_slowdown)

    def test_identical_runs_pass(self):
        new = make_bench(self.tmp.name, "new.json")
        self.assertEqual(self.compare(new), 0)

    def test_timing_slowdown_fails(self):
        new = make_bench(self.tmp.name, "new.json",
                         **{"sizes.0.engines.0.modified_s": 0.016})
        self.assertEqual(self.compare(new), 3)

    def test_timing_speedup_passes(self):
        new = make_bench(self.tmp.name, "new.json",
                         **{"sizes.0.engines.0.modified_s": 0.004})
        self.assertEqual(self.compare(new), 0)

    def test_throughput_drop_fails(self):
        # "_per_s" leaves are higher-is-better: a halved throughput must
        # trip the gate even though the key also ends in "_s".
        new = make_bench(self.tmp.name, "new.json",
                         **{"batch.runs.0.matrices_per_s": 1787.5})
        self.assertEqual(self.compare(new), 3)

    def test_throughput_gain_passes(self):
        # A >10% throughput improvement is good news, not a regression.
        new = make_bench(self.tmp.name, "new.json",
                         **{"batch.runs.0.matrices_per_s": 7150.0})
        self.assertEqual(self.compare(new), 0)

    def test_invariant_flip_fails(self):
        new = make_bench(self.tmp.name, "new.json",
                         **{"batch.runs.0.bit_identical": False})
        self.assertEqual(self.compare(new), 3)

    def test_different_bench_refused(self):
        new = make_bench(self.tmp.name, "new.json", bench="other_bench")
        self.assertEqual(self.compare(new), 2)

    def test_schema_version_mismatch_refused(self):
        new = make_bench(
            self.tmp.name, "new.json",
            **{"manifest.schema_versions": {"trace": "hjsvd.trace.v99"}})
        self.assertEqual(self.compare(new), 2)

    def test_config_mismatch_refused(self):
        new = make_bench(self.tmp.name, "new.json",
                         **{"manifest.config": "sizes=128 threads=1 reps=3"})
        self.assertEqual(self.compare(new), 2)

    def test_identity_leaf_mismatch_refused(self):
        # Same config string but different recorded workload shape: the
        # positional leaf match would compare n=64 against n=128 timings.
        new = make_bench(self.tmp.name, "new.json", **{"sizes.0.n": 128})
        self.assertEqual(self.compare(new), 2)


class BenchGateAccuracy(unittest.TestCase):
    """Accuracy leaves (*_error / *_drift) are higher-is-worse gates."""

    def setUp(self):
        self.tmp = tempfile.TemporaryDirectory()
        self.addCleanup(self.tmp.cleanup)

    def make(self, name: str, backward=2.5e-10, drift=4.0e-15) -> str:
        return make_bench(self.tmp.name, name,
                          **{"sizes.0.backward_error": backward,
                             "sizes.0.orthogonality_drift": drift})

    def compare(self, old: str, new: str, **kwargs) -> int:
        return bench_gate.cmd_compare(old, new, 0.10, **kwargs)

    def test_identical_accuracy_passes(self):
        old = self.make("old.json")
        new = self.make("new.json")
        self.assertEqual(self.compare(old, new), 0)

    def test_backward_error_growth_fails(self):
        old = self.make("old.json")
        new = self.make("new.json", backward=1.0e-6)
        self.assertEqual(self.compare(old, new), 3)

    def test_drift_growth_fails(self):
        old = self.make("old.json")
        new = self.make("new.json", drift=1.0e-8)
        self.assertEqual(self.compare(old, new), 3)

    def test_improvement_passes(self):
        old = self.make("old.json")
        new = self.make("new.json", backward=1.0e-12, drift=1.0e-16)
        self.assertEqual(self.compare(old, new), 0)

    def test_noise_floor_absorbs_rounding_level_growth(self):
        # 10x relative growth, but both values sit below the absolute
        # noise floor: rounding jitter, not a regression.
        old = self.make("old.json", backward=1.0e-14)
        new = self.make("new.json", backward=1.0e-13)
        self.assertEqual(self.compare(old, new), 0)

    def test_sentinel_skips_comparison(self):
        # -1 means "not recorded on that side": never a finding.
        old = self.make("old.json", backward=-1.0)
        new = self.make("new.json", backward=1.0e-3)
        self.assertEqual(self.compare(old, new), 0)

    def test_tighter_threshold_trips(self):
        old = self.make("old.json", backward=1.0e-9)
        new = self.make("new.json", backward=1.3e-9)
        self.assertEqual(self.compare(old, new), 0)  # +30% < default 50%
        self.assertEqual(
            self.compare(old, new, max_accuracy_regress=0.10,
                         accuracy_noise_floor=1e-15), 3)


class BenchGateCheck(unittest.TestCase):
    def setUp(self):
        self.tmp = tempfile.TemporaryDirectory()
        self.addCleanup(self.tmp.cleanup)

    def test_green_file_passes(self):
        path = make_bench(self.tmp.name, "b.json")
        self.assertEqual(bench_gate.cmd_check([path]), 0)

    def test_missing_manifest_fails(self):
        path = os.path.join(self.tmp.name, "b.json")
        with open(path, "w", encoding="utf-8") as f:
            json.dump({"bench": "x", "total_s": 1.0}, f)
        self.assertEqual(bench_gate.cmd_check([path]), 1)

    def test_red_invariant_fails(self):
        path = make_bench(self.tmp.name, "b.json", all_bit_identical=False)
        self.assertEqual(bench_gate.cmd_check([path]), 1)


class BenchGateBatchSweep(unittest.TestCase):
    """BENCH_batch_sweep.json rides the same gate as the other benches."""

    def setUp(self):
        self.tmp = tempfile.TemporaryDirectory()
        self.addCleanup(self.tmp.cleanup)
        self.old = make_batch_sweep(self.tmp.name, "old.json")

    def compare(self, new_path: str) -> int:
        return bench_gate.cmd_compare(self.old, new_path, 0.10)

    def test_green_file_passes_check_and_self_compare(self):
        self.assertEqual(bench_gate.cmd_check([self.old]), 0)
        new = make_batch_sweep(self.tmp.name, "new.json")
        self.assertEqual(self.compare(new), 0)

    def test_injected_throughput_regression_trips(self):
        # Halving a run's matrices_per_s is the canonical injected
        # regression (the CI job performs the same edit with jq).
        new = make_batch_sweep(self.tmp.name, "new.json",
                               **{"runs.1.matrices_per_s": 17.35})
        self.assertEqual(self.compare(new), 3)

    def test_scheduler_counters_are_not_gated(self):
        # Steal counts are timing-dependent scheduler behaviour, not
        # performance: wild swings must not trip the gate.
        new = make_batch_sweep(self.tmp.name, "new.json",
                               **{"runs.1.steals": 40,
                                  "runs.1.idle_fraction": 0.9})
        self.assertEqual(self.compare(new), 0)

    def test_thread_count_mismatch_refused(self):
        new = make_batch_sweep(self.tmp.name, "new.json",
                               **{"runs.1.threads": 8})
        self.assertEqual(self.compare(new), 2)

    def test_bit_identity_flip_fails_check(self):
        path = make_batch_sweep(self.tmp.name, "b.json",
                                **{"runs.0.bit_identical": False,
                                   "all_bit_identical": False})
        self.assertEqual(bench_gate.cmd_check([path]), 1)


class ValidateObsReport(unittest.TestCase):
    """Malformed reports must fail cleanly (exit 1), never traceback."""

    def setUp(self):
        self.tmp = tempfile.TemporaryDirectory()
        self.addCleanup(self.tmp.cleanup)

    def run_validate(self, doc) -> subprocess.CompletedProcess:
        path = os.path.join(self.tmp.name, "report.json")
        with open(path, "w", encoding="utf-8") as f:
            json.dump(doc, f)
        return subprocess.run(
            [sys.executable, os.path.join(SCRIPTS_DIR, "validate_obs.py"),
             "--report", path],
            capture_output=True, text=True)

    @staticmethod
    def report(phases):
        return {
            "schema": "hjsvd.report.v2",
            "run": {"rows": 64, "cols": 32, "sweeps": 2, "converged": True,
                    "wall_s": 0.5},
            "phases": phases,
        }

    @staticmethod
    def phase(**overrides):
        p = {"cat": "svd", "name": "sweep", "total_s": 0.4, "count": 2,
             "frac_of_wall": 0.8}
        p.update(overrides)
        return p

    def assert_clean_fail(self, proc):
        self.assertEqual(proc.returncode, 1, proc.stderr)
        self.assertIn("validate_obs: FAIL", proc.stderr)
        self.assertNotIn("Traceback", proc.stderr)

    def test_well_formed_report_passes(self):
        proc = self.run_validate(self.report(
            [self.phase(), self.phase(name="update", total_s=0.2)]))
        self.assertEqual(proc.returncode, 0, proc.stderr)

    def test_scalar_phase_fails_cleanly(self):
        self.assert_clean_fail(self.run_validate(self.report(["oops"])))

    def test_string_total_s_fails_cleanly(self):
        self.assert_clean_fail(
            self.run_validate(self.report([self.phase(total_s="0.4")])))

    def test_unsorted_phases_fail(self):
        proc = self.run_validate(self.report(
            [self.phase(total_s=0.1), self.phase(name="update", total_s=0.2)]))
        self.assert_clean_fail(proc)


class ValidateObsTraceV3(unittest.TestCase):
    """Flight-recorder (trace.v3) documents must carry ring metadata."""

    def setUp(self):
        self.tmp = tempfile.TemporaryDirectory()
        self.addCleanup(self.tmp.cleanup)

    def run_validate(self, doc) -> subprocess.CompletedProcess:
        path = os.path.join(self.tmp.name, "trace.json")
        with open(path, "w", encoding="utf-8") as f:
            json.dump(doc, f)
        return subprocess.run(
            [sys.executable, os.path.join(SCRIPTS_DIR, "validate_obs.py"),
             "--trace", path],
            capture_output=True, text=True)

    @staticmethod
    def trace_v3(**other_overrides):
        other = {
            "software_pid": 1,
            "flight_recorder": True,
            "ring_capacity_events": 4096,
            "dropped_events_total": 7,
            "dropped_events_by_tid": [3, 4],
        }
        other.update(other_overrides)
        return {
            "schema": "hjsvd.trace.v3",
            "otherData": other,
            "traceEvents": [
                {"ph": "X", "pid": 1, "tid": 0, "ts": 0.0, "dur": 5.0,
                 "name": "sweep", "cat": "svd"},
                {"ph": "C", "pid": 1, "tid": 0, "ts": 1.0,
                 "name": "svd.rotations", "args": {"value": 3}},
            ],
        }

    def assert_clean_fail(self, proc):
        self.assertEqual(proc.returncode, 1, proc.stderr)
        self.assertIn("validate_obs: FAIL", proc.stderr)
        self.assertNotIn("Traceback", proc.stderr)

    def test_well_formed_v3_passes(self):
        proc = self.run_validate(self.trace_v3())
        self.assertEqual(proc.returncode, 0, proc.stderr)

    def test_v3_without_flight_recorder_flag_fails(self):
        self.assert_clean_fail(
            self.run_validate(self.trace_v3(flight_recorder=False)))

    def test_v3_with_zero_capacity_fails(self):
        self.assert_clean_fail(
            self.run_validate(self.trace_v3(ring_capacity_events=0)))

    def test_v3_drop_sum_mismatch_fails(self):
        self.assert_clean_fail(
            self.run_validate(self.trace_v3(dropped_events_by_tid=[1, 2])))

    def test_unknown_schema_still_refused(self):
        doc = self.trace_v3()
        doc["schema"] = "hjsvd.trace.v99"
        self.assert_clean_fail(self.run_validate(doc))


class ValidateObsSnapshots(unittest.TestCase):
    """Snapshot JSONL streams are validated line by line."""

    def setUp(self):
        self.tmp = tempfile.TemporaryDirectory()
        self.addCleanup(self.tmp.cleanup)

    def run_validate(self, lines) -> subprocess.CompletedProcess:
        path = os.path.join(self.tmp.name, "snapshots.jsonl")
        with open(path, "w", encoding="utf-8") as f:
            for line in lines:
                f.write(line if isinstance(line, str) else json.dumps(line))
                f.write("\n")
        return subprocess.run(
            [sys.executable, os.path.join(SCRIPTS_DIR, "validate_obs.py"),
             "--snapshots", path],
            capture_output=True, text=True)

    @staticmethod
    def snap(seq, elapsed_us, **overrides):
        s = {
            "schema": "hjsvd.metrics-snapshots.v1",
            "seq": seq,
            "elapsed_us": elapsed_us,
            "dropped_events": 0,
            "counters": {"svd.rotations.applied": 10 * (seq + 1)},
            "gauges": {"svd.matrix.n": 64},
        }
        s.update(overrides)
        return s

    def assert_clean_fail(self, proc):
        self.assertEqual(proc.returncode, 1, proc.stderr)
        self.assertIn("validate_obs: FAIL", proc.stderr)
        self.assertNotIn("Traceback", proc.stderr)

    def test_well_formed_stream_passes(self):
        proc = self.run_validate(
            [self.snap(0, 100.0), self.snap(1, 200.0), self.snap(2, 300.0)])
        self.assertEqual(proc.returncode, 0, proc.stderr)

    def test_empty_stream_fails(self):
        self.assert_clean_fail(self.run_validate([]))

    def test_non_json_line_fails_cleanly(self):
        self.assert_clean_fail(
            self.run_validate([self.snap(0, 100.0), "{not json"]))

    def test_wrong_schema_fails(self):
        self.assert_clean_fail(
            self.run_validate([self.snap(0, 100.0, schema="nope.v1")]))

    def test_non_increasing_seq_fails(self):
        self.assert_clean_fail(
            self.run_validate([self.snap(1, 100.0), self.snap(1, 200.0)]))

    def test_decreasing_elapsed_fails(self):
        self.assert_clean_fail(
            self.run_validate([self.snap(0, 200.0), self.snap(1, 100.0)]))

    def test_decreasing_counter_fails(self):
        good = self.snap(0, 100.0)
        bad = self.snap(1, 200.0)
        bad["counters"]["svd.rotations.applied"] = 1
        self.assert_clean_fail(self.run_validate([good, bad]))

    def test_decreasing_dropped_events_fails(self):
        self.assert_clean_fail(self.run_validate(
            [self.snap(0, 100.0, dropped_events=5),
             self.snap(1, 200.0, dropped_events=4)]))


class ValidateObsNumerics(unittest.TestCase):
    """--numerics cross-checks the svd.num.* namespace and report section."""

    def setUp(self):
        self.tmp = tempfile.TemporaryDirectory()
        self.addCleanup(self.tmp.cleanup)

    def run_validate(self, *extra_args) -> subprocess.CompletedProcess:
        return subprocess.run(
            [sys.executable, os.path.join(SCRIPTS_DIR, "validate_obs.py"),
             *extra_args],
            capture_output=True, text=True)

    def write_metrics(self, overrides=None, drop=()):
        metrics = {
            "svd.num.samples": ("counter", "pairs", 16),
            "svd.num.nonfinite.events": ("counter", "events", 1),
            "svd.num.cancellation.events": ("counter", "events", 2),
            "svd.num.angle.hist.0": ("counter", "pairs", 10),
            "svd.num.angle.hist.7": ("counter", "pairs", 5),
            "svd.num.angle.tiny_frac": ("gauge", "1", 0.5),
            "svd.num.angle.near_pi4_frac": ("gauge", "1", 0.33),
            "svd.num.cancellation.frac": ("gauge", "1", 0.13),
            "svd.num.stride": ("gauge", "pairs", 8),
            "svd.num.cond.estimate": ("gauge", "1", 1.0e6),
            "svd.num.finalize.backward_error": ("gauge", "1", 3.0e-10),
            "obs.watchdog.divergence": ("gauge", "bool", 0),
        }
        metrics.update(overrides or {})
        for name in drop:
            del metrics[name]
        doc = {"schema": "hjsvd.metrics.v1",
               "metrics": [{"name": n, "type": t, "unit": u, "value": v}
                           for n, (t, u, v) in sorted(metrics.items())]}
        path = os.path.join(self.tmp.name, "metrics.json")
        with open(path, "w", encoding="utf-8") as f:
            json.dump(doc, f)
        return path

    def write_report(self, num_overrides=None, drop_numerics=False):
        numerics = {
            "samples": 16, "stride": 8, "nonfinite_events": 1,
            "cancellation_events": 2, "divergence_events": 0,
            "cancellation_frac": 0.13, "tiny_angle_frac": 0.5,
            "near_pi4_frac": 0.33, "angle_hist": [10, 0, 0, 0, 0, 0, 0, 5],
            "cond_estimate": 1.0e6, "orthogonality_drift": 4.0e-15,
            "backward_error": 3.0e-10, "watchdog_divergence": False,
            "watchdog_orthogonality": False,
        }
        numerics.update(num_overrides or {})
        doc = {
            "schema": "hjsvd.report.v2",
            "run": {"rows": 64, "cols": 32, "sweeps": 2, "converged": True,
                    "wall_s": 0.5},
            "phases": [{"cat": "svd", "name": "sweep", "total_s": 0.4,
                        "count": 2, "frac_of_wall": 0.8}],
        }
        if not drop_numerics:
            doc["numerics"] = numerics
        path = os.path.join(self.tmp.name, "report.json")
        with open(path, "w", encoding="utf-8") as f:
            json.dump(doc, f)
        return path

    def assert_clean_fail(self, proc):
        self.assertEqual(proc.returncode, 1, proc.stderr)
        self.assertIn("validate_obs: FAIL", proc.stderr)
        self.assertNotIn("Traceback", proc.stderr)

    def test_well_formed_metrics_pass(self):
        proc = self.run_validate("--metrics", self.write_metrics(),
                                 "--numerics")
        self.assertEqual(proc.returncode, 0, proc.stderr)

    def test_metrics_without_probes_fail(self):
        path = self.write_metrics(drop=("svd.num.samples",))
        self.assert_clean_fail(
            self.run_validate("--metrics", path, "--numerics"))

    def test_plain_mode_ignores_numerics_namespace(self):
        # Without --numerics, a probe-free metrics file is fine.
        path = self.write_metrics(drop=("svd.num.samples",))
        proc = self.run_validate("--metrics", path)
        self.assertEqual(proc.returncode, 0, proc.stderr)

    def test_histogram_sum_mismatch_fails(self):
        path = self.write_metrics(
            {"svd.num.angle.hist.0": ("counter", "pairs", 9)})
        self.assert_clean_fail(
            self.run_validate("--metrics", path, "--numerics"))

    def test_fraction_out_of_range_fails(self):
        path = self.write_metrics(
            {"svd.num.angle.tiny_frac": ("gauge", "1", 1.5)})
        self.assert_clean_fail(
            self.run_validate("--metrics", path, "--numerics"))

    def test_zero_stride_fails(self):
        path = self.write_metrics({"svd.num.stride": ("gauge", "pairs", 0)})
        self.assert_clean_fail(
            self.run_validate("--metrics", path, "--numerics"))

    def test_non_binary_verdict_gauge_fails(self):
        path = self.write_metrics(
            {"obs.watchdog.divergence": ("gauge", "bool", 2)})
        self.assert_clean_fail(
            self.run_validate("--metrics", path, "--numerics"))

    def test_well_formed_report_passes(self):
        proc = self.run_validate("--report", self.write_report(),
                                 "--numerics")
        self.assertEqual(proc.returncode, 0, proc.stderr)

    def test_report_without_numerics_section_fails(self):
        path = self.write_report(drop_numerics=True)
        self.assert_clean_fail(
            self.run_validate("--report", path, "--numerics"))

    def test_report_sentinel_accuracy_leaves_pass(self):
        path = self.write_report({"orthogonality_drift": -1.0,
                                  "backward_error": -1.0})
        proc = self.run_validate("--report", path, "--numerics")
        self.assertEqual(proc.returncode, 0, proc.stderr)

    def test_report_negative_accuracy_leaf_fails(self):
        path = self.write_report({"backward_error": -0.5})
        self.assert_clean_fail(
            self.run_validate("--report", path, "--numerics"))

    def test_report_non_boolean_verdict_fails(self):
        path = self.write_report({"watchdog_divergence": 1})
        self.assert_clean_fail(
            self.run_validate("--report", path, "--numerics"))

    def test_numerics_without_inputs_is_usage_error(self):
        proc = self.run_validate("--numerics", "--snapshots",
                                 os.devnull)
        self.assertEqual(proc.returncode, 2, proc.stderr)


if __name__ == "__main__":
    unittest.main()
