"""Tests of the benchmark itself (not of scrbar).

    python3 perfbench/selftest.py

Kept out of the repository's pytest collection on purpose: they run
shrunken copies of every workload, traced twice, and take about half a
minute.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

import run

run.import_scrbar()

import tracing  # noqa: E402
import workloads  # noqa: E402

COMMON = ("estimation.fit", "selection.path", "selection.bar_step",
          "selection.gcv_score", "likelihood.pseudo_data", "likelihood.init",
          "likelihood.loglik", "likelihood.gradient", "likelihood.hessian",
          "baselines.cumhaz", "domain.arrays")
STUDY = ("cli.run_study", "datagen.calibrate", "datagen.simulate")
EXPECTED = {
    "ar1_n300_bern": COMMON + STUDY + ("cli.oracle_fit",),
    "cli_select_weibull": COMMON + ("cli.main", "cli.read_csv"),
}
COUNTS = ("_calls", "_iters", "_nonconverged", "jitter_nonzero", "probe_calls")


def tiny(spec):
    """The workload at a small size: fewer subjects and lambda points."""
    if isinstance(spec, workloads.SelectSpec):
        return dataclasses.replace(spec, n=200, lambda_count=5, csv_count=1)
    return dataclasses.replace(spec, n=200, lambda_count=5)


def traced_once(spec, seed, work):
    wl = workloads.make(spec, seed, work)
    wl.write_inputs()
    setup_tracer, tracer = tracing.Tracer(), tracing.Tracer()
    with setup_tracer.installed():
        wl.setup()
    with wl.capture.installed(), tracer.installed():
        res = wl.run_op(0)
    res.problems += workloads.fit_problems(res)
    names = {s.name for s in setup_tracer.spans + tracer.spans}
    metrics = tracing.op_metrics(tracer, 1) | tracing.setup_metrics(setup_tracer)
    return res, names, metrics, tracer


def root_name(tracer, span):
    while span.parent is not None:
        span = tracer.spans[span.parent]
    return span.name


class TracedWorkloads(unittest.TestCase):
    def test_every_span_fires_and_counts_repeat(self):
        layer_names = set(run.layer_units())
        for name, spec in workloads.WORKLOADS.items():
            with self.subTest(workload=name), \
                    tempfile.TemporaryDirectory(dir=run.OUT) as tmp:
                res1, names, m1, tracer = traced_once(tiny(spec), 3, Path(tmp))
                res2, _, m2, _ = traced_once(tiny(spec), 3, Path(tmp))
                self.assertFalse(res1.failed or res1.problems, res1.problems)
                self.assertEqual(set(EXPECTED[name]) - names, set())
                # the answer checks' own likelihood calls are not traced
                self.assertEqual({root_name(tracer, s) for s in tracer.spans},
                                 {"cli.main" if name == "cli_select_weibull"
                                  else "cli.run_study"})
                self.assertEqual(set(m1) | {"trace.overhead_s", "trace.overhead_frac"},
                                 layer_names)
                counts = {k: v for k, v in m1.items() if k.endswith(COUNTS)}
                self.assertEqual(counts, {k: m2[k] for k in counts})
                self.assertEqual(res1.answer, res2.answer)
                if name != "cli_select_weibull":
                    self.assertEqual(m1["cli.read_csv_ms"], 0.0)
                    self.assertGreater(m1["datagen.probe_calls"], 0)
                else:
                    self.assertEqual(m1["datagen.probe_calls"], 0)

    def test_select_data_is_left_truncated(self):
        spec = tiny(workloads.WORKLOADS["cli_select_weibull"])
        with tempfile.TemporaryDirectory(dir=run.OUT) as tmp:
            wl = workloads.make(spec, 3, Path(tmp))
            wl.write_inputs()
            data, _ = workloads.cli.read_dataset_csv(str(wl.csvs[0]))
        self.assertTrue(all(0 < r.l < spec.trunc_upper for r in data.records))


class TracerUnits(unittest.TestCase):
    def test_missing_target_is_skipped_and_reports_zero(self):
        bogus = (("selection.bar_step", "scrbar.selection", None, "no_such_name"),
                 ("likelihood.init", "scrbar.likelihood", "NoSuchClass", "__init__"))
        saved = tracing.TARGETS
        tracing.TARGETS = bogus
        try:
            tracer = tracing.Tracer()
            with tracer.installed():
                pass
        finally:
            tracing.TARGETS = saved
        metrics = tracing.op_metrics(tracer, 1)
        self.assertEqual(metrics["selection.bar_step_calls"], 0)
        self.assertEqual(set(metrics.values()), {0})

    def test_self_time_excludes_children(self):
        tracer = tracing.Tracer()
        outer = tracer._wrap("cli.main", lambda: inner())
        inner = tracer._wrap("cli.read_csv", lambda: sum(range(10000)))
        outer()
        root, child = tracer.spans
        self.assertEqual(child.parent, 0)
        self.assertAlmostEqual(root.self_s, root.duration - child.duration, places=12)

    def test_compare_flags_moved_answers(self):
        ref = {"loglik": -100.0, "support": {"bar": [0, 3]}, "method_loglik": {"bar": -90.0}}

        def moved(**change):
            return workloads.compare(ref | change, ref)
        self.assertEqual(moved(), [])
        self.assertEqual(moved(loglik=-100.0 * (1 + 1e-8)), [])
        self.assertEqual(len(moved(loglik=-100.0 * (1 + 1e-5))), 1)
        self.assertEqual(len(moved(support={"bar": [0, 4]})), 1)
        self.assertEqual(len(moved(method_loglik={"bar": -90.01})), 1)
        self.assertEqual(len(moved(method_loglik={"lasso": -90.0})), 1)

    def test_run_without_stored_answer_is_not_correct(self):
        spec = workloads.WORKLOADS["cli_select_weibull"]
        tally = workloads.Tally(spec, max(workloads.REFERENCE_SEEDS) + 1)
        self.assertEqual(tally.reference, {})
        self.assertFalse(tally.result({})["correct"])
        tally = workloads.Tally(spec, 0)
        tally.check("op 0", workloads.OpResult(1.0, False, {}, []), None)
        self.assertFalse(tally.result({})["correct"])

    def test_percentile_needs_ten_samples_above(self):
        self.assertNotIn("p75", run.percentile_summary([1.0] * 39))
        self.assertIn("p75", run.percentile_summary([1.0] * 40))
        self.assertIn("p90", run.percentile_summary([1.0] * 100))
        self.assertNotIn("p99", run.percentile_summary([1.0] * 999))


class Harness(unittest.TestCase):
    def test_fails_without_sources(self):
        """Next to BENCHMARK.json and perfbench/ alone, the run must fail
        and print no result."""
        with tempfile.TemporaryDirectory(dir=run.OUT) as tmp:
            shutil.copy(run.ROOT / "BENCHMARK.json", tmp)
            shutil.copytree(run.HERE, Path(tmp) / "perfbench",
                            ignore=shutil.ignore_patterns("__pycache__"))
            done = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", "ar1_n300_bern",
                 "--seed", "0", "--seconds", "1", "--trace", "0"],
                cwd=tmp, capture_output=True, text=True, timeout=120)
        self.assertNotEqual(done.returncode, 0)
        for line in done.stdout.splitlines():
            with self.assertRaises(json.JSONDecodeError):
                json.loads(line)


if __name__ == "__main__":
    run.OUT.mkdir(exist_ok=True)
    unittest.main()
