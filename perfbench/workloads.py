"""The benchmark's workloads: inputs made from a seed, one operation at a
time, and the checks on every operation's answers.

A study operation is one replicate through ``scrbar.cli.run_study``; a
select operation is one in-process ``scrbar.cli.main(["select", ...])`` on a
CSV the benchmark wrote.  scrbar is reached only through public names.
"""

from __future__ import annotations

import contextlib
import io
import json
import re
import time
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

import scrbar
from scrbar import cli

from tracing import Capture, path_nonconverged

LOGLIK_RTOL = 1e-6
REFERENCE = Path(__file__).resolve().parent / "reference.json"
REFERENCE_SEEDS = range(16)     # seeds make_reference.py stores


@dataclass(frozen=True)
class StudySpec:
    """A replicated-study workload at jobs=1 (closed loop, one replicate at
    a time).  Each operation is one replicate with its own data seed."""

    op = "replicate"
    name: str
    n: int
    design: str
    rho: float
    censoring: float
    methods: tuple
    degrees: tuple = (2, 2, 3)
    lambda_count: int = 30
    setup_repeats: int = 3      # calibrations timed per run for setup_s
    trace_ops: int = 2          # fixed, so traced counts repeat exactly
    ref_ops: int = 4            # operations per seed stored in reference.json


@dataclass(frozen=True)
class SelectSpec:
    """``scrbar select`` on CSVs of seeded diverging-p data, cycled in order."""

    op = "select"
    name: str
    n: int = 300
    censor_upper: float = 32.0
    # every subject enters at a time in (0, trunc_upper), so the entry-time
    # terms are real work; at 0.5 or more the simulator gives up on rare
    # high-risk subjects (see README.md)
    trunc_upper: float = 0.1
    method: str = "bar"
    baseline: str = "weibull"
    lambda_count: int = 30
    csv_count: int = 8
    setup_repeats: int = 0
    trace_ops: int = 4
    ref_ops: int = 8


WORKLOADS = {
    spec.name: spec for spec in (
        StudySpec("ar1_n300_bern", n=300, design="ar1", rho=0.5, censoring=0.5,
                  methods=("bar", "lasso", "alasso", "oracle")),
        SelectSpec("cli_select_weibull"),
    )
}


def op_seed(seed: int, index: int) -> int:
    """Data seed of operation ``index`` in a run with workload seed ``seed``."""
    return seed * 1000 + index


@dataclass
class OpResult:
    seconds: float
    failed: bool
    answer: dict            # see compare()
    problems: list          # failed consistency checks
    fit_calls: list = field(default_factory=list)   # (args, FitResult)
    fits: int = 0
    fits_nonconverged: int = 0
    lambdas: int = 0
    lambdas_nonconverged: int = 0


def fit_problems(res: OpResult):
    """The fit's reported log-likelihood must equal the model's value at the
    fitted parameters, recomputed by ``scrbar.log_likelihood``.

    Kept out of ``run_op`` so that a traced run can make these calls after
    its tracer is removed: they are the benchmark's work, not the
    operation's.
    """
    out = []
    for args, fr in res.fit_calls:
        data, cfg = args[0], args[1] if len(args) > 1 else scrbar.FitConfig()
        ll = scrbar.log_likelihood(fr.params, data, quad=cfg.quadrature,
                                   truncation=cfg.truncation)
        if not abs(ll - fr.loglik) <= LOGLIK_RTOL * abs(ll):
            out.append(f"fit loglik {fr.loglik!r} != recomputed {ll!r}")
    return out


def _tally(res: OpResult, fits, paths):
    res.fit_calls = fits
    res.fits = len(fits)
    res.fits_nonconverged = sum(1 for _, fr in fits if not fr.converged)
    for _, g in paths:
        res.lambdas += len(g.table)
        res.lambdas_nonconverged += path_nonconverged(g)


def _chosen_loglik(g) -> float:
    """Log-likelihood of the penalized estimate at the GCV-chosen lambda."""
    return next(float(row["loglik"]) for row in g.table if row["lambda"] == g.best_lambda)


def _split(calls):
    fits = [(a, r) for k, a, r in calls if k == "fit"]
    paths = [(a[2].kind, r) for k, a, r in calls if k == "path"]
    oracles = [r for k, a, r in calls if k == "oracle"]
    return fits, paths, oracles


class StudyWorkload:
    def __init__(self, spec: StudySpec, seed: int, work_dir: Path):
        self.spec, self.seed = spec, seed
        self.work_dir = work_dir
        self.config_path = work_dir / f"{spec.name}.cfg"
        self.config = None
        self.capture = Capture()

    def write_inputs(self):
        s = self.spec
        lines = {
            "n": s.n, "replications": 1, "design": s.design, "rho": s.rho,
            "censoring": s.censoring,
            "baseline": "bernstein", "degrees": ",".join(map(str, s.degrees)),
            "methods": ",".join(s.methods), "seed": self.seed,
            "lambda_count": s.lambda_count, "jobs": 1,
            "out": str(self.config_path.parent),
        }
        self.config_path.write_text("".join(f"{k} = {v}\n" for k, v in lines.items()),
                                    encoding="utf-8")

    def setup(self) -> float:
        """Parse the study config and calibrate its scenario; returns seconds."""
        t0 = time.perf_counter()
        self.config = cli.parse_experiment_config(str(self.config_path))
        return time.perf_counter() - t0

    def run_op(self, index: int) -> OpResult:
        cfg = replace(self.config,
                      scenario=replace(self.config.scenario, seed=op_seed(self.seed, index)))
        t0 = time.perf_counter()
        study = cli.run_study(cfg)
        seconds = time.perf_counter() - t0
        fits, paths, oracles = _split(self.capture.take())
        res = OpResult(seconds, bool(study.failures), {}, [])
        if res.failed:
            res.problems.append(f"replicate failed: {study.failures}")
            return res
        _tally(res, fits, paths)
        support = {kind: [int(j) for j in g.best.support] for kind, g in paths}
        method_loglik = {kind: _chosen_loglik(g) for kind, g in paths}
        eps = scrbar.PenaltyConfig().zero_threshold
        for beta, fr in oracles:
            support["oracle"] = [int(j) for j in np.flatnonzero(np.abs(beta) >= eps)]
            method_loglik["oracle"] = float(fr.loglik)
        res.answer = {"loglik": float(study.reference.loglik), "support": support,
                      "method_loglik": method_loglik}
        for row in study.rows:
            got = support.get(row["method"])
            if got is None or len(got) != row["n_selected"]:
                res.problems.append(f"{row['method']}: n_selected {row['n_selected']} "
                                    f"disagrees with support {got}")
        return res


_REPORT_ROW = re.compile(r"^(z\S*)\s+(\S+)\s+(\S+)\s+(\S+)\s*$")


def _report_support(path: Path, dims):
    """Stacked indices of the coefficients the report shows as selected."""
    text = path.read_text(encoding="utf-8")
    chosen = re.search(r"^chosen lambda: (\S+)$", text, re.M)
    offs = np.concatenate([[0], np.cumsum(dims)])
    support = []
    rows = [m.groups() for m in map(_REPORT_ROW.match, text.splitlines()) if m]
    for i, (_, *cells) in enumerate(rows):
        for k, cell in enumerate(cells):
            if cell != "-":
                support.append(int(offs[k] + i))
    return sorted(support), chosen.group(1) if chosen else None


class SelectWorkload:
    def __init__(self, spec: SelectSpec, seed: int, work_dir: Path):
        self.spec, self.seed = spec, seed
        self.work_dir = work_dir
        self.csvs = []
        self.capture = Capture()

    def write_inputs(self):
        s = self.spec
        for k in range(s.csv_count):
            scen = scrbar.scenario_diverging_p(s.n, s.censor_upper, s.trunc_upper,
                                               seed=op_seed(self.seed, k))
            path = self.work_dir / f"{s.name}_{k}.csv"
            cli.write_dataset_csv(str(path), scrbar.simulate_dataset(scen))
            self.csvs.append(path)

    def setup(self) -> float:
        return 0.0

    def run_op(self, index: int) -> OpResult:
        s = self.spec
        out = self.work_dir / f"{s.name}_out"
        argv = ["select", str(self.csvs[index % s.csv_count]), "--method", s.method,
                "--baseline", s.baseline, "--lambda-count", str(s.lambda_count),
                "--out", str(out)]
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            t0 = time.perf_counter()
            code = cli.main(argv)
            seconds = time.perf_counter() - t0
        fits, paths, _ = _split(self.capture.take())
        res = OpResult(seconds, code != 0, {}, [])
        if res.failed:
            res.problems.append(f"exit {code}: {sink.getvalue().strip()}")
            return res
        _tally(res, fits, paths)
        (fit_args, fr), = fits
        (_, g), = paths
        support = [int(j) for j in g.best.support]
        shown, chosen = _report_support(out / "selection_report.txt", fit_args[0].dims)
        if shown != support:
            res.problems.append(f"report support {shown} != returned {support}")
        if chosen != f"{g.best_lambda:.6g}":
            res.problems.append(f"report lambda {chosen} != returned {g.best_lambda:.6g}")
        res.answer = {"loglik": float(fr.loglik), "support": {s.method: support},
                      "method_loglik": {s.method: _chosen_loglik(g)}}
        return res


def make(spec, seed: int, work_dir: Path):
    cls = StudyWorkload if isinstance(spec, StudySpec) else SelectWorkload
    return cls(spec, seed, work_dir)


def reference_key(spec, index: int) -> int:
    """Reference entry an operation is compared with (select cycles its CSVs)."""
    return index % spec.csv_count if isinstance(spec, SelectSpec) else index


def _close(a, b) -> bool:
    return abs(a - b) <= LOGLIK_RTOL * abs(b)


def compare(answer: dict, ref: dict) -> list:
    """Differences from a stored reference answer.

    An answer holds the unpenalized log-likelihood, each method's selected
    support, and each method's log-likelihood at its chosen lambda (the
    oracle's: its refit).  Log-likelihoods agree within relative 1e-6;
    supports must be identical.
    """
    out = []
    if not _close(answer["loglik"], ref["loglik"]):
        out.append(f"loglik {answer['loglik']!r} != reference {ref['loglik']!r}")
    if answer["support"] != ref["support"]:
        out.append(f"support {answer['support']} != reference {ref['support']}")
    got, want = answer["method_loglik"], ref["method_loglik"]
    if got.keys() != want.keys() or not all(_close(got[m], want[m]) for m in want):
        out.append(f"method loglik {got} != reference {want}")
    return out


def load_reference(name: str, seed: int) -> dict:
    """Stored answers of one workload and seed, by operation; {} if none."""
    if not REFERENCE.is_file():
        return {}
    return json.loads(REFERENCE.read_text(encoding="utf-8")).get(name, {}).get(str(seed), {})


def anchor_result(spec, seed: int, work_dir: Path):
    """Operation 0 of seed ``seed % len(REFERENCE_SEEDS)``, which
    reference.json holds, with its stored answer.  A run whose own seed has no stored answers
    checks this one instead, untimed, after its measurement."""
    anchor_seed = seed % len(REFERENCE_SEEDS)
    work_dir.mkdir(parents=True, exist_ok=True)
    wl = make(spec, anchor_seed, work_dir)
    wl.write_inputs()
    wl.setup()
    with wl.capture.installed():
        res = wl.run_op(0)
    return res, load_reference(spec.name, anchor_seed).get(str(reference_key(spec, 0)))


class Tally:
    """Failures, answer checks and convergence over a run's operations."""

    def __init__(self, spec, seed):
        self.spec = spec
        self.reference = load_reference(spec.name, seed)
        self.attempted = self.failed = self.mismatch = self.ref_checked = 0
        self.problems = []
        self.units = self.nonconverged = 0

    def add(self, index, res):
        self.attempted += 1
        self.failed += res.failed
        self.units += res.fits + res.lambdas
        self.nonconverged += res.fits_nonconverged + res.lambdas_nonconverged
        self.check(f"op {index}", res,
                   self.reference.get(str(reference_key(self.spec, index))))

    def check(self, label, res, ref):
        """Consistency checks, and the comparison with ``ref`` if not None."""
        self.problems += [f"{label}: {p}" for p in res.problems + fit_problems(res)]
        if ref is not None:
            self.ref_checked += 1
            diff = ["no answer"] if res.failed else compare(res.answer, ref)
            self.mismatch += bool(diff)
            self.problems += [f"{label}: {d}" for d in diff]

    def result(self, metrics: dict) -> dict:
        """The JSON result line.  A run that compared nothing with a stored
        answer is not correct."""
        correct = not self.problems and self.failed == 0 and self.ref_checked > 0
        return {"correct": correct, "attempted": self.attempted,
                "failed": self.failed, "metrics": metrics}

    def report(self):
        print(f"# failed_frac={self.failed / self.attempted:.4g} ratio "
              f"({self.failed} of {self.attempted})  "
              f"nonconverged_frac={self.nonconverged / max(self.units, 1):.4g} ratio "
              f"({self.nonconverged} of {self.units} fits and lambda points)  "
              f"ref_mismatch={self.mismatch} count ({self.ref_checked} operations "
              f"had a stored reference)")
        for p in self.problems[:10]:
            print(f"# problem: {p}")
