"""Batch front end: fit and select on CSV data, run replicated studies.

Input CSV schema (header required): columns ``l, y1, delta1, y2, delta2``
followed by per-transition covariate blocks ``z1_1..z1_d1, z2_1..z2_d2,
z3_1..z3_d3``; the shorthand ``z_1..z_d`` is accepted and expanded to all
three blocks.  UTF-8, '.' decimal, no thousands separators.

Exit codes: 0 success, 1 usage/schema error, 2 numerical failure.
"""

from __future__ import annotations

import argparse
import concurrent.futures
import csv
import os
import sys
from dataclasses import dataclass, replace

import numpy as np

from .baselines import BernsteinBaselineSet, WeibullBaselineSet, cumulative_hazard
from .datagen import (
    ReplicateSeedPlan,
    ScenarioError,
    SimulationScenario,
    GROUP_LAYOUT,
    calibrate_censoring,
    calibrate_truncation,
    scenario_diverging_p,
    scenario_grouped,
    simulate_dataset,
)
from .domain import Dataset, RegressionCoefficients, validate_dataset
from .estimation import FitConfig, FitResult, bic_degree_select, fit_unpenalized
from .metrics import ReplicateMetrics, aggregate, confusion_counts, ges, mse
from .selection import (
    PenaltyConfig,
    default_lambda_grid,
    gcv_select,
)

__all__ = [
    "SchemaError",
    "ExperimentConfig",
    "StudyResult",
    "read_dataset_csv",
    "write_dataset_csv",
    "standardize_covariates",
    "oracle_fit",
    "parse_experiment_config",
    "run_study",
    "cmd_fit",
    "cmd_select",
    "cmd_simulate",
    "main",
]

TRANSITION_LABELS = ("CR", "Death", "Death following CR")

# times per transition at which hazard_curves.csv samples the hazards
_HAZARD_GRID_POINTS = 100


class SchemaError(ValueError):
    """Malformed input CSV or config file (exit code 1)."""


# ---------------------------------------------------------------------------
# CSV input/output
# ---------------------------------------------------------------------------

_META_COLS = ("l", "y1", "delta1", "y2", "delta2")


def _block_names(header):
    """Split the header's covariate part into the three z blocks."""
    rest = list(header[len(_META_COLS):])
    if all(name.startswith("z_") for name in rest) and rest:
        return rest, rest, rest, True
    blocks = {1: [], 2: [], 3: []}
    for name in rest:
        for k in (1, 2, 3):
            if name.startswith(f"z{k}_"):
                blocks[k].append(name)
                break
        else:
            raise SchemaError(f"unrecognized covariate column {name!r}")
    if not all(blocks.values()):
        raise SchemaError("each transition needs at least one covariate column")
    return blocks[1], blocks[2], blocks[3], False


def read_dataset_csv(path):
    """Load a dataset; returns (Dataset, per-transition column names).

    Schema violations raise SchemaError naming the row and column.
    """
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise SchemaError(f"{path}: empty file") from None
        header = [h.strip() for h in header]
        repeated = [h for i, h in enumerate(header) if h in header[:i]]
        if repeated:
            raise SchemaError(f"{path}: repeated column {repeated[0]!r}")
        for col in _META_COLS:
            if col not in header:
                raise SchemaError(f"{path}: missing column {col!r}")
        if tuple(header[:5]) != _META_COLS:
            raise SchemaError(
                f"{path}: first five columns must be {', '.join(_META_COLS)}")
        names1, names2, names3, shared = _block_names(header)
        # the shared schema's z_* columns are read once and used for all blocks
        cov_cols = names1 if shared else names1 + names2 + names3
        idx = {name: i for i, name in enumerate(header)}
        meta, cov = [], []
        for rownum, row in enumerate(reader, start=2):
            if not row or all(not cell.strip() for cell in row):
                continue
            if len(row) != len(header):
                raise SchemaError(f"{path}: row {rownum} has {len(row)} fields, "
                                  f"expected {len(header)}")

            def get(col):
                try:
                    return float(row[idx[col]])
                except ValueError:
                    raise SchemaError(
                        f"{path}: row {rownum}, column {col!r}: "
                        f"not a number ({row[idx[col]]!r})") from None

            for col in ("delta1", "delta2"):
                if get(col) not in (0.0, 1.0):
                    raise SchemaError(f"{path}: row {rownum}, column {col!r}: must be 0 or 1")
            meta.append((get("l"), get("y1"), int(get("delta1")), get("y2"), int(get("delta2"))))
            cov.append([get(c) for c in cov_cols])
    if not meta:
        raise SchemaError(f"{path}: no data rows")
    Z = np.array(cov)
    blocks = (Z, Z, Z) if shared else np.split(Z, np.cumsum([len(names1), len(names2)]), axis=1)
    data = Dataset.from_arrays(*np.array(meta, dtype=float).T, *blocks)
    problems = validate_dataset(data)
    if problems:
        raise SchemaError(f"{path}: invalid records: " + "; ".join(problems[:5]))
    return data, (names1, names2, names3)


def write_dataset_csv(path, data: Dataset, shared: bool = True):
    """Write a dataset in the schema ``read_dataset_csv`` ingests.

    ``shared=True`` uses the z_* shorthand when all three blocks are
    identical per record; otherwise the per-transition block schema.
    """
    shared = shared and np.array_equal(data.Z1, data.Z2) and np.array_equal(data.Z1, data.Z3)
    blocks = [("z", data.dims[0])] if shared else list(zip(("z1", "z2", "z3"), data.dims))
    header = list(_META_COLS) + [f"{b}_{i + 1}" for b, d in blocks for i in range(d)]
    Z = data.Z1 if shared else np.hstack([data.Z1, data.Z2, data.Z3])
    # tolist() gives Python floats, whose repr is the shortest round-trip text
    rows = zip(data.l.tolist(), data.y1.tolist(), data.delta1.astype(int).tolist(),
               data.y2.tolist(), data.delta2.astype(int).tolist(), Z.tolist())
    with open(path, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        for l, y1, delta1, y2, delta2, z in rows:
            w.writerow([repr(l), repr(y1), delta1, repr(y2), delta2] + [repr(v) for v in z])


def standardize_covariates(data: Dataset) -> Dataset:
    """Center and scale every covariate column to unit standard deviation.

    Penalties are scale-sensitive; reported estimates are then on the
    standardized scale.  Constant columns are left centered only.
    """
    arr = data.arrays()
    Zs = []
    for key in ("Z1", "Z2", "Z3"):
        Z = arr[key]
        sd = Z.std(axis=0, ddof=1)
        sd[sd == 0.0] = 1.0
        Zs.append((Z - Z.mean(axis=0)) / sd)
    return Dataset.from_arrays(*(arr[k] for k in _META_COLS), *Zs)


# ---------------------------------------------------------------------------
# Oracle benchmark
# ---------------------------------------------------------------------------

def oracle_fit(data: Dataset, support_per_transition, cfg: FitConfig):
    """Refit with the true support known: drop the null columns, fit
    unpenalized, and embed the estimates back into the full coordinates."""
    keeps = [np.asarray(s, dtype=int) for s in support_per_transition]
    reduced = data.restrict_covariates(*keeps)
    fr = fit_unpenalized(reduced, cfg)
    beta = np.zeros(data.p)
    offs = np.concatenate([[0], np.cumsum(data.dims)])
    b = fr.params.beta
    for k, fitted in enumerate((b.beta1, b.beta2, b.beta3)):
        beta[offs[k] + keeps[k]] = fitted
    return beta, fr


# ---------------------------------------------------------------------------
# Replication study
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ExperimentConfig:
    """A resolved simulation experiment: scenario, methods, and policies."""

    scenario: SimulationScenario
    methods: tuple
    replications: int
    fit: FitConfig
    lambda_grid: np.ndarray
    out_dir: str = "."
    jobs: int = 1

    def __post_init__(self):
        _check_study(self.methods, self.replications, self.jobs)


def _check_study(methods, replications, jobs):
    """Raise ValueError unless there is at least one replicate, at least one
    worker, and one or more known methods, none repeated;
    ``parse_experiment_config`` calls it before calibrating."""
    if replications < 1:
        raise ValueError("replication count must be at least 1")
    if jobs < 1:
        raise ValueError("jobs must be at least 1")
    if not methods:
        raise ValueError("at least one method is required")
    for i, m in enumerate(methods):
        if m not in ("bar", "lasso", "alasso", "oracle"):
            raise ValueError(f"unknown method {m!r}")
        if m in methods[:i]:
            raise ValueError(f"repeated method {m!r}")


@dataclass(frozen=True)
class StudyResult:
    rows: list
    aggregates: dict
    failures: list
    reference: object          # FitResult of the first successful replicate


def _true_support(scenario):
    b = scenario.beta
    return [np.flatnonzero(v != 0.0) for v in (b.beta1, b.beta2, b.beta3)]


def _estimate(data: Dataset, nu: FitResult, method, fit_cfg: FitConfig, grid, support):
    """The stacked estimate of ``method``, its chosen lambda and its
    ``GcvResult``: the oracle refits on ``support`` (lambda nan, no GCV
    result), the penalties tune lambda over ``grid`` by GCV from the
    unpenalized fit ``nu``."""
    if method == "oracle":
        beta_hat, _ = oracle_fit(data, support, fit_cfg)
        return beta_hat, np.nan, None
    res = gcv_select(data, nu, PenaltyConfig(kind=method, lambda_grid=grid))
    return res.best.beta_hat, res.best_lambda, res


def _replicate(config: ExperimentConfig, index: int):
    """One replicate: simulate, fit once, then run every method; each
    method maps to its metrics and chosen lambda."""
    plan = ReplicateSeedPlan(config.scenario.seed)
    data = simulate_dataset(config.scenario, rng=plan.rng(index))
    arr = data.arrays()
    sigmas = [np.cov(arr[k], rowvar=False, ddof=1) for k in ("Z1", "Z2", "Z3")]
    truth = config.scenario.beta
    truth_parts = (truth.beta1, truth.beta2, truth.beta3)
    nu = fit_unpenalized(data, config.fit)
    grouped = config.scenario.design == "grouped"
    support = _true_support(config.scenario)
    eps = PenaltyConfig.zero_threshold

    out = {}
    for method in config.methods:
        beta_hat, lam, _ = _estimate(data, nu, method, config.fit, config.lambda_grid,
                                     support)
        tp, fp, mcv = confusion_counts(beta_hat, truth.stacked, eps)
        b = RegressionCoefficients.from_stacked(beta_hat, data.dims)
        parts = (b.beta1, b.beta2, b.beta3)
        total_mse = sum(mse(bh, b0, S) for bh, b0, S in zip(parts, truth_parts, sigmas))
        sel_parts = [np.abs(bh) >= eps for bh in parts]
        g = ges(sel_parts, GROUP_LAYOUT) if grouped else np.nan
        out[method] = (ReplicateMetrics(tp=tp, fp=fp, mcv=mcv, mse=total_mse,
                                        selected=np.concatenate(sel_parts).astype(int),
                                        ges=g), lam)
    return index, out, nu


def run_study(config: ExperimentConfig) -> StudyResult:
    """Run the replication study; failed replicates are excluded from the
    aggregates and reported alongside them."""
    indices = list(range(config.replications))
    results, failures = {}, []

    if config.jobs > 1:
        with concurrent.futures.ProcessPoolExecutor(max_workers=config.jobs) as pool:
            futs = {pool.submit(_replicate, config, i): i for i in indices}
            for fut in concurrent.futures.as_completed(futs):
                i = futs[fut]
                try:
                    results[i] = fut.result()
                except Exception as exc:  # noqa: BLE001 - per-replicate quarantine
                    failures.append((i, f"{type(exc).__name__}: {exc}"))
    else:
        for i in indices:
            try:
                results[i] = _replicate(config, i)
            except Exception as exc:  # noqa: BLE001
                failures.append((i, f"{type(exc).__name__}: {exc}"))

    rows = []
    per_method = {m: [] for m in config.methods}
    reference = None
    for i in sorted(results):
        _, metrics, nu = results[i]
        if reference is None:
            reference = nu
        for m in config.methods:
            r, lam = metrics[m]
            rows.append({
                "replicate": i, "method": m, "tp": r.tp, "fp": r.fp,
                "mcv": r.mcv, "mse": r.mse, "ges": r.ges, "lambda": lam,
                "n_selected": int(r.selected.sum()),
                "fit_converged": nu.converged, "fit_iterations": nu.n_iter})
            per_method[m].append(r)
    aggregates = {m: aggregate(lst) for m, lst in per_method.items() if lst}
    return StudyResult(rows=rows, aggregates=aggregates,
                       failures=sorted(failures), reference=reference)


# ---------------------------------------------------------------------------
# Experiment config files (flat key = value)
# ---------------------------------------------------------------------------

_CONFIG_KEYS = {
    "n", "replications", "design", "rho", "censoring", "trunc_fraction",
    "baseline", "degrees", "methods", "seed", "lambda_min", "lambda_max",
    "lambda_count", "jobs", "out",
}


def _parse_kv(path):
    out = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise SchemaError(f"{path}:{lineno}: expected 'key = value'")
            key, val = (s.strip() for s in line.split("=", 1))
            if key not in _CONFIG_KEYS:
                raise SchemaError(f"{path}:{lineno}: unknown key {key!r}")
            out[key] = val
    return out


def _check_scenario(n, design, rho, censoring, trunc_fraction, seed):
    """Raise ValueError unless the scenario settings can be calibrated."""
    if n < 1:
        raise ValueError("n must be at least 1")
    if seed < 0:
        raise ValueError("seed must be non-negative")
    if design not in ("ar1", "grouped"):
        raise ValueError(f"unknown design {design!r}")
    if not 0.0 <= rho < 1.0:
        raise ValueError("rho must lie in [0, 1)")
    if not 0.0 < censoring < 1.0:
        raise ValueError("censoring must lie in (0, 1)")
    if not 0.0 <= trunc_fraction < np.inf:
        raise ValueError("trunc_fraction must be finite and non-negative")


def resolve_scenario(n, design, rho, censor_target, trunc_fraction, seed):
    """Build a fully calibrated scenario: censoring first without
    truncation, then the truncation bound, then censoring again under it."""
    maker = (lambda c, t: scenario_grouped(n, rho, c, t, seed)) if design == "grouped" \
        else (lambda c, t: scenario_diverging_p(n, c, t, rho, seed))
    cal_rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(0xCA1,)))
    scen = maker(1.0, 0.0)
    c0 = calibrate_censoring(scen, censor_target, cal_rng)
    trunc = 0.0
    if trunc_fraction > 0.0:
        trunc = calibrate_truncation(replace(scen, censor_upper=c0), cal_rng,
                                     fraction=trunc_fraction)
        c0 = calibrate_censoring(replace(scen, trunc_upper=trunc), censor_target,
                                 cal_rng)
    return maker(c0, trunc)


def parse_experiment_config(path, seed_override=None) -> ExperimentConfig:
    kv = _parse_kv(path)
    try:
        n = int(kv.get("n", "300"))
        reps = int(kv.get("replications", "100"))
        design = kv.get("design", "ar1")
        rho = float(kv.get("rho", "0.5"))
        censoring = float(kv.get("censoring", "0.5"))
        trunc_fraction = float(kv.get("trunc_fraction", "0"))
        seed = int(kv.get("seed", "0")) if seed_override is None else int(seed_override)
        baseline = kv.get("baseline", "bernstein")
        if "degrees" in kv and baseline == "weibull":
            raise ValueError("key 'degrees' requires baseline = bernstein")
        degrees = tuple(int(x) for x in kv.get("degrees", "2,2,3").split(","))
        methods = tuple(m.strip() for m in
                        kv.get("methods", "bar,lasso,alasso,oracle").split(","))
        lam_min = float(kv.get("lambda_min", "1e-3"))
        lam_max = float(kv.get("lambda_max", "1e2"))
        lam_count = int(kv.get("lambda_count", "30"))
        jobs = int(kv.get("jobs", "1"))
        out_dir = kv.get("out", ".")
        fit = FitConfig(baseline=baseline, degrees=degrees)
        grid = default_lambda_grid(n, lam_min, lam_max, lam_count)
        _check_scenario(n, design, rho, censoring, trunc_fraction, seed)
        _check_study(methods, reps, jobs)
    except ValueError as exc:
        raise SchemaError(f"{path}: {exc}") from None
    scenario = resolve_scenario(n, design, rho, censoring, trunc_fraction, seed)
    return ExperimentConfig(scenario=scenario, methods=methods, replications=reps,
                            fit=fit, lambda_grid=grid, out_dir=out_dir, jobs=jobs)


# ---------------------------------------------------------------------------
# Report writers
# ---------------------------------------------------------------------------

def _fmt(x):
    if isinstance(x, float):
        return "nan" if np.isnan(x) else f"{x:.6g}"
    return str(x)


def _write_rows_csv(path, header, rows, footer_comments=()):
    with open(path, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        for row in rows:
            w.writerow([_fmt(v) for v in row])
        for line in footer_comments:
            fh.write(f"# {line}\n")


def _convergence_line(fr: FitResult) -> str:
    return f"converged: {fr.converged}  iterations: {fr.n_iter}  grad_norm: {fr.grad_norm:.3g}\n"


def _coef_table(names, beta, fh, eps=None):
    """Coefficients by transition, one row per covariate name.

    Each coefficient is labelled by its own column name; a name missing
    from a transition's block leaves that cell blank.  With ``eps``,
    coefficients below it print as '-' (not selected).
    """
    fh.write(f"{'variable':<16}{TRANSITION_LABELS[0]:>14}{TRANSITION_LABELS[1]:>14}"
             f"{'Death after CR':>16}\n")
    index = [{nm: i for i, nm in enumerate(block)} for block in names]
    for nm in dict.fromkeys(nm for block in names for nm in block):
        cells = []
        for k in range(3):
            if nm not in index[k]:
                cells.append(" " * 14)
                continue
            v = beta[k][index[k][nm]]
            cells.append(f"{'-':>14}" if eps is not None and abs(v) < eps else f"{v:>14.4f}")
        fh.write(f"{nm:<16}" + cells[0] + cells[1] + cells[2].rjust(16) + "\n")


def _hazard_curves(scenario, reference: FitResult):
    """true-vs-estimated hazard samples per transition on uniform grids:
    up to the fitted support's end for a Bernstein fit, and up to the time
    at which the true cumulative hazard reaches 1 for a Weibull fit."""
    spec = reference.params.nuisance.baseline
    truth = WeibullBaselineSet(scenario.log_alpha, scenario.log_tau)
    rows = []
    for j in (1, 2, 3):
        if isinstance(spec, BernsteinBaselineSet):
            tmax = spec.supports[j - 1][1]
        else:
            tmax = np.exp(-truth.log_tau[j - 1] / truth.alpha[j - 1])
        grid = np.linspace(tmax / _HAZARD_GRID_POINTS, tmax, _HAZARD_GRID_POINTS)
        cols = [np.exp(b.log_hazard(grid, j)) for b in (truth, spec)]
        cols += [cumulative_hazard(grid, b, j) for b in (truth, spec)]
        rows += [(j, t, *vals) for t, *vals in zip(grid, *cols)]
    return rows


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def _fit_config_from_args(args, data) -> FitConfig:
    """The fit policy the flags ask for.  ``--degrees`` needs a Bernstein
    baseline; with ``--degrees bic`` the degrees are chosen by BIC and
    ``bic_table.csv`` is written to the output directory."""
    cfg = FitConfig(baseline=args.baseline)
    if args.degrees is not None and args.baseline != "bernstein":
        raise SchemaError(f"--degrees {args.degrees} requires --baseline bernstein")
    if args.degrees == "bic":
        cand = [(2, 2, 3), (3, 3, 3), (4, 4, 4), (5, 5, 6), (6, 6, 6)]
        best, table = bic_degree_select(data, cand, cfg)
        rows = [(",".join(map(str, r["degrees"])), r["loglik"], r["bic"],
                 r["converged"], "argmin" if r["degrees"] == best else "")
                for r in table]
        _write_rows_csv(os.path.join(args.out, "bic_table.csv"),
                        ["degrees", "loglik", "bic", "converged", "mark"], rows)
        return replace(cfg, degrees=best)
    if args.degrees is not None:
        try:
            cfg = replace(cfg, degrees=tuple(int(x) for x in args.degrees.split(",")))
        except ValueError as exc:
            raise SchemaError(f"--degrees expects m1,m2,m3 or 'bic': {exc}") from None
    return cfg


def _read(args):
    """Data and column names of a ``fit`` or ``select`` call; makes the
    output directory."""
    data, names = read_dataset_csv(args.csv)
    if args.standardize:
        data = standardize_covariates(data)
    os.makedirs(args.out, exist_ok=True)
    return data, names


def cmd_fit(args) -> int:
    """Unpenalized fit (optionally BIC-selected Bernstein degrees)."""
    data, names = _read(args)
    cfg = _fit_config_from_args(args, data)
    fr = fit_unpenalized(data, cfg)

    report = os.path.join(args.out, "fit_report.txt")
    with open(report, "w", encoding="utf-8") as fh:
        fh.write(f"baseline: {cfg.baseline}\n")
        if cfg.baseline == "bernstein":
            fh.write(f"degrees: {cfg.degrees}\n")
        fh.write(f"n: {len(data)}  p: {data.p}\n")
        fh.write(f"log-likelihood: {fr.loglik:.6f}\n")
        fh.write(_convergence_line(fr))
        fh.write(f"frailty variance: {fr.params.nuisance.gamma:.6f}\n")
        spec = fr.params.nuisance.baseline
        if isinstance(spec, WeibullBaselineSet):
            fh.write(f"log_alpha: {np.array2string(spec.log_alpha, precision=4)}\n")
            fh.write(f"log_tau: {np.array2string(spec.log_tau, precision=4)}\n")
        else:
            for j in range(3):
                fh.write(f"phi[{j + 1}]: {np.array2string(spec.coeffs[j], precision=4)}"
                         f"  support: {spec.supports[j]}\n")
        fh.write("\nunpenalized estimates\n")
        b = fr.params.beta
        _coef_table(names, (b.beta1, b.beta2, b.beta3), fh)
    print(f"wrote {report}")
    return 0


def _parse_oracle_support(text, dims):
    try:
        parts = [np.array([int(v) - 1 for v in blk.split(",") if v.strip()])
                 for blk in text.split(";")]
    except ValueError:
        raise SchemaError("--oracle-support expects '1,2;1,3;2' (1-based)") from None
    if len(parts) == 1:
        parts = parts * 3
    if len(parts) != 3:
        raise SchemaError("--oracle-support needs one or three index lists")
    for k, p in enumerate(parts):
        if p.size == 0 or p.min() < 0 or p.max() >= dims[k]:
            raise SchemaError(f"--oracle-support block {k + 1} out of range")
        if np.unique(p).size < p.size:
            raise SchemaError(f"--oracle-support block {k + 1} repeats an index")
    return parts


def cmd_select(args) -> int:
    """Penalized selection with GCV-tuned lambda (or an oracle refit)."""
    if args.method == "oracle" and not args.oracle_support:
        raise SchemaError("method 'oracle' requires --oracle-support")
    data, names = _read(args)
    keeps = (_parse_oracle_support(args.oracle_support, data.dims)
             if args.method == "oracle" else None)
    cfg = _fit_config_from_args(args, data)
    grid = default_lambda_grid(len(data), args.lambda_min, args.lambda_max,
                               args.lambda_count)
    nu = fit_unpenalized(data, cfg)
    beta_hat, chosen, res = _estimate(data, nu, args.method, cfg, grid, keeps)
    if res is not None:
        header = ["lambda", "n_selected", "s", "loglik", "gcv", "ok", "note",
                  "converged", "n_iter", "jitter"]
        _write_rows_csv(os.path.join(args.out, "gcv_table.csv"), header,
                        [[r[k] for k in header] for r in res.table])

    report = os.path.join(args.out, "selection_report.txt")
    with open(report, "w", encoding="utf-8") as fh:
        fh.write(f"method: {args.method}  baseline: {cfg.baseline}\n")
        if args.standardize:
            fh.write("covariates standardized; estimates on the standardized scale\n")
        fh.write(_convergence_line(nu))
        if args.method != "oracle":
            fh.write(f"lambda grid: [{grid.min():.4g}, {grid.max():.4g}] "
                     f"({grid.size} points)\n")
            if grid.size == 1:
                fh.write("note: single-point grid, tuning is degenerate\n")
            fh.write(f"chosen lambda: {chosen:.6g}\n")
        eps = PenaltyConfig.zero_threshold
        n_sel = int(np.sum(np.abs(beta_hat) >= eps))
        fh.write(f"selected coefficients: {n_sel} of {data.p}\n\n")
        b = RegressionCoefficients.from_stacked(beta_hat, data.dims)
        _coef_table(names, (b.beta1, b.beta2, b.beta3), fh, eps)
    print(f"wrote {report}")
    return 0


def cmd_simulate(args) -> int:
    """Replicated simulation study from a config file."""
    if args.seed is not None and args.seed < 0:
        raise SchemaError("--seed must be non-negative")
    config = parse_experiment_config(args.config, seed_override=args.seed)
    if args.jobs is not None:
        config = replace(config, jobs=args.jobs)
    if args.out is not None:
        config = replace(config, out_dir=args.out)
    os.makedirs(config.out_dir, exist_ok=True)

    result = run_study(config)
    n_failed = len(result.failures)
    footer = [f"failed replicates: {n_failed} of {config.replications}"]
    footer += [f"replicate {i}: {msg}" for i, msg in result.failures]

    rep_header = ["replicate", "method", "tp", "fp", "mcv", "mse", "ges",
                  "lambda", "n_selected", "fit_converged", "fit_iterations"]
    _write_rows_csv(os.path.join(config.out_dir, "replicates.csv"), rep_header,
                    [[r[k] for k in rep_header] for r in result.rows])

    agg_rows = []
    for m in config.methods:
        if m not in result.aggregates:
            continue
        a = result.aggregates[m]
        agg_rows.append((m, a.n_replicates, a.mean_tp, a.mean_fp, a.mean_mcv,
                         a.mmse, a.sd_mse, a.mean_ges, n_failed))
    _write_rows_csv(os.path.join(config.out_dir, "aggregate.csv"),
                    ["method", "n_replicates", "tp", "fp", "mcv", "mmse",
                     "sd", "ges", "n_failed"], agg_rows, footer)

    if result.reference is not None:
        _write_rows_csv(os.path.join(config.out_dir, "hazard_curves.csv"),
                        ["transition", "t", "true_hazard", "est_hazard",
                         "true_cumhaz", "est_cumhaz"],
                        _hazard_curves(config.scenario, result.reference))

    print(f"wrote {config.out_dir}/replicates.csv, aggregate.csv, hazard_curves.csv"
          f" ({n_failed} failed replicates)")
    if config.replications and n_failed / config.replications > 0.2:
        print("more than 20% of replicates failed", file=sys.stderr)
        return 2
    return 0


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise SchemaError(message)


def _positive(kind):
    """An argparse type: ``kind(text)``, refused unless finite and above 0."""
    def parse(text):
        value = kind(text)
        if not 0 < value < np.inf:
            raise argparse.ArgumentTypeError(f"must be positive and finite, got {text!r}")
        return value
    parse.__name__ = kind.__name__          # argparse names it in errors
    return parse


def build_parser() -> argparse.ArgumentParser:
    p = _Parser(prog="scrbar", description=__doc__,
                formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--baseline", choices=("weibull", "bernstein"),
                        default="weibull")
        sp.add_argument("--degrees", default=None,
                        help="m1,m2,m3 or 'bic' (bernstein only)")
        sp.add_argument("--standardize", action="store_true")
        sp.add_argument("--out", default=".", help="output directory")

    f = sub.add_parser("fit", help="unpenalized maximum-likelihood fit")
    f.add_argument("csv")
    common(f)

    s = sub.add_parser("select", help="penalized variable selection")
    s.add_argument("csv")
    s.add_argument("--method", choices=("bar", "lasso", "alasso", "oracle"),
                   default="bar")
    s.add_argument("--lambda-min", type=_positive(float), default=1e-3)
    s.add_argument("--lambda-max", type=_positive(float), default=1e2)
    s.add_argument("--lambda-count", type=_positive(int), default=30)
    s.add_argument("--oracle-support", default=None,
                   help="1-based column indices per transition, ';'-separated")
    common(s)

    m = sub.add_parser("simulate", help="replicated simulation study")
    m.add_argument("config")
    m.add_argument("--jobs", type=_positive(int), default=None)
    m.add_argument("--seed", type=int, default=None,
                   help="override the config seed")
    m.add_argument("--out", default=None)
    return p


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        handler = {"fit": cmd_fit, "select": cmd_select, "simulate": cmd_simulate}
        return handler[args.command](args)
    except SchemaError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (np.linalg.LinAlgError, ArithmeticError, ScenarioError,
            RuntimeError, ValueError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
