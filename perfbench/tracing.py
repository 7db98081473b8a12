"""Spans and answer capture around scrbar's public names.

Every wrapper is installed on the module (or class) attribute through which
scrbar itself looks the name up at call time: ``scrbar.cli`` imports
``simulate_dataset``, ``fit_unpenalized``, ``gcv_select`` and ``oracle_fit``
by name, and ``scrbar.selection`` imports ``pseudo_data`` the same way, so a
wrapper on the defining module alone would never fire on those paths.
A target that a later version of scrbar no longer has is skipped, and its
layer then reports 0 calls.  No private name is touched.
"""

from __future__ import annotations

import contextlib
import importlib
import time

# (span name, module, class or None, attribute).  One span name may cover
# several lookup sites; calibration probes and replicate draws share
# "datagen.simulate" and are told apart by their parent span.
TARGETS = (
    ("cli.run_study", "scrbar.cli", None, "run_study"),
    ("cli.main", "scrbar.cli", None, "main"),
    ("cli.read_csv", "scrbar.cli", None, "read_dataset_csv"),
    ("cli.oracle_fit", "scrbar.cli", None, "oracle_fit"),
    ("datagen.calibrate", "scrbar.cli", None, "calibrate_censoring"),
    ("datagen.simulate", "scrbar.cli", None, "simulate_dataset"),
    ("datagen.simulate", "scrbar.datagen", None, "simulate_dataset"),
    ("estimation.fit", "scrbar.cli", None, "fit_unpenalized"),
    ("selection.path", "scrbar.cli", None, "gcv_select"),
    ("selection.bar_step", "scrbar.selection", None, "bar_step"),
    ("selection.gcv_score", "scrbar.selection", None, "effective_params"),
    ("likelihood.pseudo_data", "scrbar.selection", None, "pseudo_data"),
    ("likelihood.init", "scrbar.likelihood", "BetaLikelihood", "__init__"),
    ("likelihood.loglik", "scrbar.likelihood", "BetaLikelihood", "loglik"),
    ("likelihood.gradient", "scrbar.likelihood", "BetaLikelihood", "gradient"),
    ("likelihood.hessian", "scrbar.likelihood", "BetaLikelihood", "hessian"),
    ("baselines.cumhaz", "scrbar.likelihood", None, "cumulative_hazard"),
    ("baselines.cumhaz", "scrbar.likelihood", None, "log_cumulative_hazard"),
    ("domain.arrays", "scrbar.domain", "Dataset", "arrays"),
)

# names whose returned values the benchmark checks; captured in every mode
CAPTURED = (
    ("fit", "scrbar.cli", "fit_unpenalized"),
    ("path", "scrbar.cli", "gcv_select"),
    ("oracle", "scrbar.cli", "oracle_fit"),
)

PATH_KINDS = ("bar", "lasso", "alasso")


def _owner(module_name, class_name):
    module = importlib.import_module(module_name)
    return module if class_name is None else getattr(module, class_name, None)


@contextlib.contextmanager
def _patched(replacements):
    """Set ``(owner, attr, wrapper)`` for the duration of the block."""
    saved = []
    try:
        for owner, attr, wrapper in replacements:
            saved.append((owner, attr, owner.__dict__[attr]))
            setattr(owner, attr, wrapper)
        yield
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


def _present(owner, attr):
    return owner is not None and callable(vars(owner).get(attr))


class Capture:
    """Keeps ``(kind, args, result)`` of every captured call, in call order.

    The wrappers do no timing, so the untimed and the traced runs can both
    check the answers behind each operation.
    """

    def __init__(self):
        self.calls = []

    def _wrap(self, kind, fn):
        calls = self.calls

        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            calls.append((kind, args, result))
            return result
        return wrapper

    def installed(self):
        repl = []
        for kind, module_name, attr in CAPTURED:
            owner = _owner(module_name, None)
            if _present(owner, attr):
                repl.append((owner, attr, self._wrap(kind, vars(owner)[attr])))
        return _patched(repl)

    def take(self):
        """Return and forget the calls captured so far."""
        calls = list(self.calls)
        self.calls.clear()
        return calls


class Span:
    __slots__ = ("name", "label", "start", "end", "parent", "child_s", "info")

    def __init__(self, name, label, start, parent):
        self.name, self.label, self.start, self.parent = name, label, start, parent
        self.end = start
        self.child_s = 0.0
        self.info = None

    @property
    def duration(self):
        return self.end - self.start

    @property
    def self_s(self):
        """Duration minus the time covered by direct children (one thread,
        so children never overlap each other)."""
        return self.duration - self.child_s

    def as_dict(self, index):
        return {"id": index, "name": self.name, "label": self.label,
                "start": self.start, "end": self.end, "parent": self.parent,
                "info": self.info}


def _label(name, args, kwargs):
    if name == "selection.path":
        cfg = args[2] if len(args) > 2 else kwargs.get("cfg")
        return getattr(cfg, "kind", None)
    return None


def path_nonconverged(gcv) -> int:
    """Lambda points of a ``GcvResult`` that hit ``max_iter`` or that its
    table marks not ok (failed, or excluded for s >= n)."""
    return (sum(1 for est in gcv.path if not est.converged)
            + sum(1 for row in gcv.table if not row["ok"]))


def _info(name, result):
    """Counters read from a returned value where the work happens."""
    if name == "estimation.fit":
        return {"n_iter": int(result.n_iter), "converged": bool(result.converged)}
    if name == "selection.path":
        return {"n_iter": sum(int(est.n_iter) for est in result.path),
                "nonconverged": path_nonconverged(result)}
    if name == "likelihood.pseudo_data":
        return {"jitter": float(result.jitter)}
    return None


class Tracer:
    """Records one span per call of each target while installed.

    Spans stay in memory (``self.spans``) until the caller writes them out.
    """

    def __init__(self):
        self.spans = []
        self._stack = []

    def _wrap(self, name, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def wrapper(*args, **kwargs):
            span = Span(name, _label(name, args, kwargs), clock(),
                        stack[-1] if stack else None)
            index = len(spans)
            spans.append(span)
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                span.end = clock()
                if span.parent is not None:
                    spans[span.parent].child_s += span.duration
            span.info = _info(name, result)
            return result
        return wrapper

    def installed(self):
        repl = []
        for name, module_name, class_name, attr in TARGETS:
            owner = _owner(module_name, class_name)
            if _present(owner, attr):
                repl.append((owner, attr, self._wrap(name, vars(owner)[attr])))
        return _patched(repl)

    def in_calibration(self, span):
        while span.parent is not None:
            span = self.spans[span.parent]
            if span.name == "datagen.calibrate":
                return True
        return False


def _of(spans, name):
    return [s for s in spans if s.name == name]


def setup_metrics(tracer: Tracer) -> dict:
    """Calibration totals of one traced set-up (per run, not per op)."""
    cal = _of(tracer.spans, "datagen.calibrate")
    probes = [s for s in _of(tracer.spans, "datagen.simulate") if tracer.in_calibration(s)]
    return {"datagen.calibrate_s": sum(s.duration for s in cal),
            "datagen.probe_calls": len(probes)}


def op_metrics(tracer: Tracer, n_ops: int) -> dict:
    """Per-layer totals over ``n_ops`` traced operations, divided by n_ops.

    ``*_s`` and ``*_ms`` are total time per operation, ``*_calls`` and
    ``*_iters`` counts per operation; ``estimation.iter_ms`` is per
    optimizer iteration.
    """
    spans = tracer.spans

    def total(name):
        return sum(s.duration for s in _of(spans, name))

    def calls(name):
        return len(_of(spans, name))

    fits = _of(spans, "estimation.fit")
    fit_s = total("estimation.fit")
    fit_iters = sum(s.info["n_iter"] for s in fits if s.info)
    draws = [s for s in _of(spans, "datagen.simulate") if not tracer.in_calibration(s)]
    roots = [s for s in spans if s.parent is None and s.name in ("cli.run_study", "cli.main")]
    paths = _of(spans, "selection.path")
    m = {
        "estimation.fit_s": fit_s,
        "estimation.fit_iters": fit_iters,
        "estimation.fit_nonconverged": sum(1 for s in fits if s.info and not s.info["converged"]),
        "cli.oracle_fit_s": total("cli.oracle_fit"),
    }
    for kind in PATH_KINDS:
        mine = [s for s in paths if s.label == kind]
        m[f"selection.path_s.{kind}"] = sum(s.duration for s in mine)
        m[f"selection.path_self_s.{kind}"] = sum(s.self_s for s in mine)
        m[f"selection.lambda_iters.{kind}"] = sum(s.info["n_iter"] for s in mine if s.info)
    m["selection.lambda_nonconverged"] = sum(s.info["nonconverged"] for s in paths if s.info)
    m["selection.bar_step_calls"] = calls("selection.bar_step")
    m["selection.gcv_score_ms"] = 1000.0 * total("selection.gcv_score")
    for part in ("hessian", "gradient", "pseudo_data"):
        m[f"likelihood.{part}_calls"] = calls(f"likelihood.{part}")
        m[f"likelihood.{part}_ms"] = 1000.0 * total(f"likelihood.{part}")
    m["likelihood.loglik_calls"] = calls("likelihood.loglik")
    m["likelihood.init_ms"] = 1000.0 * total("likelihood.init")
    m["likelihood.jitter_nonzero"] = sum(
        1 for s in _of(spans, "likelihood.pseudo_data") if s.info and s.info["jitter"] > 0.0)
    m["datagen.simulate_ms"] = 1000.0 * sum(s.duration for s in draws)
    m["baselines.cumhaz_calls"] = calls("baselines.cumhaz")
    m["baselines.cumhaz_ms"] = 1000.0 * total("baselines.cumhaz")
    m["domain.arrays_calls"] = calls("domain.arrays")
    m["domain.arrays_ms"] = 1000.0 * total("domain.arrays")
    m["cli.read_csv_ms"] = 1000.0 * total("cli.read_csv")
    m["cli.self_s"] = sum(s.self_s for s in roots)
    per_op = {k: v / n_ops for k, v in m.items()}
    per_op["estimation.iter_ms"] = 1000.0 * fit_s / fit_iters if fit_iters else 0.0
    return per_op
