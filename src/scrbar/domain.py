"""Core data types for semi-competing risks observations.

A subject in the illness-death layout carries a left-truncation time ``l``,
a first-transition time ``y1`` with indicator ``delta1`` (non-terminal
event), a terminal/censoring time ``y2`` with indicator ``delta2``, and one
covariate vector per transition.  ``Dataset`` stores them as columns, which
the numeric modules read directly; ``SubjectRecord`` is one subject as a row.
All types are immutable after construction and safe to share across
workers.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

__all__ = [
    "ObservationScenario",
    "SubjectRecord",
    "Dataset",
    "RegressionCoefficients",
    "NuisanceParameters",
    "ModelParameters",
    "classify_scenario",
    "validate_dataset",
]


class ObservationScenario(enum.Enum):
    """The four observation patterns determined by (delta1, delta2)."""

    BOTH_OBSERVED = "both_observed"
    NONTERMINAL_THEN_CENSORED = "nonterminal_then_censored"
    TERMINAL_ONLY = "terminal_only"
    NONE_OBSERVED = "none_observed"


_COLUMNS = ("l", "y1", "delta1", "y2", "delta2", "Z1", "Z2", "Z3")
_RECORD_FIELDS = ("l", "y1", "delta1", "y2", "delta2", "z1", "z2", "z3")


def _readonly(x) -> np.ndarray:
    # C order: matrix products then sum in the same order whatever the source
    a = np.array(x, dtype=float, order="C")
    a.flags.writeable = False
    return a


@dataclass(frozen=True)
class SubjectRecord:
    """One subject: truncation time, two observed times, two indicators,
    and the three transition-specific covariate vectors."""

    l: float
    y1: float
    delta1: int
    y2: float
    delta2: int
    z1: np.ndarray
    z2: np.ndarray
    z3: np.ndarray

    def __post_init__(self):
        casts = (float, float, int, float, int, _readonly, _readonly, _readonly)
        for name, cast in zip(_RECORD_FIELDS, casts):
            object.__setattr__(self, name, cast(getattr(self, name)))

    @property
    def sojourn(self) -> float:
        """Time from the non-terminal event to y2 (0 when delta1 = 0)."""
        return self.y2 - self.y1 if self.delta1 == 1 else 0.0


@dataclass(frozen=True, eq=False)
class Dataset:
    """A nonempty set of subjects stored as eight read-only float columns:
    n-vectors l, y1, delta1, y2, delta2 and n x d_k matrices Z1, Z2, Z3.

    Build one from columns with ``from_arrays`` or by stacking
    ``SubjectRecord``s with ``Dataset(records)``; ``records`` gives the rows.
    """

    l: np.ndarray
    y1: np.ndarray
    delta1: np.ndarray
    y2: np.ndarray
    delta2: np.ndarray
    Z1: np.ndarray
    Z2: np.ndarray
    Z3: np.ndarray

    def __init__(self, records):
        records = tuple(records)
        dims = [(len(r.z1), len(r.z2), len(r.z3)) for r in records]
        for i, d in enumerate(dims):
            if d != dims[0]:
                raise ValueError(f"covariate length mismatch at index {i}")
        self._store(*([getattr(r, f) for r in records] for f in _RECORD_FIELDS))

    def _store(self, l, y1, delta1, y2, delta2, Z1, Z2, Z3):
        cols = [_readonly(c) for c in (l, y1, delta1, y2, delta2)]
        cols += [_readonly(np.atleast_2d(Z)) for Z in (Z1, Z2, Z3)]
        n = len(cols[0])
        if n == 0 or any(c.ndim != 1 for c in cols[:5]) or any(len(c) != n for c in cols):
            raise ValueError("Dataset requires at least one record and one row per record")
        for name, col in zip(_COLUMNS, cols):
            object.__setattr__(self, name, col)

    def __len__(self) -> int:
        return len(self.l)

    @property
    def n(self) -> int:
        return len(self.l)

    @property
    def dims(self) -> tuple:
        return (self.Z1.shape[1], self.Z2.shape[1], self.Z3.shape[1])

    @property
    def p(self) -> int:
        return sum(self.dims)

    @property
    def records(self) -> tuple:
        """The subjects as ``SubjectRecord`` rows, built on each access."""
        return tuple(SubjectRecord(*row) for row in zip(*(getattr(self, c) for c in _COLUMNS)))

    def arrays(self) -> dict:
        """The stored columns by name, without copying."""
        return {name: getattr(self, name) for name in _COLUMNS}

    @staticmethod
    def from_arrays(l, y1, delta1, y2, delta2, Z1, Z2, Z3) -> "Dataset":
        """Dataset holding read-only float copies of the given columns."""
        data = object.__new__(Dataset)
        data._store(l, y1, delta1, y2, delta2, Z1, Z2, Z3)
        return data

    def restrict_covariates(self, keep1, keep2, keep3) -> "Dataset":
        """New dataset keeping only the given covariate columns per transition."""
        keep1, keep2, keep3 = (np.asarray(k, dtype=int) for k in (keep1, keep2, keep3))
        return Dataset.from_arrays(self.l, self.y1, self.delta1, self.y2, self.delta2,
                                   self.Z1[:, keep1], self.Z2[:, keep2], self.Z3[:, keep3])


@dataclass(frozen=True)
class RegressionCoefficients:
    """Per-transition coefficient vectors; stacking order is always
    (transition 1, transition 2, transition 3)."""

    beta1: np.ndarray
    beta2: np.ndarray
    beta3: np.ndarray

    def __post_init__(self):
        for name in ("beta1", "beta2", "beta3"):
            object.__setattr__(self, name, _readonly(getattr(self, name)))

    @property
    def dims(self) -> tuple:
        return (len(self.beta1), len(self.beta2), len(self.beta3))

    @property
    def stacked(self) -> np.ndarray:
        return np.concatenate([self.beta1, self.beta2, self.beta3])

    @staticmethod
    def from_stacked(vec, dims) -> "RegressionCoefficients":
        vec = np.asarray(vec, dtype=float)
        d1, d2, d3 = dims
        if vec.shape != (d1 + d2 + d3,):
            raise ValueError(f"expected stacked length {d1 + d2 + d3}, got {vec.shape}")
        return RegressionCoefficients(vec[:d1], vec[d1:d1 + d2], vec[d1 + d2:])

    @staticmethod
    def zeros(dims) -> "RegressionCoefficients":
        return RegressionCoefficients(*(np.zeros(d) for d in dims))


@dataclass(frozen=True)
class NuisanceParameters:
    """Frailty variance plus the baseline-hazard block (Weibull or Bernstein)."""

    gamma: float
    baseline: object  # WeibullBaselineSet | BernsteinBaselineSet

    def __post_init__(self):
        g = float(self.gamma)
        if not np.isfinite(g) or g <= 0:
            raise ValueError(f"frailty variance must be positive, got {g}")
        object.__setattr__(self, "gamma", g)


@dataclass(frozen=True)
class ModelParameters:
    """Full parameter bundle: regression coefficients plus nuisance block."""

    beta: RegressionCoefficients
    nuisance: NuisanceParameters


def classify_scenario(rec: SubjectRecord) -> ObservationScenario:
    """Map (delta1, delta2) to the observation scenario.

    (1,1) both events observed; (1,0) non-terminal then censored;
    (0,1) terminal only; (0,0) nothing observed.
    """
    if rec.delta1 == 1:
        return (ObservationScenario.BOTH_OBSERVED if rec.delta2 == 1
                else ObservationScenario.NONTERMINAL_THEN_CENSORED)
    return (ObservationScenario.TERMINAL_ONLY if rec.delta2 == 1
            else ObservationScenario.NONE_OBSERVED)


def validate_dataset(data: Dataset, include_warnings: bool = False) -> list:
    """Check every subject against the structural invariants.

    Returns a list of human-readable violation strings, empty iff the
    dataset is well formed.  Never raises.  With ``include_warnings``,
    additionally flags zero-sojourn records (delta1 = 1, y1 = y2), which
    are legal but contribute a degenerate likelihood term when delta2 = 1.
    """
    l, y1, y2, d1, d2 = data.l, data.y1, data.y2, data.delta1, data.delta2
    finite = np.isfinite(l) & np.isfinite(y1) & np.isfinite(y2)
    # per subject in report order; subjects with a non-finite time skip them
    checks = [
        ("negative time", (l < 0) | (y1 < 0) | (y2 < 0)),
        ("l < y1 failed", ~(l < y1)),
        ("non-binary indicator", ~(np.isin(d1, (0.0, 1.0)) & np.isin(d2, (0.0, 1.0)))),
        ("δ1=0 requires y1=y2", (d1 == 0) & (y1 != y2)),
        ("δ1=1 requires y1 ≤ y2", (d1 == 1) & (y1 > y2)),
        ("non-finite covariate",
         ~np.isfinite(np.hstack([data.Z1, data.Z2, data.Z3])).all(axis=1)),
    ]
    if include_warnings:
        checks.append(("warning: zero sojourn (δ1=1, y1=y2)", (d1 == 1) & (y1 == y2)))
    findings = []
    for i in np.flatnonzero(~finite | np.any([mask for _, mask in checks], axis=0)):
        findings += ([f"{what} at index {i}" for what, mask in checks if mask[i]]
                     if finite[i] else [f"non-finite time at index {i}"])
    return findings
