import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scrbar import (
    Dataset,
    ObservationScenario,
    RegressionCoefficients,
    SubjectRecord,
    classify_scenario,
    validate_dataset,
)
from _helpers import small_dataset


def rec(l=0.0, y1=1.0, d1=1, y2=2.0, d2=1, d=2):
    z = np.zeros(d)
    return SubjectRecord(l, y1, d1, y2, d2, z, z, z)


class TestValidate:
    def test_truncation_after_first_time(self):
        data = Dataset([rec(l=2.0, y1=1.0, d1=0, y2=1.0, d2=0)])
        findings = validate_dataset(data)
        assert len(findings) == 1
        assert "l < y1" in findings[0] and "index 0" in findings[0]

    def test_censored_first_requires_equal_times(self):
        data = Dataset([rec(l=0.0, y1=3.0, d1=0, y2=5.0, d2=0)])
        findings = validate_dataset(data)
        assert any("y1=y2" in f for f in findings)

    def test_well_formed_dataset_is_clean(self):
        data = small_dataset(n=10, seed=4)
        assert validate_dataset(data) == []

    def test_generated_data_always_clean(self):
        for seed in range(5):
            assert validate_dataset(small_dataset(n=30, seed=seed)) == []

    def test_covariate_length_mismatch(self):
        bad = SubjectRecord(0.0, 1.0, 1, 2.0, 1, np.zeros(3), np.zeros(2), np.zeros(2))
        with pytest.raises(ValueError, match="mismatch at index 1"):
            Dataset([rec(), bad])

    def test_nonfinite_covariate(self):
        bad = SubjectRecord(0.0, 1.0, 0, 1.0, 0, [np.nan, 0.0], np.zeros(2), np.zeros(2))
        assert any("non-finite covariate" in f
                   for f in validate_dataset(Dataset([bad])))

    def test_zero_sojourn_is_warning_not_violation(self):
        data = Dataset([rec(y1=2.0, y2=2.0, d1=1, d2=0)])
        assert validate_dataset(data) == []
        flagged = validate_dataset(data, include_warnings=True)
        assert any(f.startswith("warning") for f in flagged)

    def test_never_raises(self):
        data = Dataset([rec(l=-1.0, y1=np.inf, d1=2, y2=-3.0, d2=0)])
        assert validate_dataset(data)  # findings, no exception


def _validate_by_loop(data, include_warnings):
    """Record-by-record statement of the invariants ``validate_dataset`` checks."""
    findings = []
    for i, r in enumerate(data.records):
        if not all(np.isfinite(t) for t in (r.l, r.y1, r.y2)):
            findings.append(f"non-finite time at index {i}")
            continue
        if r.l < 0 or r.y1 < 0 or r.y2 < 0:
            findings.append(f"negative time at index {i}")
        if not r.l < r.y1:
            findings.append(f"l < y1 failed at index {i}")
        if r.delta1 not in (0, 1) or r.delta2 not in (0, 1):
            findings.append(f"non-binary indicator at index {i}")
        if r.delta1 == 0 and r.y1 != r.y2:
            findings.append(f"δ1=0 requires y1=y2 at index {i}")
        if r.delta1 == 1 and r.y1 > r.y2:
            findings.append(f"δ1=1 requires y1 ≤ y2 at index {i}")
        if not all(np.isfinite(z).all() for z in (r.z1, r.z2, r.z3)):
            findings.append(f"non-finite covariate at index {i}")
        if include_warnings and r.delta1 == 1 and r.y1 == r.y2:
            findings.append(f"warning: zero sojourn (δ1=1, y1=y2) at index {i}")
    return findings


class TestValidateColumns:
    @settings(max_examples=200, deadline=None)
    @given(draw=st.data())
    def test_matches_record_by_record_reference(self, draw):
        n = draw.draw(st.integers(1, 5))
        times = st.one_of(st.sampled_from([0.0, 1.0, 2.0, -1.0, np.nan, np.inf]),
                          st.floats(-1.0, 3.0))
        cols = [draw.draw(st.lists(times if k in (0, 1, 3) else st.integers(0, 2),
                                   min_size=n, max_size=n)) for k in range(5)]
        cov = st.one_of(st.sampled_from([np.nan, -np.inf]), st.floats(-2.0, 2.0))
        Z = [draw.draw(st.lists(st.lists(cov, min_size=d, max_size=d), min_size=n, max_size=n))
             for d in (1, 2, 1)]
        data = Dataset.from_arrays(*cols, *Z)
        for warn in (False, True):
            assert validate_dataset(data, warn) == _validate_by_loop(data, warn)


class TestClassify:
    @pytest.mark.parametrize("d1,d2,expected", [
        (1, 1, ObservationScenario.BOTH_OBSERVED),
        (1, 0, ObservationScenario.NONTERMINAL_THEN_CENSORED),
        (0, 1, ObservationScenario.TERMINAL_ONLY),
        (0, 0, ObservationScenario.NONE_OBSERVED),
    ])
    def test_all_four_scenarios(self, d1, d2, expected):
        y2 = 2.0 if d1 == 1 else 1.0
        assert classify_scenario(rec(d1=d1, d2=d2, y2=y2)) is expected

    @given(st.integers(0, 1), st.integers(0, 1))
    def test_total_function(self, d1, d2):
        assert isinstance(classify_scenario(rec(d1=d1, d2=d2, y2=2.0)),
                          ObservationScenario)


class TestTypes:
    def test_records_are_immutable(self):
        r = rec()
        with pytest.raises(Exception):
            r.y1 = 5.0
        with pytest.raises(ValueError):
            r.z1[0] = 1.0

    def test_dataset_requires_records(self):
        with pytest.raises(ValueError):
            Dataset([])

    def test_stacking_round_trip(self):
        rng = np.random.default_rng(0)
        b = RegressionCoefficients(rng.normal(size=3), rng.normal(size=2),
                                   rng.normal(size=4))
        back = RegressionCoefficients.from_stacked(b.stacked, b.dims)
        np.testing.assert_array_equal(back.beta2, b.beta2)
        assert b.stacked.shape == (9,)

    def test_sojourn(self):
        assert rec(y1=1.0, y2=3.5, d1=1).sojourn == 2.5
        assert rec(y1=3.0, y2=3.0, d1=0).sojourn == 0.0

    def test_columns_stored_once_read_only_in_c_order(self):
        data = small_dataset(n=6, d=4).restrict_covariates([0, 2], [1], [0, 1, 3])
        arr = data.arrays()
        for name, col in arr.items():
            assert col is getattr(data, name) and col is data.arrays()[name]
            assert col.flags.c_contiguous and not col.flags.writeable
        with pytest.raises(ValueError):
            arr["y1"][0] = 1.0

    def test_restrict_covariates(self):
        data = small_dataset(n=5, d=4)
        reduced = data.restrict_covariates([0, 2], [1], [0, 1, 3])
        assert reduced.dims == (2, 1, 3)
        np.testing.assert_array_equal(reduced.records[0].z1,
                                      data.records[0].z1[[0, 2]])
