import math

import pytest

from funvol.errors import SchemaError
from funvol.verify import (
    IDENTITY_IDS,
    IdentityCase,
    TolerancePolicy,
    canonical_json,
    default_manifest,
    manifest_from_json,
    report_csv,
    run_case,
    run_suite,
)

TENT = {"type": "tent", "s0": 1.0}


class TestIdentityCase:
    def test_unknown_id_rejected(self):
        with pytest.raises(SchemaError):
            IdentityCase("mystery", {})

    def test_tolerance_validation(self):
        with pytest.raises(SchemaError):
            TolerancePolicy(absolute=-1.0)

    def test_zero_tolerance_allowed(self):
        # a zero policy is the standard way to force a failing case
        TolerancePolicy(absolute=0.0, relative=0.0, multiplier=0.0)


class TestRunCase:
    def test_cone_case_passes(self):
        case = IdentityCase("cone", {"n": 2, "j": 1, "zeta": TENT, "t": 0.5,
                                     "samples": 16, "seed": 0},
                            TolerancePolicy(absolute=1e-6))
        report = run_case(case)
        assert report.verdict == "pass"
        assert report.lhs == pytest.approx(0.75 * math.pi, rel=1e-9)
        assert report.difference <= 1e-6

    def test_roundtrip_case(self):
        case = IdentityCase("r_roundtrip", {"zeta": TENT, "l": 2},
                            TolerancePolicy(absolute=1e-7))
        report = run_case(case)
        assert report.verdict == "pass"

    def test_degenerate_sampling_not_certified(self):
        # a single Monte Carlo sample (2-planes in R^4 have no cubature) cannot
        # report a standard error
        case = IdentityCase("ck_functional",
                            {"n": 4, "j": 2, "zeta": TENT, "samples": 1,
                             "u": {"type": "quadratic",
                                   "A": [[1.0, 0.0, 0.0, 0.0], [0.0, 4.0, 0.0, 0.0],
                                         [0.0, 0.0, 2.0, 0.0], [0.0, 0.0, 0.0, 3.0]],
                                   "b": [0.0] * 4, "c": 0.0}, "seed": 0})
        report = run_case(case)
        assert report.verdict in ("non_converged", "fail")

    def test_zero_tolerance_fails(self):
        case = IdentityCase("ck_classical",
                            {"K": {"type": "box",
                                   "intervals": [[0.0, 1.0], [0.0, 1.0], [0.0, 1.0]]},
                             "j": 2, "k": 2, "samples": 50, "seed": 0},
                            TolerancePolicy(absolute=0.0, relative=0.0,
                                            multiplier=0.0))
        assert run_case(case).verdict == "fail"

    def test_missing_param_raises_schema_error(self):
        with pytest.raises(SchemaError):
            run_case(IdentityCase("cone", {"n": 2}))


class TestSuite:
    def test_empty_manifest_passes(self):
        suite = run_suite([])
        assert suite.all_pass
        assert suite.reports == ()

    def test_coverage_of_default_manifest(self):
        ids = {c.id for c in default_manifest()}
        assert ids == set(IDENTITY_IDS)

    def test_default_averages_do_not_depend_on_the_seed(self):
        # every subspace average of the default suite is over lines or
        # hyperplanes in R^2 or R^3, where the cubature takes no random draw
        averaging = {"cone", "ck_functional", "ck_general", "ck_classical",
                     "dual_restriction", "valuation_property", "homogeneity"}
        runs = [[c for c in default_manifest(seed=seed) if c.id in averaging
                 or (c.id == "retrieval" and c.params["j"] > 0)] for seed in (1, 2)]
        assert len(runs[0]) == 11
        for a, b in zip(*(run_suite(cases).reports for cases in runs)):
            assert a.verdict == b.verdict == "pass", a.case.id
            assert (a.lhs, a.rhs, a.error) == (b.lhs, b.rhs, b.error), a.case.id

    def test_no_short_circuit(self):
        bump = {"type": "bump", "a": 0.2, "b": 0.8}
        failing = IdentityCase("r_roundtrip", {"zeta": bump, "l": 1},
                               TolerancePolicy(absolute=0.0, multiplier=0.0))
        passing = IdentityCase("r_roundtrip", {"zeta": TENT, "l": 1},
                               TolerancePolicy(absolute=1e-7))
        suite = run_suite([failing, passing])
        assert not suite.all_pass
        assert [r.verdict for r in suite.reports] == ["fail", "pass"]

    def test_default_suite_deterministic(self):
        manifest = default_manifest(samples=8, seed=3)
        subset = [c for c in manifest if c.id in
                  ("cone", "ck_functional", "retrieval", "j0_constancy")]
        a = run_suite(subset)
        b = run_suite(subset)
        assert canonical_json(a.to_dict(include_timing=False)) == \
            canonical_json(b.to_dict(include_timing=False))

    def test_manifest_round_trip(self):
        manifest = default_manifest(samples=8)
        data = [c.to_dict() for c in manifest]
        again = manifest_from_json(data)
        assert [c.id for c in again] == [c.id for c in manifest]

    def test_manifest_validation(self):
        with pytest.raises(SchemaError):
            manifest_from_json({"not": "a list"})
        with pytest.raises(SchemaError):
            manifest_from_json([{"params": {}}])


class TestSerialization:
    def test_canonical_json_sorted_and_17_digits(self):
        s = canonical_json({"b": 1.0 / 3.0, "a": 2})
        assert s.index('"a"') < s.index('"b"')
        assert "0.33333333333333331" in s

    def test_nan_becomes_null(self):
        assert canonical_json(float("nan")) == "null"

    def test_csv_summary(self):
        case = IdentityCase("cone", {"n": 2, "j": 1, "zeta": TENT, "t": 0.5,
                                     "samples": 8, "seed": 0})
        suite = run_suite([case])
        text = report_csv(suite)
        lines = text.strip().split("\n")
        assert lines[0] == "case,lhs,rhs,diff,verdict"
        assert lines[1].startswith("cone[0],") and lines[1].endswith(",pass")
