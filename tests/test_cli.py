import contextlib
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import funvol
from funvol.cli import main
from funvol.convex import Quadratic
from funvol.valuations import ValuationSpec, eval_domain_gradient
from funvol.weights import MAX_POWER, Tent


# a product and a sum beyond double precision used to warn before their exit 4
OVERFLOWING_SCALED = {"type": "scaled", "factor": 1e300, "inner": {"type": "tent", "s0": 1e10}}
OVERFLOWING_SUM = {"type": "sum", "terms": [
    {"type": "scaled", "factor": 1e308, "inner": {"type": "tent", "s0": 1.0}}] * 2}


@pytest.fixture
def specs(tmp_path):
    paths = {}
    files = {
        "quad": {"type": "quadratic", "A": [[1.0, 0.0], [0.0, 1.0]],
                 "b": [0.0, 0.0], "c": 0.0},
        "aniso": {"type": "quadratic", "A": [[1.0, 0.0], [0.0, 4.0]],
                  "b": [0.0, 0.0], "c": 0.0},
        "cone": {"type": "cone", "n": 2, "t": 0.5, "r": 1.0},
        "ball_ind": {"type": "indicator",
                     "body": {"type": "ball", "r": 1.0, "center": [0.0, 0.0]}},
        "tent": {"type": "tent", "s0": 1.0},
        "abs1d": {"type": "max_affine", "slopes": [[1.0], [-1.0]],
                  "offsets": [0.0, 0.0]},
    }
    for name, spec in files.items():
        p = tmp_path / f"{name}.json"
        p.write_text(json.dumps(spec))
        paths[name] = str(p)
    return paths


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_captured(argv):
    """Exit code, stdout and stderr of one in-process run; argparse exits count."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


@pytest.fixture(scope="module")
def fuzz_files(tmp_path_factory):
    root = tmp_path_factory.mktemp("fuzz")
    files = {
        "quad": {"type": "quadratic", "A": [[1.0, 0.0], [0.0, 2.0]],
                 "b": [0.0, 0.0], "c": 0.0},
        "tent": {"type": "tent", "s0": 1.0},
        "manifest": [{"id": "cone",
                      "params": {"n": 2, "j": 1, "zeta": {"type": "tent", "s0": 1.0},
                                 "t": 0.5, "samples": 4, "seed": 0},
                      "tolerance": {"absolute": 1e-6}}],
    }
    paths = {}
    for name, spec in files.items():
        p = root / f"{name}.json"
        p.write_text(json.dumps(spec))
        paths[name] = str(p)
    return paths


SEEDS = st.one_of(st.integers(-3, 3),
                  st.integers(min_value=-(1 << 130), max_value=1 << 130))


class TestCompute:
    def test_smooth(self, capsys, specs):
        code, out, _ = run_cli(capsys, "compute", "--function", specs["quad"],
                               "--zeta", specs["tent"], "--j", "1",
                               "--method", "smooth")
        assert code == 0
        payload = json.loads(out)
        assert payload["value"] == pytest.approx(2 * math.pi / 3, rel=1e-6)
        assert payload["error"] <= 1e-6
        assert payload["method"] == "smooth"
        assert "counters" in payload

    def test_ck_cone(self, capsys, specs):
        code, out, _ = run_cli(capsys, "compute", "--function", specs["cone"],
                               "--zeta", specs["tent"], "--j", "1",
                               "--method", "ck", "--samples", "32")
        assert code == 0
        assert json.loads(out)["value"] == pytest.approx(0.75 * math.pi, rel=1e-6)

    def test_domain_gradient_ball(self, capsys, specs):
        code, out, _ = run_cli(capsys, "compute", "--function", specs["ball_ind"],
                               "--zeta", specs["tent"], "--j", "2",
                               "--method", "domain-gradient")
        assert code == 0
        assert json.loads(out)["value"] == pytest.approx(math.pi, rel=1e-10)

    def test_dual_paths_agree(self, capsys, specs):
        vals = []
        for path in ("integral", "conjugate"):
            code, out, _ = run_cli(capsys, "compute", "--function", specs["aniso"],
                                   "--zeta", specs["tent"], "--j", "1",
                                   "--method", "dual", "--dual-path", path)
            assert code == 0
            vals.append(json.loads(out)["value"])
        assert vals[0] == pytest.approx(vals[1], rel=1e-8)

    def test_schema_error_exit_2(self, capsys, specs, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        code, out, _ = run_cli(capsys, "compute", "--function", str(bad),
                               "--zeta", specs["tent"], "--j", "1",
                               "--method", "smooth")
        assert code == 2
        assert json.loads(out)["error"]["type"] == "SchemaError"

    def test_unsupported_variant_exit_3(self, capsys, specs):
        # the cone is not twice differentiable: smooth route must refuse
        code, out, _ = run_cli(capsys, "compute", "--function", specs["cone"],
                               "--zeta", specs["tent"], "--j", "1",
                               "--method", "smooth")
        assert code == 3
        assert json.loads(out)["error"]["type"] == "NotDifferentiable"

    @staticmethod
    def _scaled_identity(tmp_path, lam):
        path = tmp_path / "steep.json"
        path.write_text(json.dumps({"type": "quadratic", "A": [[lam, 0.0], [0.0, lam]],
                                    "b": [0.0, 0.0], "c": 0.0}))
        return str(path)

    @pytest.mark.parametrize("lam", [1e155, 1e160])
    @pytest.mark.parametrize("method", [("smooth",), ("ck", "--samples", "8")],
                             ids=["smooth", "ck"])
    def test_underflowing_frame_exit_2(self, capsys, specs, tmp_path, method, lam):
        # the whitening frame A^-1 has |det| or squared direction images below
        # the smallest normal double: refused, never a silent 0.0
        code, out, err = run_cli(capsys, "compute", "--function",
                                 self._scaled_identity(tmp_path, lam),
                                 "--zeta", specs["tent"], "--j", "1", "--method", *method)
        assert code == 2 and "Traceback" not in err
        assert json.loads(out)["error"]["type"] == "SchemaError"

    @staticmethod
    def _fresh_compute(tmp_path, function, *argv):
        """Exit code, stdout and stderr of ``compute`` in a fresh interpreter,
        where a warning reaches stderr as it would for a user (pytest
        captures warnings in-process)."""
        path = tmp_path / "function.json"
        path.write_text(json.dumps(function))
        src = str(Path(funvol.__file__).resolve().parent.parent)
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        run = subprocess.run([sys.executable, "-m", "funvol.cli", "compute", "--function",
                              str(path), *argv], env=env, capture_output=True, text=True)
        return run.returncode, run.stdout, run.stderr

    def test_huge_rotation_exit_2_quietly(self, specs, tmp_path):
        # refused before Q Q^T is formed, which would overflow and warn
        rotate = {"type": "rotate", "Q": [[1e200, 0.0], [0.0, 1.0]],
                  "inner": json.loads(Path(specs["quad"]).read_text())}
        code, out, err = self._fresh_compute(tmp_path, rotate, "--zeta", specs["tent"],
                                             "--j", "1", "--method", "smooth")
        assert (code, err) == (2, "")
        assert json.loads(out)["error"]["type"] == "SchemaError"

    def test_huge_polytope_quietly(self, specs, tmp_path):
        # qhull sees the vertices scaled to coordinates below 1, and the
        # volume, beyond double precision, is inf without a warning
        simplex = {"type": "indicator", "body": {"type": "polytope", "vertices": [
            [0.0, 0.0, 0.0], [1e200, 0.0, 0.0], [0.0, 1e200, 0.0], [0.0, 0.0, 1e200]]}}
        code, out, err = self._fresh_compute(tmp_path, simplex, "--zeta", specs["tent"],
                                             "--j", "1", "--method", "ck")
        assert (code, err) == (0, "")
        assert math.isfinite(json.loads(out)["value"])

    @pytest.mark.parametrize("function,method", [
        ({"type": "quadratic", "A": [[1.0]]}, "domain-gradient"),
        ({"type": "radial_power", "n": 2, "p": 4.0}, "smooth")], ids=["quadratic", "power"])
    def test_overflowing_support_bound_exit_2_quietly(self, tmp_path, function, method):
        # |grad u|^2 reaches s0^2 = 1e400: refused, never a silent 0.0
        zeta = tmp_path / "tent.json"
        zeta.write_text(json.dumps({"type": "tent", "s0": 1e200}))
        code, out, err = self._fresh_compute(tmp_path, function, "--zeta", str(zeta),
                                             "--j", "1", "--method", method)
        assert (code, err) == (2, "")
        assert "support bound" in json.loads(out)["error"]["message"]

    @pytest.mark.parametrize("body", [
        {"type": "box", "intervals": [[0.0, 1e200], [0.0, 1e200], [0.0, 1.0]]},
        {"type": "polytope", "vertices": [[0.0, 0.0, 0.0], [1e200, 0.0, 0.0],
                                          [0.0, 1e200, 0.0], [0.0, 0.0, 1e200]]}],
        ids=["box", "simplex"])
    def test_overflowing_shadow_areas_exit_4_quietly(self, specs, tmp_path, body):
        # shadow areas beyond double precision are inf without a warning
        code, out, err = self._fresh_compute(tmp_path, {"type": "indicator", "body": body},
                                             "--zeta", specs["tent"], "--j", "2",
                                             "--method", "ck")
        assert (code, err) == (4, "")
        assert json.loads(out)["error"]["type"] == "NonConvergedError"

    @pytest.mark.filterwarnings("error::RuntimeWarning")  # beyond double precision is quiet
    @pytest.mark.parametrize("method", ["smooth", "dual", "ck"])
    def test_overflowing_polar_integral_exit_4_quietly(self, tmp_path, method):
        # tent(1e150) on |x|^2 / 2 in R^3: the polar scales R^3 and the panel
        # sums leave double precision, and the refinement reports it
        quad = tmp_path / "quad.json"
        quad.write_text(json.dumps({"type": "quadratic", "A": np.eye(3).tolist()}))
        zeta = tmp_path / "tent.json"
        zeta.write_text(json.dumps({"type": "tent", "s0": 1e150}))
        code, out, err = run_captured(["compute", "--function", str(quad), "--zeta", str(zeta),
                                       "--j", "1", "--method", method])
        assert (code, err) == (4, "")
        assert json.loads(out)["error"]["type"] == "NonConvergedError"

    @pytest.mark.parametrize("lam,method", [(1e-160, "smooth"), (1e-160, "ck"),
                                            (1e-310, "ck")])
    def test_overflowing_frame_exit_2_quietly(self, specs, tmp_path, lam, method):
        # A^-1 = I / lam: its determinant or squared size overflows, and a
        # subnormal lam has no finite inverse at all
        quad = {"type": "quadratic", "A": [[lam, 0.0], [0.0, lam]]}
        code, out, err = self._fresh_compute(tmp_path, quad, "--zeta", specs["tent"],
                                             "--j", "1", "--method", method, "--samples", "8")
        assert (code, err) == (2, "")
        assert json.loads(out)["error"]["type"] == "SchemaError"

    @pytest.mark.parametrize("function", [
        {"type": "quadratic", "A": [[1e-20, 0.0], [0.0, 1e-20]]},
        {"type": "pointwise_scaled", "factor": 1e-20,
         "inner": {"type": "quadratic", "A": [[1.0, 0.0], [0.0, 1.0]]}}],
        ids=["quadratic", "pointwise_scaled"])
    def test_small_quadratic_dual(self, capsys, specs, tmp_path, function):
        # positive definite relative to its largest eigenvalue: |x|^2 / 2e20
        # has dual valuation 1e-20 * 2 pi / 3
        path = tmp_path / "small.json"
        path.write_text(json.dumps(function))
        code, out, _ = run_cli(capsys, "compute", "--function", str(path),
                               "--zeta", specs["tent"], "--j", "1", "--method", "dual")
        assert code == 0
        assert json.loads(out)["value"] == pytest.approx(2e-20 * math.pi / 3, rel=1e-12)

    @pytest.mark.parametrize("method", [("smooth",), ("ck", "--samples", "8")],
                             ids=["smooth", "ck"])
    def test_steep_quadratic_in_range(self, capsys, specs, tmp_path, method):
        lam = 1e153
        code, out, _ = run_cli(capsys, "compute", "--function",
                               self._scaled_identity(tmp_path, lam),
                               "--zeta", specs["tent"], "--j", "1", "--method", *method)
        assert code == 0
        assert json.loads(out)["value"] == pytest.approx(2 * math.pi / 3 / lam, rel=1e-12)

    def test_ck_general_requires_k(self, capsys, specs):
        code, out, _ = run_cli(capsys, "compute", "--function", specs["quad"],
                               "--zeta", specs["tent"], "--j", "1",
                               "--method", "ck-general")
        assert code == 2

    @pytest.mark.parametrize("seed", ["-1", str(1 << 128)], ids=["negative", "2**128"])
    def test_bad_seed_exit_2(self, capsys, specs, seed):
        code, out, err = run_cli(capsys, "compute", "--function", specs["quad"],
                                 "--zeta", specs["tent"], "--j", "1",
                                 "--method", "ck", "--seed", seed)
        assert code == 2
        assert json.loads(out)["error"]["type"] == "SchemaError"
        assert "Traceback" not in err

    def test_non_converged_exit_4(self, capsys, specs, tmp_path, monkeypatch):
        # a depth budget too small for the log-singular weight's graded center panel
        monkeypatch.setattr("funvol.numerics._MAX_DEPTH", 2)
        zeta = tmp_path / "log_cap.json"
        zeta.write_text(json.dumps({"type": "log_cap"}))
        code, out, _ = run_cli(capsys, "compute", "--function", specs["quad"],
                               "--zeta", str(zeta), "--j", "1", "--method", "smooth")
        assert code == 4
        assert json.loads(out)["error"]["type"] == "NonConvergedError"

    @pytest.mark.parametrize("budget", ["_MAX_DEPTH", "_MAX_LEVEL"])
    def test_ck_stack_non_converged_exit_4(self, capsys, tmp_path, monkeypatch, budget):
        # a member of the projections' plane stack runs out of its budget:
        # the radial depth on lines, the angular level (no two levels of a
        # perturbed sphere rule agree) on 2-planes
        if budget == "_MAX_DEPTH":
            monkeypatch.setattr("funvol.numerics._MAX_DEPTH", 1)
            a, j, what = [[1.0, 0.3], [0.3, 2.0]], 1, "radial refinement"
        else:
            rule = funvol.numerics.sphere_rule
            monkeypatch.setattr("funvol.numerics.sphere_rule", lambda n, level: (
                rule(n, level)[0], rule(n, level)[1] * (1.0 + 1e-6 * level)))
            monkeypatch.setattr("funvol.numerics._MAX_LEVEL", 8)
            a, j, what = np.diag([1.0, 2.0, 3.0]).tolist(), 2, "angular refinement"
        quad, bump = tmp_path / "quad.json", tmp_path / "bump.json"
        quad.write_text(json.dumps({"type": "quadratic", "A": a}))
        bump.write_text(json.dumps({"type": "bump", "a": 0.2, "b": 0.8}))
        code, out, err = run_cli(capsys, "compute", "--function", str(quad), "--zeta",
                                 str(bump), "--j", str(j), "--method", "ck")
        assert code == 4 and "Traceback" not in err
        error = json.loads(out)["error"]
        assert error["type"] == "NonConvergedError" and what in error["message"]

    @pytest.mark.parametrize("method", ["ck", "ck-general"])
    def test_single_sample_exit_4(self, capsys, tmp_path, specs, method):
        # one Monte Carlo plane of G(4, 2) has no standard error, so its value
        # is never printed with exit 0
        quad = tmp_path / "quad4.json"
        quad.write_text(json.dumps({"type": "quadratic",
                                    "A": np.diag([1.0, 2.0, 3.0, 4.0]).tolist()}))
        degree = ["--j", "2"] if method == "ck" else ["--j", "1", "--k", "2"]
        code, out, err = run_cli(capsys, "compute", "--function", str(quad), "--zeta",
                                 specs["tent"], *degree, "--method", method,
                                 "--samples", "1")
        assert code == 4 and "Traceback" not in err
        error = json.loads(out)["error"]
        assert error["type"] == "NonConvergedError" and "no finite error" in error["message"]

    def test_stdout_stability(self, capsys, specs):
        argv = ("compute", "--function", specs["aniso"], "--zeta", specs["tent"],
                "--j", "1", "--method", "ck", "--samples", "16", "--seed", "5")
        _, out1, _ = run_cli(capsys, *argv)
        _, out2, _ = run_cli(capsys, *argv)
        assert out1 == out2


class TestSumAndScaledWeights:
    """sum and scaled weights through compute, on u = x^T A x / 2 with A = diag(1, 2, 3).

    At j = 1 the smooth route is e2(A) / det A * int zeta(|y|) dy and the dual
    route, on the conjugate, is e2(A^-1) * det A * int zeta(|y|) dy; over R^3
    the integral of tent(s0) is pi s0^3 / 3.
    """

    TENT1 = {"type": "tent", "s0": 1.0}
    TENT_HALF = {"type": "tent", "s0": 0.5}

    @pytest.fixture
    def quad3(self, tmp_path):
        p = tmp_path / "quad3.json"
        p.write_text(json.dumps({"type": "quadratic",
                                 "A": [[1.0, 0.0, 0.0], [0.0, 2.0, 0.0], [0.0, 0.0, 3.0]],
                                 "b": [0.0, 0.0, 0.0], "c": 0.0}))
        return str(p)

    def value(self, capsys, tmp_path, quad3, method, zeta):
        p = tmp_path / "zeta.json"
        p.write_text(json.dumps(zeta))
        code, out, _ = run_cli(capsys, "compute", "--function", quad3, "--zeta", str(p),
                               "--j", "1", "--method", method)
        assert code == 0, out
        return json.loads(out)["value"]

    @pytest.mark.parametrize("method, factor", [("smooth", 11.0 / 6.0), ("dual", 6.0)])
    def test_sum_is_sum_of_parts(self, capsys, tmp_path, quad3, method, factor):
        total = self.value(capsys, tmp_path, quad3, method,
                           {"type": "sum", "terms": [self.TENT1, self.TENT_HALF]})
        parts = [self.value(capsys, tmp_path, quad3, method, z)
                 for z in (self.TENT1, self.TENT_HALF)]
        assert total == pytest.approx(sum(parts), rel=1e-13)
        assert total == pytest.approx(factor * math.pi * (1.0 + 0.125) / 3.0, rel=1e-13)
        if method == "smooth":
            assert total == pytest.approx(2.1598449493429825, rel=1e-15)

    @pytest.mark.parametrize("method", ["smooth", "dual"])
    def test_scaled_is_scaled_value(self, capsys, tmp_path, quad3, method):
        single = self.value(capsys, tmp_path, quad3, method, self.TENT1)
        doubled = self.value(capsys, tmp_path, quad3, method,
                             {"type": "scaled", "factor": 2.0, "inner": self.TENT1})
        assert doubled == 2.0 * single


class TestTransform:
    def test_forward_row(self, capsys, specs):
        code, out, _ = run_cli(capsys, "transform", "--zeta", specs["tent"],
                               "--power", "1", "--grid", "0.5:0.5:1")
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "s,R1"
        s, v = lines[1].split(",")
        assert float(v) == pytest.approx(0.375)

    def test_inverse_row(self, capsys, specs):
        code, out, _ = run_cli(capsys, "transform", "--zeta", specs["tent"],
                               "--power", "1", "--inverse", "--grid", "0.1:0.1:1")
        assert code == 0
        v = float(out.strip().split("\n")[1].split(",")[1])
        assert v == pytest.approx(-math.log(0.1), abs=1e-10)

    def test_identity_echo(self, capsys, specs):
        code, out, _ = run_cli(capsys, "transform", "--zeta", specs["tent"],
                               "--power", "0", "--grid", "0.25:0.75:3")
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "s,identity"
        assert float(lines[1].split(",")[1]) == pytest.approx(0.75)

    def test_log_grid(self, capsys, specs):
        code, out, _ = run_cli(capsys, "transform", "--zeta", specs["tent"],
                               "--power", "1", "--grid", "0.01:1:5:log")
        assert code == 0
        assert len(out.strip().split("\n")) == 6

    def test_bad_grid(self, capsys, specs):
        code, out, _ = run_cli(capsys, "transform", "--zeta", specs["tent"],
                               "--power", "1", "--grid", "nope")
        assert code == 2

    @pytest.mark.filterwarnings("error::RuntimeWarning")  # beyond double precision is quiet
    @pytest.mark.parametrize("zeta,power", [(OVERFLOWING_SCALED, "3"), (OVERFLOWING_SUM, "0")],
                             ids=["scaled", "sum"])
    def test_overflowing_weight_exit_4_quietly(self, tmp_path, zeta, power):
        path = tmp_path / "zeta.json"
        path.write_text(json.dumps(zeta))
        code, out, err = run_captured(["transform", "--zeta", str(path), "--power", power,
                                       "--grid", "0.1:1:3"])
        assert (code, err) == (4, "")
        assert json.loads(out)["error"]["type"] == "NonConvergedError"


class TestConjugate:
    def test_ball_indicator_to_support(self, capsys, specs):
        code, out, _ = run_cli(capsys, "conjugate", "--function", specs["ball_ind"])
        assert code == 0
        payload = json.loads(out)
        assert payload["type"] == "support"
        assert payload["body"]["type"] == "ball"

    def test_quadratic_self_dual(self, capsys, specs):
        code, out, _ = run_cli(capsys, "conjugate", "--function", specs["quad"])
        assert code == 0
        payload = json.loads(out)
        assert payload["type"] == "quadratic"
        assert payload["A"] == [[1.0, 0.0], [0.0, 1.0]]

    def test_cone_encoding(self, capsys, specs):
        code, out, _ = run_cli(capsys, "conjugate", "--function", specs["cone"])
        assert code == 0
        payload = json.loads(out)
        assert payload["type"] == "radial_hinge"
        assert payload["t"] == 0.5

    def test_spec_round_trip(self, capsys, specs):
        # emitted specs re-parse to an equal function
        from funvol.convex import function_from_spec
        code, out, _ = run_cli(capsys, "conjugate", "--function", specs["cone"])
        v = function_from_spec(json.loads(out))
        assert v([2.0, 0.0]) == pytest.approx(1.5)

    def test_numeric_sampling(self, capsys, specs):
        code, out, err = run_cli(capsys, "conjugate", "--function", specs["abs1d"],
                                 "--numeric", "--grid=-4:4:201",
                                 "--dual-grid=-0.9:0.9:19")
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "y1,numeric,analytic"
        numeric = [float(l.split(",")[1]) for l in lines[1:]]
        assert max(abs(v) for v in numeric) <= 1e-9
        assert "max_deviation=" in err


class TestVerify:
    def test_default_suite_passes(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--default-suite",
                               "--samples", "16", "--seed", "7")
        assert code == 0
        payload = json.loads(out)
        assert payload["all_pass"] is True
        assert "wall_time" not in payload["cases"][0]

    def test_manifest_cone_case(self, capsys, tmp_path):
        manifest = [{"id": "cone",
                     "params": {"n": 2, "j": 1, "zeta": {"type": "tent", "s0": 1.0},
                                "t": 0.5, "samples": 16, "seed": 0},
                     "tolerance": {"absolute": 1e-6}}]
        path = tmp_path / "manifest.json"
        path.write_text(json.dumps(manifest))
        code, out, _ = run_cli(capsys, "verify", "--manifest", str(path))
        assert code == 0
        case = json.loads(out)["cases"][0]
        assert case["lhs"] == pytest.approx(0.75 * math.pi, rel=1e-9)

    def test_failing_manifest_exit_1(self, capsys, tmp_path):
        manifest = [{"id": "ck_classical",
                     "params": {"K": {"type": "box",
                                      "intervals": [[0, 1], [0, 1], [0, 1]]},
                                "j": 2, "k": 2, "samples": 64, "seed": 0},
                     "tolerance": {"absolute": 0.0, "relative": 0.0,
                                   "multiplier": 0.0}}]
        path = tmp_path / "manifest.json"
        path.write_text(json.dumps(manifest))
        code, _, _ = run_cli(capsys, "verify", "--manifest", str(path))
        assert code == 1

    @pytest.mark.parametrize("j", [0, 1, 2])
    def test_nonnegativity_of_inadmissible_weight_exit_2(self, capsys, tmp_path, j):
        # T^{-3} tent has a power -2 singularity and generates no valuation for n = 2
        zeta = {"type": "transform", "l": -3, "inner": {"type": "tent"}}
        path = tmp_path / "manifest.json"
        path.write_text(json.dumps([{"id": "nonnegativity",
                                     "params": {"n": 2, "j": j, "zeta": zeta}}]))
        code, out, _ = run_cli(capsys, "verify", "--manifest", str(path))
        assert code == 2
        error = json.loads(out)["error"]
        assert error["type"] == "SchemaError"
        assert "not admissible" in error["message"]

    def test_malformed_manifest_exit_2(self, capsys, tmp_path):
        path = tmp_path / "manifest.json"
        path.write_text('{"not": "a list"}')
        code, out, _ = run_cli(capsys, "verify", "--manifest", str(path))
        assert code == 2
        assert json.loads(out)["error"]["type"] == "SchemaError"

    def test_seed_zero_overrides_manifest(self, capsys, tmp_path):
        manifest = [{"id": "cone",
                     "params": {"n": 2, "j": 1, "zeta": {"type": "tent", "s0": 1.0},
                                "t": 0.5, "samples": 4, "seed": 5},
                     "tolerance": {"absolute": 1e-6}}]
        path = tmp_path / "manifest.json"
        path.write_text(json.dumps(manifest))
        for argv, seed in (((), 5), (("--seed", "1"), 1), (("--seed", "0"), 0)):
            code, out, _ = run_cli(capsys, "verify", "--manifest", str(path), *argv)
            assert code == 0
            assert json.loads(out)["cases"][0]["case"]["params"]["seed"] == seed, argv

    def test_mistyped_tolerance_exit_2(self, capsys, tmp_path):
        path = tmp_path / "manifest.json"
        path.write_text(json.dumps([{"id": "cone", "params": {},
                                     "tolerance": {"absolute": "tight"}}]))
        code, out, _ = run_cli(capsys, "verify", "--manifest", str(path))
        assert code == 2
        assert json.loads(out)["error"]["type"] == "SchemaError"

    def test_csv_format_and_out_file(self, capsys, tmp_path):
        out_path = tmp_path / "report.csv"
        code, out, _ = run_cli(capsys, "verify", "--default-suite",
                               "--samples", "8", "--format", "csv",
                               "--out", str(out_path))
        assert code == 0
        text = out_path.read_text()
        assert text.startswith("case,lhs,rhs,diff,verdict")

    def test_stdout_stability(self, capsys):
        argv = ("verify", "--default-suite", "--samples", "8", "--seed", "3")
        c1, out1, _ = run_cli(capsys, *argv)
        c2, out2, _ = run_cli(capsys, *argv)
        assert out1 == out2 and c1 == c2

    def test_bad_seed_exit_2(self, capsys):
        code, out, err = run_cli(capsys, "verify", "--default-suite", "--seed", "-1")
        assert code == 2
        assert json.loads(out)["error"]["type"] == "SchemaError"
        assert "Traceback" not in err


class TestFlagFuzz:
    """Every flag combination ends in a documented exit code and never a traceback."""

    @given(method=st.sampled_from(["smooth", "ck", "ck-general", "dual",
                                   "domain-gradient", "bogus"]),
           j=st.integers(-1, 3), k=st.none() | st.integers(-1, 3),
           samples=st.integers(-2, 6), seed=SEEDS)
    @example(method="ck-general", j=1, k=1, samples=0, seed=0)
    @settings(max_examples=150, deadline=None)
    def test_compute(self, fuzz_files, method, j, k, samples, seed):
        argv = ["compute", "--function", fuzz_files["quad"], "--zeta", fuzz_files["tent"],
                "--j", str(j), "--method", method, "--samples", str(samples),
                "--seed", str(seed)]
        if k is not None:
            argv += ["--k", str(k)]
        code, out, err = run_captured(argv)
        assert code in (0, 2, 3, 4)
        assert "Traceback" not in err
        if code != 0 and method != "bogus":
            assert "error" in json.loads(out)

    @given(samples=st.none() | st.integers(-2, 6), seed=SEEDS)
    @example(samples=0, seed=1 << 128)
    @settings(max_examples=30, deadline=None)
    def test_verify(self, fuzz_files, samples, seed):
        argv = ["verify", "--manifest", fuzz_files["manifest"], "--seed", str(seed)]
        if samples is not None:
            argv += ["--samples", str(samples)]
        code, out, err = run_captured(argv)
        assert "Traceback" not in err
        # 1 is the verification-failure code and must come with a full report
        # (a single sample has no standard error, so its verdict is non_converged)
        assert code in (0, 1, 2, 3, 4)
        payload = json.loads(out)
        if code == 1:
            assert payload["all_pass"] is False
        elif code != 0:
            assert "error" in payload

    @given(key=st.sampled_from(["n", "j", "t", "r", "samples", "seed"]),
           value=st.one_of(st.integers(-2, 6), st.floats(), st.text(max_size=3),
                           st.none(), st.booleans(), st.lists(st.integers(0, 2), max_size=2)))
    @example(key="seed", value="abc")
    @example(key="n", value="2")
    @settings(max_examples=150, deadline=None)
    def test_manifest_params(self, tmp_path_factory, key, value):
        case = {"id": "cone",
                "params": {"n": 2, "j": 1, "zeta": {"type": "tent", "s0": 1.0},
                           "t": 0.5, "samples": 4, "seed": 0, key: value},
                "tolerance": {"absolute": 1e-6}}
        path = tmp_path_factory.mktemp("manifest") / "manifest.json"
        path.write_text(json.dumps([case]))
        code, out, err = run_captured(["verify", "--manifest", str(path)])
        assert "Traceback" not in err
        assert code in (0, 1, 2, 3, 4)
        payload = json.loads(out)
        if code == 1:
            assert payload["all_pass"] is False
        elif code != 0:
            assert "error" in payload
        if isinstance(value, (str, list)) or value is None:
            assert code == 2 and payload["error"]["type"] == "SchemaError"


# Spec fuzzing: parameters mix ordinary values with the edges of double
# precision, an integer no double holds, and values of the wrong type.
NUMBERS = st.one_of(
    st.sampled_from([0.0, 0.2, 0.8, 1.0, 2.0, -1.0, 1e-300, 1e150, 1e308, 1.7e308,
                     math.inf, -math.inf, math.nan, 10 ** 400]),
    st.floats(-3.0, 3.0), st.integers(-2, 4))
PARAMS = NUMBERS | st.sampled_from([None, "x", [1.0], True])
LEAF_WEIGHTS = st.one_of(
    st.fixed_dictionaries({"type": st.just("tent")}, optional={"s0": PARAMS}),
    st.just({"type": "log_cap"}),
    st.fixed_dictionaries({"type": st.just("bump"), "a": PARAMS, "b": PARAMS}),
    st.fixed_dictionaries({"type": st.just("poly_capped"),
                           "coeffs": st.lists(NUMBERS, max_size=3)},
                          optional={"cutoff": PARAMS}),
    st.fixed_dictionaries({"type": st.sampled_from(["nope", "transform"])}))
WEIGHTS = st.recursive(LEAF_WEIGHTS, lambda inner: st.one_of(
    st.fixed_dictionaries({"type": st.just("scaled"), "factor": PARAMS, "inner": inner}),
    st.fixed_dictionaries({"type": st.just("sum"),
                           "terms": st.lists(inner, min_size=1, max_size=2)}),
    st.fixed_dictionaries({"type": st.just("transform"), "l": st.integers(-3, 3) | PARAMS,
                           "inner": inner})), max_leaves=3)
# past the sphere rules (n <= 4) but inside the catalog's MAX_DIM
QUAD5 = {"type": "quadratic", "A": [[float(i == k) for k in range(5)] for i in range(5)],
         "b": [0.0] * 5, "c": 0.0}
POINTS = st.lists(st.lists(NUMBERS, min_size=2, max_size=2), min_size=1, max_size=4)
BODIES = st.one_of(
    st.fixed_dictionaries({"type": st.just("ball"), "r": PARAMS,
                           "center": st.lists(NUMBERS, min_size=2, max_size=2)}),
    st.fixed_dictionaries({"type": st.just("box"),
                           "intervals": st.lists(st.lists(NUMBERS, min_size=2, max_size=2),
                                                 min_size=2, max_size=2)}),
    st.fixed_dictionaries({"type": st.just("polytope"), "vertices": POINTS}))
LEAF_FUNCTIONS = st.one_of(
    st.fixed_dictionaries({"type": st.just("quadratic"),
                           "A": st.lists(st.lists(NUMBERS, min_size=2, max_size=2),
                                         min_size=2, max_size=2)},
                          optional={"b": st.lists(NUMBERS, min_size=2, max_size=2),
                                    "c": PARAMS}),
    st.fixed_dictionaries({"type": st.sampled_from(["cone", "radial_hinge"]),
                           "n": st.integers(-1, 7) | PARAMS, "t": PARAMS},
                          optional={"r": PARAMS}),
    st.fixed_dictionaries({"type": st.just("radial_power"), "n": st.integers(-1, 7) | PARAMS,
                           "p": PARAMS}, optional={"scale": PARAMS}),
    st.fixed_dictionaries({"type": st.sampled_from(["indicator", "support"]),
                           "body": BODIES}),
    st.fixed_dictionaries({"type": st.just("max_affine"), "slopes": POINTS,
                           "offsets": st.lists(NUMBERS, min_size=1, max_size=4)},
                          optional={"domain": BODIES}),
    # valid leaves, so that the wrappers' own parameters reach the evaluators
    st.sampled_from([
        {"type": "quadratic", "A": [[1.0, 0.0], [0.0, 2.0]], "b": [0.0, 0.0], "c": 0.0},
        {"type": "radial_power", "n": 2, "p": 4.0},
        {"type": "cone", "n": 2, "t": 0.5},
        {"type": "indicator", "body": {"type": "ball", "r": 1.0, "center": [0.0, 0.0]}},
        {"type": "radial_hinge", "n": 2, "t": 0.5},
        QUAD5]))
VECTORS = st.lists(NUMBERS, min_size=2, max_size=2)
ORTHOGONAL = st.one_of(
    st.sampled_from([[[0.6, -0.8], [0.8, 0.6]], [[0.0, 1.0], [1.0, 0.0]]]),
    st.lists(VECTORS, min_size=2, max_size=2))
FUNCTIONS = st.recursive(LEAF_FUNCTIONS, lambda inner: st.one_of(
    st.fixed_dictionaries({"type": st.just("epi_translate"), "x0": VECTORS, "inner": inner},
                          optional={"alpha": PARAMS}),
    st.fixed_dictionaries({"type": st.just("rotate"), "Q": ORTHOGONAL, "inner": inner}),
    st.fixed_dictionaries({"type": st.just("epi_scale"), "lambda": PARAMS, "inner": inner}),
    st.fixed_dictionaries({"type": st.just("pointwise_scaled"), "factor": PARAMS,
                           "inner": inner}),
    st.fixed_dictionaries({"type": st.just("plus_affine"), "slope": VECTORS, "inner": inner},
                          optional={"const": PARAMS}),
    st.fixed_dictionaries({"type": st.sampled_from(["sum", "inf_conv"]),
                           "left": inner, "right": inner})), max_leaves=3)
# the three reproductions that used to escape as tracebacks
FLAT_POLYTOPE = {"type": "indicator",
                 "body": {"type": "polytope",
                          "vertices": [[0, 0, 0], [1, 0, 0], [0, 1, 0], [1, 1, 0]]}}
INFINITE_BUMP = {"type": "bump", "a": 0.2, "b": math.inf}
HUGE_BUMP = {"type": "bump", "a": 0.2, "b": 1e308}
INFINITE_TENT = {"type": "tent", "s0": math.inf}
# an infinite translate used to print the value of the untranslated function
INFINITE_TRANSLATE = {"type": "epi_translate", "x0": [math.inf, 0.0],
                      "inner": {"type": "quadratic", "A": [[1.0, 0.0], [0.0, 1.0]],
                                "b": [0.0, 0.0], "c": 0.0}}
# radial variants outside 1..MAX_DIM used to be truncated, computed or to overflow
BAD_DIMENSIONS = {
    "radial_power_2.5": ({"type": "radial_power", "n": 2.5, "p": 4.0}, "smooth", "1"),
    "cone_0": ({"type": "cone", "n": 0, "t": 0.5}, "ck", "0"),
    "radial_power_7": ({"type": "radial_power", "n": 7, "p": 4.0}, "ck", "1"),
    "radial_power_100000": ({"type": "radial_power", "n": 100000, "p": 4.0}, "ck", "1"),
}
# bodies and max-affine functions outside 1..MAX_DIM used to be computed
BALL_0 = {"type": "indicator", "body": {"type": "ball", "r": 1.0, "center": []}}
BALL_7 = {"type": "indicator", "body": {"type": "ball", "r": 1.0, "center": [0.0] * 7}}
BOX_8 = {"type": "support", "body": {"type": "box", "intervals": [[0.0, 1.0]] * 8}}
MAX_AFFINE_7 = {"type": "max_affine", "slopes": [[1.0] + [0.0] * 6, [-1.0] + [0.0] * 6],
                "offsets": [0.0, 0.0]}
BAD_BODY_DIMENSIONS = {
    "ball_0": (BALL_0, "ck", "0"),
    "ball_7": (BALL_7, "domain-gradient", "7"),
    "box_8": (BOX_8, "ck", "0"),
    "max_affine_7": (MAX_AFFINE_7, "ck", "1"),
}
TENT = {"type": "tent", "s0": 1.0}
INFINITE_POWER = {"type": "transform", "l": math.inf, "inner": TENT}
FRACTIONAL_POWER = {"type": "transform", "l": 1.5, "inner": TENT}


def _check_exit(code, out, err):
    assert "Traceback" not in err
    assert code in (0, 2, 3, 4)
    if code != 0:
        assert "error" in json.loads(out)


class TestSpecFuzz:
    """Every weight, function and body spec ends in exit 0, 2, 3 or 4, never a traceback."""

    @given(zeta=WEIGHTS, power=st.integers(0, 3), inverse=st.booleans())
    @example(zeta=INFINITE_BUMP, power=1, inverse=False)
    @example(zeta=HUGE_BUMP, power=1, inverse=False)
    @example(zeta=INFINITE_TENT, power=1, inverse=False)
    @example(zeta=INFINITE_POWER, power=1, inverse=False)
    @example(zeta=FRACTIONAL_POWER, power=0, inverse=False)
    @example(zeta=OVERFLOWING_SCALED, power=3, inverse=False)
    @example(zeta={"type": "transform", "l": 10 ** 400,
                   "inner": {"type": "bump", "a": 0.2, "b": 0.8}}, power=1, inverse=False)
    @example(zeta=TENT, power=10 ** 400, inverse=False)
    @example(zeta=TENT, power=10 ** 400, inverse=True)
    @example(zeta={"type": "bump", "a": 0.0, "b": 5e-324}, power=1, inverse=True)
    @settings(max_examples=150, deadline=None)
    def test_transform(self, tmp_path_factory, zeta, power, inverse):
        path = tmp_path_factory.mktemp("spec") / "zeta.json"
        path.write_text(json.dumps(zeta))
        argv = ["transform", "--zeta", str(path), "--power", str(power),
                "--grid", "0.1:0.9:3"]
        code, out, err = run_captured(argv + ["--inverse"] if inverse else argv)
        _check_exit(code, out, err)

    @given(function=FUNCTIONS, zeta=st.just({"type": "tent", "s0": 1.0}) | WEIGHTS,
           method=st.sampled_from(["smooth", "ck", "dual"]))
    @example(function=FLAT_POLYTOPE, zeta={"type": "tent", "s0": 1.0}, method="ck")
    @example(function={"type": "cone", "n": 2, "t": 0.5}, zeta=INFINITE_BUMP, method="ck")
    @example(function={"type": "cone", "n": 2, "t": 0.5}, zeta=HUGE_BUMP, method="ck")
    @example(function=INFINITE_TRANSLATE, zeta={"type": "tent", "s0": 1.0}, method="smooth")
    @example(function={"type": "epi_scale", "lambda": 0.2,
                       "inner": {"type": "radial_power", "n": 2, "p": 1e150}},
             zeta={"type": "tent", "s0": 1.0}, method="smooth")
    @example(function=QUAD5, zeta=TENT, method="smooth")
    @example(function=QUAD5, zeta=TENT, method="dual")
    @example(function=BAD_DIMENSIONS["radial_power_2.5"][0], zeta=TENT, method="smooth")
    @example(function=BAD_DIMENSIONS["cone_0"][0], zeta=TENT, method="ck")
    @example(function=BAD_DIMENSIONS["radial_power_7"][0], zeta=TENT, method="ck")
    @example(function=BAD_DIMENSIONS["radial_power_100000"][0], zeta=TENT, method="ck")
    @example(function=BALL_0, zeta=TENT, method="ck")
    @example(function=BALL_7, zeta=TENT, method="ck")
    @example(function=BOX_8, zeta=TENT, method="ck")
    @example(function=MAX_AFFINE_7, zeta=TENT, method="dual")
    @settings(max_examples=100, deadline=None)
    def test_compute(self, tmp_path_factory, function, zeta, method):
        root = tmp_path_factory.mktemp("spec")
        (root / "u.json").write_text(json.dumps(function))
        (root / "zeta.json").write_text(json.dumps(zeta))
        code, out, err = run_captured(
            ["compute", "--function", str(root / "u.json"), "--zeta", str(root / "zeta.json"),
             "--method", method, "--j", "1", "--samples", "8"])
        _check_exit(code, out, err)

    @pytest.mark.parametrize("zeta", [INFINITE_BUMP, HUGE_BUMP, INFINITE_TENT],
                             ids=["infinite_bump", "huge_bump", "infinite_tent"])
    def test_non_finite_weight_exit_2(self, tmp_path, zeta):
        path = tmp_path / "zeta.json"
        path.write_text(json.dumps(zeta))
        code, out, err = run_captured(["transform", "--zeta", str(path), "--power", "1",
                                       "--grid", "0.1:0.9:3"])
        assert code == 2 and "Traceback" not in err
        assert json.loads(out)["error"]["type"] == "SchemaError"

    def test_infinite_translate_exit_2(self, tmp_path, fuzz_files):
        path = tmp_path / "u.json"
        path.write_text(json.dumps(INFINITE_TRANSLATE))
        code, out, err = run_captured(["compute", "--function", str(path),
                                       "--zeta", fuzz_files["tent"], "--method", "smooth",
                                       "--j", "1"])
        assert code == 2 and "Traceback" not in err
        assert json.loads(out)["error"]["type"] == "SchemaError"

    @pytest.mark.parametrize("method,j", [("smooth", "1"), ("dual", "1"),
                                          ("domain-gradient", "5")])
    def test_polar_route_past_four_dimensions_exit_3(self, tmp_path, fuzz_files,
                                                     method, j):
        path = tmp_path / "u.json"
        path.write_text(json.dumps(QUAD5))
        argv = ["compute", "--function", str(path), "--zeta", fuzz_files["tent"]]
        code, out, err = run_captured(argv + ["--j", j, "--method", method])
        assert code == 3 and "Traceback" not in err
        assert json.loads(out)["error"]["type"] == "UnsupportedVariant"
        # the projection route averages 1-d integrals, which stay in reach
        code, out, err = run_captured(argv + ["--j", "1", "--method", "ck", "--samples", "8"])
        assert code == 0 and math.isfinite(json.loads(out)["value"])

    @pytest.mark.parametrize("function,method,j", BAD_DIMENSIONS.values(),
                             ids=list(BAD_DIMENSIONS))
    def test_radial_dimension_exit_2(self, tmp_path, fuzz_files, function, method, j):
        path = tmp_path / "u.json"
        path.write_text(json.dumps(function))
        code, out, err = run_captured(["compute", "--function", str(path),
                                       "--zeta", fuzz_files["tent"], "--method", method,
                                       "--j", j, "--samples", "8"])
        assert code == 2 and "Traceback" not in err
        assert json.loads(out)["error"]["type"] == "SchemaError"

    @pytest.mark.parametrize("method", ["smooth", "ck", "dual"])
    @pytest.mark.parametrize("inner", [
        {"type": "radial_power", "n": 2, "p": 4.0, "scale": 1e10},
        {"type": "quadratic", "A": [[1e9, 0.0], [0.0, 1.0]], "b": [0.0, 0.0], "c": 0.0},
    ], ids=["radial_power", "quadratic"])
    def test_overflowing_pointwise_factor_exit_2(self, tmp_path, fuzz_files, inner, method):
        # the factor folds into the inner's scale or matrix, which leaves double precision
        path = tmp_path / "u.json"
        path.write_text(json.dumps({"type": "pointwise_scaled", "factor": 1e300,
                                    "inner": inner}))
        code, out, err = run_captured(["compute", "--function", str(path),
                                       "--zeta", fuzz_files["tent"], "--method", method,
                                       "--j", "1", "--samples", "8"])
        assert code == 2 and "Traceback" not in err
        assert json.loads(out)["error"]["type"] == "SchemaError"

    @pytest.mark.filterwarnings("error::RuntimeWarning")  # beyond double precision is quiet
    @pytest.mark.parametrize("body", [
        {"type": "ball", "r": 1e10, "center": [1e10, 0.0]},
        {"type": "box", "intervals": [[0.0, 1e10], [0.0, 1.0]]},
        {"type": "polytope", "vertices": [[0.0, 0.0], [1e10, 0.0], [0.0, 1.0]]},
    ], ids=["ball", "box", "polytope"])
    def test_overflowing_epi_scaled_body_exit_2(self, tmp_path, fuzz_files, body):
        # an indicator's epigraph scaling scales its body, which leaves double precision
        path = tmp_path / "u.json"
        path.write_text(json.dumps({"type": "epi_scale", "lambda": 1e300,
                                    "inner": {"type": "indicator", "body": body}}))
        code, out, err = run_captured(["compute", "--function", str(path),
                                       "--zeta", fuzz_files["tent"], "--method", "ck",
                                       "--j", "1", "--samples", "8"])
        assert (code, err) == (2, "")
        assert json.loads(out)["error"]["type"] == "SchemaError"

    @pytest.mark.parametrize("function,method,j", BAD_BODY_DIMENSIONS.values(),
                             ids=list(BAD_BODY_DIMENSIONS))
    def test_body_dimension_exit_2(self, tmp_path, fuzz_files, function, method, j):
        path = tmp_path / "u.json"
        path.write_text(json.dumps(function))
        code, out, err = run_captured(["compute", "--function", str(path),
                                       "--zeta", fuzz_files["tent"], "--method", method,
                                       "--j", j, "--samples", "8"])
        assert code == 2 and "Traceback" not in err
        error = json.loads(out)["error"]
        assert error["type"] == "SchemaError" and "dimension" in error["message"]

    @pytest.mark.parametrize("inverse", [False, True], ids=["forward", "inverse"])
    def test_transform_flag_beyond_double_exit_2(self, fuzz_files, inverse):
        argv = ["transform", "--zeta", fuzz_files["tent"], "--power", str(10 ** 400),
                "--grid", "0.5:0.5:1"]
        code, out, err = run_captured(argv + ["--inverse"] if inverse else argv)
        assert code == 2 and "Traceback" not in err
        assert json.loads(out)["error"]["type"] == "SchemaError"

    @pytest.mark.parametrize("power", [10 ** 20, MAX_POWER + 1], ids=["1e20", "cap+1"])
    @pytest.mark.parametrize("inverse", [False, True], ids=["forward", "inverse"])
    def test_transform_power_above_cap_exit_2(self, fuzz_files, power, inverse):
        # closed-form transforms lose their digits at huge powers: 10**20 printed 0
        argv = ["transform", "--zeta", fuzz_files["tent"], "--power", str(power),
                "--grid", "0.5:0.5:1"]
        code, out, err = run_captured(argv + ["--inverse"] if inverse else argv)
        assert code == 2 and "Traceback" not in err
        error = json.loads(out)["error"]
        assert error["type"] == "SchemaError" and f"cap {MAX_POWER}" in error["message"]

    def test_transform_power_at_cap(self, fuzz_files):
        # T^l tent(1/2) = (1 - 2^-(l+1)) / (l + 1) for tent(s) = (1 - s)_+
        code, out, err = run_captured(["transform", "--zeta", fuzz_files["tent"],
                                       "--power", str(MAX_POWER), "--grid", "0.5:0.5:1"])
        assert code == 0 and "Traceback" not in err
        value = float(out.splitlines()[1].split(",")[1])
        exact = (1.0 - 2.0 ** -(MAX_POWER + 1)) / (MAX_POWER + 1)
        assert abs(value - exact) <= 1e-9 * exact

    @pytest.mark.parametrize("argv", [
        ["compute", "--method", "ck", "--j", "1", "--samples", "65536"],
        ["verify", "--manifest"],
    ], ids=["compute", "verify_manifest"])
    def test_samples_beyond_stream_fanout_exit_2(self, tmp_path, fuzz_files, argv):
        # one random stream per plane, 65,535 per average; refused before any draw
        if argv[0] == "compute":
            argv = argv + ["--function", fuzz_files["quad"], "--zeta", fuzz_files["tent"]]
        else:
            case = {"id": "cone",
                    "params": {"n": 2, "j": 1, "zeta": TENT, "t": 0.5, "samples": 65536,
                               "seed": 0},
                    "tolerance": {"absolute": 1e-6}}
            path = tmp_path / "manifest.json"
            path.write_text(json.dumps([case]))
            argv = argv + [str(path)]
        code, out, err = run_captured(argv)
        assert code == 2 and "Traceback" not in err
        error = json.loads(out)["error"]
        assert error["type"] == "SchemaError"
        assert "at most 65535 subspace samples" in error["message"]

    @pytest.mark.parametrize("text", [
        '{"type": "transform", "l": 1e400, "inner": {"type": "tent"}}',
        '{"type": "transform", "l": 1.5, "inner": {"type": "tent"}}',
        '{"type": "transform", "l": 100000000000000000000, "inner": {"type": "tent"}}',
    ], ids=["l_1e400", "l_1.5", "l_1e20"])
    def test_transform_power_exit_2(self, tmp_path, text):
        path = tmp_path / "zeta.json"
        path.write_text(text)
        code, out, err = run_captured(["transform", "--zeta", str(path), "--power", "0",
                                       "--grid", "0.1:0.9:3"])
        assert code == 2 and "Traceback" not in err
        assert json.loads(out)["error"]["type"] == "SchemaError"

    @pytest.mark.parametrize("case", [
        # r_bound = (s_max / scale) ** (1 / (p - 1)) overflows
        {"id": "reilly_radial", "params": {"n": 2, "j": 1, "zeta": TENT, "p": 1.001,
                                           "scale": 1e-300}},
        {"id": "ck_classical", "params": {"K": {"type": "ball", "r": 10 ** 400,
                                                "center": [0.0, 0.0, 0.0]},
                                          "j": 1, "k": 1, "samples": 8}},
    ], ids=["reilly_overflow", "ball_401_digits"])
    def test_overflowing_case_exit_2(self, tmp_path, case):
        path = tmp_path / "manifest.json"
        path.write_text(json.dumps([case]))
        code, out, err = run_captured(["verify", "--manifest", str(path)])
        assert code == 2 and "Traceback" not in err
        assert json.loads(out)["error"]["type"] == "SchemaError"

    def test_flat_polytope_exit_2(self, tmp_path, fuzz_files):
        path = tmp_path / "u.json"
        path.write_text(json.dumps(FLAT_POLYTOPE))
        code, out, err = run_captured(["compute", "--function", str(path),
                                       "--zeta", fuzz_files["tent"], "--method", "ck",
                                       "--j", "1", "--samples", "8"])
        assert code == 2 and "Traceback" not in err
        assert json.loads(out)["error"]["type"] == "SchemaError"

    @pytest.mark.parametrize("method,j,k", [("ck", "2", None), ("ck", "3", None),
                                            ("ck-general", "1", "2")],
                             ids=["ck_j2", "ck_j3", "ck_general_k2"])
    def test_segment_shadows_exit_2(self, tmp_path, fuzz_files, method, j, k):
        # the box spec of a segment is accepted, but its 2- and 3-d shadows are
        # flat and no hull measures them
        path = tmp_path / "u.json"
        path.write_text(json.dumps({"type": "indicator", "body": {
            "type": "box", "intervals": [[0, 1], [0, 0], [0, 0]]}}))
        argv = ["compute", "--function", str(path), "--zeta", fuzz_files["tent"],
                "--method", method, "--j", j, "--samples", "8"]
        code, out, err = run_captured(argv + (["--k", k] if k else []))
        assert code == 2 and "Traceback" not in err
        payload = json.loads(out)  # all of stdout is one JSON object
        assert list(payload) == ["error"] and payload["error"]["type"] == "SchemaError"
        assert "full-dimensional" in payload["error"]["message"]


class TestGrassmannianAverage:
    """compute takes the cubature on lines and hyperplanes in n <= 4, and
    Monte Carlo elsewhere."""

    @staticmethod
    def _ck(tmp_path, fn, j, seed):
        path = tmp_path / "u.json"
        path.write_text(json.dumps(fn))
        zeta = tmp_path / "zeta.json"
        zeta.write_text(json.dumps(TENT))
        code, out, err = run_captured(["compute", "--function", str(path), "--zeta",
                                       str(zeta), "--j", str(j), "--method", "ck",
                                       "--samples", "16", "--seed", str(seed)])
        assert code == 0, err
        return json.loads(out)

    def test_lines_do_not_depend_on_the_seed(self, tmp_path):
        quad = {"type": "quadratic", "A": [[1.0, 0.0], [0.0, 2.0]], "b": [0.0, 0.0],
                "c": 0.0}
        a, b = (self._ck(tmp_path, quad, 1, seed) for seed in (0, 5))
        assert a == b
        # levels 1 and 2 of G(2, 1): 2 + 4 lines; a quadratic is exact there
        assert a["counters"]["subspace_samples"] == 6

    def test_whole_space_is_one_plane(self, tmp_path):
        # k = n: R^2 itself on the identity frame, evaluated once, with the
        # domain integral's own error
        quad = {"type": "quadratic", "A": [[1.0, 0.0], [0.0, 2.0]], "b": [0.0, 0.0],
                "c": 0.0}
        a, b = (self._ck(tmp_path, quad, 2, seed) for seed in (0, 5))
        assert a == b
        assert a["counters"]["subspace_samples"] == 1
        exact = eval_domain_gradient(ValuationSpec(2, 2, Tent(1.0)),
                                     Quadratic(np.diag([1.0, 2.0])))
        assert math.isfinite(a["error"])
        assert abs(a["value"] - exact.value) <= a["error"] + exact.error

    def test_two_planes_in_four_dimensions_are_sampled(self, tmp_path):
        quad = {"type": "quadratic",
                "A": [[float(i == k) * (i + 1) for k in range(4)] for i in range(4)],
                "b": [0.0] * 4, "c": 0.0}
        a, b = (self._ck(tmp_path, quad, 2, seed) for seed in (0, 5))
        assert a["value"] != b["value"]
        assert a["counters"]["subspace_samples"] == 16


class TestImport:
    @staticmethod
    def _run_probe(probe: str) -> str:
        """The last line a fresh interpreter prints running ``probe``."""
        src = str(Path(funvol.__file__).resolve().parent.parent)
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        out = subprocess.run([sys.executable, "-c", probe], env=env, check=True,
                             capture_output=True, text=True).stdout
        return out.strip().splitlines()[-1]

    def _loaded_after_import(self, module):
        probe = f"import sys, funvol, funvol.cli; print({module!r} in sys.modules)"
        return self._run_probe(probe) == "True"

    def test_scipy_spatial_stays_unloaded(self):
        assert not self._loaded_after_import("scipy.spatial")

    def test_default_suite_stays_off_scipy_spatial(self):
        # the suite builds no polytope: ball and box shadows need no hull
        probe = ("import sys; from funvol.cli import main; "
                 "main(['verify', '--default-suite', '--seed', '7', '--out', "
                 f"{os.devnull!r}]); print('scipy.spatial' in sys.modules)")
        assert self._run_probe(probe) == "False"

    def test_scipy_linalg_stays_unloaded(self):
        # subspace complements come from numpy's complete QR
        assert not self._loaded_after_import("scipy.linalg")
