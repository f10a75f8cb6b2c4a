import contextlib
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import funvol
from funvol.cli import main
from funvol.numerics import QuadratureConfig


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
        monkeypatch.setattr("funvol.valuations.DEFAULT_CONFIG",
                            QuadratureConfig(max_depth=2))
        zeta = tmp_path / "log_cap.json"
        zeta.write_text(json.dumps({"type": "log_cap"}))
        code, out, _ = run_cli(capsys, "compute", "--function", specs["quad"],
                               "--zeta", str(zeta), "--j", "1", "--method", "smooth")
        assert code == 4
        assert json.loads(out)["error"]["type"] == "NonConvergedError"

    def test_stdout_stability(self, capsys, specs):
        argv = ("compute", "--function", specs["aniso"], "--zeta", specs["tent"],
                "--j", "1", "--method", "ck", "--samples", "16", "--seed", "5")
        _, out1, _ = run_cli(capsys, *argv)
        _, out2, _ = run_cli(capsys, *argv)
        assert out1 == out2


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

    def test_malformed_manifest_exit_2(self, capsys, tmp_path):
        path = tmp_path / "manifest.json"
        path.write_text('{"not": "a list"}')
        code, out, _ = run_cli(capsys, "verify", "--manifest", str(path))
        assert code == 2
        assert json.loads(out)["error"]["type"] == "SchemaError"

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
# precision and with values of the wrong type.
NUMBERS = st.one_of(
    st.sampled_from([0.0, 0.2, 0.8, 1.0, 2.0, -1.0, 1e-300, 1e150, 1e308,
                     math.inf, -math.inf, math.nan]),
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
    st.fixed_dictionaries({"type": st.just("transform"), "l": st.integers(-3, 3),
                           "inner": inner})), max_leaves=3)
POINTS = st.lists(st.lists(NUMBERS, min_size=2, max_size=2), min_size=1, max_size=4)
BODIES = st.one_of(
    st.fixed_dictionaries({"type": st.just("ball"), "r": PARAMS,
                           "center": st.lists(NUMBERS, min_size=2, max_size=2)}),
    st.fixed_dictionaries({"type": st.just("box"),
                           "intervals": st.lists(st.lists(NUMBERS, min_size=2, max_size=2),
                                                 min_size=2, max_size=2)}),
    st.fixed_dictionaries({"type": st.just("polytope"), "vertices": POINTS}))
FUNCTIONS = st.one_of(
    st.fixed_dictionaries({"type": st.just("quadratic"),
                           "A": st.lists(st.lists(NUMBERS, min_size=2, max_size=2),
                                         min_size=2, max_size=2)},
                          optional={"b": st.lists(NUMBERS, min_size=2, max_size=2),
                                    "c": PARAMS}),
    st.fixed_dictionaries({"type": st.sampled_from(["cone", "radial_hinge"]),
                           "n": st.integers(0, 3), "t": PARAMS},
                          optional={"r": PARAMS}),
    st.fixed_dictionaries({"type": st.just("radial_power"), "n": st.integers(0, 3),
                           "p": PARAMS}, optional={"scale": PARAMS}),
    st.fixed_dictionaries({"type": st.sampled_from(["indicator", "support"]),
                           "body": BODIES}))
# the three reproductions that used to escape as tracebacks
FLAT_POLYTOPE = {"type": "indicator",
                 "body": {"type": "polytope",
                          "vertices": [[0, 0, 0], [1, 0, 0], [0, 1, 0], [1, 1, 0]]}}
INFINITE_BUMP = {"type": "bump", "a": 0.2, "b": math.inf}
HUGE_BUMP = {"type": "bump", "a": 0.2, "b": 1e308}
INFINITE_TENT = {"type": "tent", "s0": math.inf}


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
    @settings(max_examples=150, deadline=None)
    def test_transform(self, tmp_path_factory, zeta, power, inverse):
        path = tmp_path_factory.mktemp("spec") / "zeta.json"
        path.write_text(json.dumps(zeta))
        argv = ["transform", "--zeta", str(path), "--power", str(power),
                "--grid", "0.1:0.9:3"]
        code, out, err = run_captured(argv + ["--inverse"] if inverse else argv)
        _check_exit(code, out, err)

    @given(function=FUNCTIONS, zeta=WEIGHTS)
    @example(function=FLAT_POLYTOPE, zeta={"type": "tent", "s0": 1.0})
    @example(function={"type": "cone", "n": 2, "t": 0.5}, zeta=INFINITE_BUMP)
    @example(function={"type": "cone", "n": 2, "t": 0.5}, zeta=HUGE_BUMP)
    @settings(max_examples=100, deadline=None)
    def test_compute(self, tmp_path_factory, function, zeta):
        root = tmp_path_factory.mktemp("spec")
        (root / "u.json").write_text(json.dumps(function))
        (root / "zeta.json").write_text(json.dumps(zeta))
        code, out, err = run_captured(
            ["compute", "--function", str(root / "u.json"), "--zeta", str(root / "zeta.json"),
             "--method", "ck", "--j", "1", "--samples", "8"])
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

    def test_flat_polytope_exit_2(self, tmp_path, fuzz_files):
        path = tmp_path / "u.json"
        path.write_text(json.dumps(FLAT_POLYTOPE))
        code, out, err = run_captured(["compute", "--function", str(path),
                                       "--zeta", fuzz_files["tent"], "--method", "ck",
                                       "--j", "1", "--samples", "8"])
        assert code == 2 and "Traceback" not in err
        assert json.loads(out)["error"]["type"] == "SchemaError"


class TestImport:
    @staticmethod
    def _loaded_after_import(module):
        src = str(Path(funvol.__file__).resolve().parent.parent)
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        probe = f"import sys, funvol, funvol.cli; print({module!r} in sys.modules)"
        out = subprocess.run([sys.executable, "-c", probe], env=env, check=True,
                             capture_output=True, text=True).stdout
        return out.strip() == "True"

    def test_scipy_spatial_stays_unloaded(self):
        assert not self._loaded_after_import("scipy.spatial")

    def test_scipy_linalg_stays_unloaded(self):
        # subspace complements come from numpy's complete QR
        assert not self._loaded_after_import("scipy.linalg")
