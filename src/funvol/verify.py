"""Identity harness: orchestrates cross-checks and emits machine-readable reports.

Each case names one identity, its parameters, and a tolerance policy; a case
passes when |lhs - rhs| <= max(absolute, relative * |rhs|, multiplier * error).
Runs are deterministic for a fixed seed; non-convergence never escapes a case,
it becomes the ``non_converged`` verdict.
"""
from __future__ import annotations

import csv
import io
import math
import time
from dataclasses import dataclass, field

import numpy as np

from .convex import (Box, EpiScaled, EpiTranslated, Indicator, Rotated,
                     body_from_spec, function_from_spec)
from .errors import NonConvergedError, SchemaError, spec_errors
from .numerics import Rng
from .subspaces import (check_conjugate_projection, sample_grassmann,
                        sample_rotation)
from .valuations import (ValuationSpec, _eval_primal, classical_ck_check,
                         cone_closed_form, eval_cauchy_kubota, eval_ck_general,
                         eval_dual, eval_dual_ck, eval_smooth, retrieval_check,
                         reilly_radial_check)
from .weights import (log_grid, nonnegativity_check, transform_R_inverse,
                      transform_R_power, weight_from_spec)

__all__ = [
    "IDENTITY_IDS",
    "TolerancePolicy",
    "IdentityCase",
    "VerificationReport",
    "SuiteReport",
    "run_case",
    "run_suite",
    "default_manifest",
    "manifest_from_json",
    "canonical_json",
    "report_csv",
]

IDENTITY_IDS = (
    "ck_functional", "ck_general", "ck_classical", "cone", "retrieval",
    "r_roundtrip", "r_closed_form", "reilly_radial", "duality",
    "dual_restriction", "conj_projection", "valuation_property", "invariance",
    "homogeneity", "nonnegativity", "j0_constancy",
)


@dataclass(frozen=True)
class TolerancePolicy:
    absolute: float = 1e-8
    relative: float = 0.0
    multiplier: float = 3.0

    def __post_init__(self):
        if self.absolute < 0 or self.relative < 0 or self.multiplier < 0:
            raise SchemaError("tolerance policy entries must be non-negative")

    def allowed(self, rhs: float, error: float) -> float:
        return max(self.absolute, self.relative * abs(rhs), self.multiplier * error)

    def to_dict(self):
        return {"absolute": self.absolute, "relative": self.relative,
                "multiplier": self.multiplier}


# scalar case params, by the type every runner reads them as
_INT_PARAMS = frozenset({"n", "j", "k", "l", "seed", "samples", "grid"})
_REAL_PARAMS = frozenset({"t", "r", "p", "scale", "lambda", "grid_halfwidth",
                          "expected_min"})


@dataclass(frozen=True)
class IdentityCase:
    id: str
    params: dict = field(default_factory=dict)
    tolerance: TolerancePolicy = TolerancePolicy()

    def __post_init__(self):
        if self.id not in IDENTITY_IDS:
            raise SchemaError(f"unknown identity id {self.id!r}")
        if not isinstance(self.params, dict):
            raise SchemaError("case params must be an object")
        for key, value in self.params.items():
            integral = isinstance(value, int) and not isinstance(value, bool)
            if key in _INT_PARAMS and not integral:
                raise SchemaError(f"case {self.id!r}: parameter {key!r} must be "
                                  f"an integer, got {value!r}")
            if key in _REAL_PARAMS and not (integral or isinstance(value, float)):
                raise SchemaError(f"case {self.id!r}: parameter {key!r} must be "
                                  f"a number, got {value!r}")

    def to_dict(self):
        return {"id": self.id, "params": self.params,
                "tolerance": self.tolerance.to_dict()}


@dataclass(frozen=True)
class VerificationReport:
    case: IdentityCase
    lhs: float
    rhs: float
    difference: float
    error: float
    verdict: str
    wall_time: float
    counters: dict

    def to_dict(self, include_timing: bool = True):
        out = {
            "case": self.case.to_dict(),
            "lhs": self.lhs,
            "rhs": self.rhs,
            "difference": self.difference,
            "error": self.error,
            "verdict": self.verdict,
            "counters": self.counters,
        }
        if include_timing:
            out["wall_time"] = self.wall_time
        return out


@dataclass(frozen=True)
class SuiteReport:
    reports: tuple

    @property
    def all_pass(self) -> bool:
        return all(r.verdict == "pass" for r in self.reports)

    def to_dict(self, include_timing: bool = True):
        return {
            "all_pass": self.all_pass,
            "cases": [r.to_dict(include_timing) for r in self.reports],
        }


# ---------------------------------------------------------------------------
# Per-identity runners: return (lhs, rhs, combined_error, counters)


def _rng(params) -> Rng:
    return Rng(int(params.get("seed", 0)))


def _zeta(params):
    return weight_from_spec(params["zeta"])


def _samples(params, default=64) -> int:
    return int(params.get("samples", default))


def _grid_for(zeta, params):
    return log_grid(zeta.support_bound, int(params.get("grid", 200)))


def _run_ck_functional(p):
    spec = ValuationSpec(p["j"], p["n"], _zeta(p))
    u = function_from_spec(p["u"])
    ck = eval_cauchy_kubota(spec, u, _samples(p), _rng(p))
    sm = eval_smooth(spec, u)
    return ck.value, sm.value, ck.error + sm.error, {
        "integrand_evals": ck.integrand_evals + sm.integrand_evals,
        "subspace_samples": ck.subspace_samples}


def _run_ck_general(p):
    spec = ValuationSpec(p["j"], p["n"], _zeta(p))
    u = function_from_spec(p["u"])
    ck = eval_ck_general(spec, u, p["k"], _samples(p), _rng(p))
    sm = eval_smooth(spec, u)
    return ck.value, sm.value, ck.error + sm.error, {
        "integrand_evals": ck.integrand_evals + sm.integrand_evals,
        "subspace_samples": ck.subspace_samples}


def _run_ck_classical(p):
    body = body_from_spec(p["K"])
    res = classical_ck_check(body, p["j"], p["k"], _samples(p, 10_000), _rng(p))
    samples = res.rhs_result.subspace_samples if res.rhs_result else 0
    return res.rhs, res.lhs, res.error, {"subspace_samples": samples}


def _run_cone(p):
    spec = ValuationSpec(p["j"], p["n"], _zeta(p))
    from .convex import Cone
    t, r = float(p.get("t", 0.5)), float(p.get("r", 1.0))
    ck = eval_cauchy_kubota(spec, Cone(p["n"], t, r), _samples(p), _rng(p))
    closed = cone_closed_form(spec, t, r)
    return ck.value, closed, ck.error, {
        "integrand_evals": ck.integrand_evals,
        "subspace_samples": ck.subspace_samples}


def _run_retrieval(p):
    spec = ValuationSpec(p["j"], p["n"], _zeta(p))
    res = retrieval_check(spec, body_from_spec(p["K"]), _samples(p), _rng(p))
    counters = {}
    if res.lhs_result:
        counters = {"integrand_evals": res.lhs_result.integrand_evals,
                    "subspace_samples": res.lhs_result.subspace_samples}
    return res.lhs, res.rhs, res.error, counters


def _run_r_roundtrip(p):
    zeta = _zeta(p)
    l = int(p["l"])
    back = transform_R_inverse(transform_R_power(zeta, l), l)
    s = _grid_for(zeta, p)
    dev = float(np.abs(np.asarray(back(s)) - np.asarray(zeta(s))).max())
    return dev, 0.0, 0.0, {"grid_points": len(s)}


def _run_r_closed_form(p):
    pair = p.get("pair", "log_forward")
    if pair == "log_forward":
        from .weights import LogCap
        r = transform_R_power(LogCap(), 1)
        s = log_grid(1.0, int(p.get("grid", 200)))
        dev = float(np.abs(np.asarray(r(s)) - np.maximum(0.0, 1.0 - s)).max())
    elif pair == "tent_inverse":
        from .weights import Tent
        inv = transform_R_inverse(Tent(1.0), 1)
        s = np.geomspace(1e-3, 1.0 - 1e-9, int(p.get("grid", 200)))
        dev = float(np.abs(np.asarray(inv(s)) + np.log(s)).max())
    else:
        raise SchemaError(f"unknown closed-form pair {pair!r}")
    return dev, 0.0, 0.0, {"grid_points": int(p.get("grid", 200))}


def _run_reilly_radial(p):
    res = reilly_radial_check(p["n"], p["j"], _zeta(p),
                              p.get("p", 2.0), p.get("scale", 1.0))
    return res.lhs, res.rhs, res.error, {}


def _run_duality(p):
    spec = ValuationSpec(p["j"], p["n"], _zeta(p))
    v = function_from_spec(p["v"])
    a = eval_dual(spec, v, "integral")
    b = eval_dual(spec, v, "conjugate", _samples(p), _rng(p))
    return a.value, b.value, a.error + b.error, {
        "integrand_evals": a.integrand_evals + b.integrand_evals}


def _run_dual_restriction(p):
    spec = ValuationSpec(p["j"], p["n"], _zeta(p))
    v = function_from_spec(p["v"])
    a = eval_dual_ck(spec, v, p["k"], _samples(p), _rng(p))
    b = eval_dual(spec, v, "integral")
    return a.value, b.value, a.error + b.error, {
        "integrand_evals": a.integrand_evals + b.integrand_evals,
        "subspace_samples": a.subspace_samples}


def _run_conj_projection(p):
    u = function_from_spec(p["u"])
    rng = _rng(p)
    k = int(p.get("k", max(1, u.n - 1)))
    e = sample_grassmann(u.n, k, [rng.stream(0)])[0]
    gen = rng.stream(1).generator()
    grid = gen.uniform(-p.get("grid_halfwidth", 1.0), p.get("grid_halfwidth", 1.0),
                       size=(int(p.get("grid", 20)), k))
    dev = check_conjugate_projection(u, e, grid)
    return dev, 0.0, 0.0, {"grid_points": int(p.get("grid", 20))}


def _run_valuation_property(p):
    spec = ValuationSpec(p["j"], p["n"], _zeta(p))
    k1 = body_from_spec(p["K1"])
    k2 = body_from_spec(p["K2"])
    if not (isinstance(k1, Box) and isinstance(k2, Box)):
        raise SchemaError("the valuation property case uses box pairs")
    lo = np.minimum(k1.lo, k2.lo)
    hi = np.maximum(k1.hi, k2.hi)
    union = Box(np.stack([lo, hi], axis=1))
    ilo = np.maximum(k1.lo, k2.lo)
    ihi = np.minimum(k1.hi, k2.hi)
    if np.any(ihi < ilo):
        raise SchemaError("boxes must intersect")
    inter = Box(np.stack([ilo, ihi], axis=1))
    rng = _rng(p)
    total_err = 0.0
    evals = 0
    vals = {}
    for name, body in (("k1", k1), ("k2", k2), ("union", union), ("inter", inter)):
        r = _eval_primal(spec, Indicator(body), _samples(p), rng)
        vals[name] = r.value
        total_err += r.error
        evals += r.integrand_evals
    return (vals["k1"] + vals["k2"], vals["union"] + vals["inter"], total_err,
            {"integrand_evals": evals})


def _run_invariance(p):
    spec = ValuationSpec(p["j"], p["n"], _zeta(p))
    u = function_from_spec(p["u"])
    rng = _rng(p)
    gen = rng.stream(0).generator()
    x0 = gen.uniform(-1.0, 1.0, size=u.n)
    alpha = float(gen.uniform(-1.0, 1.0))
    q = sample_rotation(u.n, rng.stream(1))
    wrapped = EpiTranslated(Rotated(u, q), x0, alpha)
    a, b = (_eval_primal(spec, fn, _samples(p), rng.stream(2)) for fn in (u, wrapped))
    return a.value, b.value, a.error + b.error, {
        "integrand_evals": a.integrand_evals + b.integrand_evals}


def _run_homogeneity(p):
    spec = ValuationSpec(p["j"], p["n"], _zeta(p))
    u = function_from_spec(p["u"])
    lam = float(p.get("lambda", 2.0))
    stream = _rng(p).stream(0)
    base = _eval_primal(spec, u, _samples(p), stream)
    scaled = _eval_primal(spec, EpiScaled(u, lam), _samples(p), stream)
    return scaled.value, lam ** spec.j * base.value, \
        scaled.error + lam ** spec.j * base.error, {
            "integrand_evals": base.integrand_evals + scaled.integrand_evals}


def _run_nonnegativity(p):
    verdict = nonnegativity_check(_zeta(p), p["j"], p["n"],
                                  int(p.get("grid", 200)))
    expected_min = float(p.get("expected_min", 0.0))
    return verdict.min_value, expected_min, 0.0, {"argmin": verdict.argmin}


def _run_j0_constancy(p):
    spec = ValuationSpec(0, p["n"], _zeta(p))
    rng = _rng(p)
    values = [eval_cauchy_kubota(spec, function_from_spec(s), _samples(p),
                                 rng).value
              for s in p["functions"]]
    err = 0.0
    for s in p.get("dual_functions", []):
        r = eval_dual(spec, function_from_spec(s), "integral")
        values.append(r.value)
        err += r.error
    spread = float(np.ptp(values))
    return spread, 0.0, err, {"values": len(values)}


_RUNNERS = {
    "ck_functional": _run_ck_functional,
    "ck_general": _run_ck_general,
    "ck_classical": _run_ck_classical,
    "cone": _run_cone,
    "retrieval": _run_retrieval,
    "r_roundtrip": _run_r_roundtrip,
    "r_closed_form": _run_r_closed_form,
    "reilly_radial": _run_reilly_radial,
    "duality": _run_duality,
    "dual_restriction": _run_dual_restriction,
    "conj_projection": _run_conj_projection,
    "valuation_property": _run_valuation_property,
    "invariance": _run_invariance,
    "homogeneity": _run_homogeneity,
    "nonnegativity": _run_nonnegativity,
    "j0_constancy": _run_j0_constancy,
}


def run_case(case: IdentityCase) -> VerificationReport:
    """Execute one identity case; never raises on non-convergence."""
    runner = _RUNNERS[case.id]
    start = time.perf_counter()
    try:
        with spec_errors(f"case {case.id!r}"):  # a param the catalog rejects
            lhs, rhs, error, counters = runner(case.params)
    except NonConvergedError as exc:
        wall = time.perf_counter() - start
        return VerificationReport(case, exc.value, float("nan"), float("nan"),
                                  exc.error, "non_converged", wall,
                                  {"integrand_evals": exc.evaluations})
    wall = time.perf_counter() - start
    diff = abs(lhs - rhs)
    if not (math.isfinite(diff) and math.isfinite(error)):
        verdict = "non_converged"
    else:
        verdict = "pass" if diff <= case.tolerance.allowed(rhs, error) else "fail"
    return VerificationReport(case, lhs, rhs, diff, error, verdict, wall, counters)


def run_suite(manifest) -> SuiteReport:
    """Run every case (no short-circuit); assembly ordered by manifest index."""
    return SuiteReport(tuple(run_case(case) for case in manifest))


# ---------------------------------------------------------------------------
# Default manifest


def default_manifest(samples: int | None = None, seed: int = 0) -> list[IdentityCase]:
    """Shipped manifest covering every identity id at least once."""
    tent = {"type": "tent", "s0": 1.0}
    logcap = {"type": "log_cap"}
    bump = {"type": "bump", "a": 0.2, "b": 0.8}
    quad_iso2 = {"type": "quadratic", "A": [[1.0, 0.0], [0.0, 1.0]],
                 "b": [0.0, 0.0], "c": 0.0}
    quad_iso3 = {"type": "quadratic",
                 "A": [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]],
                 "b": [0.0, 0.0, 0.0], "c": 0.0}
    quad_aniso2 = {"type": "quadratic", "A": [[1.0, 0.0], [0.0, 4.0]],
                   "b": [0.0, 0.0], "c": 0.0}
    quad_aniso3 = {"type": "quadratic",
                   "A": [[1.0, 0.0, 0.0], [0.0, 2.0, 0.0], [0.0, 0.0, 4.0]],
                   "b": [0.0, 0.0, 0.0], "c": 0.0}
    rp4 = {"type": "radial_power", "n": 3, "p": 4.0, "scale": 1.0}
    ball2 = {"type": "ball", "r": 1.0, "center": [0.0, 0.0]}
    ball3 = {"type": "ball", "r": 1.0, "center": [0.0, 0.0, 0.0]}
    cube = {"type": "box", "intervals": [[0.0, 1.0], [0.0, 1.0], [0.0, 1.0]]}
    box12 = {"type": "box", "intervals": [[0.0, 1.0], [0.0, 2.0]]}

    def m(samples_default):
        return samples if samples is not None else samples_default

    exact = TolerancePolicy(absolute=1e-7, relative=0.0, multiplier=0.0)
    mc = TolerancePolicy(absolute=1e-8, relative=0.0, multiplier=3.0)
    cases = [
        IdentityCase("r_roundtrip", {"zeta": tent, "l": 2, "seed": seed}, exact),
        IdentityCase("r_roundtrip", {"zeta": bump, "l": 3, "seed": seed}, exact),
        IdentityCase("r_closed_form", {"pair": "log_forward", "seed": seed},
                     TolerancePolicy(absolute=1e-9, multiplier=0.0)),
        IdentityCase("r_closed_form", {"pair": "tent_inverse", "seed": seed},
                     TolerancePolicy(absolute=1e-7, multiplier=0.0)),
        IdentityCase("cone", {"n": 2, "j": 1, "zeta": tent, "t": 0.5, "r": 1.0,
                              "samples": m(32), "seed": seed},
                     TolerancePolicy(absolute=1e-6, multiplier=3.0)),
        IdentityCase("ck_functional", {"n": 2, "j": 1, "zeta": tent,
                                       "u": quad_iso2, "samples": m(64),
                                       "seed": seed}, mc),
        IdentityCase("ck_general", {"n": 3, "j": 1, "k": 2, "zeta": tent,
                                    "u": quad_iso3, "samples": m(64),
                                    "seed": seed}, mc),
        IdentityCase("ck_general", {"n": 3, "j": 1, "k": 2, "zeta": logcap,
                                    "u": rp4, "samples": m(48), "seed": seed}, mc),
        IdentityCase("ck_classical", {"K": ball3, "j": 1, "k": 1,
                                      "samples": m(512), "seed": seed},
                     TolerancePolicy(absolute=1e-8, multiplier=3.0)),
        IdentityCase("ck_classical", {"K": cube, "j": 2, "k": 2,
                                      "samples": m(2000), "seed": seed}, mc),
        IdentityCase("retrieval", {"n": 2, "j": 1, "zeta": tent, "K": ball2,
                                   "samples": m(64), "seed": seed},
                     TolerancePolicy(absolute=1e-8, relative=1e-4, multiplier=3.0)),
        IdentityCase("retrieval", {"n": 2, "j": 1, "zeta": tent, "K": box12,
                                   "samples": m(2000), "seed": seed}, mc),
        IdentityCase("retrieval", {"n": 2, "j": 0, "zeta": tent, "K": ball2,
                                   "samples": m(8), "seed": seed}, exact),
        IdentityCase("reilly_radial", {"n": 2, "j": 1, "zeta": tent, "p": 2.0,
                                       "seed": seed},
                     TolerancePolicy(absolute=1e-9, relative=1e-6, multiplier=3.0)),
        IdentityCase("reilly_radial", {"n": 3, "j": 2, "zeta": logcap, "p": 4.0,
                                       "seed": seed},
                     TolerancePolicy(absolute=1e-9, relative=1e-6, multiplier=3.0)),
        IdentityCase("duality", {"n": 2, "j": 1, "zeta": tent, "v": quad_aniso2,
                                 "samples": m(16), "seed": seed},
                     TolerancePolicy(absolute=1e-9, relative=1e-5, multiplier=3.0)),
        IdentityCase("duality", {"n": 3, "j": 2, "zeta": tent, "v": quad_aniso3,
                                 "samples": m(16), "seed": seed},
                     TolerancePolicy(absolute=1e-9, relative=1e-5, multiplier=3.0)),
        IdentityCase("dual_restriction", {"n": 2, "j": 1, "k": 1, "zeta": tent,
                                          "v": quad_aniso2, "samples": m(512),
                                          "seed": seed}, mc),
        IdentityCase("conj_projection", {"u": quad_aniso3, "k": 2, "grid": 20,
                                         "seed": seed},
                     TolerancePolicy(absolute=1e-9, multiplier=0.0)),
        IdentityCase("conj_projection", {"u": {"type": "cone", "n": 2, "t": 0.5,
                                               "r": 1.0}, "k": 1, "grid": 20,
                                         "grid_halfwidth": 2.0, "seed": seed},
                     TolerancePolicy(absolute=1e-10, multiplier=0.0)),
        IdentityCase("valuation_property",
                     {"n": 2, "j": 1, "zeta": tent,
                      "K1": {"type": "box", "intervals": [[0.0, 1.0], [0.0, 1.0]]},
                      "K2": {"type": "box", "intervals": [[1.0, 2.0], [0.0, 1.0]]},
                      "samples": m(128), "seed": seed}, mc),
        IdentityCase("invariance", {"n": 2, "j": 1, "zeta": tent,
                                    "u": quad_aniso2, "samples": m(64),
                                    "seed": seed},
                     TolerancePolicy(absolute=1e-9, relative=1e-8, multiplier=3.0)),
        IdentityCase("homogeneity", {"n": 2, "j": 1, "zeta": tent,
                                     "u": {"type": "cone", "n": 2, "t": 0.5,
                                           "r": 1.0},
                                     "lambda": 2.0, "samples": m(32),
                                     "seed": seed}, mc),
        IdentityCase("nonnegativity", {"n": 2, "j": 1, "zeta": tent,
                                       "expected_min": 0.0, "seed": seed},
                     TolerancePolicy(absolute=1e-9, multiplier=0.0)),
        IdentityCase("nonnegativity", {"n": 2, "j": 2,
                                       "zeta": {"type": "poly_capped",
                                                "coeffs": [1.0, -2.0],
                                                "cutoff": 1.0},
                                       "expected_min": -1.0, "seed": seed},
                     TolerancePolicy(absolute=1e-9, multiplier=0.0)),
        IdentityCase("j0_constancy",
                     {"n": 2, "zeta": tent,
                      "functions": [quad_iso2, quad_aniso2,
                                    {"type": "cone", "n": 2, "t": 0.3, "r": 1.0},
                                    {"type": "indicator", "body": ball2},
                                    {"type": "radial_power", "n": 2, "p": 4.0,
                                     "scale": 1.0}],
                      "dual_functions": [quad_iso2, quad_aniso2],
                      "samples": m(8), "seed": seed},
                     TolerancePolicy(absolute=1e-9, multiplier=3.0)),
    ]
    return cases


def manifest_from_json(data) -> list[IdentityCase]:
    if not isinstance(data, list):
        raise SchemaError("manifest must be a JSON array of cases")
    cases = []
    for entry in data:
        if not isinstance(entry, dict) or "id" not in entry:
            raise SchemaError(f"manifest entry must be an object with 'id': {entry!r}")
        tol = entry.get("tolerance", {})
        if not isinstance(tol, dict):
            raise SchemaError("tolerance must be an object")
        try:
            policy = TolerancePolicy(
                absolute=float(tol.get("absolute", 1e-8)),
                relative=float(tol.get("relative", 0.0)),
                multiplier=float(tol.get("multiplier", 3.0)))
        except (TypeError, ValueError) as exc:
            raise SchemaError(f"invalid tolerance {tol!r}: {exc}") from exc
        cases.append(IdentityCase(entry["id"], entry.get("params", {}), policy))
    return cases


# ---------------------------------------------------------------------------
# Serialization


def _fmt_float(x: float) -> str:
    if math.isnan(x):
        return "null"
    if math.isinf(x):
        return '"inf"' if x > 0 else '"-inf"'
    if x == int(x) and abs(x) < 1e15:
        return format(x, ".1f")
    return format(x, ".17g")


def canonical_json(obj, indent: int = 0) -> str:
    """Deterministic JSON: sorted keys, floats at 17 significant digits."""
    pad = " " * indent
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = []
        for key in sorted(obj):
            items.append(f'{pad}  "{key}": {canonical_json(obj[key], indent + 2)}')
        return "{\n" + ",\n".join(items) + f"\n{pad}}}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        items = [f"{pad}  {canonical_json(v, indent + 2)}" for v in obj]
        return "[\n" + ",\n".join(items) + f"\n{pad}]"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if obj is None:
        return "null"
    if isinstance(obj, float):
        return _fmt_float(obj)
    if isinstance(obj, int):
        return str(obj)
    if isinstance(obj, str):
        escaped = obj.replace("\\", "\\\\").replace('"', '\\"')
        return f'"{escaped}"'
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def report_csv(suite: SuiteReport) -> str:
    """CSV summary: case id, lhs, rhs, diff, verdict."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["case", "lhs", "rhs", "diff", "verdict"])
    for i, r in enumerate(suite.reports):
        writer.writerow([f"{r.case.id}[{i}]",
                         format(r.lhs, ".17g"), format(r.rhs, ".17g"),
                         format(r.difference, ".17g"), r.verdict])
    return buf.getvalue()
