"""Workload definitions: each op is a JSON-able dict made from the seed.

An op names one library call and its inputs as JSON specs.  ``reference(op)``
gives the benchmark's own value for it (see ``references.py``), or None for
ops judged by their own identity.  The verify-suite workload is built from
``funvol.verify.default_manifest(seed=...)`` in the worker instead.
"""
from __future__ import annotations

import math

import numpy as np

TENT = {"type": "tent", "s0": 1.0}
LOG = {"type": "log_cap"}
BUMP = {"type": "bump", "a": 0.2, "b": 0.8}
WEIGHTS = {"tent": TENT, "log_cap": LOG, "bump": BUMP}


def _quad_spec(a) -> dict:
    a = np.asarray(a, dtype=float)
    n = len(a)
    return {"type": "quadratic", "A": a.tolist(), "b": [0.0] * n, "c": 0.0}


def _rotated(eigs, seed: int):
    """Q diag(eigs) Q' for a Haar rotation Q drawn from the seed."""
    rng = np.random.default_rng([seed, len(eigs)])
    q, r = np.linalg.qr(rng.standard_normal((len(eigs), len(eigs))))
    q = q * np.sign(np.diag(r))
    a = q @ np.diag(eigs) @ q.T
    return 0.5 * (a + a.T)


def _tag(eigs) -> str:
    return "(" + ",".join(f"{e:g}" for e in eigs) + ")"


def smooth_aniso(seed: int, small: bool = False) -> list[dict]:
    """eval_smooth on quadratics, plus dual, radial and domain-gradient ops.

    On eval_smooth, log_cap and bump run where one op costs under a second;
    the costlier anisotropic n = 3 cases, their rotated copies and the n = 4
    case run tent only (bump alone is 3.6 s per op at (1,.5,.25) and 65 s at
    n = 4).  eval_dual runs all three weights on every quadratic.
    """
    ops = []
    base = [((1.0, 4.0), ("tent", "log_cap", "bump")),
            ((1.0, 0.01), ("tent", "log_cap", "bump")),
            ((1.0, 2.0, 3.0), ("tent", "log_cap", "bump")),
            ((1.0, 0.5, 0.25), ("tent",)),
            ((1.0, 0.1, 0.01), ("tent",)),
            ((1.0, 2.0, 3.0, 4.0), ("tent",))]
    if small:
        base = [b for b in base if len(b[0]) == 2]
    quads = []
    for eigs, names in base:
        quads.append((eigs, _quad_spec(np.diag(eigs)), names, ""))
        if len(eigs) == 3:
            quads.append((eigs, _quad_spec(_rotated(eigs, seed)), ("tent",), "rot"))
    for eigs, fspec, names, rot in quads:
        n = len(eigs)
        for name in names:
            for j in sorted({1, n - 1}):
                # bump at j = n - 1 repeats the j = 1 polar work at n = 3
                if name == "bump" and n == 3 and j == 2:
                    continue
                ops.append({"id": f"smooth/q{_tag(eigs)}{rot}/{name}/j{j}",
                            "call": "eval_smooth", "n": n, "j": j,
                            "zeta": WEIGHTS[name], "u": fspec,
                            "ref": {"kind": "quadratic_primal", "eigs": list(eigs)}})
        for name in ("tent", "log_cap", "bump"):
            for j in sorted({1, n - 1}):
                ops.append({"id": f"dual/q{_tag(eigs)}{rot}/{name}/j{j}",
                            "call": "eval_dual", "path": "integral", "n": n, "j": j,
                            "zeta": WEIGHTS[name], "u": fspec,
                            "ref": {"kind": "quadratic_dual", "eigs": list(eigs)}})
    rp = {"type": "radial_power", "n": 3, "p": 4.0, "scale": 1.0}
    for name in ("tent", "log_cap"):
        for j in (1, 2):
            ops.append({"id": f"smooth/rp3p4/{name}/j{j}", "call": "eval_smooth",
                        "n": 3, "j": j, "zeta": WEIGHTS[name], "u": rp,
                        "ref": {"kind": "radial_primal", "p": 4.0, "scale": 1.0}})
            ops.append({"id": f"dual/rp3p4/{name}/j{j}", "call": "eval_dual",
                        "path": "integral", "n": 3, "j": j, "zeta": WEIGHTS[name],
                        "u": rp, "ref": {"kind": "radial_dual", "p": 4.0, "scale": 1.0}})
    ops.append({"id": "domain/q(1,2,3)/tent/j3", "call": "eval_domain_gradient",
                "n": 3, "j": 3, "zeta": TENT, "u": _quad_spec(np.diag([1.0, 2.0, 3.0])),
                "ref": {"kind": "quadratic_primal", "eigs": [1.0, 2.0, 3.0]}})
    return ops


POLYTOPE = {"type": "polytope",
            "vertices": [[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0],
                         [0.0, 0.0, 1.0], [1.0, 1.0, 1.0]]}
BALL3 = {"type": "ball", "r": 1.0, "center": [0.0, 0.0, 0.0]}
CUBE = {"type": "box", "intervals": [[0.0, 1.0]] * 3}


def projection_mc(seed: int, small: bool = False) -> list[dict]:
    """Grassmannian routes at 64-1000 subspace samples; samples drawn from the seed."""
    div = 8 if small else 1
    q3, q4, q5 = (1.0, 2.0, 3.0), (1.0, 2.0, 3.0, 4.0), (1.0, 2.0, 3.0, 4.0, 5.0)
    cone3 = {"type": "cone", "n": 3, "t": 0.5, "r": 1.0}
    rp3 = {"type": "radial_power", "n": 3, "p": 4.0, "scale": 1.0}
    ops = []

    def op(call, tag, n, j, name, samples, **kw):
        ops.append({"id": f"{call}/{tag}/{name}/j{j}" + (f"k{kw['k']}" if "k" in kw else ""),
                    "call": call, "n": n, "j": j, "zeta": WEIGHTS[name],
                    "samples": max(8, samples // div), "seed": seed, **kw})

    for eigs, j, name, samples in ((q3, 1, "tent", 256), (q3, 2, "tent", 256),
                                   (q3, 1, "bump", 64), (q4, 1, "tent", 256),
                                   (q4, 2, "tent", 256), (q5, 2, "tent", 64)):
        op("eval_cauchy_kubota", f"q{_tag(eigs)}", len(eigs), j, name, samples,
           u=_quad_spec(np.diag(eigs)),
           ref={"kind": "quadratic_primal", "eigs": list(eigs)})
    for eigs, samples in ((q3, 256), (q4, 128)):
        op("eval_ck_general", f"q{_tag(eigs)}", len(eigs), 1, "tent", samples, k=2,
           u=_quad_spec(np.diag(eigs)),
           ref={"kind": "quadratic_primal", "eigs": list(eigs)})
    for name, samples in (("tent", 256), ("bump", 64)):
        op("eval_dual_ck", "q(1,2,3)", 3, 1, name, samples, k=2,
           u=_quad_spec(np.diag(q3)), ref={"kind": "quadratic_dual", "eigs": list(q3)})
    for j, name in ((1, "tent"), (2, "bump")):
        op("eval_cauchy_kubota", "cone3", 3, j, name, 256, u=cone3,
           ref={"kind": "cone", "t": 0.5, "r": 1.0})
    op("eval_cauchy_kubota", "rp3p4", 3, 1, "tent", 256, u=rp3,
       ref={"kind": "radial_primal", "p": 4.0, "scale": 1.0})
    for tag, body, j, name in (("ball3", BALL3, 1, "tent"), ("cube", CUBE, 2, "tent"),
                               ("poly", POLYTOPE, 1, "tent"), ("poly", POLYTOPE, 2, "bump")):
        op("retrieval_check", tag, 3, j, name, 256, body=body)
    # j = n takes the domain integral: no subspaces, an exact error-honesty case
    for tag, body in (("ball3", BALL3), ("cube", CUBE), ("poly", POLYTOPE)):
        op("retrieval_check", tag, 3, 3, "tent", 256, body=body)
    for tag, body, j, k in (("ball3", BALL3, 1, 1), ("cube", CUBE, 2, 2),
                            ("poly", POLYTOPE, 1, 2)):
        ops.append({"id": f"classical_ck_check/{tag}/j{j}k{k}", "call": "classical_ck_check",
                    "n": 3, "j": j, "k": k, "body": body,
                    "samples": max(8, 1000 // div), "seed": seed})
    return ops


def make_ops(workload: str, seed: int, small: bool = False) -> list[dict]:
    if workload == "smooth-aniso":
        return smooth_aniso(seed, small)
    if workload == "projection-mc":
        return projection_mc(seed, small)
    raise ValueError(f"{workload} is built from the default manifest")


# -- references ----------------------------------------------------------------


def reference(op: dict):
    """(value, abs_err) the op's value must match, or None (judged by identity)."""
    import references as ref  # scipy.integrate stays out of the set-up probe
    r = op.get("ref")
    n, j = op["n"], op["j"]
    if op["call"] in ("retrieval_check", "classical_ck_check"):
        vj = ref.body_volume(op["body"], n, j)
        if vj is None:
            return None
        if op["call"] == "classical_ck_check":
            return ref.classical(n, j, op["k"], vj), 0.0
        return ref.retrieval(n, j, op["zeta"], vj)
    kind = r["kind"]
    if kind == "quadratic_primal":
        return ref.quadratic_primal(r["eigs"], j, op["zeta"])
    if kind == "quadratic_dual":
        return ref.quadratic_dual(r["eigs"], j, op["zeta"])
    if kind == "radial_primal":
        return ref.radial_primal(n, j, r["p"], r["scale"], op["zeta"])
    if kind == "radial_dual":
        return ref.radial_dual(n, j, r["p"], r["scale"], op["zeta"])
    if kind == "cone":
        return ref.cone(n, j, r["t"], r["r"], op["zeta"])
    raise ValueError(f"unknown reference kind {kind!r}")


def _eigs_of(fspec: dict):
    if fspec.get("type") != "quadratic":
        return None
    return [float(x) for x in np.linalg.eigvalsh(np.asarray(fspec["A"], dtype=float))]


def case_reference(case_id: str, p: dict):
    """Independent value that both sides of a default-manifest case estimate.

    Returns (value, abs_err) or None when the case has no closed form here.
    """
    import references as ref
    zeta = p.get("zeta")
    try:
        if case_id in ("ck_functional", "ck_general"):
            u = p["u"]
            if u["type"] == "radial_power":
                return ref.radial_primal(p["n"], p["j"], u["p"], u.get("scale", 1.0), zeta)
            eigs = _eigs_of(u)
            return None if eigs is None else ref.quadratic_primal(eigs, p["j"], zeta)
        if case_id in ("duality", "dual_restriction"):
            eigs = _eigs_of(p["v"])
            return None if eigs is None else ref.quadratic_dual(eigs, p["j"], zeta)
        if case_id == "cone":
            return ref.cone(p["n"], p["j"], float(p.get("t", 0.5)), float(p.get("r", 1.0)), zeta)
        if case_id == "reilly_radial":
            return ref.radial_primal(p["n"], p["j"], p.get("p", 2.0), p.get("scale", 1.0), zeta)
        if case_id == "retrieval":
            n = len(p["K"].get("center", p["K"].get("intervals")))
            vj = ref.body_volume(p["K"], n, p["j"])
            return None if vj is None else ref.retrieval(n, p["j"], zeta, vj)
        if case_id == "ck_classical":
            body = p["K"]
            n = len(body.get("center", body.get("intervals")))
            vj = ref.body_volume(body, n, p["j"])
            return None if vj is None else (ref.classical(n, p["j"], p["k"], vj), 0.0)
    except ValueError:  # a weight without a reference here, e.g. poly_capped
        return None
    return None


# ops whose reported error must bound |value - exact|: exact reference, no sampling
def error_honesty_case(case_id: str) -> bool:
    return case_id in ("reilly_radial", "duality")


def ulp_floor(x: float) -> float:
    return 8.0 * math.ulp(abs(x))
