"""Acceptance criteria, one test per criterion with a printed pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as the
suite progresses; every tolerance is pinned here, nothing is calibrated later.
"""
import json
import math
import time

import numpy as np
import pytest

from funvol.convex import Ball, Box, Cone, Indicator, Quadratic, RadialPower
from funvol.numerics import Rng
from funvol.subspaces import check_conjugate_projection, sample_grassmann
from funvol.valuations import (
    ValuationSpec,
    classical_ck_check,
    cone_closed_form,
    eval_cauchy_kubota,
    eval_ck_general,
    eval_smooth,
    eval_dual,
    retrieval_check,
    reilly_radial_check,
)
from funvol.weights import (
    Bump,
    LogCap,
    PolyCapped,
    Tent,
    log_grid,
    transform_R_inverse,
    transform_R_power,
)

TENT = Tent(1.0)


def report(criterion: str, ok: bool, detail: str):
    print(f"{'PASS' if ok else 'FAIL'}  {criterion}: {detail}")
    assert ok, f"{criterion}: {detail}"


def test_c01_transform_round_trip():
    weights = [("tent", TENT), ("bump", Bump(0.2, 0.8)),
               ("poly", PolyCapped([1.0, -2.0, 1.0], 1.0))]
    start = time.perf_counter()
    worst = 0.0
    for _, zeta in weights:
        grid = log_grid(zeta.support_bound, 200)
        for l in (1, 2, 3):
            back = transform_R_inverse(transform_R_power(zeta, l), l)
            dev = float(np.abs(np.asarray(back(grid)) - np.asarray(zeta(grid))).max())
            worst = max(worst, dev)
    elapsed = time.perf_counter() - start
    report("C1 transform round-trip", worst <= 1e-7 and elapsed < 5.0,
           f"max deviation {worst:.2e} (tol 1e-7), {elapsed:.2f}s (< 5s)")


def test_c02_exact_transform_pair():
    s = log_grid(1.0, 200)
    forward = transform_R_power(LogCap(), 1)
    dev_f = float(np.abs(np.asarray(forward(s)) - np.maximum(0.0, 1.0 - s)).max())
    t = np.geomspace(1e-3, 1.0 - 1e-12, 200)
    inverse = transform_R_inverse(TENT, 1)
    dev_i = float(np.abs(np.asarray(inverse(t)) + np.log(t)).max())
    report("C2 exact transform pair", dev_f <= 1e-9 and dev_i <= 1e-7,
           f"capped-log forward {dev_f:.2e} (tol 1e-9), tent inverse {dev_i:.2e} (tol 1e-7)")


def test_c03_smooth_evaluator_oracle():
    start = time.perf_counter()
    r2 = eval_smooth(ValuationSpec(1, 2, TENT), Quadratic(np.eye(2)))
    rel2 = abs(r2.value - 2 * math.pi / 3) / (2 * math.pi / 3)
    r3 = eval_smooth(ValuationSpec(1, 3, TENT), Quadratic(np.eye(3)))
    rel3 = abs(r3.value - math.pi) / math.pi
    elapsed = time.perf_counter() - start
    report("C3 smooth evaluator oracle",
           rel2 <= 1e-5 and rel3 <= 1e-4 and elapsed < 10.0,
           f"n=2 rel {rel2:.2e} (tol 1e-5), n=3 rel {rel3:.2e} (tol 1e-4), "
           f"{elapsed:.2f}s (< 10s)")


def test_c04_cone_closed_form():
    spec = ValuationSpec(1, 2, TENT)
    got = eval_cauchy_kubota(spec, Cone(2, 0.5, 1.0), 256, Rng(0))
    expect = 0.75 * math.pi
    rel = abs(got.value - expect) / expect
    report("C4 cone closed form", rel <= 1e-4,
           f"ck {got.value:.10f} vs 0.75*pi, rel {rel:.2e} (tol 1e-4), "
           f"reported error {got.error:.1e}")


def test_c05_functional_cauchy_kubota():
    functions = [("isotropic quadratic", Quadratic(np.eye(3))),
                 ("anisotropic quadratic", Quadratic(np.diag([1.0, 2.0, 4.0]))),
                 ("quartic radial", RadialPower(3, 4.0))]
    spec = ValuationSpec(1, 3, TENT)
    details = []
    ok = True
    for name, u in functions:
        start = time.perf_counter()
        smooth = eval_smooth(spec, u)
        general = eval_ck_general(spec, u, 2, 256, Rng(0))
        elapsed = time.perf_counter() - start
        diff = abs(general.value - smooth.value)
        budget = 3.0 * (general.error + smooth.error)
        good = diff <= max(budget, 1e-12) and elapsed < 60.0
        ok = ok and good
        details.append(f"{name}: diff {diff:.2e} <= {budget:.2e}, {elapsed:.1f}s")
    report("C5 functional projection formula", ok, "; ".join(details))


def test_c06_retrieval():
    details = []
    ok = True
    for body, exact_path in ((Ball(1.0, [0.0, 0.0]), True),
                             (Ball(2.0, [0.0, 0.0]), True),
                             (Box([(0.0, 1.0), (0.0, 2.0)]), False)):
        for j in (0, 1, 2):
            spec = ValuationSpec(j, 2, TENT)
            samples = 256 if exact_path else 10_000
            res = retrieval_check(spec, body, samples, Rng(0))
            if exact_path or j != 1:
                good = res.difference <= 1e-4 * max(abs(res.rhs), 1e-12)
                tag = "rel 1e-4"
            else:
                good = res.difference <= 3.0 * res.error
                tag = "3 reported errors"
            ok = ok and good
            details.append(f"{type(body).__name__} j={j}: "
                           f"diff {res.difference:.2e} ({tag})")
    report("C6 retrieval of intrinsic volumes", ok, "; ".join(details))


def test_c07_classical_cauchy_kubota():
    start = time.perf_counter()
    ball = classical_ck_check(Ball(1.0, [0.0, 0.0, 0.0]), 1, 1, 10_000, Rng(0))
    cube = classical_ck_check(Box([(0.0, 1.0)] * 3), 2, 2, 10_000, Rng(0))
    elapsed = time.perf_counter() - start
    ok_ball = ball.lhs == pytest.approx(4.0) and \
        abs(ball.rhs - ball.lhs) <= max(3.0 * ball.error, 1e-9)
    ok_cube = cube.lhs == pytest.approx(3.0) and \
        abs(cube.rhs - cube.lhs) <= 3.0 * cube.error
    report("C7 classical projection formula",
           ok_ball and ok_cube and elapsed < 30.0,
           f"V1(ball)={ball.rhs:.6f} (exact 4), V2(cube)={cube.rhs:.6f} "
           f"(exact 3, 3 errors {3 * cube.error:.1e}), {elapsed:.1f}s (< 30s)")


def test_c08_radial_identity():
    ok = True
    details = []
    for n in (2, 3):
        for j in {1, n - 1}:
            for p in (2.0, 4.0):
                for name, zeta in (("tent", TENT), ("log", LogCap())):
                    res = reilly_radial_check(n, j, zeta, p=p)
                    rel = res.difference / max(abs(res.rhs), 1e-300)
                    good = rel <= 1e-6
                    ok = ok and good
                    if not good:
                        details.append(f"n={n} j={j} p={p} {name}: rel {rel:.2e}")
    report("C8 radial two-route identity", ok,
           "all cases within 1e-6 relative" if ok else "; ".join(details))


def test_c09_duality():
    ok = True
    details = []
    for n, a in ((2, np.diag([1.0, 4.0])), (3, np.diag([1.0, 2.0, 4.0]))):
        v = Quadratic(a)
        for j in range(n + 1):
            spec = ValuationSpec(j, n, TENT)
            ia = eval_dual(spec, v, "integral")
            ib = eval_dual(spec, v, "conjugate")
            rel = abs(ia.value - ib.value) / max(abs(ib.value), 1e-300)
            if rel > 1e-5:
                ok = False
                details.append(f"n={n} j={j}: rel {rel:.2e}")
    worst_dev = 0.0
    cases = [(Quadratic(np.diag([1.0, 2.0, 4.0])), 3, 2),
             (Cone(3, 0.5, 1.0), 3, 2),
             (Indicator(Ball(1.0, [0.0, 0.0])), 2, 1)]
    for u, n, k in cases:
        e = sample_grassmann(n, k, [Rng(4)])[0]
        grid = Rng(5).generator().uniform(-1.5, 1.5, size=(25, k))
        worst_dev = max(worst_dev, check_conjugate_projection(u, e, grid))
    ok = ok and worst_dev <= 1e-9
    report("C9 duality", ok,
           f"integral vs conjugate within 1e-5 relative; conjugate-projection "
           f"max deviation {worst_dev:.2e} (tol 1e-9)"
           + ("; " + "; ".join(details) if details else ""))


def test_c10_property_suites_and_default_run(capsys):
    from funvol.cli import main
    start = time.perf_counter()
    code1 = main(["verify", "--default-suite", "--seed", "7"])
    out1 = capsys.readouterr().out
    code2 = main(["verify", "--default-suite", "--seed", "7"])
    out2 = capsys.readouterr().out
    elapsed = time.perf_counter() - start
    payload = json.loads(out1)
    verdicts = {c["case"]["id"] for c in payload["cases"]
                if c["verdict"] == "pass"}
    needed = {"valuation_property", "invariance", "homogeneity", "j0_constancy"}
    ok = (code1 == 0 and code2 == 0 and out1 == out2
          and needed <= verdicts and elapsed < 120.0)
    with capsys.disabled():
        report("C10 property suites + default run", ok,
               f"exit {code1}, deterministic={out1 == out2}, "
               f"{len(payload['cases'])} cases all pass, "
               f"two runs in {elapsed:.1f}s (< 120s)")
