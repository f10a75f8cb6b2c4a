import itertools
import math

import numpy as np
import pytest
from scipy.integrate import quad

from funvol.convex import (
    Ball,
    Box,
    Cone,
    EpiScaled,
    EpiTranslated,
    Indicator,
    InfConv,
    PointwiseScaled,
    PointwiseSum,
    PolytopeV,
    Quadratic,
    RadialPower,
    Rotated,
)
from funvol import numerics, subspaces, valuations
from funvol.errors import NonConvergedError, SchemaError, UnsupportedVariant
from funvol.numerics import Rng, kappa
from funvol.subspaces import sample_rotation
from funvol.verify import IdentityCase, run_case
from funvol.valuations import (
    ValuationSpec,
    classical_ck_check,
    cone_closed_form,
    eval_cauchy_kubota,
    eval_ck_general,
    eval_domain_gradient,
    eval_dual,
    eval_dual_ck,
    eval_smooth,
    retrieval_check,
    reilly_radial_check,
)
from funvol.weights import Bump, LogCap, Scaled, SumWeight, Tent, xi_from_zeta

TENT = Tent(1.0)


class TestValuationSpec:
    def test_rejects_inadmissible(self):
        with pytest.raises(SchemaError):
            ValuationSpec(2, 2, LogCap())  # top degree needs a finite limit at 0

    def test_accepts(self):
        ValuationSpec(1, 2, LogCap())
        ValuationSpec(2, 2, TENT)


class TestSmoothRoute:
    def test_isotropic_2d(self):
        # oracle: 2 * 2*pi * int_0^1 (1-r) r dr = 2*pi/3
        r = eval_smooth(ValuationSpec(1, 2, TENT), Quadratic(np.eye(2)))
        assert r.value == pytest.approx(2 * math.pi / 3, rel=1e-10)

    def test_isotropic_3d(self):
        # oracle: 3 * 4*pi * int_0^1 (1-r) r^2 dr = pi
        r = eval_smooth(ValuationSpec(1, 3, TENT), Quadratic(np.eye(3)))
        assert r.value == pytest.approx(math.pi, rel=1e-10)

    def test_top_degree_matches_domain_route(self):
        spec = ValuationSpec(2, 2, TENT)
        u = Quadratic(np.eye(2))
        a = eval_smooth(spec, u)
        b = eval_domain_gradient(spec, u)
        assert a.value == pytest.approx(math.pi / 3, rel=1e-10)
        assert a.value == pytest.approx(b.value, rel=1e-10)

    def test_radial_power_oracle(self):
        # oracle by 1-d quadrature of the radial reduction
        u = RadialPower(3, 4.0)
        r = eval_smooth(ValuationSpec(1, 3, TENT), u)
        oracle = 4 * math.pi * quad(lambda t: (1 - t ** 3) * 7 * t ** 6, 0, 1)[0]
        assert r.value == pytest.approx(oracle, rel=1e-8)

    def test_translation_invariance(self):
        spec = ValuationSpec(1, 2, TENT)
        u = RadialPower(2, 4.0)
        base = eval_smooth(spec, u)
        moved = eval_smooth(spec, EpiTranslated(u, [0.7, -0.3], 2.0))
        assert moved.value == pytest.approx(base.value, rel=1e-9)

    def test_rotation_invariance(self):
        spec = ValuationSpec(1, 2, TENT)
        u = Quadratic(np.diag([1.0, 3.0]))
        q = sample_rotation(2, Rng(17))
        base = eval_smooth(spec, u)
        rotated = eval_smooth(spec, Rotated(u, q))
        assert rotated.value == pytest.approx(base.value, rel=1e-9)

    def test_box_scheme_cross_check(self):
        # oracle: substituting y = A x gives e_1(A^-1) * 2*pi * int_0^1 (1-s) s ds
        # = (3/2) * (pi/3) = pi/2
        r = eval_smooth(ValuationSpec(1, 2, TENT), Quadratic(np.diag([1.0, 2.0])))
        assert r.value == pytest.approx(math.pi / 2, rel=1e-10)

    @pytest.mark.parametrize("rotate", [False, True], ids=["diagonal", "rotated"])
    def test_condition_100(self, rotate):
        # oracle: e_2(A^-1) * 4*pi * int_0^1 (1-s) s^2 ds = (10 + 100 + 1000) * pi/3
        a = np.diag([1.0, 0.1, 0.01])
        if rotate:
            q = sample_rotation(3, Rng(23))
            a = q @ a @ q.T
            a = 0.5 * (a + a.T)
        r = eval_smooth(ValuationSpec(2, 3, TENT), Quadratic(a))
        assert r.value == pytest.approx(1162.3892818282236, rel=1e-10)

    def test_condition_100_2d(self):
        # oracle: e_1(A^-1) * 2*pi * int_0^1 (1-s) s ds = 101 * pi/3
        r = eval_smooth(ValuationSpec(1, 2, TENT), Quadratic(np.diag([1.0, 0.01])))
        assert r.value == pytest.approx(101.0 * math.pi / 3.0, rel=1e-10)

    def test_singular_weight(self):
        # log-singular weight: oracle 2 * 2*pi * int_0^1 ln(1/r) r dr = pi
        r = eval_smooth(ValuationSpec(1, 2, LogCap()), Quadratic(np.eye(2)))
        assert r.value == pytest.approx(math.pi, rel=1e-8)

    def test_degree_zero_rejected(self):
        with pytest.raises(SchemaError):
            eval_smooth(ValuationSpec(0, 2, TENT), Quadratic(np.eye(2)))


def _moment2(zeta):
    """int_0^inf zeta(s) s^2 ds with its quadrature error, by scipy."""
    return quad(lambda t: float(zeta(t)) * t * t, 0.0, zeta.support_bound,
                epsabs=0.0, epsrel=1e-13, limit=400)


def _esym(values, i):
    return sum(math.prod(c) for c in itertools.combinations(values, i))


HONEST_WEIGHTS = {"tent": TENT, "log_cap": LogCap(), "bump": Bump(0.2, 0.8)}


class TestErrorBarHonesty:
    """On closed-form cases the reported error covers the actual one:
    |value - exact| <= error + 8 ulp (plus the oracle's own quadrature error)."""

    @staticmethod
    def check(value, error, exact, slack=0.0):
        assert abs(value - exact) <= error + slack + 8 * math.ulp(exact), \
            (value, exact, error)

    def test_cone(self):
        spec = ValuationSpec(1, 2, TENT)
        ck = eval_cauchy_kubota(spec, Cone(2, 0.5, 1.0), 64, Rng(5))
        self.check(ck.value, ck.error, cone_closed_form(spec, 0.5))
        top = eval_domain_gradient(ValuationSpec(2, 2, TENT), Cone(2, 0.5, 1.0))
        self.check(top.value, top.error, math.pi / 2)

    @pytest.mark.parametrize("j,exact", [(1, 12 * math.pi / 7), (2, 12 * math.pi / 5)],
                             ids=["j1", "j2"])
    def test_reilly_radial_log_cap(self, j, exact):
        # 4*pi * int_0^1 -ln(r^3) e_{3-j}(Hess |x|^4/4) r^2 dr, e_2 = 7r^4, e_1 = 5r^2
        res = reilly_radial_check(3, j, LogCap(), p=4.0)
        for side in (res.lhs_result, res.rhs_result):
            self.check(side.value, side.error, exact)

    @pytest.mark.parametrize("name", sorted(HONEST_WEIGHTS))
    @pytest.mark.parametrize("j", [1, 2])
    def test_quadratic_123(self, name, j):
        # V_j = e_j(A^-1) 4*pi m_2 and the dual V*_j = e_j(A) 4*pi m_2, with
        # m_2 = int zeta(s) s^2 ds; log_cap at j = 1 gives 22*pi/27
        zeta = HONEST_WEIGHTS[name]
        eigs = [1.0, 2.0, 3.0]
        m2, m2_err = _moment2(zeta)
        spec = ValuationSpec(j, 3, zeta)
        u = Quadratic(np.diag(eigs))
        for result, coeff in ((eval_smooth(spec, u), _esym([1 / e for e in eigs], j)),
                              (eval_dual(spec, u), _esym(eigs, j))):
            scale = coeff * 4 * math.pi
            self.check(result.value, result.error, scale * m2, scale * m2_err)
        if name == "log_cap" and j == 1:
            assert eval_smooth(spec, u).value == pytest.approx(22 * math.pi / 27,
                                                               rel=1e-13)


class TestDomainGradientRoute:
    def test_ball_indicator(self):
        r = eval_domain_gradient(ValuationSpec(2, 2, TENT), Indicator(Ball(1.0, [0, 0])))
        assert r.value == pytest.approx(math.pi)
        assert r.error == 0.0

    def test_cone(self):
        r = eval_domain_gradient(ValuationSpec(2, 2, TENT), Cone(2, 0.5, 1.0))
        assert r.value == pytest.approx(math.pi / 2)

    def test_box_indicator(self):
        r = eval_domain_gradient(ValuationSpec(2, 2, TENT),
                                 Indicator(Box([(0, 1), (0, 2)])))
        assert r.value == pytest.approx(2.0)


class TestCauchyKubotaRoute:
    def test_quadratic_matches_smooth(self):
        spec = ValuationSpec(1, 2, TENT)
        ck = eval_cauchy_kubota(spec, Quadratic(np.eye(2)), 64, Rng(5))
        assert ck.value == pytest.approx(2 * math.pi / 3, rel=1e-9)
        # exact at cubature level 1, so levels 1 and 2 (2 + 4 lines) agree
        assert ck.subspace_samples == 6

    def test_cone_matches_closed_form(self):
        spec = ValuationSpec(1, 2, TENT)
        ck = eval_cauchy_kubota(spec, Cone(2, 0.5, 1.0), 64, Rng(5))
        assert ck.value == pytest.approx(0.75 * math.pi, rel=1e-12)
        assert ck.error <= 1e-10  # inner integral is subspace-independent

    def test_degree_zero_constant(self):
        spec = ValuationSpec(0, 2, TENT)
        vals = [eval_cauchy_kubota(spec, u, 8, Rng(1)).value
                for u in (Quadratic(np.eye(2)), Cone(2, 0.3, 1.0),
                          Indicator(Ball(2.0, [0, 0])), RadialPower(2, 4.0),
                          Indicator(Box([(0, 1), (0, 1)])))]
        # kappa_2 * T^2(zeta)(0) = pi * 1/3
        assert np.ptp(vals) == 0.0
        assert vals[0] == pytest.approx(math.pi / 3, rel=1e-12)

    def test_epi_homogeneity(self):
        spec = ValuationSpec(1, 2, TENT)
        base = eval_cauchy_kubota(spec, Cone(2, 0.5, 1.0), 32, Rng(2)).value
        for lam in (0.5, 2.0):
            scaled = eval_cauchy_kubota(spec, EpiScaled(Cone(2, 0.5, 1.0), lam),
                                        32, Rng(2)).value
            assert scaled == pytest.approx(lam ** 1 * base, rel=1e-10)

    def test_seed_determinism(self):
        spec = ValuationSpec(1, 3, TENT)
        u = Quadratic(np.diag([1.0, 2.0, 3.0]))
        a = eval_cauchy_kubota(spec, u, 16, Rng(9))
        b = eval_cauchy_kubota(spec, u, 16, Rng(9))
        assert a.value == b.value


class TestCkGeneral:
    @pytest.mark.parametrize("u,rel", [
        (Quadratic(np.eye(3)), None),
        (Quadratic(np.diag([1.0, 2.0, 4.0])), None),
        (RadialPower(3, 4.0), None),
    ])
    def test_matches_smooth_n3(self, u, rel):
        spec = ValuationSpec(1, 3, TENT)
        smooth = eval_smooth(spec, u)
        general = eval_ck_general(spec, u, 2, 64, Rng(3))
        combined = smooth.error + general.error
        assert abs(general.value - smooth.value) <= max(3 * combined, 1e-9)

    def test_k_equals_j_matches_plain_ck(self):
        spec = ValuationSpec(1, 3, TENT)
        u = Quadratic(np.diag([1.0, 2.0, 3.0]))
        a = eval_cauchy_kubota(spec, u, 32, Rng(4))
        b = eval_ck_general(spec, u, 1, 32, Rng(4))
        assert a.value == pytest.approx(b.value, rel=1e-12)

    def test_cone_any_k(self):
        # closed form is k-independent for the cone family
        spec = ValuationSpec(1, 3, TENT)
        expect = cone_closed_form(spec, 0.4)
        for k in (1, 2):
            got = eval_ck_general(spec, Cone(3, 0.4, 1.0), k, 16, Rng(5))
            assert got.value == pytest.approx(expect, rel=1e-10), k

    def test_degree_zero(self):
        spec = ValuationSpec(0, 2, TENT)
        got = eval_ck_general(spec, Quadratic(np.eye(2)), 1, 16, Rng(6))
        assert got.value == pytest.approx(math.pi / 3, rel=1e-10)


class TestPointwiseScaledFold:
    """c * u of a quadratic or a radial power is folded into the catalog, so
    every route sees the direct form and gives the same bits."""

    @pytest.mark.parametrize("scaled,direct", [
        (lambda: PointwiseScaled(RadialPower(3, 4.0), 2.0), lambda: RadialPower(3, 4.0, 2.0)),
        (lambda: PointwiseScaled(Quadratic(np.diag([1.0, 2.0, 4.0]), [0.5, 0.0, -0.5], 0.25),
                                 2.0),
         lambda: Quadratic(np.diag([2.0, 4.0, 8.0]), [1.0, 0.0, -1.0], 0.5)),
    ], ids=["radial_power", "quadratic"])
    def test_folded_matches_direct(self, scaled, direct):
        spec = ValuationSpec(1, 3, TENT)
        results = []
        for u in (scaled(), direct()):
            results.append([(r.value.hex(), r.error.hex(), r.integrand_evals)
                            for r in (eval_smooth(spec, u),
                                      eval_ck_general(spec, u, 2, 64, Rng(3)))])
        assert results[0] == results[1]


class TestDualRoute:
    def test_anisotropic_2d(self):
        # oracle: e_1(A) * 2*pi * int_0^1 (1-t) t dt = 5*pi/3
        spec = ValuationSpec(1, 2, TENT)
        v = Quadratic(np.diag([1.0, 4.0]))
        r = eval_dual(spec, v, "integral")
        assert r.value == pytest.approx(5 * math.pi / 3, rel=1e-10)

    def test_conjugate_path_agrees(self):
        for n, a in ((2, np.diag([1.0, 4.0])), (3, np.diag([1.0, 2.0, 4.0]))):
            for j in range(n + 1):
                spec = ValuationSpec(j, n, TENT)
                v = Quadratic(a)
                ia = eval_dual(spec, v, "integral")
                ib = eval_dual(spec, v, "conjugate")
                assert ia.value == pytest.approx(ib.value, rel=1e-5), (n, j)

    def test_degree_zero_constant(self):
        spec = ValuationSpec(0, 2, TENT)
        for v in (Quadratic(np.eye(2)), Quadratic(np.diag([2.0, 5.0]))):
            r = eval_dual(spec, v, "integral")
            assert r.value == pytest.approx(math.pi / 3, rel=1e-10)

    def test_dual_ck_quadratic(self):
        spec = ValuationSpec(1, 2, TENT)
        v = Quadratic(np.diag([1.0, 4.0]))
        r = eval_dual_ck(spec, v, 1, 512, Rng(7))
        direct = eval_dual(spec, v, "integral")
        assert abs(r.value - direct.value) <= 3 * (r.error + direct.error)

    def test_dual_ck_isotropic_exact(self):
        spec = ValuationSpec(1, 3, TENT)
        v = Quadratic(np.eye(3))
        r = eval_dual_ck(spec, v, 2, 16, Rng(8))
        direct = eval_dual(spec, v, "integral")
        assert r.value == pytest.approx(direct.value, rel=1e-9)

    def test_support_function_retrieval(self):
        # h of the unit ball: dual retrieval gives the same constant as indicators
        spec = ValuationSpec(1, 2, TENT)
        from funvol.convex import SupportFn
        v = SupportFn(Ball(1.0, [0.0, 0.0]))
        r = eval_dual(spec, v, "conjugate", samples=32, rng=Rng(9))
        assert r.value == pytest.approx(math.pi, rel=1e-9)


class TestConeClosedForm:
    def test_value(self):
        spec = ValuationSpec(1, 2, TENT)
        assert cone_closed_form(spec, 0.5) == pytest.approx(0.75 * math.pi)

    def test_zero_slope(self):
        spec = ValuationSpec(1, 2, TENT)
        # kappa_2 * C(2,1) * T(zeta)(0) = pi * 2 * 0.5
        assert cone_closed_form(spec, 0.0) == pytest.approx(math.pi)

    def test_zero_weight(self):
        from funvol.weights import PolyCapped
        spec = ValuationSpec(1, 2, PolyCapped([0.0], 1.0))
        assert cone_closed_form(spec, 0.5) == 0.0

    def test_radius_scaling(self):
        spec = ValuationSpec(1, 2, TENT)
        assert cone_closed_form(spec, 0.5, r=2.0) == pytest.approx(2.0 * 0.75 * math.pi)


class TestRetrieval:
    def test_ball_degree_one(self):
        res = retrieval_check(ValuationSpec(1, 2, TENT), Ball(1.0, [0, 0]), 64, Rng(1))
        assert res.lhs == pytest.approx(math.pi, rel=1e-10)
        assert res.rhs == pytest.approx(math.pi, rel=1e-12)

    def test_top_degree_box(self):
        res = retrieval_check(ValuationSpec(2, 2, TENT), Box([(0, 1), (0, 2)]))
        assert res.lhs == pytest.approx(2.0) and res.rhs == pytest.approx(2.0)

    def test_degree_zero(self):
        res = retrieval_check(ValuationSpec(0, 2, TENT), Ball(3.0, [0, 0]))
        assert res.lhs == pytest.approx(res.rhs, rel=1e-12)

    def test_box_mc_path(self):
        res = retrieval_check(ValuationSpec(1, 2, TENT), Box([(0, 1), (0, 2)]),
                              2000, Rng(2))
        assert abs(res.lhs - res.rhs) <= 3 * res.error


class TestClassicalCk:
    def test_ball_v1(self):
        res = classical_ck_check(Ball(1.0, [0, 0, 0]), 1, 1, 500, Rng(3))
        assert res.lhs == pytest.approx(4.0)
        assert res.rhs == pytest.approx(4.0, rel=1e-10)  # projections are exact disks

    def test_cube_v2(self):
        res = classical_ck_check(Box([(0, 1)] * 3, ), 2, 2, 4000, Rng(4))
        assert res.lhs == pytest.approx(3.0)
        assert abs(res.rhs - res.lhs) <= 3 * res.error

    def test_j_less_than_k(self):
        res = classical_ck_check(Ball(1.0, [0, 0, 0]), 1, 2, 500, Rng(5))
        assert res.lhs == pytest.approx(res.rhs, rel=1e-9)

    def test_degree_zero(self):
        res = classical_ck_check(Box([(0, 1)] * 2), 0, 0, 10, Rng(6))
        assert res.lhs == 1.0 and res.rhs == 1.0


TENT_SPEC = {"type": "tent", "s0": 1.0}
QUAD2 = {"type": "quadratic", "A": [[1.0, 0.0], [0.0, 4.0]], "b": [0.0, 0.0], "c": 0.0}
QUAD3 = {"type": "quadratic", "A": [[1.0, 0.0, 0.0], [0.0, 2.0, 0.0], [0.0, 0.0, 4.0]],
         "b": [0.0, 0.0, 0.0], "c": 0.0}
BALL3 = {"type": "ball", "r": 1.0, "center": [0.0, 0.0, 0.0]}

QUAD4 = {"type": "quadratic", "A": np.diag([1.0, 2.0, 3.0, 4.0]).tolist(),
         "b": [0.0] * 4, "c": 0.0}
BALL4 = {"type": "ball", "r": 1.0, "center": [0.0] * 4}

# each Monte Carlo route, on 2-planes in R^4 where no cubature applies: a
# direct call at a sample count, and a case that reaches it
AVERAGING_CALLERS = {
    "eval_cauchy_kubota": (
        lambda m: eval_cauchy_kubota(ValuationSpec(2, 4, TENT), Cone(4, 0.5, 1.0), m, Rng(1)),
        lambda m: IdentityCase("cone", {"n": 4, "j": 2, "zeta": TENT_SPEC, "t": 0.5,
                                        "samples": m})),
    "eval_ck_general": (
        lambda m: eval_ck_general(ValuationSpec(1, 4, TENT), Quadratic(np.eye(4)), 2,
                                  m, Rng(1)),
        lambda m: IdentityCase("ck_general", {"n": 4, "j": 1, "k": 2, "zeta": TENT_SPEC,
                                              "u": QUAD4, "samples": m})),
    "eval_dual_ck": (
        lambda m: eval_dual_ck(ValuationSpec(1, 4, TENT),
                               Quadratic(np.diag([1.0, 2.0, 3.0, 4.0])), 2, m, Rng(1)),
        lambda m: IdentityCase("dual_restriction", {"n": 4, "j": 1, "k": 2,
                                                    "zeta": TENT_SPEC, "v": QUAD4,
                                                    "samples": m})),
    "classical_ck_check": (
        lambda m: classical_ck_check(Ball(1.0, [0.0] * 4), 2, 2, m, Rng(1)),
        lambda m: IdentityCase("ck_classical", {"K": BALL4, "j": 2, "k": 2,
                                                "samples": m})),
}

# the same routes on lines and hyperplanes in R^2 and R^3, where the cubature
# applies, with the planes of its levels 1 and 2: 2 + 4 lines, or 4 + 16 planes
CUBATURE_CALLERS = {
    "eval_cauchy_kubota": (
        lambda m: eval_cauchy_kubota(ValuationSpec(1, 2, TENT), Cone(2, 0.5, 1.0), m, Rng(1)),
        lambda m: IdentityCase("cone", {"n": 2, "j": 1, "zeta": TENT_SPEC, "t": 0.5,
                                        "samples": m}), 6),
    "eval_ck_general": (
        lambda m: eval_ck_general(ValuationSpec(1, 3, TENT), Quadratic(np.eye(3)), 2,
                                  m, Rng(1)),
        lambda m: IdentityCase("ck_general", {"n": 3, "j": 1, "k": 2, "zeta": TENT_SPEC,
                                              "u": QUAD3, "samples": m}), 20),
    "eval_dual_ck": (
        lambda m: eval_dual_ck(ValuationSpec(1, 2, TENT), Quadratic(np.diag([1.0, 4.0])),
                               1, m, Rng(1)),
        lambda m: IdentityCase("dual_restriction", {"n": 2, "j": 1, "k": 1,
                                                    "zeta": TENT_SPEC, "v": QUAD2,
                                                    "samples": m}), 6),
    "classical_ck_check": (
        lambda m: classical_ck_check(Ball(1.0, [0, 0, 0]), 1, 1, m, Rng(1)),
        lambda m: IdentityCase("ck_classical", {"K": BALL3, "j": 1, "k": 1,
                                                "samples": m}), 20),
}


@pytest.mark.parametrize("caller", sorted(AVERAGING_CALLERS))
class TestGrassmannAverage:
    """Every Monte Carlo subspace average shares one contract on its sample count."""

    def test_single_sample_has_no_error_bar(self, caller):
        direct, case = AVERAGING_CALLERS[caller]
        assert math.isnan(direct(1).error)
        assert run_case(case(1)).verdict == "non_converged"

    def test_zero_samples_rejected(self, caller):
        direct, _ = AVERAGING_CALLERS[caller]
        with pytest.raises(SchemaError):
            direct(0)

    def test_samples_beyond_stream_fanout_rejected_before_drawing(self, caller, monkeypatch):
        # one random stream per sample, and an Rng has 65,535 child streams
        def no_draw(*args):
            raise AssertionError("planes were drawn")

        monkeypatch.setattr(valuations, "sample_grassmann", no_draw)
        direct, case = AVERAGING_CALLERS[caller]
        for run in (direct, lambda m: run_case(case(m))):
            with pytest.raises(SchemaError, match="at most 65535 subspace samples"):
                run(65536)


def _first_row_mass(planes):
    # |P_E e_1|^2 on every plane of the stack, one integrand evaluation each
    values = np.sum(planes.frames[:, 0] ** 2, axis=1)
    return values, np.zeros(len(values)), np.ones(len(values), dtype=int)


def test_grassmann_average_takes_every_stream():
    # the largest average draws 65,535 planes in one stack; E |P_E e_1|^2 = 1/2
    # on G(4, 2)
    mean, err, evals, planes = valuations._grassmann_average(
        4, 2, 65535, Rng(3), _first_row_mass)
    assert evals == planes == 65535
    assert abs(mean - 0.5) <= 4 * err


@pytest.mark.parametrize("n,k", [(2, 1), (3, 1), (3, 2), (4, 1), (4, 2), (4, 3), (5, 1),
                                 (5, 4)])
def test_average_takes_cubature_where_it_covers(n, k, monkeypatch):
    # cubature on lines and hyperplanes for n <= 4, with no random draw and
    # the planes of its levels 1 and 2 at a small budget; Monte Carlo elsewhere
    def no_draw(*args):
        raise AssertionError("planes were drawn")

    monkeypatch.setattr(valuations, "sample_grassmann", no_draw)
    if k in (1, n - 1) and n <= 4:
        mean, err, _, planes = valuations._grassmann_average(n, k, 1, Rng(3),
                                                             _first_row_mass)
        assert planes == sum(len(valuations.grassmann_cubature(n, k, [lv])[0][0])
                             for lv in (1, 2))
        assert abs(mean - k / n) <= 1e-15 and err <= 1e-15
    else:
        with pytest.raises(AssertionError, match="drawn"):
            valuations._grassmann_average(n, k, 1, Rng(3), _first_row_mass)


CUBE = Box(np.array([[0.0, 1.0]] * 3))
BOX12 = Box(np.array([[0.0, 1.0], [0.0, 2.0]]))
# the five-vertex polytope of the benchmark's projection workload
POLYTOPE = PolytopeV(np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0],
                               [0.0, 0.0, 1.0], [1.0, 1.0, 1.0]]))
# cumulative plane counts through cubature levels 2, 4, 8, 16 (and on the
# line, up to 512): budgets that end each average at that level
LEVELS_N3 = (20, 84, 340, 1364)
LEVELS_N2 = (6, 14, 30, 62, 126, 254, 510, 1022)


class TestCubatureErrorRule:
    """The reported cubature error bounds |value - exact| at every level reached.

    Body shadows have kinks in the direction, so the level estimates do not
    converge monotonically; the error is the larger of the last two level
    differences, and one difference alone would not do (the level-4 cube).
    """

    @pytest.mark.parametrize("body,j,budgets", [
        (CUBE, 2, LEVELS_N3), (CUBE, 1, LEVELS_N3), (BOX12, 1, LEVELS_N2),
        (POLYTOPE, 1, LEVELS_N3), (POLYTOPE, 2, LEVELS_N3),
    ], ids=["cube_G32", "cube_G31", "box12_G21", "polytope_G31", "polytope_G32"])
    def test_error_bounds_the_miss(self, body, j, budgets):
        for budget in budgets:
            r = classical_ck_check(body, j, j, budget, Rng(0))
            assert r.rhs_result.subspace_samples == budget
            assert abs(r.rhs - r.lhs) <= r.error, (budget, r.rhs, r.lhs, r.error)

    def test_level_4_cube_needs_both_differences(self):
        # V_2 of the unit cube is 3; levels 1, 2 and 4 have 4, 16 and 64 planes
        level2 = classical_ck_check(CUBE, 2, 2, 20, Rng(0))
        level4 = classical_ck_check(CUBE, 2, 2, 84, Rng(0))
        miss = abs(level4.rhs - 3.0)
        last = abs(level4.rhs - level2.rhs)
        assert level4.lhs == 3.0 and level4.rhs_result.subspace_samples == 84
        assert miss > 8 * last  # 7.4e-3 against 8.4e-4
        assert miss <= level4.error
        assert level4.error == pytest.approx(max(last, level2.error), rel=1e-12)

    def test_smooth_integrand_stops_at_level_2(self):
        # the restriction average of a quadratic is a degree-2 polynomial in the
        # direction, exact at level 1, so levels 1 and 2 agree and it stops there
        spec = ValuationSpec(1, 2, TENT)
        v = Quadratic(np.diag([1.0, 4.0]))
        r = eval_dual_ck(spec, v, 1, 512, Rng(0))
        assert r.subspace_samples == 6
        exact = eval_dual(spec, v, "integral")
        assert abs(r.value - exact.value) <= r.error + exact.error + 8 * math.ulp(exact.value)
        assert r.error <= 1e-14

    @pytest.mark.parametrize("caller", sorted(CUBATURE_CALLERS))
    def test_small_budget_runs_two_levels(self, caller):
        # a budget below levels 1 and 2 still runs both and reports their planes
        direct, case, planes = CUBATURE_CALLERS[caller]
        for budget in (1, 2, planes - 1):
            r = direct(budget)
            r = getattr(r, "rhs_result", r)
            assert r.subspace_samples == planes
            assert math.isfinite(r.error) and r.error <= 1e-12
        report = run_case(case(1))
        assert report.verdict == "pass"
        assert report.counters["subspace_samples"] == planes

    def test_nested_average_is_cubature_too(self):
        # the V_1 of the cube's 2-plane shadows, averaged over a G(3, 2)
        # cubature, which does not depend on the seed
        spec = ValuationSpec(1, 3, TENT)
        r, again = (eval_ck_general(spec, Indicator(CUBE), 2, 20, Rng(seed))
                    for seed in (0, 5))
        expect = retrieval_check(spec, CUBE).rhs
        assert r.subspace_samples == 20
        assert (r.value, r.error) == (again.value, again.error)
        assert abs(r.value - expect) <= r.error

    @pytest.mark.parametrize("body", [Box([(0.0, 1.0), (0.0, 0.0), (0.0, 0.0)]),
                                      Box([(0.0, 1.0), (0.0, 0.0), (0.0, 2.0)])],
                             ids=["segment", "flat_box"])
    def test_flat_shadows_raise_on_every_route(self, body):
        # a segment's 2-d shadows are all flat, and the flat box's are on a
        # level-1 plane through its normal: no route averages over them, the
        # stacked shadows of the classical check and of the Cauchy-Kubota
        # route raise as the per-plane projections of the general route do
        for route in (lambda: classical_ck_check(body, 1, 2, 20, Rng(0)),
                      lambda: eval_cauchy_kubota(ValuationSpec(2, 3, TENT), Indicator(body),
                                                 20, Rng(0)),
                      lambda: eval_ck_general(ValuationSpec(1, 3, TENT), Indicator(body), 2,
                                              20, Rng(0))):
            with pytest.raises(ValueError, match="collinear"):
                route()
        # on lines every shadow is an interval
        lines = classical_ck_check(body, 1, 1, 20, Rng(0))
        assert lines.difference <= lines.error


class TestMonteCarloPins:
    """Monte Carlo averages at a fixed seed, pinned bit for bit (float.hex).

    The numbers were recorded before the averages took a cubature where one
    applies; on 2-planes in R^4 and in R^5 the averages still draw, evaluate
    and sum exactly as they did.  The box shadows of ``test_checks`` were
    re-recorded when their areas moved from qhull to the batched hull
    kernel: the classical value and both errors moved by one ulp (at most
    2.3e-16 relative), the rest kept every bit.  They were re-recorded again
    when box shadows moved from the hull kernel to the zonotope sums of
    minors: the retrieval error and the classical value moved by one ulp
    (at most 1.2e-16 relative), the rest kept every bit.  The polar routes'
    values, errors and counts were re-recorded when a pass's angular check
    moved to the 7 embedded Gauss nodes at the next level: values moved by
    at most 3.6e-15, each within its old error.  Two errors were re-recorded
    when radial panels were split several a step and reduced over their
    directions first: they moved in their last bits, the values and counts
    kept every bit.  ``dual_ck`` was re-recorded when a quadratic's dual
    integrals moved to one ray per radial node: its value kept every bit,
    its error moved in its last bits and its count fell from 1,856 to 176.
    It was re-recorded again when a quadratic stack's dual integrals became
    one interval integral of its radial moment, counted once per stack: its
    value moved by 3.6e-15 (2 ulp), within its old error, and its count fell
    to 15.
    """

    def test_projection_routes(self):
        q4 = Quadratic(np.diag([1.0, 2.0, 3.0, 4.0]))
        q5 = Quadratic(np.diag([1.0, 2.0, 3.0, 4.0, 5.0]))
        got = {
            "ck": eval_cauchy_kubota(ValuationSpec(2, 4, TENT), q4, 16, Rng(7)),
            "ck_general": eval_ck_general(ValuationSpec(1, 5, TENT), q5, 2, 8, Rng(7)),
            "ck_general_ball": eval_ck_general(
                ValuationSpec(2, 5, TENT), Indicator(Ball(1.0, [0.0] * 5)), 4, 6, Rng(7)),
            "dual_ck": eval_dual_ck(ValuationSpec(1, 4, TENT), q4, 2, 8, Rng(7)),
        }
        pins = {
            "ck": ("0x1.756b29ff62f2ep+0", "0x1.f990db040e468p-4", 3712, 16),
            "ck_general": ("0x1.f6f713d311ad9p+0", "0x1.98eb5e11c8e1dp-3", 1856, 8),
            "ck_general_ball": ("0x1.a51a6625307d5p+3", "0x1.314c3d92a9e91p-50", 0, 6),
            "dual_ck": ("0x1.40c3f675273aap+3", "0x1.3e096d5bbe02fp-1", 15, 8),
        }
        for name, r in got.items():
            assert (r.value.hex(), r.error.hex(), r.integrand_evals,
                    r.subspace_samples) == pins[name], name

    def test_checks(self):
        box = Box([(0.0, 1.0), (0.0, 2.0), (0.0, 1.0), (0.0, 1.0)])
        retrieval = retrieval_check(ValuationSpec(2, 4, TENT), box, 32, Rng(7))
        classical = classical_ck_check(Box([(0.0, 1.0)] * 4), 2, 2, 64, Rng(7))
        assert (retrieval.lhs.hex(), retrieval.rhs.hex(), retrieval.error.hex(),
                retrieval.lhs_result.integrand_evals,
                retrieval.lhs_result.subspace_samples) == (
            "0x1.386eb5213ecb4p+3", "0x1.2d97c7f3321d3p+3", "0x1.0130c6e23b3dep-2", 0, 32)
        assert (classical.lhs.hex(), classical.rhs.hex(), classical.error.hex(),
                classical.rhs_result.subspace_samples) == (
            "0x1.8000000000000p+2", "0x1.881d1b31a0165p+2", "0x1.589e561ebdc9bp-4", 64)


class TestPolarPins:
    """Polar integrals pinned bit for bit (float.hex): value, error, integrand
    evaluations and planes.  The numbers were recorded before the polar
    points moved from rows to contiguous coordinate columns, and re-recorded
    when a pass's angular check moved to the 7 embedded Gauss nodes at the
    next level: values moved by at most 3.6e-15, each within its old error.
    They were re-recorded again when radial panels were split several a step
    and reduced over their directions first: counts kept every bit, values
    moved by at most 7.1e-15 (4 ulp), each within its old error + 8 ulp.
    The two dual pins were re-recorded when a quadratic's dual integrals
    moved to one ray per radial node: counts fell from 106,240 to 340,
    values moved by at most 1.4e-14 (5 ulp), within their old errors, and
    again when they became one interval integral of the radial moment:
    counts fell to 270, values moved by at most 3.6e-14 (5 ulp), within
    their old errors."""

    Q4 = Quadratic(np.diag([1.0, 2.0, 3.0, 4.0]))
    POWER = RadialPower(3, 4.0)
    CASES = {
        "dual_bump_j1": (
            lambda c: eval_dual(ValuationSpec(1, 4, Bump(0.2, 0.8)), c.Q4, "integral"),
            ("0x1.4eb2533cb7a05p+3", "0x1.64e1cc0709072p-27", 270, 0)),
        "dual_bump_j3": (
            lambda c: eval_dual(ValuationSpec(3, 4, Bump(0.2, 0.8)), c.Q4, "integral"),
            ("0x1.a25ee80be5887p+5", "0x1.be1a3f08cb48fp-25", 270, 0)),
        "smooth_tent_j1": (
            lambda c: eval_smooth(ValuationSpec(1, 4, TENT), c.Q4),
            ("0x1.07307fd73e4e4p+1", "0x1.0000000000000p-50", 9088, 0)),
        "smooth_power_log": (
            lambda c: eval_smooth(ValuationSpec(2, 3, LogCap()), c.POWER),
            ("0x1.e28c731eb694dp+2", "0x1.a770d00000000p-36", 3232, 0)),
        "dual_power_log": (
            lambda c: eval_dual(ValuationSpec(2, 3, LogCap()), c.POWER, "integral"),
            ("0x1.cb91f3bbba13ep+0", "0x1.a22d2d8000000p-36", 3232, 0)),
        # a G(3, 2) cubature level: hyperplanes in R^3
        "ck_general_cubature": (
            lambda c: eval_ck_general(ValuationSpec(1, 3, TENT),
                                      Quadratic(np.diag([1.0, 2.0, 3.0])), 2, 64, Rng(3)),
            ("0x1.eb7c166fdfe3ap+0", "0x1.ec8681efcf6ccp-52", 4640, 20)),
    }

    @pytest.mark.parametrize("name", sorted(CASES))
    def test_pin(self, name):
        run, pin = self.CASES[name]
        r = run(self)
        assert (r.value.hex(), r.error.hex(), r.integrand_evals, r.subspace_samples) == pin


class TestHessianMeasures:
    """The gradient pushforward of u's Hessian measure is the Hessian measure of u*:
    the smooth route on u against the dual integral on its conjugate."""

    @staticmethod
    def _pair(u, zeta):
        spec = ValuationSpec(1, 2, zeta)
        return eval_smooth(spec, u).value, eval_dual(spec, u.conjugate(), "integral").value

    def test_self_dual_case(self):
        lhs, rhs = self._pair(Quadratic(np.eye(2)), TENT)
        assert lhs == pytest.approx(2 * math.pi / 3, rel=1e-10)
        assert rhs == pytest.approx(2 * math.pi / 3, rel=1e-10)

    def test_pushforward_conjugation(self):
        lhs, rhs = self._pair(Quadratic(np.diag([1.0, 4.0])), TENT)
        assert abs(lhs - rhs) <= 1e-6

    def test_zero_test_function(self):
        from funvol.weights import PolyCapped
        lhs, rhs = self._pair(Quadratic(np.eye(2)), PolyCapped([0.0], 1.0))
        assert lhs == 0.0 and rhs == 0.0


class TestReillyRadial:
    def test_quadratic_profile(self):
        res = reilly_radial_check(2, 1, TENT, p=2.0)
        assert res.lhs == pytest.approx(2 * math.pi / 3, rel=1e-9)
        assert res.lhs == pytest.approx(res.rhs, rel=1e-9)

    def test_quartic_profile(self):
        res = reilly_radial_check(2, 1, TENT, p=4.0)
        # oracle: 2*pi*int_0^1 4 r^3 (1-r^3) dr = 6*pi/7
        assert res.lhs == pytest.approx(6 * math.pi / 7, rel=1e-9)
        assert res.lhs == pytest.approx(res.rhs, rel=1e-8)

    @pytest.mark.parametrize("n,j", [(2, 1), (3, 1), (3, 2)])
    @pytest.mark.parametrize("p", [2.0, 4.0])
    def test_matrix(self, n, j, p):
        for zeta in (TENT, LogCap()):
            res = reilly_radial_check(n, j, zeta, p=p)
            assert res.lhs == pytest.approx(res.rhs, rel=1e-6), (n, j, p)

    def test_zero_weight(self):
        from funvol.weights import PolyCapped
        res = reilly_radial_check(2, 1, PolyCapped([0.0], 1.0), p=2.0)
        assert res.lhs == 0.0 and res.rhs == 0.0

    def test_interior_knot_cuts_the_panels(self, monkeypatch):
        # tent(1) + tent(0.3) in n = 3, j = 1, p = 2: 12 pi int_0^1 zeta(r) r^2 dr
        # = 1.027 pi; both sides start from panels cut at the kink r = 0.3,
        # and take fewer evaluations than from the whole range
        zeta, exact = SumWeight([TENT, Tent(0.3)]), 1.027 * math.pi
        cut = reilly_radial_check(3, 1, zeta, p=2.0)
        for side in (cut.lhs_result, cut.rhs_result):
            assert abs(side.value - exact) <= side.error + 8 * math.ulp(exact)
        interval = valuations.integrate_interval
        monkeypatch.setattr(valuations, "integrate_interval",
                            lambda f, a, b, breaks=(), **kw: interval(f, a, b, **kw))
        whole = reilly_radial_check(3, 1, zeta, p=2.0)
        for side, unbroken in ((cut.lhs_result, whole.lhs_result),
                               (cut.rhs_result, whole.rhs_result)):
            assert side.integrand_evals < unbroken.integrand_evals


class TestValuationProperty:
    def test_indicator_boxes_sharing_facet(self):
        spec = ValuationSpec(1, 2, TENT)
        k1 = Box([(0.0, 1.0), (0.0, 1.0)])
        k2 = Box([(1.0, 2.0), (0.0, 1.0)])
        union = Box([(0.0, 2.0), (0.0, 1.0)])
        inter = Box([(1.0, 1.0), (0.0, 1.0)])
        vals = {}
        for name, body in (("k1", k1), ("k2", k2), ("union", union), ("inter", inter)):
            r = eval_cauchy_kubota(spec, Indicator(body), 128, Rng(12))
            vals[name] = (r.value, r.error)
        lhs = vals["k1"][0] + vals["k2"][0]
        rhs = vals["union"][0] + vals["inter"][0]
        err = sum(v[1] for v in vals.values())
        assert abs(lhs - rhs) <= max(3 * err, 1e-10)


class TestPipelineAgreement:
    """Smooth route vs projection average (cubature) across the test matrix."""

    @pytest.mark.parametrize("n", [2, 3])
    def test_matrix(self, n):
        functions = [Quadratic(np.eye(n)),
                     Quadratic(np.diag(np.arange(1.0, n + 1.0))),
                     RadialPower(n, 2.0), RadialPower(n, 4.0)]
        weights = [TENT, LogCap(), Bump(0.2, 0.8)]
        for u in functions:
            for zeta in weights:
                for j in range(1, n):
                    spec = ValuationSpec(j, n, zeta)
                    smooth = eval_smooth(spec, u)
                    for k in range(j, n):
                        ck = eval_ck_general(spec, u, k, 48, Rng(13))
                        tol = 3 * (smooth.error + ck.error)
                        assert abs(ck.value - smooth.value) <= max(tol, 1e-8), \
                            (n, j, k, type(u).__name__, type(zeta).__name__)


class TestRecursiveCkOnIndicators:
    def test_ball_indicator_intermediate_k(self):
        from funvol.numerics import kappa
        from funvol.weights import transform_R_power
        spec = ValuationSpec(1, 3, TENT)
        expect = kappa(2) * transform_R_power(TENT, 2).value_at_zero() * 4.0
        got = eval_ck_general(spec, Indicator(Ball(1.0, [0, 0, 0])), 2, 16, Rng(5))
        assert got.value == pytest.approx(expect, rel=1e-12)


SIMPLEX = PolytopeV(np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0],
                              [0.0, 0.0, 1.0]]))
BOX4 = Box([(0.0, 1.0), (0.0, 2.0), (0.0, 3.0), (0.0, 1.0)])
TRANSLATED_CONE = EpiTranslated(Cone(5, 0.5, 1.0), [1.0] * 5, 0.25)


class TestClosedFormInnerValuations:
    """ck-general on sources whose projections are not smooth, each
    projection's degree-j valuation a closed form, agrees with the closed
    form of the whole: within the reported error under cubature and three
    of them under Monte Carlo, plus 8 ulp of rounding, which no error bar
    includes (an exact inner value can leave a zero error)."""

    @staticmethod
    def _check(r, expect, sigmas):
        assert abs(r.value - expect) <= sigmas * r.error + 8 * math.ulp(expect), \
            (r.value, expect, r.error)

    @pytest.mark.parametrize("body,j,k,sigmas", [
        (BOX4, 1, 2, 3), (BOX4, 2, 3, 1), (Box([(0.0, 1.0)] * 5), 2, 3, 3), (SIMPLEX, 1, 2, 1),
        (Ball(1.0, [0.0] * 5), 2, 4, 3),
    ], ids=["box_n4_G42", "box_n4_G43", "cube_n5", "simplex", "ball_n5"])
    def test_indicators_retrieve(self, body, j, k, sigmas):
        spec = ValuationSpec(j, body.n, TENT)
        r = eval_ck_general(spec, Indicator(body), k, 256, Rng(1))
        self._check(r, retrieval_check(spec, body).rhs, sigmas)

    @pytest.mark.parametrize("u,j,k,sigmas", [
        (Cone(3, 0.5, 1.0), 1, 2, 1), (Cone(5, 0.5, 1.0), 2, 4, 3),
        (TRANSLATED_CONE, 1, 3, 3), (TRANSLATED_CONE, 2, 3, 3),
    ], ids=["cone_n3", "cone_n5", "translated_j1", "translated_j2"])
    def test_cones(self, u, j, k, sigmas):
        spec = ValuationSpec(j, u.n, TENT)
        r = eval_ck_general(spec, u, k, 256, Rng(1))
        self._check(r, cone_closed_form(spec, 0.5), sigmas)

    def test_translated_cone_keeps_the_bare_bits(self):
        # every plane's projection unwraps to the same Cone core, whose
        # T^{k-j}xi(t) the stack evaluates once, by the same scalar call
        spec = ValuationSpec(1, 5, TENT)
        bare = eval_ck_general(spec, Cone(5, 0.5, 1.0), 3, 256, Rng(7))
        moved = eval_ck_general(spec, TRANSLATED_CONE, 3, 256, Rng(7))
        assert (moved.value.hex(), moved.error.hex(), moved.subspace_samples) == (
            bare.value.hex(), bare.error.hex(), bare.subspace_samples)

    @pytest.mark.parametrize("body", [CUBE, POLYTOPE], ids=["cube", "polytope"])
    @pytest.mark.parametrize("j", [1, 2])
    def test_translated_indicator_takes_stacked_shadows(self, body, j, monkeypatch):
        # an epigraph-translated indicator's V_j come from one stacked
        # shadow pass, as the bare indicator's do: no shadow is built alone
        spec = ValuationSpec(j, 3, TENT)
        bare = eval_ck_general(spec, Indicator(body), 2, 256, Rng(0))
        monkeypatch.setattr(subspaces, "project_body", None)
        moved = eval_ck_general(spec, EpiTranslated(Indicator(body), [0.5, 0.0, -0.5], 0.25),
                                2, 256, Rng(0))
        assert abs(moved.value - bare.value) <= 1e-14 * abs(bare.value)
        assert moved.subspace_samples == bare.subspace_samples

    def test_minkowski_sum_at_degree_one(self):
        # the indicator of A + B, whose V_1 is V_1(A) + V_1(B)
        box = Box([(0.0, 1.0), (0.0, 2.0), (0.0, 0.5)])
        spec = ValuationSpec(1, 3, TENT)
        r = eval_ck_general(spec, InfConv(Indicator(box), Indicator(SIMPLEX)), 2, 256, Rng(1))
        self._check(r, retrieval_check(spec, box).rhs + retrieval_check(spec, SIMPLEX).rhs, 1)

    @pytest.mark.parametrize("u,j", [
        (PointwiseScaled(Indicator(CUBE), 2.0), 1),
        (InfConv(Cone(3, 0.5, 1.0), Quadratic(np.eye(3))), 1),
        (InfConv(Indicator(CUBE), Indicator(SIMPLEX)), 2),
    ], ids=["pointwise_scaled_indicator", "inf_conv_cone_quadratic", "minkowski_sum_j2"])
    def test_no_closed_form_raises(self, u, j):
        with pytest.raises(UnsupportedVariant):
            eval_ck_general(ValuationSpec(j, 3, TENT), u, 2, 20, Rng(0))


class TestDualCrossRoutes:
    def test_quartic_radial_dual_paths(self):
        # oracle: 2*pi * int_0^1 (1-r) * 4 r^2 * r dr = 2*pi/5
        spec = ValuationSpec(1, 2, TENT)
        v = RadialPower(2, 4.0)
        a = eval_dual(spec, v, "integral")
        b = eval_dual(spec, v, "conjugate")
        assert a.value == pytest.approx(2 * math.pi / 5, rel=1e-9)
        assert a.value == pytest.approx(b.value, rel=1e-9)

    def test_dual_ck_matches_ck_general_on_conjugate(self):
        # restrictions of v correspond to projections of its conjugate
        spec = ValuationSpec(1, 2, TENT)
        v = Quadratic(np.diag([1.0, 4.0]))
        u = v.conjugate()
        d = eval_dual_ck(spec, v, 1, 64, Rng(3))
        g = eval_ck_general(spec, u, 1, 64, Rng(3))
        assert d.value == pytest.approx(g.value, rel=1e-10)


# ---------------------------------------------------------------------------
# Plane stacks: one lockstep polar run per stack


def _hexes(rows):
    return [(value.hex(), error.hex(), evals) for value, error, evals in rows]


def _alone(route, items, *args):
    """``route`` on each item of a stack as a stack of one."""
    return [route([item], *args)[0] for item in items]


A3 = np.array([[2.0, 0.3, -0.4], [0.3, 1.0, 0.2], [-0.4, 0.2, 0.6]])
A4 = np.diag([1.0, 2.0, 3.0, 4.0]) + 0.1


class TestPlaneStacks:
    """A stack integrates each of its members as that member alone, bit for
    bit: value, error and evaluations."""

    @pytest.mark.parametrize("u,zeta", [
        (Quadratic(A3, [0.1, -0.2, 0.3]), Bump(0.2, 0.8)),
        (RadialPower(3, 4.0), LogCap()),
    ], ids=["quadratic", "radial_power"])
    def test_projections_of_a_cubature_level(self, u, zeta):
        planes, _ = valuations.grassmann_cubature(3, 2, [2])[0]
        ws = [subspaces.project_function(u, e).realized for e in planes]
        xi = xi_from_zeta(zeta, 1, 2, 3)
        stacked = valuations._smooth_integral(ws, xi, 1)
        assert _hexes(stacked) == _hexes(_alone(valuations._smooth_integral, ws, xi, 1))

    def test_domain_integrals_at_k_equal_j(self):
        u = EpiTranslated(Quadratic(A3, [0.1, -0.2, 0.3]), [0.5, 0.0, -0.5], 0.25)
        lines, _ = valuations.grassmann_cubature(3, 1, [2])[0]
        ws = [subspaces.project_function(u, e).realized for e in lines]
        xi = xi_from_zeta(Bump(0.2, 0.8), 1, 1, 3)
        stacked = valuations._domain_weight_integrals(ws, xi, 1)
        assert _hexes(stacked) == _hexes(_alone(valuations._domain_weight_integrals, ws, xi, 1))

    @pytest.mark.parametrize("k", [1, 2])
    def test_restrictions_of_a_cubature_level(self, k):
        v = Quadratic(A3, [0.1, -0.2, 0.3])
        planes, _ = valuations.grassmann_cubature(3, k, [2])[0]
        vs = [subspaces.restrict_function(v, e) for e in planes]
        xi = xi_from_zeta(Bump(0.2, 0.8), 1, k, 3)
        # values and errors bit for bit; the stack's one radial moment
        # counts its evaluations once, on the first plane
        stacked = valuations._dual_integral(1, xi, vs)
        alone = [valuations._dual_integral(1, xi, [w])[0] for w in vs]
        assert _hexes(stacked) == _hexes(
            [(value, error, evals if m == 0 else 0)
             for m, (value, error, evals) in enumerate(alone)])

    def test_monte_carlo_draw(self):
        u = Quadratic(A4)
        streams = [Rng(3).stream(i) for i in range(6)]
        ws = [subspaces.project_function(u, e).realized
              for e in valuations.sample_grassmann(4, 2, streams)]
        xi = xi_from_zeta(Tent(1.0), 1, 2, 4)
        stacked = valuations._smooth_integral(ws, xi, 1)
        assert _hexes(stacked) == _hexes(_alone(valuations._smooth_integral, ws, xi, 1))

    def test_large_draw_holds_a_bounded_stack(self, monkeypatch):
        # a Monte Carlo draw is one stack however many planes it holds; the
        # members that refine together, and each radii call, hold at most
        # _MAX_BATCH directions, and the members still equal each alone
        budget = 1024  # eight level-4 rules in R^3, of 128 directions each
        monkeypatch.setattr(numerics, "_MAX_BATCH", budget)
        held, asked = [], []
        refine, stack = numerics._refine, valuations.integrate_polar_stack

        def recorded_refine(panels, runs, fn, what):
            held.append((sum(len(r.dirs) for r in runs), len(runs)))
            return refine(panels, runs, fn, what)

        def recorded_stack(f, n, radii, ratios, singular, **kw):
            def counted(dirs, members):
                asked.append((len(dirs) * len(members), len(members)))
                return radii(dirs, members)
            return stack(f, n, counted, ratios, singular, **kw)

        monkeypatch.setattr(numerics, "_refine", recorded_refine)
        monkeypatch.setattr(valuations, "integrate_polar_stack", recorded_stack)
        streams = [Rng(5).stream(i) for i in range(24)]
        ws = [subspaces.project_function(Quadratic(A4), e).realized
              for e in valuations.sample_grassmann(4, 3, streams)]
        xi = xi_from_zeta(Tent(1.0), 1, 3, 4)
        stacked = valuations._smooth_integral(ws, xi, 2)
        assert len(held) > 1 and asked
        for size, members in held + asked:
            assert size <= budget or members == 1
        # the 24 members take level 4 in three turns of eight
        assert [members for _, members in held].count(8) == 3
        assert _hexes(stacked) == _hexes(_alone(valuations._smooth_integral, ws, xi, 2))

    def test_level_reaches_the_integrand_in_lockstep(self, monkeypatch):
        # the 16 planes of the level-2 cubature of G(3, 2) reach the
        # integrand in as many calls as the most refined of them alone
        calls, stacks = [], []
        call = numerics._CountingFn.__call__

        def counted(self, x):
            calls.append(len(x))
            return call(self, x)

        stack = valuations.integrate_polar_stack

        def recorded(f, n, radii, ratios, singular, **kw):
            first = len(calls)
            out = stack(f, n, radii, ratios, singular, **kw)
            stacks.append((len(ratios), len(calls) - first))
            return out

        monkeypatch.setattr(numerics._CountingFn, "__call__", counted)
        monkeypatch.setattr(valuations, "integrate_polar_stack", recorded)
        u, zeta = Quadratic(np.eye(3)), Tent(1.0)
        eval_ck_general(ValuationSpec(1, 3, zeta), u, 2, samples=64, rng=Rng(3))
        assert [size for size, _ in stacks] == [4, 16]
        planes, _ = valuations.grassmann_cubature(3, 2, [2])[0]
        xi = xi_from_zeta(zeta, 1, 2, 3)
        alone = []
        for e in planes:
            first = len(calls)
            valuations._smooth_integral([subspaces.project_function(u, e).realized], xi, 1)
            alone.append(len(calls) - first)
        assert stacks[1][1] == max(alone) < 2 * len(planes)


class TestStackBudgets:
    """A member that runs out of its budget raises from a stack what the
    plane-by-plane loop raised: the first failing member's error."""

    @staticmethod
    def _spend(budget, monkeypatch):
        if budget == "_MAX_DEPTH":
            monkeypatch.setattr(numerics, "_MAX_DEPTH", 1)
            return "radial refinement"
        rule = numerics.sphere_rule

        def disagreeing(n, level):  # no two levels agree
            dirs, wts = rule(n, level)
            return dirs, wts * (1.0 + 1e-6 * level)

        monkeypatch.setattr(numerics, "sphere_rule", disagreeing)
        monkeypatch.setattr(numerics, "_MAX_LEVEL", 8)
        return "angular refinement"

    @staticmethod
    def _first_failure(route, items):
        for item in items:
            try:
                route([item])
            except NonConvergedError as exc:
                return exc
        raise AssertionError("no member failed alone")

    @pytest.mark.parametrize("budget", ["_MAX_DEPTH", "_MAX_LEVEL"])
    @pytest.mark.parametrize("route", ["projection", "restriction"])
    def test_first_failure_is_raised(self, route, budget, monkeypatch):
        # a quadratic's restrictions take one interval integral, so the
        # restriction route runs on a sum whose restrictions are a polar list
        what = self._spend(budget, monkeypatch)
        spec = ValuationSpec(1, 3, Bump(0.2, 0.8))
        u = Quadratic(A3, [0.1, -0.2, 0.3])
        if route == "restriction":
            u = PointwiseSum(u, RadialPower(3, 4.0))
        xi = xi_from_zeta(spec.zeta, 1, 2, 3)
        planes, _ = valuations.grassmann_cubature(3, 2, [1])[0]
        with pytest.raises(NonConvergedError, match=what) as info:
            if route == "projection":
                eval_ck_general(spec, u, 2, samples=64, rng=Rng(3))
            else:
                eval_dual_ck(spec, u, 2, samples=64, rng=Rng(3))
        if route == "projection":
            alone = self._first_failure(
                lambda ws: valuations._smooth_integral(ws, xi, 1),
                [subspaces.project_function(u, e).realized for e in planes])
        else:
            alone = self._first_failure(
                lambda vs: valuations._dual_integral(1, xi, vs),
                [subspaces.restrict_function(u, e) for e in planes])
        got = info.value
        assert (str(got), got.value, got.error, got.evaluations) == (
            str(alone), alone.value, alone.error, alone.evaluations)


class TestQuadraticStackPins:
    """Projection and restriction averages of quadratics pinned bit for bit
    (float.hex): value, error, integrand evaluations and planes.  The numbers
    were recorded before a plane stack's projections and restrictions of a
    quadratic were realized in one batched pass.  ``TURNED`` is A3 turned by
    a Haar rotation: non-diagonal and not exactly symmetric.  The polar
    numbers were re-recorded when a pass's angular check moved to the 7
    embedded Gauss nodes at the next level: values moved by at most
    8.9e-16, each within its old error, and again when radial panels were
    split several a step and reduced over their directions first: counts
    kept every bit, values moved by at most 8.9e-16, each within its old
    error.  The two dual pins were re-recorded when a quadratic's dual
    integrals moved to one ray per radial node: counts fell from 72,640 to
    7,540, values moved by at most 8.9e-16 (1 ulp), within their old
    errors, and again when a quadratic stack's dual integrals became one
    interval integral of its radial moment, counted once per stack: counts
    fell to 600, values moved by at most 8.9e-16 (1 ulp), within their old
    errors."""

    B, C = [0.1, -0.2, 0.3], 0.7
    Q = sample_rotation(3, Rng(2))
    TURNED = Q @ A3 @ Q.T
    CASES = {
        "ck_monte_carlo": (
            lambda c: eval_cauchy_kubota(ValuationSpec(2, 4, TENT),
                                         Quadratic(np.diag([1.0, 2.0, 3.0, 4.0])), 256, Rng(5)),
            ("0x1.7e81f78088f08p+0", "0x1.f7e3a01e2ce86p-6", 59392, 256)),
        "dual_ck_rotated": (
            lambda c: eval_dual_ck(ValuationSpec(1, 3, Bump(0.2, 0.8)),
                                   Rotated(Quadratic(A3, c.B, c.C), c.Q),
                                   2, 64, Rng(3)),
            ("0x1.14fdfef503949p+2", "0x1.5d6ed5fefd5b4p-32", 600, 20)),
        "dual_ck_turned": (
            lambda c: eval_dual_ck(ValuationSpec(1, 3, Bump(0.2, 0.8)),
                                   Quadratic(c.TURNED, c.B, c.C), 2, 64, Rng(3)),
            ("0x1.14fdfef50394ap+2", "0x1.5d6e95fefd5b4p-32", 600, 20)),
        "ck_general_turned": (
            lambda c: eval_ck_general(ValuationSpec(1, 3, Bump(0.2, 0.8)),
                                      Quadratic(c.TURNED, c.B, c.C), 2, 64, Rng(3)),
            ("0x1.3ac38a7384118p+2", "0x1.8d1518461d97bp-32", 72640, 20)),
        "ck_general_lines": (
            lambda c: eval_ck_general(ValuationSpec(1, 3, Bump(0.2, 0.8)),
                                      Quadratic(A3, c.B, c.C), 1, 64, Rng(3)),
            ("0x1.3ac38a7384278p+2", "0x1.03dde6c0e3a50p-28", 10800, 20)),
        "ck_general_epi_translated": (
            lambda c: eval_ck_general(ValuationSpec(1, 3, Bump(0.2, 0.8)),
                                      EpiTranslated(Quadratic(A3, c.B, c.C), [0.5, 0.0, -0.5],
                                                    0.25), 2, 64, Rng(3)),
            ("0x1.3ac38a7384118p+2", "0x1.8d15723408db4p-32", 72640, 20)),
        "smooth_turned": (
            lambda c: eval_smooth(ValuationSpec(1, 3, Bump(0.2, 0.8)),
                                  Quadratic(c.TURNED, c.B, c.C)),
            ("0x1.3ac38a7384119p+2", "0x1.29d0382fb2000p-31", 19456, 0)),
    }

    @pytest.mark.parametrize("name", sorted(CASES))
    def test_pin(self, name):
        run, pin = self.CASES[name]
        r = run(self)
        assert (r.value.hex(), r.error.hex(), r.integrand_evals, r.subspace_samples) == pin


class TestPlaneFreePins:
    """Projection and restriction averages of rotation-invariant sources
    pinned bit for bit (float.hex): value, error, integrand evaluations and
    planes.  Values, errors and planes were recorded before a plane-free
    source's projection or restriction was realized and integrated once per
    plane stack; each comment gives the evaluation count of that per-plane
    code, with both levels of each angular check in full.  The polar
    numbers were re-recorded when a pass's angular check moved to the 7
    embedded Gauss nodes at the next level: values moved by at most
    1.8e-15, each within its old error, and again when radial panels were
    split several a step and reduced over their directions first: counts
    kept every bit, values moved by at most 1.8e-15, each within its old
    error + 8 ulp.  ``ck_general_epi_translated`` is
    plane-dependent: its projections move with the plane, and each plane is
    still integrated."""

    POWER = RadialPower(3, 4.0)
    Q = sample_rotation(3, Rng(2))
    CASES = {
        # the default manifest's ck_general case on a radial power, seed 7
        "ck_general_suite": (  # 7,200
            lambda c: eval_ck_general(ValuationSpec(1, 3, LogCap()), c.POWER, 2, 48, Rng(7)),
            ("0x1.58ad76cccb8f1p+2", "0x1.0000000000000p-50", 464, 20)),
        "ck_j1": (  # 3,000
            lambda c: eval_cauchy_kubota(ValuationSpec(1, 3, TENT), c.POWER, 256, Rng(3)),
            ("0x1.e28c731eb6951p+1", "0x1.847a000000000p-36", 300, 20)),
        "ck_j2": (  # 16,800
            lambda c: eval_cauchy_kubota(ValuationSpec(2, 3, TENT), c.POWER, 256, Rng(3)),
            ("0x1.2d97c7f3321d2p+2", "0x1.1e62d00000000p-34", 1168, 20)),
        "ck_monte_carlo": (  # 21,120
            lambda c: eval_cauchy_kubota(ValuationSpec(2, 5, TENT), RadialPower(5, 4.0),
                                         16, Rng(7)),
            ("0x1.68f20e6904fd9p+3", "0x1.23809c0000001p-30", 936, 16)),
        # the same Cone(2) on every plane, by the cone formula in dimension 2
        "ck_general_cone": (  # 0
            lambda c: eval_ck_general(ValuationSpec(1, 3, TENT), Cone(3, 0.5, 1.0), 2, 64,
                                      Rng(3)),
            ("0x1.d524fe24f89f0p+1", "0x0.0p+0", 0, 20)),
        "dual_ck": (  # 7,200
            lambda c: eval_dual_ck(ValuationSpec(1, 3, TENT), c.POWER, 2, 64, Rng(3)),
            ("0x1.0c152382d7367p+1", "0x1.0000000000000p-50", 464, 20)),
        "dual_ck_rotated": (  # 7,200
            lambda c: eval_dual_ck(ValuationSpec(1, 3, TENT), Rotated(c.POWER, c.Q), 2, 64,
                                   Rng(3)),
            ("0x1.0c152382d7367p+1", "0x1.0000000000000p-50", 464, 20)),
        "ck_general_rotated": (  # 26,400
            lambda c: eval_ck_general(ValuationSpec(1, 3, TENT), Rotated(c.POWER, c.Q), 2, 64,
                                      Rng(3)),
            ("0x1.e28c731eb694fp+1", "0x1.235d450000000p-33", 1872, 20)),
        "ck_general_epi_scaled": (  # 26,400
            lambda c: eval_ck_general(ValuationSpec(1, 3, TENT),
                                      EpiScaled(Rotated(c.POWER, c.Q), 1.5), 2, 64, Rng(3)),
            ("0x1.69e9565708efbp+2", "0x1.b50b9f0000000p-33", 1872, 20)),
        "ck_general_epi_translated": (  # 26,400
            lambda c: eval_ck_general(ValuationSpec(1, 3, TENT),
                                      EpiTranslated(c.POWER, [0.5, 0.0, -0.5], 0.25), 2, 64,
                                      Rng(3)),
            ("0x1.e28c731eb694fp+1", "0x1.235d50f771f31p-33", 18720, 20)),
    }

    @pytest.mark.parametrize("name", sorted(CASES))
    def test_pin(self, name):
        run, pin = self.CASES[name]
        r = run(self)
        assert (r.value.hex(), r.error.hex(), r.integrand_evals, r.subspace_samples) == pin

    @staticmethod
    def _stack_calls(monkeypatch) -> list:
        """Record the evaluation counts each plane-stack callback returns."""
        counts, average = [], valuations._grassmann_average

        def recorded(n, k, samples, rng, stack):
            def counted(planes):
                out = stack(planes)
                counts.append(np.asarray(out[2]).tolist())
                return out
            return average(n, k, samples, rng, counted)

        monkeypatch.setattr(valuations, "_grassmann_average", recorded)
        return counts

    @pytest.mark.parametrize("name,lone", [
        ("ck_general_suite", lambda: valuations._smooth_integral(
            [RadialPower(2, 4.0)], xi_from_zeta(LogCap(), 1, 2, 3), 1)),
        ("ck_j1", lambda: valuations._domain_weight_integrals(
            [RadialPower(1, 4.0)], xi_from_zeta(TENT, 1, 1, 3), 1)),
        ("ck_monte_carlo", lambda: valuations._domain_weight_integrals(
            [RadialPower(2, 4.0)], xi_from_zeta(TENT, 2, 2, 5), 2)),
        ("dual_ck", lambda: valuations._dual_integral(
            1, xi_from_zeta(TENT, 1, 2, 3), [RadialPower(2, 4.0)])),
    ])
    def test_one_integral_per_stack_call(self, name, lone, monkeypatch):
        # a plane-free source's one realized function is integrated once per
        # stack call, and its evaluations are counted on the stack's first plane
        counts = self._stack_calls(monkeypatch)
        run, pin = self.CASES[name]
        r = run(self)
        ((_, _, evals),) = lone()
        assert [c[0] for c in counts] == [evals] * len(counts)
        assert not any(any(c[1:]) for c in counts)
        assert r.integrand_evals == pin[2] == evals * len(counts)
        assert sum(len(c) for c in counts) == r.subspace_samples

    def test_no_average_inside_an_average(self, monkeypatch):
        # a projection that is not smooth takes its inner valuation in closed
        # form: no Grassmannian average runs inside another and no integrand
        # is evaluated, whether every plane shares one projection, under
        # cubature or Monte Carlo, or each plane has its own
        depth, deepest, average = [0], [0], valuations._grassmann_average

        def recorded(*args):
            depth[0] += 1
            deepest[0] = max(deepest[0], depth[0])
            try:
                return average(*args)
            finally:
                depth[0] -= 1

        monkeypatch.setattr(valuations, "_grassmann_average", recorded)
        translated = EpiTranslated(Cone(5, 0.5, 1.0), [1.0] * 5, 0.25)
        for run in (lambda: self.CASES["ck_general_cone"][0](self),
                    lambda: eval_ck_general(ValuationSpec(2, 5, TENT), Cone(5, 0.5, 1.0), 4, 6,
                                            Rng(7)),
                    lambda: eval_ck_general(ValuationSpec(1, 5, TENT), translated, 3, 6, Rng(7)),
                    lambda: eval_ck_general(ValuationSpec(1, 3, TENT), Indicator(CUBE), 2, 20,
                                            Rng(0))):
            deepest[0] = 0
            r = run()
            assert deepest == [1] and r.integrand_evals == 0
