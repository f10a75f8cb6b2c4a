import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from funvol import numerics, valuations
from funvol.convex import EpiTranslated, PointwiseSum, Quadratic, RadialPower
from funvol.errors import NonConvergedError, SchemaError, UnsupportedVariant
from funvol.numerics import (
    Rng,
    elem_sym_values,
    flag_coefficient,
    integrate_interval,
    integrate_polar_separable,
    kappa,
    row_norms,
    sphere_rule,
    sphere_rule_size,
    standard_normals,
)
from funvol.valuations import ValuationSpec, eval_dual, eval_smooth
from funvol.weights import Bump, LogCap, Tent


def elem_sym(a, i):
    """e_i of the eigenvalues of a symmetric matrix."""
    return float(elem_sym_values(np.linalg.eigvalsh(a), i))


class TestElemSym:
    def test_identity_3x3(self):
        assert elem_sym(np.eye(3), 2) == pytest.approx(3.0)

    def test_diag_123(self):
        # oracle: expand (x-1)(x-2)(x-3) -> e_2 = 1*2 + 1*3 + 2*3
        assert elem_sym(np.diag([1.0, 2.0, 3.0]), 2) == pytest.approx(11.0)

    def test_degree_zero_convention(self):
        rng = np.random.default_rng(0)
        m = rng.standard_normal((4, 4))
        assert elem_sym(m + m.T, 0) == 1.0

    def test_char_poly_oracle(self):
        # sum_i e_i(A) t^{n-i} must equal det(tI + A)
        rng = np.random.default_rng(1)
        for _ in range(20):
            m = rng.standard_normal((3, 3))
            a = m + m.T
            for t in (1.0, 2.0, 5.0):
                lhs = sum(elem_sym(a, i) * t ** (3 - i) for i in range(4))
                rhs = np.linalg.det(t * np.eye(3) + a)
                assert lhs == pytest.approx(rhs, rel=1e-10)

    @given(st.floats(min_value=0.1, max_value=10.0), st.integers(min_value=0, max_value=3))
    @settings(max_examples=30, deadline=None)
    def test_scaling(self, c, i):
        a = np.array([[2.0, 1.0, 0.0], [1.0, 3.0, 0.5], [0.0, 0.5, 1.5]])
        assert elem_sym(c * a, i) == pytest.approx(c ** i * elem_sym(a, i), rel=1e-10)

    def test_batched(self):
        vals = np.array([[1.0, 2.0, 3.0], [1.0, 1.0, 1.0]])
        out = elem_sym_values(vals, 2)
        assert out == pytest.approx([11.0, 3.0])


class TestRowNorms:
    """``row_norms`` is ``np.linalg.norm(x, axis=1)``, bit for bit."""

    @staticmethod
    def _same(x):
        with np.errstate(over="ignore", under="ignore", invalid="ignore"):
            got, want = row_norms(x), np.linalg.norm(x, axis=1)
        return got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("order", ["C", "F"])
    @pytest.mark.parametrize("n", range(1, 7))
    def test_random_rows(self, n, order):
        rng = np.random.default_rng(n)
        x = rng.standard_normal((2_000, n)) * np.exp(rng.uniform(-20.0, 20.0, (2_000, n)))
        assert self._same(np.asarray(x, order=order))

    @pytest.mark.parametrize("order", ["C", "F"])
    @pytest.mark.parametrize("n", range(1, 7))
    def test_special_values(self, n, order):
        # zeros, subnormals (squares underflow), values whose squares
        # overflow, NaN, and mixtures of them in one row
        specials = [0.0, -0.0, 5e-324, -2.2e-308, 1e-160, 1e155, -3e155, 1.7e308,
                    np.nan, 1.0, -2.5]
        rng = np.random.default_rng(100 + n)
        x = rng.choice(specials, size=(500, n))
        x[:len(specials)] = np.array(specials)[:, None]
        assert self._same(np.asarray(x, order=order))
        with np.errstate(over="ignore", under="ignore"):
            norms = row_norms(x)
        assert np.array_equal(np.isnan(norms), np.isnan(x).any(axis=1))
        assert np.isinf(norms[specials.index(1e155)])


class TestKappa:
    def test_values(self):
        assert kappa(0) == pytest.approx(1.0)
        assert kappa(2) == pytest.approx(math.pi)
        assert kappa(3) == pytest.approx(4.0 * math.pi / 3.0)

    def test_recursion(self):
        for j in range(1, 12):
            expect = kappa(j - 1) * math.sqrt(math.pi) * math.gamma((j + 1) / 2) / math.gamma(j / 2 + 1)
            assert kappa(j) == pytest.approx(expect, rel=1e-12)

    def test_flag_coefficient(self):
        assert flag_coefficient(2, 1) == pytest.approx(math.pi / 2)
        assert flag_coefficient(3, 2) == pytest.approx(2.0)
        for n in range(1, 5):
            assert flag_coefficient(n, n) == pytest.approx(1.0)


class TestIntervalQuadrature:
    def test_tent_with_support_bound(self):
        r = integrate_interval(lambda t: np.maximum(0.0, 1.0 - t), 0.0, 1.0)
        assert r.value == pytest.approx(0.5, abs=1e-12)

    def test_log_singularity(self):
        r = integrate_interval(lambda t: -np.log(t), 0.0, 1.0, singular_left=True)
        assert r.value == pytest.approx(1.0, abs=1e-9)

    def test_zero(self):
        r = integrate_interval(lambda t: np.zeros_like(t), 0.0, 5.0)
        assert r.value == 0.0

    def test_power_singularity(self):
        r = integrate_interval(lambda t: t ** -0.5, 0.0, 1.0, singular_left=True)
        assert r.value == pytest.approx(2.0, abs=1e-8)

    def test_linearity_and_monotonicity(self):
        f = lambda t: np.sin(t) + 1.2
        g = lambda t: np.cos(t) ** 2
        a, b = 0.0, 2.0
        rf = integrate_interval(f, a, b).value
        rg = integrate_interval(g, a, b).value
        rc = integrate_interval(lambda t: 2.0 * f(t) + 3.0 * g(t), a, b).value
        assert rc == pytest.approx(2 * rf + 3 * rg, rel=1e-11)
        assert integrate_interval(lambda t: f(t) + 0.5, a, b).value > rf

    def test_non_converged(self, monkeypatch):
        monkeypatch.setattr(numerics, "_MAX_DEPTH", 2)
        monkeypatch.setattr(numerics, "_ABS_TOL", 1e-14)
        monkeypatch.setattr(numerics, "_REL_TOL", 1e-14)
        with pytest.raises(NonConvergedError, match="interval quadrature"):
            integrate_interval(lambda t: np.abs(np.sin(40.0 * t)) ** 0.3, 0.0, 3.0)

    def test_calls_hold_at_most_max_batch_points(self, monkeypatch):
        # a step splits every panel the tolerance needs, so a refinement that
        # does not converge splits about all of its panels a step; they reach
        # the integrand in calls of whole panels, at most _MAX_BATCH points
        budget = 20 * 15
        monkeypatch.setattr(numerics, "_MAX_BATCH", budget + 14)
        monkeypatch.setattr(numerics, "_MAX_PANELS", 5000)
        sizes = []

        def noise(t):
            sizes.append(t.size)
            return np.sin(1e9 * t)

        with pytest.raises(NonConvergedError, match="with 5001 panels"):
            integrate_interval(noise, 0.0, 1.0)
        assert max(sizes) == budget and sum(sizes) > 100 * budget

    def test_calls_keep_values(self, monkeypatch):
        # cutting a step into calls changes no panel's bits
        f = lambda t: np.abs(np.sin(40.0 * t)) ** 0.3
        whole = integrate_interval(f, 0.0, 3.0)
        monkeypatch.setattr(numerics, "_MAX_BATCH", 100)
        cut = integrate_interval(f, 0.0, 3.0)
        assert (cut.value.hex(), cut.error.hex(), cut.evaluations) == (
            whole.value.hex(), whole.error.hex(), whole.evaluations)

    def test_non_finite_total_raises(self):
        # x = a + (b - a) t^2 rounds to a at the deepest graded nodes, where
        # |x - a|^p is inf: the total turns -inf, which no split can mend,
        # and the refinement stops there as non-converged, not as converged
        # with an infinite tolerance
        a, b, p, w = -1.3111, 1.1107, -0.6149, 17.415
        with np.errstate(divide="ignore"), pytest.raises(
                NonConvergedError, match="interval quadrature .* left double precision") as info:
            integrate_interval(lambda x: np.abs(x - a) ** p * np.cos(w * x), a, b,
                               singular_left=True)
        assert info.value.value == -math.inf and info.value.evaluations > 0

    @pytest.mark.parametrize("a,b", [(0.0, math.inf), (-math.inf, 0.0), (0.0, math.nan)])
    def test_rejects_non_finite_bound(self, a, b):
        with pytest.raises(ValueError, match="finite bounds"):
            integrate_interval(lambda t: t, a, b)

    def test_one_panel_is_exact_to_degree_13(self):
        # the embedded 7-point Gauss rule is exact to degree 13, so the
        # error estimate |K15 - G7| is rounding and one panel stops; the
        # Kronrod rule alone is exact to degree 23, and degree 14 on needs splits
        f = lambda x: sum((d + 1) * x ** d for d in range(14))  # noqa: E731
        r = integrate_interval(f, 0.0, 1.0)
        assert r.evaluations == 15 and abs(r.value - 14.0) <= 8 * math.ulp(14.0)
        assert integrate_interval(lambda x: 15 * x ** 14, 0.0, 1.0).evaluations > 15

    @staticmethod
    def _first_leaves(monkeypatch):
        """Record the panels each refinement starts from."""
        leaves, refine = [], numerics._refine

        def recorded(panels, runs, fn, what):
            leaves.append(runs[0].leaves)
            return refine(panels, runs, fn, what)

        monkeypatch.setattr(numerics, "_refine", recorded)
        return leaves

    def test_breaks_outside_are_ignored(self, monkeypatch):
        leaves = self._first_leaves(monkeypatch)
        f = lambda x: np.abs(x - 0.3)  # noqa: E731
        plain = integrate_interval(f, -1.0, 2.0)
        cut = integrate_interval(f, -1.0, 2.0, breaks=[-5.0, -1.0, 0.3, 2.0, 7.0, 0.3])
        outside = integrate_interval(f, -1.0, 2.0, breaks=[-5.0, -1.0, 2.0, 7.0])
        assert leaves == [[(-1.0, 2.0, 0)], [(-1.0, 0.3, 0), (0.3, 2.0, 0)], [(-1.0, 2.0, 0)]]
        assert outside == plain
        # the kink on a panel edge needs no refinement: one panel each side
        assert cut.evaluations == 30 < plain.evaluations
        assert abs(cut.value - 2.29) <= cut.error + 8 * math.ulp(2.29)

    def test_breaks_map_to_the_graded_variable(self, monkeypatch):
        # under singular_left a break x cuts the panels in t at
        # sqrt((x - a) / (b - a)), where x = a + (b - a) t^2
        leaves = self._first_leaves(monkeypatch)
        a, b, x = 0.5, 3.0, 1.25
        r = integrate_interval(lambda s: -np.log(s - a) * np.abs(s - x), a, b,
                               singular_left=True, breaks=[x])
        t = math.sqrt((x - a) / (b - a))
        assert leaves[0] == [(0.0, t, 0), (t, 1.0, 0)]
        c = x - a  # int_0^(b-a) -ln(u) |u - c| du = F(b - a) - 2 F(c)
        F = lambda u: u * u / 4 - c * u + (c * u - u * u / 2) * math.log(u)  # noqa: E731
        exact = F(b - a) - 2 * F(c)
        assert abs(r.value - exact) <= r.error + 8 * math.ulp(exact)


class TestPolarQuadrature:
    def test_sphere_rule_areas(self):
        for n in range(1, 5):
            _, w = sphere_rule(n, 8)
            assert w.sum() == pytest.approx(n * kappa(n), rel=1e-12)

    @pytest.mark.parametrize("n", [0, 5, 6])
    def test_no_rule_beyond_four_dimensions(self, n):
        with pytest.raises(UnsupportedVariant, match="n <= 4"):
            integrate_polar_separable(lambda x: np.ones(len(x)), n, 1.0)

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_tent_ball(self, n):
        # oracle: n*kappa_n * int_0^1 (1-r) r^{n-1} dr = n*kappa_n / (n(n+1))
        def f(x):
            return np.maximum(0.0, 1.0 - np.sqrt((x ** 2).sum(axis=1)))

        expect = n * kappa(n) * (1.0 / n - 1.0 / (n + 1))
        r = integrate_polar_separable(f, n, 1.0)
        assert r.value == pytest.approx(expect, rel=1e-10)

    def test_ray_breaks_and_anisotropy(self):
        # integrand with a kink at |2x| = 1, i.e. radius 1/2 along every ray
        def f(x):
            return np.maximum(0.0, 1.0 - 2.0 * np.sqrt((x ** 2).sum(axis=1)))

        r = integrate_polar_separable(f, 2, 0.5, break_ratios=[0.5])
        expect = 2 * kappa(2) * (0.5 ** 2 / 2 - 2 * 0.5 ** 3 / 3)
        assert r.value == pytest.approx(expect, rel=1e-11)


class TestSphereRuleExactness:
    @pytest.mark.parametrize("level", [1, 2, 4, 8])
    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_area_at_every_level(self, n, level):
        _, w = sphere_rule(n, level)
        assert abs(w.sum() - n * kappa(n)) <= 1e-14 * n * kappa(n)

    @pytest.mark.parametrize("level", [2, 4, 8])
    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_degree_two_moments(self, n, level):
        # the integral of x x^T over S^{n-1} is kappa_n I
        dirs, w = sphere_rule(n, level)
        moments = (dirs * w[:, None]).T @ dirs
        assert np.abs(moments - kappa(n) * np.eye(n)).max() <= 1e-14 * n * kappa(n)

    @pytest.mark.parametrize("level", [1, 2, 4])
    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_consecutive_levels_share_no_direction(self, n, level):
        coarse, _ = sphere_rule(n, level)
        fine, _ = sphere_rule(n, 2 * level)
        gap = np.linalg.norm(coarse[:, None, :] - fine[None, :, :], axis=2).min()
        assert gap > 1e-6

    @pytest.mark.parametrize("level", [1, 2, 3, 4])
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_second_half_negates_the_first(self, n, level):
        dirs, w = sphere_rule(n, level)
        assert len(w) == sphere_rule_size(n, level)
        half = len(w) // 2
        gap = np.abs(dirs[:half, None, :] + dirs[None, half:, :]).max(axis=2)
        match = gap.argmin(axis=1)
        assert gap.min(axis=1).max() <= 1e-15
        assert sorted(match) == list(range(half))
        assert np.abs(w[:half] - w[half:][match]).max() <= 1e-15 * w.max()

    @pytest.mark.parametrize("n", [0, 5])
    def test_size_out_of_range(self, n):
        with pytest.raises(UnsupportedVariant):
            sphere_rule_size(n, 1)


ALIASING_CASES = [(2, m) for m in (16, 32, 64)] + [(n, m) for n in (3, 4) for m in (8, 16, 32)]


class TestAngularAliasing:
    @pytest.mark.parametrize("n,m", ALIASING_CASES,
                             ids=[f"n{n}-m{m}" for n, m in ALIASING_CASES])
    def test_harmonic_over_the_ball(self, n, m):
        # Re((x0 + i x1)^m) integrates to 0 over the unit ball, so the value is kappa_n;
        # a rule whose directions alias the harmonic must not report convergence
        def f(x):
            # level 32 at n = 4 holds 524,288 directions; they come in bounded batches
            assert len(x) <= numerics._MAX_BATCH
            return 1.0 + ((x[:, 0] + 1j * x[:, 1]) ** m).real

        try:
            r = integrate_polar_separable(f, n, 1.0)
        except NonConvergedError:
            return
        assert abs(r.value - kappa(n)) <= r.error + 8 * math.ulp(kappa(n))


def _haar_pair(n: int, rng: np.random.Generator):
    """An orthonormal pair (a, b) of R^n: two columns of a Haar rotation."""
    q, r = np.linalg.qr(rng.standard_normal((n, n)))
    q = q * np.sign(np.diag(r))
    return q[:, 0], q[:, 1]


def _turned_harmonic(a, b, m: int):
    """1 + Re((x.a + i x.b)^m) e^{-|x|^2}: a harmonic of degree m in a generic
    orientation times a radial factor, so its integral over the unit ball is
    kappa_n, but no sphere rule of degree below m and no radial rule
    integrates it exactly."""
    def f(x):
        z = x @ a + 1j * (x @ b)
        return 1.0 + (z ** m).real * np.exp(-row_norms(x) ** 2)
    return f


HARD_CASES = [(n, m) for n in (2, 3, 4) for m in (6, 10, 14, 22)]

# the evaluations of each case, 1,659,488 in all: the same whether a step
# splits one panel or every panel the tolerance needs
HARD_EVALUATIONS = {
    (2, 6): 232, (2, 10): 232, (2, 14): 232, (2, 22): 232,
    (3, 6): 1_376, (3, 10): 6_880, (3, 14): 6_880, (3, 22): 58_272,
    (4, 6): 9_088, (4, 10): 81_792, (4, 14): 165_504, (4, 22): 1_328_768,
}


class TestAngularlyHard:
    @pytest.mark.parametrize("n,m", HARD_CASES, ids=[f"n{n}-m{m}" for n, m in HARD_CASES])
    def test_turned_harmonic_over_the_ball(self, n, m, monkeypatch):
        levels, rule = [], numerics.sphere_rule

        def recorded(n, level):
            levels.append(level)
            return rule(n, level)

        monkeypatch.setattr(numerics, "sphere_rule", recorded)
        a, b = _haar_pair(n, np.random.default_rng(100 * n + m))
        r = integrate_polar_separable(_turned_harmonic(a, b, m), n, 1.0)
        assert abs(r.value - kappa(n)) <= r.error + 8 * math.ulp(kappa(n))
        assert r.evaluations == HARD_EVALUATIONS[n, m]
        # levels 2 and 4 are exact below degrees 8 and 16 in n = 3 and 4, so
        # degree 22 needs a level past the first check; in n = 2 the
        # trapezoidal rules integrate cos(m theta) exactly for these m
        if m == 22 and n > 2:
            assert max(levels) >= 8

    @given(n=st.integers(2, 4), m=st.integers(1, 24), seed=st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=50, deadline=None)
    def test_haar_pairs(self, n, m, seed):
        a, b = _haar_pair(n, np.random.default_rng(seed))
        try:
            r = integrate_polar_separable(_turned_harmonic(a, b, m), n, 1.0)
        except NonConvergedError:
            return
        assert abs(r.value - kappa(n)) <= r.error + 8 * math.ulp(kappa(n))


class TestKronrodPanels:
    @staticmethod
    def _moment_misses(nodes, weights, degrees):
        return [abs(float(weights @ nodes ** d) - (2.0 / (d + 1) if d % 2 == 0 else 0.0))
                for d in degrees]

    def test_kronrod_rule_degree(self):
        nodes, w_k, _ = numerics._kronrod_pair()
        assert len(nodes) == 15 and np.all(np.diff(nodes) > 0)
        assert max(self._moment_misses(nodes, w_k, range(23))) <= 1e-15

    def test_embedded_gauss_rule_degree(self):
        nodes, _, w_g = numerics._kronrod_pair()
        gauss = nodes[1::2]
        assert max(self._moment_misses(gauss, w_g, range(14))) <= 1e-15
        assert np.allclose(gauss, np.polynomial.legendre.leggauss(7)[0], rtol=0, atol=1e-15)
        # the pair differs from degree 14 on, which is what the error estimate sees
        assert self._moment_misses(gauss, w_g, [14])[0] > 1e-6

    def test_refine_resumes_from_its_panels(self):
        calls = []

        def panels(batch):
            ((_, ends),) = batch
            calls.append(ends)
            values = [b - a for a, b in ends]
            return values, [(b - a) ** 2 * 1e-6 for a, b in ends], values

        fn = numerics._CountingFn(None, 1)

        def refine(leaves):
            # a stack of one, run until it stops
            run = numerics._Run(0, leaves)
            assert numerics._refine(panels, [run], fn, "test") == [run]
            return run.total, run.total_err, run.leaves

        value, _, leaves = refine([(0.0, 1.0, 0)])
        assert len(leaves) > 500 and max(d for _, _, d in leaves) == 10
        calls.clear()
        again, _, resumed = refine(leaves)
        # a converged grid is evaluated once more, at its leaves only, in one call
        assert calls == [[(a, b) for a, b, _ in leaves]]
        assert resumed == leaves and again == pytest.approx(value, rel=1e-14)



class TestSplitRule:
    """A refinement step splits the fewest of a run's largest-error panels
    that leave the error of the rest within tolerance, in one batch."""

    # six unit panels of value 0, so the tolerance is _ABS_TOL = 1e-10,
    # with errors (in 1e-11) 4, 32, 1, 16, 2, 8; every half has error 1e-13
    ERRORS = {(0.0, 1.0): 4e-11, (1.0, 2.0): 32e-11, (2.0, 3.0): 1e-11,
              (3.0, 4.0): 16e-11, (4.0, 5.0): 2e-11, (5.0, 6.0): 8e-11}

    def _refine(self, depths=None):
        """The batches of a stack of one over the six panels, and the run."""
        batches = []

        def panels(batch):
            ((_, ends),) = batch
            batches.append(ends)
            zeros = [0.0] * len(ends)
            return zeros, [self.ERRORS.get(e, 1e-13) for e in ends], zeros

        depths = depths or {}
        run = numerics._Run(0, [(a, b, depths.get(a, 0)) for a, b in sorted(self.ERRORS)])
        numerics._refine(panels, [run], numerics._CountingFn(None, 1), "test")
        return batches, run

    @staticmethod
    def _halves(*panels):
        return [half for a in panels for half in ((a, a + 0.5), (a + 0.5, a + 1.0))]

    def test_splits_the_fewest_largest_panels_at_once(self):
        # 63 above a tolerance of 10: splitting 32, 16 and 8 leaves 7
        batches, run = self._refine()
        assert batches[1:] == [self._halves(1.0, 3.0, 5.0)]
        assert run.failure is None and run.total_err <= 1e-10
        assert len(run.leaves) == 9

    def test_panel_at_depth_budget_stays(self):
        # 16 sits at _MAX_DEPTH: the step splits 32 alone, and the next one,
        # whose largest panel is 16, fails as a refinement one panel a step
        # would; the failure reports the sums after the first split
        batches, run = self._refine({3.0: numerics._MAX_DEPTH})
        assert batches[1:] == [self._halves(1.0)]
        failure = run.failure
        assert isinstance(failure, NonConvergedError)
        assert str(failure) == (f"test did not converge at depth {numerics._MAX_DEPTH} "
                                f"with 7 panels (error {run.total_err:.3e})")
        assert (failure.value, failure.error) == (run.total, run.total_err)

    def test_largest_panel_at_depth_budget_fails_at_once(self):
        batches, run = self._refine({1.0: numerics._MAX_DEPTH})
        assert len(batches) == 1
        assert str(run.failure) == (f"test did not converge at depth {numerics._MAX_DEPTH} "
                                    f"with 6 panels (error {run.total_err:.3e})")

    def test_panel_budget(self, monkeypatch):
        # with 6 panels and a budget of 7, a refinement one panel a step
        # splits twice (6 -> 7 -> 8 panels) and fails at the third: so does
        # a step, which splits 32 and 16 and stops before 8
        monkeypatch.setattr(numerics, "_MAX_PANELS", 7)
        batches, run = self._refine()
        assert batches[1:] == [self._halves(1.0, 3.0)]
        assert "with 8 panels" in str(run.failure)

def _translated(*eigs):
    """The quadratic x'diag(eigs)x/2 translated off the origin: smooth, but no
    :class:`Quadratic`, so the smooth route takes it to the polar rule."""
    return EpiTranslated(Quadratic(np.diag(eigs)), [0.5, -0.25, 0.125, 0.0][:len(eigs)], 0.0)


class TestPolarWork:
    """The polar rule's work on smooth integrals.  A quadratic's integral is
    one radial moment, so these run on translated quadratics, which the
    smooth route integrates as polar members."""

    def test_radial_tent_costs_one_level_and_its_check(self):
        # whitened, the tent integrand of a quadratic is radial: one 15-point
        # panel on the 128 directions of level 2, checked by its 7 Gauss
        # nodes on the 1,024 directions of level 4
        spec = ValuationSpec(1, 4, Tent(1.0))
        res = eval_smooth(spec, _translated(1.0, 2.0, 3.0, 4.0))
        assert res.integrand_evals == 128 * 15 + 1024 * 7

    def test_counts_repeat(self):
        spec = ValuationSpec(1, 3, Bump(0.2, 0.8))
        u = _translated(1.0, 0.5, 0.25)
        first, second = eval_smooth(spec, u), eval_smooth(spec, u)
        assert first.integrand_evals == second.integrand_evals
        assert (first.value, first.error) == (second.value, second.error)

    @staticmethod
    def _call_sizes(monkeypatch):
        sizes = []
        count = numerics._CountingFn.__call__

        def counted(self, x):
            sizes.append(len(x))
            return count(self, x)

        monkeypatch.setattr(numerics._CountingFn, "__call__", counted)
        return sizes

    def test_one_integrand_call_per_refinement_step(self, monkeypatch):
        # every refinement step evaluates its new panels in one batch: the
        # starting leaves, or the halves of every panel the step splits, or
        # a check's leaves; a batch takes more than one call only where its
        # points exceed the _MAX_BATCH budget
        sizes = self._call_sizes(monkeypatch)
        batches = []  # the number of calls before each refinement step
        refine = numerics._refine

        def counted_refine(panels, *args):
            def counted_panels(batch):
                batches.append(len(sizes))
                return panels(batch)
            return refine(counted_panels, *args)

        monkeypatch.setattr(numerics, "_refine", counted_refine)
        res = eval_smooth(ValuationSpec(1, 3, Bump(0.2, 0.8)), _translated(1.0, 0.5, 0.25))
        # level 2 (32 directions) from its 2 panels, one step of one split
        # and four of two, so 11 panels, and the check of those 11 panels at
        # level 4, 11 x 128 x 7 = 9,856 points in one call
        assert len(batches) == 7 and sizes == [960, 960] + [1920] * 4 + [9856]
        budget = numerics._MAX_BATCH // 15 * 15  # and // 7 * 7
        for first, last in zip(batches, batches[1:] + [len(sizes)]):
            assert last - first == math.ceil(sum(sizes[first:last]) / budget)
        assert sum(sizes) == res.integrand_evals
        # the value and count of the per-panel evaluation, bit for bit (the
        # error moved in its last bits when the quadratic was translated)
        assert (res.value.hex(), res.error.hex(), res.integrand_evals) == (
            "0x1.0d4c4618dfecdp+3", "0x1.fd973e031c000p-31", 19456)

    def test_points_are_contiguous_columns(self, monkeypatch):
        # the integrand gets (m, n) points whose coordinates are contiguous
        # columns, a view of the call buffer
        layouts = []
        count = numerics._CountingFn.__call__

        def counted(self, x):
            layouts.append((x.shape, x.strides[0], x.base is not None))
            return count(self, x)

        monkeypatch.setattr(numerics._CountingFn, "__call__", counted)
        eval_dual(ValuationSpec(1, 4, Bump(0.2, 0.8)),
                  PointwiseSum(Quadratic(np.diag([1.0, 2.0, 3.0, 4.0])), RadialPower(4, 4.0)),
                  "integral")
        assert layouts and all(shape[1] == 4 and stride == 8 and view
                               for shape, stride, view in layouts)

    def test_batches_stay_bounded(self, monkeypatch):
        # the n = 4 Bump smooth integral checks its 10 radial panels at
        # level 4, one batch of 71,680 points (1,024 directions x 7 nodes a
        # panel); its calls of at most _MAX_BATCH points bound the memory it
        # holds, and are filled across panel boundaries
        sizes = self._call_sizes(monkeypatch)
        res = eval_smooth(ValuationSpec(1, 4, Bump(0.2, 0.8)), _translated(1.0, 2.0, 3.0, 4.0))
        assert sum(sizes) == res.integrand_evals == 106_240
        assert 1024 * 15 < max(sizes) <= numerics._MAX_BATCH
        assert sizes[-5:] == [16_380] * 4 + [71_680 - 4 * 16_380]


def _stacked(fs):
    """The stack integrand of the plain integrands ``fs``, one per member."""
    return lambda x, owners: np.concatenate([fs[m](x[a:b]) for m, a, b in owners])


def _radii(rs):
    """The stack's ray radii from one radius per member, a number or a function."""
    return lambda dirs, members: np.stack([
        rs[m](dirs) if callable(rs[m]) else np.full(len(dirs), rs[m]) for m in members])


def _radius(x):
    return np.sqrt((x ** 2).sum(axis=1))


def _ellipse(dirs):
    return 1.0 / np.sqrt(dirs[:, 0] ** 2 + 4.0 * dirs[:, 1] ** 2)


# members (integrand, r_max, break ratios) that take different numbers of
# levels, splits and panels
MEMBERS = [
    (lambda x: np.maximum(0.0, 1.0 - 3.0 * _radius(x)), 1.0, ()),
    (lambda x: np.exp(3.0 * x[:, 0]), 1.0, ()),
    (lambda x: np.ones(len(x)), _ellipse, ()),
    (lambda x: np.maximum(0.0, 0.5 - _radius(x)) ** 2 + x[:, 1] ** 2, 1.0, (0.5,)),
    (lambda x: np.cos(4.0 * x[:, 0] * x[:, 1]), _ellipse, (0.25, 0.75)),
]


def _bump(x):
    """A smooth bump of radius 0.8, flat to every order at its edge."""
    s = np.minimum(_radius(x) ** 2 / 0.64, 1.0)
    with np.errstate(divide="ignore"):
        return np.exp(-1.0 / (1.0 - s))


def _harmonic(a, b, m: int):
    """1 + Re((x.a + i x.b)^m) e^{-|x|^2}, point by point (``x @ a`` is a
    matrix-vector product whose bits may depend on a row's position)."""
    def f(x):
        z = sum(x[:, k] * a[k] for k in range(len(a))) + 1j * sum(
            x[:, k] * b[k] for k in range(len(b)))
        return 1.0 + (z ** m).real * np.exp(-_radius(x) ** 2)
    return f


def _ellipsoid(dirs):
    return 1.0 / np.sqrt((dirs ** 2).sum(axis=1) + 0.5 * dirs[:, 1] ** 2)


def _members(n: int):
    """MEMBERS, and in n > 2 a bump, a member singular at the center and a
    harmonic of degree 10, whose check at level 4 disagrees; the ellipse's
    members take an ellipsoid."""
    if n == 2:
        return MEMBERS
    a, b = _haar_pair(n, np.random.default_rng(n))
    return [(f, _ellipsoid if r is _ellipse else r, ratios) for f, r, ratios in MEMBERS] + [
        (_bump, 1.0, ()), (lambda x: 1.0 / np.sqrt(_radius(x)), 1.0, (0.5,)),
        (_harmonic(a, b, 10), 1.0, ())]


class TestPolarStack:
    """A stack integrates each member as ``integrate_polar_separable`` alone."""

    @pytest.mark.parametrize("singular", [False, True], ids=["plain", "graded"])
    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_members_equal_alone(self, n, singular, monkeypatch):
        # in n > 2, a budget of 1,000 points a call cuts every panel of 128
        # or more directions across calls, the stack's at other places than
        # each member's own; the checks of the harmonic and of exp(3 x_0)
        # at level 4 disagree, and their passes at level 4 follow
        if n > 2:
            monkeypatch.setattr(numerics, "_MAX_BATCH", 1000)
        members = _members(n)
        fs = [f for f, _, _ in members]
        stacked = numerics.integrate_polar_stack(
            _stacked(fs), n, _radii([r for _, r, _ in members]),
            [ratios for _, _, ratios in members], singular)
        alone = [integrate_polar_separable(f, n, r, break_ratios=ratios,
                                           singular_center=singular)
                 for f, r, ratios in members]
        # the members take different numbers of levels, splits and panels
        assert len({res.evaluations for res in alone}) >= len(MEMBERS)
        assert [(r.value.hex(), r.error.hex(), r.evaluations) for r in stacked] == [
            (r.value.hex(), r.error.hex(), r.evaluations) for r in alone]

    def test_calls_stay_bounded(self, monkeypatch):
        # a level-4 batch of many members is cut into calls of at most
        # _MAX_BATCH points, across member and panel boundaries
        monkeypatch.setattr(numerics, "_MAX_BATCH", 1000)
        sizes = []
        fs = [f for f, _, _ in MEMBERS] * 8

        def f(x, owners):
            sizes.append(len(x))
            assert owners[0][1] == 0 and owners[-1][2] == len(x)
            return _stacked(fs)(x, owners)

        stacked = numerics.integrate_polar_stack(
            f, 2, _radii([r for _, r, _ in MEMBERS * 8]),
            [ratios for _, _, ratios in MEMBERS * 8], False)
        assert max(sizes) <= 1000 < max(sizes) + 15
        assert sum(sizes) == sum(r.evaluations for r in stacked)

    def test_held_directions_stay_within_budget(self, monkeypatch):
        # the members refining together hold at most _MAX_BATCH sphere-rule
        # directions, and so does each radii call, unless one member's rule
        # is larger alone; the others wait their turn, which changes no bit
        budget = 48
        monkeypatch.setattr(numerics, "_MAX_BATCH", budget)
        held, asked = [], []
        refine = numerics._refine

        def recorded_refine(panels, runs, fn, what):
            held.append((sum(len(r.dirs) for r in runs), len(runs)))
            return refine(panels, runs, fn, what)

        def radii(dirs, members):
            asked.append((len(dirs) * len(members), len(members)))
            return _radii([r for _, r, _ in MEMBERS * 8])(dirs, members)

        monkeypatch.setattr(numerics, "_refine", recorded_refine)
        fs = [f for f, _, _ in MEMBERS] * 8
        ratios = [ratios for _, _, ratios in MEMBERS * 8]
        stacked = numerics.integrate_polar_stack(_stacked(fs), 2, radii, ratios, False)
        for size, members in held + asked:
            assert size <= budget or members == 1
        assert max(size for size, _ in held) > budget      # rules of 64, 128 directions alone
        assert max(members for _, members in held) > 1     # and members in lockstep
        alone = [integrate_polar_separable(f, 2, r, break_ratios=ratios)
                 for f, r, ratios in MEMBERS]
        assert [(r.value.hex(), r.error.hex(), r.evaluations) for r in stacked] == [
            (r.value.hex(), r.error.hex(), r.evaluations) for r in alone * 8]

    @pytest.mark.parametrize("order", ["peaked_first", "kink_first"])
    def test_first_member_to_fail_is_raised(self, order, monkeypatch):
        # the kink fails its depth budget within a few steps; the peaked
        # integrand runs to its level budget later; the stack raises the
        # failure of the first of them in stack order, as a loop would
        monkeypatch.setattr(numerics, "_MAX_DEPTH", 3)
        monkeypatch.setattr(numerics, "_MAX_LEVEL", 8)
        kink = lambda x: np.maximum(0.0, 1.0 - 3.0 * _radius(x))  # noqa: E731
        peaked = lambda x: np.exp(30.0 * x[:, 0])  # noqa: E731
        fs = [peaked, kink] if order == "peaked_first" else [kink, peaked]
        expected = None
        for f in fs:
            try:
                integrate_polar_separable(f, 2, 1.0)
            except NonConvergedError as exc:
                expected = expected or exc
        with pytest.raises(NonConvergedError) as info:
            numerics.integrate_polar_stack(_stacked(fs), 2, _radii([1.0, 1.0]), [()] * 2, False)
        got = info.value
        assert (str(got), got.value, got.error, got.evaluations) == (
            str(expected), expected.value, expected.error, expected.evaluations)
        assert ("angular" if order == "peaked_first" else "radial") in str(got)


WEIGHTS = {"tent": Tent(1.0), "log_cap": LogCap(), "bump": Bump(0.2, 0.8)}


class TestQuadraticDual:
    """The dual integrand of a quadratic stack, weight(|x|) e_j(eig) over the
    ball |x| <= s_max, is e_j(eig) times one radial moment, which the stack
    takes from one interval integral."""

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(n=st.integers(2, 4), j=st.integers(0, 4), weight=st.sampled_from(sorted(WEIGHTS)),
           singular=st.booleans(), size=st.integers(1, 3), seed=st.integers(0, 2 ** 32 - 1))
    def test_agrees_with_the_full_polar_rule(self, n, j, weight, singular, size, seed):
        # the full sphere rule on the same integrand, with the center plain
        # or graded whatever the weight, agrees within its error + 8 ulp
        rng = np.random.default_rng(seed)
        vs = []
        for _ in range(size):
            m = rng.standard_normal((n, n))
            vs.append(Quadratic(m @ m.T + 0.1 * np.eye(n), rng.standard_normal(n)))
        j, zeta = min(j, n), WEIGHTS[weight]
        s_max = zeta.support_bound
        terms = elem_sym_values(np.array([np.linalg.eigvalsh(v.a) for v in vs]), j)

        def f(x, owners):
            s = row_norms(x)
            w = zeta(np.minimum(s, s_max + 1.0))
            w[s >= s_max] = 0.0
            return w * np.repeat(terms[[m for m, _, _ in owners]], [b - a for _, a, b in owners])

        ratios = [[k / s_max for k in zeta.knots() if 0.0 < k < s_max]] * size
        full = numerics.integrate_polar_stack(f, n, s_max, ratios, singular)
        one = valuations._dual_integral(j, zeta, vs)
        for (value, _, _), b in zip(one, full):
            assert abs(value - b.value) <= b.error + 8 * math.ulp(b.value)
        assert 0 < one[0][2] < full[0].evaluations and not any(e for _, _, e in one[1:])

    def test_one_interval_integral_per_stack(self, monkeypatch):
        # forty dual quadratics of R^3 take one interval integral, counted
        # on the first; each member keeps the bits it has alone
        rng = np.random.default_rng(3)
        vs = [Quadratic(np.diag(rng.uniform(0.5, 2.0, 3)), rng.standard_normal(3))
              for _ in range(40)]
        zeta = Bump(0.2, 0.8)
        alone = [valuations._dual_integral(1, zeta, [v])[0] for v in vs]
        calls, interval = [], valuations.integrate_interval

        def recorded(*args, **kw):
            calls.append(interval(*args, **kw))
            return calls[-1]

        monkeypatch.setattr(valuations, "integrate_interval", recorded)
        stacked = valuations._dual_integral(1, zeta, vs)
        assert len(calls) == 1 and calls[0].evaluations == alone[0][2] > 0
        assert [(value, error) for value, error, _ in stacked] == [
            (value, error) for value, error, _ in alone]
        assert [evals for _, _, evals in stacked] == [alone[0][2]] + [0] * 39


class TestBudgetsRaise:
    """Every refinement loop raises once its depth budget is spent, or once
    its sums leave double precision."""

    @pytest.fixture
    def depth(self, monkeypatch):
        def set_depth(d):
            monkeypatch.setattr(numerics, "_MAX_DEPTH", d)
        return set_depth

    def test_polar_singular_center_tail(self, depth):
        # the graded center panel of a log singularity needs more than two bisections
        def f(x):
            return -np.log(np.sqrt((x ** 2).sum(axis=1)))

        depth(2)
        with pytest.raises(NonConvergedError, match="radial refinement") as info:
            integrate_polar_separable(f, 2, 1.0, singular_center=True)
        assert info.value.evaluations > 0

    def test_polar_radial_heap(self, depth):
        # kink at radius 1/3, never on a bisection edge, and no break ratio
        def f(x):
            return np.maximum(0.0, 1.0 - 3.0 * np.sqrt((x ** 2).sum(axis=1)))

        depth(2)
        with pytest.raises(NonConvergedError, match="radial refinement"):
            integrate_polar_separable(f, 2, 1.0)

    def test_interval_singular_left(self, depth):
        depth(3)
        with pytest.raises(NonConvergedError, match="interval quadrature") as info:
            integrate_interval(lambda t: -np.log(t), 0.0, 1.0, singular_left=True)
        assert math.isfinite(info.value.value)

    @pytest.mark.parametrize("value", [math.inf, math.nan])
    def test_polar_non_finite_total(self, value):
        # a pass whose sums leave double precision stops at its first step,
        # the 15 nodes of one panel on the 8 directions of level 2
        with pytest.raises(NonConvergedError, match="radial refinement left") as info:
            integrate_polar_separable(lambda x: np.full(len(x), value), 2, 1.0)
        assert info.value.evaluations == 15 * 8

    def test_polar_angular_cap(self, monkeypatch):
        # peaked toward direction (1, 0): 8 and 16 directions disagree
        def f(x):
            return np.exp(30.0 * x[:, 0])

        monkeypatch.setattr(numerics, "_LEVEL", 4)
        monkeypatch.setattr(numerics, "_MAX_LEVEL", 4)
        with pytest.raises(NonConvergedError, match="angular refinement") as info:
            integrate_polar_separable(f, 2, 1.0)
        assert math.isfinite(info.value.value) and info.value.evaluations > 0


class TestGradedEndpoint:
    def test_log_moment_error_bar(self):
        # int_0^1 -ln(r^3) 5 r^4 dr = 3/5, and the reported error covers the miss
        r = integrate_interval(lambda t: -np.log(t ** 3) * 5.0 * t ** 4, 0.0, 1.0,
                               singular_left=True)
        assert abs(r.value - 0.6) <= r.error + 8 * math.ulp(0.6)

    def test_polar_log_center(self):
        # int over the unit disk of -ln|x| = pi/2
        def f(x):
            return -np.log(np.sqrt((x ** 2).sum(axis=1)))

        r = integrate_polar_separable(f, 2, 1.0, singular_center=True)
        assert abs(r.value - math.pi / 2) <= r.error + 8 * math.ulp(math.pi / 2)


class TestRng:
    def test_reproducible(self):
        a = Rng(7).stream(3).generator().standard_normal(8)
        b = Rng(7).stream(3).generator().standard_normal(8)
        assert np.array_equal(a, b)

    def test_streams_disjoint(self):
        a = Rng(7).stream(1).generator().standard_normal(8)
        b = Rng(7).stream(2).generator().standard_normal(8)
        assert not np.array_equal(a, b)

    def test_nested_streams(self):
        a = Rng(7).stream(1).stream(4).generator().standard_normal(4)
        b = Rng(7).stream(1).stream(4).generator().standard_normal(4)
        c = Rng(7).stream(4).stream(1).generator().standard_normal(4)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)

    @pytest.mark.parametrize("seed", [-1, 1 << 128], ids=["negative", "2**128"])
    def test_seed_out_of_range(self, seed):
        with pytest.raises(SchemaError):
            Rng(seed)

    def test_largest_seed(self):
        assert Rng((1 << 128) - 1).stream(2).generator().standard_normal(1).shape == (1,)

    @pytest.mark.parametrize("shape", [(n, k) for n in range(2, 7) for k in range(1, n + 1)],
                             ids=str)
    def test_standard_normals_match_per_stream_generators(self, shape):
        # one re-keyed bit generator reproduces every stream's own generator,
        # also past counter 2**64 and with seeds and depths mixed in one stack
        bases = [Rng(0), Rng(7), Rng((1 << 128) - 1), Rng(7, counter=2 ** 70),
                 Rng(7).stream(3).stream(65534).stream(0)]
        streams = [s for b in bases for s in (b, b.stream(0), b.stream(1), b.stream(65534))]
        expected = np.stack([s.generator().standard_normal(shape) for s in streams])
        assert np.array_equal(standard_normals(streams, shape), expected)

    def test_standard_normals_counter_beyond_philox(self):
        # Philox counters are 256 bits; the stream's counter sits above bit 64
        s = Rng(7, counter=1 << 192)
        with pytest.raises(ValueError):
            s.generator()
        with pytest.raises(ValueError):
            standard_normals([s], (2, 1))
