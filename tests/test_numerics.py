import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from funvol import numerics
from funvol.convex import Quadratic
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
from funvol.weights import Bump, Tent


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

    @pytest.mark.parametrize("a,b", [(0.0, math.inf), (-math.inf, 0.0), (0.0, math.nan)])
    def test_rejects_non_finite_bound(self, a, b):
        with pytest.raises(ValueError, match="finite bounds"):
            integrate_interval(lambda t: t, a, b)


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


class TestPolarWork:
    def test_radial_tent_costs_one_level_and_its_check(self):
        # whitened, the tent integrand of a quadratic is radial: one 15-point
        # panel on the 128 directions of level 2, checked by its 7 Gauss
        # nodes on the 1,024 directions of level 4
        spec = ValuationSpec(1, 4, Tent(1.0))
        res = eval_smooth(spec, Quadratic(np.diag([1.0, 2.0, 3.0, 4.0])))
        assert res.integrand_evals == 128 * 15 + 1024 * 7

    def test_counts_repeat(self):
        spec = ValuationSpec(1, 3, Bump(0.2, 0.8))
        u = Quadratic(np.diag([1.0, 0.5, 0.25]))
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
        # every refinement evaluates its starting leaves in one batch, and the
        # two halves of each split in one more, and a check its leaves in
        # one; a batch takes more than one call only where its points exceed
        # the _MAX_BATCH budget
        sizes = self._call_sizes(monkeypatch)
        batches = []  # the number of calls before each refinement step
        refine, heappop = numerics._refine, numerics.heapq.heappop

        def counted_refine(*args):
            batches.append(len(sizes))
            return refine(*args)

        def counted_heappop(heap):
            batches.append(len(sizes))
            return heappop(heap)

        monkeypatch.setattr(numerics, "_refine", counted_refine)
        monkeypatch.setattr(numerics.heapq, "heappop", counted_heappop)
        res = eval_smooth(ValuationSpec(1, 3, Bump(0.2, 0.8)),
                          Quadratic(np.diag([1.0, 0.5, 0.25])))
        # level 2, its nine splits, and the check of its 11 panels at level 4,
        # 11 x 128 x 7 = 9,856 points in one call
        assert len(batches) == 11 and len(sizes) == 11 and sizes[-1] == 9856
        budget = numerics._MAX_BATCH // 15 * 15  # and // 7 * 7
        for first, last in zip(batches, batches[1:] + [len(sizes)]):
            assert last - first == math.ceil(sum(sizes[first:last]) / budget)
        assert sum(sizes) == res.integrand_evals
        # the value, error and count of the per-panel evaluation, bit for bit
        assert (res.value.hex(), res.error.hex(), res.integrand_evals) == (
            "0x1.0d4c4618dfecdp+3", "0x1.fd973fe636000p-31", 19456)

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
                  Quadratic(np.diag([1.0, 2.0, 3.0, 4.0])), "integral")
        assert layouts and all(shape[1] == 4 and stride == 8 and view
                               for shape, stride, view in layouts)

    def test_batches_stay_bounded(self, monkeypatch):
        # the n = 4 Bump dual integral checks its 10 radial panels at level 4,
        # one batch of 71,680 points (1,024 directions x 7 nodes a panel);
        # its calls of at most _MAX_BATCH points bound the memory it holds,
        # and are filled across panel boundaries
        sizes = self._call_sizes(monkeypatch)
        res = eval_dual(ValuationSpec(1, 4, Bump(0.2, 0.8)),
                        Quadratic(np.diag([1.0, 2.0, 3.0, 4.0])), "integral")
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


class TestPolarStack:
    """A stack integrates each member as ``integrate_polar_separable`` alone."""

    @pytest.mark.parametrize("singular", [False, True])
    def test_members_equal_alone(self, singular):
        fs = [f for f, _, _ in MEMBERS]
        stacked = numerics.integrate_polar_stack(
            _stacked(fs), 2, _radii([r for _, r, _ in MEMBERS]),
            [ratios for _, _, ratios in MEMBERS], singular)
        alone = [integrate_polar_separable(f, 2, r, break_ratios=ratios,
                                           singular_center=singular)
                 for f, r, ratios in MEMBERS]
        assert len({res.evaluations for res in alone}) == len(MEMBERS)
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


class TestBudgetsRaise:
    """Every refinement loop raises once its depth budget is spent."""

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
