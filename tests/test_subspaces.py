import math

import numpy as np
import pytest
from scipy import stats

from funvol.convex import (
    Ball,
    Box,
    Cone,
    EpiScaled,
    EpiTranslated,
    Indicator,
    PointwiseSum,
    Quadratic,
    RadialPower,
    Rotated,
)
from funvol.numerics import Rng
from funvol.subspaces import (
    NumericProjection,
    Subspace,
    check_conjugate_projection,
    check_projection_subgradient,
    project_function,
    restrict_function,
    sample_grassmann,
    sample_rotation,
)


def span(vec):
    v = np.asarray(vec, dtype=float)
    return Subspace((v / np.linalg.norm(v))[:, None])


class TestSampling:
    def test_frame_orthonormal(self):
        for i in range(20):
            e = sample_grassmann(4, 2, Rng(0).stream(i))
            assert np.abs(e.frame.T @ e.frame - np.eye(2)).max() <= 1e-12
            assert np.abs(e.frame.T @ e.complement).max() <= 1e-12

    @pytest.mark.parametrize("n,k", [(2, 1), (3, 1), (3, 2), (4, 2), (6, 3), (3, 3)])
    def test_frame_and_complement_orthogonal(self, n, k):
        for i in range(10):
            e = sample_grassmann(n, k, Rng(3).stream(i))
            q = np.concatenate([e.frame, e.complement], axis=1)
            assert q.shape == (n, n)
            assert np.abs(q.T @ q - np.eye(n)).max() <= 1e-14

    def test_built_complement(self):
        # a frame without a complement gets one from a complete QR
        e = Subspace(sample_rotation(4, Rng(5))[:, :2])
        q = np.concatenate([e.frame, e.complement], axis=1)
        assert np.abs(q.T @ q - np.eye(4)).max() <= 1e-14

    def test_full_dimension(self):
        e = sample_grassmann(3, 3, Rng(1))
        q = e.frame
        assert np.abs(q.T @ q - np.eye(3)).max() <= 1e-12

    def test_rotation_determinant(self):
        for i in range(20):
            q = sample_rotation(3, Rng(2).stream(i))
            assert np.linalg.det(q) == pytest.approx(1.0, abs=1e-10)

    def test_line_angle_uniform(self):
        # Haar on lines in the plane: the angle mod pi is uniform (KS at 1%)
        angles = []
        for i in range(10_000):
            e = sample_grassmann(2, 1, Rng(7).stream(i))
            v = e.frame[:, 0]
            angles.append(math.atan2(v[1], v[0]) % math.pi)
        stat = stats.kstest(np.array(angles) / math.pi, "uniform").statistic
        assert stat < 1.63 / math.sqrt(10_000)  # 1% critical value

    def test_haar_invariance_under_prerotation(self):
        # distribution of <first frame column, fixed vector> unchanged by a rotation
        fixed = np.array([1.0, 0.0, 0.0])
        theta = sample_rotation(3, Rng(123))
        a, b = [], []
        for i in range(10_000):
            e = sample_grassmann(3, 1, Rng(11).stream(i))
            a.append(float(e.frame[:, 0] @ fixed))
            b.append(float((theta @ e.frame[:, 0]) @ fixed))
        stat = stats.ks_2samp(a, b).statistic
        assert stat < 1.63 * math.sqrt(2.0 / 10_000)


class TestProjection:
    def test_quadratic_schur(self):
        u = Quadratic(np.diag([1.0, 4.0]))
        e = span([1.0, 1.0])
        w = project_function(u, e).realized
        assert isinstance(w, Quadratic)
        # Schur complement: 2.5 - 1.5^2/2.5 = 1.6, so w(s) = 0.8 s^2
        assert w([1.0]) == pytest.approx(0.8)

    def test_cone_radial_symmetry(self):
        u = Cone(3, 0.5, 1.0)
        e = sample_grassmann(3, 2, Rng(4))
        w = project_function(u, e).realized
        assert isinstance(w, Cone) and w.n == 2 and w.t == 0.5 and w.r == 1.0

    def test_ball_indicator(self):
        u = Indicator(Ball(2.0, [0.0, 0.0, 0.0]))
        e = sample_grassmann(3, 2, Rng(5))
        w = project_function(u, e).realized
        assert isinstance(w, Indicator)
        assert isinstance(w.body, Ball) and w.body.radius == 2.0

    def test_epi_translate_rule(self):
        base = Quadratic(np.eye(2))
        u = EpiTranslated(base, [1.0, 0.0], 3.0)
        e = span([1.0, 0.0])
        w = project_function(u, e).realized
        assert w([1.0]) == pytest.approx(3.0)
        assert w([2.0]) == pytest.approx(3.5)

    def test_grid_minimization_oracle(self):
        # realized projections must match brute-force fiber minimization
        rng = Rng(21)
        cases = [
            Quadratic(np.array([[2.0, 0.4, 0.1], [0.4, 1.0, 0.0], [0.1, 0.0, 3.0]]),
                      [0.1, -0.2, 0.3]),
            RadialPower(3, 4.0, 1.5),
            Cone(3, 0.7, 1.2),
            Indicator(Ball(1.0, [0.0, 0.0, 0.0])),
            EpiTranslated(Quadratic(np.eye(3)), [0.5, -0.5, 0.2], 1.0),
            Rotated(Quadratic(np.diag([1.0, 2.0, 4.0])), sample_rotation(3, Rng(77))),
            EpiScaled(EpiTranslated(RadialPower(3, 4.0), [0.2, 0.0, 0.0]), 2.0),
        ]
        for idx, u in enumerate(cases):
            e = sample_grassmann(3, 1, rng.stream(idx))
            w = project_function(u, e).realized
            ts = np.linspace(-0.8, 0.8, 5)
            for t in ts:
                base = e.frame[:, 0] * t
                grid = np.linspace(-4.0, 4.0, 241)
                fibers = (base[None, None, :]
                          + grid[:, None, None] * e.complement[:, 0][None, None, :]
                          + grid[None, :, None] * e.complement[:, 1][None, None, :])
                vals = u(fibers.reshape(-1, 3))
                brute = vals.min()
                got = float(w(np.array([t])))
                if not np.isfinite(brute):
                    assert not np.isfinite(got)
                else:
                    assert got == pytest.approx(brute, abs=2e-3), (idx, t)
                    assert got <= brute + 1e-10

    def test_numeric_fallback_matches_closed_form(self):
        u = Quadratic(np.array([[2.0, 0.4], [0.4, 1.0]]), [0.1, -0.2])
        e = span([2.0, 1.0])
        closed = project_function(u, e).realized
        numeric = NumericProjection(u, e)
        pts = np.linspace(-1.0, 1.0, 7)[:, None]
        assert np.allclose(numeric(pts), closed(pts), atol=1e-8)

    def test_rejects_finite_valued(self):
        from funvol.errors import UnsupportedVariant
        with pytest.raises(UnsupportedVariant):
            project_function(Quadratic(np.eye(2)).conjugate() if False else
                             __import__("funvol.convex", fromlist=["SupportFn"]).SupportFn(
                                 Ball(1.0, [0.0, 0.0])), span([1.0, 0.0]))


class TestProjectionProperties:
    def test_lattice_commutes_for_indicator_pairs(self):
        # boxes sharing a facet: union convex; projections of max/min agree
        k1 = Box([(0.0, 1.0), (0.0, 1.0)])
        k2 = Box([(1.0, 2.0), (0.0, 1.0)])
        union = Box([(0.0, 2.0), (0.0, 1.0)])
        inter = Box([(1.0, 1.0), (0.0, 1.0)])
        e = sample_grassmann(2, 1, Rng(31))
        grid = np.linspace(-3.0, 3.0, 101)[:, None]

        def proj_vals(body):
            return np.asarray(project_function(Indicator(body), e).realized(grid))

        v1, v2 = proj_vals(k1), proj_vals(k2)
        vu, vi = proj_vals(union), proj_vals(inter)
        assert np.array_equal(np.maximum(v1, v2), vi)
        assert np.array_equal(np.minimum(v1, v2), vu)

    def test_epi_scale_equivariance(self):
        u = EpiTranslated(RadialPower(3, 4.0), [0.1, 0.2, -0.1])
        e = sample_grassmann(3, 2, Rng(41))
        lam = 2.0
        lhs = project_function(EpiScaled(u, lam), e).realized
        rhs = EpiScaled(project_function(u, e).realized, lam)
        pts = Rng(42).generator().uniform(-1.0, 1.0, size=(30, 2))
        assert np.allclose(lhs(pts), rhs(pts), atol=1e-10)

    def test_frame_independence(self):
        u = Quadratic(np.diag([1.0, 2.0, 4.0]), [0.1, 0.0, -0.3])
        e = sample_grassmann(3, 2, Rng(51))
        # the same subspace under a fresh orthonormal frame
        q, r = np.linalg.qr(Rng(52).generator().standard_normal((2, 2)))
        e2 = Subspace(e.frame @ (q * np.sign(np.diag(r))), e.complement)
        w1 = project_function(u, e).realized
        w2 = project_function(u, e2).realized
        # same subspace, different coordinates: minima over matching fibers agree
        pts = Rng(53).generator().uniform(-1.0, 1.0, size=(20, 2))
        ambient = pts @ e.frame.T
        pts2 = ambient @ e2.frame
        assert np.allclose(w1(pts), w2(pts2), atol=1e-10)


class TestRestriction:
    def test_quadratic(self):
        v = Quadratic(np.eye(3))
        e = sample_grassmann(3, 2, Rng(61))
        w = restrict_function(v, e)
        pts = np.array([[0.3, -0.4]])
        assert w(pts)[0] == pytest.approx(0.5 * 0.25)

    def test_support_fn_ball(self):
        v = __import__("funvol.convex", fromlist=["SupportFn"]).SupportFn(Ball(1.0, [0.0, 0.0, 0.0]))
        e = sample_grassmann(3, 2, Rng(62))
        w = restrict_function(v, e)
        pts = np.array([[3.0, 4.0]])
        assert w(pts)[0] == pytest.approx(5.0)

    def test_radial_hinge(self):
        from funvol.convex import RadialHinge
        v = RadialHinge(3, 0.5, 1.0)
        e = sample_grassmann(3, 1, Rng(63))
        w = restrict_function(v, e)
        assert w(np.array([[2.0]]))[0] == pytest.approx(1.5)


class TestConjugateProjection:
    def test_quadratic(self):
        u = Quadratic(np.array([[2.0, 0.3, 0.0], [0.3, 1.0, 0.2], [0.0, 0.2, 1.5]]))
        e = sample_grassmann(3, 2, Rng(71))
        grid = Rng(72).generator().uniform(-1.0, 1.0, size=(20, 2))
        assert check_conjugate_projection(u, e, grid) <= 1e-9

    def test_ball_indicator_exact(self):
        u = Indicator(Ball(1.0, [0.0, 0.0]))
        e = sample_grassmann(2, 1, Rng(73))
        grid = np.linspace(-2.0, 2.0, 21)[:, None]
        assert check_conjugate_projection(u, e, grid) == pytest.approx(0.0, abs=1e-12)

    def test_cone(self):
        u = Cone(3, 0.5, 1.0)
        e = sample_grassmann(3, 2, Rng(74))
        grid = Rng(75).generator().uniform(-2.0, 2.0, size=(20, 2))
        assert check_conjugate_projection(u, e, grid) <= 1e-10


class TestProjectionSubgradient:
    def test_quadratic(self):
        u = Quadratic(np.array([[2.0, 0.4], [0.4, 1.0]]), [0.3, -0.1])
        e = span([1.0, 2.0])
        verdict = check_projection_subgradient(u, e, [0.4], Rng(81))
        assert verdict.ok and verdict.max_violation <= 1e-12

    def test_radial(self):
        u = RadialPower(3, 4.0)
        e = sample_grassmann(3, 1, Rng(82))
        verdict = check_projection_subgradient(u, e, [0.7], Rng(83))
        assert verdict.ok
        assert np.allclose(verdict.minimizer, e.frame[:, 0] * 0.7)

    def test_box_indicator_interior(self):
        u = Indicator(Box([(-1.0, 1.0), (-1.0, 1.0)]))
        e = span([1.0, 0.0])
        verdict = check_projection_subgradient(u, e, [0.2], Rng(84))
        assert verdict.ok
        assert np.allclose(verdict.lifted_gradient, 0.0)


class TestNumericProjectionFallback:
    def test_pointwise_sum_falls_back(self):
        from funvol.convex import PointwiseSum, RadialPower
        u = PointwiseSum(RadialPower(2, 4.0), Indicator(Box([(-1.0, 1.0)] * 2)))
        e = span([1.0, 0.0])
        proj = project_function(u, e)
        assert isinstance(proj.realized, NumericProjection)
        # fiber minimum over x2 of |x|^4/4 on the box is attained at x2 = 0
        got = float(proj.realized(np.array([0.5])))
        assert got == pytest.approx(0.5 ** 4 / 4.0, abs=1e-8)

    def test_minimizer_not_found_reported(self):
        from funvol.errors import MinimizerNotFound
        u = Quadratic(np.array([[2.0, 0.9], [0.9, 1.0]]), [0.4, -0.7])
        e = span([1.0, 0.0])
        strict = NumericProjection(u, e, tol=1e-14, max_sweeps=1)
        with pytest.raises(MinimizerNotFound):
            strict(np.array([[0.3]]))
