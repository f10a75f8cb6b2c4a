import itertools
import math

import numpy as np
import pytest
from scipy import stats

from funvol.convex import (
    Ball,
    Box,
    Cone,
    ConvexFunction,
    EpiTranslated,
    Indicator,
    InfConv,
    MaxAffine,
    PlusAffine,
    PointwiseSum,
    Quadratic,
    QuadraticStack,
    RadialHinge,
    RadialPower,
    Rotated,
    SupportFn,
    epi_scale,
    pointwise_scale,
    project_body,
)
from funvol.numerics import Rng
from funvol.errors import UnsupportedVariant
from funvol.subspaces import (
    Subspace,
    _check_orthonormal,
    _haar_frames,
    check_conjugate_projection,
    cubature_covers,
    cubature_levels,
    grassmann_cubature,
    project_function,
    project_quadratics,
    realize_stack,
    restrict_function,
    restrict_quadratics,
    sample_grassmann,
    sample_rotation,
    whole_space,
)


def span(vec):
    v = np.asarray(vec, dtype=float)
    return Subspace((v / np.linalg.norm(v))[:, None])


class TestSampling:
    def test_frame_orthonormal(self):
        for e in sample_grassmann(4, 2, [Rng(0).stream(i) for i in range(20)]):
            assert np.abs(e.frame.T @ e.frame - np.eye(2)).max() <= 1e-12
            assert np.abs(e.frame.T @ e.complement).max() <= 1e-12

    @pytest.mark.parametrize("n,k", [(2, 1), (3, 1), (3, 2), (4, 2), (6, 3), (3, 3)])
    def test_frame_and_complement_orthogonal(self, n, k):
        for e in sample_grassmann(n, k, [Rng(3).stream(i) for i in range(10)]):
            q = np.concatenate([e.frame, e.complement], axis=1)
            assert q.shape == (n, n)
            assert np.abs(q.T @ q - np.eye(n)).max() <= 1e-14

    def test_built_complement(self):
        # a frame without a complement gets one from a complete QR
        e = Subspace(sample_rotation(4, Rng(5))[:, :2])
        q = np.concatenate([e.frame, e.complement], axis=1)
        assert np.abs(q.T @ q - np.eye(4)).max() <= 1e-14

    def test_full_dimension(self):
        e = sample_grassmann(3, 3, [Rng(1)])[0]
        q = e.frame
        assert np.abs(q.T @ q - np.eye(3)).max() <= 1e-12

    def test_rotation_determinant(self):
        for i in range(20):
            q = sample_rotation(3, Rng(2).stream(i))
            assert np.linalg.det(q) == pytest.approx(1.0, abs=1e-10)

    def test_line_angle_uniform(self):
        # Haar on lines in the plane: the angle mod pi is uniform (KS at 1%)
        angles = []
        for e in sample_grassmann(2, 1, [Rng(7).stream(i) for i in range(10_000)]):
            v = e.frame[:, 0]
            angles.append(math.atan2(v[1], v[0]) % math.pi)
        stat = stats.kstest(np.array(angles) / math.pi, "uniform").statistic
        assert stat < 1.63 / math.sqrt(10_000)  # 1% critical value

    def test_haar_invariance_under_prerotation(self):
        # distribution of <first frame column, fixed vector> unchanged by a rotation
        fixed = np.array([1.0, 0.0, 0.0])
        theta = sample_rotation(3, Rng(123))
        a, b = [], []
        for e in sample_grassmann(3, 1, [Rng(11).stream(i) for i in range(10_000)]):
            a.append(float(e.frame[:, 0] @ fixed))
            b.append(float((theta @ e.frame[:, 0]) @ fixed))
        stat = stats.ks_2samp(a, b).statistic
        assert stat < 1.63 * math.sqrt(2.0 / 10_000)


class TestBatchedDraw:
    """The stacked draw reproduces the per-sample sign-fixed QR bit for bit."""

    @pytest.mark.parametrize("n,k", [(n, k) for n in range(1, 7) for k in range(1, n + 1)])
    def test_planes_match_per_sample_qr(self, n, k):
        streams = [Rng(9).stream(i) for i in range(40)] + [Rng(7, counter=2 ** 70).stream(5)]
        planes = sample_grassmann(n, k, streams)
        assert len(planes) == len(streams)
        for s, e in zip(streams, planes):
            q, r = np.linalg.qr(s.generator().standard_normal((n, k)), mode="complete")
            q[:, :k] *= np.sign(np.diag(r))
            assert np.array_equal(e.frame, q[:, :k])
            assert np.array_equal(e.complement, q[:, k:])

    @pytest.mark.parametrize("n", range(1, 7))
    def test_rotation_matches_per_sample_qr(self, n):
        for i in range(20):
            s = Rng(2).stream(i)
            q, r = np.linalg.qr(s.generator().standard_normal((n, n)))
            q = q * np.sign(np.diag(r))
            if np.linalg.det(q) < 0:
                q[:, -1] = -q[:, -1]
            assert np.array_equal(sample_rotation(n, s), q)

    def test_planes_are_views_of_one_stack(self):
        planes = sample_grassmann(4, 2, [Rng(0).stream(i) for i in range(3)])
        assert planes[0].frame.base is planes[2].complement.base is not None

    def test_batch_check_rejects_a_bad_frame(self):
        q = _haar_frames(3, 2, [Rng(0).stream(i) for i in range(5)])
        _check_orthonormal(q[:, :, :2], q[:, :, 2:])
        stretched, nan, overlap = q.copy(), q.copy(), q.copy()
        stretched[3, :, 0] *= 1.0 + 1e-9
        nan[1, 0, 1] = np.nan
        overlap[4, :, 2] = overlap[4, :, 0]
        for bad, why in ((stretched, "not orthonormal"), (nan, "not orthonormal"),
                         (overlap, "not orthogonal")):
            with pytest.raises(ValueError, match=why):
                _check_orthonormal(bad[:, :, :2], bad[:, :, 2:])


CUBATURE_NK = [(2, 1), (3, 1), (3, 2), (4, 1), (4, 3)]
# the Grassmannians the average takes without sampling: the cubature's lines
# and hyperplanes, and the whole space
DETERMINISTIC_NK = [(2, 1), (2, 2), (3, 1), (3, 2), (3, 3), (4, 1), (4, 3), (4, 4)]


def _deterministic_planes(n, k, level):
    """The planes and weights the Grassmannian average takes on G(n, k) at a
    level: the cubature rule, or R^n itself as one plane of weight 1."""
    return (whole_space(n), np.ones(1)) if k == n else grassmann_cubature(n, k, [level])[0]


class TestGrassmannCubature:
    """Lines and hyperplanes from the directions of a sphere rule, and the
    whole space as one plane."""

    @pytest.mark.parametrize("level", [1, 2, 3, 4])
    @pytest.mark.parametrize("n,k", DETERMINISTIC_NK)
    def test_weights_and_second_moment(self, n, k, level):
        # E |P_E x|^2 = k / n for every unit x under the Haar measure on G(n, k)
        planes, weights = _deterministic_planes(n, k, level)
        assert len(planes) == len(weights)
        assert abs(weights.sum() - 1.0) <= 1e-14
        assert np.all(weights > 0)
        frames = np.stack([e.frame for e in planes])
        for x in (np.eye(n)[0], np.full(n, 1.0 / math.sqrt(n)),
                  np.arange(1.0, n + 1.0) / np.linalg.norm(np.arange(1.0, n + 1.0))):
            shadow = np.sum((x @ frames) ** 2, axis=1)
            assert abs(weights @ shadow - k / n) <= 1e-14

    @pytest.mark.parametrize("n,k", DETERMINISTIC_NK)
    def test_planes_are_checked_frames(self, n, k):
        planes, _ = _deterministic_planes(n, k, 2)
        for e in planes:
            assert (e.n, e.k) == (n, k)
            q = np.concatenate([e.frame, e.complement], axis=1)
            assert np.abs(q.T @ q - np.eye(n)).max() <= 1e-14

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_lines_and_normals_follow_the_sphere_rule(self, n):
        # one plane per antipodal pair: the first half of the rule's directions;
        # on G(2, 1) the lines are the directions, not their normals
        from funvol.numerics import sphere_rule
        dirs, wts = sphere_rule(n, 2)
        half = len(wts) // 2
        lines, weights = grassmann_cubature(n, 1, [2])[0]
        normals, _ = grassmann_cubature(n, n - 1, [2])[0]
        assert len(lines) == len(normals) == half
        assert np.array_equal(weights, wts[:half] / wts[:half].sum())
        for d, line, normal in zip(dirs, lines, normals):
            assert np.abs(line.frame[:, 0] - d).max() <= 1e-15
            if n > 2:
                assert np.abs(normal.frame.T @ d).max() <= 1e-15
                assert np.abs(np.abs(normal.complement[:, 0] @ d) - 1.0) <= 1e-15

    @pytest.mark.parametrize("n,k", [(4, 2), (5, 1), (5, 4), (6, 3), (3, 0), (1, 1),
                                     (2, 2), (3, 3), (4, 4)])
    def test_unsupported(self, n, k):
        assert not cubature_covers(n, k)
        with pytest.raises(UnsupportedVariant, match="cubature"):
            grassmann_cubature(n, k, [1])[0]

    def test_covers(self):
        assert {nk for nk in itertools.product(range(1, 7), repeat=2)
                if cubature_covers(*nk)} == set(CUBATURE_NK)

    @pytest.mark.parametrize("n,sizes", [(2, (2, 4, 8, 16)),
                                         (3, (4, 16, 64, 256)), (4, (8, 64, 512))])
    def test_levels_within_budget(self, n, sizes):
        # levels 1 and 2 always; each further level while the planes fit
        assert [len(grassmann_cubature(n, 1, [2 ** i])[0][0]) for i in range(len(sizes))] \
            == list(sizes)
        two = sizes[0] + sizes[1]
        for budget in (1, two, two + sizes[2] - 1):
            assert cubature_levels(n, budget) == [1, 2]
        assert cubature_levels(n, two + sizes[2]) == [1, 2, 4]


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
        e = sample_grassmann(3, 2, [Rng(4)])[0]
        w = project_function(u, e).realized
        assert isinstance(w, Cone) and w.n == 2 and w.t == 0.5 and w.r == 1.0

    def test_ball_indicator(self):
        u = Indicator(Ball(2.0, [0.0, 0.0, 0.0]))
        e = sample_grassmann(3, 2, [Rng(5)])[0]
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
            epi_scale(EpiTranslated(RadialPower(3, 4.0), [0.2, 0.0, 0.0]), 2.0),
        ]
        planes = sample_grassmann(3, 1, [rng.stream(idx) for idx in range(len(cases))])
        for idx, (u, e) in enumerate(zip(cases, planes)):
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

    def test_pointwise_sum_unrealized(self):
        # a sum has no closed-form projection, and nothing approximates one
        u = PointwiseSum(RadialPower(2, 4.0), Indicator(Box([(-1.0, 1.0)] * 2)))
        with pytest.raises(UnsupportedVariant, match="projection of PointwiseSum"):
            project_function(u, span([1.0, 0.0]))

    def test_rejects_finite_valued(self):
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
        e = sample_grassmann(2, 1, [Rng(31)])[0]
        grid = np.linspace(-3.0, 3.0, 101)[:, None]

        def proj_vals(body):
            return np.asarray(project_function(Indicator(body), e).realized(grid))

        v1, v2 = proj_vals(k1), proj_vals(k2)
        vu, vi = proj_vals(union), proj_vals(inter)
        assert np.array_equal(np.maximum(v1, v2), vi)
        assert np.array_equal(np.minimum(v1, v2), vu)

    def test_epi_scale_equivariance(self):
        u = EpiTranslated(RadialPower(3, 4.0), [0.1, 0.2, -0.1])
        e = sample_grassmann(3, 2, [Rng(41)])[0]
        lam = 2.0
        lhs = project_function(epi_scale(u, lam), e).realized
        rhs = epi_scale(project_function(u, e).realized, lam)
        pts = Rng(42).generator().uniform(-1.0, 1.0, size=(30, 2))
        assert np.allclose(lhs(pts), rhs(pts), atol=1e-10)

    def test_frame_independence(self):
        u = Quadratic(np.diag([1.0, 2.0, 4.0]), [0.1, 0.0, -0.3])
        e = sample_grassmann(3, 2, [Rng(51)])[0]
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
        e = sample_grassmann(3, 2, [Rng(61)])[0]
        w = restrict_function(v, e)
        pts = np.array([[0.3, -0.4]])
        assert w(pts)[0] == pytest.approx(0.5 * 0.25)

    def test_support_fn_ball(self):
        v = __import__("funvol.convex", fromlist=["SupportFn"]).SupportFn(Ball(1.0, [0.0, 0.0, 0.0]))
        e = sample_grassmann(3, 2, [Rng(62)])[0]
        w = restrict_function(v, e)
        pts = np.array([[3.0, 4.0]])
        assert w(pts)[0] == pytest.approx(5.0)

    def test_radial_hinge(self):
        from funvol.convex import RadialHinge
        v = RadialHinge(3, 0.5, 1.0)
        e = sample_grassmann(3, 1, [Rng(63)])[0]
        w = restrict_function(v, e)
        assert w(np.array([[2.0]]))[0] == pytest.approx(1.5)


def _schur_reference(u, f, g):
    """The projection of a quadratic onto one plane as it was realized plane
    by plane: the Schur complement A/A_GG, with b and c alike."""
    if g.shape[1] == 0:
        return _restriction_reference(u, f)
    a_ff = f.T @ u.a @ f
    a_fg = f.T @ u.a @ g
    a_gg = g.T @ u.a @ g
    b_f = f.T @ u.b
    b_g = g.T @ u.b
    sol = np.linalg.solve(a_gg, np.concatenate([a_fg.T, b_g[:, None]], axis=1))
    x_part, w_part = sol[:, :-1], sol[:, -1]
    a_bar = a_ff - a_fg @ x_part
    a_bar = 0.5 * (a_bar + a_bar.T)
    b_bar = b_f - a_fg @ w_part
    c_bar = u.c - 0.5 * float(b_g @ w_part)
    return Quadratic(a_bar, b_bar, c_bar)


def _restriction_reference(v, f):
    return Quadratic(f.T @ v.a @ f, f.T @ v.b, v.c)


def _bits(x):
    return np.asarray(x, dtype=float).tobytes()


def _turned(n, seed):
    """A non-diagonal positive definite A (not exactly symmetric), with
    nonzero b and c."""
    q = sample_rotation(n, Rng(seed))
    a = q @ np.diag(np.linspace(0.5, 4.0, n)) @ q.T
    return Quadratic(a, np.linspace(-0.3, 0.4, n), 0.7)


def _stacks():
    """(label, quadratic, planes): cubature levels of G(3, 1) and G(3, 2),
    Monte Carlo draws of G(4, 2), G(5, 3) and G(6, 2), and the whole space."""
    diag3 = Quadratic(np.diag([1.0, 2.0, 3.0]), [0.1, -0.2, 0.3], -0.4)
    for k in (1, 2):
        for level, (planes, _) in zip((1, 2, 4), grassmann_cubature(3, k, [1, 2, 4])):
            yield f"G(3,{k}) level {level}", diag3, planes
            yield f"G(3,{k}) level {level} turned", _turned(3, 11), planes
    for n, k in ((4, 2), (5, 3), (6, 2)):
        planes = sample_grassmann(n, k, [Rng(n + k).stream(i) for i in range(24)])
        yield f"G({n},{k})", _turned(n, n), planes
    yield "whole space", _turned(3, 4), whole_space(3)


class TestQuadraticStacks:
    """The projections and restrictions of a quadratic onto a plane stack,
    realized in one batched pass, equal the plane-by-plane construction bit
    for bit: A, b, c and the eigenvalues."""

    @staticmethod
    def _same(stack, i, ref):
        assert isinstance(stack, QuadraticStack)
        assert (_bits(stack.a[i]), _bits(stack.b[i]), _bits(stack.c[i]), _bits(stack.eig[i])) \
            == (_bits(ref.a), _bits(ref.b), _bits(ref.c), _bits(ref.eig))

    @pytest.mark.parametrize("label,u,planes", list(_stacks()),
                             ids=[label for label, _, _ in _stacks()])
    def test_projections(self, label, u, planes):
        stack = project_quadratics(u, planes.frames, planes.complements)
        assert len(stack) == len(planes)
        for i, e in enumerate(planes):
            self._same(stack, i, _schur_reference(u, e.frame, e.complement))

    @pytest.mark.parametrize("label,v,planes", list(_stacks()),
                             ids=[label for label, _, _ in _stacks()])
    def test_restrictions(self, label, v, planes):
        stack = restrict_quadratics(v, planes.frames)
        assert len(stack) == len(planes)
        for i, e in enumerate(planes):
            self._same(stack, i, _restriction_reference(v, e.frame))

    def test_single_planes_are_stacks_of_one(self):
        u = _turned(4, 8)
        for e in sample_grassmann(4, 2, [Rng(9).stream(i) for i in range(4)]):
            for got, ref in ((project_function(u, e).realized,
                              _schur_reference(u, e.frame, e.complement)),
                             (restrict_function(u, e), _restriction_reference(u, e.frame))):
                assert (_bits(got.a), _bits(got.b), _bits(got.c), _bits(got.eig)) \
                    == (_bits(ref.a), _bits(ref.b), _bits(ref.c), _bits(ref.eig))

    @pytest.mark.parametrize("defect", ["finite", "symmetric", "positive definite",
                                        "below 1e300", "smallest normal", "b and c"])
    def test_a_failing_member_raises_its_own_error(self, defect):
        a = np.stack([np.diag([1.0, 2.0, 3.0])] * 3)
        b, c = np.zeros((3, 3)), np.zeros(3)
        if defect == "finite":
            a[1, 0, 0] = np.inf
        elif defect == "symmetric":
            a[1, 0, 1] = 1e-3
        elif defect == "positive definite":
            a[1, 2, 2] = -1.0
        elif defect == "below 1e300":
            a[1] = np.diag([1e292, 1e295, 1e301])
        elif defect == "smallest normal":  # positive definite relative to 3e-310
            a[1] = np.diag([1e-310, 2e-310, 3e-310])
        else:
            b[1, 1] = np.nan
        with pytest.raises(ValueError) as alone:
            Quadratic(a[1], b[1], c[1])
        assert defect in str(alone.value)
        with pytest.raises(ValueError) as stacked:
            QuadraticStack(a, b, c)
        assert str(stacked.value) == str(alone.value)


def _catalog(n: int) -> dict:
    """Every catalog source in R^n, each wrapper on a plane-free and on a
    plane-dependent inner source, and the epigraph translation and affine
    term with a zero and a nonzero offset."""
    q = sample_rotation(n, Rng(n))
    zero, off = np.zeros(n), np.linspace(0.5, -0.25, n)
    power, cone, hinge = RadialPower(n, 4.0), Cone(n, 0.5, 1.0), RadialHinge(n, 0.5, 1.0)
    quad = Quadratic(np.diag(np.arange(1.0, n + 1.0)), off, 0.5)
    ball, shifted, box = Ball(1.0, zero), Ball(1.0, off), Box([(0.0, 1.0)] * n)
    max_affine = MaxAffine(np.eye(n)[:2], [0.0, 0.5])
    return {
        "radial_power": power,
        "cone": cone,
        "radial_hinge": hinge,
        "quadratic": quad,
        "isotropic_quadratic": Quadratic(np.eye(n)),
        "ball_indicator": Indicator(ball),
        "shifted_ball_indicator": Indicator(shifted),
        "box_indicator": Indicator(box),
        "ball_support": SupportFn(ball),
        "shifted_ball_support": SupportFn(shifted),
        "box_support": SupportFn(box),
        "max_affine": max_affine,
        "rotated_power": Rotated(power, q),
        "rotated_ball_indicator": Rotated(Indicator(ball), q),
        "rotated_quadratic": Rotated(quad, q),
        "rotated_shifted_ball_support": Rotated(SupportFn(shifted), q),
        "epi_scaled_rotated_power": epi_scale(Rotated(power, q), 1.5),
        "epi_scaled_rotated_quadratic": epi_scale(Rotated(quad, q), 1.5),
        "pointwise_scaled_power": pointwise_scale(power, 2.0),
        "pointwise_scaled_hinge": pointwise_scale(hinge, 2.0),
        "pointwise_scaled_max_affine": pointwise_scale(max_affine, 2.0),
        "inf_conv_power_cone": InfConv(power, cone),
        "inf_conv_power_shifted_ball": InfConv(power, Indicator(shifted)),
        "sum_power_hinge": PointwiseSum(power, hinge),
        "sum_power_max_affine": PointwiseSum(power, max_affine),
        "epi_translated_power_at_zero": EpiTranslated(power, zero, 0.25),
        "epi_translated_power": EpiTranslated(power, off, 0.25),
        "plus_affine_power_at_zero": PlusAffine(power, zero, 0.5),
        "plus_affine_power": PlusAffine(power, off, 0.5),
    }


def _project_oracle(u, e):
    """u's projection onto one plane, realized plane by plane: the reference
    the stacked realization must reproduce."""
    f, g = e.frame, e.complement
    if isinstance(u, Quadratic):
        return _schur_reference(u, f, g)
    if isinstance(u, RadialPower):
        return RadialPower(e.k, u.p, u.scale)
    if isinstance(u, Cone):
        return Cone(e.k, u.t, u.r)
    if isinstance(u, Indicator):
        return Indicator(project_body(u.body, f))
    if isinstance(u, EpiTranslated):
        return EpiTranslated(_project_oracle(u.inner, e), f.T @ u.x0, u.alpha)
    if isinstance(u, Rotated):
        return _project_oracle(u.inner, Subspace(u.q.T @ f, u.q.T @ g))
    if isinstance(u, InfConv):
        return InfConv(_project_oracle(u.left, e), _project_oracle(u.right, e))
    raise UnsupportedVariant(f"projection of {type(u).__name__} is not realized")


def _restrict_oracle(v, e):
    """v's restriction to one plane, realized plane by plane."""
    f = e.frame
    if isinstance(v, Quadratic):
        return _restriction_reference(v, f)
    if isinstance(v, RadialPower):
        return RadialPower(e.k, v.p, v.scale)
    if isinstance(v, RadialHinge):
        return RadialHinge(e.k, v.t, v.r)
    if isinstance(v, SupportFn):
        return SupportFn(project_body(v.body, f))
    if isinstance(v, MaxAffine) and v.domain is None:
        return MaxAffine(v.slopes @ f, v.offsets)
    if isinstance(v, PlusAffine):
        return PlusAffine(_restrict_oracle(v.inner, e), f.T @ v.slope, v.const)
    if isinstance(v, PointwiseSum):
        return PointwiseSum(_restrict_oracle(v.left, e), _restrict_oracle(v.right, e))
    if isinstance(v, Rotated):
        return _restrict_oracle(v.inner, Subspace(v.q.T @ f))
    raise UnsupportedVariant(f"restriction of {type(v).__name__} is not realized")


class TestPlaneFree:
    """``realize_stack`` gives every plane of a stack the function that the
    plane-by-plane oracle realizes for it, and returns one function, shared
    by the whole stack, exactly when those functions are all the same."""

    GRASSMANNIANS = ((3, 1), (3, 2), (5, 2))
    KINDS = (("projection", "is_supercoercive", _project_oracle),
             ("restriction", "is_finite", _restrict_oracle))

    @classmethod
    def _realizations(cls, u, planes) -> dict:
        """to_spec() of u's projections (supercoercive u) and restrictions
        (finite u) onto each plane by the oracle, or None for a kind the
        oracle does not realize."""
        found = {}
        for kind, applies, realize in cls.KINDS:
            if getattr(u, applies):
                try:
                    found[kind] = [realize(u, e).to_spec() for e in planes]
                except UnsupportedVariant:
                    found[kind] = None
        return found

    @staticmethod
    def _check(u, planes, found):
        for kind, specs in found.items():
            if specs is None:  # unrealized plane by plane, so for the stack
                with pytest.raises(UnsupportedVariant):
                    realize_stack(u, planes.frames, planes.complements, kind == "projection")
                continue
            got = realize_stack(u, planes.frames, planes.complements,
                                project=kind == "projection")
            same = all(spec == specs[0] for spec in specs[1:])
            assert isinstance(got, ConvexFunction) == same, \
                f"{kind}: one function {isinstance(got, ConvexFunction)}, equal specs {same}"
            members = [got] * len(planes) if same else list(got)
            assert [w.to_spec() for w in members] == specs, kind

    @pytest.mark.parametrize("n,k", GRASSMANNIANS)
    @pytest.mark.parametrize("name", sorted(_catalog(3)))
    def test_decision_matches_the_realizations(self, name, n, k):
        u = _catalog(n)[name]
        planes = sample_grassmann(n, k, [Rng(31 + n + k).stream(i) for i in range(3)])
        found = self._realizations(u, planes)
        assert any(found.values()), f"{name} is neither projected nor restricted"
        self._check(u, planes, found)

    @pytest.mark.parametrize("name", sorted(_catalog(3)))
    def test_stack_realization(self, name):
        u = _catalog(3)[name]
        planes = grassmann_cubature(3, 2, [2])[0][0]
        self._check(u, planes, self._realizations(u, planes))

    @pytest.mark.parametrize("name", ["quadratic", "rotated_quadratic"])
    def test_rotated_quadratics_are_one_stack(self, name):
        # a rotation turns the planes, so a rotated quadratic's projections
        # and restrictions are one QuadraticStack, bit for bit the oracle's
        u = _catalog(4)[name]
        planes = sample_grassmann(4, 2, [Rng(5).stream(i) for i in range(6)])
        for kind, _, realize in self.KINDS:
            got = realize_stack(u, planes.frames, planes.complements,
                                project=kind == "projection")
            assert isinstance(got, QuadraticStack)
            for w, e in zip(got, planes):
                ref = realize(u, e)
                assert (_bits(w.a), _bits(w.b), _bits(w.c), _bits(w.eig)) \
                    == (_bits(ref.a), _bits(ref.b), _bits(ref.c), _bits(ref.eig)), kind

    def test_a_rotation_checks_the_turned_stack(self):
        # a Q orthogonal only to 1e-10 turns the frames out of orthonormality
        q = np.eye(3)
        q[0, 0] += 5e-11
        u = Rotated(RadialPower(3, 4.0), q)
        planes = sample_grassmann(3, 2, [Rng(1).stream(i) for i in range(2)])
        with pytest.raises(ValueError, match="orthonormal"):
            realize_stack(u, planes.frames, planes.complements, project=True)

    def test_unrealized_sources_raise(self):
        planes = sample_grassmann(3, 2, [Rng(2).stream(i) for i in range(2)])
        cases = ((Cone(3, 0.5), False, "restriction is defined"),
                 (MaxAffine(np.eye(3), np.zeros(3)), True, "super-coercive"),
                 (EpiTranslated(RadialPower(3, 4.0), [0.5, 0.0, 0.0]), False,
                  "restriction of EpiTranslated"),
                 (MaxAffine(np.eye(3), np.zeros(3), Box([(0.0, 1.0)] * 3)), True,
                  "projection of MaxAffine"))
        for u, project, message in cases:
            with pytest.raises(UnsupportedVariant, match=message):
                realize_stack(u, planes.frames, planes.complements, project)


class TestConjugateProjection:
    def test_quadratic(self):
        u = Quadratic(np.array([[2.0, 0.3, 0.0], [0.3, 1.0, 0.2], [0.0, 0.2, 1.5]]))
        e = sample_grassmann(3, 2, [Rng(71)])[0]
        grid = Rng(72).generator().uniform(-1.0, 1.0, size=(20, 2))
        assert check_conjugate_projection(u, e, grid) <= 1e-9

    def test_ball_indicator_exact(self):
        u = Indicator(Ball(1.0, [0.0, 0.0]))
        e = sample_grassmann(2, 1, [Rng(73)])[0]
        grid = np.linspace(-2.0, 2.0, 21)[:, None]
        assert check_conjugate_projection(u, e, grid) == pytest.approx(0.0, abs=1e-12)

    def test_cone(self):
        u = Cone(3, 0.5, 1.0)
        e = sample_grassmann(3, 2, [Rng(74)])[0]
        grid = Rng(75).generator().uniform(-2.0, 2.0, size=(20, 2))
        assert check_conjugate_projection(u, e, grid) <= 1e-10
