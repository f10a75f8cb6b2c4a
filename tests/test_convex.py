import math

import numpy as np
import pytest

from funvol.convex import (
    Ball,
    Box,
    Cone,
    EpiScaled,
    EpiTranslated,
    Indicator,
    InfConv,
    MaxAffine,
    PolytopeV,
    Quadratic,
    RadialPower,
    Rotated,
    SupportFn,
    body_from_spec,
    body_intrinsic_volume,
    discrete_legendre,
    function_from_spec,
    project_body,
    shadow_intrinsic_volumes,
)
from funvol.convex import _hull_2d, _turn_sign
from funvol.errors import NotDifferentiable, SchemaError, UnsupportedVariant
from funvol.numerics import Rng
from funvol.subspaces import grassmann_cubature, sample_grassmann


def rotation_2d(theta):
    c, s = math.cos(theta), math.sin(theta)
    return np.array([[c, -s], [s, c]])


def catalog(n=2):
    fns = [
        Quadratic(np.eye(n)),
        Quadratic(np.diag(np.arange(1.0, n + 1.0)), 0.3 * np.ones(n), 0.1),
        RadialPower(n, 4.0),
        RadialPower(n, 1.5, 2.0),
        Cone(n, 0.5, 1.0),
        Indicator(Ball(1.0, np.zeros(n))),
        Indicator(Box([(0.0, 1.0)] * n)),
    ]
    return fns


class TestEval:
    def test_cone(self):
        u = Cone(2, 0.5, 1.0)
        assert u([0.5, 0.0]) == pytest.approx(0.25)
        assert u([2.0, 0.0]) == math.inf

    def test_indicator(self):
        u = Indicator(Ball(1.0, [0.0, 0.0]))
        assert u([0.5, 0.5]) == 0.0
        assert u([2.0, 0.0]) == math.inf

    def test_quadratic(self):
        u = Quadratic(np.eye(2))
        assert u([3.0, 4.0]) == pytest.approx(12.5)

    def test_batched_eval(self):
        u = Cone(2, 0.5, 1.0)
        vals = u(np.array([[0.5, 0.0], [2.0, 0.0]]))
        assert vals[0] == pytest.approx(0.25) and vals[1] == math.inf


class TestDerivatives:
    def test_quadratic(self):
        a = np.array([[2.0, 0.5], [0.5, 1.0]])
        u = Quadratic(a, [1.0, -1.0])
        x = np.array([0.3, 0.7])
        assert u.gradient(x) == pytest.approx(a @ x + [1.0, -1.0])
        assert u.hessian(x) == pytest.approx(a)

    def test_radial_power_p4(self):
        u = RadialPower(2, 4.0)
        assert u.gradient([1.0, 0.0]) == pytest.approx([1.0, 0.0])
        assert u.hessian([1.0, 0.0]) == pytest.approx(np.diag([3.0, 1.0]))

    def test_radial_hessian_elem_sym_matches_eigen(self):
        u = RadialPower(3, 4.0, 1.7)
        pts = np.array([[0.3, -0.2, 0.5], [1.0, 0.1, 0.0]])
        for i in range(4):
            direct = u.hessian_elem_sym(pts, i)
            eigs = np.linalg.eigvalsh(u.hessian(pts))
            from funvol.numerics import elem_sym_values
            assert direct == pytest.approx(elem_sym_values(eigs, i), rel=1e-10)

    def test_cone_not_twice_differentiable(self):
        with pytest.raises(NotDifferentiable):
            Cone(2, 0.5).hessian([0.3, 0.1])

    def test_degenerate_quadratic_rejected(self):
        with pytest.raises(ValueError):
            Quadratic(np.diag([1.0, 0.0]))


def _random_domain_point(u, rng):
    for _ in range(100):
        x = rng.uniform(-1.0, 1.0, size=u.n)
        if u(x) < math.inf:
            return x
    raise RuntimeError("no feasible point found")


def _subgradient_pair(u, rng):
    """(x, y) with y a subgradient of u at x: the gradient where one exists, else
    (for an indicator) the point of the body that supports the direction y."""
    if isinstance(u, Indicator):
        y = rng.uniform(-1.0, 1.0, size=u.n)
        body = u.body
        if isinstance(body, Ball):
            return body.c + body.radius * y / np.linalg.norm(y), y
        return np.where(y > 0, body.hi, body.lo), y
    x = _random_domain_point(u, rng)
    return x, u.gradient(x)


class TestQuadraticChecks:
    @pytest.mark.parametrize("scale", [1.0, 3e6])
    def test_symmetry_tolerance(self, scale):
        # an off-diagonal pair that differs by about the tolerance is accepted
        # exactly where np.allclose(a, a.T, atol=1e-12 * max(1, max |a|)) holds
        base = scale * np.array([[2.0, 0.5], [0.5, 1.0]])
        atol = 1e-12 * max(1.0, 2.0 * scale)
        edge = atol + 1e-5 * base[0, 1]
        verdicts = set()
        for step in np.linspace(0.98, 1.02, 41):
            for delta in (edge * step, np.nextafter(edge * step, 0.0)):
                a = base.copy()
                a[1, 0] += delta
                symmetric = np.allclose(a, a.T, atol=atol)
                verdicts.add(symmetric)
                if symmetric:
                    assert Quadratic(a).n == 2
                else:
                    with pytest.raises(ValueError, match="symmetric"):
                        Quadratic(a)
        assert verdicts == {True, False}


class TestConjugate:
    def test_half_norm_squared_self_dual(self):
        u = Quadratic(np.eye(2))
        v = u.conjugate()
        assert isinstance(v, Quadratic)
        assert v.a == pytest.approx(np.eye(2))

    def test_indicator_ball_gives_support(self):
        v = Indicator(Ball(1.0, [0.0, 0.0])).conjugate()
        assert isinstance(v, SupportFn)
        assert v([3.0, 4.0]) == pytest.approx(5.0)

    def test_cone_gives_radial_hinge(self):
        v = Cone(2, 0.5, 1.0).conjugate()
        assert v([2.0, 0.0]) == pytest.approx(1.5)
        assert v([0.25, 0.0]) == 0.0

    def test_involution_pointwise(self):
        rng = Rng(5).generator()
        q = np.linalg.qr(rng.standard_normal((2, 2)))[0]
        cases = [
            Quadratic(np.array([[2.0, 0.3], [0.3, 1.0]]), [0.2, -0.4], 0.7),
            RadialPower(2, 4.0, 1.3),
            Cone(2, 0.5, 2.0),
            Indicator(Box([(0.0, 1.0), (-1.0, 2.0)])),
            EpiTranslated(Quadratic(np.eye(2)), [0.4, -0.2], 0.3),
            Rotated(Quadratic(np.diag([1.0, 3.0])), q),
            EpiScaled(EpiTranslated(RadialPower(2, 4.0), [0.1, 0.0]), 2.0),
        ]
        for u in cases:
            uu = u.conjugate().conjugate()
            pts = rng.uniform(-0.9, 0.9, size=(100, 2))
            vu = u(pts)
            vuu = uu(pts)
            finite = np.isfinite(vu) & np.isfinite(vuu)
            assert np.allclose(vu[finite], vuu[finite], atol=1e-10), type(u).__name__
            assert np.array_equal(np.isfinite(vu), np.isfinite(vuu)), type(u).__name__

    def test_young_fenchel(self):
        rng = Rng(6).generator()
        for u in catalog():
            try:
                v = u.conjugate()
            except UnsupportedVariant:
                continue
            for _ in range(10):
                x = _random_domain_point(u, rng)
                y = rng.uniform(-1.0, 1.0, size=u.n)
                if not np.isfinite(v(y)):
                    continue
                assert u(x) + v(y) >= float(x @ y) - 1e-12
            # equality on subgradient pairs
            for _ in range(3):
                x, y = _subgradient_pair(u, rng)
                assert u(x) + v(y) == pytest.approx(float(x @ y), abs=1e-10), \
                    type(u).__name__

    def test_max_affine_zero_offsets(self):
        m = MaxAffine([[1.0, 0.0], [0.0, 1.0], [-1.0, -1.0]], [0.0, 0.0, 0.0])
        v = m.conjugate()
        assert isinstance(v, Indicator)
        assert v([0.0, 0.0]) == 0.0

    def test_unsupported_reported(self):
        m = MaxAffine([[1.0, 0.0]], [2.0])
        with pytest.raises(UnsupportedVariant):
            m.conjugate()


class TestDiscreteLegendre:
    def test_parabola_self_dual(self):
        x = np.linspace(-4.0, 4.0, 401)
        h = x[1] - x[0]
        vals = 0.5 * x ** 2
        y = np.linspace(-2.0, 2.0, 101)
        out = discrete_legendre([x], vals, [y])
        assert np.abs(out - 0.5 * y ** 2).max() <= 2.0 * h

    def test_absolute_value_gives_indicator(self):
        x = np.linspace(-4.0, 4.0, 801)
        y = np.linspace(-0.95, 0.95, 41)
        out = discrete_legendre([x], np.abs(x), [y])
        assert np.abs(out).max() <= 1e-9

    def test_zero_gives_box_support(self):
        x = np.linspace(0.0, 1.0, 51)
        z = np.linspace(-1.0, 2.0, 61)
        grid = np.zeros((51, 51))
        out = discrete_legendre([x, x], grid, [z, z])
        box = Box([(0.0, 1.0), (0.0, 1.0)])
        expect = box.support(np.stack(np.meshgrid(z, z, indexing="ij"), axis=-1).reshape(-1, 2))
        assert np.abs(out.ravel() - expect).max() <= 1e-9

    def test_2d_quadratic_oracle_for_analytic_conjugate(self):
        a = np.array([[2.0, 0.4], [0.4, 1.0]])
        u = Quadratic(a)
        v = u.conjugate()
        x = np.linspace(-5.0, 5.0, 161)
        h = x[1] - x[0]
        grid = np.stack(np.meshgrid(x, x, indexing="ij"), axis=-1).reshape(-1, 2)
        vals = u(grid).reshape(161, 161)
        y = np.linspace(-1.5, 1.5, 31)
        out = discrete_legendre([x, x], vals, [y, y])
        dual_grid = np.stack(np.meshgrid(y, y, indexing="ij"), axis=-1).reshape(-1, 2)
        expect = v(dual_grid).reshape(31, 31)
        assert np.abs(out - expect).max() <= 3.0 * h


class TestEpiOperations:
    def test_epi_scale_quadratic(self):
        u = EpiScaled(Quadratic(np.eye(2)), 2.0)
        x = np.array([1.0, 1.0])
        assert u(x) == pytest.approx(np.dot(x, x) / 4.0)

    def test_inf_conv_boxes(self):
        k = InfConv(Indicator(Box([(0.0, 1.0), (0.0, 1.0)])),
                    Indicator(Box([(0.0, 2.0), (-1.0, 0.0)])))
        assert isinstance(k, Indicator)
        assert k.body.intervals == ((0.0, 3.0), (-1.0, 1.0))

    def test_inf_conv_balls(self):
        k = InfConv(Indicator(Ball(1.0, [0.0, 0.0])), Indicator(Ball(0.5, [1.0, 0.0])))
        assert isinstance(k, Indicator)
        assert k.body.radius == pytest.approx(1.5)

    def test_inf_conv_quadratics_folds(self):
        u = InfConv(Quadratic(np.diag([1.0, 2.0])), Quadratic(np.diag([2.0, 2.0])))
        assert isinstance(u, Quadratic)
        expect = np.linalg.inv(np.linalg.inv(np.diag([1.0, 2.0])) + np.linalg.inv(np.diag([2.0, 2.0])))
        assert u.a == pytest.approx(expect)

    def test_inf_conv_radial_numeric(self):
        u = InfConv(RadialPower(2, 2.0), Indicator(Ball(1.0, [0.0, 0.0])))
        # (|.|^2/2  box I_B)(x) = dist(x, B)^2 / 2
        x = np.array([3.0, 0.0])
        assert u(x) == pytest.approx(0.5 * (3.0 - 1.0) ** 2, abs=1e-6)

    def test_epi_translate(self):
        u = EpiTranslated(Quadratic(np.eye(2)), [1.0, 0.0], 2.0)
        assert u([1.0, 0.0]) == pytest.approx(2.0)
        assert u([2.0, 1.0]) == pytest.approx(1.0 + 2.0)


class TestSuperCoercivity:
    def test_certificate(self):
        rng = Rng(3).generator()
        big = 1e3
        for u in catalog():
            if not u.is_supercoercive:
                continue
            for _ in range(50):
                w = rng.standard_normal(u.n)
                w /= np.linalg.norm(w)
                assert u(big * w) / big > 10.0


class TestBodies:
    def test_ball_intrinsic_volumes(self):
        b = Ball(1.0, [0.0, 0.0])
        assert body_intrinsic_volume(b, 1) == pytest.approx(math.pi)
        assert body_intrinsic_volume(b, 2) == pytest.approx(math.pi)
        assert body_intrinsic_volume(b, 0) == 1.0
        b3 = Ball(1.0, [0.0, 0.0, 0.0])
        assert body_intrinsic_volume(b3, 1) == pytest.approx(4.0)
        assert body_intrinsic_volume(b3, 2) == pytest.approx(2.0 * math.pi)

    def test_box_intrinsic_volumes(self):
        b = Box([(0.0, 1.0), (0.0, 2.0)])
        assert body_intrinsic_volume(b, 2) == pytest.approx(2.0)
        assert body_intrinsic_volume(b, 1) == pytest.approx(3.0)

    def test_cube_polytope_matches_box_formulas(self):
        cube = PolytopeV(Box([(0.0, 1.0)] * 3).vertices())
        for j in range(4):
            assert body_intrinsic_volume(cube, j) == pytest.approx(
                body_intrinsic_volume(Box([(0.0, 1.0)] * 3), j), rel=1e-10), j

    def test_polygon(self):
        tri = PolytopeV([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        assert body_intrinsic_volume(tri, 2) == pytest.approx(0.5)
        assert body_intrinsic_volume(tri, 1) == pytest.approx((2.0 + math.sqrt(2.0)) / 2.0)

    def test_ball_projection(self):
        frame = np.array([[1.0], [0.0], [0.0]])
        shadow = project_body(Ball(2.0, [0.5, 0.0, 0.0]), frame)
        assert isinstance(shadow, Ball) and shadow.radius == 2.0

    def test_square_onto_axis(self):
        frame = np.array([[1.0], [0.0]])
        shadow = project_body(Box([(0.0, 1.0), (0.0, 1.0)]), frame)
        assert isinstance(shadow, Box)
        assert shadow.intervals == ((0.0, 1.0),)

    def test_cube_shadow_shoelace_oracle(self):
        # shadow area of the unit cube along direction w equals |w_1|+|w_2|+|w_3|
        rng = Rng(9).generator()
        cube = Box([(0.0, 1.0)] * 3)
        for _ in range(10):
            m = rng.standard_normal((3, 3))
            q = np.linalg.qr(m)[0]
            frame = q[:, :2]
            w = q[:, 2]
            zonogon = project_body(cube, frame)
            verts = zonogon.vertices()
            x, y = verts[:, 0], verts[:, 1]
            shoelace = 0.5 * abs(np.dot(x, np.roll(y, -1)) - np.dot(y, np.roll(x, -1)))
            assert zonogon.volume() == pytest.approx(shoelace, rel=1e-12)
            assert shoelace == pytest.approx(np.abs(w).sum(), rel=1e-10)


CUBE = Box([(0.0, 1.0)] * 3)
BOX123 = Box([(0.0, 1.0), (0.0, 2.0), (0.0, 3.0)])
# the five-vertex polytope of the benchmark's projection workload
POLYTOPE = PolytopeV([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0],
                      [0.0, 0.0, 1.0], [1.0, 1.0, 1.0]])
COORDINATE_PLANES = np.stack([np.eye(3)[:, [0, 1]], np.eye(3)[:, [0, 2]],
                              np.eye(3)[:, [1, 2]]])


def _random_frames(n, k, count, seed):
    return sample_grassmann(n, k, [Rng(seed).stream(i) for i in range(count)]).frames


def _cube_cubature_frames():
    # levels 1-16 of the hyperplane cubature: the 1,364 planes of the cube's
    # default ck_classical case
    return np.concatenate([grassmann_cubature(3, 2, [level])[0][0].frames
                           for level in (1, 2, 4, 8, 16)])


class TestShadowKernel:
    """Stacked shadow intrinsic volumes against qhull, computed plane by plane
    here: widths from the projected hull vertices, areas and perimeters from
    2-d hulls, all within 1e-14 relative."""

    @staticmethod
    def _qhull_reference(body, frames):
        from scipy.spatial import ConvexHull
        verts = body.vertices()
        if frames.shape[2] == 1:
            ends = verts[ConvexHull(verts).vertices] @ frames[..., 0].T
            return ends.max(axis=0) - ends.min(axis=0)
        hulls = [ConvexHull(v) for v in verts @ frames]
        # scipy: for 2-d hulls 'volume' is the area and 'area' the perimeter
        return (np.array([h.volume for h in hulls]),
                np.array([0.5 * h.area for h in hulls]))

    def _check(self, body, frames):
        if frames.shape[2] == 1:
            widths = shadow_intrinsic_volumes(body, frames, 1)
            np.testing.assert_allclose(widths, self._qhull_reference(body, frames),
                                       rtol=1e-14, atol=0.0)
            return
        area, half_perimeter = self._qhull_reference(body, frames)
        np.testing.assert_allclose(shadow_intrinsic_volumes(body, frames, 2), area,
                                   rtol=1e-14, atol=0.0)
        np.testing.assert_allclose(shadow_intrinsic_volumes(body, frames, 1),
                                   half_perimeter, rtol=1e-14, atol=0.0)

    @pytest.mark.parametrize("body", [CUBE, BOX123, POLYTOPE],
                             ids=["cube", "box123", "polytope"])
    @pytest.mark.parametrize("k", [1, 2])
    def test_random_planes(self, body, k):
        self._check(body, _random_frames(3, k, 500, seed=11))

    @pytest.mark.parametrize("body", [CUBE, BOX123], ids=["cube", "box123"])
    def test_coordinate_planes(self, body):
        # every shadow vertex repeats, and the shadows' edges hold no other points
        self._check(body, COORDINATE_PLANES)
        self._check(body, np.eye(3).T[:, :, None])

    def test_cube_cubature_planes(self):
        frames = _cube_cubature_frames()
        x = (CUBE.vertices() @ frames)[..., 0]
        gap = np.where(x > x.min(axis=1, keepdims=True),
                       x - x.min(axis=1, keepdims=True), np.inf).min(axis=1)
        # on some planes rounding puts another vertex within 1e-16 of the
        # leftmost one: the start of the wrap is nearly inside an edge
        assert np.any(gap < 1e-16)
        self._check(CUBE, frames)

    def test_polytope_cubature_planes(self):
        self._check(POLYTOPE, np.concatenate(
            [grassmann_cubature(3, 2, [level])[0][0].frames for level in (1, 2, 4)]))

    def test_flat_box_has_zero_area(self):
        flat = Box([(0.0, 1.0), (0.0, 2.0), (0.0, 0.0)])
        segment = Box([(0.0, 1.0), (0.0, 0.0), (0.0, 0.0)])
        # the flat box on the coordinate planes through its normal, and a
        # segment on any plane: the kernel gives area 0 and twice the length
        # as perimeter, and the shadows, flat polygons, raise as PolytopeV does
        for body, frames in ((flat, COORDINATE_PLANES[1:]),
                             (segment, _random_frames(3, 2, 200, seed=3))):
            _, area, perimeter = _hull_2d(body.vertices() @ frames)
            assert np.all(area == 0.0)
            length = np.ptp(body.vertices() @ frames, axis=1)
            np.testing.assert_allclose(perimeter, 2.0 * np.hypot(length[:, 0], length[:, 1]),
                                       rtol=1e-14, atol=0.0)
            for j in (1, 2):
                with pytest.raises(ValueError, match="collinear"):
                    shadow_intrinsic_volumes(body, frames, j)
            with pytest.raises(ValueError, match="collinear"):
                project_body(body, frames[0])
            # its shadows on lines are intervals, flat or not
            ends = body.vertices() @ frames[:, :, 0].T
            assert np.array_equal(shadow_intrinsic_volumes(body, frames[:, :, :1], 1),
                                  ends.max(axis=0) - ends.min(axis=0))

    def test_turn_signs_are_exact(self):
        # against rational arithmetic, on points spanning the exponent range
        # and on points rounded onto a line
        from fractions import Fraction
        rng = np.random.default_rng(7)
        for _ in range(2000):
            p, c, r = (rng.standard_normal(2) * 10.0 ** rng.integers(-300, 1, 2)
                       for _ in range(3))
            if rng.random() < 0.5:
                r = p + (c - p) * rng.random()
            px, py, cx, cy, rx, ry = map(Fraction, (*p, *c, *r))
            det = (cx - px) * (ry - py) - (cy - py) * (rx - px)
            assert _turn_sign(p, c, r) == (det > 0) - (det < 0)
        assert _turn_sign(np.zeros(2), np.array([5e-324, 0.0]), np.array([0.0, 5e-324])) == 1.0

    def test_nearly_collinear_points_close(self):
        # rounded orientation signs leave such walks open; exact ones close them
        rng = np.random.default_rng(0)
        pts = rng.uniform(0.0, 1.0, (2000, 6, 1)) * np.ones(2)
        pts += 1e-15 * rng.standard_normal(pts.shape)
        walk, area, perimeter = _hull_2d(pts)
        assert np.all(walk[:, 0] == walk[:, -1])
        assert np.all((0.0 <= area) & (area <= 1e-14))
        extent = np.ptp(pts[..., 0], axis=1) * math.sqrt(2.0)
        np.testing.assert_allclose(perimeter, 2.0 * extent, rtol=1e-13)

    @pytest.mark.filterwarnings("ignore:overflow encountered in ldexp")
    def test_extreme_coordinates(self):
        # each plane is scaled by a power of two before the products, so the
        # walk closes and only a true area beyond double precision overflows
        square = np.array([[[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]]])
        for scale in (2.0 ** 1000, 2.0 ** -1000):
            _, area, perimeter = _hull_2d(scale * square)
            assert area[0] == scale * scale and perimeter[0] == 4.0 * scale
        _, area, _ = _hull_2d(1.7e308 * np.array([[[-1.0, -1.0], [1.0, -1.0], [0.0, 1.0]]]))
        assert area[0] == math.inf

    def test_ball_and_degree_zero(self):
        frames = _random_frames(4, 2, 5, seed=1)
        ball = Ball(2.0, [1.0, 0.0, 0.0, 0.0])
        for j in (1, 2):
            expect = [body_intrinsic_volume(project_body(ball, f), j) for f in frames]
            assert np.array_equal(shadow_intrinsic_volumes(ball, frames, j), expect)
        assert expect[0] == pytest.approx(4.0 * math.pi, rel=1e-15)
        assert np.all(shadow_intrinsic_volumes(CUBE, frames[:, :3], 0) == 1.0)

    def test_three_planes_use_qhull_polytopes(self):
        box = Box([(0.0, 1.0), (0.0, 2.0), (0.0, 1.0), (0.0, 1.0)])
        frames = _random_frames(4, 3, 10, seed=2)
        for j in (1, 2, 3):
            expect = [body_intrinsic_volume(project_body(box, f), j) for f in frames]
            assert np.array_equal(shadow_intrinsic_volumes(box, frames, j), expect)

    def test_four_planes_out_of_catalog(self):
        with pytest.raises(UnsupportedVariant):
            shadow_intrinsic_volumes(Box([(0.0, 1.0)] * 5), _random_frames(5, 4, 2, 0), 2)


class TestPolygon:
    """2-d polytopes are the batched hull kernel on a stack of one."""

    def test_hull_vertices_counterclockwise_from_lexicographic_minimum(self):
        square = PolytopeV([[1.0, 1.0], [0.5, 0.5], [0.0, 1.0], [1.0, 0.0], [0.0, 0.0],
                            [0.5, 0.0], [1.0, 1.0]])
        assert square.vertices().tolist() == [[0.0, 0.0], [1.0, 0.0], [1.0, 1.0],
                                              [0.0, 1.0]]
        assert square.volume() == 1.0 and square.surface() == 4.0

    def test_contains_and_support(self):
        tri = PolytopeV([[0.0, 0.0], [2.0, 0.0], [0.0, 2.0]])
        assert tri.contains([[0.5, 0.5], [1.0, 1.0], [0.0, 0.0]]).tolist() == [True] * 3
        assert tri.contains([[1.0, 1.1], [-0.1, 0.0], [2.1, 0.0]]).tolist() == [False] * 3
        assert tri.support([1.0, 1.0]) == 2.0

    @pytest.mark.parametrize("vertices", [[[0.0, 0.0], [1.0, 1.0], [2.0, 2.0]],
                                          [[1.0, 2.0]] * 4, [[0.0, 0.0], [1.0, 0.0]]],
                             ids=["collinear", "one_point", "two_points"])
    def test_flat_raises(self, vertices):
        with pytest.raises(ValueError, match="full-dimensional|at least 3"):
            PolytopeV(vertices)


QUAD_SPEC = {"type": "quadratic", "A": [[1.0, 0.0], [0.0, 1.0]], "b": [0.0, 0.0], "c": 0.0}
CONE_SPEC = {"type": "cone", "n": 2, "t": 0.5}


class TestJsonSpecs:
    @pytest.mark.parametrize("spec", [
        {"type": "quadratic", "A": [[1.0, 0.0], [0.0, 2.0]], "b": [0.1, 0.2], "c": 0.3},
        {"type": "radial_power", "n": 2, "p": 4.0, "scale": 1.5},
        {"type": "cone", "n": 2, "t": 0.5, "r": 1.0},
        {"type": "radial_hinge", "n": 2, "t": 0.5, "r": 1.0},
        {"type": "indicator", "body": {"type": "ball", "r": 1.0, "center": [0.0, 0.0]}},
        {"type": "support", "body": {"type": "box", "intervals": [[0.0, 1.0], [0.0, 2.0]]}},
        {"type": "epi_translate", "x0": [1.0, 0.0], "alpha": 0.5,
         "inner": {"type": "quadratic", "A": [[1.0, 0.0], [0.0, 1.0]], "b": [0.0, 0.0], "c": 0.0}},
        {"type": "inf_conv",
         "left": {"type": "indicator", "body": {"type": "box", "intervals": [[0.0, 1.0]]}},
         "right": {"type": "indicator", "body": {"type": "box", "intervals": [[0.0, 2.0]]}}},
    ])
    def test_round_trip(self, spec):
        u = function_from_spec(spec)
        again = function_from_spec(u.to_spec())
        rng = Rng(1).generator()
        pts = rng.uniform(-0.5, 0.5, size=(25, u.n))
        assert np.allclose(u(pts), again(pts), equal_nan=True)

    @pytest.mark.parametrize("spec", [
        {"type": "epi_translate", "x0": [math.inf, 0.0], "inner": QUAD_SPEC},
        {"type": "epi_translate", "x0": [math.nan, 0.0], "inner": QUAD_SPEC},
        {"type": "epi_translate", "x0": [0.0, 0.0], "alpha": math.nan, "inner": QUAD_SPEC},
        # finite entries, but its projections onto a diagonal overflow
        {"type": "epi_translate", "x0": [1.7e308, 1.7e308], "inner": QUAD_SPEC},
        {"type": "epi_scale", "lambda": math.nan, "inner": QUAD_SPEC},
        {"type": "epi_scale", "lambda": math.inf, "inner": CONE_SPEC},
        {"type": "pointwise_scaled", "factor": math.inf, "inner": QUAD_SPEC},
        {"type": "pointwise_scaled", "factor": math.nan, "inner": CONE_SPEC},
        {"type": "plus_affine", "slope": [math.nan, 0.0], "inner": QUAD_SPEC},
        {"type": "plus_affine", "slope": [0.0, 0.0], "const": math.inf, "inner": QUAD_SPEC},
        {"type": "plus_affine", "slope": [1.7e308, 1.7e308], "inner": QUAD_SPEC},
        {"type": "max_affine", "slopes": [[1.0, math.inf]], "offsets": [0.0]},
        {"type": "max_affine", "slopes": [[1.0, 0.0]], "offsets": [math.nan]},
        {"type": "max_affine", "slopes": [[1.7e308, -1.7e308]], "offsets": [0.0]},
    ])
    def test_non_finite_wrapper_parameters(self, spec):
        # a translate or slope needs a finite length: a projection <v, f> of it
        # by a unit vector f is then finite
        with pytest.raises(SchemaError):
            function_from_spec(spec)

    def test_overflowing_fold(self):
        # epi-scaling folds into the radial power's scale, lam ** (1 - p)
        with pytest.raises(SchemaError):
            function_from_spec({"type": "epi_scale", "lambda": 0.2,
                                "inner": {"type": "radial_power", "n": 2, "p": 1e150}})

    @pytest.mark.parametrize("kind", ["radial_power", "cone", "radial_hinge"])
    @pytest.mark.parametrize("n", [2.5, 0, -1, 7, 100000, True, "2"])
    def test_radial_dimension(self, kind, n):
        # an integral n in 1..MAX_DIM, as a quadratic's A has
        with pytest.raises(SchemaError, match="dimension"):
            function_from_spec({"type": kind, "n": n, "p": 4.0, "t": 0.5})

    def test_bad_specs(self):
        with pytest.raises(SchemaError):
            function_from_spec({"type": "mystery"})
        with pytest.raises(SchemaError):
            function_from_spec({"type": "quadratic"})
        with pytest.raises(SchemaError):
            body_from_spec({"type": "ball"})
