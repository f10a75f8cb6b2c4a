"""Catalog of super-coercive convex functions, their duals, and convex bodies.

Every variant carries exact evaluation; gradients, Hessians and
Legendre-Fenchel conjugates (the ``conjugate`` method) are closed
catalog-to-catalog maps wherever they exist, and raise rather than
approximate silently when they do not.  Epigraph operations are the wrapper
classes themselves (:class:`EpiTranslated`, :class:`EpiScaled`,
:class:`InfConv`).  Quadratic and radial variants live in an integral
dimension 1 <= n <= MAX_DIM.  The discrete Legendre transform lives here
solely as an independent numerical oracle for the analytic conjugates.
"""
from __future__ import annotations

import itertools
import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .errors import NotDifferentiable, SchemaError, UnsupportedVariant, spec_errors
from .numerics import MAX_DIM, elem_sym_values, kappa, row_norms

__all__ = [
    "ConvexBody", "Ball", "Box", "PolytopeV",
    "body_intrinsic_volume", "project_body", "shadow_intrinsic_volumes",
    "body_from_spec",
    "ConvexFunction", "Quadratic", "QuadraticStack", "RadialPower", "Cone",
    "Indicator", "SupportFn", "MaxAffine", "RadialHinge", "EpiTranslated", "Rotated",
    "EpiScaled", "PointwiseScaled", "PlusAffine", "InfConv", "PointwiseSum",
    "discrete_legendre", "function_from_spec",
]

_TINY = np.finfo(float).tiny  # smallest normal double
_COLLINEAR = "polytope vertices do not span a full-dimensional hull: they are collinear"


def _slack(radius, reach):
    """Membership slack of a body of half-width ``radius``: 1e-12 of its width, and
    a few ulps of its farthest coordinate ``reach`` for points rounded that far out."""
    return 2e-12 * radius + 8 * math.ulp(reach)


def _vec(x, n=None):
    v = np.asarray(x, dtype=float)
    if n is not None and v.shape != (n,):
        raise ValueError(f"expected a vector of length {n}, got shape {v.shape}")
    return v


def _dimension(n) -> int:
    """An integral dimension in 1..MAX_DIM, as every variant of the catalog needs."""
    if isinstance(n, bool) or not isinstance(n, int) or not 1 <= n <= MAX_DIM:
        raise ValueError(f"dimension must be an integer in 1..{MAX_DIM}, got {n!r}")
    return n


def _finite_length(v) -> bool:
    """|v| is finite (so is <v, f> for every unit f, as projections need)."""
    return math.isfinite(math.hypot(*v))


def _points(x, n):
    pts = np.asarray(x, dtype=float)
    scalar = pts.ndim == 1
    pts = np.atleast_2d(pts)
    if pts.shape[1] != n:
        raise ValueError(f"expected points in R^{n}, got shape {pts.shape}")
    return pts, scalar


# ---------------------------------------------------------------------------
# Convex bodies


class ConvexBody:
    n: int

    def support(self, y):
        raise NotImplementedError

    def contains(self, x):
        raise NotImplementedError

    def vertices(self) -> np.ndarray:
        raise UnsupportedVariant(f"{type(self).__name__} has no vertex description")

    def volume(self) -> float:
        raise NotImplementedError

    def to_spec(self) -> dict:
        raise NotImplementedError


@dataclass(frozen=True)
class Ball(ConvexBody):
    radius: float
    center: tuple

    def __init__(self, radius: float, center):
        if not (math.isfinite(radius) and radius > 0):
            raise ValueError("ball needs a finite radius > 0")
        object.__setattr__(self, "radius", float(radius))
        object.__setattr__(self, "center", tuple(float(c) for c in np.atleast_1d(center)))
        if not all(map(math.isfinite, self.center)):
            raise ValueError("ball needs a finite center")
        _dimension(len(self.center))

    @property
    def n(self):
        return len(self.center)

    @property
    def c(self):
        return np.array(self.center)

    def support(self, y):
        pts, scalar = _points(y, self.n)
        out = pts @ self.c + self.radius * row_norms(pts)
        return float(out[0]) if scalar else out

    def contains(self, x):
        pts, scalar = _points(x, self.n)
        # lengths in units of 2^e, so that their squares neither overflow nor underflow
        _, e = math.frexp(reach := max(self.radius, *map(abs, self.center)))
        slack = _slack(self.radius, reach)
        out = row_norms(np.ldexp(pts - self.c, -e)) <= math.ldexp(self.radius + slack, -e)
        return bool(out[0]) if scalar else out

    def volume(self):
        return kappa(self.n) * self.radius ** self.n

    def to_spec(self):
        return {"type": "ball", "r": self.radius, "center": list(self.center)}


@dataclass(frozen=True)
class Box(ConvexBody):
    intervals: tuple

    def __init__(self, intervals):
        iv = tuple((float(a), float(b)) for a, b in intervals)
        if not all(math.isfinite(a) and math.isfinite(b) and a <= b for a, b in iv):
            raise ValueError("box intervals must be finite with a <= b")
        _dimension(len(iv))
        object.__setattr__(self, "intervals", iv)

    @property
    def n(self):
        return len(self.intervals)

    @property
    def lo(self):
        return np.array([a for a, _ in self.intervals])

    @property
    def hi(self):
        return np.array([b for _, b in self.intervals])

    def side_lengths(self):
        return self.hi - self.lo

    def support(self, y):
        pts, scalar = _points(y, self.n)
        out = np.maximum(pts * self.lo, pts * self.hi).sum(axis=1)
        return float(out[0]) if scalar else out

    def contains(self, x):
        pts, scalar = _points(x, self.n)
        lo, hi = self.lo, self.hi
        slack = _slack((hi / 2 - lo / 2).max(), max(abs(lo).max(), abs(hi).max()))
        out = np.all((pts >= lo - slack) & (pts <= hi + slack), axis=1)
        return bool(out[0]) if scalar else out

    def vertices(self):
        return np.array(list(itertools.product(*self.intervals)))

    def volume(self):
        return float(np.prod(self.side_lengths()))

    def to_spec(self):
        return {"type": "box", "intervals": [list(iv) for iv in self.intervals]}


class PolytopeV(ConvexBody):
    """Convex hull of a vertex list, dimension 2 or 3 (1-d sets are boxes), by qhull.

    The points are scaled by a power of two to coordinates below 1 in
    magnitude before qhull, as the zonotope generators of box shadows are,
    and every measure is scaled back exactly: only a measure beyond double
    precision overflows.  2-d vertices run counterclockwise from their
    lexicographic minimum.
    """

    def __init__(self, vertices):
        pts = np.asarray(vertices, dtype=float)
        if pts.ndim != 2 or pts.shape[1] not in (2, 3):
            raise ValueError("polytope vertices must be (m, 2) or (m, 3)")
        if not np.all(np.isfinite(pts)):
            raise ValueError("polytope vertices must be finite")
        if len(pts) <= pts.shape[1]:
            raise ValueError(f"polytope needs at least {pts.shape[1] + 1} vertices, "
                             f"got {len(pts)}")
        self.n = _dimension(pts.shape[1])
        # scipy.spatial, which costs a noticeable share of the package
        # import time, is loaded by the first polytope
        from scipy import spatial
        _, self._exponent = np.frexp(abs(pts).max())
        self._slack = _slack(np.max(pts.max(axis=0) / 2 - pts.min(axis=0) / 2), abs(pts).max())
        try:
            self._hull = spatial.ConvexHull(np.ldexp(pts, -self._exponent))
        except spatial.QhullError as exc:
            # flat: qhull needs a full-dimensional hull
            raise ValueError(_COLLINEAR if self.n == 2 else
                             f"polytope vertices do not span a full-dimensional "
                             f"hull: {str(exc).splitlines()[0]}") from exc
        order = self._hull.vertices  # counterclockwise in 2-d
        if self.n == 2:  # from the least x, and of those the least y
            order = np.roll(order, -np.lexsort((pts[order, 1], pts[order, 0]))[0])
        self._verts = pts[order]
        self._equations = self._hull.equations.copy()
        self._equations[:, -1] = np.ldexp(self._equations[:, -1], self._exponent)
        # scipy: 'volume' is the area in 2-d, and 'area' the perimeter in 2-d
        # and the surface area in 3-d; a measure beyond double precision is inf
        with np.errstate(over="ignore"):
            self._volume = float(np.ldexp(self._hull.volume, self.n * self._exponent))
            self._surface = float(np.ldexp(self._hull.area, (self.n - 1) * self._exponent))

    def support(self, y):
        pts, scalar = _points(y, self.n)
        out = (pts @ self._verts.T).max(axis=1)
        return float(out[0]) if scalar else out

    def contains(self, x):
        pts, scalar = _points(x, self.n)
        eq = self._equations
        out = np.all(pts @ eq[:, :-1].T + eq[:, -1] <= self._slack, axis=1)
        return bool(out[0]) if scalar else out

    def vertices(self):
        return self._verts.copy()

    def volume(self):
        return self._volume

    def surface(self) -> float:
        """Perimeter in 2-d, surface area in 3-d."""
        return self._surface

    def _edges(self):
        """Each hull edge once (3-d only), in the scaled coordinates qhull holds.

        Returns ``(ends, n1, n2, angle)``: the edge vectors, the unit normals
        of the two facets that meet there, and the exterior dihedral angle
        atan2(|n1 x n2|, n1 . n2).  acos of the rounded dot product would put
        about 1e-8 between two coplanar triangles of one facet, where the
        angle is 0."""
        hull = self._hull
        # each edge once: from the facet s to its neighbor t > s, which is
        # opposite the vertex simplices[s, local]
        s, local = np.nonzero(hull.neighbors > np.arange(len(hull.neighbors))[:, None])
        t = hull.neighbors[s, local]
        ends = hull.points[hull.simplices[s, (local + 1) % 3]] \
            - hull.points[hull.simplices[s, (local + 2) % 3]]
        n1, n2 = hull.equations[s, :-1], hull.equations[t, :-1]
        return ends, n1, n2, np.arctan2(row_norms(np.cross(n1, n2)), np.sum(n1 * n2, axis=1))

    def mean_width_sum(self) -> float:
        """Sum of edge length times exterior dihedral angle (3-d only)."""
        ends, _, _, angle = self._edges()
        return float(np.ldexp(np.sum(row_norms(ends) * angle), self._exponent))

    def to_spec(self):
        return {"type": "polytope", "vertices": self._verts.tolist()}

    def __repr__(self):
        return f"PolytopeV({len(self._verts)} vertices, n={self.n})"


def body_intrinsic_volume(body: ConvexBody, j: int) -> float:
    """Classical j-th intrinsic volume; closed forms per variant."""
    n = body.n
    if not 0 <= j <= n:
        raise ValueError(f"need 0 <= j <= n={n}, got {j}")
    if j == 0:
        return 1.0
    if isinstance(body, Ball):
        return math.comb(n, j) * kappa(n) / kappa(n - j) * body.radius ** j
    if isinstance(body, Box):
        return float(elem_sym_values(body.side_lengths(), j))
    if isinstance(body, PolytopeV):
        if j == n:
            return body.volume()
        if j == n - 1:  # half the perimeter or the surface area
            return 0.5 * body.surface()
        if j == 1:
            return body.mean_width_sum() / (2.0 * math.pi)
    raise UnsupportedVariant(
        f"intrinsic volume V_{j} unsupported for {type(body).__name__} in dim {n}")


def project_body(body: ConvexBody, frame: np.ndarray) -> ConvexBody:
    """Orthogonal shadow of a body on the span of an (n, k) orthonormal frame,
    expressed in frame coordinates."""
    frame = np.asarray(frame, dtype=float)
    k = frame.shape[1]
    if isinstance(body, Ball):
        return Ball(body.radius, frame.T @ body.c)
    verts = body.vertices() @ frame
    if k == 1:
        return Box([(float(verts.min()), float(verts.max()))])
    if k in (2, 3):
        return PolytopeV(verts)
    raise UnsupportedVariant(f"projection to dimension {k} is out of catalog")


def _zonotope_volumes(gens: np.ndarray, j: int) -> np.ndarray:
    """V_j of the zonotopes sum_i [0, g_i] of an (S, n, k) stack of
    generator rows, k <= 3: the sum over the j-subsets I of the rows of the
    j-volume of g_I (Shephard 1974; McMullen 1984).  That volume is |det|
    for j = k, the row norm for j = 1 and |cross| for j = 2 in 3-d."""
    k = gens.shape[2]
    subsets = np.array(list(itertools.combinations(range(gens.shape[1]), j)))
    g = [gens[:, subsets[:, r]] for r in range(j)]  # (S, C, k) each
    if j == 1 == k:
        vol = abs(g[0][..., 0])
    elif j == 2 == k:
        vol = abs(g[0][..., 0] * g[1][..., 1] - g[0][..., 1] * g[1][..., 0])
    elif j == 3:
        vol = abs(np.sum(g[0] * np.cross(g[1], g[2]), axis=2))
    elif j == 1:
        vol = row_norms(g[0])
    else:
        vol = row_norms(np.cross(g[0], g[1]))
    return vol.sum(axis=1)


def _abs_cos_integral(z: np.ndarray) -> np.ndarray:
    """An antiderivative of |cos z|: 2m + sin(z - m pi), m = round(z / pi)."""
    m = np.round(z / np.pi)
    return 2.0 * m + np.sin(z - m * np.pi)


def shadow_intrinsic_volumes(body: ConvexBody, frames: np.ndarray, j: int) -> np.ndarray:
    """V_j of the body's shadow on each plane of an (S, n, k) stack of
    orthonormal frames, as :func:`body_intrinsic_volume` of
    :func:`project_body` gives it plane by plane.

    A ball's shadows are k-balls of its radius, one closed form.  A box is
    a sum of segments along the axes, so its shadows are zonotopes with the
    generators l_i F[:, i, :] (side lengths l_i, frames F), whose V_j are
    sums of minors (:func:`_zonotope_volumes`).  The generators are built
    of the half sides, finite between finite endpoints, and each plane's
    are scaled by a power of two to entries below 1 in magnitude, which
    keeps the products finite.  A flat box shadow on a 2- or 3-plane raises
    ValueError, as the :class:`PolytopeV` that :func:`project_body` would
    build of it does.

    A 3-d polytope's shadows on 2-planes are read from its own hull by
    Cauchy's projection formulas, with u = F[:, :, 0] x F[:, :, 1] the unit
    normal of each plane (Schneider, Convex Bodies, 2nd ed., 2014, 5.3):
    V_2 = 1/2 sum_F a_F |<n_F, u>| over the facets, and V_1 = 1/4 sum_e l_e
    int |<n, u>| d theta over the edges, the integral running over the arc
    of normals from one facet of the edge to the other.  On that arc
    l_e <n, u> = |e x u| cos(theta - phi), so the integral is
    |e x u| (P(angle - phi) - P(-phi)) with P :func:`_abs_cos_integral`;
    coplanar qhull triangles meet at angle 0 and drop out.  The other
    polytope shadows are the intervals on lines, whose widths are V_1, and
    the whole space, a :class:`PolytopeV` per plane.
    """
    count, _, k = frames.shape
    if not 0 <= j <= k:
        raise ValueError(f"need 0 <= j <= k={k}, got {j}")
    if j == 0:
        return np.ones(count)
    if isinstance(body, Ball):
        return np.full(count, body_intrinsic_volume(Ball(body.radius, np.zeros(k)), j))
    if isinstance(body, Box) and k <= 3:
        gens = frames * (np.ldexp(body.hi, -1) - np.ldexp(body.lo, -1))[:, None]
        _, exponent = np.frexp(abs(gens).max(axis=(1, 2)))
        gens = np.ldexp(gens, -exponent[:, None, None])
        exponent += 1
        with np.errstate(over="ignore"):  # a measure beyond double precision is inf
            full = np.ldexp(_zonotope_volumes(gens, k), k * exponent)
            if k > 1 and not np.all(full > 0.0):
                raise ValueError(_COLLINEAR)
            return full if j == k else np.ldexp(_zonotope_volumes(gens, j), j * exponent)
    if isinstance(body, PolytopeV) and k == 2 and body.n == 3:
        u = np.cross(frames[:, :, 0], frames[:, :, 1])
        if j == 2:
            tri = body._hull.points[body._hull.simplices]
            # twice each facet's area times its unit normal
            facets = np.cross(tri[:, 1] - tri[:, 0], tri[:, 2] - tri[:, 0])
            with np.errstate(over="ignore"):  # an area beyond double precision is inf
                return np.ldexp(0.25 * abs(u @ facets.T).sum(axis=1), 2 * body._exponent)
        ends, n1, n2, angle = body._edges()
        # phi = atan2(<w, u>, <n1, u>) with w the unit normal on the arc that
        # is orthogonal to n1: |n1 x n2| w = n2 - (n1 . n2) n1
        first = u @ n1.T
        phi = np.arctan2(u @ n2.T - np.sum(n1 * n2, axis=1) * first,
                         row_norms(np.cross(n1, n2)) * first)
        arcs = _abs_cos_integral(angle - phi) - _abs_cos_integral(-phi)
        across = row_norms(np.cross(ends, u[:, None]))
        return np.ldexp(0.25 * np.sum(across * arcs, axis=1), body._exponent)
    verts = body.vertices() @ frames
    if k == 1:
        return verts[..., 0].max(axis=1) - verts[..., 0].min(axis=1)
    if k in (2, 3):
        return np.array([body_intrinsic_volume(PolytopeV(v), j) for v in verts])
    raise UnsupportedVariant(f"projection to dimension {k} is out of catalog")


# ---------------------------------------------------------------------------
# Convex functions


class ConvexFunction:
    """Proper, lower semicontinuous, convex function on R^n."""

    n: int
    is_supercoercive: bool = False
    is_finite: bool = False

    def __call__(self, x):
        pts, scalar = _points(x, self.n)
        out = self._eval(pts)
        return float(out[0]) if scalar else out

    def _eval(self, pts: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def gradient(self, x):
        pts, scalar = _points(x, self.n)
        out = self._gradient(pts)
        return out[0] if scalar else out

    def hessian(self, x):
        pts, scalar = _points(x, self.n)
        out = self._hessian(pts)
        return out[0] if scalar else out

    def hessian_elem_sym(self, x, degree: int):
        """e_degree of the Hessian eigenvalues, batched; overridden where closed forms exist."""
        pts, scalar = _points(x, self.n)
        if degree == 0:
            out = np.ones(len(pts))
        else:
            eigs = np.linalg.eigvalsh(self._hessian(pts))
            out = elem_sym_values(eigs, degree)
        return float(out[0]) if scalar else out

    def _gradient(self, pts):
        raise NotDifferentiable(f"{type(self).__name__} has no gradient evaluator")

    def _hessian(self, pts):
        raise NotDifferentiable(f"{type(self).__name__} is not twice differentiable")

    def conjugate(self) -> "ConvexFunction":
        raise UnsupportedVariant(
            f"conjugate of {type(self).__name__} leaves the catalog")

    # geometry accessors used by the evaluators --------------------------------
    def minimizer(self) -> np.ndarray | None:
        """A global minimizer (the gradient-zero point for smooth variants)."""
        return None

    def smooth_kind(self) -> str | None:
        """'everywhere' for C^2 with positive Hessian, 'except_center' when the
        only defect is at the minimizer, None otherwise."""
        return None

    def grad_radius(self, dirs: np.ndarray, s: float) -> np.ndarray:
        """Radii r with |grad u(minimizer + r*dir)| = s, per direction."""
        raise UnsupportedVariant(f"{type(self).__name__} has no ray data")

    def radial_profile(self):
        """phi with u(x) = phi(|x|) for origin-centered radial variants, else None."""
        return None

    def to_spec(self) -> dict:
        raise UnsupportedVariant(f"{type(self).__name__} has no JSON form")


class Quadratic(ConvexFunction):
    """u(x) = x'Ax/2 + b'x + c with A positive definite."""

    is_supercoercive = True
    is_finite = True

    def __init__(self, a, b=None, c: float = 0.0):
        a = np.asarray(a, dtype=float)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise ValueError("A must be square")
        n = _dimension(a.shape[0])
        b = np.zeros(n) if b is None else _vec(b, n)
        c = float(c)
        # the checks of a stack of one
        self._set(a, b, c, QuadraticStack(a[None], b[None], np.array([c])).eig[0])

    def _set(self, a, b, c: float, eig) -> None:
        self.a, self.b, self.c, self.eig = a, b, c, eig
        self._elem_sym = {}  # e_i(eig) by degree, on first use
        self.n = len(a)

    def _eval(self, pts):
        return 0.5 * np.einsum("mi,ij,mj->m", pts, self.a, pts) + pts @ self.b + self.c

    def _gradient(self, pts):
        return pts @ self.a + self.b

    def _hessian(self, pts):
        return np.broadcast_to(self.a, (len(pts), self.n, self.n)).copy()

    def hessian_elem_sym(self, x, degree):
        pts, scalar = _points(x, self.n)
        if degree not in self._elem_sym:
            self._elem_sym[degree] = float(elem_sym_values(self.eig, degree))
        out = np.full(len(pts), self._elem_sym[degree])
        return float(out[0]) if scalar else out

    def conjugate(self):
        ainv = np.linalg.inv(self.a)
        ainv = 0.5 * (ainv + ainv.T)
        return Quadratic(ainv, -ainv @ self.b, 0.5 * float(self.b @ ainv @ self.b) - self.c)

    def minimizer(self):
        return -np.linalg.solve(self.a, self.b)

    def smooth_kind(self):
        return "everywhere"

    def grad_radius(self, dirs, s):
        return s / row_norms(dirs @ self.a)

    def radial_profile(self):
        if np.allclose(self.a, self.a[0, 0] * np.eye(self.n)) and not self.b.any():
            lam = self.a[0, 0]
            return lambda r: 0.5 * lam * np.asarray(r) ** 2 + self.c
        return None

    def to_spec(self):
        return {"type": "quadratic", "A": self.a.tolist(), "b": self.b.tolist(), "c": self.c}


class QuadraticStack(Sequence):
    """S quadratics u_i(x) = x'A_i x/2 + b_i'x + c_i of one dimension n, held
    as stacked arrays: ``a`` (S, n, n), ``b`` (S, n), ``c`` (S,) and the
    eigenvalues ``eig`` (S, n).  Its checks, which a :class:`Quadratic` runs
    as a stack of one, run once over the stack; member i, when indexed, is a
    Quadratic on views of the arrays, built without a second check."""

    def __init__(self, a: np.ndarray, b: np.ndarray, c: np.ndarray):
        if not np.isfinite(a).all():
            raise ValueError("A must be finite")
        mag = abs(a)
        atol = 1e-12 * np.maximum(1.0, mag.max(axis=(1, 2)))
        if not (abs(a - np.swapaxes(a, 1, 2))
                <= atol[:, None, None] + 1e-5 * np.swapaxes(mag, 1, 2)).all():
            raise ValueError("A must be symmetric")
        eig = np.linalg.eigvalsh(a)
        if (eig[:, 0] <= 1e-10 * eig[:, -1]).any():
            raise ValueError("A must be positive definite "
                             "(min eigenvalue > 1e-10 * max eigenvalue)")
        if not _TINY <= eig.min() <= eig.max() <= 1e300:  # A^-1 and F'AF finite
            raise ValueError("A must have eigenvalues below 1e300 and at least the "
                             "smallest normal double")
        if not (np.isfinite(b).all() and np.isfinite(c).all()):
            raise ValueError("b and c must be finite")
        self._set(a, b, c, eig)

    @classmethod
    def of(cls, quads) -> "QuadraticStack":
        """The stack of quadratics already built, without a second check."""
        s = cls.__new__(cls)
        s._set(np.array([u.a for u in quads]), np.array([u.b for u in quads]),
               np.array([u.c for u in quads]), np.array([u.eig for u in quads]))
        return s

    def _set(self, a, b, c, eig) -> None:
        self.a, self.b, self.c, self.eig = a, b, c, eig
        self.n = a.shape[-1]

    def __len__(self):
        return len(self.a)

    def __getitem__(self, i: int) -> Quadratic:
        u = Quadratic.__new__(Quadratic)
        u._set(self.a[i], self.b[i], float(self.c[i]), self.eig[i])
        return u


class RadialPower(ConvexFunction):
    """u(x) = scale * |x|^p / p, p > 1."""

    is_supercoercive = True
    is_finite = True

    def __init__(self, n: int, p: float, scale: float = 1.0):
        if not (math.isfinite(p) and math.isfinite(scale) and p > 1 and scale > 0):
            raise ValueError("radial power needs finite p > 1 and scale > 0")
        self.n = _dimension(n)
        self.p = float(p)
        self.scale = float(scale)

    def _eval(self, pts):
        return self.scale * row_norms(pts) ** self.p / self.p

    def _gradient(self, pts):
        r = row_norms(pts)
        fac = np.where(r > 0, self.scale * r ** (self.p - 2.0), 0.0)
        if self.p < 2 and np.any(r == 0):
            raise NotDifferentiable("gradient factor diverges at the origin for p < 2")
        return pts * fac[:, None]

    def _hessian(self, pts):
        r = row_norms(pts)
        if self.p != 2 and np.any(r == 0):
            raise NotDifferentiable("Hessian of a radial power is singular at the origin")
        if self.p == 2:
            return np.broadcast_to(self.scale * np.eye(self.n),
                                   (len(pts), self.n, self.n)).copy()
        unit = pts / r[:, None]
        eye = np.broadcast_to(np.eye(self.n), (len(pts), self.n, self.n))
        h = eye + (self.p - 2.0) * np.einsum("mi,mj->mij", unit, unit)
        return self.scale * r[:, None, None] ** (self.p - 2.0) * h

    def hessian_elem_sym(self, x, degree):
        # eigenvalues: scale*(p-1)*r^{p-2} once, scale*r^{p-2} with multiplicity n-1
        pts, scalar = _points(x, self.n)
        r = row_norms(pts)
        if self.p != 2 and np.any(r == 0):
            raise NotDifferentiable("Hessian of a radial power is singular at the origin")
        tang = self.scale * r ** (self.p - 2.0)
        rad = (self.p - 1.0) * tang
        i = degree
        out = (math.comb(self.n - 1, i) * tang ** i
               + (math.comb(self.n - 1, i - 1) * tang ** (i - 1) * rad if i >= 1 else 0.0))
        return float(out[0]) if scalar else out

    def conjugate(self):
        q = self.p / (self.p - 1.0)
        return RadialPower(self.n, q, self.scale ** (1.0 - q))

    def minimizer(self):
        return np.zeros(self.n)

    def smooth_kind(self):
        return "everywhere" if self.p == 2 else "except_center"

    def grad_radius(self, dirs, s):
        r = (s / self.scale) ** (1.0 / (self.p - 1.0))
        return np.full(len(dirs), r)

    def radial_profile(self):
        return lambda r: self.scale * np.asarray(r) ** self.p / self.p

    def to_spec(self):
        return {"type": "radial_power", "n": self.n, "p": self.p, "scale": self.scale}


class Cone(ConvexFunction):
    """u(x) = t|x| on the ball of radius r (plus infinity outside)."""

    is_supercoercive = True

    def __init__(self, n: int, t: float, r: float = 1.0):
        if not (math.isfinite(t) and math.isfinite(r) and t >= 0 and r > 0):
            raise ValueError("cone needs finite t >= 0 and r > 0")
        self.n = _dimension(n)
        self.t = float(t)
        self.r = float(r)

    def _eval(self, pts):
        norms = row_norms(pts)
        return np.where(norms <= self.r + 1e-14, self.t * norms, np.inf)

    def _gradient(self, pts):
        norms = row_norms(pts)
        if np.any(norms == 0) or np.any(norms > self.r + 1e-14):
            raise NotDifferentiable("cone gradient defined for 0 < |x| <= r only")
        return self.t * pts / norms[:, None]

    def conjugate(self):
        return RadialHinge(self.n, self.t, self.r)

    def radial_profile(self):
        def phi(r):
            r = np.asarray(r, dtype=float)
            return np.where(r <= self.r + 1e-14, self.t * r, np.inf)
        return phi

    def to_spec(self):
        return {"type": "cone", "n": self.n, "t": self.t, "r": self.r}


class RadialHinge(ConvexFunction):
    """v(y) = r * max(0, |y| - t): the dual of the cone variant."""

    is_finite = True

    def __init__(self, n: int, t: float, r: float = 1.0):
        if not (math.isfinite(t) and math.isfinite(r) and t >= 0 and r > 0):
            raise ValueError("radial hinge needs finite t >= 0 and r > 0")
        self.n = _dimension(n)
        self.t = float(t)
        self.r = float(r)

    def _eval(self, pts):
        return self.r * np.maximum(0.0, row_norms(pts) - self.t)

    def conjugate(self):
        return Cone(self.n, self.t, self.r)

    def radial_profile(self):
        return lambda r: self.r * np.maximum(0.0, np.asarray(r) - self.t)

    def to_spec(self):
        return {"type": "radial_hinge", "n": self.n, "t": self.t, "r": self.r}


class Indicator(ConvexFunction):
    """0 on the body, +inf outside."""

    is_supercoercive = True

    def __init__(self, body: ConvexBody):
        self.body = body
        self.n = body.n

    def _eval(self, pts):
        return np.where(self.body.contains(pts), 0.0, np.inf)

    def conjugate(self):
        return SupportFn(self.body)

    def radial_profile(self):
        if isinstance(self.body, Ball) and not np.any(self.body.c):
            radius = self.body.radius

            def phi(r):
                r = np.asarray(r, dtype=float)
                return np.where(r <= radius + 1e-14, 0.0, np.inf)
            return phi
        return None

    def to_spec(self):
        return {"type": "indicator", "body": self.body.to_spec()}


class SupportFn(ConvexFunction):
    """h_K(y) = max over the body of <x, y>; finite-valued and 1-homogeneous."""

    is_finite = True

    def __init__(self, body: ConvexBody):
        self.body = body
        self.n = body.n

    def _eval(self, pts):
        return np.asarray(self.body.support(pts))

    def conjugate(self):
        return Indicator(self.body)

    def radial_profile(self):
        if isinstance(self.body, Ball) and not np.any(self.body.c):
            return lambda r: self.body.radius * np.asarray(r)
        return None

    def to_spec(self):
        return {"type": "support", "body": self.body.to_spec()}


class MaxAffine(ConvexFunction):
    """max_i (<a_i, x> + b_i), optionally restricted to a body."""

    def __init__(self, slopes, offsets, domain: ConvexBody | None = None):
        self.slopes = np.atleast_2d(np.asarray(slopes, dtype=float))
        self.offsets = np.asarray(offsets, dtype=float)
        if len(self.slopes) != len(self.offsets):
            raise ValueError("slopes and offsets must have equal length")
        if not (all(map(_finite_length, self.slopes))
                and np.all(np.isfinite(self.offsets))):
            raise ValueError("max-affine slopes need a finite length and offsets "
                             "must be finite")
        self.n = _dimension(self.slopes.shape[1])
        self.domain = domain
        self.is_finite = domain is None
        self.is_supercoercive = domain is not None and True

    def _eval(self, pts):
        vals = (pts @ self.slopes.T + self.offsets).max(axis=1)
        if self.domain is not None:
            vals = np.where(self.domain.contains(pts), vals, np.inf)
        return vals

    def conjugate(self):
        if self.domain is None and not self.offsets.any() and self.n <= 3:
            if self.n == 1:
                lo, hi = float(self.slopes.min()), float(self.slopes.max())
                return Indicator(Box([(lo, hi)]))
            return Indicator(PolytopeV(self.slopes))
        raise UnsupportedVariant("conjugate of this max-affine form leaves the catalog")

    def to_spec(self):
        spec = {"type": "max_affine", "slopes": self.slopes.tolist(),
                "offsets": self.offsets.tolist()}
        if self.domain is not None:
            spec["domain"] = self.domain.to_spec()
        return spec


class EpiTranslated(ConvexFunction):
    """u(x - x0) + alpha."""

    def __init__(self, inner: ConvexFunction, x0, alpha: float = 0.0):
        self.inner = inner
        self.x0 = _vec(x0, inner.n)
        self.alpha = float(alpha)
        if not (_finite_length(self.x0) and math.isfinite(self.alpha)):
            raise ValueError("epi-translation needs an x0 of finite length and a finite alpha")
        self.n = inner.n
        self.is_supercoercive = inner.is_supercoercive
        self.is_finite = inner.is_finite

    def _eval(self, pts):
        return self.inner._eval(pts - self.x0) + self.alpha

    def _gradient(self, pts):
        return self.inner._gradient(pts - self.x0)

    def _hessian(self, pts):
        return self.inner._hessian(pts - self.x0)

    def hessian_elem_sym(self, x, degree):
        pts, scalar = _points(x, self.n)
        out = np.atleast_1d(self.inner.hessian_elem_sym(pts - self.x0, degree))
        return float(out[0]) if scalar else out

    def conjugate(self):
        return PlusAffine(self.inner.conjugate(), self.x0, -self.alpha)

    def minimizer(self):
        m = self.inner.minimizer()
        return None if m is None else m + self.x0

    def smooth_kind(self):
        return self.inner.smooth_kind()

    def grad_radius(self, dirs, s):
        return self.inner.grad_radius(dirs, s)

    def to_spec(self):
        return {"type": "epi_translate", "x0": self.x0.tolist(), "alpha": self.alpha,
                "inner": self.inner.to_spec()}


class Rotated(ConvexFunction):
    """u(Q^{-1} x) for an orthogonal Q."""

    def __init__(self, inner: ConvexFunction, q):
        q = np.asarray(q, dtype=float)
        # an orthogonal Q has no entry above 1 in magnitude, and checking that
        # first keeps Q Q^T from overflowing
        if (q.shape != (inner.n, inner.n) or not np.all(abs(q) <= 1.0 + 1e-10)
                or not np.allclose(q @ q.T, np.eye(inner.n), atol=1e-10)):
            raise ValueError("Q must be orthogonal with matching dimension")
        self.inner = inner
        self.q = q
        self.n = inner.n
        self.is_supercoercive = inner.is_supercoercive
        self.is_finite = inner.is_finite

    def _eval(self, pts):
        return self.inner._eval(pts @ self.q)  # rows become Q^T x

    def _gradient(self, pts):
        return self.inner._gradient(pts @ self.q) @ self.q.T

    def _hessian(self, pts):
        h = self.inner._hessian(pts @ self.q)
        return np.einsum("ij,mjk,lk->mil", self.q, h, self.q)

    def hessian_elem_sym(self, x, degree):
        pts, scalar = _points(x, self.n)
        out = np.atleast_1d(self.inner.hessian_elem_sym(pts @ self.q, degree))
        return float(out[0]) if scalar else out

    def conjugate(self):
        return Rotated(self.inner.conjugate(), self.q)

    def minimizer(self):
        m = self.inner.minimizer()
        return None if m is None else self.q @ m

    def smooth_kind(self):
        return self.inner.smooth_kind()

    def grad_radius(self, dirs, s):
        return self.inner.grad_radius(dirs @ self.q, s)

    def to_spec(self):
        return {"type": "rotate", "Q": self.q.tolist(), "inner": self.inner.to_spec()}


class EpiScaled(ConvexFunction):
    """lam * u(x / lam): epigraph scaling by lam > 0."""

    def __new__(cls, inner: ConvexFunction, lam: float):
        lam = float(lam)
        if not (math.isfinite(lam) and lam > 0):
            raise ValueError("epigraph scaling needs a finite lam > 0")
        # exact folds keep the catalog small
        if isinstance(inner, Quadratic):
            return Quadratic(inner.a / lam, inner.b, lam * inner.c)
        if isinstance(inner, RadialPower):
            return RadialPower(inner.n, inner.p, inner.scale * lam ** (1.0 - inner.p))
        if isinstance(inner, Cone):
            return Cone(inner.n, inner.t, lam * inner.r)
        if isinstance(inner, Indicator):
            return Indicator(_scale_body(inner.body, lam))
        return object.__new__(cls)

    def __init__(self, inner: ConvexFunction, lam: float):
        self.inner = inner
        self.lam = float(lam)
        self.n = inner.n
        self.is_supercoercive = inner.is_supercoercive
        self.is_finite = inner.is_finite

    def _eval(self, pts):
        return self.lam * self.inner._eval(pts / self.lam)

    def _gradient(self, pts):
        return self.inner._gradient(pts / self.lam)

    def _hessian(self, pts):
        return self.inner._hessian(pts / self.lam) / self.lam

    def conjugate(self):
        return PointwiseScaled(self.inner.conjugate(), self.lam)

    def minimizer(self):
        m = self.inner.minimizer()
        return None if m is None else self.lam * m

    def smooth_kind(self):
        return self.inner.smooth_kind()

    def grad_radius(self, dirs, s):
        return self.lam * self.inner.grad_radius(dirs, s)

    def to_spec(self):
        return {"type": "epi_scale", "lambda": self.lam, "inner": self.inner.to_spec()}


class PointwiseScaled(ConvexFunction):
    """c * v(x) for c > 0 (dual companion of epigraph scaling)."""

    def __new__(cls, inner: ConvexFunction, c: float):
        c = float(c)
        if not (math.isfinite(c) and c > 0):
            raise ValueError("pointwise scaling needs a finite c > 0")
        # exact folds keep the catalog small
        if isinstance(inner, Quadratic):
            with np.errstate(over="ignore"):  # an overflow fails Quadratic's checks
                a, b = c * inner.a, c * inner.b
            return Quadratic(a, b, c * inner.c)
        if isinstance(inner, RadialPower):
            return RadialPower(inner.n, inner.p, c * inner.scale)
        return object.__new__(cls)

    def __init__(self, inner: ConvexFunction, c: float):
        self.inner = inner
        self.c = float(c)
        self.n = inner.n
        self.is_supercoercive = inner.is_supercoercive
        self.is_finite = inner.is_finite

    def _eval(self, pts):
        return self.c * self.inner._eval(pts)

    def _gradient(self, pts):
        return self.c * self.inner._gradient(pts)

    def _hessian(self, pts):
        return self.c * self.inner._hessian(pts)

    def conjugate(self):
        return EpiScaled(self.inner.conjugate(), self.c)

    def to_spec(self):
        return {"type": "pointwise_scaled", "factor": self.c, "inner": self.inner.to_spec()}


class PlusAffine(ConvexFunction):
    """v(x) + <slope, x> + const (dual companion of epi-translation)."""

    def __init__(self, inner: ConvexFunction, slope, const: float = 0.0):
        self.inner = inner
        self.slope = _vec(slope, inner.n)
        self.const = float(const)
        if not (_finite_length(self.slope) and math.isfinite(self.const)):
            raise ValueError("affine term needs a slope of finite length and a finite "
                             "constant")
        self.n = inner.n
        self.is_supercoercive = inner.is_supercoercive
        self.is_finite = inner.is_finite

    def _eval(self, pts):
        return self.inner._eval(pts) + pts @ self.slope + self.const

    def _gradient(self, pts):
        return self.inner._gradient(pts) + self.slope

    def _hessian(self, pts):
        return self.inner._hessian(pts)

    def conjugate(self):
        return EpiTranslated(self.inner.conjugate(), self.slope, -self.const)

    def to_spec(self):
        return {"type": "plus_affine", "slope": self.slope.tolist(),
                "const": self.const, "inner": self.inner.to_spec()}


class PointwiseSum(ConvexFunction):
    """u1 + u2 (quadratic pairs fold exactly)."""

    def __new__(cls, left: ConvexFunction, right: ConvexFunction):
        if isinstance(left, Quadratic) and isinstance(right, Quadratic):
            return Quadratic(left.a + right.a, left.b + right.b, left.c + right.c)
        return object.__new__(cls)

    def __init__(self, left: ConvexFunction, right: ConvexFunction):
        if left.n != right.n:
            raise ValueError("dimension mismatch")
        self.left = left
        self.right = right
        self.n = left.n
        self.is_finite = left.is_finite and right.is_finite
        self.is_supercoercive = (
            (left.is_supercoercive and (right.is_finite or right.is_supercoercive))
            or (right.is_supercoercive and left.is_finite))

    def _eval(self, pts):
        return self.left._eval(pts) + self.right._eval(pts)

    def _gradient(self, pts):
        return self.left._gradient(pts) + self.right._gradient(pts)

    def _hessian(self, pts):
        return self.left._hessian(pts) + self.right._hessian(pts)

    def conjugate(self):
        return InfConv(self.left.conjugate(), self.right.conjugate())

    def to_spec(self):
        return {"type": "sum", "left": self.left.to_spec(), "right": self.right.to_spec()}


class InfConv(ConvexFunction):
    """Infimal convolution: Minkowski addition of epigraphs."""

    def __new__(cls, left: ConvexFunction, right: ConvexFunction):
        if isinstance(left, Indicator) and isinstance(right, Indicator):
            a, b = left.body, right.body
            if isinstance(a, Box) and isinstance(b, Box):
                return Indicator(Box(np.stack([a.lo + b.lo, a.hi + b.hi], axis=1)))
            if isinstance(a, Ball) and isinstance(b, Ball):
                return Indicator(Ball(a.radius + b.radius, a.c + b.c))
        if isinstance(left, Quadratic) and isinstance(right, Quadratic):
            return PointwiseSum(left.conjugate(), right.conjugate()).conjugate()
        return object.__new__(cls)

    def __init__(self, left: ConvexFunction, right: ConvexFunction):
        if left.n != right.n:
            raise ValueError("dimension mismatch")
        self.left = left
        self.right = right
        self.n = left.n
        self.is_supercoercive = left.is_supercoercive and right.is_supercoercive
        self.is_finite = left.is_finite or right.is_finite

    def _eval(self, pts):
        pl = self.left.radial_profile()
        pr = self.right.radial_profile()
        if pl is None or pr is None:
            raise UnsupportedVariant(
                "infimal convolution evaluated only for radial pairs or folded forms")
        from scipy.optimize import minimize_scalar
        out = np.empty(len(pts))
        for i, x in enumerate(pts):
            r = float(np.linalg.norm(x))

            def objective(rho):
                a = float(np.asarray(pl(abs(rho))))
                b = float(np.asarray(pr(abs(r - rho))))
                return min(a + b, 1e30)  # finite penalty keeps the bounded search stable

            span = r + 2.0
            res = minimize_scalar(objective, bounds=(-span, r + span), method="bounded",
                                  options={"xatol": 1e-12})
            out[i] = res.fun
        return out

    def conjugate(self):
        return PointwiseSum(self.left.conjugate(), self.right.conjugate())

    def to_spec(self):
        return {"type": "inf_conv", "left": self.left.to_spec(), "right": self.right.to_spec()}


@np.errstate(over="ignore")  # a body beyond double precision fails its constructor's checks
def _scale_body(body: ConvexBody, lam: float) -> ConvexBody:
    if isinstance(body, Ball):
        return Ball(lam * body.radius, lam * body.c)
    if isinstance(body, Box):
        return Box(np.stack([lam * body.lo, lam * body.hi], axis=1))
    if isinstance(body, PolytopeV):
        return PolytopeV(lam * body.vertices())
    raise UnsupportedVariant("cannot scale this body")


# ---------------------------------------------------------------------------
# Module-level operations


def _llt_1d(x: np.ndarray, f: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Linear-time discrete Legendre transform along one axis.

    Builds the lower convex hull of (x_i, f_i), then sweeps the ascending dual
    grid with a single pointer over hull slopes.
    """
    hull = []
    for i in range(len(x)):
        while len(hull) >= 2:
            i1, i2 = hull[-2], hull[-1]
            lhs = (f[i2] - f[i1]) * (x[i] - x[i1])
            rhs = (f[i] - f[i1]) * (x[i2] - x[i1])
            if lhs >= rhs:  # middle point on or above the chord: not on the lower hull
                hull.pop()
            else:
                break
        hull.append(i)
    out = np.empty(len(y))
    k = 0
    for j, yj in enumerate(y):
        while k + 1 < len(hull):
            i1, i2 = hull[k], hull[k + 1]
            if (f[i2] - f[i1]) <= yj * (x[i2] - x[i1]):
                k += 1
            else:
                break
        i = hull[k]
        out[j] = x[i] * yj - f[i]
    return out


def discrete_legendre(grids, values, dual_grids) -> np.ndarray:
    """Discrete Legendre transform on a tensor grid, dimension by dimension.

    ``grids`` and ``dual_grids`` are per-axis ascending 1-d arrays; ``values``
    has shape ``tuple(len(g) for g in grids)``.  Error versus the analytic
    conjugate is O(grid spacing) on the interior of the dual grid.
    """
    grids = [np.asarray(g, dtype=float) for g in grids]
    dual_grids = [np.asarray(g, dtype=float) for g in dual_grids]
    d = len(grids)
    work = np.asarray(values, dtype=float)
    for axis in range(d):
        moved = np.moveaxis(work, axis, 0)
        flat = moved.reshape(len(grids[axis]), -1)
        out = np.empty((len(dual_grids[axis]), flat.shape[1]))
        for col in range(flat.shape[1]):
            out[:, col] = _llt_1d(grids[axis], flat[:, col], dual_grids[axis])
        shape = (len(dual_grids[axis]),) + moved.shape[1:]
        work = np.moveaxis(out.reshape(shape), 0, axis)
        if axis + 1 < d:
            work = -work
    return work


# ---------------------------------------------------------------------------
# JSON specs


def body_from_spec(spec: dict) -> ConvexBody:
    if not isinstance(spec, dict) or "type" not in spec:
        raise SchemaError(f"body spec must be an object with a 'type': {spec!r}")
    t = spec["type"]
    with spec_errors(f"body spec '{t}'"):
        if t == "ball":
            return Ball(spec["r"], spec["center"])
        if t == "box":
            return Box(spec["intervals"])
        if t == "polytope":
            return PolytopeV(spec["vertices"])
    raise SchemaError(f"unknown body type {t!r}")


def function_from_spec(spec: dict) -> ConvexFunction:
    if not isinstance(spec, dict) or "type" not in spec:
        raise SchemaError(f"function spec must be an object with a 'type': {spec!r}")
    t = spec["type"]
    with spec_errors(f"function spec '{t}'"):
        if t == "quadratic":
            return Quadratic(spec["A"], spec.get("b"), spec.get("c", 0.0))
        if t == "radial_power":
            return RadialPower(spec["n"], spec["p"], spec.get("scale", 1.0))
        if t == "cone":
            return Cone(spec["n"], spec["t"], spec.get("r", 1.0))
        if t == "radial_hinge":
            return RadialHinge(spec["n"], spec["t"], spec.get("r", 1.0))
        if t == "indicator":
            return Indicator(body_from_spec(spec["body"]))
        if t == "support":
            return SupportFn(body_from_spec(spec["body"]))
        if t == "max_affine":
            domain = body_from_spec(spec["domain"]) if "domain" in spec else None
            return MaxAffine(spec["slopes"], spec["offsets"], domain)
        if t == "epi_translate":
            return EpiTranslated(function_from_spec(spec["inner"]), spec["x0"],
                                 spec.get("alpha", 0.0))
        if t == "rotate":
            return Rotated(function_from_spec(spec["inner"]), spec["Q"])
        if t == "epi_scale":
            return EpiScaled(function_from_spec(spec["inner"]), spec["lambda"])
        if t == "pointwise_scaled":
            return PointwiseScaled(function_from_spec(spec["inner"]), spec["factor"])
        if t == "plus_affine":
            return PlusAffine(function_from_spec(spec["inner"]), spec["slope"],
                              spec.get("const", 0.0))
        if t == "inf_conv":
            return InfConv(function_from_spec(spec["left"]), function_from_spec(spec["right"]))
        if t == "sum":
            return PointwiseSum(function_from_spec(spec["left"]),
                                function_from_spec(spec["right"]))
    raise SchemaError(f"unknown function type {t!r}")
