"""Catalog of super-coercive convex functions, their duals, and convex bodies.

Every variant carries exact evaluation; gradients, Hessians, subdifferentials
and Legendre-Fenchel conjugates are closed catalog-to-catalog maps wherever
they exist, and raise rather than approximate silently when they do not.  The
discrete Legendre transform lives here solely as an independent numerical
oracle for the analytic conjugates.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import NotDifferentiable, SchemaError, UnsupportedVariant
from .numerics import MAX_DIM, elem_sym_values, kappa

__all__ = [
    "ConvexBody", "Ball", "Box", "PolytopeV",
    "body_intrinsic_volume", "project_body", "body_from_spec", "body_to_spec",
    "Subdifferential",
    "ConvexFunction", "Quadratic", "RadialPower", "Cone", "Indicator",
    "SupportFn", "MaxAffine", "RadialHinge", "EpiTranslated", "Rotated",
    "EpiScaled", "PointwiseScaled", "PlusAffine", "InfConv", "PointwiseSum",
    "conjugate", "inf_conv", "epi_scale", "epi_translate",
    "discrete_legendre", "function_from_spec", "function_to_spec",
]


def _vec(x, n=None):
    v = np.asarray(x, dtype=float)
    if n is not None and v.shape != (n,):
        raise ValueError(f"expected a vector of length {n}, got shape {v.shape}")
    return v


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

    def contains(self, x, tol: float = 1e-12):
        raise NotImplementedError

    def vertices(self) -> np.ndarray:
        raise UnsupportedVariant(f"{type(self).__name__} has no vertex description")

    def bounding_box(self) -> np.ndarray:
        raise NotImplementedError

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

    @property
    def n(self):
        return len(self.center)

    @property
    def c(self):
        return np.array(self.center)

    def support(self, y):
        pts, scalar = _points(y, self.n)
        out = pts @ self.c + self.radius * np.linalg.norm(pts, axis=1)
        return float(out[0]) if scalar else out

    def contains(self, x, tol=1e-12):
        pts, scalar = _points(x, self.n)
        out = np.linalg.norm(pts - self.c, axis=1) <= self.radius + tol
        return bool(out[0]) if scalar else out

    def bounding_box(self):
        return np.stack([self.c - self.radius, self.c + self.radius], axis=1)

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

    def contains(self, x, tol=1e-12):
        pts, scalar = _points(x, self.n)
        out = np.all((pts >= self.lo - tol) & (pts <= self.hi + tol), axis=1)
        return bool(out[0]) if scalar else out

    def vertices(self):
        return np.array(list(itertools.product(*self.intervals)))

    def bounding_box(self):
        return np.array(self.intervals, dtype=float)

    def volume(self):
        return float(np.prod(self.side_lengths()))

    def to_spec(self):
        return {"type": "box", "intervals": [list(iv) for iv in self.intervals]}


class PolytopeV(ConvexBody):
    """Convex hull of a vertex list, dimension 2 or 3 (1-d sets are boxes)."""

    def __init__(self, vertices):
        # qhull is the only user of scipy.spatial, which costs a noticeable
        # share of the package import time
        from scipy.spatial import ConvexHull, QhullError
        pts = np.asarray(vertices, dtype=float)
        if pts.ndim != 2 or pts.shape[1] not in (2, 3):
            raise ValueError("polytope vertices must be (m, 2) or (m, 3)")
        if not np.all(np.isfinite(pts)):
            raise ValueError("polytope vertices must be finite")
        try:
            self._hull = ConvexHull(pts)
        except QhullError as exc:
            # flat or too few vertices: qhull needs a full-dimensional hull
            raise ValueError(f"polytope vertices do not span a full-dimensional "
                             f"hull: {str(exc).splitlines()[0]}") from exc
        self._verts = pts[self._hull.vertices]
        self.n = pts.shape[1]

    def support(self, y):
        pts, scalar = _points(y, self.n)
        out = (pts @ self._verts.T).max(axis=1)
        return float(out[0]) if scalar else out

    def contains(self, x, tol=1e-12):
        pts, scalar = _points(x, self.n)
        eq = self._hull.equations
        out = np.all(pts @ eq[:, :-1].T + eq[:, -1] <= tol, axis=1)
        return bool(out[0]) if scalar else out

    def vertices(self):
        return self._verts.copy()

    def bounding_box(self):
        return np.stack([self._verts.min(axis=0), self._verts.max(axis=0)], axis=1)

    def volume(self):
        return float(self._hull.volume)

    def surface(self) -> float:
        # scipy: for 2-d hulls 'area' is the perimeter, for 3-d the surface area
        return float(self._hull.area)

    def facet_equations(self):
        return self._hull.equations

    def mean_width_sum(self) -> float:
        """Sum of edge length times exterior dihedral angle (3-d only)."""
        hull = self._hull
        total = 0.0
        seen = set()
        for s, simplex in enumerate(hull.simplices):
            for local, t in enumerate(hull.neighbors[s]):
                if t <= s:
                    continue
                shared = [v for v in simplex if v in set(hull.simplices[t])]
                if len(shared) != 2 or (s, t) in seen:
                    continue
                seen.add((s, t))
                n1 = hull.equations[s, :-1]
                n2 = hull.equations[t, :-1]
                angle = math.acos(float(np.clip(n1 @ n2, -1.0, 1.0)))
                length = float(np.linalg.norm(hull.points[shared[0]] - hull.points[shared[1]]))
                total += length * angle
        return total

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
        if n == 2:  # j == 1: half the perimeter
            return 0.5 * body.surface()
        if j == 2:
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


# ---------------------------------------------------------------------------
# Subdifferentials


class Subdifferential:
    """Either a singleton gradient, a ball, or conv(points) + cone(directions)."""

    def __init__(self, kind, *, point=None, center=None, radius=0.0,
                 points=None, directions=None):
        self.kind = kind
        self.point = None if point is None else np.asarray(point, dtype=float)
        self.center = None if center is None else np.asarray(center, dtype=float)
        self.radius = float(radius)
        self.points = None if points is None else np.atleast_2d(np.asarray(points, dtype=float))
        self.directions = (None if directions is None
                           else np.atleast_2d(np.asarray(directions, dtype=float)))

    @classmethod
    def singleton(cls, g):
        return cls("point", point=g)

    @classmethod
    def ball(cls, center, radius):
        return cls("ball", center=center, radius=radius)

    @classmethod
    def generated(cls, points, directions=None):
        return cls("generated", points=points, directions=directions)

    @property
    def is_singleton(self):
        return self.kind == "point" or (
            self.kind == "generated" and len(self.points) == 1
            and (self.directions is None or len(self.directions) == 0))

    def gradient(self):
        if self.kind == "point":
            return self.point.copy()
        if self.is_singleton:
            return self.points[0].copy()
        raise ValueError("subdifferential is not a singleton")

    def sample(self, count: int, rng: np.random.Generator) -> np.ndarray:
        if self.kind == "point":
            return np.tile(self.point, (count, 1))
        if self.kind == "ball":
            n = len(self.center)
            g = rng.standard_normal((count, n))
            g /= np.maximum(np.linalg.norm(g, axis=1, keepdims=True), 1e-300)
            r = self.radius * rng.random(count) ** (1.0 / n)
            return self.center + g * r[:, None]
        w = rng.random((count, len(self.points)))
        w /= w.sum(axis=1, keepdims=True)
        out = w @ self.points
        if self.directions is not None and len(self.directions):
            lam = 3.0 * rng.random((count, len(self.directions)))
            out = out + lam @ self.directions
        return out

    def __repr__(self):
        return f"Subdifferential(kind={self.kind!r})"


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

    def subdifferential(self, x) -> Subdifferential:
        raise UnsupportedVariant(f"subdifferential unsupported for {type(self).__name__}")

    def conjugate(self) -> "ConvexFunction":
        raise UnsupportedVariant(
            f"conjugate of {type(self).__name__} leaves the catalog")

    # geometry accessors used by the evaluators --------------------------------
    @property
    def domain_body(self) -> ConvexBody | None:
        """Bounded domain as a body, or None when the domain is all of R^n."""
        return None

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
        if not np.all(np.isfinite(a)):
            raise ValueError("A must be finite")
        if not np.allclose(a, a.T, atol=1e-12 * max(1.0, float(np.abs(a).max()))):
            raise ValueError("A must be symmetric")
        n = a.shape[0]
        if n > MAX_DIM:
            raise ValueError(f"dimension cap is {MAX_DIM}")
        eig = np.linalg.eigvalsh(a)
        if eig[0] <= 1e-10 * max(1.0, eig[-1]):
            raise ValueError("A must be positive definite "
                             "(min eigenvalue > 1e-10 * max(1, max eigenvalue))")
        if eig[-1] > 1e300:  # projections f'Af would overflow
            raise ValueError("A must have eigenvalues below 1e300")
        self.a = a
        self.b = np.zeros(n) if b is None else _vec(b, n)
        self.c = float(c)
        if not (np.all(np.isfinite(self.b)) and math.isfinite(self.c)):
            raise ValueError("b and c must be finite")
        self.n = n

    def _eval(self, pts):
        return 0.5 * np.einsum("mi,ij,mj->m", pts, self.a, pts) + pts @ self.b + self.c

    def _gradient(self, pts):
        return pts @ self.a + self.b

    def _hessian(self, pts):
        return np.broadcast_to(self.a, (len(pts), self.n, self.n)).copy()

    def hessian_elem_sym(self, x, degree):
        pts, scalar = _points(x, self.n)
        e = float(elem_sym_values(np.linalg.eigvalsh(self.a), degree))
        out = np.full(len(pts), e)
        return float(out[0]) if scalar else out

    def subdifferential(self, x):
        return Subdifferential.singleton(self.gradient(x))

    def conjugate(self):
        ainv = np.linalg.inv(self.a)
        ainv = 0.5 * (ainv + ainv.T)
        return Quadratic(ainv, -ainv @ self.b, 0.5 * float(self.b @ ainv @ self.b) - self.c)

    def minimizer(self):
        return -np.linalg.solve(self.a, self.b)

    def smooth_kind(self):
        return "everywhere"

    def grad_radius(self, dirs, s):
        return s / np.linalg.norm(dirs @ self.a, axis=1)

    def radial_profile(self):
        if np.allclose(self.a, self.a[0, 0] * np.eye(self.n)) and not self.b.any():
            lam = self.a[0, 0]
            return lambda r: 0.5 * lam * np.asarray(r) ** 2 + self.c
        return None

    def to_spec(self):
        return {"type": "quadratic", "A": self.a.tolist(), "b": self.b.tolist(), "c": self.c}


class RadialPower(ConvexFunction):
    """u(x) = scale * |x|^p / p, p > 1."""

    is_supercoercive = True
    is_finite = True

    def __init__(self, n: int, p: float, scale: float = 1.0):
        if not (math.isfinite(p) and math.isfinite(scale) and p > 1 and scale > 0):
            raise ValueError("radial power needs finite p > 1 and scale > 0")
        self.n = int(n)
        self.p = float(p)
        self.scale = float(scale)

    def _eval(self, pts):
        return self.scale * np.linalg.norm(pts, axis=1) ** self.p / self.p

    def _gradient(self, pts):
        r = np.linalg.norm(pts, axis=1)
        fac = np.where(r > 0, self.scale * r ** (self.p - 2.0), 0.0)
        if self.p < 2 and np.any(r == 0):
            raise NotDifferentiable("gradient factor diverges at the origin for p < 2")
        return pts * fac[:, None]

    def _hessian(self, pts):
        r = np.linalg.norm(pts, axis=1)
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
        r = np.linalg.norm(pts, axis=1)
        if self.p != 2 and np.any(r == 0):
            raise NotDifferentiable("Hessian of a radial power is singular at the origin")
        tang = self.scale * r ** (self.p - 2.0)
        rad = (self.p - 1.0) * tang
        i = degree
        out = (math.comb(self.n - 1, i) * tang ** i
               + (math.comb(self.n - 1, i - 1) * tang ** (i - 1) * rad if i >= 1 else 0.0))
        return float(out[0]) if scalar else out

    def subdifferential(self, x):
        return Subdifferential.singleton(self.gradient(x))

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
        self.n = int(n)
        self.t = float(t)
        self.r = float(r)

    def _eval(self, pts):
        norms = np.linalg.norm(pts, axis=1)
        return np.where(norms <= self.r + 1e-14, self.t * norms, np.inf)

    def _gradient(self, pts):
        norms = np.linalg.norm(pts, axis=1)
        if np.any(norms == 0) or np.any(norms > self.r + 1e-14):
            raise NotDifferentiable("cone gradient defined for 0 < |x| <= r only")
        return self.t * pts / norms[:, None]

    def subdifferential(self, x):
        x = _vec(x, self.n)
        norm = float(np.linalg.norm(x))
        if norm > self.r + 1e-12:
            raise ValueError("point outside the cone's domain")
        if norm <= 1e-14:
            return Subdifferential.ball(np.zeros(self.n), self.t)
        unit = x / norm
        if norm >= self.r - 1e-12:
            return Subdifferential.generated([self.t * unit], [unit])
        return Subdifferential.singleton(self.t * unit)

    def conjugate(self):
        return RadialHinge(self.n, self.t, self.r)

    @property
    def domain_body(self):
        return Ball(self.r, np.zeros(self.n))

    def minimizer(self):
        return np.zeros(self.n)

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
        self.n = int(n)
        self.t = float(t)
        self.r = float(r)

    def _eval(self, pts):
        return self.r * np.maximum(0.0, np.linalg.norm(pts, axis=1) - self.t)

    def subdifferential(self, x):
        x = _vec(x, self.n)
        norm = float(np.linalg.norm(x))
        if norm <= 1e-14:
            if self.t > 0:
                return Subdifferential.singleton(np.zeros(self.n))
            return Subdifferential.ball(np.zeros(self.n), self.r)
        unit = x / norm
        if norm < self.t - 1e-12:
            return Subdifferential.singleton(np.zeros(self.n))
        if norm <= self.t + 1e-12:
            return Subdifferential.generated([np.zeros(self.n), self.r * unit])
        return Subdifferential.singleton(self.r * unit)

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

    def subdifferential(self, x):
        x = _vec(x, self.n)
        if not self.body.contains(x):
            raise ValueError("point outside the domain")
        body = self.body
        if isinstance(body, Ball):
            d = float(np.linalg.norm(x - body.c))
            if d < body.radius - 1e-12:
                return Subdifferential.singleton(np.zeros(self.n))
            return Subdifferential.generated([np.zeros(self.n)], [(x - body.c) / body.radius])
        if isinstance(body, Box):
            dirs = []
            for i, (a, b) in enumerate(body.intervals):
                if x[i] >= b - 1e-12:
                    dirs.append(np.eye(self.n)[i])
                if x[i] <= a + 1e-12:
                    dirs.append(-np.eye(self.n)[i])
            if not dirs:
                return Subdifferential.singleton(np.zeros(self.n))
            return Subdifferential.generated([np.zeros(self.n)], dirs)
        if isinstance(body, PolytopeV):
            eq = body.facet_equations()
            resid = eq[:, :-1] @ x + eq[:, -1]
            active = eq[np.abs(resid) <= 1e-10, :-1]
            if len(active) == 0:
                return Subdifferential.singleton(np.zeros(self.n))
            return Subdifferential.generated([np.zeros(self.n)], active)
        raise UnsupportedVariant("indicator subdifferential for this body")

    def conjugate(self):
        return SupportFn(self.body)

    @property
    def domain_body(self):
        return self.body

    def minimizer(self):
        if isinstance(self.body, Ball):
            return self.body.c
        if isinstance(self.body, Box):
            return 0.5 * (self.body.lo + self.body.hi)
        return self.body.vertices().mean(axis=0)

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

    def subdifferential(self, x):
        x = _vec(x, self.n)
        body = self.body
        norm = float(np.linalg.norm(x))
        if isinstance(body, Ball):
            if norm <= 1e-14:
                return Subdifferential.ball(body.c, body.radius)
            return Subdifferential.singleton(body.c + body.radius * x / norm)
        if isinstance(body, Box):
            pts = []
            lo, hi = body.lo, body.hi
            choices = [(hi[i],) if x[i] > 1e-12 else (lo[i],) if x[i] < -1e-12
                       else (lo[i], hi[i]) for i in range(self.n)]
            for combo in itertools.product(*choices):
                pts.append(np.array(combo))
            return Subdifferential.generated(pts)
        if isinstance(body, PolytopeV):
            verts = body.vertices()
            vals = verts @ x
            active = verts[vals >= vals.max() - 1e-10 * max(1.0, abs(vals.max()))]
            return Subdifferential.generated(active)
        raise UnsupportedVariant("support-function subdifferential for this body")

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
        self.n = self.slopes.shape[1]
        self.domain = domain
        self.is_finite = domain is None
        self.is_supercoercive = domain is not None and True

    def _eval(self, pts):
        vals = (pts @ self.slopes.T + self.offsets).max(axis=1)
        if self.domain is not None:
            vals = np.where(self.domain.contains(pts), vals, np.inf)
        return vals

    def subdifferential(self, x):
        x = _vec(x, self.n)
        vals = self.slopes @ x + self.offsets
        active = self.slopes[vals >= vals.max() - 1e-10 * max(1.0, abs(vals.max()))]
        if self.domain is not None and not self.domain.contains(x):
            raise ValueError("point outside the domain")
        if self.domain is not None:
            inner = Indicator(self.domain).subdifferential(x)
            if not inner.is_singleton:
                raise UnsupportedVariant("max-affine subdifferential on the domain boundary")
        return Subdifferential.generated(active)

    def conjugate(self):
        if self.domain is None and not self.offsets.any() and self.n <= 3:
            if self.n == 1:
                lo, hi = float(self.slopes.min()), float(self.slopes.max())
                return Indicator(Box([(lo, hi)]))
            return Indicator(PolytopeV(self.slopes))
        raise UnsupportedVariant("conjugate of this max-affine form leaves the catalog")

    @property
    def domain_body(self):
        return self.domain

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

    def subdifferential(self, x):
        return self.inner.subdifferential(_vec(x, self.n) - self.x0)

    def conjugate(self):
        return PlusAffine(self.inner.conjugate(), self.x0, -self.alpha)

    @property
    def domain_body(self):
        inner = self.inner.domain_body
        if inner is None:
            return None
        if isinstance(inner, Ball):
            return Ball(inner.radius, inner.c + self.x0)
        if isinstance(inner, Box):
            return Box(np.stack([inner.lo + self.x0, inner.hi + self.x0], axis=1))
        if isinstance(inner, PolytopeV):
            return PolytopeV(inner.vertices() + self.x0)
        return None

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
        if q.shape != (inner.n, inner.n) or not np.allclose(q @ q.T, np.eye(inner.n), atol=1e-10):
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

    def subdifferential(self, x):
        inner = self.inner.subdifferential(self.q.T @ _vec(x, self.n))
        return _map_subdiff(inner, lambda v: self.q @ v)

    def conjugate(self):
        return Rotated(self.inner.conjugate(), self.q)

    @property
    def domain_body(self):
        inner = self.inner.domain_body
        if inner is None:
            return None
        if isinstance(inner, Ball):
            return Ball(inner.radius, self.q @ inner.c)
        if isinstance(inner, (Box, PolytopeV)) and self.n in (2, 3):
            return PolytopeV(inner.vertices() @ self.q.T)
        return None

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
        if lam <= 0:
            raise ValueError("epigraph scaling needs lam > 0")
        # exact folds keep the catalog small
        if isinstance(inner, Quadratic):
            return Quadratic(inner.a / lam, inner.b, lam * inner.c)
        if isinstance(inner, RadialPower):
            return RadialPower(inner.n, inner.p, inner.scale * lam ** (1.0 - inner.p))
        if isinstance(inner, Cone):
            return Cone(inner.n, inner.t, lam * inner.r)
        if isinstance(inner, Indicator):
            return Indicator(_scale_body(inner.body, lam))
        obj = object.__new__(cls)
        return obj

    def __init__(self, inner: ConvexFunction, lam: float):
        if not hasattr(self, "inner"):
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

    def subdifferential(self, x):
        return self.inner.subdifferential(_vec(x, self.n) / self.lam)

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

    def __init__(self, inner: ConvexFunction, c: float):
        if c <= 0:
            raise ValueError("pointwise scaling needs c > 0")
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

    def subdifferential(self, x):
        return _map_subdiff(self.inner.subdifferential(x), lambda v: self.c * v,
                            scale_radius=self.c)

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
        self.n = inner.n
        self.is_supercoercive = inner.is_supercoercive
        self.is_finite = inner.is_finite

    def _eval(self, pts):
        return self.inner._eval(pts) + pts @ self.slope + self.const

    def _gradient(self, pts):
        return self.inner._gradient(pts) + self.slope

    def _hessian(self, pts):
        return self.inner._hessian(pts)

    def subdifferential(self, x):
        return _map_subdiff(self.inner.subdifferential(x), lambda v: v + self.slope,
                            shift=self.slope)

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
        if not hasattr(self, "left"):
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

    def subdifferential(self, x):
        a = self.left.subdifferential(x)
        b = self.right.subdifferential(x)
        if a.is_singleton:
            return _map_subdiff(b, lambda v: v + a.gradient(), shift=a.gradient())
        if b.is_singleton:
            return _map_subdiff(a, lambda v: v + b.gradient(), shift=b.gradient())
        raise UnsupportedVariant("sum of two non-singleton subdifferentials")

    def conjugate(self):
        return InfConv(self.left.conjugate(), self.right.conjugate())

    @property
    def domain_body(self):
        bodies = [b for b in (self.left.domain_body, self.right.domain_body) if b is not None]
        if not bodies:
            return None
        if len(bodies) == 1:
            return bodies[0]
        raise UnsupportedVariant("intersection of two bounded domains is not realized")

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
        if not hasattr(self, "left"):
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


def _scale_body(body: ConvexBody, lam: float) -> ConvexBody:
    if isinstance(body, Ball):
        return Ball(lam * body.radius, lam * body.c)
    if isinstance(body, Box):
        return Box(np.stack([lam * body.lo, lam * body.hi], axis=1))
    if isinstance(body, PolytopeV):
        return PolytopeV(lam * body.vertices())
    raise UnsupportedVariant("cannot scale this body")


def _map_subdiff(sd: Subdifferential, f, shift=None, scale_radius=1.0) -> Subdifferential:
    if sd.kind == "point":
        return Subdifferential.singleton(f(sd.point))
    if sd.kind == "ball":
        center = f(sd.center) if shift is None else sd.center + shift
        return Subdifferential.ball(center, sd.radius * scale_radius)
    pts = np.array([f(p) for p in sd.points])
    dirs = None
    if sd.directions is not None and len(sd.directions):
        if shift is not None:
            dirs = sd.directions.copy()
        else:
            dirs = np.array([f(d) - f(np.zeros_like(d)) for d in sd.directions])
    return Subdifferential.generated(pts, dirs)


# ---------------------------------------------------------------------------
# Module-level operations


def conjugate(u: ConvexFunction) -> ConvexFunction:
    """Legendre-Fenchel transform within the catalog."""
    return u.conjugate()


def inf_conv(u1: ConvexFunction, u2: ConvexFunction) -> ConvexFunction:
    return InfConv(u1, u2)


def epi_scale(u: ConvexFunction, lam: float) -> ConvexFunction:
    return EpiScaled(u, lam)


def epi_translate(u: ConvexFunction, x0, alpha: float = 0.0) -> ConvexFunction:
    return EpiTranslated(u, x0, alpha)


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
    try:
        if t == "ball":
            return Ball(spec["r"], spec["center"])
        if t == "box":
            return Box(spec["intervals"])
        if t == "polytope":
            return PolytopeV(spec["vertices"])
    except KeyError as exc:
        raise SchemaError(f"body spec '{t}' is missing field {exc}") from exc
    except (TypeError, ValueError) as exc:
        raise SchemaError(f"invalid body spec '{t}': {exc}") from exc
    raise SchemaError(f"unknown body type {t!r}")


def body_to_spec(body: ConvexBody) -> dict:
    return body.to_spec()


def function_from_spec(spec: dict) -> ConvexFunction:
    if not isinstance(spec, dict) or "type" not in spec:
        raise SchemaError(f"function spec must be an object with a 'type': {spec!r}")
    t = spec["type"]
    try:
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
    except KeyError as exc:
        raise SchemaError(f"function spec '{t}' is missing field {exc}") from exc
    except (TypeError, ValueError) as exc:
        raise SchemaError(f"invalid function spec '{t}': {exc}") from exc
    raise SchemaError(f"unknown function type {t!r}")


def function_to_spec(u: ConvexFunction) -> dict:
    return u.to_spec()
