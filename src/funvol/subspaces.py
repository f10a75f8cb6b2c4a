"""Linear subspaces, Haar sampling, projection functions, and restrictions.

A subspace is stored as a column-orthonormal frame identifying it with R^k;
rotation invariance of everything downstream makes the frame choice
immaterial.  Projection functions (minimum over the orthogonal fiber) are
realized as catalog variants wherever a closed form exists; the numeric
fallback is coordinate descent over the fiber with Armijo backtracking and a
visible convergence report.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .convex import (Cone, ConvexFunction, EpiScaled, EpiTranslated, Indicator,
                     InfConv, MaxAffine, PlusAffine, PointwiseScaled,
                     PointwiseSum, Quadratic, RadialHinge, RadialPower,
                     Rotated, SupportFn, project_body)
from .errors import MinimizerNotFound, NotDifferentiable, UnsupportedVariant
from .numerics import Rng

__all__ = [
    "Subspace",
    "ProjectedFunction",
    "sample_grassmann",
    "sample_rotation",
    "project_function",
    "restrict_function",
    "check_conjugate_projection",
    "check_projection_subgradient",
    "SubgradientVerdict",
]

_ORTHO_TOL = 1e-12


class Subspace:
    """A k-dimensional linear subspace of R^n spanned by an orthonormal frame."""

    def __init__(self, frame: np.ndarray, complement: np.ndarray | None = None):
        frame = np.asarray(frame, dtype=float)
        if frame.ndim != 2:
            raise ValueError("frame must be an (n, k) matrix")
        n, k = frame.shape
        if not 1 <= k <= n:
            raise ValueError(f"need 1 <= k <= n, got k={k}, n={n}")
        gram = frame.T @ frame
        if np.abs(gram - np.eye(k)).max() > _ORTHO_TOL:
            raise ValueError("frame columns are not orthonormal")
        self.frame = frame
        self.n = n
        self.k = k
        if complement is None:
            complement = np.linalg.qr(frame, mode="complete")[0][:, k:]
        self.complement = np.asarray(complement, dtype=float)
        if self.complement.shape != (n, n - k):
            raise ValueError("complement frame has the wrong shape")
        if k < n and np.abs(frame.T @ self.complement).max() > _ORTHO_TOL:
            raise ValueError("complement is not orthogonal to the frame")

    def __repr__(self):
        return f"Subspace(k={self.k}, n={self.n})"


def sample_grassmann(n: int, k: int, rng: Rng) -> Subspace:
    """Haar-distributed subspace: frame and complement from one sign-fixed complete QR."""
    g = rng.generator().standard_normal((n, k))
    q, r = np.linalg.qr(g, mode="complete")
    q[:, :k] *= np.sign(np.diag(r))
    return Subspace(q[:, :k], q[:, k:])


def sample_rotation(n: int, rng: Rng) -> np.ndarray:
    """Haar rotation: sign-fixed QR with the determinant corrected to +1."""
    g = rng.generator().standard_normal((n, n))
    q, r = np.linalg.qr(g)
    q = q * np.sign(np.diag(r))
    if np.linalg.det(q) < 0:
        q[:, -1] = -q[:, -1]
    return q


# ---------------------------------------------------------------------------
# Projection functions


@dataclass(frozen=True)
class ProjectedFunction:
    """min over the fiber x_E + E-perp of the source, realized in E-coordinates."""
    source: ConvexFunction
    subspace: Subspace
    realized: ConvexFunction


class NumericProjection(ConvexFunction):
    """Fallback realization evaluating the fiber minimum numerically.

    Coordinate descent over the fiber with Armijo backtracking; iteration
    counts of the last evaluation are kept for reporting.
    """

    is_supercoercive = True

    def __init__(self, source: ConvexFunction, subspace: Subspace,
                 tol: float = 1e-10, max_sweeps: int = 400):
        self.source = source
        self.subspace = subspace
        self.tol = tol
        self.max_sweeps = max_sweeps
        self.n = subspace.k
        self.last_iterations = 0

    def _minimize_fiber(self, base: np.ndarray) -> tuple[float, np.ndarray, int]:
        g = self.subspace.complement
        m = g.shape[1]
        w = np.zeros(m)
        f = float(self.source(base))
        if m == 0:
            return f, w, 0
        sweeps = 0
        step0 = 1.0
        h = 1e-7
        for sweeps in range(1, self.max_sweeps + 1):
            f_before = f
            for i in range(m):
                e = g[:, i]

                def val(t):
                    return float(self.source(base + g @ w + t * e))

                slope = (val(h) - val(-h)) / (2.0 * h)
                if not np.isfinite(slope):
                    # one-sided probe at a domain boundary
                    slope = (val(h) - f) / h if np.isfinite(val(h)) else (f - val(-h)) / h
                if abs(slope) < self.tol:
                    continue
                direction = -np.sign(slope)
                alpha = step0
                while alpha > 1e-14:
                    cand = val(direction * alpha)
                    if cand <= f - 0.25 * alpha * abs(slope):
                        w[i] += direction * alpha
                        f = cand
                        break
                    alpha *= 0.5
            if f_before - f < self.tol:
                return f, w, sweeps
        raise MinimizerNotFound(
            f"fiber minimization did not converge in {self.max_sweeps} sweeps")

    def _eval(self, pts):
        out = np.empty(len(pts))
        iters = 0
        for i, xe in enumerate(pts):
            base = self.subspace.frame @ xe
            out[i], _, it = self._minimize_fiber(base)
            iters = max(iters, it)
        self.last_iterations = iters
        return out

    def fiber_minimizer(self, x_e) -> np.ndarray:
        base = self.subspace.frame @ np.asarray(x_e, dtype=float)
        _, w, _ = self._minimize_fiber(base)
        return base + self.subspace.complement @ w


def project_function(u: ConvexFunction, e: Subspace) -> ProjectedFunction:
    """Projection function of a super-coercive u onto a subspace.

    Closed forms per variant (Schur complement for quadratics, dimension drop
    for radial variants, body shadow for indicators); anything else falls back
    to numeric fiber minimization.
    """
    if not u.is_supercoercive:
        raise UnsupportedVariant("projection functions need a super-coercive source")
    realized = _project(u, e)
    return ProjectedFunction(u, e, realized)


def _project(u: ConvexFunction, e: Subspace) -> ConvexFunction:
    f, g = e.frame, e.complement
    k = e.k
    if isinstance(u, Quadratic):
        if k == u.n:
            return Quadratic(f.T @ u.a @ f, f.T @ u.b, u.c)
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
    if isinstance(u, RadialPower):
        return RadialPower(k, u.p, u.scale)
    if isinstance(u, Cone):
        return Cone(k, u.t, u.r)
    if isinstance(u, Indicator):
        return Indicator(project_body(u.body, f))
    if isinstance(u, EpiTranslated):
        return EpiTranslated(_project(u.inner, e), f.T @ u.x0, u.alpha)
    if isinstance(u, Rotated):
        rotated_e = Subspace(u.q.T @ f, u.q.T @ g if g.size else g)
        return _project(u.inner, rotated_e)
    if isinstance(u, EpiScaled):
        return EpiScaled(_project(u.inner, e), u.lam)
    if isinstance(u, PointwiseScaled):
        return PointwiseScaled(_project(u.inner, e), u.c)
    if isinstance(u, InfConv):
        return InfConv(_project(u.left, e), _project(u.right, e))
    return NumericProjection(u, e)


def restrict_function(v: ConvexFunction, e: Subspace) -> ConvexFunction:
    """Restriction of a finite-valued v to the subspace, in E-coordinates."""
    if not v.is_finite:
        raise UnsupportedVariant("restriction is defined for finite-valued functions")
    return _restrict(v, e)


def _restrict(v: ConvexFunction, e: Subspace) -> ConvexFunction:
    f = e.frame
    k = e.k
    if isinstance(v, Quadratic):
        return Quadratic(f.T @ v.a @ f, f.T @ v.b, v.c)
    if isinstance(v, RadialPower):
        return RadialPower(k, v.p, v.scale)
    if isinstance(v, RadialHinge):
        return RadialHinge(k, v.t, v.r)
    if isinstance(v, SupportFn):
        # h of the shadow agrees with h of the body on the subspace
        return SupportFn(project_body(v.body, f))
    if isinstance(v, MaxAffine) and v.domain is None:
        return MaxAffine(v.slopes @ f, v.offsets)
    if isinstance(v, PointwiseScaled):
        return PointwiseScaled(_restrict(v.inner, e), v.c)
    if isinstance(v, PlusAffine):
        return PlusAffine(_restrict(v.inner, e), f.T @ v.slope, v.const)
    if isinstance(v, PointwiseSum):
        return PointwiseSum(_restrict(v.left, e), _restrict(v.right, e))
    if isinstance(v, Rotated):
        return _restrict(v.inner, Subspace(v.q.T @ f))
    raise UnsupportedVariant(f"restriction of {type(v).__name__} is not realized")


# ---------------------------------------------------------------------------
# Identity checks


def check_conjugate_projection(u: ConvexFunction, e: Subspace, grid) -> float:
    """Max over the grid of |(proj u)^*(x) - (u^*)|_E(x)| using in-E conjugation."""
    grid = np.atleast_2d(np.asarray(grid, dtype=float))
    proj = project_function(u, e).realized
    lhs_fn = proj.conjugate()
    rhs_fn = restrict_function(u.conjugate(), e)
    lhs = np.asarray(lhs_fn(grid))
    rhs = np.asarray(rhs_fn(grid))
    both_inf = ~np.isfinite(lhs) & ~np.isfinite(rhs)
    diff = np.abs(lhs - rhs)
    diff[both_inf] = 0.0
    return float(diff.max())


@dataclass(frozen=True)
class SubgradientVerdict:
    ok: bool
    max_violation: float
    minimizer: np.ndarray
    lifted_gradient: np.ndarray
    iterations: int


def check_projection_subgradient(u: ConvexFunction, e: Subspace, x_e, rng: Rng,
                                 trials: int = 200) -> SubgradientVerdict:
    """Verify that the projected gradient at x_E lifts to a subgradient of u.

    Finds a fiber minimizer x (closed form or numeric), sets y = frame @ grad,
    and tests the subgradient inequality at random points.
    """
    x_e = np.asarray(x_e, dtype=float)
    proj = project_function(u, e).realized
    try:
        y_e = proj.gradient(x_e)
    except NotDifferentiable:
        sd = proj.subdifferential(x_e)
        if not sd.is_singleton:
            raise
        y_e = sd.gradient()
    x, iters = _fiber_minimizer(u, e, x_e)
    y = e.frame @ y_e
    gen = rng.generator()
    z = x + gen.uniform(-2.0, 2.0, size=(trials, u.n))
    vals = np.asarray(u(z))
    bound = float(u(x)) + (z - x) @ y
    finite = np.isfinite(vals)
    violation = float(np.maximum(bound[finite] - vals[finite], 0.0).max(initial=0.0))
    return SubgradientVerdict(violation <= 1e-10, violation, x, y, iters)


def _fiber_minimizer(u: ConvexFunction, e: Subspace, x_e) -> tuple[np.ndarray, int]:
    f, g = e.frame, e.complement
    if isinstance(u, Quadratic):
        if e.k == u.n:
            return f @ x_e, 0
        a_gg = g.T @ u.a @ g
        w = -np.linalg.solve(a_gg, g.T @ (u.a @ (f @ x_e)) + g.T @ u.b)
        return f @ x_e + g @ w, 0
    if isinstance(u, (RadialPower, Cone)):
        return f @ x_e, 0
    if isinstance(u, Indicator) and u.body.contains(f @ x_e):
        return f @ x_e, 0
    if isinstance(u, EpiTranslated):
        x_inner, it = _fiber_minimizer(u.inner, e, np.asarray(x_e) - f.T @ u.x0)
        return x_inner + u.x0, it
    numeric = NumericProjection(u, e)
    x = numeric.fiber_minimizer(x_e)
    return x, numeric.last_iterations
