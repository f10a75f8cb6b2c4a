"""Shared numerical substrate.

Quadrature on intervals and in polar coordinates, elementary symmetric
functions of eigenvalues, unit-ball volumes, and a counter-based
deterministic RNG.  Everything here is pure; quadrature routines report an
error estimate alongside the value and raise :class:`NonConvergedError` when
the fixed budget (bisection depth, panel count, angular level) runs out
before the fixed tolerance is met.  One adaptive loop refines the panels of
both interval and radial quadrature.  A singular endpoint is graded,
r = t^2, and refined by the same adaptive panels as the rest of the range.
Sphere rules, and so polar quadrature, cover n <= 4; a larger n is an
:class:`UnsupportedVariant`.
"""
from __future__ import annotations

import heapq
import math
from dataclasses import dataclass

import numpy as np

from .errors import NonConvergedError, SchemaError, UnsupportedVariant

__all__ = [
    "MAX_DIM",
    "kappa",
    "flag_coefficient",
    "elem_sym_values",
    "QuadratureResult",
    "integrate_interval",
    "integrate_polar_separable",
    "sphere_rule",
    "Rng",
]

MAX_DIM = 6        # exact evaluators (matrices, bodies)
_GRADE = 2         # graded endpoint substitution x = t^_GRADE toward a singular end


def kappa(j: int) -> float:
    """Volume of the j-dimensional unit ball; kappa(0) = 1."""
    if j < 0:
        raise ValueError(f"kappa needs j >= 0, got {j}")
    return math.pi ** (j / 2.0) / math.gamma(j / 2.0 + 1.0)


def flag_coefficient(n: int, k: int) -> float:
    """The constant kappa_n / (kappa_k * kappa_{n-k}) * C(n, k)."""
    if not 0 <= k <= n:
        raise ValueError(f"need 0 <= k <= n, got k={k}, n={n}")
    return kappa(n) / (kappa(k) * kappa(n - k)) * math.comb(n, k)


# ---------------------------------------------------------------------------
# Symmetric functions of eigenvalues


def elem_sym_values(values: np.ndarray, i: int) -> np.ndarray:
    """e_i of the entries along the last axis (e_0 = 1), batched.

    Newton-free direct recursion; exact up to rounding for the small n used here.
    """
    v = np.asarray(values, dtype=float)
    n = v.shape[-1]
    if not 0 <= i <= n:
        raise ValueError(f"need 0 <= i <= n={n}, got {i}")
    e = np.zeros(v.shape[:-1] + (i + 1,))
    e[..., 0] = 1.0
    for k in range(n):
        top = min(k + 1, i)
        for d in range(top, 0, -1):
            e[..., d] += v[..., k] * e[..., d - 1]
    return e[..., i]


# ---------------------------------------------------------------------------
# Quadrature


_INTERVAL_ORDER = 31   # Gauss order of an interval panel
_POLAR_ORDER = 15      # Gauss order of a radial panel in polar quadrature
_MAX_PANELS = 400_000  # panel budget of one adaptive refinement
_MAX_DEPTH = 40        # bisection depth budget of one panel
_ABS_TOL = 1e-10       # a refinement stops once its error is at most
_REL_TOL = 1e-9        # max(_ABS_TOL, _REL_TOL * |value|)
_LEVEL = 8             # first fine angular level of polar quadrature
_MAX_LEVEL = 64        # angular level budget of polar quadrature


@dataclass(frozen=True)
class QuadratureResult:
    value: float
    error: float
    evaluations: int


_LEG_CACHE: dict[int, tuple[np.ndarray, np.ndarray]] = {}


def _leggauss(order: int) -> tuple[np.ndarray, np.ndarray]:
    if order not in _LEG_CACHE:
        _LEG_CACHE[order] = np.polynomial.legendre.leggauss(order)
    return _LEG_CACHE[order]


def _gauss_pair(order: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Nodes of the order-point Gauss rule followed by those of its lower
    companion on [-1, 1], with the two weight vectors."""
    x_hi, w_hi = _leggauss(order)
    x_lo, w_lo = _leggauss(max(3, (order + 1) // 2))
    return np.concatenate([x_hi, x_lo]), w_hi, w_lo


class _CountingFn:
    """Wraps a vectorized integrand and counts the points it is called at."""

    def __init__(self, f):
        self.f = f
        self.count = 0

    def __call__(self, x: np.ndarray) -> np.ndarray:
        self.count += len(x)
        return np.asarray(self.f(x), dtype=float)


def _refine(panel, edges, fn: _CountingFn, what: str) -> tuple[float, float]:
    """Adaptive bisection of the panels between consecutive ``edges``.

    ``panel(a, b)`` returns (estimate, error) on [a, b].  The panel with the
    largest error is split until the summed error is within tolerance;
    :class:`NonConvergedError` is raised when that panel sits at
    ``_MAX_DEPTH`` or the panel count reaches ``_MAX_PANELS``.
    """
    total, total_err = 0.0, 0.0
    heap = []
    for uid, (a, b) in enumerate(zip(edges[:-1], edges[1:])):
        v, err = panel(a, b)
        total += v
        total_err += err
        heapq.heappush(heap, (-err, uid, 0, a, b, v, err))
    uid = len(heap)
    while total_err > max(_ABS_TOL, _REL_TOL * abs(total)):
        _, _, depth, a, b, v, err = heapq.heappop(heap)
        if depth >= _MAX_DEPTH or len(heap) >= _MAX_PANELS:
            raise NonConvergedError(
                f"{what} did not converge at depth {depth} with {len(heap) + 1} "
                f"panels (error {total_err:.3e})", total, total_err, fn.count)
        mid = 0.5 * (a + b)
        lv, le = panel(a, mid)
        rv, re = panel(mid, b)
        total += lv + rv - v
        total_err += le + re - err
        heapq.heappush(heap, (-le, uid, depth + 1, a, mid, lv, le))
        heapq.heappush(heap, (-re, uid + 1, depth + 1, mid, b, rv, re))
        uid += 2
    return total, total_err


def integrate_interval(f, a: float, b: float, *,
                       singular_left: bool = False) -> QuadratureResult:
    """Adaptive Gauss estimate of the integral of ``f`` over a finite (a, b).

    Panels carry a 31-point rule checked against a 16-point one and are
    bisected in x.  With ``singular_left`` the graded substitution
    x = a + (b-a) t^2 clusters the nodes at ``a`` and the panels are bisected
    in t, so integrable endpoint singularities (log, or power of exponent
    > -1) converge; x^(-1/2) becomes smooth.
    """
    if not (math.isfinite(a) and math.isfinite(b)):
        raise ValueError(f"interval quadrature needs finite bounds, got [{a}, {b}]")
    if b <= a:
        return QuadratureResult(0.0, 0.0, 0)
    fn = _CountingFn(f)
    nodes, w_hi, w_lo = _gauss_pair(_INTERVAL_ORDER)
    width = b - a

    def panel(pa: float, pb: float) -> tuple[float, float]:
        half, mid = 0.5 * (pb - pa), 0.5 * (pa + pb)
        t = mid + half * nodes
        if singular_left:
            vals = fn(a + width * t ** _GRADE) * (width * _GRADE * t ** (_GRADE - 1))
        else:
            vals = fn(t)
        hi = half * float(vals[:_INTERVAL_ORDER] @ w_hi)
        lo = half * float(vals[_INTERVAL_ORDER:] @ w_lo)
        return hi, abs(hi - lo)

    edges = (0.0, 1.0) if singular_left else (a, b)
    value, error = _refine(panel, edges, fn, f"interval quadrature on [{a}, {b}]")
    return QuadratureResult(value, error, fn.count)


# -- sphere rules and polar quadrature --------------------------------------


def sphere_rule(n: int, level: int) -> tuple[np.ndarray, np.ndarray]:
    """Directions and weights integrating over the unit sphere S^{n-1}.

    Weights sum to the sphere's surface area n * kappa_n.  ``level`` scales
    the resolution; the rules converge rapidly for smooth angular integrands.
    Rules exist for 1 <= n <= 4; any other n raises :class:`UnsupportedVariant`.
    """
    if n == 1:
        return np.array([[1.0], [-1.0]]), np.array([1.0, 1.0])
    if n == 2:
        m = 4 * level
        theta = 2.0 * math.pi * np.arange(m) / m
        dirs = np.stack([np.cos(theta), np.sin(theta)], axis=-1)
        return dirs, np.full(m, 2.0 * math.pi / m)
    if n == 3:
        nz = 2 * level
        mphi = 4 * level
        z, wz = _leggauss(nz)
        phi = 2.0 * math.pi * np.arange(mphi) / mphi
        s = np.sqrt(1.0 - z ** 2)
        dirs = np.stack([
            np.outer(s, np.cos(phi)).ravel(),
            np.outer(s, np.sin(phi)).ravel(),
            np.repeat(z, mphi),
        ], axis=-1)
        wts = np.repeat(wz, mphi) * (2.0 * math.pi / mphi)
        return dirs, wts
    if n == 4:
        npsi = 2 * level
        nz = 2 * level
        mphi = 4 * level
        # psi in [0, pi] with measure sin^2(psi); Gauss nodes on [-1, 1] mapped.
        t, wt = _leggauss(npsi)
        psi = 0.5 * math.pi * (t + 1.0)
        wpsi = 0.5 * math.pi * wt * np.sin(psi) ** 2
        z, wz = _leggauss(nz)
        phi = 2.0 * math.pi * np.arange(mphi) / mphi
        s = np.sqrt(1.0 - z ** 2)
        ring = np.stack([
            np.outer(s, np.cos(phi)).ravel(),
            np.outer(s, np.sin(phi)).ravel(),
            np.repeat(z, mphi),
        ], axis=-1)
        wring = np.repeat(wz, mphi) * (2.0 * math.pi / mphi)
        dirs = np.concatenate([
            np.concatenate([np.full((len(ring), 1), math.cos(p)),
                            math.sin(p) * ring], axis=1)
            for p in psi
        ])
        wts = np.concatenate([wp * wring for wp in wpsi])
        return dirs, wts
    raise UnsupportedVariant(f"sphere rules and polar quadrature cover n <= 4, got n = {n}")


def integrate_polar_separable(f, n: int, r_max, *, break_ratios=(),
                              singular_center: bool = False) -> QuadratureResult:
    """Polar quadrature around the origin when the integrand's radial kinks sit
    at shared ratios.

    With r = R(direction) * tau, panels in tau are identical across rays, so a
    whole sphere rule is evaluated in a handful of batched integrand calls.
    With ``singular_center`` the graded substitution tau = t^2 (break ratios
    mapped to their square roots) clusters the nodes at the center.  Panels
    carry a 15-point rule checked against an 8-point one and are refined by
    the same adaptive loop as intervals, on the shared grid (aggregated
    error); the angular level doubles from ``_LEVEL`` until consecutive
    sphere rules agree.  Raises :class:`NonConvergedError` when a panel
    reaches ``_MAX_DEPTH`` or the level reaches ``_MAX_LEVEL`` without
    agreement.
    """
    fn = _CountingFn(f)
    grade = _GRADE if singular_center else 1
    edges = [0.0] + [e ** (1.0 / grade) for e in sorted(
        {float(t) for t in break_ratios if 1e-14 < t < 1.0 - 1e-14} | {1.0})]
    nodes, w_hi, w_lo = _gauss_pair(_POLAR_ORDER)

    def run(lv: int) -> tuple[float, float]:
        dirs, wts = sphere_rule(n, lv)
        radii = r_max(dirs) if callable(r_max) else np.full(len(dirs), float(r_max))
        scale = wts * radii ** n  # substitution r = R * tau

        def panel(a: float, b: float) -> tuple[float, float]:
            half, mid = 0.5 * (b - a), 0.5 * (a + b)
            t = mid + half * nodes
            tau = t ** grade
            pts = (radii[:, None] * tau[None, :])[:, :, None] * dirs[:, None, :]
            vals = fn(pts.reshape(-1, n)).reshape(len(dirs), len(t))
            vals = vals * (tau ** (n - 1) * (grade * t ** (grade - 1)))[None, :]
            hi = half * float(scale @ (vals[:, :_POLAR_ORDER] @ w_hi))
            lo = half * float(scale @ (vals[:, _POLAR_ORDER:] @ w_lo))
            return hi, abs(hi - lo)

        return _refine(panel, edges, fn, "radial refinement")

    if n == 1:
        value, error = run(1)
        return QuadratureResult(value, error, fn.count)
    prev, _ = run(max(2, _LEVEL // 2))
    lv = _LEVEL
    while True:
        fine, rad_err = run(lv)
        ang_err = abs(fine - prev)
        if ang_err <= max(_ABS_TOL, _REL_TOL * abs(fine)):
            return QuadratureResult(fine, rad_err + ang_err, fn.count)
        if lv >= _MAX_LEVEL:
            raise NonConvergedError(
                f"angular refinement hit level {_MAX_LEVEL} (error {ang_err:.3e})",
                fine, rad_err + ang_err, fn.count)
        prev = fine
        lv *= 2


# ---------------------------------------------------------------------------
# RNG


_STREAM_FANOUT = 1 << 16


@dataclass(frozen=True)
class Rng:
    """Counter-based deterministic RNG (Philox).

    Identical (seed, counter) reproduces identical draws across runs.
    ``stream(i)`` derives disjoint child streams, so each Monte Carlo sample
    draws from its own counter range and never shares state.  The seed is a
    Philox key, an integer in [0, 2**128).
    """
    seed: int = 0
    counter: int = 0

    def __post_init__(self):
        if not 0 <= self.seed < 1 << 128:
            raise SchemaError(f"seed must be an integer in [0, 2**128), got {self.seed}")

    def stream(self, index: int) -> "Rng":
        if index < 0 or index >= _STREAM_FANOUT - 1:
            raise ValueError(f"stream index out of range: {index}")
        return Rng(self.seed, self.counter * _STREAM_FANOUT + index + 1)

    def generator(self) -> np.random.Generator:
        return np.random.Generator(np.random.Philox(key=self.seed, counter=self.counter << 64))
