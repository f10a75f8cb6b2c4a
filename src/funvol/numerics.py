"""Shared numerical substrate.

Quadrature on intervals and in polar coordinates, elementary symmetric
functions of symmetric-matrix eigenvalues, unit-ball volumes, and a
counter-based deterministic RNG.  Everything here is pure; quadrature
routines report an error estimate alongside the value and raise
:class:`NonConvergedError` when the budget runs out before the tolerance is
met.  A singular endpoint is graded, r = t^2, and refined by the same
adaptive panels as the rest of the range.
"""
from __future__ import annotations

import heapq
import math
from dataclasses import dataclass

import numpy as np

from .errors import NonConvergedError, SchemaError

__all__ = [
    "MAX_DIM",
    "kappa",
    "flag_coefficient",
    "eigenvalues",
    "elem_sym",
    "elem_sym_values",
    "QuadratureConfig",
    "QuadratureResult",
    "DEFAULT_CONFIG",
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


def eigenvalues(a) -> np.ndarray:
    """Eigenvalues of a symmetric matrix, ascending."""
    return np.linalg.eigvalsh(np.asarray(a, dtype=float))


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


def elem_sym(a, i: int) -> float:
    """i-th elementary symmetric function of the eigenvalues of a symmetric matrix."""
    return float(elem_sym_values(eigenvalues(a), i))


# ---------------------------------------------------------------------------
# Quadrature


@dataclass(frozen=True)
class QuadratureConfig:
    """Knobs for the adaptive quadrature routines.

    ``order`` is the per-panel Gauss order on intervals.  ``max_depth``
    bounds the bisection depth of a panel.
    """
    order: int = 31
    max_depth: int = 40
    abs_tol: float = 1e-10
    rel_tol: float = 1e-9
    max_panels: int = 400_000

    def __post_init__(self):
        if self.abs_tol <= 0 or self.rel_tol <= 0:
            raise ValueError("tolerances must be strictly positive")
        if self.max_depth < 1:
            raise ValueError("depth limit must be >= 1")


DEFAULT_CONFIG = QuadratureConfig()


@dataclass(frozen=True)
class QuadratureResult:
    value: float
    error: float
    evaluations: int

    def __iter__(self):
        return iter((self.value, self.error))


_LEG_CACHE: dict[int, tuple[np.ndarray, np.ndarray]] = {}


def _leggauss(order: int) -> tuple[np.ndarray, np.ndarray]:
    if order not in _LEG_CACHE:
        _LEG_CACHE[order] = np.polynomial.legendre.leggauss(order)
    return _LEG_CACHE[order]


class _CountingFn:
    """Wraps an integrand; calls it vectorized, falling back to a python loop once."""

    def __init__(self, f):
        self.f = f
        self.count = 0
        self._scalar = None

    def __call__(self, x: np.ndarray) -> np.ndarray:
        self.count += len(x)
        if self._scalar is None:
            try:
                out = np.asarray(self.f(x), dtype=float)
                if out.shape == (len(x),):
                    self._scalar = False
                    return out
            except Exception:
                pass
            self._scalar = True
        if self._scalar:
            return np.array([float(self.f(xi)) for xi in x])
        return np.asarray(self.f(x), dtype=float)


def _panel_pair(f: _CountingFn, a: float, b: float, order: int) -> tuple[float, float]:
    """(high-order estimate, |high - low|) on [a, b]."""
    half = 0.5 * (b - a)
    mid = 0.5 * (a + b)
    x_hi, w_hi = _leggauss(order)
    lo_order = max(3, (order + 1) // 2)
    x_lo, w_lo = _leggauss(lo_order)
    vals = f(np.concatenate([mid + half * x_hi, mid + half * x_lo]))
    hi = half * float(vals[:order] @ w_hi)
    lo = half * float(vals[order:] @ w_lo)
    return hi, abs(hi - lo)


def _adaptive_interval(f: _CountingFn, a: float, b: float, cfg: QuadratureConfig,
                       tol: float) -> tuple[float, float, bool]:
    """Heap-refined adaptive Gauss on [a, b]; returns (value, error, converged)."""
    hi, err = _panel_pair(f, a, b, cfg.order)
    heap = [(-err, 0, a, b, hi, err)]
    total, total_err = hi, err
    tick = 1
    while total_err > max(tol, cfg.rel_tol * abs(total)):
        neg, depth, pa, pb, pv, pe = heapq.heappop(heap)
        if depth >= cfg.max_depth or len(heap) > cfg.max_panels:
            heapq.heappush(heap, (neg, depth, pa, pb, pv, pe))
            return total, total_err, False
        pm = 0.5 * (pa + pb)
        lv, le = _panel_pair(f, pa, pm, cfg.order)
        rv, re = _panel_pair(f, pm, pb, cfg.order)
        total += lv + rv - pv
        total_err += le + re - pe
        heapq.heappush(heap, (-le, depth + 1, pa, pm, lv, le))
        heapq.heappush(heap, (-re, depth + 1, pm, pb, rv, re))
        tick += 1
        if tick > cfg.max_panels:
            return total, total_err, False
    return total, total_err, True


def integrate_interval(f, a: float, b: float, cfg: QuadratureConfig | None = None, *,
                       support_bound: float | None = None,
                       singular_left: bool = False) -> QuadratureResult:
    """Adaptive estimate of the integral of ``f`` over (a, b).

    ``b`` may be ``inf`` provided ``support_bound`` gives a finite point beyond
    which ``f`` vanishes.  With ``singular_left`` the graded substitution
    x = a + (b-a) t^2 clusters the nodes at ``a``, so integrable endpoint
    singularities (log, or power of exponent > -1) converge; x^(-1/2) becomes
    smooth.
    """
    cfg = cfg or DEFAULT_CONFIG
    if math.isinf(b):
        if support_bound is None:
            raise ValueError("b = inf requires a finite support_bound")
        b = float(support_bound)
    if b <= a:
        return QuadratureResult(0.0, 0.0, 0)
    fn = _CountingFn(f)
    if singular_left:
        width = b - a

        def g(t):
            return fn(a + width * t ** _GRADE) * (width * _GRADE * t ** (_GRADE - 1))

        value, error, ok = _adaptive_interval(g, 0.0, 1.0, cfg, cfg.abs_tol)
    else:
        value, error, ok = _adaptive_interval(fn, a, b, cfg, cfg.abs_tol)
    if not ok:
        raise NonConvergedError(
            f"interval quadrature on [{a}, {b}] did not converge "
            f"(error {error:.3e})", value, error, fn.count)
    return QuadratureResult(value, error, fn.count)


# -- sphere rules and polar quadrature --------------------------------------


def sphere_rule(n: int, level: int) -> tuple[np.ndarray, np.ndarray]:
    """Directions and weights integrating over the unit sphere S^{n-1}.

    Weights sum to the sphere's surface area n * kappa_n.  ``level`` scales
    the resolution; the rules converge rapidly for smooth angular integrands.
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
    raise ValueError(f"sphere_rule supports n <= 4, got {n}")


def integrate_polar_separable(f, n: int, center, r_max, cfg: QuadratureConfig | None = None, *,
                              break_ratios=(), singular_center: bool = False,
                              level: int = 8, max_level: int = 64) -> QuadratureResult:
    """Polar quadrature when the integrand's radial kinks sit at shared ratios.

    With r = R(direction) * tau, panels in tau are identical across rays, so a
    whole sphere rule is evaluated in a handful of batched integrand calls.
    With ``singular_center`` the graded substitution tau = t^2 (break ratios
    mapped to their square roots) clusters the nodes at the center.  Panels
    are refined adaptively on the shared grid (aggregated error); the angular
    level doubles until consecutive sphere rules agree.  Raises
    :class:`NonConvergedError` when a panel reaches ``cfg.max_depth`` or the
    level reaches ``max_level`` without agreement.
    """
    cfg = cfg or DEFAULT_CONFIG
    center = np.asarray(center, dtype=float)
    fn = _CountingFn(f)
    grade = _GRADE if singular_center else 1
    edges = [e ** (1.0 / grade) for e in sorted(
        {float(t) for t in break_ratios if 1e-14 < t < 1.0 - 1e-14} | {1.0})]
    x_hi, w_hi = _leggauss(15)
    x_lo, w_lo = _leggauss(8)

    def run(lv: int) -> tuple[float, float]:
        dirs, wts = sphere_rule(n, lv)
        radii = r_max(dirs) if callable(r_max) else np.full(len(dirs), float(r_max))
        scale = wts * radii ** n  # substitution r = R * tau

        def panel(a: float, b: float) -> tuple[float, float]:
            half, mid = 0.5 * (b - a), 0.5 * (a + b)
            t = np.concatenate([mid + half * x_hi, mid + half * x_lo])
            tau = t ** grade
            pts = (center[None, None, :]
                   + (radii[:, None] * tau[None, :])[:, :, None] * dirs[:, None, :])
            vals = fn(pts.reshape(-1, n)).reshape(len(dirs), len(t))
            vals = vals * (tau ** (n - 1) * (grade * t ** (grade - 1)))[None, :]
            hi = half * float(scale @ (vals[:, :15] @ w_hi))
            lo = half * float(scale @ (vals[:, 15:] @ w_lo))
            return hi, abs(hi - lo)

        total, total_err = 0.0, 0.0
        heap = []
        prev_edge = 0.0
        for uid, e_hi in enumerate(edges):
            v, err = panel(prev_edge, e_hi)
            total += v
            total_err += err
            heapq.heappush(heap, (-err, uid, 0, prev_edge, e_hi, v, err))
            prev_edge = e_hi
        uid = len(edges)
        while total_err > max(cfg.abs_tol, cfg.rel_tol * abs(total)) and heap:
            _, _, depth, a, b, v, e = heapq.heappop(heap)
            if depth >= cfg.max_depth:
                raise NonConvergedError(
                    f"radial refinement hit depth {cfg.max_depth} "
                    f"(error {total_err:.3e})", total, total_err, fn.count)
            mid = 0.5 * (a + b)
            lv_, le_ = panel(a, mid)
            rv_, re_ = panel(mid, b)
            total += lv_ + rv_ - v
            total_err += le_ + re_ - e
            heapq.heappush(heap, (-le_, uid, depth + 1, a, mid, lv_, le_))
            heapq.heappush(heap, (-re_, uid + 1, depth + 1, mid, b, rv_, re_))
            uid += 2
        return total, total_err

    if n == 1:
        value, error = run(1)
        return QuadratureResult(value, error, fn.count)
    prev, _ = run(max(2, level // 2))
    lv = level
    while True:
        fine, rad_err = run(lv)
        ang_err = abs(fine - prev)
        if ang_err <= max(cfg.abs_tol, cfg.rel_tol * abs(fine)):
            return QuadratureResult(fine, rad_err + ang_err, fn.count)
        if lv >= max_level:
            raise NonConvergedError(
                f"angular refinement hit level {max_level} (error {ang_err:.3e})",
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
