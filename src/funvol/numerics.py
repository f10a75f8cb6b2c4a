"""Shared numerical substrate.

Quadrature on intervals and in polar coordinates, elementary symmetric
functions of eigenvalues, unit-ball volumes, and a counter-based
deterministic RNG.  Everything here is pure; quadrature routines report an
error estimate alongside the value and raise :class:`NonConvergedError` when
the fixed budget (bisection depth, panel count, angular level) runs out
before the fixed tolerance is met.  One adaptive loop refines the panels of
both interval and radial quadrature, and each of its steps evaluates all of
its new panels in one batch: the panels a refinement starts from, then the
two halves of each split.  Interval panels carry a 31-point Gauss rule
checked against a 16-point one, radial panels the Gauss-Kronrod 7/15 pair
with its embedded error; a radial batch holds every direction of the sphere
rule for each of its panels and reaches the integrand in calls of at most
``_MAX_BATCH`` points.  A singular endpoint is graded, r = t^2, and
refined by the same adaptive panels as the rest of the range.  Polar
quadrature doubles the angular level from 2 until two consecutive sphere
rules agree; every level integrates constants exactly, consecutive levels are
turned against each other so that they cannot alias together, and each
level starts from the radial panels the previous one ended with.  Sphere
rules, and so polar quadrature, cover n <= 4; a larger n is an
:class:`UnsupportedVariant`.
"""
from __future__ import annotations

import functools
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
    "sphere_rule_size",
    "Rng",
    "standard_normals",
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
_MAX_PANELS = 400_000  # panel budget of one adaptive refinement
_MAX_DEPTH = 40        # bisection depth budget of one panel
_ABS_TOL = 1e-10       # a refinement stops once its error is at most
_REL_TOL = 1e-9        # max(_ABS_TOL, _REL_TOL * |value|)
_LEVEL = 4             # first fine angular level of polar quadrature
_MAX_LEVEL = 64        # angular level budget of polar quadrature
_MAX_BATCH = 1 << 14   # integrand points per call of polar quadrature

# Gauss-Kronrod 7/15 pair on [-1, 1] (QUADPACK qk15): the nonnegative
# Kronrod abscissae in decreasing order, their weights, and the weights of
# the 7-point Gauss rule at the abscissae of odd index (1, 3, 5, 7)
_XGK = (0.991455371120812639206854697526329, 0.949107912342758524526189684047851,
        0.864864423359769072789712788640926, 0.741531185599394439863864773280788,
        0.586087235467691130294144845693013, 0.405845151377397166906606412076961,
        0.207784955007898467600689403773245, 0.0)
_WGK = (0.022935322010529224963732008058970, 0.063092092629978553290700663189204,
        0.104790010322250183839876322541518, 0.140653259715525918745189590510238,
        0.169004726639267902826583426598550, 0.190350578064785409913256402421014,
        0.204432940075298892414161999234649, 0.209482141084727828012999174891714)
_WG = (0.129484966168869693270611432679082, 0.279705391489276667901467771423780,
       0.381830050505118944950369775488975, 0.417959183673469387755102040816327)


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


def _kronrod_pair() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The 15 Kronrod nodes on [-1, 1] in increasing order, their weights, and
    the 7-point Gauss weights of the embedded nodes ``nodes[1::2]``."""
    x, wk, wg = np.array(_XGK), np.array(_WGK), np.array(_WG)
    nodes = np.concatenate([-x[:-1], x[::-1]])
    return nodes, np.concatenate([wk[:-1], wk[::-1]]), np.concatenate([wg[:-1], wg[::-1]])


_KRONROD = _kronrod_pair()  # built once, shared by every polar panel


class _CountingFn:
    """Wraps a vectorized integrand and counts the points it is called at."""

    def __init__(self, f):
        self.f = f
        self.count = 0

    def __call__(self, x: np.ndarray) -> np.ndarray:
        self.count += len(x)
        return np.asarray(self.f(x), dtype=float)


def _refine(panels, leaves, fn: _CountingFn, what: str):
    """Adaptive bisection of the panels ``leaves``, a list of (a, b, depth).

    ``panels(ends)`` takes a list of panel ends (a, b) and returns the lists
    of their estimates and errors, as floats: all of ``leaves`` are
    evaluated in one call, and so are the two halves of each split.  The
    panel with the largest error is split until the summed error is within
    tolerance; :class:`NonConvergedError` is raised when that panel sits at
    ``_MAX_DEPTH`` or the panel count reaches ``_MAX_PANELS``.  Returns the
    value, its error and the final panels in increasing order, with their
    depths, so a later pass over the same range can start from them.
    """
    total, total_err = 0.0, 0.0
    heap = []
    values, errors = panels([(a, b) for a, b, _ in leaves])
    for uid, ((a, b, depth), v, err) in enumerate(zip(leaves, values, errors)):
        total += v
        total_err += err
        heapq.heappush(heap, (-err, uid, depth, a, b, v, err))
    uid = len(heap)
    while total_err > max(_ABS_TOL, _REL_TOL * abs(total)):
        _, _, depth, a, b, v, err = heapq.heappop(heap)
        if depth >= _MAX_DEPTH or len(heap) >= _MAX_PANELS:
            raise NonConvergedError(
                f"{what} did not converge at depth {depth} with {len(heap) + 1} "
                f"panels (error {total_err:.3e})", total, total_err, fn.count)
        mid = 0.5 * (a + b)
        (lv, rv), (le, re) = panels([(a, mid), (mid, b)])
        total += lv + rv - v
        total_err += le + re - err
        heapq.heappush(heap, (-le, uid, depth + 1, a, mid, lv, le))
        heapq.heappush(heap, (-re, uid + 1, depth + 1, mid, b, rv, re))
        uid += 2
    return total, total_err, sorted((a, b, depth) for _, _, depth, a, b, _, _ in heap)


def _panel_nodes(ends, nodes: np.ndarray) -> tuple[list[float], np.ndarray]:
    """The half-widths of the panels ``ends``, a list of (a, b), and one row
    per panel of the rule ``nodes`` on [-1, 1] mapped onto it."""
    halves = [0.5 * (b - a) for a, b in ends]
    return halves, np.array([[0.5 * (a + b)] for a, b in ends]) + np.array(halves)[:, None] * nodes


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

    def panels(ends):
        halves, t = _panel_nodes(ends, nodes)
        if singular_left:
            vals = fn((a + width * t ** _GRADE).ravel()).reshape(t.shape) \
                * (width * _GRADE * t ** (_GRADE - 1))
        else:
            vals = fn(t.ravel()).reshape(t.shape)
        hi = [h * float(v[:_INTERVAL_ORDER] @ w_hi) for h, v in zip(halves, vals)]
        lo = [h * float(v[_INTERVAL_ORDER:] @ w_lo) for h, v in zip(halves, vals)]
        return hi, [abs(x - y) for x, y in zip(hi, lo)]

    leaves = [(0.0, 1.0, 0)] if singular_left else [(a, b, 0)]
    value, error, _ = _refine(panels, leaves, fn, f"interval quadrature on [{a}, {b}]")
    return QuadratureResult(value, error, fn.count)


# -- sphere rules and polar quadrature --------------------------------------


def _rotation(n: int) -> np.ndarray:
    """The fixed generic rotation R of R^n that turns consecutive sphere-rule
    levels against each other: the Cayley transform of a skew matrix with
    incommensurate entries."""
    skew = np.zeros((n, n))
    upper = np.triu_indices(n, 1)
    skew[upper] = np.sqrt([2.0, 3.0, 5.0, 7.0, 11.0, 13.0][:len(upper[0])]) / 4.0
    skew -= skew.T
    eye = np.eye(n)
    return np.linalg.solve(eye - skew, eye + skew)


@functools.lru_cache(maxsize=32)
def sphere_rule(n: int, level: int) -> tuple[np.ndarray, np.ndarray]:
    """Directions and weights integrating over the unit sphere S^{n-1}.

    Weights sum to the sphere's surface area n * kappa_n at every level, and
    ``level`` scales the resolution: the rules are products of trapezoidal
    rules in the azimuth and Gauss rules in the polar angles (Gauss-Legendre
    in z = cos of the polar angle, and for n = 4 the Gauss rule of the
    weight sin^2 in the third angle), which integrate polynomials of degree
    below 4 * level exactly.  The rule at level 2^k is turned by R^k for one
    fixed generic rotation R, so the rules of consecutive levels share no
    nodes and cannot alias together.  The directions of the second half of
    a rule are the negatives of those of its first half, with the same
    weights.  Rules are cached per (n, level) and read-only, and hold
    :func:`sphere_rule_size` directions.  Rules exist for 1 <= n <= 4; any
    other n raises :class:`UnsupportedVariant`.
    """
    if n == 1:
        dirs, wts = np.array([[1.0], [-1.0]]), np.array([1.0, 1.0])
    elif n == 2:
        m = 4 * level
        theta = 2.0 * math.pi * np.arange(m) / m
        dirs = np.stack([np.cos(theta), np.sin(theta)], axis=-1)
        wts = np.full(m, 2.0 * math.pi / m)
    elif n in (3, 4):
        z, wz = _leggauss(2 * level)
        mphi = 4 * level
        phi = 2.0 * math.pi * np.arange(mphi) / mphi
        s = np.sqrt(1.0 - z ** 2)
        dirs = np.stack([
            np.outer(s, np.cos(phi)).ravel(),
            np.outer(s, np.sin(phi)).ravel(),
            np.repeat(z, mphi),
        ], axis=-1)
        wts = np.repeat(wz, mphi) * (2.0 * math.pi / mphi)
        if n == 4:
            # psi in (0, pi) with measure sin^2(psi): the Gauss rule of that
            # weight, psi_k = k pi / (m + 1) with weights pi / (m + 1) sin^2(psi_k)
            m = 2 * level
            psi = math.pi * np.arange(1, m + 1) / (m + 1)
            wpsi = math.pi / (m + 1) * np.sin(psi) ** 2
            dirs = np.concatenate([
                np.repeat(np.cos(psi), len(dirs))[:, None],
                (np.sin(psi)[:, None, None] * dirs[None]).reshape(-1, 3),
            ], axis=1)
            wts = np.outer(wpsi, wts).ravel()
    else:
        raise UnsupportedVariant(f"sphere rules and polar quadrature cover n <= 4, got n = {n}")
    dirs = dirs @ np.linalg.matrix_power(_rotation(n), level.bit_length() - 1).T
    dirs.setflags(write=False)
    wts.setflags(write=False)
    return dirs, wts


def sphere_rule_size(n: int, level: int) -> int:
    """The number of directions of ``sphere_rule(n, level)``, without building it."""
    if not 1 <= n <= 4:
        raise UnsupportedVariant(f"sphere rules and polar quadrature cover n <= 4, got n = {n}")
    return 2 ** n * level ** (n - 1)


def integrate_polar_separable(f, n: int, r_max, *, break_ratios=(),
                              singular_center: bool = False) -> QuadratureResult:
    """Polar quadrature around the origin when the integrand's radial kinks sit
    at shared ratios.

    With r = R(direction) * tau, panels in tau are identical across rays.
    Each refinement step evaluates all of its new panels over the whole
    sphere rule in one bounded batch: its (panel, direction) pairs, panel
    by panel, reach the integrand in calls of at most ``_MAX_BATCH`` points,
    and each panel is reduced over its own directions once they are in.
    ``f`` must not keep the (m, n) point array it is called on: the next
    call may write over it.
    With ``singular_center`` the graded substitution tau = t^2 (break
    ratios mapped to their square roots) clusters the nodes at the center.
    Panels carry the Gauss-Kronrod 7/15 pair, 15 evaluations with the
    embedded error |K15 - G7|, and are refined by the same adaptive loop as
    intervals, on the shared grid (aggregated error).  The angular level
    doubles from ``_LEVEL // 2`` until consecutive sphere rules agree; each
    level starts from the radial panels the previous one ended with and
    evaluates only those.  Raises :class:`NonConvergedError` when a panel
    reaches ``_MAX_DEPTH`` or the level reaches ``_MAX_LEVEL`` without
    agreement.
    """
    fn = _CountingFn(f)
    grade = _GRADE if singular_center else 1
    edges = [0.0] + [e ** (1.0 / grade) for e in sorted(
        {float(t) for t in break_ratios if 1e-14 < t < 1.0 - 1e-14} | {1.0})]
    nodes, w_k, w_g = _KRONROD
    step = max(1, _MAX_BATCH // len(nodes))  # (panel, direction) pairs per integrand call

    def run(lv: int, leaves):
        dirs, wts = sphere_rule(n, lv)
        radii = r_max(dirs) if callable(r_max) else np.full(len(dirs), float(r_max))
        scale = wts * radii ** n  # substitution r = R * tau
        block = np.empty((len(dirs), len(nodes)))  # one panel's values

        def panels(ends):
            halves, t = _panel_nodes(ends, nodes)
            tau = t ** grade
            jac = tau ** (n - 1) * (grade * t ** (grade - 1))
            hi, lo = [], []
            # the (panel, direction) pairs, panel-major, in calls of at most
            # `step` pairs; a panel is reduced once its block is complete
            d = len(dirs)
            pts = np.empty((min(step, len(ends) * d), len(nodes), n))  # one call's points
            for start in range(0, len(ends) * d, step):
                stop = min(start + step, len(ends) * d)
                pieces = [(q, max(start - q * d, 0), min(stop - q * d, d))
                          for q in range(start // d, (stop - 1) // d + 1)]
                for q, i, j in pieces:
                    np.multiply((radii[i:j, None] * tau[q])[:, :, None], dirs[i:j, None, :],
                                out=pts[q * d + i - start:q * d + j - start])
                vals = fn(pts[:stop - start].reshape(-1, n)).reshape(stop - start, -1)
                for q, i, j in pieces:
                    np.multiply(vals[q * d + i - start:q * d + j - start], jac[q],
                                out=block[i:j])
                    if j == d:
                        hi.append(halves[q] * float(scale @ (block @ w_k)))
                        lo.append(halves[q] * float(scale @ (block[:, 1::2] @ w_g)))
            return hi, [abs(x - y) for x, y in zip(hi, lo)]

        return _refine(panels, leaves, fn, "radial refinement")

    leaves = [(a, b, 0) for a, b in zip(edges[:-1], edges[1:])]
    if n == 1:
        value, error, _ = run(1, leaves)
        return QuadratureResult(value, error, fn.count)
    prev, _, leaves = run(_LEVEL // 2, leaves)
    lv = _LEVEL
    while True:
        fine, rad_err, leaves = run(lv, leaves)
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


def _words(value: int, count: int) -> np.ndarray:
    """``value`` as ``count`` little-endian 64-bit words, as Philox stores it."""
    try:
        return np.frombuffer(value.to_bytes(8 * count, "little"), dtype="<u8")
    except OverflowError as exc:
        raise ValueError(f"Philox word out of range: {value}") from exc


def standard_normals(streams, shape) -> np.ndarray:
    """Standard normals of the given shape from each stream, stacked: the
    ``(len(streams), *shape)`` array ``np.stack([s.generator().standard_normal(shape)
    for s in streams])``, bit for bit.

    One Philox bit generator is re-keyed per stream by setting its ``state``
    to the stream's key and counter with an empty output buffer, which is the
    state ``Rng.generator`` builds, instead of being built once per stream.
    """
    bits = np.random.Philox(key=0)
    gen = np.random.Generator(bits)
    state = bits.state
    out = np.empty((len(streams), *shape))
    for s, row in zip(streams, out):
        state["state"] = {"counter": _words(s.counter << 64, 4), "key": _words(s.seed, 2)}
        bits.state = state
        gen.standard_normal(out=row)
    return out
