"""Shared numerical substrate.

Quadrature on intervals and in polar coordinates, elementary symmetric
functions of eigenvalues, unit-ball volumes, and a counter-based
deterministic RNG.  Everything here is pure; quadrature routines report an
error estimate alongside the value and raise :class:`NonConvergedError` when
the fixed budget (bisection depth, panel count, angular level) runs out
before the fixed tolerance is met.  One adaptive loop, :func:`_refine`,
refines the panels of both interval and radial quadrature, for a stack of
integrals in lockstep: each step evaluates the new panels of every member
still refining in one batch, the panels a member starts from or the two
halves of its split, while each member keeps its own heap, sums and split
order.  Interval quadrature is a stack of one.  Interval panels carry a
31-point Gauss rule checked against a 16-point one, radial panels the
Gauss-Kronrod 7/15 pair with its embedded error; a radial batch holds every
direction of each member's sphere rule for each of its panels and reaches
the integrand in calls of at most ``_MAX_BATCH`` points, and the members
refining together hold at most ``_MAX_BATCH`` directions.  A polar call's
points are an (m, n) view of a column-major buffer: each coordinate is one
contiguous column, so an integrand reads them by coordinate (``row_norms``
sums their squares column by column), and must not keep them.  A singular
endpoint is graded, r = t^2, and refined by the same adaptive panels as the
rest of the range.  Polar quadrature (:func:`integrate_polar_stack`, and
:func:`integrate_polar_separable` on a stack of one) refines each member's
radial panels at angular level 2, then checks that pass at level 4 by the
7 embedded Gauss nodes of its final panels alone: the 7-point sums of the
two levels on the same panels differ by the angular error, which the
member adds to its radial error when it is within tolerance, keeping the
15-point value of the checked level.  A check that disagrees runs a full
pass at its own level, from the same panels, which the next level checks,
and so on up to ``_MAX_LEVEL``.  Every level integrates constants exactly,
consecutive levels are turned against each other so that they cannot
alias together, and each pass or check starts from the radial panels the
last pass ended with.  Sphere rules, and so polar quadrature, cover n <= 4;
a larger n is an :class:`UnsupportedVariant`.
"""
from __future__ import annotations

import bisect
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
    "row_norms",
    "QuadratureResult",
    "integrate_interval",
    "integrate_polar_separable",
    "integrate_polar_stack",
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


def row_norms(x: np.ndarray) -> np.ndarray:
    """The Euclidean length of each row of an (m, n) array, or of a stack of
    them along the last axis, as ``np.linalg.norm(x, axis=-1)`` gives it bit
    for bit for n <= MAX_DIM.

    The squares are summed over the coordinates in index order, the order in
    which numpy reduces rows shorter than its pairwise block of 8, but read
    column by column, which is fast on the contiguous columns of polar points.
    """
    total = x[..., 0] * x[..., 0]
    for k in range(1, x.shape[-1]):
        total += x[..., k] * x[..., k]
    return np.sqrt(total)


# ---------------------------------------------------------------------------
# Quadrature


_INTERVAL_ORDER = 31   # Gauss order of an interval panel
_MAX_PANELS = 400_000  # panel budget of one adaptive refinement
_MAX_DEPTH = 40        # bisection depth budget of one panel
_ABS_TOL = 1e-10       # a refinement stops once its error is at most
_REL_TOL = 1e-9        # max(_ABS_TOL, _REL_TOL * |value|)
_LEVEL = 4             # first check level of polar quadrature, twice its first level
_MAX_LEVEL = 64        # angular level budget of polar quadrature
_MAX_BATCH = 1 << 14   # integrand points per call, and directions held, of polar quadrature

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
    """Wraps a stack integrand ``f(x, owners)`` and counts, per member of the
    stack, the points it is called at.

    ``owners`` lists the (member, start, stop) row ranges of the points of
    the next call, in increasing order; the caller sets it before each call.
    """

    def __init__(self, f, size: int):
        self.f = f
        self.counts = [0] * size
        self.owners = []

    def __call__(self, x: np.ndarray) -> np.ndarray:
        for m, start, stop in self.owners:
            self.counts[m] += stop - start
        return np.asarray(self.f(x, self.owners), dtype=float)


class _Run:
    """One member of a lockstep refinement (see :func:`_refine`): its index
    in the stack, the panels its next pass starts from, and the heap,
    running sums and pending split of the pass in progress."""

    __slots__ = ("index", "leaves", "heap", "total", "total_err", "gauss", "uid", "split",
                 "failure")

    def __init__(self, index: int, leaves):
        self.index = index
        self.leaves = leaves
        self.failure = None


def _refine(panels, runs, fn: _CountingFn, what: str):
    """Adaptive bisection of the stack ``runs`` in lockstep, until one stops.

    A run that holds ``leaves``, a list of (a, b, depth), starts a pass
    from them; every other run splits the panel of its pass with the
    largest error.  Each step hands ``panels`` the new panels of the whole
    stack in one batch, a list of (run, ends) with ``ends`` a list of panel
    ends (a, b): the leaves of a starting run, or the two halves of a split.
    ``panels`` returns the lists of the estimates, errors and lower-rule
    estimates of all those panels, as floats, in batch order.

    A run stops once its summed error is within tolerance.  It then holds
    its value ``total``, its error ``total_err``, the sum ``gauss`` of its
    panels' lower-rule estimates and its final panels as ``leaves``, in
    increasing order and with their depths, so a later pass over the same
    range starts from them.  A run also stops, with a
    :class:`NonConvergedError` as ``failure``, when the panel it would
    split sits at ``_MAX_DEPTH`` or its panel count reaches
    ``_MAX_PANELS``; the runs after it take no part in that step.  Each
    run's arithmetic and split order are those of a refinement alone.
    Returns the runs that stopped, in stack order, at the first step where
    any did.
    """
    stopped = []  # no run comes in stopped: each is starting, or refining above tolerance
    while not stopped:
        batch, failed = [], None
        for r in runs:
            if r.leaves is not None:
                batch.append((r, [(a, b) for a, b, _ in r.leaves]))
                continue
            _, _, depth, a, b, v, g, err = heapq.heappop(r.heap)
            if depth >= _MAX_DEPTH or len(r.heap) >= _MAX_PANELS:
                r.failure = failed = NonConvergedError(
                    f"{what} did not converge at depth {depth} with {len(r.heap) + 1} "
                    f"panels (error {r.total_err:.3e})", r.total, r.total_err,
                    fn.counts[r.index])
                break
            r.split = (depth, v, g, err)
            mid = 0.5 * (a + b)
            batch.append((r, [(a, mid), (mid, b)]))
        values, errors, lower = panels(batch) if batch else ((), (), ())
        k = 0
        for r, ends in batch:
            if r.leaves is None:
                depth, v, g, err = r.split
                (a, mid), (_, b) = ends
                lv, rv, le, re = values[k], values[k + 1], errors[k], errors[k + 1]
                lg, rg = lower[k], lower[k + 1]
                r.total += lv + rv - v
                r.total_err += le + re - err
                r.gauss += lg + rg - g
                heapq.heappush(r.heap, (-le, r.uid, depth + 1, a, mid, lv, lg, le))
                heapq.heappush(r.heap, (-re, r.uid + 1, depth + 1, mid, b, rv, rg, re))
                r.uid += 2
                k += 2
            else:
                r.total, r.total_err, r.gauss, r.heap = 0.0, 0.0, 0.0, []
                for uid, (a, b, depth) in enumerate(r.leaves):
                    v, err, g = values[k], errors[k], lower[k]
                    r.total += v
                    r.total_err += err
                    r.gauss += g
                    heapq.heappush(r.heap, (-err, uid, depth, a, b, v, g, err))
                    k += 1
                r.uid, r.leaves = len(r.heap), None
            if r.total_err <= max(_ABS_TOL, _REL_TOL * abs(r.total)):
                r.leaves = sorted((a, b, depth) for _, _, depth, a, b, _, _, _ in r.heap)
                stopped.append(r)
        if failed is not None:
            stopped.append(runs[len(batch)])
    return stopped


def _panel_nodes(ends, nodes: np.ndarray) -> tuple[list[float], np.ndarray]:
    """The half-widths of the panels ``ends``, a list of (a, b), and one row
    per panel of the rule ``nodes`` on [-1, 1] mapped onto it."""
    halves = [0.5 * (b - a) for a, b in ends]
    mids = np.array([0.5 * (a + b) for a, b in ends])
    return halves, mids[:, None] + np.array(halves)[:, None] * nodes


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
    fn = _CountingFn(lambda x, owners: f(x), 1)
    nodes, w_hi, w_lo = _gauss_pair(_INTERVAL_ORDER)
    width = b - a

    def panels(batch):
        ((_, ends),) = batch
        halves, t = _panel_nodes(ends, nodes)
        fn.owners = [(0, 0, t.size)]
        if singular_left:
            vals = fn((a + width * t ** _GRADE).ravel()).reshape(t.shape) \
                * (width * _GRADE * t ** (_GRADE - 1))
        else:
            vals = fn(t.ravel()).reshape(t.shape)
        hi = [h * float(v[:_INTERVAL_ORDER] @ w_hi) for h, v in zip(halves, vals)]
        lo = [h * float(v[_INTERVAL_ORDER:] @ w_lo) for h, v in zip(halves, vals)]
        return hi, [abs(x - y) for x, y in zip(hi, lo)], lo

    run = _Run(0, [(0.0, 1.0, 0)] if singular_left else [(a, b, 0)])
    _refine(panels, [run], fn, f"interval quadrature on [{a}, {b}]")
    if run.failure is not None:
        raise run.failure
    return QuadratureResult(run.total, run.total_err, fn.counts[0])


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


def _reduce(values: np.ndarray, panels, halves, hi: list, err: list, lo: list) -> None:
    """Append to ``hi``, ``err`` and ``lo`` the estimates, errors and
    embedded Gauss estimates of the complete radial panels ``panels``, a
    list of (q, run) all on one sphere rule and of one kind, whose values,
    D directions by the run's nodes each, lie in order in ``values``: a
    panel (q, run) gives ``halves[q] * (run.scale @ (its values @ w))``.  A
    panel on the 15 Kronrod nodes gives its Kronrod estimate, the Gauss
    estimate of its 7 embedded nodes and their difference; a check panel on
    the 7 Gauss nodes alone gives its Gauss estimate as both, with no
    error.  numpy's stacked matmul runs the 2-d kernel on each slice, so a
    panel's bits do not depend on the panels reduced with it."""
    _, w_k, w_g = _KRONROD
    check = panels[0][1].check
    scales = np.array([r.scale for _, r in panels])[:, None, :]
    values = values.reshape(len(panels), scales.shape[-1], len(w_g if check else w_k))
    with np.errstate(over="ignore", invalid="ignore"):  # non-finite beyond double precision
        gauss = np.matmul(scales, ((values if check else values[:, :, 1::2]) @ w_g)[:, :, None])
        kronrod = gauss if check else np.matmul(scales, (values @ w_k)[:, :, None])
    gauss = [halves[q] * x for (q, _), x in zip(panels, gauss.ravel().tolist())]
    kronrod = [halves[q] * x for (q, _), x in zip(panels, kronrod.ravel().tolist())]
    hi.extend(kronrod)
    err.extend([0.0] * len(panels) if check else [abs(x - y) for x, y in zip(kronrod, gauss)])
    lo.extend(gauss)


class _PolarRun(_Run):
    """A member of a polar stack: a :class:`_Run` in tau with the angular
    level of its pass, whether that pass is a check, the value, error and
    Gauss sum of its last full pass, that level's sphere-rule directions as
    rows and as (n, D) contiguous coordinate columns, and the member's ray
    radii and scales on it."""

    __slots__ = ("level", "check", "full", "dirs", "cols", "radii", "scale")

    def advance(self, n: int, evaluations: int) -> QuadratureResult | None:
        """After a pass that stopped within tolerance: the result once a check
        agrees with the full pass before it (at once for n = 1).  Else None,
        with the run set for its next pass: the check of a full pass at twice
        its level, or a full pass at the level of a check that disagreed; or
        with ``failure`` set where that check was at ``_MAX_LEVEL``."""
        if n == 1:
            return QuadratureResult(self.total, self.total_err, evaluations)
        if not self.check:
            self.full = (self.total, self.total_err, self.gauss)
            self.level, self.check = 2 * self.level, True
            return None
        value, error, gauss = self.full
        ang_err = abs(self.total - gauss)
        if ang_err <= max(_ABS_TOL, _REL_TOL * abs(value)):
            return QuadratureResult(value, error + ang_err, evaluations)
        if self.level >= _MAX_LEVEL:
            self.failure = NonConvergedError(
                f"angular refinement hit level {_MAX_LEVEL} (error {ang_err:.3e})",
                value, error + ang_err, evaluations)
        self.check = False
        return None


def integrate_polar_stack(f, n: int, radii, break_ratios,
                          singular_center: bool) -> list[QuadratureResult]:
    """Polar quadrature of a stack of integrals over R^n in lockstep, one per
    member, each as :func:`integrate_polar_separable` would give it alone,
    bit for bit.

    ``f(x, owners)`` evaluates the integrands of the whole stack at once: the
    points ``x`` are an (m, n) view whose columns are contiguous (``x.T`` is
    a C-ordered (n, m) block, one row per coordinate), so ``f`` should read
    them by coordinate, and ``owners`` lists the (member, start, stop) row
    ranges of each member's points, in increasing order.  ``f`` must not
    keep ``x``: its buffer takes the call's scaled values next.
    ``radii(dirs, members)`` gives the (len(members), len(dirs)) ray radii R
    of those members (a number is every member's R on every ray), and
    ``break_ratios`` holds one sequence per member.
    Each member keeps its own break ratios, radial panels, angular level and
    sums; every refinement step puts the new panels of every member still
    refining, a level's starting panels and the panels of a check among
    them, into one batch, which reaches ``f`` in calls of at most
    ``_MAX_BATCH`` points.  The members refining or checking together hold
    at most ``_MAX_BATCH`` sphere-rule directions between them (a member
    whose rule is larger goes alone), so neither their radii and scales nor
    a ``radii`` call grow with the stack; the other members wait, and join
    in stack order as directions come free.  The members that start a level
    together take its radii from one ``radii`` call.  A member drops out
    once a check confirms its last full pass.
    ``singular_center`` holds for every member.  Where a member's budget
    runs out, the members after it in the stack are dropped, and the
    :class:`NonConvergedError` of the first member to fail is raised once
    the members before it are done, as a plane-by-plane loop would raise it.
    """
    fn = _CountingFn(f, len(break_ratios))
    grade = _GRADE if singular_center else 1
    nodes = _KRONROD[0]
    block = None  # the values of a panel cut by calls, grown as needed

    def panels(batch):
        nonlocal block
        halves, t = _panel_nodes([e for _, ends in batch for e in ends], nodes)
        tau = t ** grade
        jac = tau ** (n - 1) * (grade * t ** (grade - 1))
        # the (panel, direction) pairs, panel-major, cut into calls of at most
        # _MAX_BATCH points: a call may hold many panels and end inside one;
        # a pair holds 15 Kronrod nodes, or 7 Gauss nodes in a check
        calls, room, size = [[]], _MAX_BATCH, 0
        for q, r in enumerate([r for r, ends in batch for _ in ends]):
            # the nodes of the panel, of the 15, and their number
            pick, p = (slice(1, None, 2), 7) if r.check else (slice(None), 15)
            d, i = len(r.dirs), 0
            while i < d:
                if room < p and calls[-1]:
                    calls.append([])
                    room = _MAX_BATCH
                j = min(d, i + max(1, room // p))
                calls[-1].append((q, r, i, j, pick, p))
                room -= (j - i) * p
                i = j
                size = max(size, _MAX_BATCH - room)
        cols = np.empty((n, size))  # one call's points, a row per coordinate,
        scaled = cols[0]  # and, once the call is back, their values times the Jacobian
        hi, err, lo = [], [], []
        for pieces in calls:
            owners, fill = [], 0
            for q, r, i, j, pick, p in pieces:
                stop = fill + (j - i) * p
                np.multiply((r.radii[i:j, None] * tau[q, pick])[None], r.cols[:, i:j, None],
                            out=cols[:, fill:stop].reshape(n, j - i, p))
                if owners and owners[-1][0] == r.index:
                    owners[-1][2] = stop
                else:
                    owners.append([r.index, fill, stop])
                fill = stop
            fn.owners = owners
            vals = fn(cols[:, :fill].T)
            # adjacent whole panels of one kind on one sphere rule are reduced
            # together; a panel cut by calls once block holds all of it
            fill, first, group = 0, 0, []
            for q, r, i, j, pick, p in pieces:
                d, stop = len(r.dirs), fill + (j - i) * p
                if group and (j - i < d or group[0][1].dirs is not r.dirs
                              or group[0][1].check != r.check):
                    _reduce(scaled[first:fill], group, halves, hi, err, lo)
                    group = []
                if j - i < d:
                    if block is None or len(block) < d * p:
                        block = np.empty(d * p)
                    np.multiply(vals[fill:stop].reshape(j - i, p), jac[q, pick],
                                out=block[i * p:j * p].reshape(j - i, p))
                    if j == d:
                        _reduce(block[:d * p], [(q, r)], halves, hi, err, lo)
                else:
                    np.multiply(vals[fill:stop].reshape(d, p), jac[q, pick],
                                out=scaled[fill:stop].reshape(d, p))
                    first = first if group else fill
                    group.append((q, r))
                fill = stop
            if group:
                _reduce(scaled[first:fill], group, halves, hi, err, lo)
        return hi, err, lo

    def start(group):
        """The runs of ``group``, all at one level, take its sphere rule and
        their ray radii on it."""
        dirs, wts = sphere_rule(n, group[0].level)
        rows = (radii(dirs, [r.index for r in group]) if callable(radii)
                else np.full((len(group), len(dirs)), float(radii)))
        cols = np.ascontiguousarray(dirs.T)
        with np.errstate(over="ignore"):  # a scale beyond double precision is inf
            for r, row in zip(group, rows):  # each its own arrays, freed with its rule
                r.dirs, r.cols, r.radii = dirs, cols, np.array(row)
                r.scale = wts * r.radii ** n  # substitution r = R * tau

    waiting = []  # the runs that take a sphere rule before their next pass, last index first
    for index, ratios in enumerate(break_ratios):
        edges = [0.0] + [e ** (1.0 / grade) for e in sorted(
            {float(t) for t in ratios if 1e-14 < t < 1.0 - 1e-14} | {1.0})]
        run = _PolarRun(index, [(a, b, 0) for a, b in zip(edges[:-1], edges[1:])])
        run.level, run.check = 1 if n == 1 else _LEVEL // 2, False
        waiting.insert(0, run)
    runs, results, failure = [], [None] * len(waiting), None
    while runs or waiting:
        # waiting runs join in stack order while the runs refining together
        # hold at most _MAX_BATCH directions, or one run holds more alone
        held, joining = sum(len(r.dirs) for r in runs), {}
        while waiting:
            r = waiting[-1]
            d = sphere_rule_size(n, r.level)
            if held + d > _MAX_BATCH and (runs or joining):
                break
            waiting.pop()
            held += d
            joining.setdefault(r.level, []).append(r)
        for group in joining.values():
            start(group)
            runs.extend(group)
        runs.sort(key=lambda r: r.index)
        for r in _refine(panels, runs, fn, "radial refinement"):
            runs.remove(r)
            r.dirs = r.cols = r.radii = r.scale = None
            if r.failure is None:
                results[r.index] = r.advance(n, fn.counts[r.index])
            if r.failure is not None:
                failure = r.failure
                runs = [s for s in runs if s.index < r.index]
                waiting = [s for s in waiting if s.index < r.index]
                break
            if results[r.index] is None:
                bisect.insort(waiting, r, key=lambda r: -r.index)
    if failure is not None:
        raise failure
    return results


def integrate_polar_separable(f, n: int, r_max, *, break_ratios=(),
                              singular_center: bool = False) -> QuadratureResult:
    """Polar quadrature around the origin when the integrand's radial kinks sit
    at shared ratios: :func:`integrate_polar_stack` on a stack of one.

    With r = R(direction) * tau, panels in tau are identical across rays.
    Each refinement step evaluates all of its new panels over the whole
    sphere rule in one bounded batch: its (panel, direction) pairs, panel
    by panel, reach the integrand in calls of at most ``_MAX_BATCH`` points,
    and each panel is reduced over its own directions once they are in.
    ``f`` is called on an (m, n) view of points with contiguous columns,
    best read by coordinate, and must not keep it: the next call may write
    over it.
    With ``singular_center`` the graded substitution tau = t^2 (break
    ratios mapped to their square roots) clusters the nodes at the center.
    Panels carry the Gauss-Kronrod 7/15 pair, 15 evaluations with the
    embedded error |K15 - G7|, and are refined by the same adaptive loop as
    intervals, on the shared grid (aggregated error).  A pass at angular
    level L, from ``_LEVEL // 2`` on, is checked at level 2L by the 7
    Gauss nodes of its final panels alone: where the 7-point sums G7 of the
    two levels agree, the result is the 15-point value of level L with
    error its radial error plus |G7(2L) - G7(L)|; else a full pass at level
    2L starts from those panels and level 4L checks it.  Raises
    :class:`NonConvergedError` when a panel reaches ``_MAX_DEPTH`` or a
    check at ``_MAX_LEVEL`` disagrees.
    """
    radii = (lambda dirs, members: r_max(dirs)[None]) if callable(r_max) else r_max
    return integrate_polar_stack(lambda x, owners: f(x), n, radii, [break_ratios],
                                 singular_center)[0]


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
