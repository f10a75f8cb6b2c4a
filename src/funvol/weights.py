"""Weight functions on (0, inf) with bounded support and their transform calculus.

The catalog (tent, smooth bump, capped log, capped polynomial, plus scaling,
sums and lazy transforms) is closed under the integral transform

    (T z)(s) = s z(s) + integral_s^inf z(t) dt,

its iterates T^l(z)(s) = s^l z(s) + l * int_s^inf t^{l-1} z(t) dt and the
inverse T^{-l}(r)(s) = r(s)/s^l - l * int_s^inf r(t)/t^{l+1} dt.  Tent, capped
log and capped polynomial are each one sum of c * t^p * ln(t)^q on (0, s_max]
(:class:`PowerLogForm`), on which all of these are exact.  For bump-rooted
chains the integrand is fitted by piecewise Chebyshev series, which are
integrated exactly; a fit that does not resolve raises NonConvergedError.

Each transform is built in the one representation it uses: T^l of a sum or a
scaling is the sum or scaling of the transforms, a closed-form weight gives a
closed-form weight, and any other a lazy :class:`TransformedWeight` on the
Chebyshev path.

Membership in the admissibility class indexed by (j, n) -- vanishing of
s^{n-j} z(s) at 0 together with a finite limit of int_s^inf t^{n-j-1} z(t) dt
(finite limit of z itself when j = n) -- is decided from the singularity
descriptor analytically, never by sampling near 0.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from numpy.polynomial import chebyshev as cheb

from .errors import NonConvergedError, SchemaError, UnknownSingularity, spec_errors
# integrate_interval is unused here; bench/smoke.py checks that its tracer wraps this name
from .numerics import integrate_interval, kappa  # noqa: F401

__all__ = [
    "Singularity",
    "WeightFunction",
    "Tent",
    "Bump",
    "LogCap",
    "PolyCapped",
    "Scaled",
    "SumWeight",
    "TransformedWeight",
    "MAX_POWER",
    "transform_R_power",
    "transform_R_inverse",
    "xi_from_zeta",
    "in_had_class",
    "nonnegativity_check",
    "NonnegativityVerdict",
    "log_grid",
    "weight_from_spec",
]

_COEF_EPS = 1e-13


@dataclass(frozen=True)
class Singularity:
    """Behavior of a weight at 0+: 'none' (finite limit), 'log', 'power' (p < 0), 'unknown'."""
    kind: str
    power: float = 0.0


# ---------------------------------------------------------------------------
# Power-log closed forms


@dataclass(frozen=True)
class _Term:
    """c * t**p * ln(t)**q."""
    c: float
    p: float
    q: int


def _combine(terms) -> tuple[_Term, ...]:
    acc: dict[tuple[float, int], float] = {}
    scale = max((abs(t.c) for t in terms), default=0.0)
    if not math.isfinite(scale):
        raise SchemaError("power-log coefficients overflow double precision")
    for t in terms:
        key = (round(t.p, 10), t.q)
        acc[key] = acc.get(key, 0.0) + t.c
    out = tuple(_Term(c, p, q) for (p, q), c in sorted(acc.items())
                if abs(c) > _COEF_EPS * max(1.0, scale))
    return out


@np.errstate(over="ignore", invalid="ignore")  # non-finite beyond double precision
def _eval_terms(terms, s: np.ndarray) -> np.ndarray:
    out = np.zeros_like(s, dtype=float)
    if len(terms) == 0:
        return out
    ln = None
    for t in terms:
        v = t.c * np.power(s, t.p) if t.p != 0.0 else np.full_like(s, t.c)
        if t.q:
            if ln is None:
                ln = np.log(s)
            v = v * ln ** t.q
        out += v
    return out


def _antiderivative(terms) -> tuple[_Term, ...]:
    out: list[_Term] = []

    def one(c: float, p: float, q: int):
        if abs(p + 1.0) < 1e-12:
            out.append(_Term(c / (q + 1), 0.0, q + 1))
            return
        out.append(_Term(c / (p + 1.0), p + 1.0, q))
        if q > 0:
            one(-c * q / (p + 1.0), p, q - 1)

    for t in terms:
        one(t.c, t.p, t.q)
    return _combine(out)


def _shift(terms, dp: float) -> tuple[_Term, ...]:
    return tuple(_Term(t.c, t.p + dp, t.q) for t in terms)


def _scale_terms(terms, c: float) -> tuple[_Term, ...]:
    return tuple(_Term(t.c * c, t.p, t.q) for t in terms)


class PowerLogForm:
    """Sum of c * t^p * ln(t)^q on (0, s_max], 0 beyond."""

    def __init__(self, terms, s_max: float):
        self.terms = _combine(terms)
        self.s_max = s_max

    def __call__(self, s) -> np.ndarray:
        s = np.asarray(s, dtype=float)
        out = np.zeros_like(s)
        mask = s <= self.s_max  # callers pass s > 0 only
        if mask.any() and self.terms:
            out[mask] = _eval_terms(self.terms, s[mask])
        return out

    def value_at_zero(self) -> float | None:
        val = 0.0
        for t in self.terms:
            if t.p > 0:
                continue
            if t.p == 0.0 and t.q == 0:
                val += t.c
            else:
                return None
        return val

    def singularity(self) -> Singularity:
        if not self.terms:
            return Singularity("none")
        pmin = min(t.p for t in self.terms)
        if pmin < -1e-12:
            return Singularity("power", pmin)
        if any(t.p <= 1e-12 and t.q > 0 for t in self.terms):
            return Singularity("log")
        return Singularity("none")

    def transform(self, p: int) -> "PowerLogForm":
        """T^p for p != 0 of either sign: s^p z(s) + p * int_s^inf t^{p-1} z(t) dt, exactly."""
        g = _antiderivative(_shift(self.terms, p - 1))
        g_hi = float(_eval_terms(g, np.array([self.s_max]))[0]) if g else 0.0
        terms = list(_shift(self.terms, p))
        terms.append(_Term(p * g_hi, 0.0, 0))
        terms.extend(_scale_terms(g, -p))
        return PowerLogForm(terms, self.s_max)


# ---------------------------------------------------------------------------
# Weight catalog


class WeightFunction:
    """Continuous weight on (0, inf), identically 0 on [s_max, inf)."""

    support_bound: float

    def __call__(self, s):
        s_arr = np.asarray(s, dtype=float)
        scalar = s_arr.ndim == 0
        s_arr = np.atleast_1d(s_arr)
        if np.any(s_arr < 0):
            raise ValueError("weights are defined for s >= 0")
        pos = s_arr > 0
        if pos.all():  # no 0 and no NaN: no masks (measured faster: BENCH_14.json "fast_paths")
            out = np.asarray(self._values(s_arr), dtype=float)
            return float(out[0]) if scalar else out
        out = np.full_like(s_arr, np.nan)  # a NaN argument stays NaN
        out[pos] = self._values(s_arr[pos])
        zero = s_arr == 0
        if np.any(zero):
            v0 = self.value_at_zero()
            if v0 is None:
                raise ValueError("weight has no finite limit at 0")
            out[zero] = v0
        return float(out[0]) if scalar else out

    # subclass API ----------------------------------------------------------
    def _values(self, s: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    @property
    def singularity(self) -> Singularity:
        raise NotImplementedError

    def value_at_zero(self) -> float | None:
        raise NotImplementedError

    def closed_form(self) -> PowerLogForm | None:
        return None

    def knots(self) -> tuple[float, ...]:
        """Points in (0, s_max] where the weight may lose smoothness."""
        raise NotImplementedError


class _ClosedFormWeight(WeightFunction):
    """Weight backed by an exact power-log representation."""

    def __init__(self, form: PowerLogForm):
        self._form = form
        self.support_bound = form.s_max

    def _values(self, s):
        return self._form(s)

    @property
    def singularity(self):
        return self._form.singularity()

    def value_at_zero(self):
        return self._form.value_at_zero()

    def closed_form(self):
        return self._form

    def knots(self):
        return (self._form.s_max,)


class Tent(_ClosedFormWeight):
    """max(0, 1 - s/s0)."""

    def __init__(self, s0: float = 1.0):
        if not (math.isfinite(s0) and s0 > 0):
            raise ValueError("tent needs a finite s0 > 0")
        self.s0 = float(s0)
        terms = (_Term(1.0, 0.0, 0), _Term(-1.0 / self.s0, 1.0, 0))
        super().__init__(PowerLogForm(terms, self.s0))


class LogCap(_ClosedFormWeight):
    """max(0, ln(1/s)); log singularity at 0, support (0, 1]."""

    def __init__(self):
        super().__init__(PowerLogForm((_Term(-1.0, 0.0, 1),), 1.0))


class PolyCapped(_ClosedFormWeight):
    """Polynomial sum(coeffs[i] * s^i) on (0, cutoff], 0 beyond.

    Continuity at the cutoff is up to the caller; discontinuous members exist
    in the catalog only for sign checks and stay out of transform identities.
    """

    def __init__(self, coeffs, cutoff: float = 1.0):
        self.coeffs = [float(c) for c in coeffs]
        if not (math.isfinite(cutoff) and cutoff > 0 and all(map(math.isfinite, self.coeffs))):
            raise ValueError("poly_capped needs finite coefficients and a finite cutoff > 0")
        self.cutoff = float(cutoff)
        terms = tuple(_Term(c, float(i), 0) for i, c in enumerate(self.coeffs) if c != 0.0)
        super().__init__(PowerLogForm(terms, self.cutoff))


class Bump(WeightFunction):
    """Smooth bump exp(1 - (b-a)^2 / (4 (s-a)(b-s))) on (a, b), peak value 1."""

    def __init__(self, a: float, b: float):
        if not (0 <= a < b and math.isfinite((b - a) * (b - a))):
            raise ValueError("bump needs 0 <= a < b with a finite (b - a)^2")
        self.a = float(a)
        self.b = float(b)
        self.support_bound = self.b

    def _values(self, s):
        # the formula on every point, kept only inside (a, b): no gather or
        # scatter, and outside its overflows, zero divisions and NaNs are dropped
        inside = (s > self.a) & (s < self.b)
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            v = np.exp(1.0 - (self.b - self.a) ** 2 / (4.0 * (s - self.a) * (self.b - s)))
        return np.where(inside, v, 0.0)

    @property
    def singularity(self):
        return Singularity("none")

    def value_at_zero(self):
        return 0.0

    @property
    def flat_below(self):
        return self.a

    def knots(self):
        return (self.a, self.b) if self.a > 0 else (self.b,)


class Scaled(WeightFunction):
    def __init__(self, inner: WeightFunction, factor: float):
        self.inner = inner
        self.factor = float(factor)
        if not math.isfinite(self.factor):
            raise ValueError("scaled needs a finite factor")
        self.support_bound = inner.support_bound

    @np.errstate(over="ignore")  # a product beyond double precision is inf
    def _values(self, s):
        return self.factor * np.asarray(self.inner._values(s))

    @property
    def singularity(self):
        return self.inner.singularity

    def value_at_zero(self):
        v = self.inner.value_at_zero()
        return None if v is None else self.factor * v

    def knots(self):
        return self.inner.knots()


class SumWeight(WeightFunction):
    def __init__(self, terms):
        terms = list(terms)
        if not terms:
            raise ValueError("sum needs at least one term")
        self.terms = terms
        self.support_bound = max(t.support_bound for t in terms)

    @np.errstate(over="ignore", invalid="ignore")  # inf, or nan for inf - inf
    def _values(self, s):
        return sum(np.asarray(t._values(s)) for t in self.terms)

    @property
    def singularity(self):
        kinds = [t.singularity for t in self.terms]
        if any(k.kind == "unknown" for k in kinds):
            return Singularity("unknown")
        powers = [k.power for k in kinds if k.kind == "power"]
        if powers:
            return Singularity("power", min(powers))
        if any(k.kind == "log" for k in kinds):
            return Singularity("log")
        return Singularity("none")

    def value_at_zero(self):
        vals = [t.value_at_zero() for t in self.terms]
        if any(v is None for v in vals):
            return None
        return float(sum(vals))

    def knots(self):
        ks = sorted({k for t in self.terms for k in t.knots()})
        return tuple(ks)


# Transforms without a closed form: the integrand is fitted piecewise by
# Chebyshev series, sampled at the Chebyshev points of the first kind, and the
# series are integrated exactly (after chebfun's cumsum).
_CHEB_DEG = 32
_CHEB_TOL = 1e-15       # trailing coefficients times half-width, over the integral scale
_CHEB_MAX_PIECES = 2048
_EXT_FLOOR = 1e-13      # with nothing flat, dyadic pieces stop at this share of s_max
_THETA = np.pi * (np.arange(_CHEB_DEG + 1) + 0.5) / (_CHEB_DEG + 1)
_CHEB_NODES = np.cos(_THETA)
_TO_COEF = (2.0 / (_CHEB_DEG + 1)) * np.cos(np.outer(np.arange(_CHEB_DEG + 1), _THETA))
_TO_COEF[0] *= 0.5


class _ChebTail:
    """F(s) = int_s^{edges[-1]} g(t) dt from exactly integrated Chebyshev pieces.

    ``edges`` cuts the range into roots on each of which g is smooth; a piece
    is bisected until its trailing coefficients, times its half-width, fall
    below ``_CHEB_TOL`` of the integral scale, the largest max|g| * width of
    its root and of every root right of it.  So F is resolved relative to its
    own size even where g grows toward 0.  More than ``_CHEB_MAX_PIECES``
    pieces raise :class:`NonConvergedError`; an overflow raises
    :class:`SchemaError`.
    """

    # overflow, or a pole of g at a node that underflowed to 0, fails the finiteness check
    @np.errstate(over="ignore", invalid="ignore", divide="ignore")
    def __init__(self, g, edges):
        a, b = np.asarray(edges[:-1], dtype=float), np.asarray(edges[1:], dtype=float)
        root, scale, done = np.arange(len(a)), None, []
        while len(a):
            half = 0.5 * (b - a)
            vals = np.asarray(g(((a + b)[:, None] * 0.5 + half[:, None] * _CHEB_NODES).ravel()),
                              dtype=float).reshape(len(a), -1)
            if not np.all(np.isfinite(vals)):
                raise SchemaError("transform integrand overflows double precision")
            coef = vals @ _TO_COEF.T
            if scale is None:
                area = np.abs(vals).max(axis=1) * (b - a)
                scale = np.maximum.accumulate(area[::-1])[::-1]
            ok = np.abs(coef[:, -4:]).max(axis=1) * half <= _CHEB_TOL * scale[root]
            done.append((a[ok], b[ok], coef[ok] * half[ok, None]))
            a, b, root = a[~ok], b[~ok], root[~ok]
            if sum(len(d[0]) for d in done) + 2 * len(a) > _CHEB_MAX_PIECES:
                raise NonConvergedError(f"Chebyshev fit of the transform integrand needs "
                                        f"more than {_CHEB_MAX_PIECES} pieces")
            mid = 0.5 * (a + b)
            a, b, root = np.concatenate([a, mid]), np.concatenate([mid, b]), np.tile(root, 2)
        lo, hi, coef = (np.concatenate(x) for x in zip(*done))
        order = np.argsort(lo)
        self.lo, self.hi = lo[order], hi[order]
        # integral from each piece's left end; F = (total of this piece and right of it) - it
        integral = cheb.chebint(coef[order], lbnd=-1, axis=1)
        total = np.cumsum(integral.sum(axis=1)[::-1])[::-1]
        integral = -integral
        integral[:, 0] += total
        if not np.all(np.isfinite(integral)):
            raise SchemaError("transform integral overflows double precision")
        self._coef = np.ascontiguousarray(integral.T)

    def __call__(self, s: np.ndarray) -> np.ndarray:
        """F on points of [lo[0], hi[-1]]: Clenshaw with per-point coefficients."""
        p = np.minimum(np.searchsorted(self.hi, s), len(self.hi) - 1)
        x2 = 2.0 * (2.0 * s - self.lo[p] - self.hi[p]) / (self.hi[p] - self.lo[p])
        b1, b2 = np.zeros_like(s), np.zeros_like(s)
        for row in self._coef[:0:-1]:
            b1, b2 = row[p] + x2 * b1 - b2, b1
        return self._coef[0][p] + 0.5 * x2 * b1 - b2


class TransformedWeight(WeightFunction):
    """Lazy T^p for a power p != 0 of either sign, s^p z(s) + p * int_s^inf t^{p-1} z(t) dt,
    of an inner weight z without a closed form.

    Built only by ``_transformed``, which splits sums and scalings first, so
    z is a :class:`Bump` or another TransformedWeight (a bump-rooted chain).
    The integrand t^{p-1} z is fitted by Chebyshev pieces on the inner knot
    intervals and integrated exactly (:class:`_ChebTail`), built on first
    use.  The transform is constant below the inner flat region; with none,
    dyadic pieces run toward 0 down to ``_EXT_FLOOR`` times the support
    bound, and the transform is constant below that.
    """

    def __init__(self, inner: WeightFunction, power: int):
        self.inner = inner
        self.power = int(power)
        float(self.power)  # a power beyond double range overflows here, not on first use
        self.support_bound = inner.support_bound

    @cached_property
    def _tail(self) -> _ChebTail:
        fb = self.inner.flat_below
        lo = fb if fb > 0 else _EXT_FLOOR * self.support_bound
        edges = {lo, self.support_bound}
        edges |= {k for k in self.inner.knots() if lo < k < self.support_bound}
        x = min(edges - {lo}) / 2.0
        while fb <= 0 and x > lo:  # dyadic pieces toward 0
            edges.add(x)
            x /= 2.0
        return _ChebTail(lambda t: t ** (self.power - 1) * self.inner(t), sorted(edges))

    def _values(self, s):
        se = np.maximum(s, self._tail.lo[0])
        out = (se ** self.power * np.asarray(self.inner._values(se))
               + self.power * self._tail(np.minimum(se, self.support_bound)))
        out[s >= self.support_bound] = 0.0
        return out

    @property
    def singularity(self):
        # a bump-rooted inner weight is either 'none' or 'unknown' at 0
        if self.inner.flat_below > 0 or (
                self.power > 0 and self.inner.singularity.kind == "none"):
            return Singularity("none")
        return Singularity("unknown")

    def value_at_zero(self):
        # the value at the lower end of the fit: T(flat_below), or l * F(0)
        if self.inner.flat_below > 0 or (
                self.power > 0 and self.inner.value_at_zero() is not None):
            return float(self._values(np.zeros(1))[0])
        return None

    @property
    def flat_below(self):
        return self.inner.flat_below

    def knots(self):
        return self.inner.knots()


# ---------------------------------------------------------------------------
# Operations


def transform_R_power(zeta: WeightFunction, l: int) -> WeightFunction:
    """T^l via the direct formula (never by l-fold composition); l >= 0."""
    if l < 0:
        raise ValueError("use transform_R_inverse for negative powers")
    return zeta if l == 0 else _transformed(zeta, l)


def transform_R_inverse(rho: WeightFunction, l: int) -> WeightFunction:
    """T^{-l} for l >= 1; the bijection inverse of T^l between admissibility classes."""
    if l < 1:
        raise ValueError("inverse transform needs l >= 1")
    return _transformed(rho, -l)


# Closed-form transforms add the power to each term's exponent, so at a power
# l their relative error grows like l times the double epsilon: tent's
# T^l(1/2), about 1/(l + 1), is off by 1.1e-10 relative at 10**6, 9.3e-10 at
# 10**7 and 5e-5 at 10**12, and at 10**20 the terms cancel to 0.
MAX_POWER = 10 ** 6


def _transformed(zeta: WeightFunction, p: int) -> WeightFunction:
    """T^p in the one representation it uses: split over sums and scalings,
    exact on a closed form, else a lazy :class:`TransformedWeight`."""
    if abs(p) > MAX_POWER:
        raise ValueError(f"transform power {abs(p)} is above the cap {MAX_POWER}")
    if isinstance(zeta, SumWeight):
        return SumWeight([_transformed(t, p) for t in zeta.terms])
    if isinstance(zeta, Scaled):
        return Scaled(_transformed(zeta.inner, p), zeta.factor)
    form = zeta.closed_form()
    if form is not None:
        return _ClosedFormWeight(form.transform(p))
    return TransformedWeight(zeta, p)


def xi_from_zeta(zeta: WeightFunction, j: int, k: int, n: int) -> WeightFunction:
    """kappa_{n-k}/C(n-j, k-j) * T^{n-k}(zeta), the projected-dimension weight."""
    if not 0 <= j <= k <= n:
        raise ValueError("need 0 <= j <= k <= n")
    factor = kappa(n - k) / math.comb(n - j, k - j)
    return Scaled(transform_R_power(zeta, n - k), factor)


def in_had_class(zeta: WeightFunction, j: int, n: int) -> tuple[bool, str]:
    """Membership in the admissibility class of degree j in dimension n,
    0 <= j <= n, decided from the singularity descriptor (no limit sampling).

    The degenerate (0, 0) class is defined to coincide with (1, 1).
    """
    if not 0 <= j <= n:
        raise ValueError(f"need 0 <= j <= n, got j={j}, n={n}")
    if (j, n) == (0, 0):
        j, n = 1, 1
    sing = zeta.singularity
    if sing.kind == "unknown":
        raise UnknownSingularity(
            "singularity descriptor unavailable for this transform chain; "
            "membership cannot be certified")
    if j == n:
        if sing.kind == "none":
            return True, "finite limit at 0"
        return False, f"{sing.kind} singularity at 0; the (n, n) class needs a finite limit"
    gap = n - j
    if sing.kind in ("none", "log"):
        return True, f"{sing.kind} behavior at 0 is admissible for n - j = {gap}"
    if sing.power > -gap:
        return True, f"power {sing.power:g} > -(n - j) = {-gap}"
    return False, f"power {sing.power:g} <= -(n - j) = {-gap}"


@dataclass(frozen=True)
class NonnegativityVerdict:
    nonnegative: bool
    min_value: float
    argmin: float


def log_grid(s_max: float, count: int = 200) -> np.ndarray:
    """Log-spaced grid on [1e-4, s_max], covering the singular region near 0."""
    return np.geomspace(1e-4, s_max, count)


def nonnegativity_check(zeta: WeightFunction, j: int, n: int,
                        grid: int = 200) -> NonnegativityVerdict:
    """Sign of the valuation generated by zeta at degree j.

    A weight outside the admissibility class of (j, n) generates no valuation
    and raises :class:`SchemaError`.  Grid-certified only: the 1 <= j <= n-1
    criterion samples T^{n-j}(zeta) on a log grid plus its limit at 0; j = n
    checks zeta itself; j = 0 checks the sign of the constant.
    """
    if not 0 <= j <= n:
        raise ValueError("need 0 <= j <= n")
    ok, why = in_had_class(zeta, j, n)
    if not ok:
        raise SchemaError(f"weight not admissible for degree j={j} in dimension n={n}: {why}")
    if j == 0:
        v0 = transform_R_power(zeta, n).value_at_zero()
        return NonnegativityVerdict(v0 >= -1e-12, v0, 0.0)
    target = zeta if j == n else transform_R_power(zeta, n - j)
    s = log_grid(target.support_bound, grid)
    vals = np.asarray(target(s))
    v0 = target.value_at_zero()
    pts = list(zip(s, vals))
    if v0 is not None:
        pts.append((0.0, v0))
    argmin, min_value = min(pts, key=lambda t: t[1])
    return NonnegativityVerdict(min_value >= -1e-12, float(min_value), float(argmin))


# ---------------------------------------------------------------------------
# JSON specs


def weight_from_spec(spec: dict) -> WeightFunction:
    if not isinstance(spec, dict) or "type" not in spec:
        raise SchemaError(f"weight spec must be an object with a 'type': {spec!r}")
    t = spec["type"]
    with spec_errors(f"weight spec '{t}'"):
        if t == "tent":
            return Tent(spec.get("s0", 1.0))
        if t == "log_cap":
            return LogCap()
        if t == "bump":
            return Bump(spec["a"], spec["b"])
        if t == "poly_capped":
            return PolyCapped(spec["coeffs"], spec.get("cutoff", 1.0))
        if t == "scaled":
            return Scaled(weight_from_spec(spec["inner"]), spec["factor"])
        if t == "sum":
            return SumWeight([weight_from_spec(s) for s in spec["terms"]])
        if t == "transform":
            l = spec["l"]
            if isinstance(l, bool) or not isinstance(l, int):
                raise TypeError(f"'l' must be an integer, got {l!r}")
            inner = weight_from_spec(spec["inner"])
            if l == 0:
                return inner
            return transform_R_power(inner, l) if l > 0 else transform_R_inverse(inner, -l)
    raise SchemaError(f"unknown weight type {t!r}")
