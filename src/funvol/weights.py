"""Weight functions on (0, inf) with bounded support and their transform calculus.

The catalog (tent, smooth bump, capped log, capped polynomial, plus scaling,
sums and lazy transforms) is closed under the integral transform

    (T z)(s) = s z(s) + integral_s^inf z(t) dt,

its iterates T^l(z)(s) = s^l z(s) + l * int_s^inf t^{l-1} z(t) dt and the
inverse T^{-l}(r)(s) = r(s)/s^l - l * int_s^inf r(t)/t^{l+1} dt.  Tent, capped
log and capped polynomial live in a piecewise power-log algebra where all of
these are exact; bump-rooted chains fall back to memoized adaptive quadrature.

Membership in the admissibility class indexed by (j, n) -- vanishing of
s^{n-j} z(s) at 0 together with a finite limit of int_s^inf t^{n-j-1} z(t) dt
(finite limit of z itself when j = n) -- is decided from the singularity
descriptor analytically, never by sampling near 0.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import SchemaError, UnknownSingularity
from .numerics import (DEFAULT_CONFIG, QuadratureConfig, gauss_panel,
                       integrate_interval, kappa)

__all__ = [
    "Singularity",
    "HadClass",
    "WeightFunction",
    "Tent",
    "Bump",
    "LogCap",
    "PolyCapped",
    "Scaled",
    "SumWeight",
    "TransformedWeight",
    "transform_R",
    "transform_R_power",
    "transform_R_inverse",
    "alpha_from_zeta",
    "xi_from_zeta",
    "in_had_class",
    "nonnegativity_check",
    "NonnegativityVerdict",
    "log_grid",
    "weight_from_spec",
    "weight_to_spec",
]

_COEF_EPS = 1e-13


@dataclass(frozen=True)
class Singularity:
    """Behavior of a weight at 0+: 'none' (finite limit), 'log', 'power' (p < 0), 'unknown'."""
    kind: str
    power: float = 0.0


@dataclass(frozen=True)
class HadClass:
    """Admissibility class indexed by degree j and dimension n, 0 <= j <= n."""
    j: int
    n: int

    def __post_init__(self):
        if not 0 <= self.j <= self.n:
            raise ValueError(f"need 0 <= j <= n, got j={self.j}, n={self.n}")

    def normalized(self) -> "HadClass":
        # The degenerate (0, 0) class is defined to coincide with (1, 1).
        return HadClass(1, 1) if (self.j, self.n) == (0, 0) else self


# ---------------------------------------------------------------------------
# Piecewise power-log closed forms


@dataclass(frozen=True)
class _Term:
    """c * t**p * ln(t)**q."""
    c: float
    p: float
    q: int


def _combine(terms) -> tuple[_Term, ...]:
    acc: dict[tuple[float, int], float] = {}
    scale = max((abs(t.c) for t in terms), default=0.0)
    for t in terms:
        key = (round(t.p, 10), t.q)
        acc[key] = acc.get(key, 0.0) + t.c
    out = tuple(_Term(c, p, q) for (p, q), c in sorted(acc.items())
                if abs(c) > _COEF_EPS * max(1.0, scale))
    return out


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


@dataclass(frozen=True)
class _Piece:
    lo: float
    hi: float
    terms: tuple[_Term, ...]


class PowerLogForm:
    """Piecewise sum of c * t^p * ln(t)^q on contiguous pieces covering (0, s_max]."""

    def __init__(self, pieces, s_max: float):
        norm: list[_Piece] = []
        cursor = 0.0
        for pc in sorted(pieces, key=lambda p: p.lo):
            if pc.hi <= pc.lo:
                continue
            if pc.lo > cursor + 1e-15:
                norm.append(_Piece(cursor, pc.lo, ()))
            norm.append(_Piece(pc.lo, pc.hi, _combine(pc.terms)))
            cursor = pc.hi
        if cursor < s_max - 1e-15:
            norm.append(_Piece(cursor, s_max, ()))
        self.pieces = norm
        self.s_max = s_max

    def __call__(self, s) -> np.ndarray:
        s = np.asarray(s, dtype=float)
        out = np.zeros_like(s)
        for pc in self.pieces:
            mask = (s > pc.lo) & (s <= pc.hi)
            if mask.any() and pc.terms:
                out[mask] = _eval_terms(pc.terms, s[mask])
        return out

    def value_at_zero(self) -> float | None:
        first = self.pieces[0]
        val = 0.0
        for t in first.terms:
            if t.p > 0:
                continue
            if t.p == 0.0 and t.q == 0:
                val += t.c
            else:
                return None
        return val

    def singularity(self) -> Singularity:
        first = self.pieces[0]
        if not first.terms:
            return Singularity("none")
        pmin = min(t.p for t in first.terms)
        if pmin < -1e-12:
            return Singularity("power", pmin)
        if any(t.p <= 1e-12 and t.q > 0 for t in first.terms):
            return Singularity("log")
        return Singularity("none")

    def flat_below(self) -> float:
        first = self.pieces[0]
        if all(t.p == 0.0 and t.q == 0 for t in first.terms):
            return first.hi
        return 0.0

    def scaled(self, c: float) -> "PowerLogForm":
        return PowerLogForm(
            [_Piece(p.lo, p.hi, _scale_terms(p.terms, c)) for p in self.pieces], self.s_max)

    def plus(self, other: "PowerLogForm") -> "PowerLogForm":
        s_max = max(self.s_max, other.s_max)
        edges = sorted({0.0, s_max}
                       | {p.lo for p in self.pieces} | {p.hi for p in self.pieces}
                       | {p.lo for p in other.pieces} | {p.hi for p in other.pieces})
        pieces = []
        for a, b in zip(edges, edges[1:]):
            terms = []
            for form in (self, other):
                for p in form.pieces:
                    if p.lo <= a + 1e-15 and b <= p.hi + 1e-15:
                        terms.extend(p.terms)
                        break
            pieces.append(_Piece(a, b, tuple(terms)))
        return PowerLogForm(pieces, s_max)

    def transform_power(self, l: int) -> "PowerLogForm":
        """T^l for l >= 1: s^l z(s) + l * int_s^inf t^{l-1} z(t) dt, exactly."""
        new_pieces = []
        tail = 0.0  # integral of t^{l-1} z over everything right of the current piece
        for pc in reversed(self.pieces):
            g = _antiderivative(_shift(pc.terms, l - 1))
            g_hi = float(_eval_terms(g, np.array([pc.hi]))[0]) if g else 0.0
            const = l * (tail + g_hi)
            terms = list(_shift(pc.terms, l))
            terms.append(_Term(const, 0.0, 0))
            terms.extend(_scale_terms(g, -l))
            new_pieces.append(_Piece(pc.lo, pc.hi, tuple(terms)))
            if pc.lo > 0.0:  # the first piece's own integral is never consumed
                g_lo = float(_eval_terms(g, np.array([pc.lo]))[0]) if g else 0.0
                tail += g_hi - g_lo
        return PowerLogForm(list(reversed(new_pieces)), self.s_max)

    def transform_inverse(self, l: int) -> "PowerLogForm":
        """T^{-l} for l >= 1: z(s)/s^l - l * int_s^inf z(t)/t^{l+1} dt, exactly."""
        new_pieces = []
        tail = 0.0
        for pc in reversed(self.pieces):
            g = _antiderivative(_shift(pc.terms, -l - 1))
            g_hi = float(_eval_terms(g, np.array([pc.hi]))[0]) if g else 0.0
            terms = list(_shift(pc.terms, -l))
            terms.append(_Term(-l * (tail + g_hi), 0.0, 0))
            terms.extend(_scale_terms(g, l))
            new_pieces.append(_Piece(pc.lo, pc.hi, tuple(terms)))
            if pc.lo > 0.0:
                g_lo = float(_eval_terms(g, np.array([pc.lo]))[0]) if g else 0.0
                tail += g_hi - g_lo
        return PowerLogForm(list(reversed(new_pieces)), self.s_max)


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
        out = np.zeros_like(s_arr)
        pos = s_arr > 0
        out[pos] = self._values(s_arr[pos])
        if np.any(~pos):
            v0 = self.value_at_zero()
            if v0 is None:
                raise ValueError("weight has no finite limit at 0")
            out[~pos] = v0
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

    @property
    def flat_below(self) -> float:
        return 0.0

    def knots(self) -> tuple[float, ...]:
        """Points in (0, s_max] where the weight may lose smoothness."""
        form = self.closed_form()
        if form is not None:
            return tuple(p.hi for p in form.pieces)
        return (self.support_bound,)

    def to_spec(self) -> dict:
        raise NotImplementedError


class _ClosedFormWeight(WeightFunction):
    """Weight backed by an exact piecewise power-log representation."""

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

    @property
    def flat_below(self):
        return self._form.flat_below()


class Tent(_ClosedFormWeight):
    """max(0, 1 - s/s0)."""

    def __init__(self, s0: float = 1.0):
        if s0 <= 0:
            raise ValueError("tent needs s0 > 0")
        self.s0 = float(s0)
        super().__init__(PowerLogForm(
            [_Piece(0.0, self.s0, (_Term(1.0, 0.0, 0), _Term(-1.0 / self.s0, 1.0, 0)))],
            self.s0))

    def to_spec(self):
        return {"type": "tent", "s0": self.s0}


class LogCap(_ClosedFormWeight):
    """max(0, ln(1/s)); log singularity at 0, support (0, 1]."""

    def __init__(self):
        super().__init__(PowerLogForm([_Piece(0.0, 1.0, (_Term(-1.0, 0.0, 1),))], 1.0))

    def to_spec(self):
        return {"type": "log_cap"}


class PolyCapped(_ClosedFormWeight):
    """Polynomial sum(coeffs[i] * s^i) on (0, cutoff], 0 beyond.

    Continuity at the cutoff is up to the caller; discontinuous members exist
    in the catalog only for sign checks and stay out of transform identities.
    """

    def __init__(self, coeffs, cutoff: float = 1.0):
        if cutoff <= 0:
            raise ValueError("poly_capped needs cutoff > 0")
        self.coeffs = [float(c) for c in coeffs]
        self.cutoff = float(cutoff)
        terms = tuple(_Term(c, float(i), 0) for i, c in enumerate(self.coeffs) if c != 0.0)
        super().__init__(PowerLogForm([_Piece(0.0, self.cutoff, terms)], self.cutoff))

    def to_spec(self):
        return {"type": "poly_capped", "coeffs": self.coeffs, "cutoff": self.cutoff}


class Bump(WeightFunction):
    """Smooth bump exp(1 - (b-a)^2 / (4 (s-a)(b-s))) on (a, b), peak value 1."""

    def __init__(self, a: float, b: float):
        if not 0 <= a < b:
            raise ValueError("bump needs 0 <= a < b")
        self.a = float(a)
        self.b = float(b)
        self.support_bound = self.b

    def _values(self, s):
        out = np.zeros_like(s)
        inside = (s > self.a) & (s < self.b)
        if inside.any():
            si = s[inside]
            with np.errstate(over="ignore"):
                out[inside] = np.exp(1.0 - (self.b - self.a) ** 2
                                     / (4.0 * (si - self.a) * (self.b - si)))
        return out

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

    def to_spec(self):
        return {"type": "bump", "a": self.a, "b": self.b}


class Scaled(WeightFunction):
    def __init__(self, inner: WeightFunction, factor: float):
        self.inner = inner
        self.factor = float(factor)
        self.support_bound = inner.support_bound

    def _values(self, s):
        return self.factor * np.asarray(self.inner(s))

    @property
    def singularity(self):
        return self.inner.singularity

    def value_at_zero(self):
        v = self.inner.value_at_zero()
        return None if v is None else self.factor * v

    def closed_form(self):
        f = self.inner.closed_form()
        return None if f is None else f.scaled(self.factor)

    @property
    def flat_below(self):
        return self.inner.flat_below

    def knots(self):
        return self.inner.knots()

    def to_spec(self):
        return {"type": "scaled", "factor": self.factor, "inner": self.inner.to_spec()}


class SumWeight(WeightFunction):
    def __init__(self, terms):
        terms = list(terms)
        if not terms:
            raise ValueError("sum needs at least one term")
        self.terms = terms
        self.support_bound = max(t.support_bound for t in terms)

    def _values(self, s):
        return sum(np.asarray(t(s)) for t in self.terms)

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

    def closed_form(self):
        forms = [t.closed_form() for t in self.terms]
        if any(f is None for f in forms):
            return None
        out = forms[0]
        for f in forms[1:]:
            out = out.plus(f)
        return out

    @property
    def flat_below(self):
        return min(t.flat_below for t in self.terms)

    def knots(self):
        ks = sorted({k for t in self.terms for k in t.knots()})
        return tuple(ks)

    def to_spec(self):
        return {"type": "sum", "terms": [t.to_spec() for t in self.terms]}


class _CumulativeTail:
    """F(s) = int_s^{hi} g(t) dt with memoized geometric panels toward 0."""

    def __init__(self, g, hi: float, cfg: QuadratureConfig):
        self.g = g
        self.hi = hi
        self.cfg = cfg
        self._edges = [hi]          # strictly decreasing
        self._cum = [(0.0, 0.0)]    # integral (value, error) from edges[k] to hi

    def _extend(self, s: float):
        while self._edges[-1] > max(s, 1e-13) and len(self._edges) < 120:
            a = self._edges[-1] / 2.0
            r = integrate_interval(self.g, a, self._edges[-1], self.cfg)
            v, e = self._cum[-1]
            self._edges.append(a)
            self._cum.append((v + r.value, e + r.error))

    def _segment(self, a: float, b: float) -> tuple[float, float]:
        """Integral over [a, b]; single Gauss panel with adaptive fallback."""
        if b <= a:
            return 0.0, 0.0
        v, e = gauss_panel(self.g, a, b, self.cfg.order)
        if e > max(self.cfg.abs_tol, self.cfg.rel_tol * abs(v)):
            r = integrate_interval(self.g, a, b, self.cfg)
            return r.value, r.error
        return v, e

    def __call__(self, s: float) -> tuple[float, float]:
        if s >= self.hi:
            return 0.0, 0.0
        self._extend(s)
        k = 0
        while k < len(self._edges) and self._edges[k] > s:
            k += 1
        if k == len(self._edges):
            k -= 1  # s below the extension floor; the missing sliver is negligible
        v, e = self._cum[k - 1] if k > 0 else (0.0, 0.0)
        upper = self._edges[k - 1] if k > 0 else self.hi
        if upper > s:
            pv, pe = self._segment(s, upper)
            v, e = v + pv, e + pe
        return v, e

    def many(self, s_sorted: np.ndarray) -> np.ndarray:
        """F at an ascending array of points, via cumulative gap integration."""
        out = np.empty(len(s_sorted))
        acc, _ = self(float(s_sorted[-1]))
        out[-1] = acc
        for i in range(len(s_sorted) - 2, -1, -1):
            v, _ = self._segment(float(s_sorted[i]), float(s_sorted[i + 1]))
            acc += v
            out[i] = acc
        return out


class TransformedWeight(WeightFunction):
    """Lazy T^l (l may be negative) with exact closed forms where available."""

    def __init__(self, inner: WeightFunction, power: int,
                 cfg: QuadratureConfig | None = None):
        if power == 0:
            raise ValueError("power 0 is the identity; use the inner weight")
        self.inner = inner
        self.power = int(power)
        self.support_bound = inner.support_bound
        self._cfg = cfg or DEFAULT_CONFIG.loosened(abs_tol=1e-12, rel_tol=1e-11)
        self._form = None
        self._interp = None
        inner_form = inner.closed_form()
        if inner_form is not None:
            f = inner_form
            if power > 0:
                f = f.transform_power(power)
            else:
                f = f.transform_inverse(-power)
            self._form = f
        else:
            l = abs(self.power)
            if self.power > 0:
                self._tail = _CumulativeTail(
                    lambda t: np.asarray(t) ** (l - 1) * np.asarray(self.inner(t)),
                    self.support_bound, self._cfg)
            else:
                self._tail = _CumulativeTail(
                    lambda t: np.asarray(self.inner(t)) / np.asarray(t) ** (l + 1),
                    self.support_bound, self._cfg)

    def _point(self, s: float) -> float:
        l = abs(self.power)
        fb = self.inner.flat_below
        se = max(s, fb) if fb > 0 else s
        tail, _ = self._tail(se)
        if self.power > 0:
            return se ** l * float(self.inner(se)) + l * tail
        return float(self.inner(se)) / se ** l - l * tail

    def _build_interp(self):
        """Memoize the quadrature-backed transform as piecewise Chebyshev fits.

        The transform is constant below the inner flat region and smooth
        between the inner knots, so a modest fit reproduces it to ~1e-12; the
        fit is verified at off-node points and abandoned if it falls short.
        """
        from numpy.polynomial import chebyshev as cheb
        fb = self.inner.flat_below
        if fb <= 0:
            self._interp = False
            return
        edges = sorted({k for k in self.knots() if fb < k <= self.support_bound}
                       | {self.support_bound})
        pieces = []
        ok = True
        for lo, hi in zip([fb] + edges, edges):
            sub = np.linspace(lo, hi, 9)
            for a, b in zip(sub, sub[1:]):
                deg = 48
                nodes = np.cos(np.pi * (np.arange(deg + 1) + 0.5) / (deg + 1))
                xs = 0.5 * (a + b) + 0.5 * (b - a) * nodes
                ys = np.array([self._point(float(x)) for x in xs])
                fit = cheb.Chebyshev.fit(xs, ys, deg, domain=[a, b])
                mids = np.linspace(a, b, 7)[1:-1]
                scale = max(1.0, float(np.abs(ys).max()))
                if max(abs(fit(m) - self._point(float(m))) for m in mids) > 1e-10 * scale:
                    ok = False
                    break
                pieces.append((a, b, fit))
            if not ok:
                break
        if not ok:
            self._interp = False
            return
        self._interp = (self._point(fb), pieces)

    def _values(self, s):
        if self._form is not None:
            return self._form(s)
        s = np.asarray(s, dtype=float)
        if self._interp is None and s.size > 8:
            self._build_interp()
        if self._interp:
            head, pieces = self._interp
            out = np.zeros_like(s)
            out[s <= pieces[0][0]] = head
            for a, b, fit in pieces:
                mask = (s > a) & (s <= b)
                if mask.any():
                    out[mask] = fit(s[mask])
            out[s > self.support_bound] = 0.0
            return out
        uniq, inverse = np.unique(s, return_inverse=True)
        l = abs(self.power)
        fb = self.inner.flat_below
        se = np.maximum(uniq, fb) if fb > 0 else uniq
        tails = self._tail.many(se)
        inner_vals = np.asarray(self.inner(se))
        if self.power > 0:
            vals = se ** l * inner_vals + l * tails
        else:
            vals = inner_vals / se ** l - l * tails
        return vals[inverse]

    @property
    def singularity(self):
        if self._form is not None:
            return self._form.singularity()
        inner_sing = self.inner.singularity
        if self.power > 0:
            if inner_sing.kind in ("none", "log"):
                return Singularity("none")
            if inner_sing.kind == "power" and inner_sing.power + self.power >= 0:
                return Singularity("none")
            return Singularity("unknown")
        if self.inner.flat_below > 0:
            return Singularity("none")
        return Singularity("unknown")

    def value_at_zero(self):
        if self._form is not None:
            return self._form.value_at_zero()
        fb = self.inner.flat_below
        if fb > 0:
            return self._point(fb)
        if self.power > 0 and self.inner.value_at_zero() is not None:
            return self._point(1e-9)
        return None

    def closed_form(self):
        return self._form

    @property
    def flat_below(self):
        if self._form is not None:
            return self._form.flat_below()
        return self.inner.flat_below

    def knots(self):
        if self._form is not None:
            return tuple(p.hi for p in self._form.pieces)
        return self.inner.knots()

    def to_spec(self):
        return {"type": "transform", "l": self.power, "inner": self.inner.to_spec()}


# ---------------------------------------------------------------------------
# Operations


def transform_R(zeta: WeightFunction) -> WeightFunction:
    """One application of the transform."""
    return transform_R_power(zeta, 1)


def transform_R_power(zeta: WeightFunction, l: int) -> WeightFunction:
    """T^l via the direct formula (never by l-fold composition); l >= 0."""
    if l < 0:
        raise ValueError("use transform_R_inverse for negative powers")
    if l == 0:
        return zeta
    if isinstance(zeta, SumWeight):
        return SumWeight([transform_R_power(t, l) for t in zeta.terms])
    if isinstance(zeta, Scaled):
        return Scaled(transform_R_power(zeta.inner, l), zeta.factor)
    return TransformedWeight(zeta, l)


def transform_R_inverse(rho: WeightFunction, l: int) -> WeightFunction:
    """T^{-l} for l >= 1; the bijection inverse of T^l between admissibility classes."""
    if l < 1:
        raise ValueError("inverse transform needs l >= 1")
    if isinstance(rho, SumWeight):
        return SumWeight([transform_R_inverse(t, l) for t in rho.terms])
    if isinstance(rho, Scaled):
        return Scaled(transform_R_inverse(rho.inner, l), rho.factor)
    return TransformedWeight(rho, -l)


def alpha_from_zeta(zeta: WeightFunction, j: int, n: int) -> WeightFunction:
    """kappa_{n-j} * T^{n-j}(zeta): the degree-j inner-integral weight, finite at 0."""
    if not 0 <= j <= n:
        raise ValueError("need 0 <= j <= n")
    return Scaled(transform_R_power(zeta, n - j), kappa(n - j)) if j < n \
        else Scaled(zeta, 1.0)


def xi_from_zeta(zeta: WeightFunction, j: int, k: int, n: int) -> WeightFunction:
    """kappa_{n-k}/C(n-j, k-j) * T^{n-k}(zeta), the projected-dimension weight."""
    if not 0 <= j <= k <= n:
        raise ValueError("need 0 <= j <= k <= n")
    factor = kappa(n - k) / math.comb(n - j, k - j)
    return Scaled(transform_R_power(zeta, n - k), factor)


def in_had_class(zeta: WeightFunction, cls: HadClass) -> tuple[bool, str]:
    """Descriptor-driven membership decision (no limit sampling)."""
    cls = cls.normalized()
    sing = zeta.singularity
    if sing.kind == "unknown":
        raise UnknownSingularity(
            "singularity descriptor unavailable for this transform chain; "
            "membership cannot be certified")
    if cls.j == cls.n:
        if sing.kind == "none":
            return True, "finite limit at 0"
        return False, f"{sing.kind} singularity at 0; the (n, n) class needs a finite limit"
    gap = cls.n - cls.j
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
    note: str


def log_grid(s_max: float, count: int = 200, lo: float = 1e-4) -> np.ndarray:
    """Log-spaced grid on (lo, s_max], covering the singular region near 0."""
    return np.geomspace(lo, s_max, count)


def nonnegativity_check(zeta: WeightFunction, j: int, n: int,
                        grid: int = 200) -> NonnegativityVerdict:
    """Sign of the valuation generated by zeta at degree j.

    Grid-certified only: the 1 <= j <= n-1 criterion samples T^{n-j}(zeta) on a
    log grid plus its limit at 0; j = n checks zeta itself; j = 0 checks the
    sign of the constant.
    """
    if not 0 <= j <= n:
        raise ValueError("need 0 <= j <= n")
    if j == 0:
        rn = transform_R_power(zeta, n)
        v0 = rn.value_at_zero()
        v0 = 0.0 if v0 is None else v0
        return NonnegativityVerdict(v0 >= -1e-12, v0, 0.0,
                                    "sign of the degree-0 constant")
    target = zeta if j == n else transform_R_power(zeta, n - j)
    s = log_grid(target.support_bound, grid)
    vals = np.asarray(target(s))
    v0 = target.value_at_zero()
    pts = list(zip(s, vals))
    if v0 is not None:
        pts.append((0.0, v0))
    argmin, min_value = min(pts, key=lambda t: t[1])
    note = "grid-certified on a log grid plus the limit at 0"
    return NonnegativityVerdict(min_value >= -1e-12, float(min_value), float(argmin), note)


# ---------------------------------------------------------------------------
# JSON specs


def weight_from_spec(spec: dict) -> WeightFunction:
    if not isinstance(spec, dict) or "type" not in spec:
        raise SchemaError(f"weight spec must be an object with a 'type': {spec!r}")
    t = spec["type"]
    try:
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
            l = int(spec["l"])
            inner = weight_from_spec(spec["inner"])
            if l == 0:
                return inner
            return transform_R_power(inner, l) if l > 0 else transform_R_inverse(inner, -l)
    except KeyError as exc:
        raise SchemaError(f"weight spec '{t}' is missing field {exc}") from exc
    except (TypeError, ValueError) as exc:
        raise SchemaError(f"invalid weight spec '{t}': {exc}") from exc
    raise SchemaError(f"unknown weight type {t!r}")


def weight_to_spec(zeta: WeightFunction) -> dict:
    return zeta.to_spec()
