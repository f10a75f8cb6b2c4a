"""Independent reference values for the benchmark's ops.

Everything here is computed from closed forms and one-dimensional
``scipy.integrate.quad`` moments at tight tolerance.  Nothing in this module
imports funvol: a reference must never share a code path with the route it
judges.  Each function returns ``(value, abs_err)``, where ``abs_err`` bounds
the reference's own quadrature error.
"""
from __future__ import annotations

import math

from scipy.integrate import quad

QUAD_OPTS = {"epsabs": 0.0, "epsrel": 1e-13, "limit": 400}


def kappa(n: int) -> float:
    """Volume of the n-dimensional unit ball."""
    return math.pi ** (n / 2.0) / math.gamma(n / 2.0 + 1.0)


def elem_sym(values, k: int) -> float:
    """k-th elementary symmetric function of a list of numbers."""
    e = [1.0] + [0.0] * k
    for v in values:
        for d in range(k, 0, -1):
            e[d] += v * e[d - 1]
    return e[k]


# -- weights ----------------------------------------------------------------


def weight(spec: dict):
    """(zeta, lo, hi) for a weight JSON spec: zeta(s) is the scalar weight,
    (lo, hi) the interval outside which it vanishes."""
    kind = spec["type"]
    if kind == "tent":
        s0 = float(spec.get("s0", 1.0))
        return (lambda s: max(0.0, 1.0 - s / s0)), 0.0, s0
    if kind == "log_cap":
        return (lambda s: -math.log(s) if 0.0 < s < 1.0 else 0.0), 0.0, 1.0
    if kind == "bump":
        a, b = float(spec["a"]), float(spec["b"])

        def bump(s):
            if not a < s < b:
                return 0.0
            return math.exp(1.0 - (b - a) ** 2 / (4.0 * (s - a) * (b - s)))
        return bump, a, b
    raise ValueError(f"no reference weight for {kind!r}")


def _quad(f, lo: float, hi: float) -> tuple[float, float]:
    if hi <= lo:
        return 0.0, 0.0
    value, err = quad(f, lo, hi, **QUAD_OPTS)
    return value, err


def moment(spec: dict, m: int) -> tuple[float, float]:
    """int_0^inf zeta(s) s^m ds."""
    zeta, lo, hi = weight(spec)
    return _quad(lambda s: zeta(s) * s ** m, lo, hi)


def transform_power(spec: dict, l: int, t: float) -> tuple[float, float]:
    """(T^l zeta)(t) = t^l zeta(t) + l int_t^inf s^{l-1} zeta(s) ds, l >= 0."""
    zeta, lo, hi = weight(spec)
    if l == 0:
        return zeta(t), 0.0
    tail, err = _quad(lambda s: s ** (l - 1) * zeta(s), max(t, lo), hi)
    head = t ** l * zeta(t) if t > 0 else 0.0
    return head + l * tail, l * err


# -- valuations of catalog functions -------------------------------------------


def quadratic_primal(eigs, j: int, spec: dict) -> tuple[float, float]:
    """V_j of x'Ax/2 with eig(A) = eigs: e_j(A^-1) n kappa_n int zeta(s) s^{n-1} ds.

    The gradient map y = Ax turns the Hessian integral into a radial moment.
    """
    n = len(eigs)
    mom, err = moment(spec, n - 1)
    c = elem_sym([1.0 / x for x in eigs], j) * n * kappa(n)
    return c * mom, abs(c) * err


def quadratic_dual(eigs, j: int, spec: dict) -> tuple[float, float]:
    """Dual valuation of x'Ax/2: e_j(A) n kappa_n int zeta(s) s^{n-1} ds."""
    n = len(eigs)
    mom, err = moment(spec, n - 1)
    c = elem_sym(eigs, j) * n * kappa(n)
    return c * mom, abs(c) * err


def _radial_esym(n: int, i: int, p: float, scale: float, r: float) -> float:
    """e_i of the Hessian of scale |x|^p / p at radius r (one radial eigenvalue)."""
    tang = scale * r ** (p - 2.0)
    rad = (p - 1.0) * tang
    out = math.comb(n - 1, i) * tang ** i
    if i >= 1:
        out += math.comb(n - 1, i - 1) * tang ** (i - 1) * rad
    return out


def radial_primal(n: int, j: int, p: float, scale: float, spec: dict) -> tuple[float, float]:
    """V_j of scale |x|^p / p: n kappa_n int zeta(|grad|) e_{n-j}(Hess) r^{n-1} dr."""
    zeta, _, hi = weight(spec)
    r_max = (hi / scale) ** (1.0 / (p - 1.0))

    def f(r):
        return zeta(scale * r ** (p - 1.0)) * _radial_esym(n, n - j, p, scale, r) * r ** (n - 1)
    value, err = _quad(f, 0.0, r_max)
    c = n * kappa(n)
    return c * value, c * err


def radial_dual(n: int, j: int, p: float, scale: float, spec: dict) -> tuple[float, float]:
    """Dual valuation of scale |x|^p / p: n kappa_n int zeta(r) e_j(Hess) r^{n-1} dr."""
    zeta, lo, hi = weight(spec)
    value, err = _quad(lambda r: zeta(r) * _radial_esym(n, j, p, scale, r) * r ** (n - 1),
                       lo, hi)
    c = n * kappa(n)
    return c * value, c * err


def cone(n: int, j: int, t: float, r: float, spec: dict) -> tuple[float, float]:
    """V_j of t|x| on the r-ball: kappa_n C(n, j) (T^{n-j} zeta)(t) r^j."""
    tv, err = transform_power(spec, n - j, t)
    c = kappa(n) * math.comb(n, j) * r ** j
    return c * tv, c * err


# -- bodies -----------------------------------------------------------------


def ball_volume(n: int, radius: float, j: int) -> float:
    """Steiner: V_j of an n-ball."""
    return math.comb(n, j) * kappa(n) / kappa(n - j) * radius ** j


def box_volume(sides, j: int) -> float:
    """V_j of a box: e_j of its side lengths."""
    return elem_sym(sides, j)


def body_volume(body: dict, n: int, j: int) -> float | None:
    """V_j for ball and box specs; None where no independent closed form is kept."""
    if body["type"] == "ball":
        return ball_volume(n, float(body["r"]), j)
    if body["type"] == "box":
        return box_volume([float(b) - float(a) for a, b in body["intervals"]], j)
    return None


def retrieval(n: int, j: int, spec: dict, vj: float) -> tuple[float, float]:
    """Indicator of K: kappa_{n-j} (T^{n-j} zeta)(0) V_j(K); zeta(0) V_n(K) at j = n."""
    tv, err = transform_power(spec, n - j, 0.0)
    c = kappa(n - j) * vj
    return c * tv, c * err


def classical(n: int, j: int, k: int, vj: float) -> float:
    """Left side of the classical projection formula at (j, k)."""
    if j == k:
        return vj
    return kappa(n - j) / kappa(k - j) * math.comb(n - j, k - j) * vj
