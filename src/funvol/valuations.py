"""Functional intrinsic volumes: three independent evaluation routes.

For a degree j, dimension n and admissible weight, the valuation of a smooth
strictly convex function is the integral of weight(|grad u|) times the
(n-j)-th elementary symmetric function of the Hessian eigenvalues.  The same
number is reached through a Grassmannian average of projected-domain
integrals, and through the dual form on convex conjugates.  Each route
reports its value with an error estimate combining quadrature error and, for
the Grassmannian routes, the error of the subspace average: the Monte Carlo
standard error, or the level differences of a deterministic cubature.
Every subspace average runs through :func:`_grassmann_average`, which takes
the cubature wherever it covers the planes and Monte Carlo elsewhere, and
hands each level or draw to its caller as one plane stack: the shadows of a
body, for indicators and the classical check, are evaluated for the whole
stack in one numpy pass, and every other route maps its plane-by-plane
evaluation over it.  The Cauchy-Kubota route is the general projection route
at k = j.

Smooth-route integrals run in polar coordinates around the gradient-zero
point c, in the frame x = c + Hess u(c)^{-1} z, with radial panels split at
the weight's kink preimages per ray.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .convex import (Cone, ConvexFunction, EpiScaled, EpiTranslated, Indicator,
                     Rotated, body_intrinsic_volume, shadow_intrinsic_volumes)
from .errors import NotDifferentiable, SchemaError, UnsupportedVariant
from .numerics import (_ABS_TOL, _REL_TOL, _STREAM_FANOUT, Rng, flag_coefficient,
                       integrate_interval, integrate_polar_separable, kappa)
from .subspaces import (cubature_covers, cubature_levels, grassmann_cubature,
                        project_function, restrict_function, sample_grassmann,
                        whole_space)
from .weights import WeightFunction, in_had_class, transform_R_power, xi_from_zeta

__all__ = [
    "ValuationSpec",
    "EvalResult",
    "CheckResult",
    "eval_smooth",
    "eval_domain_gradient",
    "eval_cauchy_kubota",
    "eval_ck_general",
    "eval_dual",
    "eval_dual_ck",
    "cone_closed_form",
    "retrieval_check",
    "classical_ck_check",
    "reilly_radial_check",
]


@dataclass(frozen=True)
class ValuationSpec:
    """Degree, ambient dimension, and an admissibility-checked weight."""
    j: int
    n: int
    zeta: WeightFunction

    def __post_init__(self):
        if not 0 <= self.j <= self.n:
            raise SchemaError(f"need 0 <= j <= n, got j={self.j}, n={self.n}")
        ok, why = in_had_class(self.zeta, self.j, self.n)
        if not ok:
            raise SchemaError(
                f"weight not admissible for degree j={self.j} in dimension "
                f"n={self.n}: {why}")


@dataclass(frozen=True)
class EvalResult:
    value: float
    error: float
    method: str
    integrand_evals: int = 0
    subspace_samples: int = 0

    def to_dict(self):
        return {
            "value": self.value,
            "error": self.error,
            "method": self.method,
            "counters": {
                "integrand_evals": self.integrand_evals,
                "subspace_samples": self.subspace_samples,
            },
        }


@dataclass(frozen=True)
class CheckResult:
    """Two sides of an identity with their combined error estimate."""
    lhs: float
    rhs: float
    error: float
    lhs_result: EvalResult | None = None
    rhs_result: EvalResult | None = None

    @property
    def difference(self) -> float:
        return abs(self.lhs - self.rhs)


def _weighted_mean(weights: np.ndarray, x: np.ndarray) -> float:
    """sum_i weights_i x_i for weights summing to 1, taken about x_0, so a
    constant x gives x_0 exactly whatever the rounding of the weights' sum."""
    return float(x[0] + weights @ (x - x[0]))


def _grassmann_average(n: int, k: int, samples: int, rng: Rng, stack):
    """(mean, error, evals, planes) of ``stack(planes, streams) -> (values,
    errors, evals)`` over k-planes in R^n, with the number of planes evaluated.

    ``stack`` takes a whole plane stack at once, the planes of one cubature
    level or one Monte Carlo draw (a sequence of subspaces whose ``frames``
    is their (S, n, k) frame stack), with one random stream per plane, and
    returns arrays of the per-plane values, inner errors and integrand
    evaluations.  :func:`_per_plane` makes one from a plane-by-plane
    evaluation.

    The whole space (k = n) is a single plane: one evaluation on the
    identity frame, with weight 1 and stream ``rng``, whose error is that
    evaluation's inner error.

    Where :func:`grassmann_cubature` covers G(n, k) (lines and hyperplanes,
    n <= 4) the average is deterministic.  Its levels are those of
    :func:`cubature_levels` for a budget of ``samples`` planes, each plane
    handed ``rng``, and they run in order until two consecutive level
    estimates agree within the polar tolerance.  The mean is the last
    level's, and the error is the larger of the last two level differences
    plus the last level's weighted inner error.  A budget that runs out
    leaves that error bar, not a non-converged result.

    Elsewhere it is Monte Carlo over ``samples`` Haar k-planes, sample i drawn
    from ``rng.stream(i)``.  All the planes come from one
    :func:`sample_grassmann` call over the streams, one stacked draw, handed
    to ``stack`` in stream order.  The error is the Monte Carlo standard
    error and the mean inner error added in quadrature.  A single sample has
    no standard error; the estimate is returned with a NaN error so
    downstream verdicts become non_converged, never falsely certified.

    ``rng`` has at most ``_STREAM_FANOUT - 1`` child streams, so a larger
    ``samples`` raises :class:`SchemaError` before anything is drawn.
    """
    if samples < 1:
        raise SchemaError("need at least one subspace sample")
    if samples > _STREAM_FANOUT - 1:
        raise SchemaError(f"at most {_STREAM_FANOUT - 1} subspace samples per average, "
                          f"got {samples}")
    if k == n:
        values, errors, evals = stack(whole_space(n), [rng])
        return float(values[0]), float(errors[0]), int(np.sum(evals)), 1
    if cubature_covers(n, k):
        estimates, total, count = [], 0, 0
        for level in cubature_levels(n, samples):
            planes, weights = grassmann_cubature(n, k, level)
            values, errors, evals = stack(planes, [rng] * len(planes))
            total += int(np.sum(evals))
            count += len(planes)
            estimates.append(_weighted_mean(weights, values))
            inner = _weighted_mean(weights, errors)
            if len(estimates) > 1 and abs(estimates[-1] - estimates[-2]) <= max(
                    _ABS_TOL, _REL_TOL * abs(estimates[-1])):
                break
        spread = float(np.max(np.abs(np.diff(estimates[-3:]))))
        return estimates[-1], spread + inner, total, count
    streams = [rng.stream(i) for i in range(samples)]
    values, errors, evals = stack(sample_grassmann(n, k, streams), streams)
    mean = float(np.sum(values)) / samples  # pairwise summation: bit-stable order
    if samples == 1:
        return mean, float("nan"), int(np.sum(evals)), samples
    se = float(np.std(values, ddof=1) / math.sqrt(samples))
    inner = float(np.mean(errors))
    return mean, math.hypot(se, inner), int(np.sum(evals)), samples


def _per_plane(one):
    """The plane-stack callback of :func:`_grassmann_average` that maps
    ``one(e, stream) -> (value, error, evals)`` over the stack, plane by plane."""
    def stack(planes, streams):
        values, errors, evals = zip(*map(one, planes, streams))
        return (np.asarray(values, dtype=float), np.asarray(errors, dtype=float),
                np.asarray(evals))
    return stack


def _exact(values: np.ndarray):
    """A plane-stack callback's result for exact per-plane values: no inner
    error and no integrand evaluations."""
    zeros = np.zeros(len(values))
    return values, zeros, zeros


# ---------------------------------------------------------------------------
# Smooth-route integrals


_TINY = np.finfo(float).tiny  # smallest normal double


def _whitening(u: ConvexFunction, center: np.ndarray) -> np.ndarray:
    """Hess u(center)^{-1} when finite and positive definite, else the identity."""
    try:
        hess = np.asarray(u.hessian(center), dtype=float)
    except NotDifferentiable:  # e.g. a radial power with p != 2
        return np.eye(u.n)
    if not np.all(np.isfinite(hess)) or np.linalg.eigvalsh(hess)[0] <= 0.0:
        return np.eye(u.n)
    return np.linalg.inv(hess)


def _smooth_integral(u: ConvexFunction, weight: WeightFunction, degree: int):
    """integral of weight(|grad u|) * e_degree(Hessian) over {|grad u| <= s_max}.

    The polar rule runs in z with x = c + M z, c the minimizer and M from
    :func:`_whitening`, so a quadratic's region {|grad u| <= s} is a ball in z.
    The integrand is still evaluated at the primal points x.  A frame whose
    |det M|, or squared image length |M d|^2 of a rule direction d, falls
    below the smallest normal double would lose its digits to underflow, so
    it raises :class:`SchemaError` instead.
    """
    if u.smooth_kind() is None:
        raise NotDifferentiable(
            f"{type(u).__name__} is outside the twice-differentiable catalog")
    s_max = weight.support_bound
    center = u.minimizer()
    frame = _whitening(u, center)
    jac = abs(float(np.linalg.det(frame)))
    if jac < _TINY:
        raise SchemaError(
            f"{type(u).__name__} is too steep at its minimizer: the whitening "
            f"frame's determinant {jac:.3e} underflows")
    singular = (u.smooth_kind() == "except_center"
                or weight.singularity.kind != "none")

    def integrand(z):
        pts = center + np.atleast_2d(z) @ frame.T
        g = u.gradient(pts)
        s = np.linalg.norm(np.atleast_2d(g), axis=1)
        w = jac * np.asarray(weight(np.minimum(s, s_max + 1.0)))
        w = np.where(s >= s_max, 0.0, w)
        if degree == 0:
            return w
        active = w != 0.0
        out = np.zeros_like(w)
        if active.any():
            out[active] = w[active] * np.asarray(
                u.hessian_elem_sym(pts[active], degree))
        return out

    # the catalog's |grad| along rays is separable g(dir) * h(r), so kink
    # radii sit at shared ratios of the per-ray region radius; rays through
    # c in z map to rays through c in x, so the ratios carry over
    knots = sorted(k for k in weight.knots() if 0.0 < k < s_max)
    probe = np.zeros((1, u.n))
    probe[0, 0] = 1.0
    r_probe = float(u.grad_radius(probe, s_max)[0])
    ratios = [float(u.grad_radius(probe, k)[0]) / r_probe for k in knots]

    def r_max(dirs):
        img = dirs @ frame.T
        squared = np.sum(img * img, axis=1)
        if squared.min() < _TINY:
            raise SchemaError(
                f"{type(u).__name__} is too steep at its minimizer: a whitened "
                f"direction's squared length {squared.min():.3e} underflows")
        length = np.sqrt(squared)
        return u.grad_radius(img / length[:, None], s_max) / length

    return integrate_polar_separable(integrand, u.n, r_max, break_ratios=ratios,
                                     singular_center=singular)


def eval_smooth(spec: ValuationSpec, u: ConvexFunction) -> EvalResult:
    """Direct Hessian-integrand route; needs j >= 1 and a twice-differentiable u."""
    if spec.j < 1:
        raise SchemaError("the smooth route needs j >= 1 (degree 0 is a constant)")
    res = _smooth_integral(u, spec.zeta, spec.n - spec.j)
    return EvalResult(res.value, res.error, "smooth", res.evaluations)


def eval_domain_gradient(spec: ValuationSpec, u: ConvexFunction) -> EvalResult:
    """Top-degree route: integral of weight(|grad u|) over the domain (j = n)."""
    if spec.j != spec.n:
        raise SchemaError("the domain-gradient route is the j = n representation")
    value, error, evals = _domain_weight_integral(u, spec.zeta)
    return EvalResult(value, error, "domain_gradient", evals)


def _eval_primal(spec: ValuationSpec, u: ConvexFunction, samples: int,
                 rng: Rng) -> EvalResult:
    """The valuation of u by the first route that applies: the domain-gradient
    integral at j = n, else the smooth route, else the Cauchy-Kubota average."""
    if spec.j == spec.n:
        return eval_domain_gradient(spec, u)
    if u.smooth_kind() is not None:
        return eval_smooth(spec, u)
    return eval_cauchy_kubota(spec, u, samples, rng)


def _value_at_zero(weight: WeightFunction):
    """weight(0), which must be finite."""
    v0 = weight.value_at_zero()
    if v0 is None:
        raise SchemaError("weight has no finite value at 0")
    return v0


def _domain_weight_integral(w: ConvexFunction, weight: WeightFunction):
    """integral over dom(w) of weight(|grad w|), with exact special cases."""
    if isinstance(w, Indicator):
        return _value_at_zero(weight) * w.body.volume(), 0.0, 0
    if isinstance(w, Cone):
        wt = _value_at_zero(weight) if w.t == 0 else float(weight(w.t))
        return wt * kappa(w.n) * w.r ** w.n, 0.0, 0
    if isinstance(w, (EpiTranslated, Rotated)):
        return _domain_weight_integral(w.inner, weight)
    if isinstance(w, EpiScaled):
        value, error, evals = _domain_weight_integral(w.inner, weight)
        scale = w.lam ** w.n
        return value * scale, error * scale, evals
    if w.smooth_kind() is not None:
        res = _smooth_integral(w, weight, 0)
        return res.value, res.error, res.evaluations
    raise UnsupportedVariant(
        f"domain-gradient integral unsupported for {type(w).__name__}")


# ---------------------------------------------------------------------------
# Grassmannian routes


def eval_cauchy_kubota(spec: ValuationSpec, u: ConvexFunction,
                       samples: int = 256, rng: Rng = Rng(0)) -> EvalResult:
    """Projection-average route at the natural projection dimension k = j."""
    return _projection_average(spec, u, spec.j, samples, rng, "cauchy_kubota")


def eval_ck_general(spec: ValuationSpec, u: ConvexFunction, k: int,
                    samples: int = 256, rng: Rng = Rng(0)) -> EvalResult:
    """Projection-average route at an intermediate dimension j <= k < n."""
    j, n = spec.j, spec.n
    if not j <= k < n:
        raise SchemaError(f"need j <= k < n, got j={j}, k={k}, n={n}")
    return _projection_average(spec, u, k, samples, rng, "ck_general")


def _projection_average(spec: ValuationSpec, u: ConvexFunction, k: int,
                        samples: int, rng: Rng, method: str) -> EvalResult:
    """Grassmannian average over k-planes of the degree-j valuation of u's projection."""
    j, n = spec.j, spec.n
    xi = xi_from_zeta(spec.zeta, j, k, n)
    if k == 0:
        return EvalResult(float(xi.value_at_zero()), 0.0, method)

    if isinstance(u, Indicator) and j == k:
        # the domain integral of xi over each shadow, xi(0) V_k(shadow), for
        # the whole stack at once
        v0 = _value_at_zero(xi)

        def stack(planes, streams):
            return _exact(v0 * shadow_intrinsic_volumes(u.body, planes.frames, k))
    else:
        def one(e, stream):
            # the degree-0 value is a constant that needs no projection
            w = project_function(u, e).realized if j > 0 else None
            return _z_lower_dim(j, k, xi, w, stream, samples)
        stack = _per_plane(one)

    mean, err, evals, planes = _grassmann_average(n, k, samples, rng, stack)
    coeff = flag_coefficient(n, k)
    return EvalResult(coeff * mean, coeff * err, method, evals, planes)


def _z_lower_dim(j: int, k: int, xi: WeightFunction, w: ConvexFunction | None,
                 rng: Rng, samples: int):
    """Degree-j functional intrinsic volume of a k-dimensional projection (None for j = 0).

    ``rng`` is the sample's stream; a nested average draws from its child stream 0.
    """
    if j == 0:
        const = kappa(k) * transform_R_power(xi, k).value_at_zero()
        return float(const), 0.0, 0
    if j == k:
        return _domain_weight_integral(w, xi)
    if w.smooth_kind() is not None:
        res = _smooth_integral(w, xi, k - j)
        return res.value, res.error, res.evaluations
    inner = eval_cauchy_kubota(ValuationSpec(j, k, xi), w, samples, rng.stream(0))
    return inner.value, inner.error, inner.integrand_evals


# ---------------------------------------------------------------------------
# Dual routes


def _dual_integral(j: int, weight: WeightFunction, v: ConvexFunction):
    """integral over {|x| <= s_max} of weight(|x|) * e_j(Hessian of v)."""
    s_max = weight.support_bound
    n = v.n

    def integrand(pts):
        s = np.linalg.norm(np.atleast_2d(pts), axis=1)
        w = np.asarray(weight(np.minimum(s, s_max + 1.0)))
        w = np.where(s >= s_max, 0.0, w)
        if j == 0:
            return w
        return w * np.asarray(v.hessian_elem_sym(pts, j))

    knots = sorted(k for k in weight.knots() if 0.0 < k < s_max)
    singular = (weight.singularity.kind != "none"
                or v.smooth_kind() == "except_center")
    return integrate_polar_separable(integrand, n, s_max,
                                     break_ratios=[k / s_max for k in knots],
                                     singular_center=singular)


def eval_dual(spec: ValuationSpec, v: ConvexFunction, path: str = "integral",
              samples: int = 256, rng: Rng = Rng(0)) -> EvalResult:
    """Dual valuation of a finite-valued v.

    ``integral`` evaluates weight(|x|) against the Hessian symmetric function
    of v directly; ``conjugate`` routes through the primal valuation of the
    convex conjugate.
    """
    if not v.is_finite:
        raise UnsupportedVariant("dual valuations act on finite-valued functions")
    if path == "integral":
        res = _dual_integral(spec.j, spec.zeta, v)
        return EvalResult(res.value, res.error, "dual_integral", res.evaluations)
    if path != "conjugate":
        raise SchemaError(f"unknown dual path {path!r}")
    u = v.conjugate()
    if spec.j == 0:
        const = kappa(spec.n) * transform_R_power(spec.zeta, spec.n).value_at_zero()
        return EvalResult(float(const), 0.0, "dual_conjugate")
    inner = _eval_primal(spec, u, samples, rng)
    return EvalResult(inner.value, inner.error, "dual_conjugate",
                      inner.integrand_evals, inner.subspace_samples)


def eval_dual_ck(spec: ValuationSpec, v: ConvexFunction, k: int,
                 samples: int = 256, rng: Rng = Rng(0)) -> EvalResult:
    """Dual projection-average route: restrictions in place of projections."""
    j, n = spec.j, spec.n
    if not j <= k < n:
        raise SchemaError(f"need j <= k < n, got j={j}, k={k}, n={n}")
    if not v.is_finite:
        raise UnsupportedVariant("dual valuations act on finite-valued functions")
    xi = xi_from_zeta(spec.zeta, j, k, n)
    if k == 0:
        return EvalResult(float(xi.value_at_zero()), 0.0, "dual_ck")

    def one(e, stream):
        if j == 0:  # a constant that needs no restriction
            const = kappa(k) * transform_R_power(xi, k).value_at_zero()
            return float(const), 0.0, 0
        res = _dual_integral(j, xi, restrict_function(v, e))
        return res.value, res.error, res.evaluations

    mean, err, evals, planes = _grassmann_average(n, k, samples, rng, _per_plane(one))
    coeff = flag_coefficient(n, k)
    return EvalResult(coeff * mean, coeff * err, "dual_ck", evals, planes)


# ---------------------------------------------------------------------------
# Closed forms and identity checks


def cone_closed_form(spec: ValuationSpec, t: float, r: float = 1.0) -> float:
    """Valuation of t|x| + (indicator of the r-ball): kappa_n C(n,j) T^{n-j}(zeta)(t) r^j."""
    j, n = spec.j, spec.n
    if not 1 <= j <= n:
        raise SchemaError("the cone closed form needs 1 <= j <= n")
    if t < 0 or r <= 0:
        raise SchemaError("need t >= 0 and r > 0")
    transformed = transform_R_power(spec.zeta, n - j)
    val = transformed.value_at_zero() if t == 0 else float(transformed(t))
    return kappa(n) * math.comb(n, j) * float(val) * r ** j


def retrieval_check(spec: ValuationSpec, body, samples: int = 256,
                    rng: Rng = Rng(0)) -> CheckResult:
    """Indicator functions retrieve the classical intrinsic volumes."""
    j, n = spec.j, spec.n
    if body.n != n:
        raise SchemaError("body dimension must match the spec")
    if j == n:
        v0 = spec.zeta.value_at_zero()
        rhs = float(v0) * body_intrinsic_volume(body, n)
        lhs = eval_domain_gradient(spec, Indicator(body))
    else:
        const = kappa(n - j) * transform_R_power(spec.zeta, n - j).value_at_zero()
        rhs = float(const) * body_intrinsic_volume(body, j)
        lhs = eval_cauchy_kubota(spec, Indicator(body), samples, rng)
    return CheckResult(lhs.value, rhs, lhs.error, lhs_result=lhs)


def classical_ck_check(body, j: int, k: int, samples: int = 10_000,
                       rng: Rng = Rng(0)) -> CheckResult:
    """Classical projection formula for intrinsic volumes, a Grassmannian
    average vs closed form.

    For j == k both sides are normalized to V_j itself; for j < k the two
    sides of the general flag identity are reported.
    """
    n = body.n
    if not 0 <= j <= k < n:
        raise SchemaError(f"need 0 <= j <= k < n, got j={j}, k={k}, n={n}")

    if k == 0:
        return CheckResult(1.0, 1.0, 0.0)

    def shadows(planes, streams):
        return _exact(shadow_intrinsic_volumes(body, planes.frames, j))

    mean, err, _, planes = _grassmann_average(n, k, samples, rng, shadows)
    if j == k:
        lhs = body_intrinsic_volume(body, j)
        coeff = flag_coefficient(n, j)
    else:
        lhs = (kappa(n - j) / kappa(k - j)) * math.comb(n - j, k - j) \
            * body_intrinsic_volume(body, j)
        coeff = kappa(n) / kappa(k) * math.comb(n, k)
    rhs = coeff * mean
    return CheckResult(lhs, rhs, coeff * err,
                       rhs_result=EvalResult(rhs, coeff * err, "classical_ck",
                                             0, planes))


def reilly_radial_check(n: int, j: int, zeta: WeightFunction, p: float = 2.0,
                        scale: float = 1.0) -> CheckResult:
    """Radial two-route identity: Hessian integrand versus the transformed weight
    against the level-set curvature function, both reduced to 1-d integrals.

    The source is u(x) = scale * |x|^p / p (convex, increasing profile,
    gradient 0 at the origin); level sets are spheres, whose curvature
    symmetric functions are binomial powers of 1/r.
    """
    if not 1 <= j <= n - 1:
        raise SchemaError("the radial identity needs 1 <= j <= n-1")
    if p <= 1 or scale <= 0:
        raise SchemaError("need p > 1 and scale > 0")
    s_max = zeta.support_bound
    r_bound = (s_max / scale) ** (1.0 / (p - 1.0))
    surf = n * kappa(n)
    i = n - j
    singular = zeta.singularity.kind != "none"

    def grad(r):
        return scale * r ** (p - 1.0)

    def lhs_integrand(r):
        r = np.asarray(r, dtype=float)
        tang = scale * r ** (p - 2.0)
        rad = (p - 1.0) * tang
        esym = (math.comb(n - 1, i) * tang ** i
                + math.comb(n - 1, i - 1) * tang ** (i - 1) * rad)
        return np.asarray(zeta(grad(r))) * esym * r ** (n - 1)

    transformed = transform_R_power(zeta, i)

    def rhs_integrand(r):
        r = np.asarray(r, dtype=float)
        return (math.comb(n - 1, i) * np.asarray(transformed(grad(r)))
                * r ** (j - 1))

    lhs = integrate_interval(lhs_integrand, 0.0, r_bound, singular_left=singular)
    rhs = integrate_interval(rhs_integrand, 0.0, r_bound)
    lv, rv = surf * lhs.value, surf * rhs.value
    err = surf * (lhs.error + rhs.error)
    return CheckResult(lv, rv, err,
                       lhs_result=EvalResult(lv, surf * lhs.error, "radial_lhs",
                                             lhs.evaluations),
                       rhs_result=EvalResult(rv, surf * rhs.error, "radial_rhs",
                                             rhs.evaluations))
