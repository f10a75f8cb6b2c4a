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
hands each level or draw to its caller as one plane stack.  The shadows of a
body, for indicators and the classical check, are evaluated for the whole
stack in one numpy pass.  A stack's projections or restrictions come from
one realization step, :func:`realize_stack`, in one of three shapes.  A
quadratic's, a rotated one's too, come as one :class:`QuadraticStack`,
whose smooth and dual integrals are its eigenvalue terms times one radial
moment of the weight (:func:`_radial_moments`); lone quadratics are stacks
of one.  Where every plane gets the same function, as from a radial power,
a cone or the indicator of a ball about the origin, it comes once: it is
integrated once per stack, and every plane gets its value and error.  Any
other stack comes as a list, and its smooth members are integrated as one
lockstep polar stack (:func:`integrate_polar_stack`): gradients and Hessian
terms per member, |grad u| and the weight once per call for the whole stack.
A projection that is not smooth takes its degree-j valuation in closed form:
an indicator's from the V_j of its shadow, a cone's from the cone formula in
the projected dimension, so no Grassmannian average runs inside another.
The Cauchy-Kubota route is the general projection route at k = j.

Other smooth-route integrals run in polar coordinates around the gradient-zero
point c, in the frame x = c + Hess u(c)^{-1} z, with radial panels split at
the weight's kink preimages per ray.  A lone integral goes through
:func:`integrate_polar_separable`, the same engine on a stack of one.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .convex import (_TINY, Cone, ConvexFunction, EpiTranslated, Indicator, InfConv,
                     Quadratic, QuadraticStack, Rotated, body_intrinsic_volume,
                     shadow_intrinsic_volumes)
from .errors import NonConvergedError, NotDifferentiable, SchemaError, UnsupportedVariant
from .numerics import (_ABS_TOL, _REL_TOL, _STREAM_FANOUT, Rng, elem_sym_values,
                       flag_coefficient, integrate_interval, integrate_polar_separable,
                       integrate_polar_stack, kappa, row_norms)
from .subspaces import (cubature_covers, cubature_levels, grassmann_cubature,
                        realize_stack, sample_grassmann, whole_space)
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
    constant x gives x_0 exactly whatever the rounding of the weights' sum.
    An x beyond double precision gives a non-finite mean quietly."""
    with np.errstate(invalid="ignore", over="ignore"):
        return float(x[0] + weights @ (x - x[0]))


def _grassmann_average(n: int, k: int, samples: int, rng: Rng, stack):
    """(mean, error, evals, planes) of ``stack(planes) -> (values, errors,
    evals)`` over k-planes in R^n, with the number of planes evaluated.

    ``stack`` takes a whole plane stack at once, the planes of one cubature
    level or one Monte Carlo draw (a sequence of subspaces whose ``frames``
    is their (S, n, k) frame stack), and returns arrays of the per-plane
    values, inner errors and integrand evaluations.  The routes evaluate
    the stack as a whole: body shadows in one numpy pass, smooth
    projections and restrictions as one polar stack, and a projection or
    restriction that every plane shares once, its value and error repeated
    for every plane and its evaluations counted on the first
    (:func:`_shared`), so the reductions below see the numbers of a
    plane-by-plane evaluation.

    The whole space (k = n) is a single plane: one evaluation on the
    identity frame, with weight 1, whose error is its inner error.

    Where :func:`grassmann_cubature` covers G(n, k) (lines and hyperplanes,
    n <= 4) the average is deterministic.  Its levels are those of
    :func:`cubature_levels` for a budget of ``samples`` planes, and they run
    in order until two consecutive level estimates agree within the polar
    tolerance.  Their planes are framed in
    two batches, one stacked QR each: levels 1 and 2, which every average
    runs, and then, only once level 2 has not converged, all the remaining
    levels of the budget.  The mean is the last
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
        values, errors, evals = stack(whole_space(n))
        return float(values[0]), float(errors[0]), int(np.sum(evals)), 1
    if cubature_covers(n, k):
        levels = cubature_levels(n, samples)
        # levels 1 and 2 framed in one batch; the rest of the budget in a
        # second, built only when the loop gets past level 2
        rules = (rule for batch in (levels[:2], levels[2:])
                 for rule in grassmann_cubature(n, k, batch))
        estimates, total, count = [], 0, 0
        for planes, weights in rules:
            values, errors, evals = stack(planes)
            total += int(np.sum(evals))
            count += len(planes)
            estimates.append(_weighted_mean(weights, values))
            inner = _weighted_mean(weights, errors)
            if len(estimates) > 1 and abs(estimates[-1] - estimates[-2]) <= max(
                    _ABS_TOL, _REL_TOL * abs(estimates[-1])):
                break
        with np.errstate(invalid="ignore", over="ignore"):  # estimates beyond double precision
            spread = float(np.max(np.abs(np.diff(estimates[-3:]))))
        return estimates[-1], spread + inner, total, count
    streams = [rng.stream(i) for i in range(samples)]
    values, errors, evals = stack(sample_grassmann(n, k, streams))
    mean = float(np.sum(values)) / samples  # pairwise summation: bit-stable order
    if samples == 1:
        return mean, float("nan"), int(np.sum(evals)), samples
    se = float(np.std(values, ddof=1) / math.sqrt(samples))
    inner = float(np.mean(errors))
    return mean, math.hypot(se, inner), int(np.sum(evals)), samples


def _stacked(rows):
    """A plane-stack callback's result from per-plane (value, error, evals) rows."""
    values, errors, evals = zip(*rows)
    return (np.asarray(values, dtype=float), np.asarray(errors, dtype=float),
            np.asarray(evals))


def _exact(values: np.ndarray):
    """A plane-stack callback's result for exact per-plane values: no inner
    error and no integrand evaluations."""
    zeros = np.zeros(len(values))
    return values, zeros, zeros


def _shared(count: int, value: float, error: float = 0.0, evals: int = 0):
    """A plane-stack callback's result that is the same on each of ``count``
    planes: the value and error repeated for every plane, so the average
    reduces exactly the numbers of a plane-by-plane evaluation, and the
    evaluations, made once, counted once."""
    counted = np.zeros(count, dtype=int)
    counted[0] = evals
    return np.full(count, value), np.full(count, error), counted


def _degree_zero(weight: WeightFunction, k: int) -> float:
    """The degree-0 valuation in dimension k, a constant: kappa_k T^k(weight)(0)."""
    return float(kappa(k) * _value_at_zero(transform_R_power(weight, k)))


# ---------------------------------------------------------------------------
# Smooth-route integrals


def _whitening(u: ConvexFunction, center: np.ndarray) -> np.ndarray:
    """Hess u(center)^{-1} when finite and positive definite, else the identity."""
    try:
        hess = np.asarray(u.hessian(center), dtype=float)
    except NotDifferentiable:  # e.g. a radial power with p != 2
        return np.eye(u.n)
    if not np.all(np.isfinite(hess)) or np.linalg.eigvalsh(hess)[0] <= 0.0:
        return np.eye(u.n)
    return np.linalg.inv(hess)


def _polar(f, n: int, radii, ratios, singular: bool):
    """(value, error, evals) of each polar integral of a stack ``f(x,
    owners)``, with ray radii ``radii(dirs, members)`` (or one radius for
    all) and one list of break ``ratios`` per member, in lockstep (see
    :func:`integrate_polar_stack`).  A lone integral goes through
    :func:`integrate_polar_separable`, which calls ``f`` on its points
    alone.  Overflow is quiet: a value beyond double precision makes the
    refinement raise :class:`NonConvergedError`."""
    with np.errstate(over="ignore", invalid="ignore"):
        if len(ratios) > 1:
            results = integrate_polar_stack(f, n, radii, ratios, singular)
        else:
            r_max = (lambda dirs: radii(dirs, [0])[0]) if callable(radii) else radii
            results = [integrate_polar_separable(f, n, r_max, break_ratios=ratios[0],
                                                 singular_center=singular)]
    return [(res.value, res.error, res.evaluations) for res in results]


def _joined(parts: list, axis: int = 0) -> np.ndarray:
    """The arrays ``parts`` end to end along ``axis``; a single one as it is."""
    return parts[0] if len(parts) == 1 else np.concatenate(parts, axis=axis)


def _quadratic_stack(funcs):
    """``funcs`` as one :class:`QuadraticStack` when every member is a
    :class:`Quadratic`, else as it is."""
    if isinstance(funcs, QuadraticStack) or not all(isinstance(u, Quadratic) for u in funcs):
        return funcs
    return QuadraticStack.of(funcs)


def _support_bound(weight: WeightFunction) -> float:
    """The weight's support bound s_max, refused where |grad u|^2 or |x|^2,
    which reach s_max^2 in the smooth and dual integrands, would overflow."""
    s_max = weight.support_bound
    if not math.isfinite(s_max * s_max):
        raise SchemaError(f"the weight's support bound {s_max:.3e} has no finite square")
    return s_max


def _radial_moments(weight: WeightFunction, n: int, coeffs: np.ndarray, rounding=0.0):
    """(value, error, evals) per member m of a quadratic stack whose integral
    is coeffs[m] n kappa_n s_max^n I, I = int_0^1 weight(s_max t) t^(n-1) dt
    the radial moment the stack shares: one :func:`integrate_interval`,
    graded toward 0 for a singular weight and cut at the weight's knots, its
    evaluations counted once, on the first member, as :func:`_shared` counts
    them.  Member m's error is |coeffs[m]| n kappa_n s_max^n times the
    moment's, plus ``rounding[m]`` |value|.  A member whose value or error
    leaves double precision raises :class:`NonConvergedError`."""
    s_max = _support_bound(weight)
    knots = sorted(k for k in weight.knots() if 0.0 < k < s_max)
    with np.errstate(over="ignore", invalid="ignore"):  # checked below
        moment = integrate_interval(
            lambda t: np.asarray(weight(s_max * t)) * t ** (n - 1), 0.0, 1.0,
            singular_left=weight.singularity.kind != "none",
            breaks=[k / s_max for k in knots])
        terms = coeffs * (n * kappa(n) * np.float64(s_max) ** n)
        values = terms * moment.value
        errors = (np.abs(terms) * moment.error + rounding * np.abs(values)).tolist()
    values = values.tolist()
    for value, error in zip(values, errors):
        if not (math.isfinite(value) and math.isfinite(error)):
            raise NonConvergedError(
                f"radial moment left double precision (value {value:.3e}, error "
                f"{error:.3e})", value, error, moment.evaluations)
    return [(value, error, moment.evaluations if m == 0 else 0)
            for m, (value, error) in enumerate(zip(values, errors))]


def _smooth_integral(funcs, weight: WeightFunction, degree: int):
    """For each u of the stack ``funcs``, of one dimension n: the integral of
    weight(|grad u|) * e_degree(Hessian) over {|grad u| <= s_max}.

    A stack of quadratics runs no polar rule: the gradient map y = A x + b
    takes the region onto the s_max-ball with dx = dy / det A, so member m
    gets e_degree(eig_m) / det A_m = e_{n-degree}(1/eig_m) times the stack's
    one radial moment (:func:`_radial_moments`), with n eps (lambda_max /
    lambda_min) |value| more error: by Weyl, the backward-stable ``eigvalsh``
    moves each eigenvalue by about eps lambda_max.  Any other stack runs each
    polar rule in z with x = c + M z, c the minimizer of its u and M from
    :func:`_whitening`, and evaluates gradients and Hessian terms per member,
    |grad u| and the weight once per call for the whole stack.  A frame M
    (A^{-1} for a quadratic) whose |det M|, or squared image |M d|^2 of a
    unit direction d, falls below the smallest normal double, or whose |det
    M| or |M|_F^2 overflows, raises :class:`SchemaError`.  Returns (value,
    error, evals) per member.
    """
    funcs = _quadratic_stack(funcs)
    quads = isinstance(funcs, QuadraticStack)
    if quads:  # eig(A^{-1}) = 1/eig, the least |A^{-1} d|^2 is (1/lambda_max)^2
        inv = 1.0 / funcs.eig
        with np.errstate(over="ignore"):  # refused below
            jacs, sizes = np.prod(inv, axis=1).tolist(), np.sum(inv * inv, axis=1).tolist()
            lows = (np.min(inv, axis=1) ** 2).tolist()
    else:
        for u in funcs:
            if u.smooth_kind() is None:
                raise NotDifferentiable(
                    f"{type(u).__name__} is outside the twice-differentiable catalog")
        centers = [u.minimizer() for u in funcs]
        frames = np.array([_whitening(u, center) for u, center in zip(funcs, centers)])
        transposed = np.ascontiguousarray(np.swapaxes(frames, 1, 2))
        with np.errstate(over="ignore", invalid="ignore"):  # refused below
            jacs = np.abs(np.linalg.det(frames)).tolist()
            sizes = np.sum(frames * frames, axis=(1, 2)).tolist()
        lows = [math.inf] * len(funcs)  # checked per rule direction in ``radii``
    for m, (jac, size, low) in enumerate(zip(jacs, sizes, lows)):
        if not (_TINY <= jac < math.inf and size < math.inf and low >= _TINY):
            raise SchemaError(
                f"{type(funcs[m]).__name__} is too steep or too flat at its minimizer: the "
                f"frame's determinant {jac:.3e}, squared size {size:.3e} or least squared "
                f"image {low:.3e} is beyond double precision")
    if quads:
        return _radial_moments(weight, funcs.n, elem_sym_values(inv, funcs.n - degree),
                               funcs.n * math.ulp(1.0) * inv.max(axis=1) / inv.min(axis=1))
    s_max = _support_bound(weight)
    knots = sorted(k for k in weight.knots() if 0.0 < k < s_max)
    kinds, n = [u.smooth_kind() for u in funcs], funcs[0].n
    # the catalog's |grad| along rays is separable g(dir) * h(r), so kink radii
    # sit at shared ratios of the per-ray region radius, probed on the first
    # axis; rays through c in z map to rays through c in x, so the ratios carry over
    if not knots:
        ratios = [[] for _ in funcs]
    else:
        probe, ratios = np.eye(1, n), []
        for u in funcs:
            r_probe = float(u.grad_radius(probe, s_max)[0])
            ratios.append([float(u.grad_radius(probe, k)[0]) / r_probe for k in knots])
    singular = weight.singularity.kind != "none" or "except_center" in kinds

    def integrand(z, owners=((0, 0, None),)):  # a lone member's points alone
        pts = [centers[m] + z[a:b] @ transposed[m] for m, a, b in owners]
        g = _joined([funcs[m].gradient(x) for (m, _, _), x in zip(owners, pts)])
        s = row_norms(g)
        w = np.asarray(weight(np.minimum(s, s_max + 1.0)))
        w = _joined([jacs[m] * w[a:b] for m, a, b in owners])
        w[s >= s_max] = 0.0
        if degree == 0:
            return w
        hess = _joined([np.asarray(funcs[m].hessian_elem_sym(x, degree))
                        for (m, _, _), x in zip(owners, pts)])
        out = w * hess
        out[w == 0.0] = 0.0  # outside the weight's support, where hess may be inf
        return out

    def radii(dirs, members):
        # each member's ray radius in z of {|grad u| <= s_max}, x = c + M z
        img = dirs @ transposed[members]
        squared = np.sum(img * img, axis=2)
        for m, low in zip(members, squared.min(axis=1)):
            if low < _TINY:
                raise SchemaError(
                    f"{type(funcs[m]).__name__} is too steep at its minimizer: a whitened "
                    f"direction's squared length {low:.3e} underflows")
        length = np.sqrt(squared)
        unit = img / length[:, :, None]
        return np.array([funcs[m].grad_radius(d, s_max) for m, d in zip(members, unit)]) / length

    return _polar(integrand, n, radii, ratios, singular)


def eval_smooth(spec: ValuationSpec, u: ConvexFunction) -> EvalResult:
    """Direct Hessian-integrand route; needs j >= 1 and a twice-differentiable u."""
    if spec.j < 1:
        raise SchemaError("the smooth route needs j >= 1 (degree 0 is a constant)")
    ((value, error, evals),) = _smooth_integral([u], spec.zeta, spec.n - spec.j)
    return EvalResult(value, error, "smooth", evals)


def eval_domain_gradient(spec: ValuationSpec, u: ConvexFunction) -> EvalResult:
    """Top-degree route: integral of weight(|grad u|) over the domain (j = n)."""
    if spec.j != spec.n:
        raise SchemaError("the domain-gradient route is the j = n representation")
    ((value, error, evals),) = _domain_weight_integrals([u], spec.zeta, spec.j)
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


def _domain_weight_integrals(ws, weight: WeightFunction, j: int):
    """(value, error, evals) of the degree-j valuation of each w of the stack
    ``ws``, of one dimension k (at j = k the integral over dom(w) of
    weight(|grad w|)): through epigraph translations and rotations to a
    core, whose own parameters hold any epigraph scaling (:func:`epi_scale`
    folds it there).  An indicator's is kappa_{k-j} T^{k-j}weight(0)
    V_j(body), a cone's kappa_k C(k, j) T^{k-j}weight(t) r^j, and at j = 1
    an inf-convolution of two indicators takes the sum of their V_1; the
    smooth cores run as one smooth-route stack."""
    k = ws[0].n
    cores = []  # (core, closed form)
    for w in ws:
        while isinstance(w, (EpiTranslated, Rotated)):
            w = w.inner
        closed = isinstance(w, (Indicator, Cone)) or (
            j == 1 and isinstance(w, InfConv)
            and isinstance(w.left, Indicator) and isinstance(w.right, Indicator))
        if not closed and w.smooth_kind() is None:
            raise UnsupportedVariant(
                f"degree-{j} valuation unsupported for {type(w).__name__}")
        cores.append((w, closed))
    smooth = [w for w, closed in cores if not closed]
    integrals = iter(_smooth_integral(smooth, weight, k - j) if smooth else ())
    transformed = transform_R_power(weight, k - j) if len(smooth) < len(cores) else None
    at = {}  # T^{k-j}weight at each distinct cone offset t of the stack
    out = []
    for w, closed in cores:
        if not closed:
            value, error, evals = next(integrals)
        elif isinstance(w, Cone):
            if w.t not in at:
                at[w.t] = _value_at_zero(transformed) if w.t == 0 else float(transformed(w.t))
            value, error, evals = at[w.t] * kappa(k) * math.comb(k, j) * w.r ** j, 0.0, 0
        else:  # an indicator, or at j = 1 that of a Minkowski sum: V_1 is additive
            bodies = [w.body] if isinstance(w, Indicator) else [w.left.body, w.right.body]
            measure = sum(b.volume() if j == k else body_intrinsic_volume(b, j) for b in bodies)
            value, error, evals = _value_at_zero(transformed) * kappa(k - j) * measure, 0.0, 0
        out.append((value, error, evals))
    return out


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
    """Grassmannian average over k-planes of the degree-j valuation of u's projection.

    An indicator's, epigraph-translated or not, are its shadows' V_j times
    a constant, for the whole stack at once.  Any other plane stack is
    realized by :func:`realize_stack`: smooth projections at j < k run as one
    smooth-route stack, and every other one through
    :func:`_domain_weight_integrals`, in closed form where it is not
    smooth.  A projection that every plane shares is evaluated once per
    stack.
    """
    j, n = spec.j, spec.n
    xi = xi_from_zeta(spec.zeta, j, k, n)
    if k == 0:
        return EvalResult(float(xi.value_at_zero()), 0.0, method)
    core = u
    while isinstance(core, EpiTranslated):  # V_j ignores translations, in x and in height
        core = core.inner

    if j == 0:  # a constant that needs no projection
        zero = _degree_zero(xi, k)

        def stack(planes):
            return _shared(len(planes), zero)
    elif isinstance(core, Indicator):
        # kappa_{k-j} T^{k-j}xi(0) V_j(shadow), for the whole stack at once
        constant = _degree_zero(xi, k - j)

        def stack(planes):
            return _exact(constant * shadow_intrinsic_volumes(core.body, planes.frames, j))
    else:
        def stack(planes):
            ws = realize_stack(u, planes.frames, planes.complements, project=True)
            if isinstance(ws, QuadraticStack):  # smooth, with its domain integral at j = k
                return _stacked(_smooth_integral(ws, xi, k - j))
            shared = isinstance(ws, ConvexFunction)  # one projection for every plane
            members = [ws] if shared else ws
            if j < k and all(w.smooth_kind() is not None for w in members):
                rows = _smooth_integral(members, xi, k - j)
            else:
                rows = _domain_weight_integrals(members, xi, j)
            return _shared(len(planes), *rows[0]) if shared else _stacked(rows)

    mean, err, evals, planes = _grassmann_average(n, k, samples, rng, stack)
    coeff = flag_coefficient(n, k)
    return EvalResult(coeff * mean, coeff * err, method, evals, planes)


# ---------------------------------------------------------------------------
# Dual routes


def _dual_integral(j: int, weight: WeightFunction, vs):
    """For each v of the stack ``vs``, of one dimension n: the integral over
    {|x| <= s_max} of weight(|x|) * e_j(Hessian of v).

    A stack of quadratics has constant Hessian terms e_j(eig), so member m
    gets e_j(eig_m) times the stack's one radial moment
    (:func:`_radial_moments`).  Any other stack runs as one polar stack, with
    |x| and the weight evaluated once per call for the whole stack.  Returns
    (value, error, evals) per member."""
    vs = _quadratic_stack(vs)
    if isinstance(vs, QuadraticStack):
        return _radial_moments(weight, vs.n, elem_sym_values(vs.eig, j))
    s_max = _support_bound(weight)
    knots = sorted(k for k in weight.knots() if 0.0 < k < s_max)
    n, kinds = vs[0].n, [v.smooth_kind() for v in vs]

    def integrand(pts, owners=((0, 0, None),)):  # a lone member's points alone
        s = row_norms(pts)
        w = np.asarray(weight(np.minimum(s, s_max + 1.0)))
        w[s >= s_max] = 0.0
        if j == 0:
            return w
        return _joined([w[a:b] * np.asarray(vs[m].hessian_elem_sym(pts[a:b], j))
                        for m, a, b in owners])

    singular = weight.singularity.kind != "none" or "except_center" in kinds
    return _polar(integrand, n, s_max, [[k / s_max for k in knots]] * len(vs), singular)


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
        ((value, error, evals),) = _dual_integral(spec.j, spec.zeta, [v])
        return EvalResult(value, error, "dual_integral", evals)
    if path != "conjugate":
        raise SchemaError(f"unknown dual path {path!r}")
    u = v.conjugate()
    if spec.j == 0:
        return EvalResult(_degree_zero(spec.zeta, spec.n), 0.0, "dual_conjugate")
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

    if j == 0:  # a constant that needs no restriction
        zero = _degree_zero(xi, k)

        def stack(planes):
            return _shared(len(planes), zero)
    else:
        def stack(planes):
            vs = realize_stack(v, planes.frames, planes.complements, project=False)
            if isinstance(vs, ConvexFunction):  # one restriction for every plane
                return _shared(len(planes), *_dual_integral(j, xi, [vs])[0])
            return _stacked(_dual_integral(j, xi, vs))

    mean, err, evals, planes = _grassmann_average(n, k, samples, rng, stack)
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
        rhs = _degree_zero(spec.zeta, n - j) * body_intrinsic_volume(body, j)
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

    def shadows(planes):
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
    symmetric functions are binomial powers of 1/r.  Both integrals start
    from panels cut at the radii (k / scale)^(1/(p-1)) where the gradient
    meets a knot k of the weight.
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

    breaks = [(k / scale) ** (1.0 / (p - 1.0)) for k in zeta.knots() if 0.0 < k < s_max]
    lhs = integrate_interval(lhs_integrand, 0.0, r_bound, singular_left=singular, breaks=breaks)
    rhs = integrate_interval(rhs_integrand, 0.0, r_bound, breaks=breaks)
    lv, rv = surf * lhs.value, surf * rhs.value
    err = surf * (lhs.error + rhs.error)
    return CheckResult(lv, rv, err,
                       lhs_result=EvalResult(lv, surf * lhs.error, "radial_lhs",
                                             lhs.evaluations),
                       rhs_result=EvalResult(rv, surf * rhs.error, "radial_rhs",
                                             rhs.evaluations))
