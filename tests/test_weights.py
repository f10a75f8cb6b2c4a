import math
import warnings

import numpy as np
import pytest
from scipy.integrate import quad

from funvol.errors import NonConvergedError, SchemaError, UnknownSingularity
from funvol.weights import (
    Bump,
    LogCap,
    PolyCapped,
    Scaled,
    Singularity,
    SumWeight,
    Tent,
    TransformedWeight,
    WeightFunction,
    in_had_class,
    log_grid,
    nonnegativity_check,
    transform_R_inverse,
    transform_R_power,
    weight_from_spec,
    xi_from_zeta,
)

CATALOG = [
    ("tent", Tent(1.0)),
    ("bump", Bump(0.2, 0.8)),
    ("logcap", LogCap()),
    ("poly", PolyCapped([1.0, -2.0, 1.0], 1.0)),  # (1-t)^2, continuous at the cutoff
]


def grid_dev(f, g, s):
    return float(np.abs(np.asarray(f(s)) - np.asarray(g(s))).max())


class TestEval:
    def test_tent(self):
        t = Tent(1.0)
        assert t(0.25) == pytest.approx(0.75)
        assert t(2.0) == 0.0

    def test_logcap(self):
        assert LogCap()(1.0 / math.e) == pytest.approx(1.0)

    def test_outside_support_exact_zero(self):
        for _, z in CATALOG:
            assert z(z.support_bound + 0.5) == 0.0

    def test_nan_argument_stays_nan(self):
        # a NaN is neither positive nor zero: it must not take the value at 0
        for _, z in CATALOG + [("tent_t1", transform_R_power(Tent(1.0), 1))]:
            assert math.isnan(z(math.nan))
            out = np.asarray(z(np.array([0.25, math.nan, 0.5])))
            assert math.isnan(out[1]) and np.isfinite(out[[0, 2]]).all()
        assert math.isnan(Tent(1.0)(np.array([0.0, math.nan]))[1])

    def test_bump_peak_and_smooth_edges(self):
        b = Bump(0.2, 0.8)
        assert b(0.5) == pytest.approx(1.0)
        assert b(0.2000001) < 1e-8
        assert b(0.1) == 0.0

    @pytest.mark.parametrize("a,b", [(0.2, 0.8), (0.0, 1.5), (0.3, 0.6)])
    def test_bump_values_match_the_masked_formula(self, a, b):
        # the formula taken on every point and kept inside (a, b) gives the
        # bits of the formula taken only on the points inside, and 0 outside,
        # with no RuntimeWarning from the points outside
        def masked(s):
            out = np.zeros_like(s)
            inside = (s > a) & (s < b)
            si = s[inside]
            with np.errstate(over="ignore"):
                out[inside] = np.exp(1.0 - (b - a) ** 2 / (4.0 * (si - a) * (b - si)))
            return out

        bump = Bump(a, b)
        s = np.concatenate([[0.0, a, b, np.nextafter(a, 1.0), np.nextafter(b, 0.0),
                             b + 1e-300, 1.5 * b + 1.0, 1e200, np.inf],
                            np.random.default_rng(5).uniform(0.0, 2.0 * b, 4000)])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = bump._values(s)
        assert got.dtype == float and got.shape == s.shape
        assert [x.hex() for x in got] == [x.hex() for x in masked(s)]


def _through_calls(w, s):
    """w(s) with each wrapper evaluating its inner weights through their
    ``__call__``, the argument checks and masks included: the reference for
    the wrappers, which call the inner ``_values`` directly."""
    def values(w, s):
        if isinstance(w, Scaled):
            return w.factor * np.asarray(w.inner(s))
        if isinstance(w, SumWeight):
            return sum(np.asarray(t(s)) for t in w.terms)
        if isinstance(w, TransformedWeight):
            se = np.maximum(s, w._tail.lo[0])
            out = (se ** w.power * np.asarray(w.inner(se))
                   + w.power * w._tail(np.minimum(se, w.support_bound)))
            out[s >= w.support_bound] = 0.0
            return out
        return w._values(s)

    out = np.full_like(s, np.nan)
    out[s > 0] = values(w, s[s > 0])
    if np.any(s == 0):
        out[s == 0] = w.value_at_zero()
    return out


WRAPPED = [
    ("xi_bump", xi_from_zeta(Bump(0.2, 0.8), 1, 2, 3)),    # Scaled(TransformedWeight)
    ("xi_tent", xi_from_zeta(Tent(1.0), 1, 2, 4)),         # Scaled(closed form)
    ("inverse_chain", transform_R_inverse(transform_R_power(Bump(0.2, 0.8), 2), 1)),
    ("sum", SumWeight([Scaled(Tent(0.5), 2.0), transform_R_power(Bump(0.0, 1.5), 1),
                       Scaled(SumWeight([LogCap(), Bump(0.3, 0.6)]), -0.5)])),
]


class TestWrappedWeights:
    """Sums, scalings and transforms evaluate their inner weights' values
    directly, on the positive points their own ``__call__`` has checked."""

    @pytest.mark.parametrize("name,w", WRAPPED + CATALOG, ids=[n for n, _ in WRAPPED + CATALOG])
    @pytest.mark.parametrize("points", ["with_zero", "positive", "with_nan"])
    def test_values_bit_identical(self, name, w, points):
        # every point positive takes the weight's values at once; a 0 or a
        # NaN among them is set apart first
        s_max = w.support_bound
        s = np.concatenate([[0.0, 1e-300, 1e-12, s_max, np.nextafter(s_max, 0.0),
                             np.nextafter(s_max, 10.0), 2.0 * s_max, 50.0],
                            np.linspace(0.0, 1.2 * s_max, 97)])
        if points != "with_zero" or w.value_at_zero() is None:
            s = s[s > 0]  # without a finite limit 0 is not in the domain
        if points == "with_nan":
            s[5] = np.nan
        got = np.asarray(w(s))
        assert [x.hex() for x in got] == [x.hex() for x in _through_calls(w, s)]

    @pytest.mark.parametrize("name,w", WRAPPED, ids=[n for n, _ in WRAPPED])
    def test_one_call_per_evaluation(self, name, w, monkeypatch):
        calls = []
        call = WeightFunction.__call__

        def counted(self, s):
            calls.append(type(self).__name__)
            return call(self, s)

        s = np.linspace(0.0, 1.2 * w.support_bound, 64)[1:]
        w(s)  # builds any transform's Chebyshev fit first
        monkeypatch.setattr(WeightFunction, "__call__", counted)
        w(s)
        assert calls == [type(w).__name__]


class TestHadMembership:
    def test_tent_everywhere(self):
        assert in_had_class(Tent(1.0), 0, 3)[0]
        assert in_had_class(Tent(1.0), 3, 3)[0]

    def test_logcap_top_class_fails(self):
        ok, why = in_had_class(LogCap(), 3, 3)
        assert not ok and "finite limit" in why

    def test_logcap_one_below(self):
        assert in_had_class(LogCap(), 1, 2)[0]
        assert in_had_class(LogCap(), 2, 3)[0]

    def test_power_singularity_threshold(self):
        # T^{-2}(tent) behaves like 1/s at 0
        w = transform_R_inverse(Tent(1.0), 2)
        assert in_had_class(w, 1, 3)[0]
        assert not in_had_class(w, 2, 3)[0]

    def test_unknown_singularity_reported(self):
        raw = transform_R_inverse(Bump(0.0, 0.8), 1)
        with pytest.raises(UnknownSingularity):
            in_had_class(raw, 1, 3)

    @pytest.mark.parametrize("l", [1, 2])
    def test_unknown_singularity_after_evaluation(self, l):
        # evaluating the inverse of Bump(0, b) (dyadic pieces toward 0) gives
        # finite values but certifies nothing about its behavior at 0
        raw = transform_R_inverse(Bump(0.0, 0.8), l)
        assert np.all(np.isfinite(raw(log_grid(0.8, 50))))
        assert raw.value_at_zero() is None
        with pytest.raises(UnknownSingularity):
            in_had_class(raw, 1, 3)

    def test_sum_takes_the_worst_term(self):
        # log_cap + T^{-2} tent = ln(1/s) + 1/s - 1 on (0, 1]: power -1 decides
        z = weight_from_spec({"type": "sum", "terms": [
            {"type": "log_cap"}, {"type": "transform", "l": -2, "inner": {"type": "tent"}}]})
        assert z.singularity == Singularity("power", -1.0)
        assert not in_had_class(z, 1, 2)[0]
        assert in_had_class(z, 1, 3)[0]

    def test_degenerate_class_convention(self):
        # the (0, 0) class coincides with (1, 1): finite limit required
        assert in_had_class(Tent(1.0), 0, 0)[0]
        assert not in_had_class(LogCap(), 0, 0)[0]

    @pytest.mark.parametrize("j,n", [(-1, 2), (3, 2)])
    def test_class_range(self, j, n):
        with pytest.raises(ValueError, match="0 <= j <= n"):
            in_had_class(Tent(1.0), j, n)


class TestTransformClosedForms:
    def test_logcap_maps_to_tent(self):
        # symbolic oracle: s ln(1/s) + int_s^1 ln(1/t) dt = 1 - s
        r = transform_R_power(LogCap(), 1)
        s = np.linspace(1e-4, 1.3, 300)
        assert grid_dev(r, lambda x: np.maximum(0.0, 1.0 - x), s) < 1e-12

    def test_tent_transform_values(self):
        r = transform_R_power(Tent(1.0), 1)
        assert r(0.5) == pytest.approx(0.375)
        assert r.value_at_zero() == pytest.approx(0.5)

    def test_power_form_tent(self):
        r = transform_R_power(Tent(1.0), 1)
        assert r(0.5) == pytest.approx(0.375)

    def test_power_zero_is_identity(self):
        z = Tent(1.0)
        assert transform_R_power(z, 0) is z

    def test_logcap_power_two_at_zero(self):
        # lim s^2 ln(1/s) + 2 int_0^1 t ln(1/t) dt = 2 * 1/4
        r = transform_R_power(LogCap(), 2)
        assert r.value_at_zero() == pytest.approx(0.5)

    def test_inverse_tent_is_log(self):
        inv = transform_R_inverse(Tent(1.0), 1)
        assert inv(0.1) == pytest.approx(-math.log(0.1), abs=1e-12)
        s = np.geomspace(1e-3, 0.999, 200)
        assert grid_dev(inv, lambda x: -np.log(x), s) < 1e-12

    def test_zero_weight_fixed(self):
        z = PolyCapped([0.0], 1.0)
        r = transform_R_power(z, 1)
        s = log_grid(1.0, 50)
        assert np.abs(np.asarray(r(s))).max() == 0.0

    def test_quadrature_matches_definition(self):
        # independent oracle: direct quadrature of the defining formula
        for name, z in CATALOG:
            r = transform_R_power(z, 2)
            for s in (0.15, 0.45, 0.7):
                tail, _ = quad(lambda t: t * float(z(t)), s, z.support_bound, limit=200)
                expect = s ** 2 * float(z(s)) + 2.0 * tail
                assert float(r(s)) == pytest.approx(expect, abs=5e-11), name


def _quad_transform(z, l, s):
    """T^l(z)(s), l may be negative, by scipy quadrature of the defining formula."""
    se = max(s, z.flat_below)
    if l > 0:
        tail, _ = quad(lambda t: t ** (l - 1) * float(z(t)), se, z.support_bound,
                       limit=200, epsabs=1e-14, epsrel=1e-14)
        return se ** l * float(z(se)) + l * tail
    tail, _ = quad(lambda t: float(z(t)) / t ** (1 - l), se, z.support_bound,
                   limit=200, epsabs=1e-14, epsrel=1e-14)
    return float(z(se)) / se ** -l + l * tail


class TestChebyshevTransform:
    """Bump-rooted chains: one exactly integrated piecewise Chebyshev fit."""

    @pytest.mark.filterwarnings("ignore::scipy.integrate.IntegrationWarning")
    @pytest.mark.parametrize("l", [1, 2, 3, -1, -2, -3])
    def test_bump_against_quad(self, l):
        z = Bump(0.2, 0.8)
        w = transform_R_power(z, l) if l > 0 else transform_R_inverse(z, -l)
        s = np.array([0.1, 0.2, 0.21, 0.3, 0.45, 0.5, 0.62, 0.75, 0.79])
        vals = w(s)
        for si, v in zip(s, vals):
            assert v == pytest.approx(_quad_transform(z, l, si), abs=5e-11), si
        assert w.value_at_zero() == pytest.approx(_quad_transform(z, l, 0.2), abs=5e-11)

    @pytest.mark.parametrize("l", [1, 2, 3])
    def test_bump_at_zero_no_flat_region(self, l):
        # Bump(0, b): dyadic pieces toward 0; the value at 0 is l * F(0)
        z = Bump(0.0, 0.8)
        tail, _ = quad(lambda t: t ** (l - 1) * float(z(t)), 0.0, 0.8,
                       epsabs=1e-14, epsrel=1e-14)
        w = transform_R_power(z, l)
        assert w.value_at_zero() == pytest.approx(l * tail, abs=5e-11)
        assert float(w(1e-6)) == pytest.approx(l * tail, abs=5e-11)

    def test_unresolvable_fit_raises(self):
        class Wiggle(Bump):
            """Oscillates far faster than the piece budget can follow."""

            def _values(self, s):
                return np.sin(1e6 * s) * (s < self.b)

        w = transform_R_power(Wiggle(0.0, 0.8), 1)
        with pytest.raises(NonConvergedError):
            w(0.5)

    def test_nested_chain(self):
        # T(T(bump)) fits the inner chain's own representation
        z = Bump(0.2, 0.8)
        inner = transform_R_power(z, 1)
        outer = transform_R_power(inner, 1)
        for s in (0.25, 0.5, 0.7):
            tail, _ = quad(lambda t: float(inner(t)), s, 0.8, epsabs=1e-14, epsrel=1e-14)
            assert float(outer(s)) == pytest.approx(s * float(inner(s)) + tail, abs=5e-11)


class TestTransformProperties:
    @pytest.mark.parametrize("l", [1, 2, 3])
    @pytest.mark.parametrize("name,zeta", CATALOG)
    def test_round_trip(self, name, zeta, l):
        back = transform_R_inverse(transform_R_power(zeta, l), l)
        s = log_grid(zeta.support_bound, 200)
        assert grid_dev(back, zeta, s) <= 1e-7

    @pytest.mark.parametrize("name,zeta", CATALOG)
    def test_composition_consistency(self, name, zeta):
        s = log_grid(zeta.support_bound, 60)
        iterated = zeta
        for l in (1, 2, 3):
            iterated = transform_R_power(iterated, 1)
            direct = transform_R_power(zeta, l)
            assert grid_dev(iterated, direct, s) <= 1e-8

    def test_linearity(self):
        z1, z2 = Tent(1.0), LogCap()
        a, b = 2.0, -0.7
        lhs = transform_R_power(SumWeight([Scaled(z1, a), Scaled(z2, b)]), 1)
        s = log_grid(1.0, 120)
        rhs_vals = (a * np.asarray(transform_R_power(z1, 1)(s))
                    + b * np.asarray(transform_R_power(z2, 1)(s)))
        assert np.abs(np.asarray(lhs(s)) - rhs_vals).max() <= 1e-10

    def test_support_preserved(self):
        for _, z in CATALOG:
            r = transform_R_power(z, 2)
            assert r.support_bound == z.support_bound
            assert float(r(z.support_bound + 0.25)) == 0.0

    def test_limit_law(self):
        # s^{n-1-k} int_s^inf zeta -> 0 for members of the (k, n) class, k < n-1
        n = 3
        for name, z in CATALOG:
            if not in_had_class(z, 0, n)[0]:
                continue
            tail = lambda s: float(transform_R_power(z, 1)(s)) - s * float(z(s))
            vals = [s ** (n - 1) * tail(s) for s in (1e-2, 1e-3, 1e-4)]
            assert vals[0] >= vals[1] - 1e-9 >= vals[2] - 2e-9, name
            assert vals[2] < 1e-5

    def test_class_stability(self):
        for name, z in CATALOG:
            for n in (2, 3):
                for k in range(0, n + 1):
                    ok, _ = in_had_class(z, k, n)
                    if not ok:
                        continue
                    for l in range(0, n - k + 1):
                        rz = transform_R_power(z, l)
                        assert in_had_class(rz, k, n - l)[0], (name, k, n, l)


class TestDerivedWeights:
    def test_alpha_values(self):
        # at k = j the projected-dimension weight is kappa_{n-j} T^{n-j}(zeta)
        a = xi_from_zeta(Tent(1.0), 1, 1, 2)
        assert a(0.5) == pytest.approx(0.75)
        assert a.value_at_zero() == pytest.approx(1.0)

    def test_alpha_zero_weight(self):
        a = xi_from_zeta(PolyCapped([0.0], 1.0), 1, 1, 3)
        assert float(a(0.3)) == 0.0

    def test_xi_coefficient(self):
        xi = xi_from_zeta(Tent(1.0), 0, 1, 2)
        assert xi(0.5) == pytest.approx(0.375)

    def test_xi_lands_in_target_class(self):
        z = LogCap()
        for (j, k, n) in [(0, 1, 3), (1, 2, 3), (1, 1, 2)]:
            xi = xi_from_zeta(z, j, k, n)
            assert in_had_class(xi, j, k)[0]


class TestNonnegativity:
    def test_tent_degree_one(self):
        v = nonnegativity_check(Tent(1.0), 1, 2)
        assert v.nonnegative

    def test_zero_weight(self):
        v = nonnegativity_check(PolyCapped([0.0], 1.0), 1, 2)
        assert v.nonnegative

    def test_negative_polynomial_top_degree(self):
        v = nonnegativity_check(PolyCapped([1.0, -2.0], 1.0), 2, 2)
        assert not v.nonnegative
        assert v.min_value == pytest.approx(-1.0, abs=1e-2)
        assert v.argmin == pytest.approx(1.0, abs=1e-2)

    def test_degree_zero_sign(self):
        assert nonnegativity_check(Tent(1.0), 0, 2).nonnegative
        assert not nonnegativity_check(Scaled(Tent(1.0), -1.0), 0, 2).nonnegative

    @pytest.mark.parametrize("j", [0, 1, 2])
    def test_inadmissible_weight_rejected(self, j):
        # T^{-3} tent = (1/s^2 - 1)/2 has a power -2 singularity: no class for n = 2
        with pytest.raises(SchemaError, match="not admissible"):
            nonnegativity_check(transform_R_inverse(Tent(1.0), 3), j, 2)


class TestJsonSpecs:
    @pytest.mark.parametrize("spec,built", [
        ({"type": "tent", "s0": 1.0}, Tent(1.0)),
        ({"type": "log_cap"}, LogCap()),
        ({"type": "bump", "a": 0.2, "b": 0.8}, Bump(0.2, 0.8)),
        ({"type": "poly_capped", "coeffs": [1.0, -2.0, 1.0], "cutoff": 1.0},
         PolyCapped([1.0, -2.0, 1.0], 1.0)),
        ({"type": "scaled", "factor": 2.0, "inner": {"type": "tent", "s0": 1.0}},
         Scaled(Tent(1.0), 2.0)),
        ({"type": "sum", "terms": [{"type": "tent", "s0": 1.0}, {"type": "log_cap"}]},
         SumWeight([Tent(1.0), LogCap()])),
        ({"type": "transform", "l": 2, "inner": {"type": "tent", "s0": 1.0}},
         transform_R_power(Tent(1.0), 2)),
        ({"type": "transform", "l": -1, "inner": {"type": "tent", "s0": 1.0}},
         transform_R_inverse(Tent(1.0), 1)),
    ], ids=[f"spec{i}" for i in range(8)])
    def test_round_trip(self, spec, built):
        """Each spec parses to the weight its constructor builds."""
        w = weight_from_spec(spec)
        s = log_grid(w.support_bound, 40)
        assert grid_dev(w, built, s) == 0.0

    def test_bad_specs(self):
        with pytest.raises(SchemaError):
            weight_from_spec({"type": "nope"})
        with pytest.raises(SchemaError):
            weight_from_spec({"type": "bump", "a": 0.5})
        with pytest.raises(SchemaError):
            weight_from_spec({"no_type": 1})
        with pytest.raises(SchemaError):
            weight_from_spec({"type": "tent", "s0": -1.0})

    @pytest.mark.parametrize("l", [1.5, 2.0, math.inf, True, "1", 10 ** 400])
    def test_transform_power_must_be_an_integer(self, l):
        # 10**400 is an integer that no double can hold
        with pytest.raises(SchemaError):
            weight_from_spec({"type": "transform", "l": l, "inner": {"type": "bump",
                                                                      "a": 0.2, "b": 0.8}})

    @pytest.mark.parametrize("spec", [
        {"type": "tent", "s0": math.inf},
        {"type": "tent", "s0": math.nan},
        {"type": "bump", "a": 0.2, "b": math.inf},
        {"type": "bump", "a": math.nan, "b": 0.8},
        {"type": "bump", "a": 0.2, "b": 1e308},
        {"type": "poly_capped", "coeffs": [1.0, math.inf]},
        {"type": "poly_capped", "coeffs": [1.0], "cutoff": math.inf},
        {"type": "scaled", "factor": math.nan, "inner": {"type": "tent"}},
    ], ids=lambda spec: "-".join(f"{k}={v}".replace(" ", "") for k, v in spec.items()
                                 if k != "inner"))
    def test_non_finite_parameters(self, spec):
        with pytest.raises(SchemaError):
            weight_from_spec(spec)

    @pytest.mark.filterwarnings("error::RuntimeWarning")  # beyond double precision is quiet
    def test_overflowing_transform(self):
        # finite parameters whose transform leaves double precision
        with pytest.raises(SchemaError):
            transform_R_power(Tent(1e300), 3)
        with pytest.raises(SchemaError):
            transform_R_power(Bump(0.2, 1e150), 3)(0.5)
