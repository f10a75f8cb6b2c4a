"""The routes stay independent: a bias in one shared quadrature component shows.

Two sides of an identity that share a biased component agree on the same
wrong digits, and the identity passes.  Each test biases one component by a
relative 1e-6, through a monkeypatch that is undone after it, and asserts
that some case of the default manifest at seed 7 then fails.  Today the
sphere-rule bias is caught by ``invariance`` (a quadratic's radial moment
against the polar rule on its rotated translate) and the Gauss-Kronrod bias
by ``j0_constancy`` (a quadrature against a closed form).
"""
from funvol import numerics
from funvol.verify import default_manifest, run_case

BIAS = 1.0 + 1e-6


def _failing() -> list:
    return [case.id for case in default_manifest(seed=7) if run_case(case).verdict != "pass"]


def test_sphere_rule_bias_shows(monkeypatch):
    rule = numerics.sphere_rule

    def biased(n, level):
        dirs, weights = rule(n, level)
        return dirs, weights * BIAS

    monkeypatch.setattr(numerics, "sphere_rule", biased)
    assert _failing()


def test_kronrod_bias_shows(monkeypatch):
    nodes, kronrod, gauss = numerics._KRONROD
    monkeypatch.setattr(numerics, "_KRONROD", (nodes, kronrod * BIAS, gauss * BIAS))
    assert _failing()
