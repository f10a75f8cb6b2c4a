"""The benchmark's span recorder (bench/tracer.py) fits the package.

The recorder hooks package functions by name, so a name it hooks that the
package no longer defines would break the traced benchmark runs; this test
installs it on the package, runs one traced average and restores it.
"""
import importlib.util
from pathlib import Path

import numpy as np

import funvol
from funvol import valuations
from funvol.convex import RadialPower, Rotated
from funvol.numerics import Rng
from funvol.subspaces import sample_rotation
from funvol.valuations import ValuationSpec
from funvol.weights import Tent

TRACER = Path(__file__).resolve().parent.parent / "bench" / "tracer.py"


def _tracer():
    spec = importlib.util.spec_from_file_location("funvol_bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_recorder_installs_and_restores():
    tracer = _tracer()
    original = valuations.eval_ck_general
    rec = tracer.SpanRecorder()
    rec.install()
    try:
        assert valuations.eval_ck_general is not original
        u = Rotated(RadialPower(3, 4.0), sample_rotation(3, Rng(2)))
        result = funvol.eval_ck_general(ValuationSpec(1, 3, Tent(1.0)), u, 2, 64, Rng(3))
    finally:
        rec.restore()
    assert tracer.leftover_patches() == []
    assert valuations.eval_ck_general is original
    assert np.isfinite(result.value) and result.subspace_samples == 20
    names = {span["name"] for span in rec.spans()}
    assert {"valuations.ck", "weights.transform", "convex.grad"} <= names
    metrics = tracer.layer_metrics(rec.spans())
    assert metrics["valuations.ck.calls"] == 1
