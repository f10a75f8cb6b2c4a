"""Smoke test of the benchmark itself: ``python3 bench/smoke.py`` (about two minutes).

For each workload, at reduced size (``--small``):

* two untraced and two traced runs with the same seed print every metric
  named in BENCHMARK.json, with its unit;
* the counters repeat exactly between the two runs: integrand_evals,
  ok_frac and err_bound_frac, and every per-layer ``calls``/``evals`` count;
* the span recorder restores every function it wrapped.

It also checks that the benchmark exits non-zero, without a result line, in a
directory that holds only BENCHMARK.json and bench/.  Exits 0 when all pass.
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SEED = 3

COUNTERS = ("integrand_evals", "ok_frac", "err_bound_frac")


def run(workload, trace, cwd=ROOT):
    return subprocess.run(
        [sys.executable, str(cwd / "bench" / "run.py"), "--workload", workload,
         "--seed", str(SEED), "--seconds", "1", "--trace", str(trace), "--small"],
        cwd=cwd, capture_output=True, text=True, timeout=170)


def result(proc):
    if proc.returncode != 0:
        raise AssertionError(f"exit {proc.returncode}: {proc.stderr[-2000:]}")
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(out) == {"correct", "attempted", "failed", "metrics"}, sorted(out)
    assert out["correct"] is True and out["failed"] == 0 and out["attempted"] >= 1, out
    return out["metrics"]


def check_metrics(metrics, expected):
    names = [m["name"] for m in expected]
    assert list(metrics) == names, f"metric names differ: {sorted(set(names) ^ set(metrics))}"
    for m in expected:
        got = metrics[m["name"]]
        assert got["unit"] == m["unit"], (m["name"], got)
        assert isinstance(got["value"], (int, float)), (m["name"], got)


def check_recorder():
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    import funvol
    import funvol.cli  # noqa: F401
    import tracer
    before = {(m.__name__, k): v for m in tracer._funvol_modules() for k, v in vars(m).items()}
    rec = tracer.SpanRecorder()
    with rec:
        from funvol import valuations, weights
        assert hasattr(valuations.integrate_polar_separable, "bench_span")
        assert hasattr(weights.integrate_interval, "bench_span")
        assert hasattr(funvol.eval_smooth, "bench_span")
    assert tracer.leftover_patches() == [], tracer.leftover_patches()
    after = {(m.__name__, k): v for m in tracer._funvol_modules() for k, v in vars(m).items()}
    assert all(after[key] is value for key, value in before.items())


def check_bare_directory():
    bare = ROOT / ".bench_out" / "smoke-bare"
    shutil.rmtree(bare, ignore_errors=True)
    (bare / "bench").mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    for f in HERE.glob("*.py"):
        shutil.copy(f, bare / "bench" / f.name)
    try:
        proc = run("smooth-aniso", 0, cwd=bare)
        assert proc.returncode != 0, "benchmark succeeded without the program"
        assert not proc.stdout.strip(), proc.stdout
    finally:
        shutil.rmtree(bare)


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    check_recorder()
    print("ok   span recorder restores every patch")
    check_bare_directory()
    print("ok   exits non-zero without src/funvol")
    # projection-mc is not in BENCHMARK.json (see README.md) but stays runnable
    for name in ("smooth-aniso", "projection-mc", "verify-suite"):
        a, b = result(run(name, 0)), result(run(name, 0))
        check_metrics(a, spec["end_to_end"])
        for c in COUNTERS:
            assert a[c]["value"] == b[c]["value"], (name, c, a[c], b[c])
        ta, tb = result(run(name, 1)), result(run(name, 1))
        check_metrics(ta, spec["per_layer"])
        counts = [k for k in ta if k.endswith((".calls", ".evals"))]
        for c in counts:
            assert ta[c]["value"] == tb[c]["value"], (name, c, ta[c], tb[c])
        print(f"ok   {name}: metrics printed, {len(COUNTERS) + len(counts)} counters repeat")
    return 0


if __name__ == "__main__":
    sys.exit(main())
