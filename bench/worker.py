"""One benchmark run in a fresh interpreter; ``run.py`` starts it.

``--setup-only`` imports funvol and funvol.cli, builds the workload's inputs
from their JSON specs and prints the two times, the monotonic clock reading
at which it was ready and the factor that rescales its times to the
reference machine of ``calibrate.py``, from calibration calls made after the
set-up.  Otherwise the worker runs passes over the op list for
``--seconds`` (half untraced and half traced with ``--trace 1``), runs the
calibration loop after every op to rescale that pass's times, checks every
op against its reference and prints one JSON object as its last stdout line.
"""
from __future__ import annotations

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

REL_TARGET = 1e-6   # accuracy target of a deterministic op against its exact reference
MC_SIGMAS = 3.0     # sampled ops and identities: within 3 reported errors
ABS_FLOOR = 1e-9


def parse(argv):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=1.0)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--small", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--spans", default=None)
    return ap.parse_args(argv)


# -- building ops -------------------------------------------------------------


def build(workload, seed, small, funvol):
    """(ops, thunks): JSON op descriptions and zero-argument library calls."""
    from funvol.convex import body_from_spec, function_from_spec
    from funvol.weights import weight_from_spec
    if workload == "verify-suite":
        cases = funvol.default_manifest(samples=8 if small else None, seed=seed)
        ops = [{"id": f"verify/{i:02d}/{c.id}", "call": "run_case", "case": c.to_dict()}
               for i, c in enumerate(cases)]
        return ops, [(lambda c=c: funvol.run_case(c)) for c in cases]
    import workloads
    ops = workloads.make_ops(workload, seed, small)
    thunks = []
    for op in ops:
        if op["call"] == "classical_ck_check":
            args = (body_from_spec(op["body"]), op["j"], op["k"], op["samples"],
                    funvol.Rng(op["seed"]))
            thunks.append(lambda name=op["call"], args=args: getattr(funvol, name)(*args))
            continue
        spec = funvol.ValuationSpec(op["j"], op["n"], weight_from_spec(op["zeta"]))
        if op["call"] == "retrieval_check":
            args = (spec, body_from_spec(op["body"]), op["samples"], funvol.Rng(op["seed"]))
        else:
            args = (spec, function_from_spec(op["u"]))
            if "k" in op:
                args += (op["k"],)
            if op["call"] == "eval_dual":
                args += (op["path"],)
            elif "samples" in op:
                args += (op["samples"], funvol.Rng(op["seed"]))
        # looked up at call time, so a traced pass goes through the span recorder
        thunks.append(lambda name=op["call"], args=args: getattr(funvol, name)(*args))
    return ops, thunks


def outcome(res) -> dict:
    """Value, error and counters of an EvalResult, CheckResult or VerificationReport."""
    if hasattr(res, "verdict"):
        return {"value": res.lhs, "other": res.rhs, "error": res.error,
                "evals": int(res.counters.get("integrand_evals", 0)),
                "samples": int(res.counters.get("subspace_samples", 0)),
                "verdict": res.verdict}
    if hasattr(res, "lhs"):
        # retrieval: lhs is the estimate; classical: rhs is the Monte Carlo side
        estimate, other = (res.rhs_result, res.lhs_result) if res.rhs_result else \
            (res.lhs_result, res.rhs_result)
        value, ref = (res.rhs, res.lhs) if res.rhs_result else (res.lhs, res.rhs)
        evals = sum(int(r.integrand_evals) for r in (estimate, other) if r is not None)
        samples = sum(int(r.subspace_samples) for r in (estimate, other) if r is not None)
        return {"value": value, "other": ref, "error": res.error, "evals": evals,
                "samples": samples}
    return {"value": res.value, "error": res.error, "evals": int(res.integrand_evals),
            "samples": int(res.subspace_samples)}


# -- judging -------------------------------------------------------------------


def judge(op, out, ref) -> dict:
    """fail: missed its accuracy target; err_case/err_miss: error-honesty base and misses."""
    import workloads
    verdict = {"fail": False, "err_case": False, "err_miss": False, "why": ""}
    if "raised" in out:
        return {**verdict, "fail": True, "why": out["raised"]}
    value, error = out["value"], out["error"]
    if not (math.isfinite(value) and math.isfinite(error)):
        return {**verdict, "fail": True, "why": "non-finite value or error"}
    if op["call"] == "run_case":
        case = op["case"]
        tol = case["tolerance"]
        why = [] if out["verdict"] == "pass" else [f"verdict {out['verdict']}"]
        if ref is not None:
            rv, re = ref
            allowed = max(tol["absolute"], tol["relative"] * abs(rv),
                          tol["multiplier"] * error) + re
            for side in ("value", "other"):
                if abs(out[side] - rv) > allowed:
                    why.append(f"{side} {out[side]!r} vs reference {rv!r}")
        if workloads.error_honesty_case(case["id"]):
            # each side against the exact reference, so an error both sides share shows
            verdict["err_case"] = True
            if ref is None:
                verdict["err_miss"] = abs(value - out["other"]) > error + workloads.ulp_floor(out["other"])
            else:
                rv, re = ref
                floor = error + max(workloads.ulp_floor(rv), re)
                verdict["err_miss"] = any(abs(out[side] - rv) > floor for side in ("value", "other"))
        return {**verdict, "fail": bool(why), "why": "; ".join(why)}
    sampled = op["call"] != "eval_dual" and "samples" in op and \
        not (op["call"] == "retrieval_check" and op["j"] == op["n"])
    if ref is None:
        diff = abs(value - out["other"])
        ok = diff <= MC_SIGMAS * error + ABS_FLOOR
        return {**verdict, "fail": not ok,
                "why": "" if ok else f"identity diff {diff:.3e} > {MC_SIGMAS:g} x error {error:.3e}"}
    rv, re = ref
    diff = abs(value - rv)
    if sampled:
        allowed = MC_SIGMAS * error + ABS_FLOOR + re
    else:
        allowed = max(REL_TARGET * abs(rv), 1e-12) + re
        verdict["err_case"] = True
        verdict["err_miss"] = diff > error + max(workloads.ulp_floor(rv), re)
    ok = diff <= allowed
    return {**verdict, "fail": not ok,
            "why": "" if ok else f"value {value!r} vs reference {rv!r} (allowed {allowed:.3e})"}


def references(workload, ops):
    import workloads
    if workload == "verify-suite":
        return [workloads.case_reference(op["case"]["id"], op["case"]["params"]) for op in ops]
    return [workloads.reference(op) for op in ops]


# -- running -------------------------------------------------------------------


def run_pass(thunks, rec=None):
    """(latencies in s, outcomes, calibration times in s) of one pass over the
    op list; the calibration loop runs after each op, outside its latency."""
    import calibrate
    lat, outs, cal = [], [], []
    clock = time.perf_counter
    for i, thunk in enumerate(thunks):
        if rec is not None:
            rec.op = i
        t = clock()
        try:
            res = thunk()
        except Exception as exc:  # an op that raises is counted, never fatal
            lat.append(clock() - t)
            outs.append({"raised": f"{type(exc).__name__}: {exc}"})
        else:
            lat.append(clock() - t)
            outs.append(outcome(res))
        cal.append(calibrate.once())
    return lat, outs, cal


def run_for(seconds, thunks, rec=None, on_pass=None):
    """Passes back to back until ``seconds`` have elapsed (at least one)."""
    import calibrate
    passes = []
    start = time.perf_counter()
    while not passes or time.perf_counter() - start < seconds:
        lat, outs, cal = run_pass(thunks, rec)
        passes.append({"wall": math.fsum(lat), "lat": lat, "outs": outs,
                       "scale": calibrate.REF_S / statistics.fmean(cal)})
        if on_pass is not None:
            on_pass(passes[-1])
    return passes


def same(a, b) -> bool:
    keys = ("value", "error", "evals", "samples", "raised", "verdict")
    return all(_eq(a.get(k), b.get(k)) for k in keys)


def _eq(x, y):
    if isinstance(x, float) and isinstance(y, float) and math.isnan(x) and math.isnan(y):
        return True
    return x == y


def main(argv=None):
    args = parse(argv)
    import funvol
    import funvol.cli  # noqa: F401  (part of set-up: the CLI is what users start)
    t_import = time.perf_counter()
    ops, thunks = build(args.workload, args.seed, args.small, funvol)
    t_build = time.perf_counter()
    if args.setup_only:
        ready_at = time.clock_gettime(time.CLOCK_MONOTONIC)
        import calibrate
        print(json.dumps({"import_s": t_import - T0, "build_s": t_build - t_import,
                          "ready_at": ready_at,
                          "scale": calibrate.REF_S / calibrate.median_of(15),
                          "ops": len(ops)}))
        return 0

    refs = references(args.workload, ops)
    if args.trace:
        import tracer
        plain = run_for(args.seconds / 2.0, thunks)
        rec = tracer.SpanRecorder()
        layer_runs, kept = [], []

        def on_pass(p):
            spans = rec.spans()
            layers = tracer.layer_metrics(spans)
            layer_runs.append({k: v * p["scale"] if k.endswith("self_s") else v
                               for k, v in layers.items()})
            kept.append(spans)
            rec.clear()

        rec.install()
        try:
            traced = run_for(args.seconds / 2.0, thunks, rec, on_pass)
        finally:
            rec.restore()
        leftover = tracer.leftover_patches()
    else:
        plain, traced, layer_runs, kept, leftover = run_for(args.seconds, thunks), [], [], [], []

    first = plain[0]["outs"]
    every = plain + traced
    deterministic = all(same(a, b) for p in every[1:] for a, b in zip(first, p["outs"]))
    verdicts = [judge(op, out, ref) for op, out, ref in zip(ops, first, refs)]
    raised = sum(1 for p in every for o in p["outs"] if "raised" in o)
    result = {
        "workload": args.workload, "seed": args.seed,
        "ops": len(ops),
        "passes": len(plain), "traced_passes": len(traced),
        "pass_s": [p["wall"] for p in plain],
        "traced_pass_s": [p["wall"] for p in traced],
        "scale": [p["scale"] for p in plain],
        "traced_scale": [p["scale"] for p in traced],
        "op_s": [x for p in plain for x in p["lat"]],
        "integrand_evals": sum(o.get("evals", 0) for o in first),
        "fails": [dict(id=op["id"], why=v["why"]) for op, v in zip(ops, verdicts) if v["fail"]],
        "err_cases": sum(v["err_case"] for v in verdicts),
        "err_misses": [op["id"] for op, v in zip(ops, verdicts) if v["err_miss"]],
        "attempted": sum(len(p["outs"]) for p in every),
        "raised": raised,
        "deterministic": deterministic,
        "leftover_patches": leftover,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "layers": ({k: statistics.median_low(r[k] for r in layer_runs) for k in layer_runs[0]}
                   if layer_runs else {}),
    }
    if args.spans and kept:
        write_spans(args.spans, kept, ops)
    print(json.dumps(result))
    return 0


def write_spans(path, passes, ops):
    """All traced passes' spans, written once at the end of the run."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    cols = ("id", "name", "parent", "op", "start_ns", "end_ns", "self_ns", "attrs")
    payload = {"columns": list(cols), "op_ids": [op["id"] for op in ops],
               "env": {"nproc": os.cpu_count(), "loadavg": os.getloadavg()},
               "passes": [[[s[c] for c in cols] for s in spans] for spans in passes]}
    path.write_text(json.dumps(payload))


if __name__ == "__main__":
    sys.exit(main())
