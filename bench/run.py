"""Layered benchmark for funvol.

    python3 bench/run.py --workload smooth-aniso --seed 1 --seconds 20 --trace 0

Runs from the root of a checkout that holds ``src/funvol``.  Each run:

1. starts one fresh interpreter (``worker.py``) that runs the workload's
   op list back to back, one op at a time (a closed loop with one client),
   for ``--seconds``, and checks every op against the benchmark's own
   reference;
2. around it, before and after, starts ``SETUP_REPEATS`` fresh interpreters
   that import funvol and funvol.cli and build the workload's inputs from
   JSON specs; ``setup_s`` is the median of the times from starting each
   process until its inputs are built;
3. rescales every time by the calibration loop of ``calibrate.py``, timed
   in the same process: after every op in a pass, and after the set-up in a
   set-up process.  Times then read in seconds of a reference machine on
   which one calibration call takes ``calibrate.REF_S``, so that load from
   other tenants of a shared host, which slows funvol and the loop alike,
   drops out;
4. prints a readable report, then one JSON line with ``correct``,
   ``attempted``, ``failed`` and ``metrics``.  ``--trace 0`` reports the
   end-to-end metrics of BENCHMARK.json; ``--trace 1`` spends half the time
   untraced and half under the span recorder, and reports the per-layer ones.

Every child runs with OPENBLAS_NUM_THREADS=1 and without FUNVOL_THREADS.
``failed`` counts ops that raised; ops that returned a value beyond their
accuracy target are counted in ``ok_frac`` instead (see README.md).
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_REPEATS = 7
CHILD_TIMEOUT_S = 150
LIMIT_S = 170  # a run must end within 180 s


def parse(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=["smooth-aniso", "projection-mc", "verify-suite"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--small", action="store_true",
                    help="reduced op list, for the smoke test")
    args = ap.parse_args(argv)
    if not 0 <= args.seed < 2 ** 32:
        ap.error("--seed must be in [0, 2^32)")
    if not 0 < args.seconds <= 60:
        ap.error("--seconds must be in (0, 60]")
    return args


def child_env() -> dict:
    env = {k: v for k, v in os.environ.items()
           if k not in ("FUNVOL_THREADS", "PYTHONPATH", "PYTHONSTARTUP")}
    env.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    return env


def run_child(argv, env, deadline) -> tuple[float, dict]:
    """(monotonic clock at start, parsed last stdout line) of one worker process."""
    timeout = min(CHILD_TIMEOUT_S, deadline - time.monotonic())
    if timeout <= 0:
        raise RuntimeError("out of time before starting a worker")
    started = time.clock_gettime(time.CLOCK_MONOTONIC)
    proc = subprocess.run([sys.executable, str(HERE / "worker.py"), *argv],
                          env=env, cwd=ROOT, capture_output=True, text=True,
                          timeout=timeout)
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited {proc.returncode}:\n{proc.stderr[-4000:]}")
    return started, json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    args = parse(argv)
    deadline = time.monotonic() + LIMIT_S
    if not (ROOT / "src" / "funvol" / "__init__.py").is_file():
        print(f"bench: no src/funvol under {ROOT}; run from a funvol checkout",
              file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    env = child_env()
    common = ["--workload", args.workload, "--seed", str(args.seed)]
    if args.small:
        common.append("--small")
    try:
        # half the probes before the measurement and half after, so that a
        # slow stretch of the machine rarely covers all of them
        probes = [run_child(common + ["--setup-only"], env, deadline)
                  for _ in range(SETUP_REPEATS // 2)]
        work_argv = common + ["--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.trace:
            spans = ROOT / ".bench_out" / f"spans-{args.workload}-seed{args.seed}.json"
            work_argv += ["--spans", str(spans)]
        _, res = run_child(work_argv, env, deadline)
        probes += [run_child(common + ["--setup-only"], env, deadline)
                   for _ in range(SETUP_REPEATS - SETUP_REPEATS // 2)]
    except (RuntimeError, subprocess.TimeoutExpired, json.JSONDecodeError, IndexError) as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1

    # every time is multiplied by the calibration scale of its process (set-up)
    # or of its pass (ops), measured alongside it
    setup_raw = [p["ready_at"] - started for started, p in probes]
    setup_s = statistics.median(w * p["scale"] for w, (_, p) in zip(setup_raw, probes))
    import_s = statistics.median(p["import_s"] * p["scale"] for _, p in probes)
    ops, scale = res["ops"], res["scale"]
    passes = [w * f for w, f in zip(res["pass_s"], scale)]
    lat = [x * f for i, f in enumerate(scale) for x in res["op_s"][i * ops:(i + 1) * ops]]
    fail_n, err_n, err_base = len(res["fails"]), len(res["err_misses"]), res["err_cases"]
    plain_pass = statistics.median(passes)
    e2e = {
        "setup_s": setup_s,
        "pass_s": plain_pass,
        "op_ms_p50": 1e3 * statistics.median(lat),
        "op_ms_p90": 1e3 * statistics.quantiles(lat, n=10, method="inclusive")[8],
        "integrand_evals": res["integrand_evals"],
        "peak_rss_mb": res["peak_rss_mb"],
        "ok_frac": (ops - fail_n) / ops,
        "err_bound_frac": (err_base - err_n) / err_base if err_base else 1.0,
    }
    layers = dict(res["layers"])
    if args.trace:
        layers["setup.import_s"] = import_s
        traced = [w * f for w, f in zip(res["traced_pass_s"], res["traced_scale"])]
        layers["trace_overhead_frac"] = statistics.median(traced) / plain_pass - 1.0
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    source = layers if args.trace else e2e
    metrics = {m["name"]: {"value": source.get(m["name"], 0), "unit": m["unit"]} for m in wanted}

    load = os.getloadavg()
    print(f"# funvol bench  workload={args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace}")
    print(f"# env  nproc={os.cpu_count()} loadavg={load[0]:.2f},{load[1]:.2f},{load[2]:.2f} "
          f"OPENBLAS_NUM_THREADS={env['OPENBLAS_NUM_THREADS']} FUNVOL_THREADS=unset "
          f"python={sys.version.split()[0]}")
    print(f"# ops/pass={ops} passes={res['passes']} traced_passes={res['traced_passes']} "
          f"op samples={len(lat)} setup probes={SETUP_REPEATS}")
    print("# wall pass_s " + " ".join(f"{x:.3f}" for x in res["pass_s"])
          + ("  traced " + " ".join(f"{x:.3f}" for x in res["traced_pass_s"])
             if res["traced_pass_s"] else ""))
    print("# calibration scale " + " ".join(f"{x:.3f}" for x in scale)
          + "  wall setup_s " + " ".join(f"{x:.3f}" for x in setup_raw))
    print(f"# fail_frac={fail_n / ops:.4f} ({fail_n} of {ops} ops)  "
          f"err_miss_frac={(err_n / err_base if err_base else 0.0):.4f} "
          f"({err_n} of {err_base} exact, unsampled ops)  raised={res['raised']}")
    for f in res["fails"]:
        print(f"#   fail  {f['id']}: {f['why']}")
    for name in res["err_misses"]:
        print(f"#   err-miss  {name}")
    for name, m in metrics.items():
        print(f"{name:36s} {m['value']:>16.6g} {m['unit']}")

    correct = res["raised"] == 0 and res["deterministic"] and not res["leftover_patches"]
    if not res["deterministic"]:
        print("# error: an op's value or counters changed between passes", file=sys.stderr)
    if res["leftover_patches"]:
        print(f"# error: patched after restore: {res['leftover_patches']}", file=sys.stderr)
    print(json.dumps({"correct": correct, "attempted": res["attempted"],
                      "failed": res["raised"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
