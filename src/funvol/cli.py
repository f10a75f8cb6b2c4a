"""Command-line surface: compute, transform, conjugate, verify.

All randomness sits behind --seed (default 0) and numeric output carries 17
significant digits, so identical invocations produce identical stdout bytes
(timing never reaches stdout).  Exit codes: 0 ok/pass, 1 verification
failure, 2 schema error, 3 unsupported variant, 4 non-converged.
"""
from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from .convex import (conjugate, discrete_legendre, function_from_spec,
                     function_to_spec)
from .errors import (FunvolError, MinimizerNotFound, NonConvergedError,
                     NotDifferentiable, SchemaError, UnknownSingularity,
                     UnsupportedVariant)
from .numerics import Rng
from .valuations import (ValuationSpec, eval_cauchy_kubota, eval_ck_general,
                         eval_domain_gradient, eval_dual, eval_smooth)
from .verify import (canonical_json, default_manifest, manifest_from_json,
                     report_csv, run_suite)
from .weights import transform_R_inverse, transform_R_power, weight_from_spec

__all__ = ["main"]

EXIT_OK = 0
EXIT_VERIFY_FAIL = 1
EXIT_SCHEMA = 2
EXIT_UNSUPPORTED = 3
EXIT_NON_CONVERGED = 4


def _exit_code(exc: Exception) -> int:
    if isinstance(exc, (SchemaError, UnknownSingularity)):
        return EXIT_SCHEMA
    if isinstance(exc, (UnsupportedVariant, NotDifferentiable)):
        return EXIT_UNSUPPORTED
    if isinstance(exc, (NonConvergedError, MinimizerNotFound)):
        return EXIT_NON_CONVERGED
    return EXIT_SCHEMA


def _emit_error(exc: Exception) -> int:
    obj = {"error": {"type": type(exc).__name__, "message": str(exc)}}
    print(canonical_json(obj))
    return _exit_code(exc)


def _load_json(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except FileNotFoundError as exc:
        raise SchemaError(f"file not found: {path}") from exc
    except json.JSONDecodeError as exc:
        raise SchemaError(f"invalid JSON in {path}: {exc}") from exc


def _parse_grid(spec: str) -> np.ndarray:
    parts = spec.split(":")
    if len(parts) not in (3, 4):
        raise SchemaError(f"grid must be 'a:b:count' or 'a:b:count:log', got {spec!r}")
    try:
        a, b, count = float(parts[0]), float(parts[1]), int(parts[2])
    except ValueError as exc:
        raise SchemaError(f"invalid grid spec {spec!r}: {exc}") from exc
    if count < 1:
        raise SchemaError("grid count must be >= 1")
    if len(parts) == 4:
        if parts[3] != "log":
            raise SchemaError(f"unknown grid modifier {parts[3]!r}")
        if a <= 0:
            raise SchemaError("log grids need a > 0")
        return np.geomspace(a, b, count)
    return np.linspace(a, b, count)


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


# ---------------------------------------------------------------------------
# Subcommands


def _cmd_compute(args) -> int:
    u = function_from_spec(_load_json(args.function))
    zeta = weight_from_spec(_load_json(args.zeta))
    rng = Rng(args.seed)
    spec = ValuationSpec(args.j, u.n, zeta)
    if args.method == "smooth":
        result = eval_smooth(spec, u)
    elif args.method == "ck":
        result = eval_cauchy_kubota(spec, u, args.samples, rng)
    elif args.method == "ck-general":
        if args.k is None:
            raise SchemaError("method ck-general requires --k")
        result = eval_ck_general(spec, u, args.k, args.samples, rng)
    elif args.method == "dual":
        result = eval_dual(spec, u, args.dual_path, args.samples, rng)
    elif args.method == "domain-gradient":
        result = eval_domain_gradient(spec, u)
    else:
        raise SchemaError(f"unknown method {args.method!r}")
    if not np.isfinite(result.value):
        raise NonConvergedError(f"the {args.method} value is not finite in double precision",
                                result.value)
    print(canonical_json(result.to_dict()))
    return EXIT_OK


def _cmd_transform(args) -> int:
    zeta = weight_from_spec(_load_json(args.zeta))
    power = args.power
    if power < 0:
        raise SchemaError("--power must be >= 0; use --inverse for the inverse map")
    if args.inverse:
        if power < 1:
            raise SchemaError("inverse transforms need --power >= 1")
        out = transform_R_inverse(zeta, power)
        label = f"Rinv{power}"
    elif power == 0:
        out = zeta
        label = "identity"
    else:
        out = transform_R_power(zeta, power)
        label = f"R{power}"
    grid = _parse_grid(args.grid)
    if np.any(grid <= 0):
        raise SchemaError("transform grids live on (0, inf)")
    values = np.asarray(out(grid))
    if not np.all(np.isfinite(values)):
        raise NonConvergedError("transform values are not finite in double precision "
                                "on this grid")
    lines = [f"s,{label}"]
    lines += [f"{_fmt(s)},{_fmt(v)}" for s, v in zip(grid, values)]
    print("\n".join(lines))
    return EXIT_OK


def _cmd_conjugate(args) -> int:
    u = function_from_spec(_load_json(args.function))
    dual = conjugate(u)
    if not args.numeric:
        print(canonical_json(function_to_spec(dual)))
        return EXIT_OK
    primal = _parse_grid(args.grid)
    dual_grid = (_parse_grid(args.dual_grid) if args.dual_grid
                 else np.linspace(primal[0] / 4.0, primal[-1] / 4.0,
                                  max(2, len(primal) // 4)))
    axes = [primal] * u.n
    mesh = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, u.n)
    vals = np.asarray(u(mesh))
    if not np.all(np.isfinite(vals)):
        raise UnsupportedVariant(
            "numeric conjugation needs the function finite on the sample box")
    table = discrete_legendre(axes, vals.reshape([len(primal)] * u.n),
                              [dual_grid] * u.n)
    dual_mesh = np.stack(np.meshgrid(*([dual_grid] * u.n), indexing="ij"),
                         axis=-1).reshape(-1, u.n)
    numeric = table.reshape(-1)
    analytic = np.asarray(dual(dual_mesh))
    have_analytic = bool(np.all(np.isfinite(analytic)))
    header = [f"y{i + 1}" for i in range(u.n)] + ["numeric"]
    if have_analytic:
        header.append("analytic")
    lines = [",".join(header)]
    for row, num, ana in zip(dual_mesh, numeric, analytic):
        cells = [_fmt(c) for c in row] + [_fmt(num)]
        if have_analytic:
            cells.append(_fmt(ana))
        lines.append(",".join(cells))
    print("\n".join(lines))
    if have_analytic:
        print(f"max_deviation={_fmt(np.abs(numeric - analytic).max())}",
              file=sys.stderr)
    return EXIT_OK


def _cmd_verify(args) -> int:
    Rng(args.seed)  # a bad seed fails before any case runs
    if args.default_suite:
        manifest = default_manifest(samples=args.samples, seed=args.seed)
    else:
        if not args.manifest:
            raise SchemaError("provide --manifest FILE or --default-suite")
        manifest = manifest_from_json(_load_json(args.manifest))
        if args.samples is not None or args.seed != 0:
            patched = []
            for case in manifest:
                params = dict(case.params)
                if args.samples is not None and "samples" in params:
                    params["samples"] = args.samples
                if args.seed != 0:
                    params["seed"] = args.seed
                patched.append(type(case)(case.id, params, case.tolerance))
            manifest = patched
    suite = run_suite(manifest)
    if args.format == "csv":
        payload = report_csv(suite)
    else:
        payload = canonical_json(suite.to_dict(include_timing=args.out is not None))
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(payload)
            if not payload.endswith("\n"):
                fh.write("\n")
    else:
        print(payload)
    return EXIT_OK if suite.all_pass else EXIT_VERIFY_FAIL


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="funvol",
        description="Functional intrinsic volumes: evaluators, weight "
                    "transforms, conjugation, and the identity verification suite.")
    sub = parser.add_subparsers(dest="command", required=True)

    compute = sub.add_parser("compute", help="evaluate a functional intrinsic volume")
    compute.add_argument("--function", required=True, help="JSON function spec file")
    compute.add_argument("--zeta", required=True, help="JSON weight spec file")
    compute.add_argument("--j", type=int, required=True, help="degree")
    compute.add_argument("--k", type=int, default=None,
                         help="projection dimension for ck-general")
    compute.add_argument("--method", required=True,
                         choices=["smooth", "ck", "ck-general", "dual",
                                  "domain-gradient"])
    compute.add_argument("--dual-path", choices=["integral", "conjugate"],
                         default="integral")
    compute.add_argument("--samples", type=int, default=256)
    compute.add_argument("--seed", type=int, default=0)
    compute.set_defaults(fn=_cmd_compute)

    transform = sub.add_parser("transform", help="tabulate a weight transform")
    transform.add_argument("--zeta", required=True)
    transform.add_argument("--power", type=int, required=True)
    transform.add_argument("--inverse", action="store_true")
    transform.add_argument("--grid", required=True, help="a:b:count[:log]")
    transform.set_defaults(fn=_cmd_transform)

    conj = sub.add_parser("conjugate", help="Legendre-Fenchel conjugate")
    conj.add_argument("--function", required=True)
    conj.add_argument("--numeric", action="store_true",
                      help="discrete transform samples instead of the analytic spec")
    conj.add_argument("--grid", default="-4:4:129", help="primal sample grid")
    conj.add_argument("--dual-grid", default=None, help="dual grid (default: range/4)")
    conj.set_defaults(fn=_cmd_conjugate)

    verify = sub.add_parser("verify", help="run identity verification cases")
    verify.add_argument("--manifest", default=None, help="JSON manifest file")
    verify.add_argument("--default-suite", action="store_true")
    verify.add_argument("--samples", type=int, default=None)
    verify.add_argument("--seed", type=int, default=0)
    verify.add_argument("--out", default=None, help="write the report to a file")
    verify.add_argument("--format", choices=["json", "csv"], default="json")
    verify.set_defaults(fn=_cmd_verify)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except FunvolError as exc:
        return _emit_error(exc)


if __name__ == "__main__":
    sys.exit(main())
