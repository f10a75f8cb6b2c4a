"""In-memory span recorder around funvol's public boundary functions.

``SpanRecorder.install()`` wraps every hooked function for the duration of a
traced run, in every funvol module that holds a reference to it (so
``valuations.integrate_polar_separable`` is wrapped as well as
``numerics.integrate_polar_separable``), and methods on the classes that
define them.  ``restore()`` puts every original back.  Each span records its
name, start, end, parent span and op id, plus a few counts taken from the
call's arguments and result.  Self time is a span's duration minus the time
its child spans cover.
"""
from __future__ import annotations

import sys
import time

import numpy as np

POLAR_MAX_LEVEL = 64  # integrate_polar_separable's default max_level


def _evals(args, kw, res):
    return {"evals": int(res.evaluations)}


def _polar(args, kw, res):
    return {"evals": int(res.evaluations), "max_level": int(kw.get("max_level", POLAR_MAX_LEVEL))}


def _sphere(args, kw, res):
    level = args[1] if len(args) > 1 else kw["level"]
    return {"level": int(level), "dirs": int(len(res[0]))}


def _points(args, kw, res):
    x = np.asarray(args[1] if len(args) > 1 else kw["x"])
    return {"points": int(x.size // max(1, args[0].n))}


def _weight_points(args, kw, res):
    w = args[0]
    return {"points": int(np.asarray(args[1]).size),
            "quad": type(w).__name__ == "TransformedWeight" and w.closed_form() is None}


def _transform(args, kw, res):
    return {"quad": bool(res is not args[0] and res.closed_form() is None)}


def _project(args, kw, res):
    return {"numeric": type(res.realized).__name__ == "NumericProjection"}


def _samples(args, kw, res):
    if hasattr(res, "subspace_samples"):
        return {"samples": int(res.subspace_samples)}
    total = 0
    for side in (getattr(res, "lhs_result", None), getattr(res, "rhs_result", None)):
        if side is not None:
            total += int(side.subspace_samples)
    return {"samples": total}


def _verdict(args, kw, res):
    return {"fail": res.verdict != "pass"}


# (span name, module, attribute or "Class.method", attribute extractor)
HOOKS = [
    ("numerics.polar", "funvol.numerics", "integrate_polar_separable", _polar),
    ("numerics.sphere_rule", "funvol.numerics", "sphere_rule", _sphere),
    ("numerics.interval", "funvol.numerics", "integrate_interval", _evals),
    ("weights.transform", "funvol.weights", "transform_R_power", _transform),
    ("weights.transform", "funvol.weights", "transform_R_inverse", _transform),
    ("weights.eval", "funvol.weights", "WeightFunction.__call__", _weight_points),
    ("convex.grad", "funvol.convex", "ConvexFunction.gradient", _points),
    ("convex.hess", "funvol.convex", "*.hessian_elem_sym", _points),
    ("convex.body", "funvol.convex", "project_body", None),
    ("convex.body", "funvol.convex", "body_intrinsic_volume", None),
    ("convex.body", "funvol.convex", "PolytopeV.__init__", None),
    ("convex.conjugate", "funvol.convex", "*.conjugate", None),
    ("subspaces.sample", "funvol.subspaces", "sample_grassmann", None),
    ("subspaces.project", "funvol.subspaces", "project_function", _project),
    ("subspaces.restrict", "funvol.subspaces", "restrict_function", None),
    ("valuations.smooth", "funvol.valuations", "eval_smooth", _samples),
    ("valuations.smooth", "funvol.valuations", "eval_domain_gradient", _samples),
    ("valuations.ck", "funvol.valuations", "eval_cauchy_kubota", _samples),
    ("valuations.ck", "funvol.valuations", "eval_ck_general", _samples),
    ("valuations.dual", "funvol.valuations", "eval_dual", _samples),
    ("valuations.dual", "funvol.valuations", "eval_dual_ck", _samples),
    ("valuations.check", "funvol.valuations", "retrieval_check", _samples),
    ("valuations.check", "funvol.valuations", "classical_ck_check", _samples),
    ("valuations.check", "funvol.valuations", "reilly_radial_check", _samples),
    ("valuations.check", "funvol.valuations", "cone_closed_form", None),
    ("verify.case", "funvol.verify", "run_case", _verdict),
]


class SpanRecorder:
    """Records spans while installed; single-threaded by design."""

    def __init__(self):
        self.op = -1
        self._patches = []  # (owner, attribute, original)
        self.clear()

    def clear(self):
        self.names, self.starts, self.ends = [], [], []
        self.parents, self.ops, self.attrs = [], [], []
        self._stack = []

    # -- wrapping ---------------------------------------------------------------
    def _wrap(self, name, fn, extract):
        rec = self
        clock = time.perf_counter_ns

        def wrapper(*args, **kw):
            sid = len(rec.starts)
            rec.names.append(name)
            rec.parents.append(rec._stack[-1] if rec._stack else -1)
            rec.ops.append(rec.op)
            rec.attrs.append(None)
            rec.ends.append(0)
            rec._stack.append(sid)
            rec.starts.append(clock())
            try:
                res = fn(*args, **kw)
            except BaseException as exc:
                rec.ends[sid] = clock()
                rec.attrs[sid] = {"raised": type(exc).__name__}
                raise
            finally:
                rec._stack.pop()
            rec.ends[sid] = clock()
            if extract is not None:
                rec.attrs[sid] = extract(args, kw, res)
            return res

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        wrapper.__doc__ = getattr(fn, "__doc__", None)
        wrapper.bench_span = name
        return wrapper

    def _targets(self, module_name, attr):
        """(owner, attribute) pairs that hold the hooked object."""
        mod = sys.modules[module_name]
        if "." in attr:
            cls_name, meth = attr.split(".")
            if cls_name == "*":
                base = sys.modules["funvol.convex"].ConvexFunction
                return [(cls, meth) for cls in _funvol_classes()
                        if issubclass(cls, base) and meth in vars(cls)]
            return [(getattr(mod, cls_name), meth)]
        original = getattr(mod, attr)
        return [(m, attr) for m in _funvol_modules() if getattr(m, attr, None) is original]

    def install(self):
        if self._patches:
            raise RuntimeError("span recorder is already installed")
        try:
            for name, module_name, attr, extract in HOOKS:
                for owner, key in self._targets(module_name, attr):
                    original = vars(owner)[key]
                    self._patches.append((owner, key, original))
                    setattr(owner, key, self._wrap(name, original, extract))
        except BaseException:
            self.restore()
            raise

    def restore(self):
        while self._patches:
            owner, key, original = self._patches.pop()
            setattr(owner, key, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.restore()

    # -- reading ----------------------------------------------------------------
    def spans(self):
        """Spans as dicts with self time, in start order; a span's id is its index."""
        child = [0] * len(self.starts)
        for sid, parent in enumerate(self.parents):
            if parent >= 0:
                child[parent] += self.ends[sid] - self.starts[sid]
        return [{"id": sid, "name": self.names[sid], "parent": self.parents[sid],
                 "op": self.ops[sid], "start_ns": self.starts[sid],
                 "end_ns": self.ends[sid],
                 "self_ns": self.ends[sid] - self.starts[sid] - child[sid],
                 "attrs": self.attrs[sid]}
                for sid in range(len(self.starts))]


def _funvol_modules():
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "funvol" or name.startswith("funvol."))]


def _funvol_classes():
    seen = []
    for mod in _funvol_modules():
        for obj in vars(mod).values():
            if isinstance(obj, type) and obj.__module__ == mod.__name__ and obj not in seen:
                seen.append(obj)
    return seen


def leftover_patches() -> list[str]:
    """Names of funvol attributes that still hold a recorder wrapper."""
    found = []
    for mod in _funvol_modules():
        for key, obj in vars(mod).items():
            if hasattr(obj, "bench_span"):
                found.append(f"{mod.__name__}.{key}")
    for cls in _funvol_classes():
        for key, obj in vars(cls).items():
            if hasattr(obj, "bench_span"):
                found.append(f"{cls.__module__}.{cls.__name__}.{key}")
    return found


def layer_metrics(spans) -> dict:
    """Per-layer counts and self times (seconds) of one pass's spans."""
    by_name = {}
    for s in spans:
        by_name.setdefault(s["name"], []).append(s)

    def calls(name):
        return len(by_name.get(name, []))

    def self_s(name, keep=None):
        return sum(s["self_ns"] for s in by_name.get(name, [])
                   if keep is None or keep(s)) / 1e9

    def attr_sum(name, key):
        return sum((s["attrs"] or {}).get(key, 0) for s in by_name.get(name, []))

    def frac(name, key):
        c = calls(name)
        return attr_sum(name, key) / c if c else 0.0

    level_of = {}
    for s in by_name.get("numerics.sphere_rule", []):
        if s["parent"] >= 0 and s["attrs"]:
            level_of[s["parent"]] = max(level_of.get(s["parent"], 0), s["attrs"]["level"])
    polar = by_name.get("numerics.polar", [])
    levels = [level_of.get(s["id"], 0) for s in polar]
    capped = sum(1 for s, lv in zip(polar, levels)
                 if s["attrs"] and "max_level" in s["attrs"] and lv >= s["attrs"]["max_level"])
    # a NonConvergedError counts once, where it leaves the numerics layer
    nonconverged = sum(
        1 for s in spans
        if s["name"].startswith("numerics.") and (s["attrs"] or {}).get("raised") == "NonConvergedError"
        and not (s["parent"] >= 0 and spans[s["parent"]]["name"].startswith("numerics.")))
    roots = [s for s in spans
             if s["name"].startswith("valuations.") and not _has_ancestor(s, spans, "valuations.")]
    quad_eval = (lambda s: (s["attrs"] or {}).get("quad", False))
    out = {
        "numerics.polar.calls": calls("numerics.polar"),
        "numerics.polar.evals": attr_sum("numerics.polar", "evals"),
        "numerics.polar.self_s": self_s("numerics.polar"),
        "numerics.polar.level_max": max(levels, default=0),
        "numerics.polar.capped": capped,
        "numerics.sphere_rule.calls": calls("numerics.sphere_rule"),
        "numerics.sphere_rule.dirs": attr_sum("numerics.sphere_rule", "dirs"),
        "numerics.sphere_rule.self_s": self_s("numerics.sphere_rule"),
        "numerics.interval.calls": calls("numerics.interval"),
        "numerics.interval.evals": attr_sum("numerics.interval", "evals"),
        "numerics.interval.self_s": self_s("numerics.interval"),
        "numerics.nonconverged": nonconverged,
        "weights.transform.calls": calls("weights.transform"),
        "weights.transform.quad_frac": frac("weights.transform", "quad"),
        "weights.eval.calls": calls("weights.eval"),
        "weights.eval.points": attr_sum("weights.eval", "points"),
        "weights.eval.self_s": self_s("weights.eval"),
        "weights.eval_quad.calls": sum(1 for s in by_name.get("weights.eval", []) if quad_eval(s)),
        "weights.eval_quad.self_s": self_s("weights.eval", quad_eval),
        "convex.grad.calls": calls("convex.grad"),
        "convex.grad.points": attr_sum("convex.grad", "points"),
        "convex.grad.self_s": self_s("convex.grad"),
        "convex.hess.calls": calls("convex.hess"),
        "convex.hess.points": attr_sum("convex.hess", "points"),
        "convex.hess.self_s": self_s("convex.hess"),
        "convex.body.calls": calls("convex.body"),
        "convex.body.self_s": self_s("convex.body"),
        "convex.conjugate.calls": calls("convex.conjugate"),
        "convex.conjugate.self_s": self_s("convex.conjugate"),
        "subspaces.sample.calls": calls("subspaces.sample"),
        "subspaces.sample.self_s": self_s("subspaces.sample"),
        "subspaces.project.calls": calls("subspaces.project"),
        "subspaces.project.self_s": self_s("subspaces.project"),
        "subspaces.project.numeric_frac": frac("subspaces.project", "numeric"),
        "subspaces.restrict.calls": calls("subspaces.restrict"),
        "subspaces.restrict.self_s": self_s("subspaces.restrict"),
    }
    for part in ("smooth", "ck", "dual", "check"):
        out[f"valuations.{part}.calls"] = calls(f"valuations.{part}")
        out[f"valuations.{part}.self_s"] = self_s(f"valuations.{part}")
    out["valuations.subspace_samples"] = sum((s["attrs"] or {}).get("samples", 0) for s in roots)
    out["verify.case.calls"] = calls("verify.case")
    out["verify.case.self_s"] = self_s("verify.case")
    out["verify.case.fail"] = attr_sum("verify.case", "fail")
    return out


def _has_ancestor(span, spans, prefix) -> bool:
    parent = span["parent"]
    while parent >= 0:
        if spans[parent]["name"].startswith(prefix):
            return True
        parent = spans[parent]["parent"]
    return False
