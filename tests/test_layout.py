"""Layout rules checked on the source tree itself."""
import ast
from collections import Counter
from pathlib import Path

import funvol

PACKAGE = Path(funvol.__file__).resolve().parent


def _references(node) -> Counter:
    """Names a subtree uses: plain names, attribute names and imported names."""
    refs = Counter()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            refs[sub.id] += 1
        elif isinstance(sub, ast.Attribute):
            refs[sub.attr] += 1
        elif isinstance(sub, ast.alias):
            refs[sub.name.rsplit(".", 1)[-1]] += 1
    return refs


def test_every_definition_is_used_by_the_package():
    """No function, class or method is reached only from tests.

    Each definition must be referenced by name somewhere in the package
    outside its own body.  Listing a name in ``__all__`` or re-exporting it
    from ``__init__.py`` is not a use.  Dunder names are exempt.
    """
    trees = {path.name: ast.parse(path.read_text(), str(path))
             for path in sorted(PACKAGE.glob("*.py"))}
    total = Counter()
    for name, tree in trees.items():
        if name != "__init__.py":
            total.update(_references(tree))
    unused = []
    for name, tree in trees.items():
        for node in ast.walk(tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue
            if node.name.startswith("__") and node.name.endswith("__"):
                continue
            if total[node.name] - _references(node)[node.name] <= 0:
                unused.append(f"{name}:{node.lineno} {node.name}")
    assert not unused, "defined but never used by the package: " + ", ".join(unused)


def _callers(tree, name: str) -> Counter:
    """Qualified names of the innermost functions that call ``name``, with counts.

    A call counts whether it names the function directly or as an attribute
    (``heapq.heappop``); calls at module level count under ``<module>``.
    """
    found = Counter()

    def visit(node, owner):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child.name if owner == "<module>" else f"{owner}.{child.name}")
                continue
            if isinstance(child, ast.Call):
                func = child.func
                called = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                if called == name:
                    found[owner] += 1
            visit(child, owner)

    visit(tree, "<module>")
    return found


def _package_callers(name: str, modules=None) -> Counter:
    found = Counter()
    for path in sorted(PACKAGE.glob("*.py")):
        if modules is None or path.stem in modules:
            for owner, count in _callers(ast.parse(path.read_text()), name).items():
                found[f"{path.stem}.{owner}"] += count
    return found


def test_one_refinement_loop():
    """Every adaptive panel heap is drained by the same function."""
    callers = _package_callers("heappop")
    assert len(callers) == 1, f"heappop is called from {sorted(callers)}"


def test_one_grassmannian_average():
    """Every subspace average in valuations samples its planes in one loop."""
    callers = _package_callers("sample_grassmann", {"valuations"})
    assert len(callers) == 1, f"sample_grassmann is called from {sorted(callers)}"


def test_one_haar_draw():
    """Frames come from one stacked QR helper, fed one stacked normal draw.

    ``standard_normal`` has one caller, the batched ``standard_normals``, and
    that has one caller, the Haar draw.  The Haar draw and the cubature
    planes are the callers of the one stacked complete-QR helper.  The only
    other QR in the package completes a frame handed to ``Subspace``.
    """
    normals = _package_callers("standard_normal")
    assert len(normals) == 1, f"standard_normal is called from {sorted(normals)}"
    draws = _package_callers("standard_normals")
    assert draws == Counter({"subspaces._haar_frames": 1}), \
        f"standard_normals is called from {dict(draws)}"
    stacked = _package_callers("_stacked_frames")
    assert stacked == Counter({"subspaces._haar_frames": 1,
                               "subspaces.grassmann_cubature": 1}), \
        f"_stacked_frames is called from {dict(stacked)}"
    qr = _package_callers("qr")
    assert qr == Counter({"subspaces._stacked_frames": 1, "subspaces.__init__": 1}), \
        f"qr is called from {dict(qr)}"


def test_one_schur_complement():
    """Every projection of a quadratic, a stack's or one plane's, is the
    batched Schur complement: ``subspaces`` has one ``np.linalg.solve`` call
    site, in ``project_quadratics``."""
    solves = _package_callers("solve", {"subspaces"})
    assert solves == Counter({"subspaces.project_quadratics": 1}), \
        f"solve is called from {dict(solves)}"


def test_one_stack_realization():
    """Every plane stack's projections or restrictions are realized in one
    step: ``project_function`` and ``restrict_function`` are called only from
    ``realize_stack`` (its per-plane helper ``one``) and from
    ``check_conjugate_projection``, which compares one plane's two sides."""
    for name in ("project_function", "restrict_function"):
        callers = _package_callers(name)
        assert callers == Counter({"subspaces.realize_stack.one": 1,
                                   "subspaces.check_conjugate_projection": 1}), \
            f"{name} is called from {dict(callers)}"


def test_one_shared_result():
    """One helper, ``_shared``, builds a plane-stack result that is the same
    on every plane, for the degree-0 constants and for plane-free sources
    alike: in ``valuations`` only it calls ``np.full``, and no ``_constant``
    is left in the package."""
    fulls = _package_callers("full", {"valuations"})
    assert set(fulls) == {"valuations._shared"}, f"full is called from {dict(fulls)}"
    for path in sorted(PACKAGE.glob("*.py")):
        assert not _references(ast.parse(path.read_text()))["_constant"], path.name


def test_one_closed_form_dispatch():
    """Sums and scalings are split before a closed form is asked for, in one place."""
    callers = _package_callers("closed_form")
    assert callers == Counter({"weights._transformed": 1}), \
        f"closed_form is called from {dict(callers)}"


def test_one_2d_hull():
    """qhull builds only 3-d hulls; every 2-d hull is the batched kernel.

    ``ConvexHull`` is named only in the 3-d branch of ``PolytopeV.__init__``,
    and the batched ``_hull_2d`` has two callers: the stacked body shadows
    and the 2-d branch of ``PolytopeV.__init__``, a stack of one.
    """
    kernel = _package_callers("_hull_2d")
    assert kernel == Counter({"convex.shadow_intrinsic_volumes": 1,
                              "convex.__init__": 1}), f"_hull_2d is called from {dict(kernel)}"
    qhull = Counter()
    for path in sorted(PACKAGE.glob("*.py")):
        qhull[path.stem] = _references(ast.parse(path.read_text()))["ConvexHull"]
    tree = ast.parse((PACKAGE / "convex.py").read_text())
    polytope = next(node for node in tree.body
                    if isinstance(node, ast.ClassDef) and node.name == "PolytopeV")
    init = next(node for node in polytope.body
                if isinstance(node, ast.FunctionDef) and node.name == "__init__")
    branch = next(node for node in init.body
                  if isinstance(node, ast.If) and ast.unparse(node.test) == "self.n == 2")
    in_2d = sum(_references(node)["ConvexHull"] for node in branch.body)
    in_3d = sum(_references(node)["ConvexHull"] for node in branch.orelse)
    assert in_2d == 0 and in_3d == sum(qhull.values()) > 0, \
        f"ConvexHull is named in {dict(+qhull)}, {in_3d} of them in the 3-d branch"
    assert sum(_callers(node, "_hull_2d")["<module>"] for node in branch.body) == 1


def test_one_polar_engine():
    """Every polar integral runs through one lockstep engine.

    In numerics ``sphere_rule`` is called from one function, where a member
    of a polar stack takes the rule of its next level, and the refinement
    loop ``_refine`` serves the interval rule and the polar stack only.  In
    valuations the plane-by-plane adaptor ``_per_plane`` has one caller, the
    projection average's stack callback, and hands it only the nested
    average of projections that are not smooth.
    """
    rules = _package_callers("sphere_rule", {"numerics"})
    assert rules == Counter({"numerics.integrate_polar_stack.start": 1}), \
        f"sphere_rule is called from {dict(rules)}"
    loops = _package_callers("_refine")
    assert loops == Counter({"numerics.integrate_interval": 1,
                             "numerics.integrate_polar_stack": 1}), \
        f"_refine is called from {dict(loops)}"
    adaptor = _package_callers("_per_plane")
    assert adaptor == Counter({"valuations._projection_average.stack": 1}), \
        f"_per_plane is called from {dict(adaptor)}"
    tree = ast.parse((PACKAGE / "valuations.py").read_text())
    calls = [node for node in ast.walk(tree) if isinstance(node, ast.Call)
             and getattr(node.func, "id", None) == "_per_plane"]
    assert [ast.unparse(call) for call in calls] == ["_per_plane(nested)"]
    nested = next(node for node in ast.walk(tree)
                  if isinstance(node, ast.FunctionDef) and node.name == "nested")
    assert "eval_cauchy_kubota" in _references(nested)


def test_one_row_norm():
    """Every batched row norm goes through ``numerics.row_norms``.

    No ``linalg.norm`` call with ``axis=1`` is left in the package: numpy
    reduces rows of a few coordinates far slower than ``row_norms`` sums
    contiguous columns, with the same bits.
    """
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if (isinstance(node, ast.Call) and getattr(node.func, "attr", None) == "norm"
                    and any(kw.arg == "axis" and ast.unparse(kw.value) in ("1", "-1")
                            for kw in node.keywords)):
                found.append(f"{path.name}:{node.lineno} {ast.unparse(node)}")
    assert not found, "row norms outside numerics.row_norms: " + ", ".join(found)
