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
    """Every projection or restriction, a plane stack's or one plane's, is
    realized by one recursion over the stack: ``realize_stack`` is called by
    the two stack callbacks of ``valuations`` and by ``_on_plane``, the stack
    of one behind ``project_function`` and ``restrict_function``, which only
    ``check_conjugate_projection`` calls; ``_realize`` is called by
    ``realize_stack`` and by itself; and no ``Subspace`` is built inside it."""
    assert _package_callers("realize_stack") == Counter({
        "valuations._projection_average.stack": 1, "valuations.eval_dual_ck.stack": 1,
        "subspaces._on_plane": 1})
    assert _package_callers("_on_plane") == Counter({"subspaces.project_function": 1,
                                                     "subspaces.restrict_function": 1})
    for name in ("project_function", "restrict_function"):
        callers = _package_callers(name)
        assert callers == Counter({"subspaces.check_conjugate_projection": 1}), \
            f"{name} is called from {dict(callers)}"
    assert _package_callers("_realize") == Counter({
        "subspaces.realize_stack": 1, "subspaces._realize": 1, "subspaces._realize.inner": 1})
    tree = ast.parse((PACKAGE / "subspaces.py").read_text())
    realize = next(node for node in tree.body
                   if isinstance(node, ast.FunctionDef) and node.name == "_realize")
    assert not _references(realize)["Subspace"]
    assert not any(_references(ast.parse(path.read_text()))["plane_free"]
                   for path in PACKAGE.glob("*.py"))


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


def test_one_hull_engine(monkeypatch):
    """qhull builds every hull, 2-d and 3-d, in one place.

    ``ConvexHull`` is named only in ``PolytopeV.__init__``, no batched
    ``_hull_2d`` is left in the package, and ``shadow_intrinsic_volumes``
    reads a 3-d polytope's shadows on 2-planes from its own hull, building
    no ``PolytopeV`` per plane.
    """
    qhull = Counter()
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text())
        assert not _references(tree)["_hull_2d"], path.name
        qhull[path.stem] = _references(tree)["ConvexHull"]
    polytope = next(node for node in ast.parse((PACKAGE / "convex.py").read_text()).body
                    if isinstance(node, ast.ClassDef) and node.name == "PolytopeV")
    init = next(node for node in polytope.body
                if isinstance(node, ast.FunctionDef) and node.name == "__init__")
    assert _references(init)["ConvexHull"] == sum(qhull.values()) == 1, \
        f"ConvexHull is named in {dict(+qhull)}"

    from funvol import convex
    from funvol.subspaces import grassmann_cubature
    body = convex.PolytopeV([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0],
                             [0.0, 0.0, 1.0], [1.0, 1.0, 1.0]])
    frames = grassmann_cubature(3, 2, [4])[0][0].frames
    built, build = [], convex.PolytopeV.__init__

    def counted(self, vertices):
        built.append(vertices)
        build(self, vertices)

    monkeypatch.setattr(convex.PolytopeV, "__init__", counted)
    for j in (1, 2):
        assert convex.shadow_intrinsic_volumes(body, frames, j).shape == (len(frames),)
    assert not built, f"{len(built)} polytopes built for {len(frames)} shadows"


def test_one_polar_engine():
    """Every polar integral runs through one lockstep engine, and no
    Grassmannian average runs inside another.

    In numerics ``sphere_rule`` is called from one function, where a member
    of a polar stack takes the rule of its next level, and the refinement
    loop ``_refine`` serves the interval rule and the polar stack only.  In
    valuations no function nested in an averaging route, the plane-stack
    callbacks among them, names a projection average or the Grassmannian
    average itself.
    """
    rules = _package_callers("sphere_rule", {"numerics"})
    assert rules == Counter({"numerics.integrate_polar_stack.start": 1}), \
        f"sphere_rule is called from {dict(rules)}"
    loops = _package_callers("_refine")
    assert loops == Counter({"numerics.integrate_interval": 1,
                             "numerics.integrate_polar_stack": 1}), \
        f"_refine is called from {dict(loops)}"
    tree = ast.parse((PACKAGE / "valuations.py").read_text())
    routes = [node for node in tree.body if isinstance(node, ast.FunctionDef)
              and node.name in ("_projection_average", "eval_dual_ck", "classical_ck_check")]
    assert len(routes) == 3
    averages = {"eval_cauchy_kubota", "eval_ck_general", "_grassmann_average"}
    inner = {f"{route.name}.{node.name}": sorted(averages & set(_references(node)))
             for route in routes for node in ast.walk(route)
             if isinstance(node, ast.FunctionDef) and node is not route}
    assert inner and not any(inner.values()), f"averages inside averages: {inner}"


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


def test_scalings_are_parameters():
    """Only ``convex`` knows how scaling works: every variant folds an
    epigraph or pointwise scaling into its own parameters.

    No package module defines a class ``EpiScaled`` or ``PointwiseScaled``,
    and neither ``subspaces._realize`` nor ``valuations._domain_weight_integrals``
    names a scaling.
    """
    wrappers = {"EpiScaled", "PointwiseScaled"}
    defined = [f"{path.name}:{node.lineno} {node.name}"
               for path in sorted(PACKAGE.glob("*.py"))
               for node in ast.walk(ast.parse(path.read_text()))
               if isinstance(node, ast.ClassDef) and node.name in wrappers]
    assert not defined, "scaling wrapper classes: " + ", ".join(defined)
    scalings = wrappers | {"epi_scale", "pointwise_scale"}
    for module, name in (("subspaces", "_realize"), ("valuations", "_domain_weight_integrals")):
        tree = ast.parse((PACKAGE / f"{module}.py").read_text())
        func = next(node for node in tree.body
                    if isinstance(node, ast.FunctionDef) and node.name == name)
        named = scalings & set(_references(func))
        assert not named, f"{module}.{name} names {sorted(named)}"
