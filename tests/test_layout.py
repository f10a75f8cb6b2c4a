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
