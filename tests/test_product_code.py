"""Every function, method and class that src/wadet defines is named in
the code of a product path: the wadet modules themselves (the package's
re-exports in __init__.py aside) or the benchmark in perfbench/.  A
definition that only tests name belongs with the tests."""

import ast
import builtins
import importlib
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "wadet"
PERFBENCH = ROOT / "perfbench"


def library_methods(node):
    """The attribute names of a class's bases that are builtins or
    attributes of a standard-library module (argparse.ArgumentParser):
    the library calls a method that overrides one of them."""
    out = set()
    for base in getattr(node, "bases", ()):
        if isinstance(base, ast.Name) and hasattr(builtins, base.id):
            out.update(dir(getattr(builtins, base.id)))
        elif isinstance(base, ast.Attribute) and isinstance(base.value, ast.Name):
            out.update(dir(getattr(importlib.import_module(base.value.id), base.attr)))
    return out


def definitions(tree):
    """(qualified name, name) of each function, method and class, dunder
    methods and overrides of library methods aside."""
    out = []

    def visit(node, prefix):
        hooks = library_methods(node)
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                name = child.name
                if not (name.startswith("__") and name.endswith("__") or name in hooks):
                    out.append((prefix + name, name))
                visit(child, prefix + name + ".")
            else:
                visit(child, prefix)

    visit(tree, "")
    return out


def names_in_code(tree):
    """The identifiers a module's code mentions: names, attributes and
    imported names; docstrings and comments are not code."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.alias):
            out.add(node.name.rpartition(".")[2])
    return out


def test_every_src_definition_is_named_by_product_code():
    modules = {path: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    assert modules and any(PERFBENCH.glob("*.py"))
    named = set()
    for path, tree in modules.items():
        if path.name != "__init__.py":
            named |= names_in_code(tree)
    for path in sorted(PERFBENCH.glob("*.py")):
        named |= names_in_code(ast.parse(path.read_text()))
    unused = [f"{path.stem}.{qualified}" for path, tree in modules.items()
              for qualified, name in definitions(tree) if name not in named]
    assert unused == []


def enclosing(tree, matches):
    """The qualified name of the function around each node for which
    matches(node) holds ("" at module level)."""
    out = []

    def visit(node, where):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, f"{where}.{child.name}".lstrip("."))
                continue
            if matches(child):
                out.append(where)
            visit(child, where)

    visit(tree, "")
    return out


def compares_k_with_1(tree):
    """The qualified name of the function around each comparison of a .k
    attribute with 1 ("" at module level)."""
    def matches(node):
        operands = [node.left, *node.comparators] if isinstance(node, ast.Compare) else []
        return (any(isinstance(o, ast.Attribute) and o.attr == "k" for o in operands)
                and any(isinstance(o, ast.Constant) and o.value == 1 for o in operands))

    return enclosing(tree, matches)


def imported_modules(tree):
    """Every dotted part of every module a module's code imports, and the
    names it imports from a package."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            out.update(part for alias in node.names for part in alias.name.split("."))
        elif isinstance(node, ast.ImportFrom):
            out.update((node.module or "").split("."))
            if node.module in (None, "wadet"):
                out.update(alias.name for alias in node.names)
    return out


def test_only_tables_picks_a_kind_of_totals():
    # estimator.tables(a) picks the kind of totals once; the
    # self-composition asks the kind's methods and never reads a total
    selfcomp = ast.parse((SRC / "selfcomp.py").read_text())
    assert "epset" not in imported_modules(selfcomp)
    assert compares_k_with_1(selfcomp) == []
    estimator = ast.parse((SRC / "estimator.py").read_text())
    assert sorted(compares_k_with_1(estimator)) == ["successor_cells", "tables"]


def fraction_importers(tree):
    """The qualified name of the function around each import of the
    fractions module ("" at module level)."""
    return enclosing(tree, lambda node: (
        isinstance(node, ast.ImportFrom) and node.module == "fractions"
        or isinstance(node, ast.Import) and any(alias.name == "fractions" for alias in node.names)))


def test_only_the_document_edge_and_the_references_import_fraction():
    # integral weights are ints from io.parse on; a Fraction is made only
    # where a document's denominator is read (io, model) and by epl's
    # rational elimination
    found = {f"{path.stem}{'.' + where if where else ''}"
             for path in sorted(SRC.glob("*.py"))
             for where in fraction_importers(ast.parse(path.read_text()))}
    assert found == {"io", "model", "epl._linear_screen"}


def component_searches(tree):
    """The number of arguments of each call of graphutil.strong_components."""
    return [len(node.args) + len(node.keywords) for node in ast.walk(tree)
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id == "strong_components"]


def test_lasso_searches_share_the_early_report_routine():
    # the SD search and the estimate lasso search report a cycle the moment
    # they see it: each passes its marks to graphutil.strong_components,
    # which yields a cyclic marked part before its component closes
    for name in ("selfcomp", "verify"):
        searches = component_searches(ast.parse((SRC / f"{name}.py").read_text()))
        assert searches and all(n >= 3 for n in searches), name


def test_one_strong_component_search():
    # graphutil's path-based search is the only strong-component routine:
    # the model's structure and both lasso searches reach components
    # through it, and the k = 1 solver reads the model's silent components
    sources = {path.stem: path.read_text() for path in sorted(SRC.glob("*.py"))}
    assert [stem for stem, text in sources.items() if "strongly_connected_components" in text] == []
    assert {stem for stem, text in sources.items()
            if component_searches(ast.parse(text))} == {"model", "selfcomp", "verify"}
    # epl keeps no graph type of its own: the engines read the model's arcs
    epl = ast.parse(sources["epl"])
    assert {node.name for node in ast.walk(epl) if isinstance(node, ast.ClassDef)} == \
        {"WeightSetSolver", "EplAnswer", "_Budget"}


def test_walk_queries_are_asked_only_by_the_k_gt_1_tables():
    # estimator._Rows asks every k > 1 walk query (the self-composition's
    # open totals and the estimate step) and keeps its answers; the
    # self-composition keeps no synchronizer of its own
    trees = {path.stem: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    callers = {stem for stem, tree in trees.items() for node in ast.walk(tree)
               if isinstance(node, ast.Call) and "has_path_with_weight" in
               (getattr(node.func, "id", None), getattr(node.func, "attr", None))}
    assert callers == {"estimator"}
    classes = lambda stem: {node.name for node in ast.walk(trees[stem])
                            if isinstance(node, ast.ClassDef)}
    assert "_Synchronizer" not in classes("selfcomp")
    assert "_SilentRows" not in classes("estimator")
    from_epl = {alias.name for node in ast.walk(trees["selfcomp"])
                if isinstance(node, ast.ImportFrom) and node.module == "epl"
                for alias in node.names}
    assert from_epl == {"DEFAULT_BUDGET", "_Budget"}


def test_the_composition_asks_the_tables_two_questions():
    # the self-composition asks each kind of totals sync and walks and
    # keeps arc pairs, binding no builder; graphutil.explore is the one
    # breadth-first completion of a structure
    trees = {stem: ast.parse((SRC / f"{stem}.py").read_text())
             for stem in ("selfcomp", "estimator", "graphutil")}
    assert names_in_code(trees["selfcomp"]) & {"meets", "prefixes", "partial"} == set()
    assert {"sync", "walks", "explore"} <= names_in_code(trees["selfcomp"])
    assert [name for _, name in definitions(trees["estimator"])
            if name in ("meets", "prefixes", "_explore")] == []
    importers = [stem for stem, tree in trees.items() for node in ast.walk(tree)
                 if isinstance(node, (ast.Import, ast.ImportFrom))
                 and any(alias.name.rpartition(".")[2] == "deque" for alias in node.names)]
    assert importers == ["graphutil"]
