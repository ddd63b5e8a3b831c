"""Every function, method and class that src/wadet defines is named in
the code of a product path: the wadet modules themselves (the package's
re-exports in __init__.py aside) or the benchmark in perfbench/.  A
definition that only tests name belongs with the tests."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "wadet"
PERFBENCH = ROOT / "perfbench"


def definitions(tree):
    """(qualified name, name) of each function, method and class, dunder
    methods aside."""
    out = []

    def visit(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                name = child.name
                if not (name.startswith("__") and name.endswith("__")):
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
