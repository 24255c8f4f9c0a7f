"""The package holds no name that only the tests use.

Every module-level name a module of src/modelfollow defines (a function, a
class or an assigned name; dunders aside) must be loaded somewhere in
src/modelfollow or perfbench/: as a bare name, as an attribute
(oracle.solve_dare, cfg.delta) or, in perfbench, by importing it.  A name
that only a string mentions (the tracer's call sites, a docstring) is not
loaded.  The check parses the sources and imports nothing.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "modelfollow"
PERFBENCH = ROOT / "perfbench"


def parse(path):
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def defined(tree):
    """The names a module's top-level statements define, dunders aside."""
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name))
    return {name for name in names if not (name.startswith("__") and name.endswith("__"))}


def loaded(tree, imports_count):
    """The names a module loads: bare names read, attributes, and when
    imports_count the names it imports from modelfollow."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif (imports_count and isinstance(node, ast.ImportFrom)
              and (node.module or "").split(".")[0] == "modelfollow"):
            names.update(alias.name for alias in node.names)
    return names


def test_every_package_name_is_used_outside_the_tests():
    modules = {path.stem: parse(path) for path in sorted(PACKAGE.glob("*.py"))}
    used = set().union(*(loaded(tree, False) for tree in modules.values()),
                       *(loaded(parse(path), True) for path in sorted(PERFBENCH.glob("*.py"))))
    unused = sorted(f"{module}.{name}" for module, tree in modules.items()
                    for name in defined(tree) - used)
    assert unused == []
