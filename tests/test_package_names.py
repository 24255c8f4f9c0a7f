"""The package holds no name that only the tests use, and no option that
no caller sets.

Every module-level name a module of src/modelfollow defines (a function, a
class or an assigned name; dunders aside) must be loaded somewhere in
src/modelfollow or perfbench/: as a bare name, as an attribute
(oracle.solve_dare, cfg.delta) or, in perfbench, by importing it.  A name
that only a string mentions (the tracer's call sites, a docstring) is not
loaded.  Every parameter with a default of a function the package defines
must be passed, by keyword or by position, by some call of that function's
name in src/modelfollow, perfbench/ or tests/; a default that no call
overrides is a constant.  The checks parse the sources and import nothing.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "modelfollow"
PERFBENCH = ROOT / "perfbench"
TESTS = ROOT / "tests"


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


def defaults(tree):
    """{(function name, parameter): position} for each parameter with a
    default of every function a module defines, methods and nested
    functions too.  The position counts the arguments a call passes before
    it, so a method's starts after self; it is None for a keyword-only
    parameter.  A method is called by its own name, __init__ by its
    class's."""
    found = {}

    def visit(node, cls):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                args = child.args
                positional = args.posonlyargs + args.args
                skip = 1 if cls is not None else 0
                name = cls if child.name == "__init__" else child.name
                first = len(positional) - len(args.defaults)
                for i, arg in enumerate(positional[first:], first):
                    found[name, arg.arg] = i - skip
                for arg, default in zip(args.kwonlyargs, args.kw_defaults):
                    if default is not None:
                        found[name, arg.arg] = None
                visit(child, None)
            else:
                visit(child, child.name if isinstance(child, ast.ClassDef) else None)

    visit(tree, None)
    return found


def tuple_returns(tree):
    """{function name: n} for each function of a module whose every return
    statement returns an n-tuple written out (return a, b)."""
    lengths = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            found = {len(r.value.elts) if isinstance(r.value, ast.Tuple) else None
                     for r in ast.walk(node) if isinstance(r, ast.Return)}
            if len(found) == 1 and None not in found:
                lengths[node.name] = found.pop()
    return lengths


def starred_length(node, bound, returns):
    """How many arguments *node passes, where the source shows it: a tuple
    or list, a call of a function of returns (its tuple's length), or a
    name bound to one of those or to a subscript of a dict of them (the
    longest); None otherwise.  bound maps the names assigned in the call's
    function to their values."""
    if isinstance(node, ast.Name):
        node = bound.get(node.id)
    if isinstance(node, ast.Subscript) and isinstance(node.value, ast.Dict):
        lengths = [starred_length(value, {}, returns) for value in node.value.values]
        return None if not lengths or None in lengths else max(lengths)
    if isinstance(node, (ast.Tuple, ast.List)):
        return len(node.elts)
    if isinstance(node, ast.Call):
        return returns.get(called_name(node))
    return None


def called_name(call):
    """The name a call calls: a bare name or an attribute's."""
    func = call.func
    return func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)


def overridden(tree, returns):
    """{(called name, parameter or position)}: what each call of a name (a
    bare name or an attribute) passes, by keyword and by position.  A call
    passes every position ("*") with a *args whose length starred_length
    cannot tell from the source and returns, and every keyword ("**") with
    a **kwargs."""
    passed = set()
    for scope in ast.walk(tree):
        if not isinstance(scope, (ast.Module, ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        bound = {target.id: node.value for node in ast.walk(scope) if isinstance(node, ast.Assign)
                 for target in node.targets if isinstance(target, ast.Name)}
        for node in ast.walk(scope):
            if not isinstance(node, ast.Call):
                continue
            name = called_name(node)
            position = 0
            for arg in node.args:
                length = (starred_length(arg.value, bound, returns)
                          if isinstance(arg, ast.Starred) else 1)
                if length is None:
                    passed.add((name, "*"))
                    break
                position += length
            passed.update((name, i) for i in range(position))
            passed.update((name, kw.arg if kw.arg is not None else "**") for kw in node.keywords)
    return passed


def test_every_keyword_default_is_overridden_by_some_call():
    found, returns = {}, {}
    for path in sorted(PACKAGE.glob("*.py")):
        tree = parse(path)
        found.update({(path.stem, *key): position for key, position in defaults(tree).items()})
        returns.update(tuple_returns(tree))
    passed = set().union(*(overridden(parse(path), returns) for root in (PACKAGE, PERFBENCH, TESTS)
                           for path in sorted(root.glob("*.py"))))
    never = sorted(f"{module}.{name}({param})" for (module, name, param), position in found.items()
                   if not {(name, param), (name, position), (name, "*"), (name, "**")} & passed)
    assert never == []
