"""The package holds what its commands and the benchmark call.

Two AST scans of ``src/akgrowth``, read without running it: every public
function, class and method is referenced in the package outside its own
definition, or by the benchmark in ``perfbench/``; and every name a module
imports is used in that module.
"""

import ast
from collections import Counter
from pathlib import Path

import akgrowth

PACKAGE = Path(akgrowth.__file__).parent
PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"

# public names that nothing in the package or the benchmark calls, on purpose
CALLED_ELSEWHERE = {
    # samples a vectorized function on the nodes: a construction helper for
    # tests and demos, where the configs build profiles from closed forms
    "GridFunction.from_callable",
}

_FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)
_COMPREHENSIONS = (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)


def _parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(), filename=str(path))


def _bindings(node: ast.AST) -> set[str]:
    """The names a function or comprehension binds in its own scope: its
    parameters or targets and every name stored in its body, not counting
    the bodies of the functions nested in it, less its ``global`` names.
    Imports are left to ``_imports``, wherever they stand."""
    if isinstance(node, _COMPREHENSIONS):
        return {sub.id for gen in node.generators for sub in ast.walk(gen.target)
                if isinstance(sub, ast.Name)}
    args = node.args
    bound = {a.arg for a in [*args.posonlyargs, *args.args, *args.kwonlyargs,
                             args.vararg, args.kwarg] if a is not None}
    declared_global = set()
    stack = list(node.body) if isinstance(node.body, list) else [node.body]
    while stack:
        sub = stack.pop()
        if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Store):
            bound.add(sub.id)
        elif isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            bound.add(sub.name)
            continue
        elif isinstance(sub, ast.Lambda):
            continue
        elif isinstance(sub, ast.ExceptHandler) and sub.name:
            bound.add(sub.name)
        elif isinstance(sub, ast.Global):
            declared_global.update(sub.names)
        stack.extend(ast.iter_child_nodes(sub))
    return bound - declared_global


def _free_loads(node: ast.AST, bound: frozenset = frozenset()):
    """The ``Name`` loads under ``node`` that no enclosing function or
    comprehension binds, so that they read a module-level name."""
    if isinstance(node, _FUNCTIONS + _COMPREHENSIONS):
        bound = bound | _bindings(node)
    elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
        if node.id not in bound:
            yield node
    for child in ast.iter_child_nodes(node):
        yield from _free_loads(child, bound)


def _imports(tree: ast.Module) -> tuple[dict, dict]:
    """The package modules a module binds by name (local name -> module) and
    the names it imports from them (local name -> (module, name))."""
    modules, names = {}, {}
    for node in ast.walk(tree):
        if not isinstance(node, ast.ImportFrom):
            continue
        if (node.level, node.module) in ((1, None), (0, "akgrowth")):
            modules.update({a.asname or a.name: a.name for a in node.names})
        elif node.level == 1:
            names.update({a.asname or a.name: (node.module, a.name) for a in node.names})
    return modules, names


def _resolved_references(tree: ast.Module, module: str) -> Counter:
    """(module, name) of each top-level name that ``tree`` reads: a free name
    of its own, a name imported from a package module, or ``alias.name`` on
    an imported package module."""
    modules, names = _imports(tree)
    loads = list(_free_loads(tree))
    alias_loads = {id(node) for node in loads if node.id in modules}
    references = Counter()
    for node in loads:
        references[names.get(node.id, (module, node.id))] += 1
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and id(node.value) in alias_loads:
            references[modules[node.value.id], node.attr] += 1
    return references


def _attribute_names(node: ast.AST) -> Counter:
    return Counter(sub.attr for sub in ast.walk(node) if isinstance(sub, ast.Attribute))


def _traced(tree: ast.Module) -> Counter:
    """(module, name) of each entry of a module-level ``TRACED`` table: the
    benchmark wraps the functions it names by looking them up."""
    return Counter(
        (key.value, name.value)
        for node in tree.body
        if isinstance(node, ast.Assign)
        and any(isinstance(t, ast.Name) and t.id == "TRACED" for t in node.targets)
        for key, names in zip(node.value.keys, node.value.values)
        for name in names.elts
    )


def _public_definitions(tree: ast.Module):
    """(name, node, is_method) of each public top-level function and class and
    of each public method, the method named ``Class.method``."""
    for node in tree.body:
        if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            continue
        if not node.name.startswith("_"):
            yield node.name, node, False
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                    yield f"{node.name}.{item.name}", item, True


def _unreferenced(package: Path = PACKAGE, perfbench: Path = PERFBENCH) -> set[str]:
    """Public names of ``package`` that nothing reads outside their own
    definition.  A top-level name counts only as its module resolves it; a
    method counts wherever its attribute name is read."""
    modules = {path.stem: _parse(path) for path in sorted(package.glob("*.py"))}
    clients = [_parse(path) for path in sorted(perfbench.glob("*.py"))]
    references, attributes = Counter(), Counter()
    for module, tree in modules.items():
        references += _resolved_references(tree, module)
        attributes += _attribute_names(tree)
    for tree in clients:
        references += _resolved_references(tree, None) + _traced(tree)
        attributes += _attribute_names(tree)
    unreferenced = set()
    for module, tree in modules.items():
        for name, node, is_method in _public_definitions(tree):
            short = name.rsplit(".", 1)[-1]
            if is_method:
                count = attributes[short] - _attribute_names(node)[short]
            else:
                own = sum(1 for sub in _free_loads(node) if sub.id == short)
                count = references[module, short] - own
            if count <= 0:
                unreferenced.add(name)
    return unreferenced


def test_every_public_name_is_called():
    # a name that no command and no benchmark reaches is API kept for its
    # own tests; move it to tests/oracles.py or delete it
    assert _unreferenced() == CALLED_ELSEWHERE


def test_a_shadowing_local_is_no_reference(tmp_path):
    # a local variable, a parameter or an attribute named like a dead
    # function does not reach it; an import, a module attribute and a
    # free read of the module's own name do
    package, perfbench = tmp_path / "pkg", tmp_path / "bench"
    package.mkdir()
    perfbench.mkdir()
    (package / "grid.py").write_text(
        "def integral(x):\n    return x\n\n"
        "def sup(x):\n    return x\n\n"
        "def mean(x):\n    return x\n\n"
        "def scale(x):\n    return x\n\n"
        "def clip(x):\n    integral = sup(x)\n    return integral\n"
    )
    (package / "hjb.py").write_text(
        "from . import grid\nfrom .grid import mean\n\n"
        "def solve(x, scale=2.0):\n"
        "    integral = x * scale\n"
        "    totals = [integral for integral in (x,)]\n"
        "    return integral + x.integral + totals[0] + mean(x) + grid.clip(x)\n"
    )
    (perfbench / "run.py").write_text(
        "from akgrowth import hjb\n\nhjb.solve(1.0)\n"
    )
    assert _unreferenced(package, perfbench) == {"integral", "scale"}



def test_cli_reads_no_threshold():
    # the certificate's thresholds and each comparison with them live in
    # verify: cli reads no ALL-CAPS constant of a package module
    tree = _parse(PACKAGE / "cli.py")
    modules, names = _imports(tree)
    read = [f"{modules[node.value.id]}.{node.attr}" for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
            and node.value.id in modules and node.attr.isupper()]
    read += [f"{module}.{name}" for module, name in names.values() if name.isupper()]
    assert read == []


def test_every_import_is_used():
    unused = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "__init__.py":  # its imports are the exports
            continue
        tree = _parse(path)
        imported = []
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                imported += [a.asname or a.name.split(".")[0] for a in node.names]
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                imported += [a.asname or a.name for a in node.names]
        read = {sub.id for sub in ast.walk(tree) if isinstance(sub, ast.Name)}
        unused += [f"{path.name}: {name}" for name in imported if name not in read]
    assert unused == []
