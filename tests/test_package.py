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


def _parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(), filename=str(path))


def _references(node: ast.AST) -> Counter:
    """Every name that ``node`` reads: plain names and attribute names."""
    return Counter(
        sub.id if isinstance(sub, ast.Name) else sub.attr
        for sub in ast.walk(node)
        if isinstance(sub, (ast.Name, ast.Attribute))
    )


def _traced(tree: ast.Module) -> Counter:
    """The strings of a module-level ``TRACED`` table: the benchmark wraps
    the functions it names by looking them up."""
    return Counter(
        sub.value
        for node in tree.body
        if isinstance(node, ast.Assign)
        and any(isinstance(t, ast.Name) and t.id == "TRACED" for t in node.targets)
        for sub in ast.walk(node.value)
        if isinstance(sub, ast.Constant) and isinstance(sub.value, str)
    )


def _public_definitions(tree: ast.Module):
    """(name, node) of each public top-level function and class and of each
    public method, the method named ``Class.method``."""
    for node in tree.body:
        if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            continue
        if not node.name.startswith("_"):
            yield node.name, node
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                    yield f"{node.name}.{item.name}", item


def _unreferenced() -> set[str]:
    modules = [_parse(path) for path in sorted(PACKAGE.glob("*.py"))]
    references = Counter()
    for tree in modules:
        references += _references(tree)
    for path in sorted(PERFBENCH.glob("*.py")):
        tree = _parse(path)
        references += _references(tree) + _traced(tree)
    unreferenced = set()
    for tree in modules:
        for name, node in _public_definitions(tree):
            short = name.rsplit(".", 1)[-1]
            if references[short] - _references(node)[short] <= 0:
                unreferenced.add(name)
    return unreferenced


def test_every_public_name_is_called():
    # a name that no command and no benchmark reaches is API kept for its
    # own tests; move it to tests/oracles.py or delete it
    assert _unreferenced() == CALLED_ELSEWHERE


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
