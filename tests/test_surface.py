"""The package holds what the CLI runs: no public name in src/besum is used only by tests,
and no environment variable changes what it does.

Every public top-level function and class, and every public method of a
top-level class, must be referenced somewhere in src/besum outside its
own definition: a function or class by name or attribute, a method only
by attribute (`x.name`), so a local variable of the same name does not
count.  The CLI verbs (`@verb` functions) are exempt, since
click calls them.  Test oracles belong in tests/.
"""

import ast
from pathlib import Path

import besum

SOURCES = sorted(Path(besum.__file__).parent.glob("*.py"))

# Public names kept although nothing in the package calls them, each with its reason.
ALLOWED = {
    "SumTrace.add_unit": "the benchmark's tracer test reads it (bench/test_benchmark.py)",
}


def _is_verb(node: ast.AST) -> bool:
    return any(isinstance(d, ast.Call) and getattr(d.func, "id", None) == "verb"
               for d in getattr(node, "decorator_list", ()))


def _definitions(tree: ast.Module):
    """(qualified name, bare name, node, is a method) for each public top-level def,
    class and method."""
    for node in tree.body:
        if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or node.name.startswith("_"):
            continue
        if not _is_verb(node):
            yield node.name, node.name, node, False
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                    yield f"{node.name}.{item.name}", item.name, item, True


def _references(tree: ast.AST, skip: ast.AST, attributes_only: bool) -> set[str]:
    """Attribute names, and unless attributes_only bare names, used in tree outside
    the subtree skip."""
    found = set()
    stack = [tree]
    while stack:
        node = stack.pop()
        if node is skip:
            continue
        if isinstance(node, ast.Name) and not attributes_only:
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        stack.extend(ast.iter_child_nodes(node))
    return found


def test_every_public_name_is_used_inside_the_package():
    trees = {path: ast.parse(path.read_text()) for path in SOURCES}
    unused = []
    for path, tree in trees.items():
        for qualified, name, node, method in _definitions(tree):
            used = any(name in _references(other, node, method) for other in trees.values())
            if not used and qualified not in ALLOWED:
                unused.append(f"{path.name}: {qualified}")
    assert not unused, f"public names only tests use (move them to tests/): {unused}"


def test_every_allowed_name_still_exists_and_is_unused():
    trees = [ast.parse(path.read_text()) for path in SOURCES]
    defined = {}
    for tree in trees:
        for qualified, name, node, method in _definitions(tree):
            defined[qualified] = (name, node, method)
    for qualified in ALLOWED:
        assert qualified in defined, f"{qualified} is allowed but no longer defined"
        name, node, method = defined[qualified]
        assert not any(name in _references(tree, node, method) for tree in trees), (
            f"{qualified} is used inside the package now; drop it from ALLOWED")


def test_no_environment_variable_is_read():
    # An input that changes a result belongs in the hashed config, where the
    # provenance records it; the environment is outside it.
    reads = []
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text())):
            name = getattr(node, "attr", None) or getattr(node, "id", None)
            if name in ("environ", "environb", "getenv", "getenvb"):
                reads.append(f"{path.name}:{node.lineno}: {name}")
    assert not reads, f"environment reads in src/besum: {reads}"
