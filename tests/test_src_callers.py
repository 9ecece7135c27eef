"""Every function, class and method in ``src/chfif`` has a caller in ``src/chfif``.

Code that only the tests, the benchmark or the README call belongs with
them, not in the package.  A definition counts as called when its name
appears as a name or an attribute in the package outside its own body and
outside ``__init__.py``, whose imports only export.  The match is by bare
name, so a same-named function, method or attribute elsewhere counts as a
caller: a pass shows that nothing is plainly dead, not that every
definition runs.
"""

import ast
from collections import Counter
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "chfif"

# definitions with no caller in the package, each kept for a reason
ALLOWED = {
    # the dimension and value-bound work that ROADMAP items 5 and 12 start from
    "ChfifModel.value_bounds",
    # the Hoelder cross-check that perfbench's gallery workload times; it
    # leaves the package with that workload's next change (ROADMAP items 15 and 17)
    "empirical_holder",
}


def _is_command(node) -> bool:
    """A click command callback: click calls it, by way of its decorator."""
    return any(isinstance(d, ast.Call) and isinstance(d.func, ast.Attribute) and d.func.attr == "command"
               for d in node.decorator_list)


def _definitions(tree, prefix=""):
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield prefix + node.name, node
            yield from _definitions(node, f"{prefix}{node.name}.")
        else:
            yield from _definitions(node, prefix)


def _names(tree) -> Counter:
    """How often each name appears in ``tree`` as a name or an attribute."""
    return Counter(node.id if isinstance(node, ast.Name) else node.attr
                   for node in ast.walk(tree) if isinstance(node, (ast.Name, ast.Attribute)))


def uncalled_definitions() -> list[str]:
    """The dotted names of the package's definitions that nothing in the package
    names outside their own bodies (so a function that only calls itself is uncalled)."""
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8")) for path in sorted(SRC.glob("*.py"))}
    named = sum((_names(tree) for name, tree in trees.items() if name != "__init__.py"), Counter())
    return [qualified for name, tree in trees.items() for qualified, node in _definitions(tree)
            if named[node.name] == (0 if name == "__init__.py" else _names(node)[node.name])
            and not _is_command(node) and not (node.name.startswith("__") and node.name.endswith("__"))]


def test_every_definition_in_the_package_has_a_caller_there():
    assert sorted(set(uncalled_definitions()) - ALLOWED) == []


def test_the_allow_list_names_only_uncalled_definitions():
    # a name that gains a caller, or leaves the package, leaves the list
    assert ALLOWED <= set(uncalled_definitions())
