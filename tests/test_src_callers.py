"""Every function, class and method in ``src/chfif`` has a caller in ``src/chfif``.

Code that only the tests, the benchmark or the README call belongs with
them, not in the package.  A definition counts as called when its name
appears as a name or an attribute in the package outside its own body,
outside ``__init__.py``, whose imports only export, and outside the bodies
of uncalled definitions: a name used only by uncalled code is uncalled
too, so the check follows calls until no more definitions drop out.  The
match is by bare name, so a same-named function, method or attribute
elsewhere counts as a caller: a pass shows that nothing is plainly dead,
not that every definition runs.
"""

import ast
from collections import defaultdict
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "chfif"
DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)

# definitions with no caller in the package, each kept for a reason
ALLOWED = {
    # the dimension and value-bound work that ROADMAP items 5 and 12 start from
    "ChfifModel.value_bounds",
    # called only by value_bounds
    "MapFunction.sup_bound",
    # the Hoelder cross-check that perfbench's gallery workload times; it
    # leaves the package with that workload's next change (ROADMAP items 15 and 17)
    "empirical_holder",
    # called only by empirical_holder, and leaving with it
    "max_oscillation",
    # called only by max_oscillation, and leaving with it
    "_starts",
    "_spreads",
    "HolderEstimate",
}


def _is_command(node) -> bool:
    """A click command callback: click calls it, by way of its decorator."""
    return any(isinstance(d, ast.Call) and isinstance(d.func, ast.Attribute) and d.func.attr == "command"
               for d in node.decorator_list)


def _definitions(tree, prefix=""):
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, DEFINITIONS):
            yield prefix + node.name, node
            yield from _definitions(node, f"{prefix}{node.name}.")
        else:
            yield from _definitions(node, prefix)


def _uses(tree, enclosing=()):
    """Each name or attribute in ``tree``, with the definitions it is used inside."""
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, (ast.Name, ast.Attribute)):
            yield (node.id if isinstance(node, ast.Name) else node.attr), enclosing
        yield from _uses(node, (*enclosing, node) if isinstance(node, DEFINITIONS) else enclosing)


def uncalled_definitions() -> list[str]:
    """The dotted names of the package's definitions that nothing in the package
    names outside their own bodies and the bodies of uncalled definitions (so a
    function that only calls itself is uncalled, and so is one that only it calls)."""
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8")) for path in sorted(SRC.glob("*.py"))}
    uses = defaultdict(list)
    for name, tree in trees.items():
        if name != "__init__.py":
            for used, enclosing in _uses(tree):
                uses[used].append(enclosing)
    candidates = [(qualified, node) for tree in trees.values() for qualified, node in _definitions(tree)
                  if not _is_command(node) and not (node.name.startswith("__") and node.name.endswith("__"))]
    uncalled: dict[str, ast.AST] = {}
    while True:
        dead = set(uncalled.values())
        found = {qualified: node for qualified, node in candidates
                 if not any(node not in enclosing and dead.isdisjoint(enclosing) for enclosing in uses[node.name])}
        if found.keys() == uncalled.keys():
            return list(found)
        uncalled = found


def test_every_definition_in_the_package_has_a_caller_there():
    assert sorted(set(uncalled_definitions()) - ALLOWED) == []


def test_the_allow_list_names_only_uncalled_definitions():
    # a name that gains a caller, or leaves the package, leaves the list
    assert ALLOWED <= set(uncalled_definitions())


def test_a_definition_only_uncalled_code_calls_is_uncalled():
    # ChfifModel.value_bounds, itself uncalled, is sup_bound's only caller
    assert "MapFunction.sup_bound" in uncalled_definitions()
