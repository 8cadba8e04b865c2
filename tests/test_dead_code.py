"""No dead code: every public function, method and class of ``discdeg`` is
referenced somewhere in ``src/`` outside its own definition.

The check reads the sources with ``ast`` and matches names only: a bare
name or an attribute of that name anywhere else in the package counts as
a use.  Code that only tests call is dead to the program; the few names
kept on purpose are listed below with the reason.
"""
import ast
import os
from collections import Counter

SRC = os.path.join(os.path.dirname(__file__), "..", "src", "discdeg")

ALLOWED = {
    # ring API that the ring-axiom and fold tests exercise
    "burnside.BurnsideElement.coeff_by_name",
    "burnside.BurnsideElement.fold",
    "burnside.BurnsideRing.zero",
    # the independent oracle of reps.RepContext.fixed_dims
    "characters.fixed_dim",
}


def _references(node) -> Counter:
    """Uses of each name under ``node``: bare names and attributes."""
    return Counter(n.id if isinstance(n, ast.Name) else n.attr
                   for n in ast.walk(node)
                   if isinstance(n, (ast.Name, ast.Attribute)))


def _public_definitions(module: str, tree: ast.Module):
    """(qualified name, node) of each public top-level function and class
    and each public method of a top-level class."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) \
                and not node.name.startswith("_"):
            yield f"{module}.{node.name}", node
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) \
                        and not item.name.startswith("_"):
                    yield f"{module}.{node.name}.{item.name}", item


def unreferenced() -> list[str]:
    trees = {}
    for fname in sorted(os.listdir(SRC)):
        if fname.endswith(".py"):
            with open(os.path.join(SRC, fname)) as fh:
                trees[fname[:-3]] = ast.parse(fh.read(), fname)
    uses = sum(map(_references, trees.values()), Counter())
    return [qual for module, tree in trees.items()
            for qual, node in _public_definitions(module, tree)
            if uses[node.name] == _references(node)[node.name]]


def test_every_public_name_is_used_in_src():
    """The list holds exactly the allowed names: one that the program
    comes to use, or that is deleted, leaves it."""
    assert sorted(unreferenced()) == sorted(ALLOWED)
