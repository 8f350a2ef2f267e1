"""Checks on the source of ``diamond`` itself.

Every verdict is exact, so no module may compute with floating point: no
float literal, no call to ``float`` and nothing from ``math`` but ``gcd``.
The term-map layers take their coefficient domain from their inputs, so
they may not import ``fractions``: a ``Fraction`` unit there would pull
integral systems back into rational arithmetic.  ``rewrite`` has one
automaton walk loop, ``ObstructionAutomaton.walk``; no other function there
may step the transition table.
"""

import ast
from pathlib import Path

import diamond

SOURCES = sorted(Path(diamond.__file__).resolve().parent.glob("*.py"))
DOMAIN_AGNOSTIC = ("freealg.py", "rewrite.py", "coalgebra.py")


def float_uses(tree) -> list:
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Constant) and isinstance(node.value, (float, complex)):
            out.append((node.lineno, f"literal {node.value!r}"))
        elif isinstance(node, ast.Call) and getattr(node.func, "id", None) == "float":
            out.append((node.lineno, "call to float"))
        elif isinstance(node, ast.ImportFrom) and node.module == "math":
            names = [alias.name for alias in node.names if alias.name != "gcd"]
            out.extend((node.lineno, f"math.{name}") for name in names)
        elif isinstance(node, ast.Import):
            if any(alias.name == "math" for alias in node.names):
                out.append((node.lineno, "import math"))
    return out


def test_no_floating_point_in_src():
    assert {path.name for path in SOURCES} >= {"analysis.py", "cli.py", "rewrite.py"}
    for path in SOURCES:
        assert float_uses(ast.parse(path.read_text(), str(path))) == [], path.name


def test_float_uses_detects_each_kind():
    code = "from math import gcd, log\nimport math\ny = float(1) + 0.5\n"
    assert sorted(float_uses(ast.parse(code))) == [
        (1, "math.log"),
        (2, "import math"),
        (3, "call to float"),
        (3, "literal 0.5"),
    ]


def imports_fractions(tree) -> bool:
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "fractions":
            return True
        if isinstance(node, ast.Import) and any(a.name == "fractions" for a in node.names):
            return True
    return False


def test_term_map_layers_do_not_import_fractions():
    paths = {path.name: path for path in SOURCES}
    for name in DOMAIN_AGNOSTIC:
        assert not imports_fractions(ast.parse(paths[name].read_text(), name)), name


def test_imports_fractions_detects_both_forms():
    assert imports_fractions(ast.parse("from fractions import Fraction\n"))
    assert imports_fractions(ast.parse("import os, fractions\n"))
    assert not imports_fractions(ast.parse("from .scalars import Cyclotomic\n"))


def transition_steps(tree) -> list:
    """(function, line) of every ``delta[s][c]``: a subscript of a subscript
    of a name or attribute called ``delta``, by enclosing qualified name."""
    out = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.ClassDef, ast.FunctionDef)):
                visit(child, scope + (child.name,))
                continue
            if isinstance(child, ast.Subscript) and isinstance(child.value, ast.Subscript):
                table = child.value.value
                name = table.id if isinstance(table, ast.Name) else getattr(table, "attr", None)
                if name == "delta":
                    out.append((".".join(scope), child.lineno))
            visit(child, scope)

    visit(tree, ())
    return out


def test_rewrite_has_one_walk_loop():
    path = next(path for path in SOURCES if path.name == "rewrite.py")
    steps = transition_steps(ast.parse(path.read_text(), path.name))
    assert steps and {scope for scope, _ in steps} == {"ObstructionAutomaton.walk"}


def test_transition_steps_detects_each_form():
    code = (
        "def f(delta, s, c):\n    return delta[s][c]\n"
        "class A:\n    def g(self, s):\n        return self.delta[s][0]\n"
        "row = delta[0]\n"
    )
    assert transition_steps(ast.parse(code)) == [("f", 2), ("A.g", 5)]
