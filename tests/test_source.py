"""Checks on the source of ``diamond`` itself.

Every verdict is exact, so no module may compute with floating point: no
float literal, no call to ``float`` and nothing from ``math`` but ``gcd``.
The term-map layers take their coefficient domain from their inputs, so
they may not import ``fractions``: a ``Fraction`` unit there would pull
integral systems back into rational arithmetic.  ``rewrite`` has one
automaton walk loop, ``ObstructionAutomaton.walk``; no other function there
may step the transition table.  ``freealg`` has one loop that sums terms,
``NcPoly.__init__``; no other function there may delete a key.  ``cli``
has one path from a command's arguments to its presentation,
``_presentation``; no other function there may call ``parse_defining`` or
``CyclotomicField``.  Every top-level definition is referenced by other
code of the package, so nothing is kept for the tests alone; a re-export
in ``__init__.py`` is not a use, and ``__all__`` lists exactly the names
``__init__.py`` imports.
``bidegree_words``, ``bidegree_masks`` and ``bidegree_sum`` enumerate the
words by definition, and so do their memos ``_bidegree_words`` and
``_mask_stream``: built from a peel identity, the splitting claims would
check that identity against itself.
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


def scoped_nodes(tree, scope=()):
    """(qualified name of the enclosing classes and functions, node) of every
    node below ``tree`` but the class and function definitions."""
    for child in ast.iter_child_nodes(tree):
        if isinstance(child, (ast.ClassDef, ast.FunctionDef)):
            yield from scoped_nodes(child, scope + (child.name,))
        else:
            yield ".".join(scope), child
            yield from scoped_nodes(child, scope)


def transition_steps(tree) -> list:
    """(function, line) of every ``delta[s][c]``: a subscript of a subscript
    of a name or attribute called ``delta``, by enclosing qualified name."""
    out = []
    for scope, node in scoped_nodes(tree):
        if isinstance(node, ast.Subscript) and isinstance(node.value, ast.Subscript):
            table = node.value.value
            name = table.id if isinstance(table, ast.Name) else getattr(table, "attr", None)
            if name == "delta":
                out.append((scope, node.lineno))
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


def subscript_deletes(tree) -> list:
    """(function, line) of every ``del m[k]``, by enclosing qualified name:
    the step of a loop that sums terms and drops the keys that cancel."""
    return [
        (scope, node.lineno)
        for scope, node in scoped_nodes(tree)
        if isinstance(node, ast.Delete)
        and any(isinstance(target, ast.Subscript) for target in node.targets)
    ]


def test_freealg_has_one_accumulation_loop():
    path = next(path for path in SOURCES if path.name == "freealg.py")
    deletes = subscript_deletes(ast.parse(path.read_text(), path.name))
    assert deletes and {scope for scope, _ in deletes} == {"NcPoly.__init__"}


def test_subscript_deletes_detects_an_accumulation_loop():
    code = (
        "class T:\n"
        "    def __mul__(self, other):\n"
        "        terms = {}\n"
        "        for key, c in pairs(self, other):\n"
        "            s = terms.get(key, 0) + c\n"
        "            if s:\n"
        "                terms[key] = s\n"
        "            elif key in terms:\n"
        "                del terms[key]\n"
        "        return terms\n"
        "del cache\n"
        "del self._terms[()], other\n"
    )
    assert subscript_deletes(ast.parse(code)) == [("T.__mul__", 9), ("", 12)]


PRESENTATION_STEPS = ("parse_defining", "CyclotomicField")


def calls_to(tree, names) -> list:
    """(function, line) of every call of a name or attribute in ``names``,
    by enclosing qualified name."""
    out = []
    for scope, node in scoped_nodes(tree):
        if isinstance(node, ast.Call):
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            if name in names:
                out.append((scope, node.lineno))
    return out


def test_cli_has_one_path_to_a_presentation():
    path = next(path for path in SOURCES if path.name == "cli.py")
    calls = calls_to(ast.parse(path.read_text(), path.name), PRESENTATION_STEPS)
    assert calls and {scope for scope, _ in calls} == {"_presentation"}


def test_calls_to_detects_a_second_call_site():
    code = (
        "def _presentation(args):\n"
        "    field = CyclotomicField(args.cyclotomic)\n"
        "    return parse_defining(args.g, 'x', field)\n"
        "def _cmd_tensor(args, argv):\n"
        "    return cli.parse_defining(args.f, 'y')\n"
        "read = parse_defining\n"
    )
    assert calls_to(ast.parse(code), PRESENTATION_STEPS) == [
        ("_presentation", 2),
        ("_presentation", 3),
        ("_cmd_tensor", 5),
    ]


# ``ideal_span_contains`` is the membership oracle of the tests, kept while a
# property uses it
UNREFERENCED_ALLOWED = {"ideal_span_contains", "__all__"}


def top_level_definitions(tree) -> list:
    """(name, statement) of every function, class and constant a module
    defines at top level."""
    out = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            out.append((node.name, node))
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                out.extend((t.id, node) for t in ast.walk(target) if isinstance(t, ast.Name))
    return out


def referenced_names(node) -> set:
    """Names read, attributes taken and names imported anywhere in ``node``."""
    names = set()
    for child in ast.walk(node):
        if isinstance(child, ast.Name) and isinstance(child.ctx, ast.Load):
            names.add(child.id)
        elif isinstance(child, ast.Attribute):
            names.add(child.attr)
        elif isinstance(child, (ast.Import, ast.ImportFrom)):
            names.update(alias.name for alias in child.names)
    return names


def unreferenced(modules: dict) -> list:
    """(module, name) of each top-level definition that no other top-level
    statement of any module references; a use inside its own definition
    does not count, and neither does a use in an ``__init__.py``, which only
    re-exports."""
    statements = [
        (node, referenced_names(node))
        for module, tree in modules.items()
        if module != "__init__.py"
        for node in tree.body
    ]
    out = []
    for module, tree in modules.items():
        for name, definition in top_level_definitions(tree):
            if not any(name in names for node, names in statements if node is not definition):
                out.append((module, name))
    return out


def test_every_definition_is_referenced():
    modules = {path.name: ast.parse(path.read_text(), path.name) for path in SOURCES}
    found = [(m, name) for m, name in unreferenced(modules) if name not in UNREFERENCED_ALLOWED]
    assert found == []


def test_unreferenced_detects_an_unused_helper():
    modules = {
        "a.py": ast.parse(
            "LIMIT = 3\n\ndef used():\n    return 1\n\n"
            "def helper(n):\n    return helper(n - 1)\n"
        ),
        "b.py": ast.parse("from .a import used\n\nprint(used(), a.LIMIT)\n"),
    }
    assert unreferenced(modules) == [("a.py", "helper")]
    # a re-export is not a use
    modules["a.py"] = ast.parse("def used():\n    return 1\n\ndef exported():\n    return 2\n")
    modules["__init__.py"] = ast.parse(
        "from .a import exported\n\n__all__ = ['exported']\n"
    )
    assert unreferenced(modules) == [("a.py", "exported"), ("__init__.py", "__all__")]


def imported_names(tree) -> set:
    """The names that the ``from`` imports of a module bind."""
    return {
        alias.asname or alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }


def test_all_lists_exactly_the_imports():
    path = next(path for path in SOURCES if path.name == "__init__.py")
    assert set(diamond.__all__) == imported_names(ast.parse(path.read_text(), path.name))
    assert len(diamond.__all__) == len(set(diamond.__all__))


def test_imported_names_reads_from_imports():
    code = "import os\nfrom .a import b, c as d\nfrom . import e\n"
    assert imported_names(ast.parse(code)) == {"b", "d", "e"}


#: what ``bidegree_words``, ``bidegree_masks``, ``bidegree_sum`` and their
#: memos may not be built from: the sum itself, the rest-sum mask stream,
#: and the peel identities the splitting claims check against them
PEEL_NAMES = {
    "bidegree_sum",
    "_rest_masks",
    "check_splitting_identity",
    "_routed_match",
    "PEELS",
}


def peel_references(tree, name="bidegree_sum") -> set:
    """The names of ``PEEL_NAMES``, and ``name`` itself, that the top-level
    function ``name`` of ``tree`` references in its body."""
    node = next(
        node for node in tree.body if isinstance(node, ast.FunctionDef) and node.name == name
    )
    return set().union(*(referenced_names(stmt) for stmt in node.body)) & (PEEL_NAMES | {name})


def test_bidegree_sum_is_a_direct_enumeration():
    path = next(path for path in SOURCES if path.name == "freealg.py")
    tree = ast.parse(path.read_text(), path.name)
    assert peel_references(tree) == set()
    assert peel_references(tree, "bidegree_words") == set()
    assert peel_references(tree, "bidegree_masks") == set()
    assert peel_references(tree, "_bidegree_words") == set()
    assert peel_references(tree, "_mask_stream") == set()


def test_peel_references_detects_a_recursive_sum():
    recursive = (
        "def bidegree_sum(alphabet, j, i, pair=(0, 1)):\n"
        "    if i == 0 or j == 0:\n"
        "        return direct(alphabet, j, i, pair)\n"
        "    return bidegree_sum(alphabet, j, i - 1, pair) * x + freealg.bidegree_sum(\n"
        "        alphabet, j - 1, i, pair) * a\n"
    )
    assert peel_references(ast.parse(recursive)) == {"bidegree_sum"}
    peeled = (
        "from .freealg import PEELS\n\n"
        "def bidegree_sum(alphabet, j, i, pair=(0, 1)):\n"
        "    h, t = PEELS['tail1']\n"
        "    return rest(_rest_masks(j, i)) + sorted_word(j, i)\n"
    )
    assert peel_references(ast.parse(peeled)) == {"PEELS", "_rest_masks"}


def test_peel_references_detects_a_peeled_word_stream():
    peeled = (
        "def bidegree_words(j, i, pair=(0, 1)):\n"
        "    yield from _rest_masks(j, i)\n"
        "    yield from bidegree_words(j - 1, i, pair)\n"
        "    yield from bidegree_sum(AX, j, i, pair).support()\n"
        "\n"
        "def bidegree_masks(j, i):\n"
        "    assert check_splitting_identity('tail1', j, i)\n"
        "    yield from (m << 1 for m in bidegree_masks(j, i - 1))\n"
        "    yield from (m << 1 | 1 for m in _rest_masks(j - 1, i))\n"
        "\n"
        "@lru_cache(maxsize=MEMO_SIZE)\n"
        "def _mask_stream(j, i):\n"
        "    return array('Q', chain(_mask_stream(j, i - 1), _rest_masks(j, i)))\n"
    )
    tree = ast.parse(peeled)
    assert peel_references(tree, "bidegree_words") == {
        "_rest_masks",
        "bidegree_words",
        "bidegree_sum",
    }
    assert peel_references(tree, "bidegree_masks") == {
        "_rest_masks",
        "bidegree_masks",
        "check_splitting_identity",
    }
    # a memo is a decorated definition, and is read like any other
    assert peel_references(tree, "_mask_stream") == {"_rest_masks", "_mask_stream"}
