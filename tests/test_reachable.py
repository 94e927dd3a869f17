"""Every top-level name in ``src/ftmd`` has a caller outside the tests.

A function, class or assigned name at the top level of a module in
``src/ftmd`` is reached when ``ftmd.__all__`` exports it, when it is the
CLI's ``main`` or ``entry_point``, when a file under ``benchmark/`` uses it,
or when a reached name's code, or a top-level statement that defines
nothing, uses it. A use is the name read as a variable, in its own module
or where it is imported from ``ftmd``, or read as an attribute of an
imported ``ftmd`` module; a name in a string does not count. Tests do not
reach a name: a helper that only tests call belongs in ``tests/``.

``ALLOWED`` keeps the names that tests need before any caller does, each
with the criterion or ROADMAP item that keeps it. An entry that is reached
without the list, or no longer defined, fails as well, so the list shrinks
as callers come.
"""

import ast
from pathlib import Path

import ftmd

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "ftmd"
MODULES = {p.stem for p in SRC.glob("*.py")}

ALLOWED = {
    "graph.connected_components": "acceptance criteria 1 and 3 import it",
    "resolving.is_2nr": "acceptance criteria 3 and 4 import it",
    "bench.doubling_ratios": "acceptance criterion 7 imports it",
    "oracle.oracle_min_2nr": "ROADMAP item 3 (--oracle in every mode)",
    "oracle.oracle_min_resolving": "ROADMAP item 3 (--oracle in every mode)",
}


def target_names(target):
    """Names that an assignment or ``del`` target binds or changes: an item
    or attribute target changes the name it starts from."""
    while isinstance(target, (ast.Subscript, ast.Attribute)):
        target = target.value
    if isinstance(target, (ast.Tuple, ast.List)):
        return set().union(*map(target_names, target.elts))
    return {target.id} if isinstance(target, ast.Name) else set()


def defined_names(statement):
    """Names that a top-level statement defines or changes, dunders left out."""
    if isinstance(statement, (ast.FunctionDef, ast.ClassDef)):
        names = {statement.name}
    elif isinstance(statement, (ast.Assign, ast.Delete)):
        names = set().union(*map(target_names, statement.targets))
    elif isinstance(statement, (ast.AnnAssign, ast.AugAssign)):
        names = target_names(statement.target)
    else:
        names = set()
    return {name for name in names if not name.startswith("__")}


def ftmd_imports(tree):
    """What the imports from ``ftmd`` anywhere in ``tree`` bind: a local name
    to an ``ftmd`` module, as ``"cotree"``, or to a definition in one, as
    ``"cotree.parse_cotree"``."""
    bound = {}
    for node in ast.walk(tree):
        if not isinstance(node, ast.ImportFrom):
            continue
        if node.level:
            module = node.module
        elif node.module == "ftmd" or (node.module or "").startswith("ftmd."):
            module = node.module[5:] or None
        else:
            continue
        for alias in node.names:
            name = alias.name
            whole = name if module is None and name in MODULES else f"{module or '__init__'}.{name}"
            bound[alias.asname or name] = whole
    return bound


def used(node, names):
    """The definitions that ``node`` reads, with ``names`` mapping a local
    name to a module or a definition as ``ftmd_imports`` does."""
    found = set()
    for n in ast.walk(node):
        if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
            found.add(names.get(n.id))
        elif isinstance(n, ast.Attribute) and isinstance(n.value, ast.Name):
            module = names.get(n.value.id, ".")
            found.add(None if "." in module else f"{module}.{n.attr}")
    return found - {None}


def walk(sources, benchmark, allowed):
    """The definitions in ``sources`` (module name to text) as
    ``"module.name"``, and those of them reached from the roots above plus
    ``allowed``. ``benchmark`` holds the texts of the benchmark's files."""
    init = ftmd_imports(ast.parse(sources["__init__"]))
    roots = {init[name] for name in ftmd.__all__} | {"cli.main", "cli.entry_point"} | set(allowed)
    for text in benchmark:
        tree = ast.parse(text)
        roots |= used(tree, ftmd_imports(tree))
    uses = {}  # definition -> the definitions its statements read
    for module, text in sources.items():
        tree = ast.parse(text)
        names = ftmd_imports(tree)
        statements = [(s, defined_names(s)) for s in tree.body]
        names.update((name, f"{module}.{name}") for _, defined in statements for name in defined)
        for statement, defined in statements:
            reads = used(statement, names)
            for name in defined:
                uses.setdefault(f"{module}.{name}", set()).update(reads)
            if not defined:
                roots |= reads
    reached, todo = set(), list(roots)
    while todo:
        name = todo.pop()
        if name in uses and name not in reached:
            reached.add(name)
            todo += uses[name]
    return set(uses), reached


def src_and_benchmark():
    sources = {p.stem: p.read_text(encoding="utf-8") for p in SRC.glob("*.py")}
    benchmark = [p.read_text(encoding="utf-8") for p in (ROOT / "benchmark").glob("*.py")]
    return sources, benchmark


def test_every_src_name_is_reached_or_allowed():
    sources, benchmark = src_and_benchmark()
    defined, reached = walk(sources, benchmark, ALLOWED)
    assert sorted(defined - reached) == []


def test_the_allow_list_holds_only_unreached_names():
    sources, benchmark = src_and_benchmark()
    defined, reached = walk(sources, benchmark, {})
    assert sorted(set(ALLOWED) - defined) == []
    assert sorted(set(ALLOWED) & reached) == []
    assert all(ALLOWED.values())


def test_the_walk_flags_code_that_only_tests_call():
    sources, benchmark = src_and_benchmark()
    sources["graph"] += "\n\ndef helper():\n    return 1\n\n\ndef caller():\n    return helper()\n"
    defined, reached = walk(sources, benchmark, ALLOWED)
    assert sorted(defined - reached) == ["graph.caller", "graph.helper"]
    # A use in the benchmark reaches the caller, and through it the helper;
    # the bare name, with no import from ftmd, does not.
    for use, left in (("caller()", ["graph.caller", "graph.helper"]), ("graph.caller()", [])):
        script = f"from ftmd import graph\n\n{use}\n"
        defined, reached = walk(sources, benchmark + [script], ALLOWED)
        assert sorted(defined - reached) == left
