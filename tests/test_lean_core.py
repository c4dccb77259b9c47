"""The core modules hold only what a CLI run can reach.

An ``ast`` scan over the package source.  Its roots are every name that
``harness``, ``cli`` and ``svgplot`` reference, and every name in a core
module's top-level statements other than definitions and imports (those run
on import).  A core function or class is reached when a reached body names
it, as a bare name or as an attribute; a method is reached when its class
is and its name is referenced (a dunder method comes with its class).
Matching is by name alone, so the scan can only over-read what is reached:
a definition it finds unreached is one no run can call.

A second scan finds the private names (``_name``) an entry module defines
at top level that no package module reads: a helper only tests call, or
one a change left behind.  A third finds imports that nothing in their
module names, in every package module but ``__init__`` (whose imports are
its exports) and in every test module.  A fourth finds package code that
branches on an experiment kind's name instead of reading what ``KINDS``
declares for it.
"""

import ast
from pathlib import Path

from swan_aircomp.harness import KINDS

PKG = Path(__file__).resolve().parents[1] / "src" / "swan_aircomp"
TESTS = Path(__file__).resolve().parent
CORE = ("channel", "geometry", "metrics", "optimizers")
ENTRIES = ("harness", "cli", "svgplot")
# No run calls it, but perfbench's probe wraps the name optimizers imports it under.
ALLOWED = {"geometry.feasible_grid"}
# Imported for no use but as perfbench's probe's wrapping target.
UNUSED_IMPORTS_ALLOWED = {"optimizers.feasible_grid"}

_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _names(nodes):
    out = set()
    for node in nodes:
        for sub in ast.walk(node):
            if isinstance(sub, ast.Name):
                out.add(sub.id)
            elif isinstance(sub, ast.Attribute):
                out.add(sub.attr)
    return out


def _own_names(node):
    """Names a definition references, without its methods' bodies for a class."""
    if isinstance(node, ast.ClassDef):
        body = [s for s in node.body if not isinstance(s, _DEFS)]
        return _names([*node.bases, *node.decorator_list, *body])
    return _names([node])


def _tree(module):
    return ast.parse((PKG / f"{module}.py").read_text())


def unreached_core_definitions():
    """Qualified names of the core's functions, classes and methods no run reaches."""
    trees = {m: _tree(m) for m in CORE + ENTRIES}
    defs = {}
    for m in CORE:
        for stmt in trees[m].body:
            if isinstance(stmt, _DEFS):
                defs[(m, stmt.name)] = stmt
                if isinstance(stmt, ast.ClassDef):
                    for sub in stmt.body:
                        if isinstance(sub, _DEFS):
                            defs[(m, stmt.name, sub.name)] = sub
    seen = _names(trees[m] for m in ENTRIES)
    seen |= _names(
        stmt for m in CORE for stmt in trees[m].body
        if not isinstance(stmt, (*_DEFS, ast.Import, ast.ImportFrom))
    )
    reached = set()
    grew = True
    while grew:
        grew = False
        for key, node in defs.items():
            if key in reached:
                continue
            if len(key) == 2:
                hit = key[1] in seen
            else:
                hit = key[:2] in reached and (key[2] in seen or key[2].startswith("__"))
            if hit:
                reached.add(key)
                seen |= _own_names(node)
                grew = True
    return {".".join(key) for key in defs if key not in reached}


def test_every_core_definition_is_reached_by_a_run():
    """A helper only tests call belongs in ``audit``, not in a core module."""
    unreached = unreached_core_definitions()
    assert sorted(unreached - ALLOWED) == []
    # an allow-listed name that a run reaches, or that is gone, is a stale entry
    assert unreached >= ALLOWED


def unread_entry_privates():
    """``module.name`` of each top-level ``_name`` in an entry module that no package module reads."""
    read = set()
    for path in PKG.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    out = set()
    for m in ENTRIES:
        for stmt in _tree(m).body:
            if isinstance(stmt, _DEFS):
                names = [stmt.name]
            elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
                targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
                names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
            else:
                continue
            out.update(f"{m}.{n}" for n in names
                       if n.startswith("_") and not n.startswith("__") and n not in read)
    return out


def test_every_entry_module_private_is_read_by_the_package():
    assert sorted(unread_entry_privates()) == []


def test_only_the_package_init_imports_audit():
    importers = []
    for path in sorted(PKG.glob("*.py")):
        if path.stem in ("__init__", "audit"):
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom):
                module = node.module or ""
                if module.split(".")[-1] == "audit" or any(a.name == "audit" for a in node.names):
                    importers.append(path.stem)
            elif isinstance(node, ast.Import) and any(
                a.name.split(".")[-1] == "audit" for a in node.names
            ):
                importers.append(path.stem)
    assert importers == []


def _unused_imports(path):
    """Names an import binds in the module at ``path`` that no expression there reads."""
    tree = ast.parse(path.read_text())
    bound = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound.update(a.asname or a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound.update(a.asname or a.name for a in node.names)
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return bound - read


def unused_imports():
    """``module.name`` for every unused import in the package (but ``__init__``) and the tests."""
    paths = [p for p in sorted(PKG.glob("*.py")) if p.stem != "__init__"]
    paths += sorted(TESTS.glob("*.py"))
    return {f"{path.stem}.{name}" for path in paths for name in _unused_imports(path)}


def test_no_module_imports_what_it_does_not_use():
    unused = unused_imports()
    assert sorted(unused - UNUSED_IMPORTS_ALLOWED) == []
    # an allow-listed import that is used, or gone, is a stale entry
    assert unused >= UNUSED_IMPORTS_ALLOWED


def _is_kind(node):
    return (isinstance(node, ast.Name) and node.id == "kind") or (
        isinstance(node, ast.Attribute) and node.attr == "kind"
    )


def _kind_names(node):
    """The ``KINDS`` keys a literal operand spells out: a string, or a tuple, list or set of them."""
    items = node.elts if isinstance(node, (ast.Tuple, ast.List, ast.Set)) else [node]
    return {i.value for i in items if isinstance(i, ast.Constant) and i.value in KINDS}


def kind_name_comparisons():
    """``module:line`` of each comparison of a ``kind`` name or attribute with a kind's name."""
    out = []
    for path in sorted(PKG.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Compare):
                operands = [node.left, *node.comparators]
                if any(map(_is_kind, operands)) and any(_kind_names(o) for o in operands):
                    out.append(f"{path.stem}:{node.lineno}")
    return out


def test_no_package_code_compares_a_kind_with_a_kind_name():
    """What a kind does is a field of its ``Kind``, not a branch on its name."""
    assert kind_name_comparisons() == []
