"""The core modules hold only what a CLI run can reach.

An ``ast`` scan over the package source.  Its roots are every name that
``harness``, ``cli`` and ``svgplot`` reference, and every name in a core
module's top-level statements other than definitions and imports (those run
on import).  A core function or class is reached when a reached body names
it, as a bare name or as an attribute; a method is reached when its class
is and its name is referenced (a dunder method comes with its class).
Matching is by name alone, so the scan can only over-read what is reached:
a definition it finds unreached is one no run can call.
"""

import ast
from pathlib import Path

PKG = Path(__file__).resolve().parents[1] / "src" / "swan_aircomp"
CORE = ("channel", "geometry", "metrics", "optimizers")
ENTRIES = ("harness", "cli", "svgplot")
# No run calls it, but perfbench's probe wraps the name optimizers imports it under.
ALLOWED = {"geometry.feasible_grid"}

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
