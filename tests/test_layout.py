"""Source layout: no private imports across modules, no callerless code.

Shared helpers get a public name in the module that owns them; a leading
underscore means "used only in this module".  Every definition in the
package has a caller in the package: code that only tests use lives in the
tests.  Both rules are checked on the syntax tree of every package module.
"""

from __future__ import annotations

import ast
from pathlib import Path

import toda_bo

PACKAGE = Path(toda_bo.__file__).parent


def parsed_modules() -> dict[str, ast.Module]:
    paths = sorted(PACKAGE.glob("*.py"))
    assert len(paths) > 1
    return {path.name: ast.parse(path.read_text(), str(path)) for path in paths}


def test_no_private_imports_across_modules():
    offenders = []
    for name, tree in parsed_modules().items():
        for node in ast.walk(tree):
            if not isinstance(node, ast.ImportFrom):
                continue
            if node.level == 0 and not (node.module or "").startswith("toda_bo"):
                continue
            offenders += [
                f"{name}:{node.lineno} imports {alias.name}"
                for alias in node.names
                if alias.name.startswith("_")
            ]
    assert offenders == []


def test_every_definition_has_a_caller_in_the_package():
    # a reference is a Name, an Attribute or an import alias with the
    # definition's name, anywhere in the package outside the definition's
    # own lines; methods match by name alone, so this errs towards passing
    modules = parsed_modules()
    defs, refs = [], []
    for name, tree in modules.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defs.append((name, node.name, node))
            if isinstance(node, ast.ClassDef):
                defs += [
                    (name, f"{node.name}.{sub.name}", sub)
                    for sub in node.body
                    if isinstance(sub, ast.FunctionDef)
                    and not (sub.name.startswith("__") and sub.name.endswith("__"))
                ]
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                refs.append((name, node.id, node.lineno))
            elif isinstance(node, ast.Attribute):
                refs.append((name, node.attr, node.lineno))
            elif isinstance(node, ast.alias):
                refs.append((name, node.name, node.lineno))
    callerless = [
        f"{name}:{node.lineno} {qualname}"
        for name, qualname, node in defs
        if not any(
            ref == node.name
            and (where != name or not node.lineno <= line <= node.end_lineno)
            for where, ref, line in refs
        )
    ]
    assert callerless == []
