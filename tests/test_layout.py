"""Source layout: no module imports a private name from another module.

Shared helpers get a public name in the module that owns them; a leading
underscore means "used only in this module".  The rule is checked on the
syntax tree of every package module.
"""

from __future__ import annotations

import ast
from pathlib import Path

import toda_bo

PACKAGE = Path(toda_bo.__file__).parent


def test_no_private_imports_across_modules():
    paths = sorted(PACKAGE.glob("*.py"))
    assert len(paths) > 1
    offenders = []
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if not isinstance(node, ast.ImportFrom):
                continue
            if node.level == 0 and not (node.module or "").startswith("toda_bo"):
                continue
            offenders += [
                f"{path.name}:{node.lineno} imports {alias.name}"
                for alias in node.names
                if alias.name.startswith("_")
            ]
    assert offenders == []
