"""The package root re-exports only names that have a user outside the
package's own modules: the command line, a demo or the README.

cli.py and the demos use a name when they import it from the package, or
read it as an attribute of a module they import from it. The README uses a
name when its code shows it: the library example, or an inline code span
holding the bare name or a call of it.
Everything else stays importable from its own module.
"""

from __future__ import annotations

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _package_imports(tree: ast.AST) -> set[str]:
    """Names bound by ``from mtjbist... import`` or a relative import inside the package."""
    return {
        alias.asname or alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and (node.level or (node.module or "").split(".")[0] == "mtjbist")
        for alias in node.names
    }


def _used_names(source: str) -> set[str]:
    tree = ast.parse(source)
    imported = _package_imports(tree)
    attributes = {
        node.attr
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id in imported
    }
    return imported | attributes


def test_every_export_is_used_by_the_cli_a_demo_or_the_readme():
    exported = _package_imports(ast.parse((ROOT / "src" / "mtjbist" / "__init__.py").read_text()))
    used = _used_names((ROOT / "src" / "mtjbist" / "cli.py").read_text())
    for demo in (ROOT / "demos").glob("*.py"):
        used |= _used_names(demo.read_text())
    readme = (ROOT / "README.md").read_text()
    for example in re.findall(r"```python\n(.*?)```", readme, re.S):
        used |= _used_names(example)
    # a span that names a bare name or calls one; `module.name` is a module's name
    used |= set(re.findall(r"`([A-Za-z_]\w*)(?:\([^`]*\))?`", readme))
    assert exported, "no re-exports found"
    assert sorted(exported - used) == []


def test_every_import_of_a_module_is_used():
    # the project runs no linter, so an import that a simplification leaves
    # behind fails this instead; __init__.py only re-exports, and a statement
    # marked noqa: F401 keeps its names on purpose
    unused = []
    for path in sorted((ROOT / "src" / "mtjbist").glob("*.py")):
        if path.name == "__init__.py":
            continue
        source = path.read_text()
        lines = source.splitlines()
        tree = ast.parse(source)
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in ast.walk(tree):
            if not isinstance(node, (ast.Import, ast.ImportFrom)) or getattr(node, "module", "") == "__future__":
                continue
            if any("noqa: F401" in line for line in lines[node.lineno - 1:node.end_lineno]):
                continue
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                if name not in used:
                    unused.append(f"{path.name}:{node.lineno}: {name}")
    assert unused == []
