#!/usr/bin/env python3
"""Report imported names that a module never uses.

usage: python scripts/check_imports.py DIR_OR_FILE...

Scans every .py file under the arguments and exits 1 if any of them
imports a name it never mentions.  `__future__` imports and the
`__init__.py` files, whose imports are re-exports, are skipped.
"""

import ast
import sys
from pathlib import Path


def unused_imports(path: Path) -> list[str]:
    tree = ast.parse(path.read_text(), filename=str(path))
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                if name != "*":
                    imported.setdefault(name, node.lineno)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [
        f"{path}:{line}: {name} imported but never used"
        for name, line in imported.items()
        if name not in used
    ]


def main(args: list[str]) -> int:
    files = []
    for arg in args:
        root = Path(arg)
        files.extend(sorted(root.rglob("*.py")) if root.is_dir() else [root])
    problems = [
        line for path in files if path.name != "__init__.py"
        for line in unused_imports(path)
    ]
    print("\n".join(problems) or f"no unused imports in {len(files)} files")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
