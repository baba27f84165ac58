"""Module boundaries inside the package."""

import ast
from pathlib import Path

import blochlab

PACKAGE = Path(blochlab.__file__).resolve().parent


def test_no_module_imports_a_private_name_from_a_sibling():
    # a helper another module needs belongs to its owner's public API
    offences = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if not isinstance(node, ast.ImportFrom) or node.module is None:
                continue
            if node.level == 0 and not node.module.startswith("blochlab."):
                continue
            for alias in node.names:
                if alias.name.startswith("_"):
                    offences.append(f"{path.name}:{node.lineno} imports {alias.name} from {node.module}")
    assert offences == []
