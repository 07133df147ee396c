"""numpy stays camsig's only runtime dependency.

scipy and hypothesis are installed for the tests, so an import of either
from the package would still pass the rest of the suite; this test reads
the imports of every module instead.
"""

import ast
import sys
from pathlib import Path

import camsig

ALLOWED = set(sys.stdlib_module_names) | {"numpy", "camsig"}


def test_modules_import_only_the_standard_library_numpy_and_camsig():
    package = Path(camsig.__file__).parent
    modules = sorted(package.glob("*.py"))
    assert len(modules) > 1
    for module in modules:
        for node in ast.walk(ast.parse(module.read_text(), filename=str(module))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            for name in names:
                assert name.split(".")[0] in ALLOWED, f"{module.name} imports {name}"
