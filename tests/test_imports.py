"""The runtime keeps to the standard library: every absolute import in
``src/fcalc`` names ``fcalc`` itself or a standard-library module."""
import ast
import sys
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "fcalc"


def absolute_imports(path: Path):
    """The top-level module of each absolute import in the file."""
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module.split(".")[0]


def test_only_standard_library_imports():
    modules = sorted(PACKAGE.rglob("*.py"))
    assert modules
    foreign = {(str(path.relative_to(PACKAGE)), name)
               for path in modules for name in absolute_imports(path)
               if name != "fcalc" and name not in sys.stdlib_module_names}
    assert not foreign
