"""numpy is the package's only runtime dependency."""
import ast
import pathlib
import sys

PACKAGE = pathlib.Path(__file__).resolve().parents[1] / "src" / "cartmech"


def test_package_imports_only_itself_numpy_and_the_standard_library():
    allowed = {"cartmech", "numpy", *sys.stdlib_module_names}
    foreign = []
    for path in sorted(PACKAGE.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                names = [node.module]
            else:
                continue
            foreign += [(path.name, name) for name in names if name.split(".")[0] not in allowed]
    assert list(PACKAGE.glob("*.py")) and not foreign
