"""numpy is the package's only runtime dependency, and only the front end
reaches the module that reads and writes files."""
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


def _package_imports(path) -> set[tuple[str, str]]:
    """(importer, imported) pairs of package modules, function-level imports included."""
    pairs = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            module = ".".join(filter(None, ["cartmech" if node.level else "", node.module]))
            names = [f"{module}.{alias.name}" for alias in node.names]
        else:
            continue
        pairs.update((path.stem, name.split(".")[1]) for name in names
                     if name.startswith("cartmech."))
    return pairs


def test_only_the_front_end_imports_dataset_and_dataset_imports_no_learning():
    # dataset (formats) and cli (paths) are the two modules that write files
    pairs = set().union(*map(_package_imports, PACKAGE.glob("*.py")))
    assert ("cli", "dataset") in pairs and ("dataset", "systems") in pairs
    assert sorted((a, b) for a, b in pairs
                  if b in ("dataset", "cli") and a not in ("cli", "__init__")) == []
    assert sorted((a, b) for a, b in pairs
                  if a == "dataset" and b in ("metrics", "models", "training")) == []
