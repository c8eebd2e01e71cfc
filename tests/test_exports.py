"""Every name the package exports has a caller in the pipeline or in a
script, so code that only tests use lives on the test side."""
import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "rabibeat"


def exported_names():
    tree = ast.parse((PACKAGE / "__init__.py").read_text(encoding="utf-8"))
    return {
        alias.asname or alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom) and node.level == 1
        for alias in node.names
    }


def referenced_names(tree, enclosing=()):
    """Names used as a variable or an attribute anywhere under ``tree``,
    apart from uses inside the def or class of the same name."""
    found = set()
    for node in ast.iter_child_nodes(tree):
        inner = enclosing
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            inner = enclosing + (node.name,)
        name = (node.id if isinstance(node, ast.Name)
                else node.attr if isinstance(node, ast.Attribute) else None)
        if name is not None and name not in enclosing:
            found.add(name)
        found |= referenced_names(node, inner)
    return found


def test_every_export_has_a_caller():
    sources = [p for p in PACKAGE.glob("*.py") if p.name != "__init__.py"]
    sources += sorted((ROOT / "scripts").glob("*.py"))
    used = set()
    for path in sources:
        used |= referenced_names(ast.parse(path.read_text(encoding="utf-8")))
    assert sorted(exported_names() - used) == []
