"""Every name the package exports has a caller in the pipeline or in a
script, every parameter default of an exported function has a caller
that overrides it, every field of an exported dataclass has a reader, and
no call's result is assigned to ``_`` there, so code, options and results
that only tests use live on the test side."""
import ast
import dataclasses
import inspect
from pathlib import Path

import rabibeat

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "rabibeat"


def source_paths():
    """The modules of the package and the scripts."""
    return sorted(PACKAGE.glob("*.py")) + sorted((ROOT / "scripts").glob("*.py"))


def caller_trees():
    """The parsed modules of the package, apart from ``__init__``, and of
    the scripts."""
    return [ast.parse(path.read_text(encoding="utf-8"))
            for path in source_paths() if path.name != "__init__.py"]


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
    used = set()
    for tree in caller_trees():
        used |= referenced_names(tree)
    assert sorted(exported_names() - used) == []


def exported_callables():
    """``(qualified name, function)`` for each exported function and each
    method of an exported class, apart from dunder methods, which include
    the ``__init__`` a dataclass generates from its fields."""
    for name in sorted(exported_names()):
        obj = getattr(rabibeat, name)
        if inspect.isfunction(obj):
            yield name, obj
        elif inspect.isclass(obj):
            for attr, raw in vars(obj).items():
                func = getattr(raw, "__func__", raw)
                if inspect.isfunction(func) and not attr.startswith("__"):
                    yield f"{name}.{attr}", func


def test_every_parameter_default_is_overridden_by_a_caller():
    # a default no caller overrides is a parameter with one value in use;
    # calls match by name, a method's by attribute name
    calls = {}
    for tree in caller_trees():
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                func = node.func
                name = (func.id if isinstance(func, ast.Name)
                        else func.attr if isinstance(func, ast.Attribute) else None)
                calls.setdefault(name, []).append(node)
    unused = []
    for qualname, func in exported_callables():
        params = list(inspect.signature(func).parameters.values())
        if "." in qualname and params and params[0].name in ("self", "cls"):
            params = params[1:]
        for i, param in enumerate(params):
            if param.default is inspect.Parameter.empty:
                continue
            if not any(
                len(call.args) > i
                or any(isinstance(arg, ast.Starred) for arg in call.args)
                or any(kw.arg in (param.name, None) for kw in call.keywords)
                for call in calls.get(func.__name__, ())
            ):
                unused.append(f"{qualname}({param.name})")
    assert unused == []


def test_every_field_of_an_exported_dataclass_is_read():
    # a field that nothing reads is an output with no consumer
    read = {
        node.attr
        for tree in caller_trees()
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
    }
    unread = [
        f"{name}.{f.name}"
        for name in sorted(exported_names())
        if dataclasses.is_dataclass(getattr(rabibeat, name))
        for f in dataclasses.fields(getattr(rabibeat, name))
        if f.name not in read
    ]
    assert unread == []


def test_no_call_result_is_discarded():
    # a call result assigned to _ is an output its one caller throws away;
    # loop targets and subscripts of a table are not calls
    discarded = [
        f"{path.relative_to(ROOT)}:{node.lineno}"
        for path in source_paths()
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Assign) and isinstance(node.value, ast.Call)
        and any(isinstance(name, ast.Name) and name.id == "_"
                for target in node.targets for name in ast.walk(target))
    ]
    assert discarded == []
