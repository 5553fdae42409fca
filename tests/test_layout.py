"""Layout guards: every function that the benchmark's span tracer wraps
exists, and every function and method of the package is called from code
other than its own definition. Code that only tests call belongs under
tests/, the paper's quantities in `reference.py`."""

import ast
import importlib
import importlib.util
import pathlib
import re

ROOT = pathlib.Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "cpacontract"


def _resolve(module, path):
    owner = importlib.import_module(f"cpacontract.{module}")
    for part in path.split("."):
        owner = getattr(owner, part)
    return owner


def test_span_targets_resolve():
    spec = importlib.util.spec_from_file_location(
        "perfbench_spans", ROOT / "perfbench" / "spans.py")
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    for module, path, _, _ in spans.TARGETS:
        assert callable(_resolve(module, path)), (module, path)
    tracer = spans.Tracer()
    try:
        tracer.install()
        assert len(tracer._patched) >= len(spans.TARGETS)
    finally:
        tracer.uninstall()
    for module, path, _, _ in spans.TARGETS:
        assert not hasattr(_resolve(module, path), "__wrapped__")


def _used_names():
    """Names read in src/, tools/ and perfbench/: variables, attributes,
    imports and the parts of dotted strings such as the tracer's targets.
    Docstrings and the package's re-exports in `__init__.py` do not
    count."""
    used = set()
    for path in [p for sub in ("src", "tools", "perfbench")
                 for p in (ROOT / sub).rglob("*.py")]:
        if path == PACKAGE / "__init__.py":
            continue
        tree = ast.parse(path.read_text())
        scopes = (ast.Module, ast.ClassDef, ast.FunctionDef)
        docs = {id(node.body[0].value) for node in ast.walk(tree)
                if isinstance(node, scopes)
                and ast.get_docstring(node, clean=False) is not None}
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.alias):
                used.add(node.name.rsplit(".", 1)[-1])
            elif (isinstance(node, ast.Constant) and id(node) not in docs
                  and isinstance(node.value, str)
                  and re.fullmatch(r"[A-Za-z_][\w.]*", node.value)):
                used.update(node.value.split("."))
    return used


def test_no_function_is_called_only_by_tests():
    used, uncalled = _used_names(), []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, ast.ClassDef):
                defs = [(node.name + ".", item) for item in node.body]
            else:
                defs = [("", node)]
            for prefix, item in defs:
                if not isinstance(item, ast.FunctionDef) or re.fullmatch(
                        r"__\w+__", item.name):
                    continue
                name = f"{path.stem}.{prefix}{item.name}"
                if item.name not in used and name != "cli.main":
                    uncalled.append(name)
    assert uncalled == []
