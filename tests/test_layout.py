"""Layout guards: every function that the benchmark's span tracer wraps
exists, and every function and method of the package is called, by name,
attribute or import, from code other than its own definition. Code that
only tests call belongs under tests/, the paper's quantities in
`reference.py`. scipy is imported only inside the functions of `assembly`
and `solver` that build and solve an SDP."""

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


def _spans():
    """perfbench/spans.py, imported by path."""
    spec = importlib.util.spec_from_file_location(
        "perfbench_spans", ROOT / "perfbench" / "spans.py")
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans


def test_span_targets_resolve():
    spans = _spans()
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
    """Names read in src/, tools/ and perfbench/: variables, attributes and
    imports, and the parts of the tracer's dotted targets, which it calls
    through `getattr`. String constants (a dict key, say) do not count, and
    neither do the package's re-exports in `__init__.py`."""
    used = {part for _, path, _, _ in _spans().TARGETS
            for part in path.split(".")}
    for path in [p for sub in ("src", "tools", "perfbench")
                 for p in (ROOT / sub).rglob("*.py")]:
        if path == PACKAGE / "__init__.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.alias):
                used.add(node.name.rsplit(".", 1)[-1])
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


def test_scipy_is_imported_only_where_an_sdp_is_built():
    # a module-level scipy import costs every process that imports the
    # package, a certificate check too, ~0.3 s on a 2-vCPU host
    wrong = []
    for path in sorted((ROOT / "src").rglob("*.py")):
        tree = ast.parse(path.read_text())
        in_function = {id(inner) for node in ast.walk(tree)
                       if isinstance(node, (ast.FunctionDef,
                                            ast.AsyncFunctionDef))
                       for inner in ast.walk(node)}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                names = [node.module]
            else:
                continue
            if any(name.partition(".")[0] == "scipy" for name in names) and (
                    path.parent != PACKAGE
                    or path.stem not in ("assembly", "solver")
                    or id(node) not in in_function):
                wrong.append(f"{path.relative_to(ROOT)}:{node.lineno}")
    assert wrong == []


# the certificate consumer's trusted base: the modules that checking a
# certificate runs, none of which may reach the SDP builder or solver
CONSUMER = ("verify", "cpa", "triangulation", "systems", "expressions",
            "smallmat", "orbits", "errors")
SDP_MODULES = ("assembly", "solver")


def _imported_modules(node):
    """The package modules, by stem, that an import statement names."""
    if isinstance(node, ast.Import):
        names = [alias.name for alias in node.names]
    elif isinstance(node, ast.ImportFrom):
        base = ".".join(part for part in (
            "cpacontract" if node.level else "", node.module) if part)
        names = [base] + [f"{base}.{alias.name}" for alias in node.names]
    else:
        return set()
    return {name.split(".")[1] for name in names
            if name.startswith("cpacontract.")}


def test_certificate_consumer_imports_no_sdp_module():
    wrong = []
    for stem in CONSUMER:
        path = PACKAGE / f"{stem}.py"
        for node in ast.walk(ast.parse(path.read_text())):
            if _imported_modules(node) & set(SDP_MODULES):
                wrong.append(f"{path.relative_to(ROOT)}:{node.lineno}")
    assert wrong == []


def test_consumer_rule_sees_each_import_form():
    # the rule's negative control: every way of naming assembly is caught
    for text in ("from .assembly import assemble", "from . import solver",
                 "import cpacontract.assembly",
                 "from cpacontract.solver import solve",
                 "from cpacontract import assembly"):
        node = ast.parse(text).body[0]
        assert _imported_modules(node) & set(SDP_MODULES), text
    for text in ("from .cpa import CPAMetric", "import numpy as np",
                 "from . import smallmat"):
        node = ast.parse(text).body[0]
        assert not _imported_modules(node) & set(SDP_MODULES), text
