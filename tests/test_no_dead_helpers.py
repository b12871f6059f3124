"""Every function and class the package defines is used by the package,
its scripts or the benchmark, apart from a few kept as test references, and
every name a package module imports is used by that module."""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "invgraph"

# definitions only the tests use, each an independent reference for a check
TEST_REFERENCES = {
    "power_type": "the power types jordan_excludes is checked against",
    "primes": "the primes the projective-cardinality checks loop over",
    "is_primitive": "checks that every catalog group is primitive",
    "verify_isolated_family": "certifies the isolated family beyond the exact degrees",
}

_SCOPES = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def _used_identifiers(tree):
    """Names, attributes, imports and the words of non-docstring strings.

    Docstrings and comments are prose, so a helper they mention is not used.
    Other strings count, because the benchmark tracer names what it wraps.
    """
    docstrings = {
        id(node.body[0].value)
        for node in ast.walk(tree)
        if isinstance(node, _SCOPES) and node.body and isinstance(node.body[0], ast.Expr)
    }
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield node.name.rsplit(".", 1)[-1]
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            if id(node) not in docstrings:
                yield from re.findall(r"\w+", node.value)


def test_every_definition_has_a_caller():
    # the package's re-exports in __init__.py are not uses
    sources = [
        path
        for folder in (PACKAGE, ROOT / "scripts", ROOT / "perfbench")
        for path in sorted(folder.glob("*.py"))
        if path != PACKAGE / "__init__.py"
    ]
    used = set()
    for path in sources:
        used.update(_used_identifiers(ast.parse(path.read_text())))
    unused = {}
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                dunder = node.name.startswith("__") and node.name.endswith("__")
                if not dunder and node.name not in used:
                    unused[node.name] = path.name
    assert {k: v for k, v in unused.items() if k not in TEST_REFERENCES} == {}
    assert unused.keys() == TEST_REFERENCES.keys(), "a test reference gained a caller"


def _imported_names(tree):
    """The names the module's import statements bind."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name


def test_every_import_is_used():
    # the imports of __init__.py are re-exports
    unused = {}
    for path in sorted(PACKAGE.glob("*.py")):
        if path == PACKAGE / "__init__.py":
            continue
        tree = ast.parse(path.read_text())
        loaded = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        names = sorted(set(_imported_names(tree)) - loaded)
        if names:
            unused[path.name] = names
    assert unused == {}
