"""Every function and class the package defines is used by the package,
its scripts or the benchmark, apart from a few kept as test references, and
every name a package module or a script imports is used by that module."""

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
    "split_label": "the split label the class scans and fingerprint signs are checked against",
}

_SCOPES = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def _used_identifiers(tree):
    """The names a module uses, and the attributes it uses.

    Names are loaded names and imports.  Attributes are attribute accesses
    and the words of non-docstring strings: docstrings and comments are
    prose, so a helper they mention is not used, but other strings count,
    because the benchmark tracer names what it wraps.
    """
    docstrings = {
        id(node.body[0].value)
        for node in ast.walk(tree)
        if isinstance(node, _SCOPES) and node.body and isinstance(node.body[0], ast.Expr)
    }
    names, attributes = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            attributes.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name.rsplit(".", 1)[-1])
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            if id(node) not in docstrings:
                attributes.update(re.findall(r"\w+", node.value))
    return names, attributes


def test_every_definition_has_a_caller():
    # the package's re-exports in __init__.py are not uses
    sources = [
        path
        for folder in (PACKAGE, ROOT / "scripts", ROOT / "perfbench")
        for path in sorted(folder.glob("*.py"))
        if path != PACKAGE / "__init__.py"
    ]
    names, attributes = set(), set()
    for path in sources:
        module_names, module_attributes = _used_identifiers(ast.parse(path.read_text()))
        names |= module_names
        attributes |= module_attributes
    unused = {}
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text())
        # a method is reached through an attribute; a local variable or a
        # function that shares its name does not call it
        methods = {
            id(node)
            for cls in ast.walk(tree)
            if isinstance(cls, ast.ClassDef)
            for node in cls.body
        }
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                dunder = node.name.startswith("__") and node.name.endswith("__")
                used = attributes if id(node) in methods else names | attributes
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
    for path in sorted(PACKAGE.glob("*.py")) + sorted((ROOT / "scripts").glob("*.py")):
        if path == PACKAGE / "__init__.py":
            continue
        tree = ast.parse(path.read_text())
        loaded = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        names = sorted(set(_imported_names(tree)) - loaded)
        if names:
            unused[path.name] = names
    assert unused == {}
