"""Source hygiene: every name a kinomo module or a test module imports is
read somewhere in that module (re-imports kept on purpose carry
``# noqa: F401``). Every private module-level function, class and
constant of a kinomo module is read in that module. Every public
module-level function and class is read somewhere in the package, or is
on ALLOWED_UNREAD with its reason. Every dataclass field of a kinomo
module is read as an attribute somewhere in the package, or is on
ALLOWED_UNREAD_FIELDS with its reason."""

import ast
from pathlib import Path

import pytest

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src" / "kinomo"


def names_read(tree):
    return {
        node.id for node in ast.walk(tree)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }


def unused_imports(path):
    source = path.read_text()
    lines = source.splitlines()
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if "# noqa: F401" in lines[node.lineno - 1]:
                continue
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    read = names_read(tree)
    return sorted(f"{name} (line {line})" for name, line in imported.items() if name not in read)


@pytest.mark.parametrize(
    "path", sorted(SRC.glob("*.py")) + sorted(TESTS.glob("*.py")), ids=lambda p: p.name)
def test_no_unused_import(path):
    assert unused_imports(path) == []


def unread_privates(path):
    """Private (single-underscore) module-level names never read in the
    module that defines them."""
    tree = ast.parse(path.read_text())
    defined = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            defined[node.name] = node.lineno
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                for name in ast.walk(target):
                    if isinstance(name, ast.Name):
                        defined[name.id] = node.lineno
    read = names_read(tree)
    return sorted(
        f"{name} (line {line})" for name, line in defined.items()
        if name.startswith("_") and not name.startswith("__") and name not in read
    )


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_private_names_read(path):
    assert unread_privates(path) == []


# Public functions and classes with no reader in src/kinomo, kept for a reason.
ALLOWED_UNREAD = {
    "kinematics.centroidal_momentum_matrix": (
        "H(q) from unit-velocity probes, oracle of momentum_jacobian's "
        "velocity block (criterion 10)"),
    "qpm.hessian_parts": "dense oracle of the stored Q and P curvature, for tests",
    "qpm.min_quad_eigenvalue": "oracle of a Q+/- row's convexity, for tests",
    "scenario.make_standing_scenario": "shipped preset for users and tests",
    "scenario.make_stepping_scenario": "shipped preset for users and tests",
    "scenario.save_scenario": "writes scenario files for users and tests",
}


def package_reads():
    """Every name the package reads: loads, attribute names and the names
    of ``from ... import`` statements."""
    read = set()
    for path in SRC.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                read.update(alias.name for alias in node.names)
    return read


def public_definitions():
    for path in sorted(SRC.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
                    and not node.name.startswith("_")):
                yield f"{path.stem}.{node.name}", node.name


def test_public_names_read_in_package():
    read = package_reads()
    unread = {qual for qual, name in public_definitions() if name not in read}
    assert unread - set(ALLOWED_UNREAD) == set()
    # an entry that gained a reader, or lost its definition, leaves the list
    assert set(ALLOWED_UNREAD) - unread == set()


# Dataclass fields with no attribute read in src/kinomo, kept for a reason.
ALLOWED_UNREAD_FIELDS = {}


def attributes_read():
    """Every attribute name the package loads (x.name read, not assigned)."""
    return {
        node.attr for path in SRC.glob("*.py") for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
    }


def dataclass_fields():
    for path in sorted(SRC.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, ast.ClassDef) and any(
                    ast.unparse(d).startswith(("dataclass", "dataclasses.dataclass"))
                    for d in node.decorator_list):
                for stmt in node.body:
                    if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
                        yield f"{path.stem}.{node.name}.{stmt.target.id}", stmt.target.id


def test_dataclass_fields_read_in_package():
    fields = list(dataclass_fields())
    assert fields  # the scan finds the package's dataclasses
    read = attributes_read()
    unread = {qual for qual, name in fields if name not in read}
    assert unread - set(ALLOWED_UNREAD_FIELDS) == set()
    assert set(ALLOWED_UNREAD_FIELDS) - unread == set()
