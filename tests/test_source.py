"""Rules the package's source keeps, read from its syntax tree: every raise
names a toolkit error class, and only the standard library and numpy are
imported; and from the imported modules: no module holds a writable array."""

import ast
import importlib
import pathlib
import sys

import numpy as np
import pytest

from contoursel.errors import ContourselError

PACKAGE = pathlib.Path(__file__).resolve().parents[1] / "src" / "contoursel"
MODULES = sorted(PACKAGE.glob("*.py"))


def tree(path):
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


@pytest.mark.parametrize("path", MODULES, ids=[p.stem for p in MODULES])
def test_every_raise_names_a_toolkit_error(path):
    module = importlib.import_module(f"contoursel.{path.stem}")
    bad = []
    for node in ast.walk(tree(path)):
        if isinstance(node, ast.Raise):
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            cls = getattr(module, exc.id, None) if isinstance(exc, ast.Name) else None
            if not (isinstance(cls, type) and issubclass(cls, ContourselError)):
                bad.append(f"{path.name}:{node.lineno}: {ast.unparse(node)}")
    assert not bad, "\n".join(bad)


@pytest.mark.parametrize("path", MODULES, ids=[p.stem for p in MODULES])
def test_only_the_standard_library_and_numpy_are_imported(path):
    names = []
    for node in ast.walk(tree(path)):
        if isinstance(node, ast.Import):
            names += [(node.lineno, alias.name) for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.append((node.lineno, node.module))
    bad = [f"{path.name}:{line}: {name}" for line, name in names
           if name.split(".")[0] not in sys.stdlib_module_names | {"numpy"}]
    assert not bad, "\n".join(bad)


@pytest.mark.parametrize("path", MODULES, ids=[p.stem for p in MODULES])
def test_no_module_level_array_is_writable(path):
    """A module-level array is shared by every caller in the process, so
    writing to it would leak state from one call into the next; scratch
    buffers belong to the call that uses them."""
    module = importlib.import_module(f"contoursel.{path.stem}")
    writable = [name for name, value in vars(module).items()
                if isinstance(value, np.ndarray) and value.flags.writeable]
    assert not writable, f"{path.name}: writable module-level arrays {writable}"
