"""Rules the package's source keeps, read from its syntax tree: every raise
names a toolkit error class, only the standard library and numpy are
imported, files are opened and argument types refused only through
errors.py's helpers, and every config field is read somewhere; and from
the imported modules: no module holds a writable array."""

import ast
import dataclasses
import importlib
import pathlib
import sys

import numpy as np
import pytest

from contoursel.errors import ContourselError
from contoursel.neural import ModelSpec, TrainConfig

ROOT = pathlib.Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "contoursel"
MODULES = sorted(PACKAGE.glob("*.py"))
HELPED = [p for p in MODULES if p.stem != "errors"]  # errors.py holds the helpers


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


@pytest.mark.parametrize("path", HELPED, ids=[p.stem for p in HELPED])
def test_files_are_opened_only_through_errors_opened(path):
    """errors.opened turns every OSError and undecodable byte into a toolkit
    error naming the path; a bare open would leak them."""
    bad = [f"{path.name}:{node.lineno}: {ast.unparse(node)}" for node in ast.walk(tree(path))
           if isinstance(node, ast.Call) and "open" in (getattr(node.func, name, None) for name in ("id", "attr"))]
    assert not bad, "\n".join(bad)


def _is_type_refusal(node):
    """True for `if not isinstance(...): raise ContractError/ParseError(...)`
    with no else branch: the check errors.require_type makes."""
    if not (isinstance(node, ast.If) and not node.orelse and len(node.body) == 1
            and isinstance(node.body[0], ast.Raise)):
        return False
    test, exc = node.test, node.body[0].exc
    return (
        isinstance(test, ast.UnaryOp) and isinstance(test.op, ast.Not) and isinstance(test.operand, ast.Call)
        and getattr(test.operand.func, "id", None) == "isinstance"
        and isinstance(exc, ast.Call) and getattr(exc.func, "id", None) in ("ContractError", "ParseError")
    )


@pytest.mark.parametrize("path", HELPED, ids=[p.stem for p in HELPED])
def test_argument_types_are_refused_only_through_require_type(path):
    bad = [f"{path.name}:{node.lineno}: {ast.unparse(node.test)}"
           for node in ast.walk(tree(path)) if _is_type_refusal(node)]
    assert not bad, "\n".join(bad)


def test_every_config_field_is_read():
    """A field that no code outside its own class reads is a setting with no
    effect: each one must appear as an attribute read in the package or in
    the benchmark's modules."""
    read = {cls: set() for cls in (ModelSpec, TrainConfig)}
    for path in MODULES + sorted((ROOT / "perfbench").glob("*.py")):
        module = tree(path)
        for cls, names in read.items():
            own = {id(node) for c in ast.walk(module) if isinstance(c, ast.ClassDef) and c.name == cls.__name__
                   for node in ast.walk(c)}
            names |= {node.attr for node in ast.walk(module) if isinstance(node, ast.Attribute) and id(node) not in own}
    unread = [f"{cls.__name__}.{f.name}" for cls, names in read.items() for f in dataclasses.fields(cls)
              if f.name not in names]
    assert not unread, f"config fields nothing reads: {unread}"
