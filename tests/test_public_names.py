"""Names that code outside the package looks up must keep existing.

The benchmark's probes (``perfbench/layers.py``) rebind functions by name, and
the tier-1 suite does not collect ``perfbench/``; a deleted name would break
only the traced benchmark run.  The package re-exports only public names, so a
name deleted from a module's ``__all__`` has to leave ``fnode/__init__.py`` too.
"""

import ast
import importlib
import pkgutil
import re
from pathlib import Path

import pytest

import fnode

MODULES = sorted(
    f"fnode.{info.name}" for info in pkgutil.iter_modules(fnode.__path__) if info.name != "__main__"
)
PROBES = Path(__file__).resolve().parents[1] / "perfbench" / "layers.py"


def reexported_names() -> list[tuple[str, str]]:
    """(module, name) for every ``from .module import name`` in ``fnode/__init__.py``."""
    tree = ast.parse(Path(fnode.__file__).read_text(encoding="utf-8"))
    return [
        (f"fnode.{node.module}", alias.name)
        for node in tree.body
        if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module
        for alias in node.names
    ]


@pytest.mark.parametrize("module", MODULES)
def test_every_exported_name_resolves(module):
    mod = importlib.import_module(module)
    missing = [name for name in mod.__all__ if not hasattr(mod, name)]
    assert not missing, f"{module}.__all__ names missing attributes: {missing}"


def test_reexports_are_read():
    # a change in how the package imports must not leave the next test empty
    assert len(reexported_names()) >= 30


@pytest.mark.parametrize("module, name", reexported_names())
def test_reexported_name_is_public(module, name):
    assert name in importlib.import_module(module).__all__, f"fnode re-exports {name}, missing from {module}.__all__"


def probed_attributes() -> list[str]:
    """Dotted ``fnode`` paths of every attribute the probes rebind, read from their source."""
    source = PROBES.read_text(encoding="utf-8")
    aliases = {alias: module for module, alias in re.findall(r"import fnode\.(\w+) as (\w+)", source)}
    paths = []
    for target, name in re.findall(r'tr\.patch\(([\w.]+), "(\w+)"', source):
        head, *rest = target.split(".")
        paths.append(".".join([aliases[head], *rest, name]))
    return paths


def test_probes_are_read():
    # a change in how the probes are written must not leave the next test empty
    assert len(probed_attributes()) >= 15


@pytest.mark.parametrize("path", probed_attributes())
def test_probed_attribute_exists(path):
    module, *attrs = path.split(".")
    obj = importlib.import_module(f"fnode.{module}")
    for attr in attrs:
        assert hasattr(obj, attr), f"fnode.{path} is missing"
        obj = getattr(obj, attr)
    assert callable(obj)
