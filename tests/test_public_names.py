"""Names that code outside the package looks up must keep existing.

The benchmark's probes (``perfbench/layers.py``) rebind functions by name, and
the tier-1 suite does not collect ``perfbench/``; a deleted name would break
only the traced benchmark run.
"""

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


@pytest.mark.parametrize("module", MODULES)
def test_every_exported_name_resolves(module):
    mod = importlib.import_module(module)
    missing = [name for name in mod.__all__ if not hasattr(mod, name)]
    assert not missing, f"{module}.__all__ names missing attributes: {missing}"


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
