"""No public helper that nothing calls: every exported name has a user.

A name in ``autodiff.__all__`` or ``spikevid.__all__`` must be used in
``src/``, ``tests/`` or ``perfbench/`` outside the module that defines it
(and outside the package ``__init__``, which only re-exports). A use is an
import of the name from a spikevid module, or an attribute read through a
name that an import from spikevid bound (``ad.<name>``, ``autodiff.<name>``,
``prof.<name>``). The bare word does not count: ``np.zeros`` is not a use of
``ad.zeros``.
"""

import ast
import pathlib
import sys

import pytest

import spikevid
from spikevid import autodiff

ROOT = pathlib.Path(__file__).resolve().parents[1]
INIT = ROOT / "src" / "spikevid" / "__init__.py"


def _from_spikevid(node):
    return node.level > 0 or (node.module or "").split(".")[0] == "spikevid"


def _uses(path):
    """The names a file imports from spikevid or reads through a spikevid alias."""
    tree = ast.parse(path.read_text(), filename=str(path))
    imported, aliases = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and _from_spikevid(node):
            imported.update(a.name for a in node.names)
            aliases.update(a.asname or a.name for a in node.names)
        elif isinstance(node, ast.Import):
            aliases.update(a.asname or a.name.split(".")[0] for a in node.names
                           if a.name.split(".")[0] == "spikevid")
    attributes = {
        node.attr for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
        and node.value.id in aliases
    }
    return imported | attributes


USES = {
    path: _uses(path)
    for folder in ("src", "tests", "perfbench")
    for path in sorted((ROOT / folder).rglob("*.py"))
}


def _defining_file(obj):
    return pathlib.Path(sys.modules[obj.__module__].__file__).resolve()


@pytest.mark.parametrize("package", [autodiff, spikevid], ids=lambda m: m.__name__)
def test_every_exported_name_is_used_outside_its_module(package):
    unused = []
    for name in package.__all__:
        home = _defining_file(getattr(package, name))
        if not any(name in uses for path, uses in USES.items() if path not in (home, INIT)):
            unused.append(name)
    assert unused == [], f"exported but used nowhere outside their module: {unused}"
