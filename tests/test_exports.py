"""No public helper that nothing calls: every exported name has a user.

A name in ``autodiff.__all__`` or ``spikevid.__all__`` must be used in
``src/``, ``perfbench/`` or ``tools/`` outside the module that defines it
(and outside the package ``__init__``, which only re-exports), or be listed
in ``TEST_ONLY`` with the oracle or criterion test that needs it. A use is
an import of the name from a spikevid module, or an attribute read through a
name that an import from spikevid bound (``ad.<name>``, ``autodiff.<name>``,
``prof.<name>``). The bare word does not count: ``np.zeros`` is not a use of
``ad.zeros``. A test's own use of a name does not count, so a helper that
only its unit test calls fails.
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
    for folder in ("src", "perfbench", "tools")
    for path in sorted((ROOT / folder).rglob("*.py"))
}

# exports that only tests use: each name -> the oracle or criterion that needs it
TEST_ONLY = {
    "TapeConsumedError": "tests/test_autodiff.py::TestBackwardMechanics::test_tape_consumed_guard",
    "div": "tests/test_layers.py::_composite_bn",  # the batch-norm chain oracle
    "sqrt": "tests/test_layers.py::_composite_bn",
    "stack": "tests/test_neurons.py::_stepwise_reference",  # the lif_sequence oracle
    "index": "tests/test_neurons.py::_stepwise_reference",
    "surrogate_slope": "tests/test_acceptance.py::test_criterion_02_gradient_integrity",
}


def _defining_file(obj):
    return pathlib.Path(sys.modules[obj.__module__].__file__).resolve()


@pytest.mark.parametrize("package", [autodiff, spikevid], ids=lambda m: m.__name__)
def test_every_exported_name_is_used_outside_its_module(package):
    unused = []
    for name in package.__all__:
        home = _defining_file(getattr(package, name))
        used = any(name in uses for path, uses in USES.items() if path not in (home, INIT))
        if not used and name not in TEST_ONLY:
            unused.append(name)
    assert unused == [], f"exported but used nowhere outside their module: {unused}"


def _attributes_read_by(test_id):
    """The attribute names read in the function or method a ``path::[Class::]name`` id names."""
    path, *names = test_id.split("::")
    node = ast.parse((ROOT / path).read_text())
    for name in names:
        node = next(n for n in node.body if getattr(n, "name", None) == name)
    return {n.attr for n in ast.walk(node) if isinstance(n, ast.Attribute)}


@pytest.mark.parametrize("name", sorted(TEST_ONLY))
def test_test_only_entry_is_needed_and_used(name):
    """An entry names an export that its test reads and nothing else uses."""
    package = autodiff if name in autodiff.__all__ else spikevid
    assert name in package.__all__
    home = _defining_file(getattr(package, name))
    assert not any(name in uses for path, uses in USES.items() if path not in (home, INIT))
    assert name in _attributes_read_by(TEST_ONLY[name])
