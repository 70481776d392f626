"""Module forward hooks."""

import numpy as np

from spikevid import autodiff as ad
from spikevid.layers import Linear

from conftest import make_rng


def test_hooks_fire_in_registration_order_with_module_args_output():
    lin = Linear(3, 2, make_rng(0))
    calls = []
    lin.register_forward_hook(lambda m, args, out: calls.append(("first", m, args, out)))
    lin.register_forward_hook(lambda m, args, out: calls.append(("second", m, args, out)))
    x = ad.tensor(np.ones((4, 3)))
    out = lin(x)
    assert [c[0] for c in calls] == ["first", "second"]
    for _, m, args, seen in calls:
        assert m is lin
        assert len(args) == 1 and args[0] is x
        assert seen is out


def test_remove_detaches_and_is_idempotent():
    lin = Linear(3, 2, make_rng(1))
    seen = []
    kept = lin.register_forward_hook(lambda m, args, out: seen.append("kept"))
    handle = lin.register_forward_hook(lambda m, args, out: seen.append("removed"))
    x = ad.tensor(np.ones((1, 3)))
    lin(x)
    handle.remove()
    handle.remove()  # a second remove is harmless and leaves the other hook
    lin(x)
    assert seen == ["kept", "removed", "kept"]
    kept.remove()
    lin(x)
    assert seen == ["kept", "removed", "kept"]
    assert not lin._forward_hooks
