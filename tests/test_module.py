"""Module forward hooks and traversal."""

import gc

import numpy as np

from spikevid import autodiff as ad
from spikevid.layers import Linear
from spikevid.model import ModelConfig, VideoSpikeNet

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


def test_mode_switch_leaves_no_cyclic_garbage():
    # every module visited by train()/eval() must be freed by reference
    # counting alone, without waiting for the cyclic collector
    model = VideoSpikeNet(ModelConfig(), seed=0)
    gc.collect()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        model.eval()
        gc.collect()
        assert gc.garbage == []
    finally:
        gc.set_debug(0)
        gc.garbage.clear()


def test_module_order_and_names_are_the_attribute_order():
    root = Linear(2, 2, make_rng(2))
    root.blocks = [Linear(2, 2, make_rng(3)), (Linear(2, 2, make_rng(4)),)]
    root.head = Linear(2, 2, make_rng(5))
    root._alias = root.head  # private: not a child
    assert [name for name, _ in root.modules()] == ["", "blocks.0", "blocks.1.0", "head"]
    assert [name for name, _ in root.named_parameters()] == [
        "weight", "blocks.0.weight", "blocks.1.0.weight", "head.weight"]
