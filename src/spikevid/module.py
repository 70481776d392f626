"""Minimal layer container: parameter registry, train/eval mode, traversal, hooks."""

from __future__ import annotations

import numpy as np

from .autodiff import Tensor


class HookHandle:
    """Returned by ``register_forward_hook``; ``remove()`` detaches the hook."""

    def __init__(self, hooks):
        self._hooks = hooks

    def remove(self):
        self._hooks.pop(self, None)


def _walk(name, value):
    """The modules in an attribute value: itself, or those in a list/tuple."""
    if isinstance(value, Module):
        yield name, value
    elif isinstance(value, (list, tuple)):
        for i, item in enumerate(value):
            yield from _walk(f"{name}.{i}", item)


class Module:
    def __init__(self):
        self.training = True
        self._forward_hooks = {}  # HookHandle -> hook, in registration order

    # -- traversal ----------------------------------------------------------

    def children(self):
        for name, value in vars(self).items():
            if not name.startswith("_"):  # private refs (aliases, caches) are not children
                yield from _walk(name, value)

    def modules(self, prefix=""):
        yield prefix, self
        for name, child in self.children():
            yield from child.modules(f"{prefix}.{name}" if prefix else name)

    def _named_state(self, keep):
        for prefix, m in self.modules():
            for name, value in vars(m).items():
                if not name.startswith("_") and keep(value):  # private state (hooks, aliases)
                    yield (f"{prefix}.{name}" if prefix else name), value

    def named_parameters(self):
        return self._named_state(lambda v: isinstance(v, Tensor) and v.requires_grad)

    def parameters(self):
        for _, p in self.named_parameters():
            yield p

    # -- persisted non-parameter state (running statistics etc.) ------------

    def named_buffers(self):
        return self._named_state(lambda v: isinstance(v, np.ndarray))

    # -- modes ---------------------------------------------------------------

    def train(self, mode=True):
        for _, m in self.modules():
            m.training = mode
        return self

    def eval(self):
        return self.train(False)

    def register_forward_hook(self, hook):
        """Call ``hook(module, args, output)`` after every ``forward``."""
        handle = HookHandle(self._forward_hooks)
        self._forward_hooks[handle] = hook
        return handle

    def __call__(self, *args, **kwargs):
        out = self.forward(*args, **kwargs)
        for hook in self._forward_hooks.values():
            hook(self, args, out)
        return out
