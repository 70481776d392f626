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


class Module:
    def __init__(self):
        self.training = True
        self._forward_hooks = {}  # HookHandle -> hook, in registration order

    # -- traversal ----------------------------------------------------------

    def children(self):
        def walk(name, value):
            if isinstance(value, Module):
                yield name, value
            elif isinstance(value, (list, tuple)):
                for i, item in enumerate(value):
                    yield from walk(f"{name}.{i}", item)

        for name, value in vars(self).items():
            if name.startswith("_"):  # private refs (aliases, caches) are not children
                continue
            yield from walk(name, value)

    def modules(self, prefix=""):
        yield prefix, self
        for name, child in self.children():
            yield from child.modules(f"{prefix}.{name}" if prefix else name)

    def named_parameters(self, prefix=""):
        for name, value in vars(self).items():
            if name.startswith("_"):  # private state (hooks, aliases)
                continue
            if isinstance(value, Tensor) and value.requires_grad:
                yield (f"{prefix}.{name}" if prefix else name), value
        for name, child in self.children():
            yield from child.named_parameters(f"{prefix}.{name}" if prefix else name)

    def parameters(self):
        for _, p in self.named_parameters():
            yield p

    # -- persisted non-parameter state (running statistics etc.) ------------

    def named_buffers(self, prefix=""):
        for name, value in vars(self).items():
            if name.startswith("_"):
                continue
            if isinstance(value, np.ndarray):
                yield (f"{prefix}.{name}" if prefix else name), value
        for name, child in self.children():
            yield from child.named_buffers(f"{prefix}.{name}" if prefix else name)

    # -- modes ---------------------------------------------------------------

    def train(self, mode=True):
        for _, m in self.modules():
            m.training = mode
        return self

    def eval(self):
        return self.train(False)

    def param_count(self):
        return sum(p.size for p in self.parameters())

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
