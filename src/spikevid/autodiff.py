"""Dense tensors with reverse-mode automatic differentiation.

Storage is row-major float32 by default (float64 available through the
``precision`` context manager, used e.g. by gradient checks). Reductions
accumulate in float64 regardless of storage dtype to limit drift over long
unrolled sequences. Convolution uses cross-correlation semantics with zero
padding. Every primitive takes Tensors; ``tensor`` wraps an array.

The tape is kept apart from the tensors that callers hold: a ``Tensor`` is
an array and, for an op output made with a tape, its ``_Node``, which holds
its parents' nodes and its backward closure but no array. Each closure
captures only the arrays that its backward reads, so an op output that no
backward reads is freed during the forward, as soon as its caller drops
its ``Tensor`` (the design of PyTorch's autograd, where the graph keeps
only the tensors each backward saved).
"""

from __future__ import annotations

import contextlib
import contextvars
import functools
import math
import os
from typing import Callable, Iterable, Sequence

import numpy as np

__all__ = [
    "Tensor",
    "ShapeError",
    "TapeConsumedError",
    "precision",
    "no_grad",
    "tensor",
    "add",
    "sub",
    "mul",
    "div",
    "scale",
    "exp",
    "log",
    "sqrt",
    "sigmoid",
    "matmul",
    "reshape",
    "permute",
    "concat",
    "stack",
    "index",
    "reduce_sum",
    "reduce_mean",
    "conv",
    "conv_threads",
    "batch_norm",
    "spike",
    "surrogate_slope",
    "lif_sequence",
    "backward",
    "grad_check",
    "GradCheckReport",
]

_DTYPE = np.float32
_GRAD_ENABLED = True
# ``_depthwise_conv``'s column slice budget (the fastest of a 1-16 MB sweep,
# README) and row alignment, and its column buffer kept between calls. The
# buffer is grown only on the calling thread; while a conv runs on two
# threads, each thread owns its own region of it.
_DW_SLICE_BYTES = 4 << 20
_DW_SLICE_ROWS = 32
_dw_columns = np.empty(0, dtype=np.uint8)
# a depthwise conv whose columns exceed this many bytes runs its channel
# halves on two threads, the second one ``_worker``, made on first use
# (README: at B=16, T=8 this takes the default model's two 5x5 stage convs,
# not the local pathway's; dense and grouped convs always run on one thread)
_CONV_THREAD_BYTES = 8 << 20
# batch norm's elementwise passes and the LIF backward over a [T, B, ...]
# array larger than this many bytes run on the same two threads, half of the
# batch each (README: this takes the default model's 1-4 MB arrays at B=16,
# not its 0.75 MB ones, whose LIF backward ran no faster so, nor any array
# of a one-clip pass)
_ELEMENTWISE_THREAD_BYTES = 768 << 10
_worker = None


@contextlib.contextmanager
def precision(dtype):
    """Temporarily change the storage dtype for newly created tensors."""
    global _DTYPE
    prev = _DTYPE
    _DTYPE = np.dtype(dtype).type
    try:
        yield
    finally:
        _DTYPE = prev


@contextlib.contextmanager
def no_grad():
    """Disable graph construction (inference / instrumentation passes)."""
    global _GRAD_ENABLED
    prev = _GRAD_ENABLED
    _GRAD_ENABLED = False
    try:
        yield
    finally:
        _GRAD_ENABLED = prev


def current_dtype():
    return _DTYPE


class ShapeError(ValueError):
    pass


class TapeConsumedError(RuntimeError):
    pass


class Tensor:
    """A dense array, as callers hold it, and its place on the tape.

    ``data`` is the array, ``grad`` a leaf's gradient (and the loss's, once
    ``backward`` has run). An op output made with a tape holds its tape node
    in ``_node``; a leaf and an op output made without a tape hold None
    there, and a leaf that requires a gradient serves as its own node (its
    ``_parents`` are empty and it has no ``_backward``). No node refers to
    this object, so an op output's array lives only while a caller holds
    the Tensor or a backward closure has captured the array itself. All
    arithmetic goes through the module-level primitives.
    """

    __slots__ = ("data", "requires_grad", "grad", "_node", "_consumed", "__weakref__")
    _backward = None  # as a node, a leaf has no backward

    def __init__(self, data, requires_grad=False):
        if not isinstance(data, np.ndarray):
            data = np.asarray(data, dtype=_DTYPE)
        self.data = data
        self.requires_grad = requires_grad
        self.grad = None
        self._node = None
        self._consumed = False

    @property
    def _parents(self):
        """The parent nodes of this tensor's tape node; () for a leaf."""
        return () if self._node is None else self._node._parents

    @property
    def shape(self):
        return self.data.shape

    @property
    def dtype(self):
        return self.data.dtype

    @property
    def ndim(self):
        return self.data.ndim

    @property
    def size(self):
        return self.data.size

    def item(self):
        return float(self.data.reshape(()))

    def detach(self):
        return Tensor(self.data, requires_grad=False)

    def __repr__(self):
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"


class _Node:
    """One primitive application on the tape: the nodes of its parents that
    need a gradient (``_parents``), its backward closure, the gradient that
    reaches it, and the shape of its output and the dtype of that gradient,
    which ``_accumulate`` needs. It holds no array. Made only by ``_make``."""

    __slots__ = ("_parents", "_backward", "grad", "shape", "dtype", "__weakref__")
    requires_grad = True

    def __init__(self, parents, backward_fn, shape, dtype):
        self._parents = parents
        self._backward = backward_fn
        self.grad = None
        self.shape = shape
        self.dtype = dtype


def tensor(data, requires_grad=False):
    return Tensor(np.asarray(data, dtype=_DTYPE), requires_grad=requires_grad)


def _tracks(parents):
    """A node joins the tape iff grad is on and one of its parents needs it."""
    return _GRAD_ENABLED and any(p.requires_grad for p in parents)


def _make(data, parents, backward_fn):
    """The one place a tape node is made: the output Tensor of ``data``, with
    a node if ``parents`` are tracked (``_tracks``), else without. The node's
    backward is ``backward_fn(nodes, g)``, given the node of each of
    ``parents`` in order (None for one that needs no gradient) and this
    output's gradient ``g``; it captures only the arrays that it reads,
    never a Tensor, so that nothing on the tape keeps ``data`` alive unless
    a backward reads it. No gradient is bool: the node's gradient dtype is
    that of ``data``, or for bool ``data`` the result type of its parents'
    gradient dtypes: for spikes, the membrane's (input and leak), and for a
    reshape or permute of them, the spikes' own."""
    if not _tracks(parents):
        return Tensor(data)
    nodes = tuple(p if p._node is None and p.requires_grad else p._node for p in parents)
    grad_dtype = data.dtype
    if grad_dtype == np.bool_:
        grad_dtype = np.result_type(*(p.dtype if p._node is None else p._node.dtype
                                      for p in parents))
    out = Tensor(data, requires_grad=True)
    out._node = _Node(tuple(n for n in nodes if n is not None),
                      functools.partial(backward_fn, nodes), data.shape, grad_dtype)
    return out


def _float_dtype(a, partner):
    """The float dtype in which an op reads array ``a``: its own, or for bool
    spikes that of the op's other operand ``partner`` (the current precision
    if that is bool too). 0 and 1 cast exactly, so a spike array cast there
    holds the values that a float spike array of that dtype held."""
    if a.dtype != np.bool_:
        return a.dtype
    return partner.dtype if partner.dtype != np.bool_ else np.dtype(_DTYPE)


def _floats(a, partner):
    """``a`` in its float dtype (``_float_dtype``): bool spikes are cast to a
    new array laid out as they are, any other array is ``a`` itself."""
    return a if a.dtype != np.bool_ else a.astype(_float_dtype(a, partner))


def _unbroadcast(grad, shape):
    """Sum ``grad`` down to ``shape`` (inverse of numpy broadcasting)."""
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    for axis, extent in enumerate(shape):
        if extent == 1 and grad.shape[axis] != 1:
            grad = grad.sum(axis=axis, keepdims=True)
    return grad


def _dense(a):
    """Whether ``a`` fills one gap-free block in some axis order (a C-contiguous
    array or a transpose of one), so that a copy in its own order would have
    its strides."""
    step = a.itemsize
    for n, stride in sorted(((n, s) for n, s in zip(a.shape, a.strides) if n > 1),
                            key=lambda e: e[1]):
        if stride != step:
            return False
        step *= n
    return True


def _accumulate(node, g: np.ndarray, owned=False):
    """Add ``g`` into ``node.grad``; a None ``node`` (a parent that needs no
    gradient) takes nothing. A first arrival is copied unless ``owned``:
    nothing reads or writes ``g`` after this call (the caller made it, or it
    views a node grad that ``backward`` drops), so a dense ``g`` already in
    the node's dtype becomes ``node.grad`` itself, also the transposed view
    of a permute or reshape hop. A copy keeps the layout of ``g`` (order
    'K'), so ``node.grad`` is laid out as ``g`` either way: later sums over
    it run in an order that follows its layout, and so do their bits."""
    if node is None:
        return
    g = _unbroadcast(g, node.shape)
    if node.grad is None:
        if owned and g.dtype == node.dtype and (g.flags.c_contiguous or _dense(g)):
            node.grad = g
        else:
            node.grad = g.astype(node.dtype, copy=True)
    else:
        node.grad += g


# ---------------------------------------------------------------------------
# elementwise primitives


def _check_broadcast(a, b, op):
    try:
        np.broadcast_shapes(a.shape, b.shape)
    except ValueError:
        raise ShapeError(f"{op}: incompatible shapes {a.shape} and {b.shape}") from None


def add(a, b):
    _check_broadcast(a, b, "add")

    def bwd(nodes, g):
        a, b = nodes
        # a copies g only if b takes it itself: b needs a gradient, is not
        # broadcast and holds none yet
        b_takes = b is not None and b.grad is None and b.shape == g.shape
        _accumulate(a, g, owned=not b_takes)
        _accumulate(b, g, owned=True)

    return _make(a.data + b.data, (a, b), bwd)


def sub(a, b):
    _check_broadcast(a, b, "sub")

    def bwd(nodes, g):
        a, b = nodes
        _accumulate(a, g)
        _accumulate(b, -g)

    return _make(a.data - b.data, (a, b), bwd)


def mul(a, b):
    _check_broadcast(a, b, "mul")
    a_data, b_data = a.data, b.data

    def bwd(nodes, g):
        a, b = nodes
        _accumulate(a, g * b_data, owned=True)
        _accumulate(b, g * a_data, owned=True)

    return _make(a_data * b_data, (a, b), bwd)


def div(a, b):
    _check_broadcast(a, b, "div")
    a_data, b_data = a.data, b.data

    def bwd(nodes, g):
        a, b = nodes
        _accumulate(a, g / b_data)
        _accumulate(b, -g * a_data / (b_data * b_data))

    return _make(a_data / b_data, (a, b), bwd)


def scale(a, c):
    """Multiply by a python scalar constant."""
    c = a.data.dtype.type(c)

    def bwd(nodes, g):
        _accumulate(nodes[0], g * c, owned=True)

    return _make(a.data * c, (a,), bwd)


def exp(a):
    out_data = np.exp(a.data)

    def bwd(nodes, g):
        _accumulate(nodes[0], g * out_data)

    return _make(out_data, (a,), bwd)


def log(a):
    a_data = a.data

    def bwd(nodes, g):
        _accumulate(nodes[0], g / a_data)

    return _make(np.log(a_data), (a,), bwd)


def sqrt(a):
    out_data = np.sqrt(a.data)

    def bwd(nodes, g):
        _accumulate(nodes[0], g * (0.5 / out_data))

    return _make(out_data, (a,), bwd)


def _sigmoid(x):
    # e = exp(-|x|) never overflows; 1/(1+e) for x >= 0, e/(1+e) below
    e = np.exp(-np.abs(x))
    d = 1.0 + e
    return np.where(x >= 0, 1.0 / d, e / d)


def sigmoid(a):
    out_data = _sigmoid(a.data)

    def bwd(nodes, g):
        _accumulate(nodes[0], g * out_data * (1.0 - out_data))

    return _make(out_data, (a,), bwd)


# ---------------------------------------------------------------------------
# structural primitives


def reshape(a, shape):
    shape = tuple(shape)
    in_shape = a.data.shape

    def bwd(nodes, g):
        _accumulate(nodes[0], g.reshape(in_shape), owned=True)

    return _make(a.data.reshape(shape), (a,), bwd)


def permute(a, axes):
    axes = tuple(axes)
    inv = tuple(np.argsort(axes))

    def bwd(nodes, g):
        _accumulate(nodes[0], g.transpose(inv), owned=True)

    return _make(np.ascontiguousarray(a.data.transpose(axes)), (a,), bwd)


def concat(tensors: Sequence[Tensor], axis=0):
    sizes = [t.data.shape[axis] for t in tensors]
    out_data = np.concatenate([t.data for t in tensors], axis=axis)
    offsets = np.cumsum([0] + sizes)

    def bwd(nodes, g):
        for t, lo, hi in zip(nodes, offsets[:-1], offsets[1:]):
            sl = [slice(None)] * g.ndim
            sl[axis] = slice(lo, hi)
            _accumulate(t, g[tuple(sl)])

    return _make(out_data, tuple(tensors), bwd)


def stack(tensors: Sequence[Tensor], axis=0):
    out_data = np.stack([t.data for t in tensors], axis=axis)

    def bwd(nodes, g):
        for i, t in enumerate(nodes):
            _accumulate(t, np.take(g, i, axis=axis))

    return _make(out_data, tuple(tensors), bwd)


def index(a, i, axis=0):
    """Select one slice along ``axis`` (keeps the remaining axes)."""
    out_data = np.take(a.data, i, axis=axis)
    in_shape = a.data.shape

    def bwd(nodes, g):
        full = np.zeros(in_shape, dtype=g.dtype)
        sl = [slice(None)] * len(in_shape)
        sl[axis] = i
        full[tuple(sl)] = g
        _accumulate(nodes[0], full)

    return _make(out_data, (a,), bwd)


def reduce_sum(a, axes=None, keepdims=False):
    out_data = np.sum(a.data, axis=axes, keepdims=keepdims, dtype=np.float64)
    out_data = out_data.astype(a.data.dtype)
    in_shape = a.data.shape

    def bwd(nodes, g):
        if not keepdims and axes is not None:
            g = np.expand_dims(g, axes)
        _accumulate(nodes[0], np.broadcast_to(g, in_shape))

    return _make(out_data, (a,), bwd)


def reduce_mean(a, axes=None, keepdims=False):
    if axes is None:
        n = a.data.size
    else:
        ax = axes if isinstance(axes, tuple) else (axes,)
        n = int(np.prod([a.data.shape[i] for i in ax]))
    if n == 0:
        raise ShapeError("reduce_mean: zero-size reduction")
    return scale(reduce_sum(a, axes=axes, keepdims=keepdims), 1.0 / n)


# ---------------------------------------------------------------------------
# matmul


def matmul(a, b):
    if a.ndim < 2 or b.ndim < 2:
        raise ShapeError(f"matmul: operands must be at least rank 2, got {a.shape} and {b.shape}")
    if a.shape[-1] != b.shape[-2]:
        raise ShapeError(f"matmul: inner extents disagree, {a.shape} x {b.shape}")
    if min(a.ndim, b.ndim) > 2 and a.shape[:-2] != b.shape[:-2]:  # else they broadcast
        try:
            np.broadcast_shapes(a.shape[:-2], b.shape[:-2])
        except ValueError:
            raise ShapeError(f"matmul: batch extents disagree, {a.shape} x {b.shape}") from None
    a_data, b_data = a.data, b.data  # a bool (spike) operand is cast where it is read

    def bwd(nodes, g):
        a, b = nodes
        if a is not None:
            _accumulate(a, np.matmul(g, np.swapaxes(_floats(b_data, a_data), -1, -2)), owned=True)
        if b is not None:
            _accumulate(b, np.matmul(np.swapaxes(_floats(a_data, b_data), -1, -2), g), owned=True)

    return _make(np.matmul(_floats(a_data, b_data), _floats(b_data, a_data)), (a, b), bwd)


# ---------------------------------------------------------------------------
# convolution (2-D cross-correlation, zero padding, grouped)


def _conv_out_extent(n, k, s, p):
    return (n + 2 * p - k) // s + 1


def conv_threads():
    """The threads that a large depthwise conv, batch-norm pass or LIF
    backward runs on: 2 where this process may run on more than one CPU
    (``os.sched_getaffinity``), else 1. The name predates the elementwise
    work, and ``environment.json`` records it under this name."""
    affinity = getattr(os, "sched_getaffinity", None)  # Linux only; serial elsewhere
    return 2 if affinity is not None and len(affinity(0)) > 1 else 1


def _worker_for(nbytes, floor):
    """The worker thread for work over ``nbytes``, or None (it runs serially):
    work goes to it only above ``floor`` bytes (``_CONV_THREAD_BYTES`` or
    ``_ELEMENTWISE_THREAD_BYTES``) and on more than one CPU. The one worker
    thread, which depthwise convs, batch norm and the LIF backward share, is
    made on first use, so a process whose work stays small starts none."""
    global _worker
    if nbytes <= floor or conv_threads() == 1:
        return None
    if _worker is None:
        from concurrent.futures import ThreadPoolExecutor  # 5 ms and 0.6 MB, so only here

        _worker = ThreadPoolExecutor(max_workers=1, thread_name_prefix="spikevid-worker")
    return _worker


def _forget_worker():
    global _worker
    _worker = None


if hasattr(os, "register_at_fork"):  # a forked child has no worker thread
    os.register_at_fork(after_in_child=_forget_worker)


def _both(worker, side, main):
    """``(side(), main())``, where a ``None`` task is skipped and gives None.
    With a ``worker`` and both tasks, ``side`` runs on the worker while this
    thread runs ``main``; the worker is waited for also when ``main`` raises,
    and an exception of ``side`` is raised here once ``main`` has finished.
    ``side`` runs in a copy of this thread's context, where numpy keeps its
    floating-point error state (``np.errstate``). Else both run here,
    ``side`` first."""
    if worker is None or side is None or main is None:
        return side() if side else None, main() if main else None
    future = worker.submit(contextvars.copy_context().run, side)
    try:
        result = main()
    except BaseException:
        future.exception()  # waits: the worker writes into the caller's arrays
        raise
    return future.result(), result


def _halves(worker, body, *arrays, before=None):
    """``body(*arrays)``, or with a ``worker`` ``body`` over the first half of
    every array along axis 1 (the batch of ``[T, B, ...]``) here and over the
    second half on the worker (``_both``); a None array stays None. ``body``
    writes only into the arrays it is given, so elementwise work keeps every
    bit in either split. ``before``, if given, runs here first, while the
    worker starts on its half: work that reads nothing ``body`` writes."""
    if worker is None:
        if before is not None:
            before()
        body(*arrays)
        return
    half = arrays[0].shape[1] // 2
    parts = [[None if a is None else a[:, part] for a in arrays]
             for part in (slice(half), slice(half, None))]

    def main():
        if before is not None:
            before()
        body(*parts[0])

    _both(worker, lambda: body(*parts[1]), main)


def _result(full, *others, dtype=None):
    """An empty array for the result of an elementwise ufunc of the arrays
    ``full``, whose shape the result has, and ``others``: in the result's
    dtype (or ``dtype``, for a cast of it) and in the layout numpy gives that
    result, C order when an operand of the result's shape is C-contiguous,
    else the order of numpy's iterator. Filled by that ufunc, whole or in
    parts, it holds the array the ufunc would return, laid out alike, so
    later sums over it keep their bits."""
    operands = (full,) + others
    dtype = np.result_type(*operands) if dtype is None else dtype
    if full.flags.c_contiguous or any(o.shape == full.shape and o.flags.c_contiguous
                                      for o in others):
        return np.empty(full.shape, dtype)
    return np.nditer(operands + (None,), flags=["zerosize_ok"],
                     op_flags=[["readonly"]] * len(operands) + [["writeonly", "allocate"]],
                     op_dtypes=[None] * len(operands) + [dtype]).operands[-1]


def conv(x, w, stride=1, padding=0, groups=1, bias=None):
    """Grouped 2-D cross-correlation, plus a per-channel ``bias`` if given.

    x: [B, C_in, H, W], w: [C_out, C_in // groups, kH, kW]. ``stride`` (at
    least 1) and ``padding`` (at least 0) are ints that apply on both spatial
    axes; output extent is floor((n + 2p - k) / s) + 1. A depthwise conv
    (``C_g == 1`` and ``C_out == groups``) runs ``_depthwise_conv``, any
    other ``_dense_conv``. A ``bias`` [C_out] is then added by a tape node of
    its own, whose backward sums ``g`` over batch and space for the bias and
    hands ``g`` on to the conv's node as it is.
    """
    if x.ndim != 4 or w.ndim != 4:
        raise ShapeError(f"conv: input {x.shape} and weight {w.shape} must both be rank 4")
    for name, value, least in (("stride", stride, 1), ("padding", padding, 0)):
        if not isinstance(value, (int, np.integer)) or value < least:
            raise ShapeError(f"conv: {name} must be an integer >= {least}, got {value!r}")
    stride = (int(stride),) * 2
    padding = (int(padding),) * 2
    C_in, (C_out, C_g) = x.shape[1], w.shape[:2]
    if C_in % groups or C_out % groups:
        raise ShapeError(f"conv: groups={groups} does not divide C_in={C_in} / C_out={C_out}")
    if C_g != C_in // groups:
        raise ShapeError(f"conv: weight expects {C_g} channels per group, input provides {C_in // groups}")
    kernel = w.shape[2:]
    spatial = x.shape[2:]
    out_spatial = tuple(map(_conv_out_extent, spatial, kernel, stride, padding))
    if any(n < 1 for n in out_spatial):
        raise ShapeError(f"conv: kernel {kernel} does not fit padded input {spatial} (pad {padding})")
    if C_g == 1 and C_out == groups:
        out = _depthwise_conv(x, w, stride, padding, out_spatial)
    else:
        out = _dense_conv(x, w, stride, padding, groups, out_spatial)
    if bias is None:
        return out

    def bwd(nodes, g):
        out, bias = nodes
        _accumulate(bias, g.sum(axis=(0, 2, 3)))
        _accumulate(out, g, owned=True)

    return _make(out.data + bias.data.reshape(1, C_out, 1, 1), (out, bias), bwd)


def _dense_conv(x, w, stride, padding, groups, out_spatial):
    """``conv`` with more than one channel in or out per group, on this
    thread only.

    It builds the whole batch's ``[groups, P, C_g * K]`` columns
    (``_im2col``, one gather along a window index cached per shape; for
    bool spikes, in the weight's dtype) for one grouped matmul. Its tape
    node keeps the input's data (spikes as bytes) and no columns: the
    weight gradient, one grouped matmul against them, rebuilds them from
    the input's data by the same gather, so with the same bits, and only
    when the weight needs a gradient. Its input gradient scatters the
    windows of a matmul back to columns, read as a ``[*out, B, C_in,
    *kernel]`` view (``_conv_input_grad``).
    """
    (B, C_in), (C_out, C_g) = x.shape[:2], w.shape[:2]
    O_g = C_out // groups
    kernel = w.shape[2:]
    x_data, w_shape = x.data, w.data.shape
    x_dtype = _float_dtype(x_data, w.data)  # the columns' dtype
    w_g = w.data.reshape(groups, O_g, -1)  # [g, Og, CgK]
    out_data = np.empty((B, C_out) + out_spatial, dtype=np.result_type(x_dtype, w.data))
    cols = _im2col(x_data, kernel, stride, padding, out_spatial, groups, dtype=x_dtype)
    out_g = np.matmul(cols, np.swapaxes(w_g, 1, 2)).reshape((groups, B) + out_spatial + (O_g,))
    out_data.reshape((B, groups, O_g) + out_spatial)[...] = np.moveaxis(out_g, (0, -1), (1, 2))

    def bwd(nodes, g):
        x, w = nodes
        g_flat = np.moveaxis(g.reshape((B, groups, O_g) + out_spatial), (1, 2), (0, -1))
        g_flat = np.ascontiguousarray(g_flat).reshape(groups, -1, O_g)
        gx = None
        if w is not None:  # the forward's columns, rebuilt by the forward's gather
            cols = _im2col(x_data, kernel, stride, padding, out_spatial, groups, dtype=x_dtype)
            gw = np.matmul(np.swapaxes(g_flat, 1, 2), cols)  # [g, Og, CgK]
        if x is not None:
            gcols = np.matmul(g_flat, w_g).reshape((groups, B) + out_spatial + (C_g,) + kernel)
            # [*out, B, C_in, *kernel], a view unless groups > 1
            gcols = np.moveaxis(gcols, (0, 1), (3, 2)).reshape(out_spatial + (B, C_in) + kernel)
            gx = _conv_input_grad(x_data.shape, lambda offset: gcols[(Ellipsis,) + offset],
                                  kernel, stride, padding, out_spatial, gcols.dtype)
            del gcols  # the terms go before the accumulations, the columns after them
        if w is not None:
            _accumulate(w, gw.reshape(w_shape), owned=True)
        _accumulate(x, gx, owned=True)

    return _make(out_data, (x, w), bwd)


def _depthwise_conv(x, w, stride, padding, out_spatial):
    """``conv`` with one input and one output channel per group.

    The forward builds its columns in batch slices near ``_DW_SLICE_BYTES``,
    so that they stay in cache, in one buffer kept between calls, so that no
    call returns its pages to the OS for the next to fault in again. Its
    matmul is a gemv per channel, one dot per column row, and BLAS rounds a
    row by its place in the kernel's block of rows (and in a thread's share
    of them). So a slice gives the same bits only if every slice, the whole
    buffer and their halves split at the same block edges: a slice holds a
    multiple of ``_DW_SLICE_ROWS`` rows, else the batch is one slice in a new
    array. This is the one conv that uses the worker thread: when the whole
    batch's columns exceed ``_CONV_THREAD_BYTES`` and ``_worker_for`` gives a
    worker (asked here and again when the backward runs), the slices stay
    those of the serial run: this thread pads each slice's input
    (``_column_gather``), then the worker gathers the columns of the second
    half of its channels and runs their gemvs while this thread does the
    first half, into the one columns region and the one gemv output the
    serial run uses. A gemv is per channel, so no bit moves, the kept
    buffer does not grow, and the worker allocates no array. Columns of bool
    spikes are in the weight's dtype, cast as the padded input is written
    (``_column_gather``), and every size above counts their bytes. The tape
    node keeps the input's data (spikes as bytes) and no columns: the weight
    gradient rebuilds them in the kept buffer for about ``_DW_SLICE_BYTES``
    of channels at a time, each over the whole batch, so each channel's gemv
    is the one that whole-batch columns give;
    with a ``worker`` it runs there, while this thread computes the input
    gradient. That needs no matmul: with inner extent 1, each column entry
    is one rounded product, and the terms are ``g * w[:, 0, offset]``, ``g``
    relaid once to ``[*out, B, C]`` and the weights once to ``[*kernel, B,
    C]``, so both run along B * C.
    """
    B, C = x.shape[0], x.shape[1]
    x_data, w_data = x.data, w.data
    x_dtype = _float_dtype(x_data, w_data)  # the columns' dtype
    kernel = w.shape[2:]
    rows = math.prod(out_spatial)  # column rows per clip
    K = math.prod(kernel)
    w_t = np.swapaxes(w_data.reshape(C, 1, K), 1, 2)  # [C, K, 1]
    clip = C * rows * K  # column entries per clip
    clip_bytes = clip * x_dtype.itemsize
    column_bytes = B * clip_bytes  # the whole batch's columns
    unit = _DW_SLICE_ROWS // math.gcd(_DW_SLICE_ROWS, rows)  # clips per aligned row block
    step = B if B % unit else min(B, max(unit, _DW_SLICE_BYTES // clip_bytes // unit * unit))
    out_data = np.empty((B, C) + out_spatial, dtype=np.result_type(x_dtype, w_data))

    # a slice's [C, clips * rows, K] columns go into the kept buffer, or a new array
    buffer = (np.empty(B * clip, x_dtype) if B % unit
              else _dw_buffer(step * clip_bytes, x_dtype))
    dots = np.empty(C * step * rows, dtype=out_data.dtype)  # a slice's [C, clips * rows, 1] gemvs
    worker = _worker_for(column_bytes, _CONV_THREAD_BYTES)
    for lo in range(0, B, step):
        n = min(step, B - lo)
        gather, cols = _column_gather(x_data[lo:lo + n], kernel, stride, padding, out_spatial, C,
                                      out=buffer[:n * clip])
        slice_dots = dots[:C * n * rows].reshape(C, n * rows, 1)

        def channels(lo_c, hi_c):  # the columns and gemvs of channels lo_c..hi_c
            gather(slice(lo_c * n, hi_c * n))
            np.matmul(cols[lo_c:hi_c], w_t[lo_c:hi_c], out=slice_dots[lo_c:hi_c])

        if worker is not None and C > 1:
            _both(worker, lambda: channels(C // 2, C), lambda: channels(0, C // 2))
        else:
            channels(0, C)
        out_data[lo:lo + n] = slice_dots.reshape((C, n) + out_spatial).swapaxes(0, 1)

    def bwd(nodes, g):
        x, w = nodes
        weight_grad = input_grad = None
        if w is not None:
            g_rows = np.empty((C, B) + out_spatial, dtype=g.dtype)
            gw = np.empty((C, 1, K), dtype=np.result_type(g, x_dtype))
            channel = B * rows * K  # column entries per channel
            chunk = max(1, _DW_SLICE_BYTES // (channel * x_dtype.itemsize))
            buffer = _dw_buffer(min(chunk, C) * channel * x_dtype.itemsize, x_dtype)

            def weight_grad():
                g_rows[...] = np.moveaxis(g, 1, 0)
                rows_t = g_rows.reshape(C, -1, 1).swapaxes(1, 2)  # [C, 1, B * rows]
                for c in range(0, C, chunk):
                    m = min(chunk, C - c)
                    cols = _im2col(x_data[:, c:c + m], kernel, stride, padding, out_spatial, m,
                                   out=buffer[:m * channel])
                    np.matmul(rows_t[c:c + m], cols, out=gw[c:c + m])
                return gw
        if x is not None:
            def input_grad():
                g_cl = np.ascontiguousarray(np.moveaxis(g, (0, 1), (-2, -1)))  # [*out, B, C]
                w_cl = np.empty(kernel + (B, C), dtype=w_data.dtype)  # [*kernel, B, C]
                w_cl[...] = np.moveaxis(w_data[:, 0], 0, -1)[..., None, :]
                term = np.empty(g_cl.shape, dtype=np.result_type(g, w_data))
                return _conv_input_grad(x_data.shape, lambda offset: np.multiply(g_cl, w_cl[offset],
                                                                                 out=term),
                                        kernel, stride, padding, out_spatial, term.dtype)
        gw, gx = _both(_worker_for(column_bytes, _CONV_THREAD_BYTES), weight_grad, input_grad)
        if gw is not None:
            _accumulate(w, gw.reshape(w_data.shape), owned=True)
        if gx is not None:
            _accumulate(x, gx, owned=True)

    return _make(out_data, (x, w), bwd)


def _conv_input_grad(shape, term_at, kernel, stride, padding, out_spatial, dtype):
    """The gradient of a ``[B, C_in, *spatial]`` conv input of ``shape`` whose
    ``[*out, B, C_in]`` terms at each kernel offset ``term_at(offset)`` gives:
    one scatter per offset, in row-major order, onto a zeroed channels-last
    ``[*padded, B, C_in]`` buffer, so the inner loops run along B * C_in
    contiguous elements and each input element receives the same rounded
    terms in the same order as from a ``[B, C_in, *padded]`` scatter; one
    copy then crops the padding and relays to ``[B, C_in, H, W]``. When one
    offset reaches every input element once (a 1x1 kernel, stride 1, no
    padding) one pass adds +0.0 to the terms while relaying them, as adding
    onto a zeroed buffer does.
    """
    spatial = shape[2:]
    if math.prod(kernel) == 1 and out_spatial == spatial and not any(padding):
        return np.add(np.moveaxis(term_at((0, 0)), (-2, -1), (0, 1)), 0.0,
                      out=np.empty(shape, dtype=dtype))
    gx = np.zeros(tuple(n + 2 * p for n, p in zip(spatial, padding)) + shape[:2], dtype=dtype)
    for offset in np.ndindex(*kernel):
        window = tuple(slice(o, o + s * n, s) for o, s, n in zip(offset, stride, out_spatial))
        gx[window] += term_at(offset)
    gx = gx[tuple(slice(p, p + n) for p, n in zip(padding, spatial))]
    return np.ascontiguousarray(np.moveaxis(gx, (-2, -1), (0, 1)))


def _dw_buffer(nbytes, dtype):
    """A flat ``dtype`` view of the first ``nbytes`` of the kept depthwise
    column buffer, grown first if it is smaller."""
    global _dw_columns
    if _dw_columns.nbytes < nbytes:
        _dw_columns = np.empty(nbytes, dtype=np.uint8)
    return _dw_columns[:nbytes].view(dtype)


def _im2col(x, kernel, stride, padding, out_spatial, groups, out=None, dtype=None):
    """[B, C, *spatial] -> [groups, B * prod(out), (C // groups) * prod(kernel)].

    Row ``p`` of group ``g`` holds the window at output position ``p`` of that
    group's channels, channel-major then kernel order: the layout the grouped
    matmul reads. The columns go into ``out`` (a flat C-contiguous array of
    the right size and dtype) when it is given, else into a new array of
    ``dtype`` (by default ``x``'s), by the gather of ``_column_gather``, on
    this thread.
    """
    gather, cols = _column_gather(x, kernel, stride, padding, out_spatial, groups, out, dtype)
    gather(slice(None))
    return cols


def _column_gather(x, kernel, stride, padding, out_spatial, groups, out=None, dtype=None):
    """``(gather, columns)``: ``_im2col``'s columns, not yet filled, and
    ``gather(rows)``, which fills the columns of a slice ``rows`` of the
    (group, clip) pairs. The zero-padded input is written here, once, as a
    ``[groups * B, C_g * prod(padded)]`` source, and ``np.take`` gathers each
    pair's rows from it along the window index of ``_window_index``. So the
    source and the columns are made on this thread, whichever thread
    gathers. The columns take the dtype of ``out``, else ``dtype``, else
    ``x``'s; an ``x`` of another dtype (bool spikes) is cast as the source
    is written, which an unpadded, ungrouped ``x`` then needs for itself."""
    B, C = x.shape[:2]
    C_g = C // groups
    spatial = x.shape[2:]
    padded = tuple(n + 2 * p for n, p in zip(spatial, padding))
    if out is not None:
        dtype = out.dtype
    elif dtype is None:
        dtype = x.dtype
    if any(padding) or groups > 1 or x.dtype != dtype:
        src = np.zeros((groups, B, C_g) + padded, dtype=dtype)
        src[(Ellipsis,) + tuple(slice(p, p + n) for p, n in zip(padding, spatial))] = (
            x.reshape((B, groups, C_g) + spatial).swapaxes(0, 1))
    else:
        src = x
    src = src.reshape(groups * B, -1)
    index = _window_index(padded, kernel, stride, out_spatial, C_g)  # [prod(out), C_g * K]
    shape = (groups * B,) + index.shape
    pairs = np.empty(shape, dtype=dtype) if out is None else out.reshape(shape)

    def gather(rows):
        # every index is in range, so "wrap" reads what "raise" would, without
        # its bounds check per element or the temporary it makes of ``out``
        np.take(src[rows], index, axis=1, out=pairs[rows], mode="wrap")

    return gather, pairs.reshape(groups, B * index.shape[0], -1)


@functools.lru_cache(maxsize=32)
def _window_index(padded, kernel, stride, out_spatial, C_g):
    """``[prod(out), C_g * prod(kernel)]``: the flat position in a ``[C_g,
    *padded]`` block of each column entry, read-only, one per shape."""
    rank = len(kernel)
    flat = np.arange(C_g * math.prod(padded), dtype=np.intp).reshape((C_g,) + padded)
    view = np.lib.stride_tricks.sliding_window_view(flat, kernel, axis=tuple(range(1, 1 + rank)))
    view = view[(slice(None),) + tuple(slice(None, None, s) for s in stride)]  # [C_g, *out, *kernel]
    index = np.ascontiguousarray(np.moveaxis(view, 0, rank)).reshape(math.prod(out_spatial), -1)
    index.flags.writeable = False
    return index


# ---------------------------------------------------------------------------
# batch normalization


def _into(buf, *operands):
    """``buf`` when the ufunc result dtype of ``operands`` is ``buf``'s, so
    that writing there in place changes no value, else an empty array for
    that result (``_result``)."""
    return buf if np.result_type(*operands) == buf.dtype else _result(*operands)


def _reuse(buf, fresh):
    """``buf`` in place of the empty array ``fresh`` when the two agree in
    dtype and layout, so that a result written there is the same array;
    else ``fresh``."""
    return buf if buf.dtype == fresh.dtype and buf.strides == fresh.strides else fresh


def batch_norm(x, gamma, beta, axes, eps, stats=None):
    """Normalize ``x`` over ``axes``, then ``* gamma + beta``, as one tape node.

    With ``stats=None`` (train mode) the statistics are the batch's: float64
    sums of ``x`` and of ``diff**2`` scaled by ``1/n``. With ``stats=(mean,
    var)`` (eval mode) they are frozen, taken in the current precision. Both
    modes then run one formula: ``diff = x - mean``, ``inv = 1 / sqrt(var +
    eps)``, ``xhat = diff * inv``. Returns ``(y, mean, var)``.

    The float ops, their operand layouts and dtypes (constants in the current
    precision) are those of the chain reduce_mean, sub, mul, reduce_mean, add,
    sqrt, div, mul, mul, add, and the backward repeats that chain's gradient
    arithmetic in its order: ``diff`` receives ``g_xhat * inv`` first, then the
    variance term twice; the mean's gradient is the negated sum of diff's.
    Outputs and gradients are bit for bit the chain's when this node is the
    only consumer of ``x``. Every step runs in place, tape or not: ``xhat``
    takes ``diff``'s buffer and ``y`` takes ``xhat``'s. The backward keeps
    ``x``'s data, gamma's and the per-channel ``mean``, ``var`` and ``inv`` (a
    frozen mean as a copy), not ``y``: it rebuilds ``diff = x - mean``, and
    ``xhat = diff * inv`` for the gamma gradient, by the forward's own ops,
    so with the forward's bits.

    Each run of elementwise passes between two sums is one ``part`` function.
    Over an ``x`` above ``_ELEMENTWISE_THREAD_BYTES`` whose per-channel
    arrays all broadcast along axis 1 (the batch of ``[T, B, ...]``), it runs
    in two halves of that axis, one on the worker thread (``_halves``); this
    thread allocates every array first, each in the dtype and layout of the
    chain's (``_result``), and makes every sum over the whole array, in the
    serial order, so either split gives the same bits.
    """
    if eps <= 0:
        raise ValueError(f"eps must be positive, got {eps}")
    one = np.asarray(1.0, dtype=_DTYPE)
    xd, gd = x.data, gamma.data
    if stats is None:
        c = xd.dtype.type(1.0 / math.prod(xd.shape[i] for i in axes))
        mean = np.sum(xd, axis=axes, keepdims=True, dtype=np.float64).astype(xd.dtype) * c
    else:
        mean, var = (np.asarray(s, dtype=_DTYPE) for s in stats)
    # the batch axis, axis 1, splits when no per-channel array varies along it
    lead = xd.ndim - 1  # axis 1, counted from the right
    split = xd.nbytes > _ELEMENTWISE_THREAD_BYTES and lead > 0 and xd.shape[1] > 1 and all(
        p.ndim < lead or p.shape[-lead] == 1
        for p in (mean, gd, beta.data) + (() if stats is None else (var,)))
    worker = _worker_for(xd.nbytes, _ELEMENTWISE_THREAD_BYTES) if split else None
    diff = _result(xd, mean)
    if stats is None:
        square = _result(diff, diff)

        def part(xd, diff, square):
            np.multiply(np.subtract(xd, mean, out=diff), diff, out=square)

        _halves(worker, part, xd, diff, square)
        var = np.sum(square, axis=axes, keepdims=True, dtype=np.float64).astype(diff.dtype) * c
        del square
    elif _tracks((x, gamma, beta)):  # so that no later update of it reaches the backward
        mean = mean.copy()
    sd = np.sqrt(var + np.asarray(eps, dtype=_DTYPE))
    inv = one / sd
    xhat = _into(diff, diff, inv)
    scaled = _into(xhat, xhat, gd)
    y = _into(scaled, scaled, beta.data)
    xhat_dtype = xhat.dtype

    def part(xd, diff, xhat, scaled, y):
        if stats is not None:
            np.subtract(xd, mean, out=diff)
        np.multiply(diff, inv, out=xhat)
        np.multiply(xhat, gd, out=scaled)
        np.add(scaled, beta.data, out=y)

    _halves(worker, part, xd, diff, xhat, scaled, y)

    def bwd(nodes, g):
        x, gamma, beta = nodes
        worker = _worker_for(xd.nbytes, _ELEMENTWISE_THREAD_BYTES) if split else None
        diff = _result(xd, mean)
        # for gamma, g * (diff * inv); for x, g_xhat = g * gamma, its product
        # with diff for the batch variance, and dL/d(diff) so far, g_xhat * inv
        scaled = g_gamma = g_xhat = g_diff = g_x = None
        if gamma is not None:
            scaled = _result(diff, inv)
            g_gamma = _reuse(scaled, _result(g, scaled))
        if x is not None:
            g_xhat = _result(g, gd, dtype=xhat_dtype)
            g_diff = _result(g_xhat, diff) if stats is None else None
            g_x = _reuse(g_xhat, _result(g_xhat, inv, dtype=xd.dtype))

        def part(xd, g, diff, scaled, g_gamma, g_xhat, g_diff, g_x):
            np.subtract(xd, mean, out=diff)
            if scaled is not None:
                np.multiply(g, np.multiply(diff, inv, out=scaled), out=g_gamma)
            if g_xhat is not None:
                np.multiply(g, gd, out=g_xhat)
                if g_diff is not None:
                    np.multiply(g_xhat, diff, out=g_diff)
                np.multiply(g_xhat, inv, out=g_x)

        _halves(worker, part, xd, g, diff, scaled, g_gamma, g_xhat, g_diff, g_x,
                before=lambda: _accumulate(beta, g))
        gamma_grad = None if scaled is None else lambda: _accumulate(gamma, g_gamma)
        if stats is None and g_x is not None:  # the batch statistics depend on x
            g_inv = _unbroadcast(g_diff, inv.shape).astype(inv.dtype, copy=False)
            g_sd = (-g_inv * one / (sd * sd)).astype(sd.dtype, copy=False)
            g_var = (g_sd * (0.5 / sd)).astype(var.dtype)
            g_sq = (g_var * c).astype(diff.dtype, copy=False)

            def part(diff, g_x):
                # the square's two operands each pass on g_sq * diff, formed
                # in diff's buffer: only its values are read
                term = np.multiply(g_sq, diff, out=diff)
                np.add(g_x, term, out=g_x)
                np.add(g_x, term, out=g_x)

            _halves(worker, part, diff, g_x, before=gamma_grad)
            gamma_grad = None
            g_mean = -_unbroadcast(g_x, mean.shape).astype(mean.dtype, copy=False)
            shift = (g_mean * c).astype(xd.dtype, copy=False)
            _halves(worker, lambda g_x: np.add(g_x, shift, out=g_x), g_x)
        if gamma_grad is not None:
            gamma_grad()
        if g_x is not None:
            _accumulate(x, g_x, owned=True)

    return _make(y, (x, gamma, beta), bwd), mean, var


# ---------------------------------------------------------------------------
# spike nonlinearity


def spike(h, v_threshold, alpha, smooth=False):
    """Heaviside threshold with a sigmoid surrogate derivative.

    Forward emits 1 where h >= v_threshold (exact binary output). Backward
    uses d/dh sigmoid(alpha * (h - v_threshold)). With ``smooth=True`` the
    forward is the sigmoid itself, making the op a genuinely smooth primitive
    for finite-difference verification.
    """
    out_data = _spike_forward(h.data, v_threshold, alpha, smooth)
    local = surrogate_slope(h.data, v_threshold, alpha)

    def bwd(nodes, g):
        _accumulate(nodes[0], g * local)

    return _make(out_data, (h,), bwd)


def _spike_forward(h, v_threshold, alpha, smooth, out=None):
    """Spikes of membrane ``h`` (the sigmoid surrogate if ``smooth``), into ``out``."""
    if out is None:
        out = np.empty_like(h)
    if smooth:
        out[...] = _sigmoid(alpha * (h - h.dtype.type(v_threshold)))
        return out
    return np.greater_equal(h, v_threshold, out=out, casting="unsafe")


def surrogate_slope(h_values, v_threshold, alpha, out=None):
    """The surrogate derivative ds/dH used at spike nodes (plain ndarray math).

    Computed in the dtype of a floating-point ``h_values``, float64 otherwise,
    in two fresh buffers, or in ``out``: two arrays of that dtype and of the
    shape of ``h_values``, the first of which receives the slopes.
    """
    h = np.asarray(h_values)
    if h.dtype.kind != "f":
        h = h.astype(np.float64)
    e, d = (np.empty_like(h), np.empty_like(h)) if out is None else out
    # sigmoid'(z) = e / (1 + e)^2 with e = exp(-|z|): stable, no branches
    np.subtract(h, h.dtype.type(v_threshold), out=e)
    np.abs(e, out=e)
    np.multiply(-alpha, e, out=e)
    np.exp(e, out=e)
    np.add(1.0, e, out=d)
    np.multiply(d, d, out=d)
    np.multiply(alpha, e, out=e)
    return np.divide(e, d, out=e)


# ---------------------------------------------------------------------------
# multi-step LIF / PLIF neuron


def lif_sequence(x, a=None, *, tau=2.0, v_threshold=1.0, v_reset=0.0,
                 alpha=4.0, detach_reset=False, smooth=False):
    """T steps of leaky integrate-and-fire dynamics as one primitive.

    x: [T, *S] input; a: the PLIF leak parameter, kappa = sigmoid(a), or None
    for LIF with kappa = 1/tau. The membrane starts at rest, V = v_reset, and
    each step t computes

        D = X_t - (V - v_reset)        H = V + kappa * D
        S_t = Heaviside(H - v_threshold)   (its sigmoid surrogate if ``smooth``)
        V = H * (1 - S_t) + S_t * v_reset

    Returns the spikes [T, *S]: bool, one byte each, for Heaviside spikes
    (the ops that read them cast them to their float dtype, ``_floats``),
    and in the float dtype of the membrane, ``np.result_type(x, kappa)``,
    if ``smooth``. The membrane, the step buffers, every backward array and
    the gradient (the node's dtype, ``_make``) are in that float dtype.

    The backward keeps no array besides the input's data and the spikes:
    with a tape or without, each step's H goes into one step buffer. The
    backward first replays the membrane loop from X and S by the forward's
    ops, so with the forward's bits, rebuilding
    every H_t (and, for the leak gradient, every D_t) into arrays of its
    own. Then one reverse loop over t carries dL/dV; it takes the surrogate
    slopes of the rebuilt H through ``surrogate_slope`` and drops the S -> V
    reset path if ``detach_reset``. Every op of that body is elementwise along
    the batch axis (axis 1 of ``[T, B, ...]``), so above
    ``_ELEMENTWISE_THREAD_BYTES`` of spikes the body runs once per half of
    it, one half on the worker thread (``_halves``), into arrays that this
    thread made; the leak gradient's float64 sum over the whole array and
    every gradient accumulation follow here, after both halves, so either
    split gives the same bits. The forward stays serial.

    Raises ``FloatingPointError``, before any tape node is made, if the final
    membrane is not finite. A NaN or +-inf input at any step leaves it so
    (inf * 0 and inf - inf give NaN, and NaN stays), and so do a NaN leak
    parameter and a membrane that overflows from finite input.
    """
    if x.ndim < 1 or x.shape[0] == 0:
        raise ShapeError(f"lif_sequence: expected a non-empty [T, ...] input, got {x.shape}")
    xs = x.data
    dt = xs.dtype
    T, shape = x.shape[0], x.shape[1:]
    parents = (x,) if a is None else (x, a)

    vr = dt.type(v_reset)
    one = dt.type(1.0)
    if a is None:
        kappa = dt.type(1.0 / tau)
    else:  # _sigmoid of the 0-d parameter, by numpy scalar ops: the same bits
        z = a.data[()]
        e = np.exp(-abs(z))
        kappa = 1.0 / (1.0 + e) if z >= 0 else e / (1.0 + e)
    fdt = np.result_type(xs, kappa)
    spikes = np.empty(x.shape, dtype=fdt if smooth else np.bool_)
    # every op writes into spikes or one of these two step buffers; the widest
    # operand dtype is the buffers', so each result is the one a fresh array
    # would hold
    scratch = np.empty(shape, dtype=fdt)
    v_next = np.empty(shape, dtype=fdt)
    v_t = np.full(shape, v_reset, dtype=dt)
    # with Heaviside spikes and vr = +-0, spikes[t] first holds not S_t, straight
    # from H < v_threshold (1 - S_t for every H but NaN, which raises below),
    # and one pass after the loop turns it into S_t
    complement = not (smooth or vr)
    for t in range(T):
        # D = X_t - (V - vr); V - 0 is V bit for bit, so a zero reset skips that op
        h = np.subtract(xs[t], v_t - vr if v_reset else v_t, out=scratch)
        np.multiply(kappa, h, out=h)
        np.add(v_t, h, out=h)
        if complement:
            keep = np.less(h, v_threshold, out=spikes[t])
        else:
            s = _spike_forward(h, v_threshold, alpha, smooth, out=spikes[t])
            keep = np.subtract(one, s, out=v_next)
        np.multiply(h, keep, out=v_next)
        # with vr = +-0 the reset term s * vr is vr, and adding it is skipped:
        # -0.0 changes no bit, and +0.0 only turns V = -0.0 into +0.0, which
        # Heaviside spikes never leave (V is H, not -0.0 as V is not, or H * 0
        # with H >= v_threshold > 0) and no later H or S tells apart
        if vr:
            np.add(v_next, np.multiply(s, vr, out=scratch), out=v_next)
        v_t = v_next
    if complement:
        np.logical_not(spikes, out=spikes)
    if not np.isfinite(v_t).all():
        raise FloatingPointError("spiking layer: non-finite membrane (non-finite input or "
                                 "leak parameter, or an overflow)")

    def bwd(nodes, g):
        x, a = nodes if len(nodes) == 2 else (nodes[0], None)
        # every array is made here, before ``part`` runs over all of the
        # batch axis or, on two threads, over each half of it
        dv_dh = np.empty(xs.shape, fdt)  # dV_t/dH_t along the membrane: the forward's 1 - S_t
        hs = np.empty(xs.shape, fdt)
        drives = np.empty(xs.shape, fdt) if a is not None else None
        slope, square = np.empty(xs.shape, fdt), np.empty(xs.shape, fdt)
        # g * slope goes into the squares' buffer, which nothing reads after
        # the slopes are formed
        g_h = _reuse(square, _result(g, slope))
        # the step buffers carry a leading axis of one, so that they split
        # along axis 1 with the [T, B, ...] arrays: the rest state, V_t, D_t
        # and S_t vr, and dL/dV
        rest = np.full((1,) + shape, v_reset, dtype=dt)
        steps = np.empty((3,) + shape, dtype=fdt)
        g_v = np.empty((1,) + shape, dtype=g_h.dtype)
        leak = one - kappa

        def part(xs, spikes, g, dv_dh, hs, drives, slope, square, g_h, rest, steps, g_v):
            v_step, d_step, reset = steps
            g_v = g_v[0]
            np.subtract(one, spikes, out=dv_dh)
            # the forward's membrane loop replayed from X and S, by its own
            # ops into this backward's buffers: D_t, H_t = V + kappa * D_t and
            # V_t = H_t (1 - S_t) (+ S_t vr); the drives are kept for the leak
            # gradient only
            v = rest[0]
            for t in range(T):
                d = d_step if drives is None else drives[t]
                if v_reset:  # V - vr goes into D first; at t = 0 it is 0 in any dtype
                    np.subtract(xs[t], np.subtract(v, vr, out=d), out=d)
                else:
                    np.subtract(xs[t], v, out=d)
                np.multiply(kappa, d, out=hs[t])
                np.add(v, hs[t], out=hs[t])
                v = np.multiply(hs[t], dv_dh[t], out=v_step)
                if vr:
                    np.add(v, np.multiply(spikes[t], vr, out=reset), out=v)
            surrogate_slope(hs, v_threshold, alpha, out=(slope, square))
            # unless detached, the reset path adds (vr - H_t) * slope to
            # dV_t/dH_t; hs is not read again, so that term is formed in place
            if not detach_reset:
                np.add(dv_dh, np.multiply(np.subtract(vr, hs, out=hs), slope, out=hs), out=dv_dh)
            np.multiply(g, slope, out=g_h)  # dL/dH_t from S_t alone; dL/dV_t is added below
            for t in range(T - 1, 0, -1):  # nothing reads V_T, so dL/dV_T = 0
                np.multiply(g_h[t], leak, out=g_v)  # dL/dV_{t-1}
                g_h[t - 1] += np.multiply(g_v, dv_dh[t - 1], out=dv_dh[t - 1])
            if drives is not None:
                np.multiply(g_h, drives, out=drives)
            np.multiply(g_h, kappa, out=g_h)

        worker = (_worker_for(hs.nbytes, _ELEMENTWISE_THREAD_BYTES)
                  if shape and shape[0] > 1 else None)
        _halves(worker, part, xs, spikes, g, dv_dh, hs, drives, slope, square, g_h, rest,
                steps, g_v)
        if drives is not None:
            g_kappa = np.sum(drives, dtype=np.float64)
            _accumulate(a, np.asarray(g_kappa * kappa * (1.0 - kappa)))
        _accumulate(x, g_h, owned=True)

    return _make(spikes, parents, bwd)


# ---------------------------------------------------------------------------
# backward traversal


def backward(loss: Tensor):
    """Reverse-mode sweep from a scalar loss; each node visited exactly once.

    The sweep runs over tape nodes, from the loss's own (the loss itself if
    it is a leaf), and ends with ``loss.grad`` holding ones; leaves gain
    their gradients in ``.grad``. A visited node drops its backward, which
    frees the arrays that only it captured, its parents and (the loss's
    aside) its gradient, and the sweep lets go of it, so a node that no
    later node refers to is freed before the nodes upstream of it run.
    """
    if loss.data.size != 1:
        raise ShapeError(f"backward: loss must be scalar, got shape {loss.shape}")
    if loss._consumed:
        raise TapeConsumedError("backward already called on this graph")
    loss._consumed = True
    root = loss if loss._node is None else loss._node
    topo = _topological_order(root)
    loss.grad = root.grad = np.ones_like(loss.data)
    while topo:  # popped in reverse topological order: every child of node has run
        node = topo.pop()
        if node._backward is not None and node.grad is not None:
            # a node's grad is dropped after its backward, so a parent may take
            # it over (reshape, permute); the loss keeps its own
            node._backward(node.grad.copy() if node is root else node.grad)
            node._backward = None
            node._parents = ()
            if node is not root:
                node.grad = None


def _topological_order(root):
    """The tape nodes behind ``root``, each after all of its parents."""
    topo = []
    visited = set()
    stack_ = [(root, False)]
    while stack_:
        node, processed = stack_.pop()
        if processed:
            topo.append(node)
            continue
        if id(node) in visited:
            continue
        visited.add(id(node))
        stack_.append((node, True))
        for p in node._parents:
            if id(p) not in visited:
                stack_.append((p, False))
    return topo


# ---------------------------------------------------------------------------
# finite-difference verification


class GradCheckReport:
    def __init__(self, max_rel_err, tol, per_input):
        self.max_rel_err = max_rel_err
        self.tol = tol
        self.per_input = per_input

    @property
    def passed(self):
        return bool(self.max_rel_err <= self.tol)

    def __repr__(self):
        status = "pass" if self.passed else "FAIL"
        return f"GradCheckReport({status}, max_rel_err={self.max_rel_err:.3e}, tol={self.tol:.1e})"


def grad_check(f: Callable, inputs: Iterable[Tensor], tol=1e-4, step=1e-4):
    """Compare analytic gradients of a scalar-valued ``f`` against central
    differences. Runs in float64; inputs are copied up to that precision.
    """
    with precision(np.float64):
        xs = [Tensor(t.data.astype(np.float64), requires_grad=True) for t in inputs]
        out = f(*xs)
        if not np.all(np.isfinite(out.data)):
            raise FloatingPointError("grad_check: non-finite forward output")
        backward(out)
        analytic = [x.grad.copy() if x.grad is not None else np.zeros_like(x.data) for x in xs]

        per_input = []
        max_rel = 0.0
        for i, x in enumerate(xs):
            numeric = np.zeros_like(x.data)
            flat = x.data.reshape(-1)
            num_flat = numeric.reshape(-1)
            for j in range(flat.size):
                orig = flat[j]
                with no_grad():
                    flat[j] = orig + step
                    f_plus = float(f(*xs).data)
                    flat[j] = orig - step
                    f_minus = float(f(*xs).data)
                    flat[j] = orig
                num_flat[j] = (f_plus - f_minus) / (2.0 * step)
            denom = np.maximum(np.maximum(np.abs(analytic[i]), np.abs(numeric)), 1.0)
            rel = np.abs(analytic[i] - numeric) / denom
            err = float(rel.max()) if rel.size else 0.0
            per_input.append(err)
            max_rel = max(max_rel, err)
    return GradCheckReport(max_rel, tol, per_input)
