"""Dense float64 tensors with reverse-mode automatic differentiation.

Graphs are built define-by-run: every recorded operation makes a ``Node``
holding its operands' nodes and a backward closure, so node creation order
is always a valid topological order. A ``Tensor`` is a value: a leaf (a
parameter or a constant) is its own node, and an op's result points at its
node, which does not point back. Calling ``backward`` on a scalar
accumulates dLoss/dX into ``.grad`` of every reachable leaf that has
``requires_grad`` set, and consumes the graph it ran.

A node keeps only what its backward reads. Each closure captures, for the
operands that need a gradient, the arrays their gradients are computed
from, and no tensor: ``matmul_add(a, b, c)`` keeps ``a``'s value only when
``b`` needs a gradient, and a dense layer ``mul(relu(a @ b + c), mask)`` is
one ``matmul_add`` node that keeps the relu's boolean sign mask and the
dropout's boolean keep mask. So a forward value that no backward reads is
freed as soon as the caller drops its tensor: the 23x384x32 hidden layer
of a frozen critic, say, once the next layer has run.

The sweep runs a node's closure once every node made from it has passed
its gradient on. As soon as the closure has run, the node drops its
gradient, parents and closure, so the sweep holds only the gradients still to be propagated
and the arrays still to be read. On ``train_default`` the graph holds
13 MB when the generator backward starts, and the step's traced peak is
19 MB; while nodes held their values and were released after the sweep,
these were 23 and 30 MB (``tools/step_memory.py``). A graph is therefore
backpropagated once; a later ``backward`` that reaches a consumed node
raises.

Design constraints honored throughout:
  * float64 everywhere (tight finite-difference checks stay meaningful),
  * elementwise ops and ``matmul``'s batch dims broadcast as in numpy; the
    backward pass sums each gradient back to its operand's shape,
  * tensors are treated as immutable once created and are safe to share
    read-only across threads; each graph is single-threaded.
"""

from __future__ import annotations

import contextlib
import contextvars
from typing import NamedTuple

import numpy as np

NORM_GRAD_EPS = 1e-8  # smooths d|x|/dx at the origin; value stays exact


class ShapeError(ValueError):
    """Operand shapes do not conform for the requested operation."""


class NumericalError(ArithmeticError):
    """Non-finite values encountered where finite ones are required."""


_POST = object()  # marks a finished node on Tensor.backward's traversal stack
_RECORDING = contextvars.ContextVar("recording", default=True)  # off inside no_grad()


def _consumed(g):
    """The backward closure of a node whose graph an earlier backward consumed."""
    raise RuntimeError("backward() through a graph that an earlier backward() consumed")


class _Grad:
    """What a backward closure adds a gradient into: a leaf tensor or a Node."""
    __slots__ = ("grad",)

    def _accum(self, g):
        if self.grad is None:
            self.grad = np.array(g, dtype=np.float64)  # private copy
        else:
            self.grad += g

    def _accum_fresh(self, g):
        """_accum for a gradient array no one else holds: adopted, not copied."""
        if self.grad is None:
            self.grad = g if type(g) is np.ndarray else np.array(g, dtype=np.float64)
        else:
            self.grad += g


class Node(_Grad):
    """A recorded op on the tape: the gradient flowing into it, its operands'
    nodes and its backward closure, but not its value."""
    __slots__ = ("_parents", "_backward_fn")

    def __init__(self, parents, backward_fn):
        self.grad = None
        self._parents = parents
        self._backward_fn = backward_fn


class Tensor(_Grad):
    """A value. A leaf is its own graph node, and ``grad`` is its gradient;
    an op's result refers to its ``Node``, which holds the gradient during
    the sweep."""
    __slots__ = ("data", "requires_grad", "name", "_node")

    def __init__(self, data, requires_grad=False, name=None, node=None):
        arr = np.asarray(data, dtype=np.float64)
        self.data = arr
        self.grad = None
        self.requires_grad = bool(requires_grad)
        self.name = name
        self._node = node

    # -- basic introspection -------------------------------------------------

    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self):
        return self.data.ndim

    @property
    def size(self):
        return self.data.size

    def item(self) -> float:
        if self.data.size != 1:
            raise ShapeError(f"item() needs a scalar tensor, got shape {self.shape}")
        return float(self.data.reshape(()))

    def __repr__(self):
        tag = f" name={self.name!r}" if self.name else ""
        return f"Tensor(shape={tuple(self.shape)}, requires_grad={self.requires_grad}{tag})"

    # -- autograd ------------------------------------------------------------

    @property
    def node(self):
        """This tensor's graph node: the tensor itself for a leaf."""
        return self if self._node is None else self._node

    @property
    def _parents(self):
        """The operands' nodes of this tensor's node; a leaf has none."""
        return () if self._node is None else self._node._parents

    def backward(self):
        """Reverse accumulation from this scalar into .grad of all leaves.

        Consumes the graph. Each node's closure runs once every node made
        after it has passed its gradient on; the node then drops its
        gradient, parents and closure, which frees the arrays only that
        closure read before the next node runs. Leaves keep their
        gradients. A node consumed by an earlier call raises RuntimeError
        here, before any gradient is touched.
        """
        if self.data.size != 1:
            raise ShapeError(f"backward() needs a scalar loss, got shape {self.shape}")
        root = self._node
        if root is None:        # a leaf: no graph to run
            self.grad = np.ones_like(self.data)
            return
        # depth-first post-order, visiting a node when it is popped (so a
        # node pushed twice goes where its latest push puts it); nodes hash
        # by identity. Leaves are left out: they have nothing to run and
        # reach nothing.
        order = []
        visited = set()
        stack = [root]
        while stack:
            node = stack.pop()
            if node is _POST:
                order.append(stack.pop())
                continue
            if node in visited:
                continue
            if node._backward_fn is _consumed:
                _consumed(None)    # raises before any gradient is touched
            visited.add(node)
            stack.append(node)
            stack.append(_POST)
            for p in node._parents:
                if type(p) is Node and p not in visited:
                    stack.append(p)
        root.grad = np.ones_like(self.data)
        while order:
            node = order.pop()
            if node.grad is not None:
                node._backward_fn(node.grad)
                node.grad = None
            node._parents = ()
            node._backward_fn = _consumed

    def detach(self) -> "Tensor":
        """Constant copy cut off from the graph (gradients stop here)."""
        return Tensor(self.data.copy())

    # -- operator sugar --------------------------------------------------------

    def __add__(self, other):
        return add(self, other)

    __radd__ = __add__

    def __neg__(self):
        return neg(self)

    def __sub__(self, other):
        return sub(self, other)

    def __rsub__(self, other):
        return sub(other, self)

    def __mul__(self, other):
        return mul(self, other)

    __rmul__ = __mul__

    def __truediv__(self, other):
        return div(self, other)

    def __rtruediv__(self, other):
        return div(as_tensor(other), self)

    def __matmul__(self, other):
        return matmul(self, other)

    def __getitem__(self, idx):
        return getitem(self, idx)


def as_tensor(x) -> Tensor:
    if isinstance(x, Tensor):
        return x
    return Tensor(np.asarray(x, dtype=np.float64))


def constant(x, name=None) -> Tensor:
    return Tensor(np.asarray(x, dtype=np.float64), requires_grad=False, name=name)


def parameter(x, name=None) -> Tensor:
    return Tensor(np.array(x, dtype=np.float64, copy=True), requires_grad=True, name=name)


@contextlib.contextmanager
def no_grad():
    """A scope in which ops record no graph: every result is a constant.

    Inference runs under it so that no node keeps its parents and backward
    closure alive. Recording is restored on exit, also when the scope
    raises; the setting is per thread (and per asyncio task). Usable as a
    decorator.
    """
    token = _RECORDING.set(False)
    try:
        yield
    finally:
        _RECORDING.reset(token)


def _grad_node(t):
    """``t``'s node if ``t`` needs a gradient, else None: what a backward
    closure captures of an operand, so that it never holds the tensor."""
    return (t._node or t) if t.requires_grad else None     # ``t.node``, inlined


def _node(data, operands, backward_fn):
    for t in operands:
        if t.requires_grad:
            if not _RECORDING.get():
                break
            return Tensor(data, True, None, Node(tuple([o._node or o for o in operands]), backward_fn))
    return Tensor(data)


def custom_op(data, parents, backward_fn) -> Tensor:
    """Record a node with a hand-written backward (for ops fused from primitives).

    ``parents`` are the operand tensors. ``backward_fn(g)`` must add each
    parent's gradient into that parent's node (``t.node``) with ``_accum``,
    or ``_accum_fresh`` for an array nothing else holds, when the parent
    has ``requires_grad`` set; ``_unbroadcast`` sums a gradient back to a
    value the forward pass broadcast. The closure should capture those
    nodes and only the arrays it reads, never the tensors: a captured
    tensor keeps its value alive until the sweep reaches the node. The
    node is a constant when no parent needs gradients.
    """
    return _node(data, tuple(parents), backward_fn)


def _unbroadcast(g, shape):
    """Sum a gradient of a broadcast result back down to an operand's ``shape``.

    Sums the leading axes the operand lacks and the axes where it has size 1
    (the rule in HIPS/autograd's numpy_vjps.py), in one reduction.
    """
    if g.shape == shape:
        return g
    lead = g.ndim - len(shape)
    axes = tuple(range(lead)) + tuple(lead + i for i, n in enumerate(shape)
                                      if n == 1 and g.shape[lead + i] != 1)
    return np.sum(g, axis=axes, keepdims=True).reshape(shape)


def _no_broadcast(opname, a, b):
    return ShapeError(f"{opname}: shapes {tuple(a.shape)} and {tuple(b.shape)} do not broadcast")


def _layout(x):
    """What ``np.zeros_like(x)`` needs of ``x``, without its values: its
    shape and, unless it is C-contiguous, its axes in numpy's keep order
    (decreasing |stride|, ties by axis number)."""
    if x.flags.c_contiguous:
        return x.shape, None
    return x.shape, sorted(range(x.ndim), key=lambda i: (-abs(x.strides[i]), i))


def _zeros(layout):
    """``np.zeros_like`` of the array ``_layout`` described: its shape and memory order."""
    shape, axes = layout
    if axes is None:
        return np.zeros(shape)
    return np.zeros([shape[i] for i in axes]).transpose(np.argsort(axes))


# -- elementwise arithmetic ----------------------------------------------------
# Operands broadcast as in numpy; shapes that do not broadcast raise ShapeError.


def add(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    try:
        out_data = a.data + b.data
    except ValueError:
        raise _no_broadcast("add", a, b) from None
    na, nb = _grad_node(a), _grad_node(b)
    a_shape, b_shape = a.shape, b.shape

    def backward_fn(g):
        if na is not None:
            na._accum(_unbroadcast(g, a_shape))
        if nb is not None:
            nb._accum(_unbroadcast(g, b_shape))

    return _node(out_data, (a, b), backward_fn)


def neg(a) -> Tensor:
    a = as_tensor(a)
    na = _grad_node(a)

    def backward_fn(g):
        na._accum_fresh(-g)

    return _node(-a.data, (a,), backward_fn)


def sub(a, b) -> Tensor:
    """a - b as one node; same values as add(a, neg(b))."""
    a, b = as_tensor(a), as_tensor(b)
    try:
        out_data = a.data - b.data
    except ValueError:
        raise _no_broadcast("sub", a, b) from None
    na, nb = _grad_node(a), _grad_node(b)
    a_shape, b_shape = a.shape, b.shape

    def backward_fn(g):
        if na is not None:
            na._accum(_unbroadcast(g, a_shape))
        if nb is not None:
            nb._accum_fresh(-_unbroadcast(g, b_shape))

    return _node(out_data, (a, b), backward_fn)


def mul(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    try:
        out_data = a.data * b.data
    except ValueError:
        raise _no_broadcast("mul", a, b) from None
    na, nb = _grad_node(a), _grad_node(b)
    a_shape, b_shape = a.shape, b.shape
    a_val = a.data if nb is not None else None     # each value is read for the other's gradient
    b_val = b.data if na is not None else None

    def backward_fn(g):
        if na is not None:
            na._accum_fresh(_unbroadcast(g * b_val, a_shape))
        if nb is not None:
            nb._accum_fresh(_unbroadcast(g * a_val, b_shape))

    return _node(out_data, (a, b), backward_fn)


def div(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    try:
        out_data = a.data / b.data
    except ValueError:
        raise _no_broadcast("div", a, b) from None
    na, nb = _grad_node(a), _grad_node(b)
    a_shape, b_shape = a.shape, b.shape
    a_val = a.data if nb is not None else None
    b_val = b.data

    def backward_fn(g):
        if na is not None:
            na._accum_fresh(_unbroadcast(g / b_val, a_shape))
        if nb is not None:
            nb._accum_fresh(_unbroadcast(-g * a_val / (b_val * b_val), b_shape))

    return _node(out_data, (a, b), backward_fn)


def exp(a) -> Tensor:
    a = as_tensor(a)
    out_data = np.exp(a.data)
    na = _grad_node(a)

    def backward_fn(g):
        na._accum_fresh(g * out_data)

    return _node(out_data, (a,), backward_fn)


def relu(a) -> Tensor:
    a = as_tensor(a)
    mask = a.data > 0.0
    na = _grad_node(a)

    def backward_fn(g):
        na._accum_fresh(g * mask)

    return _node(a.data * mask, (a,), backward_fn)


def l2_norm_rows(a) -> Tensor:
    """Per-row Euclidean norm of a 2-D tensor; zero rows get zero gradient."""
    a = as_tensor(a)
    if a.ndim != 2:
        raise ShapeError(f"l2_norm_rows needs a 2-D tensor, got shape {tuple(a.shape)}")
    a_val = a.data
    sq = np.sum(a_val * a_val, axis=1)
    val = np.sqrt(sq)
    na = _grad_node(a)

    def backward_fn(g):
        denom = np.sqrt(sq + NORM_GRAD_EPS)
        na._accum_fresh((g / denom)[:, None] * a_val)

    return _node(val, (a,), backward_fn)


# -- linear algebra and structure ------------------------------------------------


def _matmul(a, b, opname):
    """np.matmul of two >=2-D tensors' data, its batch dims broadcast."""
    a_shape, b_shape = a.data.shape, b.data.shape
    if len(a_shape) < 2 or len(b_shape) < 2:
        raise ShapeError(f"{opname} needs >=2-D operands, got {a_shape} @ {b_shape}")
    if a_shape[-1] != b_shape[-2]:
        raise ShapeError(f"{opname}: inner dims differ, {a_shape} @ {b_shape}")
    try:
        return np.matmul(a.data, b.data)
    except ValueError:
        raise ShapeError(f"{opname}: batch dims do not broadcast, {a_shape} @ {b_shape}") from None


def _matmul_backward(a, b):
    """The backward of ``a @ b`` as a function of its gradient ``g``. It keeps
    ``b``'s value only when ``a`` needs a gradient, and ``a``'s only when
    ``b`` does."""
    na, nb = _grad_node(a), _grad_node(b)
    a_shape, b_shape = a.shape, b.shape
    a_val = a.data if nb is not None else None
    b_val = b.data if na is not None else None

    def backward(g):
        if na is not None:
            na._accum_fresh(_unbroadcast(np.matmul(g, np.swapaxes(b_val, -1, -2)), a_shape))
        if nb is not None:
            nb._accum_fresh(_unbroadcast(np.matmul(np.swapaxes(a_val, -1, -2), g), b_shape))

    return backward


def matmul(a, b) -> Tensor:
    """Matrix product of >=2-D operands; leading (batch) dims broadcast as in np.matmul."""
    a, b = as_tensor(a), as_tensor(b)
    out_data = _matmul(a, b, "matmul")
    return _node(out_data, (a, b), _matmul_backward(a, b))


def matmul_add(a, b, c, relu=False, mask=None) -> Tensor:
    """a @ b + c as one node, with the values and gradients of add(matmul(a, b), c).

    ``c`` may be any shape that broadcasts to the product's, a (n,) bias say.
    A dense layer is one node too: with ``relu`` the result goes through a
    relu, and a ``DropoutMask`` ``mask`` (it gets no gradient) then scales
    it, giving the values and gradients of
    ``mul(relu(matmul_add(a, b, c)), mask.keep * mask.scale)`` bit for bit.
    The node keeps the relu's and the mask's boolean masks, not the
    pre-activation or the output.
    """
    a, b, c = as_tensor(a), as_tensor(b), as_tensor(c)
    prod = _matmul(a, b, "matmul_add")
    try:
        out_data = prod + c.data
        if out_data.shape != prod.shape:
            raise ValueError
    except ValueError:
        raise ShapeError(f"matmul_add: addend {c.data.shape} does not broadcast to "
                         f"product {prod.shape}") from None
    positive = None
    if relu:
        positive = out_data > 0.0
        out_data *= positive
    if mask is not None:
        out_data *= mask.scale
        out_data *= mask.keep
    nc = _grad_node(c)
    c_shape = c.shape
    product_backward = _matmul_backward(a, b) if a.requires_grad or b.requires_grad else None

    def backward_fn(g):
        if mask is not None:
            g = g * mask.scale
            g *= mask.keep
        if positive is not None:
            g = g * positive
        if nc is not None:
            nc._accum(_unbroadcast(g, c_shape))
        if product_backward is not None:
            # the product node of add(matmul(a, b), c) saw a private copy of g
            product_backward(g if g.flags.c_contiguous else np.array(g, dtype=np.float64))

    return _node(out_data, (a, b, c), backward_fn)


def broadcast_to(a, shape) -> Tensor:
    """``a`` broadcast to ``shape`` as a tensor of its own, for ops that do
    not broadcast (``concat``); the gradient sums back to ``a``'s shape."""
    a = as_tensor(a)
    shape = tuple(map(int, shape))
    out_data = np.broadcast_to(a.data, shape)
    na = _grad_node(a)
    a_shape = a.shape

    def backward_fn(g):
        na._accum(_unbroadcast(g, a_shape))

    return _node(out_data, (a,), backward_fn)


def reshape(a, shape) -> Tensor:
    a = as_tensor(a)
    shape = tuple(map(int, shape))
    old_shape = a.data.shape
    out_data = a.data.reshape(shape)
    na = _grad_node(a)

    def backward_fn(g):
        na._accum(g.reshape(old_shape))

    return _node(out_data, (a,), backward_fn)


def transpose(a, axes=None) -> Tensor:
    a = as_tensor(a)
    if axes is None:
        axes = tuple(reversed(range(a.ndim)))
    axes = tuple(int(x) for x in axes)
    inv = np.argsort(axes)
    na = _grad_node(a)

    def backward_fn(g):
        na._accum(np.transpose(g, inv))

    return _node(np.transpose(a.data, axes), (a,), backward_fn)


def concat(tensors, axis=0) -> Tensor:
    ts = [as_tensor(t) for t in tensors]
    if not ts:
        raise ShapeError("concat of an empty sequence")
    ref = ts[0].data.shape
    axis = int(axis) % max(len(ref), 1)
    head, tail = ref[:axis], ref[axis + 1:]
    offsets = [0]
    for t in ts:
        s = t.data.shape
        if len(s) != len(ref) or s[:axis] != head or s[axis + 1:] != tail:
            raise ShapeError(f"concat: shape {s} does not line up with {ref} along axis {axis}")
        offsets.append(offsets[-1] + s[axis])
    out_data = np.concatenate([t.data for t in ts], axis=axis)
    lead = (slice(None),) * axis
    nodes = [_grad_node(t) for t in ts]

    def backward_fn(g):
        for n, lo, hi in zip(nodes, offsets[:-1], offsets[1:]):
            if n is not None:
                n._accum(g[lead + (slice(lo, hi),)])

    return _node(out_data, tuple(ts), backward_fn)


def getitem(a, idx) -> Tensor:
    """Basic indexing with ints and unit-step slices."""
    a = as_tensor(a)
    if not isinstance(idx, tuple):
        idx = (idx,)
    for i in idx:
        if isinstance(i, slice):
            if i.step not in (None, 1):
                raise ShapeError("strided slicing is not supported")
        elif not isinstance(i, (int, np.integer)):
            raise ShapeError(f"unsupported index component {i!r}")
    out_data = a.data[idx]
    na = _grad_node(a)
    layout = _layout(a.data) if na is not None else None

    def backward_fn(g):
        # accumulate straight into the region: avoids one full-size
        # scratch buffer per slice node
        if na.grad is None:
            na.grad = _zeros(layout)
        na.grad[idx] += g

    return _node(out_data, (a,), backward_fn)


def gather_rows(a, indices) -> Tensor:
    """Select rows along axis 0 (duplicates allowed); one node per gather."""
    a = as_tensor(a)
    idx = np.asarray(indices, dtype=np.int64)
    if idx.ndim != 1:
        raise ShapeError(f"gather_rows needs a flat index list, got shape {idx.shape}")
    out_data = a.data[idx]
    na = _grad_node(a)
    layout = _layout(a.data) if na is not None else None

    def backward_fn(g):
        if na.grad is None:
            na.grad = _zeros(layout)
        np.add.at(na.grad, idx, g)

    return _node(out_data, (a,), backward_fn)


def _spread(g, shape):
    """A fresh array of ``shape`` filled from ``g`` by broadcasting."""
    out = np.empty(shape)
    out[...] = g
    return out


def sum_(a, axis=None, keepdims=False) -> Tensor:
    a = as_tensor(a)
    out_data = np.sum(a.data, axis=axis, keepdims=keepdims)
    in_shape = a.shape
    na = _grad_node(a)

    def backward_fn(g):
        na._accum_fresh(_spread(g if axis is None or keepdims else np.expand_dims(g, axis),
                                in_shape))

    return _node(out_data, (a,), backward_fn)


def mean_(a, axis=None, keepdims=False) -> Tensor:
    """sum_ then a scale by 1/count, as one node with the same values."""
    a = as_tensor(a)
    count = a.size if axis is None else a.shape[axis]
    inv = 1.0 / float(count)
    out_data = np.sum(a.data, axis=axis, keepdims=keepdims) * inv
    in_shape = a.shape
    na = _grad_node(a)

    def backward_fn(g):
        g = g * inv
        na._accum_fresh(_spread(g if axis is None or keepdims else np.expand_dims(g, axis),
                                in_shape))

    return _node(out_data, (a,), backward_fn)


# -- network building blocks -----------------------------------------------------


def conv1d(x, w, b) -> Tensor:
    """1-D convolution over time with zero 'same' padding.

    x: (..., C_in, T), w: (C_out, C_in, K) with odd K, b: (C_out,);
    the output is (..., C_out, T). Leading dims are a batch of independent
    sequences: the forward pass is one matmul broadcast over them, and the
    weight and bias gradients sum back over them. Output column t depends
    only on input columns [t-(K-1)/2, t+(K-1)/2] of its own sequence, which
    keeps receptive fields exact under zero padding.
    """
    x, w, b = as_tensor(x), as_tensor(w), as_tensor(b)
    if x.ndim < 2 or w.ndim != 3:
        raise ShapeError(f"conv1d: expected x (...,C,T) and w (Co,Ci,K), got {tuple(x.shape)} and {tuple(w.shape)}")
    *lead, c_in, t_len = x.shape
    c_out, c_in_w, k = w.shape
    if c_in_w != c_in:
        raise ShapeError(f"conv1d: channel mismatch, x has {c_in}, w expects {c_in_w}")
    if k % 2 != 1:
        raise ShapeError(f"conv1d: kernel size must be odd, got {k}")
    if b.shape != (c_out,):
        raise ShapeError(f"conv1d: bias shape {tuple(b.shape)} != ({c_out},)")
    pad = (k - 1) // 2
    xp = np.pad(x.data, ((0, 0),) * len(lead) + ((0, 0), (pad, pad)))
    # cols[..., i*k + j, t] = xp[..., i, t + j]
    cols = np.empty((*lead, c_in * k, t_len))
    for j in range(k):
        cols[..., j::k, :] = xp[..., :, j:j + t_len]
    x_shape, x_order = x.shape, "F" if xp.flags.fnc else "C"    # xp's memory order
    wmat = w.data.reshape(c_out, c_in * k)
    out_data = np.matmul(wmat, cols) + b.data[:, None]
    nx, nw, nb = _grad_node(x), _grad_node(w), _grad_node(b)
    if nw is None:
        cols = None     # read only for the weight gradient

    def backward_fn(g):
        if nw is not None:
            nw._accum_fresh(_unbroadcast(np.matmul(g, np.swapaxes(cols, -1, -2)),
                                         wmat.shape).reshape(c_out, c_in, k))
        if nb is not None:
            nb._accum_fresh(_unbroadcast(g.sum(axis=-1), (c_out,)))
        if nx is not None:
            dcols = np.matmul(wmat.T, g)  # (..., C_in*K, T)
            # the columns of the zero-padded input's gradient that x owns:
            # tap j adds dcols[..., j::k, s] into padded column s + j
            dx = np.zeros(x_shape, order=x_order)
            for j in range(k):
                lo, hi = max(0, j - pad), min(t_len, t_len + j - pad)
                if lo < hi:
                    dx[..., lo:hi] += dcols[..., j::k, lo + pad - j:hi + pad - j]
            nx._accum_fresh(dx)

    return _node(out_data, (x, w, b), backward_fn)


def group_norm(x, gamma, beta, n_groups: int, eps: float = 1e-5) -> Tensor:
    """Group normalization of a (..., C, T) map, statistics per group per time step.

    Normalizing within each time step (rather than across the whole sequence)
    keeps every output column a function of its own input column, so the conv
    stack's receptive field stays exact. Leading dims are a batch of
    independent sequences; the gamma and beta gradients sum back over them.

    One tape node. Forward and backward run, value for value and in the same
    order, the numpy operations of the composite graph (mean, centre,
    variance, divide, broadcast scale and shift) it replaces, so results are
    bit-identical to building that graph node by node.
    """
    x = as_tensor(x)
    gamma, beta = as_tensor(gamma), as_tensor(beta)
    *lead, c, t_len = x.shape
    if c % n_groups != 0:
        raise ShapeError(f"group_norm: {c} channels not divisible into {n_groups} groups")
    gsize = c // n_groups
    inv = 1.0 / float(gsize)
    xg = x.data.reshape(*lead, n_groups, gsize, t_len)
    centered = xg - np.sum(xg, axis=-2, keepdims=True) * inv                 # (..., G, gsize, T)
    var = np.sum(centered * centered, axis=-2, keepdims=True) * inv           # (..., G, 1, T)
    denom = np.sqrt(var + eps)
    normed = (centered / denom).reshape(x.shape)
    scale = gamma.data.reshape(c, 1)
    out_data = normed * scale + beta.data.reshape(c, 1)
    nx, ngamma, nbeta = _grad_node(x), _grad_node(gamma), _grad_node(beta)
    x_shape, gamma_shape, beta_shape = x.shape, gamma.shape, beta.shape
    if nx is None:
        centered = denom = None     # read only for x's gradient
    if ngamma is None:
        normed = None

    def backward_fn(g):
        if nx is not None:
            g_n = (g * scale).reshape(centered.shape)
            g_c = g_n / denom
            g_denom = _unbroadcast(-g_n * centered / (denom * denom), denom.shape)
            g_var = g_denom * 0.5 / denom
            g_sq = g_var * inv                  # spread over each group below
            g_c += g_sq * centered          # both factors of centered * centered
            g_c += g_sq * centered
            g_m = -_unbroadcast(g_c, denom.shape)
            g_xg = g_c.copy()
            g_xg += g_m * inv
            nx._accum_fresh(g_xg.reshape(x_shape))
        if ngamma is not None:
            ngamma._accum_fresh(_unbroadcast(np.sum(g * normed, axis=-1), gamma_shape))
        if nbeta is not None:
            nbeta._accum_fresh(_unbroadcast(np.sum(g, axis=-1), beta_shape))

    return _node(out_data, (x, gamma, beta), backward_fn)


class DropoutMask(NamedTuple):
    """A pre-sampled inverted-dropout mask: the units kept, and the scale
    1/(1-rate) they get."""
    keep: np.ndarray    # bool
    scale: float


def dropout_mask(rng: np.random.Generator, shape, rate: float) -> DropoutMask:
    """Draw an inverted-dropout mask for ``matmul_add``.

    Applying it as ``(x * scale) * keep`` gives ``x * (keep / (1 - rate))``,
    the 0-or-scale float mask, bit for bit (dropped entries keep x's sign as
    zeros and turn infinities into NaN, as a product with 0.0 does), while
    the mask takes one byte per entry, not eight. A rate of 0 or less keeps
    every unit at scale 1 and draws nothing.
    """
    if rate <= 0.0:
        return DropoutMask(np.ones(shape, dtype=bool), 1.0)
    return DropoutMask(rng.random(shape) >= rate, 1.0 / (1.0 - rate))


# -- verification -----------------------------------------------------------------


# relative error above which finite_diff_check refines a central difference;
# far below the gradcheck tolerances, so only coordinates near failing pay for
# the two extra evaluations
FD_REFINE_ABOVE = 1e-7


def zero_grads(tensors):
    for t in tensors:
        t.grad = None


def finite_diff_check(f, wrt, h: float = 1e-5, max_coords=None, rng=None) -> float:
    """Max relative error between analytic and finite-difference gradients.

    ``f`` is a deterministic zero-argument callable returning a scalar Tensor,
    closing over the tensors in ``wrt`` (a Tensor or list of Tensors). Error
    per coordinate is |analytic - numeric| / max(1, |numeric|); the max over
    all checked coordinates is returned. ``max_coords`` limits the number of
    coordinates probed per tensor (sampled with ``rng`` when set).

    The numeric value is the central difference D(h). Its O(h^2) truncation
    error grows with the third derivative, which is large on ill-conditioned
    inputs (a group_norm group of tiny variance, say), so a coordinate whose
    error exceeds FD_REFINE_ABOVE is re-estimated by Richardson extrapolation,
    (4 D(h/2) - D(h)) / 3, whose truncation error is O(h^4).
    """
    params = [wrt] if isinstance(wrt, Tensor) else list(wrt)
    zero_grads(params)
    out = f()
    if not isinstance(out, Tensor) or out.size != 1:
        raise ShapeError("finite_diff_check: f must return a scalar Tensor")
    out.backward()
    analytic = [np.zeros_like(p.data) if p.grad is None else p.grad.copy() for p in params]

    def central(p, base, c, step):
        bumped = base.copy().reshape(-1)
        bumped[c] = base.reshape(-1)[c] + step
        p.data = bumped.reshape(base.shape)
        f_plus = f().item()
        bumped[c] = base.reshape(-1)[c] - step
        p.data = bumped.reshape(base.shape)
        f_minus = f().item()
        p.data = base
        return (f_plus - f_minus) / (2.0 * step)

    worst = 0.0
    bad = []
    for p, an in zip(params, analytic):
        flat_n = p.size
        if max_coords is not None and flat_n > max_coords:
            if rng is None:
                rng = np.random.default_rng(0)
            coords = rng.choice(flat_n, size=max_coords, replace=False)
        else:
            coords = range(flat_n)
        base = p.data.copy()
        for c in coords:
            c = int(c)
            a = an.reshape(-1)[c]
            numeric = central(p, base, c, h)
            if abs(a - numeric) > FD_REFINE_ABOVE * max(1.0, abs(numeric)):
                numeric = (4.0 * central(p, base, c, 0.5 * h) - numeric) / 3.0
            if not (np.isfinite(numeric) and np.isfinite(a)):
                bad.append((p.name or "<unnamed>", c, a, numeric))
                continue
            err = abs(a - numeric) / max(1.0, abs(numeric))
            if err > worst:
                worst = err
    if bad:
        detail = ", ".join(f"{n}[{c}]: analytic={a!r} numeric={fd!r}" for n, c, a, fd in bad[:8])
        raise NumericalError(f"non-finite gradient entries: {detail}")
    return worst
