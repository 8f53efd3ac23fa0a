"""Dense float64 tensors with reverse-mode automatic differentiation.

Graphs are built define-by-run: every operation records its parents and a
backward closure, so tensor creation order is always a valid topological
order. Calling ``backward`` on a scalar accumulates dLoss/dX into ``.grad``
of every reachable leaf (a parameter) that has ``requires_grad`` set, and
consumes the graph it ran. An interior node's gradient is dropped as soon
as its backward closure has passed it on, so the sweep holds only the
gradients still to be propagated; once it ends, every interior node it
visited, the loss included, is left with no parents or backward closure,
so the forward arrays that only the tape held are freed. A graph is
therefore backpropagated once; a later ``backward`` that reaches a
consumed node raises.

A node keeps only what its backward reads. The dense layer
``mul(relu(a @ b + c), mask)`` is one ``matmul_add`` node, which keeps its
output and the relu's sign mask rather than the pre-activation and relu
output of three separate nodes.

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

import numpy as np

NORM_GRAD_EPS = 1e-8  # smooths d|x|/dx at the origin; value stays exact


class ShapeError(ValueError):
    """Operand shapes do not conform for the requested operation."""


class NumericalError(ArithmeticError):
    """Non-finite values encountered where finite ones are required."""


_POST = object()  # marks a finished tensor on Tensor.backward's traversal stack
_RECORDING = contextvars.ContextVar("recording", default=True)  # off inside no_grad()


def _consumed(g):
    """The backward closure of a node whose graph an earlier backward consumed."""
    raise RuntimeError("backward() through a graph that an earlier backward() consumed")


class Tensor:
    __slots__ = ("data", "grad", "requires_grad", "name", "_parents", "_backward_fn")

    def __init__(self, data, requires_grad=False, name=None, _parents=(), _backward_fn=None):
        arr = np.asarray(data, dtype=np.float64)
        self.data = arr
        self.grad = None
        self.requires_grad = bool(requires_grad)
        self.name = name
        self._parents = _parents
        self._backward_fn = _backward_fn

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

    def backward(self):
        """Reverse accumulation from this scalar into .grad of all leaves.

        Consumes the graph. Each interior node (this tensor included)
        drops its .grad as soon as its backward closure has run, so a
        gradient lives only until it is propagated; its parents and closure
        are dropped in one pass after the sweep. Leaves keep their
        gradients. A node consumed by an earlier call raises RuntimeError
        here, before any gradient is touched.
        """
        if self.data.size != 1:
            raise ShapeError(f"backward() needs a scalar loss, got shape {self.shape}")
        # depth-first post-order, visiting a tensor when it is popped (so a
        # tensor pushed twice goes where its latest push puts it); tensors
        # hash by identity. Leaves (no parents, no backward closure) are left
        # out: they have nothing to run and reach nothing.
        order = []
        visited = set()
        stack = [self]
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
                if (p._parents or p._backward_fn is not None) and p not in visited:
                    stack.append(p)
        self.grad = np.ones_like(self.data)
        for node in reversed(order):
            if node._backward_fn is not None and node.grad is not None:
                node._backward_fn(node.grad)
                node.grad = None
        for node in order:
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


def _node(data, parents, backward_fn):
    for p in parents:
        if p.requires_grad:
            if not _RECORDING.get():
                break
            return Tensor(data, True, None, tuple(parents), backward_fn)
    return Tensor(data)


def custom_op(data, parents, backward_fn) -> Tensor:
    """Record a node with a hand-written backward (for ops fused from primitives).

    ``backward_fn(g)`` must add each parent's gradient with ``_accum`` (or
    ``_accum_fresh`` for an array nothing else holds) when that parent has
    ``requires_grad`` set; ``_unbroadcast`` sums a gradient back to a value
    the forward pass broadcast. The node is a constant when no parent needs
    gradients.
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


# -- elementwise arithmetic ----------------------------------------------------
# Operands broadcast as in numpy; shapes that do not broadcast raise ShapeError.


def add(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    try:
        out_data = a.data + b.data
    except ValueError:
        raise _no_broadcast("add", a, b) from None

    def backward_fn(g):
        if a.requires_grad:
            a._accum(_unbroadcast(g, a.shape))
        if b.requires_grad:
            b._accum(_unbroadcast(g, b.shape))

    return _node(out_data, (a, b), backward_fn)


def neg(a) -> Tensor:
    a = as_tensor(a)

    def backward_fn(g):
        if a.requires_grad:
            a._accum_fresh(-g)

    return _node(-a.data, (a,), backward_fn)


def sub(a, b) -> Tensor:
    """a - b as one node; same values as add(a, neg(b))."""
    a, b = as_tensor(a), as_tensor(b)
    try:
        out_data = a.data - b.data
    except ValueError:
        raise _no_broadcast("sub", a, b) from None

    def backward_fn(g):
        if a.requires_grad:
            a._accum(_unbroadcast(g, a.shape))
        if b.requires_grad:
            b._accum_fresh(-_unbroadcast(g, b.shape))

    return _node(out_data, (a, b), backward_fn)


def mul(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    try:
        out_data = a.data * b.data
    except ValueError:
        raise _no_broadcast("mul", a, b) from None

    def backward_fn(g):
        if a.requires_grad:
            a._accum_fresh(_unbroadcast(g * b.data, a.shape))
        if b.requires_grad:
            b._accum_fresh(_unbroadcast(g * a.data, b.shape))

    return _node(out_data, (a, b), backward_fn)


def div(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    try:
        out_data = a.data / b.data
    except ValueError:
        raise _no_broadcast("div", a, b) from None

    def backward_fn(g):
        if a.requires_grad:
            a._accum_fresh(_unbroadcast(g / b.data, a.shape))
        if b.requires_grad:
            b._accum_fresh(_unbroadcast(-g * a.data / (b.data * b.data), b.shape))

    return _node(out_data, (a, b), backward_fn)


def exp(a) -> Tensor:
    a = as_tensor(a)
    out_data = np.exp(a.data)

    def backward_fn(g):
        if a.requires_grad:
            a._accum_fresh(g * out_data)

    return _node(out_data, (a,), backward_fn)


def relu(a) -> Tensor:
    a = as_tensor(a)
    mask = a.data > 0.0

    def backward_fn(g):
        if a.requires_grad:
            a._accum_fresh(g * mask)

    return _node(a.data * mask, (a,), backward_fn)


def l2_norm_rows(a) -> Tensor:
    """Per-row Euclidean norm of a 2-D tensor; zero rows get zero gradient."""
    a = as_tensor(a)
    if a.ndim != 2:
        raise ShapeError(f"l2_norm_rows needs a 2-D tensor, got shape {tuple(a.shape)}")
    sq = np.sum(a.data * a.data, axis=1)
    val = np.sqrt(sq)

    def backward_fn(g):
        if a.requires_grad:
            denom = np.sqrt(sq + NORM_GRAD_EPS)
            a._accum_fresh((g / denom)[:, None] * a.data)

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


def _matmul_backward(a, b, g):
    if a.requires_grad:
        a._accum_fresh(_unbroadcast(np.matmul(g, np.swapaxes(b.data, -1, -2)), a.shape))
    if b.requires_grad:
        b._accum_fresh(_unbroadcast(np.matmul(np.swapaxes(a.data, -1, -2), g), b.shape))


def matmul(a, b) -> Tensor:
    """Matrix product of >=2-D operands; leading (batch) dims broadcast as in np.matmul."""
    a, b = as_tensor(a), as_tensor(b)
    out_data = _matmul(a, b, "matmul")
    return _node(out_data, (a, b), lambda g: _matmul_backward(a, b, g))


def matmul_add(a, b, c, relu=False, mask=None) -> Tensor:
    """a @ b + c as one node, with the values and gradients of add(matmul(a, b), c).

    ``c`` may be any shape that broadcasts to the product's, a (n,) bias say.
    A dense layer is one node too: with ``relu`` the result goes through a
    relu, and a constant ``mask`` (a dropout mask, say; it gets no gradient)
    then scales it, giving the values and gradients of
    ``mul(relu(matmul_add(a, b, c)), mask)`` by the same operations in the
    same order. The node keeps its output and the relu's sign mask, not the
    pre-activation.
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
        mask = as_tensor(mask).data
        out_data *= mask

    def backward_fn(g):
        if mask is not None:
            g = g * mask
        if positive is not None:
            g = g * positive
        if c.requires_grad:
            c._accum(_unbroadcast(g, c.shape))
        if a.requires_grad or b.requires_grad:
            # the product node of add(matmul(a, b), c) saw a private copy of g
            _matmul_backward(a, b, g if g.flags.c_contiguous else np.array(g, dtype=np.float64))

    return _node(out_data, (a, b, c), backward_fn)


def broadcast_to(a, shape) -> Tensor:
    """``a`` broadcast to ``shape`` as a tensor of its own, for ops that do
    not broadcast (``concat``); the gradient sums back to ``a``'s shape."""
    a = as_tensor(a)
    shape = tuple(map(int, shape))
    out_data = np.broadcast_to(a.data, shape)

    def backward_fn(g):
        if a.requires_grad:
            a._accum(_unbroadcast(g, a.shape))

    return _node(out_data, (a,), backward_fn)


def reshape(a, shape) -> Tensor:
    a = as_tensor(a)
    shape = tuple(map(int, shape))
    old_shape = a.data.shape
    out_data = a.data.reshape(shape)

    def backward_fn(g):
        if a.requires_grad:
            a._accum(g.reshape(old_shape))

    return _node(out_data, (a,), backward_fn)


def transpose(a, axes=None) -> Tensor:
    a = as_tensor(a)
    if axes is None:
        axes = tuple(reversed(range(a.ndim)))
    axes = tuple(int(x) for x in axes)
    inv = np.argsort(axes)

    def backward_fn(g):
        if a.requires_grad:
            a._accum(np.transpose(g, inv))

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

    def backward_fn(g):
        for t, lo, hi in zip(ts, offsets[:-1], offsets[1:]):
            if t.requires_grad:
                t._accum(g[lead + (slice(lo, hi),)])

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

    def backward_fn(g):
        if a.requires_grad:
            # accumulate straight into the region: avoids one full-size
            # scratch buffer per slice node
            if a.grad is None:
                a.grad = np.zeros_like(a.data)
            a.grad[idx] += g

    return _node(out_data, (a,), backward_fn)


def gather_rows(a, indices) -> Tensor:
    """Select rows along axis 0 (duplicates allowed); one node per gather."""
    a = as_tensor(a)
    idx = np.asarray(indices, dtype=np.int64)
    if idx.ndim != 1:
        raise ShapeError(f"gather_rows needs a flat index list, got shape {idx.shape}")
    out_data = a.data[idx]

    def backward_fn(g):
        if a.requires_grad:
            if a.grad is None:
                a.grad = np.zeros_like(a.data)
            np.add.at(a.grad, idx, g)

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

    def backward_fn(g):
        if not a.requires_grad:
            return
        a._accum_fresh(_spread(g if axis is None or keepdims else np.expand_dims(g, axis),
                               in_shape))

    return _node(out_data, (a,), backward_fn)


def mean_(a, axis=None, keepdims=False) -> Tensor:
    """sum_ then a scale by 1/count, as one node with the same values."""
    a = as_tensor(a)
    count = a.size if axis is None else a.shape[axis]
    inv = 1.0 / float(count)
    out_data = np.sum(a.data, axis=axis, keepdims=keepdims) * inv
    in_shape = a.shape

    def backward_fn(g):
        if not a.requires_grad:
            return
        g = g * inv
        a._accum_fresh(_spread(g if axis is None or keepdims else np.expand_dims(g, axis),
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
    wmat = w.data.reshape(c_out, c_in * k)
    out_data = np.matmul(wmat, cols) + b.data[:, None]

    def backward_fn(g):
        if w.requires_grad:
            w._accum_fresh(_unbroadcast(np.matmul(g, np.swapaxes(cols, -1, -2)),
                                        wmat.shape).reshape(c_out, c_in, k))
        if b.requires_grad:
            b._accum_fresh(_unbroadcast(g.sum(axis=-1), b.shape))
        if x.requires_grad:
            dcols = np.matmul(wmat.T, g)  # (..., C_in*K, T)
            dxp = np.zeros_like(xp)
            for j in range(k):
                dxp[..., j:j + t_len] += dcols[..., j::k, :]
            x._accum_fresh(dxp[..., pad:pad + t_len] if pad else dxp)

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

    def backward_fn(g):
        if x.requires_grad:
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
            x._accum_fresh(g_xg.reshape(x.shape))
        if gamma.requires_grad:
            gamma._accum_fresh(_unbroadcast(np.sum(g * normed, axis=-1), gamma.shape))
        if beta.requires_grad:
            beta._accum_fresh(_unbroadcast(np.sum(g, axis=-1), beta.shape))

    return _node(out_data, (x, gamma, beta), backward_fn)


def dropout_mask(rng: np.random.Generator, shape, rate: float) -> Tensor:
    """Pre-sampled inverted-dropout mask: entries are 0 or 1/(1-rate)."""
    if rate <= 0.0:
        return constant(np.ones(shape))
    keep = rng.random(shape) >= rate
    return constant(keep / (1.0 - rate))


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
