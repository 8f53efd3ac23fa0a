import weakref
import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from meshmotion import autodiff as ad
from oracles import composite_group_norm, retained_backward, sin, sqrt


def rand(rng, *shape):
    return rng.standard_normal(shape)


# ---------------------------------------------------------------------------
# The finite-difference oracle itself: checked against hand-derived gradients
# before anything else trusts it.
# ---------------------------------------------------------------------------


def test_fd_oracle_on_sum_of_squares():
    p = ad.parameter(np.array([1.0, -2.0, 3.5, 0.25]), name="p")
    err = ad.finite_diff_check(lambda: ad.sum_(p * p), p)
    assert err < 1e-9


def test_fd_oracle_detects_wrong_gradient():
    p = ad.parameter(np.array([1.0, 2.0]), name="p")

    def wrong():
        # value x^2 but gradient claimed to be 3x
        out_data = p.data ** 2

        def backward_fn(g):
            p._accum(g * 3.0 * p.data)

        return ad.sum_(ad.custom_op(out_data, (p,), backward_fn))

    err = ad.finite_diff_check(wrong, p)
    assert err > 1e-2


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_fd_oracle_reports_nonfinite():
    p = ad.parameter(np.array([0.0, 1.0]), name="p")
    with pytest.raises(ad.NumericalError):      # d sqrt(p)/dp is infinite at 0
        ad.finite_diff_check(lambda: ad.sum_(sqrt(p)), p)


# ---------------------------------------------------------------------------
# Trivial backward identities.
# ---------------------------------------------------------------------------


def test_backward_sum_gives_ones():
    p = ad.parameter(np.arange(6.0).reshape(2, 3))
    ad.sum_(p).backward()
    assert np.array_equal(p.grad, np.ones((2, 3)))


def test_backward_sum_of_squares_gives_2p():
    rng = np.random.default_rng(0)
    p = ad.parameter(rand(rng, 3, 4))
    ad.sum_(p * p).backward()
    assert np.allclose(p.grad, 2 * p.data, atol=1e-15)


def test_backward_rejects_nonscalar_loss():
    p = ad.parameter(np.ones(3))
    with pytest.raises(ad.ShapeError):
        (p * p).backward()


# ---------------------------------------------------------------------------
# Forward values on the stated identity cases.
# ---------------------------------------------------------------------------


def test_matmul_identity():
    rng = np.random.default_rng(1)
    v = ad.constant(rand(rng, 3, 1))
    out = ad.matmul(ad.constant(np.eye(3)), v)
    assert np.array_equal(out.data, v.data)


def test_conv1d_identity_kernel():
    rng = np.random.default_rng(2)
    sig = ad.constant(rand(rng, 4, 9))
    w = np.zeros((4, 4, 1))
    for i in range(4):
        w[i, i, 0] = 1.0
    out = ad.conv1d(sig, ad.constant(w), ad.constant(np.zeros(4)))
    assert np.array_equal(out.data, sig.data)


def test_groupnorm_constant_input_is_zero_before_affine():
    x = ad.constant(np.full((8, 5), 3.25))
    out = ad.group_norm(x, ad.constant(np.ones(8)), ad.constant(np.zeros(8)), n_groups=1)
    assert np.max(np.abs(out.data)) < 1e-6


def test_no_grad_records_no_graph_and_restores_recording():
    p = ad.parameter(np.ones((2, 3)), name="p")
    with ad.no_grad():
        out = ad.relu(ad.matmul(p, ad.constant(np.ones((3, 2)))) * 2.0)
        fused = ad.matmul_add(p, ad.constant(np.ones((3, 2))), p[:, 0:2])
    for t in (out, fused):
        assert not t.requires_grad and t.node is t and t._parents == ()
    assert np.array_equal(out.data, np.full((2, 2), 6.0))
    with pytest.raises(RuntimeError, match="inside"):
        with ad.no_grad():
            raise RuntimeError("inside")
    out = p * 2.0
    assert out.requires_grad and out.node._parents[0] is p and out.node._backward_fn is not None
    ad.sum_(out).backward()
    assert np.array_equal(p.grad, np.full((2, 3), 2.0))


def test_shape_mismatch_reports_both_shapes():
    a = ad.constant(np.ones((2, 3)))
    b = ad.constant(np.ones((3, 3)))
    with pytest.raises(ad.ShapeError) as ei:
        ad.add(a, b)
    assert "(2, 3)" in str(ei.value) and "(3, 3)" in str(ei.value)
    with pytest.raises(ad.ShapeError):
        ad.matmul(a, ad.constant(np.ones((2, 2))))
    with pytest.raises(ad.ShapeError, match=r"\(2, 3, 4\) @ \(3, 4, 5\)"):
        ad.matmul(np.ones((2, 3, 4)), np.ones((3, 4, 5)))      # batch dims do not broadcast
    for addend in (np.ones((4, 3)), np.ones((5, 2, 3))):      # mismatched, or grows the product
        with pytest.raises(ad.ShapeError):
            ad.matmul_add(a, b, addend)


def test_batched_matmul_matches_loop():
    rng = np.random.default_rng(3)
    a = rand(rng, 5, 3, 4)
    b = rand(rng, 5, 4, 2)
    out = ad.matmul(ad.constant(a), ad.constant(b))
    ref = np.stack([a[i] @ b[i] for i in range(5)])
    assert np.allclose(out.data, ref, atol=1e-15)


# ---------------------------------------------------------------------------
# Random-input gradient checks, one per op with a backward rule.
# ---------------------------------------------------------------------------


def _fd_many(make_loss, make_params, trials, seed, tol=1e-4):
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(trials):
        params = make_params(rng)
        err = ad.finite_diff_check(lambda: make_loss(*params), params)
        worst = max(worst, err)
    assert worst < tol, f"worst relative error {worst}"


OP_CASES = {
    "add": (lambda a, b: ad.sum_(ad.mul(ad.add(a, b), ad.add(a, b))),
            lambda rng: [ad.parameter(rand(rng, 3, 2), name="a"), ad.parameter(rand(rng, 3, 2), name="b")]),
    "mul": (lambda a, b: ad.sum_(ad.mul(a, b)),
            lambda rng: [ad.parameter(rand(rng, 4), name="a"), ad.parameter(rand(rng, 4), name="b")]),
    "div": (lambda a, b: ad.sum_(ad.div(a, b)),
            lambda rng: [ad.parameter(rand(rng, 3), name="a"),
                         ad.parameter(rand(rng, 3) + 3.0, name="b")]),
    "scalar_mix": (lambda a, s: ad.sum_(ad.mul(ad.add(a, s), ad.add(a, s))),
                   lambda rng: [ad.parameter(rand(rng, 2, 3), name="a"), ad.parameter(rand(rng, 1), name="s")]),
    "matmul": (lambda a, b: ad.sum_(ad.mul(ad.matmul(a, b), ad.matmul(a, b))),
               lambda rng: [ad.parameter(rand(rng, 3, 4), name="a"), ad.parameter(rand(rng, 4, 2), name="b")]),
    "matmul_broadcast": (lambda a, b: ad.sum_(ad.mul(ad.matmul(a, b), ad.matmul(a, b))),
                         lambda rng: [ad.parameter(rand(rng, 4, 5), name="a"),
                                      ad.parameter(rand(rng, 2, 5, 3), name="b")]),
    "matmul_add_bias": (lambda a, b, c: ad.sum_(ad.mul(ad.matmul_add(a, b, c), ad.matmul_add(a, b, c))),
                        lambda rng: [ad.parameter(rand(rng, 3, 4), name="a"),
                                     ad.parameter(rand(rng, 4, 2), name="b"),
                                     ad.parameter(rand(rng, 2), name="c")]),
    "bmm": (lambda a, b: ad.sum_(ad.matmul(a, b)),
            lambda rng: [ad.parameter(rand(rng, 4, 2, 3), name="a"), ad.parameter(rand(rng, 4, 3, 2), name="b")]),
    "reshape_transpose": (lambda a: ad.sum_(ad.mul(ad.transpose(ad.reshape(a, (3, 4))), ad.constant(rand(np.random.default_rng(7), 4, 3)))),
                          lambda rng: [ad.parameter(rand(rng, 12), name="a")]),
    "concat_slice": (lambda a, b: ad.sum_(ad.mul(ad.concat([a, b], axis=1)[:, 1:4], ad.concat([a, b], axis=1)[:, 1:4])),
                     lambda rng: [ad.parameter(rand(rng, 2, 3), name="a"), ad.parameter(rand(rng, 2, 2), name="b")]),
    "relu": (lambda a: ad.sum_(ad.relu(a)),
             lambda rng: [ad.parameter(rand(rng, 5, 5) + 0.05, name="a")]),
    "dropout_apply": (lambda a: ad.sum_(ad.matmul_add(a, ad.constant(np.eye(4)), 0.0,
                                                      mask=ad.dropout_mask(np.random.default_rng(11), (4, 4), 0.5))),
                      lambda rng: [ad.parameter(rand(rng, 4, 4), name="a")]),
    "mean_axis": (lambda a: ad.sum_(ad.mul(ad.mean_(a, axis=1, keepdims=True), ad.mean_(a, axis=1, keepdims=True))),
                  lambda rng: [ad.parameter(rand(rng, 3, 5), name="a")]),
    "exp": (lambda a: ad.sum_(ad.mul(ad.exp(a), a)),
            lambda rng: [ad.parameter(rand(rng, 4), name="a")]),
    # the oracles' sin and sqrt; cos(a) is sin(a + pi/2)
    "sin_cos": (lambda a: ad.sum_(ad.mul(sin(a), sin(ad.add(a, np.pi / 2)))),
                lambda rng: [ad.parameter(rand(rng, 6), name="a")]),
    "sqrt": (lambda a: ad.sum_(sqrt(a)),
             lambda rng: [ad.parameter(rand(rng, 4) ** 2 + 0.5, name="a")]),
    "conv1d": (lambda x, w, b: ad.sum_(ad.mul(ad.conv1d(x, w, b), ad.conv1d(x, w, b))),
               lambda rng: [ad.parameter(rand(rng, 3, 7), name="x"),
                            ad.parameter(rand(rng, 2, 3, 3), name="w"),
                            ad.parameter(rand(rng, 2), name="b")]),
    "conv1d_batched": (lambda x, w, b: ad.sum_(ad.mul(ad.conv1d(x, w, b), ad.conv1d(x, w, b))),
                       lambda rng: [ad.parameter(rand(rng, 2, 3, 9), name="x"),
                                    ad.parameter(rand(rng, 2, 3, 3), name="w"),
                                    ad.parameter(rand(rng, 2), name="b")]),
    "group_norm_batched": (lambda x, g, b: ad.sum_(ad.mul(ad.group_norm(x, g, b, 2),
                                                          ad.group_norm(x, g, b, 2))),
                           lambda rng: [ad.parameter(rand(rng, 2, 4, 6), name="x"),
                                        ad.parameter(rand(rng, 4) + 1.0, name="g"),
                                        ad.parameter(rand(rng, 4), name="b")]),
    "group_norm": (lambda x, g, b: ad.sum_(ad.mul(ad.group_norm(x, g, b, 2), ad.group_norm(x, g, b, 2))),
                   lambda rng: [ad.parameter(rand(rng, 4, 5), name="x"),
                                ad.parameter(rand(rng, 4) + 1.0, name="g"),
                                ad.parameter(rand(rng, 4), name="b")]),
    "l2_norm_rows": (lambda a: ad.sum_(ad.l2_norm_rows(a)),
                     lambda rng: [ad.parameter(rand(rng, 4, 3) + 1.5, name="a")]),
}

# elementwise ops on broadcast shapes, gradients on both operands; the
# divisor is kept away from zero
OP_CASES.update({
    f"{name}_broadcast_{len(sa)}d": (
        lambda a, b, fn=fn: ad.sum_(ad.mul(fn(a, b), fn(a, b))),
        lambda rng, sa=sa, sb=sb: [ad.parameter(rand(rng, *sa), name="a"),
                                   ad.parameter(rand(rng, *sb) + 3.0, name="b")])
    for name, fn in (("add", ad.add), ("sub", ad.sub), ("mul", ad.mul), ("div", ad.div))
    for sa, sb in (((4, 3), (3,)), ((4, 1, 3), (2, 3)))})


@pytest.mark.parametrize("opname", sorted(OP_CASES))
def test_op_gradients_match_finite_differences(opname):
    make_loss, make_params = OP_CASES[opname]
    _fd_many(make_loss, make_params, trials=100, seed=zlib.crc32(opname.encode()))


# ---------------------------------------------------------------------------
# Fused nodes: each must give the values and gradients of the primitive graph
# it replaces bit for bit (same operations, same accumulation order).
# ---------------------------------------------------------------------------

FUSED_CASES = {
    "sub": (lambda a, b: a - b, lambda a, b: ad.add(a, ad.neg(b)), [(3, 4), (3, 4)]),
    "sub_scalar": (lambda a, b: a - b, lambda a, b: ad.add(a, ad.neg(b)), [(3, 4), ()]),
    "rsub_float": (lambda a: 2.0 - a, lambda a: ad.add(2.0, ad.neg(a)), [(5,)]),
    "mean_all": (lambda a: ad.mean_(a), lambda a: ad.mul(ad.sum_(a), 1.0 / 12), [(3, 4)]),
    "mean_axis": (lambda a: ad.mean_(a, axis=1),
                  lambda a: ad.mul(ad.sum_(a, axis=1), 1.0 / 4), [(3, 4)]),
    "mean_keepdims": (lambda a: ad.mean_(a, axis=0, keepdims=True),
                      lambda a: ad.mul(ad.sum_(a, axis=0, keepdims=True), 1.0 / 3), [(3, 4)]),
    "group_norm": (lambda x, g, b: ad.group_norm(x, g, b, 2),
                   lambda x, g, b: composite_group_norm(x, g, b, 2), [(6, 5), (6,), (6,)]),
    "matmul_add": (lambda a, b, c: ad.matmul_add(a, b, c),
                   lambda a, b, c: ad.add(ad.matmul(a, b), c), [(3, 4), (4, 5), (3, 5)]),
    "matmul_add_bias": (lambda a, b, c: ad.matmul_add(a, b, c),
                        lambda a, b, c: ad.add(ad.matmul(a, b), c), [(2, 3, 4), (2, 4, 5), (5,)]),
}


@pytest.mark.parametrize("name", sorted(FUSED_CASES))
def test_fused_node_matches_composite_graph_bit_for_bit(name):
    fused, composite, shapes = FUSED_CASES[name]
    rng = np.random.default_rng(zlib.crc32(name.encode()))
    params = [ad.parameter(rng.standard_normal(s), name=f"p{i}") for i, s in enumerate(shapes)]
    probe = None
    results = []
    for build in (fused, composite):
        ad.zero_grads(params)
        out = build(*params)
        if probe is None:
            probe = ad.constant(rng.standard_normal(out.shape))
        ad.sum_(ad.mul(out, probe)).backward()
        results.append([out.data.copy()] + [p.grad.copy() for p in params])
    for got, want in zip(*results):
        assert got.shape == want.shape and np.array_equal(got, want)


@pytest.mark.parametrize("name", sorted(FUSED_CASES))
def test_consuming_backward_gives_the_retained_sweeps_leaf_gradients_bit_for_bit(name):
    """Releasing the graph after the sweep changes no arithmetic: on the fused
    and the composite graph alike, every leaf gradient equals the one a sweep
    that keeps the graph computes."""
    for build in FUSED_CASES[name][:2]:
        results = []
        for sweep in (ad.Tensor.backward, retained_backward):
            rng = np.random.default_rng(zlib.crc32(name.encode()))
            params = [ad.parameter(rng.standard_normal(s), name=f"p{i}")
                      for i, s in enumerate(FUSED_CASES[name][2])]
            out = build(*params)
            sweep(ad.sum_(ad.mul(out, ad.constant(rng.standard_normal(out.shape)))))
            results.append([p.grad for p in params])
        for got, want in zip(*results):
            assert got.shape == want.shape and np.array_equal(got, want)


@pytest.mark.parametrize("masked", [False, True], ids=["relu", "relu_mask"])
def test_dense_node_matches_relu_and_mask_nodes_bit_for_bit(masked):
    """matmul_add with relu (and a dropout mask) gives the value and all three
    gradients of mul(relu(matmul_add(a, b, c)), mask) bit for bit, on rows
    whose pre-activation is negative, exactly zero, positive or mixed."""
    rng = np.random.default_rng(21)
    c = rng.uniform(1.0, 2.0, 5)
    b = rand(rng, 4, 5)
    b[3] = -c                             # a row e_3 * k has pre-activation (1 - k) c, exactly
    a = np.vstack([[0.0, 0.0, 0.0, 2.0], [0.0, 0.0, 0.0, 1.0], np.zeros(4), rand(rng, 3, 4)])
    pre = a @ b + c
    assert (pre[0] < 0).all() and (pre[1] == 0).all() and (pre[2] > 0).all()
    assert (pre[3:] < 0).any() and (pre[3:] > 0).any()
    mask = ad.dropout_mask(rng, pre.shape, 0.4) if masked else None
    probe = ad.constant(rand(rng, *pre.shape))
    results = []
    for fused in (True, False):
        params = [ad.parameter(x, name=n) for x, n in ((a, "a"), (b, "b"), (c, "c"))]
        if fused:
            out = ad.matmul_add(*params, relu=True, mask=mask)
        else:
            out = ad.relu(ad.matmul_add(*params))
            if masked:      # the 0-or-1/(1-rate) float mask
                out = ad.mul(out, mask.keep * mask.scale)
        value = out.data.copy()
        ad.sum_(ad.mul(out, probe)).backward()
        results.append([value] + [p.grad for p in params])
    for got, want in zip(*results):   # bytes, so that -0.0 and 0.0 differ
        assert got.shape == want.shape and got.tobytes() == want.tobytes()


# ---------------------------------------------------------------------------
# Structural invariants.
# ---------------------------------------------------------------------------


def test_backward_drops_each_gradient_once_it_is_propagated():
    """When a node's backward closure runs, every interior node whose closure
    ran before it already has no gradient, and the leaves keep theirs; the
    leaf gradients are those of a sweep that keeps every gradient."""
    def build():
        rng = np.random.default_rng(9)
        x = ad.parameter(rand(rng, 4, 3), name="x")
        w = ad.parameter(rand(rng, 3, 3), name="w")
        bias = ad.parameter(rand(rng, 3), name="bias")
        h = ad.matmul_add(x, w, bias, relu=True)
        h = ad.matmul_add(h, w, bias, relu=True, mask=ad.dropout_mask(rng, (4, 3), 0.3))
        loss = ad.sum_(ad.mul(h, ad.exp(x))) + ad.mean_(x[:, 1:] * x[:, 1:])
        return loss, [x, w, bias]

    loss, leaves = build()
    interior, stack = set(), [loss.node]
    while stack:
        node = stack.pop()
        if type(node) is ad.Node and node not in interior:
            interior.add(node)
            stack.extend(node._parents)
    ran, graded = [], []       # nodes whose closure ran; leaves that got a gradient

    def watched(node, fn):
        def backward_fn(g):
            assert all(t.grad is None for t in ran)
            assert all(leaf.grad is not None for leaf in graded)
            fn(g)
            ran.append(node)
            graded[:] = [leaf for leaf in leaves if leaf.grad is not None]
        return backward_fn

    for node in interior:
        node._backward_fn = watched(node, node._backward_fn)
    loss.backward()
    assert len(ran) == len(interior) and all(t.grad is None for t in interior)
    assert graded == leaves
    want_loss, want_leaves = build()
    retained_backward(want_loss)
    for got, want in zip(leaves, want_leaves):
        assert np.array_equal(got.grad, want.grad)


def test_backward_consumes_its_graph_and_keeps_leaf_gradients():
    rng = np.random.default_rng(7)
    p = ad.parameter(rand(rng, 3, 4), name="p")
    q = ad.parameter(rand(rng, 4, 2), name="q")
    hidden = ad.relu(ad.matmul_add(p, q, 0.5))
    freed = weakref.ref(hidden.data)       # no node holds it once ``hidden`` goes
    scaled = hidden * ad.constant(rand(rng, 3, 2))
    loss = ad.sum_(scaled)
    interior = [scaled.node, loss.node]
    del hidden
    loss.backward()
    for node in interior:
        assert node.grad is None and node._parents == ()
        assert getattr(node._backward_fn, "__closure__", None) is None
    assert freed() is None
    assert p.grad.shape == (3, 4) and q.grad.shape == (4, 2)


def test_a_value_no_backward_reads_is_freed_when_its_tensor_goes():
    """A relu dense layer over a constant weight, fed to a second
    constant-weight layer: no node keeps the first layer's output, so it is
    freed as soon as the caller drops it, before backward runs, and the
    gradient is the one computed with the output kept."""
    grads = []
    for drop in (True, False):
        rng = np.random.default_rng(31)
        x = ad.parameter(rand(rng, 5, 4), name="x")
        hidden = ad.matmul_add(x, ad.constant(rand(rng, 4, 6)), ad.constant(rand(rng, 6)), relu=True)
        out = ad.matmul_add(hidden, ad.constant(rand(rng, 6, 3)), ad.constant(rand(rng, 3)))
        if drop:
            freed = weakref.ref(hidden.data)
            del hidden
            assert freed() is None
        ad.sum_(out).backward()
        grads.append(x.grad)
    assert grads[0].tobytes() == grads[1].tobytes()


def test_the_sweep_frees_an_array_once_the_only_closure_reading_it_has_run():
    """exp's node is the only holder of its output; a node made before it,
    whose closure the sweep runs later, finds that output already freed."""
    rng = np.random.default_rng(32)
    x = ad.parameter(rand(rng, 3, 4), name="x")
    seen = []

    def check(g):
        seen.append(freed() is None)
        x._accum(g)

    y = ad.exp(ad.custom_op(x.data.copy(), (x,), check))
    freed = weakref.ref(y.data)
    loss = ad.sum_(y)
    del y
    assert freed() is not None
    loss.backward()
    assert seen == [True]
    assert np.array_equal(x.grad, np.exp(x.data))


@pytest.mark.parametrize("rate", [0.1, 0.3, 0.5, 0.7])
@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
def test_dropout_mask_applies_as_its_float_mask_bit_for_bit(rate):
    """The mask keeps the draw ``rng.random(shape) >= rate`` as booleans and
    the scale 1/(1-rate); (x * scale) * keep equals x times the 0-or-scale
    float mask bit for bit, on zeros of both signs and infinities too."""
    mask = ad.dropout_mask(np.random.default_rng(5), (6, 8), rate)
    keep = np.random.default_rng(5).random((6, 8)) >= rate
    assert mask.keep.dtype == bool and np.array_equal(mask.keep, keep)
    assert mask.scale == 1.0 / (1.0 - rate)
    x = rand(np.random.default_rng(6), 6, 8) * 1e3
    x[:4] = np.resize([0.0, -0.0, np.inf, -np.inf], (4, 8))
    assert keep[:4].any() and not keep[:4].all()
    want = x * (keep / (1.0 - rate))
    assert ((x * mask.scale) * mask.keep).tobytes() == want.tobytes()


def test_conv1d_input_gradient_is_its_own_array_with_the_padded_buffers_values():
    """The input gradient is an array of the input's size, not a view that
    keeps the padded buffer alive, and holds the padded buffer's middle
    columns bit for bit, also for sequences shorter than the padding."""
    for t_len, k in ((7, 3), (6, 5), (1, 5), (4, 1)):
        rng = np.random.default_rng(t_len * 10 + k)
        x = ad.parameter(rand(rng, 2, 3, t_len), name="x")
        w = ad.parameter(rand(rng, 4, 3, k), name="w")
        out = ad.conv1d(x, w, ad.parameter(rand(rng, 4), name="b"))
        g = rand(rng, *out.shape)
        ad.sum_(ad.mul(out, g)).backward()
        pad = (k - 1) // 2
        dcols = np.matmul(w.data.reshape(4, 3 * k).T, g)
        dxp = np.zeros((2, 3, t_len + 2 * pad))
        for j in range(k):
            dxp[..., j:j + t_len] += dcols[..., j::k, :]
        assert x.grad.base is None and x.grad.shape == x.shape
        assert x.grad.tobytes() == dxp[..., pad:pad + t_len].tobytes()


def test_slice_gradients_take_the_memory_order_zeros_like_gives():
    """getitem and gather_rows build an operand's gradient from its shape and
    strides alone, in the memory order np.zeros_like(operand) would have."""
    base = np.arange(120.0).reshape(2, 3, 4, 5)
    for view in (base, base.transpose(0, 2, 3, 1), base.T, base[:, :, 1:, ::-1],
                 base[0, :, 0].T, base[:, 1]):
        got = ad._zeros(ad._layout(view))
        want = np.zeros_like(view)
        assert got.shape == want.shape and got.strides == want.strides and not got.any()


def test_backward_through_a_consumed_graph_raises_before_touching_gradients():
    p = ad.parameter(np.array([1.0, -2.0, 3.0]), name="p")
    y = p * p
    loss = ad.sum_(y)
    loss.backward()
    grad = p.grad.copy()
    with pytest.raises(RuntimeError, match="consumed"):
        loss.backward()
    with pytest.raises(RuntimeError, match="consumed"):
        ad.sum_(y * 3.0 + p).backward()     # a new graph that reaches a consumed node
    assert np.array_equal(p.grad, grad)
    ad.sum_(p * p).backward()                 # a fresh graph over the same leaf still runs
    assert np.array_equal(p.grad, 2.0 * grad)


def test_determinism_bit_identical():
    def run():
        rng = np.random.default_rng(42)
        a = ad.parameter(rand(rng, 6, 6), name="a")
        b = ad.parameter(rand(rng, 6, 6), name="b")
        loss = ad.sum_(ad.relu(ad.matmul(a, b)) * sin(a))
        loss.backward()
        return loss.data.copy(), a.grad.copy(), b.grad.copy()

    l1, ga1, gb1 = run()
    l2, ga2, gb2 = run()
    assert np.array_equal(l1, l2)
    assert np.array_equal(ga1, ga2)
    assert np.array_equal(gb1, gb2)


def test_backward_linearity():
    rng = np.random.default_rng(5)
    base = rand(rng, 4)
    a_coef, b_coef = 2.5, -1.25

    def grad_of(fn):
        p = ad.parameter(base.copy())
        fn(p).backward()
        return p.grad

    f = lambda p: ad.sum_(p * p)
    g = lambda p: ad.sum_(sin(p))
    combined = lambda p: a_coef * f(p) + b_coef * g(p)
    lhs = grad_of(combined)
    rhs = a_coef * grad_of(f) + b_coef * grad_of(g)
    assert np.max(np.abs(lhs - rhs)) < 1e-10


def test_gradient_accumulates_over_reuse():
    p = ad.parameter(np.array([2.0]))
    y = p * p + p * 3.0
    ad.sum_(y).backward()
    assert np.allclose(p.grad, [7.0])


def test_detach_blocks_gradient():
    p = ad.parameter(np.array([1.0, 2.0]))
    y = ad.sum_(p.detach() * p)
    y.backward()
    assert np.allclose(p.grad, p.data)  # only the live branch contributes


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_mean_sum_consistency(seed):
    rng = np.random.default_rng(seed)
    x = rand(rng, 3, 4)
    t = ad.constant(x)
    assert ad.mean_(t).item() == pytest.approx(x.mean(), rel=1e-12)
    assert ad.sum_(t, axis=0).data == pytest.approx(x.sum(axis=0), rel=1e-12)
