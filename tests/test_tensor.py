import numpy as np
import pytest

from promptscan.errors import ContractError, DimensionError
from promptscan.tensor import (
    Tensor,
    _tap_sum,
    _unshuffle_fwd,
    absolute,
    add,
    conv2d,
    layer_norm_linear,
    linear_silu_linear,
    matmul,
    mul,
    pixel_shuffle,
    separable_map,
    sigmoid,
    sub,
)

from oracles import layer_norm, linear, silu, softmax, softplus, transpose


def test_broadcast_gradients_unbroadcast_to_leaf_shapes():
    rng = np.random.default_rng(0)
    x = Tensor(rng.standard_normal((3, 1)), requires_grad=True)
    y = Tensor(rng.standard_normal((1, 4)), requires_grad=True)
    (x * y).sum().backward()
    assert x.grad.shape == (3, 1)
    assert y.grad.shape == (1, 4)
    np.testing.assert_allclose(x.grad, np.full((3, 1), y.data.sum()))
    np.testing.assert_allclose(y.grad, np.full((1, 4), x.data.sum()))


def test_backward_requires_scalar():
    x = Tensor(np.ones((2, 2)), requires_grad=True)
    with pytest.raises(ContractError):
        (x * 2.0).backward()


def test_grad_accumulates_across_branches():
    x = Tensor(np.array([1.5]), requires_grad=True)
    y = x * 3.0 + x * 2.0
    y.sum().backward()
    assert x.grad[0] == 5.0


def test_matmul_shape_error_names_both_operands():
    a = Tensor(np.zeros((2, 3)))
    b = Tensor(np.zeros((4, 5)))
    with pytest.raises(DimensionError) as err:
        matmul(a, b)
    assert "(2, 3)" in str(err.value) and "(4, 5)" in str(err.value)


def test_index_backward_scatters_into_slice():
    x = Tensor(np.zeros((2, 5)), requires_grad=True)
    x[:, 1:3].sum().backward()
    expected = np.zeros((2, 5))
    expected[:, 1:3] = 1.0
    np.testing.assert_array_equal(x.grad, expected)


_BASE = np.arange(360.0).reshape(3, 4, 5, 6)


@pytest.mark.parametrize(
    "view",
    [
        _BASE,
        _BASE.transpose(0, 2, 3, 1),  # channels-last behind an NCHW view
        np.asfortranarray(_BASE[:, :1]),
        _BASE[:, ::2, :, ::-1],
        _BASE.transpose(1, 0, 3, 2)[:, :1],
    ],
)
def test_index_gradient_has_the_same_bytes_for_every_input_view(view):
    # the node keeps the input's shape, not its array or its layout
    x = Tensor(view, requires_grad=True)
    x[:, :, 1:, :2].sum().backward()
    want = np.zeros(view.shape)
    want[:, :, 1:, :2] = 1.0
    assert x.grad.flags.c_contiguous
    assert x.grad.tobytes() == want.tobytes()


def test_absolute_and_clamp_subgradients():
    x = Tensor(np.array([-1.5, 0.0, 2.0]), requires_grad=True)
    absolute(x).sum().backward()
    np.testing.assert_array_equal(x.grad, [-1.0, 0.0, 1.0])


def test_softmax_rows_sum_to_one_and_shift_invariance():
    x = np.array([[1.0, 2.0, 3.0], [0.0, 0.0, 1000.0]])
    s = softmax(Tensor(x), axis=-1)
    np.testing.assert_allclose(s.data.sum(axis=-1), 1.0, atol=1e-15)
    s_shift = softmax(Tensor(x + 50.0), axis=-1)
    np.testing.assert_allclose(s.data, s_shift.data, atol=1e-12)
    assert s.data[1, 2] == 1.0  # extreme logits do not overflow


def test_layer_norm_output_is_normalized():
    rng = np.random.default_rng(1)
    x = Tensor(rng.standard_normal((4, 6)) * 7 + 3)
    g = Tensor(np.ones(6))
    b = Tensor(np.zeros(6))
    out = layer_norm(x, g, b).data
    np.testing.assert_allclose(out.mean(axis=-1), 0.0, atol=1e-12)
    np.testing.assert_allclose(out.var(axis=-1), 1.0, atol=1e-4)  # limited by eps


def test_layer_norm_rejects_bad_eps_and_affine_shape():
    x = Tensor(np.zeros((2, 4)))
    with pytest.raises(DimensionError):
        layer_norm(x, Tensor(np.ones(3)), Tensor(np.zeros(4)))


def _rsqrt(a):
    """a ** -0.5 as the one-node power the chain below took; the engine
    has no power op."""
    ad = a.data
    return Tensor._from_op(ad**-0.5, (a,), lambda g: (g * -0.5 * ad**-1.5,))


def _last_axis_mean(a):
    """The mean over the trailing axis, kept, as the one-node mean the
    chain below took; the engine's ``tmean`` covers the whole tensor."""
    shape = a.shape
    return Tensor._from_op(
        a.data.mean(axis=-1, keepdims=True),
        (a,),
        lambda g: (np.broadcast_to(g, shape).copy() / shape[-1],),
    )


def composite_layer_norm(x, gamma, beta):
    """The nine-node chain layer_norm replaced, built from engine ops,
    :func:`_last_axis_mean` and :func:`_rsqrt`."""
    mu = _last_axis_mean(x)
    centered = sub(x, mu)
    var = _last_axis_mean(mul(centered, centered))
    inv = _rsqrt(add(var, 1e-5))
    return add(mul(mul(centered, inv), gamma), beta)


@pytest.mark.parametrize("shape", [(4, 256, 32), (3, 6), (1, 1, 5)])
def test_layer_norm_is_one_node_matching_the_composite_chain(shape):
    rng = np.random.default_rng(sum(shape))
    x0 = rng.standard_normal(shape) * 3.0 + 1.0
    g0 = rng.uniform(0.5, 1.5, shape[-1])
    b0 = rng.standard_normal(shape[-1])
    w = Tensor(rng.standard_normal(shape))
    results = []
    for fn in (layer_norm, composite_layer_norm):
        x, g, b = (Tensor(v, requires_grad=True) for v in (x0, g0, b0))
        out = fn(x, g, b)
        if fn is layer_norm:
            assert len(out._parents) == 3
            assert all(p is q for p, q in zip(out._parents, (x, g, b)))
        (out * w).sum().backward()
        results.append((out.data, x.grad, g.grad, b.grad))
    (out, *grads), (ref, *ref_grads) = results
    assert out.tobytes() == ref.tobytes()
    for got, want in zip(grads, ref_grads):
        assert got.shape == want.shape
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


def _nhwc(a):
    """An NCHW array as the C-contiguous NHWC map that conv2d and
    pixel_shuffle take; the oracles below stay NCHW."""
    return np.ascontiguousarray(a.transpose(0, 2, 3, 1))


def _nchw(a):
    """An NHWC result in the NCHW layout of the oracles."""
    return a.transpose(0, 3, 1, 2)


def test_conv2d_matches_direct_convolution():
    rng = np.random.default_rng(2)
    x = rng.standard_normal((1, 2, 5, 6))
    k = rng.standard_normal((3, 2, 3, 3))
    out = _nchw(conv2d(Tensor(_nhwc(x)), Tensor(k), pad=1).data)

    ref = np.zeros((1, 3, 5, 6))
    xp = np.pad(x, ((0, 0), (0, 0), (1, 1), (1, 1)))
    for o in range(3):
        for i in range(5):
            for j in range(6):
                ref[0, o, i, j] = np.sum(xp[0, :, i : i + 3, j : j + 3] * k[o])
    np.testing.assert_allclose(out, ref, atol=1e-12)


def test_conv2d_rejects_even_kernel():
    with pytest.raises(ContractError):
        conv2d(Tensor(_nhwc(np.zeros((1, 1, 4, 4)))), Tensor(np.zeros((1, 1, 2, 2))), pad=0)


def test_conv2d_rejects_pad_beyond_kernel_extent():
    x = Tensor(_nhwc(np.zeros((1, 1, 4, 4))))
    conv2d(x, Tensor(np.zeros((1, 1, 3, 3))), pad=2)
    with pytest.raises(ContractError):
        conv2d(x, Tensor(np.zeros((1, 1, 3, 3))), pad=3)
    with pytest.raises(ContractError):
        conv2d(x, Tensor(np.zeros((1, 1, 5, 3))), pad=3)


@pytest.mark.parametrize("kh,kw,pad", [(3, 3, 0), (3, 3, 2), (5, 3, 1), (1, 1, 0)])
def test_conv2d_input_gradient_scatters_each_output(kh, kw, pad):
    rng = np.random.default_rng(7)
    x = Tensor(_nhwc(rng.standard_normal((2, 2, 5, 6))), requires_grad=True)
    k = rng.standard_normal((3, 2, kh, kw))
    out = conv2d(x, Tensor(k), pad=pad)
    g = rng.standard_normal(_nchw(out.data).shape)
    (out * Tensor(_nhwc(g))).sum().backward()

    ref = np.zeros((2, 2, 5 + 2 * pad, 6 + 2 * pad))
    for i in range(g.shape[2]):
        for j in range(g.shape[3]):
            ref[:, :, i : i + kh, j : j + kw] += np.einsum("bo,ocuv->bcuv", g[:, :, i, j], k)
    np.testing.assert_allclose(_nchw(x.grad), ref[:, :, pad : pad + 5, pad : pad + 6], atol=1e-12)


def _conv2d_loops(x, k, pad, g):
    """Output, input gradient and kernel gradient of sum(conv2d(x, k) * g), tap by tap."""
    _, _, kh, kw = k.shape
    xp = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
    ho, wo = xp.shape[2] - kh + 1, xp.shape[3] - kw + 1
    out = np.zeros((x.shape[0], k.shape[0], ho, wo))
    gxp = np.zeros_like(xp)
    gk = np.zeros_like(k)
    for i in range(ho):
        for j in range(wo):
            for u in range(kh):
                for v in range(kw):
                    out[:, :, i, j] += xp[:, :, i + u, j + v] @ k[:, :, u, v].T
                    gxp[:, :, i + u, j + v] += g[:, :, i, j] @ k[:, :, u, v]
                    gk[:, :, u, v] += g[:, :, i, j].T @ xp[:, :, i + u, j + v]
    return out, gxp[:, :, pad : pad + x.shape[2], pad : pad + x.shape[3]], gk


_CONV_LOOP_CASES = [
    (b, cin, cout, h, w, kh, kw, pad)
    for b, cin, cout, h, w, kh, kw in [
        (3, 2, 4, 5, 6, 3, 3),
        (1, 1, 3, 6, 5, 5, 3),
        (3, 1, 1, 5, 7, 3, 5),
        (2, 3, 1, 4, 7, 1, 1),
        # wide enough that the forward (cout) and the input gradient (cin)
        # each run over several blocks of output rows
        (1, 1, 512, 12, 12, 3, 3),
        (1, 512, 1, 12, 12, 3, 3),
    ]
    for pad in range(min(kh, kw))
]


@pytest.mark.parametrize("b,cin,cout,h,w,kh,kw,pad", _CONV_LOOP_CASES)
def test_conv2d_output_and_both_gradients_match_tap_loops(b, cin, cout, h, w, kh, kw, pad):
    rng = np.random.default_rng(11)
    x = Tensor(_nhwc(rng.standard_normal((b, cin, h, w))), requires_grad=True)
    k = Tensor(rng.standard_normal((cout, cin, kh, kw)), requires_grad=True)
    out = conv2d(x, k, pad=pad)
    g = rng.standard_normal(_nchw(out.data).shape)
    (out * Tensor(_nhwc(g))).sum().backward()
    want = _conv2d_loops(_nchw(x.data), k.data, pad, g)
    for got, ref in zip((_nchw(out.data), _nchw(x.grad), k.grad), want):
        assert got.shape == ref.shape
        assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))


def test_conv2d_forward_builds_no_window_copy(traced_peak):
    # input and frame are 4 MiB each; a 3x3 window copy of the input would be 36 MiB
    x = Tensor(_nhwc(np.random.default_rng(0).standard_normal((1, 32, 128, 128))))
    k = Tensor(np.random.default_rng(1).standard_normal((1, 32, 3, 3)))
    _, peak = traced_peak(lambda: conv2d(x, k, pad=1))
    assert peak < 16 * 2**20, f"forward peak {peak / 2**20:.1f} MiB"


def test_pixel_shuffle_layout_oracle():
    # channel c of an r*r group lands on the (c // r, c % r) offset
    r = 2
    x = np.zeros((1, 4, 2, 2))
    for c in range(4):
        x[0, c] = c + 1
    out = _nchw(pixel_shuffle(Tensor(_nhwc(x)), r).data)
    assert out.shape == (1, 1, 4, 4)
    expected_block = np.array([[1.0, 2.0], [3.0, 4.0]])
    np.testing.assert_array_equal(out[0, 0, :2, :2], expected_block)
    np.testing.assert_array_equal(out[0, 0, 2:, 2:], expected_block)


def test_pixel_shuffle_unshuffle_inverse():
    rng = np.random.default_rng(3)
    x = rng.standard_normal((2, 8, 3, 5))
    back = _unshuffle_fwd(pixel_shuffle(Tensor(_nhwc(x)), 2).data, 2)
    np.testing.assert_array_equal(_nchw(back), x)


def test_separable_map_equals_explicit_double_product():
    rng = np.random.default_rng(4)
    x = rng.standard_normal((2, 3, 5, 6))
    rows = rng.standard_normal((4, 5))
    cols = rng.standard_normal((7, 6))
    out = separable_map(Tensor(x), rows, cols).data
    ref = np.einsum("oh,bchw,pw->bcop", rows, x, cols)
    np.testing.assert_allclose(out, ref, atol=1e-12)


def _value_and_grads(fn, arrays, w):
    """``fn``'s output, its node's parents, and the gradients of
    sum(fn(...) * w) on fresh leaves."""
    leaves = [Tensor(a.copy(order="K"), requires_grad=True) for a in arrays]
    out = fn(*leaves)
    parents = out._parents
    (out * Tensor(w)).sum().backward()
    return out, parents, [t.grad for t in leaves]


def _assert_same_bytes(fused, composite, arrays, w):
    """Forward and every gradient of the one-node op equal the composite's
    bytes; returns the op's output and its node's parents."""
    out, parents, grads = _value_and_grads(fused, arrays, w)
    ref, _, ref_grads = _value_and_grads(composite, arrays, w)
    assert out.shape == ref.shape
    assert out.data.tobytes() == ref.data.tobytes()
    for got, want in zip(grads, ref_grads):
        assert got.shape == want.shape
        assert np.ascontiguousarray(got).tobytes() == np.ascontiguousarray(want).tobytes()
    return out, parents


@pytest.mark.parametrize("lead", [(4, 256), (7,), (2, 3)])
def test_linear_is_one_node_matching_matmul_plus_bias(lead):
    rng = np.random.default_rng(len(lead))
    arrays = [rng.standard_normal(lead + (32,)), rng.standard_normal((32, 40)),
              rng.standard_normal(40)]
    w = rng.standard_normal(lead + (40,))
    _, parents = _assert_same_bytes(linear, lambda a, k, b: matmul(a, k) + b, arrays, w)
    assert all(p._vjp is None for p in parents) and len(parents) == 3


def test_linear_rejects_a_bias_of_the_wrong_width():
    with pytest.raises(DimensionError):
        linear(Tensor(np.zeros((2, 3))), Tensor(np.zeros((3, 4))), Tensor(np.zeros(3)))


@pytest.mark.parametrize(
    "b,cin,cout,h,w,ksize,pad",
    [
        (2, 3, 4, 6, 7, 3, 1),
        (4, 16, 1, 4, 4, 1, 0),  # the mask's 1x1 gate
        (4, 1, 32, 16, 16, 3, 1),  # the 1-channel shallow conv
        (2, 32, 128, 8, 8, 3, 1),  # an up conv
    ],
)
@pytest.mark.parametrize("layout", ["nchw", "channels-last"])
def test_conv2d_with_bias_is_one_node_matching_the_broadcast_add(
    b, cin, cout, h, w, ksize, pad, layout
):
    rng = np.random.default_rng(cin * cout + ksize)
    arrays = [
        _nhwc(rng.standard_normal((b, cin, h, w))),
        rng.standard_normal((cout, cin, ksize, ksize)),
        rng.standard_normal(cout),
    ]
    ho, wo = h + 2 * pad - ksize + 1, w + 2 * pad - ksize + 1
    # weighting the output through a transpose hands the conv an NCHW
    # cotangent, which the tape walk copies to C order
    if layout == "nchw":
        head, g = (lambda t: transpose(t, (0, 3, 1, 2))), rng.standard_normal((b, cout, ho, wo))
    else:
        head, g = (lambda t: t), rng.standard_normal((b, ho, wo, cout))
    _assert_same_bytes(
        lambda x, k, bias: head(conv2d(x, k, pad, bias)),
        lambda x, k, bias: head(conv2d(x, k, pad) + bias),
        arrays,
        g,
    )
    leaves = [Tensor(a, requires_grad=True) for a in arrays]
    out = conv2d(*leaves[:2], pad, leaves[2])
    assert out._parents == tuple(leaves)
    # a compact channels-last array, not a view of the padded tap sums
    assert out.data.flags.c_contiguous
    assert out.data.base is None or out.data.base.size == out.data.size


def _copy_out_conv2d(x, k, pad, bias):
    """conv2d's output as it was formed: the crop of the padded tap sums
    copied into a compact channels-last array, the bias added as it is
    copied."""
    b, cin, h, w = x.shape
    cout, _, kh, kw = k.shape
    bh, pitch = h + pad, w + pad
    ho, wo = h + 2 * pad - kh + 1, w + 2 * pad - kw + 1
    n = b * bh * pitch
    rows = -(-n // kw)
    frame = np.zeros(((kh - 1) * pitch + kw - 1 + rows * kw, cin))
    frame[:n].reshape(b, bh, pitch, cin)[:, pad:, pad:] = x.transpose(0, 2, 3, 1)
    kern = k.transpose(2, 3, 1, 0).reshape(kh, kw * cin, cout)
    full = _tap_sum(frame, kern, pitch, rows, np.empty((rows * kw, cout)))
    full = full[:n].reshape(b, bh, pitch, cout)
    out = np.empty((b, ho, wo, cout))
    if bias is None:
        out[...] = full[:, :ho, :wo]
    else:
        np.add(full[:, :ho, :wo], bias, out=out)
    return out.transpose(0, 3, 1, 2)


@pytest.mark.parametrize("ksize,pad", [(3, 0), (3, 1), (1, 0)])
@pytest.mark.parametrize("biased", [False, True], ids=["no-bias", "bias"])
def test_conv2d_crop_moved_in_place_matches_the_copy_out_form(ksize, pad, biased):
    """B = 2: the crop moved to the front of the tap sums, which are then
    shrunk to it, with the bias added in place, has the copy-out form's
    bytes and strides, and the gradients through it are the ones through
    a compact copy."""
    rng = np.random.default_rng(40 + 2 * ksize + pad)
    arrays = [rng.standard_normal((2, 3, 6, 7)), rng.standard_normal((5, 3, ksize, ksize))]
    if biased:
        arrays.append(rng.standard_normal(5))
    want = _copy_out_conv2d(*arrays[:2], pad, arrays[2] if biased else None)
    g = rng.standard_normal(want.shape)
    arrays[0], want, g = _nhwc(arrays[0]), want.transpose(0, 2, 3, 1), _nhwc(g)

    def run(copy_out):
        leaves = [Tensor(a.copy(), requires_grad=True) for a in arrays]
        out = conv2d(leaves[0], leaves[1], pad, *leaves[2:])
        if copy_out:
            out = Tensor._from_op(want.copy(order="K"), (out,), lambda gout: (gout,))
        (out * Tensor(g)).sum().backward()
        return out.data, [t.grad for t in leaves]

    (got, grads), (ref, ref_grads) = run(False), run(True)
    assert got.strides == want.strides
    assert got.tobytes() == want.tobytes()
    assert all(a.tobytes() == b.tobytes() for a, b in zip(grads, ref_grads))


_EDGES = np.array([0.0, -0.0, 40.0, -40.0, 800.0, -800.0])


def _where_sigmoid(x):
    """The two-branch logistic the shared helper must reproduce bit for bit."""
    e = np.exp(-np.abs(x))
    return np.where(x >= 0, 1.0 / (1.0 + e), e / (1.0 + e))


def _composite_softplus(a):
    """softplus as it was: the value, and a vjp that reads a stored sigmoid."""
    e = np.exp(-np.abs(a.data))
    sig = _where_sigmoid(a.data)
    out = np.maximum(a.data, 0.0) + np.log1p(e)
    return Tensor._from_op(out, (a,), lambda g: (g * sig,))


def _activation_inputs():
    rng = np.random.default_rng(21)
    x = np.concatenate([_EDGES, rng.standard_normal(58) * 6.0]).reshape(8, 8)
    return [x], rng.standard_normal((8, 8))


def test_sigmoid_helper_matches_the_two_branch_form():
    (x,), _ = _activation_inputs()
    assert sigmoid(Tensor(x)).data.tobytes() == _where_sigmoid(x).tobytes()


def test_silu_is_one_node_matching_the_product_with_sigmoid():
    arrays, w = _activation_inputs()
    _, parents = _assert_same_bytes(silu, lambda a: mul(a, sigmoid(a)), arrays, w)
    assert len(parents) == 1 and parents[0]._vjp is None
    x = Tensor(arrays[0], requires_grad=True)
    # the closure holds the input's array and no other array
    cells = [c.cell_contents for c in silu(x)._vjp.__closure__]
    held = [c for c in cells if isinstance(c, np.ndarray)]
    assert len(held) == 1 and held[0] is x.data


def test_softplus_forms_its_sigmoid_in_the_vjp():
    arrays, w = _activation_inputs()
    _assert_same_bytes(softplus, _composite_softplus, arrays, w)
    x = Tensor(arrays[0], requires_grad=True)
    out = softplus(x)
    # the closure holds the input's array and no other array
    cells = [c.cell_contents for c in out._vjp.__closure__]
    held = [c for c in cells if isinstance(c, np.ndarray)]
    assert len(held) == 1 and held[0] is x.data


def _reshape_shuffle(d, r):
    """The reshape-and-transpose pixel shuffle, C-contiguous NCHW."""
    b, crr, h, w = d.shape
    c = crr // (r * r)
    return d.reshape(b, c, r, r, h, w).transpose(0, 1, 4, 2, 5, 3).reshape(b, c, h * r, w * r)


@pytest.mark.parametrize("r", [2, 3])
def test_pixel_shuffle_sends_nhwc_channel_c_r2_plus_i_r_plus_j_to_sub_pixel_i_j(r):
    """The NCHW shuffle's channel order, so a trained up conv's kernel
    keeps its meaning; the gradient gathers the cotangent back."""
    rng = np.random.default_rng(r)
    x0 = rng.standard_normal((2, 4, 5, 3 * r * r))
    w = rng.standard_normal((2, 4 * r, 5 * r, 3))
    want, gwant = np.empty_like(w), np.empty_like(x0)
    for c in range(3):
        for i in range(r):
            for j in range(r):
                want[:, i::r, j::r, c] = x0[..., c * r * r + i * r + j]
                gwant[..., c * r * r + i * r + j] = w[:, i::r, j::r, c]
    x = Tensor(x0, requires_grad=True)
    out = pixel_shuffle(x, r)
    assert out.data.flags.c_contiguous
    np.testing.assert_array_equal(out.data, want)
    np.testing.assert_array_equal(_nchw(out.data), _reshape_shuffle(_nchw(x0), r))
    (out * Tensor(w)).sum().backward()
    np.testing.assert_array_equal(x.grad, gwant)
    assert x.grad.flags.c_contiguous


def _linear_silu_linear_chain(x, w1, b1, w2, b2):
    return linear(silu(linear(x, w1, b1)), w2, b2)


def _layer_norm_linear_chain(x, gamma, beta, w, b):
    return linear(layer_norm(x, gamma, beta), w, b)


def _module_operands(rng, bsz, order, width):
    """(B, 64, 32) tokens in memory ``order``, as a module sees them, and
    the cotangent of an output ``width`` channels wide."""
    x = np.asarray(rng.standard_normal((bsz, 64, 32)) * 2.0 + 0.5, order=order)
    return x, rng.standard_normal((bsz, 64, width))


@pytest.mark.parametrize("bsz", [1, 3])
@pytest.mark.parametrize("order", ["C", "F"])
def test_linear_silu_linear_is_one_node_matching_its_chain(bsz, order, tape_bytes):
    """Value and every parent's gradient are the three-node chain's
    bytes, and the node keeps x, w1, b1 and w2, not the hidden layer."""
    rng = np.random.default_rng(50 + bsz)
    x, w = _module_operands(rng, bsz, order, 40)
    arrays = [x, rng.uniform(-0.2, 0.2, (32, 32)), rng.standard_normal(32),
              rng.uniform(-0.2, 0.2, (32, 40)), rng.standard_normal(40)]
    _, parents = _assert_same_bytes(linear_silu_linear, _linear_silu_linear_chain, arrays, w)
    assert len(parents) == 5 and all(p._vjp is None for p in parents)
    out = linear_silu_linear(*(Tensor(a, requires_grad=True) for a in arrays))
    assert sum(tape_bytes(out).values()) == sum(a.nbytes for a in arrays[:4])


@pytest.mark.parametrize("bsz", [1, 3])
@pytest.mark.parametrize("order", ["C", "F"])
def test_layer_norm_linear_is_one_node_matching_its_chain(bsz, order, tape_bytes):
    """Value and every parent's gradient are the two-node chain's bytes,
    and the node keeps xhat, 1/sigma and the affine weights, not the
    norm's output."""
    rng = np.random.default_rng(60 + bsz)
    x, w = _module_operands(rng, bsz, order, 24)
    arrays = [x, rng.uniform(0.5, 1.5, 32), rng.standard_normal(32),
              rng.uniform(-0.2, 0.2, (32, 24)), rng.standard_normal(24)]
    _, parents = _assert_same_bytes(layer_norm_linear, _layer_norm_linear_chain, arrays, w)
    assert len(parents) == 5 and all(p._vjp is None for p in parents)
    out = layer_norm_linear(*(Tensor(a, requires_grad=True) for a in arrays))
    kept = x.nbytes + bsz * 64 * 8 + sum(a.nbytes for a in arrays[1:4])
    assert sum(tape_bytes(out).values()) == kept


def test_untracked_layer_norm_linear_frees_xhat_before_the_gemm(traced_peak):
    """(1, 4096, 32) without a tape: the GEMM sees only the norm's output
    besides its own (1, 4096, 64) result, as in the two-node chain."""
    rng = np.random.default_rng(70)
    x = Tensor(rng.standard_normal((1, 4096, 32)))
    weights = [Tensor(a) for a in (np.ones(32), np.zeros(32), rng.standard_normal((32, 64)),
                                   np.zeros(64))]
    out, peak = traced_peak(lambda: layer_norm_linear(x, *weights))
    assert out._parents == ()
    # the norm's output and the result 3 MiB; with xhat alive as well, 4 MiB
    assert peak <= x.data.nbytes * 3 + 2**18, f"peak {peak / 2**20:.2f} MiB"


def test_tape_bytes_counts_an_array_a_vjp_holds_through_a_nested_helper(tape_bytes):
    """An array that only a helper function in a vjp's closure holds is
    counted, and a helper that refers to itself is walked once."""
    hidden = np.arange(1000.0)

    def helper(g, again=True):
        return helper(g, False) if again else g * hidden

    def vjp(g):
        return (helper(g),)

    x = Tensor(np.ones(1000), requires_grad=True)
    out = Tensor._from_op(x.data * 2.0, (x,), vjp)
    assert tape_bytes(out) == {vjp.__qualname__: hidden.nbytes}
