"""Dense tensors with a taped reverse-mode gradient engine.

Values are float64 numpy arrays. The graph is kept apart from the
values: every differentiable operation that touches a grad-tracked
tensor returns a :class:`Tensor` holding its value and a small record
holding the records of its parents (a tracked leaf stays as its Tensor,
and every untracked parent is one shared constant record) and a
vector-Jacobian closure. A closure captures only the arrays, shapes and
``requires_grad`` flags it reads, never a Tensor, so an intermediate's
array is freed as soon as the forward code drops it unless some vjp
saved it: graph records plus explicitly saved tensors, as in PyTorch
(Paszke et al. 2019). ``Tensor.backward()`` replays the records in
reverse topological order and accumulates gradients on the tracked
leaves. A tape is reachable only from its result, and the constant
record has no state to change, so independent forward passes never
share state and are safe to run concurrently.

Every vjp receives its cotangent in C order: the tape walk copies one
that is not C-contiguous before the vjp runs. So each reduction in a
vjp sums in one logical, row-major order whatever layout the vjp
upstream chose, results are deterministic and directly comparable
against naive-loop oracles, and no vjp needs to mimic the layout a
composite chain would hand on.
"""

from __future__ import annotations

import numpy as np

from .errors import ContractError, DimensionError


class _Node:
    """The tape record of one operation's output: its parents' records
    (or leaf tensors) and its vjp. It holds no value of its own."""

    __slots__ = ("_parents", "_vjp")
    requires_grad = True

    def __init__(self, parents, vjp):
        self._parents = parents
        self._vjp = vjp


class _Untracked:
    """The record that stands for every untracked parent on a tape: no
    gradient flows to it, so it keeps no array."""

    __slots__ = ()
    requires_grad = False
    _parents = ()
    _vjp = None


_UNTRACKED = _Untracked()


class Tensor:
    """N-dimensional real array participating in the differentiation graph.

    ``requires_grad=True`` marks a leaf whose gradient is wanted;
    tensors produced by operations track gradients automatically when
    any input does. ``_parents`` and ``_vjp`` read (and ``_vjp`` also
    replaces) the tape record of an operation's output; a leaf has none.
    """

    __slots__ = ("data", "grad", "requires_grad", "_node")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad = None
        self.requires_grad = bool(requires_grad)
        self._node = None

    # -- internal node constructor -------------------------------------

    @staticmethod
    def _from_op(data, parents, vjp):
        """The tensor of value ``data`` computed from the tensors
        ``parents``, recording ``vjp`` when any parent is tracked.

        ``vjp(g)`` maps the output's cotangent to one gradient per parent
        (None for a parent it does not differentiate). It must capture
        the arrays, shapes and flags it reads, never a Tensor: the record
        keeps whatever the closure holds until backward runs.
        """
        out = Tensor.__new__(Tensor)
        out.data = data
        out.grad = None
        out.requires_grad = any(p.requires_grad for p in parents)
        out._node = None
        if out.requires_grad:
            out._node = _Node(
                tuple(
                    p._node if p._node is not None else p if p.requires_grad else _UNTRACKED
                    for p in parents
                ),
                vjp,
            )
        return out

    @property
    def _parents(self):
        return () if self._node is None else self._node._parents

    @property
    def _vjp(self):
        return None if self._node is None else self._node._vjp

    @_vjp.setter
    def _vjp(self, fn):
        self._node._vjp = fn

    # -- basic protocol --------------------------------------------------

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
        return float(self.data)

    def __repr__(self):
        return f"Tensor(shape={tuple(self.shape)}, requires_grad={self.requires_grad})"

    # -- backward pass ----------------------------------------------------

    def backward(self) -> None:
        """Reverse sweep from this scalar; accumulates ``.grad`` on tracked leaves.

        The walk visits records and leaf tensors, never an intermediate's
        value; gradients are keyed by record. A vjp receives its cotangent
        in C order, copied first when it is not C-contiguous, so its sums
        do not depend on the layout of the gradients it was accumulated
        from. Each record drops its parents and its vjp, and with them the
        arrays the vjp saved, as soon as it has run: one backward per
        forward.
        """
        if self.size != 1:
            raise ContractError(
                f"backward seed must be scalar, got shape {tuple(self.shape)}"
            )
        root = self if self._node is None else self._node
        topo = []
        visited = set()
        stack = [(root, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                topo.append(node)
                continue
            if id(node) in visited:
                continue
            visited.add(id(node))
            stack.append((node, True))
            for p in node._parents:
                if id(p) not in visited:
                    stack.append((p, False))

        grads = {id(root): np.ones_like(self.data)}
        for node in reversed(topo):
            g = grads.pop(id(node), None)
            if g is None:
                continue
            if isinstance(node, Tensor):
                if node.requires_grad:
                    node.grad = g if node.grad is None else node.grad + g
            elif node._vjp is not None:  # else freed by an earlier backward
                # not np.ascontiguousarray, which makes the 0-d seed 1-d
                g = g if g.flags.c_contiguous else g.copy()
                parent_grads = node._vjp(g)
                for p, pg in zip(node._parents, parent_grads):
                    if pg is None or not p.requires_grad:
                        continue
                    acc = grads.get(id(p))
                    grads[id(p)] = pg if acc is None else acc + pg
                # free the tape as we go
                node._parents = ()
                node._vjp = None

    # -- operator sugar -----------------------------------------------------

    def __add__(self, other):
        return add(self, other)

    __radd__ = __add__

    def __sub__(self, other):
        return sub(self, other)

    def __rsub__(self, other):
        return sub(other, self)

    def __mul__(self, other):
        return mul(self, other)

    __rmul__ = __mul__

    def __matmul__(self, other):
        return matmul(self, other)

    def __getitem__(self, key):
        return index(self, key)

    def sum(self):
        return tsum(self)

    def reshape(self, *shape):
        return reshape(self, *shape)


def astensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def _unbroadcast(g, shape):
    """Reduce gradient ``g`` back to ``shape`` after numpy broadcasting."""
    if g.shape == shape:
        return g
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and g.shape[i] != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g.reshape(shape)


# -- elementwise arithmetic ---------------------------------------------


def add(a, b) -> Tensor:
    a, b = astensor(a), astensor(b)
    sa, sb = a.shape, b.shape
    return Tensor._from_op(
        a.data + b.data,
        (a, b),
        lambda g: (_unbroadcast(g, sa), _unbroadcast(g, sb)),
    )


def sub(a, b) -> Tensor:
    a, b = astensor(a), astensor(b)
    sa, sb = a.shape, b.shape
    return Tensor._from_op(
        a.data - b.data,
        (a, b),
        lambda g: (_unbroadcast(g, sa), _unbroadcast(-g, sb)),
    )


def mul(a, b) -> Tensor:
    """Elementwise product; the node saves an operand only when the
    other one is tracked, since only that one's gradient reads it."""
    a, b = astensor(a), astensor(b)
    sa, sb = a.shape, b.shape
    ad = a.data if b.requires_grad else None
    bd = b.data if a.requires_grad else None
    return Tensor._from_op(
        a.data * b.data,
        (a, b),
        lambda g: (
            None if bd is None else _unbroadcast(g * bd, sa),
            None if ad is None else _unbroadcast(g * ad, sb),
        ),
    )


def absolute(a) -> Tensor:
    # subgradient at 0 is taken as 0
    a = astensor(a)
    ad = a.data
    return Tensor._from_op(np.abs(ad), (a,), lambda g: (g * np.sign(ad),))


def _exp_neg_abs(x):
    """e^-|x|, in one new array."""
    e = np.abs(x)
    np.negative(e, out=e)
    return np.exp(e, out=e)


def _sigmoid(x):
    """Logistic of a plain array, exp(min(x, 0)) / (1 + e^-|x|): neither
    exponent is positive, and for x < 0 both are exp(x), as in the
    two-branch form e^x / (1 + e^x)."""
    out = np.minimum(x, 0.0)
    np.exp(out, out=out)
    den = _exp_neg_abs(x)
    den += 1.0
    out /= den
    return out


def sigmoid(a) -> Tensor:
    a = astensor(a)
    out = _sigmoid(a.data)
    return Tensor._from_op(out, (a,), lambda g: (g * out * (1.0 - out),))


def _softplus(x):
    """log(1 + e^x) of a plain array, as max(x, 0) + log1p(e^-|x|)."""
    out = np.maximum(x, 0.0)
    out += np.log1p(_exp_neg_abs(x))
    return out


def _silu_grad(g, x, s):
    """The cotangent of x for the cotangent ``g`` of x * s, s = sigmoid(x):
    the two terms of the product rule, added in the order the product's
    own nodes would."""
    return g * s + g * x * s * (1.0 - s)


# -- reductions -----------------------------------------------------------


def tsum(a) -> Tensor:
    """The sum of every entry, a 0-d tensor."""
    a = astensor(a)
    shape = a.shape
    return Tensor._from_op(
        np.asarray(a.data.sum()), (a,), lambda g: (np.broadcast_to(g, shape).copy(),)
    )


def tmean(a) -> Tensor:
    """The mean of every entry, a 0-d tensor."""
    a = astensor(a)
    shape, count = a.shape, a.size
    return Tensor._from_op(
        np.asarray(a.data.mean()), (a,), lambda g: (np.broadcast_to(g, shape).copy() / count,)
    )


# -- shape manipulation ----------------------------------------------------


def reshape(a, *shape) -> Tensor:
    a = astensor(a)
    if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
        shape = tuple(shape[0])
    before = a.shape
    return Tensor._from_op(a.data.reshape(shape), (a,), lambda g: (g.reshape(before),))


def index(a, key) -> Tensor:
    """Basic indexing (ints/slices); gradient scatters back into place.
    The node keeps the input's shape, not its array."""
    a = astensor(a)
    out = a.data[key]
    if np.isscalar(out) or out.ndim == 0:
        out = np.asarray(out)
    shape = a.shape

    def vjp(g):
        ga = np.zeros(shape)
        ga[key] = g
        return (ga,)

    return Tensor._from_op(out.copy(), (a,), vjp)


# -- linear algebra --------------------------------------------------------


def matmul(a, b) -> Tensor:
    a, b = astensor(a), astensor(b)
    if a.ndim < 2 or b.ndim < 2:
        raise DimensionError(
            f"matmul needs 2-d operands, got {tuple(a.shape)} and {tuple(b.shape)}"
        )
    if a.shape[-1] != b.shape[-2]:
        raise DimensionError(
            f"matmul inner dimensions differ: {tuple(a.shape)} vs {tuple(b.shape)}"
        )
    ad, bd = a.data, b.data

    def vjp(g):
        ga = g @ np.swapaxes(bd, -1, -2)
        gb = np.swapaxes(ad, -1, -2) @ g
        return (_unbroadcast(ga, ad.shape), _unbroadcast(gb, bd.shape))

    return Tensor._from_op(ad @ bd, (a, b), vjp)


def _check_linear(sa, sw, sb):
    """Raise unless shapes ``sa``, ``sw`` and ``sb`` fit a @ w + b."""
    if len(sa) < 2 or len(sw) != 2 or sb != (sw[1],):
        raise DimensionError(
            f"linear needs a @ (C, D) + (D,), got {tuple(sa)}, {tuple(sw)} and {tuple(sb)}"
        )
    if sa[-1] != sw[0]:
        raise DimensionError(f"linear inner dimensions differ: {tuple(sa)} vs {tuple(sw)}")


def _affine(a, w, b):
    """a @ w + b of plain arrays, the bias added in place on the product."""
    out = a @ w
    out += b
    return out


def _linear_grads(g, a, w, b_shape):
    """The cotangents of a, w and b for the cotangent ``g`` of a @ w + b."""
    gw = np.swapaxes(a, -1, -2) @ g
    return g @ w.T, _unbroadcast(gw, w.shape), _unbroadcast(g, b_shape)


def linear_silu_linear(x, w1, b1, w2, b2) -> Tensor:
    """``linear(silu(linear(x, w1, b1)), w2, b2)`` as one node.

    The node keeps x and the weights, not the hidden u = x @ w1 + b1 or
    silu(u): its vjp rebuilds both with the forward's own formulas, then
    runs the three nodes' vjps in the order the tape walk would, so every
    value and gradient is the chain's. The hidden activations die before
    the second GEMM, tracked or not.
    """
    x, w1, b1, w2, b2 = (astensor(t) for t in (x, w1, b1, w2, b2))
    _check_linear(x.shape, w1.shape, b1.shape)
    _check_linear(x.shape[:-1] + w1.shape[1:], w2.shape, b2.shape)
    xd, w1d, b1d, w2d = x.data, w1.data, b1.data, w2.data
    sb1, sb2 = b1.shape, b2.shape

    def hidden():
        """u = x @ w1 + b1, sigmoid(u) and silu(u) = u * sigmoid(u)."""
        u = _affine(xd, w1d, b1d)
        s = _sigmoid(u)
        return u, s, u * s

    out = _affine(hidden()[2], w2d, b2.data)  # u and sigmoid(u) die first

    def vjp(g):
        u, s, h = hidden()
        gh, gw2, gb2 = _linear_grads(g, h, w2d, sb2)
        del h
        gx, gw1, gb1 = _linear_grads(_silu_grad(gh, u, s), xd, w1d, sb1)
        return gx, gw1, gb1, gw2, gb2

    return Tensor._from_op(out, (x, w1, b1, w2, b2), vjp)


def _check_layer_norm(sx, sgamma, sbeta):
    """Raise unless affine shapes ``sgamma`` and ``sbeta`` fit the
    trailing axis of ``sx``."""
    c = sx[-1]
    if sgamma != (c,) or sbeta != (c,):
        raise DimensionError(
            f"layer_norm affine shapes {tuple(sgamma)}/{tuple(sbeta)} "
            f"do not match channel count {c}"
        )


def _normalize(x):
    """(xhat, inv) of each token over the trailing axis, eps 1e-5, with
    xhat = (x - mean) * inv. In place: besides one square, this allocates
    only the two results."""
    xhat = x - x.mean(axis=-1, keepdims=True)
    inv = ((xhat * xhat).mean(axis=-1, keepdims=True) + 1e-5) ** -0.5
    xhat *= inv
    return xhat, inv


def _scale_shift(xhat, gamma, beta):
    """xhat * gamma + beta, the shift added in place."""
    out = xhat * gamma
    out += beta
    return out


def _layer_norm_grads(g, xhat, inv, gamma):
    """The cotangents of x, gamma and beta for the cotangent ``g`` of the
    layer norm xhat * gamma + beta, summed over the leading axes."""
    lead = tuple(range(g.ndim - 1))
    d = g * gamma
    dx = inv * (
        d
        - d.mean(axis=-1, keepdims=True)
        - xhat * (d * xhat).mean(axis=-1, keepdims=True)
    )
    return dx, (g * xhat).sum(axis=lead), g.sum(axis=lead)


def layer_norm_linear(x, gamma, beta, w, b) -> Tensor:
    """``linear(layer_norm(x, gamma, beta), w, b)`` as one node.

    The node keeps xhat, inv and the weights, not the norm's output
    xhat * gamma + beta: its vjp rebuilds that with the forward's own
    formula for the linear map's weight gradient, then runs the norm's
    vjp, so every value and gradient is the chain's. Untracked, xhat
    dies before the GEMM.
    """
    x, gamma, beta, w, b = (astensor(t) for t in (x, gamma, beta, w, b))
    _check_layer_norm(x.shape, gamma.shape, beta.shape)
    _check_linear(x.shape, w.shape, b.shape)
    parents = (x, gamma, beta, w, b)
    xhat, inv = _normalize(x.data)
    gd, bd, wd, sb = gamma.data, beta.data, w.data, b.shape
    normed = _scale_shift(xhat, gd, bd)
    if not any(p.requires_grad for p in parents):
        xhat = None  # no vjp will read it
    out = _affine(normed, wd, b.data)

    def vjp(g):
        ga, gw, gb = _linear_grads(g, _scale_shift(xhat, gd, bd), wd, sb)
        return _layer_norm_grads(ga, xhat, inv, gd) + (gw, gb)

    return Tensor._from_op(out, parents, vjp)


# -- convolution and sub-pixel ops ------------------------------------------


# most output values per _tap_sum block (equal blocks of whole rows): the
# partial sums of one block stay in cache while the kernel rows are added
_TAP_BLOCK_ELEMS = 1 << 16


def _tap_sum(frame, kern, pitch: int, rows: int, out):
    """Sum over taps (u, v) of frame[n + u*pitch + v] @ kern[u, v], n < rows*kw.

    ``frame`` is an NHWC (pixels, C) image, row-major with row pitch
    ``pitch``; ``kern`` is (kh, kw*C, O) with the C weights of tap
    (u, v) at rows v*C .. v*C+C-1 of ``kern[u]``. Writes the sums into
    ``out``, a C-contiguous (rows*kw, O) array, and returns it.

    No window is copied. For output pixels n = kw*m + r, the kw taps of
    kernel row u read kw*C consecutive values from pixel n + u*pitch
    on, and consecutive m are kw*C values apart, so those windows tile
    a (rows, kw*C) reshape of the flat frame. Each (u, r) is one GEMM
    over that view into residue r of the output; only the kh kernel
    rows are summed outside BLAS, one block of output rows at a time.
    """
    kh, kwc, o = kern.shape
    c = frame.shape[1]
    kw = kwc // c
    flat = frame.reshape(-1)
    sums = out.reshape(rows, kw, o)
    blocks = -(-rows * kw * o // _TAP_BLOCK_ELEMS)
    step = -(-rows // blocks)
    part = np.empty((step, kw, o))
    for m0 in range(0, rows, step):
        m = min(step, rows - m0)
        acc, tmp = sums[m0 : m0 + m], part[:m]
        for u in range(kh):
            dst = acc if u == 0 else tmp
            for r in range(kw):
                lo = (kw * m0 + u * pitch + r) * c
                win = flat[lo : lo + m * kwc].reshape(m, kwc)
                np.matmul(win, kern[u], out=dst[:, r])
            if u:
                acc += tmp
    return out


def conv2d(x, k, pad: int, bias=None) -> Tensor:
    """Cross-correlation of a (B, H, W, Cin) map with an OIHW kernel, zero
    padding and an optional per-channel ``bias``, to (B, Ho, Wo, Cout).

    Odd kernels only; ``pad=(kh-1)//2`` keeps the spatial size. ``pad``
    may not exceed either kernel extent minus one, so each image's
    outputs fit inside its block of the frame below.

    The input is laid out once as a frame of its NHWC pixels: the batch is
    folded into one flat pixel axis, and each image sits in an
    (H+pad) x (W+pad) block behind ``pad`` zero rows and columns.
    Those zeros are also the bottom and right padding of the block
    before, because a tap that runs past a row's end reads the next
    row's leading zeros. Every tap is then a shift of the frame, so the
    forward is a sum of GEMMs over views (:func:`_tap_sum`) and no
    window matrix is built (the "implicit GEMM" of Chetlur et al.
    2014); outputs that straddle a block edge land outside the crop.
    The kernel gradient is one GEMM per tap between the same frame and
    the cotangent frame. The input gradient is the same tap sum over
    the cotangent frame, shifted by the furthest tap offset, with the
    flipped, transposed kernel. Gradients are formed only for tracked
    operands.

    The crop is moved, in runs of whole rows, to the front of the tap
    sums' own buffer (:func:`_crop_to_front`), the buffer is shrunk in
    place to the crop, and the bias is added there in place, so the
    forward allocates no second output-sized array and the output is a
    compact channels-last array, as a copy of the crop would be. The
    bias gradient sums the cotangent over batch and pixels, as a
    broadcast add's would.
    """
    x, k = astensor(x), astensor(k)
    bias = None if bias is None else astensor(bias)
    if x.ndim != 4 or k.ndim != 4:
        raise DimensionError(
            f"conv2d expects 4-d input and kernel, got {tuple(x.shape)} and {tuple(k.shape)}"
        )
    b, h, w, cin = x.shape
    cout, kin, kh, kw = k.shape
    if kin != cin:
        raise DimensionError(
            f"conv2d channel mismatch: input has {cin}, kernel expects {kin}"
        )
    if bias is not None and bias.shape != (cout,):
        raise DimensionError(
            f"conv2d bias has shape {tuple(bias.shape)}, expected ({cout},)"
        )
    if kh % 2 == 0 or kw % 2 == 0:
        raise ContractError(f"conv2d kernel extents must be odd, got {kh}x{kw}")
    if pad < 0:
        raise ContractError("conv2d pad must be non-negative")
    if pad > min(kh, kw) - 1:
        raise ContractError(f"conv2d pad {pad} exceeds kernel extent - 1 for {kh}x{kw}")

    bh, pitch = h + pad, w + pad
    ho, wo = h + 2 * pad - kh + 1, w + 2 * pad - kw + 1
    n = b * bh * pitch
    rows = -(-n // kw)
    reach = (kh - 1) * pitch + kw - 1
    # the output's buffer is allocated before the frame, which dies with
    # an untracked forward, so that the frame leaves no hole beneath it
    sums = np.empty((rows * kw, cout))
    frame = np.zeros((reach + rows * kw, cin))
    frame[:n].reshape(b, bh, pitch, cin)[:, pad:, pad:] = x.data
    kd, biased = k.data, bias is not None
    want_x, want_k = x.requires_grad, k.requires_grad
    kern = kd.transpose(2, 3, 1, 0).reshape(kh, kw * cin, cout)
    _crop_to_front(_tap_sum(frame, kern, pitch, rows, sums), b, bh, pitch, ho, wo)
    # a realloc that copies nothing; no view of sums is alive, but a trace
    # or profile hook holds the frame's locals, which refcheck would count
    sums.resize((b * ho * wo, cout), refcheck=False)
    out = sums.reshape(b, ho, wo, cout)
    if bias is not None:
        out += bias.data

    def vjp(g):
        gframe = np.zeros((reach + rows * kw, cout))
        gout = gframe[reach : reach + n]
        gout.reshape(b, bh, pitch, cout)[:, :ho, :wo] = g
        gx = gk = None
        if want_k:
            taps = np.empty((kh, kw, cin, cout))
            for u in range(kh):
                for v in range(kw):
                    lo = u * pitch + v
                    np.matmul(frame[lo : lo + n].T, gout, out=taps[u, v])
            gk = taps.transpose(3, 2, 0, 1)
        if want_x:
            flipped = kd[:, :, ::-1, ::-1].transpose(2, 3, 0, 1)
            gfull = _tap_sum(
                gframe, flipped.reshape(kh, kw * cout, cin), pitch, rows,
                np.empty((rows * kw, cin)),
            )
            gx = gfull[:n].reshape(b, bh, pitch, cin)[:, pad:, pad:]
        if not biased:
            return (gx, gk)
        return (gx, gk, g.sum(axis=(0, 1, 2)))

    parents = (x, k) if bias is None else (x, k, bias)
    return Tensor._from_op(out, parents, vjp)


def _crop_to_front(sums, b, bh, pitch, ho, wo):
    """Move the (b, ho, wo, C) crop of each image's (bh, pitch) block of
    the pixel rows ``sums`` to the front of ``sums``, as a compact NHWC
    map.

    Row r of image i goes from pixel (i*bh + r)*pitch to (i*ho + r)*wo,
    never past its source, so rows moved in order overwrite only rows
    already moved. They move in runs of at most ``_TAP_BLOCK_ELEMS``
    values; numpy copies a run that overlaps its own source through a
    temporary of that size.
    """
    blocks = sums[: b * bh * pitch].reshape(b, bh, pitch, -1)
    out = sums[: b * ho * wo].reshape(b, ho, wo, -1)
    if (bh, pitch) != (ho, wo):  # else the crop is already in place
        run = max(1, _TAP_BLOCK_ELEMS // out[0, 0].size)
        for i in range(b):
            for r in range(0, ho, run):
                rs = slice(r, min(r + run, ho))
                out[i, rs] = blocks[i, rs, :wo]


def _shuffle_fwd(d, r):
    """(B, H, W, C*r^2) -> (B, rH, rW, C), copied once: input channel
    c*r^2 + i*r + j of pixel (h, w) goes to sub-pixel (h*r + i, w*r + j)."""
    b, h, w, crr = d.shape
    c = crr // (r * r)
    return d.reshape(b, h, w, c, r, r).transpose(0, 1, 4, 2, 5, 3).reshape(b, h * r, w * r, c)


def _unshuffle_fwd(d, r):
    """The inverse rearrangement, as a C-contiguous (B, H, W, C*r^2) array."""
    b, hr, wr, c = d.shape
    h, w = hr // r, wr // r
    return d.reshape(b, h, r, w, r, c).transpose(0, 1, 3, 5, 2, 4).reshape(b, h, w, c * r * r)


def pixel_shuffle(x, r: int) -> Tensor:
    """Sub-pixel rearrangement of an NHWC map: (B, H, W, C*r^2) ->
    (B, rH, rW, C), in :func:`_shuffle_fwd`'s channel order."""
    x = astensor(x)
    if x.ndim != 4:
        raise DimensionError(f"pixel_shuffle expects 4-d input, got {tuple(x.shape)}")
    if x.shape[3] % (r * r) != 0:
        raise DimensionError(
            f"pixel_shuffle channels {x.shape[3]} not divisible by r^2={r * r}"
        )
    return Tensor._from_op(
        _shuffle_fwd(x.data, r), (x,), lambda g: (_unshuffle_fwd(g, r),)
    )


def separable_product(data: np.ndarray, rows, cols) -> np.ndarray:
    """``rows @ data @ cols.T`` for every leading slice of a plain array."""
    tmp = np.einsum("oh,...hw->...ow", rows, data, optimize=True)
    return np.einsum("pw,...ow->...op", cols, tmp, optimize=True)


def separable_map(x, rows, cols) -> Tensor:
    """Apply fixed row/column weight matrices over the trailing two axes.

    Computes ``rows @ x @ cols.T`` for every leading slice; used by the
    resampling kernels. ``rows`` and ``cols`` are constants, so the only
    gradient path is through ``x``.
    """
    x = astensor(x)
    rows = np.asarray(rows, dtype=np.float64)
    cols = np.asarray(cols, dtype=np.float64)
    if rows.shape[1] != x.shape[-2] or cols.shape[1] != x.shape[-1]:
        raise DimensionError(
            f"separable_map weights {rows.shape}/{cols.shape} do not fit input {tuple(x.shape)}"
        )
    out = separable_product(x.data, rows, cols)

    def vjp(g):
        # dx[..., h, w] = sum_{o,p} rows[o, h] * cols[p, w] * g[..., o, p]
        t = np.einsum("oh,...op->...hp", rows, g, optimize=True)
        return (np.einsum("pw,...hp->...hw", cols, t, optimize=True),)

    return Tensor._from_op(out, (x,), vjp)


# -- gradient verification ---------------------------------------------------


def finite_diff_grad(f, x: Tensor, h: float = 1e-6) -> np.ndarray:
    """Central-difference gradient of a scalar function of one tensor.

    ``f`` receives a plain (non-tracked) tensor and must return a scalar
    tensor or float. O(2 * x.size) evaluations.
    """
    if h <= 0:
        raise ContractError("finite_diff_grad step h must be positive")
    base = x.data.astype(np.float64)
    grad = np.zeros_like(base)
    it = np.nditer(base, flags=["multi_index"])
    while not it.finished:
        idx = it.multi_index
        bumped = base.copy()
        bumped[idx] = base[idx] + h
        fp = f(Tensor(bumped))
        bumped[idx] = base[idx] - h
        fm = f(Tensor(bumped))
        fp = fp.item() if isinstance(fp, Tensor) else float(fp)
        fm = fm.item() if isinstance(fm, Tensor) else float(fm)
        grad[idx] = (fp - fm) / (2.0 * h)
        it.iternext()
    return grad
