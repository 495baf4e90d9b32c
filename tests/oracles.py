"""Single-purpose nodes that the byte tests compare the program against.

The program runs spectral attention and the spectral features only
inside ``prompts.global_prompt``'s one node, and the projections, silu,
softplus, layer norm and the decay's exponentials only inside the fused
nodes ``linear_silu_linear``, ``layer_norm_linear`` and ``zoh_decay``.
These wrap the same private helpers as nodes of their own, so the tests
can check each fused node against the chain it replaces, and each
member of a chain on its own. ``fft2d_hermitian`` is the loss spectrum
written on its own (a real-input transform, its Hermitian half filled in
a complex view, and the vjp Re(FFT(conj G))), and ``naive_dft2`` the
textbook DFT that the transform's identities are checked against.
"""

import numpy as np

from promptscan.fft import grid_half_spectrum, spectral_features_grad, unfold_features
from promptscan.prompts import _attention_forward, _attention_grads
from promptscan.tensor import (
    Tensor,
    _affine,
    _check_layer_norm,
    _check_linear,
    _layer_norm_grads,
    _linear_grads,
    _normalize,
    _scale_shift,
    _sigmoid,
    _silu_grad,
    _softplus,
    astensor,
)


def attention(q, k, v, scale):
    """softmax(q @ k^T * scale) @ v of (B, N, C) operands as one node,
    which keeps q, k, v, the output and each row's log-sum-exp ``lse``."""
    q, k, v = astensor(q), astensor(k), astensor(v)
    qd, kd, vd = q.data, k.data, v.data
    out, lse = _attention_forward(qd, kd, vd, scale)
    return Tensor._from_op(
        out, (q, k, v), lambda g: _attention_grads(qd, kd, vd, out, lse, g, scale)
    )


def spectral_features(x, h, w):
    """The (B, N, 2C) spectral features of a (B, h*w, C) token grid, scaled
    by 1/N, as one node; the map is linear, so the node keeps no array."""
    x = astensor(x)
    norm = 1.0 / (h * w)
    return Tensor._from_op(
        unfold_features(grid_half_spectrum(x.data, h, w), w, norm),
        (x,),
        lambda g: (spectral_features_grad(g, h, w, norm),),
    )


def naive_dft2(x):
    """Textbook double-sum DFT over the trailing two axes, written
    independently of the library."""
    h, w = x.shape[-2:]
    wh = np.exp(-2j * np.pi * np.outer(np.arange(h), np.arange(h)) / h)
    ww = np.exp(-2j * np.pi * np.outer(np.arange(w), np.arange(w)) / w)
    return wh @ x.astype(complex) @ ww.T


def _complex(planes):
    """Complex view of a C-contiguous (..., 2) real/imaginary plane array."""
    return planes.view(np.complex128)[..., 0]


def fft2d_hermitian(x):
    """The (..., H, W, 2) planes of a real (..., H, W) tensor's 2-d DFT as
    one node: ``rfft2`` over the trailing axes, the other half of the
    spectrum filled from Hermitian symmetry in a complex view of the
    planes, and the vjp Re(FFT2(conj G)) of the cotangent's complex view."""
    x = astensor(x)
    w = x.shape[-1]
    half = w // 2 + 1
    r = np.fft.rfft2(x.data)
    planes = np.empty(x.shape + (2,))
    spec = _complex(planes)
    spec[..., :half] = r
    # F[k1, k2] = conj(F[-k1, w - k2]) for the columns rfft2 leaves out
    tail = r[..., (w - 1) // 2 : 0 : -1]
    np.conjugate(tail[..., :1, :], out=spec[..., :1, half:])
    np.conjugate(tail[..., :0:-1, :], out=spec[..., 1:, half:])
    return Tensor._from_op(
        planes, (x,), lambda g: (np.real(np.fft.fft2(np.conj(_complex(g)))),)
    )


def linear(a, w, b):
    """``a @ w + b`` as one node, the bias added in place on the product."""
    a, w, b = astensor(a), astensor(w), astensor(b)
    _check_linear(a.shape, w.shape, b.shape)
    ad, wd, sb = a.data, w.data, b.shape
    return Tensor._from_op(
        _affine(ad, wd, b.data), (a, w, b), lambda g: _linear_grads(g, ad, wd, sb)
    )


def silu(a):
    """x * sigmoid(x), one node that keeps only its input: the vjp forms
    the sigmoid again."""
    a = astensor(a)
    ad = a.data
    return Tensor._from_op(
        ad * _sigmoid(ad), (a,), lambda g: (_silu_grad(g, ad, _sigmoid(ad)),)
    )


def softplus(a):
    """log(1 + e^x); its derivative, the sigmoid, is formed in the vjp, so
    the node keeps only its input."""
    a = astensor(a)
    ad = a.data
    return Tensor._from_op(_softplus(ad), (a,), lambda g: (g * _sigmoid(ad),))


def layer_norm(x, gamma, beta):
    """Each token normalized over the trailing channel axis (eps 1e-5),
    then scaled and shifted; one node that keeps xhat and 1/sigma."""
    x, gamma, beta = astensor(x), astensor(gamma), astensor(beta)
    _check_layer_norm(x.shape, gamma.shape, beta.shape)
    xhat, inv = _normalize(x.data)
    gd = gamma.data
    return Tensor._from_op(
        _scale_shift(xhat, gd, beta.data),
        (x, gamma, beta),
        lambda g: _layer_norm_grads(g, xhat, inv, gd),
    )


def softmax(a, axis=-1):
    """Softmax along ``axis``, shifted by each row's max."""
    a = astensor(a)
    e = np.exp(a.data - a.data.max(axis=axis, keepdims=True))
    out = e / e.sum(axis=axis, keepdims=True)
    return Tensor._from_op(
        out, (a,), lambda g: (out * (g - (g * out).sum(axis=axis, keepdims=True)),)
    )


def exp(a):
    a = astensor(a)
    out = np.exp(a.data)
    return Tensor._from_op(out, (a,), lambda g: (g * out,))


def neg(a):
    a = astensor(a)
    return Tensor._from_op(-a.data, (a,), lambda g: (-g,))


def transpose(a, axes):
    a = astensor(a)
    axes = tuple(axes)
    inv = tuple(np.argsort(axes))
    return Tensor._from_op(a.data.transpose(axes), (a,), lambda g: (g.transpose(inv),))
