"""Single-purpose nodes that the byte tests compare the program against.

The program runs spectral attention and the spectral features only
inside ``prompts.global_prompt``'s one node, and the projections, silu,
softplus, layer norm and the decay's exponentials only inside the fused
nodes ``linear_silu_linear``, ``layer_norm_linear`` and ``zoh_decay``.
These wrap the same private helpers as nodes of their own, so the tests
can check each fused node against the chain it replaces, and each
member of a chain on its own.
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
    """The (B, N, 2C) spectral features of a (B, h*w, C) token grid as one
    node; the map is linear, so the node keeps no array."""
    x = astensor(x)
    return Tensor._from_op(
        unfold_features(grid_half_spectrum(x.data, h, w), w),
        (x,),
        lambda g: (spectral_features_grad(g, h, w),),
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
