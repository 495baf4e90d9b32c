"""Single-purpose nodes that the byte tests compare the program against.

The program runs spectral attention and the spectral features only
inside ``prompts.global_prompt``'s one node. These wrap the same private
helpers as nodes of their own, so the tests can check the fused node
against the chain it replaces, and the attention on its own.
"""

from promptscan.fft import grid_half_spectrum, spectral_features_grad, unfold_features
from promptscan.prompts import _attention_forward, _attention_grads
from promptscan.tensor import Tensor, astensor


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
