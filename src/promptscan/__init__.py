"""Prompt-guided selective-scan super-resolution, built from first principles.

The package is a small numpy-backed stack: a taped autodiff engine,
differentiable 2-d spectra on ``numpy.fft``, a gated diagonal recurrence
whose output projection is modulated by fused semantic and spectral
prompts, and the training and evaluation plumbing around them.
"""

from .tensor import Tensor

__all__ = ["Tensor"]
__version__ = "0.1.0"
