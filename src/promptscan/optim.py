"""Adam with bias correction, over a named parameter dict."""

from __future__ import annotations

import numpy as np

from .errors import ConfigError, TrainingAborted


class Adam:
    """Standard Adam. Update order follows sorted parameter names so a
    run is reproducible regardless of how the dict was built."""

    def __init__(self, params: dict, lr: float = 1e-4, beta1: float = 0.9,
                 beta2: float = 0.999, eps: float = 1e-8):
        if lr < 0:
            raise ConfigError(f"learning rate must be >= 0, got {lr}")
        if not (0 <= beta1 < 1 and 0 <= beta2 < 1):
            raise ConfigError("betas must lie in [0, 1)")
        if eps <= 0:
            raise ConfigError("eps must be positive")
        self.params = dict(params)
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.step_count = 0
        self.m = {k: np.zeros_like(p.data) for k, p in self.params.items()}
        self.v = {k: np.zeros_like(p.data) for k, p in self.params.items()}

    def zero_grad(self) -> None:
        for p in self.params.values():
            p.grad = None

    def step(self) -> None:
        """Apply one update from the accumulated gradients.

        A parameter with no gradient this step is treated as grad 0
        (its moments still decay). Non-finite gradients abort training
        by name rather than silently corrupting the moments: every
        gradient is checked before anything is updated, so an aborted
        step leaves the parameters, the moments and the step count as
        they were.
        """
        names = sorted(self.params)
        for name in names:
            g = self.params[name].grad
            if g is not None and not np.all(np.isfinite(g)):
                raise TrainingAborted(f"non-finite gradient in parameter {name!r}")
        self.step_count += 1
        t = self.step_count
        bc1 = 1.0 - self.beta1**t
        bc2 = 1.0 - self.beta2**t
        for name in names:
            p = self.params[name]
            g = p.grad if p.grad is not None else np.zeros_like(p.data)
            self.m[name] = self.beta1 * self.m[name] + (1.0 - self.beta1) * g
            self.v[name] = self.beta2 * self.v[name] + (1.0 - self.beta2) * (g * g)
            m_hat = self.m[name] / bc1
            v_hat = self.v[name] / bc2
            p.data = p.data - self.lr * m_hat / (np.sqrt(v_hat) + self.eps)
