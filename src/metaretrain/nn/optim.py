"""SGD with classical momentum: v <- mu*v - lr*g; p <- p + v."""

from __future__ import annotations

import numpy as np

from ..errors import ValidationError
from .layers import Model


class SGD:
    """Per-parameter velocity buffers keyed by parameter name."""

    def __init__(self, learning_rate: float, momentum: float = 0.0):
        if learning_rate < 0:
            raise ValidationError("learning rate must be non-negative")
        if not 0.0 <= momentum < 1.0:
            raise ValidationError("momentum must be in [0, 1)")
        self.learning_rate = float(learning_rate)
        self.momentum = float(momentum)
        self.velocities: dict[str, np.ndarray] = {}

    def step(self, model: Model) -> None:
        for name, p in model.named_parameters():
            if not p.requires_grad:
                continue
            if p.grad is None:
                raise ValidationError(f"sgd step without gradient for parameter {name!r}")
            v = self.velocities.get(name)
            if v is None:
                v = np.zeros_like(p.data)
            v = self.momentum * v - self.learning_rate * p.grad
            v = v.astype(p.data.dtype)
            self.velocities[name] = v
            p.data = p.data + v
        model.bump_version()
