"""First-order optimizers and a reduce-on-plateau learning-rate scheduler."""

from __future__ import annotations

import math

import numpy as np

from .tensor import Parameter

__all__ = ["SGD", "Adam", "AdamW", "PlateauScheduler", "make_optimizer"]


class SGD:
    """Plain stochastic gradient descent: v <- v - lr * g."""

    kind = "sgd"

    def __init__(self, params: list[Parameter], lr: float):
        if lr <= 0.0:
            raise ValueError(f"lr must be positive, got {lr}")
        self.params = [p for p in params if p.requires_grad]
        self.lr = float(lr)
        self.step_count = 0

    def zero_grad(self) -> None:
        for p in self.params:
            p.grad = None

    def _check_grads(self) -> None:
        if any(p.grad is None for p in self.params):
            raise RuntimeError("optimizer step before a backward pass reached every parameter")

    def step(self) -> None:
        self._check_grads()
        self.step_count += 1
        for p in self.params:
            p.data -= self.lr * p.grad


class Adam(SGD):
    """Adam with bias-corrected first and second moments."""

    kind = "adam"

    def __init__(
        self,
        params: list[Parameter],
        lr: float,
        beta1: float = 0.9,
        beta2: float = 0.999,
        eps: float = 1e-8,
    ):
        super().__init__(params, lr)
        if not (0.0 <= beta1 < 1.0 and 0.0 <= beta2 < 1.0):
            raise ValueError(f"betas must lie in [0, 1), got {beta1}, {beta2}")
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self._m = [np.zeros_like(p.data) for p in self.params]
        self._v = [np.zeros_like(p.data) for p in self.params]

    def step(self) -> None:
        self._check_grads()
        self.step_count += 1
        t = self.step_count
        bc1 = 1.0 - self.beta1**t
        bc2 = 1.0 - self.beta2**t
        for p, m, v in zip(self.params, self._m, self._v):
            g = p.grad
            m *= self.beta1
            m += (1.0 - self.beta1) * g
            v *= self.beta2
            v += (1.0 - self.beta2) * (g * g)
            p.data -= self.lr * (m / bc1) / (np.sqrt(v / bc2) + self.eps)


class AdamW(Adam):
    """Adam plus decoupled weight decay: v <- v - lr * weight_decay * v first."""

    kind = "adamw"

    def __init__(
        self,
        params: list[Parameter],
        lr: float,
        beta1: float = 0.9,
        beta2: float = 0.999,
        eps: float = 1e-8,
        weight_decay: float = 0.0,
    ):
        super().__init__(params, lr, beta1, beta2, eps)
        if weight_decay < 0.0:
            raise ValueError(f"weight_decay must be non-negative, got {weight_decay}")
        self.weight_decay = weight_decay

    def step(self) -> None:
        self._check_grads()
        if self.weight_decay:
            for p in self.params:
                p.data -= self.lr * self.weight_decay * p.data
        Adam.step(self)


def make_optimizer(kind: str, params: list[Parameter], lr: float, weight_decay: float = 0.0):
    """Build an optimizer by name: 'sgd', 'adam', or 'adamw'."""
    kind = kind.lower()
    if kind == "sgd":
        return SGD(params, lr)
    if kind == "adam":
        return Adam(params, lr)
    if kind == "adamw":
        return AdamW(params, lr, weight_decay=weight_decay)
    raise ValueError(f"unknown optimizer kind {kind!r}")


class PlateauScheduler:
    """Halve-on-plateau learning-rate schedule.

    Tracks the best (minimum) metric seen; once the metric has failed to
    improve for ``patience`` consecutive epochs the returned lr is multiplied
    by ``factor`` (floored at ``min_lr``) and the counter resets. A NaN metric
    never counts as an improvement. The returned lr never exceeds the current
    one.
    """

    def __init__(self, factor: float = 0.5, patience: int = 2, min_lr: float = 1e-6):
        if not (0.0 < factor < 1.0):
            raise ValueError(f"factor must lie in (0, 1), got {factor}")
        if patience < 0:
            raise ValueError(f"patience must be non-negative, got {patience}")
        self.factor = factor
        self.patience = patience
        self.min_lr = min_lr
        self.best_metric = math.inf
        self.epochs_since_improve = 0

    def update(self, epoch_metric: float, current_lr: float) -> float:
        if epoch_metric < self.best_metric:  # NaN compares false: no improvement
            self.best_metric = epoch_metric
            self.epochs_since_improve = 0
            return current_lr
        self.epochs_since_improve += 1
        if self.epochs_since_improve >= self.patience:
            self.epochs_since_improve = 0
            return min(current_lr, max(current_lr * self.factor, self.min_lr))
        return current_lr
