"""From-scratch AdamW with linear warmup and cosine annealing."""
from __future__ import annotations

import math

import numpy as np

# Elements of a parameter updated at a time: the step's temporaries stay in
# cache, and no parameter-sized temporary is allocated.
UPDATE_CHUNK = 1 << 14


def lr_at_step(
    step: int, total_steps: int, base_lr: float, warmup_ratio: float
) -> float:
    """Linear warmup over ``warmup_ratio`` of total steps, then cosine decay to 0.

    ``step`` is 0-based.
    """
    if total_steps <= 0:
        return base_lr
    warmup_steps = int(round(warmup_ratio * total_steps))
    if warmup_steps > 0 and step < warmup_steps:
        return base_lr * (step + 1) / warmup_steps
    span = max(total_steps - warmup_steps, 1)
    progress = min((step - warmup_steps) / span, 1.0)
    return base_lr * 0.5 * (1.0 + math.cos(math.pi * progress))


def check_schedule(stage: str, lr: float, weight_decay: float, warmup_ratio: float) -> None:
    """Refuse ``stage``'s optimizer settings that cannot train, NaN included."""
    if not (lr > 0 and weight_decay >= 0 and 0 <= warmup_ratio <= 1):
        raise ValueError(f"{stage} needs learning rate > 0, weight decay >= 0, warmup in [0, 1]")


class AdamW:
    """Decoupled weight decay Adam over a dict of named numpy parameters.

    ``m`` and ``v`` are the textbook first and second moments.  As in
    ``torch.optim.AdamW``, the decay scales the parameter by
    ``1 - lr wd`` and the bias corrections and eps fold into two scalars:

        (m / bc1) / (sqrt(v / bc2) + eps)
            = (sqrt(bc2) / bc1) * m / (sqrt(v) + eps sqrt(bc2))

    so a step takes one divide per element.  Parameters are updated in
    place, ``UPDATE_CHUNK`` elements at a time through two fixed buffer
    rows; iteration order is the sorted parameter name, so updates are
    deterministic.  A gradient must have its parameter's shape.  The betas
    and eps are the ``torch.optim.AdamW`` defaults.
    """

    def __init__(
        self,
        params: dict[str, np.ndarray],
        lr: float = 1e-3,
        weight_decay: float = 0.0,
        total_steps: int = 0,
        warmup_ratio: float = 0.0,
    ):
        self.params = params
        self.base_lr = lr
        self.beta1, self.beta2 = 0.9, 0.999
        self.eps = 1e-8
        self.weight_decay = weight_decay
        self.total_steps = total_steps
        self.warmup_ratio = warmup_ratio
        self.t = 0
        for name, p in params.items():
            if not p.flags.c_contiguous:
                raise ValueError(f"parameter {name!r} is not C-contiguous")
        self.m = {k: np.zeros_like(v) for k, v in params.items()}
        self.v = {k: np.zeros_like(v) for k, v in params.items()}
        self._buffers = np.empty((2, UPDATE_CHUNK))

    def current_lr(self) -> float:
        return lr_at_step(self.t, self.total_steps, self.base_lr, self.warmup_ratio)

    def step(self, grads: dict[str, np.ndarray]) -> None:
        for name, p in self.params.items():
            if grads[name].shape != p.shape:
                raise ValueError(
                    f"gradient of {name!r} has shape {grads[name].shape} but "
                    f"the parameter has shape {p.shape}"
                )
        lr = self.current_lr()
        self.t += 1
        sqrt_bc2 = math.sqrt(1.0 - self.beta2**self.t)
        step_size = lr * sqrt_bc2 / (1.0 - self.beta1**self.t)
        eps = self.eps * sqrt_bc2
        decay = 1.0 - lr * self.weight_decay
        b1, b2 = self.beta1, self.beta2
        for name in sorted(self.params):
            # Flat views: the updates below write through to the parameter
            # and its moments, which are C-contiguous.
            flat_p = self.params[name].reshape(-1)
            flat_g = grads[name].reshape(-1)
            flat_m = self.m[name].reshape(-1)
            flat_v = self.v[name].reshape(-1)
            for start in range(0, flat_p.size, UPDATE_CHUNK):
                chunk = slice(start, start + UPDATE_CHUNK)
                p, g, m, v = flat_p[chunk], flat_g[chunk], flat_m[chunk], flat_v[chunk]
                update, tmp = self._buffers[:, : p.size]
                # m = b1 m + (1 - b1) g;  v = b2 v + (1 - b2) g^2
                m *= b1
                np.multiply(1.0 - b1, g, out=tmp)
                m += tmp
                v *= b2
                np.square(g, out=tmp)
                tmp *= 1.0 - b2
                v += tmp
                # p = (1 - lr wd) p - step_size m / (sqrt(v) + eps)
                p *= decay
                np.sqrt(v, out=tmp)
                tmp += eps
                np.divide(m, tmp, out=update)
                update *= step_size
                p -= update
