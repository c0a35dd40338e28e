"""From-scratch AdamW with linear warmup and cosine annealing."""
from __future__ import annotations

import math
from dataclasses import fields

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


def check_schedule(stage: str, config) -> None:
    """Refuse ``stage``'s settings that cannot train, NaN included: the
    fields of ``config`` that :class:`Minibatches` reads."""
    if config.epochs < 1 or config.batch_size < 1:
        raise ValueError(f"{stage} epochs and batch size need to be at least 1")
    lr, decay, warmup = config.learning_rate, config.weight_decay, config.warmup_ratio
    if not (lr > 0 and decay >= 0 and 0 <= warmup <= 1):
        raise ValueError(f"{stage} needs learning rate > 0, weight decay >= 0, warmup in [0, 1]")


class FlatParameters:
    """Base of a dataclass whose fields are all parameter arrays.

    Construction copies the given arrays, in field order, into one float64
    buffer ``flat`` and leaves each field a C-order view of its slice, so
    ``AdamW`` updates every parameter through ``flat``, and a gradient
    buffer laid out by ``views`` matches it element for element.  A
    subclass is a frozen dataclass, so no field can be rebound away from
    ``flat``, and its ``__post_init__`` calls this one first.  The copy
    raises no floating-point warning: a signalling NaN (one a checkpoint
    can hold) becomes a quiet one, for the subclass to refuse with its own
    error whatever the warnings filter.
    """

    flat: np.ndarray

    def __post_init__(self):
        flat = np.empty(sum(np.size(p) for p in self.parameters().values()))
        with np.errstate(invalid="ignore"):
            for name, view in self.views(flat).items():
                view[...] = getattr(self, name)
                object.__setattr__(self, name, view)
        object.__setattr__(self, "flat", flat)

    def parameters(self) -> dict[str, np.ndarray]:
        return {f.name: getattr(self, f.name) for f in fields(self)}

    def views(self, buffer: np.ndarray) -> dict[str, np.ndarray]:
        """``buffer`` laid out as ``flat`` is: one view per field, by name."""
        views, start = {}, 0
        for name, param in self.parameters().items():
            views[name] = buffer[start : start + np.size(param)].reshape(np.shape(param))
            start += np.size(param)
        return views

    def copy(self):
        return type(self)(**self.parameters())


class AdamW:
    """Decoupled weight decay Adam over one 1-D buffer of parameters.

    ``m`` and ``v`` are the textbook first and second moments.  As in
    ``torch.optim.AdamW``, the decay scales the parameter by
    ``1 - lr wd`` and the bias corrections and eps fold into two scalars:

        (m / bc1) / (sqrt(v / bc2) + eps)
            = (sqrt(bc2) / bc1) * m / (sqrt(v) + eps sqrt(bc2))

    so a step takes one divide per element.  The parameters are updated in
    place, ``UPDATE_CHUNK`` elements at a time through two fixed buffer
    rows.  A gradient must have the parameters' shape.  The betas and eps
    are the ``torch.optim.AdamW`` defaults.
    """

    def __init__(
        self,
        params: np.ndarray,
        lr: float = 1e-3,
        weight_decay: float = 0.0,
        total_steps: int = 0,
        warmup_ratio: float = 0.0,
    ):
        # A slice of a 1-D array is a view, so every update writes through.
        if params.ndim != 1:
            raise ValueError(f"parameters must be one 1-D buffer, not of shape {params.shape}")
        self.params = params
        self.base_lr = lr
        self.beta1, self.beta2 = 0.9, 0.999
        self.eps = 1e-8
        self.weight_decay = weight_decay
        self.total_steps = total_steps
        self.warmup_ratio = warmup_ratio
        self.t = 0
        self.m = np.zeros_like(params)
        self.v = np.zeros_like(params)
        self._buffers = np.empty((2, UPDATE_CHUNK))

    def current_lr(self) -> float:
        return lr_at_step(self.t, self.total_steps, self.base_lr, self.warmup_ratio)

    def step(self, grad: np.ndarray) -> None:
        if grad.shape != self.params.shape:
            raise ValueError(
                f"gradient has shape {grad.shape} but the parameters have "
                f"shape {self.params.shape}"
            )
        lr = self.current_lr()
        self.t += 1
        sqrt_bc2 = math.sqrt(1.0 - self.beta2**self.t)
        step_size = lr * sqrt_bc2 / (1.0 - self.beta1**self.t)
        eps = self.eps * sqrt_bc2
        decay = 1.0 - lr * self.weight_decay
        b1, b2 = self.beta1, self.beta2
        for start in range(0, self.params.size, UPDATE_CHUNK):
            chunk = slice(start, start + UPDATE_CHUNK)
            p, g, m, v = self.params[chunk], grad[chunk], self.m[chunk], self.v[chunk]
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


class Minibatches:
    """The minibatch AdamW loop of both training stages.

    Each of ``config.epochs`` epochs yields a fresh ``rng.permutation(n)``
    in ``config.batch_size`` slices, the last one partial.  The loop body
    stays in the caller's frame, so its temporaries outlive the step: it
    writes the batch's gradient into ``grad`` and adds its summed loss to
    ``loss``, and the next request steps AdamW over ``params``.  Each epoch
    appends ``loss / n`` to ``epoch_losses``, then raises ``ValueError`` if
    the loss or a parameter is not finite.
    """

    def __init__(self, params: np.ndarray, n: int, config, rng: np.random.Generator):
        self.n, self.config, self.rng = n, config, rng
        steps = config.epochs * -(-n // config.batch_size)
        self.optimizer = AdamW(
            params, config.learning_rate, config.weight_decay, steps, config.warmup_ratio
        )
        self.grad = np.empty_like(params)
        self.loss = 0.0
        self.epoch_losses: list[float] = []

    def __iter__(self):
        size, params = self.config.batch_size, self.optimizer.params
        for epoch in range(1, self.config.epochs + 1):
            perm = self.rng.permutation(self.n)
            self.loss = 0.0
            for start in range(0, self.n, size):
                yield perm[start : start + size]
                self.optimizer.step(self.grad)
            self.epoch_losses.append(self.loss / self.n)
            if not (math.isfinite(self.loss) and np.isfinite(params).all()):
                raise ValueError(f"training diverged in epoch {epoch}: loss or parameters not finite")
