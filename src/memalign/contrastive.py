"""Minibatch contrastive training of a target-paradigm alignment module
against a frozen anchored module (InfoNCE over anchored negatives)."""
from __future__ import annotations

import time
from dataclasses import dataclass, replace

import numpy as np

from .optim import Minibatches, check_schedule
from .seeding import component_rng
from .unified import (
    AlignmentModule,
    align_forward,
    align_hidden,
    align_output,
    hidden_gradients,
)

ZERO_NORM_EPS = 1e-12


class ContrastiveError(ValueError):
    pass


@dataclass
class AlignConfig:
    n_demos: int = 2500  # demonstration pool size, holdout included
    negatives: int = 128  # negative sample size per instance
    batch_size: int = 32
    tau: float = 0.07
    epochs: int = 20
    learning_rate: float = 1e-4
    weight_decay: float = 0.01
    warmup_ratio: float = 0.1
    mse_weight: float = 0.1
    holdout: int = 500  # tail of the pool reserved for report accuracy
    seed: int = 42

    def __post_init__(self):  # the checks that need the pool are size_alignment's
        if self.tau <= 0:
            raise ContrastiveError("temperature must be positive")
        if self.mse_weight < 0:
            raise ContrastiveError("mse_weight must be non-negative")
        # A holdout of one instance has no pair of different instances.
        if not (self.holdout == 0 or self.holdout >= 2):
            raise ContrastiveError("holdout must be 0 or at least 2")
        if self.negatives < 1:
            raise ContrastiveError("negative sample size must be at least 1")
        check_schedule("alignment", self)


def size_alignment(config: AlignConfig, instances: int, views: int) -> AlignConfig:
    """``config`` sized for a pool of ``instances`` times ``views``
    demonstrations: ``n_demos`` is the pool, and the holdout is capped so
    that the rows left fill a batch and give each row ``negatives`` others
    to draw (0 if the cap is below 2).  A smaller pool is refused."""
    pool = instances * views
    rows = max(config.batch_size, config.negatives + 1)
    spare = pool - rows
    if spare < 0:
        setting = "batch size" if config.batch_size > config.negatives else "negative sample size"
        raise ContrastiveError(
            f"a pool of {pool} demonstrations (instances x views: {instances} x {views}) "
            f"is below the {rows} rows that the {setting} needs: lower it"
        )
    return replace(config, n_demos=pool, holdout=min(config.holdout, spare if spare >= 2 else 0))


@dataclass
class AlignTrainReport:
    epoch_losses: list[float]
    holdout_accuracy: float | None  # None without a holdout, as is cosine_gap
    wall_seconds: float
    anchor_digest_before: str
    anchor_digest_after: str
    holdout_size: int = 0
    cosine_gap: float | None = None


def cosine_sim(u: np.ndarray, v: np.ndarray) -> float:
    """Cosine similarity, the dot product of the :func:`unit_rows` of the
    two vectors: 0 when either is (near) zero, and scale-safe."""
    u = np.asarray(u, dtype=np.float64)
    v = np.asarray(v, dtype=np.float64)
    if u.shape != v.shape:
        raise ContrastiveError(f"dimension mismatch {u.shape} vs {v.shape}")
    return float(unit_rows(u) @ unit_rows(v))


def _row_norms(x: np.ndarray) -> np.ndarray:
    """The Euclidean norm of each row (last axis, kept).  A row whose
    squares overflow although its entries are finite is measured again
    divided by its largest absolute entry; other rows keep their bits."""
    with np.errstate(over="ignore"):
        norms = np.linalg.norm(x, axis=-1, keepdims=True)
    flat, rows = norms.reshape(-1), x.reshape(-1, x.shape[-1])
    for i in np.flatnonzero(np.isinf(flat)):
        scale = np.abs(rows[i]).max()
        if np.isfinite(scale):
            flat[i] = scale * np.linalg.norm(rows[i] / scale)
    return norms


def unit_rows(x: np.ndarray) -> np.ndarray:
    """Rows scaled to unit norm; rows of (near) zero norm become zero rows."""
    x = np.asarray(x, dtype=np.float64)
    norms = _row_norms(x)
    return x / np.where(norms < ZERO_NORM_EPS, np.inf, norms)


def infonce_batch(
    anchor_units: np.ndarray,
    h_t: np.ndarray,
    negative_units: np.ndarray,
    tau: float,
) -> tuple[np.ndarray, np.ndarray]:
    """InfoNCE for B rows at once, each a positive pair and its negatives.

    ``anchor_units`` (B, d) and ``negative_units`` (B, K, d) come from the
    frozen anchor side already passed through ``unit_rows``; ``h_t`` (B, d)
    holds the raw target vectors.  Returns the per-row losses (B,) and
    d loss_b / d h_t[b] (B, d).  A zero-norm vector has cosine 0 with
    everything and gets zero gradient.
    """
    norms = _row_norms(h_t)
    inv_norms = 1.0 / np.where(norms < ZERO_NORM_EPS, np.inf, norms)
    target_units = h_t * inv_norms
    positive = np.sum(anchor_units * target_units, axis=1)
    negative = np.matmul(negative_units, anchor_units[:, :, None])[:, :, 0]
    logits = np.concatenate([positive[:, None], negative], axis=1) / tau
    shifted = logits - logits.max(axis=1, keepdims=True)
    exp = np.exp(shifted)
    total = exp.sum(axis=1)
    losses = np.log(total) - shifted[:, 0]
    d_positive = (exp[:, 0] / total - 1.0) / tau
    d_cosine = (anchor_units - positive[:, None] * target_units) * inv_norms
    return losses, d_positive[:, None] * d_cosine


def infonce_loss(
    h_a: np.ndarray,
    h_t: np.ndarray,
    negatives: list[np.ndarray] | np.ndarray,
    tau: float,
) -> tuple[float, np.ndarray]:
    """InfoNCE over one positive pair and anchored negatives.

    Returns (loss, d loss / d h_t).  Gradient flows only through the
    positive similarity: negatives come from the frozen anchor side.
    This is the B = 1 case of ``infonce_batch``.
    """
    if tau <= 0:
        raise ContrastiveError("temperature must be positive")
    negatives = np.atleast_2d(np.asarray(negatives, dtype=np.float64))
    if negatives.size == 0:
        raise ContrastiveError("negatives must be nonempty")
    h_a = np.asarray(h_a, dtype=np.float64)
    h_t = np.asarray(h_t, dtype=np.float64)
    if h_a.shape != h_t.shape or negatives.shape[1:] != h_a.shape:
        raise ContrastiveError(
            f"dimension mismatch: {h_a.shape}, {h_t.shape}, negatives {negatives.shape}"
        )
    losses, grads = infonce_batch(
        unit_rows(h_a[None]), h_t[None], unit_rows(negatives)[None], tau
    )
    return float(losses[0]), grads[0]


def sample_negatives(
    pool_size: int, exclude: int, count: int, rng: np.random.Generator
) -> np.ndarray:
    """``count`` distinct indices from range(pool_size) excluding ``exclude``,
    uniform without replacement."""
    if count > pool_size - 1:
        raise ContrastiveError(
            f"cannot draw {count} negatives from a pool of {pool_size}"
        )
    # Draw positions in the pool with ``exclude`` removed, then map them
    # back past it.
    draw = rng.choice(pool_size - 1, size=count, replace=False)
    return draw + (draw >= exclude)


def _cosines(anchor_vecs: np.ndarray, target_vecs: np.ndarray) -> np.ndarray:
    """Cosine of each target row (rows) with each anchor row (columns); 0
    for a row of (near) zero norm."""
    return unit_rows(target_vecs) @ unit_rows(anchor_vecs).T


def topk_match_accuracy(anchor_vecs: np.ndarray, target_vecs: np.ndarray) -> float:
    """Top-1 accuracy of nearest-anchor (cosine) matching of target vectors."""
    sims = _cosines(anchor_vecs, target_vecs)
    return float(np.mean(np.argmax(sims, axis=1) == np.arange(sims.shape[0])))


def cosine_alignment_gap(anchor_vecs: np.ndarray, target_vecs: np.ndarray) -> float:
    """Mean same-instance cosine minus mean different-instance cosine."""
    sims = _cosines(anchor_vecs, target_vecs)
    n = sims.shape[0]
    same = float(np.trace(sims) / n)
    different = float((sims.sum() - np.trace(sims)) / (n * (n - 1)))
    return same - different


def train_alignment(
    anchor: AlignmentModule,
    target_init: AlignmentModule,
    anchor_raw: np.ndarray,
    target_raw: np.ndarray,
    config: AlignConfig,
) -> tuple[AlignmentModule, AlignTrainReport]:
    """Contrastive alignment of a target module against a frozen anchor.

    ``anchor_raw[i]`` and ``target_raw[i]`` are the anchored and target
    paradigm states of the same instance, one row each.  The anchor
    module is never written; its digest is recorded before and after
    training.  The last ``config.holdout`` rows are held out and scored
    after training; with no holdout, the report's accuracy and cosine gap
    are None.
    """
    if len(anchor_raw) != len(target_raw):
        raise ContrastiveError(
            f"state count mismatch: {len(anchor_raw)} anchored vs "
            f"{len(target_raw)} target"
        )
    if len(anchor_raw) != config.n_demos:
        raise ContrastiveError(
            f"expected {config.n_demos} demonstrations, got {len(anchor_raw)}"
        )

    started = time.perf_counter()
    digest_before = anchor.digest()
    # Anchor side is frozen: its unified vectors are fixed for the whole run.
    anchor_vecs = align_forward(anchor, anchor_raw)

    train_n = config.n_demos - config.holdout
    if train_n < config.batch_size:
        raise ContrastiveError("training pool smaller than batch size")
    module = target_init.copy()
    rng = component_rng(config.seed, "align-train")
    anchor_units = unit_rows(anchor_vecs)
    run = Minibatches(module.flat, train_n, config, rng)
    for batch in run:
        x = target_raw[batch]
        # Layer 1 runs once; the gradient step reuses its activations.
        hidden = align_hidden(module, x)
        h_t = align_output(module, hidden)
        neg_idx = np.stack(
            [sample_negatives(train_n, int(j), config.negatives, rng) for j in batch]
        )
        losses, d_ht = infonce_batch(
            anchor_units[batch], h_t, anchor_units[neg_idx], config.tau
        )
        if config.mse_weight > 0:
            diff = h_t - anchor_vecs[batch]
            losses += config.mse_weight * np.mean(diff * diff, axis=1)
            d_ht += config.mse_weight * 2.0 * diff / diff.shape[1]
        hidden_gradients(module, x, hidden, d_ht / len(batch), out=run.grad)
        run.loss += float(losses.sum())

    accuracy = gap = None
    if config.holdout > 0:
        eval_idx = np.arange(train_n, config.n_demos)
        eval_anchor = anchor_vecs[eval_idx]
        eval_target = align_forward(module, target_raw[eval_idx])
        accuracy = topk_match_accuracy(eval_anchor, eval_target)
        gap = cosine_alignment_gap(eval_anchor, eval_target)

    report = AlignTrainReport(
        epoch_losses=run.epoch_losses,
        holdout_accuracy=accuracy,
        wall_seconds=time.perf_counter() - started,
        anchor_digest_before=digest_before,
        anchor_digest_after=anchor.digest(),
        holdout_size=config.holdout,
        cosine_gap=gap,
    )
    return module, report
