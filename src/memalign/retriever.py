"""Generative subgraph retriever: a small gated-recurrence token model
conditioned on (query embedding, unified memory vector), trained by
token-level KL + CE distillation against a label-smoothing teacher oracle
over gold serializations."""
from __future__ import annotations

import time
from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

from .graphs import EvidenceSubgraph, MemoryGraph, verify_subset
from .optim import FlatParameters, Minibatches, check_schedule
from .seeding import component_rng, fnv1a64
from .tokenization import linearize_evidence
from .vocab import BOS, Vocabulary


class RetrieverError(ValueError):
    pass


class QueryEmbedder:
    """Seeded feature-hashing bag-of-words embedder, L2-normalized."""

    # Words whose (slot, sign) is memoized; the memo starts over when full.
    MEMO_WORDS = 4096

    def __init__(self, d_q: int = 64, seed: int = 0):
        if d_q < 2:
            raise RetrieverError("query embedding dimension must be >= 2")
        self.d_q = d_q
        self.seed = seed
        self._slots: dict[str, tuple[int, float]] = {}

    def _slot(self, word: str) -> tuple[int, float]:
        """The coordinate a word hashes to and the sign it adds there."""
        slot = self._slots.get(word)
        if slot is None:
            h = fnv1a64(word.encode("utf-8")) ^ self.seed
            slot = (h % self.d_q, 1.0 if (h >> 32) & 1 else -1.0)
            if len(self._slots) >= self.MEMO_WORDS:
                self._slots.clear()
            self._slots[word] = slot
        return slot

    def embed(self, text: str) -> np.ndarray:
        vec = np.zeros(self.d_q)
        for word in text.lower().split():
            index, sign = self._slot(word)
            vec[index] += sign
        norm = np.linalg.norm(vec)
        if norm > 0:
            vec /= norm
        return vec


# 1/2 as a 0-d array: NumPy multiplies by it faster than by a Python float,
# which it converts on every call.
_HALF = np.array(0.5)


@dataclass(frozen=True)
class RetrieverModel(FlatParameters):
    """Single-layer gated recurrence decoder over the graph vocabulary.

    The conditioning vector concat(q, h) is projected (tanh) into the
    initial recurrent state.  Per step on input embedding x and state s:

        z = sigmoid(Wz x + Uz s + bz)
        c = tanh(Wc x + Uc s + bc)
        s' = (1 - z) * s + z * c
        logits = Wo s' + bo

    The gate parameters are stored stacked, ``w_in`` = [Wz; Wc],
    ``u_rec`` = [Uz; Uc] and ``b_in`` = [bz; bc]; the first d_m rows of
    each belong to the update gate z, the last d_m to the candidate c.

    The cell computes the gate as sigmoid(a) = (1 + tanh(a / 2)) / 2, so
    one tanh serves both gates.  The projection table and the recurrence
    weight it multiplies by are kept gate-major, the update gate's half
    scaled by 1/2 (exact for all but subnormal values), so that g = tanh(a / 2)
    and c come out of one tanh over one (2, B, d_m) array.
    """

    emb: np.ndarray  # V x d_m token embeddings
    cond_weight: np.ndarray  # d_m x (d_q + d_s)
    cond_bias: np.ndarray
    w_in: np.ndarray  # 2 d_m x d_m
    u_rec: np.ndarray  # 2 d_m x d_m
    b_in: np.ndarray  # 2 d_m
    out_weight: np.ndarray  # V x d_m
    out_bias: np.ndarray

    def __post_init__(self):
        super().__post_init__()
        v, d_m = self.emb.shape
        if self.out_weight.shape != (v, d_m) or self.out_bias.shape != (v,):
            raise RetrieverError("inconsistent output head shapes")
        for w in (self.w_in, self.u_rec):
            if w.shape != (2 * d_m, d_m):
                raise RetrieverError("inconsistent recurrence shapes")
        if self.b_in.shape != (2 * d_m,) or self.cond_bias.shape != (d_m,):
            raise RetrieverError("inconsistent bias shapes")
        if self.cond_weight.shape[0] != d_m:
            raise RetrieverError("inconsistent conditioning projection shape")
        if not np.all(np.isfinite(self.flat)):
            raise RetrieverError("non-finite retriever parameters")

    @property
    def vocab_size(self) -> int:
        return self.emb.shape[0]

    @property
    def d_m(self) -> int:
        return self.emb.shape[1]

    @property
    def d_cond(self) -> int:
        return self.cond_weight.shape[1]

    def parameter_count(self) -> int:
        return self.flat.size

    # -- the cell, run by training and decoding: each call is one gemm over
    # a batch of rows (NumPy hands a one-row batch to gemv).

    def conditioning(self, q: np.ndarray, h: np.ndarray) -> np.ndarray:
        """The conditioning row concat(q, h) of one request (1-D vectors), or
        the rows of a batch (2-D, one row per request)."""
        cond = np.concatenate([np.asarray(q, float), np.asarray(h, float)], axis=-1)
        if cond.ndim > 2 or cond.shape[-1] != self.d_cond:
            raise RetrieverError(f"conditioning dimension {cond.shape[-1]} != {self.d_cond}")
        return cond

    def init_states(self, conds: np.ndarray) -> np.ndarray:
        """The initial states (B, d_m) of conditioning rows (B, d_q + d_s)."""
        return np.tanh(conds @ self.cond_weight.T + self.cond_bias)

    # The projection table and the recurrence weight are kept across
    # decodes.  The parameters are views of ``flat`` that cannot be rebound,
    # so they change only in place: sequence_logits drops both, and so must
    # a caller that changes emb, w_in, b_in or u_rec before it decodes
    # (train_retriever does once, after training).
    # copy() and checkpoint loading start without them; they are never
    # serialized.  Both are gate-major, the update gate first, and its half
    # is scaled by 1/2 where they are built, so the cell takes the gate's
    # sigmoid as a tanh.

    def projections(self) -> np.ndarray:
        """The projection table (2, V, d_m): ``table[0, t]`` is
        (Wz x + bz) / 2 and ``table[1, t]`` is Wc x + bc for the embedding x
        of token t, built for the whole vocabulary by one gemm when first
        read."""
        table = self.__dict__.get("_projections")
        if table is None:
            flat = self.emb @ self.w_in.T + self.b_in
            table = np.stack([flat[:, : self.d_m], flat[:, self.d_m :]])
            table[0] *= 0.5
            self.__dict__["_projections"] = table
        return table

    def recurrence_weight(self) -> np.ndarray:
        """[Uz.T / 2, Uc.T] (2, d_m, d_m), laid out contiguously: a
        transposed view multiplies slower and rounds differently."""
        u_t = self.__dict__.get("_recurrence_weight")
        if u_t is None:
            u_t = np.stack([self.u_rec[: self.d_m].T, self.u_rec[self.d_m :].T])
            u_t[0] *= 0.5
            self.__dict__["_recurrence_weight"] = u_t
        return u_t

    def drop_projections(self) -> None:
        """Forget the projection table and the recurrence weight."""
        self.__dict__["_projections"] = self.__dict__["_recurrence_weight"] = None

    def transition(
        self, x_proj: np.ndarray, states: np.ndarray, acts=None, out=None
    ) -> np.ndarray:
        """One recurrence step of each row of a (B, d_m) state batch, given
        the rows' input projections (2, B, d_m), gathered from the
        projection table; returns the new states.

        One tanh over the pre-activations gives g = tanh(a_z / 2) and the
        candidate c, and with z = (1 + g) / 2 the new state (1 - z) s + z c
        is (s + c + g (c - s)) / 2: one gemm and seven more NumPy calls,
        over contiguous gate and candidate halves.  The activations (g, c)
        and the new states are written into ``acts`` and ``out`` when those
        are given.
        """
        pre = np.matmul(states, self.recurrence_weight(), out=acts)
        pre += x_proj  # U s + (W x + b), as W x + b + U s: addition commutes
        np.tanh(pre, out=pre)
        gate, cand = pre[0], pre[1]
        new = np.subtract(cand, states, out=out)
        new *= gate
        new += states
        new += cand
        new *= _HALF
        return new

    def logits(self, states: np.ndarray) -> np.ndarray:
        """The output projection: next-token logits of each row of a batch
        (B, d_m), or of one state (d_m,)."""
        return states @ self.out_weight.T + self.out_bias

    def cell(self, token: int, state: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """One recurrence step of one state (d_m,) on an input token, as a
        one-row ``transition`` and ``logits``; returns (logits, new state)."""
        if not 0 <= token < self.vocab_size:
            raise RetrieverError(f"token id {token} out of range")
        new_state = self.transition(self.projections()[:, token : token + 1], state[None])
        return self.logits(new_state)[0], new_state[0]


def init_retriever(
    vocab_size: int, d_m: int, d_q: int, d_s: int, seed: int
) -> RetrieverModel:
    rng = np.random.default_rng(seed)

    def uniform(shape, fan_in):
        bound = 1.0 / np.sqrt(fan_in)
        return rng.uniform(-bound, bound, size=shape)

    emb = uniform((vocab_size, d_m), d_m)
    cond_weight = uniform((d_m, d_q + d_s), d_q + d_s)
    # The gate matrices are drawn in the order wz, uz, wc, uc, which fixes
    # the weights each seed gives.
    wz, uz, wc, uc = (uniform((d_m, d_m), d_m) for _ in range(4))
    return RetrieverModel(
        emb=emb,
        cond_weight=cond_weight,
        cond_bias=np.zeros(d_m),
        w_in=np.concatenate([wz, wc]),
        u_rec=np.concatenate([uz, uc]),
        b_in=np.zeros(2 * d_m),
        out_weight=uniform((vocab_size, d_m), d_m),
        out_bias=np.zeros(vocab_size),
    )


@dataclass
class _ForwardCache:
    """Activations of a teacher-forced pass over a padded batch of B
    sequences, T = the longest sequence's step count, time-major.  The
    input projections are not kept: each step's is a row of the model's
    projection table, gathered by the input token id."""

    inputs: np.ndarray  # (T, B) input token ids, padded with BOS
    mask: np.ndarray  # (B, T) step mask: True where a step is real
    lengths: np.ndarray  # (B,) steps per sequence
    cond: np.ndarray  # (B, d_q + d_s)
    states: np.ndarray  # (T + 1, B, d_m) with states[0] = initial states
    acts: np.ndarray  # (T, 2, B, d_m): each step's g = tanh(a_z / 2) and c
    hidden: np.ndarray  # (sum(lengths), d_m): the real steps' new states
    logits: np.ndarray  # (sum(lengths), V): real steps, sequence by sequence


def sequence_logits(
    model: RetrieverModel,
    tokens: list[int] | list[list[int]],
    q: np.ndarray,
    h: np.ndarray,
) -> _ForwardCache:
    """Teacher-forced forward pass over one sequence or a minibatch.

    ``tokens`` is one BOS-led id sequence with vectors ``q`` and ``h``, or
    a list of B such sequences with (B, d_q) and (B, d_s) matrices; one
    sequence is the B = 1 case.  The batch is padded to its longest
    sequence.  Row r of ``logits`` is a real step of one sequence: the
    rows run through sequence 0's steps, then sequence 1's, and so on,
    and the row for step t predicts that sequence's token t + 1.

    Each step's input projection W x + b is gathered from the model's
    projection table; every token id must lie in [0, vocab_size).
    """
    if len(tokens) and isinstance(tokens[0], (int, np.integer)):
        tokens = [tokens]
    seqs = [list(seq) for seq in tokens]
    if not seqs or any(len(seq) < 2 or seq[0] != BOS for seq in seqs):
        raise RetrieverError("token sequence must start with BOS and be non-trivial")
    cond = np.atleast_2d(model.conditioning(q, h))
    if cond.shape[0] != len(seqs):
        raise RetrieverError(f"conditioning rows {cond.shape[0]} != sequences {len(seqs)}")
    lengths = np.array([len(seq) - 1 for seq in seqs])
    batch, steps = len(seqs), int(lengths.max())
    d_m = model.d_m
    inputs = np.full((steps, batch), BOS)
    for b, seq in enumerate(seqs):
        inputs[: lengths[b], b] = seq[:-1]
    mask = np.arange(steps) < lengths[:, None]
    # Every id is an input but each sequence's last, a target only.
    for token in (inputs.min(), inputs.max(), *(seq[-1] for seq in seqs)):
        if not 0 <= token < model.vocab_size:
            raise RetrieverError(f"token id {token} out of range")

    # The pass reads the parameters as they are now, also after an edit in
    # place, so the table and recurrence weight cached from older values go.
    model.drop_projections()
    # W x + b of each step's input token, (2, T, B, d_m); the cell adds U s.
    pre_in = model.projections()[:, inputs]
    states = np.empty((steps + 1, batch, d_m))
    acts = np.empty((steps, 2, batch, d_m))
    states[0] = model.init_states(cond)
    for t in range(steps):
        model.transition(pre_in[:, t], states[t], acts[t], out=states[t + 1])
    hidden = states[1:].swapaxes(0, 1)[mask]
    return _ForwardCache(inputs, mask, lengths, cond, states, acts, hidden, model.logits(hidden))


def sequence_backward(
    model: RetrieverModel, cache: _ForwardCache, d_logits: np.ndarray, out=None
) -> dict[str, np.ndarray]:
    """Backpropagation through time given the gradient of every logit row.

    The gradients, summed over the batch's sequences, are written into the
    views ``model.views(out)`` (of a new buffer without ``out``) it returns.
    The loop runs only the sequential state recurrence, six NumPy calls a
    step; the local derivatives of every step are formed before it, and the
    weight gradients are matmuls over all steps after it.  Padded steps get
    zero gradient.
    The gate pre-activation gradients are first summed per distinct input
    token, so the gradients of ``w_in`` and ``emb`` are gemms over those U
    tokens rather than over the T B steps or the V vocabulary rows.
    """
    if d_logits.shape != cache.logits.shape:
        raise RetrieverError("logit gradient shape mismatch")
    steps, batch = cache.inputs.shape
    rows, d_m = cache.hidden.shape
    grads = model.views(np.empty_like(model.flat) if out is None else out)
    np.matmul(d_logits.T, cache.hidden, out=grads["out_weight"])
    d_logits.sum(axis=0, out=grads["out_bias"])
    # The hidden-state gradient of each logit row and, last, a zero row:
    # step t of sequence b reads row row_of[t, b], the zero row when padded.
    d_hidden = np.empty((rows + 1, d_m))
    np.matmul(d_logits, model.out_weight, out=d_hidden[:rows])
    d_hidden[rows] = 0.0
    row_of = np.full((steps, batch), rows)
    row_of.T[cache.mask] = np.arange(rows)

    # Local derivatives of s' = (1 - z) s + z c wrt the z and c
    # pre-activations, z (1 - c c) and (c - s) z (1 - z), for every step at
    # once, written into d_pre; the loop scales each step's in place by its
    # state gradient.  One (T, B, d_m) buffer holds z, then 1 - z.
    g, c, s = cache.acts[:, 0], cache.acts[:, 1], cache.states[:-1]
    d_pre = np.empty((steps, batch, 2, d_m))
    d_z, d_c = d_pre[:, :, 0], d_pre[:, :, 1]
    z = np.add(g, 1.0)
    z *= 0.5  # sigmoid(a_z) = (1 + tanh(a_z / 2)) / 2
    np.multiply(c, c, out=d_c)
    np.subtract(1.0, d_c, out=d_c)
    d_c *= z
    np.subtract(c, s, out=d_z)
    d_z *= z
    carry = np.subtract(1.0, z, out=z)
    d_z *= carry
    u_rec = model.u_rec
    d_state = np.zeros((batch, d_m))
    d_s_new, d_rec = np.empty((2, batch, d_m))
    for t in range(steps - 1, -1, -1):
        np.take(d_hidden, row_of[t], axis=0, out=d_s_new, mode="clip")
        d_s_new += d_state
        d_pre[t] *= d_s_new[:, None, :]
        np.matmul(d_pre[t].reshape(batch, 2 * d_m), u_rec, out=d_rec)
        np.multiply(d_s_new, carry[t], out=d_state)
        d_state += d_rec

    flat_pre = d_pre.reshape(steps * batch, 2 * d_m)
    np.matmul(flat_pre.T, cache.states[:-1].reshape(steps * batch, d_m), out=grads["u_rec"])
    flat_pre.sum(axis=0, out=grads["b_in"])
    # Each step's pre-activation gradient summed into its input token's
    # row, step by step in np.add.at's order, by one bincount over
    # (token, column) bins; the input x of every step of a token is its
    # embedding, so both input gradients follow from these U rows.
    tokens, token_rows = np.unique(cache.inputs.reshape(-1), return_inverse=True)
    bins = (token_rows[:, None] * (2 * d_m) + np.arange(2 * d_m)).reshape(-1)
    d_pre_tokens = np.bincount(
        bins, weights=d_pre.reshape(-1), minlength=tokens.shape[0] * 2 * d_m
    ).reshape(tokens.shape[0], 2 * d_m)
    np.matmul(d_pre_tokens.T, model.emb[tokens], out=grads["w_in"])
    grads["emb"].fill(0.0)
    grads["emb"][tokens] = d_pre_tokens @ model.w_in
    d_s0_pre = d_state * (1.0 - cache.states[0] ** 2)
    np.matmul(d_s0_pre.T, cache.cond, out=grads["cond_weight"])
    d_s0_pre.sum(axis=0, out=grads["cond_bias"])
    return grads


# -- distillation objective ---------------------------------------------


def teacher_distribution(
    gold: Sequence[int], step: int, epsilon: float, vocab_size: int
) -> np.ndarray:
    """Label-smoothed gold distribution: (1-eps) one-hot + eps uniform."""
    tokens = list(gold)
    if not 0 <= step < len(tokens):
        raise RetrieverError(f"step {step} out of range for length {len(tokens)}")
    return teacher_distributions([tokens[step]], epsilon, vocab_size)[0]


def teacher_distributions(
    targets: list[int] | np.ndarray, epsilon: float, vocab_size: int
) -> np.ndarray:
    """One label-smoothed teacher row per target token, as a (steps, V) array."""
    if not 0.0 <= epsilon < 1.0:
        raise RetrieverError("epsilon must be in [0, 1)")
    targets = np.asarray(targets)
    dists = np.full((targets.shape[0], vocab_size), epsilon / vocab_size)
    dists[np.arange(targets.shape[0]), targets] += 1.0 - epsilon
    return dists


@dataclass
class DistillConfig:
    kl_weight: float = 0.5
    kl_temperature: float = 2.0
    ce_weight: float = 1.0
    teacher_epsilon: float = 0.05
    epochs: int = 3
    learning_rate: float = 1e-5
    weight_decay: float = 0.01
    warmup_ratio: float = 0.05
    batch_size: int = 4
    max_output_tokens: int = 512
    seed: int = 42

    def __post_init__(self):
        if not (self.kl_temperature > 0 and self.kl_weight >= 0 and self.ce_weight >= 0):
            raise RetrieverError("need KL temperature > 0 and KL and CE weights >= 0")
        if not 0.0 <= self.teacher_epsilon < 1.0:
            raise RetrieverError("teacher epsilon must be in [0, 1)")
        check_schedule("distillation", self)


def log_softmax(logits: np.ndarray, axis: int = -1) -> np.ndarray:
    shifted = logits - logits.max(axis=axis, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=axis, keepdims=True))


def _plogp_sums(dists: np.ndarray) -> np.ndarray:
    """Σ p log p of each row of a (steps, V) array, with 0 log 0 = 0."""
    with np.errstate(divide="ignore", invalid="ignore"):
        plogp = np.where(dists > 0, dists * np.log(dists), 0.0)
    return plogp.sum(axis=1)


def distill_loss(
    teacher_dists: np.ndarray,
    student_logits: np.ndarray,
    config: DistillConfig,
    gold_tokens: list[int] | np.ndarray | None = None,
    lengths: list[int] | np.ndarray | None = None,
) -> tuple[float, np.ndarray]:
    """Token-level KL + CE distillation objective.

    loss = kl_weight * T^2 * mean_t KL(p_teacher,t || softmax(logits_t / T))
         + ce_weight * mean_t CE(gold_t, softmax(logits_t))

    Returns (loss, d loss / d student_logits).  The T^2 factor keeps the
    KL gradient scale independent of the temperature.  Gold tokens default
    to the teacher argmax.  The rows are the steps of one sequence, or of
    several laid end to end with ``lengths[i]`` steps for sequence i; the
    loss is then the sum of the per-sequence losses, each a mean over its
    own steps.  Log-probabilities come from log-softmax, so the loss is
    finite for any finite logits.
    """
    teacher_dists = np.asarray(teacher_dists, dtype=np.float64)
    student_logits = np.asarray(student_logits, dtype=np.float64)
    if teacher_dists.shape != student_logits.shape:
        raise RetrieverError(
            f"step count/vocab mismatch: teacher {teacher_dists.shape} vs "
            f"student {student_logits.shape}"
        )
    # Written so that a NaN or infinite entry fails.
    sums = teacher_dists.sum(axis=1)
    if not (np.all(teacher_dists >= 0.0) and np.all(np.abs(sums - 1.0) <= 1e-9)):
        raise RetrieverError("teacher distributions must be non-negative and sum to 1")
    steps = teacher_dists.shape[0]
    if gold_tokens is None:
        gold_tokens = np.argmax(teacher_dists, axis=1)
    if len(gold_tokens) != steps:
        raise RetrieverError("gold token count mismatch")
    lengths = np.array([steps]) if lengths is None else np.asarray(lengths)
    if np.any(lengths < 1) or lengths.sum() != steps:
        raise RetrieverError("sequence lengths must be positive and cover every step")

    def teacher_terms(log_q_t, q_t):
        kl_per_step = _plogp_sums(teacher_dists) - (teacher_dists * log_q_t).sum(axis=1)
        return kl_per_step, q_t - teacher_dists

    return _distill(student_logits, config, gold_tokens, lengths, teacher_terms)


def _distill(student_logits, config, gold_tokens, lengths, teacher_terms):
    """The student side of ``distill_loss`` on checked arguments.  The
    teacher enters through ``teacher_terms(log_q_t, q_t)``, which returns
    each row's KL(p_teacher || q_t) and the array q_t - p_teacher (it may
    write that into q_t)."""
    starts = np.cumsum(lengths) - lengths

    def sequence_means(per_step: np.ndarray) -> np.ndarray:
        return np.add.reduceat(per_step, starts) / lengths

    temp = config.kl_temperature
    log_q_t = log_softmax(student_logits / temp, axis=1)
    kl_per_step, d_logits = teacher_terms(log_q_t, np.exp(log_q_t))
    kl_terms = sequence_means(kl_per_step) * temp * temp

    log_probs = log_softmax(student_logits, axis=1)
    gold_idx = (np.arange(student_logits.shape[0]), np.asarray(gold_tokens))
    ce_terms = sequence_means(-log_probs[gold_idx])

    loss = float(np.sum(config.kl_weight * kl_terms + config.ce_weight * ce_terms))

    row_lengths = np.repeat(lengths, lengths)[:, None]
    d_logits *= config.kl_weight * temp / row_lengths
    d_ce = np.exp(log_probs)
    d_ce[gold_idx] -= 1.0
    d_ce *= config.ce_weight / row_lengths
    d_logits += d_ce
    return loss, d_logits


class SmoothedTeacher:
    """The label-smoothed teacher of ``teacher_distributions`` in closed
    form, for the training loop: ``distill`` returns what ``distill_loss``
    returns on its rows, bit for bit, without building them.

    A teacher row holds ε/V off its target and ε/V + (1 - ε) at it, the
    doubles ``teacher_distributions`` stores.  Each row's Σ p log p is read
    from a per-target table, reduced once from those same rows.
    """

    # Teacher entries built at a time while the table is reduced.
    TABLE_CHUNK = 2**16

    def __init__(self, epsilon: float, vocab_size: int):
        rows = max(1, self.TABLE_CHUNK // vocab_size)
        self.plogp_sums = np.concatenate([
            _plogp_sums(teacher_distributions(
                np.arange(lo, min(lo + rows, vocab_size)), epsilon, vocab_size
            ))
            for lo in range(0, vocab_size, rows)
        ])
        self.off = epsilon / vocab_size
        self.on = self.off + (1.0 - epsilon)

    def distill(
        self,
        student_logits: np.ndarray,
        config: DistillConfig,
        targets: np.ndarray,
        lengths: np.ndarray,
    ) -> tuple[float, np.ndarray]:
        """``distill_loss(teacher_distributions(targets, ε, V), student_logits,
        config, targets, lengths)`` for in-range targets and lengths that
        cover the rows."""
        gold = (np.arange(targets.shape[0]), targets)

        def teacher_terms(log_q_t, q_t):
            cross = log_q_t * self.off
            cross[gold] = log_q_t[gold] * self.on
            q_gold = q_t[gold]
            q_t -= self.off
            q_t[gold] = q_gold - self.on
            return self.plogp_sums[targets] - cross.sum(axis=1), q_t

        return _distill(student_logits, config, targets, lengths, teacher_terms)


# -- training ------------------------------------------------------------


@dataclass(frozen=True)
class RetrieverExample:
    """One supervision instance for the retriever."""

    id: str
    query: str
    full_graph: MemoryGraph
    gold_subgraph: EvidenceSubgraph
    h: np.ndarray  # unified memory vector conditioning this instance


@dataclass
class RetrieverTrainReport:
    epoch_losses: list[float] = field(default_factory=list)
    wall_seconds: float = 0.0
    parameter_count: int = 0
    n_examples: int = 0  # supervision pairs trained on


def train_retriever(
    model_init: RetrieverModel,
    corpus: list[RetrieverExample],
    vocab: Vocabulary,
    embedder: QueryEmbedder,
    config: DistillConfig,
) -> tuple[RetrieverModel, RetrieverTrainReport]:
    """Teacher-forced AdamW training of the retriever on gold serializations.

    Every gold subgraph must verify against its full graph; inconsistent
    supervision is refused.
    """
    if not corpus:
        raise RetrieverError("empty training corpus")
    started = time.perf_counter()
    sequences: list[list[int]] = []
    for example in corpus:
        report = verify_subset(example.gold_subgraph, example.full_graph)
        if not report.accepted:
            kinds = ", ".join(v.kind for v in report.violations)
            raise RetrieverError(
                f"instance {example.id!r} fails subset verification ({kinds})"
            )
        seq = list(linearize_evidence(example.gold_subgraph, vocab))
        if len(seq) > config.max_output_tokens:
            raise RetrieverError(
                f"instance {example.id!r} exceeds max output length "
                f"({len(seq)} > {config.max_output_tokens})"
            )
        sequences.append(seq)
    queries = np.stack([embedder.embed(example.query) for example in corpus])
    conds = np.stack([np.asarray(example.h, float) for example in corpus])

    model = model_init.copy()
    teacher = SmoothedTeacher(config.teacher_epsilon, model.vocab_size)
    run = Minibatches(
        model.flat, len(corpus), config, component_rng(config.seed, "retriever-train")
    )
    for batch in run:
        batch_tokens = [sequences[i] for i in batch]
        cache = sequence_logits(model, batch_tokens, queries[batch], conds[batch])
        targets = np.concatenate([tokens[1:] for tokens in batch_tokens])
        batch_loss, d_logits = teacher.distill(cache.logits, config, targets, cache.lengths)
        sequence_backward(model, cache, d_logits, out=run.grad)
        run.grad /= len(batch)
        run.loss += batch_loss

    # The optimizer updated the parameters in place after the last pass.
    model.drop_projections()
    return model, RetrieverTrainReport(
        run.epoch_losses, time.perf_counter() - started, model.parameter_count(), len(corpus)
    )
