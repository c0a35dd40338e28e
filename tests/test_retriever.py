"""Retriever model, distillation objective, and BPTT gradients."""
import warnings

import numpy as np
import pytest

from memalign.checkpoint import CheckpointError, save_checkpoint
from memalign.graphs import parse_evidence, parse_full_graph
from memalign.pipeline import retriever_from_sections, retriever_sections
from memalign.retriever import (
    DistillConfig,
    QueryEmbedder,
    RetrieverError,
    RetrieverExample,
    RetrieverModel,
    SmoothedTeacher,
    distill_loss,
    init_retriever,
    sequence_backward,
    sequence_logits,
    teacher_distribution,
    teacher_distributions,
    train_retriever,
)
from memalign.seeding import fnv1a64
from memalign.vocab import BOS, EOS, build_vocabulary
from util import (
    central_difference,
    gate_parameters,
    reference_sequence_backward,
    relative_error,
    softmax,
    where_sigmoid,
)


def small_model(vocab_size=14, d_m=6, d_q=3, d_s=2, seed=0):
    return init_retriever(vocab_size, d_m, d_q, d_s, seed)


def test_query_embedder_is_normalized_and_deterministic():
    emb = QueryEmbedder(16, seed=3)
    v1 = emb.embed("which chain of links")
    v2 = emb.embed("which chain of links")
    np.testing.assert_array_equal(v1, v2)
    assert np.linalg.norm(v1) == pytest.approx(1.0)
    assert np.linalg.norm(emb.embed("")) == 0.0


def test_query_embedder_seed_changes_embedding():
    text = "amber harbor"
    assert not np.array_equal(
        QueryEmbedder(16, seed=1).embed(text), QueryEmbedder(16, seed=2).embed(text)
    )


def test_model_shape_validation():
    model = small_model()
    with pytest.raises(RetrieverError):
        RetrieverModel(**{**model.parameters(), "out_bias": np.zeros(3)})


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_model_refuses_non_finite_parameters(bad):
    params = small_model().parameters()
    params["u_rec"][1, 2] = bad
    with pytest.raises(RetrieverError, match="non-finite"):
        RetrieverModel(**params)


def test_sequence_logits_requires_bos():
    model = small_model()
    q = np.zeros(3)
    h = np.zeros(2)
    with pytest.raises(RetrieverError, match="BOS"):
        sequence_logits(model, [5, 10], q, h)
    cache = sequence_logits(model, [BOS, 10], q, h)
    assert cache.logits.shape == (1, 14)
    assert cache.states.shape == (2, 1, 6)


def test_sequence_logits_checks_the_conditioning_width_and_rows():
    model = small_model()  # d_q 3 + d_s 2
    with pytest.raises(RetrieverError, match="^conditioning dimension 6 != 5$"):
        sequence_logits(model, [BOS, 10], np.zeros(4), np.zeros(2))
    with pytest.raises(RetrieverError, match="^conditioning rows 2 != sequences 1$"):
        sequence_logits(model, [BOS, 10], np.zeros((2, 3)), np.zeros((2, 2)))


@pytest.mark.parametrize("bad", [-1, -14, 14, 99])
def test_sequence_logits_refuses_token_ids_outside_the_vocabulary(bad):
    model = small_model()  # 14 tokens
    single = (np.zeros(3), np.zeros(2))
    pair = (np.zeros((2, 3)), np.zeros((2, 2)))
    for tokens, (q, h) in (
        ([BOS, bad, EOS], single),
        ([BOS, 10, bad], single),  # a target only, never an input
        ([[BOS, 10, 11], [BOS, 12, bad, 11]], pair),
    ):
        with pytest.raises(RetrieverError, match=f"token id {bad} out of range"):
            sequence_logits(model, tokens, q, h)
    # Both ends of the range are token ids.
    cache = sequence_logits(model, [BOS, 0, 13, 0], *single)
    assert cache.logits.shape == (3, 14)


def test_sequence_logits_match_stepwise_cells():
    model = small_model()
    rng = np.random.default_rng(0)
    q = rng.standard_normal(3)
    h = rng.standard_normal(2)
    tokens = [BOS, 10, 11, 12, EOS]
    cache = sequence_logits(model, tokens, q, h)
    state = model.init_states(model.conditioning(q, h)[None])[0]
    for t in range(len(tokens) - 1):
        logits, state = model.cell(tokens[t], state)
        np.testing.assert_allclose(cache.logits[t], logits, rtol=1e-12)


def test_teacher_distribution_shape_and_mass():
    dist = teacher_distribution([BOS, 10, EOS], 1, 0.05, 14)
    assert dist.shape == (14,)
    assert dist.sum() == pytest.approx(1.0)
    assert dist[10] == pytest.approx(0.95 + 0.05 / 14)
    with pytest.raises(RetrieverError):
        teacher_distribution([BOS], 5, 0.05, 14)


def test_distill_loss_zero_kl_when_student_equals_teacher():
    # If softmax(logits / T) equals the teacher, the KL term vanishes.
    rng = np.random.default_rng(1)
    config = DistillConfig()
    teacher = softmax(rng.standard_normal((5, 8)), axis=1)
    logits = config.kl_temperature * np.log(teacher)
    ce_only = DistillConfig(kl_weight=0.0)
    loss_full, _ = distill_loss(teacher, logits, config)
    loss_ce, _ = distill_loss(teacher, logits, ce_only)
    assert loss_full - loss_ce == pytest.approx(0.0, abs=1e-9)


def test_distill_loss_validates_teacher_mass():
    config = DistillConfig()
    for row in (
        [0.3, 0.3, 0.3, 0.3],  # mass 1.2
        [np.nan, 0.5, 0.5, 0.0],  # NaN passes a mass check written as |s - 1| > tol
        [1.5, -0.5, 0.0, 0.0],  # mass 1, but not a distribution
        [np.inf, 0.5, 0.5, 0.0],
        [-np.inf, 0.5, 0.5, 0.0],
    ):
        bad = np.array([[0.25] * 4, row])
        with pytest.raises(RetrieverError, match="non-negative and sum to 1"):
            distill_loss(bad, np.zeros((2, 4)), config)


def test_distill_loss_gradient_matches_finite_differences():
    rng = np.random.default_rng(2)
    for _ in range(10):
        steps = int(rng.integers(1, 5))
        vocab = int(rng.integers(3, 8))
        teacher = softmax(rng.standard_normal((steps, vocab)), axis=1)
        logits = rng.standard_normal((steps, vocab))
        gold = [int(g) for g in rng.integers(0, vocab, size=steps)]
        config = DistillConfig(
            kl_weight=float(rng.uniform(0.1, 1.0)),
            kl_temperature=float(rng.uniform(0.5, 4.0)),
            ce_weight=float(rng.uniform(0.1, 1.0)),
        )
        _, grad = distill_loss(teacher, logits, config, gold_tokens=gold)
        numeric = central_difference(
            lambda x: distill_loss(teacher, x, config, gold_tokens=gold)[0],
            logits.copy(),
        )
        assert relative_error(grad, numeric) < 1e-6


def test_sequence_backward_matches_finite_differences():
    model = small_model(vocab_size=12, d_m=4)
    rng = np.random.default_rng(3)
    q = rng.standard_normal(3)
    h = rng.standard_normal(2)
    tokens = [BOS, 10, 11, 10, EOS]
    d_logits = rng.standard_normal((len(tokens) - 1, 12))

    cache = sequence_logits(model, tokens, q, h)
    grads = sequence_backward(model, cache, d_logits)

    for name in grads:
        def loss_at(value, name=name):
            probe = model.copy()
            getattr(probe, name)[...] = value
            c = sequence_logits(probe, tokens, q, h)
            return float(np.sum(c.logits * d_logits))

        numeric = central_difference(loss_at, getattr(model, name).copy())
        assert relative_error(grads[name], numeric) < 1e-6, name


def _padded_batch(rng, vocab_size, d_q, d_s, lengths=(3, 7, 5)):
    """Sequences of unequal length, so the batch has padded steps."""
    seqs = [
        [BOS] + [int(t) for t in rng.integers(1, vocab_size, size=n)]
        for n in lengths
    ]
    q = rng.standard_normal((len(seqs), d_q))
    h = rng.standard_normal((len(seqs), d_s))
    return seqs, q, h


def test_batched_logits_match_single_sequences():
    model = small_model()
    rng = np.random.default_rng(4)
    seqs, q, h = _padded_batch(rng, 14, 3, 2)
    cache = sequence_logits(model, seqs, q, h)
    rows = np.cumsum([0] + [len(s) - 1 for s in seqs])
    assert cache.logits.shape == (rows[-1], 14)
    for b, seq in enumerate(seqs):
        single = sequence_logits(model, seq, q[b], h[b])
        np.testing.assert_allclose(
            cache.logits[rows[b] : rows[b + 1]], single.logits, rtol=1e-12, atol=1e-12
        )


def test_sequence_backward_on_padded_batch_matches_finite_differences():
    model = small_model(vocab_size=12, d_m=4)
    rng = np.random.default_rng(5)
    seqs, q, h = _padded_batch(rng, 12, 3, 2)
    cache = sequence_logits(model, seqs, q, h)
    d_logits = rng.standard_normal(cache.logits.shape)
    grads = sequence_backward(model, cache, d_logits)

    for name in grads:
        def loss_at(value, name=name):
            probe = model.copy()
            getattr(probe, name)[...] = value
            return float(np.sum(sequence_logits(probe, seqs, q, h).logits * d_logits))

        numeric = central_difference(loss_at, getattr(model, name).copy())
        assert relative_error(grads[name], numeric) < 1e-6, name


def test_backward_into_a_used_buffer_returns_the_bytes_of_a_fresh_call():
    """``out`` pre-filled with NaN: every view is written, the rows of
    ``emb`` whose tokens are never an input included."""
    model = small_model()
    rng = np.random.default_rng(24)
    seqs, q, h = _padded_batch(rng, 5, 3, 2)  # ids below 5 of 14
    cache = sequence_logits(model, seqs, q, h)
    d_logits = rng.standard_normal(cache.logits.shape)
    fresh = sequence_backward(model, cache, d_logits)
    out = np.full_like(model.flat, np.nan)
    grads = sequence_backward(model, cache, d_logits, out=out)
    assert list(grads) == list(fresh) == list(model.parameters())
    for name, value in fresh.items():
        assert np.shares_memory(grads[name], out), name
        assert grads[name].tobytes() == value.tobytes(), name


def test_batched_gradients_equal_sum_of_single_sequence_gradients():
    model = small_model()
    rng = np.random.default_rng(6)
    seqs, q, h = _padded_batch(rng, 14, 3, 2, lengths=(2, 9, 4, 6))
    cache = sequence_logits(model, seqs, q, h)
    d_logits = rng.standard_normal(cache.logits.shape)
    grads = sequence_backward(model, cache, d_logits)
    rows = np.cumsum([0] + [len(s) - 1 for s in seqs])
    summed = {k: np.zeros_like(v) for k, v in model.parameters().items()}
    for b, seq in enumerate(seqs):
        single = sequence_logits(model, seq, q[b], h[b])
        for k, g in sequence_backward(model, single, d_logits[rows[b] : rows[b + 1]]).items():
            summed[k] += g
    for k in summed:
        np.testing.assert_allclose(grads[k], summed[k], rtol=1e-12, atol=1e-12, err_msg=k)


@pytest.mark.parametrize("d_m", [5, 13, 128])
@pytest.mark.parametrize("batch", [1, 3, 8])
def test_sequence_backward_gives_the_gradient_bytes_of_the_whole_batch_reference(d_m, batch):
    """Ragged batches, with input tokens repeated within and across
    sequences: the step-buffered backward and the whole-batch reference of
    ``tests/util.py`` write the same bytes."""
    rng = np.random.default_rng(100 * d_m + batch)
    model = init_retriever(20, d_m, 4, 3, seed=d_m + batch)
    for _ in range(3):
        lengths = rng.integers(1, 12, size=batch)
        seqs, q, h = _padded_batch(rng, 20, 4, 3, lengths=lengths)
        cache = sequence_logits(model, seqs, q, h)
        d_logits = rng.standard_normal(cache.logits.shape)
        grads = sequence_backward(model, cache, d_logits)
        reference = reference_sequence_backward(model, cache, d_logits)
        for name, value in reference.items():
            assert grads[name].tobytes() == value.tobytes(), (name, lengths)


@pytest.mark.parametrize("vocab", [3, 104, 700])
@pytest.mark.parametrize("epsilon", [0.0, 0.05, 0.5])
@pytest.mark.parametrize("weights", [{}, {"kl_weight": 0.0}, {"ce_weight": 0.0}])
def test_the_closed_form_teacher_gives_the_bytes_of_distill_loss(vocab, epsilon, weights):
    """The training loop's loss and logit gradient equal those of
    ``distill_loss`` on the ``teacher_distributions`` rows, byte for byte,
    over sequences whose targets include every token of the vocabulary."""
    rng = np.random.default_rng(vocab)
    config = DistillConfig(teacher_epsilon=epsilon, **weights)
    targets = rng.permutation(np.concatenate([np.arange(vocab), rng.integers(0, vocab, 40)]))
    cuts = np.sort(rng.choice(np.arange(1, targets.shape[0]), size=5, replace=False))
    lengths = np.diff(np.concatenate([[0], cuts, [targets.shape[0]]]))
    logits = 4.0 * rng.standard_normal((targets.shape[0], vocab))
    loss, grad = SmoothedTeacher(epsilon, vocab).distill(logits, config, targets, lengths)
    want_loss, want_grad = distill_loss(
        teacher_distributions(targets, epsilon, vocab), logits, config,
        gold_tokens=targets, lengths=lengths,
    )
    assert np.float64(loss).tobytes() == np.float64(want_loss).tobytes()
    assert grad.tobytes() == want_grad.tobytes()


def test_teacher_distributions_stack_single_rows():
    tokens = [BOS, 10, 11, 10, EOS]
    stacked = teacher_distributions(tokens[1:], 0.05, 14)
    rows = [teacher_distribution(tokens, t, 0.05, 14) for t in range(1, len(tokens))]
    np.testing.assert_array_equal(stacked, np.stack(rows))
    with pytest.raises(RetrieverError):
        teacher_distributions([1], 1.0, 14)


def test_distill_loss_over_sequences_sums_per_sequence_losses():
    rng = np.random.default_rng(7)
    config = DistillConfig()
    lengths = [2, 5, 3]
    teacher = softmax(rng.standard_normal((sum(lengths), 6)), axis=1)
    logits = rng.standard_normal((sum(lengths), 6))
    gold = rng.integers(0, 6, size=sum(lengths))
    loss, grad = distill_loss(teacher, logits, config, gold_tokens=gold, lengths=lengths)
    start, total = 0, 0.0
    for n in lengths:
        part = slice(start, start + n)
        part_loss, part_grad = distill_loss(
            teacher[part], logits[part], config, gold_tokens=gold[part]
        )
        np.testing.assert_allclose(grad[part], part_grad, rtol=1e-12, atol=1e-15)
        total += part_loss
        start += n
    assert loss == pytest.approx(total, rel=1e-12)
    with pytest.raises(RetrieverError):
        distill_loss(teacher, logits, config, gold_tokens=gold, lengths=[2, 5])


def test_distill_loss_finite_for_large_logit_gaps():
    # log(softmax(.)) underflows to log(0) here; log-softmax does not.
    config = DistillConfig()
    teacher = teacher_distributions([0, 2], 0.05, 3)
    logits = np.array([[0.0, 1000.0, -1000.0], [-1000.0, 0.0, 1000.0]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        loss, grad = distill_loss(teacher, logits, config, gold_tokens=[0, 2])
    assert np.isfinite(loss)
    assert loss > 100.0
    assert np.all(np.isfinite(grad))


def _tiny_corpus():
    full = parse_full_graph(
        "[FULL_GRAPH]\n<NODES>\nN1: amber harbor\nN2: quiet mill\n"
        "<EDGES>\nN1 -> N2: feeds\n"
    )
    gold = parse_evidence(
        "[EVIDENCE_SUBGRAPH]\n<NODES>\nN1: amber harbor\n<EDGES>\n"
        "[CONFIDENCE]\n0.9\n"
    )
    vocab = build_vocabulary(["N1", "amber", "harbor", "N2", "quiet", "mill", "feeds", "0.9"])
    h = np.zeros(2)
    example = RetrieverExample("t1", "where is the harbor", full, gold, h)
    return [example], vocab


def test_train_retriever_reduces_loss():
    corpus, vocab = _tiny_corpus()
    model = init_retriever(len(vocab), 8, 16, 2, seed=0)
    config = DistillConfig(epochs=10, learning_rate=5e-3, batch_size=1)
    trained, report = train_retriever(model, corpus, vocab, QueryEmbedder(16, 0), config)
    assert report.epoch_losses[-1] < report.epoch_losses[0]
    assert report.parameter_count == trained.parameter_count()


def test_train_retriever_rejects_bad_supervision():
    corpus, vocab = _tiny_corpus()
    bad_gold = parse_evidence(
        "[EVIDENCE_SUBGRAPH]\n<NODES>\nN1: wrong text\n<EDGES>\n[CONFIDENCE]\n0.9\n"
    )
    vocab2 = build_vocabulary(list(vocab.words) + ["wrong", "text"])
    bad = RetrieverExample("bad", "q", corpus[0].full_graph, bad_gold, np.zeros(2))
    model = init_retriever(len(vocab2), 8, 16, 2, seed=0)
    with pytest.raises(RetrieverError, match="bad"):
        train_retriever(model, [bad], vocab2, QueryEmbedder(16, 0), DistillConfig())


def test_train_retriever_enforces_output_budget():
    corpus, vocab = _tiny_corpus()
    model = init_retriever(len(vocab), 8, 16, 2, seed=0)
    config = DistillConfig(max_output_tokens=3)
    with pytest.raises(RetrieverError, match="max output length"):
        train_retriever(model, corpus, vocab, QueryEmbedder(16, 0), config)


def test_distill_config_validation():
    with pytest.raises(RetrieverError):
        DistillConfig(kl_temperature=0.0)
    with pytest.raises(RetrieverError):
        DistillConfig(teacher_epsilon=1.0)


def test_checkpoint_bytes_match_separately_stored_arrays(tmp_path):
    model = small_model()
    wz, wc, uz, uc, bz, bc = gate_parameters(model)
    separate = {
        "emb": model.emb, "cond_weight": model.cond_weight, "cond_bias": model.cond_bias,
        "wz": wz, "uz": uz, "bz": bz, "wc": wc, "uc": uc, "bc": bc,
        "out_weight": model.out_weight, "out_bias": model.out_bias,
    }
    sections = {f"retriever/{k}": np.array(v) for k, v in separate.items()}
    save_checkpoint(retriever_sections(model), tmp_path / "stacked.ckpt")
    save_checkpoint(sections, tmp_path / "separate.ckpt")
    rebuilt = retriever_from_sections(sections)
    save_checkpoint(retriever_sections(rebuilt), tmp_path / "rebuilt.ckpt")
    stacked = (tmp_path / "stacked.ckpt").read_bytes()
    assert stacked == (tmp_path / "separate.ckpt").read_bytes()
    assert stacked == (tmp_path / "rebuilt.ckpt").read_bytes()
    with pytest.raises(CheckpointError, match="'wz' and 'wc' differ in shape"):
        retriever_from_sections({**sections, "retriever/wz": np.zeros((5, 6))})


def test_cell_rows_match_gate_by_gate_formula():
    """Rows of a batch step, and one-row batches, match the gate-by-gate
    formula to rtol 1e-12: the cell is one gemm over the rows, which rounds
    differently from one gemv per row and per gate."""
    rng = np.random.default_rng(7)
    for d_m in (6, 8, 13, 64, 128):
        model = init_retriever(30, d_m, 3, 2, seed=d_m)
        states = rng.standard_normal((5, d_m))
        conds = rng.standard_normal((5, 5))
        tokens = [int(t) for t in rng.integers(0, 30, size=5)]
        x_proj = model.projections()[:, tokens]
        wz, wc, uz, uc, bz, bc = gate_parameters(model)
        before = states.copy()
        batch = model.transition(x_proj, states)
        logits = model.logits(batch)
        initial = model.init_states(conds)
        for row, (token, s) in enumerate(zip(tokens, states)):
            x = model.emb[token]
            z = where_sigmoid(wz @ x + uz @ s + bz)
            c = np.tanh(wc @ x + uc @ s + bc)
            expected = (1.0 - z) * s + z * c
            close = {"rtol": 1e-12, "atol": 1e-15, "err_msg": str(d_m)}
            np.testing.assert_allclose(batch[row], expected, **close)
            np.testing.assert_allclose(
                logits[row], model.out_weight @ expected + model.out_bias, **close
            )
            np.testing.assert_allclose(
                model.transition(model.projections()[:, token : token + 1], s[None])[0],
                expected,
                **close,
            )
            one_row = model.transition(x_proj[:, row : row + 1], states[row : row + 1])
            assert one_row.shape == (1, d_m)
            np.testing.assert_allclose(one_row[0], expected, **close)
            np.testing.assert_allclose(
                initial[row],
                np.tanh(model.cond_weight @ conds[row] + model.cond_bias),
                **close,
            )
        assert np.array_equal(states, before)  # the step leaves its input alone


def test_sequence_logits_steps_the_cell_bit_for_bit():
    """The teacher-forced pass is init_states, then transition at every
    step over the padded batch, then logits over the real steps' states;
    its cache keeps each step's activations as transition writes them."""
    rng = np.random.default_rng(8)
    for d_m in (5, 13, 64, 128):
        model = small_model(vocab_size=30, d_m=d_m)
        seqs, q, h = _padded_batch(rng, 30, 3, 2, lengths=(3, 9, 1, 6, 12))
        cache = sequence_logits(model, seqs, q, h)
        steps, batch = cache.inputs.shape
        assert cache.acts.shape == (steps, 2, batch, d_m)
        table = model.projections()
        state = model.init_states(cache.cond)
        assert np.array_equal(cache.states[0], state)
        acts = np.empty((2, batch, d_m))
        for t in range(steps):
            state = model.transition(table[:, cache.inputs[t]], state, acts)
            assert np.array_equal(cache.states[t + 1], state), (d_m, t)
            assert np.array_equal(cache.acts[t], acts), (d_m, t)
        hidden = cache.states[1:].swapaxes(0, 1)[cache.mask]
        assert np.array_equal(cache.logits, model.logits(hidden))


def test_gate_through_the_cell_matches_the_sigmoid_on_special_values():
    """With zero w_in and u_rec the update gate's pre-activation is its
    bias.  On special biases (signed zeros, the smallest normal and
    subnormal numbers, the ends of exp's range and of the float range,
    infinities) the gate z = (1 + g) / 2 that transition applies stays in
    [0, 1] and within 1e-15 of the where-form sigmoid, with no
    RuntimeWarning, and so does z = s' / c read from a zero state."""
    tiny = np.finfo(np.float64).tiny
    gate_bias = np.array([
        0.0, -0.0, tiny, -tiny, tiny / 2**20, -tiny / 2**20, 5e-324, -5e-324,
        745.2, -745.2, 746.0, -746.0, 1e308, -1e308, np.inf, -np.inf, 36.0, -36.0,
    ])
    d_m = gate_bias.shape[0]
    model = init_retriever(3, d_m, 2, 2, seed=0)
    # Written in place: a model is refused non-finite parameters when built.
    model.w_in[...] = 0.0
    model.u_rec[...] = 0.0
    model.b_in[...] = np.concatenate([gate_bias, np.ones(d_m)])  # c = tanh(1)
    model.drop_projections()
    expected = where_sigmoid(gate_bias)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        acts = np.empty((2, 3, d_m))
        new = model.transition(model.projections()[:, [0, 1, 2]], np.zeros((3, d_m)), acts)
        for g, s_new in zip(acts[0], new):
            z = (1.0 + g) / 2.0
            assert np.all((z >= 0.0) & (z <= 1.0))
            np.testing.assert_allclose(z, expected, rtol=0, atol=1e-15)
            np.testing.assert_allclose(s_new / np.tanh(1.0), expected, rtol=0, atol=1e-15)


def test_embedding_gradient_equals_scattered_sum_bitwise():
    """The gate pre-activation gradients are summed into their input
    token's row in np.add.at's order, and the embedding gradient is that
    token-by-gate matrix times w_in."""
    model = small_model(vocab_size=14, d_m=6)
    rng = np.random.default_rng(22)
    seqs, q, h = _padded_batch(rng, 5, 3, 2, lengths=(9, 4, 12))  # tokens repeat
    cache = sequence_logits(model, seqs, q, h)
    d_logits = rng.standard_normal(cache.logits.shape)
    grads = sequence_backward(model, cache, d_logits)

    # The local derivatives and the backward recurrence, written out.
    steps, batch = cache.inputs.shape
    d_m = model.d_m
    d_hidden = np.zeros((steps, batch, d_m))
    d_hidden.swapaxes(0, 1)[cache.mask] = d_logits @ model.out_weight
    g, c, s = cache.acts[:, 0], cache.acts[:, 1], cache.states[:-1]
    z = (1.0 + g) * 0.5
    local = np.stack([(c - s) * z * (1.0 - z), z * (1.0 - c * c)], axis=2)
    d_pre = np.empty((steps, batch, 2, d_m))
    d_state = np.zeros((batch, d_m))
    for t in range(steps - 1, -1, -1):
        d_s_new = d_hidden[t] + d_state
        np.multiply(d_s_new[:, None, :], local[t], out=d_pre[t])
        d_state = d_s_new * (1.0 - z[t]) + d_pre[t].reshape(batch, 2 * d_m) @ model.u_rec
    d_pre_tokens = np.zeros((model.vocab_size, 2 * d_m))
    np.add.at(d_pre_tokens, cache.inputs.reshape(-1), d_pre.reshape(steps * batch, 2 * d_m))
    assert np.array_equal(grads["emb"], d_pre_tokens @ model.w_in)


def test_query_embedder_memo_equals_hashing_every_word():
    text = "Which chain of links joins the amber harbor to the chain"
    for d_q, seed in ((16, 3), (64, 0), (7, 2**40 + 5)):
        embedder = QueryEmbedder(d_q, seed)
        vec = np.zeros(d_q)
        for word in text.lower().split():
            hashed = fnv1a64(word.encode("utf-8")) ^ seed
            vec[hashed % d_q] += 1.0 if (hashed >> 32) & 1 else -1.0
        expected = vec / np.linalg.norm(vec)
        for _ in range(2):  # hashed, then memoized
            assert np.array_equal(embedder.embed(text), expected)


def test_query_embedder_memo_is_bounded(monkeypatch):
    monkeypatch.setattr(QueryEmbedder, "MEMO_WORDS", 4)
    embedder = QueryEmbedder(16, seed=1)
    fresh = QueryEmbedder(16, seed=1)
    texts = [f"w{i} w{i + 1} w{i + 2}" for i in range(10)]
    for text in texts:
        embedder.embed(text)
        assert len(embedder._slots) <= 4
    monkeypatch.setattr(QueryEmbedder, "MEMO_WORDS", 4096)
    for text in texts:
        assert np.array_equal(embedder.embed(text), fresh.embed(text))
