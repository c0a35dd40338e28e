"""InfoNCE closed forms, gradients, the alignment training loop and its
sizing."""
import dataclasses

import numpy as np
import pytest

from memalign.contrastive import (
    AlignConfig,
    ContrastiveError,
    cosine_alignment_gap,
    cosine_sim,
    infonce_batch,
    infonce_loss,
    sample_negatives,
    size_alignment,
    topk_match_accuracy,
    train_alignment,
    unit_rows,
)
from memalign.unified import align_forward, init_alignment_module
from util import central_difference, relative_error


def test_cosine_sim_basics():
    assert cosine_sim(np.array([1.0, 0.0]), np.array([1.0, 0.0])) == pytest.approx(1.0)
    assert cosine_sim(np.array([1.0, 0.0]), np.array([0.0, 1.0])) == pytest.approx(0.0)
    assert cosine_sim(np.array([1.0, 0.0]), np.array([-2.0, 0.0])) == pytest.approx(-1.0)
    assert cosine_sim(np.zeros(2), np.array([1.0, 0.0])) == 0.0


def test_infonce_identical_positive_orthogonal_negative():
    # sims (1, 0), tau=1: loss = log(1 + e^-1) = 0.31326169
    h = np.array([1.0, 0.0])
    loss, _ = infonce_loss(h, h.copy(), np.array([[0.0, 1.0]]), tau=1.0)
    assert loss == pytest.approx(0.3132616875182229, abs=1e-9)


def test_infonce_dominant_positive_tiny_loss():
    # Positive sim 1, negatives sim -1, small tau: loss ~ 0 (< 1e-9).
    h = np.array([1.0, 0.0])
    negs = np.array([[-1.0, 0.0], [-1.0, 1e-9]])
    loss, _ = infonce_loss(h, h.copy(), negs, tau=0.02)
    assert 0.0 <= loss < 1e-9


@pytest.mark.parametrize("count", [1, 4, 16])
def test_infonce_uniform_similarity_gives_log_1_plus_c(count):
    # All similarities equal -> loss = log(1 + C) for C negatives.
    h = np.array([1.0, 0.0])
    negs = np.tile(h, (count, 1))
    loss, _ = infonce_loss(h, h.copy(), negs, tau=0.7)
    assert loss == pytest.approx(np.log(1.0 + count), abs=1e-9)


def test_infonce_requires_positive_tau_and_negatives():
    h = np.ones(2)
    with pytest.raises(ContrastiveError):
        infonce_loss(h, h, np.ones((1, 2)), tau=0.0)
    with pytest.raises(ContrastiveError):
        infonce_loss(h, h, np.empty((0, 2)), tau=1.0)


def test_infonce_gradient_matches_finite_differences():
    rng = np.random.default_rng(0)
    for _ in range(20):
        d = int(rng.integers(2, 6))
        h_a = rng.standard_normal(d)
        h_t = rng.standard_normal(d)
        negs = rng.standard_normal((int(rng.integers(1, 5)), d))
        tau = float(rng.uniform(0.05, 1.0))
        _, grad = infonce_loss(h_a, h_t, negs, tau)
        numeric = central_difference(
            lambda x: infonce_loss(h_a, x, negs, tau)[0], h_t.copy()
        )
        assert relative_error(grad, numeric) < 1e-6


def test_infonce_gradient_only_through_positive():
    # Moving a negative must not change grad_ht's direction of influence:
    # the returned gradient is with respect to h_t only, and loss is
    # monotonically decreasing along it.
    rng = np.random.default_rng(1)
    h_a = rng.standard_normal(4)
    h_t = rng.standard_normal(4)
    negs = rng.standard_normal((3, 4))
    loss, grad = infonce_loss(h_a, h_t, negs, tau=0.2)
    stepped, _ = infonce_loss(h_a, h_t - 1e-3 * grad, negs, tau=0.2)
    assert stepped < loss


def test_sample_negatives_excludes_and_is_distinct():
    rng = np.random.default_rng(2)
    for _ in range(50):
        idx = sample_negatives(20, 7, 10, rng)
        assert len(idx) == 10
        assert len(set(idx.tolist())) == 10
        assert 7 not in idx


def test_sample_negatives_rejects_oversized_draw():
    with pytest.raises(ContrastiveError):
        sample_negatives(5, 0, 5, np.random.default_rng(0))


def test_sample_negatives_draws_as_the_delete_form_did():
    # The former draw: choice over the pool with ``exclude`` deleted.
    for pool_size in (2, 3, 10, 57):
        for exclude in sorted({0, 1, pool_size // 2, pool_size - 1}):
            for count in sorted({1, (pool_size - 1) // 2 or 1, pool_size - 1}):
                for seed in range(4):
                    expected = np.random.default_rng(seed).choice(
                        np.delete(np.arange(pool_size), exclude), size=count, replace=False
                    )
                    drawn = sample_negatives(
                        pool_size, exclude, count, np.random.default_rng(seed)
                    )
                    np.testing.assert_array_equal(drawn, expected)


def test_infonce_batch_matches_single_rows():
    rng = np.random.default_rng(4)
    b, k, d = 5, 6, 4
    h_a = rng.standard_normal((b, d))
    h_t = rng.standard_normal((b, d))
    negs = rng.standard_normal((b, k, d))
    h_a[1] = 0.0  # zero-norm anchor
    h_t[2] = 0.0  # zero-norm target
    negs[3, 0] = 0.0  # zero-norm negative
    losses, grads = infonce_batch(unit_rows(h_a), h_t, unit_rows(negs), tau=0.3)
    for row in range(b):
        loss, grad = infonce_loss(h_a[row], h_t[row], negs[row], tau=0.3)
        assert losses[row] == pytest.approx(loss, rel=1e-12, abs=1e-12)
        np.testing.assert_allclose(grads[row], grad, rtol=1e-12, atol=1e-12)
    # A zero-norm vector has cosine 0 with everything and no gradient.
    assert losses[2] == pytest.approx(
        np.log1p(np.sum(np.exp(unit_rows(negs[2]) @ unit_rows(h_a[2]) / 0.3))), rel=1e-12
    )
    np.testing.assert_array_equal(grads[1], 0.0)
    np.testing.assert_array_equal(grads[2], 0.0)


def test_topk_and_gap_on_identical_sets():
    vecs = np.random.default_rng(3).standard_normal((10, 4))
    assert topk_match_accuracy(vecs, vecs) == 1.0
    assert cosine_alignment_gap(vecs, vecs) > 0.5


@pytest.mark.parametrize("scale", [1e200, 1e-200])
def test_cosine_sim_is_invariant_to_the_scale_of_the_rows(scale):
    """Rows whose squares overflow keep their cosine; rows below the
    zero-norm threshold read as zero rows.  No step warns."""
    u, v = np.array([1.0, -2.0, 3.0, 0.5]), np.array([0.5, 1.0, -1.0, 2.0])
    expected = cosine_sim(u, v)
    if scale > 1:
        assert cosine_sim(scale * u, scale * v) == pytest.approx(expected, rel=1e-12)
        assert cosine_sim(scale * u, v) == pytest.approx(expected, rel=1e-12)
        assert cosine_sim(np.full(4, scale), np.full(4, scale)) == pytest.approx(1.0, rel=1e-12)
    else:
        assert cosine_sim(scale * u, v) == 0.0
        assert cosine_sim(scale * u, scale * v) == 0.0


def test_near_zero_target_rows_have_cosine_zero_as_in_cosine_sim():
    rng = np.random.default_rng(4)
    anchors = rng.standard_normal((3, 4))
    targets = anchors + 0.1 * rng.standard_normal((3, 4))
    # Norm 5e-13, below the zero-norm threshold, pointing at its own anchor.
    targets[1] = 5e-13 * anchors[1] / np.linalg.norm(anchors[1])
    sims = np.array([[cosine_sim(t, a) for a in anchors] for t in targets])
    assert np.all(sims[1] == 0.0)
    # Row 1 scores 0 with every anchor, so it matches anchor 0, not its own.
    assert topk_match_accuracy(anchors, targets) == pytest.approx(2 / 3)
    same, total = np.trace(sims), sims.sum()
    expected = same / 3 - (total - same) / 6
    assert cosine_alignment_gap(anchors, targets) == pytest.approx(expected, rel=1e-12)


def _toy_problem(n=64, d_t=6, d_s=4, seed=0):
    rng = np.random.default_rng(seed)
    raws = rng.standard_normal((n, d_t))
    anchor = init_alignment_module(d_t, d_s, d_s, seed=seed + 1)
    return anchor, raws, raws.copy()  # same raw space


def test_train_alignment_freezes_anchor_and_learns():
    anchor, a_states, t_states = _toy_problem()
    cfg = AlignConfig(
        n_demos=64,
        negatives=8,
        batch_size=16,
        epochs=30,
        learning_rate=3e-3,
        holdout=16,
        seed=0,
    )
    init = init_alignment_module(6, 32, 4, seed=9)
    module, report = train_alignment(anchor, init, a_states, t_states, cfg)
    assert report.anchor_digest_before == report.anchor_digest_after
    assert report.holdout_size == 16
    assert report.epoch_losses[-1] < report.epoch_losses[0]
    assert report.holdout_accuracy >= 0.8


def test_train_alignment_validates_lengths():
    anchor, a_states, t_states = _toy_problem()
    cfg = AlignConfig(n_demos=64, negatives=8, batch_size=16, holdout=16)
    init = init_alignment_module(6, 4, 4, seed=9)
    with pytest.raises(ContrastiveError):
        train_alignment(anchor, init, a_states[:10], t_states, cfg)
    with pytest.raises(ContrastiveError):
        train_alignment(anchor, init, a_states[:10], t_states[:10], cfg)
    # The configs leave batch sizes to the loop; the 48 training
    # demonstrations cannot fill a batch of 49.
    wide = AlignConfig(n_demos=64, negatives=8, batch_size=49, holdout=16)
    with pytest.raises(ContrastiveError, match="training pool smaller than batch size"):
        train_alignment(anchor, init, a_states, t_states, wide)


def test_align_config_validation():
    """A config refuses what no pool can train; what needs the pool is
    checked by ``size_alignment`` and ``train_alignment`` (below)."""
    with pytest.raises(ContrastiveError):
        AlignConfig(tau=0.0)
    with pytest.raises(ContrastiveError, match="holdout must be 0 or at least 2"):
        AlignConfig(holdout=1)
    with pytest.raises(ContrastiveError, match="negative sample size must be at least 1"):
        AlignConfig(negatives=0)
    # A pool size alone refuses nothing: the run replaces it by its pool.
    assert AlignConfig(n_demos=10, negatives=10).negatives == 10


def test_size_alignment_sets_the_pool_and_caps_the_holdout():
    """The rows left after the holdout fill a batch and give each row its
    negatives; a cap below 2 is 0, and every other setting carries over."""
    config = AlignConfig(negatives=8, batch_size=4, holdout=100)
    assert size_alignment(config, 10, 3) == dataclasses.replace(config, n_demos=30, holdout=21)
    assert size_alignment(config, 10, 1).holdout == 0  # one spare row
    assert size_alignment(config, 11, 1).holdout == 2
    assert size_alignment(config, 9, 1).holdout == 0
    wide = dataclasses.replace(config, batch_size=16)
    assert size_alignment(wide, 20, 1).holdout == 4
    # The defaults: 500 instances leave 129 rows for 128 negatives.
    assert size_alignment(AlignConfig(), 500, 1).holdout == 371
    assert size_alignment(AlignConfig(), 500, 5) == AlignConfig()


@pytest.mark.parametrize(
    "instances, views, negatives, batch, message",
    [
        (10, 1, 10, 2, r"10 x 1\) is below the 11 rows that the negative sample size needs"),
        (10, 1, 2, 11, r"10 x 1\) is below the 11 rows that the batch size needs"),
        (100, 1, 128, 32, r"^a pool of 100 demonstrations \(instances x views: 100 x 1\)"),
        (2, 5, 128, 200, r"^a pool of 10 .* 200 rows that the batch size needs: lower it$"),
    ],
)
def test_size_alignment_refuses_a_pool_that_cannot_train(
    instances, views, negatives, batch, message
):
    config = AlignConfig(negatives=negatives, batch_size=batch)
    with pytest.raises(ContrastiveError, match=message):
        size_alignment(config, instances, views)


def test_train_alignment_refuses_a_holdout_that_leaves_too_few_rows():
    """A config passed to ``train_alignment`` directly names its pool: the
    rows its holdout leaves must fill a batch and give each its negatives."""
    anchor, a_states, t_states = _toy_problem(n=40)
    init = init_alignment_module(6, 4, 4, seed=9)
    # Negatives come from the 32 training demonstrations, not all 40.
    for cfg in (
        AlignConfig(n_demos=40, holdout=8, negatives=35, batch_size=8),
        AlignConfig(n_demos=40, holdout=40, negatives=2, batch_size=2),
    ):
        with pytest.raises(ContrastiveError, match="smaller than batch size|cannot draw"):
            train_alignment(anchor, init, a_states, t_states, cfg)


def test_train_alignment_is_deterministic():
    anchor, a_states, t_states = _toy_problem()
    cfg = AlignConfig(
        n_demos=64, negatives=8, batch_size=16, epochs=3, holdout=16, seed=5
    )
    init = init_alignment_module(6, 8, 4, seed=9)
    m1, r1 = train_alignment(anchor, init, a_states, t_states, cfg)
    m2, r2 = train_alignment(anchor, init, a_states, t_states, cfg)
    assert m1.digest() == m2.digest()
    assert r1.epoch_losses == r2.epoch_losses
