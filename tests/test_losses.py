"""Objectives against literal loop oracles and the documented fixed points."""

import numpy as np
import pytest
from similarity import router_similarity_diag

from moelab.losses import (
    aux_inputs_from_routing,
    balance_loss,
    correlation_matrices,
    diffusion_loss,
    per_layer_reg_loss,
    router_similarity_loss,
    similarity_weights,
    total_loss,
)
from moelab.routing import ConfigError, ThresholdState, get_strategy, route
from moelab.tensor import Tensor, backward, finite_difference_grad, softmax


def random_inputs(seed, T=12, E=4, k=2):
    """Seeded top-k mask M plus softmax probabilities P."""
    rng = np.random.default_rng(seed)
    logits = rng.normal(size=(T, E))
    order = np.argsort(-logits, axis=1)
    M = np.zeros((T, E))
    rows = np.arange(T)[:, None]
    M[rows, order[:, :k]] = 1.0
    return M, softmax(Tensor(logits), axis=-1)


def aux_losses(M, k):
    """Both aux losses on the mask M, each as a function of P alone, by name."""
    return {"balance_loss": lambda P: balance_loss(M, P, k), "router_similarity_loss": lambda P: router_similarity_loss(M, P)}


# ----------------------------------------------------------------------
# balance loss


def test_balance_loss_uniform_is_one():
    T, E, k = 8, 4, 1
    M = np.zeros((T, E))
    M[np.arange(T), np.arange(T) % E] = 1.0  # each expert gets T/E tokens
    P = Tensor(np.full((T, E), 1.0 / E))
    assert abs(balance_loss(M, P, k).item() - 1.0) < 1e-12


def test_balance_loss_full_concentration_is_expert_count():
    T, E, k = 6, 4, 1
    M = np.zeros((T, E))
    M[:, 0] = 1.0
    P = np.zeros((T, E))
    P[:, 0] = 1.0
    assert abs(balance_loss(M, Tensor(P), k).item() - E) < 1e-12


def test_balance_loss_against_double_loop_oracle():
    k = 2
    M, P = random_inputs(101, k=k)
    T, E = M.shape
    expected = 0.0
    for i in range(E):
        f_i = 0.0
        p_i = 0.0
        for t in range(T):
            f_i += M[t, i]
            p_i += P.data[t, i]
        expected += (E / (k * T)) * f_i * (p_i / T)
    assert abs(balance_loss(M, P, k).item() - expected) < 1e-12


def test_concentrating_mass_increases_balance_loss():
    T, E, k = 8, 4, 1
    M = np.zeros((T, E))
    M[np.arange(T), np.arange(T) % E] = 1.0
    base_logits = np.zeros((T, E))
    prev = balance_loss(M, softmax(Tensor(base_logits), axis=-1), k).item()
    # progressively concentrate both probability mass and assignments on expert 0
    for strength in (1.0, 2.0, 4.0):
        skew = base_logits.copy()
        skew[:, 0] = strength
        M_skew = np.zeros((T, E))
        M_skew[:, 0] = 1.0
        cur = balance_loss(M_skew, softmax(Tensor(skew), axis=-1), k).item()
        assert cur > prev
        prev = cur


# ----------------------------------------------------------------------
# correlation matrices and weights


def test_correlation_identity_rows_give_diagonal():
    M = np.eye(4)
    m_corr, _ = correlation_matrices(M, Tensor(np.full((4, 4), 0.25)))
    assert np.array_equal(m_corr, np.eye(4))


def test_correlation_constant_probs_value():
    T, E = 12, 4
    _, p_corr = correlation_matrices(np.ones((T, E)), Tensor(np.full((T, E), 1.0 / E)))
    assert np.allclose(p_corr.data, T / E**2, atol=1e-12)


def test_correlation_against_triple_loop_oracle():
    M, P = random_inputs(103)
    T, E = M.shape
    m_corr, p_corr = correlation_matrices(M, P)
    for i in range(E):
        for j in range(E):
            m_expected = sum(M[t, i] * M[t, j] for t in range(T))
            p_expected = sum(P.data[t, i] * P.data[t, j] for t in range(T))
            assert abs(m_corr[i, j] - m_expected) < 1e-12
            assert abs(p_corr.data[i, j] - p_expected) < 1e-12
    assert np.array_equal(m_corr, m_corr.T)
    assert np.allclose(p_corr.data, p_corr.data.T, atol=1e-15)


def test_similarity_weights_uniform_fixed_point():
    E = 4
    m_corr = np.full((E, E), 3.0)
    assert np.allclose(similarity_weights(m_corr), 1.0, atol=1e-12)


def test_similarity_weights_empty_offdiagonal_flagged():
    # no token co-selected two experts: the off-diagonal block gets zero
    # weights, not a division by zero
    W = similarity_weights(np.array([[2.0, 0.0], [0.0, 2.0]]))
    assert np.allclose(np.diag(W), 1.0)
    off = W.copy()
    np.fill_diagonal(off, 0.0)
    assert np.all(off == 0.0)
    assert np.array_equal(similarity_weights(np.zeros((3, 3))), np.zeros((3, 3)))


def test_similarity_weights_against_naive_oracle():
    M, P = random_inputs(107)
    m_corr, _ = correlation_matrices(M, P)
    E = M.shape[1]
    W = similarity_weights(m_corr)
    diag_sum = sum(m_corr[i, i] for i in range(E))
    off_sum = sum(m_corr[i, j] for i in range(E) for j in range(E) if i != j)
    for i in range(E):
        for j in range(E):
            if i == j:
                want = m_corr[i, i] * E / diag_sum
            else:
                want = m_corr[i, j] * (E * E - E) / off_sum
            assert abs(W[i, j] - want) < 1e-12


# ----------------------------------------------------------------------
# router similarity loss


def test_similarity_loss_constant_scores_equal_one():
    # constant score matrix; mask from tie-broken top-k routing
    for T, E, k in [(8, 4, 2), (15, 3, 2), (10, 5, 3)]:
        logits = np.full((T, E), 0.37)
        order = np.argsort(-logits, axis=1, kind="stable")
        M = np.zeros((T, E))
        M[np.arange(T)[:, None], order[:, :k]] = 1.0
        P = softmax(Tensor(logits), axis=-1)
        loss = router_similarity_loss(M, P).item()
        assert abs(loss - 1.0) < 1e-9


def test_similarity_loss_against_naive_double_sum():
    M, P = random_inputs(109)
    m_corr, p_corr = correlation_matrices(M, P)
    W = similarity_weights(m_corr)
    T, E = M.shape
    expected = sum(
        W[i, j] * p_corr.data[i, j] for i in range(E) for j in range(E)
    ) / T
    assert abs(router_similarity_loss(M, P).item() - expected) < 1e-12


def test_similarity_diag_equals_geometric_mean_balance_form():
    # diagonal part == sum_i (E/(K T) sum_t M) * (1/T sum_t P^2), with K T the
    # realized selection total
    M, P = random_inputs(113)
    T, E = M.shape
    total_selected = M.sum()
    expected = 0.0
    for i in range(E):
        load = sum(M[t, i] for t in range(T))
        sq = sum(P.data[t, i] ** 2 for t in range(T))
        expected += (E / total_selected) * load * (sq / T)
    assert abs(router_similarity_diag(M, P).item() - expected) < 1e-12


def test_similarity_loss_token_duplication_invariance():
    M, P = random_inputs(127)
    base = router_similarity_loss(M, P).item()
    doubled = router_similarity_loss(np.concatenate([M, M], axis=0), Tensor(np.concatenate([P.data, P.data], axis=0)))
    assert abs(doubled.item() - base) < 1e-12


def test_aux_losses_differentiable_through_probabilities():
    rng = np.random.default_rng(131)
    T, E, k = 6, 4, 2
    logits_base = rng.normal(size=(T, E))
    order = np.argsort(-logits_base, axis=1)
    M = np.zeros((T, E))
    M[np.arange(T)[:, None], order[:, :k]] = 1.0

    for name, loss_fn in aux_losses(M, k).items():
        logits = Tensor(logits_base, requires_grad=True)
        backward(loss_fn(softmax(logits, axis=-1)))

        def f(t):
            return loss_fn(softmax(t, axis=-1)).item()

        fd = finite_difference_grad(f, Tensor(logits_base), h=1e-6)
        rel = np.abs(logits.grad - fd.data) / np.maximum(
            np.maximum(np.abs(fd.data), np.abs(logits.grad)), 1e-8
        )
        assert rel.max() < 1e-4, name


@pytest.mark.parametrize("T", [6, 49, 512])
def test_aux_losses_of_one_expert_are_one_with_zero_gradient(T):
    # one expert: every P entry is softmax over one logit, exactly 1.0, so
    # both losses are constant and the logits get no gradient at all. They
    # read 1 up to the rounding of their 1/T scales (1 - 2**-52 at T = 49).
    logits_base = np.random.default_rng(T).normal(size=(T, 1))
    M = np.ones((T, 1))
    for name, loss_fn in aux_losses(M, 1).items():
        logits = Tensor(logits_base, requires_grad=True)
        loss = loss_fn(softmax(logits, axis=-1))
        assert abs(loss.item() - 1.0) <= 2.0**-52, name
        backward(loss)
        assert np.array_equal(logits.grad, np.zeros((T, 1))), name


def test_aux_inputs_from_routing_uses_softmax_probs():
    rng = np.random.default_rng(137)
    S = Tensor(rng.normal(size=(2, 3, 4)))
    res = route(S, get_strategy("expert-race"), "identity", "train", ThresholdState(), k=2)
    M, P = aux_inputs_from_routing(res.mask, S)
    assert M.shape == (6, 4)
    assert np.allclose(P.data.sum(axis=-1), 1.0, atol=1e-9)
    assert M.sum() == 12


# ----------------------------------------------------------------------
# regression losses


def test_per_layer_reg_zero_when_exact():
    y = np.random.default_rng(139).normal(size=(2, 3, 5))
    assert per_layer_reg_loss([Tensor(y), Tensor(y)], y).item() == 0.0


def test_per_layer_reg_constant_offset_gives_dim():
    y = np.zeros((2, 4, 7))
    loss = per_layer_reg_loss([Tensor(y + 1.0)], y).item()
    assert abs(loss - 7.0) < 1e-12


def test_per_layer_reg_against_naive_loop():
    rng = np.random.default_rng(149)
    y = rng.normal(size=(2, 3, 4))
    y_hats = [rng.normal(size=(2, 3, 4)) for _ in range(3)]
    expected = 0.0
    for yh in y_hats:
        acc = 0.0
        for b in range(2):
            for l in range(3):
                acc += sum((y[b, l, d] - yh[b, l, d]) ** 2 for d in range(4))
        expected += acc / 6.0
    expected /= 3.0
    got = per_layer_reg_loss([Tensor(yh) for yh in y_hats], y).item()
    assert abs(got - expected) < 1e-12


def test_diffusion_loss_basics_and_oracle():
    rng = np.random.default_rng(151)
    y = rng.normal(size=(2, 3, 4))
    assert diffusion_loss(Tensor(y), y).item() == 0.0
    assert abs(diffusion_loss(Tensor(y + 0.5), y).item() - 0.25) < 1e-12
    pred = rng.normal(size=(2, 3, 4))
    expected = float(np.mean([(pred[i] - y[i]) ** 2 for i in range(2)]))
    assert abs(diffusion_loss(Tensor(pred), y).item() - expected) < 1e-12


@pytest.mark.parametrize("call, named", [
    pytest.param(lambda: per_layer_reg_loss([], np.zeros((2, 3, 4))), "^per_layer_reg_loss needs at least one layer",
                 id="no-layers"),
    pytest.param(lambda: per_layer_reg_loss([Tensor(np.zeros((2, 3, 4)))], np.zeros((2, 3, 5))),
                 r"^target head output \(2, 3, 4\) does not match target \(2, 3, 5\)$", id="reg-shapes"),
    pytest.param(lambda: diffusion_loss(Tensor(np.zeros((2, 3, 4))), np.zeros((3, 2, 4))),
                 r"^prediction \(2, 3, 4\) does not match target \(3, 2, 4\)$", id="diffusion-shapes"),
])
def test_regression_losses_reject_a_bad_argument(call, named):
    with pytest.raises(ConfigError, match=named):
        call()


def test_total_loss_default_weights_hand_arithmetic():
    d = Tensor(np.array(0.8))
    plr = Tensor(np.array(3.0))
    sim = Tensor(np.array(2.0))
    total, breakdown = total_loss(d, plr, sim, None, w_plr=1e-2, w_sim=1e-4, w_blc=0.0)
    assert abs(total.item() - (0.8 + 1e-2 * 3.0 + 1e-4 * 2.0)) < 1e-15
    assert breakdown["plr"] == 3.0 and breakdown["sim"] == 2.0 and breakdown["blc"] == 0.0


def test_total_loss_zero_weights_equals_diffusion():
    d = Tensor(np.array(0.8))
    total, _ = total_loss(d, Tensor(np.array(5.0)), Tensor(np.array(5.0)), Tensor(np.array(5.0)),
                          w_plr=0.0, w_sim=0.0, w_blc=0.0)
    assert total.item() == 0.8


def test_total_loss_includes_balance_arm():
    d = Tensor(np.array(1.0))
    blc = Tensor(np.array(2.0))
    total, breakdown = total_loss(d, None, None, blc, w_plr=0.0, w_sim=0.0, w_blc=1e-3)
    assert abs(total.item() - 1.002) < 1e-15
    assert breakdown["blc"] == 2.0
