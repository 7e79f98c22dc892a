"""Routing: selection budgets, top-K masks, gating, the EMA threshold."""

import dataclasses
import itertools

import numpy as np
import pytest
from budgets import row_budgets

from moelab import routing
from moelab.routing import (
    ConfigError,
    NumericError,
    StateError,
    ThresholdState,
    effective_k,
    ema_update,
    get_strategy,
    reshape_scores,
    route,
    scatter_mask,
    topk_mask,
)
from moelab.tensor import Tensor, backward

ALL = [get_strategy(n) for n in routing.STRATEGIES]


@pytest.mark.parametrize(
    "spelling,name",
    [
        ("expert_race", "expert-race"),
        ("ExpertRace", "expert-race"),
        ("TOKEN-CHOICE", "token-choice"),
        ("tokenchoice", "token-choice"),
        (" Expert_Race ", "expert-race"),
    ],
)
def test_get_strategy_accepts_case_and_separator_variants(spelling, name):
    assert get_strategy(spelling) is routing.STRATEGIES[name]


def test_get_strategy_rejects_unknown_name():
    with pytest.raises(ConfigError, match="unknown strategy"):
        get_strategy("race-expert")


@pytest.mark.parametrize("call, named", [
    pytest.param(lambda: routing.RoutingStrategy("lb", ("L",), ("B",)), r"must partition \{B, L, E\}", id="partition"),
    pytest.param(lambda: route(Tensor(np.ones((4, 4))), ALL[0], "identity", "train", ThresholdState(), k=1),
                 r"^scores must be \(B, L, E\), got \(4, 4\)$", id="scores-rank"),
])
def test_routing_rejects_a_bad_argument(call, named):
    with pytest.raises(ConfigError, match=named):
        call()


# ----------------------------------------------------------------------
# effective_k


@pytest.mark.parametrize(
    "name,B,L,E,k,expected",
    [
        ("token-choice", 4, 16, 8, 2, 2),
        ("expert-race", 2, 4, 8, 2, 2 * 4 * 2),
        ("expert-choice", 4, 16, 8, 2, 2 * 16 // 8),
        ("bl-choice", 4, 16, 8, 2, 4 * 16 * 2 // 8),
        ("be-choice", 4, 16, 8, 2, 4 * 2),
        ("le-choice", 4, 16, 8, 2, 16 * 2),
    ],
)
def test_effective_k_per_strategy(name, B, L, E, k, expected):
    assert effective_k(get_strategy(name), B, L, E, k) == expected


def test_effective_k_rejects_fractional():
    with pytest.raises(ConfigError) as err:
        effective_k(get_strategy("expert-choice"), 2, 3, 4, 1)  # k*L/E = 3/4
    assert "divide" in str(err.value)


def test_effective_k_rejects_bad_k():
    with pytest.raises(ConfigError):
        effective_k(get_strategy("token-choice"), 2, 3, 4, 5)  # k > E
    with pytest.raises(ConfigError):
        effective_k(get_strategy("token-choice"), 0, 3, 4, 1)


def test_row_budgets_match_effective_k_when_integral():
    budgets = row_budgets(get_strategy("expert-choice"), 4, 16, 8, 2)
    assert budgets.sum() == 4 * 16 * 2
    assert np.all(budgets == 4)


def test_row_budgets_even_split_when_fractional():
    budgets = row_budgets(get_strategy("bl-choice"), 2, 3, 4, 1)  # total 6 over 4 rows
    assert budgets.sum() == 6
    assert budgets.tolist() == [2, 2, 1, 1]


# ----------------------------------------------------------------------
# reshaping


def test_reshape_expert_race_single_row():
    S = np.arange(24.0).reshape(2, 3, 4)
    view = reshape_scores(S, get_strategy("expert-race"))
    assert view.shape == (1, 24)
    assert sorted(view.ravel()) == sorted(S.ravel())


def test_reshape_token_choice_rows_are_tokens():
    S = np.arange(24.0).reshape(2, 3, 4)
    view = reshape_scores(S, get_strategy("token-choice"))
    assert view.shape == (6, 4)
    for b in range(2):
        for l in range(3):
            assert np.array_equal(view[b * 3 + l], S[b, l])


@pytest.mark.parametrize("strategy", ALL, ids=lambda s: s.name)
def test_scatter_gather_round_trip(strategy):
    rng = np.random.default_rng(17)
    S = rng.normal(size=(3, 5, 4))
    view = reshape_scores(S, strategy)
    assert np.array_equal(scatter_mask(view, strategy, (3, 5, 4)), S)
    # idempotence: scatter then gather reproduces the 2-D mask
    mask2d, _ = topk_mask(view, 2)
    again = reshape_scores(scatter_mask(mask2d, strategy, (3, 5, 4)), strategy)
    assert np.array_equal(again, mask2d)


@pytest.mark.parametrize("strategy", ALL, ids=lambda s: s.name)
def test_block_of_draws_views_and_scatters_draw_by_draw(strategy):
    block = np.random.default_rng(18).normal(size=(3, 2, 5, 4))
    view = reshape_scores(block, strategy)
    assert np.array_equal(view, np.concatenate([reshape_scores(draw, strategy) for draw in block]))
    mask2d, _ = topk_mask(view, 2)
    d_a = view.shape[0] // 3
    per_draw = [scatter_mask(mask2d[i * d_a:(i + 1) * d_a], strategy, (2, 5, 4)) for i in range(3)]
    assert np.array_equal(scatter_mask(mask2d, strategy, block.shape), np.stack(per_draw))
    assert np.array_equal(scatter_mask(view, strategy, block.shape), block)


@pytest.mark.parametrize("shape", [(4, 5), (1, 2, 3, 4, 5)])
def test_reshape_rejects_scores_that_are_neither_a_draw_nor_a_block(shape):
    with pytest.raises(ConfigError, match=r"\(n, B, L, E\)"):
        reshape_scores(np.zeros(shape), ALL[0])


# ----------------------------------------------------------------------
# top-K selection


def test_topk_mask_simple_row():
    mask, _ = topk_mask(np.array([[5.0, 1.0, 3.0, 2.0]]), 2)
    assert mask.tolist() == [[1.0, 0.0, 1.0, 0.0]]


def test_topk_mask_tie_rule_lowest_index():
    mask, _ = topk_mask(np.full((1, 4), 7.0), 2)
    assert mask.tolist() == [[1.0, 1.0, 0.0, 0.0]]


def test_topk_mask_against_full_sort_oracle():
    rng = np.random.default_rng(23)
    S = rng.normal(size=(4, 7))
    mask, _ = topk_mask(S, 3)
    for i in range(4):
        keep = set(np.argsort(-S[i], kind="stable")[:3].tolist())
        assert {j for j in range(7) if mask[i, j] == 1.0} == keep


def test_topk_mask_rejects_oversized_k():
    with pytest.raises(ConfigError):
        topk_mask(np.zeros((2, 3)), 4)


def test_selection_rejects_negative_or_zero_k():
    with pytest.raises(ConfigError, match="K=-1"):
        topk_mask(np.array([[3.0, 2.0, 1.0]]), -1)
    # route's budget, and with it the K-th value it reads, needs k >= 1
    with pytest.raises(ConfigError, match="k=0"):
        route(Tensor(np.zeros((1, 3, 2))), ALL[0], "identity", "train", ThresholdState(), k=0)


def test_topk_mask_of_zero_is_all_zero():
    mask, kth = topk_mask(np.array([[3.0, 2.0, 1.0], [0.0, np.inf, -np.inf]]), 0)
    assert mask.tolist() == [[0.0, 0.0, 0.0], [0.0, 0.0, 0.0]]
    assert kth.tolist() == [np.inf, np.inf]


@pytest.mark.parametrize("select", [topk_mask], ids=["topk_mask"])
def test_selection_rejects_nan_with_its_count(select):
    S = np.array([[3.0, np.nan, 1.0], [np.nan, 0.0, 2.0]])
    with pytest.raises(NumericError, match="2 NaN scores of 6"):
        select(S, 1)


def test_topk_mask_infinities_follow_the_tie_rule():
    S = np.array([[np.inf, -np.inf, np.inf, 0.0, -0.0, np.inf], [-np.inf] * 6])
    mask, kth = topk_mask(S, 2)
    assert mask.tolist() == [[1, 0, 1, 0, 0, 0], [1, 1, 0, 0, 0, 0]]
    assert kth.tolist() == [np.inf, -np.inf]
    mask, _ = topk_mask(S, 5)
    assert mask.tolist() == [[1, 0, 1, 1, 1, 1], [1, 1, 1, 1, 1, 0]]
    assert topk_mask(S, 4)[1].tolist() == [0.0, -np.inf]


def test_topk_mask_budgets_against_full_sort_oracle():
    # one row at a time, each with its own budget, on many ties
    rng = np.random.default_rng(31)
    S = rng.integers(-2, 3, size=(5, 6)).astype(np.float64)
    for row, b in zip(S, [0, 1, 3, 6, 2]):
        mask = topk_mask(row[None], b)[0][0]
        keep = set(np.argsort(-row, kind="stable")[:b].tolist())
        assert {j for j in range(6) if mask[j] == 1.0} == keep


def test_kth_value_per_row():
    assert topk_mask(np.array([[5.0, 1.0, 3.0, 2.0]]), 2)[1][0] == 3.0
    assert topk_mask(np.full((3, 5), 2.5), 4)[1].tolist() == [2.5, 2.5, 2.5]
    rng = np.random.default_rng(29)
    S = rng.normal(size=(6, 9))
    for k in (1, 4, 9):
        _, got = topk_mask(S, k)
        want = np.array([np.sort(row)[::-1][k - 1] for row in S])
        assert np.array_equal(got, want)
        assert got.base is None  # a copy: it does not keep the partitioned scores alive
    # and route's kth_values, from the gated view of each strategy
    scores = rng.normal(size=(2, 4, 4))
    for strategy in ALL:
        res = route(Tensor(scores), strategy, "identity", "train", ThresholdState(), k=2)
        view = reshape_scores(scores, strategy)
        K = effective_k(strategy, 2, 4, 4, 2)
        assert np.array_equal(res.kth_values, np.sort(view, axis=1)[:, view.shape[1] - K])


# ----------------------------------------------------------------------
# gating


def test_gating_identity_and_sigmoid():
    S = Tensor(np.array([[[0.0, 1.0], [-1.0, 2.0]]]))
    assert routing.GATING_FUNCTIONS["identity"](S) is S
    sig = routing.GATING_FUNCTIONS["sigmoid"](S)
    assert abs(sig.data[0, 0, 0] - 0.5) < 1e-15


def test_gating_softmax_normalizes_per_token():
    rng = np.random.default_rng(31)
    S = Tensor(rng.normal(size=(2, 3, 5)))
    out = routing.GATING_FUNCTIONS["softmax"](S)
    assert np.allclose(out.data.sum(axis=-1), 1.0, atol=1e-12)


def test_order_preservation_identity_sigmoid_not_softmax():
    rng = np.random.default_rng(37)
    S = rng.normal(size=(2, 3, 4))
    flat_order = np.argsort(S.ravel())
    for kind in ("identity", "sigmoid"):
        gated = routing.GATING_FUNCTIONS[kind](Tensor(S)).data
        assert np.array_equal(np.argsort(gated.ravel()), flat_order)
    # softmax renormalizes per token: this fixed input breaks the global order
    gated = routing.GATING_FUNCTIONS["softmax"](Tensor(S)).data
    assert not np.array_equal(np.argsort(gated.ravel()), flat_order)


# ----------------------------------------------------------------------
# EMA threshold


def test_ema_geometric_series():
    state = ThresholdState(tau=0.0)
    c = 4.0
    for _ in range(12):
        ema_update(state, np.array([c]))
    assert abs(state.tau - c * (1.0 - 0.99**12)) < 1e-12


def test_ema_update_weighs_the_batch_mean_by_the_constant_momentum():
    assert ThresholdState.momentum == 0.99
    assert [f.name for f in dataclasses.fields(ThresholdState)] == ["tau"]  # a constant, not a setting
    state = ThresholdState(tau=123.0)
    ema_update(state, np.array([1.0, 3.0]))
    assert state.tau == 0.99 * 123.0 + (1.0 - 0.99) * 2.0


def test_ema_warm_start_uses_first_batch():
    state = ThresholdState()
    ema_update(state, np.array([7.0, 9.0]))
    assert state.tau == 8.0


def test_ema_converges_to_pooled_quantile():
    # stationary stream; pooled-sort oracle for the population K-th value
    rng = np.random.default_rng(41)
    strategy = get_strategy("expert-race")
    state = ThresholdState()
    B, L, E, k = 4, 8, 8, 2
    K = effective_k(strategy, B, L, E, k)
    pool = []
    for _ in range(600):
        scores = rng.normal(size=(B, L, E))
        res = route(Tensor(scores), strategy, "identity", "train", state, k=k)
        ema_update(state, res.kth_values)
        pool.append(reshape_scores(scores, strategy).ravel())
    pooled = np.sort(np.concatenate(pool))[::-1]
    oracle = pooled[len(pool) * K - 1]
    assert abs(state.tau - oracle) / abs(oracle) < 0.02


# ----------------------------------------------------------------------
# route()


def test_route_worked_example_expert_race():
    S = Tensor(np.array([[[4.0, 1.0], [2.0, 3.0]]]))
    res = route(S, get_strategy("expert-race"), "identity", "train", ThresholdState(), k=1)
    assert res.mask[0, 0, 0] == 1.0 and res.mask[0, 1, 1] == 1.0
    assert res.mask.sum() == 2.0
    assert np.array_equal(res.gated.data, S.data)
    assert res.kth_values.tolist() == [3.0]


def test_route_infer_threshold_extremes():
    S = Tensor(np.random.default_rng(43).normal(size=(2, 3, 4)))
    strategy = get_strategy("expert-race")
    low = ThresholdState(tau=-np.inf)
    assert route(S, strategy, "identity", "infer", low, k=1).mask.sum() == 24
    high = ThresholdState(tau=np.inf)
    assert route(S, strategy, "identity", "infer", high, k=1).mask.sum() == 0


def test_route_infer_requires_initialized_tau():
    S = Tensor(np.zeros((1, 2, 2)))
    with pytest.raises(StateError):
        route(S, get_strategy("expert-race"), "identity", "infer", ThresholdState(), k=1)


def case_state(case: str) -> tuple[str, ThresholdState]:
    """The routing mode and threshold of a test case: "train" routes a
    fresh layer by top-K, "eval" a trained one (its tau set), as
    Trainer.forward does, and "infer" thresholds at that tau."""
    return ("infer" if case == "infer" else "train"), ThresholdState(tau=None if case == "train" else 1.0)


@pytest.mark.parametrize("case", ["train", "eval", "infer"])
def test_route_rejects_non_finite_scores_with_count(case):
    S = np.random.default_rng(44).normal(size=(2, 3, 4))
    S[0, 1, 2] = np.nan
    S[1, 0, 0] = np.inf
    S[1, 2, 3] = -np.inf
    mode, state = case_state(case)
    tau = state.tau
    with pytest.raises(NumericError, match="3 non-finite entries of 24"):
        route(Tensor(S), get_strategy("expert-race"), "identity", mode, state, k=1)
    assert state.tau == tau


@pytest.mark.parametrize("strategy", ALL, ids=lambda s: s.name)
def test_route_train_cardinality(strategy):
    rng = np.random.default_rng(47)
    B, L, E, k = 4, 8, 8, 2
    S = Tensor(rng.normal(size=(B, L, E)))
    K = effective_k(strategy, B, L, E, k)
    d_a, _ = strategy.extents(B, L, E)
    res = route(S, strategy, "identity", "train", ThresholdState(), k=k)
    assert res.mask.sum() == d_a * K == B * L * k


def test_token_choice_exact_k_per_token_race_varies():
    rng = np.random.default_rng(53)
    S = Tensor(rng.normal(size=(4, 8, 8)))
    tc = route(S, get_strategy("token-choice"), "identity", "train", ThresholdState(), k=2)
    assert np.all(tc.mask.sum(axis=-1) == 2)
    er = route(S, get_strategy("expert-race"), "identity", "train", ThresholdState(), k=2)
    assert er.mask.sum(axis=-1).var() > 0


@pytest.mark.parametrize("mode", ["eval", "", "TRAIN"])
def test_route_rejects_a_mode_that_is_neither_train_nor_infer(mode):
    S = Tensor(np.random.default_rng(59).normal(size=(2, 4, 4)))
    with pytest.raises(ConfigError, match=r"^mode must be 'train' or 'infer', got "):
        route(S, get_strategy("token-choice"), "identity", mode, ThresholdState(tau=0.0), k=2)


def test_inference_per_sample_independence():
    # perturbing other batch elements leaves a sample's thresholded mask alone
    rng = np.random.default_rng(61)
    strategy = get_strategy("expert-race")
    state = ThresholdState(tau=0.3)
    base = rng.normal(size=(3, 4, 4))
    res_a = route(Tensor(base), strategy, "identity", "infer", state, k=1)
    perturbed = base.copy()
    perturbed[1:] = rng.normal(size=(2, 4, 4)) * 5.0
    res_b = route(Tensor(perturbed), strategy, "identity", "infer", state, k=1)
    assert np.array_equal(res_a.mask[0], res_b.mask[0])


@pytest.mark.parametrize("case", ["train", "eval", "infer"])
@pytest.mark.parametrize("strategy", ALL, ids=lambda s: s.name)
def test_route_softmax_over_one_expert_gives_unit_gates_and_no_gradient(strategy, case):
    # the dense twin of a 1-in-1 layer: every gate is exactly 1.0, and the
    # logits get exactly zero gradient
    rng = np.random.default_rng(67)
    S = Tensor(rng.normal(size=(2, 4, 1)) * 3.0, requires_grad=True)
    res = route(S, strategy, "softmax", *case_state(case), k=1)
    assert res.mask.all()
    assert np.array_equal(res.gated.data, res.mask)
    backward((res.gated * Tensor(rng.normal(size=(2, 4, 1)))).sum())
    assert np.array_equal(S.grad, np.zeros((2, 4, 1)))


# ----------------------------------------------------------------------
# objective optimality (brute force on small shapes)


def _best_objective_bruteforce(view: np.ndarray, budgets: np.ndarray) -> float:
    """Exhaustively enumerate each row's K-subsets; the best feasible total."""
    total = 0.0
    for row, budget in zip(view, budgets):
        if budget == 0:
            continue
        best = max(sum(combo) for combo in itertools.combinations(row, budget))
        total += best
    return total


def test_expert_race_objective_dominates_all_strategies():
    rng = np.random.default_rng(71)
    race = get_strategy("expert-race")
    strict = {s.name: 0 for s in ALL if s.name != "expert-race"}
    n = 60
    for _ in range(n):
        S = rng.normal(size=(2, 3, 4))
        race_val = np.sort(S.ravel())[::-1][: 2 * 3].sum()  # k=1 -> top-6 overall
        for strategy in ALL:
            if strategy.name == "expert-race":
                continue
            view = reshape_scores(S, strategy)
            budgets = row_budgets(strategy, 2, 3, 4, 1)
            best = _best_objective_bruteforce(view, budgets)
            assert race_val >= best - 1e-12
            if race_val > best + 1e-12:
                strict[strategy.name] += 1
    for name, count in strict.items():
        assert count > n / 2, f"{name} tied expert-race too often ({count}/{n})"


def test_topk_mask_is_row_optimal():
    # selection value equals the exhaustive best subset per row
    rng = np.random.default_rng(73)
    for strategy in ALL:
        S = rng.normal(size=(2, 2, 2))
        view = reshape_scores(S, strategy)
        K = effective_k(strategy, 2, 2, 2, 1)
        value = float((view * topk_mask(view, K)[0]).sum())
        assert abs(value - _best_objective_bruteforce(view, [K] * view.shape[0])) < 1e-12
