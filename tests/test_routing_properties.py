"""Routing invariants as Hypothesis properties over random shapes and strategies."""

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from moelab.routing import (
    GATING_FUNCTIONS,
    STRATEGIES,
    ConfigError,
    ThresholdState,
    get_strategy,
    reshape_scores,
    route,
    scatter_mask,
    topk_mask,
)
from moelab.tensor import Tensor

SETTINGS = settings(max_examples=25, deadline=None)

# a handful of repeated values makes ties common
TIED = st.sampled_from([-1.0, 0.0, 0.5, 2.0])
REAL = st.floats(-4.0, 4.0, allow_nan=False)
# signed zeros compare equal and the infinities are ordinary values
EXTREME_TIED = st.sampled_from([-np.inf, -1.0, -0.0, 0.0, 0.5, np.inf])


@st.composite
def routing_cases(draw, elements=REAL):
    """(strategy, scores, k) with B, L, E small and an integral per-row budget."""
    strategy = get_strategy(draw(st.sampled_from(sorted(STRATEGIES))))
    B, L, E = draw(st.integers(1, 4)), draw(st.integers(1, 5)), draw(st.integers(1, 6))
    k = draw(st.integers(1, E))
    _, d_b = strategy.extents(B, L, E)
    assume(k * d_b % E == 0)
    scores = draw(arrays(np.float64, (B, L, E), elements=elements))
    return strategy, scores, k


@SETTINGS
@given(routing_cases(), st.sampled_from(sorted(GATING_FUNCTIONS)))
def test_train_selects_exactly_blk_pairs(case, gating):
    strategy, scores, k = case
    B, L, _ = scores.shape
    res = route(Tensor(scores), strategy, gating, "train", ThresholdState(), k=k)
    assert set(np.unique(res.mask)) <= {0.0, 1.0}
    assert res.mask.sum() == B * L * k


@SETTINGS
@given(routing_cases())
def test_reshape_then_scatter_round_trips(case):
    strategy, scores, _ = case
    assert np.array_equal(scatter_mask(reshape_scores(scores, strategy), strategy, scores.shape), scores)


@SETTINGS
@given(
    routing_cases(),
    st.sampled_from(sorted(GATING_FUNCTIONS)),
    st.floats(-2.0, 2.0, allow_nan=False),
    st.integers(0, 2**32 - 1),
)
def test_infer_mask_of_a_sample_ignores_the_rest_of_the_batch(case, gating, tau, seed):
    strategy, scores, k = case
    others = scores.copy()
    others[1:] = np.random.default_rng(seed).normal(scale=3.0, size=others[1:].shape)
    state = ThresholdState(tau=tau)
    alone = route(Tensor(scores[:1]), strategy, gating, "infer", state, k=k).mask
    mixed = route(Tensor(others), strategy, gating, "infer", state, k=k).mask
    assert np.array_equal(alone[0], mixed[0])


@SETTINGS
@given(
    routing_cases(),
    st.sampled_from(sorted(GATING_FUNCTIONS)),
    st.sampled_from(["train", "infer"]),
    st.none() | st.floats(-2.0, 2.0, allow_nan=False),
)
def test_route_leaves_the_threshold_as_it_was(case, gating, mode, tau):
    # only Trainer.train_step folds the K-th values into tau
    strategy, scores, k = case
    state = ThresholdState(tau=tau)
    try:
        route(Tensor(scores), strategy, gating, mode, state, k=k)
    except ConfigError as exc:
        assert mode == "infer" and tau is None and "initialized threshold" in str(exc)
    assert state.tau == tau


@SETTINGS
@given(routing_cases(elements=TIED), st.sampled_from(sorted(GATING_FUNCTIONS)))
def test_ties_break_the_same_way_on_repeated_calls(case, gating):
    strategy, scores, k = case
    first = route(Tensor(scores), strategy, gating, "train", ThresholdState(), k=k)
    again = route(Tensor(scores.copy()), strategy, gating, "train", ThresholdState(), k=k)
    assert np.array_equal(first.mask, again.mask)
    assert np.array_equal(first.gated.data, again.gated.data)
    assert np.array_equal(first.kth_values, again.kth_values)


@settings(max_examples=100, deadline=None)
@given(routing_cases(elements=EXTREME_TIED), st.data())
def test_partition_selection_matches_the_sort_oracles(case, data):
    strategy, scores, _ = case
    view = reshape_scores(scores, strategy)
    d_a, d_b = view.shape
    K = data.draw(st.integers(0, d_b), label="K")
    oracle = np.zeros((d_a, d_b))
    oracle[np.arange(d_a)[:, None], np.argsort(-view, axis=1, kind="stable")[:, :K]] = 1.0
    mask, kth = topk_mask(view, K)
    assert np.array_equal(mask, oracle)
    # route's K-th values, from the same partition; +inf for an empty selection
    want = np.sort(view, axis=1)[:, d_b - K] if K else np.full(d_a, np.inf)
    assert np.array_equal(kth, want)
