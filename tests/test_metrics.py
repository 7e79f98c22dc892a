"""Metrics: objective values, MaxVio, combination usage, allocation profiles,
sample quality, excess loss."""

import itertools

import numpy as np
import pytest

from moelab import metrics
from moelab.metrics import (
    ALLOCATION_BUCKETS,
    allocation_profile,
    combination_usage,
    excess_loss,
    max_violation,
    report_mean,
    routing_objective,
    routing_report,
    sample_quality,
)
from moelab.diffusion import PARAMETERIZATIONS, SyntheticTask, build_schedule
from moelab.routing import (
    ConfigError,
    NumericError,
    ThresholdState,
    effective_k,
    get_strategy,
    reshape_scores,
    route,
    scatter_mask,
    topk_mask,
)
from moelab.tensor import Tensor


# ----------------------------------------------------------------------
# routing objective


def test_objective_single_row_max():
    S = np.array([[3.0, -1.0, 7.0, 2.0]])
    mask = np.array([[0.0, 0.0, 1.0, 0.0]])
    assert routing_objective(S, mask) == 7.0


def test_objective_race_beats_token_choice_on_seeded_draw():
    rng = np.random.default_rng(211)
    S = rng.normal(size=(2, 3, 4))
    k = 1
    race = get_strategy("expert-race")
    tc = get_strategy("token-choice")
    race_view = reshape_scores(S, race)
    race_val = routing_objective(race_view, topk_mask(race_view, effective_k(race, 2, 3, 4, k))[0])
    tc_view = reshape_scores(S, tc)
    tc_val = routing_objective(tc_view, topk_mask(tc_view, effective_k(tc, 2, 3, 4, k))[0])
    # sorting oracle for the race side
    assert abs(race_val - np.sort(S.ravel())[::-1][:6].sum()) < 1e-12
    assert race_val >= tc_val


def test_objective_equals_exhaustive_row_oracle():
    rng = np.random.default_rng(223)
    for strategy in (get_strategy("token-choice"), get_strategy("be-choice"), get_strategy("bl-choice")):
        S = rng.normal(size=(2, 2, 2))
        view = reshape_scores(S, strategy)
        K = effective_k(strategy, 2, 2, 2, 1)
        value = routing_objective(view, topk_mask(view, K)[0])
        best = sum(max(sum(c) for c in itertools.combinations(row, K)) for row in view)
        assert abs(value - best) < 1e-12


# ----------------------------------------------------------------------
# MaxVio


def test_max_violation_uniform_is_zero():
    mask = np.zeros((8, 4))
    mask[np.arange(8), np.arange(8) % 4] = 1.0
    assert max_violation(mask, 1) == 0.0


def test_max_violation_full_concentration():
    E = 5
    mask = np.zeros((10, E))
    mask[:, 2] = 1.0
    assert abs(max_violation(mask, 1) - (E - 1)) < 1e-12


def test_max_violation_against_naive_loop():
    rng = np.random.default_rng(227)
    mask = (rng.random((3, 7, 4)) < 0.4).astype(float)
    k = 2
    loads = [0.0] * 4
    tokens = 0
    for b in range(3):
        for l in range(7):
            tokens += 1
            for e in range(4):
                loads[e] += mask[b, l, e]
    expected = (max(loads) - k * tokens / 4) / (k * tokens / 4)
    assert abs(max_violation(mask, k) - expected) < 1e-12


def test_max_violation_rejects_zero_expected_load():
    with pytest.raises(ConfigError):
        max_violation(np.zeros((0, 4)), 1)


def test_max_violation_race_can_exceed_one():
    # adversarial scores concentrate the global top-K on one expert
    B, L, E, k = 2, 4, 4, 1
    S = np.zeros((B, L, E))
    S[..., 0] = 10.0  # expert 0 dominates every token
    strategy = get_strategy("expert-race")
    res = route(Tensor(S), strategy, "identity", "train", ThresholdState(), k=k)
    assert max_violation(res.mask, k) > 1.0


# ----------------------------------------------------------------------
# combination usage


def test_pair_counts_total_identity():
    rng = np.random.default_rng(229)
    mask = (rng.random((20, 5)) < 0.5).astype(float)
    counts = metrics._co_selections(mask[None])[0]
    active = mask.sum(axis=1)
    expected_total = sum(a * (a - 1) / 2 for a in active)
    assert counts.sum() == expected_total


def test_combination_usage_uniform_pairs_e4():
    # all six pairs equally used -> bins 1..5 stay under 95%, ratio 5/6
    pairs = list(itertools.combinations(range(4), 2))
    mask = np.zeros((len(pairs), 4))
    for t, (i, j) in enumerate(pairs):
        mask[t, i] = mask[t, j] = 1.0
    usage = combination_usage(mask)
    assert abs(usage.ratio - 5.0 / 6.0) < 1e-12
    assert not usage.no_pairs


def test_combination_usage_single_pair_is_zero():
    mask = np.zeros((10, 4))
    mask[:, 0] = mask[:, 1] = 1.0
    usage = combination_usage(mask)
    assert usage.ratio == 0.0
    assert not usage.no_pairs


def test_combination_usage_no_pairs_flagged():
    mask = np.zeros((6, 4))
    mask[np.arange(6), np.arange(6) % 4] = 1.0  # nobody activates 2 experts
    usage = combination_usage(mask)
    assert usage.ratio == 0.0 and usage.no_pairs


def test_combination_usage_against_naive_oracle():
    rng = np.random.default_rng(233)
    mask = (rng.random((40, 6)) < 0.45).astype(float)
    got = combination_usage(mask)

    counter = {pair: 0 for pair in itertools.combinations(range(6), 2)}
    for row in mask:
        active = [e for e in range(6) if row[e] == 1.0]
        for pair in itertools.combinations(active, 2):
            counter[pair] += 1
    counts = sorted(counter.values(), reverse=True)
    total = sum(counts)
    cum = 0.0
    active_bins = 0
    for c in counts:
        cum += c / total
        if cum < 0.95:
            active_bins += 1
    assert got.ratio == active_bins / len(counts)


def test_combination_usage_permutation_invariant():
    rng = np.random.default_rng(239)
    mask = (rng.random((30, 5)) < 0.5).astype(float)
    perm = rng.permutation(5)
    assert combination_usage(mask).ratio == combination_usage(mask[:, perm]).ratio


def test_combination_usage_requires_two_experts():
    with pytest.raises(ConfigError):
        combination_usage(np.ones((4, 1)))


# ----------------------------------------------------------------------
# allocation profile


def test_allocation_profile_token_choice_constant_k():
    rng = np.random.default_rng(241)
    B, L, E, k = 16, 6, 4, 2
    S = Tensor(rng.normal(size=(B, L, E)))
    res = route(S, get_strategy("token-choice"), "identity", "train", ThresholdState(), k=k)
    t = rng.integers(1, 101, size=B)
    means = allocation_profile(res.mask, t, 100)
    assert np.all(means[~np.isnan(means)] == k)
    assert routing_report(res.mask[None], k, t, 100)[0]["allocation_bucket_variance"] == 0.0


def test_allocation_profile_two_cluster_threshold():
    # scores split into two well-separated clusters by timestep; a threshold
    # between them activates everything on one side and nothing on the other
    B, L, E = 10, 4, 3
    t = np.array([10] * 5 + [90] * 5)
    S = np.where(t[:, None, None] < 50, 2.0, -2.0) * np.ones((B, L, E))
    state = ThresholdState(tau=0.0)
    res = route(Tensor(S), get_strategy("expert-race"), "identity", "infer", state, k=1)
    means = allocation_profile(res.mask, t, 100)
    assert means[5] == E and means[45] == 0.0


def test_allocation_profile_empty_bucket_is_missing():
    masks = np.ones((4, 2, 3))
    t = np.array([5, 5, 95, 95])
    means = allocation_profile(masks, t, 100)
    assert np.isnan(means[25])
    assert means[2] == 3.0


def test_allocation_profile_of_no_samples_has_no_bucket_variance():
    means = allocation_profile(np.ones((0, 2, 3)), np.array([], dtype=np.int64), 100)
    assert means.shape == (ALLOCATION_BUCKETS,) and np.all(np.isnan(means))


@pytest.mark.parametrize("call, named", [
    pytest.param(lambda: routing_objective(np.ones((2, 3)), np.ones((3, 2))), r"^scores \(2, 3\) vs mask \(3, 2\)$",
                 id="objective-shapes"),
    pytest.param(lambda: max_violation(np.ones(4), 1), r"^mask must end in an expert axis, got shape \(4,\)$",
                 id="max-violation-rank"),
    pytest.param(lambda: allocation_profile(np.ones((4, 3)), np.zeros(4), 100), r"\(N, L, E\) masks .* \(4, 3\) / \(4,\)$",
                 id="allocation-rank"),
    pytest.param(lambda: allocation_profile(np.ones((4, 2, 3)), np.zeros(3), 100), r"\(4, 2, 3\) / \(3,\)$",
                 id="allocation-timesteps"),
    pytest.param(lambda: allocation_profile(np.ones((4, 2, 3)), np.float64(5), 100), r"\(4, 2, 3\) / \(\)$",
                 id="allocation-scalar-timestep"),
    pytest.param(lambda: allocation_profile(np.ones((4, 2, 3)), np.zeros((4, 1)), 100), r"\(4, 2, 3\) / \(4, 1\)$",
                 id="allocation-timestep-column"),
    pytest.param(lambda: allocation_profile(np.ones((2, 3, 4)), np.array([2.5, 7.0]), 100),
                 r"^timestep 2.5 is not an integer$", id="allocation-fractional-timestep"),
])
def test_metrics_reject_a_bad_argument(call, named):
    with pytest.raises(ConfigError, match=named):
        call()


@pytest.mark.parametrize("bad", [-5, 101, float("nan")])
def test_allocation_profile_rejects_a_timestep_outside_its_range(bad):
    t = np.array([0, 100, bad, 7])
    with pytest.raises(ConfigError, match=rf"^timestep {bad} is outside \[0, 100\]$"):
        allocation_profile(np.ones((4, 2, 3)), t, 100)


# ----------------------------------------------------------------------
# routing report


def _legacy_layer_record(mask, k, t, t_max):
    """A layer's metrics as `moelab metrics` computed them inline before the
    report existed; the parity oracle."""
    if mask.shape[-1] < 2:  # single expert: no pairs exist
        comb_ratio, comb_no_pairs = 0.0, True
    else:
        usage = combination_usage(mask)
        comb_ratio, comb_no_pairs = usage.ratio, usage.no_pairs
    means = allocation_profile(mask, t, t_max)  # the one mask's own buckets
    return {
        "max_vio": max_violation(mask, k),
        "comb_usage": comb_ratio,
        "comb_no_pairs": comb_no_pairs,
        "mean_active": float(mask.sum(axis=-1).mean()),
        "allocation_bucket_variance": float(np.var(means[~np.isnan(means)])),
    }


def _legacy_train_means(masks, k):
    """The train log's three columns as `train_step` averaged them inline."""
    vios, combs, actives = [], [], []
    for mask in masks:
        vios.append(max_violation(mask, k))
        if mask.shape[-1] >= 2:
            combs.append(combination_usage(mask).ratio)
        actives.append(float(mask.sum(axis=-1).mean()))
    return float(np.mean(vios)), float(np.mean(combs)) if combs else 0.0, float(np.mean(actives))


@pytest.mark.parametrize("E,k", [(1, 1), (2, 1), (4, 2), (8, 2)])
def test_routing_report_matches_legacy_formulas(E, k):
    rng = np.random.default_rng(300 + E)
    N, L, t_max = 12, 5, 40
    strategy = get_strategy("expert-race")
    K = effective_k(strategy, N, L, E, k)
    masks = [
        scatter_mask(topk_mask(reshape_scores(rng.normal(size=(N, L, E)), strategy), K)[0], strategy, (N, L, E))
        for _ in range(3)
    ]
    masks.append(np.zeros((N, L, E)))  # a layer that selected nothing
    masks.append((rng.random((N, L, E)) < 0.4).astype(np.float64))  # uneven per-token counts
    t = rng.integers(0, t_max + 1, size=N)

    stack = np.stack(masks)
    report = routing_report(stack, k, t, t_max)
    legacy = [_legacy_layer_record(m, k, t, t_max) for m in masks]
    assert report == legacy
    for got, want in zip(report, legacy):  # and bit for bit: repr tells -0.0 from 0.0
        assert [repr(v) for v in got.values()] == [repr(v) for v in want.values()]
    assert report[3]["comb_no_pairs"] is True and report[3]["mean_active"] == 0.0
    # a strided stack, like a block of route-sim masks, gives the same records
    strided = np.asfortranarray(stack)
    assert [repr(r) for r in routing_report(strided, k, t, t_max)] == [repr(r) for r in report]

    no_t = routing_report(stack, k)
    assert [list(r) for r in no_t] == [["max_vio", "comb_usage", "comb_no_pairs", "mean_active"]] * 5
    means = tuple(report_mean(no_t, key) for key in ("max_vio", "comb_usage", "mean_active"))
    assert means == _legacy_train_means(masks, k)


def test_routing_report_edges():
    assert routing_report(np.ones((0, 2, 3, 4)), 2) == []
    assert np.isnan(report_mean([], "max_vio"))
    with pytest.raises(ConfigError, match="t_max"):
        routing_report(np.ones((1, 2, 3, 4)), 2, t=np.array([1, 2]))


# ----------------------------------------------------------------------
# sample quality


TASK = SyntheticTask(num_classes=4, tokens=16, dim=64, seed=7919)


def test_sample_quality_of_draws_of_the_law():
    x, c = TASK.sample_x0(np.random.default_rng(0), 1024)
    quality = sample_quality(x, c, TASK)
    assert quality.accuracy == 1.0
    assert abs(quality.log_likelihood - (-0.534)) < 0.01  # measured -0.5343
    assert np.all((0.97 <= quality.sd_ratio) & (quality.sd_ratio <= 1.03)), quality.sd_ratio

    wide = sample_quality(TASK.means[c] + 2.0 * (x - TASK.means[c]), c, TASK)
    assert np.allclose(wide.sd_ratio, 2.0 * quality.sd_ratio)
    assert wide.log_likelihood < quality.log_likelihood - 1.0

    shuffled = sample_quality(x, np.random.default_rng(1).permutation(c), TASK)
    assert abs(shuffled.accuracy - 0.25) < 0.05
    assert shuffled.log_likelihood == quality.log_likelihood  # the mixture ignores labels


def test_sample_quality_log_likelihood_matches_a_scipy_reference():
    from scipy.special import logsumexp
    from scipy.stats import norm

    task = SyntheticTask(num_classes=3, tokens=4, dim=5, seed=11)
    rng = np.random.default_rng(2)
    x = 1.5 * rng.normal(size=(40, 4, 5))  # off the law, so classes overlap
    c = rng.integers(0, 3, size=40)
    per_class = np.stack(
        [norm.logpdf(x, task.means[k], task.token_sigma[:, None]).sum(axis=(1, 2)) for k in range(3)], axis=1)
    want = np.mean(logsumexp(per_class, axis=1) - np.log(3)) / 20
    quality = sample_quality(x, c, task)
    assert abs(quality.log_likelihood - want) < 1e-12
    assert quality.accuracy == np.mean(per_class.argmax(axis=1) == c)


@pytest.mark.parametrize("x,c,error,named", [
    (np.zeros((2, 16, 8)), np.array([0, 1]), ConfigError, r"\(2, 16, 8\)"),
    (np.zeros((2, 16, 64)), np.array([0]), ConfigError, r"\(1,\)"),
    (np.zeros((2, 16, 64)), np.array([0, 4]), ConfigError, r"\[0, 4\)"),
    (np.zeros((2, 16, 64)), np.array([0.0, 1.0]), ConfigError, "integers"),
    (np.full((2, 16, 64), np.nan), np.array([0, 1]), NumericError, "2048 non-finite"),
])
def test_sample_quality_rejects_bad_input(x, c, error, named):
    with pytest.raises(error, match=named):
        sample_quality(x, c, TASK)


# ----------------------------------------------------------------------
# excess loss over the Bayes-optimal denoiser


SCHEDULE = build_schedule(100)


@pytest.mark.parametrize("parameterization", PARAMETERIZATIONS)
def test_excess_loss_of_the_oracle_is_zero_and_of_noise_its_variance(parameterization):
    rng = np.random.default_rng(3)
    batch = TASK.sample_batch(rng, 1024, SCHEDULE, parameterization, t=50)
    oracle = TASK.optimal_prediction(batch.x_t, batch.t, batch.c, SCHEDULE, parameterization)
    assert excess_loss(oracle, batch, TASK, SCHEDULE, parameterization) == 0.0
    noisy = oracle + rng.normal(0.0, 0.1, size=oracle.shape)
    excess = excess_loss(noisy, batch, TASK, SCHEDULE, parameterization)
    assert abs(excess - 0.01) < 0.001, excess


def test_excess_loss_rejects_a_prediction_of_another_shape():
    batch = TASK.sample_batch(np.random.default_rng(0), 2, SCHEDULE, "v")
    with pytest.raises(ConfigError, match=r"\(2, 16, 8\) vs target \(2, 16, 64\)"):
        excess_loss(np.zeros((2, 16, 8)), batch, TASK, SCHEDULE, "v")
