"""Diffusion harness: schedules, noising, the denoiser, training machinery."""

import json
import re
from dataclasses import fields

import numpy as np
import pytest
from plain_ffn import plain_ffn_blocks

from moelab import layer, losses, metrics, training
from moelab.denoiser import DenoiserConfig, denoiser_forward, init_denoiser
from moelab.diffusion import (
    DiffusionBatch,
    NoiseSchedule,
    SyntheticTask,
    ancestral_sample,
    build_schedule,
    forward_diffuse,
    make_target,
)
from moelab.routing import ConfigError
from moelab.training import (
    AdamW,
    NumericError,
    Trainer,
    TrainerConfig,
    WeightEma,
    load_checkpoint,
    save_checkpoint,
)
from moelab.tensor import Tensor, backward, no_grad


SMALL = DenoiserConfig(
    layers=2, model_dim=16, tokens=8, num_classes=3, num_experts=4, k=2,
    dense_hidden=32, total_steps=40,
)


def small_trainer(seed=0, **model_overrides):
    from dataclasses import replace

    model = replace(SMALL, **model_overrides) if model_overrides else SMALL
    return Trainer(TrainerConfig(model=model, batch_size=6, seed=seed))


# ----------------------------------------------------------------------
# schedules


def test_schedule_endpoints_and_monotonic():
    sched = build_schedule(100)
    assert sched.alpha_bar[0] == 1.0
    assert sched.alpha_bar[-1] < 1e-3
    assert np.all(np.diff(sched.alpha_bar) < 0)
    assert np.all(sched.alpha_bar > 0)


def test_schedule_rejects_tiny_t():
    with pytest.raises(ConfigError):
        build_schedule(1)


@pytest.mark.parametrize("alpha_bar, named", [
    pytest.param([1.0, 0.5], r"^alpha_bar must have length T\+1, got \(2,\)$", id="length"),
    pytest.param([0.9, 0.5, 0.1], "^alpha_bar must start at 1 and decrease strictly$", id="start"),
    pytest.param([1.0, 0.5, 0.5], "^alpha_bar must start at 1 and decrease strictly$", id="flat"),
])
def test_schedule_rejects_a_bad_alpha_bar(alpha_bar, named):
    with pytest.raises(ConfigError, match=named):
        NoiseSchedule(total_steps=2, alpha_bar=np.array(alpha_bar))


def test_forward_diffuse_identity_at_t0():
    sched = build_schedule(50)
    rng = np.random.default_rng(0)
    x0 = rng.normal(size=(3, 4, 5))
    eps = rng.normal(size=(3, 4, 5))
    x_t = forward_diffuse(x0, np.zeros(3, dtype=int), eps, sched)
    assert np.array_equal(x_t, x0)


def test_forward_diffuse_pure_noise_at_terminal():
    sched = build_schedule(50)
    rng = np.random.default_rng(1)
    x0 = rng.normal(size=(2, 3, 4))
    eps = rng.normal(size=(2, 3, 4))
    x_T = forward_diffuse(x0, np.full(2, 50), eps, sched)
    floor = np.sqrt(sched.alpha_bar[-1])
    assert np.allclose(x_T, eps, atol=floor * np.abs(x0).max() + 1e-6)


def test_forward_diffuse_rejects_out_of_range_t():
    sched = build_schedule(10)
    with pytest.raises(ConfigError):
        forward_diffuse(np.zeros((1, 2, 2)), np.array([11]), np.zeros((1, 2, 2)), sched)


def test_forward_diffuse_second_moment_monte_carlo():
    # E||x_t||^2 = ab*||x0||^2 + (1-ab)*dim for unit Gaussian noise
    sched = build_schedule(100)
    rng = np.random.default_rng(2)
    t = 60
    dim = 8
    x0 = rng.normal(size=dim)
    n = 10_000
    eps = rng.normal(size=(n, dim))
    ab = sched.alpha_bar[t]
    x_t = np.sqrt(ab) * x0 + np.sqrt(1 - ab) * eps
    observed = (x_t**2).sum(axis=1)
    expected = ab * (x0**2).sum() + (1 - ab) * dim
    stderr = observed.std() / np.sqrt(n)
    assert abs(observed.mean() - expected) < 3 * stderr


def test_make_target_three_parameterizations():
    sched = build_schedule(20)
    rng = np.random.default_rng(3)
    x0 = rng.normal(size=(2, 3, 4))
    eps = rng.normal(size=(2, 3, 4))
    t = np.array([5, 15])
    assert np.array_equal(make_target(x0, eps, t, sched, "eps"), eps)
    assert np.array_equal(make_target(x0, eps, t, sched, "x0"), x0)
    v = make_target(x0, eps, t, sched, "v")
    ab = sched.alpha_bar[t][:, None, None]
    assert np.allclose(v, np.sqrt(ab) * eps - np.sqrt(1 - ab) * x0, atol=1e-15)
    with pytest.raises(ConfigError):
        make_target(x0, eps, t, sched, "score")


def test_velocity_endpoints():
    # alpha_bar = 1 -> v = eps ; alpha_bar ~ 0 -> v ~ -x0
    sched = build_schedule(30)
    x0 = np.ones((1, 2, 2))
    eps = np.full((1, 2, 2), 2.0)
    v0 = make_target(x0, eps, np.array([0]), sched, "v")
    assert np.allclose(v0, eps, atol=1e-12)
    vT = make_target(x0, eps, np.array([30]), sched, "v")
    assert np.allclose(vT, -x0, atol=0.1)


@pytest.mark.parametrize("parameterization", ["eps", "x0", "v"])
def test_target_converts_back_to_the_noise(parameterization):
    # the sampler's inverse of each target recovers eps at every timestep
    from moelab.training import _to_eps

    sched = build_schedule(100)
    rng = np.random.default_rng(8)
    x0 = rng.normal(size=(3, 4, 5))
    eps = rng.normal(size=(3, 4, 5))
    for step in range(1, sched.total_steps + 1):
        t = np.full(3, step)
        y = make_target(x0, eps, t, sched, parameterization)
        x_t = forward_diffuse(x0, t, eps, sched)
        assert np.abs(_to_eps(y, x_t, step, sched, parameterization) - eps).max() < 1e-12, step


# ----------------------------------------------------------------------
# synthetic task


def test_synthetic_task_deterministic():
    a = SyntheticTask(num_classes=3, tokens=6, dim=4, seed=9)
    b = SyntheticTask(num_classes=3, tokens=6, dim=4, seed=9)
    ra, rb = np.random.default_rng(1), np.random.default_rng(1)
    xa, ca = a.sample_x0(ra, 5)
    xb, cb = b.sample_x0(rb, 5)
    assert np.array_equal(xa, xb) and np.array_equal(ca, cb)


def test_synthetic_task_class_separation():
    task = SyntheticTask(num_classes=2, tokens=4, dim=16, seed=11)
    gap = np.linalg.norm(task.means[0] - task.means[1])
    assert gap > 2.0


def test_synthetic_task_variance_profile():
    task = SyntheticTask(num_classes=2, tokens=5, dim=3, seed=13)
    rng = np.random.default_rng(17)
    x0, c = task.sample_x0(rng, 10_000)
    centered = x0 - task.means[c]
    observed = centered.std(axis=(0, 2))
    assert np.allclose(observed, task.token_sigma, rtol=0.05)


@pytest.mark.parametrize("parameterization", ["x0", "eps", "v"])
def test_optimal_prediction_reaches_the_posterior_variance(parameterization):
    # the exact posterior mean's MSE against make_target's targets is the
    # closed-form posterior variance, per token V = s^2 sigma^2 / (a^2 s^2 + sigma^2)
    # for x0, a^2 V / sigma^2 for eps and V / sigma^2 for v; a v target with
    # its coefficients swapped gives 4 a^2 sigma^2 times that, under 1/30 at
    # t = 5 and t = 95
    task = SyntheticTask(num_classes=4, tokens=16, dim=8, seed=21)
    sched = build_schedule(100)
    rng = np.random.default_rng(22)
    s2 = task.token_sigma**2
    for step in (5, 50, 95):
        batch = task.sample_batch(rng, 4096, sched, parameterization, t=step)
        pred = task.optimal_prediction(batch.x_t, batch.t, batch.c, sched, parameterization)
        ab = sched.alpha_bar[step]
        v_x0 = s2 * (1.0 - ab) / (ab * s2 + 1.0 - ab)
        expected = {"x0": v_x0, "eps": ab * v_x0 / (1.0 - ab), "v": v_x0 / (1.0 - ab)}[parameterization]
        mse = np.mean((pred - batch.y) ** 2, axis=(0, 2))
        assert np.allclose(mse.mean(), expected.mean(), rtol=0.05), (step, mse.mean(), expected.mean())


@pytest.mark.parametrize("t,named", [(2.5, "2.5"), (True, "True"), (np.nan, "nan"), ([3, 4.5], "4.5")])
def test_sample_batch_refuses_a_timestep_that_is_not_an_integer(t, named):
    # as a class label is refused: no truncation of 2.5 to 2 or True to 1,
    # and no numpy ValueError for nan; an integer-valued float passes
    task, sched = SyntheticTask(num_classes=2, tokens=4, dim=3, seed=13), build_schedule(100)
    with pytest.raises(ConfigError, match=f"^timestep {named} is not an integer$"):
        task.sample_batch(np.random.default_rng(0), 2, sched, "eps", t=t)
    batch = task.sample_batch(np.random.default_rng(0), 2, sched, "eps", t=50.0)
    assert batch.t.dtype == np.int64 and batch.t.tolist() == [50, 50]


def test_ancestral_sampler_driven_by_the_oracle_draws_the_task_law():
    # with the exact noise predictor the sampler's only errors are Monte Carlo
    # and its own: the class means come out within 0.05 RMS (standard error
    # about 0.033 at 256 per class), and the per-token SD falls short of
    # token_sigma by the bias of the beta~ posterior variance at T = 100
    # (0.92-0.98 on rng seeds 0-2). A sampler with variance beta reads up
    # to 1.03 and one without noise reads 0, so both fail on purpose:
    # switching the variance is a measured decision, not a way to pass.
    task = SyntheticTask(num_classes=4, tokens=16, dim=64, seed=7919)
    sched = build_schedule(100)
    c = np.repeat(np.arange(4), 256)

    def predict_eps(x, t):
        return task.optimal_prediction(x, np.full(c.size, t), c, sched, "eps")

    x = ancestral_sample(predict_eps, (c.size, task.tokens, task.dim), sched, np.random.default_rng(0))
    class_means = np.stack([x[c == k].mean(axis=0) for k in range(4)])
    assert np.sqrt(np.mean((class_means - task.means) ** 2)) < 0.05
    sd_ratio = (x - task.means[c]).std(axis=(0, 2)) / task.token_sigma
    assert np.all((0.90 <= sd_ratio) & (sd_ratio <= 0.99)), sd_ratio


# ----------------------------------------------------------------------
# denoiser


def test_denoiser_initial_prediction_is_zero():
    params = init_denoiser(SMALL, np.random.default_rng(3))
    rng = np.random.default_rng(5)
    x_t = rng.normal(size=(4, SMALL.tokens, SMALL.model_dim))
    pred, outs = denoiser_forward(x_t, np.array([3, 7, 1, 9]), np.array([0, 1, 2, 0]), params)
    assert np.array_equal(pred.data, np.zeros_like(pred.data))
    assert len(outs) == SMALL.layers


def test_denoiser_prediction_shape_matches_target():
    params = init_denoiser(SMALL, np.random.default_rng(4))
    x_t = np.random.default_rng(6).normal(size=(2, SMALL.tokens, SMALL.model_dim))
    pred, _ = denoiser_forward(x_t, np.array([1, 2]), np.array([0, 1]), params)
    assert pred.shape == x_t.shape


def test_an_odd_model_dim_pads_the_timestep_embedding_with_a_zero_column():
    trainer = small_trainer(model_dim=7)  # 3 sines and 3 cosines, then the pad
    t = np.arange(SMALL.total_steps)
    emb = trainer.params.timestep_embedding(t, SMALL.total_steps)
    assert emb.shape == (SMALL.total_steps, 7)
    assert np.array_equal(emb[:, -1], np.zeros(SMALL.total_steps)) and np.all(emb[1:, :-1] != 0.0)
    for _ in range(2):
        assert np.isfinite(trainer.train_step().total)
    assert all(np.isfinite(p.data).all() for p in trainer.opt.params)


def test_dense_twin_forward_matches_one_in_one():
    from dataclasses import replace

    params = init_denoiser(replace(SMALL, num_experts=1, k=1, gating="softmax"), np.random.default_rng(21))
    # make the comparison non-trivial: randomize the adaptive layers
    rng = np.random.default_rng(23)
    for blk in params.blocks:
        blk.mod_w.data = rng.normal(scale=0.1, size=blk.mod_w.data.shape)
    params.out_w.data = rng.normal(scale=0.1, size=params.out_w.data.shape)

    x_t = rng.normal(size=(3, SMALL.tokens, SMALL.model_dim))
    t = np.array([5, 9, 2])
    c = np.array([0, 1, 2])
    pred_routed, _ = denoiser_forward(x_t, t, c, params, mode="train")
    with plain_ffn_blocks():
        pred_plain, _ = denoiser_forward(x_t, t, c, params, mode="train")
    assert np.array_equal(pred_routed.data, pred_plain.data)


def test_one_in_one_moe_logs_no_similarity_or_balance_loss():
    # with one expert both losses are constant: Trainer.loss leaves them out
    # of the objective, and the step log reads 0.0 for each
    record = small_trainer(seed=3, num_experts=1, k=1).train_step()
    assert record.sim == 0.0 and record.blc == 0.0
    assert record.plr > 0.0


def case_params(case: str, seed: int, tau: float):
    """The routing mode and denoiser of a test case: "train" routes fresh
    blocks by top-K, "eval" trained ones (each tau set), as Trainer.forward
    does, and "infer" thresholds at that tau."""
    params = init_denoiser(SMALL, np.random.default_rng(seed))
    for blk in params.blocks:
        blk.moe.threshold.tau = None if case == "train" else tau
    return ("infer" if case == "infer" else "train"), params


def taus(params):
    return [blk.moe.threshold.tau for blk in params.blocks]


def test_a_finite_noise_estimate_that_overflows_the_state_names_its_step():
    # at t = T, beta_T / sqrt(1 - alpha_bar_T) / sqrt(alpha_T) is about 31.6, so 1e308 overflows
    with pytest.raises(NumericError, match="^non-finite sample state at reverse step 10$"):
        ancestral_sample(lambda x, t: np.full_like(x, 1e308), (2, 3), build_schedule(10), np.random.default_rng(0))


def test_sampler_reads_to_eps_from_the_training_module_at_each_step(monkeypatch):
    # the perfbench sample workload forces failures by patching training._to_eps
    trainer = small_trainer(seed=8)
    trainer.train_step()  # initializes the thresholds
    monkeypatch.setattr(training, "_to_eps", lambda pred, *args: np.full_like(pred, np.nan))
    with pytest.raises(NumericError, match=rf"^non-finite noise estimate at reverse step {SMALL.total_steps}$"):
        trainer.sample(3, 0, rng=np.random.default_rng(4))


@pytest.mark.parametrize("case", ["train", "eval", "infer"])
def test_denoiser_no_grad_outputs_bit_identical_with_no_tape(case):
    x_t = np.random.default_rng(26).normal(size=(3, SMALL.tokens, SMALL.model_dim))
    t, c = np.array([2, 17, 38]), np.array([0, 1, 2])
    runs = []
    for grad in (True, False):
        mode, params = case_params(case, 27, 0.1)
        if grad:
            pred, outs = denoiser_forward(x_t, t, c, params, mode=mode)
        else:
            with no_grad():
                pred, outs = denoiser_forward(x_t, t, c, params, mode=mode)
        runs.append((pred, outs, taus(params)))
    (pred_g, outs_g, tau_g), (pred_n, outs_n, tau_n) = runs
    assert pred_g.requires_grad and pred_g._node.parents
    assert pred_n._node is None  # no tape node, so no parents
    assert np.array_equal(pred_g.data, pred_n.data)
    assert tau_g == tau_n == taus(case_params(case, 27, 0.1)[1])  # routing writes no threshold
    for a, b in zip(outs_g, outs_n):
        assert np.array_equal(a.route.mask, b.route.mask)
        assert np.array_equal(a.y.data, b.y.data) and np.array_equal(a.y_hat.data, b.y_hat.data)
        assert b.y._node is None and b.logits._node is None


@pytest.mark.parametrize("c", [[0, 1.5], 1.9, [2, np.nan], True, [False, True], [1, True], [0.0, True],
                               np.array([False, True])])
def test_denoiser_rejects_fractional_class_labels(c):
    params = init_denoiser(SMALL, np.random.default_rng(28))
    x_t = np.zeros((2, SMALL.tokens, SMALL.model_dim))
    with pytest.raises(ConfigError, match="is not an integer"):
        denoiser_forward(x_t, np.array([1, 2]), c, params)


def test_denoiser_accepts_integer_valued_float_labels():
    params = init_denoiser(SMALL, np.random.default_rng(28))
    x_t = np.random.default_rng(29).normal(size=(2, SMALL.tokens, SMALL.model_dim))
    pred_int, _ = denoiser_forward(x_t, np.array([1, 2]), np.array([0, 2]), params, mode="train")
    pred_float, _ = denoiser_forward(x_t, np.array([1, 2]), np.array([0.0, 2.0]), params, mode="train")
    assert np.array_equal(pred_int.data, pred_float.data)


# ----------------------------------------------------------------------
# trainer


def _random_params(rng):
    return [Tensor(rng.normal(size=shape), requires_grad=True) for shape in [(4, 3), (5,), (2, 3, 2)]]


def test_adamw_in_place_matches_allocating_formulas():
    rng = np.random.default_rng(40)
    params = _random_params(rng)
    opt = AdamW(list(enumerate(params)), lr=1e-2)
    ref_p = [p.data.copy() for p in params]
    ref_m = [np.zeros_like(p.data) for p in params]
    ref_v = [np.zeros_like(p.data) for p in params]
    b1, b2, eps = opt.beta1, opt.beta2, opt.eps
    for step in range(1, 6):
        grads = [rng.normal(size=p.shape) for p in params]
        for p, g in zip(params, grads):
            p.grad = g
        grad_copies = [g.copy() for g in grads]
        old_data = [p.data for p in params]
        old_copies = [d.copy() for d in old_data]
        opt.step()
        bc1, bc2 = 1.0 - b1**step, 1.0 - b2**step
        for i, g in enumerate(grad_copies):
            ref_m[i] = b1 * ref_m[i] + (1.0 - b1) * g
            ref_v[i] = b2 * ref_v[i] + (1.0 - b2) * g * g
            ref_p[i] = ref_p[i] - opt.lr * (ref_m[i] / bc1) / (np.sqrt(ref_v[i] / bc2) + eps)
        for i, p in enumerate(params):
            assert np.array_equal(opt.m[i], ref_m[i]) and np.array_equal(opt.v[i], ref_v[i])
            assert np.array_equal(p.data, ref_p[i])
            assert p.data is not old_data[i]  # rebound, not written
            assert np.array_equal(old_data[i], old_copies[i])
            assert p.grad is None and np.array_equal(grads[i], grad_copies[i])  # read, not written, then freed


def test_adamw_reads_a_missing_grad_as_zeros_and_frees_every_grad():
    # the second tensor has a gradient for two steps, then none (a leaf the
    # loss stopped reaching): its moments and weights must move, bit for bit,
    # as they do under an explicit zero gradient
    rng = np.random.default_rng(41)
    params = _random_params(rng)
    twins = [Tensor(p.data.copy(), requires_grad=True) for p in params]
    opt, twin_opt = AdamW(list(enumerate(params)), lr=1e-2), AdamW(list(enumerate(twins)), lr=1e-2)
    for step in range(4):
        for i, (p, twin) in enumerate(zip(params, twins)):
            g = rng.normal(size=p.shape)
            missing = i == 1 and step >= 2
            p.grad = None if missing else g
            twin.grad = np.zeros_like(g) if missing else g.copy()
        opt.step()
        twin_opt.step()
        for i, (p, twin) in enumerate(zip(params, twins)):
            assert p.grad is None and twin.grad is None
            assert opt.m[i].tobytes() == twin_opt.m[i].tobytes()
            assert opt.v[i].tobytes() == twin_opt.v[i].tobytes()
            assert p.data.tobytes() == twin.data.tobytes()


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, np.nextafter(AdamW.grad_bound, np.inf)])
def test_adamw_refuses_a_gradient_it_cannot_square_before_it_writes_anything(bad):
    # the check runs before the first tensor's update: no weight, moment or
    # count moves, and every gradient is freed. The bound is tight: a gradient
    # of exactly grad_bound updates with no numpy warning (pyproject.toml makes
    # a RuntimeWarning an error), and one float past it is refused.
    rng = np.random.default_rng(42)
    params = _random_params(rng)
    opt = AdamW([(f"p{i}", p) for i, p in enumerate(params)], lr=1e-2)
    for p in params:
        p.grad = rng.normal(size=p.shape)
    params[2].grad[1, 0, 1] = -AdamW.grad_bound
    opt.step()
    assert all(np.isfinite(a).all() for a in [*opt.v, *(p.data for p in params)])
    before = [(p.data, m.copy(), v.copy()) for p, m, v in zip(params, opt.m, opt.v)]
    for p in params:
        p.grad = rng.normal(size=p.shape)
    params[2].grad[1, 0, 1] = bad
    with pytest.raises(NumericError, match=r"^gradient of p2 has max \|g\| = (nan|inf|1\.34e\+154); AdamW's "):
        opt.step()
    assert opt.step_count == 1 and all(p.grad is None for p in params)
    for p, m, v, (data, m0, v0) in zip(params, opt.m, opt.v, before):
        assert p.data is data and m.tobytes() == m0.tobytes() and v.tobytes() == v0.tobytes()


def test_a_train_step_at_w_plr_0_frees_every_grad_and_leaves_the_target_heads_alone(monkeypatch):
    # without the per-layer regularizer no loss reads a block's target head:
    # backward leaves its 8 tensors at grad None and writes every other one,
    # and AdamW's zero update keeps their weights bit for bit
    trainer = Trainer(TrainerConfig(w_plr=0.0))
    named = trainer.params.named_tensors()
    heads = {name: t.data.copy() for name, t in named if name.endswith((".target_w", ".target_b"))}
    assert len(heads) == 8
    unreached = []

    def recorded_backward(loss):
        backward(loss)
        unreached.append({name for name, t in named if t.grad is None})

    monkeypatch.setattr(training, "backward", recorded_backward)
    for _ in range(2):
        trainer.train_step()
        assert all(p.grad is None for p in trainer.opt.params)
    assert unreached == [set(heads)] * 2
    for name, t in named:
        if name in heads:
            assert t.data.tobytes() == heads[name].tobytes(), name


def test_weight_ema_in_place_matches_allocating_formula():
    rng = np.random.default_rng(42)
    named = [(f"w{i}", p) for i, p in enumerate(_random_params(rng))]
    ema = WeightEma(named)
    d = WeightEma.decay
    ref = {name: p.data.copy() for name, p in named}
    for _ in range(5):
        for _, p in named:
            p.data = p.data + rng.normal(size=p.shape)
        data_copies = [p.data.copy() for _, p in named]
        ema.update([p for _, p in named])
        for (name, p), data in zip(named, data_copies):
            ref[name] = d * ref[name] + (1.0 - d) * data
            assert np.array_equal(ema.shadow[name], ref[name])
            assert np.array_equal(p.data, data)


def step_state(trainer):
    """Copies of all a train step writes: every state group's arrays, each
    block's tau, the step count and the RNG state."""
    arrays = [a.copy() for group in training._state_groups(trainer).values() for a in group]
    return arrays, taus(trainer.params), trainer.step_count, trainer.rng.bit_generator.state


def assert_same_state(a, b):
    assert len(a[0]) == len(b[0]) and all(np.array_equal(x, y, equal_nan=True) for x, y in zip(a[0], b[0]))
    assert a[1:] == b[1:]


def break_weights(params, fault):
    if fault == "router":
        params.blocks[1].moe.gate_b.data[2] = np.nan  # expert 2's score at every token of block 1
    elif fault == "trunk":
        params.in_w.data *= 1e300  # overflows before block 1's router
    elif fault == "output":
        params.out_w.data += 1e200  # a finite prediction, an overflowing loss or next sample state
    elif fault == "head":
        params.out_w.data = params.out_w.data + 1e96  # a finite loss whose gradient AdamW cannot square
    else:
        params.out_w.data = np.full_like(params.out_w.data, 1e308)  # the first prediction overflows


T = SMALL.total_steps
# each library entry point: (steps trained before the fault, the call on a held-out batch, its message's prefix)
NUMERIC_ENTRIES = {
    "denoiser-train": (0, lambda tr, b: denoiser_forward(b.x_t, b.t, b.c, tr.params, mode="train"), ""),
    "denoiser-eval": (1, lambda tr, b: denoiser_forward(b.x_t, b.t, b.c, tr.params, mode="train"), ""),
    "denoiser-infer": (1, lambda tr, b: denoiser_forward(b.x_t, b.t, b.c, tr.params, mode="infer"), ""),
    "forward-train": (1, lambda tr, b: tr.forward(b, mode="train"), ""),
    "forward-infer": (1, lambda tr, b: tr.forward(b, mode="infer"), ""),
    "evaluate-train": (1, lambda tr, b: tr.evaluate("train"), "held-out batch 1: "),
    "evaluate-infer": (1, lambda tr, b: tr.evaluate("infer"), "held-out batch 1: "),
    "loss": (1, lambda tr, b: tr.loss(b), ""),
    "step-1": (0, lambda tr, b: tr.train_step(), "step 1: "),
    "step-3": (2, lambda tr, b: tr.train_step(), "step 3: "),
    **{f"sample-{p}": (1, lambda tr, b: tr.sample(6, 0, rng=np.random.default_rng(4)), f"reverse step {T}: ")
       for p in ("eps", "x0", "v")},
}


def numeric_rows():
    """Each entry point with each fault that makes it fail, and the whole message."""
    block_1 = "block 1: router scores have {} non-finite entries of 192$"  # 6 rows of 8 tokens, 4 experts
    for entry, (_, _, prefix) in NUMERIC_ENTRIES.items():
        yield entry, "router", f"^{prefix}{block_1.format(48)}"
        yield entry, "trunk", f"^{prefix}{block_1.format(192)}"
        if entry.startswith("sample"):
            yield entry, "output", f"^reverse step {T - 1}: {block_1.format(192)}"  # the state blew up at step T
            yield entry, "output-max", f"^non-finite noise estimate at reverse step {T}$"
        elif entry in ("loss", "step-1", "step-3") or entry.startswith("evaluate"):
            yield entry, "output", rf"^{prefix}non-finite loss: \{{"
        if entry.startswith("step"):
            yield entry, "head", rf"^{prefix}gradient of in_w has max \|g\| = \S+; AdamW's second moment holds \|g\| <= 1\.34e\+154$"


@pytest.mark.parametrize("entry,fault,message", [pytest.param(*row, id=f"{row[0]}-{row[1]}") for row in numeric_rows()])
def test_numeric_failure(entry, fault, message):
    # the whole NumericError, no numpy warning before it (pyproject.toml makes
    # a RuntimeWarning an error) and no state written
    steps, call, _ = NUMERIC_ENTRIES[entry]
    trainer = small_trainer(seed=11, parameterization=entry[7:] if entry.startswith("sample") else "eps")
    for _ in range(steps):
        trainer.train_step()  # step 1 sets the thresholds
    break_weights(trainer.params, fault)
    batch = trainer.task.sample_batch(np.random.default_rng(5), 6, trainer.schedule, "eps")
    before = step_state(trainer)
    with pytest.raises(NumericError, match=message):
        call(trainer, batch)
    assert_same_state(step_state(trainer), before)
    assert all(p.grad is None for p in trainer.opt.params)


def test_loss_is_the_objective_the_step_minimizes_and_writes_no_state():
    trainer = small_trainer(seed=13)
    trainer.train_step()  # thresholds set, moments nonzero
    cfg = trainer.config
    rng = np.random.default_rng()
    rng.bit_generator.state = trainer.rng.bit_generator.state  # draws the next step's batch
    batch = trainer.task.sample_batch(rng, cfg.batch_size, trainer.schedule, cfg.model.parameterization)
    before = step_state(trainer)
    total, breakdown, _ = trainer.loss(batch)
    assert_same_state(step_state(trainer), before)
    record = trainer.train_step()
    assert trainer.rng.bit_generator.state == rng.bit_generator.state  # the step drew that batch
    assert record.total == total.item()  # bit-equal, as are the other loss columns
    assert {c: getattr(record, c) for c in breakdown} == breakdown


def test_trainer_forward_writes_no_threshold():
    trainer = small_trainer(seed=12)
    batch = trainer.task.sample_batch(np.random.default_rng(5), 6, trainer.schedule, "eps")
    trainer.forward(batch, mode="train")
    assert taus(trainer.params) == [None, None]
    trainer.train_step()
    before = taus(trainer.params)
    trainer.forward(batch)
    trainer.forward(batch, mode="train")
    trainer.forward(batch, mode="infer")
    assert taus(trainer.params) == before
    with pytest.raises(ConfigError, match="mode must be 'train' or 'infer', got 'eval'"):
        trainer.forward(batch, mode="eval")


def heldout_reference(trainer, mode):
    """The held-out loop `moelab metrics` ran before Trainer.evaluate, kept
    as its reference: four batches drawn from seed + 4242, each routed once,
    their per-layer masks and timesteps concatenated into one routing
    report; and each batch's diffusion loss and excess loss, averaged."""
    cfg = trainer.config
    param = cfg.model.parameterization
    rng = np.random.default_rng(cfg.seed + 4242)
    masks, timesteps, diffusion, excess = [], [], [], []
    for _ in range(4):
        batch = trainer.task.sample_batch(rng, cfg.batch_size, trainer.schedule, param)
        prediction, layer_outputs = trainer.forward(batch, mode=mode)
        masks.append([out.route.mask for out in layer_outputs])
        timesteps.append(batch.t)
        diffusion.append(losses.diffusion_loss(prediction, batch.y).item())
        excess.append(metrics.excess_loss(prediction.data, batch, trainer.task, trainer.schedule, param))
    per_layer = np.stack([np.concatenate(layer, axis=0) for layer in zip(*masks)])
    report = metrics.routing_report(per_layer, cfg.model.k, np.concatenate(timesteps), trainer.schedule.total_steps)
    return report, float(np.mean(diffusion)), float(np.mean(excess))


@pytest.mark.parametrize("mode", ["train", "infer"])
def test_evaluate_is_the_heldout_loop_it_replaced_and_writes_no_state(mode):
    trainer = small_trainer(seed=14, parameterization="v")
    for _ in range(2):
        trainer.train_step()
    before = step_state(trainer)
    held_out = trainer.evaluate(mode)
    assert_same_state(step_state(trainer), before)
    assert training.HELDOUT_BATCHES == 4
    report, diffusion, excess = heldout_reference(trainer, mode)
    assert repr(held_out.report) == repr(report)  # every record bit-equal
    assert [repr(held_out.diffusion), repr(held_out.excess)] == [repr(diffusion), repr(excess)]
    assert len(report) == SMALL.layers and all(np.isfinite(r["allocation_bucket_variance"]) for r in report)
    assert repr(trainer.evaluate(mode)) == repr(held_out)  # the same set each time


def test_zero_learning_rate_keeps_params_bit_exact():
    trainer = small_trainer()
    trainer.opt.lr = 0.0
    before = {name: t.data.copy() for name, t in trainer.params.named_tensors()}
    trainer.train_step()
    for name, t in trainer.params.named_tensors():
        assert np.array_equal(before[name], t.data), name


@pytest.mark.slow
def test_loss_decreases_over_training():
    first, last = [], []
    for seed in (0, 1, 2):
        trainer = small_trainer(seed=seed)
        records = [trainer.train_step() for _ in range(120)]
        first.append(np.mean([r.total for r in records[:10]]))
        last.append(np.mean([r.total for r in records[-10:]]))
    assert np.median(last) < np.median(first)


def test_log_record_schema():
    record = small_trainer().train_step()
    for col in ("step", "diffusion", "plr", "sim", "blc", "total", "max_vio", "comb_usage", "mean_active"):
        assert hasattr(record, col)
    row = record.csv_row()
    assert len(row.split(",")) == len(record.CSV_COLUMNS)


def test_log_row_holds_the_exact_values():
    # log.csv can show bit-identity only if each float parses back equal
    record = small_trainer().train_step()
    step, *floats = record.csv_row().split(",")
    assert int(step) == record.step
    assert [float(v) for v in floats] == [getattr(record, c) for c in record.CSV_COLUMNS[1:]]


def test_checkpoint_resume_bit_exact(tmp_path):
    config = TrainerConfig(model=SMALL, batch_size=6, seed=3)
    straight = Trainer(config)
    for _ in range(8):
        straight.train_step()
    reference = straight.train_step()

    resumed = Trainer(config)
    for _ in range(8):
        resumed.train_step()
    path = tmp_path / "ckpt.npz"
    save_checkpoint(path, resumed)
    restored = load_checkpoint(path, config)
    record = restored.train_step()
    assert record.total == reference.total
    for (name, a), (_, b) in zip(straight.params.named_tensors(), restored.params.named_tensors()):
        assert np.array_equal(a.data, b.data), name


# The version-6 manifest of SMALL, written out: the checkpoint's `tensors`,
# AdamW's parameter order and the weight EMA's keys all follow it.
_STEM = [("in_w", (16, 16)), ("in_b", (16,)), ("class_emb", (3, 16)),
         ("t_w1", (16, 16)), ("t_b1", (16,)), ("t_w2", (16, 16)), ("t_b2", (16,))]
_HEAD = [("final_mod_w", (16, 32)), ("final_mod_b", (32,)), ("out_w", (16, 16)), ("out_b", (16,))]
_MOE_MANIFEST = _STEM + [
    ("block0.mod_w", (16, 48)), ("block0.mod_b", (48,)), ("block0.mix_w", (8, 8)),
    ("block0.moe.router_w", (16, 16)), ("block0.moe.router_b", (16,)),
    ("block0.moe.gate_w", (16, 4)), ("block0.moe.gate_b", (4,)),
    ("block0.moe.target_w", (16, 16)), ("block0.moe.target_b", (16,)),
    ("block0.moe.experts.w_in", (4, 16, 16)), ("block0.moe.experts.w_out", (4, 16, 16)),
    ("block1.mod_w", (16, 48)), ("block1.mod_b", (48,)), ("block1.mix_w", (8, 8)),
    ("block1.moe.router_w", (16, 16)), ("block1.moe.router_b", (16,)),
    ("block1.moe.gate_w", (16, 4)), ("block1.moe.gate_b", (4,)),
    ("block1.moe.target_w", (16, 16)), ("block1.moe.target_b", (16,)),
    ("block1.moe.experts.w_in", (4, 16, 16)), ("block1.moe.experts.w_out", (4, 16, 16)),
] + _HEAD
# the dense twin's layout is the MoE's, with one gate logit and one expert of the dense width
_TWIN_SHAPES = {"gate_w": (16, 1), "gate_b": (1,), "w_in": (1, 16, 32), "w_out": (1, 32, 16)}
_TWIN_MANIFEST = [(name, _TWIN_SHAPES.get(name.rsplit(".", 1)[-1], shape)) for name, shape in _MOE_MANIFEST]


@pytest.mark.parametrize("overrides, manifest", [({}, _MOE_MANIFEST),
                                                 (dict(num_experts=1, k=1, gating="softmax"), _TWIN_MANIFEST)],
                         ids=["moe", "twin"])
def test_the_manifest_is_the_version_6_layout(overrides, manifest, tmp_path):
    trainer = small_trainer(**overrides)
    named = trainer.params.named_tensors()
    assert [(name, t.shape) for name, t in named] == manifest
    assert len(trainer.opt.params) == len(named)
    assert all(p is t for p, (_, t) in zip(trainer.opt.params, named))
    assert list(trainer.ema.shadow) == [name for name, _ in manifest]
    save_checkpoint(tmp_path / "ckpt.npz", trainer)
    with np.load(tmp_path / "ckpt.npz") as ckpt:
        saved = json.loads(bytes(ckpt["meta_json"]))["tensors"]
    assert [(name, tuple(shape)) for name, shape in saved] == manifest


@pytest.fixture
def walks(monkeypatch):
    """The parameter trees walked so far: each top-level layer.named_tensors
    call appends its root (the walk's own recursive calls carry a prefix)."""
    roots = []
    walk = layer.named_tensors

    def counted(params, prefix=""):
        if not prefix:
            roots.append(params)
        return walk(params, prefix)

    monkeypatch.setattr(layer, "named_tensors", counted)
    return roots


def test_a_train_step_walks_no_parameter_tree(walks):
    trainer = Trainer(TrainerConfig())
    assert walks == [trainer.params]  # the one walk, at construction
    walks.clear()
    trainer.train_step()
    assert walks == []


def test_the_state_groups_and_a_save_walk_no_parameter_tree_and_a_load_walks_once(walks, tmp_path):
    trainer = small_trainer(seed=4)
    trainer.train_step()
    walks.clear()
    training._state_groups(trainer)
    save_checkpoint(tmp_path / "ckpt.npz", trainer)
    assert walks == []  # the manifest's names and shapes are AdamW's
    restored = load_checkpoint(tmp_path / "ckpt.npz", trainer.config)
    assert walks == [restored.params]  # the blank Trainer's walk, which the manifest check reads too


def test_interrupted_checkpoint_save_keeps_previous_file(tmp_path, monkeypatch):
    trainer = small_trainer(seed=4)
    trainer.train_step()
    path = tmp_path / "ckpt.npz"
    save_checkpoint(path, trainer)
    before = path.read_bytes()
    trainer.train_step()

    write_header = np.lib.format.write_array_header_1_0
    headers = []

    def disk_full_after_the_first_member(fh, header):
        headers.append(header)
        if len(headers) > 1:
            raise OSError("disk full")
        write_header(fh, header)

    monkeypatch.setattr(np.lib.format, "write_array_header_1_0", disk_full_after_the_first_member)
    with pytest.raises(ConfigError) as info:
        save_checkpoint(path, trainer)
    assert str(info.value) == f"cannot write {path}: disk full"
    assert len(headers) == 2  # one member was written whole before the failure
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["ckpt.npz"]


def test_a_checkpoint_path_without_the_npz_suffix_gets_it(tmp_path):
    trainer = small_trainer(seed=4)
    trainer.train_step()
    save_checkpoint(tmp_path / "ckpt", trainer)
    assert [p.name for p in tmp_path.iterdir()] == ["ckpt.npz"]
    assert_same_state(step_state(load_checkpoint(tmp_path / "ckpt.npz", trainer.config)), step_state(trainer))


def test_checkpoint_into_a_missing_directory_is_config_error(tmp_path):
    trainer = small_trainer(seed=4)
    path = tmp_path / "gone" / "ckpt.npz"
    with pytest.raises(ConfigError) as info:
        save_checkpoint(path, trainer)
    assert str(path) in str(info.value) and "\n" not in str(info.value)
    assert list(tmp_path.iterdir()) == []


def test_loaded_state_arrays_own_their_memory(tmp_path):
    # a group read into one buffer and handed out as views would pin that
    # buffer for the trainer's life; each array is read into in place instead
    trainer = small_trainer(seed=4)
    trainer.train_step()
    path = tmp_path / "ckpt.npz"
    save_checkpoint(path, trainer)
    restored = load_checkpoint(path, trainer.config)
    arrays = [a for group in training._state_groups(restored).values() for a in group]
    assert len(arrays) == len(training._GROUPS) * len(restored.params.named_tensors())
    assert all(a.base is None and a.flags.owndata and a.flags.c_contiguous for a in arrays)
    spans = sorted((a.ctypes.data, a.ctypes.data + a.nbytes) for a in arrays)
    assert all(end <= start for (_, end), (start, _) in zip(spans, spans[1:]))


TYPE_NOUNS = {"int": "an integer", "float": "a number", "str": "a string"}


@pytest.mark.parametrize(
    "config,key,bad",
    [
        (DenoiserConfig, "layers", 1.5),
        (DenoiserConfig, "model_dim", 64.0),
        (DenoiserConfig, "tokens", True),
        (DenoiserConfig, "num_classes", 4.5),
        (DenoiserConfig, "num_experts", 8.0),
        (DenoiserConfig, "k", True),
        (DenoiserConfig, "dense_hidden", 256.5),
        (DenoiserConfig, "total_steps", 5.5),
        (TrainerConfig, "batch_size", 2.5),
        (TrainerConfig, "seed", 1.5),
        (DenoiserConfig, "strategy", 5),
        (DenoiserConfig, "strategy", True),
        (DenoiserConfig, "gating", []),
        (DenoiserConfig, "gating", 1),
        (TrainerConfig, "lr", True),
        (TrainerConfig, "lr", "0.1"),
        (TrainerConfig, "lr", None),
        (TrainerConfig, "w_plr", True),
        (TrainerConfig, "w_sim", "0.1"),
        # ints past float range; str() of one past 4,300 digits raises, so the ids are spelled out
        pytest.param(TrainerConfig, "lr", 10**400, id="TrainerConfig-lr-10**400"),
        pytest.param(TrainerConfig, "w_plr", 10**5000, id="TrainerConfig-w_plr-10**5000"),
        pytest.param(TrainerConfig, "w_sim", -10**5000, id="TrainerConfig-w_sim--10**5000"),
        # pytest names two of these by list position (bad22, bad24): add new rows below them
        (TrainerConfig, "w_blc", np.bool_(True)),
        (TrainerConfig, "model", None),
        (TrainerConfig, "model", {"layers": 2}),
    ],
)
def test_integer_settings_refuse_floats_and_bools(config, key, bad):
    # every int, float and str field refuses any other kind of value,
    # a bool included, and TrainerConfig's model must be a DenoiserConfig
    declared = {f.name: f.type for f in fields(config)}[key]
    noun = TYPE_NOUNS.get(declared, f"a {declared}")
    if declared == "float" and type(bad) is int:  # an int no float holds: named, not printed
        message = f"^{key} must be a finite number, got an int too large for a float$"
    else:
        message = f"^{key} must be {noun}, got {re.escape(repr(bad))}$"
    with pytest.raises(ConfigError, match=message):
        config(**{key: bad})
    if declared in TYPE_NOUNS:
        # a numpy scalar passes, stored as the Python one so the config still writes to JSON
        default = getattr(config(), key)
        value = getattr(config(**{key: np.asarray(default)[()]}), key)
        assert type(value) is type(default) and json.dumps(value)
    if declared == "float":
        value = getattr(config(**{key: 1}), key)  # an int passes as a float, stored as one
        assert type(value) is float and value == 1.0


@pytest.mark.parametrize("size,batch_size", [(dict(model_dim=2**62), 32), (dict(tokens=2**40), 32),
                                              (dict(dense_hidden=2**62), 32), (dict(total_steps=2**62), 32),
                                              ({}, 2**62)],
                         ids=["model_dim", "tokens", "dense_hidden", "total_steps", "batch_size"])
@pytest.mark.parametrize("blank", [False, True], ids=["drawn", "blank"])
def test_a_size_no_array_can_have_is_one_config_error(size, batch_size, blank):
    # each asks for a weight, the schedule's (T + 1,) arrays or a batch's (B, L, D) arrays,
    # that numpy refuses before it allocates anything
    model = DenoiserConfig(**size)
    sizes = (f"layers=4, model_dim={model.model_dim}, tokens={model.tokens}, num_classes=4, num_experts=8, "
             f"dense_hidden={model.dense_hidden}, total_steps={model.total_steps}, batch_size={batch_size} "
             "ask for arrays numpy cannot allocate: array is too big")
    with pytest.raises(ConfigError, match="^" + re.escape(sizes)):
        Trainer(TrainerConfig(model=model, batch_size=batch_size), blank=blank)


def test_sampling_requires_thresholds():
    trainer = small_trainer(seed=5)
    with pytest.raises(ConfigError, match="initialized threshold"):
        trainer.sample(2, 0, rng=np.random.default_rng(0))


@pytest.mark.parametrize("n", [0, -1, 2.5])
def test_sampling_rejects_a_count_that_is_no_positive_integer(n, monkeypatch):
    from moelab import training

    trainer = small_trainer(seed=5)
    trainer.train_step()
    steps = []
    monkeypatch.setattr(training, "denoiser_forward", lambda *args, **kwargs: steps.append(1))
    with pytest.raises(ConfigError, match=f"sample count must be a positive integer, got {n}"):
        trainer.sample(n, 0, rng=np.random.default_rng(0))
    assert steps == []


@pytest.mark.parametrize("n", [10**13, 2**62])
def test_sampling_refuses_a_count_numpy_cannot_allocate_before_drawing(n):
    # 10**13 asks for petabytes (MemoryError), 2**62 for more than an array can
    # index (ValueError): one ConfigError naming n, with nothing drawn
    trainer = small_trainer(seed=5)
    trainer.train_step()
    rng = np.random.default_rng(0)
    state = rng.bit_generator.state
    with pytest.raises(ConfigError, match=f"^sample count n={n} asks for arrays numpy cannot allocate: "):
        trainer.sample(n, 0, rng=rng)
    assert rng.bit_generator.state == state


@pytest.mark.parametrize("c", [-1, SMALL.num_classes, [0, 7]])
def test_sampling_rejects_class_label_out_of_range(c):
    trainer = small_trainer(seed=5)
    trainer.train_step()
    with pytest.raises(ConfigError, match=r"class label -?\d+ outside \[0, 3\)"):
        trainer.sample(2, c, rng=np.random.default_rng(0))


@pytest.mark.parametrize("c", [1.9, [0, 0.5], np.nan, True, [False, True], [1, True], [0.0, True]])
def test_sampling_rejects_fractional_class_labels(c):
    trainer = small_trainer(seed=5)
    trainer.train_step()
    with pytest.raises(ConfigError, match="is not an integer"):
        trainer.sample(2, c, rng=np.random.default_rng(0))


@pytest.mark.parametrize(
    "c,sizes",
    [([0, 1, 2], "3 class labels for 2 samples"), ([[0], [1]], "2 class labels for 2 samples")],
    ids=["three-for-two", "two-dimensional"],
)
def test_sampling_rejects_label_list_of_wrong_length(c, sizes):
    trainer = small_trainer(seed=5)
    trainer.train_step()
    with pytest.raises(ConfigError, match=sizes):
        trainer.sample(2, c, rng=np.random.default_rng(0))


def test_sampling_integer_valued_float_label_is_that_class():
    trainer = small_trainer(seed=5)
    trainer.train_step()
    x_int, _ = trainer.sample(2, 1, rng=np.random.default_rng(3))
    x_float, _ = trainer.sample(2, 1.0, rng=np.random.default_rng(3))
    assert np.array_equal(x_int, x_float)


def test_sampling_leaves_training_alone():
    # the sampler draws from the generator it is given, never from the
    # trainer's batch stream: train 2, sample, train 1 is train 3, bit for bit
    sampled, untouched = small_trainer(seed=3, parameterization="v"), small_trainer(seed=3, parameterization="v")
    for _ in range(2):
        sampled.train_step()
        untouched.train_step()
    with pytest.raises(TypeError):
        sampled.sample(2, 0)  # no generator: no stream to fall back on
    sampled.sample(2, 0, rng=np.random.default_rng(4))
    assert repr(sampled.train_step()) == repr(untouched.train_step())
    arrays = [[a for group in training._state_groups(t).values() for a in group] for t in (sampled, untouched)]
    assert all(np.array_equal(a, b) for a, b in zip(*arrays))
    assert [blk.moe.threshold.tau for blk in sampled.params.blocks] == \
        [blk.moe.threshold.tau for blk in untouched.params.blocks]
    assert sampled.rng.bit_generator.state == untouched.rng.bit_generator.state


def test_sampling_smoke_and_determinism():
    trainer = small_trainer(seed=6)
    for _ in range(5):
        trainer.train_step()
    xa, alloc = trainer.sample(2, 1, rng=np.random.default_rng(99))
    xb, _ = trainer.sample(2, 1, rng=np.random.default_rng(99))
    assert np.array_equal(xa, xb)
    assert np.all(np.isfinite(xa))
    assert len(alloc) == SMALL.total_steps
    assert all(len(e["mean_active_per_layer"]) == SMALL.layers for e in alloc)


def test_sampling_with_every_expert_off_runs_the_experts_on_zero_rows():
    # tau = +inf selects no expert in any block, as an experts-off ablation does
    trainer = small_trainer(seed=6, parameterization="v")
    for _ in range(2):
        trainer.train_step()
    for blk in trainer.params.blocks:
        blk.moe.threshold.tau = np.inf
    x, alloc = trainer.sample(2, 1, rng=np.random.default_rng(99))
    assert np.all(np.isfinite(x))
    assert len(alloc) == SMALL.total_steps
    assert all(e["mean_active_per_layer"] == [0.0] * SMALL.layers for e in alloc)


def test_sampler_allocation_matches_profile_on_same_masks(monkeypatch):
    from moelab.metrics import allocation_profile

    trainer = small_trainer(seed=7)
    for _ in range(5):
        trainer.train_step()
    masks = []  # the first layer's mask at each reverse step
    forward = training.denoiser_forward

    def recording_forward(*args, **kwargs):
        pred, outs = forward(*args, **kwargs)
        masks.append(outs[0].route.mask)
        return pred, outs

    monkeypatch.setattr(training, "denoiser_forward", recording_forward)
    _, alloc = trainer.sample(3, 0, rng=np.random.default_rng(1))
    entry, mask = alloc[len(alloc) // 2], masks[len(alloc) // 2]
    t = np.full(mask.shape[0], entry["t"])
    profile = allocation_profile(mask, t, SMALL.total_steps, buckets=4)
    filled = profile.means[~np.isnan(profile.means)]  # every sample is at step t: one bucket
    assert filled.shape == (1,) and abs(filled[0] - entry["mean_active_per_layer"][0]) < 1e-12


@pytest.mark.slow
def test_infer_activation_rate_tracks_k_over_e():
    # small version of the threshold-consistency contract
    trainer = small_trainer(seed=8)
    cfg = trainer.config.model
    for _ in range(400):
        trainer.train_step()
    rng = np.random.default_rng(123)
    rates = []
    for _ in range(10):
        batch = trainer.task.sample_batch(rng, 16, trainer.schedule, cfg.parameterization)
        _, outs = trainer.forward(batch, mode="infer")
        for out in outs:
            rates.append(out.route.mask.mean())
    target = cfg.k / cfg.num_experts
    assert abs(np.mean(rates) - target) / target < 0.15


@pytest.mark.parametrize("w_blc", [0.0, 1e-2], ids=["default", "blc"])
def test_end_to_end_gradients_match_finite_differences(w_blc):
    trainer = Trainer(TrainerConfig(model=SMALL, batch_size=6, w_blc=w_blc, seed=9))
    for _ in range(3):  # move off the zero-init point
        trainer.train_step()
    batch = trainer.task.sample_batch(np.random.default_rng(7), 4, trainer.schedule, "eps")
    backward(trainer.loss(batch)[0])  # the objective train_step minimizes

    rng = np.random.default_rng(31)
    named = trainer.params.named_tensors()
    checked = 0
    for name, p in named:
        if p.data.size == 0 or rng.random() > 0.12:
            continue
        flat_idx = int(rng.integers(p.data.size))
        saved = p.data.copy()
        h = 1e-5

        def loss_at(value):
            mutated = saved.copy().reshape(-1)
            mutated[flat_idx] = value
            p.data = mutated.reshape(saved.shape)
            try:
                return trainer.loss(batch)[0].item()
            finally:
                p.data = saved

        base_val = saved.reshape(-1)[flat_idx]
        fd = (loss_at(base_val + h) - loss_at(base_val - h)) / (2 * h)
        got = (p.grad if p.grad is not None else np.zeros_like(saved)).reshape(-1)[flat_idx]
        denom = max(abs(fd), abs(got), 1e-6)
        assert abs(fd - got) / denom < 1e-3, f"{name}[{flat_idx}]: fd={fd} got={got}"
        checked += 1
    assert checked >= 5
