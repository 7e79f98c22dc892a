"""Acceptance suite: one test per release criterion, one PASS line each.

Run with `pytest tests/test_acceptance.py -v -s`. The criteria pin their own
tolerances; the slow ones (toy trainings) dominate the runtime.
"""

import copy
import itertools
import time
from dataclasses import dataclass, replace

import numpy as np
import pytest
from budgets import row_budgets
from plain_ffn import plain_ffn_blocks
from similarity import router_similarity_diag

from moelab import losses as L
from moelab import metrics as M
from moelab import routing as R
from moelab.denoiser import DenoiserConfig
from moelab.layer import init_params, moe_forward, named_tensors
from moelab.routing import ThresholdState, get_strategy
from moelab.tensor import Tensor, backward, softmax
from moelab.training import Trainer, TrainerConfig, load_checkpoint, save_checkpoint

ALL_STRATEGIES = [get_strategy(name) for name in R.STRATEGIES]


def report(n: int, text: str) -> None:
    print(f"\nPASS criterion {n:2d}: {text}")


# ----------------------------------------------------------------------
# 1. routing objective optimality


def _combo_index_cache(d_b: int, k: int, cache={}):
    if (d_b, k) not in cache:
        cache[(d_b, k)] = np.array(list(itertools.combinations(range(d_b), k)), dtype=np.intp)
    return cache[(d_b, k)]


def _best_row_constrained(view: np.ndarray, budgets: np.ndarray) -> float:
    """Exhaustive oracle: best selection per row over all K-subsets."""
    total = 0.0
    for budget in np.unique(budgets):
        if budget == 0:
            continue
        rows = view[budgets == budget]
        combos = _combo_index_cache(view.shape[1], int(budget))
        total += rows[:, combos].sum(axis=2).max(axis=1).sum()
    return float(total)


def test_criterion_1_expert_race_objective_optimality():
    start = time.time()
    rng = np.random.default_rng(2024)
    B, L, E, k = 2, 3, 4, 1
    n_draws = 1000
    others = [s for s in ALL_STRATEGIES if s.name != "expert-race"]
    strict = {s.name: 0 for s in others}
    for _ in range(n_draws):
        scores = rng.normal(size=(B, L, E))
        race_value = np.sort(scores.ravel())[::-1][: B * L * k].sum()
        for strategy in others:
            view = R.reshape_scores(scores, strategy)
            best = _best_row_constrained(view, row_budgets(strategy, B, L, E, k))
            assert race_value >= best - 1e-12, strategy.name
            if race_value > best + 1e-12:
                strict[strategy.name] += 1
    for name, count in strict.items():
        assert count > n_draws / 2, f"{name}: strict wins only {count}/{n_draws}"
    elapsed = time.time() - start
    assert elapsed < 10.0, f"oracle too slow: {elapsed:.1f}s"
    report(1, f"expert-race >= all strategies on {n_draws} draws "
              f"(strict: {min(strict.values())}..{max(strict.values())}), {elapsed:.1f}s")


# ----------------------------------------------------------------------
# 2. strategy cardinalities


def test_criterion_2_activation_totals_match_budget():
    rng = np.random.default_rng(7)
    checked = 0
    for strategy in ALL_STRATEGIES:
        found = 0
        while found < 20:
            B = int(rng.integers(1, 5))
            Ln = int(rng.integers(1, 7))
            E = int(rng.integers(2, 9))
            k = int(rng.integers(1, E + 1))
            try:
                budget = R.effective_k(strategy, B, Ln, E, k)
            except R.ConfigError:
                continue
            found += 1
            scores = Tensor(rng.normal(size=(B, Ln, E)))
            res = R.route(scores, strategy, "identity", "train", ThresholdState(), k=k)
            d_a, _ = strategy.extents(B, Ln, E)
            assert res.mask.sum() == d_a * budget, (strategy.name, B, Ln, E, k)
            checked += 1
    report(2, f"train-mode totals equal D_A*K on {checked} random valid configs")


# ----------------------------------------------------------------------
# 3. similarity loss fixed point


def test_criterion_3_constant_scores_give_unit_similarity_loss():
    rng = np.random.default_rng(99)
    for i in range(10):
        T = int(rng.integers(4, 40))
        E = int(rng.integers(2, 9))
        k = int(rng.integers(2, E + 1)) if E > 2 else 2
        logits = np.full((T, E), float(rng.normal()))
        order = np.argsort(-logits, axis=1, kind="stable")
        mask = np.zeros((T, E))
        mask[np.arange(T)[:, None], order[:, :k]] = 1.0
        loss = L.router_similarity_loss(mask, softmax(Tensor(logits), axis=-1)).item()
        assert abs(loss - 1.0) < 1e-9, (T, E, k, loss)
    report(3, "constant scores yield similarity loss 1.0 +/- 1e-9 on 10 shapes")


# ----------------------------------------------------------------------
# 4. diagonal identity


def test_criterion_4_diagonal_geometric_mean_identity():
    rng = np.random.default_rng(314)
    for i in range(100):
        T = int(rng.integers(4, 30))
        E = int(rng.integers(2, 8))
        k = int(rng.integers(1, E + 1))
        logits = rng.normal(size=(T, E))
        order = np.argsort(-logits, axis=1)
        mask = np.zeros((T, E))
        mask[np.arange(T)[:, None], order[:, :k]] = 1.0
        P = softmax(Tensor(logits), axis=-1)
        diag = router_similarity_diag(mask, P).item()
        p = P.data
        oracle = sum(
            (E / mask.sum()) * mask[:, i].sum() * (p[:, i] ** 2).sum() / T
            for i in range(E)
        )
        assert abs(diag - oracle) < 1e-12, (T, E, k)
    report(4, "diagonal similarity term equals the balance-form expression on 100 inputs")


# ----------------------------------------------------------------------
# 5. gradient correctness


def _relcheck(got: np.ndarray, want: np.ndarray, rtol: float, atol: float = 1e-7) -> float:
    err = np.abs(got - want) - atol - rtol * np.maximum(np.abs(got), np.abs(want))
    return float(err.max())


def test_criterion_5_gradients_match_finite_differences():
    start = time.time()

    # (a) MoE layer forward w.r.t. input, the expert bank's w_in and the router head
    cfg = DenoiserConfig(model_dim=4, num_experts=4, k=2, dense_hidden=8)
    params = init_params(cfg, 404)
    rng = np.random.default_rng(11)
    x_base = rng.normal(size=(2, 3, 4))
    probe = rng.normal(size=(2, 3, 4))
    strategy = get_strategy("expert-race")

    def layer_loss():
        out = moe_forward(Tensor(x_base), params, strategy, "sigmoid", cfg.k, "train")
        return (out.y * Tensor(probe)).sum()

    # selection-stability guard: margin around the global K-th value
    gated = 1 / (1 + np.exp(-params.gating_logits(params.router_trunk(Tensor(x_base))).data))
    flat = np.sort(gated.ravel())[::-1]
    K = R.effective_k(strategy, 2, 3, 4, 2)
    assert flat[K - 1] - flat[K] > 1e-4, "reseed: selection not stable"

    x_t = Tensor(x_base, requires_grad=True)
    out = moe_forward(x_t, params, strategy, "sigmoid", cfg.k, "train")
    backward((out.y * Tensor(probe)).sum())
    fd_x = np.zeros_like(x_base)
    h = 1e-6
    for idx in range(x_base.size):
        for sign, slot in ((1, 0), (-1, 1)):
            bumped = x_base.reshape(-1).copy()
            bumped[idx] += sign * h
            val = (
                moe_forward(Tensor(bumped.reshape(x_base.shape)), params, strategy, "sigmoid", cfg.k, "train").y
                * Tensor(probe)
            ).sum().item()
            fd_x[np.unravel_index(idx, x_base.shape)] += sign * val / (2 * h)
    assert _relcheck(x_t.grad, fd_x, 1e-4) < 0, "moe_forward d/dx mismatch"

    checked = ("experts.w_in", "gate_w", "router_w")
    seen = []
    for name, p in named_tensors(params):
        if name not in checked:
            continue
        seen.append(name)
        saved = p.data.copy()
        grad = p.grad if p.grad is not None else np.zeros_like(saved)
        fd = np.zeros_like(saved)
        for idx in range(saved.size):
            vals = []
            for sign in (1, -1):
                bumped = saved.reshape(-1).copy()
                bumped[idx] += sign * h
                p.data = bumped.reshape(saved.shape)
                vals.append(layer_loss().item())
            p.data = saved
            fd.reshape(-1)[idx] = (vals[0] - vals[1]) / (2 * h)
        assert _relcheck(grad, fd, 1e-4) < 0, f"moe_forward d/d{name} mismatch"
    assert sorted(seen) == sorted(checked), f"finite differences checked only {seen}"  # a rename must fail here

    # (b) every aux loss w.r.t. router logits
    T, E, k = 8, 4, 2
    logits_base = np.random.default_rng(21).normal(size=(T, E))
    order = np.argsort(-logits_base, axis=1)
    mask = np.zeros((T, E))
    mask[np.arange(T)[:, None], order[:, :k]] = 1.0
    aux_losses = {"balance_loss": lambda P: L.balance_loss(mask, P, k),
                  "router_similarity_loss": lambda P: L.router_similarity_loss(mask, P)}
    for name, loss_fn in aux_losses.items():
        lg = Tensor(logits_base, requires_grad=True)
        backward(loss_fn(softmax(lg, axis=-1)))
        fd = np.zeros_like(logits_base)
        for idx in range(logits_base.size):
            vals = []
            for sign in (1, -1):
                bumped = logits_base.reshape(-1).copy()
                bumped[idx] += sign * h
                t = Tensor(bumped.reshape(T, E))
                vals.append(loss_fn(softmax(t, axis=-1)).item())
            fd.reshape(-1)[idx] = (vals[0] - vals[1]) / (2 * h)
        assert _relcheck(lg.grad, fd, 1e-4) < 0, name

    # (c) end-to-end total loss on a 2-layer toy model, sampled coordinates
    model = DenoiserConfig(layers=2, model_dim=16, tokens=8, num_classes=3,
                           num_experts=4, k=2, dense_hidden=32, total_steps=40)
    trainer = Trainer(TrainerConfig(model=model, batch_size=4, seed=17))
    for _ in range(3):  # leave the zero-init point so adaptive layers carry signal
        trainer.train_step()
    batch = trainer.task.sample_batch(np.random.default_rng(3), 4, trainer.schedule, "eps")

    backward(trainer.loss(batch)[0])  # the objective train_step minimizes
    coord_rng = np.random.default_rng(5)
    named = trainer.params.named_tensors()
    total_coords = sum(p.data.size for _, p in named)
    n_samples = max(total_coords // 100, 30)  # ~1% of parameters
    checked = 0
    for _ in range(n_samples):
        name, p = named[int(coord_rng.integers(len(named)))]
        idx = int(coord_rng.integers(p.data.size))
        saved = p.data.copy()
        vals = []
        for sign in (1, -1):
            bumped = saved.reshape(-1).copy()
            bumped[idx] += sign * h
            p.data = bumped.reshape(saved.shape)
            vals.append(trainer.loss(batch)[0].item())
        p.data = saved
        fd_val = (vals[0] - vals[1]) / (2 * h)
        got = (p.grad if p.grad is not None else np.zeros_like(saved)).reshape(-1)[idx]
        assert abs(got - fd_val) <= 1e-7 + 1e-4 * max(abs(got), abs(fd_val)), \
            f"{name}[{idx}]: autodiff {got} vs fd {fd_val}"
        checked += 1

    elapsed = time.time() - start
    assert elapsed < 60.0, f"gradient checks too slow: {elapsed:.1f}s"
    report(5, f"backward matches central differences at 1e-4 "
              f"(layer, aux losses, {checked} end-to-end coords), {elapsed:.1f}s")


# ----------------------------------------------------------------------
# 6. threshold consistency


def test_criterion_6_threshold_tracks_population_quantile():
    rng = np.random.default_rng(888)
    strategy = get_strategy("expert-race")
    B, Ln, E, k = 4, 8, 8, 2
    K = R.effective_k(strategy, B, Ln, E, k)
    state = ThresholdState()
    pool = []
    for _ in range(2000):
        scores = rng.normal(size=(B, Ln, E))
        res = R.route(Tensor(scores), strategy, "identity", "train", state, k=k)
        R.ema_update(state, res.kth_values)
        pool.append(scores.ravel())
    pooled = np.sort(np.concatenate(pool))[::-1]
    oracle = pooled[2000 * K - 1]
    rel_tau = abs(state.tau - oracle) / abs(oracle)
    assert rel_tau < 0.02, f"tau {state.tau} vs pooled quantile {oracle}"

    active = []
    for _ in range(50):
        scores = rng.normal(size=(B, Ln, E))
        res = R.route(Tensor(scores), strategy, "identity", "infer", state, k=k)
        active.append(res.mask.mean())
    rate = float(np.mean(active))
    target = k / E
    assert abs(rate - target) / target < 0.10, f"activation rate {rate} vs {target}"
    report(6, f"tau within {rel_tau:.2%} of pooled quantile; "
              f"infer activation {rate:.4f} vs k/E={target:.4f}")


# ----------------------------------------------------------------------
# 7. allocation heterogeneity


def _allocation_after_training(strategy: str, steps: int = 2000):
    model = DenoiserConfig(layers=2, model_dim=32, tokens=8, num_classes=4,
                           num_experts=8, k=2, dense_hidden=128, total_steps=100,
                           strategy=strategy, gating="identity")
    trainer = Trainer(TrainerConfig(model=model, batch_size=16, seed=0))
    for _ in range(steps):
        trainer.train_step()
    rng = np.random.default_rng(555)
    infer_masks, topk_masks, ts = [], [], []
    for t_fix in range(5, 100, 10):
        batch = trainer.task.sample_batch(rng, 16, trainer.schedule, "eps", t=t_fix)
        _, outs_infer = trainer.forward(batch, mode="infer")
        _, outs_topk = trainer.forward(batch, mode="train")
        infer_masks.append(np.concatenate([o.route.mask for o in outs_infer], axis=0))
        topk_masks.append(np.concatenate([o.route.mask for o in outs_topk], axis=0))
        ts.append(np.full(16 * len(outs_infer), t_fix))
    t_all = np.concatenate(ts)
    infer = M.allocation_profile(np.concatenate(infer_masks), t_all, 100, buckets=10)
    topk = M.allocation_profile(np.concatenate(topk_masks), t_all, 100, buckets=10)
    return infer, topk


@pytest.mark.slow
def test_criterion_7_allocation_heterogeneity():
    race_infer, _ = _allocation_after_training("expert-race")
    assert race_infer.bucket_variance > 0.0
    # token-choice allocates exactly k per token; thresholded inference is not
    # meaningful for a per-token selector, so its profile uses top-k masks
    _, tc_topk = _allocation_after_training("token-choice")
    assert tc_topk.bucket_variance == 0.0
    assert np.all(tc_topk.means[~np.isnan(tc_topk.means)] == 2.0)
    report(7, f"expert-race bucket variance {race_infer.bucket_variance:.3f} > 0, "
              f"token-choice exactly 0")


# ----------------------------------------------------------------------
# 8. combination usage


def test_criterion_8_combination_usage_oracle_and_fixture():
    rng = np.random.default_rng(4321)
    for _ in range(100):
        T = int(rng.integers(5, 40))
        E = int(rng.integers(2, 8))
        mask = (rng.random((T, E)) < rng.uniform(0.2, 0.7)).astype(float)
        got = M.combination_usage(mask)
        counter = {pair: 0 for pair in itertools.combinations(range(E), 2)}
        for row in mask:
            active = [e for e in range(E) if row[e] == 1.0]
            for pair in itertools.combinations(active, 2):
                counter[pair] += 1
        counts = sorted(counter.values(), reverse=True)
        total = sum(counts)
        if total == 0:
            assert got.ratio == 0.0 and got.no_pairs
            continue
        cum, bins = 0.0, 0
        for c in counts:
            cum += c / total
            if cum < 0.95:
                bins += 1
        assert got.ratio == bins / len(counts)

    pairs = list(itertools.combinations(range(4), 2))
    fixture = np.zeros((6, 4))
    for t, (i, j) in enumerate(pairs):
        fixture[t, i] = fixture[t, j] = 1.0
    assert abs(M.combination_usage(fixture).ratio - 5.0 / 6.0) < 1e-15
    report(8, "combination usage equals the pair-counting oracle; E=4 uniform fixture = 5/6")


# ----------------------------------------------------------------------
# 9. dense-twin equivalence


def _twin(model: DenoiserConfig, **settings) -> TrainerConfig:
    """The dense twin of a shape: one expert, k=1, softmax gating (every gate
    exactly 1.0) and no per-layer regularization loss."""
    return TrainerConfig(model=replace(model, num_experts=1, k=1, gating="softmax"), w_plr=0.0, **settings)


def test_criterion_9_dense_twin_equivalence():
    # one config trained twice from one seed: routed, and with plain FFN blocks
    twin = _twin(DenoiserConfig(layers=2, model_dim=16, tokens=8, num_classes=3, dense_hidden=64, total_steps=40),
                 batch_size=6, seed=4)
    routed, plain = Trainer(twin), Trainer(twin)
    gaps = []
    for _ in range(50):
        rec_routed = routed.train_step()
        with plain_ffn_blocks():
            rec_plain = plain.train_step()
        gaps.append(abs(rec_routed.total - rec_plain.total))
    assert max(gaps) == 0.0, f"trajectory gap {max(gaps)}"

    batch = routed.task.sample_batch(np.random.default_rng(5), 6, routed.schedule, "eps")
    pred_routed, _ = routed.forward(batch, mode="train")
    with plain_ffn_blocks():
        pred_plain, _ = plain.forward(batch, mode="train")
    forward_gap = float(np.abs(pred_routed.data - pred_plain.data).max())
    assert forward_gap == 0.0
    report(9, "50-step loss gap 0.0 and forward gap 0.0: the 1-in-1 softmax MoE is the plain FFN model")


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_dense_twin_weights_equal_the_one_in_one_moe_bit_for_bit_at_the_default_shape(seed):
    # the default shape (B=32, L=16, D=64, 4 blocks) with one expert of the
    # dense width, `v` at lr 2e-3
    twin = _twin(DenoiserConfig(parameterization="v"), lr=2e-3, seed=seed)
    routed, plain = Trainer(twin), Trainer(twin)
    for _ in range(3):
        routed.train_step()
        with plain_ffn_blocks():
            plain.train_step()
    for (name, a), (_, b) in zip(routed.params.named_tensors(), plain.params.named_tensors(), strict=True):
        assert np.array_equal(a.data, b.data), name


# ----------------------------------------------------------------------
# 10. toy training smoke, and the `v` run's thresholded inference


def v_config(seed: int) -> TrainerConfig:
    """The default shape (B=32, L=16, D=64, 4 layers, 2-in-8) with `v`
    prediction at lr 2e-3, under which the reverse process completes; under
    the defaults (`eps`, lr 1e-4) every attempt diverges."""
    return TrainerConfig(model=DenoiserConfig(parameterization="v"), lr=2e-3, seed=seed)


@dataclass
class VRun:
    trainer: Trainer
    records: list  # the LogRecords of steps 1..200
    runtime: float  # seconds for those 200 steps
    weights: dict  # name -> a copy of each weight at step 200


@pytest.fixture(scope="module")
def v_runs(tmp_path_factory):
    """Seeds 0, 1 and 2 of v_config, each trained 200 steps once for every
    test that reads them, and seed 0's checkpoint at step 100."""
    mid_ckpt = tmp_path_factory.mktemp("v_runs") / "mid_0.npz"
    runs = {}
    for seed in (0, 1, 2):
        trainer = Trainer(v_config(seed))
        start = time.time()
        records = []
        for step in range(200):
            records.append(trainer.train_step())
            if step + 1 == 100 and seed == 0:
                save_checkpoint(mid_ckpt, trainer)
        weights = {name: t.data.copy() for name, t in trainer.params.named_tensors()}
        runs[seed] = VRun(trainer, records, time.time() - start, weights)
    return runs, mid_ckpt


@pytest.mark.slow
def test_criterion_10_toy_training_smoke(v_runs):
    runs, mid_ckpt = v_runs
    firsts, lasts = [], []
    runtime = {}
    for seed, run in runs.items():
        runtime[seed] = run.runtime
        assert runtime[seed] < 300.0, f"seed {seed} took {runtime[seed]:.0f}s"
        assert all(np.isfinite(r.total) for r in run.records)
        firsts.append(float(np.median([r.total for r in run.records[:20]])))
        lasts.append(float(np.median([r.total for r in run.records[-20:]])))
    assert float(np.median(lasts)) < float(np.median(firsts))

    resumed = load_checkpoint(mid_ckpt, v_config(0))
    for _ in range(100):
        resumed.train_step()
    for name, t in resumed.params.named_tensors():
        assert np.array_equal(t.data, runs[0].weights[name]), f"resume diverged at {name}"
    report(10, f"3 seeds x 200 steps, max {max(runtime.values()):.0f}s/run, "
               f"median loss {np.median(firsts):.3f} -> {np.median(lasts):.3f}, resume bit-exact")


# mean active experts per token under inference thresholds, for k = 2
ACTIVE_BAND = (1.8, 2.2)
# timestep buckets of the excess loss report
EXCESS_BUCKETS = ((1, 10), (11, 40), (41, 70), (71, 100))


def _excess_by_bucket(trainer: Trainer, per_bucket: int = 256) -> list[float]:
    """metrics.excess_loss of the train-mode (batch top-K) prediction on fresh batches
    with timesteps drawn uniformly in each bucket."""
    cfg = trainer.config
    rng = np.random.default_rng(cfg.seed + 4242)
    excess = []
    for lo, hi in EXCESS_BUCKETS:
        values = []
        for _ in range(per_bucket // cfg.batch_size):
            t = rng.integers(lo, hi + 1, size=cfg.batch_size)
            batch = trainer.task.sample_batch(rng, cfg.batch_size, trainer.schedule, cfg.model.parameterization, t=t)
            pred, _ = trainer.forward(batch, mode="train")
            values.append(M.excess_loss(pred.data, batch, trainer.task, trainer.schedule, cfg.model.parameterization))
        excess.append(float(np.mean(values)))
    return excess


@pytest.mark.slow
def test_v_run_samples_the_task_law_under_thresholds(v_runs):
    # the paper's inference story on the default shape: after 300 steps,
    # thresholded routing keeps about k experts per token on held-out data
    # and in the reverse process, whose samples are finite and of their class
    runs, _ = v_runs
    lines = []
    for seed, run in runs.items():
        trainer = copy.deepcopy(run.trainer)  # the fixture stays at step 200 for the other tests
        while trainer.step_count < 300:
            trainer.train_step()
        c = np.arange(32) % trainer.config.model.num_classes
        x, allocation_log = trainer.sample(32, c, rng=np.random.default_rng(seed + 100))
        assert np.all(np.isfinite(x))
        quality = M.sample_quality(x, c, trainer.task)
        assert quality.accuracy >= 0.9, f"seed {seed}: accuracy {quality.accuracy}"

        on_data = M.report_mean(trainer.evaluate("infer").report, "mean_active")
        sampling = float(np.mean([entry["mean_active_per_layer"] for entry in allocation_log]))
        for where, active in (("held-out data", on_data), ("sampling", sampling)):
            assert ACTIVE_BAND[0] <= active <= ACTIVE_BAND[1], f"seed {seed}: {active:.3f} experts per token on {where}"

        excess = ", ".join(f"{lo}-{hi}: {e:.3f}" for (lo, hi), e in zip(EXCESS_BUCKETS, _excess_by_bucket(trainer)))
        assert run.trainer.step_count == 200
        lines.append(f"seed {seed}: accuracy {quality.accuracy:.2f}, log-lik/dim {quality.log_likelihood:.3f}, "
                     f"experts/token {on_data:.3f} on data, {sampling:.3f} sampling; excess loss by t {excess}")
    print("\nPASS v run, 300 steps, 32 samples per seed:\n  " + "\n  ".join(lines))


# ----------------------------------------------------------------------
# 11. balance comparison structure


def _train_balance_arm(w_sim: float, seed: int = 1, steps: int = 400):
    model = DenoiserConfig(layers=2, model_dim=32, tokens=8, num_classes=4,
                           num_experts=16, k=4, dense_hidden=128, total_steps=100,
                           strategy="expert-race", gating="identity")
    trainer = Trainer(TrainerConfig(model=model, batch_size=16, seed=seed, w_plr=1e-2, w_sim=w_sim, w_blc=0.0))
    for _ in range(steps):
        trainer.train_step()
    rng = np.random.default_rng(777)
    masks = []
    for _ in range(6):
        batch = trainer.task.sample_batch(rng, 16, trainer.schedule, "eps")
        _, outs = trainer.forward(batch, mode="train")
        masks.extend(out.route.mask for out in outs)
    mask = np.concatenate(masks, axis=0)
    return M.max_violation(mask, model.k), M.combination_usage(mask).ratio


@pytest.mark.slow
def test_criterion_11_similarity_loss_improves_balance():
    vio_none, comb_none = _train_balance_arm(w_sim=0.0)
    vio_sim, comb_sim = _train_balance_arm(w_sim=0.1)
    assert comb_sim >= comb_none, f"comb {comb_sim} < {comb_none}"
    assert vio_sim <= vio_none, f"maxvio {vio_sim} > {vio_none}"
    report(11, f"similarity arm: comb {comb_none:.3f}->{comb_sim:.3f}, "
               f"maxvio {vio_none:.3f}->{vio_sim:.3f}")
