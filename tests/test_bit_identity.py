"""In-process bit-identity oracle for speed work on the tensor core and the
training loop.

The reference implementations below are the plain allocating versions the
lean ones replaced: a backward sweep that keeps every node's gradient and
graph, `_accumulate` copying every gradient into C order, GELU (its
derivative computed in backward) and AdamW/EMA as one-line textbook
expressions, sampling with the tape on, top-K selection by a full stable
argsort and K-th values by a full sort,
`route` taking its K-th values from a second selection pass, `route-sim`
routing one draw at a time, the routing report one mask at a time, and
checkpoints holding one .npz member per tensor. A short training run, a
sample, `route-sim` outputs and a checkpoint round trip with the lean ops
must match a run with these patched in (or, for checkpoints, a round trip
through the old form), bit for bit. A later change that swaps an op for a
faster one adds its old form here.
"""

import contextlib
import io
import json
import math

import numpy as np
import pytest
from scipy.special import erf

from moelab import cli, denoiser, layer, metrics, routing, tensor, training
from moelab.denoiser import DenoiserConfig
from moelab.tensor import Tensor
from moelab.training import Trainer, TrainerConfig

CONFIG = TrainerConfig(
    model=DenoiserConfig(layers=2, model_dim=16, tokens=8, num_classes=3, num_experts=4, k=2,
                         dense_hidden=32, total_steps=20),
    batch_size=6,
    seed=11,
)


def reference_backward(loss):
    if loss.data.size != 1:
        raise tensor.ContractError(f"loss must be scalar, got shape {loss.shape}")
    nodes, seen, stack = [], set(), [loss._node]
    while stack:
        node = stack.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        nodes.append(node)
        stack.extend(node.parents)
    for node in nodes:
        node.grad = None
    loss.grad = np.ones_like(loss.data)
    nodes.sort(key=lambda n: n.order, reverse=True)
    for node in nodes:
        if node.grad_fn is not None and node.grad is not None:
            node.grad_fn(node.grad)


def reference_accumulate(t, g):
    if t.grad is None:
        t.grad = g.copy() if isinstance(g, np.ndarray) else np.asarray(g, dtype=np.float64)
    else:
        t.grad = t.grad + g


def reference_gelu(x):
    cdf = 0.5 * (1.0 + erf(x.data * (1.0 / np.sqrt(2.0))))

    def gfn(g):
        pdf = (1.0 / np.sqrt(2.0 * np.pi)) * np.exp(-0.5 * x.data * x.data)
        tensor._accumulate(x, g * (cdf + x.data * pdf))

    return Tensor(x.data * cdf, _parents=(x,), _grad_fn=gfn)


def reference_adamw_step(self):
    self.step_count += 1
    b1, b2 = self.beta1, self.beta2
    bc1 = 1.0 - b1**self.step_count
    bc2 = 1.0 - b2**self.step_count
    for i, p in enumerate(self.params):
        g = p.grad if p.grad is not None else np.zeros_like(p.data)
        self.m[i] = b1 * self.m[i] + (1.0 - b1) * g
        self.v[i] = b2 * self.v[i] + (1.0 - b2) * g * g
        m_hat = self.m[i] / bc1
        v_hat = self.v[i] / bc2
        p.data = p.data - self.lr * m_hat / (np.sqrt(v_hat) + self.eps)


def reference_ema_update(self, params):
    d = self.decay
    for name, t in zip(list(self.shadow), params):
        self.shadow[name] = d * self.shadow[name] + (1.0 - d) * t.data


def reference_topk_mask(scores2d, k):
    d_a, d_b = scores2d.shape
    if k > d_b:
        raise routing.ConfigError(f"K={k} exceeds pool size D_B={d_b}")
    order = np.argsort(-scores2d, axis=1, kind="stable")
    mask = np.zeros_like(scores2d, dtype=np.float64)
    mask[np.arange(d_a)[:, None], order[:, :k]] = 1.0
    kth = np.sort(scores2d, axis=1)[:, d_b - k] if k else np.full(d_a, np.inf)
    return mask, kth


def reference_route(scores, strategy, gating, mode, state, k=1):
    if scores.data.ndim != 3:
        raise routing.ConfigError(f"scores must be (B, L, E), got {scores.shape}")
    bad = scores.size - np.count_nonzero(np.isfinite(scores.data))
    if bad:
        raise routing.NumericError(f"router scores have {bad} non-finite entries of {scores.size}")
    B, L, E = scores.shape
    gated = routing.GATING_FUNCTIONS[gating](scores)
    if mode == "train":
        budget = routing.effective_k(strategy, B, L, E, k)
        view = routing.reshape_scores(gated.data, strategy)
        mask2d, kth = routing.topk_mask(view, budget)
        mask = routing.scatter_mask(mask2d, strategy, (B, L, E))
    elif mode == "infer":
        if not state.initialized:
            raise routing.StateError("inference routing needs an initialized threshold")
        mask = (gated.data >= state.tau).astype(np.float64)
        kth = None
    else:
        raise routing.ConfigError(f"mode must be 'train' or 'infer', got {mode!r}")
    # a masked copy: moe_forward reads only the selected pairs, so it runs the same bits
    return routing.RouteResult(mask=mask, gated=gated * Tensor(mask), kth_values=kth)


def reference_routing_report(masks, k, t=None, t_max=None):
    if t is not None and t_max is None:
        raise routing.ConfigError("allocation by timestep needs t_max")
    records = []
    for mask in masks:
        E = mask.shape[-1]
        flat = mask.reshape(-1, E)
        T = flat.shape[0]
        expected = k * T / E
        loads = flat.sum(axis=0)
        comb_usage, no_pairs = 0.0, True
        if E >= 2:
            counts = (flat.T @ flat)[np.triu_indices(E, k=1)]
            total = counts.sum()
            if total != 0:
                cum = np.cumsum(np.sort(counts)[::-1] / total)
                comb_usage, no_pairs = int((cum < 0.95).sum()) / counts.size, False
        record = {
            "max_vio": float((loads.max() - expected) / expected),
            "comb_usage": comb_usage,
            "comb_no_pairs": no_pairs,
            "mean_active": float(mask.sum() / T),
        }
        if t is not None:
            record["allocation_bucket_variance"] = metrics.allocation_profile(mask, t, t_max).bucket_variance
        records.append(record)
    return records


def reference_route_sim_draws(rng, budgets, shape, k, draws):
    objectives = {s.name: [] for s in budgets}
    reports = {s.name: [] for s in budgets}
    for _ in range(draws):
        scores = rng.normal(size=shape)
        for strat, budget in budgets.items():
            view = routing.reshape_scores(scores, strat)
            mask2d, _ = routing.topk_mask(view, budget)
            objectives[strat.name].append(float((view * mask2d).sum()))
            mask = routing.scatter_mask(mask2d, strat, shape)
            reports[strat.name].append(metrics.routing_report([mask], k)[0])
    return objectives, reports


def reference_save_checkpoint(path, trainer):
    arrays = {f"param/{name}": t.data for name, t in trainer.params.named_tensors()}
    arrays.update({f"ema/{name}": arr for name, arr in trainer.ema.shadow.items()})
    for i, (m, v) in enumerate(zip(trainer.opt.m, trainer.opt.v)):
        arrays[f"opt_m/{i}"] = m
        arrays[f"opt_v/{i}"] = v
    meta = {
        "version": 1,
        "step": trainer.step_count,
        "config": trainer.config.to_dict(),
        "thresholds": [{"momentum": routing.ThresholdState.momentum, "tau": blk.moe.threshold.tau}
                       for blk in trainer.params.blocks],
        "rng_state": trainer.rng.bit_generator.state,
    }
    arrays["meta_json"] = np.frombuffer(json.dumps(meta).encode("utf-8"), dtype=np.uint8)
    np.savez(path, **arrays)


def reference_load_checkpoint(path, config):
    with np.load(path) as data:
        meta = json.loads(bytes(data["meta_json"]).decode("utf-8"))
        trainer = Trainer(config)
        for name, t in trainer.params.named_tensors():
            t.data = data[f"param/{name}"]
        for name in trainer.ema.shadow:
            trainer.ema.shadow[name] = data[f"ema/{name}"]
        for i in range(len(trainer.opt.m)):
            trainer.opt.m[i] = data[f"opt_m/{i}"]
            trainer.opt.v[i] = data[f"opt_v/{i}"]
        trainer.opt.step_count = meta["step"]
        for blk, thr in zip(trainer.params.blocks, meta["thresholds"]):
            blk.moe.threshold = routing.ThresholdState(tau=thr["tau"])
        trainer.rng.bit_generator.state = meta["rng_state"]
    return trainer


def use_reference_ops(monkeypatch):
    monkeypatch.setattr(training, "backward", reference_backward)
    monkeypatch.setattr(tensor, "_accumulate", reference_accumulate)
    for module in (layer, denoiser):  # each calls gelu through its own global
        monkeypatch.setattr(module, "gelu", reference_gelu)
    monkeypatch.setattr(training.AdamW, "step", reference_adamw_step)
    monkeypatch.setattr(training.WeightEma, "update", reference_ema_update)
    monkeypatch.setattr(training, "no_grad", contextlib.nullcontext)
    monkeypatch.setattr(routing, "topk_mask", reference_topk_mask)
    monkeypatch.setattr(routing, "route", reference_route)
    monkeypatch.setattr(metrics, "routing_report", reference_routing_report)
    monkeypatch.setattr(cli, "route_sim_draws", reference_route_sim_draws)


def full_state(trainer):
    return (
        [a for group in training._state_groups(trainer).values() for a in group],
        [blk.moe.threshold.tau.hex() for blk in trainer.params.blocks],
        trainer.rng.bit_generator.state, trainer.step_count, trainer.opt.step_count,
    )


def run(steps=5):
    """Losses, final state and taus of a short run, then a sample, its log and
    every layer's mask at each reverse step."""
    trainer = Trainer(CONFIG)
    losses = [trainer.train_step().total for _ in range(steps)]
    masks = []
    forward = training.denoiser_forward

    def recording_forward(*args, **kwargs):
        pred, outs = forward(*args, **kwargs)
        masks.append([out.route.mask for out in outs])
        return pred, outs

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(training, "denoiser_forward", recording_forward)
        x, log = trainer.sample(3, 2, rng=np.random.default_rng(5))
    state, taus, *_ = full_state(trainer)
    return losses, state, x, log, masks, taus


@pytest.fixture(scope="module")
def lean_run():
    return run()


def test_lean_ops_are_bit_identical_to_reference_ops(lean_run, monkeypatch):
    use_reference_ops(monkeypatch)
    losses, state, x, log, masks, taus = run()
    lean_losses, lean_state, lean_x, lean_log, lean_masks, lean_taus = lean_run
    assert lean_taus == taus
    assert [float(v).hex() for v in lean_losses] == [float(v).hex() for v in losses]
    assert len(lean_state) == len(state)
    assert all(np.array_equal(a, b) for a, b in zip(lean_state, state))
    assert np.array_equal(lean_x, x)
    assert len(lean_log) == len(log) == len(lean_masks) == len(masks) == CONFIG.model.total_steps
    assert [a["mean_active_per_layer"] for a in lean_log] == [b["mean_active_per_layer"] for b in log]
    for a, b in zip(lean_masks, masks):
        assert len(a) == len(b) == CONFIG.model.layers
        assert all(np.array_equal(ma, mb) for ma, mb in zip(a, b))


def test_grouped_checkpoint_round_trip_matches_the_per_tensor_form(tmp_path):
    trainer = Trainer(CONFIG)
    for _ in range(4):
        trainer.train_step()
    training.save_checkpoint(tmp_path / "grouped.npz", trainer)
    reference_save_checkpoint(tmp_path / "per_tensor.npz", trainer)
    grouped = training.load_checkpoint(tmp_path / "grouped.npz", CONFIG)
    per_tensor = reference_load_checkpoint(tmp_path / "per_tensor.npz", CONFIG)
    want_arrays, *want_rest = full_state(trainer)
    for restored in (grouped, per_tensor):
        arrays, *rest = full_state(restored)
        assert len(arrays) == len(want_arrays)
        assert all(a.dtype == b.dtype and np.array_equal(a, b) for a, b in zip(arrays, want_arrays))
        assert rest == want_rest
    losses = [[float(t.train_step().total).hex() for _ in range(3)] for t in (trainer, grouped, per_tensor)]
    assert losses[0] == losses[1] == losses[2]


def route_sim_csv(out, *args):
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(["route-sim", "--out", str(out), "--draws", "3", "--seed", "2",
                         "--batch-size", "8", "--tokens", "6", "--experts", "4", "--k", "2", *args]) == 0
    return (out / "route_sim.csv").read_bytes()


def test_route_sim_table_is_bit_identical_under_reference_ops(tmp_path, monkeypatch):
    lean = route_sim_csv(tmp_path / "lean")
    use_reference_ops(monkeypatch)
    assert route_sim_csv(tmp_path / "reference") == lean


SMALL = (8, 6, 4)
BLOCK = cli.BLOCK_BUDGET // math.prod(SMALL)  # draws per block at the small shape
BIG = (96, 32, 32)  # one draw holds more scores than a block may: blocks of one


@pytest.mark.parametrize(
    "shape,strategies,draws",
    [(SMALL, None, d) for d in (1, BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK + 3)]
    + [(SMALL, "bl-choice,token-choice,le-choice", BLOCK + 1), (BIG, None, 3)],
    ids=["1", "n-1", "n", "n+1", "2n+3", "no-expert-race", "block-of-one"],
)
def test_route_sim_in_blocks_matches_the_per_draw_loop(tmp_path, monkeypatch, shape, strategies, draws):
    assert BLOCK > 1 and math.prod(BIG) > cli.BLOCK_BUDGET
    names = strategies.split(",") if strategies else list(routing.STRATEGIES)
    budgets = {s: routing.effective_k(s, *shape, 2) for s in map(routing.get_strategy, names)}
    flags = ["--draws", str(draws), "--batch-size", str(shape[0]), "--tokens", str(shape[1]),
             "--experts", str(shape[2])] + (["--strategies", strategies] if strategies else [])

    def outputs(side):
        objectives, reports = cli.route_sim_draws(np.random.default_rng(9), budgets, shape, 2, draws)
        return (
            {name: [v.hex() for v in values] for name, values in objectives.items()},
            {name: [repr(r) for r in records] for name, records in reports.items()},
            route_sim_csv(tmp_path / side, *flags),
        )

    lean = outputs("lean")
    use_reference_ops(monkeypatch)
    reference = outputs("reference")
    assert all(len(v) == draws for v in lean[0].values()) and all(len(v) == draws for v in lean[1].values())
    assert lean[0] == reference[0]
    assert lean[1] == reference[1]
    assert lean[2] == reference[2]
    assert (b",nan," in lean[2]) == (strategies is not None)
