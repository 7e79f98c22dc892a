"""In-process bit-identity oracle for speed work on the tensor core and the
training loop.

The reference implementations below are the plain allocating versions the
lean ones replaced: `_accumulate` copying every gradient into C order, GELU
and AdamW/EMA as one-line textbook expressions, sampling with the tape on,
and top-K selection by a full stable argsort and K-th values by a full
sort. A short training run, a sample and a `route-sim` table with the lean
ops must match a run with these patched in, bit for bit. A later change
that swaps an op for a faster one adds its old form here.
"""

import contextlib
import io

import numpy as np
import pytest
from scipy.special import erf

from moelab import cli, denoiser, layer, routing, tensor, training
from moelab.denoiser import DenoiserConfig
from moelab.tensor import Tensor
from moelab.training import Trainer, TrainerConfig

CONFIG = TrainerConfig(
    model=DenoiserConfig(layers=2, model_dim=16, tokens=8, num_classes=3, num_experts=4, k=2,
                         dense_hidden=32, total_steps=20),
    batch_size=6,
    seed=11,
)


def reference_accumulate(t, g):
    if t.grad is None:
        t.grad = g.copy() if isinstance(g, np.ndarray) else np.asarray(g, dtype=np.float64)
    else:
        t.grad = t.grad + g


def reference_gelu(x):
    x = Tensor._coerce(x)
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


def reference_ema_update(self, named):
    d = self.decay
    for name, t in named:
        self.shadow[name] = d * self.shadow[name] + (1.0 - d) * t.data


def reference_topk_mask(scores2d, k):
    d_a, d_b = scores2d.shape
    if k > d_b:
        raise routing.ConfigError(f"K={k} exceeds pool size D_B={d_b}")
    order = np.argsort(-scores2d, axis=1, kind="stable")
    mask = np.zeros_like(scores2d, dtype=np.float64)
    mask[np.arange(d_a)[:, None], order[:, :k]] = 1.0
    return mask


def reference_kth_value_per_row(scores2d, k):
    return np.sort(scores2d, axis=1)[:, scores2d.shape[1] - k]


def use_reference_ops(monkeypatch):
    monkeypatch.setattr(tensor, "_accumulate", reference_accumulate)
    for module in (layer, denoiser):  # each calls gelu through its own global
        monkeypatch.setattr(module, "gelu", reference_gelu)
    monkeypatch.setattr(training.AdamW, "step", reference_adamw_step)
    monkeypatch.setattr(training.WeightEma, "update", reference_ema_update)
    monkeypatch.setattr(training, "no_grad", contextlib.nullcontext)
    monkeypatch.setattr(routing, "topk_mask", reference_topk_mask)
    monkeypatch.setattr(routing, "kth_value_per_row", reference_kth_value_per_row)


def run(steps=5):
    trainer = Trainer(CONFIG)
    losses = [trainer.train_step().total for _ in range(steps)]
    x, log = trainer.sample(3, 2, rng=np.random.default_rng(5), record_masks=True)
    state = (
        [t.data for _, t in trainer.params.named_tensors()]
        + list(trainer.ema.shadow.values()) + trainer.opt.m + trainer.opt.v
    )
    return losses, state, x, log


@pytest.fixture(scope="module")
def lean_run():
    return run()


def test_lean_ops_are_bit_identical_to_reference_ops(lean_run, monkeypatch):
    use_reference_ops(monkeypatch)
    losses, state, x, log = run()
    lean_losses, lean_state, lean_x, lean_log = lean_run
    assert [float(v).hex() for v in lean_losses] == [float(v).hex() for v in losses]
    assert len(lean_state) == len(state)
    assert all(np.array_equal(a, b) for a, b in zip(lean_state, state))
    assert np.array_equal(lean_x, x)
    assert len(lean_log) == len(log) == CONFIG.model.total_steps
    for a, b in zip(lean_log, log):
        assert a["mean_active_per_layer"] == b["mean_active_per_layer"]
        assert all(np.array_equal(ma, mb) for ma, mb in zip(a["masks"], b["masks"]))


def route_sim_csv(out):
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(["route-sim", "--out", str(out), "--draws", "3", "--seed", "2",
                         "--batch-size", "8", "--tokens", "6", "--experts", "4", "--k", "2"]) == 0
    return (out / "route_sim.csv").read_bytes()


def test_route_sim_table_is_bit_identical_under_reference_ops(tmp_path, monkeypatch):
    lean = route_sim_csv(tmp_path / "lean")
    use_reference_ops(monkeypatch)
    assert route_sim_csv(tmp_path / "reference") == lean
