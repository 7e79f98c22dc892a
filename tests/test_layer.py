"""MoE layer: init ranges, dispatch semantics, gradients, parameter counts."""

import numpy as np
import pytest
from plain_ffn import plain_ffn

from moelab.denoiser import DenoiserConfig
from moelab.layer import (
    ExpertParams,
    MoeLayerParams,
    _xavier,
    expert_forward,
    init_experts,
    init_params,
    moe_forward,
    named_tensors,
    xavier_bound,
)
from moelab.routing import GATING_FUNCTIONS, STRATEGIES, ConfigError, ThresholdState, get_strategy, route
from moelab.tensor import Tensor, backward, finite_difference_grad, gelu, matmul, take_rows


def expert(params, i):
    """Expert i as a bank of one whose weights are differentiable slices of the layer's bank."""
    bank = params.experts
    E = bank.w_in.shape[0]
    w_in, w_out = (take_rows(w.reshape(E, -1), [i]).reshape(1, *w.shape[1:]) for w in (bank.w_in, bank.w_out))
    return ExpertParams(w_in=w_in, w_out=w_out)


def make_config(d=8, e=4, k=2, dense=32):
    return DenoiserConfig(model_dim=d, num_experts=e, k=k, dense_hidden=dense)


def test_config_rejects_indivisible_width():
    with pytest.raises(ConfigError, match=r"^k=3 must divide dense_hidden=32 \(fine-grained split needs an exact width\)$"):
        make_config(e=4, k=3, dense=32)


@pytest.mark.parametrize("e,k,message", [
    (4, 5, "k=5 exceeds expert count 4"),
    (4, 0, "k and num_experts must be >= 1, got 0-in-4"),
    (0, 1, "k and num_experts must be >= 1, got 1-in-0"),
])
def test_config_rejects_k_outside_one_to_e(e, k, message):
    with pytest.raises(ConfigError) as err:
        make_config(e=e, k=k, dense=40)
    assert str(err.value) == message


def test_init_deterministic_under_seed():
    a = init_params(make_config(), np.random.default_rng(5))
    b = init_params(make_config(), np.random.default_rng(5))
    for (name_a, ta), (_, tb) in zip(named_tensors(a), named_tensors(b)):
        assert np.array_equal(ta.data, tb.data), name_a


def test_expert_bound_matches_dense_counterpart():
    cfg = make_config(d=8, e=4, k=2, dense=32)
    params = init_params(cfg, np.random.default_rng(0))
    dense_bound = xavier_bound(cfg.model_dim, cfg.dense_hidden)
    assert np.abs(params.experts.w_in.data).max() <= dense_bound
    assert np.abs(params.experts.w_out.data).max() <= dense_bound
    # the range really is the dense (smaller) one: draws fill it nearly to
    # the brim yet stay strictly under the wider naive expert bound
    naive = xavier_bound(cfg.model_dim, cfg.dense_hidden // cfg.k)
    assert dense_bound < naive
    empirical = np.abs(params.experts.w_in.data).max()
    assert dense_bound * 0.95 < empirical <= dense_bound


def test_router_weights_within_analytic_xavier_bound():
    cfg = make_config(d=16, e=8, k=2, dense=64)
    params = init_params(cfg, np.random.default_rng(1))
    assert np.abs(params.router_w.data).max() <= xavier_bound(16, 16)
    assert np.abs(params.gate_w.data).max() <= xavier_bound(16, 8)
    assert np.array_equal(params.router_b.data, np.zeros(16))


def test_compute_logits_zero_weights_zero_logits():
    cfg = make_config()
    params = init_params(cfg, np.random.default_rng(0))
    for _, t in named_tensors(params):
        t.data = np.zeros_like(t.data)
    x = Tensor(np.random.default_rng(0).normal(size=(2, 3, cfg.model_dim)))
    assert np.array_equal(params.gating_logits(params.router_trunk(x)).data, np.zeros((2, 3, cfg.num_experts)))


def test_compute_logits_hand_built_head():
    # single token; first layer passes input through (identity weights, zero
    # bias), so logits = gate_w^T gelu(x)
    cfg = make_config(d=2, e=2, k=1, dense=4)
    params = init_params(cfg, np.random.default_rng(0))
    params.router_w.data = np.eye(2)
    params.router_b.data = np.zeros(2)
    params.gate_w.data = np.array([[1.0, -1.0], [0.5, 2.0]])
    params.gate_b.data = np.zeros(2)
    x = np.array([[[0.3, -0.7]]])
    got = params.gating_logits(params.router_trunk(Tensor(x))).data[0, 0]
    g = gelu(Tensor(x[0, 0])).data
    want = np.array([g[0] * 1.0 + g[1] * 0.5, g[0] * -1.0 + g[1] * 2.0])
    assert np.allclose(got, want, atol=1e-14)


def test_logits_shape_contract():
    cfg = make_config(d=8, e=4)
    params = init_params(cfg, np.random.default_rng(3))
    x = Tensor(np.random.default_rng(1).normal(size=(2, 3, 8)))
    assert params.gating_logits(params.router_trunk(x)).shape == (2, 3, 4)


def test_expert_forward_zero_weights_and_shape():
    ex = ExpertParams(w_in=Tensor(np.zeros((1, 4, 6))), w_out=Tensor(np.zeros((1, 6, 4))))
    x = Tensor(np.ones((5, 4)))
    out = expert_forward(ex, x, [0, 5])
    assert out.shape == (5, 4)
    assert np.array_equal(out.data, np.zeros((5, 4)))


def test_expert_forward_hand_computed_scalar_path():
    # 1-d everything: y = gelu(x * w_in) * w_out
    ex = ExpertParams(w_in=Tensor(np.array([[[2.0]]])), w_out=Tensor(np.array([[[3.0]]])))
    x = 0.7
    got = expert_forward(ex, Tensor(np.array([[x]])), [0, 1]).data[0, 0]
    want = gelu(Tensor(np.array([x * 2.0]))).data[0] * 3.0
    assert abs(got - want) < 1e-15


def test_one_bank_initializer_draws_the_dense_ffn_as_two_xavier_linears():
    rng_a, rng_b = np.random.default_rng(14), np.random.default_rng(14)
    bank = init_experts(rng_a, 1, 8, 32, xavier_bound(8, 32))
    w_in, w_out = _xavier(rng_b, 8, 32), _xavier(rng_b, 32, 8)
    assert np.array_equal(bank.w_in.data, w_in.data[None]) and np.array_equal(bank.w_out.data, w_out.data[None])


def test_moe_forward_single_expert_gate_scaling():
    cfg = make_config(d=4, e=2, k=1, dense=8)
    params = init_params(cfg, np.random.default_rng(7))
    x = Tensor(np.random.default_rng(2).normal(size=(1, 1, 4)))
    out = moe_forward(x, params, get_strategy("token-choice"), "identity", cfg.k, "train")
    (chosen,) = np.nonzero(out.route.mask[0, 0])[0].reshape(-1)[:1]
    gate = out.route.gated.data[0, 0, chosen]
    expert_out = plain_ffn(expert(params, chosen), x).data[0, 0]
    assert np.allclose(out.y.data[0, 0], gate * expert_out, atol=1e-13)


# The target head: only y_hat reads it, so a loss on y never reaches it and backward leaves its grad None.
UNREAD_BY_Y = {"target_w", "target_b"}


def test_moe_forward_all_gates_zero_gives_zero_output():
    cfg = make_config()
    params = init_params(cfg, np.random.default_rng(9))
    params.threshold.tau = np.inf
    x = Tensor(np.random.default_rng(3).normal(size=(2, 3, cfg.model_dim)), requires_grad=True)
    for gating in ("identity", "sigmoid", "softmax"):
        out = moe_forward(x, params, get_strategy("expert-race"), gating, cfg.k, "infer")
        assert out.route.mask.sum() == 0
        assert np.array_equal(out.y.data, np.zeros((2, 3, cfg.model_dim)))
        # the experts ran on zero rows, so y's gradient reaches x and every weight y reads as exact zeros
        backward(out.y.sum())
        for name, t in [("x", x), *named_tensors(params)]:
            if name in UNREAD_BY_Y:
                assert t.grad is None, name
            else:
                assert t.grad.dtype == np.float64 and np.array_equal(t.grad, np.zeros_like(t.data)), name


def test_dense_equivalence_one_in_one():
    cfg = make_config(d=6, e=1, k=1, dense=24)
    params = init_params(cfg, np.random.default_rng(11))
    x = Tensor(np.random.default_rng(4).normal(size=(2, 5, 6)))
    out = moe_forward(x, params, get_strategy("token-choice"), "softmax", cfg.k, "train")
    dense = plain_ffn(expert(params, 0), x)
    assert np.array_equal(out.y.data, dense.data)


def test_zero_token_experts_get_exact_zero_grad():
    cfg = make_config(d=4, e=4, k=1, dense=8)
    params = init_params(cfg, np.random.default_rng(13))
    # push all tokens to expert 0 by biasing the gate head
    params.gate_b.data = np.array([100.0, 0.0, 0.0, 0.0])
    x = Tensor(np.random.default_rng(5).normal(size=(2, 3, 4)))
    out = moe_forward(x, params, get_strategy("token-choice"), "identity", cfg.k, "train")
    assert np.all(out.route.mask[..., 0] == 1.0) and out.route.mask[..., 1:].sum() == 0
    loss = (out.y * out.y).sum()
    backward(loss)
    for i in (1, 2, 3):
        assert np.array_equal(params.experts.w_in.grad[i], np.zeros((4, 8)))
        assert np.array_equal(params.experts.w_out.grad[i], np.zeros((8, 4)))
    assert np.abs(params.experts.w_in.grad[0]).max() > 0


def test_expert_idle_this_step_gets_zero_grad_not_last_steps():
    cfg = make_config(d=4, e=4, k=1, dense=8)
    params = init_params(cfg, np.random.default_rng(13))
    x = Tensor(np.random.default_rng(5).normal(size=(2, 4, 4)))
    out = moe_forward(x, params, get_strategy("bl-choice"), "identity", cfg.k, "train")  # every expert gets rows
    backward((out.y * out.y).sum())
    assert all(np.abs(g).max() > 0 for g in params.experts.w_in.grad)
    params.gate_b.data = np.array([100.0, 0.0, 0.0, 0.0])
    out = moe_forward(x, params, get_strategy("token-choice"), "identity", cfg.k, "train")
    assert out.route.mask[..., 1:].sum() == 0
    backward((out.y * out.y).sum())
    assert np.array_equal(params.experts.w_in.grad[1:], np.zeros((3, 4, 8)))
    assert np.array_equal(params.experts.w_out.grad[1:], np.zeros((3, 8, 4)))


def test_moe_forward_graph_size_does_not_grow_with_expert_count():
    x_base = np.random.default_rng(10).normal(size=(2, 8, 8))
    nodes = {}
    for e in (4, 8):
        params = init_params(make_config(d=8, e=e, k=2, dense=32), np.random.default_rng(37))
        x = Tensor(x_base, requires_grad=True)
        before = next(Tensor._order_counter)
        out = moe_forward(x, params, get_strategy("expert-race"), "softmax", 2, "train")
        nodes[e] = next(Tensor._order_counter) - before
        assert (out.route.mask.sum(axis=(0, 1)) > 0).sum() >= e - 1  # nearly every expert runs
    assert nodes[4] == nodes[8]


def test_moe_forward_gradients_match_finite_differences():
    cfg = make_config(d=4, e=4, k=2, dense=8)
    params = init_params(cfg, np.random.default_rng(17))
    rng = np.random.default_rng(6)
    x_base = rng.normal(size=(2, 3, 4))
    probe = rng.normal(size=(2, 3, 4))
    strategy = get_strategy("token-choice")

    def loss_fn(x_t):
        out = moe_forward(x_t, params, strategy, "sigmoid", cfg.k, "train")
        return (out.y * Tensor(probe)).sum()

    x = Tensor(x_base, requires_grad=True)
    backward(loss_fn(x))
    # stable-selection check: the top-k gap must dwarf the fd step
    logits = params.gating_logits(params.router_trunk(Tensor(x_base))).data
    gaps = np.sort(logits, axis=-1)
    assert (gaps[..., -2] - gaps[..., -3]).min() > 1e-3
    fd = finite_difference_grad(lambda t: loss_fn(t).item(), Tensor(x_base), h=1e-6)
    rel = np.abs(x.grad - fd.data) / np.maximum(np.maximum(np.abs(fd.data), np.abs(x.grad)), 1e-8)
    assert rel.max() < 1e-4

    for name, p in named_tensors(params):
        if name not in ("experts.w_in", "experts.w_out") and "router" not in name:
            continue
        grad = p.grad if p.grad is not None else np.zeros_like(p.data)
        saved = p.data.copy()

        def param_loss(t, p=p, saved=saved):
            p.data = t.data
            try:
                return loss_fn(Tensor(x_base)).item()
            finally:
                p.data = saved

        fd_p = finite_difference_grad(param_loss, Tensor(saved), h=1e-6)
        err = np.abs(grad - fd_p.data) / np.maximum(np.maximum(np.abs(fd_p.data), np.abs(grad)), 1e-6)
        assert err.max() < 1e-4, name


def test_expert_relabeling_symmetry():
    cfg = make_config(d=4, e=4, k=2, dense=8)
    params = init_params(cfg, np.random.default_rng(19))
    x = Tensor(np.random.default_rng(7).normal(size=(2, 3, 4)))
    strategy = get_strategy("token-choice")
    base = moe_forward(x, params, strategy, "sigmoid", cfg.k, "train").y.data

    perm = [2, 0, 3, 1]
    permuted = MoeLayerParams(
        router_w=params.router_w,
        router_b=params.router_b,
        gate_w=Tensor(params.gate_w.data[:, perm]),
        gate_b=Tensor(params.gate_b.data[perm]),
        target_w=params.target_w,
        target_b=params.target_b,
        experts=ExpertParams(w_in=Tensor(params.experts.w_in.data[perm]), w_out=Tensor(params.experts.w_out.data[perm])),
        threshold=ThresholdState(),
    )
    out = moe_forward(x, permuted, strategy, "sigmoid", cfg.k, "train").y.data
    assert np.allclose(out, base, atol=1e-12)


def test_count_params_one_in_one_equals_dense_ffn():
    params = init_params(make_config(d=8, e=1, k=1, dense=32), np.random.default_rng(0))
    assert params.experts.w_in.shape == (1, 8, 32) and params.experts.w_out.shape == (1, 32, 8)


def test_activated_params_invariant_across_family():
    # k experts of a k-in-E layer hold exactly the dense FFN's weight count
    activated = set()
    for k, e in [(2, 8), (4, 16), (8, 32)]:
        params = init_params(make_config(d=64, e=e, k=k, dense=256), np.random.default_rng(0))
        activated.add(k * (params.experts.w_in.size + params.experts.w_out.size) // e)
    assert activated == {64 * 256 + 256 * 64}


def test_layer_output_carries_target_head_prediction():
    cfg = make_config()
    params = init_params(cfg, np.random.default_rng(23))
    x = Tensor(np.random.default_rng(8).normal(size=(2, 3, cfg.model_dim)))
    out = moe_forward(x, params, get_strategy("expert-race"), "identity", cfg.k, "train")
    assert out.y_hat.shape == (2, 3, cfg.model_dim)
    assert np.allclose(out.y_hat.data, params.target_prediction(params.router_trunk(x)).data)


def dense_masked_reference(x, params, strategy, gating, k, mode):
    """The dispatch moe_forward replaced: every expert on every token, each
    output weighted by its gate column (picked out with a 0/1 matmul)."""
    logits = params.gating_logits(params.router_trunk(x))
    result = route(logits, strategy, gating, mode, params.threshold, k=k)
    E = params.experts.w_in.shape[0]
    y = None
    for i in range(E):
        sel = np.zeros((E, 1))
        sel[i, 0] = 1.0
        term = plain_ffn(expert(params, i), x) * matmul(result.gated * Tensor(result.mask), Tensor(sel))
        y = term if y is None else y + term
    return y, result


def assert_close(got, want, what):
    """Within 1e-12 of the reference's largest magnitude; exact where it is all zero."""
    scale = np.abs(want).max()
    assert np.abs(got - want).max() <= 1e-12 * scale, what


@pytest.mark.parametrize("case", ["train", "eval", "infer"])
@pytest.mark.parametrize("gating", ["identity", "sigmoid", "softmax"])
@pytest.mark.parametrize("strategy_name", sorted(STRATEGIES))
def test_gathered_dispatch_matches_dense_masked_oracle(strategy_name, gating, case):
    # train: top-K on a fresh layer; eval: top-K on a layer whose threshold
    # is set, as Trainer.forward evaluates a trained model; infer: that threshold
    mode = "infer" if case == "infer" else "train"
    cfg = make_config(d=4, e=4, k=2, dense=8)
    strategy = get_strategy(strategy_name)
    rng = np.random.default_rng(29)
    x_base = rng.normal(size=(2, 4, 4))
    probe = Tensor(rng.normal(size=(2, 4, 4)))

    def build():
        params = init_params(cfg, np.random.default_rng(31))
        params.gate_b.data = np.array([0.0, 0.0, 0.0, -30.0])  # expert 3 is all but never wanted
        if case != "train":
            # between the lowest per-token best score and the highest
            # per-token second-best one: some token gets no expert, another
            # at least two, and expert 3 none
            gated = GATING_FUNCTIONS[gating](params.gating_logits(params.router_trunk(Tensor(x_base)))).data
            top = np.sort(gated, axis=-1)
            params.threshold.tau = float(top[..., -1].min() + top[..., -2].max()) / 2.0
        return params

    runs = []
    for reference in (False, True):
        params = build()
        tau = params.threshold.tau
        x = Tensor(x_base, requires_grad=True)
        if reference:
            y, result = dense_masked_reference(x, params, strategy, gating, cfg.k, mode)
        else:
            out = moe_forward(x, params, strategy, gating, cfg.k, mode)
            y, result = out.y, out.route
        backward((y * probe).sum())
        runs.append((y.data, result.mask, x.grad, {name: t.grad for name, t in named_tensors(params)}))
        assert params.threshold.tau == tau  # routing writes no threshold
    (y, mask, gx, grads), (y_ref, mask_ref, gx_ref, grads_ref) = runs

    assert np.array_equal(mask, mask_ref)
    if mode == "infer":
        active = mask.sum(axis=-1)
        assert active.min() == 0 and active.max() >= 2
        assert mask[..., 3].sum() == 0
    assert_close(y, y_ref, "y")
    assert_close(gx, gx_ref, "dL/dx")
    assert {n for n, g in grads.items() if g is None} == {n for n, g in grads_ref.items() if g is None} == UNREAD_BY_Y
    for name, g in grads.items():
        if name not in UNREAD_BY_Y:
            assert_close(g, grads_ref[name], name)
    for i in range(cfg.num_experts):
        if mask[..., i].sum() == 0:
            assert np.array_equal(grads["experts.w_in"][i], np.zeros((4, 4)))
            assert np.array_equal(grads["experts.w_out"][i], np.zeros((4, 4)))

