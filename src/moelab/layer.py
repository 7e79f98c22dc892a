"""The MoE block that substitutes for a dense FFN.

Fine-grained segmentation: a k-in-E layer holds E experts whose inner width
is dense_hidden / k, so k experts applied to one token cost the dense FFN's
inner width budget. The router is a shared trunk (linear + GELU at model
width), computed once per forward, feeding two output heads: a gating head
producing the E affinity logits and a target head predicting the denoiser's
regression target, which drives the per-layer regularization loss.

An expert bank (ExpertParams) stacks its experts, w_in as (E, D, H) and
w_out as (E, H, D); the dense twin is a 1-in-1 layer with softmax gating,
whose bank of one is the dense FFN. expert_forward is the one FFN: two
segmented matmuls around one GELU, so each layer's graph has the same few
nodes whatever E is. Dispatch is grouped and dropless (MegaBlocks-style,
at desk scale; see moe_forward): the expert work is one row per selected
pair. No token is dropped and no capacity is padded. An expert given no
token runs on zero rows, so it adds nothing and gets an all-zero gradient.

Each parameter dataclass, here and in the denoiser, declares its tensors
once, as fields; `named_tensors` is the one list of them.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, is_dataclass
from typing import TYPE_CHECKING, Literal

import numpy as np

from . import routing
from .routing import RouteResult, RoutingStrategy, ThresholdState
from .tensor import Tensor, gelu, matmul, scatter_rows, segment_matmul, take_rows

if TYPE_CHECKING:  # denoiser imports this module
    from .denoiser import DenoiserConfig

__all__ = [
    "ExpertParams",
    "MoeLayerParams",
    "LayerOutput",
    "named_tensors",
    "xavier_bound",
    "init_experts",
    "init_params",
    "expert_forward",
    "moe_forward",
]


@dataclass
class ExpertParams:
    """E experts stacked, each linear -> GELU -> linear; a dense FFN is a bank of one.

    Bias-free keeps the activated parameter count exactly invariant across
    the k-in-E family at fixed model dim.
    """

    w_in: Tensor  # (E, D, expert_hidden) every expert's first linear
    w_out: Tensor  # (E, expert_hidden, D) every expert's second linear


@dataclass
class MoeLayerParams:
    router_w: Tensor  # (D, D) shared first layer
    router_b: Tensor  # (D,)
    gate_w: Tensor  # (D, E)
    gate_b: Tensor  # (E,)
    target_w: Tensor  # (D, D)
    target_b: Tensor  # (D,)
    experts: ExpertParams
    threshold: ThresholdState

    def router_trunk(self, x: Tensor) -> Tensor:
        """Shared first router layer gelu(x @ router_w + router_b), (..., D)."""
        return gelu(matmul(x, self.router_w) + self.router_b)

    def gating_logits(self, h: Tensor) -> Tensor:
        """Raw affinity logits (B, L, E) from the trunk output; no normalization."""
        return matmul(h, self.gate_w) + self.gate_b

    def target_prediction(self, h: Tensor) -> Tensor:
        """Per-token target prediction from the trunk output."""
        return matmul(h, self.target_w) + self.target_b


@dataclass
class LayerOutput:
    y: Tensor  # (B, L, D) mixed expert output
    route: RouteResult
    y_hat: Tensor  # (B, L, D) per-layer target prediction
    logits: Tensor  # (B, L, E) raw router logits, kept for the aux losses


def named_tensors(params, prefix: str = "") -> list[tuple[str, Tensor]]:
    """Every Tensor of a parameter dataclass as (path, tensor), in field
    declaration order. A nested dataclass recurses under "<field>."; a list
    numbers its items under the field name less its trailing "s" (`blocks`
    gives "block0."); None and any other value (a config, a threshold, an
    array) name nothing. A Trainer walks it once: AdamW's list and the EMA's
    keys come from that walk, and AdamW's list is the order each step, the
    EMA update and the checkpoint groups follow. So a Tensor field is
    trained, saved and averaged by being declared.
    """
    named = []
    for f in fields(params):
        value = getattr(params, f.name)
        if isinstance(value, Tensor):
            named.append((prefix + f.name, value))
        elif is_dataclass(value):
            named += named_tensors(value, f"{prefix}{f.name}.")
        elif isinstance(value, list):
            for i, item in enumerate(value):
                named += named_tensors(item, f"{prefix}{f.name.removesuffix('s')}{i}.")
    return named


def xavier_bound(fan_in: int, fan_out: int) -> float:
    return float(np.sqrt(6.0 / (fan_in + fan_out)))


def _xavier(rng: np.random.Generator, fan_in: int, fan_out: int) -> Tensor:
    b = xavier_bound(fan_in, fan_out)
    return Tensor(rng.uniform(-b, b, size=(fan_in, fan_out)), requires_grad=True)


def init_experts(rng: np.random.Generator, e: int, d: int, h: int, bound: float) -> ExpertParams:
    """A bank of e experts of inner width h, uniform in [-bound, bound]; draws
    run w_in[i], then w_out[i], for each expert i."""
    w_in, w_out = np.empty((e, d, h)), np.empty((e, h, d))
    for i in range(e):
        w_in[i] = rng.uniform(-bound, bound, size=(d, h))
        w_out[i] = rng.uniform(-bound, bound, size=(h, d))
    return ExpertParams(w_in=Tensor(w_in, requires_grad=True), w_out=Tensor(w_out, requires_grad=True))


def init_params(config: DenoiserConfig, seed_or_rng) -> MoeLayerParams:
    """Xavier-uniform init of one k-in-E layer of the config, deterministic under seed.

    Each expert's inner width is dense_hidden / k, but the bank draws from
    the dense FFN's Xavier bound, xavier_bound(D, dense_hidden), so the
    per-weight range matches the dense FFN despite the narrower expert width.
    Draws run router_w, gate_w, target_w, then the expert bank.
    """
    rng = seed_or_rng if isinstance(seed_or_rng, np.random.Generator) else np.random.default_rng(seed_or_rng)
    d, e, dense = config.model_dim, config.num_experts, config.dense_hidden
    return MoeLayerParams(
        router_w=_xavier(rng, d, d),
        router_b=Tensor(np.zeros(d), requires_grad=True),
        gate_w=_xavier(rng, d, e),
        gate_b=Tensor(np.zeros(e), requires_grad=True),
        target_w=_xavier(rng, d, d),
        target_b=Tensor(np.zeros(d), requires_grad=True),
        experts=init_experts(rng, e, d, dense // config.k, xavier_bound(d, dense)),
        threshold=ThresholdState(),
    )


def expert_forward(experts: ExpertParams, x: Tensor, offsets) -> Tensor:
    """Expert i's linear -> GELU -> linear on rows offsets[i]:offsets[i + 1] of the (rows, D)
    input x: segment_matmul over w_in (one GEMM per segment, even empty), GELU, segment_matmul over w_out."""
    return segment_matmul(gelu(segment_matmul(x, experts.w_in, offsets)), experts.w_out, offsets)


def moe_forward(
    x: Tensor,
    params: MoeLayerParams,
    strategy: RoutingStrategy,
    gating: str,
    k: int,
    mode: Literal["train", "infer"],
) -> LayerOutput:
    """Route, run experts, and combine: y[b,l] = sum over the selected i of
    gated[b,l,i] * E_i(x[b,l]).

    strategy, gating and k are the DenoiserConfig's; E is the bank's size.

    Grouped dispatch: the selected (expert, row) pairs are taken expert by
    expert, rows ascending within each expert, so expert i owns one
    contiguous segment of the pair list. One gather of x in that order
    feeds expert_forward; its outputs are scaled by the pairs' gate values
    (one gather of the flat gated scores, which applies the mask) and
    scatter-added into y in one op.
    Expert work is one row per selected pair: B*L*k in train mode,
    mask.sum() in infer mode; zero rows, and y = 0, when none is selected.
    The router trunk runs once and feeds both heads; the target head's
    prediction rides along for the per-layer regularization loss. A 1-in-1
    layer with softmax gating has every gate exactly 1.0, so y is exactly
    the dense FFN output of its bank of one: the dense twin.
    """
    h = params.router_trunk(x)
    logits = params.gating_logits(h)
    result = routing.route(logits, strategy, gating, mode, params.threshold, k=k)

    B, L, D = x.shape
    E = params.experts.w_in.shape[0]
    experts_of, rows = np.nonzero(result.mask.reshape(B * L, E).T)
    offsets = np.concatenate(([0], np.cumsum(np.bincount(experts_of, minlength=E))))
    x_pairs = take_rows(x.reshape(B * L, D), rows)  # (pairs, D), expert-major
    out = expert_forward(params.experts, x_pairs, offsets)
    gates = take_rows(result.gated.reshape(B * L * E, 1), rows * E + experts_of)
    y = scatter_rows(out * gates, rows, B * L).reshape(B, L, D)

    y_hat = params.target_prediction(h)
    return LayerOutput(y=y, route=result, y_hat=y_hat, logits=logits)
