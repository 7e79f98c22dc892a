"""A small residual denoiser whose FFNs are MoE blocks.

Stand-in for a transformer backbone at desk scale: each block applies an
adaptive scale/shift computed from the (timestep, class) embedding, a
token-mixing linear map in place of attention, and the MoE block, joined
to the residual stream through a zero-initialized gate. With all adaptive
output layers zero-initialized the whole network starts as the identity
residual path and predicts exactly zero. The dense twin is a setting, not
another block: one expert, k=1 and softmax gating, which gates every token
by exactly 1.0 (layer.moe_forward).

A weight's name is its field path in DenoiserParams, such as
"block0.moe.experts.w_in"; layer.named_tensors lists them in declaration order.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import Literal

import numpy as np

from . import layer as moe_layer
from .diffusion import PARAMETERIZATIONS
from .layer import LayerOutput, MoeLayerParams, _xavier
from .routing import GATING_FUNCTIONS, ConfigError, NumericError, get_strategy
from .tensor import Tensor, gelu, matmul, take_cols, take_rows

__all__ = [
    "DenoiserConfig",
    "DenoiserParams",
    "BlockParams",
    "init_denoiser",
    "class_labels",
    "denoiser_forward",
    "is_integer",
    "check_field_types",
]


def is_integer(value) -> bool:
    """An int or a numpy integer, and not a bool (which Python counts as an int)."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


# a field's declared type -> the Python types its value may have, and their name
_FIELD_KINDS = {"int": (int, "an integer"), "float": ((int, float), "a number"), "str": (str, "a string")}


def check_field_types(config) -> None:
    """Every field of a config dataclass declared `int`, `float` or `str`
    must hold that kind of value; anything else raises ConfigError naming
    the field. A bool is no number; an int passes as a float and is
    stored as one. A numpy scalar is stored as the Python one, so the config
    still writes to JSON."""
    for f in fields(config):
        if f.type not in _FIELD_KINDS:
            continue
        kinds, noun = _FIELD_KINDS[f.type]
        value = getattr(config, f.name)
        plain = value.item() if isinstance(value, np.generic) else value
        if not isinstance(plain, kinds) or isinstance(plain, bool):
            raise ConfigError(f"{f.name} must be {noun}, got {value!r}")
        if f.type == "float":
            try:
                plain = float(plain)
            except OverflowError:  # not printed: str() refuses an int of over 4,300 digits
                raise ConfigError(f"{f.name} must be a finite number, got an int too large for a float") from None
        object.__setattr__(config, f.name, plain)


@dataclass(frozen=True)
class DenoiserConfig:
    layers: int = 4
    model_dim: int = 64
    tokens: int = 16
    num_classes: int = 4
    num_experts: int = 8  # E in the k-in-E layout: E experts of inner width dense_hidden / k
    k: int = 2
    dense_hidden: int = 256  # the dense FFN's inner width, 4 * the default model_dim
    strategy: str = "expert-race"
    gating: str = "identity"
    parameterization: Literal["eps", "x0", "v"] = "eps"
    total_steps: int = 100  # of the cosine noise schedule

    def __post_init__(self):
        """A bad value raises a ConfigError naming its field; the strategy name is made canonical.
        Each check is a bound that builds nothing: Trainer refuses sizes numpy cannot allocate."""
        check_field_types(self)
        for key in ("layers", "model_dim", "tokens", "num_classes", "dense_hidden"):
            if getattr(self, key) < 1:
                raise ConfigError(f"{key} must be >= 1, got {getattr(self, key)}")
        if self.k < 1 or self.num_experts < 1:
            raise ConfigError(f"k and num_experts must be >= 1, got {self.k}-in-{self.num_experts}")
        if self.k > self.num_experts:
            raise ConfigError(f"k={self.k} exceeds expert count {self.num_experts}")
        if self.dense_hidden % self.k != 0:
            raise ConfigError(
                f"k={self.k} must divide dense_hidden={self.dense_hidden} "
                f"(fine-grained split needs an exact width)"
            )
        object.__setattr__(self, "strategy", get_strategy(self.strategy).name)
        if self.gating not in GATING_FUNCTIONS:
            raise ConfigError(f"unknown gating {self.gating!r}; choose from {sorted(GATING_FUNCTIONS)}")
        if self.parameterization not in PARAMETERIZATIONS:
            raise ConfigError(f"unknown parameterization {self.parameterization!r}; use one of {PARAMETERIZATIONS}")
        if self.total_steps < 2:
            raise ConfigError(f"total_steps must be >= 2, got {self.total_steps}")


@dataclass
class BlockParams:
    mod_w: Tensor  # (D, 3D) -> scale, shift, gate; zero-initialized
    mod_b: Tensor  # (3D,)
    mix_w: Tensor  # (L, L) token-mixing map
    moe: MoeLayerParams


@dataclass
class DenoiserParams:
    config: DenoiserConfig
    in_w: Tensor
    in_b: Tensor
    class_emb: Tensor  # (num_classes, D)
    t_w1: Tensor
    t_b1: Tensor
    t_w2: Tensor
    t_b2: Tensor
    blocks: list[BlockParams]
    final_mod_w: Tensor  # (D, 2D) -> scale, shift; zero-initialized
    final_mod_b: Tensor
    out_w: Tensor  # (D, D) zero-initialized
    out_b: Tensor
    t_freqs: np.ndarray = field(init=False)

    def __post_init__(self):
        d = self.config.model_dim
        half = d // 2
        self.t_freqs = np.exp(-np.log(10000.0) * np.arange(half) / max(half - 1, 1))

    def named_tensors(self) -> list[tuple[str, Tensor]]:
        """Every weight as (path, tensor) in declaration order (layer.named_tensors)."""
        return moe_layer.named_tensors(self)

    def timestep_embedding(self, t: np.ndarray, total_steps: int) -> np.ndarray:
        """Sinusoidal features of t / T; a constant w.r.t. the parameters."""
        frac = np.asarray(t, dtype=np.float64) / total_steps
        args = frac[:, None] * self.t_freqs[None, :] * 1000.0
        emb = np.concatenate([np.sin(args), np.cos(args)], axis=1)
        d = self.config.model_dim
        if emb.shape[1] < d:  # odd model dim: pad with zeros
            emb = np.pad(emb, ((0, 0), (0, d - emb.shape[1])))
        return emb


def _zeros(*shape: int) -> Tensor:
    return Tensor(np.zeros(shape), requires_grad=True)


def init_denoiser(config: DenoiserConfig, rng: np.random.Generator) -> DenoiserParams:
    """Xavier-uniform linears, zero-initialized adaptive and output layers; draws from `rng`."""
    d, L = config.model_dim, config.tokens

    blocks = []
    for _ in range(config.layers):
        moe = moe_layer.init_params(config, rng)
        blocks.append(
            BlockParams(
                mod_w=_zeros(d, 3 * d),
                mod_b=_zeros(3 * d),
                mix_w=_xavier(rng, L, L),
                moe=moe,
            )
        )

    return DenoiserParams(
        config=config,
        in_w=_xavier(rng, d, d),
        in_b=_zeros(d),
        class_emb=Tensor(rng.normal(0.0, 0.02, size=(config.num_classes, d)), requires_grad=True),
        t_w1=_xavier(rng, d, d),
        t_b1=_zeros(d),
        t_w2=_xavier(rng, d, d),
        t_b2=_zeros(d),
        blocks=blocks,
        final_mod_w=_zeros(d, 2 * d),
        final_mod_b=_zeros(2 * d),
        out_w=_zeros(d, d),
        out_b=_zeros(d),
    )


def _split_cols(x: Tensor, parts: int) -> list[Tensor]:
    """Split (B, n*parts) into `parts` tensors of (B, 1, n)."""
    B, total = x.shape
    n = total // parts
    return [take_cols(x, p * n, (p + 1) * n).reshape(B, 1, n) for p in range(parts)]


def class_labels(c) -> np.ndarray:
    """Class labels as an intp array. Integer-valued floats such as 1.0 pass;
    any other label (1.9, nan, True) raises ConfigError instead of truncating.
    A list is checked element by element, as np.asarray reads [1, True] as
    [1, 1]."""
    if not isinstance(c, np.ndarray):
        for label in np.ravel(np.asarray(c, dtype=object)):
            if isinstance(label, (bool, np.bool_)):
                raise ConfigError(f"class label {label} is not an integer")
    c = np.asarray(c)
    if c.dtype == bool and c.size:
        raise ConfigError(f"class label {c.flat[0]} is not an integer")
    with np.errstate(invalid="ignore"):
        labels = c.astype(np.intp)
    bad = c[labels != c]
    if bad.size:
        raise ConfigError(f"class label {bad.flat[0]} is not an integer")
    return labels


def denoiser_forward(
    x_t: np.ndarray,
    t: np.ndarray,
    c: np.ndarray,
    params: DenoiserParams,
    mode: Literal["train", "infer"] = "train",
) -> tuple[Tensor, list[LayerOutput]]:
    """Predict the regression target; collect per-layer routing artifacts.

    Returns the prediction (B, L, D) and one LayerOutput per block.
    Non-finite router scores raise NumericError naming the block, with no
    numpy warning before it however the state overflowed; a non-finite
    prediction is returned as it is, for the caller's loss or sampler
    check. A class label that is not an integer raises ConfigError.
    """
    cfg = params.config
    strategy = get_strategy(cfg.strategy)

    # a diverging state overflows here first: the router check below names
    # the block, for every caller, instead of numpy warning before it
    with np.errstate(over="ignore", invalid="ignore"):
        x = Tensor(np.asarray(x_t, dtype=np.float64))
        h = matmul(x, params.in_w) + params.in_b

        t_feats = Tensor(params.timestep_embedding(t, cfg.total_steps))
        t_emb = matmul(gelu(matmul(t_feats, params.t_w1) + params.t_b1), params.t_w2) + params.t_b2
        cond = t_emb + take_rows(params.class_emb, class_labels(c))  # (B, D)

        layer_outputs: list[LayerOutput] = []
        for i, blk in enumerate(params.blocks):
            mods = matmul(cond, blk.mod_w) + blk.mod_b  # (B, 3D)
            scale, shift, gate = _split_cols(mods, 3)  # each (B, 1, D)
            u = h * (scale + 1.0) + shift
            # token mixing: contract the L axis with a learned (L, L) map
            u = matmul(u.transpose(0, 2, 1), blk.mix_w).transpose(0, 2, 1)
            try:
                out = moe_layer.moe_forward(u, blk.moe, strategy, cfg.gating, cfg.k, mode)
            except NumericError as exc:
                raise NumericError(f"block {i}: {exc}") from exc
            layer_outputs.append(out)
            h = h + out.y * gate

        f_scale, f_shift = _split_cols(matmul(cond, params.final_mod_w) + params.final_mod_b, 2)
        h = h * (f_scale + 1.0) + f_shift
        prediction = matmul(h, params.out_w) + params.out_b
    return prediction, layer_outputs
