"""Top-K routing over token-expert affinity scores.

A score tensor S of shape (B, L, E) is permuted and reshaped into a matrix
S' of shape (D_A, D_B): D_A independent selection rows, each choosing its
top-K out of a candidate pool of size D_B. The six strategies differ only
in which of the three axes land in the rows and which in the pool:

    strategy        D_A      D_B        K
    token-choice    B*L      E          k
    expert-choice   B*E      L          k*L/E
    bl-choice       E        B*L        B*L*k/E
    be-choice       L        B*E        B*k
    le-choice       B        L*E        L*k
    expert-race     1        B*L*E      B*L*k

k is the average number of active experts per token, so the total number
of selected entries is always B*L*k regardless of strategy. K must come
out to a positive integer; configurations where it does not are rejected.

Training mode selects exact row-wise top-K and returns each row's K-th
largest score; Trainer.train_step folds their mean into tau, an EMA, with
ema_update. Inference applies tau as a scalar threshold, which decouples
each sample's mask from the rest of the batch.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Literal

import numpy as np

from .tensor import Tensor, sigmoid, softmax

__all__ = [
    "ConfigError",
    "StateError",
    "NumericError",
    "RoutingStrategy",
    "STRATEGIES",
    "get_strategy",
    "GATING_FUNCTIONS",
    "ThresholdState",
    "RouteResult",
    "effective_k",
    "reshape_scores",
    "scatter_mask",
    "topk_mask",
    "ema_update",
    "route",
]

Axis = Literal["B", "L", "E"]
_AXIS_INDEX = {"B": 0, "L": 1, "E": 2}


class ConfigError(ValueError):
    """Invalid routing configuration (bad strategy, non-integral K, ...)."""


class StateError(RuntimeError):
    """Routing state used before it was initialized."""


class NumericError(RuntimeError):
    """Non-finite scores, loss or state; carries a diagnostic breakdown."""


@dataclass(frozen=True)
class RoutingStrategy:
    """A dimension assignment: which axes form selection rows vs the pool."""

    name: str
    row_dims: tuple[Axis, ...]  # axes of D_A, in order
    pool_dims: tuple[Axis, ...]  # axes of D_B, in order

    def __post_init__(self):
        combined = set(self.row_dims) | set(self.pool_dims)
        if combined != {"B", "L", "E"} or len(self.row_dims) + len(self.pool_dims) != 3:
            raise ConfigError(
                f"strategy {self.name!r}: row/pool dims must partition {{B, L, E}}, "
                f"got rows={self.row_dims} pool={self.pool_dims}"
            )

    def extents(self, B: int, L: int, E: int) -> tuple[int, int]:
        """(D_A, D_B) for a score tensor of shape (B, L, E)."""
        sizes = {"B": B, "L": L, "E": E}
        return math.prod(sizes[d] for d in self.row_dims), math.prod(sizes[d] for d in self.pool_dims)


STRATEGIES: dict[str, RoutingStrategy] = {
    s.name: s
    for s in (
        RoutingStrategy("token-choice", ("B", "L"), ("E",)),
        RoutingStrategy("expert-choice", ("B", "E"), ("L",)),
        RoutingStrategy("bl-choice", ("E",), ("B", "L")),
        RoutingStrategy("be-choice", ("L",), ("B", "E")),
        RoutingStrategy("le-choice", ("B",), ("L", "E")),
        RoutingStrategy("expert-race", (), ("B", "L", "E")),
    )
}

_BY_KEY = {name.replace("-", ""): strategy for name, strategy in STRATEGIES.items()}


def get_strategy(name: str) -> RoutingStrategy:
    """Look a strategy up by name, ignoring case, '-', '_' and outer whitespace."""
    strategy = _BY_KEY.get(name.strip().lower().replace("_", "").replace("-", ""))
    if strategy is None:
        raise ConfigError(f"unknown strategy {name!r}; choose from {sorted(STRATEGIES)}")
    return strategy


# ----------------------------------------------------------------------
# gating


def _identity_gating(s: Tensor) -> Tensor:
    return s


# identity keeps raw logits; sigmoid is elementwise; softmax normalizes each
# (b, l) slice over the expert axis. DenoiserConfig checks the name.
GATING_FUNCTIONS: dict[str, Callable[[Tensor], Tensor]] = {
    "identity": _identity_gating,
    "sigmoid": sigmoid,
    "softmax": softmax,
}


# ----------------------------------------------------------------------
# score shaping and selection


def effective_k(strategy: RoutingStrategy, B: int, L: int, E: int, k: int) -> int:
    """Per-row selection budget K = (k / E) * D_B, required to be integral.

    Rejects non-integral results instead of rounding: a configuration like
    expert-choice with E not dividing k*L has no exact budget.
    """
    if min(B, L, E) < 1:
        raise ConfigError(f"extents must be >= 1, got B={B} L={L} E={E}")
    if not (1 <= k <= E):
        raise ConfigError(f"k must satisfy 1 <= k <= E, got k={k} E={E}")
    _, d_b = strategy.extents(B, L, E)
    total = k * d_b
    if total % E != 0:
        raise ConfigError(
            f"strategy {strategy.name!r}: K = k*D_B/E = {k}*{d_b}/{E} is not an integer; "
            f"E must divide k*D_B"
        )
    return total // E


def _permutation(strategy: RoutingStrategy, lead: int) -> tuple[int, ...]:
    """Axis order putting the row dims, then the pool dims, after `lead` leading axes."""
    return tuple(range(lead)) + tuple(lead + _AXIS_INDEX[d] for d in strategy.row_dims + strategy.pool_dims)


def reshape_scores(scores: np.ndarray, strategy: RoutingStrategy) -> np.ndarray:
    """Permute and reshape (B, L, E) scores into the (D_A, D_B) view.

    A block of n draws, (n, B, L, E), becomes one (n*D_A, D_B) view whose
    rows i*D_A .. (i+1)*D_A - 1 are draw i's view.
    """
    if scores.ndim not in (3, 4):
        raise ConfigError(f"scores must be (B, L, E) or (n, B, L, E), got {scores.shape}")
    _, d_b = strategy.extents(*scores.shape[-3:])
    return scores.transpose(_permutation(strategy, scores.ndim - 3)).reshape(-1, d_b)


def scatter_mask(mask2d: np.ndarray, strategy: RoutingStrategy, shape: tuple[int, ...]) -> np.ndarray:
    """Inverse of reshape_scores: map a (D_A, D_B) mask back to shape (B, L, E),
    or a block's (n*D_A, D_B) mask back to shape (n, B, L, E)."""
    perm = _permutation(strategy, len(shape) - 3)
    return mask2d.reshape(tuple(shape[p] for p in perm)).transpose(tuple(np.argsort(perm)))


def topk_mask(scores2d: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Row-wise binary mask with exactly k ones per row, and each row's K-th
    largest value: (mask, kth). For k=0 the mask is all zero and kth is +inf.

    One partition per row finds its K-th largest value in O(D_B). The row
    keeps every entry above that value and, of the entries equal to it, the
    lowest-index ones until it holds k: the order a stable argsort on the
    negated scores gives, so identical inputs always produce identical
    masks. +-inf are ordinary values here. K outside [0, D_B] raises
    ConfigError. NaN raises NumericError: it has no place in the order, and a
    partition would quietly select fewer than k entries. kth is a copy, not
    a view that would keep the partitioned scores alive.
    """
    d_b = scores2d.shape[1]
    if not 0 <= k <= d_b:
        raise ConfigError(f"K={k} must lie in [0, D_B={d_b}]")
    nan = np.count_nonzero(np.isnan(scores2d))
    if nan:
        raise NumericError(f"{nan} NaN scores of {scores2d.size}; top-K selection needs ordered values")
    if k == 0:  # the partition below has no index d_b - 0
        return np.zeros_like(scores2d, dtype=np.float64), np.full(scores2d.shape[0], np.inf)
    kth = np.partition(scores2d, d_b - k, axis=1)[:, d_b - k].copy()
    mask = scores2d >= kth[:, None]
    # A row holds more than k entries >= its K-th value only where entries
    # tied with it do not all fit in the budget; every row holds at least k,
    # so one total count rules that out for all rows at once.
    if np.count_nonzero(mask) > mask.shape[0] * k:
        over = np.flatnonzero(np.count_nonzero(mask, axis=1) > k)
        rows, cut = scores2d[over], kth[over, None]
        tied = rows == cut
        room = k - np.count_nonzero(rows > cut, axis=1, keepdims=True)
        mask[over] = (rows > cut) | (tied & (np.cumsum(tied, axis=1) <= room))
    return mask.astype(np.float64), kth


# ----------------------------------------------------------------------
# threshold state


@dataclass
class ThresholdState:
    """Trainer.train_step's EMA of the mean per-row K-th largest score.

    tau starts unset; the first update adopts the batch statistic directly
    (warm start), after which tau <- m*tau + (1-m)*mean(kth values), with
    m = momentum. One instance per MoE layer; its tau is checkpointed.
    """

    momentum = 0.99
    tau: float | None = None

    @property
    def initialized(self) -> bool:
        return self.tau is not None


def ema_update(state: ThresholdState, kth_values: np.ndarray) -> ThresholdState:
    """Fold one batch of per-row K-th values into the threshold (in place)."""
    batch_stat = float(np.mean(kth_values))
    if not state.initialized:
        state.tau = batch_stat
    else:
        state.tau = state.momentum * state.tau + (1.0 - state.momentum) * batch_stat
    return state


# ----------------------------------------------------------------------
# the full routing pass


@dataclass
class RouteResult:
    """Outcome of one routing pass.

    mask: binary (B, L, E) ndarray of selected token-expert pairs.
    gated: Tensor (B, L, E), gating(scores) unmasked; moe_forward reads it
        only at the selected pairs, so gradient flows through the selected
        gate values only, never through the selection itself.
    kth_values: per-row K-th largest gated score (train mode; None in
        infer mode, where the mask came from the threshold).
    """

    mask: np.ndarray
    gated: Tensor
    kth_values: np.ndarray | None


def route(
    scores: Tensor,
    strategy: RoutingStrategy,
    gating: str,
    mode: Literal["train", "infer"],
    state: ThresholdState,
    k: int = 1,
) -> RouteResult:
    """Gate the scores and select token-expert pairs from them.

    Train mode: exact row-wise top-K on the gated scores of the strategy's
    (D_A, D_B) view, with each row's K-th value, from the same partition,
    in `kth_values` for the caller's ema_update. Infer mode: elementwise
    mask = gated score >= tau, so each sample's routing depends only on its
    own scores; activation counts may vary per token. Neither mode writes
    `state`.

    Softmax gating over a single expert gives gates of exactly 1.0 and
    passes exactly zero gradient to the logits, so a 1-in-1 softmax layer
    is the unit-gated dense twin. Scores holding NaN or inf raise
    NumericError with their count.
    """
    if scores.data.ndim != 3:
        raise ConfigError(f"scores must be (B, L, E), got {scores.shape}")
    bad = scores.size - np.count_nonzero(np.isfinite(scores.data))
    if bad:
        raise NumericError(f"router scores have {bad} non-finite entries of {scores.size}")
    B, L, E = scores.shape
    gated = GATING_FUNCTIONS[gating](scores)

    if mode == "train":
        budget = effective_k(strategy, B, L, E, k)
        mask2d, kth = topk_mask(reshape_scores(gated.data, strategy), budget)
        mask = scatter_mask(mask2d, strategy, (B, L, E))
    elif mode == "infer":
        if not state.initialized:
            raise StateError("inference routing needs an initialized threshold; train first or load one")
        mask = (gated.data >= state.tau).astype(np.float64)
        kth = None
    else:
        raise ConfigError(f"mode must be 'train' or 'infer', got {mode!r}")

    return RouteResult(mask=mask, gated=gated, kth_values=kth)
