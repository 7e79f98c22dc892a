"""Routing-quality observables.

Everything here is pure and operates on detached masks and scores:
the selection objective (sum of selected scores in the strategy view),
the worst-expert overload ratio, the pairwise combination-usage ratio,
and experts-per-token profiles bucketed by diffusion timestep.

`routing_report` turns per-layer masks into the one set of records that the
train log, `metrics`, `ablate` and `route-sim` all write from.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .routing import ConfigError

__all__ = [
    "routing_objective",
    "max_violation",
    "CombinationUsage",
    "combination_usage",
    "pair_counts",
    "AllocationProfile",
    "allocation_profile",
    "routing_report",
    "report_mean",
]


def routing_objective(scores2d: np.ndarray, mask2d: np.ndarray) -> float:
    """Sum of selected scores in the (D_A, D_B) view; the quantity every
    strategy maximizes subject to its row constraints."""
    if scores2d.shape != mask2d.shape:
        raise ConfigError(f"scores {scores2d.shape} vs mask {mask2d.shape}")
    return float((scores2d * mask2d).sum())


def max_violation(mask: np.ndarray, k: int) -> float:
    """(max expert load - expected load) / expected load.

    Expected load is k * T / E with T the token count: the per-expert share
    of the total selection budget. 0 means perfectly balanced; E - 1 means
    one expert absorbed everything.
    """
    if mask.ndim < 2:
        raise ConfigError(f"mask must end in an expert axis, got shape {mask.shape}")
    E = mask.shape[-1]
    flat = mask.reshape(-1, E)
    T = flat.shape[0]
    expected = k * T / E
    if expected <= 0:
        raise ConfigError("expected load is zero; check k and token count")
    loads = flat.sum(axis=0)
    return float((loads.max() - expected) / expected)


@lru_cache(maxsize=8)
def _upper_pairs(E: int) -> tuple[np.ndarray, np.ndarray]:
    """np.triu_indices(E, 1), built once per expert count and read-only."""
    rows, cols = np.triu_indices(E, k=1)
    rows.setflags(write=False)
    cols.setflags(write=False)
    return rows, cols


def pair_counts(mask: np.ndarray) -> np.ndarray:
    """Co-selection counts for each unordered expert pair (i < j).

    Token t contributes one count to every pair inside its active set, so
    the total equals sum_t C(a_t, 2). Returned in lexicographic pair order,
    length E*(E-1)/2.
    """
    E = mask.shape[-1]
    flat = mask.reshape(-1, E)
    co = flat.T @ flat  # co[i, j] = tokens with both i and j active
    return co[_upper_pairs(E)]


@dataclass
class CombinationUsage:
    """ratio = fraction of expert pairs carrying the bulk of co-selections."""

    ratio: float
    no_pairs: bool  # no token activated >= 2 experts


def combination_usage(mask: np.ndarray, cutoff: float = 0.95) -> CombinationUsage:
    """Sort pair counts descending, normalize, and count the bins whose
    running cumulative sum (own mass included) stays strictly below the
    cutoff; the ratio is that count over C(E, 2).
    """
    E = mask.shape[-1]
    if E < 2:
        raise ConfigError("combination usage needs E >= 2")
    counts = pair_counts(mask)
    n_bins = counts.size
    total = counts.sum()
    if total == 0:
        return CombinationUsage(ratio=0.0, no_pairs=True)
    ordered = np.sort(counts)[::-1] / total
    cum = np.cumsum(ordered)
    active = int((cum < cutoff).sum())
    return CombinationUsage(ratio=active / n_bins, no_pairs=False)


@dataclass
class AllocationProfile:
    """Mean active experts per token, bucketed by diffusion timestep.

    means[b] is NaN for buckets that saw no samples (missing, not zero);
    counts[b] is the number of tokens that landed in bucket b.
    """

    edges: np.ndarray  # (buckets + 1,) over [0, T]
    means: np.ndarray  # (buckets,)
    counts: np.ndarray  # (buckets,) tokens per bucket

    @property
    def bucket_variance(self) -> float:
        """Variance of the non-missing bucket means."""
        valid = self.means[~np.isnan(self.means)]
        if valid.size == 0:
            return float("nan")
        return float(np.var(valid))

    @property
    def overall_mean(self) -> float:
        """Token-weighted mean across buckets == global activation rate."""
        filled = np.where(np.isnan(self.means), 0.0, self.means)
        n = self.counts.sum()
        if n == 0:
            return float("nan")
        return float((filled * self.counts).sum() / n)


def allocation_profile(
    masks: np.ndarray,
    timesteps: np.ndarray,
    t_max: int,
    buckets: int = 50,
) -> AllocationProfile:
    """Bucket per-sample mean experts-per-token by timestep.

    masks: (N, L, E) routing masks, one per sample; timesteps: (N,) the
    sample's diffusion step in [0, t_max].
    """
    masks = np.asarray(masks, dtype=np.float64)
    timesteps = np.asarray(timesteps)
    if masks.ndim != 3 or timesteps.shape[0] != masks.shape[0]:
        raise ConfigError(
            f"need (N, L, E) masks and (N,) timesteps, got {masks.shape} / {timesteps.shape}"
        )
    edges = np.linspace(0.0, float(t_max), buckets + 1)
    per_token = masks.sum(axis=-1)  # (N, L) active experts per token
    # right-open buckets except the last, which absorbs t == t_max
    idx = np.clip(np.searchsorted(edges, timesteps, side="right") - 1, 0, buckets - 1)

    sums = np.zeros(buckets)
    counts = np.zeros(buckets, dtype=np.int64)
    L = masks.shape[1]
    np.add.at(sums, idx, per_token.sum(axis=-1))
    np.add.at(counts, idx, L)
    means = np.full(buckets, np.nan)
    nonzero = counts > 0
    means[nonzero] = sums[nonzero] / counts[nonzero]
    return AllocationProfile(edges=edges, means=means, counts=counts)


def routing_report(
    masks: list[np.ndarray],
    k: int,
    t: np.ndarray | None = None,
    t_max: int | None = None,
) -> list[dict]:
    """One record per layer from its (N, L, E) routing mask: max_vio,
    comb_usage, comb_no_pairs, mean_active (experts per token) and, given
    the samples' (N,) timesteps t and the schedule length t_max,
    allocation_bucket_variance. A single expert has no pairs: comb_usage
    0.0 with comb_no_pairs true.
    """
    if t is not None and t_max is None:
        raise ConfigError("allocation by timestep needs t_max")
    records = []
    for mask in masks:
        E = mask.shape[-1]
        usage = combination_usage(mask) if E >= 2 else CombinationUsage(ratio=0.0, no_pairs=True)
        record = {
            "max_vio": max_violation(mask, k),
            "comb_usage": usage.ratio,
            "comb_no_pairs": usage.no_pairs,
            # 0/1 selections sum exactly: equals mask.sum(-1).mean() bit for bit
            "mean_active": float(mask.sum() / (mask.size // E)),
        }
        if t is not None:
            record["allocation_bucket_variance"] = allocation_profile(mask, t, t_max).bucket_variance
        records.append(record)
    return records


def report_mean(records: list[dict], key: str) -> float:
    """Mean of one report field over records (layers, or draws); NaN for none."""
    return float(np.mean([r[key] for r in records])) if records else float("nan")
