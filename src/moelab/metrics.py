"""Routing-quality observables.

Everything here is pure and operates on detached masks and scores:
the selection objective (sum of selected scores in the strategy view),
the worst-expert overload ratio, the pairwise combination-usage ratio,
experts-per-token profiles bucketed by diffusion timestep, and the quality
of diffusion samples and predictions measured against the synthetic task's
known law.

`routing_report` turns a stack of masks (a model's layers, or a block of
route-sim draws) into the one set of records that the train log, `metrics`,
`ablate` and `route-sim` all write from.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .routing import ConfigError, NumericError

__all__ = [
    "routing_objective",
    "max_violation",
    "CombinationUsage",
    "combination_usage",
    "AllocationProfile",
    "allocation_profile",
    "routing_report",
    "report_mean",
    "SampleQuality",
    "sample_quality",
    "excess_loss",
]


def routing_objective(scores2d: np.ndarray, mask2d: np.ndarray) -> float:
    """Sum of selected scores in the (D_A, D_B) view; the quantity every
    strategy maximizes subject to its row constraints.

    A sum's order follows its operand's memory layout. The product is laid
    out like scores2d, so the result depends on the view alone, not on how
    the mask is laid out.
    """
    if scores2d.shape != mask2d.shape:
        raise ConfigError(f"scores {scores2d.shape} vs mask {mask2d.shape}")
    return float(np.multiply(scores2d, mask2d, out=np.empty_like(scores2d, dtype=np.float64)).sum())


def _expert_loads(masks: np.ndarray) -> np.ndarray:
    """(R, E) selections per expert of a stack of R masks shaped (R, ..., E).

    Taken as a product with ones, which sums 0/1 selections exactly, as any
    order does, at a fraction of the cost of a sum over the token axis.
    """
    flat = masks.reshape(masks.shape[0], -1, masks.shape[-1])
    return np.ones(flat.shape[1]) @ flat


def _max_violations(loads: np.ndarray, k: int, T: int) -> np.ndarray:
    """max_violation of each row of (R, E) expert loads over T tokens."""
    expected = k * T / loads.shape[-1]
    if expected <= 0:
        raise ConfigError("expected load is zero; check k and token count")
    return (loads.max(axis=1) - expected) / expected


def max_violation(mask: np.ndarray, k: int) -> float:
    """(max expert load - expected load) / expected load.

    Expected load is k * T / E with T the token count: the per-expert share
    of the total selection budget. 0 means perfectly balanced; E - 1 means
    one expert absorbed everything.
    """
    if mask.ndim < 2:
        raise ConfigError(f"mask must end in an expert axis, got shape {mask.shape}")
    return float(_max_violations(_expert_loads(mask[None]), k, mask.size // mask.shape[-1])[0])


@lru_cache(maxsize=8)
def _upper_pairs(E: int) -> tuple[np.ndarray, np.ndarray]:
    """np.triu_indices(E, 1), built once per expert count and read-only."""
    rows, cols = np.triu_indices(E, k=1)
    rows.setflags(write=False)
    cols.setflags(write=False)
    return rows, cols


def _co_selections(masks: np.ndarray) -> np.ndarray:
    """(R, E*(E-1)/2) co-selection counts of each unordered expert pair
    (i < j, in lexicographic order) for each mask of an (R, ..., E) stack.

    Token t contributes one count to every pair inside its active set, so
    a mask's counts total sum_t C(a_t, 2).
    """
    E = masks.shape[-1]
    flat = masks.reshape(masks.shape[0], -1, E)
    co = np.matmul(flat.transpose(0, 2, 1), flat)  # co[r, i, j] = tokens with both i and j active
    rows, cols = _upper_pairs(E)
    return co[:, rows, cols]


@dataclass
class CombinationUsage:
    """ratio = fraction of expert pairs carrying the bulk of co-selections."""

    ratio: float
    no_pairs: bool  # no token activated >= 2 experts


def _combination_usages(masks: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(ratio, no_pairs) arrays of combination_usage over an (R, ..., E) stack, E >= 2."""
    counts = _co_selections(masks)
    n_bins = counts.shape[1]
    total = counts.sum(axis=1, keepdims=True)
    no_pairs = total[:, 0] == 0
    ordered = np.sort(counts, axis=1)[:, ::-1] / np.where(no_pairs[:, None], 1.0, total)
    cum = np.cumsum(ordered, axis=1)
    active = np.count_nonzero(cum < 0.95, axis=1)
    return np.where(no_pairs, 0.0, active / n_bins), no_pairs


def combination_usage(mask: np.ndarray) -> CombinationUsage:
    """Sort pair counts descending, normalize, and count the bins whose
    running cumulative sum (own mass included) stays strictly below the
    paper's cutoff of 0.95; the ratio is that count over C(E, 2).
    """
    E = mask.shape[-1]
    if E < 2:
        raise ConfigError("combination usage needs E >= 2")
    ratio, no_pairs = _combination_usages(mask[None])
    return CombinationUsage(ratio=float(ratio[0]), no_pairs=bool(no_pairs[0]))


@dataclass
class AllocationProfile:
    """Mean active experts per token, bucketed by diffusion timestep.

    means[b] is NaN exactly when bucket b saw no samples (missing, not
    zero).
    """

    means: np.ndarray  # (buckets,)

    @property
    def bucket_variance(self) -> float:
        """Variance of the non-missing bucket means."""
        valid = self.means[~np.isnan(self.means)]
        if valid.size == 0:
            return float("nan")
        return float(np.var(valid))


def allocation_profile(
    masks: np.ndarray,
    timesteps: np.ndarray,
    t_max: int,
    buckets: int = 50,
) -> AllocationProfile:
    """Bucket per-sample mean experts-per-token by timestep.

    masks: (N, L, E) routing masks, one per sample; timesteps: (N,) the
    sample's diffusion step in [0, t_max], split into `buckets` equal
    buckets. A timestep outside that range, or NaN, raises ConfigError
    naming the first one.
    """
    masks = np.asarray(masks, dtype=np.float64)
    timesteps = np.asarray(timesteps)
    if masks.ndim != 3 or timesteps.shape[0] != masks.shape[0]:
        raise ConfigError(
            f"need (N, L, E) masks and (N,) timesteps, got {masks.shape} / {timesteps.shape}"
        )
    outside = ~((timesteps >= 0) & (timesteps <= t_max))  # NaN is outside too
    if outside.any():
        raise ConfigError(f"timestep {timesteps[np.argmax(outside)]} is outside [0, {t_max}]")
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
    return AllocationProfile(means=means)


def routing_report(
    masks: np.ndarray,
    k: int,
    t: np.ndarray | None = None,
    t_max: int | None = None,
) -> list[dict]:
    """One record per mask of an (R, N, L, E) stack of routing masks (a
    model's layers, or a block of route-sim draws): max_vio, comb_usage,
    comb_no_pairs, mean_active (experts per token) and, given the samples'
    (N,) timesteps t and the schedule length t_max,
    allocation_bucket_variance. A single expert has no pairs: comb_usage
    0.0 with comb_no_pairs true. Each record is bit-equal to its mask's own;
    the stack is read in one pass, but allocation_bucket_variance per mask.
    """
    if t is not None and t_max is None:
        raise ConfigError("allocation by timestep needs t_max")
    if len(masks) == 0:
        return []
    masks = np.ascontiguousarray(masks)  # one copy of a strided stack, then views
    R, E = masks.shape[0], masks.shape[-1]
    T = masks[0].size // E
    if E >= 2:
        ratios, no_pairs = _combination_usages(masks)
    else:
        ratios, no_pairs = np.zeros(R), np.ones(R, dtype=bool)
    loads = _expert_loads(masks)
    # 0/1 selections sum exactly: equals mask.sum(-1).mean() bit for bit
    mean_active = loads.sum(axis=1) / T
    records = [
        {"max_vio": vio, "comb_usage": ratio, "comb_no_pairs": flag, "mean_active": active}
        for vio, ratio, flag, active in zip(
            _max_violations(loads, k, T).tolist(), ratios.tolist(), no_pairs.tolist(), mean_active.tolist()
        )
    ]
    if t is not None:
        for record, mask in zip(records, masks):
            record["allocation_bucket_variance"] = allocation_profile(mask, t, t_max).bucket_variance
    return records


def report_mean(records: list[dict], key: str) -> float:
    """Mean of one report field over records (layers, or draws); NaN for none."""
    return float(np.mean([r[key] for r in records])) if records else float("nan")


@dataclass
class SampleQuality:
    """How close samples come to the task's exact law (see sample_quality)."""

    accuracy: float  # share of samples whose most likely class is their label
    sd_ratio: np.ndarray  # (L,) per-token SD about the class mean / token_sigma
    log_likelihood: float  # mean log-density per dimension under the mixture


def sample_quality(x: np.ndarray, c: np.ndarray, task) -> SampleQuality:
    """Score (N, L, D) samples x drawn for the (N,) class labels c against
    a SyntheticTask's exact law, where class k's x0 has independent
    N(means[k], token_sigma[l]^2) entries.

    accuracy: the argmax over classes of the exact per-class Gaussian
    log-density, compared with c. sd_ratio: (x - means[c]).std(axis=(0, 2))
    / token_sigma, 1 at every token for draws of the law. log_likelihood:
    the mean over samples of the log-density under the uniform-prior
    mixture, divided by L * D; fresh draws of the default task read about
    -0.53. The mixture sum is a max-shifted log-sum-exp.
    """
    x = np.asarray(x, dtype=np.float64)
    c = np.asarray(c)
    means, sigma = task.means, task.token_sigma
    if x.ndim != 3 or x.shape[1:] != means.shape[1:] or c.shape != x.shape[:1]:
        raise ConfigError(f"need (N, {', '.join(map(str, means.shape[1:]))}) samples and (N,) labels, "
                          f"got {x.shape} / {c.shape}")
    classes = means.shape[0]
    if c.dtype.kind not in "iu" or np.any((c < 0) | (c >= classes)):
        raise ConfigError(f"labels must be integers in [0, {classes}), got {c[:8].tolist()}")
    if not np.isfinite(x).all():
        raise NumericError(f"samples hold {np.count_nonzero(~np.isfinite(x))} non-finite values")
    N, L, D = x.shape
    inv_sigma = (1.0 / sigma)[:, None]
    constant = -D * np.log(sigma).sum() - 0.5 * L * D * np.log(2.0 * np.pi)
    log_density = np.empty((N, classes))
    for k in range(classes):
        z = (x - means[k]) * inv_sigma
        log_density[:, k] = -0.5 * np.einsum("nld,nld->n", z, z) + constant
    top = log_density.max(axis=1)
    mixture = top + np.log(np.exp(log_density - top[:, None]).sum(axis=1)) - np.log(classes)
    return SampleQuality(
        accuracy=float(np.mean(log_density.argmax(axis=1) == c)),
        sd_ratio=(x - means[c]).std(axis=(0, 2)) / sigma,
        log_likelihood=float(mixture.mean() / (L * D)),
    )


def excess_loss(prediction: np.ndarray, batch, task, schedule, parameterization: str) -> float:
    """The MSE of `prediction` against a DiffusionBatch's target batch.y,
    minus the MSE of task.optimal_prediction, the Bayes-optimal denoiser, on
    the same batch. It is 0 for the oracle itself; for any other prediction
    made from (x_t, t, c) its expectation is the mean squared distance to
    the oracle, so it is below 0 only by chance.
    """
    prediction = np.asarray(prediction, dtype=np.float64)
    if prediction.shape != batch.y.shape:
        raise ConfigError(f"prediction {prediction.shape} vs target {batch.y.shape}")
    oracle = task.optimal_prediction(batch.x_t, batch.t, batch.c, schedule, parameterization)
    return float(np.mean((prediction - batch.y) ** 2) - np.mean((oracle - batch.y) ** 2))
