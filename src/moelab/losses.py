"""Training objectives: diffusion regression plus the routing regularizers.

The auxiliary losses are formulas over the same pair of (tokens x experts)
matrices: M, the binary selection indicator from the routing mask, and P,
softmax-normalized router probabilities. M is a constant (the selection is
discrete); gradients reach the router only through P.

The router similarity loss extends the classic balance loss from single
experts to expert pairs. Both correlation matrices M' = M^T M and
P' = P^T P are E x E; M' counts co-selections, P' accumulates joint
routing probability. The weighting normalizes the diagonal and
off-diagonal blocks separately (E and E^2 - E terms respectively), which
pins the constant-score configuration at loss value 1 regardless of
expert count, k, or token count. With one expert both losses are
constant (1, up to the rounding of their 1/T scales) with zero gradient,
so Trainer.loss leaves them out.

total_loss adds the per-layer regularization (PLR), router similarity and
balance losses to the diffusion loss, scaled by the weights w_plr, w_sim
and w_blc that TrainerConfig holds.
"""

from __future__ import annotations

import numpy as np

from .routing import ConfigError
from .tensor import Tensor, softmax

__all__ = [
    "aux_inputs_from_routing",
    "balance_loss",
    "correlation_matrices",
    "similarity_weights",
    "router_similarity_loss",
    "layer_mean",
    "per_layer_reg_loss",
    "diffusion_loss",
    "total_loss",
]


def aux_inputs_from_routing(mask: np.ndarray, logits: Tensor) -> tuple[np.ndarray, Tensor]:
    """(M, P): a (B, L, E) routing mask and logits flattened to T = B*L rows.

    P is always the softmax of the raw logits over experts, independent of
    the gating function used for output mixing.
    """
    B, L, E = mask.shape
    return mask.reshape(B * L, E), softmax(logits.reshape(B * L, E), axis=-1)


def balance_loss(M: np.ndarray, P: Tensor, k: int) -> Tensor:
    """sum_i f_i * P_i: per-expert load ratio times mean routing probability.

    f_i = (E / (k*T)) * sum_t M[t,i] is expert i's share of selections
    relative to the uniform share; k*T is the expected total selection
    count, which keeps the loss well defined for strategies whose
    per-token counts vary. A perfectly uniform configuration scores 1.
    """
    T, E = M.shape
    f = (E / (k * T)) * M.sum(axis=0)  # (E,) constant
    return (P.mean(axis=0) * Tensor(f)).sum()


def correlation_matrices(M: np.ndarray, P: Tensor) -> tuple[np.ndarray, Tensor]:
    """(M', P') with M' = M^T M (constant) and P' = P^T P (differentiable)."""
    return M.T @ M, P.transpose(1, 0) @ P


def similarity_weights(m_corr: np.ndarray) -> np.ndarray:
    """W: diagonal entries scaled to sum to E, off-diagonal to E^2 - E.

    A block whose co-selection counts are all zero (e.g. no token ever
    activated two experts) gets zero weights instead of a division by zero.
    """
    E = m_corr.shape[0]
    diag = np.diag(m_corr).astype(np.float64)
    off = m_corr.astype(np.float64).copy()
    np.fill_diagonal(off, 0.0)

    W = np.zeros((E, E), dtype=np.float64)
    diag_sum = diag.sum()
    off_sum = off.sum()
    if diag_sum != 0.0:
        np.fill_diagonal(W, diag * E / diag_sum)
    if off_sum != 0.0:
        W += off * (E * E - E) / off_sum
    return W


def router_similarity_loss(M: np.ndarray, P: Tensor) -> Tensor:
    """(1/T) * sum_{i,j} W(i,j) * P'_{i,j}, constant-score fixed point 1."""
    m_corr, p_corr = correlation_matrices(M, P)
    return (p_corr * Tensor(similarity_weights(m_corr))).sum() * (1.0 / M.shape[0])


def layer_mean(terms: list[Tensor]) -> Tensor:
    """The per-layer terms summed in layer order, times 1 / (layer count)."""
    total = terms[0]
    for term in terms[1:]:
        total = total + term
    return total * (1.0 / len(terms))


def per_layer_reg_loss(y_hats: list[Tensor], target: np.ndarray) -> Tensor:
    """Mean over layers and tokens of the squared error to the final target.

    Per-token squared L2 norm (summed over feature dims), averaged over
    tokens, then averaged across layers.
    """
    if not y_hats:
        raise ConfigError("per_layer_reg_loss needs at least one layer prediction")
    y = Tensor(target)
    terms = []
    for y_hat in y_hats:
        if y_hat.shape != y.shape:
            raise ConfigError(f"target head output {y_hat.shape} does not match target {y.shape}")
        diff = y_hat - y
        per_token = (diff * diff).sum(axis=-1)  # (B, L)
        terms.append(per_token.mean())
    return layer_mean(terms)


def diffusion_loss(prediction: Tensor, target: np.ndarray) -> Tensor:
    """Plain mean squared error over every element."""
    y = Tensor(target)
    if prediction.shape != y.shape:
        raise ConfigError(f"prediction {prediction.shape} does not match target {y.shape}")
    diff = prediction - y
    return (diff * diff).mean()


def total_loss(
    diffusion: Tensor,
    plr: Tensor | None,
    sim: Tensor | None,
    blc: Tensor | None,
    w_plr: float,
    w_sim: float,
    w_blc: float,
) -> tuple[Tensor, dict[str, float]]:
    """diffusion + w_plr*plr + w_sim*sim + w_blc*blc, leaving out a term that
    is None or weighted 0, plus a per-term breakdown for the step log (an
    absent term reads 0.0)."""
    total = diffusion
    breakdown = {"diffusion": diffusion.item()}
    for name, term, weight in (("plr", plr, w_plr), ("sim", sim, w_sim), ("blc", blc, w_blc)):
        breakdown[name] = term.item() if term is not None else 0.0
        if term is not None and weight > 0:
            total = total + term * weight
    breakdown["total"] = total.item()
    return total, breakdown
