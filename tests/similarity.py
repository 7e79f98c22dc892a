"""The diagonal part of the router-similarity loss, kept with the tests.

Criterion 4 checks that this part equals the balance-form expression. The
library only ever needs the full loss (losses.router_similarity_loss), so
this split is built here from the same library pieces it sums.
"""

import numpy as np

from moelab.losses import correlation_matrices, similarity_weights
from moelab.tensor import Tensor


def router_similarity_diag(M: np.ndarray, P: Tensor) -> Tensor:
    """Diagonal contribution of the similarity loss (a geometric-mean
    flavored balance term: selection ratio times mean squared probability)."""
    m_corr, p_corr = correlation_matrices(M, P)
    W_diag = np.diag(np.diag(similarity_weights(m_corr)))
    return (p_corr * Tensor(W_diag)).sum() * (1.0 / M.shape[0])
