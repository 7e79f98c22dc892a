"""Diffusion, forward and reverse: noise schedules, noising, targets, the
ancestral sampler and synthetic data.

Everything here is plain numpy; tensors enter the picture only at the model
boundary, behind the noise predictor the sampler is given. The synthetic
task is a class-conditional Gaussian mixture over token grids whose
per-token noise scale ramps across positions, so spatial expert allocation
has an actual signal to find.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .routing import ConfigError, NumericError

__all__ = [
    "PARAMETERIZATIONS",
    "NoiseSchedule",
    "build_schedule",
    "forward_diffuse",
    "make_target",
    "ancestral_sample",
    "DiffusionBatch",
    "SyntheticTask",
]

# what the network predicts: the noise, the clean sample or the velocity
PARAMETERIZATIONS = ("eps", "x0", "v")
_MAX_BETA = 0.999
# SyntheticTask: class-mean spread, and the per-token noise scale's ends
_CLASS_SEPARATION = 2.0
_SIGMA_LO, _SIGMA_HI = 0.2, 1.0


@dataclass(frozen=True)
class NoiseSchedule:
    """Cumulative signal-retention coefficients alpha_bar[0..T].

    alpha_bar[0] = 1 and alpha_bar[T] is within a floor of 0; strictly
    decreasing in between.
    """

    total_steps: int
    alpha_bar: np.ndarray  # (T + 1,)

    def __post_init__(self):
        ab = self.alpha_bar
        if ab.shape != (self.total_steps + 1,):
            raise ConfigError(f"alpha_bar must have length T+1, got {ab.shape}")
        if ab[0] != 1.0 or np.any(np.diff(ab) >= 0):
            raise ConfigError("alpha_bar must start at 1 and decrease strictly")


def build_schedule(total_steps: int) -> NoiseSchedule:
    """The cosine schedule (Nichol & Dhariwal 2021) over total_steps >= 2 steps."""
    if total_steps < 2:
        raise ConfigError(f"need at least 2 timesteps, got {total_steps}")
    t = np.arange(total_steps + 1, dtype=np.float64)
    s = 0.008
    f = np.cos((t / total_steps + s) / (1.0 + s) * np.pi / 2.0) ** 2
    raw = f / f[0]

    # cap the implied betas so alpha_bar never hits exactly zero, keeping
    # the reverse-process arithmetic finite
    betas = np.clip(1.0 - raw[1:] / raw[:-1], 0.0, _MAX_BETA)
    alpha_bar = np.concatenate([[1.0], np.cumprod(1.0 - betas)])
    return NoiseSchedule(total_steps=total_steps, alpha_bar=alpha_bar)


def _per_sample(coeffs: np.ndarray, t: np.ndarray, x_ndim: int) -> np.ndarray:
    """Index per-sample schedule values and shape them for broadcasting."""
    vals = coeffs[t]
    return vals.reshape(vals.shape + (1,) * (x_ndim - 1))


def forward_diffuse(x0: np.ndarray, t: np.ndarray, eps: np.ndarray, schedule: NoiseSchedule) -> np.ndarray:
    """x_t = sqrt(alpha_bar_t) * x0 + sqrt(1 - alpha_bar_t) * eps."""
    t = np.asarray(t)
    if np.any(t < 0) or np.any(t > schedule.total_steps):
        raise ConfigError(f"timesteps must lie in [0, {schedule.total_steps}]")
    ab = _per_sample(schedule.alpha_bar, t, x0.ndim)
    return np.sqrt(ab) * x0 + np.sqrt(1.0 - ab) * eps


def make_target(
    x0: np.ndarray,
    eps: np.ndarray,
    t: np.ndarray,
    schedule: NoiseSchedule,
    parameterization: str,
) -> np.ndarray:
    """Regression target: the noise, the clean sample, or the velocity of
    Salimans & Ho (2022), v = sqrt(alpha_bar) * eps - sqrt(1 - alpha_bar) * x0,
    which is eps at alpha_bar = 1 and tends to -x0 as alpha_bar -> 0."""
    if parameterization == "eps":
        return eps.copy()
    if parameterization == "x0":
        return x0.copy()
    if parameterization == "v":
        ab = _per_sample(schedule.alpha_bar, np.asarray(t), x0.ndim)
        return np.sqrt(ab) * eps - np.sqrt(1.0 - ab) * x0
    raise ConfigError(f"unknown parameterization {parameterization!r}; use one of {PARAMETERIZATIONS}")


def ancestral_sample(predict_eps, shape: tuple, schedule: NoiseSchedule, rng: np.random.Generator) -> np.ndarray:
    """DDPM's ancestral reverse process (Ho et al. 2020) from x_T ~ N(0, I).

    At each step t = T..1, `predict_eps(x, t)` returns the noise estimate for
    the state x; the next state is the posterior mean
    (x - beta_t / sqrt(1 - alpha_bar_t) * eps) / sqrt(alpha_t), plus noise of
    variance beta~_t = beta_t (1 - alpha_bar_{t-1}) / (1 - alpha_bar_t) above
    t = 1. Every draw comes from `rng`. A NumericError the predictor raises
    gains a "reverse step t: " prefix; the first non-finite noise estimate or
    state raises NumericError naming the step, with no numpy warning before
    it, the predictor's own included.
    """
    x = rng.normal(size=shape)
    # a diverging state overflows inside the predictor; the checks below name
    # the reverse step instead of numpy warning first
    with np.errstate(over="ignore", invalid="ignore"):
        for t in range(schedule.total_steps, 0, -1):
            try:
                eps_hat = predict_eps(x, t)
            except NumericError as exc:
                raise NumericError(f"reverse step {t}: {exc}") from exc
            if not np.all(np.isfinite(eps_hat)):
                raise NumericError(f"non-finite noise estimate at reverse step {t}")

            ab_t, ab_prev = schedule.alpha_bar[t], schedule.alpha_bar[t - 1]
            alpha_t = ab_t / ab_prev
            beta_t = 1.0 - alpha_t
            mean = (x - beta_t / np.sqrt(1.0 - ab_t) * eps_hat) / np.sqrt(alpha_t)
            if t > 1:
                sigma = np.sqrt(beta_t * (1.0 - ab_prev) / (1.0 - ab_t))
                x = mean + sigma * rng.normal(size=x.shape)
            else:
                x = mean
            if not np.all(np.isfinite(x)):
                raise NumericError(f"non-finite sample state at reverse step {t}")
    return x


@dataclass
class DiffusionBatch:
    """A drawn batch as the loss and the readouts read it: the noised
    input, its timesteps, the regression target and the class labels."""

    t: np.ndarray  # (B,) integer timesteps
    x_t: np.ndarray  # (B, L, D)
    y: np.ndarray  # (B, L, D) regression target
    c: np.ndarray  # (B,) class labels


@dataclass
class SyntheticTask:
    """Class-conditional Gaussian mixture over token grids.

    Each class gets a fixed mean grid (L, D); samples add noise scaled by a
    per-token sigma profile that ramps quadratically from 0.2 to 1.0 across
    token positions. Deterministic given the seed.
    """

    num_classes: int
    tokens: int
    dim: int
    seed: int
    means: np.ndarray = field(init=False)
    token_sigma: np.ndarray = field(init=False)

    def __post_init__(self):
        rng = np.random.default_rng(self.seed)
        self.means = rng.normal(0.0, 1.0, size=(self.num_classes, self.tokens, self.dim))
        self.means *= _CLASS_SEPARATION / np.sqrt(self.dim)
        ramp = np.linspace(0.0, 1.0, self.tokens) ** 2
        self.token_sigma = _SIGMA_LO + (_SIGMA_HI - _SIGMA_LO) * ramp

    def sample_x0(self, rng: np.random.Generator, batch: int) -> tuple[np.ndarray, np.ndarray]:
        c = rng.integers(0, self.num_classes, size=batch)
        noise = rng.normal(size=(batch, self.tokens, self.dim))
        x0 = self.means[c] + self.token_sigma[None, :, None] * noise
        return x0, c

    def optimal_prediction(
        self,
        x_t: np.ndarray,
        t: np.ndarray,
        c: np.ndarray,
        schedule: NoiseSchedule,
        parameterization: str,
    ) -> np.ndarray:
        """The Bayes-optimal prediction E[target | x_t, c] of every token.

        Given its class, each token is x0 ~ N(m, s^2 I) and x_t = a x0 + sigma eps
        with a^2 = alpha_bar_t and sigma^2 = 1 - alpha_bar_t, so the posterior
        mean is E[x0 | x_t, c] = m + a s^2 / (a^2 s^2 + sigma^2) (x_t - a m) and
        E[eps | x_t, c] = sigma / (a^2 s^2 + sigma^2) (x_t - a m), finite at
        t = 0. make_target is linear in (x0, eps), so it maps the two means to
        the mean of any parameterization's target. No network reaches a lower
        expected loss; the residual is the posterior variance
        V = s^2 sigma^2 / (a^2 s^2 + sigma^2) for x0, a^2 V / sigma^2 for eps
        and V / sigma^2 for v.
        """
        t = np.asarray(t)
        ab = _per_sample(schedule.alpha_bar, t, x_t.ndim)
        a, sigma = np.sqrt(ab), np.sqrt(1.0 - ab)
        m = self.means[np.asarray(c)]
        s2 = (self.token_sigma**2)[:, None]
        residual = (x_t - a * m) / (ab * s2 + 1.0 - ab)
        return make_target(m + a * s2 * residual, sigma * residual, t, schedule, parameterization)

    def sample_batch(
        self,
        rng: np.random.Generator,
        batch: int,
        schedule: NoiseSchedule,
        parameterization: str,
        t: np.ndarray | None = None,
    ) -> DiffusionBatch:
        x0, c = self.sample_x0(rng, batch)
        if t is None:
            t = rng.integers(1, schedule.total_steps + 1, size=batch)
        else:
            t = np.broadcast_to(np.asarray(t, dtype=np.int64), (batch,)).copy()
        eps = rng.normal(size=x0.shape)
        x_t = forward_diffuse(x0, t, eps, schedule)
        y = make_target(x0, eps, t, schedule, parameterization)
        return DiffusionBatch(t=t, x_t=x_t, y=y, c=c)
