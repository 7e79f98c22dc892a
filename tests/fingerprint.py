"""A sha256 fingerprint of a short training run and of route-sim, to show a change is bit-identical.

`fingerprint(config, steps)` trains a fresh Trainer for `steps` steps and
hashes, in this order:
- each step's log.csv row (every float as its exact repr)
- every array of each checkpoint state group (`training._state_groups`:
  weights, EMA shadow, AdamW moments), in named_tensors() order
- each block's threshold tau, the step count and the RNG state
- the bytes of an 8-sample draw of class 1 from seed 5, or the text of the
  NumericError the draw raises

`route_sim_fingerprint(draws)` hashes the hex of every per-draw float of
`cli.route_sim_draws` (objective, max_vio, comb_usage) over all six
strategies at the default config's score shape and k, from seed 0.

Run from the repository root:

    PYTHONPATH=src python tests/fingerprint.py [--steps 20]

It prints one hash for the default config, one for `v` prediction at
lr 2e-3 and one for the default config at w_plr = 0, where no loss reaches a
block's target head, so its hash covers how an untouched parameter is
updated, then one for 200 route-sim draws. Compare the hashes of two commits
on one machine. No golden hash is stored: OpenBLAS picks its kernels per
CPU, so the same code may hash differently on another machine.
"""

from __future__ import annotations

import argparse
import hashlib
import json

import numpy as np

from moelab import cli, routing, training
from moelab.denoiser import DenoiserConfig
from moelab.routing import NumericError
from moelab.training import Trainer, TrainerConfig

CONFIGS = {
    "default": TrainerConfig(),
    "v, lr 2e-3": TrainerConfig(model=DenoiserConfig(parameterization="v"), lr=2e-3),
    "w_plr 0": TrainerConfig(w_plr=0.0),
}


def fingerprint(config: TrainerConfig, steps: int) -> str:
    """The sha256 hex digest of `steps` train steps of a fresh Trainer and a draw from it."""
    trainer = Trainer(config)
    digest = hashlib.sha256()
    for _ in range(steps):
        digest.update(trainer.train_step().csv_row().encode() + b"\n")
    for group in training._state_groups(trainer).values():
        for arr in group:
            digest.update(arr.tobytes())
    taus = [blk.moe.threshold.tau for blk in trainer.params.blocks]
    digest.update(repr(taus).encode())
    digest.update(str(trainer.step_count).encode())
    digest.update(json.dumps(trainer.rng.bit_generator.state, sort_keys=True).encode())
    try:
        samples, _ = trainer.sample(8, 1, rng=np.random.default_rng(5))
        digest.update(samples.tobytes())
    except NumericError as exc:
        digest.update(str(exc).encode())
    return digest.hexdigest()


def route_sim_fingerprint(draws: int) -> str:
    """The sha256 hex digest of `draws` route-sim draws from seed 0, every
    per-draw float as its hex, strategy by strategy and column by column."""
    config = TrainerConfig()
    shape, k = (config.batch_size, config.model.tokens, config.model.num_experts), config.model.k
    budgets = {s: routing.effective_k(s, *shape, k) for s in routing.STRATEGIES.values()}
    columns = cli.route_sim_draws(np.random.default_rng(0), budgets, shape, k, draws)
    floats = (v for column in columns.values() for values in column.values() for v in values)
    return hashlib.sha256("".join(f"{v.hex()}\n" for v in floats).encode()).hexdigest()


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--steps", type=int, default=20, help="train steps per config (default 20)")
    args = parser.parse_args()
    for name, config in CONFIGS.items():
        print(f"{fingerprint(config, args.steps)}  {name}")
    print(f"{route_sim_fingerprint(200)}  route-sim")


if __name__ == "__main__":
    main()
