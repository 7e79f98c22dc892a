"""Command-line entry point.

Subcommands: route-sim (strategy comparison on sampled scores), train
(toy diffusion run with checkpoints and a CSV log), metrics (report from
a checkpoint), ablate (multi-arm comparison table). Everything is emitted
as CSV/JSON for external plotting; every run writes a config snapshot
that fully reproduces it.

Exit codes: 0 success, 2 configuration error, 3 numeric failure.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

import numpy as np

from . import metrics as metrics_mod
from . import routing
from .routing import ConfigError, NumericError, StateError
from .training import LogRecord, Trainer, TrainerConfig, load_checkpoint, save_checkpoint

CONFIG_SCHEMA_VERSION = 1

# A run's settings are TrainerConfig's flat fields (to_dict), with num_experts
# spelled `experts` and without `dense` (the CLI does not build the dense
# twin), plus the run's own keys.
_RUN_DEFAULTS = {"schema_version": CONFIG_SCHEMA_VERSION, "steps": 200, "checkpoint_every": 100}
_CONFIG_DEFAULTS = {key: value for key, value in TrainerConfig().to_dict().items() if key != "dense"}
_CONFIG_DEFAULTS["experts"] = _CONFIG_DEFAULTS.pop("num_experts")
_CONFIG_DEFAULTS.update(_RUN_DEFAULTS)
# the keys that also have a command-line flag
_FLAG_KEYS = ("seed", "strategy", "gating", "k", "experts", "steps", "batch_size", "tokens", "model_dim", "layers",
              "w_sim", "w_plr", "w_blc")


def parse_config_file(path: Path) -> dict:
    """Flat `key = value` lines, each key at most once; '#' starts a comment."""
    try:
        text = path.read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc.strerror or exc}") from None
    values: dict = {}
    line_of: dict = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
        key, val = (part.strip() for part in line.split("=", 1))
        if key not in _CONFIG_DEFAULTS:
            raise ConfigError(f"{path}:{lineno}: unknown config key {key!r}")
        if key in values:
            raise ConfigError(f"{path}:{lineno}: config key {key!r} is already set on line {line_of[key]}")
        values[key], line_of[key] = val, lineno
    return values


def resolve_settings(args: argparse.Namespace) -> dict:
    """Defaults < config file < command-line flags: the run's settings, each
    of its default's type. Checks the schema, the run's own keys and the
    strategy name, which it makes canonical."""
    cfg = dict(_CONFIG_DEFAULTS)
    if args.config:
        cfg.update(parse_config_file(Path(args.config)))
    for key, default in _CONFIG_DEFAULTS.items():
        flag = getattr(args, key, None)
        value = cfg[key] if flag is None else flag
        try:  # every key takes its default's type
            cfg[key] = type(default)(value)
        except ValueError:
            raise ConfigError(f"config key {key!r} must be {type(default).__name__}, got {value!r}") from None
    if cfg["schema_version"] != CONFIG_SCHEMA_VERSION:
        raise ConfigError(f"config schema_version {cfg['schema_version']} != {CONFIG_SCHEMA_VERSION}")
    for key in ("steps", "checkpoint_every"):
        if cfg[key] < 0:
            raise ConfigError(f"{key} must be >= 0, got {cfg[key]}")
    cfg["strategy"] = routing.get_strategy(cfg["strategy"]).name
    return cfg


def resolve_config(args: argparse.Namespace) -> tuple[dict, TrainerConfig]:
    """The run's settings and the TrainerConfig built, and so checked, from them."""
    cfg = resolve_settings(args)
    return cfg, trainer_config_from(cfg)


def write_config_snapshot(cfg: dict, out_dir: Path) -> None:
    lines = [f"{key} = {cfg[key]}" for key in sorted(cfg)]
    (out_dir / "config.snapshot").write_text("\n".join(lines) + "\n")


def trainer_config_from(cfg: dict) -> TrainerConfig:
    """The TrainerConfig a run's settings describe; building it checks them."""
    flat = {key: value for key, value in cfg.items() if key not in _RUN_DEFAULTS}
    flat["num_experts"] = flat.pop("experts")
    return TrainerConfig.from_dict(flat)


# ----------------------------------------------------------------------
# route-sim


# Draws are routed in blocks of at most this many scores: one selection and
# one report per strategy per block instead of per draw. It bounds the
# block's memory; the results do not depend on it.
BLOCK_BUDGET = 2**16


def route_sim_draws(
    rng: np.random.Generator,
    budgets: dict[routing.RoutingStrategy, int],
    shape: tuple[int, int, int],
    k: int,
    draws: int,
) -> tuple[dict[str, list[float]], dict[str, list[dict]]]:
    """Per strategy name, the selection objective and the routing report
    record of each of `draws` (B, L, E) score tensors drawn from `rng`, in
    draw order. budgets maps each strategy to its per-row K.

    A Generator fills an (n, B, L, E) block in the order n separate
    (B, L, E) draws would take, so the draws do not depend on the block size.
    """
    B, L, E = shape
    block = max(1, BLOCK_BUDGET // (B * L * E))
    objectives = {s.name: [] for s in budgets}
    reports = {s.name: [] for s in budgets}
    for start in range(0, draws, block):
        n = min(block, draws - start)
        scores = rng.normal(size=(n, B, L, E))
        for strat, budget in budgets.items():
            view = routing.reshape_scores(scores, strat)
            mask2d = routing.topk_mask(view, budget)
            # each draw's objective sums its own view, in that view's memory
            # order (a strided view for bl-choice), as a one-draw call would
            for draw, draw_mask in zip(scores, mask2d.reshape(n, -1, view.shape[1])):
                objectives[strat.name].append(
                    metrics_mod.routing_objective(routing.reshape_scores(draw, strat), draw_mask)
                )
            reports[strat.name] += metrics_mod.routing_report(routing.scatter_mask(mask2d, strat, scores.shape), k)
    return objectives, reports


def cmd_route_sim(args: argparse.Namespace) -> int:
    """Builds no model, so checks only the settings it reads: the score
    shape, k, the seed and the strategies."""
    cfg = resolve_settings(args)
    if cfg["seed"] < 0:
        raise ConfigError(f"seed must be >= 0, got {cfg['seed']}")
    if args.draws < 1:
        raise ConfigError(f"--draws must be >= 1, got {args.draws}")
    wanted = args.strategies.split(",") if args.strategies else list(routing.STRATEGIES)
    strategies = [routing.get_strategy(s) for s in wanted]
    repeated = sorted({s.name for s in strategies if strategies.count(s) > 1})
    if repeated:
        raise ConfigError(f"--strategies names {', '.join(repeated)} more than once")
    B, L, E, k = cfg["batch_size"], cfg["tokens"], cfg["experts"], cfg["k"]
    budgets = {s: routing.effective_k(s, B, L, E, k) for s in strategies}
    out_dir = make_out_dir(args)
    write_config_snapshot(cfg, out_dir)
    rng = np.random.default_rng(cfg["seed"])
    objectives, reports = route_sim_draws(rng, budgets, (B, L, E), k, args.draws)

    race = objectives.get("expert-race")
    csv_path = out_dir / "route_sim.csv"
    with csv_path.open("w") as fh:
        fh.write("strategy,objective,gap_vs_expert_race,max_vio,comb_usage\n")
        for strat in strategies:
            objs = objectives[strat.name]
            gap = float("nan") if race is None else float(np.mean(np.array(race) - np.array(objs)))
            fh.write(
                f"{strat.name},{float(np.mean(objs)):.10g},{gap:.10g},"
                f"{metrics_mod.report_mean(reports[strat.name], 'max_vio'):.10g},"
                f"{metrics_mod.report_mean(reports[strat.name], 'comb_usage'):.10g}\n"
            )
    print(f"wrote {csv_path}")
    return 0


# ----------------------------------------------------------------------
# train


def discard_later_claims(out_dir: Path, step: int, source: Path | None = None) -> None:
    """Remove the files in `out_dir` that describe a state past `step`.

    A run rewrites everything after the step it starts from (0 for a fresh
    run, the checkpoint's step for a resume), so before it trains,
    summary.json, ckpt_final.npz and each ckpt_<n>.npz with n > step go; a
    run killed after this never leaves them disagreeing with its log. A
    ckpt_final.npz that is the resume `source` holds `step` itself: it is
    renamed to ckpt_<step>.npz, so the checkpoint the log reaches stays.
    """
    source = None if source is None else source.resolve()
    final = out_dir / "ckpt_final.npz"
    if final.resolve() == source:
        os.replace(final, out_dir / f"ckpt_{step:06d}.npz")
    final.unlink(missing_ok=True)
    (out_dir / "summary.json").unlink(missing_ok=True)
    for ckpt in out_dir.glob("ckpt_*.npz"):
        n = ckpt.stem[len("ckpt_"):]
        if n.isdigit() and int(n) > step and ckpt.resolve() != source:
            ckpt.unlink()


def cmd_train(args: argparse.Namespace) -> int:
    cfg, config = resolve_config(args)
    trainer = load_checkpoint(args.resume, config) if args.resume else Trainer(config)
    out_dir = make_out_dir(args)
    write_config_snapshot(cfg, out_dir)
    discard_later_claims(out_dir, trainer.step_count, Path(args.resume) if args.resume else None)

    # a resumed run keeps the log rows up to the checkpoint's step and
    # rewrites the rest, so resuming into the same --out duplicates nothing;
    # a last row without its newline was torn by a kill, whatever it starts with
    log_path = out_dir / "log.csv"
    kept = []
    if args.resume and log_path.exists():
        for row in log_path.read_text().splitlines(keepends=True)[1:]:
            step = row.split(",", 1)[0]
            if row.endswith("\n") and step.isdigit() and int(step) <= trainer.step_count:
                kept.append(row)
    # the header and kept rows replace the log in one step, so a run killed
    # before its first new row still leaves the rows its checkpoint covers
    tmp = out_dir / f".log.csv.{os.getpid()}.tmp"
    tmp.write_text(",".join(LogRecord.CSV_COLUMNS) + "\n" + "".join(kept))
    os.replace(tmp, log_path)
    with log_path.open("a") as fh:
        last = None
        while trainer.step_count < cfg["steps"]:
            record = trainer.train_step()
            fh.write(record.csv_row() + "\n")
            fh.flush()  # the log on disk holds every finished step, so a tail is never behind
            last = record
            if cfg["checkpoint_every"] > 0 and record.step % cfg["checkpoint_every"] == 0:
                save_checkpoint(out_dir / f"ckpt_{record.step:06d}.npz", trainer)

    save_checkpoint(out_dir / "ckpt_final.npz", trainer)
    summary = {
        "steps": trainer.step_count,
        "final": None if last is None else last.__dict__,
    }
    (out_dir / "summary.json").write_text(json.dumps(summary, indent=2) + "\n")
    print(f"trained {trainer.step_count} steps -> {out_dir}")
    return 0


# ----------------------------------------------------------------------
# metrics


def _heldout_masks(trainer: Trainer, batches: int, mode: str) -> tuple[list[np.ndarray], np.ndarray]:
    """Per-layer (N, L, E) routing masks and the (N,) timesteps on `batches`
    held-out batches, drawn from seed + 4242 so every checkpoint and arm of
    a config sees the same data."""
    cfg = trainer.config
    rng = np.random.default_rng(cfg.seed + 4242)
    masks, timesteps = [], []
    for _ in range(batches):
        batch = trainer.task.sample_batch(rng, cfg.batch_size, trainer.schedule, cfg.model.parameterization)
        _, layer_outputs = trainer.forward(batch, mode=mode)
        masks.append([out.route.mask for out in layer_outputs])
        timesteps.append(batch.t)
    return [np.concatenate(layer, axis=0) for layer in zip(*masks)], np.concatenate(timesteps)


def _checkpoint_metrics(trainer: Trainer) -> dict:
    """The routing report per layer, with its tau, on four held-out batches
    routed in infer mode; uninitialized thresholds raise StateError."""
    blocks = trainer.params.blocks
    masks, t = _heldout_masks(trainer, 4, "infer")
    report = metrics_mod.routing_report(masks, trainer.config.model.k, t, trainer.schedule.total_steps)
    per_layer = [{"layer": i, **rec, "tau": blocks[i].moe.threshold.tau} for i, rec in enumerate(report)]
    return {"per_layer": per_layer}


def cmd_metrics(args: argparse.Namespace) -> int:
    _, config = resolve_config(args)
    trainer = load_checkpoint(args.checkpoint, config)
    out_dir = make_out_dir(args)
    report = _checkpoint_metrics(trainer)
    path = out_dir / "metrics.json"
    path.write_text(json.dumps(report, indent=2) + "\n")
    print(f"wrote {path}")
    return 0


# ----------------------------------------------------------------------
# ablate


def _parse_arms(spec: str, cfg: dict) -> list[tuple[str, TrainerConfig]]:
    """Each 'strategy:gating[:w_sim[:w_blc]]' arm with its config, all
    built, and so checked, before the first arm trains."""
    arms = []
    for arm in (a.strip() for a in spec.split(";")):
        if not arm:
            continue
        parts = arm.split(":")
        if not 2 <= len(parts) <= 4:
            raise ConfigError(f"arm {arm!r} must be strategy:gating[:w_sim[:w_blc]]")
        try:
            weights = [float(w) for w in parts[2:]]
        except ValueError:
            raise ConfigError(f"arm {arm!r}: w_sim and w_blc must be numbers") from None
        w_sim, w_blc = weights + [cfg["w_sim"], cfg["w_blc"]][len(weights):]
        arm_cfg = dict(cfg, strategy=parts[0], gating=parts[1], w_sim=w_sim, w_blc=w_blc)
        arms.append((arm, trainer_config_from(arm_cfg)))
    if not arms:
        raise ConfigError("ablate needs --arms 'strategy:gating[:w_sim[:w_blc]];...'")
    return arms


def cmd_ablate(args: argparse.Namespace) -> int:
    """One row per arm: final losses and the layer mean of the routing report
    on one held-out batch routed in train mode (batch top-K). Every arm
    replaces the base strategy and gating, so only the arms' configs are
    built and checked."""
    cfg = resolve_settings(args)
    if cfg["steps"] < 1:
        raise ConfigError(f"ablate trains each arm for --steps >= 1, got {cfg['steps']}")
    arms = _parse_arms(args.arms, cfg)
    out_dir = make_out_dir(args)
    write_config_snapshot(cfg, out_dir)

    csv_path = out_dir / "ablate.csv"
    with csv_path.open("w") as fh:
        fh.write("arm,strategy,gating,w_sim,w_blc,final_total,final_diffusion,max_vio,comb_usage,alloc_variance\n")
        for arm, config in arms:
            trainer = Trainer(config)
            last = None
            for _ in range(cfg["steps"]):
                last = trainer.train_step()
            masks, t = _heldout_masks(trainer, 1, "train")
            report = metrics_mod.routing_report(masks, cfg["k"], t, trainer.schedule.total_steps)
            numbers = [config.weights.sim, config.weights.blc, last.total, last.diffusion] + [
                metrics_mod.report_mean(report, key) for key in ("max_vio", "comb_usage", "allocation_bucket_variance")
            ]
            fh.write(",".join([arm, config.model.strategy, config.model.gating] + [repr(float(x)) for x in numbers]) + "\n")
    print(f"wrote {csv_path}")
    return 0


def make_out_dir(args: argparse.Namespace) -> Path:
    if not args.out:
        raise ConfigError("--out is required")
    out_dir = Path(args.out)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:  # a file in the way, no permission, ...
        raise ConfigError(f"cannot create output directory {out_dir}: {exc.strerror or exc}") from None
    return out_dir


# ----------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="moelab", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser):
        p.add_argument("--config", help="flat key=value config file")
        p.add_argument("--out", help="output directory")
        for key in _FLAG_KEYS:  # each flag takes its config key's type
            p.add_argument("--" + key.replace("_", "-"), dest=key, type=type(_CONFIG_DEFAULTS[key]), default=None)

    p_sim = sub.add_parser("route-sim", help="compare strategies on sampled score tensors")
    add_common(p_sim)
    p_sim.add_argument("--strategies", help="comma-separated subset (default: all six)")
    p_sim.add_argument("--draws", type=int, default=100)
    p_sim.set_defaults(func=cmd_route_sim)

    p_train = sub.add_parser("train", help="run the toy diffusion training loop")
    add_common(p_train)
    p_train.add_argument("--resume", help="checkpoint to resume from")
    p_train.set_defaults(func=cmd_train)

    p_metrics = sub.add_parser("metrics", help="report routing metrics from a checkpoint")
    add_common(p_metrics)
    p_metrics.add_argument("--checkpoint", required=True)
    p_metrics.set_defaults(func=cmd_metrics)

    p_ablate = sub.add_parser("ablate", help="train several arms and tabulate")
    add_common(p_ablate)
    p_ablate.add_argument("--arms", required=True,
                          help="semicolon-separated strategy:gating[:w_sim[:w_blc]] arms")
    p_ablate.set_defaults(func=cmd_ablate)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except StateError as exc:
        print(f"state error: {exc}", file=sys.stderr)
        return 2
    except NumericError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
