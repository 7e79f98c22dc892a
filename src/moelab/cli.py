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
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import metrics as metrics_mod
from . import routing
from .denoiser import DenoiserConfig
from .losses import LossWeights
from .routing import ConfigError, NumericError, StateError
from .training import LogRecord, Trainer, TrainerConfig, load_checkpoint, save_checkpoint

CONFIG_SCHEMA_VERSION = 1

_CONFIG_DEFAULTS = {
    "schema_version": CONFIG_SCHEMA_VERSION,
    "strategy": "expert-race",
    "gating": "identity",
    "k": 2,
    "experts": 8,
    "batch_size": 32,
    "tokens": 16,
    "model_dim": 64,
    "layers": 4,
    "dense_hidden": 256,
    "total_steps": 100,
    "schedule": "cosine",
    "parameterization": "eps",
    "num_classes": 4,
    "lr": 1e-4,
    "ema_decay": 0.999,
    "w_plr": 1e-2,
    "w_sim": 1e-4,
    "w_blc": 0.0,
    "seed": 0,
    "steps": 200,
    "checkpoint_every": 100,
}

_INT_KEYS = {
    "schema_version", "k", "experts", "batch_size", "tokens", "model_dim", "layers",
    "dense_hidden", "total_steps", "num_classes", "seed", "steps",
    "checkpoint_every",
}
_FLOAT_KEYS = {"lr", "ema_decay", "w_plr", "w_sim", "w_blc"}


def parse_config_file(path: Path) -> dict:
    """Flat `key = value` lines; '#' starts a comment."""
    values: dict = {}
    for lineno, raw in enumerate(path.read_text().splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
        key, val = (part.strip() for part in line.split("=", 1))
        if key not in _CONFIG_DEFAULTS:
            raise ConfigError(f"{path}:{lineno}: unknown config key {key!r}")
        values[key] = val
    return values


def resolve_config(args: argparse.Namespace) -> dict:
    """Defaults < config file < command-line flags."""
    cfg = dict(_CONFIG_DEFAULTS)
    if args.config:
        cfg.update(parse_config_file(Path(args.config)))
    for key in _CONFIG_DEFAULTS:
        flag = getattr(args, key, None)
        if flag is not None:
            cfg[key] = flag
    for key in _INT_KEYS:
        cfg[key] = int(cfg[key])
    for key in _FLOAT_KEYS:
        cfg[key] = float(cfg[key])
    cfg["strategy"] = routing.get_strategy(str(cfg["strategy"])).name
    if int(cfg["schema_version"]) != CONFIG_SCHEMA_VERSION:
        raise ConfigError(f"config schema_version {cfg['schema_version']} != {CONFIG_SCHEMA_VERSION}")
    return cfg


def write_config_snapshot(cfg: dict, out_dir: Path) -> None:
    lines = [f"{key} = {cfg[key]}" for key in sorted(cfg)]
    (out_dir / "config.snapshot").write_text("\n".join(lines) + "\n")


def trainer_config_from(cfg: dict, **overrides) -> TrainerConfig:
    model = DenoiserConfig(
        layers=cfg["layers"],
        model_dim=cfg["model_dim"],
        tokens=cfg["tokens"],
        num_classes=cfg["num_classes"],
        num_experts=cfg["experts"],
        k=cfg["k"],
        dense_hidden=cfg["dense_hidden"],
        strategy=cfg["strategy"],
        gating=cfg["gating"],
        parameterization=cfg["parameterization"],
        total_steps=cfg["total_steps"],
        schedule=cfg["schedule"],
    )
    tc = TrainerConfig(
        model=model,
        batch_size=cfg["batch_size"],
        lr=cfg["lr"],
        ema_decay=cfg["ema_decay"],
        weights=LossWeights(plr=cfg["w_plr"], sim=cfg["w_sim"], blc=cfg["w_blc"]),
        seed=cfg["seed"],
    )
    if overrides:
        tc = replace(tc, **overrides)
    return tc


def validate_selection_size(cfg: dict) -> None:
    strategy = routing.get_strategy(cfg["strategy"])
    routing.effective_k(strategy, cfg["batch_size"], cfg["tokens"], cfg["experts"], cfg["k"])


# ----------------------------------------------------------------------
# route-sim


def cmd_route_sim(args: argparse.Namespace) -> int:
    cfg = resolve_config(args)
    out_dir = Path(cfg_out(args))
    out_dir.mkdir(parents=True, exist_ok=True)
    write_config_snapshot(cfg, out_dir)

    wanted = args.strategies.split(",") if args.strategies else list(routing.STRATEGIES)
    strategies = [routing.get_strategy(s) for s in wanted]
    B, L, E, k = cfg["batch_size"], cfg["tokens"], cfg["experts"], cfg["k"]
    budgets = {s.name: routing.effective_k(s, B, L, E, k) for s in strategies}
    rng = np.random.default_rng(cfg["seed"])
    n_draws = args.draws

    per_strategy = {s.name: {"objective": [], "max_vio": [], "comb": []} for s in strategies}
    race_obj = []
    for _ in range(n_draws):
        scores = rng.normal(size=(B, L, E))
        draw_objs = {}
        for strat in strategies:
            view = routing.reshape_scores(scores, strat)
            mask2d = routing.topk_mask(view, budgets[strat.name])
            obj = metrics_mod.routing_objective(view, mask2d)
            mask = routing.scatter_mask(mask2d, strat, (B, L, E))
            per_strategy[strat.name]["objective"].append(obj)
            per_strategy[strat.name]["max_vio"].append(metrics_mod.max_violation(mask, k))
            per_strategy[strat.name]["comb"].append(metrics_mod.combination_usage(mask).ratio)
            draw_objs[strat.name] = obj
        race_obj.append(draw_objs.get("expert-race"))

    csv_path = out_dir / "route_sim.csv"
    with csv_path.open("w") as fh:
        fh.write("strategy,objective,gap_vs_expert_race,max_vio,comb_usage\n")
        for strat in strategies:
            stats = per_strategy[strat.name]
            mean_obj = float(np.mean(stats["objective"]))
            if race_obj[0] is not None:
                gap = float(np.mean(np.array(race_obj) - np.array(stats["objective"])))
            else:
                gap = float("nan")
            fh.write(
                f"{strat.name},{mean_obj:.10g},{gap:.10g},"
                f"{np.mean(stats['max_vio']):.10g},{np.mean(stats['comb']):.10g}\n"
            )
    print(f"wrote {csv_path}")
    return 0


# ----------------------------------------------------------------------
# train


def cmd_train(args: argparse.Namespace) -> int:
    cfg = resolve_config(args)
    validate_selection_size(cfg)
    out_dir = Path(cfg_out(args))
    out_dir.mkdir(parents=True, exist_ok=True)
    write_config_snapshot(cfg, out_dir)

    tconfig = trainer_config_from(cfg)
    trainer = load_checkpoint(args.resume, tconfig) if args.resume else Trainer(tconfig)

    # a resumed run keeps the log rows up to the checkpoint's step and
    # rewrites the rest, so resuming into the same --out duplicates nothing
    log_path = out_dir / "log.csv"
    kept = []
    if args.resume and log_path.exists():
        for row in log_path.read_text().splitlines(keepends=True)[1:]:
            step = row.split(",", 1)[0]
            if step.isdigit() and int(step) <= trainer.step_count:
                kept.append(row)
    with log_path.open("w") as fh:
        fh.write(",".join(LogRecord.CSV_COLUMNS) + "\n")
        fh.writelines(kept)
        last = None
        while trainer.step_count < cfg["steps"]:
            record = trainer.train_step()
            fh.write(record.csv_row() + "\n")
            last = record
            if cfg["checkpoint_every"] > 0 and record.step % cfg["checkpoint_every"] == 0:
                fh.flush()  # the log on disk reaches every checkpoint's step
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


def _checkpoint_metrics(trainer: Trainer, eval_batches: int = 4) -> dict:
    """MaxVio / combination usage / allocation per layer on held-out batches.
    A dense model has no routed layers: {"dense": true, "per_layer": []}."""
    cfg = trainer.config
    if cfg.model.dense:
        return {"dense": True, "per_layer": []}
    rng = np.random.default_rng(cfg.seed + 4242)
    per_layer: list[dict] = []
    masks_per_layer = None
    timesteps = []
    thresholds_ready = all(
        blk.moe is not None and blk.moe.threshold.initialized for blk in trainer.params.blocks
    )
    if not thresholds_ready:
        raise StateError("checkpoint has uninitialized thresholds; train first")

    for _ in range(eval_batches):
        batch = trainer.task.sample_batch(rng, cfg.batch_size, trainer.schedule, cfg.model.parameterization)
        _, layer_outputs = trainer.forward(batch, mode="infer")
        if masks_per_layer is None:
            masks_per_layer = [[] for _ in layer_outputs]
        for i, out in enumerate(layer_outputs):
            masks_per_layer[i].append(out.route.mask)
        timesteps.append(batch.t)

    t_all = np.concatenate(timesteps)
    for i, mask_list in enumerate(masks_per_layer):
        masks = np.concatenate(mask_list, axis=0)
        if masks.shape[-1] < 2:  # single expert: no pairs exist
            comb_ratio, comb_no_pairs = 0.0, True
        else:
            usage = metrics_mod.combination_usage(masks)
            comb_ratio, comb_no_pairs = usage.ratio, usage.no_pairs
        profile = metrics_mod.allocation_profile(masks, t_all, trainer.schedule.total_steps)
        per_layer.append(
            {
                "layer": i,
                "max_vio": metrics_mod.max_violation(masks, cfg.model.k),
                "comb_usage": comb_ratio,
                "comb_no_pairs": comb_no_pairs,
                "mean_active": float(masks.sum(axis=-1).mean()),
                "allocation_bucket_variance": profile.bucket_variance,
                "tau": trainer.params.blocks[i].moe.threshold.tau,
            }
        )
    return {"per_layer": per_layer}


def cmd_metrics(args: argparse.Namespace) -> int:
    cfg = resolve_config(args)
    out_dir = Path(cfg_out(args))
    out_dir.mkdir(parents=True, exist_ok=True)
    trainer = load_checkpoint(args.checkpoint, trainer_config_from(cfg))
    report = _checkpoint_metrics(trainer)
    path = out_dir / "metrics.json"
    path.write_text(json.dumps(report, indent=2) + "\n")
    if report.get("dense"):
        print("dense model: no routed layers to report")
    print(f"wrote {path}")
    return 0


# ----------------------------------------------------------------------
# ablate


def cmd_ablate(args: argparse.Namespace) -> int:
    cfg = resolve_config(args)
    out_dir = Path(cfg_out(args))
    out_dir.mkdir(parents=True, exist_ok=True)
    write_config_snapshot(cfg, out_dir)

    arms = [arm.strip() for arm in args.arms.split(";") if arm.strip()]
    if not arms:
        raise ConfigError("ablate needs --arms 'strategy:gating[:w_sim[:w_blc]];...'")

    csv_path = out_dir / "ablate.csv"
    with csv_path.open("w") as fh:
        fh.write("arm,strategy,gating,w_sim,w_blc,final_total,final_diffusion,max_vio,comb_usage,alloc_variance\n")
        for arm in arms:
            parts = arm.split(":")
            if len(parts) < 2:
                raise ConfigError(f"arm {arm!r} must be strategy:gating[:w_sim[:w_blc]]")
            strat, gating = parts[0], parts[1]
            w_sim = float(parts[2]) if len(parts) > 2 else cfg["w_sim"]
            w_blc = float(parts[3]) if len(parts) > 3 else cfg["w_blc"]
            arm_cfg = dict(cfg, strategy=routing.get_strategy(strat).name, gating=gating,
                           w_sim=w_sim, w_blc=w_blc)
            validate_selection_size(arm_cfg)
            trainer = Trainer(trainer_config_from(arm_cfg))
            last = None
            for _ in range(cfg["steps"]):
                last = trainer.train_step()
            rng = np.random.default_rng(cfg["seed"] + 4242)
            batch = trainer.task.sample_batch(rng, cfg["batch_size"], trainer.schedule,
                                              arm_cfg["parameterization"])
            _, layer_outputs = trainer.forward(batch, mode="eval")
            masks = np.concatenate([out.route.mask for out in layer_outputs], axis=0)
            t_rep = np.tile(batch.t, len(layer_outputs))
            profile = metrics_mod.allocation_profile(masks, t_rep, trainer.schedule.total_steps)
            fh.write(
                f"{arm},{arm_cfg['strategy']},{gating},{w_sim:.10g},{w_blc:.10g},"
                f"{last.total:.10g},{last.diffusion:.10g},"
                f"{metrics_mod.max_violation(masks, cfg['k']):.10g},"
                f"{metrics_mod.combination_usage(masks).ratio:.10g},"
                f"{profile.bucket_variance:.10g}\n"
            )
    print(f"wrote {csv_path}")
    return 0


def cfg_out(args: argparse.Namespace) -> str:
    if not args.out:
        raise ConfigError("--out is required")
    return args.out


# ----------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="moelab", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser):
        p.add_argument("--config", help="flat key=value config file")
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--out", help="output directory")
        p.add_argument("--strategy", default=None)
        p.add_argument("--gating", default=None)
        p.add_argument("--k", type=int, default=None)
        p.add_argument("--experts", type=int, default=None)
        p.add_argument("--steps", type=int, default=None)
        p.add_argument("--batch-size", dest="batch_size", type=int, default=None)
        p.add_argument("--tokens", type=int, default=None)
        p.add_argument("--model-dim", dest="model_dim", type=int, default=None)
        p.add_argument("--layers", type=int, default=None)
        p.add_argument("--w-sim", dest="w_sim", type=float, default=None)
        p.add_argument("--w-plr", dest="w_plr", type=float, default=None)
        p.add_argument("--w-blc", dest="w_blc", type=float, default=None)

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
