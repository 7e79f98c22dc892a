"""Command-line entry point.

Subcommands: route-sim (strategy comparison on sampled scores), train
(toy diffusion run with checkpoints and a CSV log), metrics (report from
a checkpoint, under the config it carries), ablate (multi-arm comparison
table). Everything is emitted as CSV/JSON for external plotting; every
run but metrics writes a config snapshot that fully reproduces it.

Exit codes: 0 success, 2 configuration error, 3 numeric failure, 130
interrupted (Ctrl-C), 141 stdout closed by its reader.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from pathlib import Path

import numpy as np

from . import metrics as metrics_mod
from . import routing
from .routing import ConfigError, NumericError
from .training import (LogRecord, Trainer, TrainerConfig, allocating, load_checkpoint, refusing, remove_file,
                       replace_file, save_checkpoint)

CONFIG_SCHEMA_VERSION = 1

# A run's settings are TrainerConfig's flat fields (to_dict), with num_experts
# spelled `experts`, plus the run's own keys.
_RUN_DEFAULTS = {"schema_version": CONFIG_SCHEMA_VERSION, "steps": 200, "checkpoint_every": 100}
_CONFIG_DEFAULTS = TrainerConfig().to_dict()
_CONFIG_DEFAULTS["experts"] = _CONFIG_DEFAULTS.pop("num_experts")
_CONFIG_DEFAULTS.update(_RUN_DEFAULTS)
# the keys that also have a command-line flag
_FLAG_KEYS = ("seed", "strategy", "gating", "k", "experts", "steps", "batch_size", "tokens", "model_dim", "layers",
              "w_sim", "w_plr", "w_blc")


def parse_settings(entries) -> dict:
    """The raw values of `key = value` settings, each of a known key set at
    most once. Each entry is (where, text, at): an error in `text` starts
    with `where` (`path:line` or `arm '<text>'`), and a repeat of its key
    names it by `at`."""
    values, first = {}, {}
    for where, text, at in entries:
        if "=" not in text:
            raise ConfigError(f"{where}: expected 'key = value', got {text!r}")
        key, val = (part.strip() for part in text.split("=", 1))
        if key not in _CONFIG_DEFAULTS:
            raise ConfigError(f"{where}: unknown config key {key!r}")
        if key in values:
            raise ConfigError(f"{where}: config key {key!r} is already set {first[key]}")
        values[key], first[key] = val, at
    return values


def utf8_lines(path: Path, data: bytes) -> list[str]:
    """`data`, the bytes read from `path`, as text split at each newline and
    only there (not at the other line breaks str.splitlines knows), so item
    i is line i + 1 of an error message. The last item is what follows the
    last newline: "" when the text ends with one. Bytes that are not UTF-8
    raise one ConfigError naming the path and the line."""
    try:
        return data.decode("utf-8").split("\n")
    except UnicodeDecodeError as exc:
        line = data.count(b"\n", 0, exc.start) + 1
        raise ConfigError(f"{path}:{line}: not UTF-8 text ({exc.reason} at byte {exc.start})") from None


def parse_config_file(path: Path) -> dict:
    """Flat `key = value` lines of UTF-8 text, each key at most once; '#'
    starts a comment."""
    with refusing(f"cannot read config file {path}"):
        data = path.read_bytes()
    lines = (raw.split("#", 1)[0].strip() for raw in utf8_lines(path, data))
    return parse_settings((f"{path}:{n}", line, f"on line {n}") for n, line in enumerate(lines, start=1) if line)


def resolve_settings(args: argparse.Namespace) -> dict:
    """Defaults < config file < command-line flags, typed and checked."""
    values = dict(_CONFIG_DEFAULTS)
    if args.config:
        values.update(parse_config_file(Path(args.config)))
    values.update((key, getattr(args, key)) for key in _FLAG_KEYS if getattr(args, key) is not None)
    return check_settings(values)


def check_settings(values: dict) -> dict:
    """Every setting of `values` as its default's type, a text one stripped
    as a config file's is: the one typing of config-file lines, flags and
    arm overrides. Checks the schema, the run's own keys and the strategy
    name, which it makes canonical."""
    cfg = {}
    for key, default in _CONFIG_DEFAULTS.items():
        value = values[key].strip() if isinstance(values[key], str) else values[key]
        try:  # every key takes its default's type
            cfg[key] = type(default)(value)
        except ValueError:
            raise ConfigError(f"config key {key!r} must be {type(default).__name__}, got {values[key]!r}") from None
    if cfg["schema_version"] != CONFIG_SCHEMA_VERSION:
        raise ConfigError(f"config schema_version {cfg['schema_version']} != {CONFIG_SCHEMA_VERSION}")
    for key in ("steps", "checkpoint_every", "seed"):
        if cfg[key] < 0:
            raise ConfigError(f"{key} must be >= 0, got {cfg[key]}")
    cfg["strategy"] = routing.get_strategy(cfg["strategy"]).name
    return cfg


def write_config_snapshot(cfg: dict, out_dir: Path) -> None:
    replace_file(out_dir / "config.snapshot", "".join(f"{key} = {cfg[key]}\n" for key in sorted(cfg)))


def trainer_config_from(cfg: dict) -> TrainerConfig:
    """The TrainerConfig a run's settings describe; building it checks them."""
    flat = {key: value for key, value in cfg.items() if key not in _RUN_DEFAULTS}
    flat["num_experts"] = flat.pop("experts")
    return TrainerConfig.from_dict(flat)


# ----------------------------------------------------------------------
# route-sim


# Draws are routed in blocks of at most this many scores: one selection per
# strategy and one report per block instead of per draw. It bounds the
# block's memory, whose report stacks every strategy's float64 masks (6 x
# 2**14 x 8 bytes = 768 KiB); the results do not depend on it.
BLOCK_BUDGET = 2**14


def block_draws(shape: tuple[int, int, int], draws: int) -> int:
    """Draws per block of route_sim_draws: at most BLOCK_BUDGET scores, at least one draw, at most `draws`."""
    B, L, E = shape
    return min(draws, max(1, BLOCK_BUDGET // (B * L * E)))


def route_sim_draws(
    rng: np.random.Generator,
    budgets: dict[routing.RoutingStrategy, int],
    shape: tuple[int, int, int],
    k: int,
    draws: int,
) -> dict[str, dict[str, list[float]]]:
    """Per strategy name, the three columns route-sim averages, each a list
    of one float per draw in draw order: `objective` (the selection
    objective), and `max_vio` and `comb_usage` from the routing report, of
    each of `draws` (B, L, E) score tensors drawn from `rng`. budgets maps
    each strategy to its per-row K. Nothing else of a draw is kept.

    A Generator fills an (n, B, L, E) block in the order n separate
    (B, L, E) draws would take, so the draws do not depend on the block size.
    A block's view is C-order, so each draw's objective is one row sum over
    its own D_A rows, the value metrics.routing_objective gives for that
    draw's own view.
    """
    block = block_draws(shape, draws)
    columns = {s.name: {"objective": [], "max_vio": [], "comb_usage": []} for s in budgets}
    for start in range(0, draws, block):
        n = min(block, draws - start)
        scores = rng.normal(size=(n, *shape))
        masks = []
        for strat, budget in budgets.items():
            view = routing.reshape_scores(scores, strat)
            mask2d, _ = routing.topk_mask(view, budget)
            columns[strat.name]["objective"] += np.multiply(view, mask2d).reshape(n, -1).sum(axis=1).tolist()
            masks.append(routing.scatter_mask(mask2d, strat, scores.shape))
        # one report over every strategy's masks; each record equals its mask's own
        records = metrics_mod.routing_report(np.concatenate(masks), k)
        for i, column in enumerate(columns.values()):
            for key in ("max_vio", "comb_usage"):
                column[key] += [record[key] for record in records[i * n:(i + 1) * n]]
    return columns


def cmd_route_sim(args: argparse.Namespace) -> int:
    """Builds no model, so checks only the settings it reads: the score
    shape, k, the seed, the strategies and --draws, and that numpy can
    allocate the first block of draws, before --out."""
    cfg = resolve_settings(args)
    try:
        draws = int(args.draws)
    except ValueError:
        raise ConfigError(f"--draws must be an integer >= 1, got {args.draws!r}") from None
    if draws < 1:
        raise ConfigError(f"--draws must be >= 1, got {draws}")
    wanted = args.strategies.split(",") if args.strategies else list(routing.STRATEGIES)
    strategies = [routing.get_strategy(s) for s in wanted]
    repeated = sorted({s.name for s in strategies if strategies.count(s) > 1})
    if repeated:
        raise ConfigError(f"--strategies names {', '.join(repeated)} more than once")
    B, L, E, k = cfg["batch_size"], cfg["tokens"], cfg["experts"], cfg["k"]
    budgets = {s: routing.effective_k(s, B, L, E, k) for s in strategies}
    with allocating(f"batch_size={B}, tokens={L}, experts={E} ask"):
        np.empty((len(budgets) * block_draws((B, L, E), draws), B, L, E))  # the first block's masks, pages untouched
    out_dir = make_out_dir(args)
    csv_path = out_dir / "route_sim.csv"
    remove_file(csv_path)  # an earlier run's table never sits beside this run's snapshot
    write_config_snapshot(cfg, out_dir)
    rng = np.random.default_rng(cfg["seed"])
    columns = route_sim_draws(rng, budgets, (B, L, E), k, draws)

    race = columns.get("expert-race")
    rows = ["strategy,objective,gap_vs_expert_race,max_vio,comb_usage\n"]
    for strat in strategies:
        column = columns[strat.name]
        gap = float("nan") if race is None else np.mean(np.array(race["objective"]) - np.array(column["objective"]))
        objective, max_vio, comb_usage = (np.mean(column[key]) for key in ("objective", "max_vio", "comb_usage"))
        rows.append(f"{strat.name},{objective:.10g},{gap:.10g},{max_vio:.10g},{comb_usage:.10g}\n")
    replace_file(csv_path, "".join(rows))
    print(f"wrote {csv_path}", flush=True)
    return 0


# ----------------------------------------------------------------------
# train


def discard_later_claims(out_dir: Path, step: int, source: Path | None = None) -> Path | None:
    """Remove the files in `out_dir` that describe a state past `step`, and
    return where the resume `source` now is (None for a fresh run).

    A run rewrites everything after the step it starts from (0 for a fresh
    run, the checkpoint's step for a resume), so before it trains,
    summary.json, ckpt_final.npz and each ckpt_<n>.npz with n > step go; a
    run killed after this never leaves them disagreeing with its log. A
    ckpt_final.npz that is the resume `source` holds `step` itself: it is
    renamed to ckpt_<step>.npz, so the checkpoint the log reaches stays.
    A removal or rename that fails raises one ConfigError naming the file.
    """
    source = None if source is None else source.resolve()
    final = out_dir / "ckpt_final.npz"
    if final.resolve() == source:
        source = out_dir / f"ckpt_{step:06d}.npz"
        with refusing(f"cannot write {source}"):
            os.replace(final, source)
    remove_file(final)
    remove_file(out_dir / "summary.json")
    for ckpt in out_dir.glob("ckpt_*.npz"):
        n = ckpt.stem[len("ckpt_"):]
        if n.isascii() and n.isdigit() and int(n) > step and ckpt.resolve() != source:
            remove_file(ckpt)
    return source


def resumed_log_rows(path: Path, step: int) -> list[str]:
    """The rows of the log at `path`, each with its newline, that a run
    resumed at `step` keeps: those of the steps up to `step`. What follows
    the last newline was torn by a kill and is dropped, whatever it holds.
    Every other row must start with a step of ASCII digits, and a kept row
    must read back as the LogRecord row it was written as; any other row
    raises one ConfigError naming its line. A missing log keeps nothing."""
    if not path.exists():
        return []
    with refusing(f"cannot write {path}"):  # the log this run rewrites
        data = path.read_bytes()
    kept = []
    for line, row in enumerate(utf8_lines(path, data)[1:-1], start=2):
        fields = row.split(",")
        if not (fields[0].isascii() and fields[0].isdigit()):
            raise ConfigError(f"{path}:{line}: a log row starts with its step, got {fields[0]!r}")
        try:
            if int(fields[0]) > step:
                continue
            written = LogRecord(int(fields[0]), *map(float, fields[1:])).csv_row() == row
        except (TypeError, ValueError):  # a field too few or too many, or one int or float cannot read
            written = False
        if not written:
            raise ConfigError(f"{path}:{line}: expected a log row of {len(LogRecord.CSV_COLUMNS)} numbers "
                              f"({','.join(LogRecord.CSV_COLUMNS)}), got {row!r}")
        kept.append(row + "\n")
    return kept


def cmd_train(args: argparse.Namespace) -> int:
    cfg = resolve_settings(args)
    config = trainer_config_from(cfg)
    trainer = load_checkpoint(args.resume, config) if args.resume else Trainer(config)
    out_dir = make_out_dir(args)

    # a resumed run keeps the log rows up to the checkpoint's step and
    # rewrites the rest, so resuming into the same --out duplicates nothing.
    # The log is read before this run writes anything, so a log that cannot
    # be read, decoded or parsed leaves --out as it was.
    log_path = out_dir / "log.csv"
    kept = resumed_log_rows(log_path, trainer.step_count) if args.resume else []
    write_config_snapshot(cfg, out_dir)
    latest = discard_later_claims(out_dir, trainer.step_count, Path(args.resume) if args.resume else None)
    # the header and kept rows replace the log in one step, so a run killed
    # before its first new row still leaves the rows its checkpoint covers
    replace_file(log_path, ",".join(LogRecord.CSV_COLUMNS) + "\n" + "".join(kept))
    last = None
    try:
        with refusing(f"cannot write {log_path}"), log_path.open("a") as fh:  # a full disk mid-run too
            while trainer.step_count < cfg["steps"]:
                record = trainer.train_step()
                fh.write(record.csv_row() + "\n")
                fh.flush()  # the log on disk holds every finished step, so a tail is never behind
                last = record
                if cfg["checkpoint_every"] > 0 and record.step % cfg["checkpoint_every"] == 0:
                    save_checkpoint(out_dir / f"ckpt_{record.step:06d}.npz", trainer)
                    latest = out_dir / f"ckpt_{record.step:06d}.npz"
        save_checkpoint(out_dir / "ckpt_final.npz", trainer)
    except KeyboardInterrupt:  # Ctrl-C: main prints the step the log reaches and the checkpoint to go on from
        done = f"after step {last.step}" if last else "before its first new step"
        resume = f"resume from {latest}" if latest else "no checkpoint to resume from"
        raise KeyboardInterrupt(f"train stopped {done}; {resume}") from None
    summary = {
        "steps": trainer.step_count,
        "final": None if last is None else last.__dict__,
    }
    replace_file(out_dir / "summary.json", json.dumps(summary, indent=2) + "\n")
    print(f"trained {trainer.step_count} steps -> {out_dir}", flush=True)
    return 0


# ----------------------------------------------------------------------
# metrics


def cmd_metrics(args: argparse.Namespace) -> int:
    """The routing report per layer, with its tau, from Trainer.evaluate:
    the held-out set routed in infer mode under the checkpoint's own config.
    A checkpoint saved before its thresholds were set (a 0-step run), or
    one load_checkpoint refuses, raises a one-line ConfigError."""
    trainer = load_checkpoint(args.checkpoint)
    report = trainer.evaluate("infer").report  # before --out: a failed report leaves no directory
    blocks = trainer.params.blocks
    per_layer = [{"layer": i, **rec, "tau": blocks[i].moe.threshold.tau} for i, rec in enumerate(report)]
    path = make_out_dir(args) / "metrics.json"
    replace_file(path, json.dumps({"per_layer": per_layer}, indent=2) + "\n")
    print(f"wrote {path}", flush=True)
    return 0


# ----------------------------------------------------------------------
# ablate


def _parse_arms(spec: str, cfg: dict) -> list[tuple[str, int, TrainerConfig]]:
    """Each ';'-separated arm, ','-separated `key=value` overrides of the
    base settings `cfg`, with its step count and config: all parsed,
    typed and built, a blank Trainer too (np.empty arrays, nothing drawn),
    and so checked, before the first arm trains. An error names its arm."""
    arms = []
    for arm in (a.strip() for a in spec.split(";")):
        if not arm:
            continue
        where = f"arm {arm!r}"
        overrides = parse_settings((where, text, "in this arm") for text in arm.split(","))
        try:
            arm_cfg = check_settings({**cfg, **overrides})
            if arm_cfg["steps"] < 1:
                raise ConfigError(f"ablate trains each arm for --steps >= 1, got {arm_cfg['steps']}")
            config = trainer_config_from(arm_cfg)
            Trainer(config, blank=True)
            arms.append((arm, arm_cfg["steps"], config))
        except ConfigError as exc:
            raise ConfigError(f"{where}: {exc}") from None
    if not arms:
        raise ConfigError("ablate needs --arms 'key=value,...;...'")
    return arms


def cmd_ablate(args: argparse.Namespace) -> int:
    """One row per arm, from Trainer.evaluate on the held-out set routed in
    train mode (batch top-K): the diffusion loss, its excess over the
    Bayes-optimal denoiser and the layer means of the routing report. Only
    the arms' configs are built and checked; the snapshot holds the base
    settings the arms override."""
    cfg = resolve_settings(args)
    arms = _parse_arms(args.arms, cfg)
    out_dir = make_out_dir(args)
    csv_path = out_dir / "ablate.csv"
    remove_file(csv_path)  # an earlier run's table never sits beside this run's snapshot
    write_config_snapshot(cfg, out_dir)

    rows = ["arm,strategy,gating,w_sim,w_blc,heldout_diffusion,heldout_excess,max_vio,comb_usage,"
            "alloc_variance\n"]
    for arm, steps, config in arms:
        try:
            trainer = Trainer(config)
            for _ in range(steps):
                trainer.train_step()
            held_out = trainer.evaluate("train")
        except NumericError as exc:  # several arms: say which one diverged
            raise NumericError(f"arm {arm!r}: {exc}") from None
        means = [metrics_mod.report_mean(held_out.report, key)
                 for key in ("max_vio", "comb_usage", "allocation_bucket_variance")]
        numbers = [config.w_sim, config.w_blc, held_out.diffusion, held_out.excess, *means]
        quoted = '"' + arm.replace('"', '""') + '"'  # the arm's commas, quoted as CSV quotes a field
        fields = [quoted, config.model.strategy, config.model.gating] + [repr(float(x)) for x in numbers]
        rows.append(",".join(fields) + "\n")
    replace_file(csv_path, "".join(rows))  # once, after the last arm: a failed arm leaves no ablate.csv
    print(f"wrote {csv_path}", flush=True)
    return 0


def make_out_dir(args: argparse.Namespace) -> Path:
    if not args.out:
        raise ConfigError("--out is required")
    out_dir = Path(args.out)
    with refusing(f"cannot create output directory {out_dir}"):  # a file in the way, no permission, ...
        out_dir.mkdir(parents=True, exist_ok=True)
    return out_dir


# ----------------------------------------------------------------------


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The one parser of this process, built on first use: its flags come
    from module constants, so every call would build the same tree. Its
    callers only parse with it. It holds no command function; main looks
    that up by name on each call."""
    parser = argparse.ArgumentParser(prog="moelab", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser):
        p.add_argument("--config", help="flat key=value config file")
        p.add_argument("--out", help="output directory")
        for key in _FLAG_KEYS:  # text: check_settings types it as it does a config-file line
            p.add_argument("--" + key.replace("_", "-"), dest=key, default=None)

    p_sim = sub.add_parser("route-sim", help="compare strategies on sampled score tensors")
    add_common(p_sim)
    p_sim.add_argument("--strategies", help="comma-separated subset (default: all six)")
    p_sim.add_argument("--draws", default="100")  # text, typed by cmd_route_sim

    p_train = sub.add_parser("train", help="run the toy diffusion training loop")
    add_common(p_train)
    p_train.add_argument("--resume", help="checkpoint to resume from")

    p_metrics = sub.add_parser("metrics", help="report routing metrics from a checkpoint, under its own config")
    p_metrics.add_argument("--checkpoint", required=True)
    p_metrics.add_argument("--out", help="output directory")

    p_ablate = sub.add_parser("ablate", help="train several arms and tabulate")
    add_common(p_ablate)
    p_ablate.add_argument("--arms", required=True,
                          help="';'-separated arms, each ','-separated key=value overrides of the settings")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    # looked up per call, so a command wrapped or replaced by name is the one that runs
    command = {"route-sim": cmd_route_sim, "train": cmd_train, "metrics": cmd_metrics, "ablate": cmd_ablate}
    try:
        return command[args.command](args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except NumericError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 3
    except KeyboardInterrupt as exc:  # Ctrl-C; 130 is the shell's 128 + SIGINT
        print(f"interrupted: {str(exc) or args.command + ' stopped'}", file=sys.stderr)
        return 130
    except BrokenPipeError:  # a print's flush found stdout's reader gone; 141 is the shell's 128 + SIGPIPE
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())  # so the exit-time flush writes nowhere
        return 141


if __name__ == "__main__":
    sys.exit(main())
