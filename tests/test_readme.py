"""The README's Python examples run as written, its CLI lines parse, and
its metrics.json field list is the one `moelab metrics` writes."""

import json
import math
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

from moelab import cli
from moelab.denoiser import DenoiserConfig
from moelab.training import Trainer, TrainerConfig, save_checkpoint

ROOT = Path(__file__).resolve().parents[1]


def code_block(section: str, language: str = "python") -> str:
    """The first ```{language} block under the README heading `## {section}`."""
    text = (ROOT / "README.md").read_text()
    body = text.split(f"\n## {section}\n", 1)[1].split("\n## ", 1)[0]
    return re.search(rf"```{language}\n(.*?)```", body, re.S).group(1)


def run(code: str, cwd: Path) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "-c", code], cwd=cwd, capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
    )


def test_library_quick_start_runs(tmp_path):
    done = run(code_block("Library quick start") + "\nprint(state.tau, int(infer.mask.sum()))\n", tmp_path)
    assert done.returncode == 0, done.stderr
    tau, active = done.stdout.split()
    assert math.isfinite(float(tau)) and int(active) > 0


def test_checkpoint_format_example_reads_a_saved_checkpoint(tmp_path):
    model = DenoiserConfig(layers=1, model_dim=8, tokens=4, num_experts=4, k=2, dense_hidden=16)
    trainer = Trainer(TrainerConfig(model=model, batch_size=4))
    trainer.train_step()
    (tmp_path / "runs" / "toy").mkdir(parents=True)
    save_checkpoint(tmp_path / "runs" / "toy" / "ckpt_final.npz", trainer)
    done = run(code_block("Checkpoint format") + "\nprint(gate_w.tolist())\n", tmp_path)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == str(trainer.params.blocks[0].moe.gate_w.data.tolist())


def test_cli_examples_parse():
    # each command line, its `\\` continuations joined, parses, and its
    # settings and arms pass the checks they would meet before a run
    lines = code_block("CLI", "bash").replace("\\\n", " ").splitlines()
    commands = [shlex.split(line)[1:] for line in lines if line.startswith("moelab ")]
    assert {argv[0] for argv in commands} == {"route-sim", "train", "metrics", "ablate"}
    for argv in commands:
        args = cli.build_parser().parse_args(argv)
        if argv[0] == "ablate":
            assert cli._parse_arms(args.arms, cli.resolve_settings(args)), argv
        elif argv[0] != "metrics":
            cli.resolve_settings(args)


def test_metrics_json_fields_are_the_ones_listed(tmp_path):
    # the bullets under "with these fields:" name each per-layer key of
    # metrics.json, in the order `moelab metrics` writes them
    text = (ROOT / "README.md").read_text()
    bullets = text.split("with these fields:\n\n", 1)[1].split("\n\n", 1)[0]
    listed = re.findall(r"^- `(\w+)`", bullets, re.M)
    model = DenoiserConfig(layers=2, model_dim=8, tokens=4, num_experts=4, k=2, dense_hidden=16)
    trainer = Trainer(TrainerConfig(model=model, batch_size=4))
    trainer.train_step()
    save_checkpoint(tmp_path / "ckpt.npz", trainer)
    assert cli.main(["metrics", "--checkpoint", str(tmp_path / "ckpt.npz"), "--out", str(tmp_path / "m")]) == 0
    per_layer = json.loads((tmp_path / "m" / "metrics.json").read_text())["per_layer"]
    assert len(per_layer) == 2 and all(list(record) == listed for record in per_layer)
