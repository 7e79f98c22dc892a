"""The README's Python examples run as written."""

import math
import os
import re
import subprocess
import sys
from pathlib import Path

from moelab.denoiser import DenoiserConfig
from moelab.training import Trainer, TrainerConfig, save_checkpoint

ROOT = Path(__file__).resolve().parents[1]


def python_block(section: str) -> str:
    """The first ```python block under the README heading `## {section}`."""
    text = (ROOT / "README.md").read_text()
    body = text.split(f"\n## {section}\n", 1)[1].split("\n## ", 1)[0]
    return re.search(r"```python\n(.*?)```", body, re.S).group(1)


def run(code: str, cwd: Path) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "-c", code], cwd=cwd, capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
    )


def test_library_quick_start_runs(tmp_path):
    done = run(python_block("Library quick start") + "\nprint(state.tau, int(infer.mask.sum()))\n", tmp_path)
    assert done.returncode == 0, done.stderr
    tau, active = done.stdout.split()
    assert math.isfinite(float(tau)) and int(active) > 0


def test_checkpoint_format_example_reads_a_saved_checkpoint(tmp_path):
    model = DenoiserConfig(layers=1, model_dim=8, tokens=4, num_experts=4, k=2, dense_hidden=16)
    trainer = Trainer(TrainerConfig(model=model, batch_size=4))
    trainer.train_step()
    (tmp_path / "runs" / "toy").mkdir(parents=True)
    save_checkpoint(tmp_path / "runs" / "toy" / "ckpt_final.npz", trainer)
    done = run(python_block("Checkpoint format") + "\nprint(gate_w.tolist())\n", tmp_path)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == str(trainer.params.blocks[0].moe.gate_w.data.tolist())
