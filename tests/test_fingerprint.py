"""The run fingerprint (tests/fingerprint.py) is the same at 1 and 2 BLAS threads."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def fingerprint_at(threads: int) -> str:
    """fingerprint(TrainerConfig(), 10) in a fresh process, its BLAS pool at `threads`."""
    code = ("from fingerprint import fingerprint; from moelab.training import TrainerConfig; "
            "print(fingerprint(TrainerConfig(), 10))")
    env = {**os.environ, **dict.fromkeys(THREAD_VARS, str(threads)),
           "PYTHONPATH": os.pathsep.join([str(ROOT / "src"), str(ROOT / "tests")])}
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=300, env=env)
    assert done.returncode == 0, done.stderr
    return done.stdout.strip()


def test_the_fingerprint_does_not_depend_on_the_blas_thread_count():
    one = fingerprint_at(1)
    assert len(one) == 64
    assert fingerprint_at(2) == one
