"""The fingerprints of tests/fingerprint.py are the same at 1 and 2 BLAS threads."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
FINGERPRINTS = {
    "training": "from fingerprint import fingerprint; from moelab.training import TrainerConfig; "
                "print(fingerprint(TrainerConfig(), 10))",
    "route-sim": "from fingerprint import route_sim_fingerprint; print(route_sim_fingerprint(200))",
}


def fingerprint_at(code: str, threads: int) -> str:
    """What `code` prints in a fresh process, its BLAS pool at `threads`."""
    env = {**os.environ, **dict.fromkeys(THREAD_VARS, str(threads)),
           "PYTHONPATH": os.pathsep.join([str(ROOT / "src"), str(ROOT / "tests")])}
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=300, env=env)
    assert done.returncode == 0, done.stderr
    return done.stdout.strip()


@pytest.mark.parametrize("code", list(FINGERPRINTS.values()), ids=list(FINGERPRINTS))
def test_the_fingerprint_does_not_depend_on_the_blas_thread_count(code):
    one = fingerprint_at(code, 1)
    assert len(one) == 64
    assert fingerprint_at(code, 2) == one
