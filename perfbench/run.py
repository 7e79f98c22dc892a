"""moelab benchmark: one workload per process, one JSON result line.

    python3 perfbench/run.py --workload {train,sample,route-sim} --seed N \
        --seconds S --trace {0,1} [--tiny]

Run from the repository root; the program is imported from ./src. With
--trace 0 the result carries the end-to-end metrics of BENCHMARK.json, with
--trace 1 its per-layer metrics from a traced run (see tracing.py). The line
before the result is a JSON record of the environment, a numpy calibration
kernel timed before and after the run, the output checks, and the metrics
under the workload's own names (train_step_ms.p50, sample_fail_frac, ...).

Exit codes: 0 when every output check passed, 1 when one failed (the result
then says "correct": false), 2 when moelab cannot be imported from ./src.
"""

from __future__ import annotations

import os

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:  # must precede the first numpy import
    os.environ[_var] = "1"

import argparse  # noqa: E402
import ctypes  # noqa: E402
import glob  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

import numpy as np  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / ".out"


def import_program():
    """Import moelab from ./src, and only from there."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import moelab

    if Path(moelab.__file__).resolve().parent != src / "moelab":
        raise ImportError(f"moelab was imported from {moelab.__file__}, not from {src}")
    return moelab


def calibration_ms() -> float:
    """Median time of a fixed numpy kernel; recorded next to the run, never used
    to scale a metric."""
    a = np.random.default_rng(0).standard_normal((192, 192))
    times = []
    for _ in range(7):
        t0 = perf_counter()
        b = a
        for _ in range(8):
            b = np.tanh(b @ a * 0.05)
        times.append(perf_counter() - t0)
    return 1000.0 * statistics.median(times)


def blas_threads():
    """OpenBLAS's own thread count, asked through the library numpy loaded."""
    for path in glob.glob(str(Path(np.__file__).parent.parent / "numpy.libs" / "*openblas*")):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def git_commit():
    if not (ROOT / ".git").exists():  # a plain checkout; don't let git search the parents
        return None
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def environment() -> dict:
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "thread_env": {var: os.environ.get(var) for var in THREAD_VARS},
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "git_commit": git_commit(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=["train", "sample", "route-sim"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--tiny", action="store_true", help="tiny model and shapes (self-test)")
    args = parser.parse_args(argv)

    try:
        import_program()
    except ImportError as exc:
        print(f"perfbench: cannot import moelab from {ROOT / 'src'}: {exc}", file=sys.stderr)
        return 2
    import workloads

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    OUT_DIR.mkdir(exist_ok=True)
    calib_before = calibration_ms()
    run = workloads.execute(args.workload, args.seed, args.seconds, bool(args.trace), args.tiny, OUT_DIR)
    calib_after = calibration_ms()

    run["metrics"]["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    chosen = spec["per_layer"] if args.trace else spec["end_to_end"]
    values = run["layer"] if args.trace else run["metrics"]
    correct = bool(run["checks"]) and all(run["checks"].values())
    record = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace, "tiny": args.tiny,
        "environment": environment(),
        "calibration_ms": {"before": calib_before, "after": calib_after},
        "checks": run["checks"],
        "end_to_end": run["metrics"],
        **run["detail"],
    }
    result = {
        "correct": correct,
        "attempted": run["attempted"],
        "failed": run["failed"],
        "metrics": {m["name"]: {"value": float(values[m["name"]]), "unit": m["unit"]} for m in chosen},
    }
    print(json.dumps({"perfbench_record": record}))
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
