"""CLI commands drive the library end to end and stay reproducible."""

import csv
import hashlib
import io
import json
import math
import os
import signal
import struct
import subprocess
import sys
import time
import zipfile
from pathlib import Path

import numpy as np
import pytest

from moelab.cli import main, parse_config_file
from moelab.denoiser import DenoiserConfig
from moelab.losses import LossWeights
from moelab.training import Trainer, TrainerConfig, load_checkpoint, save_checkpoint

FAST = [
    "--batch-size", "4", "--tokens", "4", "--model-dim", "8",
    "--layers", "1", "--experts", "4", "--k", "2",
]


def read_csv(path: Path) -> list[dict]:
    with path.open() as fh:
        return list(csv.DictReader(fh))


def test_route_sim_six_strategies_race_on_top(tmp_path):
    out = tmp_path / "sim"
    rc = main(["route-sim", "--out", str(out), "--seed", "1", "--draws", "40",
               "--batch-size", "2", "--tokens", "4", "--experts", "4", "--k", "2"])
    assert rc == 0
    rows = read_csv(out / "route_sim.csv")
    assert len(rows) == 6
    objectives = {r["strategy"]: float(r["objective"]) for r in rows}
    assert max(objectives, key=objectives.get) == "expert-race"
    gaps = {r["strategy"]: float(r["gap_vs_expert_race"]) for r in rows}
    assert all(g >= 0 for g in gaps.values())
    assert gaps["expert-race"] == 0.0


def test_route_sim_invalid_combo_names_constraint(tmp_path, capsys):
    rc = main(["route-sim", "--out", str(tmp_path / "x"), "--draws", "1", "--seed", "0",
               "--strategies", "expert-choice",
               "--batch-size", "2", "--tokens", "3", "--experts", "4", "--k", "1"])
    assert rc == 2
    assert "divide" in capsys.readouterr().err


@pytest.mark.parametrize("k", [3, 5, 6, 7])
def test_route_sim_takes_a_k_that_does_not_divide_dense_hidden(tmp_path, k):
    # route-sim builds no model, so the default dense_hidden = 256 does not bind its k
    out = tmp_path / "sim"
    assert main(["route-sim", "--out", str(out), "--draws", "2", "--k", str(k)]) == 0
    assert len(read_csv(out / "route_sim.csv")) == 6
    assert f"\nk = {k}\n" in (out / "config.snapshot").read_text()


@pytest.mark.parametrize("flag, value, named", [
    ("--seed", "-1", "seed must be >= 0, got -1"),
    ("--strategy", "fastest", "unknown strategy 'fastest'"),
    ("--k", "9", "k=9"),
])
def test_route_sim_rejects_a_setting_it_reads_or_writes_before_writing(tmp_path, capsys, flag, value, named):
    out = tmp_path / "sim"
    rc = main(["route-sim", "--out", str(out), "--draws", "1", flag, value])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and err.count("\n") == 1 and named in err, err
    assert not out.exists()


def test_route_sim_single_strategy(tmp_path):
    out = tmp_path / "one"
    rc = main(["route-sim", "--out", str(out), "--strategies", "expert-race",
               "--draws", "5", "--seed", "0"])
    assert rc == 0
    assert len(read_csv(out / "route_sim.csv")) == 1


def test_route_sim_deterministic(tmp_path):
    args = ["route-sim", "--seed", "7", "--draws", "10",
            "--batch-size", "2", "--tokens", "4", "--experts", "4", "--k", "2"]
    main(args + ["--out", str(tmp_path / "a")])
    main(args + ["--out", str(tmp_path / "b")])
    assert (tmp_path / "a/route_sim.csv").read_text() == (tmp_path / "b/route_sim.csv").read_text()


def test_train_writes_log_checkpoints_and_summary(tmp_path):
    out = tmp_path / "run"
    rc = main(["train", "--out", str(out), "--steps", "6", "--seed", "2", *FAST])
    assert rc == 0
    rows = read_csv(out / "log.csv")
    assert len(rows) == 6
    assert list(rows[0]) == ["step", "diffusion", "plr", "sim", "blc", "total", "max_vio", "comb_usage", "mean_active"]
    assert (out / "ckpt_final.npz").exists()
    summary = json.loads((out / "summary.json").read_text())
    assert summary["steps"] == 6
    assert np.isfinite(summary["final"]["total"])
    assert (out / "config.snapshot").exists()


def test_train_resume_reproduces_trajectory(tmp_path):
    base = ["--seed", "3", *FAST]
    full = tmp_path / "full"
    main(["train", "--out", str(full), "--steps", "8", *base])
    part = tmp_path / "part"
    main(["train", "--out", str(part), "--steps", "4", *base])
    resumed = tmp_path / "resumed"
    rc = main(["train", "--out", str(resumed), "--steps", "8",
               "--resume", str(part / "ckpt_final.npz"), *base])
    assert rc == 0
    full_rows = read_csv(full / "log.csv")
    resumed_rows = read_csv(resumed / "log.csv")
    assert [r["total"] for r in full_rows[4:]] == [r["total"] for r in resumed_rows]


def test_train_resume_into_same_dir_keeps_one_row_per_step(tmp_path):
    cfg = tmp_path / "every3.cfg"
    cfg.write_text("checkpoint_every = 3\n")
    base = ["--config", str(cfg), "--seed", "3", "--steps", "6", *FAST]
    run = tmp_path / "run"
    main(["train", "--out", str(run), *base])
    first = (run / "log.csv").read_text()
    rc = main(["train", "--out", str(run), "--resume", str(run / "ckpt_000003.npz"), *base])
    assert rc == 0
    assert [r["step"] for r in read_csv(run / "log.csv")] == ["1", "2", "3", "4", "5", "6"]
    assert (run / "log.csv").read_text() == first  # resumed rows repeat bit for bit


def test_killed_resume_keeps_the_log_its_checkpoint_covers(tmp_path):
    # resumes into the run's own --out, SIGKILLed before their first new
    # step and inside a checkpoint save
    cfg = tmp_path / "every2.cfg"
    cfg.write_text("checkpoint_every = 2\n")
    run = tmp_path / "run"
    base = ["train", "--out", str(run), "--config", str(cfg), "--seed", "3", *FAST]
    assert main([*base, "--steps", "4"]) == 0
    full_log = (run / "log.csv").read_text()
    header_and_steps_1_2 = "".join(full_log.splitlines(keepends=True)[:3])
    src = Path(__file__).resolve().parents[1] / "src"

    def killed(kill, *resume):
        child = f"import os, signal, sys\nfrom moelab import cli, training\n{kill}\ncli.main(sys.argv[1:])\n"
        done = subprocess.run(
            [sys.executable, "-c", child, *resume],
            env={**os.environ, "PYTHONPATH": str(src)}, capture_output=True, text=True, timeout=120,
        )
        assert done.returncode == -signal.SIGKILL, done.stderr

    kill_on_step = "cli.Trainer.train_step = lambda self: os.kill(os.getpid(), signal.SIGKILL)"
    resume_2 = [*base, "--steps", "4", "--resume", str(run / "ckpt_000002.npz")]
    killed(kill_on_step, *resume_2)
    assert (run / "log.csv").read_text() == header_and_steps_1_2
    # nothing left claims a state past step 2: no summary, final or step 4 checkpoint
    assert sorted(p.name for p in run.iterdir()) == ["ckpt_000002.npz", "config.snapshot", "log.csv"]

    killed("training._write_member = lambda *a: os.kill(os.getpid(), signal.SIGKILL)", *resume_2)
    assert len(list(run.glob(".ckpt_000004.npz.*.tmp"))) == 1  # the killed save's temp file
    # its save of ckpt_000004.npz removes that file
    assert main([*base, "--steps", "5", "--resume", str(run / "ckpt_000002.npz")]) == 0
    assert not list(run.glob(".*.tmp"))
    log_5 = (run / "log.csv").read_text()
    assert log_5.startswith(full_log) and len(log_5.splitlines()) == 6
    final = (run / "ckpt_final.npz").read_bytes()

    # resuming from ckpt_final.npz itself keeps that file, as ckpt_000005.npz
    killed(kill_on_step, *base, "--steps", "6", "--resume", str(run / "ckpt_final.npz"))
    assert sorted(p.name for p in run.iterdir()) == [
        "ckpt_000002.npz", "ckpt_000004.npz", "ckpt_000005.npz", "config.snapshot", "log.csv"]
    assert (run / "ckpt_000005.npz").read_bytes() == final
    assert (run / "log.csv").read_text() == log_5


def test_resume_drops_a_torn_last_log_row(tmp_path):
    # a kill can cut the log's last row wherever a buffer flush ended; the
    # row "11,..." torn to "1" reads as step 1 and must not be kept
    cfg = tmp_path / "every10.cfg"
    cfg.write_text("checkpoint_every = 10\n")
    run = tmp_path / "run"
    base = ["train", "--out", str(run), "--config", str(cfg), "--seed", "3", "--steps", "12", *FAST]
    assert main(base) == 0
    full = (run / "log.csv").read_text()
    rows = full.splitlines(keepends=True)
    (run / "log.csv").write_text("".join(rows[:11]) + rows[11][:1])
    assert main([*base, "--resume", str(run / "ckpt_000010.npz")]) == 0
    assert (run / "log.csv").read_text() == full


def _member_digests(path: Path) -> dict:
    with zipfile.ZipFile(path) as archive:
        return {m: hashlib.sha256(archive.read(f"{m}.npy")).hexdigest() for m in ("param", "ema", "opt_m", "opt_v")}


def test_train_killed_at_seeded_times_resumes_to_the_uninterrupted_run(tmp_path):
    # `python -m moelab train` SIGKILLed three times, each time resumed from
    # its newest checkpoint (fresh if it has none). A kill is keyed to the
    # log on disk reaching a seeded row count (the log is flushed before
    # each checkpoint save), plus a seeded delay under one step, so it lands
    # inside a save or a step whatever the process's start-up costs. On a
    # 2-vCPU x86 VM the first kill lands inside the save of step 8, so the
    # resume from step 4 must drop logged rows 5-8, and the others in steps.
    steps, every = 80, 4
    cfg = tmp_path / "every4.cfg"
    cfg.write_text(f"checkpoint_every = {every}\n")
    args = ["--config", str(cfg), "--seed", "3", "--steps", str(steps), *FAST]
    ref, run = tmp_path / "ref", tmp_path / "run"
    assert main(["train", "--out", str(ref), *args]) == 0

    rng = np.random.default_rng(1)
    # rows in separate bands, so each resume starts below the next kill
    # point; the last band ends 34 steps before the run does
    kill_rows = [int(rng.integers(lo, lo + 13)) for lo in (2, 18, 34)]
    delays = rng.uniform(0.0, 0.004, size=3)  # a tiny-config step takes ~4 ms
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
    log = run / "log.csv"

    def resume_newest():
        ckpts = sorted(p for p in run.glob("ckpt_*.npz") if p.stem[len("ckpt_"):].isdigit())
        return ["--resume", str(ckpts[-1])] if ckpts else []

    for rows, delay in zip(kill_rows, delays):
        resume = resume_newest()
        child = subprocess.Popen([sys.executable, "-m", "moelab", "train", "--out", str(run), *args, *resume],
                                 env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE)
        killed, deadline = False, time.monotonic() + 60
        try:
            while not killed and child.poll() is None and time.monotonic() < deadline:
                if log.exists() and log.read_text().count("\n") - 1 >= rows:
                    time.sleep(delay)
                    child.send_signal(signal.SIGKILL)
                    killed = True
                time.sleep(0.0005)
        finally:
            if child.poll() is None:
                child.kill()
            _, err = child.communicate()
        assert killed and child.returncode == -signal.SIGKILL, (rows, child.returncode, err.decode())

    assert main(["train", "--out", str(run), *args, *resume_newest()]) == 0
    assert [r["step"] for r in read_csv(log)] == [str(n) for n in range(1, steps + 1)]
    assert log.read_text() == (ref / "log.csv").read_text()
    assert _member_digests(run / "ckpt_final.npz") == _member_digests(ref / "ckpt_final.npz")
    assert not [p.name for p in run.iterdir() if p.name.endswith(".tmp")]


def test_fresh_train_into_a_used_out_leaves_no_file_of_the_earlier_run(tmp_path, monkeypatch):
    from moelab import cli

    cfg = tmp_path / "every3.cfg"
    cfg.write_text("checkpoint_every = 3\n")
    run = tmp_path / "run"
    base = ["train", "--out", str(run), "--config", str(cfg), "--seed", "3", *FAST]
    assert main([*base, "--steps", "6"]) == 0
    assert main([*base, "--steps", "2"]) == 0
    assert sorted(p.name for p in run.iterdir()) == ["ckpt_final.npz", "config.snapshot", "log.csv", "summary.json"]
    assert [r["step"] for r in read_csv(run / "log.csv")] == ["1", "2"]
    assert json.loads((run / "summary.json").read_text())["steps"] == 2

    # a fresh run that dies before its first step leaves no final or summary
    assert main([*base, "--steps", "6"]) == 0

    def dies(self):
        raise RuntimeError("killed")

    monkeypatch.setattr(cli.Trainer, "train_step", dies)
    with pytest.raises(RuntimeError, match="killed"):
        main([*base, "--steps", "6"])
    assert sorted(p.name for p in run.iterdir()) == ["config.snapshot", "log.csv"]
    assert read_csv(run / "log.csv") == []


def test_train_log_on_disk_reaches_each_checkpoint_step(tmp_path, monkeypatch):
    from moelab import cli

    cfg = tmp_path / "every3.cfg"
    cfg.write_text("checkpoint_every = 3\n")
    run = tmp_path / "run"
    seen = []
    save = cli.save_checkpoint

    def recording_save(path, trainer):
        seen.append((Path(path).name, len((run / "log.csv").read_text().splitlines())))
        save(path, trainer)

    monkeypatch.setattr(cli, "save_checkpoint", recording_save)
    rc = main(["train", "--out", str(run), "--config", str(cfg), "--seed", "3", "--steps", "6", *FAST])
    assert rc == 0
    # header plus one row per step done, at every save
    assert seen == [("ckpt_000003.npz", 4), ("ckpt_000006.npz", 7), ("ckpt_final.npz", 7)]


def test_train_log_on_disk_holds_every_finished_step(tmp_path, monkeypatch):
    # between checkpoints too: before each step, a reader of log.csv sees
    # the whole row of every step already done
    run = tmp_path / "run"
    step = Trainer.train_step
    checked = []

    def checking_step(trainer):
        text = (run / "log.csv").read_text()
        assert text.endswith("\n")
        assert [row.split(",", 1)[0] for row in text.splitlines()[1:]] == [
            str(n) for n in range(1, trainer.step_count + 1)
        ]
        checked.append(trainer.step_count)
        return step(trainer)

    monkeypatch.setattr(Trainer, "train_step", checking_step)
    assert main(["train", "--out", str(run), "--seed", "3", "--steps", "5", *FAST]) == 0
    assert checked == [0, 1, 2, 3, 4]


def test_train_resume_rejects_mismatched_config(tmp_path):
    part = tmp_path / "part"
    main(["train", "--out", str(part), "--steps", "2", "--seed", "3", *FAST])
    rc = main(["train", "--out", str(tmp_path / "bad"), "--steps", "4", "--seed", "4",
               "--resume", str(part / "ckpt_final.npz"), *FAST])
    assert rc == 2


def test_default_model_is_one_config_in_library_and_cli(tmp_path):
    # a checkpoint of Trainer(TrainerConfig()) goes through the CLI's
    # defaults, and one the CLI writes at its defaults loads with TrainerConfig()
    trainer = Trainer(TrainerConfig())
    trainer.train_step()
    lib = tmp_path / "lib.npz"
    save_checkpoint(lib, trainer)
    assert main(["metrics", "--checkpoint", str(lib), "--out", str(tmp_path / "rep")]) == 0
    assert main(["train", "--steps", "1", "--resume", str(lib), "--out", str(tmp_path / "cli")]) == 0
    assert load_checkpoint(tmp_path / "cli" / "ckpt_final.npz", TrainerConfig()).step_count == 1


def test_trainer_config_from_dict_inverts_to_dict():
    default = TrainerConfig()
    other = TrainerConfig(
        model=DenoiserConfig(layers=2, model_dim=12, tokens=6, num_classes=3, num_experts=3, k=3,
                             dense_hidden=24, strategy="token-choice", gating="softmax", parameterization="v",
                             total_steps=30, dense=True),
        batch_size=5, lr=3e-3, weights=LossWeights(plr=0.5, sim=0.25, blc=0.125), seed=9,
    )
    assert all(other.to_dict()[key] != value for key, value in default.to_dict().items())
    for config in (default, other):
        assert TrainerConfig.from_dict(config.to_dict()) == config


def test_default_config_snapshot(tmp_path):
    # the CLI's keys and defaults: TrainerConfig's flat fields plus the run's own
    out = tmp_path / "sim"
    assert main(["route-sim", "--out", str(out), "--draws", "1"]) == 0
    assert (out / "config.snapshot").read_text() == (
        "batch_size = 32\n"
        "checkpoint_every = 100\n"
        "dense_hidden = 256\n"
        "experts = 8\n"
        "gating = identity\n"
        "k = 2\n"
        "layers = 4\n"
        "lr = 0.0001\n"
        "model_dim = 64\n"
        "num_classes = 4\n"
        "parameterization = eps\n"
        "schema_version = 1\n"
        "seed = 0\n"
        "steps = 200\n"
        "strategy = expert-race\n"
        "tokens = 16\n"
        "total_steps = 100\n"
        "w_blc = 0.0\n"
        "w_plr = 0.01\n"
        "w_sim = 0.0001\n"
    )


def test_invalid_selection_size_is_config_error(tmp_path):
    # expert-choice with E not dividing k*L
    rc = main(["train", "--out", str(tmp_path / "x"), "--steps", "1", "--seed", "0",
               "--strategy", "expert-choice",
               "--batch-size", "2", "--tokens", "3", "--experts", "4", "--k", "1",
               "--model-dim", "8", "--layers", "1"])
    assert rc == 2


def test_metrics_report_from_checkpoint(tmp_path):
    run = tmp_path / "run"
    main(["train", "--out", str(run), "--steps", "5", "--seed", "5", *FAST])
    out = tmp_path / "report"
    rc = main(["metrics", "--checkpoint", str(run / "ckpt_final.npz"),
               "--out", str(out), "--seed", "5", *FAST])
    assert rc == 0
    report = json.loads((out / "metrics.json").read_text())
    assert len(report["per_layer"]) == 1
    entry = report["per_layer"][0]
    for key in ("max_vio", "comb_usage", "mean_active", "allocation_bucket_variance", "tau"):
        assert key in entry
    # repeated invocation is read-only and identical
    out2 = tmp_path / "report2"
    main(["metrics", "--checkpoint", str(run / "ckpt_final.npz"),
          "--out", str(out2), "--seed", "5", *FAST])
    assert (out / "metrics.json").read_text() == (out2 / "metrics.json").read_text()


def test_metrics_on_an_untrained_checkpoint_is_a_state_error(tmp_path, capsys):
    run = tmp_path / "run"
    assert main(["train", "--out", str(run), "--steps", "0", "--seed", "5", *FAST]) == 0
    capsys.readouterr()
    rc = main(["metrics", "--checkpoint", str(run / "ckpt_final.npz"),
               "--out", str(tmp_path / "rep"), "--seed", "5", *FAST])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith("state error: ") and err.count("\n") == 1, err
    assert not (tmp_path / "rep" / "metrics.json").exists()


@pytest.mark.parametrize("drop", ["param", "meta"])
def test_metrics_checkpoint_missing_entry_is_config_error(tmp_path, capsys, drop):
    run = tmp_path / "run"
    main(["train", "--out", str(run), "--steps", "1", "--seed", "5", *FAST])
    with np.load(run / "ckpt_final.npz") as data:
        arrays = {key: data[key] for key in data.files}
    if drop == "param":
        missing = "has no entry 'param'"
        del arrays["param"]
    else:
        missing = "metadata has no ['step']"
        meta = json.loads(bytes(arrays["meta_json"]).decode("utf-8"))
        del meta["step"]
        arrays["meta_json"] = np.frombuffer(json.dumps(meta).encode("utf-8"), dtype=np.uint8)
    broken = tmp_path / "broken.npz"
    np.savez(broken, **arrays)
    rc = main(["metrics", "--checkpoint", str(broken),
               "--out", str(tmp_path / "rep"), "--seed", "5", *FAST])
    assert rc == 2
    assert missing in capsys.readouterr().err


def read_meta(arrays: dict) -> dict:
    return json.loads(bytes(arrays["meta_json"]).decode("utf-8"))


def encode_meta(meta: dict) -> np.ndarray:
    return np.frombuffer(json.dumps(meta).encode("utf-8"), dtype=np.uint8)


def tensor_slice(meta: dict, name: str) -> slice:
    """Where a named tensor sits in each flat state group, from the manifest."""
    start = 0
    for saved, shape in meta["tensors"]:
        size = math.prod(shape)
        if saved == name:
            return slice(start, start + size)
        start += size
    raise KeyError(name)


def in_b_of_shape_1(meta_json: np.ndarray) -> np.ndarray:
    meta = read_meta({"meta_json": meta_json})
    meta["tensors"] = [[name, [1] if name == "in_b" else shape] for name, shape in meta["tensors"]]
    return encode_meta(meta)


@pytest.mark.parametrize(
    "member,edit,key,named",
    [
        ("meta_json", in_b_of_shape_1, "in_b", "shape (1,), the model needs (8,)"),
        ("ema", lambda a: a[:-32], "ema", "shape ({short},), the model needs ({n},)"),
        ("opt_m", lambda a: a.astype(np.float32), "opt_m", "dtype float32, the model needs float64"),
        ("opt_v", lambda a: a.astype(np.int64), "opt_v", "dtype int64, the model needs float64"),
    ],
    ids=["param-shape", "ema-shape", "opt_m-float32", "opt_v-int64"],
)
def test_metrics_checkpoint_bad_array_is_config_error(tmp_path, capsys, member, edit, key, named):
    run = tmp_path / "run"
    main(["train", "--out", str(run), "--steps", "1", "--seed", "5", *FAST])
    with np.load(run / "ckpt_final.npz") as data:
        arrays = {name: data[name] for name in data.files}
    arrays[member] = edit(arrays[member])
    n = arrays["param"].size
    broken = tmp_path / "broken.npz"
    np.savez(broken, **arrays)
    rc = main(["metrics", "--checkpoint", str(broken),
               "--out", str(tmp_path / "rep"), "--seed", "5", *FAST])
    assert rc == 2
    err = capsys.readouterr().err
    assert repr(key) in err and named.format(n=n, short=n - 32) in err


def _edit_meta(fault: str, meta: dict) -> None:
    if fault == "momentum":  # the version 2 entry, not a number
        meta["thresholds"][0] = {"momentum": 0.99, "tau": meta["thresholds"][0]}
    elif fault == "missing":
        meta["thresholds"].pop()
    elif fault == "tau-text":
        meta["thresholds"][0] = "abc"
    elif fault == "tau-nan":
        meta["thresholds"][0] = float("nan")
    elif fault == "tau-bool":
        meta["thresholds"][0] = True
    elif fault == "tau-huge":
        meta["thresholds"][0] = 10**400  # a JSON integer no float holds
    elif fault == "config-list":
        meta["config"] = [1, 2]
    elif fault == "config-text":
        meta["config"] = "x"
    elif fault == "version-text":
        meta["version"] = "3"
    elif fault == "rng_state":
        meta["rng_state"] = "x"
    elif fault == "step-bool":
        meta["step"] = True
    elif fault == "ema_decay":  # saved when the EMA decay was a setting
        meta["config"]["ema_decay"] = 0.999
    else:
        meta["step"] = "1"


@pytest.mark.parametrize("fault,named", [
    ("momentum", "momentum"), ("missing", "threshold entries"),
    ("tau-text", "'tau': 'abc'"), ("tau-nan", "'tau': nan"), ("tau-bool", "'tau': True"), ("tau-huge", "'tau': 1000"),
    ("rng_state", "'rng_state'"), ("step", "'step' is '1'"),
    ("step-bool", "'step' is True"), ("ema_decay", "'ema_decay': (0.999, None)"),
    ("config-list", "'config' is not a JSON object"), ("config-text", "'config' is not a JSON object"),
    ("version-text", "has version '3'; this moelab reads version 4"),
])
def test_metrics_checkpoint_bad_thresholds_is_config_error(tmp_path, capsys, fault, named):
    # malformed checkpoint metadata: one config-error line naming the field,
    # from `metrics` and from `train --resume` alike
    run = tmp_path / "run"
    main(["train", "--out", str(run), "--steps", "1", "--seed", "5", *FAST])
    with np.load(run / "ckpt_final.npz") as data:
        arrays = {key: data[key] for key in data.files}
    meta = read_meta(arrays)
    _edit_meta(fault, meta)
    arrays["meta_json"] = encode_meta(meta)
    broken = tmp_path / "broken.npz"
    np.savez(broken, **arrays)
    capsys.readouterr()
    for args in (["metrics", "--checkpoint", str(broken)], ["train", "--steps", "2", "--resume", str(broken)]):
        rc = main([*args, "--out", str(tmp_path / "rep"), "--seed", "5", *FAST])
        err = capsys.readouterr().err
        assert rc == 2, args
        assert err.startswith("config error: checkpoint ") and err.count("\n") == 1, err
        assert named in err, err


@pytest.mark.parametrize("command", ["metrics", "train"])
def test_non_finite_router_scores_exit_3_naming_the_block(tmp_path, capsys, command):
    run = tmp_path / "run"
    main(["train", "--out", str(run), "--steps", "1", "--seed", "5", *FAST])
    with np.load(run / "ckpt_final.npz") as data:
        arrays = {key: data[key] for key in data.files}
    arrays["param"][tensor_slice(read_meta(arrays), "block0.moe.gate_b")] = np.nan
    broken = tmp_path / "broken.npz"
    np.savez(broken, **arrays)
    if command == "metrics":  # infer-mode routing
        args = ["metrics", "--checkpoint", str(broken)]
    else:  # train-mode routing on the resumed step
        args = ["train", "--steps", "2", "--resume", str(broken)]
    rc = main([*args, "--out", str(tmp_path / "out"), "--seed", "5", *FAST])
    assert rc == 3
    assert "block 0: router scores have" in capsys.readouterr().err


def test_metrics_one_in_one_flags_no_pairs(tmp_path):
    args = ["--batch-size", "4", "--tokens", "4", "--model-dim", "8",
            "--layers", "1", "--experts", "1", "--k", "1"]
    run = tmp_path / "run"
    main(["train", "--out", str(run), "--steps", "2", "--seed", "6", *args])
    out = tmp_path / "rep"
    rc = main(["metrics", "--checkpoint", str(run / "ckpt_final.npz"),
               "--out", str(out), "--seed", "6", *args])
    assert rc == 0
    entry = json.loads((out / "metrics.json").read_text())["per_layer"][0]
    assert entry["comb_usage"] == 0.0 and entry["comb_no_pairs"] is True


def test_ablate_rows_per_arm(tmp_path):
    out = tmp_path / "ablate"
    rc = main(["ablate", "--out", str(out), "--seed", "1", "--steps", "3",
               "--arms", "expert-race:softmax;expert-race:sigmoid;expert-race:identity",
               *FAST])
    assert rc == 0
    rows = read_csv(out / "ablate.csv")
    assert len(rows) == 3
    assert {r["gating"] for r in rows} == {"softmax", "sigmoid", "identity"}
    for r in rows:
        for col in ("final_total", "max_vio", "comb_usage", "alloc_variance"):
            assert r[col] != ""


def test_ablate_balance_settings_arms(tmp_path):
    # no constraint / balance loss / router similarity
    out = tmp_path / "balance"
    rc = main(["ablate", "--out", str(out), "--seed", "2", "--steps", "3",
               "--arms",
               "expert-race:identity:0:0;expert-race:identity:0:0.0001;expert-race:identity:0.0001:0",
               *FAST])
    assert rc == 0
    rows = read_csv(out / "ablate.csv")
    assert len(rows) == 3
    assert [float(r["w_sim"]) for r in rows] == [0.0, 0.0, 0.0001]
    assert [float(r["w_blc"]) for r in rows] == [0.0, 0.0001, 0.0]


def test_ablate_arm_matches_individual_run(tmp_path):
    arm_out = tmp_path / "arm"
    main(["ablate", "--out", str(arm_out), "--seed", "9", "--steps", "4",
          "--arms", "token-choice:sigmoid", *FAST])
    solo_out = tmp_path / "solo"
    main(["train", "--out", str(solo_out), "--steps", "4", "--seed", "9",
          "--strategy", "token-choice", "--gating", "sigmoid", *FAST])
    arm_row = read_csv(arm_out / "ablate.csv")[0]
    solo_rows = read_csv(solo_out / "log.csv")
    assert float(arm_row["final_total"]) == float(solo_rows[-1]["total"])


def test_config_file_and_flag_precedence(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "# toy config\n"
        "schema_version = 1\n"
        "seed = 11\n"
        "steps = 2\n"
        "batch_size = 4\n"
        "tokens = 4\n"
        "model_dim = 8\n"
        "layers = 1\n"
        "experts = 4\n"
        "k = 2\n"
    )
    parsed = parse_config_file(cfg)
    assert parsed["seed"] == "11"
    out = tmp_path / "out"
    rc = main(["train", "--config", str(cfg), "--out", str(out), "--steps", "3"])
    assert rc == 0
    assert len(read_csv(out / "log.csv")) == 3  # flag overrode the file
    snapshot = (out / "config.snapshot").read_text()
    assert "seed = 11" in snapshot and "steps = 3" in snapshot


def test_run_reproducible_from_its_own_snapshot(tmp_path):
    first = tmp_path / "first"
    main(["train", "--out", str(first), "--steps", "4", "--seed", "13", *FAST])
    replay = tmp_path / "replay"
    rc = main(["train", "--config", str(first / "config.snapshot"), "--out", str(replay)])
    assert rc == 0
    assert (first / "log.csv").read_text() == (replay / "log.csv").read_text()


def test_config_file_rejects_unknown_key(tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("warp_speed = 9\n")
    rc = main(["train", "--config", str(cfg), "--out", str(tmp_path / "o"), "--steps", "1"])
    assert rc == 2


def test_missing_out_is_config_error():
    assert main(["route-sim", "--draws", "1"]) == 2


@pytest.mark.parametrize("command", ["route-sim", "train", "metrics", "ablate"])
@pytest.mark.parametrize("blocked", ["file", "below_a_file"])
def test_out_that_cannot_be_a_directory_is_config_error_naming_it(tmp_path, capsys, trained_checkpoint,
                                                                  command, blocked):
    taken = tmp_path / "taken"
    taken.write_text("not a directory\n")
    out = taken if blocked == "file" else taken / "run"
    extra = {
        "route-sim": ["--draws", "1"],
        "train": ["--steps", "1"],
        "metrics": ["--checkpoint", str(trained_checkpoint)],
        "ablate": ["--steps", "1", "--arms", "expert-race:identity"],
    }[command]
    rc = main([command, "--out", str(out), "--seed", "5", *FAST, *extra])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and str(out) in err
    assert taken.read_text() == "not a directory\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["taken"]


ONE_EXPERT = ["--batch-size", "4", "--tokens", "4", "--model-dim", "8",
              "--layers", "2", "--experts", "1", "--k", "1"]


def test_route_sim_single_expert_reports_zero_comb_usage(tmp_path):
    out = tmp_path / "sim"
    rc = main(["route-sim", "--out", str(out), "--seed", "1", "--draws", "3", *ONE_EXPERT])
    assert rc == 0
    rows = read_csv(out / "route_sim.csv")
    assert len(rows) == 6
    assert all(float(r["comb_usage"]) == 0.0 and float(r["max_vio"]) == 0.0 for r in rows)


def test_ablate_single_expert_reports_zero_comb_usage(tmp_path):
    out = tmp_path / "ablate"
    rc = main(["ablate", "--out", str(out), "--seed", "1", "--steps", "2",
               "--arms", "expert-race:identity;token-choice:softmax", *ONE_EXPERT])
    assert rc == 0
    rows = read_csv(out / "ablate.csv")
    assert [float(r["comb_usage"]) for r in rows] == [0.0, 0.0]


def test_ablate_columns_are_layer_means_of_the_routing_report(tmp_path):
    from moelab import cli, metrics

    args = ["--seed", "4", "--steps", "3", "--batch-size", "4", "--tokens", "4", "--model-dim", "8",
            "--layers", "3", "--experts", "4", "--k", "2"]
    out = tmp_path / "ablate"
    assert main(["ablate", "--out", str(out), "--arms", "bl-choice:softmax", *args]) == 0
    row = read_csv(out / "ablate.csv")[0]

    # the same arm, trained and routed again by hand on the held-out batch
    cfg, config = cli.resolve_config(cli.build_parser().parse_args(
        ["train", "--strategy", "bl-choice", "--gating", "softmax", *args]))
    trainer = cli.Trainer(config)
    for _ in range(cfg["steps"]):
        trainer.train_step()
    batch = trainer.task.sample_batch(np.random.default_rng(cfg["seed"] + 4242), cfg["batch_size"],
                                      trainer.schedule, cfg["parameterization"])
    _, layer_outputs = trainer.forward(batch, mode="train")
    report = metrics.routing_report([out.route.mask for out in layer_outputs], cfg["k"],
                                    batch.t, trainer.schedule.total_steps)
    assert len(report) == 3
    for column, key in [("max_vio", "max_vio"), ("comb_usage", "comb_usage"),
                        ("alloc_variance", "allocation_bucket_variance")]:
        assert float(row[column]) == np.mean([r[key] for r in report])


def test_route_sim_rejects_fewer_than_one_draw(tmp_path, capsys):
    out = tmp_path / "sim"
    rc = main(["route-sim", "--out", str(out), "--draws", "0"])
    assert rc == 2
    assert "--draws" in capsys.readouterr().err
    assert not out.exists()


def test_ablate_rejects_zero_steps_before_writing(tmp_path, capsys):
    out = tmp_path / "ablate"
    rc = main(["ablate", "--out", str(out), "--steps", "0", "--arms", "expert-race:identity", *FAST])
    assert rc == 2
    assert "--steps" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("strategies", ["expert-race,expert-race,token-choice", "token-choice,expert_race,Expert-Race"])
def test_route_sim_rejects_a_repeated_strategy_before_writing(tmp_path, capsys, strategies):
    out = tmp_path / "sim"
    rc = main(["route-sim", "--out", str(out), "--draws", "2", "--strategies", strategies])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "expert-race more than once" in err
    assert not out.exists()


@pytest.mark.parametrize("content", ["text", "empty", "truncated", "npy"])
def test_metrics_checkpoint_that_is_no_npz_archive_is_config_error(tmp_path, capsys, content):
    bad = tmp_path / "bad.npz"
    if content == "text":
        bad.write_text("step = 3\n")
    elif content == "empty":
        bad.write_bytes(b"")
    elif content == "truncated":
        run = tmp_path / "run"
        main(["train", "--out", str(run), "--steps", "1", "--seed", "5", *FAST])
        archive = (run / "ckpt_final.npz").read_bytes()
        bad.write_bytes(archive[: len(archive) // 2])
    else:
        with bad.open("wb") as fh:  # a handle: np.save adds no .npy suffix
            np.save(fh, np.zeros(3))
    capsys.readouterr()
    out = tmp_path / "rep"
    rc = main(["metrics", "--checkpoint", str(bad), "--out", str(out), "--seed", "5", *FAST])
    assert rc == 2
    err = capsys.readouterr().err
    assert err == f"config error: checkpoint {bad} is not an .npz archive\n"
    assert not out.exists()


def npy_bytes(value) -> bytes:
    buf = io.BytesIO()
    np.save(buf, value)
    return buf.getvalue()


def raw_npy(descr: str, shape: tuple, data: bytes, fortran: bool = False) -> bytes:
    """A .npy member whose header says what it is told, whatever the data."""
    buf = io.BytesIO()
    np.lib.format.write_array_header_1_0(buf, {"descr": descr, "fortran_order": fortran, "shape": shape})
    return buf.getvalue() + data


def write_archive(path: Path, members: dict) -> None:
    with zipfile.ZipFile(path, "w") as zf:
        for key, value in members.items():
            zf.writestr(f"{key}.npy", value if isinstance(value, bytes) else npy_bytes(value))


def flip_a_data_byte(archive: bytes, member: str) -> bytes:
    """Flip one byte inside a member's data, past its .npy header: a CRC mismatch."""
    with zipfile.ZipFile(io.BytesIO(archive)) as zf:
        offset = zf.getinfo(member).header_offset
    name_len, extra_len = struct.unpack_from("<HH", archive, offset + 26)  # local file header
    at = offset + 30 + name_len + extra_len + 1000
    return archive[:at] + bytes([archive[at] ^ 0x40]) + archive[at + 1:]


@pytest.fixture(scope="module")
def trained_checkpoint(tmp_path_factory):
    run = tmp_path_factory.mktemp("trained")
    assert main(["train", "--out", str(run), "--steps", "1", "--seed", "5", *FAST]) == 0
    return run / "ckpt_final.npz"


def malformed(fault: str, ckpt: Path, broken: Path) -> None:
    with np.load(ckpt) as data:
        arrays = {name: data[name] for name in data.files}
    param = arrays["param"]
    edits = {
        "not-npy": {"meta_json": b"0123456789"},
        "not-utf8": {**arrays, "meta_json": np.frombuffer(b"\xff\xfe{}", dtype=np.uint8)},
        "not-json": {**arrays, "meta_json": np.frombuffer(b"step = 3", dtype=np.uint8)},
        "json-list": {**arrays, "meta_json": np.frombuffer(b"[1, 2]", dtype=np.uint8)},
        "dtype": {**arrays, "param": param.astype(np.float32)},
        "order": {**arrays, "param": raw_npy("<f8", param.shape, param.tobytes(), fortran=True)},
        "length": {**arrays, "param": np.append(param, 0.0)},
        "truncated": {**arrays, "param": raw_npy("<f8", param.shape, param[:-1].tobytes())},
        "trailing": {**arrays, "param": raw_npy("<f8", param.shape, param.tobytes() + bytes(8))},
    }
    if fault == "crc":
        broken.write_bytes(flip_a_data_byte(ckpt.read_bytes(), "param.npy"))
    else:
        write_archive(broken, edits[fault])


@pytest.mark.parametrize(
    "fault,member,named",
    [
        ("not-npy", "meta_json", "magic string is not correct"),
        ("not-utf8", "meta_json", "can't decode byte 0xff"),
        ("not-json", "meta_json", "Expecting value"),
        ("json-list", "meta_json", "is not a JSON object"),
        ("dtype", "param", "has dtype float32, the model needs float64"),
        ("order", "param", "is in Fortran order, the model needs C order"),
        ("length", "param", "the model needs ("),
        ("truncated", "param", "is truncated"),
        ("trailing", "param", "holds more bytes than its header says"),
        ("crc", "param", "Bad CRC-32 for file 'param.npy'"),
    ],
)
def test_metrics_checkpoint_malformed_member_is_config_error(tmp_path, capsys, trained_checkpoint, fault, member, named):
    broken = tmp_path / "broken.npz"
    malformed(fault, trained_checkpoint, broken)
    capsys.readouterr()
    out = tmp_path / "rep"
    rc = main(["metrics", "--checkpoint", str(broken), "--out", str(out), "--seed", "5", *FAST])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: checkpoint {broken} member {member!r} ") and err.count("\n") == 1
    assert named in err
    assert not out.exists()


@pytest.mark.parametrize("version", [1, 2, 3])
def test_old_checkpoint_is_rejected_naming_both_versions(tmp_path, capsys, trained_checkpoint, version):
    # versions 1 to 3 store the optimizer's step count apart, as "opt_step";
    # versions 1 and 2 store each threshold as {"momentum": m, "tau": tau};
    # version 1 also stores one member per tensor and no manifest
    with np.load(trained_checkpoint) as data:
        arrays = {name: data[name] for name in data.files}
    meta = read_meta(arrays)
    meta["opt_step"] = meta["step"]
    if version < 3:
        meta["thresholds"] = [{"momentum": 0.99, "tau": tau} for tau in meta["thresholds"]]
    if version == 1:
        for i, (name, shape) in enumerate(meta["tensors"]):
            at = tensor_slice(meta, name)
            arrays[f"param/{name}"] = arrays["param"][at].reshape(shape)
            arrays[f"ema/{name}"] = arrays["ema"][at].reshape(shape)
            arrays[f"opt_m/{i}"] = arrays["opt_m"][at].reshape(shape)
            arrays[f"opt_v/{i}"] = arrays["opt_v"][at].reshape(shape)
        for group in ("param", "ema", "opt_m", "opt_v"):
            del arrays[group]
        del meta["tensors"]
    arrays["meta_json"] = encode_meta({**meta, "version": version})
    old = tmp_path / f"v{version}.npz"
    np.savez(old, **arrays)
    capsys.readouterr()
    out = tmp_path / "rep"
    rc = main(["metrics", "--checkpoint", str(old), "--out", str(out), "--seed", "5", *FAST])
    assert rc == 2
    err = capsys.readouterr().err
    assert err == f"config error: checkpoint {old} has version {version}; this moelab reads version 4\n"
    assert not out.exists()


def test_python_dash_m_runs_the_cli(tmp_path):
    src = Path(__file__).resolve().parents[1] / "src"
    out = tmp_path / "sim"
    done = subprocess.run(
        [sys.executable, "-m", "moelab", "route-sim", "--out", str(out), "--draws", "2",
         "--batch-size", "2", "--tokens", "4", "--experts", "4", "--k", "2"],
        env={**os.environ, "PYTHONPATH": str(src)}, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert len(read_csv(out / "route_sim.csv")) == 6


def test_a_diverging_run_names_its_failed_step_in_one_line(tmp_path):
    # at lr 1e300 the first update overflows the weights, so step 2's router
    # scores are all non-finite; the message is the whole of stderr
    src = Path(__file__).resolve().parents[1] / "src"
    config = tmp_path / "diverge.cfg"
    config.write_text("lr = 1e300\nlayers = 1\nmodel_dim = 8\ntokens = 4\n"
                      "experts = 4\nbatch_size = 4\ndense_hidden = 16\n")
    out = tmp_path / "run"
    done = subprocess.run(
        [sys.executable, "-m", "moelab", "train", "--config", str(config), "--out", str(out), "--steps", "5"],
        env={**os.environ, "PYTHONPATH": str(src)}, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 3
    assert done.stderr.startswith("numeric failure: step 2: block 0: router scores ")
    assert done.stderr.count("\n") == 1, done.stderr
    assert [row["step"] for row in read_csv(out / "log.csv")] == ["1"]


@pytest.mark.parametrize("command,flag", [("metrics", "--checkpoint"), ("train", "--config"), ("train", "--resume")])
def test_missing_input_file_is_config_error_naming_it(tmp_path, capsys, command, flag):
    missing = tmp_path / "nope"
    out = tmp_path / "out"
    rc = main([command, flag, str(missing), "--out", str(out), "--steps", "1", *FAST])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and str(missing) in err
    assert not out.exists()


@pytest.mark.parametrize(
    "arms,named",
    [
        ("expert-race:identity;expert-race:sigmod", "unknown gating 'sigmod'"),
        ("expert-race:identity;expert-rice:identity", "expert-rice"),
        ("expert-race:identity;expert-race:identity:-1", "loss weights must be >= 0"),
        ("expert-race:identity;expert-race:identity:0:x", "must be numbers"),
        ("expert-race:identity;expert-race", "strategy:gating"),
        ("expert-race:identity;expert-choice:identity", "E must divide"),
    ],
    ids=["gating", "strategy", "w_sim", "w_blc", "shape", "budget"],
)
def test_ablate_validates_every_arm_before_training(tmp_path, capsys, monkeypatch, arms, named):
    from moelab import cli

    trained = []
    monkeypatch.setattr(cli.Trainer, "train_step", lambda self: trained.append(1))
    out = tmp_path / "ablate"
    rc = main(["ablate", "--out", str(out), "--seed", "1", "--steps", "2", "--arms", arms,
               "--batch-size", "2", "--tokens", "3", "--model-dim", "8", "--layers", "1",
               "--experts", "4", "--k", "1"])
    assert rc == 2
    assert named in capsys.readouterr().err
    assert trained == [] and not (out / "ablate.csv").exists()


@pytest.mark.parametrize("arms, rc", [("token-choice:identity", 0), ("token-choice:identity;expert-choice:identity", 2)],
                         ids=["no-arm-uses-the-base", "an-arm-does"])
def test_ablate_checks_the_arms_not_the_base_strategy_they_replace(tmp_path, capsys, arms, rc):
    # k * batch_size * tokens / experts = 1 * 2 * 3 / 4 is no integer K: only an arm may run expert-choice here
    out = tmp_path / "ablate"
    assert main(["ablate", "--out", str(out), "--batch-size", "2", "--tokens", "3", "--experts", "4", "--k", "1",
                 "--model-dim", "8", "--layers", "1", "--steps", "1", "--strategy", "expert-choice",
                 "--arms", arms]) == rc
    if rc == 0:
        assert len(read_csv(out / "ablate.csv")) == 1
    else:
        assert "K = k*D_B/E = 1*3/4 is not an integer" in capsys.readouterr().err and not out.exists()


@pytest.mark.parametrize(
    "command,setting,named",
    [
        ("train", "gating = sigmod", "unknown gating 'sigmod'"),
        ("train", "parameterization = foo", "unknown parameterization 'foo'"),
        ("train", "num_classes = 0", "num_classes must be >= 1"),
        ("train", "model_dim = 0", "model_dim must be >= 1"),
        ("train", "layers = 0", "layers must be >= 1"),
        ("train", "dense_hidden = 0", "dense_hidden must be >= 1"),
        ("train", "seed = -1", "seed must be >= 0"),
        ("train", "batch_size = 0", "batch_size must be >= 1"),
        ("train", "lr = nan", "lr must be > 0 and finite, got nan"),
        ("train", "lr = -1", "lr must be > 0 and finite, got -1.0"),
        ("train", "ema_decay = 0.999", "unknown config key 'ema_decay'"),
        ("train", "schedule = linear", "unknown config key 'schedule'"),
        ("train", "k = 2\nk = 4", "bad.cfg:8: config key 'k' is already set on line 7"),
        ("train", "w_sim = nan", "w_sim = nan"),
        ("train", "steps = -1", "steps must be >= 0"),
        ("ablate", "parameterization = foo", "unknown parameterization 'foo'"),
    ],
    ids=["gating", "parameterization", "num_classes", "model_dim", "layers", "dense_hidden", "seed", "batch_size", "lr-nan",
         "lr-negative", "ema_decay", "schedule", "repeated-key", "w_sim-nan", "steps", "ablate-parameterization"],
)
def test_train_rejects_unknown_gating_before_writing(tmp_path, capsys, command, setting, named):
    # a bad value is one config-error line naming its key, before --out exists
    small = {"layers": 1, "model_dim": 8, "tokens": 4, "batch_size": 4, "experts": 4, "steps": 1}
    overridden = setting.split("=", 1)[0].strip()  # a config file sets each key once
    lines = [f"{key} = {value}" for key, value in small.items() if key != overridden]
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("\n".join([*lines, setting]) + "\n")
    out = tmp_path / "run"
    arms = ["--arms", "expert-race:identity"] if command == "ablate" else []
    rc = main([command, "--config", str(cfg), "--out", str(out), *arms])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and err.count("\n") == 1, err
    assert named in err, err
    assert not out.exists()


def test_config_file_value_of_wrong_type_is_config_error(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("k = two\n")
    out = tmp_path / "o"
    rc = main(["train", "--config", str(cfg), "--out", str(out), "--steps", "1"])
    assert rc == 2
    assert "'k' must be int, got 'two'" in capsys.readouterr().err
    assert not out.exists()
