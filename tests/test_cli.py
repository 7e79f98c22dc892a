"""CLI commands drive the library end to end and stay reproducible."""

import contextlib
import csv
import hashlib
import io
import json
import math
import os
import shutil
import signal
import subprocess
import sys
import tempfile
import time
import zipfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from moelab import cli, routing, training
from moelab.cli import build_parser, main, parse_config_file, resolve_settings, trainer_config_from
from moelab.denoiser import DenoiserConfig
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


def test_build_parser_builds_one_parser_per_process():
    assert build_parser() is build_parser()


def test_main_runs_the_command_the_module_holds_at_call_time(tmp_path, monkeypatch):
    # the parser is built once and holds no command, so a command replaced by
    # name after a first call (as the benchmark's tracer wraps cmd_route_sim)
    # is the one the next call runs, given the flags as text
    args = ["route-sim", "--out", str(tmp_path / "out"), "--draws", "1", *FAST]
    assert main(args) == 0
    ran = []
    monkeypatch.setattr(cli, "cmd_route_sim", lambda ns: ran.append(ns.draws) or 0)
    assert main(args) == 0
    assert ran == ["1"]


def test_route_sim_calls_in_one_process_carry_no_state(tmp_path, capsys):
    # a one-strategy call, then a refused one, then a plain one: the last
    # writes the six-row table a fresh process writes
    out, fresh = tmp_path / "out", tmp_path / "fresh"
    settings = ["--seed", "4", "--draws", "3", *FAST]
    assert main(["route-sim", "--out", str(out), *settings, "--strategies", "token-choice"]) == 0
    assert main(["route-sim", "--out", str(out), *settings, "--draws", "0"]) == 2
    assert main(["route-sim", "--out", str(out), *settings]) == 0
    rows = read_csv(out / "route_sim.csv")
    assert [row["strategy"] for row in rows] == list(routing.STRATEGIES)
    done = subprocess.run(
        [sys.executable, "-m", "moelab", "route-sim", "--out", str(fresh), *settings],
        env={**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}, capture_output=True,
        text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert (fresh / "route_sim.csv").read_bytes() == (out / "route_sim.csv").read_bytes()


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


def test_resuming_from_ckpt_final_in_its_own_out_keeps_it_as_the_step_checkpoint(tmp_path):
    base = ["train", "--seed", "3", *FAST]
    ref, run = tmp_path / "ref", tmp_path / "run"
    assert main([*base, "--out", str(ref), "--steps", "5"]) == 0
    assert main([*base, "--out", str(run), "--steps", "3"]) == 0
    final = (run / "ckpt_final.npz").read_bytes()
    assert main([*base, "--out", str(run), "--steps", "5", "--resume", str(run / "ckpt_final.npz")]) == 0
    assert (run / "ckpt_000003.npz").read_bytes() == final
    assert [r["step"] for r in read_csv(run / "log.csv")] == ["1", "2", "3", "4", "5"]
    assert (run / "log.csv").read_text() == (ref / "log.csv").read_text()
    assert _member_digests(run / "ckpt_final.npz") == _member_digests(ref / "ckpt_final.npz")


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


def test_a_resumed_log_that_is_not_utf8_is_one_config_error_line_and_changes_nothing(tmp_path, capsys):
    # the log is read before the resume writes its snapshot or discards a later checkpoint
    cfg = tmp_path / "every1.cfg"
    cfg.write_text("checkpoint_every = 1\n")
    run = tmp_path / "run"
    base = ["train", "--out", str(run), "--config", str(cfg), "--seed", "3", "--steps", "2", *FAST]
    assert main(base) == 0
    (run / "log.csv").write_bytes(b"step\n\xff\xfe1,2\n")
    before = {p.name: p.read_bytes() for p in run.iterdir()}
    capsys.readouterr()
    assert main([*base, "--resume", str(run / "ckpt_000001.npz")]) == 2
    err = capsys.readouterr().err
    assert err == f"config error: {run / 'log.csv'}:2: not UTF-8 text (invalid start byte at byte 5)\n"
    assert {p.name: p.read_bytes() for p in run.iterdir()} == before


def _member_digests(path: Path) -> dict:
    with zipfile.ZipFile(path) as archive:
        return {m: hashlib.sha256(archive.read(f"{m}.npy")).hexdigest() for m in training._GROUPS}


def _form_feed_before_plr(row):
    step, diffusion, rest = row.split(",", 2)
    return f"{step},{diffusion}\x0c{rest}"  # a line break for str.splitlines, not for the log


# (the line of log.csv an edit spoils, the edit of that line's text, what the
# error says of it); '²' passes str.isdigit, but int refuses it
BAD_LOG_ROWS = {
    "step-not-ascii": (2, lambda row: "\u00b2" + row[1:], "a log row starts with its step, got '\u00b2'"),
    "form-feed-for-a-comma": (2, _form_feed_before_plr, "expected a log row of 9 numbers"),
    "eight-fields": (2, lambda row: row.rsplit(",", 1)[0], "expected a log row of 9 numbers"),
    "a-field-not-a-number": (3, lambda row: row.replace(",", ",x", 1), "expected a log row of 9 numbers"),
    "blank-row": (2, lambda row: "\n" + row, "a log row starts with its step, got ''"),
    "step-of-more-digits-than-int-reads": (2, lambda row: "1" * 5000 + row[1:], "expected a log row of 9 numbers"),
    "step-not-ascii-past-the-checkpoint": (4, lambda row: "\u00b2" + row[1:], "a log row starts with its step"),
}


@pytest.mark.parametrize("edit", BAD_LOG_ROWS)
def test_a_resumed_log_row_that_does_not_parse_is_one_config_error_line_and_changes_nothing(tmp_path, capsys,
                                                                                           edit):
    # every newline-ended row starts with a step of ASCII digits, and a row
    # the resume keeps reads back as the LogRecord row it was written as
    line, change, said = BAD_LOG_ROWS[edit]
    cfg = tmp_path / "every1.cfg"
    cfg.write_text("checkpoint_every = 1\n")
    run = tmp_path / "run"
    base = ["train", "--out", str(run), "--config", str(cfg), "--seed", "3", "--steps", "3", *FAST]
    assert main(base) == 0
    log = run / "log.csv"
    rows = log.read_text().split("\n")
    rows[line - 1] = change(rows[line - 1])
    log.write_text("\n".join(rows))
    before = {p.name: p.read_bytes() for p in run.iterdir()}
    capsys.readouterr()
    assert main([*base, "--resume", str(run / "ckpt_000002.npz")]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: {log}:{line}: {said}") and err.count("\n") == 1, err
    assert {p.name: p.read_bytes() for p in run.iterdir()} == before


def test_a_resume_drops_a_row_past_its_checkpoint_that_does_not_parse(tmp_path):
    cfg = tmp_path / "every1.cfg"
    cfg.write_text("checkpoint_every = 1\n")
    run = tmp_path / "run"
    base = ["train", "--out", str(run), "--config", str(cfg), "--seed", "3", "--steps", "3", *FAST]
    assert main(base) == 0
    full = (run / "log.csv").read_text()
    rows = full.split("\n")
    rows[3] = rows[3].split(",", 1)[0] + ",torn by an editor"
    (run / "log.csv").write_text("\n".join(rows))
    assert main([*base, "--resume", str(run / "ckpt_000002.npz")]) == 0
    assert (run / "log.csv").read_text() == full


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


def interrupted(args: list[str], ready) -> tuple[int, str]:
    """Exit code and stderr of the CLI run with `args` in a child that gets a
    SIGINT once ready() holds. The child resets SIGINT to Python's handler
    first: a background job starts with SIGINT ignored, and it would run on."""
    child = subprocess.Popen(
        [sys.executable, "-c", "import signal, sys\nsignal.signal(signal.SIGINT, signal.default_int_handler)\n"
         f"from moelab.cli import main\nsys.exit(main({args!r}))"],
        env={**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")},
        stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)
    sent, deadline = False, time.monotonic() + 60
    try:
        while not sent and child.poll() is None and time.monotonic() < deadline:
            if ready():
                child.send_signal(signal.SIGINT)
                sent = True
            time.sleep(0.005)
        _, err = child.communicate(timeout=60)
    finally:
        if child.poll() is None:
            child.kill()
            child.communicate()
    assert sent, err
    return child.returncode, err


def test_ctrl_c_ends_in_one_line_with_exit_130_and_a_resume_that_runs_on(tmp_path):
    # SIGINT after the log holds a row and step 2's checkpoint is on disk: one
    # stderr line naming the last logged step and the checkpoint to resume
    # from, a log of whole rows, and a resume whose log equals an
    # uninterrupted run's. route-sim takes the one line too.
    cfg = tmp_path / "every1.cfg"
    cfg.write_text("checkpoint_every = 1\n")
    args = ["--config", str(cfg), "--seed", "3", *FAST]
    run = tmp_path / "run"
    rc, err = interrupted(["train", "--out", str(run), *args, "--steps", "100000"],
                          lambda: (run / "ckpt_000002.npz").exists())
    head, _, resume = err.partition("; resume from ")
    assert rc == 130 and err.count("\n") == 1 and head.startswith("interrupted: train stopped after step "), err
    ckpt = Path(resume.strip())
    step = int(ckpt.stem[len("ckpt_"):])
    assert ckpt.parent == run and step >= 2 and ckpt.exists(), err
    log = (run / "log.csv").read_text()
    logged = int(head.rpartition(" ")[2])
    assert log.endswith("\n") and len(cli.resumed_log_rows(run / "log.csv", 10**9)) in (logged, logged + 1)
    assert main(["train", "--out", str(run), *args, "--resume", str(ckpt), "--steps", str(step + 2)]) == 0
    assert main(["train", "--out", str(tmp_path / "ref"), *args, "--steps", str(step + 2)]) == 0
    assert (run / "log.csv").read_text() == (tmp_path / "ref" / "log.csv").read_text()

    sim = tmp_path / "sim"
    rc, err = interrupted(["route-sim", "--out", str(sim), "--draws", "10000000", *FAST],
                          lambda: (sim / "config.snapshot").exists())
    assert rc == 130 and err == "interrupted: route-sim stopped\n", err
    assert not (sim / "route_sim.csv").exists()


@pytest.mark.parametrize("unbuffered", ["1", ""], ids=["unbuffered", "buffered"])
@pytest.mark.parametrize("command", ["route-sim", "train", "metrics", "ablate"])
def test_a_closed_stdout_ends_in_exit_141_with_nothing_on_stderr(tmp_path, trained_checkpoint, command, unbuffered):
    # stdout a pipe whose reader closed it before the command started: the
    # final `wrote`/`trained` line fails, with stdout unbuffered at the print
    # and buffered at main's flush. Exit 141 (128 + SIGPIPE), no traceback and
    # no `Exception ignored` line, and --out as a normal run writes it
    args = {
        "route-sim": ["route-sim", "--draws", "1", *FAST],
        "train": ["train", "--steps", "1", *FAST],
        "metrics": ["metrics", "--checkpoint", str(trained_checkpoint)],
        "ablate": ["ablate", "--steps", "1", "--arms", "gating=identity", *FAST],
    }[command]
    ref, out = tmp_path / "ref", tmp_path / "out"
    assert main([*args, "--out", str(ref)]) == 0
    read, write = os.pipe()
    os.close(read)
    try:
        done = subprocess.run(
            [sys.executable, "-m", "moelab", *args, "--out", str(out)], stdout=write, stderr=subprocess.PIPE,
            env={**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src"),
                 "PYTHONUNBUFFERED": unbuffered}, timeout=120)
    finally:
        os.close(write)
    assert (done.returncode, done.stderr) == (141, b"")
    assert sorted(p.name for p in out.iterdir()) == sorted(p.name for p in ref.iterdir())
    assert all((out / p.name).read_bytes() == p.read_bytes() for p in ref.iterdir())


def test_no_stdout_at_all_is_no_error(tmp_path):
    # fd 1 closed before the interpreter starts: sys.stdout is None, the
    # final print writes nothing, and the run ends as a normal one
    out = tmp_path / "out"
    done = subprocess.run(
        ["sh", "-c", 'exec "$@" >&-', "sh", sys.executable, "-m", "moelab", "route-sim", "--draws", "1", *FAST,
         "--out", str(out)],
        env={**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}, stderr=subprocess.PIPE,
        timeout=120)
    assert (done.returncode, done.stderr) == (0, b"") and (out / "route_sim.csv").exists()


def test_fresh_train_into_a_used_out_leaves_no_file_of_the_earlier_run(tmp_path, monkeypatch):
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
                             total_steps=30),
        batch_size=5, lr=3e-3, w_plr=0.5, w_sim=0.25, w_blc=0.125, seed=9,
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


def test_metrics_report_from_checkpoint(tmp_path):
    run = tmp_path / "run"
    main(["train", "--out", str(run), "--steps", "5", "--seed", "5", *FAST])
    out = tmp_path / "report"
    rc = main(["metrics", "--checkpoint", str(run / "ckpt_final.npz"), "--out", str(out)])
    assert rc == 0
    report = json.loads((out / "metrics.json").read_text())
    assert len(report["per_layer"]) == 1
    entry = report["per_layer"][0]
    for key in ("max_vio", "comb_usage", "mean_active", "allocation_bucket_variance", "tau"):
        assert key in entry
    # repeated invocation is read-only and identical
    out2 = tmp_path / "report2"
    main(["metrics", "--checkpoint", str(run / "ckpt_final.npz"), "--out", str(out2)])
    assert (out / "metrics.json").read_text() == (out2 / "metrics.json").read_text()


def test_metrics_on_an_untrained_checkpoint_is_a_config_error(tmp_path, capsys):
    run = tmp_path / "run"
    assert main(["train", "--out", str(run), "--steps", "0", "--seed", "5", *FAST]) == 0
    capsys.readouterr()
    rc = main(["metrics", "--checkpoint", str(run / "ckpt_final.npz"), "--out", str(tmp_path / "rep")])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith("config error: inference routing needs an initialized threshold; "), err
    assert err.count("\n") == 1, err
    assert not (tmp_path / "rep").exists()


def test_metrics_one_in_one_flags_no_pairs(tmp_path):
    args = ["--batch-size", "4", "--tokens", "4", "--model-dim", "8",
            "--layers", "1", "--experts", "1", "--k", "1"]
    run = tmp_path / "run"
    main(["train", "--out", str(run), "--steps", "2", "--seed", "6", *args])
    out = tmp_path / "rep"
    rc = main(["metrics", "--checkpoint", str(run / "ckpt_final.npz"), "--out", str(out)])
    assert rc == 0
    entry = json.loads((out / "metrics.json").read_text())["per_layer"][0]
    assert entry["comb_usage"] == 0.0 and entry["comb_no_pairs"] is True


def test_metrics_on_the_dense_twin_reads_one_expert_per_token_in_each_layer(tmp_path):
    # the twin is a setting of the existing keys: one expert, k=1, softmax gating and no PLR term
    twin = ["--batch-size", "4", "--tokens", "4", "--model-dim", "8", "--layers", "2",
            "--experts", "1", "--k", "1", "--gating", "softmax", "--w-plr", "0"]
    run = tmp_path / "run"
    assert main(["train", "--out", str(run), "--steps", "2", *twin]) == 0
    assert main(["metrics", "--checkpoint", str(run / "ckpt_final.npz"), "--out", str(tmp_path / "rep")]) == 0
    per_layer = json.loads((tmp_path / "rep" / "metrics.json").read_text())["per_layer"]
    assert [entry["layer"] for entry in per_layer] == [0, 1]
    for entry in per_layer:
        assert entry["mean_active"] == 1.0 and entry["tau"] == 1.0 and entry["comb_no_pairs"] is True, entry


def test_ablate_rows_per_arm(tmp_path):
    out = tmp_path / "ablate"
    rc = main(["ablate", "--out", str(out), "--seed", "1", "--steps", "3",
               "--arms", "gating=softmax;gating=sigmoid;gating=identity",
               *FAST])
    assert rc == 0
    assert (out / "ablate.csv").read_text().splitlines()[0] == (
        "arm,strategy,gating,w_sim,w_blc,heldout_diffusion,heldout_excess,max_vio,comb_usage,alloc_variance")
    rows = read_csv(out / "ablate.csv")
    assert len(rows) == 3
    assert {r["gating"] for r in rows} == {"softmax", "sigmoid", "identity"}
    for r in rows:
        for col in ("heldout_diffusion", "heldout_excess", "max_vio", "comb_usage", "alloc_variance"):
            assert math.isfinite(float(r[col]))


def test_ablate_balance_settings_arms(tmp_path):
    # no constraint / balance loss / router similarity
    out = tmp_path / "balance"
    rc = main(["ablate", "--out", str(out), "--seed", "2", "--steps", "3",
               "--arms",
               "w_sim=0,w_blc=0;w_sim=0,w_blc=0.0001;w_sim=0.0001,w_blc=0",
               *FAST])
    assert rc == 0
    rows = read_csv(out / "ablate.csv")
    assert len(rows) == 3
    assert [float(r["w_sim"]) for r in rows] == [0.0, 0.0, 0.0001]
    assert [float(r["w_blc"]) for r in rows] == [0.0, 0.0001, 0.0]


def test_ablate_arm_matches_individual_run(tmp_path):
    # the arm's held-out losses are those of the same config trained alone,
    # read back from its checkpoint by Trainer.evaluate in train mode
    arm_out = tmp_path / "arm"
    assert main(["ablate", "--out", str(arm_out), "--seed", "9", "--steps", "4",
                 "--arms", "strategy=token-choice,gating=sigmoid", *FAST]) == 0
    solo_out = tmp_path / "solo"
    assert main(["train", "--out", str(solo_out), "--steps", "4", "--seed", "9",
                 "--strategy", "token-choice", "--gating", "sigmoid", *FAST]) == 0
    arm_row = read_csv(arm_out / "ablate.csv")[0]
    held_out = load_checkpoint(solo_out / "ckpt_final.npz").evaluate("train")
    assert arm_row["heldout_diffusion"] == repr(held_out.diffusion)
    assert arm_row["heldout_excess"] == repr(held_out.excess)


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
        "ablate": ["--steps", "1", "--arms", "gating=identity"],
    }[command]
    settings = [] if command == "metrics" else ["--seed", "5", *FAST]  # metrics reads its checkpoint's
    rc = main([command, "--out", str(out), *settings, *extra])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and str(out) in err
    assert taken.read_text() == "not a directory\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["taken"]


# every file a command writes: (the command, the file's name in --out)
OUTPUTS = [("route-sim", "config.snapshot"), ("route-sim", "route_sim.csv"), ("train", "config.snapshot"),
           ("train", "log.csv"), ("train", "ckpt_final.npz"), ("train", "summary.json"), ("metrics", "metrics.json"),
           ("ablate", "config.snapshot"), ("ablate", "ablate.csv")]


class DiskFull:
    """A file each of whose writes past its first `room` stores half its bytes, then raises OSError("disk full")."""

    def __init__(self, fh, room=0):
        self.fh, self.room = fh, room

    def write(self, data):
        if self.room:
            self.room -= 1
            return self.fh.write(data)
        self.fh.write(data[: len(data) // 2])
        raise OSError("disk full")

    def __getattr__(self, name):
        return getattr(self.fh, name)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.fh.close()


@pytest.fixture(scope="module")
def dead_pid():
    """The id of a process that has exited and been reaped."""
    child = subprocess.Popen([sys.executable, "-c", ""])
    child.wait()
    return child.pid


@pytest.mark.parametrize("command,name", OUTPUTS, ids=[f"{command}-{name}" for command, name in OUTPUTS])
def test_an_output_whose_write_fails_is_one_config_error_line(tmp_path, capsys, trained_checkpoint, dead_pid,
                                                               command, name):
    # a write of `name` (its temp file's, or the file's own) that stores half
    # its bytes and then finds the disk full: exit 2 in one line naming the
    # file, the file as it was when the write began, and no temp file, not
    # even one a gone process left beside it
    out = tmp_path / "out"
    args = {
        "route-sim": ["route-sim", "--draws", "2", *FAST],
        "train": ["train", "--steps", "2", *FAST],
        "metrics": ["metrics", "--checkpoint", str(trained_checkpoint)],
        "ablate": ["ablate", "--steps", "1", "--arms", "gating=identity", *FAST],
    }[command] + ["--out", str(out)]
    assert main(args) == 0  # an earlier run's files
    target = out / name
    (out / f".{name}.{dead_pid}.tmp").write_text("left by a killed run\n")
    real_open, began = io.open, []

    def held():
        return target.read_bytes() if target.exists() else None

    def open_disk_full(file, mode="r", *rest, **kwargs):
        path = Path(file) if isinstance(file, (str, os.PathLike)) else None
        if path is None or "w" not in mode or path.parent != out or not (
                path.name == name or path.name.startswith(f".{name}.") and path.name.endswith(".tmp")):
            return real_open(file, mode, *rest, **kwargs)
        began.append(held())
        return DiskFull(real_open(file, mode, *rest, **kwargs))

    capsys.readouterr()
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(io, "open", open_disk_full)
        rc = main(args)
    assert rc == 2 and capsys.readouterr().err == f"config error: cannot write {target}: disk full\n"
    assert len(began) == 1 and held() == began[0]
    assert not list(out.glob(".*.tmp"))


def test_a_log_row_whose_append_fails_is_one_config_error_line_and_a_resume_runs_on(tmp_path, capsys):
    # the disk fills on step 3's row, appended in place to log.csv: exit 2 in
    # one line naming the log, step 2's checkpoint intact, and a resume from
    # it that drops the torn row and writes an uninterrupted run's log
    cfg = tmp_path / "every1.cfg"
    cfg.write_text("checkpoint_every = 1\n")
    out, ref = tmp_path / "out", tmp_path / "ref"
    base = ["train", "--config", str(cfg), "--seed", "3", "--steps", "4", *FAST]
    assert main([*base, "--out", str(ref)]) == 0
    real_open = io.open

    def open_disk_full(file, mode="r", *rest, **kwargs):
        fh = real_open(file, mode, *rest, **kwargs)
        is_log = isinstance(file, (str, os.PathLike)) and Path(file) == out / "log.csv"
        return DiskFull(fh, room=2) if is_log and "a" in mode else fh

    capsys.readouterr()
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(io, "open", open_disk_full)
        rc = main([*base, "--out", str(out)])
    assert rc == 2 and capsys.readouterr().err == f"config error: cannot write {out / 'log.csv'}: disk full\n"
    assert not (out / "log.csv").read_text().endswith("\n")  # step 3's torn row
    assert not (out / "ckpt_000003.npz").exists()
    assert main([*base, "--out", str(out), "--resume", str(out / "ckpt_000002.npz")]) == 0
    assert (out / "log.csv").read_bytes() == (ref / "log.csv").read_bytes()
    assert (out / "ckpt_final.npz").read_bytes() == (ref / "ckpt_final.npz").read_bytes()


@pytest.mark.parametrize("command,name", [("route-sim", "config.snapshot"), ("route-sim", "route_sim.csv"),
                                          ("train", "summary.json"), ("resume", "log.csv")])
def test_an_output_with_a_directory_in_the_way_is_one_config_error_line(tmp_path, capsys, trained_checkpoint,
                                                                        command, name):
    out = tmp_path / "out"
    (out / name).mkdir(parents=True)
    args = {"route-sim": ["route-sim", "--draws", "1"], "train": ["train", "--steps", "1"],
            "resume": ["train", "--steps", "2", "--resume", str(trained_checkpoint), "--seed", "5"]}[command]
    assert main([*args, "--out", str(out), *FAST]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: cannot write {out / name}: ") and err.count("\n") == 1, err
    assert (out / name).is_dir()


def test_a_failed_route_sim_leaves_no_table_of_an_earlier_run(tmp_path, monkeypatch):
    out = tmp_path / "sim"
    base = ["route-sim", "--out", str(out), "--draws", "2", *FAST]
    assert main([*base, "--seed", "1"]) == 0

    def dies(*args):
        raise RuntimeError("killed")

    monkeypatch.setattr(cli, "route_sim_draws", dies)
    with pytest.raises(RuntimeError, match="killed"):
        main([*base, "--seed", "5"])
    assert sorted(p.name for p in out.iterdir()) == ["config.snapshot"]
    assert "seed = 5\n" in (out / "config.snapshot").read_text()


def test_a_failed_ablate_leaves_no_table_of_an_earlier_run(tmp_path):
    out = tmp_path / "ablate"
    base = ["ablate", "--out", str(out), "--steps", "1", *FAST]
    assert main([*base, "--arms", "seed=1"]) == 0
    assert main([*base, "--seed", "5", "--arms", "lr=1e300"]) == 3
    assert sorted(p.name for p in out.iterdir()) == ["config.snapshot"]
    assert "seed = 5\n" in (out / "config.snapshot").read_text()


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
               "--arms", "gating=identity;strategy=token-choice,gating=softmax", *ONE_EXPERT])
    assert rc == 0
    rows = read_csv(out / "ablate.csv")
    assert [float(r["comb_usage"]) for r in rows] == [0.0, 0.0]


def test_ablate_columns_are_layer_means_of_the_routing_report(tmp_path):
    args = ["--seed", "4", "--steps", "3", "--batch-size", "4", "--tokens", "4", "--model-dim", "8",
            "--layers", "3", "--experts", "4", "--k", "2"]
    out = tmp_path / "ablate"
    assert main(["ablate", "--out", str(out), "--arms", "strategy=bl-choice,gating=softmax", *args]) == 0
    row = read_csv(out / "ablate.csv")[0]

    # the same arm, trained by hand and read by Trainer.evaluate in train mode
    cfg = cli.resolve_settings(cli.build_parser().parse_args(
        ["train", "--strategy", "bl-choice", "--gating", "softmax", *args]))
    trainer = cli.Trainer(cli.trainer_config_from(cfg))
    for _ in range(cfg["steps"]):
        trainer.train_step()
    held_out = trainer.evaluate("train")
    assert len(held_out.report) == 3
    for column, key in [("max_vio", "max_vio"), ("comb_usage", "comb_usage"),
                        ("alloc_variance", "allocation_bucket_variance")]:
        assert row[column] == repr(float(np.mean([r[key] for r in held_out.report])))
    assert [row["heldout_diffusion"], row["heldout_excess"]] == [repr(held_out.diffusion), repr(held_out.excess)]


def test_route_sim_rejects_fewer_than_one_draw(tmp_path, capsys):
    out = tmp_path / "sim"
    rc = main(["route-sim", "--out", str(out), "--draws", "0"])
    assert rc == 2
    assert "--draws" in capsys.readouterr().err
    assert not out.exists()


def test_ablate_rejects_zero_steps_before_writing(tmp_path, capsys):
    out = tmp_path / "ablate"
    rc = main(["ablate", "--out", str(out), "--steps", "0", "--arms", "gating=identity", *FAST])
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


@pytest.mark.parametrize("args, check", [
    pytest.param(["route-sim", "--draws", "1", "--strategies", "expert-race, token-choice"],
                 lambda out: len(read_csv(out / "route_sim.csv")) == 2, id="route-sim-strategies"),
    pytest.param(["train", "--steps", "0", "--gating", " softmax"],
                 lambda out: "\ngating = softmax\n" in (out / "config.snapshot").read_text(), id="train-gating"),
])
def test_a_flag_setting_is_stripped_like_a_config_file_line(tmp_path, args, check):
    out = tmp_path / "run"
    assert main([args[0], "--out", str(out), *args[1:]]) == 0
    assert check(out)


@pytest.fixture(scope="module")
def trained_checkpoint(tmp_path_factory):
    run = tmp_path_factory.mktemp("trained")
    assert main(["train", "--out", str(run), "--steps", "1", "--seed", "5", *FAST]) == 0
    return run / "ckpt_final.npz"


def members_of(ckpt: Path) -> dict:
    with np.load(ckpt) as data:
        return {key: data[key] for key in data.files}


def npy(a: np.ndarray, data: bytes | None = None, fortran: bool = False,
        write_header=np.lib.format.write_array_header_1_0) -> bytes:
    """A .npy member whose header describes `a` and that holds `data` (a's bytes by default)."""
    buf = io.BytesIO()
    header = {"descr": np.lib.format.dtype_to_descr(a.dtype), "fortran_order": fortran, "shape": a.shape}
    write_header(buf, header)
    return buf.getvalue() + (a.tobytes() if data is None else data)


def write_members(path: Path, members: dict, key: str = "", **entry) -> None:
    """An archive of stored members, each an array or raw .npy bytes. `entry`
    sets fields of member `key`'s central-directory record, which a reader trusts."""
    with zipfile.ZipFile(path, "w") as zf:
        for name, value in members.items():
            zf.writestr(f"{name}.npy", value if isinstance(value, bytes) else npy(value))
        for field, value in entry.items():
            setattr(zf.getinfo(f"{key}.npy"), field, value)


def tensor_slice(meta: dict, name: str) -> slice:
    ends = np.cumsum([0] + [math.prod(shape) for _, shape in meta["tensors"]])
    i = [saved for saved, _ in meta["tensors"]].index(name)
    return slice(ends[i], ends[i + 1])


def member(key: str, edit=lambda a: a, **entry):
    """A fault: member `key` replaced by edit(its array), dropped where that
    is None, and `entry` set on its central-directory record."""
    def make(path, ckpt):
        members = members_of(ckpt)
        members[key] = edit(members[key])
        write_members(path, {name: value for name, value in members.items() if value is not None}, key, **entry)
    return make


def meta(edit):
    """A fault: the metadata replaced by edit(the saved metadata)."""
    return member("meta_json", lambda a: np.frombuffer(json.dumps(edit(json.loads(a.tobytes()))).encode(), np.uint8))


def meta_with(**fields):
    return meta(lambda m: {**m, **fields})


def moments(key: str, value: float):
    """A fault: member `key` with `value` in 2 entries of block0.mix_w and 3 of out_w."""
    def make(path, ckpt):
        members = members_of(ckpt)
        m = json.loads(members["meta_json"].tobytes())
        members[key] = members[key].copy()
        for name, count in (("block0.mix_w", 2), ("out_w", 3)):
            members[key][tensor_slice(m, name)][:count] = value
        write_members(path, members)
    return make


def old_version(version: int):
    """Versions 1-3 store the step count apart, as "opt_step"; 1 and 2 store each threshold
    as {"momentum", "tau"}; 1 also stores one member per tensor and no manifest. Versions 1-4
    store each expert's weights apart, and 1-5 name a layer's bank by its two weights
    ("block0.moe.w_in"); the rows keep today's manifest, since the version check refuses
    the file before the manifest is read."""
    def make(path, ckpt):
        members = members_of(ckpt)
        m = json.loads(members["meta_json"].tobytes())
        m["version"] = version
        if version < 4:
            m["opt_step"] = m["step"]
        if version < 3:
            m["thresholds"] = [{"momentum": 0.99, "tau": tau} for tau in m["thresholds"]]
        if version == 1:
            for group in training._GROUPS:
                flat = members.pop(group)
                for i, (name, shape) in enumerate(m["tensors"]):
                    at = name if group in ("param", "ema") else i
                    members[f"{group}/{at}"] = flat[tensor_slice(m, name)].reshape(shape)
            del m["tensors"]
        write_members(path, {**members, "meta_json": np.frombuffer(json.dumps(m).encode(), np.uint8)})
    return make


# the trained checkpoint's config
CONFIG = trainer_config_from(resolve_settings(build_parser().parse_args(["train", "--seed", "5", *FAST])))
N = sum(t.size for t in Trainer(CONFIG).opt.params)  # each state group's length
# what the message says when a metadata field holds its value as JSON text; a new key's says " metadata 'key' "
AS_TEXT = {"version": " has version '6'; this moelab reads version 6\n",
           "step": " metadata 'step' is '1', not a step count\n", "config": " metadata 'config' is not a JSON object\n"}


def huge(a: np.ndarray) -> bytes:
    """`a`'s bytes under a header that claims 10**15 of them."""
    return npy(np.broadcast_to(a[:1], (10**15,)), a.tobytes())


def corrupt(a: np.ndarray) -> bytes:
    """`a` as a .npy member whose first byte is wrong."""
    return b"\xff" + npy(a)[1:]


# each member's faults: (fault, edit of its array, central-directory fields, what the message says of it)
MEMBER_FAULTS = [
    ("float32", lambda a: a.astype(np.float32), {}, "has dtype float32, the model needs {dtype}\n"),
    ("2-d", lambda a: a[None], {}, "has shape (1, "),
    ("not-npy", lambda a: b"0123456789", {}, "is unreadable: the magic string is not correct"),
    ("fortran", lambda a: npy(a, fortran=True), {}, "is in Fortran order, the model needs C order\n"),
    ("truncated", lambda a: npy(a, a[:-1].tobytes()), {}, "is truncated\n"),
    ("trailing", lambda a: npy(a, a.tobytes() + a[:1].tobytes()), {}, "holds more bytes than its header says\n"),
    ("crc", lambda a: a, {"CRC": 0}, "is unreadable: Bad CRC-32 for file '{key}.npy'\n"),
    ("encrypted", lambda a: a, {"flag_bits": 0x1}, "is encrypted\n"),
    # whatever its method, and however corrupt its stream, no compressed member reaches a decompressor
    *[(fault, edit, {"compress_type": method}, "is compressed; moelab reads the stored members it writes\n")
      for fault, edit, method in [("method-99", lambda a: a, 99),
                                  ("corrupt-deflate", corrupt, zipfile.ZIP_DEFLATED),
                                  ("corrupt-bzip2", corrupt, zipfile.ZIP_BZIP2),
                                  ("corrupt-lzma", corrupt, zipfile.ZIP_LZMA)]],
]
LENGTH_FAULTS = [  # the model fixes every member's length but meta_json's
    ("short", lambda a: a[:-1], {}, "has shape ({short},), the model needs ({n},)\n"),
    ("long", lambda a: np.append(a, 0.0), {}, "has shape ({long},), the model needs ({n},)\n"),
]


def generated_rows():
    """Each fault of each member and of each metadata key."""
    for key in (*training._GROUPS, "meta_json"):
        dtype, faults = ("uint8", MEMBER_FAULTS) if key == "meta_json" else ("float64", MEMBER_FAULTS + LENGTH_FAULTS)
        yield f"{key}-missing", member(key, lambda a: None), f" has no entry {key!r}\n"
        for fault, edit, entry, said in faults:
            said = said.format(key=key, dtype=dtype, n=N, short=N - 1, long=N + 1)
            yield f"{key}-{fault}", member(key, edit, **entry), f" member {key!r} {said}"
    for key in sorted(training._META_KEYS):
        without = meta(lambda m, key=key: {k: v for k, v in m.items() if k != key})
        yield f"{key}-missing", without, f" metadata has no [{key!r}]\n"
        as_text = meta(lambda m, key=key: {**m, key: json.dumps(m[key])})
        yield f"{key}-as-json-text", as_text, AS_TEXT.get(key, f" metadata {key!r} ")


# (row, fault, what the message says right after "checkpoint <path>"; a final newline pins the line's end)
ROWS = [
    *generated_rows(),
    ("opt_v-int64", member("opt_v", lambda a: a.astype(np.int64)),
     " member 'opt_v' has dtype int64, the model needs float64\n"),
    # moments AdamW cannot step from: a resume from them would leave those weights frozen for good
    *[(f"{key}-{fault}", moments(key, value), f" member {key!r} holds 5 entries that are not {rule}, "
       "the first in tensor 'block0.mix_w'\n")
      for key, fault, value, rule in [("opt_v", "inf", math.inf, "finite and >= 0"),
                                      ("opt_v", "negative", -1e-12, "finite and >= 0"),
                                      ("opt_m", "nan", math.nan, "finite")]],
    ("meta_json-not-utf8", member("meta_json", lambda a: npy(np.frombuffer(b"\xff\xfe{}", np.uint8))),
     " member 'meta_json' is unreadable: 'utf-8' codec can't decode byte 0xff"),
    ("param-npy-2.0", member("param", lambda a: npy(a, write_header=np.lib.format.write_array_header_2_0)),
     " member 'param' is not a version 1.0 .npy array\n"),
    ("param-header-unclosed", member("param", lambda a: b"\x93NUMPY\x01\x00\x02\x00{\n" + a.tobytes()),
     " member 'param' is unreadable: ('EOF in multi-line statement'"),  # numpy's header parser raises TokenError
    ("meta_json-not-json", member("meta_json", lambda a: npy(np.frombuffer(b"step = 3", np.uint8))),
     " member 'meta_json' is unreadable: Expecting value"),
    ("meta_json-huge", member("meta_json", huge), " member 'meta_json' is truncated\n"),  # no petabyte allocated
    ("meta_json-huge-entry", member("meta_json", huge, file_size=10**15 + 128),  # the directory claims it too
     " member 'meta_json' is truncated\n"),
    ("meta_json-nested", member("meta_json", lambda a: npy(np.frombuffer(b"[" * 100_000, np.uint8))),
     " member 'meta_json' is unreadable: maximum recursion depth exceeded"),
    ("meta_json-list", meta(lambda m: [1, 2]), " member 'meta_json' is not a JSON object\n"),
    ("manifest-entry", meta(lambda m: {**m, "tensors": ["in_w", *m["tensors"][1:]]}),
     " manifest entry 'in_w' is not [name, shape]\n"),
    ("manifest-order", meta(lambda m: {**m, "tensors": [m["tensors"][1], m["tensors"][0], *m["tensors"][2:]]}),
     " lists tensor 'in_b' where the model has 'in_w'\n"),
    ("in_b-shape", meta(lambda m: {**m, "tensors": [[n, [1] if n == "in_b" else s] for n, s in m["tensors"]]}),
     " tensor 'in_b' has shape (1,), the model needs (8,)\n"),
    ("thresholds-short", meta_with(thresholds=[]), " metadata 'thresholds' is not a list of 1 threshold entries\n"),
    ("tau-momentum", meta_with(thresholds=[{"momentum": 0.99, "tau": 0.5}]), " block 0 threshold 'tau': {'momentum'"),
    ("tau-text", meta_with(thresholds=["abc"]), " block 0 threshold 'tau': 'abc' is not a finite number or null\n"),
    ("tau-nan", meta_with(thresholds=[math.nan]), " block 0 threshold 'tau': nan is not"),
    ("tau-bool", meta_with(thresholds=[True]), " block 0 threshold 'tau': True is not"),
    ("tau-huge", meta_with(thresholds=[10**400]), " block 0 threshold 'tau': 1000"),  # an integer no float holds
    ("config-list", meta_with(config=[1, 2]), " metadata 'config' is not a JSON object\n"),
    ("version-text", meta_with(version="3"), " has version '3'; this moelab reads version 6\n"),
    ("step-bool", meta_with(step=True), " metadata 'step' is True, not a step count\n"),
    ("batch_size", meta(lambda m: {**m, "config": {**m["config"], "batch_size": 8}}),  # resume only
     " config mismatch (saved vs requested): {'batch_size': (8, 4)}\n"),
    ("config-strategy", meta(lambda m: {**m, "config": {**m["config"], "strategy": "expert-rice"}}),
     " metadata 'config': unknown strategy 'expert-rice'; choose from "),
    ("config-k", meta(lambda m: {**m, "config": {**m["config"], "k": 99}}),
     " metadata 'config': k=99 exceeds expert count 4\n"),
    ("config-seed", meta(lambda m: {**m, "config": {**m["config"], "seed": -1}}),  # the CLI refuses it earlier
     " metadata 'config': seed must be >= 0, got -1\n"),
    ("w_plr-missing", meta(lambda m: {**m, "config": {k: v for k, v in m["config"].items() if k != "w_plr"}}),
     " config mismatch (saved vs requested): {'w_plr': (None, 0.01)}\n"),
    ("ema_decay", meta(lambda m: {**m, "config": {**m["config"], "ema_decay": 0.999}}),  # once a setting
     " config mismatch (saved vs requested): {'ema_decay': (0.999, None)}\n"),
    ("force_unit_gate", meta(lambda m: {**m, "config": {**m["config"], "force_unit_gate": False}}),  # dropped
     " config mismatch (saved vs requested): {'force_unit_gate': (False, None)}\n"),
    ("dense", meta(lambda m: {**m, "config": {**m["config"], "dense": False}}),  # dropped: the twin is a setting
     " config mismatch (saved vs requested): {'dense': (False, None)}\n"),
    *[(f"version-{v}", old_version(v), f" has version {v}; this moelab reads version 6\n") for v in (1, 2, 3, 4, 5)],
    ("text", lambda path, _: path.write_text("step = 3\n"), " is not an .npz archive\n"),
    ("empty", lambda path, _: path.write_bytes(b""), " is not an .npz archive\n"),
    ("half-archive", lambda path, ckpt: path.write_bytes(ckpt.read_bytes()[: ckpt.stat().st_size // 2]),
     " is not an .npz archive\n"),
    ("npy", lambda path, _: path.write_bytes(npy(np.zeros(3))), " is not an .npz archive\n"),
    ("no-file", lambda path, _: None, ": No such file or directory\n"),
    ("directory", lambda path, _: path.mkdir(), ": Is a directory\n"),
]


# a valid checkpoint of another config: only a resume that asks for the trained config refuses it
RESUME_ONLY = {"batch_size"}


@pytest.mark.parametrize("row,make,fragment", [pytest.param(*row, id=row[0]) for row in ROWS])
def test_checkpoint_fault(tmp_path, capsys, trained_checkpoint, row, make, fragment):
    # through `metrics` (which reads its config from the checkpoint) and
    # `train --resume` alike: exit 2, one line naming the file and the
    # fault, no --out, and the file and its directory untouched
    home, out = tmp_path / "home", tmp_path / "out"
    home.mkdir()
    broken = home / "broken.npz"
    make(broken, trained_checkpoint)

    def files():
        return {p: p.read_bytes() if p.is_file() else None for p in home.rglob("*")}

    before = files()
    metrics = ["metrics", "--checkpoint", str(broken), "--out", str(out)]
    resume = ["train", "--steps", "2", "--resume", str(broken), "--out", str(out), "--seed", "5", *FAST]
    for command in [resume] if row in RESUME_ONLY else [metrics, resume]:
        capsys.readouterr()
        rc = main(command)
        err = capsys.readouterr().err
        head, named, tail = err.partition(f"checkpoint {broken}")
        assert rc == 2 and head in ("config error: ", "config error: cannot read "), (command, err)
        assert named and tail.startswith(fragment) and err.count("\n") == 1, (command, err)
        assert not out.exists() and files() == before, command
    if row in RESUME_ONLY:
        assert main(metrics) == 0


def test_a_size_no_array_can_have_is_one_config_error_line(tmp_path, capsys, trained_checkpoint):
    # numpy refuses a (2**62, 2**62) weight, a (2**62 + 1,) schedule or a (2**62, 4, 8) batch before it
    # allocates anything; route-sim's first block of (10**8, 10**8, 8) scores is past any address space (MemoryError)
    huge, long = tmp_path / "huge.npz", tmp_path / "long.npz"
    for path, key in [(huge, "model_dim"), (long, "total_steps")]:
        meta(lambda m: {**m, "config": {**m["config"], key: 2**62}})(path, trained_checkpoint)
    (tmp_path / "long.cfg").write_text(f"total_steps = {2**62}\n")
    sizes = "model_dim=4611686018427387904, tokens="
    steps = "dense_hidden=256, total_steps=4611686018427387904, batch_size="
    defaults = "layers=4, model_dim=64, tokens=16, num_classes=4, num_experts=8, " + steps + "32 ask "
    batch = ["--batch-size", str(2**62), "--tokens", "4", "--model-dim", "8", "--layers", "1"]
    for command, said in [(["train", "--model-dim", str(2**62), "--steps", "1"], f"config error: layers=4, {sizes}"),
                          (["metrics", "--checkpoint", str(huge)], f"config error: checkpoint {huge}: layers=1, {sizes}"),
                          (["train", *batch, "--steps", "1"], "config error: layers=1, model_dim=8, tokens=4, "
                           "num_classes=4, num_experts=8, dense_hidden=256, total_steps=100, "
                           "batch_size=4611686018427387904 ask "),
                          (["train", "--config", str(tmp_path / "long.cfg"), "--steps", "1"],
                           "config error: " + defaults),
                          (["ablate", "--arms", f"total_steps={2**62}"],
                           f"config error: arm 'total_steps={2**62}': " + defaults),
                          (["metrics", "--checkpoint", str(long)], f"config error: checkpoint {long}: layers=1, "
                           f"model_dim=8, tokens=4, num_classes=4, num_experts=4, {steps}4 ask "),
                          (["route-sim", "--draws", "1", "--batch-size", str(2**62)],
                           "config error: batch_size=4611686018427387904, tokens=16, experts=8 ask "),
                          (["route-sim", "--draws", "1", "--batch-size", str(10**8), "--tokens", str(10**8)],
                           "config error: batch_size=100000000, tokens=100000000, experts=8 ask ")]:
        out = tmp_path / "out"
        assert main([*command, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(said) and " ask for arrays numpy cannot allocate: " in err, err
        assert err.count("\n") == 1 and not out.exists(), err


def test_a_compressed_copy_of_a_checkpoint_is_one_config_error(tmp_path, capsys, trained_checkpoint):
    # an np.savez copy loads bit-equal; an np.savez_compressed one is refused at its first member
    members = members_of(trained_checkpoint)
    stored, compressed = tmp_path / "stored.npz", tmp_path / "compressed.npz"
    np.savez(stored, **members)
    np.savez_compressed(compressed, **members)
    save_checkpoint(tmp_path / "resaved.npz", load_checkpoint(stored, CONFIG))
    resaved = members_of(tmp_path / "resaved.npz")
    assert {k: v.tobytes() for k, v in resaved.items()} == {k: v.tobytes() for k, v in members.items()}
    before = compressed.read_bytes()
    assert main(["metrics", "--checkpoint", str(compressed), "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == (f"config error: checkpoint {compressed} member 'meta_json' is compressed; "
                                       "moelab reads the stored members it writes\n")
    assert not (tmp_path / "out").exists() and compressed.read_bytes() == before


SCORES = "block 0: router scores have {} non-finite entries of 64\n"  # 4 rows of 4 tokens, 4 experts
ARM = "arm 'gating=identity': "
HELDOUT = "held-out batch 1: "
# (row, the command; the trained checkpoint's tensor scaled and by what, or None for a fresh run at lr 1e300,
#  whose first update overflows the weights; stderr after "numeric failure: "; what --out holds; log.csv's steps)
NUMERIC_ROWS = [
    ("train", ["train", "--steps", "5"], None, "step 2: " + SCORES.format(64), ["config.snapshot", "log.csv"], ["1"]),
    ("train-nan-router", ["train", "--steps", "2"], ("block0.moe.gate_b", np.nan), "step 2: " + SCORES.format(64),
     ["config.snapshot", "log.csv"], []),
    ("train-huge-trunk", ["train", "--steps", "2"], ("in_w", 1e308), "step 2: " + SCORES.format(48),
     ["config.snapshot", "log.csv"], []),
    # the forward stays finite, but the loss's gradient through a head of 1e96 overflows AdamW's g * g
    ("train-huge-head", ["train", "--steps", "2"], ("out_w", 1e100),
     "step 2: gradient of in_w has max |g| = 2.48e+192; AdamW's second moment holds |g| <= 1.34e+154\n",
     ["config.snapshot", "log.csv"], []),
    ("metrics-nan-router", ["metrics"], ("block0.moe.gate_b", np.nan), HELDOUT + SCORES.format(64), None, None),
    ("metrics-huge-trunk", ["metrics"], ("in_w", 1e308), HELDOUT + SCORES.format(64), None, None),
    ("ablate-step", ["ablate", "--steps", "3", "--arms", "gating=identity;strategy=token-choice"], None,
     ARM + "step 2: " + SCORES.format(64), ["config.snapshot"], None),
    ("ablate-heldout", ["ablate", "--steps", "1", "--arms", "gating=identity"], None,
     ARM + HELDOUT + SCORES.format(64), ["config.snapshot"], None),
]


@pytest.mark.parametrize("command,fault,said,holds,logged", [pytest.param(*row[1:], id=row[0]) for row in NUMERIC_ROWS])
def test_numeric_failure_exits_3_in_one_line(tmp_path, capsys, trained_checkpoint, command, fault, said, holds, logged):
    # no traceback, no numpy warning, no summary.json, ckpt_final.npz or ablate.csv: log.csv holds the finished steps
    if fault:
        members = members_of(trained_checkpoint)
        members["param"][tensor_slice(json.loads(members["meta_json"].tobytes()), fault[0])] *= fault[1]
        write_members(tmp_path / "broken.npz", members)
        given = ["--resume" if command[0] == "train" else "--checkpoint", str(tmp_path / "broken.npz")]
    else:
        (tmp_path / "diverge.cfg").write_text("lr = 1e300\n")
        given = ["--config", str(tmp_path / "diverge.cfg")]
    out = tmp_path / "out"
    settings = [] if command[0] == "metrics" else ["--seed", "5", *FAST]  # metrics reads its checkpoint's
    args = [*command, *given, "--out", str(out), *settings]
    if command[0] == "train" and not fault:  # real stderr, once
        done = subprocess.run([sys.executable, "-m", "moelab", *args], capture_output=True, text=True, timeout=120,
                              env={**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")})
        rc, err = done.returncode, done.stderr
    else:
        rc, err = main(args), capsys.readouterr().err
    assert rc == 3 and err == f"numeric failure: {said}", err
    assert (sorted(p.name for p in out.iterdir()) if out.exists() else None) == holds
    assert logged is None or [row["step"] for row in read_csv(out / "log.csv")] == logged


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


@pytest.mark.parametrize("command,flag", [("metrics", "--checkpoint"), ("train", "--config"), ("train", "--resume")])
def test_missing_input_file_is_config_error_naming_it(tmp_path, capsys, command, flag):
    missing = tmp_path / "nope"
    out = tmp_path / "out"
    settings = [] if command == "metrics" else ["--steps", "1", *FAST]
    rc = main([command, flag, str(missing), "--out", str(out), *settings])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and str(missing) in err
    assert not out.exists()


@pytest.mark.parametrize(
    "arms,named",
    [
        ("gating=identity;gating=sigmod", "arm 'gating=sigmod': unknown gating 'sigmod'"),
        ("gating=identity;strategy=expert-rice", "arm 'strategy=expert-rice': unknown strategy 'expert-rice'"),
        ("gating=identity;w_sim=-1", "arm 'w_sim=-1': loss weights must be >= 0"),
        ("gating=identity;w_blc=x", "arm 'w_blc=x': config key 'w_blc' must be float, got 'x'\n"),
        ("gating=identity;gating", "arm 'gating': expected 'key = value', got 'gating'\n"),
        ("gating=identity;warp_speed=9", "arm 'warp_speed=9': unknown config key 'warp_speed'\n"),
        ("gating=identity;k=1,k=2", "arm 'k=1,k=2': config key 'k' is already set in this arm\n"),
        ("gating=identity;k=two", "arm 'k=two': config key 'k' must be int, got 'two'\n"),
        ("gating=identity;strategy=expert-choice", "E must divide"),
        ("gating=identity;batch_size=4611686018427387904",
         "arm 'batch_size=4611686018427387904': layers=1, model_dim=8, tokens=3, num_classes=4, num_experts=4, "
         "dense_hidden=256, total_steps=100, batch_size=4611686018427387904 ask for arrays numpy cannot allocate"),
        (";;", "ablate needs --arms 'key=value,...;...'\n"),
    ],
    ids=["gating", "strategy", "w_sim", "w_blc", "missing-equals", "unknown-key", "repeated-key", "k-wrong-type",
         "budget", "array-size", "only-empty-arms"],
)
def test_ablate_validates_every_arm_before_training(tmp_path, capsys, monkeypatch, arms, named):
    trained = []
    monkeypatch.setattr(cli.Trainer, "train_step", lambda self: trained.append(1))
    out = tmp_path / "ablate"
    rc = main(["ablate", "--out", str(out), "--seed", "1", "--steps", "2", "--arms", arms,
               "--batch-size", "2", "--tokens", "3", "--model-dim", "8", "--layers", "1",
               "--experts", "4", "--k", "1"])
    assert rc == 2
    err = capsys.readouterr().err
    assert named in err and err.count("\n") == 1
    assert trained == [] and not out.exists()


@pytest.mark.parametrize("arms, rc", [("strategy=token-choice", 0),
                                      ("strategy=token-choice;;", 0),
                                      ("strategy=token-choice;strategy=expert-choice", 2)],
                         ids=["no-arm-uses-the-base", "empty-arms-are-skipped", "an-arm-does"])
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


def test_a_config_file_that_is_not_utf8_is_one_config_error_line_before_writing(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_bytes(b"seed = 1\n\xff\xfe\n")
    out = tmp_path / "run"
    assert main(["train", "--config", str(cfg), "--out", str(out), "--steps", "1", *FAST]) == 2
    assert capsys.readouterr().err == f"config error: {cfg}:2: not UTF-8 text (invalid start byte at byte 9)\n"
    assert not out.exists()


def test_a_config_error_names_its_line_counted_at_newlines_only(tmp_path, capsys):
    # a form feed ends a line for str.splitlines, but not in a config file
    cfg = tmp_path / "c.cfg"
    cfg.write_text("seed = 1\x0c\nbogus\n")
    out = tmp_path / "out"
    assert main(["route-sim", "--config", str(cfg), "--out", str(out), "--draws", "1"]) == 2
    assert capsys.readouterr().err == f"config error: {cfg}:2: expected 'key = value', got 'bogus'\n"
    assert not out.exists()


# a file in --out that no run of moelab wrote, whose name holds '²' where a
# temp file's pid or a checkpoint's step would be (str.isdigit accepts '²',
# int does not), or a pid os.kill cannot take; or the temp file of a live
# process, which may be a concurrent writer's
STRANGERS = {
    "route-sim": ".config.snapshot.\u00b2.tmp",
    "route-sim-past-pid_t": ".config.snapshot.2147483648.tmp",
    "route-sim-live-pid": f".config.snapshot.{os.getppid()}.tmp",
    "train": ".config.snapshot.\u00b2.tmp",
    "train-checkpoint": "ckpt_\u00b2\u00b2.npz",
    "metrics": ".metrics.json.\u00b2.tmp",
    "ablate": ".ablate.csv.\u00b2.tmp",
}


@pytest.mark.parametrize("command", STRANGERS)
def test_a_file_moelab_did_not_write_is_left_alone(tmp_path, trained_checkpoint, command):
    out = tmp_path / "out"
    out.mkdir()
    stranger = out / STRANGERS[command]
    stranger.write_text("not moelab's\n")
    args = {
        "route-sim": ["route-sim", "--draws", "1", *FAST],
        "route-sim-past-pid_t": ["route-sim", "--draws", "1", *FAST],
        "route-sim-live-pid": ["route-sim", "--draws", "1", *FAST],
        "train": ["train", "--steps", "1", *FAST],
        "train-checkpoint": ["train", "--steps", "1", *FAST],
        "metrics": ["metrics", "--checkpoint", str(trained_checkpoint)],
        "ablate": ["ablate", "--steps", "1", "--arms", "gating=identity", *FAST],
    }[command]
    assert main([*args, "--out", str(out)]) == 0
    assert stranger.read_text() == "not moelab's\n"


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
        ("train", "warp_speed = 9", "bad.cfg:7: unknown config key 'warp_speed'"),
        ("train", "k = two", "config key 'k' must be int, got 'two'"),
        ("train", "strategy = expert-choice\ntokens = 3\nk = 1", "K = k*D_B/E = 1*3/4 is not an integer"),
        ("train", "schema_version = 2", "config schema_version 2 != 1\n"),
        ("train", "total_steps = 1", "total_steps must be >= 2, got 1\n"),
        ("train", ["--k", "two"], "config error: config key 'k' must be int, got 'two'\n"),
        ("train", ["--w-sim", "x"], "config error: config key 'w_sim' must be float, got 'x'\n"),
        ("train", ["--seed", "1.5"], "config error: config key 'seed' must be int, got '1.5'\n"),
        ("route-sim", ["--draws", "x"], "config error: --draws must be an integer >= 1, got 'x'\n"),
    ],
    ids=["gating", "parameterization", "num_classes", "model_dim", "layers", "dense_hidden", "seed", "batch_size", "lr-nan",
         "lr-negative", "ema_decay", "schedule", "repeated-key", "w_sim-nan", "steps", "ablate-parameterization",
         "unknown-key", "k-wrong-type", "selection-size", "schema_version", "total_steps", "flag-k", "flag-w_sim",
         "flag-seed", "flag-draws"],
)
def test_a_bad_setting_is_one_config_error_line_before_writing(tmp_path, capsys, command, setting, named):
    # a bad value, a config file's lines or a list of flags, is one config-error line naming its key,
    # before --out exists
    flags, setting = (setting, "") if isinstance(setting, list) else ([], setting)
    small = {"layers": 1, "model_dim": 8, "tokens": 4, "batch_size": 4, "experts": 4, "steps": 1}
    overridden = {line.split("=", 1)[0].strip() for line in setting.splitlines()}  # a config file sets each key once
    lines = [f"{key} = {value}" for key, value in small.items() if key not in overridden]
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("\n".join([*lines, setting]) + "\n")
    out = tmp_path / "run"
    arms = ["--arms", "gating=identity"] if command == "ablate" else []
    rc = main([command, "--config", str(cfg), "--out", str(out), *arms, *flags])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and err.count("\n") == 1, err
    assert named in err, err
    assert not out.exists()


@pytest.fixture(scope="module")
def tiny_run(tmp_path_factory):
    """A 2-step FAST run checkpointed at each step, and the settings it ran with."""
    root = tmp_path_factory.mktemp("tiny")
    (root / "every1.cfg").write_text("checkpoint_every = 1\n")
    run_settings = ["--config", str(root / "every1.cfg"), "--seed", "5", "--steps", "2", *FAST]
    assert main(["train", "--out", str(root / "run"), *run_settings]) == 0
    return root, run_settings


@pytest.mark.parametrize("name", ["config.snapshot", "log.csv", "ckpt_final.npz"])
@settings(max_examples=100, derandomize=True, deadline=None, database=None)
@given(data=st.data())
def test_a_read_file_with_mutated_bytes_exits_0_2_or_3_in_one_line(tiny_run, name, data):
    # 1-4 bytes of a file a command reads are overwritten: the snapshot read
    # as --config (the size flags override its sizes, so a mutated digit
    # cannot make a long run), the log a resume into the run's --out rewrites,
    # and the checkpoint metrics reads. No exception escapes, a failure is
    # one stderr line, and a failed resume leaves the run's files as they were.
    root, run_settings = tiny_run
    original = (root / "run" / name).read_bytes()
    edits = data.draw(st.lists(st.tuples(st.integers(0, len(original) - 1), st.integers(0, 255)),
                               min_size=1, max_size=4))
    mutated = bytearray(original)
    for at, byte in edits:
        mutated[at] = byte
    with tempfile.TemporaryDirectory(dir=root) as scratch:
        run, out = Path(scratch) / "run", Path(scratch) / "out"
        shutil.copytree(root / "run", run)
        (run / name).write_bytes(bytes(mutated))
        command = {
            "config.snapshot": ["train", "--config", str(run / name), "--steps", "2", *FAST, "--out", str(out)],
            "log.csv": ["train", *run_settings, "--resume", str(run / "ckpt_000001.npz"), "--out", str(run)],
            "ckpt_final.npz": ["metrics", "--checkpoint", str(run / name), "--out", str(out)],
        }[name]
        before = {p.name: p.read_bytes() for p in run.iterdir()}
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            rc = main(command)
        err = err.getvalue()
        assert rc in (0, 2, 3), (rc, err)
        if rc:
            assert err.count("\n") == 1, err
            assert err.startswith(("config error: ", "numeric failure: ")), err
        if rc == 2 and name == "log.csv":
            assert {p.name: p.read_bytes() for p in run.iterdir()} == before
