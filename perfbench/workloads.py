"""The benchmark's three workloads, each one moelab user path in a closed loop.

One caller, one process, one BLAS thread. Every workload does a fixed amount
of work for a given --seconds (`rate` units per second, sized for a 2-core
Xeon at ~2 GHz), so a faster program finishes sooner instead of doing more,
and the seeded outputs of a run do not depend on its speed.

  train      Trainer.train_step on the default config. The only path with
             backward, AdamW/EMA, aux losses and the top-K threshold write.
  sample     Trainer.sample(n=32) attempts from a checkpointed model, timed
             per reverse step. Forward only; reads the threshold.
  route-sim  moelab.cli.main(["route-sim", ...]) in-process: numpy routing
             and metrics only, no tensor core.

A traced run alternates untraced and traced blocks of work, half of each;
the per-layer metrics come from the traced blocks and the difference of the
two halves' median step times is the tracing overhead.

setup_s is the median of setup_repeats timed set-ups: one before the timed
phase and the rest spread over it, outside the step timing and the timed
window. A shared VM's speed can change every few seconds, so set-ups made
back to back would all see one speed; spread over the run they see the same
mix as the steps do.
"""

from __future__ import annotations

import contextlib
import csv
import io
import statistics
import tempfile
from pathlib import Path
from time import perf_counter

import numpy as np

import tracing
from moelab import cli, training
from moelab.denoiser import DenoiserConfig
from moelab.training import NumericError, Trainer, TrainerConfig

TRAIN_WARMUP_STEPS = 2
# AdamW's first moment has a memory of 1 / (1 - beta1) = 10 steps, and each
# of those steps also writes every layer's EMA threshold that the sampler
# reads. The count is fixed so the sample setup costs the same whatever the
# sampler then does.
SAMPLE_FIXTURE_STEPS = 10
SAMPLE_BATCH = 32
# The task's data stay within about 5 in absolute value (class means of
# scale 2/sqrt(D) plus noise of sigma <= 1); a completed sample ten times
# that far out has diverged, even though it is finite.
SAMPLE_MAX_ABS = 50.0
ROUTE_SIM_DRAWS_PER_CALL = 50
TRACE_SETUP_REPEATS = 3  # traced set-ups, for the per-call checkpoint times


def trainer_config(seed: int, tiny: bool) -> TrainerConfig:
    """The default toy model (B=32, L=16, D=64, 4 blocks, 2-in-8, T=100), or a
    tiny one for the self-test."""
    if not tiny:
        return TrainerConfig(seed=seed)
    model = DenoiserConfig(layers=1, model_dim=8, tokens=4, num_classes=2, num_experts=4, k=2,
                           dense_hidden=16, total_steps=5)
    return TrainerConfig(model=model, batch_size=4, seed=seed)


class Workload:
    """prepare() runs once, untimed. setup() is the timed set-up; it runs once
    before the timed phase and again between units inside it (see tick), so
    that setup_s, a median, samples the same stretch of machine speed as the
    step times. warm_up() runs once, untimed, before the timed phase.
    phase(n) times n units of work and returns one duration per unit (or per
    call, for batched units) and the unit count; finish() runs after it."""

    rate: float  # units of work per second of --seconds
    min_units = 1
    units_per_tick = 1  # units between two calls of tick() inside phase()
    setup_repeats = 15  # setup_s is the median over these
    trace_block = 5  # units per block in the traced run's untraced/traced alternation
    tracer: tracing.Tracer | None = None  # stamped with the step id while tracing

    def __init__(self, seed: int, tiny: bool, scratch: Path):
        self.seed, self.tiny, self.scratch = seed, tiny, scratch
        self.units = 0  # units the timed phase does in all
        self.attempted = 0
        self.failed = 0
        self.checks: dict[str, bool] = {}
        self.setup_s: list[float] = []
        self.setup_every = 0  # ticks between set-ups inside the phase; 0 for none
        self.setup_in_phase_s = 0.0
        self.ticks = 0

    def check(self, name: str, ok) -> None:
        self.checks[name] = self.checks.get(name, True) and bool(ok)

    def prepare(self):
        pass

    def warm_up(self):
        pass

    def finish(self):
        pass

    def timed_setup(self) -> None:
        t0 = perf_counter()
        self.setup()
        self.setup_s.append(perf_counter() - t0)

    def tick(self) -> None:
        """Called by phase() between units, outside the timed region: runs a
        timed set-up every `setup_every` ticks until there are setup_repeats."""
        self.ticks += 1
        if self.setup_every and self.ticks % self.setup_every == 0 and len(self.setup_s) < self.setup_repeats:
            t0 = perf_counter()
            self.timed_setup()
            self.setup_in_phase_s += perf_counter() - t0

    def named(self, metrics: dict) -> dict:
        """The end-to-end metrics under this workload's own names."""
        raise NotImplementedError


class Train(Workload):
    """Two trainers built from the same seed run the first and the second half
    of the timed steps; the second must repeat the first one's losses bit for
    bit, so the same seed gives the same train_loss_final."""

    rate = 5.0
    min_units = 2  # one step on each trainer

    def __init__(self, *args):
        super().__init__(*args)
        self.config = trainer_config(self.seed, self.tiny)
        self.losses: list[list[float]] = [[], []]
        self.last_loss = float("nan")

    def setup(self):
        self.trainer = Trainer(self.config)

    def warm_up(self):
        self.trainers = [self.trainer, Trainer(self.config)]
        for trainer, losses in zip(self.trainers, self.losses):
            losses += [trainer.train_step().total for _ in range(TRAIN_WARMUP_STEPS)]

    def phase(self, n):
        k = self.config.model.k
        times = []
        for _ in range(n):
            self.tick()
            half = 0 if self.attempted < self.units // 2 else 1
            if self.tracer is not None:
                self.tracer.step = self.attempted
            self.attempted += 1
            t0 = perf_counter()
            try:
                record = self.trainers[half].train_step()
            except NumericError:
                self.failed += 1
                self.check("loss_finite", False)
                break
            times.append(perf_counter() - t0)
            self.check("loss_finite", np.isfinite(record.total))
            self.check("mean_active_is_k", record.mean_active == k)  # B*L*k selections per layer
            self.losses[half].append(record.total)
            self.last_loss = record.total
        return times, len(times)

    def finish(self):
        first, second = self.losses
        self.check("same_seed_same_losses", len(second) >= len(first) and second[:len(first)] == first)

    def named(self, m):
        tokens = self.config.batch_size * self.config.model.tokens
        return {
            "train_step_ms.p50": m["step_ms.p50"],
            "train_step_ms.p90": m["step_ms.p90"],
            "train_tokens_per_s": m["steps_per_s"] * tokens,
            "train_loss_final": self.last_loss,
            "train_steps": [trainer.step_count for trainer in self.trainers],
        }


class _BudgetReached(Exception):
    """Raised into the sampler when the reverse-step budget is used up."""


class Sample(Workload):
    """Setup round-trips the trained fixture through a checkpoint. The timed
    phase cuts the attempt running when the budget of reverse steps is used
    up; the traced run's blocks end at attempt boundaries instead, so that
    whole attempts are traced however short the blocks are."""

    rate = 8.0
    trace_block = 20

    def __init__(self, *args):
        super().__init__(*args)
        self.config = trainer_config(self.seed, self.tiny)
        self.min_units = self.config.model.total_steps  # room for one whole attempt
        self.attempts = 0
        self.cut = 0
        self.steps_per_attempt: list[int] = []
        self.max_abs_completed = 0.0

    def prepare(self):
        self.fixture = Trainer(self.config)
        for _ in range(SAMPLE_FIXTURE_STEPS):
            self.fixture.train_step()
        self.fixture_state = _trainer_state(self.fixture)

    def setup(self):
        with tempfile.TemporaryDirectory(dir=self.scratch) as tmp:
            path = Path(tmp) / "ckpt.npz"
            training.save_checkpoint(path, self.fixture)
            self.trainer = training.load_checkpoint(path, self.config)
        self.check("checkpoint_round_trip_bit_equal", _same_state(_trainer_state(self.trainer), self.fixture_state))

    def phase(self, budget):
        """Sample attempts until `budget` reverse steps are timed."""
        times: list[float] = []
        started = [None, 0]  # start of the reverse step in progress, steps in this attempt
        inner = training.denoiser_forward
        cut = self.tracer is None

        def clocked(*args, **kwargs):
            now = perf_counter()
            if started[0] is not None:
                times.append(now - started[0])
            if cut and len(times) >= budget:
                started[0] = None
                raise _BudgetReached
            self.tick()
            started[0] = perf_counter()
            started[1] += 1
            if self.tracer is not None:
                self.tracer.step = len(times)
            return inner(*args, **kwargs)

        patches = tracing.Patches()
        patches.set(training, "denoiser_forward", clocked)
        try:
            while len(times) < budget:
                attempt = self.attempts + self.cut
                started[1] = 0
                try:
                    x, log = self.trainer.sample(
                        SAMPLE_BATCH, attempt % self.config.model.num_classes,
                        rng=np.random.default_rng([self.seed, attempt]),
                    )
                except _BudgetReached:
                    self.cut += 1
                    break
                except NumericError:
                    self.failed += 1
                else:
                    # the sampler raises on a non-finite state, so a completed
                    # sample is finite; this bounds its size as well
                    self.check("completed_samples_bounded", np.all(np.abs(x) <= SAMPLE_MAX_ABS))
                    self.check("one_log_entry_per_reverse_step", len(log) == started[1])
                    self.max_abs_completed = max(self.max_abs_completed, float(np.abs(x).max()))
                finally:
                    if started[0] is not None:
                        times.append(perf_counter() - started[0])
                        started[0] = None
                self.attempts += 1
                self.steps_per_attempt.append(started[1])
        finally:
            patches.undo()
        self.attempted = self.attempts
        return times, len(times)

    def named(self, m):
        return {
            "sample_step_ms.p50": m["step_ms.p50"],
            "sample_step_ms.p90": m["step_ms.p90"],
            "sample_fail_frac": self.failed / self.attempts if self.attempts else float("nan"),
            "sample_attempts": self.attempts,
            "sample_attempts_cut": self.cut,
            "sample_max_abs_completed": self.max_abs_completed,
        }


def _trainer_state(trainer: Trainer) -> list:
    return (
        [t.data for _, t in trainer.params.named_tensors()]
        + list(trainer.ema.shadow.values()) + trainer.opt.m + trainer.opt.v
        + [[blk.moe.threshold.tau for blk in trainer.params.blocks],
           trainer.rng.bit_generator.state, trainer.step_count, trainer.opt.step_count]
    )


def _same_state(a: list, b: list) -> bool:
    return len(a) == len(b) and all(
        np.array_equal(x, y) if isinstance(x, np.ndarray) else x == y for x, y in zip(a, b)
    )


class RouteSim(Workload):
    """setup is a one-draw call, the fixed cost of a route-sim command."""

    rate = 350.0
    min_units = units_per_tick = trace_block = ROUTE_SIM_DRAWS_PER_CALL

    def __init__(self, *args):
        super().__init__(*args)
        self.out = str(self.scratch)
        size = (4, 4, 4) if self.tiny else (32, 16, 8)
        self.shape = ["--batch-size", str(size[0]), "--tokens", str(size[1]), "--experts", str(size[2]),
                      "--k", "2"]
        self.calls = 0

    def _call(self, draws):
        seed = self.seed * 100_000 + self.calls
        self.calls += 1
        with contextlib.redirect_stdout(io.StringIO()):  # keep stdout for the result line
            return cli.main(["route-sim", "--out", self.out, "--seed", str(seed), "--draws", str(draws), *self.shape])

    def setup(self):
        self.check("exit_code_0", self._call(1) == 0)

    def warm_up(self):
        self.check("exit_code_0", self._call(ROUTE_SIM_DRAWS_PER_CALL) == 0)

    def phase(self, draws):
        times = []
        for _ in range(max(1, draws // ROUTE_SIM_DRAWS_PER_CALL)):
            self.tick()
            if self.tracer is not None:
                self.tracer.step = self.attempted
            t0 = perf_counter()
            code = self._call(ROUTE_SIM_DRAWS_PER_CALL)
            times.append((perf_counter() - t0) / ROUTE_SIM_DRAWS_PER_CALL)
            self.attempted += ROUTE_SIM_DRAWS_PER_CALL
            if code != 0:
                self.failed += ROUTE_SIM_DRAWS_PER_CALL
            self.check("exit_code_0", code == 0)
            with open(Path(self.out) / "route_sim.csv") as fh:
                rows = list(csv.DictReader(fh))
            self.check("six_strategy_rows", sorted(r["strategy"] for r in rows) == sorted(tracing.STRATEGY_NAMES))
            self.check("gap_vs_expert_race_nonnegative", all(float(r["gap_vs_expert_race"]) >= 0.0 for r in rows))
        return times, len(times) * ROUTE_SIM_DRAWS_PER_CALL

    def named(self, m):
        return {"route_sim_draws_per_s": m["steps_per_s"], "route_sim_draws": self.attempted}


WORKLOADS = {"train": Train, "sample": Sample, "route-sim": RouteSim}


def _p(values: list[float], q: int) -> float:
    """q-th percentile (q in 1..99); the single value when there is only one."""
    return statistics.quantiles(values, n=100)[q - 1] if len(values) > 1 else values[0]


def execute(name: str, seed: int, seconds: float, trace: bool, tiny: bool, out_dir: Path) -> dict:
    """Run one workload; return its metrics, counters, checks and detail.
    Temporary files go to a directory under `out_dir` that is removed at the
    end; the traced run leaves its spans file in `out_dir`."""
    with tempfile.TemporaryDirectory(dir=out_dir) as scratch:
        return _execute(WORKLOADS[name](seed, tiny, Path(scratch)), name, seconds, trace, out_dir)


def _execute(work: Workload, name: str, seconds: float, trace: bool, out_dir: Path) -> dict:
    units = work.units = max(work.min_units, round(seconds * work.rate))
    tracer = tracing.Tracer() if trace else None
    work.tracer = tracer

    patches = tracing.instrument(tracer) if trace else None
    work.prepare()
    for _ in range(TRACE_SETUP_REPEATS if trace else 1):
        work.timed_setup()
    work.warm_up()
    if trace:
        # untraced and traced blocks alternate, so drift of the machine's speed
        # during the run does not show up as tracing overhead
        patches.undo()
        plain, times, done, window, tensors = [], [], 0, 0.0, 0
        start = len(tracer.spans)
        tracer.counts.clear()
        while done < units / 2:
            plain_times, plain_done = work.phase(work.trace_block)
            plain += plain_times
            patches = tracing.instrument(tracer)
            tensors0, t0 = tracing.tensors_created(), perf_counter()
            block_times, block_done = work.phase(work.trace_block)
            window += perf_counter() - t0
            tensors += tracing.tensors_created() - tensors0
            patches.undo()
            times += block_times
            done += block_done
            if not (plain_done and block_done):
                break
    else:
        # the other set-ups run spread over the timed phase, outside its timing
        work.setup_every = max(1, units // work.units_per_tick // work.setup_repeats)
        t0 = perf_counter()
        times, done = work.phase(units)
        window = perf_counter() - t0 - work.setup_in_phase_s
    work.finish()

    result = {
        "metrics": {
            "setup_s": statistics.median(work.setup_s),
            "step_ms.p50": 1000.0 * statistics.median(times),
            "step_ms.p90": 1000.0 * _p(times, 90),
            "steps_per_s": done / window,
        },
        "attempted": work.attempted,
        "failed": work.failed,
        "checks": work.checks,
        "detail": {"setup_s_all": work.setup_s, "timed_units": done, "timed_s": window},
    }
    result["detail"]["named"] = work.named(result["metrics"])
    if trace:
        table = tracing.span_table(tracer.spans, start, len(tracer.spans))
        setup_table = tracing.span_table(tracer.spans, 0, start)
        layer = tracing.layer_metrics(table, tracer.counts, done, tensors)
        layer["training.save_checkpoint_ms"] = tracing.per_call_ms(setup_table, "training.save_checkpoint")
        layer["training.load_checkpoint_ms"] = tracing.per_call_ms(setup_table, "training.load_checkpoint")
        steps = getattr(work, "steps_per_attempt", None)
        layer["training.sample_steps_per_attempt"] = statistics.mean(steps) if steps else 0.0
        untraced = 1000.0 * statistics.median(plain)
        traced = result["metrics"]["step_ms.p50"]
        layer["trace.overhead_ms"] = traced - untraced
        layer["trace.overhead_pct"] = 100.0 * (traced - untraced) / untraced
        result["layer"] = layer
        result["detail"]["self_time_per_step"] = tracing.self_time_report(table, done)
        spans_path = out_dir / f"spans-{name}-seed{work.seed}.jsonl"
        tracer.write(spans_path)
        result["detail"]["spans_file"] = str(spans_path)
    return result
