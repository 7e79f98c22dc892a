"""Training loop machinery: AdamW steps, weight EMA, checkpoints, and
replace_file, the one way moelab writes a file.

One Trainer owns the parameters, optimizer state, EMA shadow, threshold
states and RNG; everything it touches round-trips through the checkpoint
container so a resumed run replays the original trajectory bit for bit.
`Trainer.loss` builds the training objective: `train_step` minimizes it and
the finite-difference gradient tests differentiate it. `Trainer.evaluate`
reads a trained model on the one held-out set every command reports from.
The container (version 6) is an .npz archive with one flat float64 member
per state group (`param`, `ema`, `opt_m`, `opt_v`) plus `meta_json`, whose
manifest lists each tensor's name and shape; tensors are streamed into
and out of the trainer's own arrays, one .npy header per group.

The optimizer moments and the EMA shadow are arrays the trainer owns and
updates in place. Parameters are rebound to a new array each step
(`p.data = p.data - u`), never written in place: graph nodes and callers may
still hold the previous step's array. Sampling and `Trainer.forward` run
under `tensor.no_grad()` and build no tape. AdamW frees each gradient as
it applies it.
"""

from __future__ import annotations

import json
import lzma
import math
import os
import sys
import zipfile
import zlib
from contextlib import contextmanager
from dataclasses import dataclass, field, fields
from pathlib import Path
from tokenize import TokenError

import numpy as np

from . import losses as losses_mod
from . import metrics as metrics_mod
from .denoiser import DenoiserConfig, check_field_types, denoiser_forward, init_denoiser, is_integer
from .diffusion import NoiseSchedule, SyntheticTask, ancestral_sample, build_schedule, integer_array
from .losses import aux_inputs_from_routing
from .routing import ConfigError, NumericError, StateError, effective_k, ema_update, get_strategy
from .tensor import Tensor, backward, no_grad

__all__ = [
    "NumericError",
    "AdamW",
    "WeightEma",
    "LogRecord",
    "TrainerConfig",
    "Evaluation",
    "Trainer",
    "save_checkpoint",
    "load_checkpoint",
    "replace_file",
    "remove_file",
    "refusing",
    "allocating",
]

CHECKPOINT_VERSION = 6
# The held-out set: this many batches of batch_size, drawn from seed + 4242,
# so every checkpoint and ablate arm of a config is read on the same data.
HELDOUT_BATCHES = 4


class AdamW(object):
    """AdamW with zero weight decay (constant learning rate) and the usual
    betas (0.9, 0.999) and eps 1e-8, over `named`, (name, tensor) pairs.

    `m` and `v` are updated in place, with the same IEEE operations in the
    same order as the textbook formulas. `step` reads each `p.grad` (None,
    a leaf the loss never reached, as zero), rebinds `p` to a new array and
    sets `p.grad = None` before the next tensor: it frees what it applies.
    """

    beta1, beta2, eps = 0.9, 0.999, 1e-8
    # |g| at most sqrt(the largest float64) keeps g * g finite, and with it
    # (1 - beta2) * g * g, v (a weighted mean of those) and v / (1 - beta2**n)
    grad_bound = math.sqrt(np.finfo(np.float64).max)

    def __init__(self, named: list[tuple[str, Tensor]], lr: float, blank: bool = False):
        """Moments start at zero, or as np.empty arrays with `blank`."""
        self.names = [name for name, _ in named]
        self.params = [t for _, t in named]
        self.lr = lr
        self.step_count = 0
        start = np.empty_like if blank else np.zeros_like
        self.m = [start(p.data) for p in self.params]
        self.v = [start(p.data) for p in self.params]

    def step(self) -> None:
        """One update of every tensor. First, a gradient with a non-finite
        entry, or one past grad_bound, frees every gradient and raises
        NumericError naming its tensor: no weight, moment or count changes."""
        for name, p in zip(self.names, self.params):
            largest = 0.0 if p.grad is None else np.abs(p.grad).max()
            if not largest <= self.grad_bound:  # NaN compares False
                for q in self.params:
                    q.grad = None
                raise NumericError(f"gradient of {name} has max |g| = {largest:.3g}; AdamW's second moment "
                                   f"holds |g| <= {self.grad_bound:.3g}")
        self.step_count += 1
        b1, b2 = self.beta1, self.beta2
        bc1 = 1.0 - b1**self.step_count
        bc2 = 1.0 - b2**self.step_count
        for p, m, v in zip(self.params, self.m, self.v):
            g = p.grad if p.grad is not None else np.zeros_like(p.data)
            p.grad = None
            u = np.multiply(g, 1.0 - b1)
            m *= b1
            m += u  # m = b1 * m + (1 - b1) * g
            np.multiply(g, 1.0 - b2, out=u)
            u *= g
            v *= b2
            v += u  # v = b2 * v + (1 - b2) * g * g
            denom = np.divide(v, bc2)
            np.sqrt(denom, out=denom)
            denom += self.eps
            np.divide(m, bc1, out=u)
            u *= self.lr
            u /= denom  # lr * m_hat / (sqrt(v_hat) + eps)
            p.data = p.data - u


class WeightEma(object):
    """Shadow copy of the weights, updated in place as ema <- d*ema + (1-d)*w, d = decay."""

    decay = 0.999

    def __init__(self, named: list[tuple[str, Tensor]], blank: bool = False):
        """The shadow starts as a copy of the weights, or as np.empty arrays with `blank`."""
        start = np.empty_like if blank else np.copy
        self.shadow = {name: start(t.data) for name, t in named}

    def update(self, params: list[Tensor]) -> None:
        """`params` are the weights in the shadow's order: AdamW's list."""
        d = self.decay
        for shadow, t in zip(self.shadow.values(), params, strict=True):
            shadow *= d
            shadow += (1.0 - d) * t.data


@dataclass
class LogRecord:
    step: int
    diffusion: float
    plr: float
    sim: float
    blc: float
    total: float
    max_vio: float
    comb_usage: float
    mean_active: float

    def csv_row(self) -> str:
        """Every float column as its shortest exact repr, so it parses back equal."""
        return ",".join([str(self.step)] + [repr(float(getattr(self, c))) for c in self.CSV_COLUMNS[1:]])


LogRecord.CSV_COLUMNS = tuple(f.name for f in fields(LogRecord))  # log.csv's header, in field order


@dataclass(frozen=True)
class TrainerConfig:
    """A run's model and training settings. The loss weights scale the
    training objective's regularizers: `w_plr` the per-layer regularization
    loss, `w_sim` the router similarity loss and `w_blc` the balance loss."""

    model: DenoiserConfig = field(default_factory=DenoiserConfig)
    batch_size: int = 32
    lr: float = 1e-4
    w_plr: float = 1e-2
    w_sim: float = 1e-4
    w_blc: float = 0.0
    seed: int = 0

    def __post_init__(self):
        """A bad value DenoiserConfig does not see raises a ConfigError naming its key."""
        if not isinstance(self.model, DenoiserConfig):
            raise ConfigError(f"model must be a DenoiserConfig, got {self.model!r}")
        check_field_types(self)
        for key in ("w_plr", "w_sim", "w_blc"):
            if not 0 <= getattr(self, key) < np.inf:
                raise ConfigError(f"loss weights must be >= 0 and finite, got {key} = {getattr(self, key)}")
        if not 0 < self.lr < np.inf:
            raise ConfigError(f"lr must be > 0 and finite, got {self.lr}")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        if self.batch_size < 1:
            raise ConfigError(f"batch_size must be >= 1, got {self.batch_size}")
        m = self.model
        effective_k(get_strategy(m.strategy), self.batch_size, m.tokens, m.num_experts, m.k)

    def to_dict(self) -> dict:
        """The model's fields, then this config's own: one flat dict."""
        return {**self.model.__dict__, **{f.name: getattr(self, f.name) for f in fields(self) if f.name != "model"}}

    @classmethod
    def from_dict(cls, d: dict) -> TrainerConfig:
        """The inverse of to_dict; a key left out takes its default."""
        own = {f.name for f in fields(cls)}
        model = DenoiserConfig(**{key: value for key, value in d.items() if key not in own})
        return cls(model=model, **{key: value for key, value in d.items() if key in own})


@dataclass
class Evaluation:
    """What one pass over the held-out set reads (Trainer.evaluate)."""

    report: list[dict]  # metrics.routing_report per layer, with allocation by timestep
    diffusion: float  # the mean over the batches of each batch's MSE against batch.y
    excess: float  # the mean over the batches of metrics.excess_loss


class _Undrawn(np.random.Generator):
    """Stands in for init_denoiser's generator when every weight is about to
    be overwritten: each draw is an np.empty array of the asked size."""

    def __init__(self):
        super().__init__(np.random.PCG64(0))

    def uniform(self, low=0.0, high=1.0, size=None):
        return np.empty(size)

    normal = uniform


class Trainer(object):
    def __init__(self, config: TrainerConfig, blank: bool = False):
        """A run at step 0: weights drawn from the config's seed, zero
        optimizer moments and an EMA shadow equal to the weights. With
        `blank`, the weights, moments and shadow are np.empty arrays
        instead, for load_checkpoint to overwrite: nothing is drawn, zeroed
        or copied first. The run's one noise schedule is built here. Sizes
        no schedule, weight or batch array can have raise one ConfigError
        naming them."""
        self.config = config
        self.rng = np.random.default_rng(config.seed)
        m = config.model
        sizes = (f"layers={m.layers}, model_dim={m.model_dim}, tokens={m.tokens}, num_classes={m.num_classes}, "
                 f"num_experts={m.num_experts}, dense_hidden={m.dense_hidden}, total_steps={m.total_steps}, "
                 f"batch_size={config.batch_size} ask")
        with allocating(sizes):
            self.schedule = build_schedule(m.total_steps)
            self.params = init_denoiser(m, _Undrawn() if blank else np.random.default_rng(config.seed))
            self.task = SyntheticTask(
                num_classes=m.num_classes,
                tokens=m.tokens,
                dim=m.model_dim,
                seed=config.seed + 7919,
            )
            # the one walk: from here on AdamW's list is the order of every tensor
            named = self.params.named_tensors()
            self.opt = AdamW(named, lr=config.lr, blank=blank)
            self.ema = WeightEma(named, blank=blank)
            np.empty((config.batch_size, m.tokens, m.model_dim))  # a train batch's (B, L, D), pages untouched

    @property
    def step_count(self) -> int:
        """Steps trained so far: the optimizer's count, the one step counter."""
        return self.opt.step_count

    # ------------------------------------------------------------------

    def loss(self, batch) -> tuple[Tensor, dict[str, float], list]:
        """The training objective on a batch, from a train-mode forward that
        records the tape: the diffusion loss plus the weighted per-layer
        regularizer, router similarity and balance losses (the last two only
        with two or more experts). Returns the total, its float breakdown
        (log.csv's loss columns) and each block's LayerOutput, and writes no
        state. Non-finite router scores or loss raise NumericError, with no
        numpy warning."""
        cfg = self.config
        with np.errstate(over="ignore", invalid="ignore"):
            prediction, layer_outputs = denoiser_forward(batch.x_t, batch.t, batch.c, self.params, mode="train")
            diff = losses_mod.diffusion_loss(prediction, batch.y)
            plr = losses_mod.per_layer_reg_loss([out.y_hat for out in layer_outputs], batch.y)
            sim = blc = None
            if cfg.model.num_experts >= 2:  # one expert: both are constant 1, so left out and logged 0.0
                aux = [aux_inputs_from_routing(out.route.mask, out.logits) for out in layer_outputs]
                sim = losses_mod.layer_mean([losses_mod.router_similarity_loss(M, P) for M, P in aux])
                blc = losses_mod.layer_mean([losses_mod.balance_loss(M, P, cfg.model.k) for M, P in aux])
            total, breakdown = losses_mod.total_loss(diff, plr, sim, blc, cfg.w_plr, cfg.w_sim, cfg.w_blc)
        if not np.isfinite(total.item()):
            raise NumericError(f"non-finite loss: {breakdown}")
        return total, breakdown, layer_outputs

    def train_step(self) -> LogRecord:
        """One AdamW step on self.loss of a fresh batch, then the weight EMA
        and each block's threshold. A NumericError from the loss or from
        AdamW's gradient check is raised prefixed "step n: " (n counts from
        1, as log.csv does), with no numpy warning, and such a step writes no
        state: the RNG goes back to before its batch draw, so a retry trains
        on the batch a resume from a checkpoint would."""
        cfg = self.config
        rng_state = self.rng.bit_generator.state
        batch = self.task.sample_batch(self.rng, cfg.batch_size, self.schedule, cfg.model.parameterization)
        try:
            total, breakdown, layer_outputs = self.loss(batch)
            # a gradient that overflowed is AdamW's NumericError, not a numpy warning
            with np.errstate(over="ignore", invalid="ignore"):
                backward(total)
                self.opt.step()
        except NumericError as exc:
            self.rng.bit_generator.state = rng_state
            raise NumericError(f"step {self.step_count + 1}: {exc}") from exc

        self.ema.update(self.opt.params)
        for blk, out in zip(self.params.blocks, layer_outputs):
            ema_update(blk.moe.threshold, out.route.kth_values)

        report = metrics_mod.routing_report(np.stack([out.route.mask for out in layer_outputs]), cfg.model.k)
        return LogRecord(
            step=self.step_count,
            **breakdown,
            max_vio=metrics_mod.report_mean(report, "max_vio"),
            comb_usage=metrics_mod.report_mean(report, "comb_usage"),
            mean_active=metrics_mod.report_mean(report, "mean_active"),
        )

    # ------------------------------------------------------------------

    def forward(self, batch, mode: str = "train"):
        """Run the denoiser on a batch, writing no state (train mode leaves
        the thresholds alone). Builds no tape: the outputs carry no gradient.
        Non-finite router scores raise NumericError naming the block, with
        no numpy warning before it."""
        with no_grad():
            return denoiser_forward(batch.x_t, batch.t, batch.c, self.params, mode=mode)

    def evaluate(self, mode: str) -> Evaluation:
        """One pass over the held-out set: HELDOUT_BATCHES batches drawn from
        seed + 4242, each routed once by self.forward in `mode`. From that
        pass, the per-layer routing report over all the batches (with their
        timesteps), the diffusion loss and the excess over the Bayes-optimal
        denoiser. Writes no state and draws nothing from self.rng. A
        NumericError, from the forward or a non-finite loss, is raised
        prefixed "held-out batch i: " (i counts from 1), with no numpy
        warning before it."""
        cfg = self.config
        param = cfg.model.parameterization
        rng = np.random.default_rng(cfg.seed + 4242)
        masks, timesteps, diffusion, excess = [], [], [], []
        for i in range(HELDOUT_BATCHES):
            batch = self.task.sample_batch(rng, cfg.batch_size, self.schedule, param)
            try:
                prediction, layer_outputs = self.forward(batch, mode)
                with np.errstate(over="ignore", invalid="ignore"):
                    losses = {
                        "diffusion": losses_mod.diffusion_loss(prediction, batch.y).item(),
                        "excess": metrics_mod.excess_loss(prediction.data, batch, self.task, self.schedule, param),
                    }
                if not np.isfinite(list(losses.values())).all():
                    raise NumericError(f"non-finite loss: {losses}")
            except NumericError as exc:
                raise NumericError(f"held-out batch {i + 1}: {exc}") from exc
            masks.append(np.stack([out.route.mask for out in layer_outputs]))
            timesteps.append(batch.t)
            diffusion.append(losses["diffusion"])
            excess.append(losses["excess"])
        t = np.concatenate(timesteps)
        # (layers, samples, L, E): each layer's masks of every batch, in batch order
        report = metrics_mod.routing_report(np.concatenate(masks, axis=1), cfg.model.k, t, self.schedule.total_steps)
        return Evaluation(report, float(np.mean(diffusion)), float(np.mean(excess)))

    def sample(
        self,
        n: int,
        c: np.ndarray | int,
        rng: np.random.Generator,
    ) -> tuple[np.ndarray, list[dict]]:
        """Ancestral reverse process (diffusion.ancestral_sample) under
        thresholded routing, its noise drawn from `rng` alone: the trainer's
        batch stream (self.rng) is never read, so sampling leaves training
        as it was.

        Returns generated samples (n, L, D) and, per reverse step, the mean
        active experts per token per layer. A sample count n that is not a
        positive integer, a class label that is not an integer in [0,
        num_classes), a label list whose length is neither 1 nor n, or an n
        whose (n, L, D) state numpy cannot allocate raises ConfigError,
        before anything is drawn. The first non-finite router score, noise
        estimate or sample state raises NumericError naming the reverse
        step, with no numpy warning before it. The reverse steps build no
        tape.
        """
        if not is_integer(n) or n < 1:
            raise ConfigError(f"sample count must be a positive integer, got {n!r}")
        cfg = self.config.model
        with allocating(f"sample count n={n} asks"):
            np.empty((n, cfg.tokens, cfg.model_dim))  # the sample state, pages untouched
        labels = integer_array(c, "class label")
        if labels.ndim > 1 or labels.size not in (1, n):
            raise ConfigError(f"{labels.size} class labels for {n} samples; give 1 or {n}")
        c = np.broadcast_to(labels, (n,)).copy()
        bad = c[(c < 0) | (c >= cfg.num_classes)]
        if bad.size:
            raise ConfigError(f"class label {bad[0]} outside [0, {cfg.num_classes})")
        if not all(blk.moe.threshold.initialized for blk in self.params.blocks):
            raise StateError("sampling needs initialized thresholds; run training first")
        allocation_log: list[dict] = []

        # denoiser_forward and _to_eps are read from this module at each
        # call: perfbench's sample workload and the tests patch them here
        def predict_eps(x: np.ndarray, t: int) -> np.ndarray:
            pred, layer_outputs = denoiser_forward(x, np.full(n, t, dtype=np.int64), c, self.params, mode="infer")
            allocation_log.append({
                "t": t,
                "mean_active_per_layer": [float(out.route.mask.sum(axis=-1).mean()) for out in layer_outputs],
            })
            return _to_eps(pred.data, x, t, self.schedule, cfg.parameterization)

        with no_grad():
            x = ancestral_sample(predict_eps, (n, cfg.tokens, cfg.model_dim), self.schedule, rng)
        return x, allocation_log


def _to_eps(pred: np.ndarray, x_t: np.ndarray, t: int, sched: NoiseSchedule, parameterization: str) -> np.ndarray:
    """The noise estimate from the network's prediction; DenoiserConfig checks the parameterization."""
    ab = sched.alpha_bar[t]
    if parameterization == "eps":
        return pred
    if parameterization == "x0":
        return (x_t - np.sqrt(ab) * pred) / np.sqrt(1.0 - ab)
    return np.sqrt(1.0 - ab) * x_t + np.sqrt(ab) * pred  # v


# ----------------------------------------------------------------------
# checkpoints

# The four state groups, each one flat float64 member in AdamW's parameter order.
_GROUPS = ("param", "ema", "opt_m", "opt_v")
_F8 = np.dtype(np.float64)
_U8 = np.dtype(np.uint8)
_META_KEYS = {"version", "step", "config", "thresholds", "rng_state", "tensors"}
_CONFIG_KEYS = tuple(TrainerConfig().to_dict())  # the saved config keys a TrainerConfig is built from


def _state_groups(trainer: Trainer) -> dict[str, list[np.ndarray]]:
    """The arrays the trainer owns, by group, each in AdamW's parameter order."""
    opt = trainer.opt
    return dict(zip(_GROUPS, ([p.data for p in opt.params], list(trainer.ema.shadow.values()), opt.m, opt.v)))


def _is_float(value) -> bool:
    """Whether a JSON value is a number a float holds: not a boolean, and no
    integer beyond the float range."""
    return type(value) is float or type(value) is int and abs(value) <= sys.float_info.max


def _write_member(archive: zipfile.ZipFile, key: str, dtype: np.dtype, length: int, chunks) -> None:
    """Stream one 1-D .npy member: its header, then each chunk's bytes."""
    header = {"descr": np.lib.format.dtype_to_descr(dtype), "fortran_order": False, "shape": (length,)}
    with archive.open(f"{key}.npy", "w", force_zip64=True) as fh:
        np.lib.format.write_array_header_1_0(fh, header)
        for chunk in chunks:
            fh.write(np.ascontiguousarray(chunk, dtype=dtype))


def _process_exists(pid: int) -> bool:
    """Whether a process with this id is running (a zombie counts)."""
    try:
        os.kill(pid, 0)  # signal 0: only asks whether the process exists
    except ProcessLookupError:
        return False
    except PermissionError:  # it exists and belongs to another user
        return True
    return True


@contextmanager
def refusing(what):
    """The OS's refusal of the block's work, an OSError (a full disk, no permission, a missing file, ...),
    raises one ConfigError: `<what>: <reason>`, e.g. `cannot write <path>: No space left on device`."""
    try:
        yield
    except OSError as exc:
        raise ConfigError(f"{what}: {exc.strerror or exc}") from None


@contextmanager
def allocating(what):
    """numpy's refusal of an array size in the block, a ValueError or
    MemoryError, raises one ConfigError: `<what> for arrays numpy cannot
    allocate: <reason>`. A ConfigError (itself a ValueError) passes as it is."""
    try:
        yield
    except ConfigError:
        raise
    except (ValueError, MemoryError) as exc:
        raise ConfigError(f"{what} for arrays numpy cannot allocate: {exc}") from None


def replace_file(path, content) -> None:
    """Write `path` whole or not at all. `content` is the text to write, or
    a function that writes the temp file it is given.

    The temp file `.<name>.<pid>.tmp` is written beside `path` and then
    replaces it in one os.replace, so an interrupted write leaves `path` as
    it was; on any exception the temp file is removed. First, the temp
    files that earlier writes of `path` left behind, whose process is gone
    (killed before its cleanup ran), are removed. A directory that is
    missing or cannot be listed, or an OSError from the write or the
    rename, raises refusing's ConfigError, `cannot write <path>: <reason>`.
    """
    path = Path(path)
    prefix = f".{path.name}."
    tmp = path.with_name(f"{prefix}{os.getpid()}.tmp")
    with refusing(f"cannot write {path}"):
        for stale in list(path.parent.iterdir()):
            if stale.name.startswith(prefix) and stale.name.endswith(".tmp"):
                pid = stale.name[len(prefix):-len(".tmp")]
                # only ASCII digits within pid_t's range can name a process
                if pid.isascii() and pid.isdigit() and 0 < int(pid) < 2**31 and not _process_exists(int(pid)):
                    stale.unlink(missing_ok=True)
        try:
            if isinstance(content, str):
                tmp.write_text(content)
            else:
                content(tmp)
            os.replace(tmp, path)
        except BaseException:
            tmp.unlink(missing_ok=True)
            raise


def remove_file(path) -> None:
    """Remove `path` if it is there; an OSError raises refusing's ConfigError, `cannot write <path>: <reason>`."""
    with refusing(f"cannot write {path}"):
        Path(path).unlink(missing_ok=True)


def save_checkpoint(path, trainer: Trainer) -> None:
    """Single .npz container: weights, EMA shadow, optimizer, thresholds, RNG.

    Five stored (uncompressed) members. `param`, `ema`, `opt_m` and `opt_v`
    each hold one 1-D float64 array: the model's tensors concatenated in
    AdamW's order (`opt.names`, `opt.params`, the one walk Trainer made, so
    a save walks no parameter tree), streamed from the trainer's own arrays
    with no concatenated copy. `meta_json` holds UTF-8 JSON bytes: the step
    count (the optimizer's, which `Trainer.step_count` reads), config,
    thresholds (each block's tau: a number, or null when unset),
    RNG state and the manifest `tensors`, a list of [name, shape] in that
    order.

    Written through replace_file, so an interrupted save leaves any previous
    checkpoint intact, and a missing directory or a failed write is one
    ConfigError naming the path. Like np.savez, appends ".npz" to a path
    without that suffix.
    """
    opt = trainer.opt
    thresholds = [blk.moe.threshold.tau for blk in trainer.params.blocks]
    meta = {
        "version": CHECKPOINT_VERSION,
        "step": trainer.step_count,
        "config": trainer.config.to_dict(),
        "thresholds": thresholds,
        "rng_state": trainer.rng.bit_generator.state,
        "tensors": [[name, list(p.shape)] for name, p in zip(opt.names, opt.params)],
    }
    blob = np.frombuffer(json.dumps(meta).encode("utf-8"), dtype=np.uint8)
    total = sum(p.size for p in opt.params)

    def write(tmp: Path) -> None:
        with zipfile.ZipFile(tmp, "w") as archive:
            for group, arrays in _state_groups(trainer).items():
                _write_member(archive, group, _F8, total, arrays)
            _write_member(archive, "meta_json", _U8, blob.size, [blob])

    path = Path(path)
    replace_file(path if path.suffix == ".npz" else path.with_name(path.name + ".npz"), write)


@contextmanager
def _read_member(archive: zipfile.ZipFile, path, key: str, dtype: np.dtype, arrays: list[np.ndarray] | None = None):
    """Read the 1-D, C-order .npy member `key` of `dtype` values straight
    into `arrays`, whose total size its length must be, or, without them,
    into one new array of its length; yield the arrays.

    Any fault in the member, including one the caller's block meets decoding
    what it yields, raises a one-line ConfigError naming the path and the
    member: a missing or encrypted member, a compression method zipfile
    cannot read, a corrupt compressed stream, a CRC mismatch, a wrong
    header, or data shorter or longer than the header says.
    """
    where = f"checkpoint {path} member {key!r}"
    try:
        info = archive.getinfo(f"{key}.npy")
    except KeyError:
        raise ConfigError(f"checkpoint {path} has no entry {key!r}") from None
    if info.flag_bits & 0x1:
        raise ConfigError(f"{where} is encrypted")
    try:
        with archive.open(info) as fh:
            if np.lib.format.read_magic(fh) != (1, 0):
                raise ConfigError(f"{where} is not a version 1.0 .npy array")
            shape, fortran, found = np.lib.format.read_array_header_1_0(fh)
            if found != dtype:
                raise ConfigError(f"{where} has dtype {found}, the model needs {dtype}")
            if fortran:
                raise ConfigError(f"{where} is in Fortran order, the model needs C order")
            need = "1-D" if arrays is None else (sum(arr.size for arr in arrays),)
            if len(shape) != 1 or arrays is not None and shape != need:
                raise ConfigError(f"{where} has shape {shape}, the model needs {need}")
            nbytes = shape[0] * dtype.itemsize
            if arrays is None:  # allocate no more than the member holds
                arrays = [np.empty(shape, dtype)] if nbytes <= info.file_size else []
            if sum(fh.readinto(arr) for arr in arrays) != nbytes:
                raise ConfigError(f"{where} is truncated")
            if fh.read(1):
                raise ConfigError(f"{where} holds more bytes than its header says")
        yield arrays
    except ConfigError:
        raise
    except (ValueError, EOFError, OSError, zipfile.BadZipFile, zlib.error, lzma.LZMAError, NotImplementedError,
            TokenError) as exc:
        # not .npy, not JSON, a bad CRC, an unknown compression method, a corrupt
        # deflate (zlib.error), bzip2 (OSError) or lzma stream, a .npy header
        # cut short inside a bracket (numpy's parser raises TokenError), ...
        raise ConfigError(f"{where} is unreadable: {exc}") from None


def _check_manifest(path, manifest, opt: AdamW) -> None:
    """The saved [name, shape] list must be the model's, in AdamW's order, entry by entry."""
    if not isinstance(manifest, list) or len(manifest) != len(opt.names):
        raise ConfigError(f"checkpoint {path} metadata 'tensors' does not list the model's {len(opt.names)} tensors")
    for entry, name, t in zip(manifest, opt.names, opt.params):
        try:
            saved_name, saved_shape = entry
            saved_shape = tuple(saved_shape)
        except (TypeError, ValueError):
            raise ConfigError(f"checkpoint {path} manifest entry {entry!r} is not [name, shape]") from None
        if saved_name != name:
            raise ConfigError(f"checkpoint {path} lists tensor {saved_name!r} where the model has {name!r}")
        if saved_shape != t.shape:
            raise ConfigError(f"checkpoint {path} tensor {name!r} has shape {saved_shape}, the model needs {t.shape}")


def _check_moments(path, opt: AdamW) -> None:
    """AdamW's moments must be ones it can step from: every opt_m entry
    finite, every opt_v entry finite and >= 0 (a mean of squares). An inf in
    v would freeze its weight for good, as m_hat / (sqrt(inf) + eps) = 0."""
    for group, moments, rule, holds in (("opt_m", opt.m, "finite", np.isfinite),
                                        ("opt_v", opt.v, "finite and >= 0", lambda v: (v >= 0) & (v < np.inf))):
        bad = [arr.size - np.count_nonzero(holds(arr)) for arr in moments]
        if any(bad):
            first = next(name for name, n in zip(opt.names, bad) if n)
            raise ConfigError(f"checkpoint {path} member {group!r} holds {sum(bad)} entries that are not {rule}, "
                              f"the first in tensor {first!r}")


def load_checkpoint(path, config: TrainerConfig | None = None) -> Trainer:
    """Rebuild a Trainer in the exact state it was saved in.

    Reads the layout save_checkpoint writes, version 6 only; any other
    version raises ConfigError naming both. The checkpoint describes
    itself: a TrainerConfig is built from the saved keys it has. The saved
    config must equal `config`, or without one that built config, key for
    key, or a ConfigError names each key that differs, one the other side
    lacks included. The manifest must match the
    model's tensors, names and shapes, and each state group must be a 1-D
    C-order float64 member of exactly their total size; its bytes are read
    straight into the arrays of a blank Trainer (np.empty, never drawn,
    zeroed or copied), so every state array owns its memory. Members may
    be stored or compressed (np.savez_compressed loads bit-equal).

    Each of these raises a one-line ConfigError naming the path (and the
    member or field): a file that cannot be opened or that is not an .npz
    archive; a missing or encrypted member; a member in a compression
    method zipfile cannot read, with a corrupt compressed stream or a CRC
    mismatch; a member that is not a version 1.0 .npy array, of another
    dtype, in Fortran order, not 1-D (`meta_json` too), of the wrong
    length, or with fewer or more data bytes than its header says;
    metadata that is not a UTF-8 JSON object; a missing metadata field, or
    one of the wrong JSON type or value; a saved config value that
    TrainerConfig refuses; optimizer moments AdamW cannot step from (an
    `opt_m` entry that is not finite, an `opt_v` entry that is not finite
    and >= 0), named by their count and the first tensor that holds one.
    """
    try:
        with refusing(f"cannot read checkpoint {path}"):
            archive = zipfile.ZipFile(path)
    except zipfile.BadZipFile:  # text, empty or truncated files, a lone .npy array
        raise ConfigError(f"checkpoint {path} is not an .npz archive") from None
    with archive:
        with _read_member(archive, path, "meta_json", _U8) as (blob,):
            meta = json.loads(blob.tobytes().decode("utf-8"))
        if not isinstance(meta, dict):
            raise ConfigError(f"checkpoint {path} member 'meta_json' is not a JSON object")
        if "version" in meta and meta["version"] != CHECKPOINT_VERSION:
            raise ConfigError(
                f"checkpoint {path} has version {meta['version']!r}; this moelab reads version {CHECKPOINT_VERSION}"
            )
        missing = sorted(_META_KEYS - set(meta))
        if missing:
            raise ConfigError(f"checkpoint {path} metadata has no {missing}")
        saved = meta["config"]
        if not isinstance(saved, dict):
            raise ConfigError(f"checkpoint {path} metadata 'config' is not a JSON object")
        try:
            built = TrainerConfig.from_dict({key: saved[key] for key in _CONFIG_KEYS if key in saved})
        except ConfigError as exc:
            raise ConfigError(f"checkpoint {path} metadata 'config': {exc}") from None
        config = built if config is None else config
        current = config.to_dict()
        if saved != current:
            diff = {
                key: (saved.get(key), current.get(key))
                for key in sorted(set(saved) | set(current))
                if saved.get(key) != current.get(key)
            }
            raise ConfigError(f"checkpoint {path} config mismatch (saved vs requested): {diff}")

        try:
            trainer = Trainer(config, blank=True)
        except ConfigError as exc:  # a size no array can have
            raise ConfigError(f"checkpoint {path}: {exc}") from None
        _check_manifest(path, meta["tensors"], trainer.opt)
        for group, arrays in _state_groups(trainer).items():
            with _read_member(archive, path, group, _F8, arrays):
                pass  # read straight into the trainer's arrays
        _check_moments(path, trainer.opt)
        if type(meta["step"]) is not int or meta["step"] < 0:  # JSON true is no step count
            raise ConfigError(f"checkpoint {path} metadata 'step' is {meta['step']!r}, not a step count")
        trainer.opt.step_count = meta["step"]
        blocks, thresholds = trainer.params.blocks, meta["thresholds"]
        if not isinstance(thresholds, list) or len(thresholds) != len(blocks):
            raise ConfigError(f"checkpoint {path} metadata 'thresholds' is not a list of {len(blocks)} threshold entries")
        for i, (blk, tau) in enumerate(zip(blocks, thresholds)):
            if not (tau is None or _is_float(tau) and math.isfinite(tau)):
                raise ConfigError(f"checkpoint {path} block {i} threshold 'tau': {tau!r} is not a finite number or null")
            blk.moe.threshold.tau = None if tau is None else float(tau)
        try:
            trainer.rng.bit_generator.state = meta["rng_state"]
        except (KeyError, TypeError, ValueError, OverflowError):
            raise ConfigError(f"checkpoint {path} metadata 'rng_state' is not a PCG64 generator state") from None
    return trainer
