"""Training loop machinery: AdamW steps, weight EMA, checkpoints.

One Trainer owns the parameters, optimizer state, EMA shadow, threshold
states and RNG; everything it touches round-trips through the checkpoint
container so a resumed run replays the original trajectory bit for bit.
`Trainer.loss` builds the training objective: `train_step` minimizes it and
the finite-difference gradient tests differentiate it.
The container (version 4) is an .npz archive with one flat float64 member
per state group (`param`, `ema`, `opt_m`, `opt_v`) plus `meta_json`, whose
manifest lists each tensor's name and shape; tensors are streamed into
and out of the trainer's own arrays, one .npy header per group.

The optimizer moments and the EMA shadow are arrays the trainer owns and
updates in place. Parameters are rebound to a new array each step
(`p.data = p.data - u`), never written in place: graph nodes and callers may
still hold the previous step's array. Sampling and `Trainer.forward` run
under `tensor.no_grad()` and build no tape.
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
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import losses as losses_mod
from . import metrics as metrics_mod
from .denoiser import DenoiserConfig, class_labels, denoiser_forward, init_denoiser
from .diffusion import NoiseSchedule, SyntheticTask, ancestral_sample, build_schedule
from .losses import LossWeights, aux_inputs_from_routing
from .routing import ConfigError, NumericError, StateError, effective_k, ema_update
from .tensor import Tensor, backward, no_grad

__all__ = [
    "NumericError",
    "AdamW",
    "WeightEma",
    "LogRecord",
    "TrainerConfig",
    "Trainer",
    "save_checkpoint",
    "load_checkpoint",
]

CHECKPOINT_VERSION = 4


class AdamW(object):
    """AdamW with zero weight decay (constant learning rate) and the usual
    betas (0.9, 0.999) and eps 1e-8.

    `m` and `v` are updated in place, with the same IEEE operations in the
    same order as the textbook formulas; `p.grad` is only read and each
    parameter is rebound to a new array.
    """

    beta1, beta2, eps = 0.9, 0.999, 1e-8

    def __init__(self, params: list[Tensor], lr: float, blank: bool = False):
        """Moments start at zero, or as np.empty arrays with `blank`."""
        self.params = params
        self.lr = lr
        self.step_count = 0
        start = np.empty_like if blank else np.zeros_like
        self.m = [start(p.data) for p in params]
        self.v = [start(p.data) for p in params]

    def step(self) -> None:
        self.step_count += 1
        b1, b2 = self.beta1, self.beta2
        bc1 = 1.0 - b1**self.step_count
        bc2 = 1.0 - b2**self.step_count
        for p, m, v in zip(self.params, self.m, self.v):
            g = p.grad if p.grad is not None else np.zeros_like(p.data)
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

    CSV_COLUMNS = ("step", "diffusion", "plr", "sim", "blc", "total", "max_vio", "comb_usage", "mean_active")

    def csv_row(self) -> str:
        """Every float column as its shortest exact repr, so it parses back equal."""
        return ",".join([str(self.step)] + [repr(float(getattr(self, c))) for c in self.CSV_COLUMNS[1:]])


@dataclass(frozen=True)
class TrainerConfig:
    model: DenoiserConfig = field(default_factory=DenoiserConfig)
    batch_size: int = 32
    lr: float = 1e-4
    weights: LossWeights = field(default_factory=LossWeights)
    seed: int = 0

    def __post_init__(self):
        """A bad value DenoiserConfig does not see raises a ConfigError naming its key."""
        if not 0 < self.lr < np.inf:
            raise ConfigError(f"lr must be > 0 and finite, got {self.lr}")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        if self.batch_size < 1:
            raise ConfigError(f"batch_size must be >= 1, got {self.batch_size}")
        m = self.model
        effective_k(m.routing_strategy(), self.batch_size, m.tokens, m.num_experts, m.k)

    def to_dict(self) -> dict:
        d = dict(self.model.__dict__)
        d.update(
            batch_size=self.batch_size,
            lr=self.lr,
            w_plr=self.weights.plr,
            w_sim=self.weights.sim,
            w_blc=self.weights.blc,
            seed=self.seed,
        )
        return d

    @classmethod
    def from_dict(cls, d: dict) -> TrainerConfig:
        """The inverse of to_dict; `dense` may be left out."""
        d = dict(d)
        weights = LossWeights(plr=d.pop("w_plr"), sim=d.pop("w_sim"), blc=d.pop("w_blc"))
        own = {key: d.pop(key) for key in ("batch_size", "lr", "seed")}
        return cls(model=DenoiserConfig(**d), weights=weights, **own)


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
        or copied first."""
        self.config = config
        self.rng = np.random.default_rng(config.seed)
        self.params = init_denoiser(config.model, _Undrawn() if blank else np.random.default_rng(config.seed))
        self.schedule = build_schedule(config.model.total_steps)
        self.task = SyntheticTask(
            num_classes=config.model.num_classes,
            tokens=config.model.tokens,
            dim=config.model.model_dim,
            seed=config.seed + 7919,
        )
        # the one walk: from here on AdamW's list is the order of every tensor
        named = self.params.named_tensors()
        self.opt = AdamW([t for _, t in named], lr=config.lr, blank=blank)
        self.ema = WeightEma(named, blank=blank)

    @property
    def step_count(self) -> int:
        """Steps trained so far: the optimizer's count, the one step counter."""
        return self.opt.step_count

    # ------------------------------------------------------------------

    def loss(self, batch) -> tuple[Tensor, dict[str, float], list]:
        """The training objective on a batch, from a train-mode forward that
        records the tape: the diffusion loss plus the weighted per-layer
        regularizer, router similarity and balance losses (the last two need
        two or more experts). Returns the total, its float breakdown (log.csv's
        loss columns) and each block's LayerOutput, and writes no state.
        Non-finite router scores or loss raise NumericError, with no numpy
        warning."""
        cfg = self.config
        with np.errstate(over="ignore", invalid="ignore"):
            prediction, layer_outputs = denoiser_forward(batch.x_t, batch.t, batch.c, self.params, mode="train")
            diff = losses_mod.diffusion_loss(prediction, batch.y)
            plr = sim = blc = None
            if layer_outputs:
                plr = losses_mod.per_layer_reg_loss([out.y_hat for out in layer_outputs], batch.y)
                if cfg.model.num_experts >= 2:  # pairwise losses are undefined for a single expert
                    aux = [aux_inputs_from_routing(out.route.mask, out.logits, cfg.model.k) for out in layer_outputs]
                    sim = losses_mod.layer_mean([losses_mod.router_similarity_loss(a) for a in aux])
                    blc = losses_mod.layer_mean([losses_mod.balance_loss(a) for a in aux])
            total, breakdown = losses_mod.total_loss(diff, plr, sim, blc, cfg.weights)
        if not np.isfinite(total.item()):
            raise NumericError(f"non-finite loss: {breakdown}")
        return total, breakdown, layer_outputs

    def train_step(self) -> LogRecord:
        """One AdamW step on self.loss of a fresh batch, then the weight EMA
        and each block's threshold. A NumericError from the loss is raised
        prefixed "step n: " (n counts from 1, as log.csv does), and such a
        step writes no state: the RNG goes back to before its batch draw, so
        a retry trains on the batch a resume from a checkpoint would."""
        cfg = self.config
        rng_state = self.rng.bit_generator.state
        batch = self.task.sample_batch(self.rng, cfg.batch_size, self.schedule, cfg.model.parameterization)
        try:
            total, breakdown, layer_outputs = self.loss(batch)
        except NumericError as exc:
            self.rng.bit_generator.state = rng_state
            raise NumericError(f"step {self.step_count + 1}: {exc}") from exc

        backward(total, self.opt.params)
        self.opt.step()
        for p in self.opt.params:  # applied: free the gradients until the next step
            p.grad = None
        self.ema.update(self.opt.params)
        for blk, out in zip(self.params.blocks, layer_outputs):  # none when dense
            ema_update(blk.moe.threshold, out.route.kth_values)

        report = metrics_mod.routing_report([out.route.mask for out in layer_outputs], cfg.model.k)
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

    def sample(
        self,
        n: int,
        c: np.ndarray | int,
        rng: np.random.Generator | None = None,
    ) -> tuple[np.ndarray, list[dict]]:
        """Ancestral reverse process (diffusion.ancestral_sample) under
        thresholded routing.

        Returns generated samples (n, L, D) and, per reverse step, the mean
        active experts per token per layer. A sample count n that is not a
        positive integer, a class label that is not an integer in [0,
        num_classes), or a label list whose length is neither 1 nor n,
        raises ConfigError. The first non-finite router score, noise
        estimate or sample state raises NumericError naming the reverse
        step, with no numpy warning before it. The reverse steps build no
        tape.
        """
        if isinstance(n, bool) or not isinstance(n, (int, np.integer)) or n < 1:
            raise ConfigError(f"sample count must be a positive integer, got {n!r}")
        cfg = self.config.model
        labels = class_labels(c)
        if labels.ndim > 1 or labels.size not in (1, n):
            raise ConfigError(f"{labels.size} class labels for {n} samples; give 1 or {n}")
        c = np.broadcast_to(labels, (n,)).copy()
        bad = c[(c < 0) | (c >= cfg.num_classes)]
        if bad.size:
            raise ConfigError(f"class label {bad[0]} outside [0, {cfg.num_classes})")
        if not cfg.dense and not all(blk.moe.threshold.initialized for blk in self.params.blocks):
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
            x = ancestral_sample(predict_eps, (n, cfg.tokens, cfg.model_dim), self.schedule,
                                 rng if rng is not None else self.rng)
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


def save_checkpoint(path, trainer: Trainer) -> None:
    """Single .npz container: weights, EMA shadow, optimizer, thresholds, RNG.

    Five stored (uncompressed) members. `param`, `ema`, `opt_m` and `opt_v`
    each hold one 1-D float64 array: the model's tensors concatenated in
    named_tensors() order, streamed from the trainer's own arrays with no
    concatenated copy. `meta_json` holds UTF-8 JSON bytes: the step count
    (the optimizer's, which `Trainer.step_count` reads), config, thresholds
    (each block's tau: a number, or null when unset or for a dense block),
    RNG state and the manifest `tensors`, a list of [name, shape] in that
    order.

    Written atomically: the archive goes to a temp file in the target
    directory, which then replaces `path`, so an interrupted save leaves any
    previous checkpoint intact. The temp files of earlier saves to `path`
    whose process is gone (killed before its cleanup ran) are removed. Like
    np.savez, appends ".npz" to a path without that suffix. A directory that
    is missing or cannot be listed raises a one-line ConfigError naming the
    path, before any file is written.
    """
    named = trainer.params.named_tensors()
    thresholds = [blk.moe.threshold.tau if blk.moe is not None else None for blk in trainer.params.blocks]
    meta = {
        "version": CHECKPOINT_VERSION,
        "step": trainer.step_count,
        "config": trainer.config.to_dict(),
        "thresholds": thresholds,
        "rng_state": trainer.rng.bit_generator.state,
        "tensors": [[name, list(t.shape)] for name, t in named],
    }
    blob = np.frombuffer(json.dumps(meta).encode("utf-8"), dtype=np.uint8)
    total = sum(t.size for _, t in named)

    path = Path(path)
    if path.suffix != ".npz":
        path = path.with_name(path.name + ".npz")
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    prefix = f".{path.name}."
    try:
        entries = list(path.parent.iterdir())
    except OSError as exc:  # no such directory, or not one
        raise ConfigError(f"cannot write checkpoint {path}: {exc.strerror or exc}") from None
    for stale in entries:
        if stale.name.startswith(prefix) and stale.name.endswith(".tmp"):
            pid = stale.name[len(prefix):-len(".tmp")]
            if pid.isdigit() and int(pid) > 0 and not _process_exists(int(pid)):
                stale.unlink(missing_ok=True)
    try:
        with zipfile.ZipFile(tmp, "w") as archive:
            for group, arrays in _state_groups(trainer).items():
                _write_member(archive, group, _F8, total, arrays)
            _write_member(archive, "meta_json", _U8, blob.size, [blob])
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


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
    except (ValueError, EOFError, OSError, zipfile.BadZipFile, zlib.error, lzma.LZMAError, NotImplementedError) as exc:
        # not .npy, not JSON, a bad CRC, an unknown compression method, a corrupt
        # deflate (zlib.error), bzip2 (OSError) or lzma stream, ...
        raise ConfigError(f"{where} is unreadable: {exc}") from None


def _check_manifest(path, manifest, named: list[tuple[str, Tensor]]) -> None:
    """The saved [name, shape] list must be the model's, entry by entry."""
    if not isinstance(manifest, list) or len(manifest) != len(named):
        raise ConfigError(f"checkpoint {path} metadata 'tensors' does not list the model's {len(named)} tensors")
    for entry, (name, t) in zip(manifest, named):
        try:
            saved_name, saved_shape = entry
            saved_shape = tuple(saved_shape)
        except (TypeError, ValueError):
            raise ConfigError(f"checkpoint {path} manifest entry {entry!r} is not [name, shape]") from None
        if saved_name != name:
            raise ConfigError(f"checkpoint {path} lists tensor {saved_name!r} where the model has {name!r}")
        if saved_shape != t.shape:
            raise ConfigError(f"checkpoint {path} tensor {name!r} has shape {saved_shape}, the model needs {t.shape}")


def load_checkpoint(path, config: TrainerConfig) -> Trainer:
    """Rebuild a Trainer in the exact state it was saved in.

    Reads the layout save_checkpoint writes, version 4 only; any other
    version raises ConfigError naming both. The saved config must equal
    `config` key for key, or a ConfigError names each key that differs,
    one the other side lacks included. The manifest must match the
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
    one of the wrong JSON type or value.
    """
    try:
        archive = zipfile.ZipFile(path)
    except OSError as exc:
        raise ConfigError(f"cannot read checkpoint {path}: {exc.strerror or exc}") from None
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
        saved, current = meta["config"], config.to_dict()
        if not isinstance(saved, dict):
            raise ConfigError(f"checkpoint {path} metadata 'config' is not a JSON object")
        if saved != current:
            diff = {
                key: (saved.get(key), current.get(key))
                for key in sorted(set(saved) | set(current))
                if saved.get(key) != current.get(key)
            }
            raise ConfigError(f"checkpoint {path} config mismatch (saved vs requested): {diff}")

        trainer = Trainer(config, blank=True)
        named = trainer.params.named_tensors()
        _check_manifest(path, meta["tensors"], named)
        for group, arrays in _state_groups(trainer).items():
            with _read_member(archive, path, group, _F8, arrays):
                pass  # read straight into the trainer's arrays
        if type(meta["step"]) is not int or meta["step"] < 0:  # JSON true is no step count
            raise ConfigError(f"checkpoint {path} metadata 'step' is {meta['step']!r}, not a step count")
        trainer.opt.step_count = meta["step"]
        blocks, thresholds = trainer.params.blocks, meta["thresholds"]
        if not isinstance(thresholds, list) or len(thresholds) != len(blocks):
            raise ConfigError(f"checkpoint {path} metadata 'thresholds' is not a list of {len(blocks)} threshold entries")
        for i, (blk, tau) in enumerate(zip(blocks, thresholds)):
            if not (tau is None or _is_float(tau) and math.isfinite(tau)):
                raise ConfigError(f"checkpoint {path} block {i} threshold 'tau': {tau!r} is not a finite number or null")
            if blk.moe is not None:
                blk.moe.threshold.tau = None if tau is None else float(tau)
        try:
            trainer.rng.bit_generator.state = meta["rng_state"]
        except (KeyError, TypeError, ValueError, OverflowError):
            raise ConfigError(f"checkpoint {path} metadata 'rng_state' is not a PCG64 generator state") from None
    return trainer
