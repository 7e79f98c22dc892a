"""Span tracer for the traced benchmark run.

Wraps moelab's public functions by module or class attribute, from outside
the package: nothing under src/ changes. Each wrapped call records a span
[name, start, end, parent index, step id] in memory; counters are bumped at
the same boundaries. Self time is a span's duration minus its child spans
(calls nest on one thread, so children never overlap).
"""

from __future__ import annotations

import json
import re
from collections import Counter, defaultdict
from time import perf_counter

STRATEGY_NAMES = ("token-choice", "expert-choice", "bl-choice", "be-choice", "le-choice", "expert-race")


class Patches:
    """Attribute replacements, undone in reverse order."""

    def __init__(self):
        self._saved = []

    def set(self, owner, attr, value):
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def undo(self):
        while self._saved:
            owner, attr, old = self._saved.pop()
            setattr(owner, attr, old)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.step = -1  # workload step id stamped on each span; -1 during setup
        self.counts: Counter = Counter()
        self.strategy = "?"  # set by reshape_scores; names the next topk_mask span

    def wrap(self, name, fn, on_return=None):
        """`name` is a string, or a zero-argument callable read at call time."""
        spans, stack = self.spans, self.stack

        def traced(*args, **kwargs):
            span = [name() if callable(name) else name, perf_counter(), 0.0,
                    stack[-1] if stack else -1, self.step]
            stack.append(len(spans))
            spans.append(span)
            try:
                out = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()
            if on_return is not None:
                on_return(args, out)
            return out

        return traced

    def counting(self, key, fn):
        counts = self.counts

        def counted(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return counted

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def instrument(tracer: Tracer) -> Patches:
    """Install the tracer's wrappers on moelab; undo() removes them."""
    from moelab import cli, denoiser, diffusion, layer, losses, metrics, routing, tensor, training

    patches = Patches()
    counts = tracer.counts

    def span(owner, attr, name, on_return=None):
        patches.set(owner, attr, tracer.wrap(name, getattr(owner, attr), on_return))

    def on_expert(args, out):
        expert, x = args[0], args[1]
        rows = x.data.size // x.shape[-1]
        counts["expert_rows"] += rows
        counts["expert_flop"] += 2 * rows * (expert.w_in.data.size + expert.w_out.data.size)

    def on_route(args, result):
        selected = int(result.mask.sum())
        counts["selected"] += selected
        if result.kth_values is None:  # threshold (infer) routing
            counts["infer_tokens"] += result.mask.size // result.mask.shape[-1]
            counts["infer_active"] += selected

    def on_reshape(args, out):
        tracer.strategy = args[1].name

    # each module that imported `matmul` by name calls it through its own global
    for mod in (tensor, layer, denoiser):
        patches.set(mod, "matmul", tracer.counting("matmul_calls", mod.matmul))
    span(training, "backward", "tensor.backward")
    span(training, "denoiser_forward", "denoiser.forward")
    span(layer, "moe_forward", "layer.moe_forward")
    span(layer, "expert_forward", "layer.experts", on_expert)
    span(layer.MoeLayerParams, "gating_logits", "layer.router")
    span(layer.MoeLayerParams, "target_prediction", "layer.router")
    span(routing, "route", "routing.route", on_route)
    span(routing, "reshape_scores", "routing.reshape_scatter", on_reshape)
    span(routing, "scatter_mask", "routing.reshape_scatter")
    span(routing, "topk_mask", lambda: "routing.topk_mask." + tracer.strategy)
    span(training, "aux_inputs_from_routing", "losses.aux")
    for attr in ("router_similarity_loss", "balance_loss", "per_layer_reg_loss"):
        span(losses, attr, "losses.aux")
    span(diffusion.SyntheticTask, "sample_batch", "diffusion.sample_batch")
    for attr in ("routing_objective", "max_violation", "combination_usage"):
        span(metrics, attr, "metrics")
    span(training.AdamW, "step", "training.optimizer")
    span(training.WeightEma, "update", "training.ema")
    span(training.Trainer, "train_step", "training.train_step")
    span(training.Trainer, "sample", "training.sample")
    span(training, "save_checkpoint", "training.save_checkpoint")
    span(training, "load_checkpoint", "training.load_checkpoint")
    span(cli, "main", "cli.main")
    span(cli, "cmd_route_sim", "cli.cmd_route_sim")
    return patches


def tensors_created() -> int:
    """Tensors built so far, read from the tape's creation counter without advancing it."""
    from moelab.tensor import Tensor

    return int(re.fullmatch(r"count\((\d+)\)", repr(Tensor._order_counter)).group(1))


def span_table(spans: list[list], start: int, stop: int) -> dict[str, dict]:
    """Per span name over spans[start:stop]: calls, inclusive and self seconds,
    and inclusive seconds keyed by the direct parent's name."""
    child = defaultdict(float)
    for _, t0, t1, parent, _ in spans[start:stop]:
        child[parent] += t1 - t0
    table: dict[str, dict] = {}
    for i in range(start, stop):
        name, t0, t1, parent, _ = spans[i]
        row = table.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0, "by_parent_s": Counter()})
        row["calls"] += 1
        row["total_s"] += t1 - t0
        row["self_s"] += t1 - t0 - child[i]
        row["by_parent_s"][spans[parent][0] if parent >= 0 else ""] += t1 - t0
    return table


def layer_metrics(table: dict, counts: Counter, steps: int, tensors: int) -> dict[str, float]:
    """Per-layer metrics from the traced blocks' span table and counts; times
    and counts are per workload step."""

    def ms(*names, key="total_s"):
        return 1000.0 * sum(table[n][key] for n in names if n in table) / steps

    def ms_under(name, parent):
        return 1000.0 * table[name]["by_parent_s"][parent] / steps if name in table else 0.0

    rows = counts["expert_rows"]
    return {
        "tensor.backward_ms": ms("tensor.backward"),
        "tensor.matmul_calls": counts["matmul_calls"] / steps,
        "tensor.tape_nodes": tensors / steps,
        "denoiser.forward_ms": ms("denoiser.forward"),
        "denoiser.self_ms": ms("denoiser.forward", key="self_s"),
        "layer.moe_forward_ms": ms("layer.moe_forward"),
        "layer.router_ms": ms("layer.router"),
        "layer.experts_ms": ms("layer.experts"),
        "layer.expert_rows": rows / steps,
        "layer.expert_useful_frac": counts["selected"] / rows if rows else 0.0,
        "layer.expert_mflop": counts["expert_flop"] / 1e6 / steps,
        "routing.route_ms": ms("routing.route"),
        "routing.infer_active_per_token": (
            counts["infer_active"] / counts["infer_tokens"] if counts["infer_tokens"] else 0.0
        ),
        **{f"routing.topk_mask_ms.{s}": ms(f"routing.topk_mask.{s}") for s in STRATEGY_NAMES},
        "routing.reshape_scatter_ms": ms("routing.reshape_scatter"),
        "losses.aux_ms": ms("losses.aux"),
        "diffusion.sample_batch_ms": ms("diffusion.sample_batch"),
        "metrics.train_ms": ms_under("metrics", "training.train_step"),
        "metrics.route_sim_ms": ms_under("metrics", "cli.cmd_route_sim"),
        "training.optimizer_ms": ms("training.optimizer"),
        "training.ema_ms": ms("training.ema"),
        "training.sampler_self_ms": ms("training.sample", key="self_s"),
        "cli.route_sim_self_ms": ms("cli.main", "cli.cmd_route_sim", key="self_s"),
    }


def per_call_ms(table: dict, name: str) -> float:
    row = table.get(name)
    return 1000.0 * row["total_s"] / row["calls"] if row else 0.0


def self_time_report(table: dict, steps: int) -> dict[str, dict[str, float]]:
    """Self ms and calls per step for every span name."""
    return {
        name: {"self_ms": 1000.0 * row["self_s"] / steps, "calls": row["calls"] / steps}
        for name, row in sorted(table.items())
    }
