"""The benchmark's tracer patches moelab names from outside the package
(perfbench/tracing.py). Installing and removing it here makes a deleted or
renamed name fail the tests, not only the traced benchmark run."""

import importlib.util
from pathlib import Path

from moelab import cli
from moelab.denoiser import DenoiserConfig
from moelab.training import Trainer, TrainerConfig

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_perfbench_tracer_installs_records_spans_and_undoes():
    tracing = load_tracing()
    model = DenoiserConfig(layers=1, model_dim=8, tokens=4, num_classes=2, num_experts=4, k=2,
                           dense_hidden=16, total_steps=5)
    trainer = Trainer(TrainerConfig(model=model, batch_size=4, seed=1))
    tracer = tracing.Tracer()
    patches = tracing.instrument(tracer)
    # every (owner, attr) the tracer replaced, with the value it found there first
    originals = {}
    for owner, attr, old in patches._saved:
        originals.setdefault((owner, attr), old)
    try:
        assert all(getattr(owner, attr) is not old for (owner, attr), old in originals.items())
        trainer.train_step()
    finally:
        patches.undo()
    assert all(getattr(owner, attr) is old for (owner, attr), old in originals.items())
    names = {span[0] for span in tracer.spans}
    assert {"training.train_step", "denoiser.forward", "layer.moe_forward", "layer.router", "layer.experts",
            "routing.route", "routing.topk_mask.expert-race", "losses.aux", "training.optimizer",
            "training.ema"} <= names
    assert tracer.counts["matmul_calls"] > 0
    assert tracer.counts["expert_rows"] == 1 * 4 * 4 * 2  # layers x B x L x k: one row per selected pair
    # one selection per layer per step: route reads its K-th values from that same partition
    assert [span[0] for span in tracer.spans if span[0].startswith("routing.topk_mask.")] == [
        "routing.topk_mask.expert-race"]


def test_a_traced_route_sim_after_an_untraced_one_records_its_spans(tmp_path):
    # the parser, built by the first call, must not bind the command it runs:
    # the second call runs the tracer's cmd_route_sim, and the selections it
    # makes are spans under it
    tracing = load_tracing()
    args = ["route-sim", "--out", str(tmp_path), "--draws", "2", "--batch-size", "4", "--tokens", "4",
            "--experts", "4", "--k", "2"]
    assert cli.main(args) == 0
    tracer = tracing.Tracer()
    patches = tracing.instrument(tracer)
    try:
        assert cli.main(args) == 0
    finally:
        patches.undo()
    names = [span[0] for span in tracer.spans]
    assert names[0] == "cli.main" and "cli.cmd_route_sim" in names
    table = tracing.span_table(tracer.spans, 0, len(tracer.spans))
    assert table["routing.topk_mask.expert-race"]["by_parent_s"]["cli.cmd_route_sim"] > 0
