"""The dense twin's plain FFN, kept with the tests as criterion 9's oracle.

The library has one block type: the dense twin is the 1-in-1 MoE with
softmax gating and no per-layer regularization loss (experts=1, k=1,
gating=softmax, w_plr=0). While `plain_ffn_blocks` is open, each block's
output is instead its bank of one run as a plain FFN on every row: no
gather, no gate and no scatter. The route, target prediction and logits
stay the routed layer's, so the thresholds and the step log still come
from the router. A routed twin that trains bit for bit like this is the
dense FFN model.
"""

from contextlib import contextmanager

from moelab import layer


def plain_ffn(bank, x):
    """A bank of one as a dense FFN on (B, L, D) input: its one expert takes every row."""
    B, L, D = x.shape
    return layer.expert_forward(bank, x.reshape(B * L, D), [0, B * L]).reshape(B, L, D)


@contextmanager
def plain_ffn_blocks():
    """Replace layer.moe_forward, which the denoiser reads at each call, until the block exits."""
    routed = layer.moe_forward

    def plain(x, params, *args):
        out = routed(x, params, *args)
        assert params.experts.w_in.shape[0] == 1, "the plain FFN is a bank of one"
        out.y = plain_ffn(params.experts, x)
        return out

    layer.moe_forward = plain
    try:
        yield
    finally:
        layer.moe_forward = routed
