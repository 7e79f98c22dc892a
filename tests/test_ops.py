"""The op table: one row per differentiable op and input case, and one body that checks
every row on one gradient-needing Tensor per array, with the loss sum(out * probe) and
numpy warnings raised as errors: 0. the output and every gradient are float64, as the
tensor core promises; 1. backward matches finite_difference_grad (h = 1e-5)
at rel <= 1e-6; 2. a no_grad forward is byte-equal to the taped one and has no node;
3. backward consumed the output's node, so a second sweep through it raises; 4. a
repeat is byte-equal; and where a row names a numpy reference, the forward is
byte-equal to it. A row that names `operands` passes the op those of its arrays, so
one array can be both operands. test_every_op_has_a_row fails until a new op has a row."""

import inspect
import typing
from collections import namedtuple

import numpy as np
import pytest
from scipy.special import erf

from moelab import tensor
from moelab.tensor import ContractError, Tensor, backward, finite_difference_grad, no_grad

_rng = np.random.default_rng(26)


def arr(*shape, scale=1.0):
    return _rng.normal(scale=scale, size=shape)


def strided(*shape):  # a non-C-contiguous input: the transpose of a C-ordered array
    return arr(*reversed(shape)).T


def big(*shape, scale=1.0):
    """Inputs up to |x| = 1e3, the others near 0: a central difference resolves a gradient
    only to about 1e-16 |loss| / h, below the slope of gelu, sigmoid or softmax at |x| = 20."""
    x = arr(*shape, scale=scale)
    x.flat[:5] = [-1e3, 1e3, -40.0, 40.0, 0.0]
    return x


Row = namedtuple("Row", "case op arrays args ref operands", defaults=((), None, None))


ROWS = [
    Row("broadcast-strided", Tensor.__add__, (strided(2, 3, 4), arr(3, 1)), ref=np.add),
    Row("broadcast", Tensor.__sub__, (arr(4), arr(2, 3, 4)), ref=np.subtract),
    Row("broadcast", Tensor.__mul__, (arr(2, 1, 4), arr(3, 1)), ref=np.multiply),
    Row("strided", Tensor.__matmul__, (arr(3, 4), strided(4, 2)), ref=np.matmul),
    Row("batched", tensor.matmul, (strided(2, 3, 4), arr(4, 5)), ref=np.matmul),
    # x * x: one node that both operands of one op reach, so its gradient is added twice
    Row("square-1e3", Tensor.__mul__, (big(3, 4, scale=300.0),), ref=np.square, operands=(0, 0)),
    Row("all", Tensor.sum, (arr(3, 2),)),
    Row("axis", Tensor.sum, (arr(3, 4),), (-1,)),
    Row("axes", Tensor.sum, (strided(2, 3, 4),), ((0, 2),)),
    Row("all", Tensor.mean, (strided(2, 3),)),
    Row("axis", Tensor.mean, (arr(3, 4),), (0,)),
    Row("strided", Tensor.reshape, (strided(2, 3, 4),), (4, 6), ref=lambda x: x.reshape(4, 6)),
    Row("perm", Tensor.transpose, (arr(2, 3, 4),), (2, 0, 1), ref=lambda x: x.transpose(2, 0, 1)),
    Row("reverse", Tensor.transpose, (arr(2, 3),), ref=np.transpose),
    Row("1e3", tensor.gelu, (big(4, 5),), ref=lambda x: x * (0.5 * (1.0 + erf(x * (1.0 / np.sqrt(2.0)))))),
    Row("1e3", tensor.sigmoid, (big(4, 5),)),
    Row("1e3", tensor.softmax, (big(3, 6),)),
    Row("axis0-strided", tensor.softmax, (strided(4, 3) * 3.0,), (0,)),
    Row("duplicates", tensor.take_rows, (strided(5, 3),), ([[4, 0], [4, 2]],), ref=lambda x: x[[[4, 0], [4, 2]]]),
    Row("empty", tensor.take_rows, (arr(4, 2),), ([],)),
    Row("duplicates", tensor.scatter_rows, (arr(4, 3),), ([4, 0, 4, 2], 5)),
    Row("empty", tensor.scatter_rows, (arr(0, 3),), ([], 4)),
    Row("2d", tensor.take_cols, (arr(3, 7),), (2, 5), ref=lambda x: x[..., 2:5]),
    Row("3d-strided", tensor.take_cols, (strided(2, 3, 7),), (2, 5), ref=lambda x: x[..., 2:5]),
    Row("empty-segment", tensor.segment_matmul, (strided(6, 3), arr(4, 3, 2)), ([0, 3, 3, 4, 6],)),
    Row("zero-rows", tensor.segment_matmul, (arr(0, 3), arr(4, 3, 2)), ([0, 0, 0, 0, 0],)),
    Row("empty-first-last", tensor.segment_matmul, (arr(5, 3), arr(4, 3, 2)), ([0, 0, 2, 5, 5],)),
]


def _ops() -> set:
    """Every function in tensor.__all__ that takes a Tensor first and returns
    one, and every public or operator method of Tensor that returns one."""
    hints = typing.get_type_hints
    free = {f for f in map(vars(tensor).get, tensor.__all__) if [*hints(f).values()][:1] == [Tensor]}
    methods = {f for name, f in vars(Tensor).items() if inspect.isfunction(f) and (name[:2] == "__" or name[0] != "_")}
    return {f for f in free | methods if inspect.isfunction(f) and hints(f).get("return") is Tensor}


def _apply(row, tensors: list) -> Tensor:
    """row.op on the tensors, or on tensors[i] for each i in row.operands when a row names them."""
    operands = tensors if row.operands is None else [tensors[i] for i in row.operands]
    return row.op(*operands, *row.args)


def _loss(out: Tensor) -> Tensor:
    return (out * Tensor(np.random.default_rng(0).normal(size=out.shape))).sum()


def _taped(row):
    leaves = [Tensor(a, requires_grad=True) for a in row.arrays]
    out = _apply(row, leaves)
    backward(_loss(out))
    return out, [leaf.grad for leaf in leaves]


def _same(a: np.ndarray, b: np.ndarray) -> bool:
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def test_every_op_has_a_row():
    covered, ops = {row.op for row in ROWS}, _ops()
    assert not ops - covered, f"no row for {[f.__name__ for f in ops - covered]}"
    assert not covered - ops, f"not an op: {[f.__name__ for f in covered - ops]}"


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("row", ROWS, ids=[f"{row.op.__name__}-{row.case}" for row in ROWS])
def test_op(row):
    out, grads = _taped(row)
    assert [a.dtype for a in (out.data, *grads)] == [np.float64] * (1 + len(grads))
    for i, grad in enumerate(grads):
        def f(t, i=i):
            return _loss(_apply(row, [t if j == i else Tensor(a) for j, a in enumerate(row.arrays)])).item()
        fd = finite_difference_grad(f, Tensor(row.arrays[i]), h=1e-5).data
        rel = np.abs(grad - fd) / np.maximum(np.maximum(np.abs(fd), np.abs(grad)), 1e-8)
        assert rel.max(initial=0.0) <= 1e-6, (i, rel.max())
    with no_grad():
        fast = _apply(row, [Tensor(a, requires_grad=True) for a in row.arrays])
    assert fast._node is None and _same(fast.data, out.data)
    assert out.grad is None and out._node.parents == ()
    with pytest.raises(ContractError, match="already ran"):
        backward(_loss(out))
    again, regrads = _taped(row)
    assert _same(again.data, out.data) and all(map(_same, regrads, grads))
    assert row.ref is None or _same(out.data, row.ref(*row.arrays))
