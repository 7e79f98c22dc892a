"""Dense float64 tensors with reverse-mode differentiation.

A deliberately small op set: matmul, a grouped matmul of row segments against
one stacked (S, d, m) weight (segment_matmul), elementwise arithmetic (a
square is x * x: one mul node, and its gradient reaches x twice), GELU,
sigmoid, softmax, reductions, reshape/permute, row gather/scatter
(take_rows/scatter_rows, whose scatter-add is one np.bincount), column
slicing (take_cols) and constant masking. Every op is eager and takes
Tensors; t + c, t - c, t * c, c + t and c * t take a number c as a constant.
Each differentiable op has a row in the op table, tests/test_ops.py, which
checks it against finite differences, no_grad, a freed tape and a bit-equal
repeat.

The tape is a graph of _Node objects apart from the data: a Tensor is its
array plus its node, or no node when it needs no gradient (a constant, or
an op output under no_grad); `grad` and `requires_grad` read through to it.
A node holds the grad-fn, the nodes of the parents that need a gradient,
its gradient and a global creation order, so backward() can replay nodes in
exact reverse execution order. A grad-fn closes over only the arrays its
formula reads, never a parent Tensor, so the forward's dead intermediates
are freed at once. add, sub, sum, reshape, transpose, take_rows,
scatter_rows and take_cols save no array; mul and segment_matmul save both
operands; matmul saves `a` only if `b` needs a gradient and `b` only if `a`
does. gelu computes erf of |x| / sqrt 2 into one buffer and puts x's sign
back to make Phi(x); when a gradient is needed it then computes the
derivative Phi(x) + x * phi(x) from that buffer into a second one, with the
IEEE operations of the textbook backward in the same order, and saves only
that. In both modes it then multiplies x into the first buffer, which
becomes the output: a forward-only gelu allocates one array and a taped one
two, and its backward is one multiply by g.

backward(loss) consumes interior nodes; the leaves it reaches keep grads,
and one it never reaches is not written (None reads as zero). As the sweep
passes an interior node it drops the node's gradient, grad-fn and parent
links, so the arrays its grad-fn saved are freed as soon as no later node
needs them, and a second backward through the same graph raises
ContractError. The optimizer applies and frees each leaf's gradient and
rebinds its data between steps. Gradients are never written in
place: a second contribution rebinds `t.grad = t.grad + g`. So a gradient
is stored as the very array an op hands over when that array is
C-contiguous, and copied into C order only when it is not (a transposed or
broadcast view), which also keeps the layout that later BLAS calls and
reductions round on fixed.

Inside `with no_grad():` op outputs get no node, so a forward-only pass
(sampling, evaluation) builds no tape and keeps none of its intermediates
alive; gelu skips its derivative there. Leaves made with requires_grad=True
keep the flag.

float64 everywhere: shapes are desk-scale and the precision keeps
finite-difference checks tight.

The freed heap stays mapped. A train step allocates and frees about 20 MB
of activations. By default glibc gives the top of the heap back to the
kernel once it is free, so the next step faults the same pages back in: on
a 2-vCPU x86 VM a warmed-up default-config step took 280-2,700 minor faults
(median 1,100-1,500) at 1.1-2.5 us each, 1-4 ms of a ~32 ms step. At import
this module raises glibc's trim threshold to 256 MiB and its mmap threshold
to 32 MiB (glibc's ceiling; every activation array is far smaller), so
freed memory is reused without a fault: the median step then takes 2, and
a few hundred now and then while the heap's top still grows. The process
keeps no more than its peak, which it reaches anyway. This is glibc only:
where the C library has no mallopt (macOS, Windows) the call is skipped
and nothing else changes.

gelu is the only user of scipy. On its first call it loads scipy's erf
ufunc from the one extension module that defines it,
scipy/special/_special_ufuncs, and imports neither scipy nor scipy.special
(importlib finds scipy's directory without importing the package). The
package import runs scipy's array-API layer, whose `from numpy import *`
pulls in numpy.f2py, numpy.testing, numpy.ma and more: on a 2-vCPU x86 VM
a cold process that imported moelab.tensor and ran one gelu took a median
0.44 s (0.23-0.65 s over 9 runs) and peaked at 53 MB of RSS through `from
scipy.special import erf`, and 0.14 s (0.07-0.18 s) and 30 MB with the
extension alone. route-sim and
the other pure-numpy commands load no scipy at all. The interpreter caches
the extension under its full name, so a later `import scipy.special`
hands out the very ufunc gelu uses: one erf, the same bits. Without
scipy>=1.17's extension the first gelu raises one ImportError naming the
file it looked for.

scipy's erf follows Cephes, which takes a negative argument as -erf(-x): a
branch on the data that mispredicts on activations of mixed sign. gelu
passes it |x| / sqrt 2 and copies x's sign onto the result, which gives
the same bits in less time: on a 2-vCPU x86 VM, GELU's CDF took 8.8-9.1 ms
of a default train step before and 6.3-6.5 ms after, and 30-34 ms of a
`sample` reverse step before and 26-27 ms after. That rests on scipy's erf
being odd bit for bit, which tests/test_tensor.py checks across erf's
branch points.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import importlib.machinery
import importlib.util
import itertools
import os
from typing import Callable

import numpy as np

__all__ = [
    "Tensor",
    "ShapeError",
    "ContractError",
    "backward",
    "no_grad",
    "finite_difference_grad",
    "matmul",
    "segment_matmul",
    "gelu",
    "sigmoid",
    "softmax",
    "take_rows",
    "scatter_rows",
    "take_cols",
    "integer_array",
]

_INV_SQRT2 = 1.0 / np.sqrt(2.0)
_INV_SQRT_2PI = 1.0 / np.sqrt(2.0 * np.pi)

# glibc <malloc.h> parameter numbers
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3


def _keep_freed_heap_mapped() -> None:
    """Stop glibc from returning freed heap to the kernel after each step
    (see the module docstring); a no-op where libc has no mallopt."""
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, TypeError, AttributeError):  # no libc handle, or no mallopt in it
        return
    mallopt(_M_TRIM_THRESHOLD, 256 << 20)
    mallopt(_M_MMAP_THRESHOLD, 32 << 20)  # glibc's ceiling


_keep_freed_heap_mapped()


class ShapeError(ValueError):
    """Raised when operand shapes are incompatible; names both shapes."""


class ContractError(ValueError):
    """Raised when a caller violates an operation's contract (e.g. non-scalar loss)."""


_grad_enabled = True


@contextlib.contextmanager
def no_grad():
    """Build no graph inside the block: op outputs get no node and
    requires_grad=False. Nests; the previous mode returns on exit, also on
    an exception."""
    global _grad_enabled
    previous, _grad_enabled = _grad_enabled, False
    try:
        yield
    finally:
        _grad_enabled = previous


def _broadcastable(a: tuple, b: tuple) -> bool:
    # numpy trailing-aligned broadcasting; anything else is an error
    for da, db in zip(reversed(a), reversed(b)):
        if da != db and da != 1 and db != 1:
            return False
    return True


def _unbroadcast(grad: np.ndarray, shape: tuple) -> np.ndarray:
    """Reduce a gradient back to `shape` by summing over broadcast axes."""
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, d in enumerate(shape) if d == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


class _Node:
    """A tape entry: the op's grad-fn, the nodes of the parents that need a
    gradient, the gradient and the creation order backward() replays."""

    __slots__ = ("grad_fn", "parents", "grad", "order")

    def __init__(self, order: int, grad_fn: Callable[[np.ndarray], None] | None, parents: tuple):
        self.grad_fn, self.parents, self.grad, self.order = grad_fn, parents, None, order


class Tensor:
    """A dense float64 array plus a pointer to its tape node.

    `grad` is populated by backward() for every requires_grad leaf in the
    graph (ndarray of the same shape); interior nodes hold theirs only while
    the sweep needs it. Leaf tensors outside the graph keep grad=None;
    optimizers treat that as zero.
    """

    __slots__ = ("data", "_node")

    _order_counter = itertools.count()

    def __init__(
        self,
        data,
        requires_grad: bool = False,
        _parents: tuple = (),
        _grad_fn: Callable[[np.ndarray], None] | None = None,
    ):
        self.data = np.asarray(data, dtype=np.float64)
        order = next(Tensor._order_counter)
        parents = tuple(p._node for p in _parents if p._node is not None) if _grad_enabled else ()
        self._node = _Node(order, _grad_fn, parents) if parents or requires_grad else None

    @property
    def requires_grad(self) -> bool:
        return self._node is not None

    @property
    def grad(self) -> np.ndarray | None:
        return None if self._node is None else self._node.grad

    @grad.setter
    def grad(self, value: np.ndarray | None) -> None:
        self._node.grad = value

    # ------------------------------------------------------------------
    # basics

    @property
    def shape(self) -> tuple:
        return self.data.shape

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        if self.data.size != 1:
            raise ContractError(f"item() needs a single element, got shape {self.shape}")
        return float(self.data.reshape(()))

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"

    # ------------------------------------------------------------------
    # elementwise arithmetic (numpy trailing-aligned broadcasting only)

    def _binary(self, other, fwd, grads) -> "Tensor":
        """`other` is a Tensor or a number. fwd(x, y) is the output; grads(x, y) returns the
        maps from the output gradient to each operand's, closing over only the arrays they read."""
        if not isinstance(other, Tensor):
            other = Tensor(other)
        if not _broadcastable(self.shape, other.shape):
            raise ShapeError(f"operands not broadcastable: {self.shape} vs {other.shape}")
        grad_a, grad_b = grads(self.data, other.data)
        an, bn, a_shape, b_shape = self._node, other._node, self.shape, other.shape

        def gfn(g: np.ndarray) -> None:
            if an is not None:
                _accumulate(an, _unbroadcast(grad_a(g), a_shape))
            if bn is not None:
                _accumulate(bn, _unbroadcast(grad_b(g), b_shape))

        return Tensor(fwd(self.data, other.data), _parents=(self, other), _grad_fn=gfn)

    def __add__(self, other) -> "Tensor":
        return self._binary(other, np.add, lambda x, y: (lambda g: g, lambda g: g))

    __radd__ = __add__

    def __sub__(self, other) -> "Tensor":
        return self._binary(other, np.subtract, lambda x, y: (lambda g: g, np.negative))

    def __mul__(self, other) -> "Tensor":
        return self._binary(other, np.multiply, lambda x, y: (lambda g: g * y, lambda g: g * x))

    __rmul__ = __mul__

    def __matmul__(self, other) -> "Tensor":
        return matmul(self, other)

    # ------------------------------------------------------------------
    # reductions

    def sum(self, axis=None) -> "Tensor":
        shape, xn = self.shape, self._node

        def gfn(g):
            if axis is not None:
                axes = (axis,) if isinstance(axis, int) else tuple(axis)
                g = np.expand_dims(g, tuple(a % len(shape) for a in axes))
            _accumulate(xn, np.broadcast_to(g, shape))

        return Tensor(self.data.sum(axis=axis), _parents=(self,), _grad_fn=gfn)

    def mean(self, axis=None) -> "Tensor":
        if axis is None:
            n = self.size
        else:
            axes = (axis,) if isinstance(axis, int) else tuple(axis)
            n = int(np.prod([self.shape[a] for a in axes]))
        return self.sum(axis=axis) * (1.0 / n)

    # ------------------------------------------------------------------
    # shape ops

    def reshape(self, *shape) -> "Tensor":
        old, xn = self.shape, self._node

        def gfn(g):
            _accumulate(xn, g.reshape(old))

        return Tensor(self.data.reshape(shape), _parents=(self,), _grad_fn=gfn)

    def transpose(self, *perm) -> "Tensor":
        if not perm:
            perm = tuple(reversed(range(self.data.ndim)))
        inv, xn = tuple(np.argsort(perm)), self._node

        def gfn(g):
            _accumulate(xn, g.transpose(inv))

        return Tensor(self.data.transpose(perm), _parents=(self,), _grad_fn=gfn)


def _accumulate(t: _Node, g: np.ndarray) -> None:
    """Add g to t.grad. Nothing writes a gradient in place (a second
    contribution rebinds t.grad), so a C-contiguous ndarray is stored as is,
    even when it aliases another node's gradient; anything else is copied
    into C order, which fixes the layout the rounding of later BLAS calls
    and reductions depends on."""
    if t.grad is not None:
        t.grad = t.grad + g
    elif isinstance(g, np.ndarray) and g.flags.c_contiguous:
        t.grad = g
    else:
        t.grad = np.array(g, dtype=np.float64, order="C")


# ----------------------------------------------------------------------
# free functions


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """a @ b with `a` of rank >= 2 and `b` a 2-D matrix.

    Leading axes of `a` act as batch dims; the last axis of `a` contracts
    with the first axis of `b`. Covers every linear layer but the expert banks (segment_matmul).
    """
    if a.data.ndim < 2 or b.data.ndim != 2:
        raise ShapeError(f"matmul expects (..., n) x (n, m) with 2-D rhs: {a.shape} vs {b.shape}")
    if a.shape[-1] != b.shape[0]:
        raise ShapeError(f"matmul inner dims differ: {a.shape} vs {b.shape}")
    an, bn = a._node, b._node
    a_data = a.data if bn is not None else None  # each operand only for the other's gradient
    b_data = b.data if an is not None else None

    def gfn(g):
        if an is not None:
            _accumulate(an, g @ b_data.T)
        if bn is not None:
            g2 = g.reshape(-1, g.shape[-1])
            a2 = a_data.reshape(-1, a_data.shape[-1])
            _accumulate(bn, a2.T @ g2)

    return Tensor(a.data @ b.data, _parents=(a, b), _grad_fn=gfn)


def segment_matmul(x: Tensor, w: Tensor, offsets) -> Tensor:
    """Grouped matmul: out[o_s:o_{s+1}] = x[o_s:o_{s+1}] @ w[s].

    `x` is (n, d) with its rows sorted by segment, `w` stacks the S segment
    weights as (S, d, m) and `offsets` holds the S + 1 segment boundaries,
    rising from 0 to n. One GEMM per segment, empty ones included, and no
    padding. Backward writes each segment's slice of dW; numpy writes exact
    +0.0 for a contraction of length zero, so an empty segment's is zeros.
    """
    if x.data.ndim != 2 or w.data.ndim != 3 or w.shape[1] != x.shape[1]:
        raise ShapeError(f"segment_matmul expects (n, d) x (S, d, m): {x.shape} vs {w.shape}")
    offsets = integer_array(offsets, "segment_matmul offset")
    if (
        offsets.shape != (w.shape[0] + 1,)
        or offsets[0] != 0
        or offsets[-1] != x.shape[0]
        or np.any(np.diff(offsets) < 0)
    ):
        raise ShapeError(
            f"segment_matmul offsets {offsets.tolist()} must rise from 0 to the {x.shape[0]} rows "
            f"of x in the {w.shape[0]} segments of {w.shape}"
        )
    segments = list(enumerate(zip(offsets[:-1], offsets[1:])))
    out = np.empty((x.shape[0], w.shape[2]))
    for s, (lo, hi) in segments:
        np.matmul(x.data[lo:hi], w.data[s], out=out[lo:hi])
    xn, x_data, wn, w_data = x._node, x.data, w._node, w.data

    def gfn(g):
        if xn is not None:
            dx = np.empty_like(x_data)  # the segments cover every row
            for s, (lo, hi) in segments:
                np.matmul(g[lo:hi], w_data[s].T, out=dx[lo:hi])
            _accumulate(xn, dx)
        if wn is not None:
            dw = np.empty_like(w_data)  # the segments cover every slice
            for s, (lo, hi) in segments:
                np.matmul(x_data[lo:hi].T, g[lo:hi], out=dw[s])
            _accumulate(wn, dw)

    return Tensor(out, _parents=(x, w), _grad_fn=gfn)


# the extension module scipy>=1.17 defines its erf ufunc in
_ERF_MODULE = "scipy.special._special_ufuncs"


@functools.cache
def _erf() -> np.ufunc:
    """scipy's erf, loaded from its extension module alone, once per process
    (see the module docstring); without it, one ImportError naming the file."""
    scipy = importlib.util.find_spec("scipy")  # finds the package, imports nothing
    special = os.path.join(scipy.submodule_search_locations[0] if scipy else "scipy", "special")
    spec = importlib.machinery.PathFinder.find_spec(_ERF_MODULE, [special]) if scipy else None
    if spec is None:
        name = _ERF_MODULE.rpartition(".")[2] + importlib.machinery.EXTENSION_SUFFIXES[0]
        raise ImportError(f"gelu needs the erf of scipy>=1.17 and found no {os.path.join(special, name)}")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.erf


def gelu(x: Tensor) -> Tensor:
    """Exact Gaussian-CDF GELU: x * Phi(x). Derivative Phi(x) + x * phi(x).

    Phi(x) = 0.5 * (1 + erf(x / sqrt 2)), with erf taken of |x| / sqrt 2 and
    x's sign put back: the same bits as erf(x * (1 / sqrt 2)), because
    multiplying by a positive constant is symmetric in sign (-0.0 included)
    and scipy's erf is odd bit for bit, but without erf's branch on the sign.
    The whole CDF is built in one buffer, and the output x * Phi(x) is written
    over it once the derivative, when one is needed, has read it. For a NaN x
    the buffer's NaN takes x's sign, but x is the first operand of every later
    op that meets it, so the output and the derivative carry x's NaN as before."""
    erf = _erf()  # scipy's erf ufunc, loaded on the first call; see the module docstring
    cdf = np.abs(x.data)  # then erf(|x| / sqrt 2) with x's sign and 0.5 * (1 + erf), all in place
    cdf *= _INV_SQRT2
    erf(cdf, out=cdf)
    np.copysign(cdf, x.data, out=cdf)
    cdf += 1.0
    cdf *= 0.5
    gfn = None
    if _grad_enabled and x.requires_grad:
        # d = cdf + x * pdf with pdf = exp(-0.5 * x * x) / sqrt(2 pi), in one
        # buffer: the same IEEE operations in the same order as the textbook form
        d = x.data * -0.5
        d *= x.data
        np.exp(d, out=d)
        d *= _INV_SQRT_2PI
        d *= x.data
        d += cdf
        xn = x._node

        def gfn(g):
            np.multiply(d, g, out=d)  # the sweep calls this once
            _accumulate(xn, d)

    return Tensor(np.multiply(x.data, cdf, out=cdf), _parents=(x,), _grad_fn=gfn)


def sigmoid(x: Tensor) -> Tensor:
    with np.errstate(over="ignore"):  # exp(-x) = inf below -709, and 1 / (1 + inf) = 0.0 exactly
        s = 1.0 / (1.0 + np.exp(-x.data))
    xn = x._node

    def gfn(g):
        _accumulate(xn, g * s * (1.0 - s))

    return Tensor(s, _parents=(x,), _grad_fn=gfn)


def softmax(x: Tensor, axis: int = -1) -> Tensor:
    """Numerically stable softmax along `axis`; rows sum to 1."""
    shifted = x.data - x.data.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    p = e / e.sum(axis=axis, keepdims=True)
    xn = x._node

    def gfn(g):
        dot = (g * p).sum(axis=axis, keepdims=True)
        _accumulate(xn, p * (g - dot))

    return Tensor(p, _parents=(x,), _grad_fn=gfn)


def integer_array(values, what: str, error: type[ValueError] = ShapeError) -> np.ndarray:
    """`values` (row indices, offsets, class labels, timesteps) as an intp
    array. Integer-valued floats such as 1.0 pass; any other value (1.9,
    nan, True) raises `error` `<what> <value> is not an integer` instead of
    truncating. A list is checked element by element, as np.asarray reads
    [1, True] as [1, 1]."""
    if not isinstance(values, np.ndarray):
        for value in np.ravel(np.asarray(values, dtype=object)):
            if isinstance(value, (bool, np.bool_)):
                raise error(f"{what} {value} is not an integer")
    values = np.asarray(values)
    if values.dtype == bool and values.size:
        raise error(f"{what} {values.flat[0]} is not an integer")
    with np.errstate(invalid="ignore"):
        ints = values.astype(np.intp)
    bad = values[ints != values]
    if bad.size:
        raise error(f"{what} {bad.flat[0]} is not an integer")
    return ints


def _row_indices(op: str, indices, n: int) -> np.ndarray:
    """`indices` as an intp array of integers, each required to lie in [0, n)."""
    idx = integer_array(indices, f"{op} index")
    bad = idx[(idx < 0) | (idx >= n)]
    if bad.size:
        raise ShapeError(f"{op} index {bad.flat[0]} out of range for {n} rows")
    return idx


def _scatter_add(idx: np.ndarray, src: np.ndarray, n: int) -> np.ndarray:
    """An (n, cols) zero table with src[j] added into row idx[j], for 1-D
    in-range `idx` and 2-D `src`.

    One np.bincount over the flat indices idx[j] * cols + c, cast to float64
    (it is int64 on an empty idx). It adds each element's terms in index
    order starting from zero, as np.add.at does, so the bits equal np.add.at's.
    """
    cols = src.shape[1]
    flat = (idx[:, None] * cols + np.arange(cols)).reshape(-1)
    return np.bincount(flat, weights=src.reshape(-1), minlength=n * cols).astype(np.float64, copy=False).reshape(n, cols)


def take_rows(table: Tensor, indices) -> Tensor:
    """Gather rows of a 2-D table (embedding lookup). Backward scatter-adds.

    Every index must lie in [0, rows); negative indices do not wrap.
    """
    if table.data.ndim != 2:
        raise ShapeError(f"take_rows expects a 2-D table, got {table.shape}")
    n, cols = table.shape
    idx = _row_indices("take_rows", indices, n)
    tn = table._node

    def gfn(g):
        _accumulate(tn, _scatter_add(idx.reshape(-1), g.reshape(-1, cols), n))

    return Tensor(table.data[idx], _parents=(table,), _grad_fn=gfn)


def scatter_rows(src: Tensor, indices, n: int) -> Tensor:
    """Scatter-add the rows of a 2-D `src` into an (n, cols) zero table.

    The transpose of take_rows: out[indices[j]] += src[j], duplicates
    accumulate in order; every index must lie in [0, n). Backward gathers
    g[indices].
    """
    idx = _row_indices("scatter_rows", indices, n)
    if src.data.ndim != 2 or idx.shape != src.shape[:1]:
        raise ShapeError(f"scatter_rows expects 2-D src with one index per row: {src.shape} vs {idx.shape}")
    sn = src._node

    def gfn(g):
        _accumulate(sn, g[idx])

    return Tensor(_scatter_add(idx, src.data, n), _parents=(src,), _grad_fn=gfn)


def take_cols(x: Tensor, start: int, stop: int) -> Tensor:
    """Slice the last axis: x[..., start:stop]. Backward writes g into that
    slice of a zero gradient."""
    if x.data.ndim < 1 or not 0 <= start < stop <= x.shape[-1]:
        raise ShapeError(f"take_cols [{start}:{stop}] out of range for shape {x.shape}")
    shape, xn = x.shape, x._node

    def gfn(g):
        acc = np.zeros(shape)
        acc[..., start:stop] = g
        _accumulate(xn, acc)

    return Tensor(x.data[..., start:stop], _parents=(x,), _grad_fn=gfn)


def _consumed(g: np.ndarray) -> None:
    """The grad-fn of a node a backward sweep has already passed."""
    raise ContractError("backward already ran through this graph and freed it; build the graph again")


def backward(loss: Tensor) -> None:
    """Reverse-mode sweep from a scalar loss that consumes the graph.

    Fills `grad` on every requires_grad leaf reachable from `loss`
    (parameters and inputs made with requires_grad=True), popping nodes in
    exact reverse creation order, and writes no other leaf: one the graph
    never reaches keeps grad None, which optimizers read as zero. Once an
    interior node's grad-fn has run, or was skipped because no gradient
    reached the node, its grad, grad-fn and parent links are dropped, so
    what it saved for backward is freed as soon as no later node needs it;
    a later backward that reaches the node raises ContractError.
    """
    if loss.data.size != 1:
        raise ContractError(f"loss must be scalar, got shape {loss.shape}")

    nodes: list[_Node] = []
    seen: set[int] = set()
    stack = [loss._node] if loss.requires_grad else []
    while stack:
        node = stack.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        nodes.append(node)
        stack.extend(node.parents)

    for node in nodes:
        node.grad = None
    if loss.requires_grad:
        loss.grad = np.ones_like(loss.data)

    nodes.sort(key=lambda n: n.order)
    while nodes:
        node = nodes.pop()
        if node.grad_fn is None:
            continue  # a leaf keeps its gradient
        if node.grad is not None:
            node.grad_fn(node.grad)
        node.grad, node.grad_fn, node.parents = None, _consumed, ()


def finite_difference_grad(f: Callable[[Tensor], float], x: Tensor, h: float = 1e-5) -> Tensor:
    """Central-difference gradient estimate, one coordinate at a time.

    The verification oracle for backward(): (f(x + h e) - f(x - h e)) / 2h.
    Works on a copy of x; f must be scalar-valued.
    """
    if h <= 0:
        raise ContractError("h must be positive")
    base = x.data
    grad = np.zeros(base.shape)  # C order, so that `flat` below is a view of it
    flat = grad.reshape(-1)
    for i in range(base.size):
        bumped = base.copy().reshape(-1)
        bumped[i] = base.reshape(-1)[i] + h
        f_plus = float(f(Tensor(bumped.reshape(base.shape))))
        bumped[i] = base.reshape(-1)[i] - h
        f_minus = float(f(Tensor(bumped.reshape(base.shape))))
        flat[i] = (f_plus - f_minus) / (2.0 * h)
    return Tensor(grad)
