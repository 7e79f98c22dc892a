"""Tensor substrate: forward values, exact gradients and the tape; the op table is test_ops.py."""

import ctypes
import importlib.machinery
import os
import re
import subprocess
import sys
import tracemalloc
import weakref
from pathlib import Path

import numpy as np
import pytest
from scipy.special import erf
from test_bit_identity import CONFIG

from moelab import tensor as tensor_mod
from moelab import training
from moelab.tensor import (
    ContractError,
    ShapeError,
    Tensor,
    backward,
    finite_difference_grad,
    gelu,
    matmul,
    no_grad,
    sigmoid,
    scatter_rows,
    segment_matmul,
    softmax,
    take_cols,
    take_rows,
)
from moelab.training import Trainer


def test_softmax_uniform_on_zeros():
    s = softmax(Tensor(np.zeros(4)))
    assert np.allclose(s.data, 0.25, atol=1e-15)


def test_softmax_rows_sum_to_one():
    rng = np.random.default_rng(11)
    x = Tensor(rng.normal(scale=20.0, size=(5, 7)))
    s = softmax(x, axis=-1)
    assert np.allclose(s.data.sum(axis=-1), 1.0, atol=1e-12)


def test_backward_sum_gives_ones():
    x = Tensor(np.arange(6.0).reshape(2, 3), requires_grad=True)
    backward(x.sum())
    assert np.array_equal(x.grad, np.ones((2, 3)))


def test_backward_dot_quadratic():
    x = Tensor(np.array([1.0, 2.0]), requires_grad=True)
    backward((x * x).sum())
    assert np.array_equal(x.grad, np.array([2.0, 4.0]))


def test_backward_rejects_nonscalar_loss():
    x = Tensor(np.ones(3), requires_grad=True)
    with pytest.raises(ContractError):
        backward(x * 2.0)


def test_finite_difference_sum_of_squares():
    fd = finite_difference_grad(lambda t: (t * t).sum().item(), Tensor(np.array([3.0])), h=1e-4)
    assert abs(fd.data[0] - 6.0) < 1e-6


def test_finite_difference_sigmoid_slope_at_zero():
    fd = finite_difference_grad(lambda t: sigmoid(t).sum().item(), Tensor(np.array([0.0])), h=1e-5)
    assert abs(fd.data[0] - 0.25) < 1e-8


def test_gelu_exact_gaussian_form():
    # Phi(1) = 0.841344746..., so gelu(1) = 0.841344746...
    out = gelu(Tensor(np.array([0.0, 1.0, -1.0])))
    phi1 = 0.8413447460685429
    assert np.allclose(out.data, [0.0, phi1, -(1.0 - phi1)], atol=1e-12)


def test_a_leaf_the_graph_never_reaches_keeps_grad_none():
    used = Tensor(np.ones(2), requires_grad=True)
    unused = Tensor(np.ones(3), requires_grad=True)
    backward(used.sum())
    assert np.array_equal(used.grad, np.ones(2)) and unused.grad is None


def test_shape_mismatch_names_both_shapes():
    with pytest.raises(ShapeError) as err:
        Tensor(np.ones((2, 3))) + Tensor(np.ones((4, 2)))
    assert "(2, 3)" in str(err.value) and "(4, 2)" in str(err.value)
    with pytest.raises(ShapeError) as err:
        matmul(Tensor(np.ones((2, 3))), Tensor(np.ones((4, 2))))
    assert "(2, 3)" in str(err.value)


def test_trailing_broadcast_add_bias():
    x = Tensor(np.ones((2, 3, 4)), requires_grad=True)
    b = Tensor(np.arange(4.0), requires_grad=True)
    out = x + b
    assert out.shape == (2, 3, 4)
    backward(out.sum())
    assert np.array_equal(b.grad, np.full(4, 6.0))
    assert np.array_equal(x.grad, np.ones((2, 3, 4)))


def test_middle_axis_broadcast():
    x = Tensor(np.ones((2, 3, 4)), requires_grad=True)
    s = Tensor(np.full((2, 1, 4), 2.0), requires_grad=True)
    backward((x * s).sum())
    assert np.array_equal(s.grad, np.full((2, 1, 4), 3.0))


def test_take_rows_scatter_adds():
    table = Tensor(np.eye(3), requires_grad=True)
    out = take_rows(table, [0, 0, 2])
    backward(out.sum())
    assert np.array_equal(table.grad, np.array([[2.0] * 3, [0.0] * 3, [1.0] * 3]))


def test_scatter_rows_duplicates_accumulate():
    src = Tensor(np.array([[1.0, 2.0], [10.0, 20.0], [100.0, 200.0]]))
    out = scatter_rows(src, [1, 3, 1], 4)
    assert np.array_equal(out.data, np.array([[0.0, 0.0], [101.0, 202.0], [0.0, 0.0], [10.0, 20.0]]))


def test_take_then_scatter_rows_permutation_round_trips():
    rng = np.random.default_rng(9)
    table = Tensor(rng.normal(size=(6, 4)), requires_grad=True)
    perm = rng.permutation(6)
    back = scatter_rows(take_rows(table, perm), perm, 6)
    assert np.array_equal(back.data, table.data)
    g = rng.normal(size=(6, 4))
    backward((back * Tensor(g)).sum())
    assert np.array_equal(table.grad, g)


def test_scatter_rows_rejects_index_count_mismatch():
    with pytest.raises(ShapeError):
        scatter_rows(Tensor(np.ones((3, 2))), [0, 1], 4)


@pytest.mark.parametrize("op", ["take_rows", "scatter_rows"])
@pytest.mark.parametrize("bad", [-1, 4, 9])
def test_row_ops_reject_out_of_range_index(op, bad):
    idx = [0, bad, 2]
    with pytest.raises(ShapeError, match=rf"index {bad} out of range for 4 rows"):
        if op == "take_rows":
            take_rows(Tensor(np.ones((4, 2))), idx)
        else:
            scatter_rows(Tensor(np.ones((3, 2))), idx, 4)


@pytest.mark.parametrize(
    "idx,n,cols",
    [
        ([3, 0, 3, 1, 3], 5, 4),  # duplicates, out of order
        ([], 3, 2),  # empty index
        ([6, 2, 2, 0, 6, 5], 7, 1),  # an (n, 1) column
        ([4, 3, 2, 1, 0], 5, 3),  # descending
    ],
)
def test_scatter_add_is_bit_identical_to_add_at(idx, n, cols):
    idx = np.asarray(idx, dtype=np.intp)
    src = np.random.default_rng(12).normal(size=(idx.size, cols)) * 10.0 ** np.arange(idx.size)[:, None]
    want = np.zeros((n, cols))
    np.add.at(want, idx, src)
    got = tensor_mod._scatter_add(idx, src, n)
    assert got.shape == (n, cols)
    assert got.tobytes() == want.tobytes()


def test_segment_matmul_forward_per_segment_and_zero_grad_for_an_empty_segment():
    rng = np.random.default_rng(13)
    offsets = [0, 3, 3, 4, 6]  # segment 1 empty, segment 2 a single row
    w = Tensor(rng.normal(size=(4, 3, 2)), requires_grad=True)
    x = Tensor(rng.normal(size=(6, 3)), requires_grad=True)
    out = segment_matmul(x, w, offsets)
    for s, (lo, hi) in enumerate(zip(offsets[:-1], offsets[1:])):
        assert np.array_equal(out.data[lo:hi], x.data[lo:hi] @ w.data[s])
    assert out._node.parents == (x._node, w._node)
    backward((out * out).sum())
    assert np.array_equal(w.grad[1], np.zeros((3, 2)))  # no rows: exactly zero
    for s in (0, 2, 3):
        lo, hi = offsets[s], offsets[s + 1]
        assert np.array_equal(w.grad[s], x.data[lo:hi].T @ (2.0 * out.data[lo:hi]))


@pytest.mark.parametrize(
    "offsets",
    [
        [0, 2, 5],  # stops short of the 6 rows
        [0, 3, 7],  # runs past them
        [1, 3, 6],  # does not start at 0
        [0, 4, 3, 6],  # one boundary too many
        [0, 6],  # one too few
    ],
)
def test_segment_matmul_rejects_offsets_that_do_not_cover_x(offsets):
    w = Tensor(np.ones((2, 3, 2)))  # two segments
    with pytest.raises(ShapeError, match=r"offsets .* in the 2 segments of \(2, 3, 2\)$"):
        segment_matmul(Tensor(np.ones((6, 3))), w, offsets)


def test_segment_matmul_rejects_mismatched_weights():
    x = Tensor(np.ones((4, 3)))
    for w in (np.ones((3, 2)), np.ones((1, 2, 2))):  # a 2-D weight; inner dims differ
        with pytest.raises(ShapeError, match=re.escape(f"segment_matmul expects (n, d) x (S, d, m): (4, 3) vs {w.shape}")):
            segment_matmul(x, Tensor(w), [0, 4])


def test_take_cols_gradient_is_exactly_zero_outside_the_slice():
    x = Tensor(np.random.default_rng(10).normal(size=(2, 3, 7)), requires_grad=True)
    cols = take_cols(x, 2, 5)
    backward((cols * cols).sum())
    assert np.all(x.grad[..., :2] == 0) and np.all(x.grad[..., 5:] == 0)


@pytest.mark.parametrize("start,stop", [(-1, 2), (3, 3), (2, 8)])
def test_take_cols_rejects_out_of_range_slice(start, stop):
    with pytest.raises(ShapeError):
        take_cols(Tensor(np.ones((2, 7))), start, stop)


@pytest.mark.parametrize("call, error, named", [
    pytest.param(lambda: Tensor(np.ones(3)).item(), ContractError, r"^item\(\) needs a single element, got shape \(3,\)$",
                 id="item"),
    pytest.param(lambda: matmul(Tensor(np.ones(3)), Tensor(np.ones((3, 2)))), ShapeError,
                 r"^matmul expects \(\.\.\., n\) x \(n, m\) with 2-D rhs: \(3,\) vs \(3, 2\)$", id="matmul-rank"),
    pytest.param(lambda: take_rows(Tensor(np.ones(3)), [0]), ShapeError, r"^take_rows expects a 2-D table, got \(3,\)$",
                 id="take_rows-rank"),
    pytest.param(lambda: finite_difference_grad(lambda t: t.sum().item(), Tensor(np.ones(2)), h=0.0), ContractError,
                 "^h must be positive$", id="fd-step"),
])
def test_an_argument_outside_an_ops_contract_raises(call, error, named):
    with pytest.raises(error, match=named):
        call()


# ----------------------------------------------------------------------
# the lean tape: no gradient copies it does not need, no tape under no_grad


def test_accumulate_stores_fresh_c_contiguous_gradient_by_identity():
    t = Tensor(np.zeros((3, 4)), requires_grad=True)
    g = np.arange(12.0).reshape(3, 4)
    tensor_mod._accumulate(t, g)
    assert t.grad is g
    # a second contribution rebinds, so the first array is never written
    tensor_mod._accumulate(t, np.ones((3, 4)))
    assert np.array_equal(g, np.arange(12.0).reshape(3, 4))
    assert np.array_equal(t.grad, g + 1.0)


@pytest.mark.parametrize(
    "view",
    [np.arange(12.0).reshape(4, 3).T, np.broadcast_to(np.arange(4.0), (3, 4)), np.arange(24.0).reshape(3, 8)[:, ::2]],
    ids=["transposed", "broadcast", "strided"],
)
def test_accumulate_copies_a_view_into_c_order(view):
    t = Tensor(np.zeros((3, 4)), requires_grad=True)
    tensor_mod._accumulate(t, view)
    assert t.grad is not view and t.grad.flags.c_contiguous and t.grad.flags.owndata
    assert np.array_equal(t.grad, view)


def test_gelu_bit_identical_to_textbook_expressions():
    # gelu takes erf of |x| / sqrt 2 and puts x's sign back, the same bits only while
    # scipy's erf is odd bit for bit. So the inputs also sweep erf's branch points
    # |x / sqrt 2| = 1 and 8 and its underflow at 26.64 (2,000 adjacent floats each
    # side, both signs), signed zeros, the least subnormals and the infinities
    # (gelu(-inf) is NaN on both sides). A failure here with moelab unchanged means
    # scipy's erf is not odd.
    rng = np.random.default_rng(41)
    inv_sqrt2, inv_sqrt_2pi = 1.0 / np.sqrt(2.0), 1.0 / np.sqrt(2.0 * np.pi)
    points = (1.0, 8.0, 26.64)
    sweeps = [(np.float64(b / inv_sqrt2).view(np.int64) + np.arange(-2000, 2001)).view(np.float64) for b in points]
    assert all((s * inv_sqrt2).min() < b < (s * inv_sqrt2).max() for s, b in zip(sweeps, points))
    x = np.concatenate([rng.normal(size=500), rng.normal(scale=12.0, size=200), [0.0, 40.0, 1e3, 5e-324, np.inf], *sweeps])
    x = np.concatenate([x, -x])
    g = rng.normal(size=x.shape)
    with np.errstate(invalid="ignore"):
        xt = Tensor(x, requires_grad=True)
        out = gelu(xt)
        backward((out * Tensor(g)).sum())
        with no_grad():
            fast = gelu(Tensor(x)).data
        cdf = 0.5 * (1.0 + erf(x * inv_sqrt2))
        want = x * cdf
        want_grad = g * (cdf + x * (inv_sqrt_2pi * np.exp(-0.5 * x * x)))
    assert out.data.tobytes() == want.tobytes() and fast.tobytes() == want.tobytes()
    assert xt.grad.tobytes() == want_grad.tobytes()


def test_scipy_loads_at_the_first_gelu_not_at_import(tmp_path):
    # a fresh process, since this module imports scipy.special: route-sim
    # runs without scipy, and the first gelu loads only erf's extension
    # module, neither scipy nor scipy.special. A later import of scipy.special
    # hands out the very ufunc gelu used, so the values are scipy's.
    child = f"""
import sys
import numpy as np
from moelab import cli, tensor
assert cli.main(["route-sim", "--out", {str(tmp_path / "sim")!r}, "--draws", "1",
                 "--batch-size", "2", "--tokens", "4", "--experts", "4", "--k", "2"]) == 0
loaded = lambda: sorted(m for m in sys.modules if m.startswith("scipy"))
assert loaded() == [], loaded()
x = np.linspace(-3.0, 3.0, 7)
out = tensor.gelu(tensor.Tensor(x)).data
assert loaded() == ["scipy.special._special_ufuncs"], loaded()
import scipy.special
assert tensor._erf() is scipy.special.erf
assert np.array_equal(out, x * (0.5 * (1.0 + scipy.special.erf(x * (1.0 / np.sqrt(2.0)))))), out
"""
    src = Path(__file__).resolve().parents[1] / "src"
    done = subprocess.run([sys.executable, "-c", child], env={**os.environ, "PYTHONPATH": str(src)},
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr


def test_gelu_without_scipys_erf_extension_raises_one_import_error_naming_the_file(tmp_path):
    # a stub scipy package ahead of site-packages, with no extension file:
    # importing moelab works, and the first gelu names the file it looked for
    special = tmp_path / "scipy" / "special"
    special.mkdir(parents=True)
    (tmp_path / "scipy" / "__init__.py").write_text("")
    (special / "__init__.py").write_text("")
    child = """
import numpy as np
from moelab import tensor
try:
    tensor.gelu(tensor.Tensor(np.zeros(2)))
except ImportError as exc:
    print(exc)
"""
    src = Path(__file__).resolve().parents[1] / "src"
    done = subprocess.run([sys.executable, "-c", child], env={**os.environ, "PYTHONPATH": f"{tmp_path}{os.pathsep}{src}"},
                          capture_output=True, text=True, timeout=120)
    suffix = importlib.machinery.EXTENSION_SUFFIXES[0]
    want = f"gelu needs the erf of scipy>=1.17 and found no {special / ('_special_ufuncs' + suffix)}\n"
    assert done.returncode == 0 and done.stdout == want and not done.stderr, (done.stdout, done.stderr)


def test_gelu_under_no_grad_equals_the_grad_path_and_keeps_its_input():
    rng = np.random.default_rng(43)
    x = np.concatenate([rng.normal(size=(40, 16)), rng.normal(scale=12.0, size=(10, 16))])
    x[0, :5] = [0.0, -40.0, 40.0, -1e3, 1e3]
    before = x.copy()
    with no_grad():
        fast = gelu(Tensor(x))
    assert np.array_equal(x, before)  # erf and the product went into gelu's own buffer
    assert fast.data is not x and not np.shares_memory(fast.data, x)
    taped = gelu(Tensor(x, requires_grad=True))
    assert np.array_equal(x, before)
    assert fast.data.tobytes() == taped.data.tobytes()


@pytest.mark.parametrize("taped,arrays", [(False, 1), (True, 2)])
def test_gelu_allocates_its_output_and_only_a_taped_derivative(taped, arrays):
    # the output is written over the CDF's buffer in both modes, and only a
    # taped call adds its derivative; tracemalloc counts numpy's data buffers
    x = np.random.default_rng(44).normal(size=(256, 256))
    gelu(Tensor(x[:2]))  # scipy's erf loads on the first call
    xt = Tensor(x, requires_grad=taped)
    tracemalloc.start()
    try:
        out = gelu(xt)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert out.requires_grad == taped
    assert arrays * x.nbytes <= peak < (arrays + 0.1) * x.nbytes, peak / x.nbytes


def test_no_grad_records_no_tape():
    w = Tensor(np.ones((3, 3)), requires_grad=True)
    x = Tensor(np.arange(6.0).reshape(2, 3))
    with no_grad():
        leaf = Tensor(np.ones(3), requires_grad=True)
    assert leaf.requires_grad
    assert x._node is None  # a constant: no node, so no parent link to it
    assert matmul(x, w)._node.parents == (w._node,)


def test_no_grad_nests_and_restores_after_an_exception():
    w = Tensor(np.ones((2, 2)), requires_grad=True)
    with no_grad():
        with no_grad():
            assert not (w * 2.0).requires_grad
        assert not (w * 2.0).requires_grad
    assert (w * 2.0).requires_grad
    with pytest.raises(RuntimeError):
        with no_grad():
            raise RuntimeError("inside")
    assert (w * 2.0).requires_grad


# ----------------------------------------------------------------------
# backward consumes the tape it sweeps


def test_backward_frees_interior_nodes_and_keeps_leaf_grads():
    rng = np.random.default_rng(7)
    x = Tensor(rng.normal(size=(4, 3)), requires_grad=True)
    w = Tensor(rng.normal(size=(2, 3, 2)), requires_grad=True)
    const = Tensor(rng.normal(size=(4, 2)))
    scaled = w * 1.0
    hidden = gelu(segment_matmul(x, scaled, [0, 4, 4]))  # slice 1's segment is empty
    loss = (hidden * const).sum()
    backward(loss)
    for node in (loss, hidden, scaled):
        assert node.grad is None and node._node.parents == ()
    z = x.data @ w.data[0]
    gz = const.data * (0.5 * (1.0 + erf(z / np.sqrt(2.0))) + z * np.exp(-0.5 * z * z) / np.sqrt(2.0 * np.pi))
    assert np.allclose(x.grad, gz @ w.data[0].T, rtol=1e-12, atol=1e-14)
    assert np.allclose(w.grad[0], x.data.T @ gz, rtol=1e-12, atol=1e-14)
    assert np.array_equal(w.grad[1], np.zeros((3, 2)))
    assert const.grad is None


def test_an_intermediate_no_grad_fn_reads_is_freed_when_dropped():
    rng = np.random.default_rng(8)
    x = Tensor(rng.normal(size=(4, 3)), requires_grad=True)
    w = Tensor(rng.normal(size=(3, 2)), requires_grad=True)
    b = Tensor(rng.normal(size=2), requires_grad=True)
    const = rng.normal(size=(4, 2))
    pre = matmul(x, w)
    out = pre + b  # add saves no array, so nothing holds pre's
    alive = weakref.ref(pre.data)
    del pre
    assert alive() is None
    backward((out * Tensor(const)).sum())
    assert np.allclose(x.grad, const @ w.data.T, rtol=1e-12, atol=1e-14)
    assert np.allclose(w.grad, x.data.T @ const, rtol=1e-12, atol=1e-14)
    assert np.allclose(b.grad, const.sum(axis=0), rtol=1e-12, atol=1e-14)


def test_gelu_input_is_freed_when_dropped():
    rng = np.random.default_rng(9)
    x = Tensor(rng.normal(size=(5, 3)), requires_grad=True)
    const = rng.normal(size=(5, 3))
    z = x * 2.0
    out = gelu(z)  # saves its derivative, not its input
    alive = weakref.ref(z.data)
    del z
    assert alive() is None
    backward((out * Tensor(const)).sum())
    z = 2.0 * x.data
    dz = 0.5 * (1.0 + erf(z / np.sqrt(2.0))) + z * np.exp(-0.5 * z * z) / np.sqrt(2.0 * np.pi)
    assert np.allclose(x.grad, 2.0 * const * dz, rtol=1e-12, atol=1e-14)


def test_second_backward_through_a_consumed_graph_raises():
    x = Tensor(np.arange(3.0), requires_grad=True)
    hidden = x * 2.0
    loss = hidden.sum()
    backward(loss)
    assert np.array_equal(x.grad, np.full(3, 2.0))
    with pytest.raises(ContractError, match="already ran"):
        backward(loss)
    with pytest.raises(ContractError, match="already ran"):
        backward((hidden * 3.0).sum())  # a new graph on top of a consumed node
    backward((x * 3.0).sum())  # the leaf itself starts a new graph
    assert np.array_equal(x.grad, np.full(3, 3.0))


def test_train_step_backward_peak_stays_near_the_forward_tape(monkeypatch):
    # tracemalloc counts allocations, not pages, so both figures repeat to
    # within 0.1%; a backward that kept the whole tape peaked at 1.78x here
    trainer = Trainer(CONFIG)
    trainer.train_step()  # past the first step's set-up: thresholds, moments
    seen = {}

    def measured_backward(loss):
        seen["forward"] = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        backward(loss)
        seen["peak"] = tracemalloc.get_traced_memory()[1]

    monkeypatch.setattr(training, "backward", measured_backward)
    tracemalloc.start()
    try:
        trainer.train_step()
    finally:
        tracemalloc.stop()
    assert seen["forward"] > 0
    assert seen["peak"] <= 1.2 * seen["forward"], seen
    assert all(p.grad is None for p in trainer.opt.params)  # applied, then freed


def test_train_step_tape_holds_only_what_backward_reads(monkeypatch):
    # traced bytes allocated between entering the forward and entering
    # backward, on the second step: a tape whose nodes linked every parent
    # Tensor, and so kept its array, held 522.6 kB here; this one 341.2 kB
    trainer = Trainer(CONFIG)
    trainer.train_step()
    live = {}
    forward, sweep = training.denoiser_forward, training.backward

    def measured_forward(*args, **kwargs):
        live["forward"] = tracemalloc.get_traced_memory()[0]
        return forward(*args, **kwargs)

    def measured_backward(loss):
        live["backward"] = tracemalloc.get_traced_memory()[0]
        sweep(loss)

    monkeypatch.setattr(training, "denoiser_forward", measured_forward)
    monkeypatch.setattr(training, "backward", measured_backward)
    tracemalloc.start()
    try:
        trainer.train_step()
    finally:
        tracemalloc.stop()
    assert live["backward"] - live["forward"] <= 380_000, live


def _libc_has_mallopt() -> bool:
    try:
        return hasattr(ctypes.CDLL(None), "mallopt")
    except (OSError, TypeError):
        return False


@pytest.mark.skipif(not _libc_has_mallopt(), reason="the C library has no mallopt (not glibc)")
def test_warmed_up_train_steps_reuse_the_freed_heap():
    # minor page faults of steps 7-10 of a fresh default-config Trainer, on a
    # 2-vCPU x86 VM with glibc 2.36: 3,274-6,014 in 8 runs when glibc gave the
    # freed heap back to the kernel after every step, 15-476 in 18 runs with
    # the thresholds tensor.py sets at import (the heap's top still grows now
    # and then while fragmentation settles; the median step takes 2)
    resource = pytest.importorskip("resource")
    trainer = Trainer(training.TrainerConfig())
    for _ in range(6):
        trainer.train_step()
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    for _ in range(4):
        trainer.train_step()
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before
    assert faults < 1_500, faults
