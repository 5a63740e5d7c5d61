"""Tensor and autodiff checks against independent oracles."""

import inspect
import itertools
import math
import os
import subprocess
import sys
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import hybridlm.quant as Q
import hybridlm.tensor as T
from hybridlm.errors import ConfigError, ContractError, NumericInputError, ShapeError, TokenIndexError


def _rand(shape, seed, std=1.0):
    rng = np.random.default_rng(seed)
    return (rng.standard_normal(shape) * std).astype(np.float32)


# ---------------------------------------------------------------------------
# matmul
# ---------------------------------------------------------------------------


def test_matmul_identity():
    a = T.Tensor([[1.0, 2.0], [3.0, 4.0]])
    eye = T.Tensor(np.eye(2, dtype=np.float32))
    out = T.matmul(a, eye)
    assert np.array_equal(out.data, a.data)


def test_matmul_orthogonal_supports():
    a = T.Tensor([[1.0, 0.0], [0.0, 0.0]])
    b = T.Tensor([[0.0, 0.0], [0.0, 1.0]])
    assert np.array_equal(T.matmul(a, b).data, np.zeros((2, 2), np.float32))


def test_matmul_matches_triple_loop_oracle_exactly():
    a = _rand((3, 4), 1)
    b = _rand((4, 5), 2)
    out = T.matmul(T.Tensor(a), T.Tensor(b))
    assert np.array_equal(out.data, T.matmul_oracle(a, b))


def test_matmul_oracle_exactness_larger():
    # same check at a size where BLAS blocking would definitely diverge
    a = _rand((33, 47), 3)
    b = _rand((47, 29), 4)
    assert np.array_equal(T.matmul_exact(a, b), T.matmul_oracle(a, b))


def test_matmul_shape_error_names_both_shapes():
    with pytest.raises(ShapeError) as ei:
        T.matmul(T.Tensor(np.zeros((2, 3), np.float32)), T.Tensor(np.zeros((4, 2), np.float32)))
    assert "(2, 3)" in str(ei.value) and "(4, 2)" in str(ei.value)


@pytest.mark.parametrize("a_shape,b_shape", [((3, 4), (5, 6)), ((4,), (4, 2)), ((2, 4), (4,)), ((1, 2, 4), (4, 2))])
def test_matmul_exact_rejects_bad_shapes(a_shape, b_shape):
    with pytest.raises(ShapeError) as ei:
        T.matmul_exact(np.ones(a_shape, np.float32), np.ones(b_shape, np.float32))
    assert str(a_shape) in str(ei.value) and str(b_shape) in str(ei.value)


@pytest.mark.parametrize("dtype", [np.int64, np.int8, np.float16])
def test_matmul_exact_casts_other_dtypes_to_float32(dtype):
    a = (_rand((5, 7), 11) * 4).astype(dtype)
    b = (_rand((7, 3), 12) * 4).astype(dtype)
    out = T.matmul_exact(a, b)
    assert out.dtype == np.float32
    assert np.array_equal(out, T.matmul_oracle(a.astype(np.float32), b.astype(np.float32)))


def _assert_same_bits(x, y, dtype=np.float32):
    """Equal bit for bit, except that any NaN matches any NaN."""
    assert x.shape == y.shape and x.dtype == y.dtype == dtype
    assert np.array_equal(np.isnan(x), np.isnan(y))
    keep = ~np.isnan(x)
    assert x[keep].tobytes() == y[keep].tobytes()


def _sequential_sum(a, b):
    """matmul_oracle's rounding sequence vectorized over the output, for shapes too large for its
    scalar loop: start from +0, then for k = 0, 1, ... add the float32 products a[:, k] b[k, :]."""
    out = np.zeros((a.shape[0], b.shape[1]), np.float32)
    for k in range(a.shape[1]):
        out = out + np.multiply.outer(a[:, k], b[k])
    return out


def _transposed_layout(x):
    """``x``'s values, held as the transpose of a C-contiguous array."""
    return np.ascontiguousarray(x.T).T


def test_kernel_matches_oracle_on_edge_shapes():
    # m covers the 6- and 12-row tiles and their leftovers; n covers the
    # 16-, 32- and 64-column panels and their zero-padded tails; k = 300
    # spans three 128-deep blocks that resume from the stored partial sums;
    # any of m, k, n may be 0. Each operand also arrives as a transposed view.
    for m, k, n in itertools.product((0, 1, 5, 6, 7, 11, 12, 13, 25), (0, 1, 17, 300),
                                     (0, 1, 31, 32, 33, 63, 64, 65, 129)):
        a, b = _rand((m, k), m * 1000 + k), _rand((k, n), k * 1000 + n)
        want = _sequential_sum(a, b)
        at, bt = _transposed_layout(a), _transposed_layout(b)
        for x, y in ((a, b), (at, b), (a, bt), (at, bt)):
            _assert_same_bits(T.matmul_exact(x, y), want)
    a, b = _rand((13, 17), 1), _rand((17, 65), 2)  # the vectorized sum is the oracle's
    _assert_same_bits(_sequential_sum(a, b), T.matmul_oracle(a, b))


def test_kernel_matches_oracle_on_views():
    big, big2 = _rand((12, 40), 21), _rand((20, 40), 22)
    views = [
        (big[1:8, 3:20], big2[2:19, 5:38]),  # offset slices
        (big[:9, :17].T, big2[:9, 4:25]),  # transposed
        (big[::-2, ::3], big2[13::-1, ::-2]),  # negative and non-unit strides
    ]
    for a, b in views:
        _assert_same_bits(T.matmul_exact(a, b), T.matmul_oracle(np.ascontiguousarray(a), np.ascontiguousarray(b)))


def test_kernel_keeps_subnormals():
    tiny = np.finfo(np.float32).tiny
    a = _rand((6, 9), 31) * np.float32(1e-20)  # products of normals land below tiny
    b = _rand((9, 35), 32) * np.float32(1e-20)
    a[0] = _rand(9, 33) * np.float32(tiny / 8)  # subnormal operands
    out = T.matmul_exact(a, b)
    _assert_same_bits(out, T.matmul_oracle(a, b))
    assert np.any((out != 0) & (np.abs(out) < tiny))  # flush-to-zero would fail here
    _assert_same_bits(T.matmul_exact(np.full((5, 1), tiny / 4, np.float32), np.full((1, 17), 2.0, np.float32)),
                      np.full((5, 17), tiny / 2, np.float32))


def test_kernel_signed_zeros():
    a = np.array([[-0.0, -0.0], [-0.0, 0.0], [1.0, -1.0], [-1.0, 0.0], [0.0, 0.0]], np.float32)
    b = np.array([[1.0, -1.0, 0.0, -0.0, 2.0], [1.0, 1.0, -0.0, -0.0, -2.0]], np.float32)
    out = T.matmul_exact(a, b)
    _assert_same_bits(out, T.matmul_oracle(a, b))
    assert not np.any(np.signbit(out[out == 0]))  # accumulation starts from +0


def test_kernel_propagates_inf_and_nan():
    big = np.finfo(np.float32).max
    a = _rand((7, 5), 41)
    b = _rand((5, 19), 42)
    a[0, 1], a[1, 2], a[2, 3], a[3, 0] = np.inf, -np.inf, np.nan, big
    b[1, 4], b[2, 5], b[0, 6] = 0.0, np.inf, big  # inf*0, inf-inf, overflow
    with np.errstate(all="ignore"):
        out, want = T.matmul_exact(a, b), T.matmul_oracle(a, b)
    _assert_same_bits(out, want)
    assert np.isnan(out).any() and np.isinf(out).any()


@st.composite
def _operand(draw, shape):
    """A float32 array of ``shape``: C-contiguous, a transposed view, or a strided slice of a larger one."""
    elems = st.floats(width=32, allow_nan=True, allow_infinity=True, allow_subnormal=True)
    kind = draw(st.sampled_from(["contiguous", "transposed", "sliced"]))
    if kind == "contiguous":
        return draw(hnp.arrays(np.float32, shape, elements=elems))
    if kind == "transposed":
        return draw(hnp.arrays(np.float32, shape[::-1], elements=elems)).T
    step = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    base = draw(hnp.arrays(np.float32, (shape[0] * step[0] + 1, shape[1] * step[1] + 2), elements=elems))
    return base[1 : 1 + shape[0] * step[0] : step[0], 2 : 2 + shape[1] * step[1] : step[1]]


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_kernel_matches_oracle_property(data):
    # up to 14 rows and 70 columns: tails of both tile heights and of the 64-column panel
    m, k, n = data.draw(st.integers(0, 14)), data.draw(st.integers(0, 12)), data.draw(st.integers(0, 70))
    a, b = data.draw(_operand((m, k))), data.draw(_operand((k, n)))
    with np.errstate(all="ignore"):
        _assert_same_bits(T.matmul_exact(a, b), T.matmul_oracle(a, b))


def test_matmul_exact_hands_views_to_the_kernel_without_copies():
    seen, kernel = [], T._mm_kernel

    def spy(a, b, out):
        seen.append((a, b))
        return kernel(a, b, out)

    x, w, g = _rand((7, 5), 61), _rand((9, 5), 62), _rand((7, 9), 63)
    with mock.patch.object(T, "_mm_kernel", spy):
        for a, b in ((x, w.T), (x.T, g), (x[1:6:2, ::2], w[::3, ::2].T)):  # ABᵀ, AᵀB, strided slices
            _assert_same_bits(T.matmul_exact(a, b), T.matmul_oracle(a, b))
            assert np.shares_memory(seen[-1][0], a) and np.shares_memory(seen[-1][1], b)
        # a negative stride is copied, and still matches the oracle
        a = x[::-1]
        _assert_same_bits(T.matmul_exact(a, w.T), T.matmul_oracle(a, w.T))
        assert not np.shares_memory(seen[-1][0], x) and seen[-1][0].flags.c_contiguous
        assert np.shares_memory(seen[-1][1], w)


def test_kernels_agree_at_256x512x512():
    a, b = _rand((256, 512), 51), _rand((512, 512), 52)
    _assert_same_bits(T._mm_kernel(a, b, np.zeros((256, 512), np.float32)), _sequential_sum(a, b))


def test_kernel_overwrites_its_output():
    # matmul_exact hands the kernel an uninitialised output; with k = 0 the kernel writes +0 itself
    nvfp4 = (Q._qdq(_rand((13, 300), 64), Q.Format.NVFP4, 1), Q._qdq(_rand((300, 65), 65), Q.Format.NVFP4, 0))
    for a, b in ((_rand((5, 0), 1), _rand((0, 17), 2)), (_rand((13, 300), 3), _rand((300, 65), 4)), nvfp4):
        for fill in (np.nan, -0.0):
            out = np.full((a.shape[0], b.shape[1]), fill, np.float32)
            _assert_same_bits(T._mm_kernel(a, b, out), _sequential_sum(a, b))
    assert T.matmul_exact(np.ones((4, 0), np.float32), np.ones((0, 3), np.float32)).tobytes() == bytes(48)


# Where every product a[i,k] b[k,j] is exact in float32, the kernel runs a
# body compiled with fused multiply-adds, which then round as the separate
# product and sum do. _products_exact is its guard, as the loader typed it
# in the GEMM's library. Each case below rounds differently under a fused
# multiply-add, so the guard must refuse it.


def _products_exact(a, b):
    """The kernel's guard: whether it runs ``a @ b`` in its fused body."""
    a, b = T._kernel_operand(a), T._kernel_operand(b)
    return bool(T._MM_LIBRARY.mm_products_exact(*T._ptrs(a, b), a.shape[0], a.shape[1], b.shape[1],
                                                 *(s // 4 for s in a.strides + b.strides)))


def _fused_sum(a, b):
    """The oracle's sequence with each step one fused multiply-add, exact in float64 for the cases below."""
    out = np.zeros((a.shape[0], b.shape[1]), np.float32)
    for k in range(a.shape[1]):
        out = (out + np.multiply.outer(a[:, k].astype(np.float64), b[k])).astype(np.float32)
    return out


def _p2(e, significand=1.0):
    return np.float32(math.ldexp(significand, e))


FMA_ROUNDS_DIFFERENTLY = {
    # (1 + 2^-12)^2 - 1: a 13-bit significand, whose square rounds
    "13_bit_significand": ([[-1.0, 1 + 2**-12]], [[1.0], [1 + 2**-12]]),
    # (1.5 + 2^-11)^2 2^-126 is odd on its grid, and the next product, just above half the subnormal
    # spacing, rounds up to a tie: min e(A) + min e(B) - 254 = -150
    "product_below_2^-126": ([[_p2(-63, 1.5 + 2**-11), _p2(-75, 1 + 2**-11)]], [[_p2(-63, 1.5 + 2**-11)], [_p2(-75)]]),
    # -2^127 + 2^128: the separate product overflows; max e(A) + max e(B) - 254 = 128
    "product_of_2^128": ([[-_p2(63), _p2(64)]], [[_p2(64)], [_p2(64)]]),
}


@pytest.mark.parametrize("case", FMA_ROUNDS_DIFFERENTLY)
def test_gemm_falls_back_where_a_fused_multiply_add_rounds_differently(case):
    a, b = (np.array(v, np.float32) for v in FMA_ROUNDS_DIFFERENTLY[case])
    with np.errstate(over="ignore"):
        want = T.matmul_oracle(a, b)
    assert _fused_sum(a, b).tobytes() != want.tobytes()
    assert not _products_exact(a, b)
    for x, y in ((a, b), (_transposed_layout(a), _transposed_layout(b))):
        _assert_same_bits(T.matmul_exact(x, y), want)


def test_gemm_guard_bounds():
    tiny, twelve = np.finfo(np.float32).tiny, 1 + 2**-11
    passes = {
        "12_bit_significands": ([[twelve, -3.0]], [[twelve], [0.5]]),
        "products_at_2^-126_and_below_2^128": ([[_p2(-63), _p2(63, 2 - 2**-11)]], [[_p2(-63)], [_p2(63, 2 - 2**-11)]]),
        "zero_a": ([[0.0, -0.0]], [[3.0], [_p2(127)]]),  # the exponent bounds hold for any b
        "zero_b": ([[_p2(-126), _p2(127)]], [[-0.0], [0.0]]),
    }
    fails = {
        "product_at_2^-127": ([[_p2(-64), 1.0]], [[_p2(-63)], [1.0]]),
        "product_at_2^127": ([[_p2(64), 1.0]], [[_p2(63)], [1.0]]),
        "subnormal": ([[tiny / 4, 1.0]], [[_p2(100)], [2.0]]),  # within the bounds, read as exponent 0
        "inf": ([[np.inf, 1.0]], [[1.0], [1.0]]),
        "nan": ([[1.0, 1.0]], [[np.nan], [1.0]]),
    }
    for cases, want in ((passes, True), (fails, False)):
        for name, (a, b) in cases.items():
            a, b = np.array(a, np.float32), np.array(b, np.float32)
            assert _products_exact(a, b) == want, name
            assert _products_exact(b.T, a.T) == want, name
            with np.errstate(all="ignore"):
                _assert_same_bits(T.matmul_exact(a, b), T.matmul_oracle(a, b))
    # the scan finds a failing element past the first row too
    a = np.ones((9, 40), np.float32)
    a[7, 33] = 1 + 2**-12
    assert not _products_exact(a, np.ones((40, 3), np.float32)) and _products_exact(a[:7], np.ones((40, 3), np.float32))


QUANTIZED_FORMATS = (Q.Format.NVFP4, Q.Format.NVFP4_2D, Q.Format.MXFP8)


@pytest.mark.parametrize("rht", [False, True], ids=["plain", "rht"])
@pytest.mark.parametrize("fmt", QUANTIZED_FORMATS, ids=lambda f: f.value)
def test_kernel_matches_oracle_on_quantized_operands(fmt, rht):
    # the operands quantized_linear hands the GEMM: each product is exact, so the fused body runs
    for m, k, n in itertools.product((1, 6, 7, 13, 25), (0, 1, 17, 300), (1, 32, 33, 65, 129)):
        a, b = _rand((m, k), m * 1000 + k, std=3.0), _rand((k, n), k * 1000 + n, std=0.01)
        if rht:
            a, b = Q._rht_pair(a, b, m + k + n)
        a, b = Q._qdq(a, fmt, 1), Q._qdq(b, fmt, 0)
        assert _products_exact(a, b)
        want = _sequential_sum(a, b)
        at, bt = _transposed_layout(a), _transposed_layout(b)
        for x, y in ((a, b), (at, b), (a, bt), (at, bt)):
            _assert_same_bits(T.matmul_exact(x, y), want)
    a, b = Q._qdq(_rand((7, 37), 66), fmt, 1), Q._qdq(_rand((37, 19), 67), fmt, 0)
    _assert_same_bits(T.matmul_exact(a, b), T.matmul_oracle(a, b))


def _twelve_bit(bits, e):
    """Zero where bits >> 16 is a multiple of 7, else +-(1 + j 2^-11) 2^(e + d) for d in [-2, 2] within
    float32's normal exponents, with the sign, j and d taken from ``bits``."""
    bits = bits.astype(np.int64)
    biased = np.clip(e + (bits >> 11) % 5 - 2, -126, 127) + 127
    x = ((bits >> 31) << 31 | biased << 23 | (bits & 0x7FF) << 12).astype(np.uint32).view(np.float32)
    return np.where((bits >> 16) % 7 == 0, np.float32(0), x)


@st.composite
def _operands_near_the_exponent_bounds(draw):
    """A (m, k) and B (k, n) of 12-bit significands, A's exponents near ea and B's near eb, with ea + eb
    within 3 of -126 or 126, so that some pairs pass the guard's exponent bounds and some fail them."""
    m, k, n = draw(st.integers(1, 13)), draw(st.integers(1, 12)), draw(st.integers(1, 40))
    bound = draw(st.sampled_from([-126, 126]))
    ea = draw(st.integers(-116, -10) if bound < 0 else st.integers(10, 116))
    eb = bound - ea + draw(st.integers(-3, 3))
    return _twelve_bit(draw(hnp.arrays(np.uint32, (m, k))), ea), _twelve_bit(draw(hnp.arrays(np.uint32, (k, n))), eb)


@settings(max_examples=150, deadline=None)
@given(operands=_operands_near_the_exponent_bounds())
def test_kernel_matches_oracle_on_12_bit_operands_near_the_exponent_bounds(operands):
    a, b = operands
    with np.errstate(all="ignore"):
        _assert_same_bits(T.matmul_exact(a, b), T.matmul_oracle(a, b))


QUANTIZED_RECIPES = {
    "nvfp4": Q.LinearPrecision(Q.Format.NVFP4, Q.Format.NVFP4_2D, Q.Format.NVFP4, seed=5),
    "nvfp4_1d_weight": Q.LinearPrecision(Q.Format.NVFP4, Q.Format.NVFP4, Q.Format.NVFP4, seed=6),
    "mxfp8": Q.LinearPrecision(Q.Format.MXFP8, Q.Format.MXFP8, Q.Format.MXFP8, seed=7),
    "reference": Q.REFERENCE_LINEAR,
}


@pytest.mark.parametrize("recipe", QUANTIZED_RECIPES)
def test_quantized_linear_gemms_take_the_fused_body(recipe):
    # forward, dgrad and wgrad: every quantized operand pair passes the guard, and no reference pair does
    seen = []

    def spy(a, b):
        seen.append(_products_exact(a, b))
        return T.matmul_exact(a, b)

    x, w = T.Tensor(_rand((64, 128), 68), requires_grad=True), T.Tensor(_rand((128, 96), 69, std=0.1), requires_grad=True)
    with mock.patch.object(Q, "matmul_exact", spy), T.Tape() as tape:
        y = Q.quantized_linear(x, w, QUANTIZED_RECIPES[recipe])
        T.backward(tape, T.sum_all(T.mul(y, T.Tensor(_rand((64, 96), 70)))))
    assert seen == [recipe != "reference"] * 3


# ---------------------------------------------------------------------------
# softmax
# ---------------------------------------------------------------------------


def test_softmax_uniform():
    out = T.softmax(T.Tensor([0.0, 0.0, 0.0, 0.0]), axis=0)
    assert np.allclose(out.data, 0.25, atol=1e-7)


def test_softmax_no_overflow():
    out = T.softmax(T.Tensor([1000.0, 0.0]), axis=0)
    assert np.isfinite(out.data).all()
    assert out.data[0] == pytest.approx(1.0, abs=1e-6)


def test_softmax_against_float64_oracle():
    x = np.array([1.0, 2.0, 3.0], np.float32)
    want = np.exp(x.astype(np.float64))
    want /= want.sum()
    got = T.softmax(T.Tensor(x), axis=0).data
    assert np.abs(got - want).max() < 1e-6


def test_softmax_sums_to_one_random():
    for seed in range(20):
        x = _rand((5, 9), seed, std=7.0)
        s = T.softmax(T.Tensor(x), axis=1).data.sum(axis=1)
        assert np.abs(s - 1.0).max() < 1e-6


def test_softmax_rejects_nonfinite():
    with pytest.raises(NumericInputError):
        T.softmax(T.Tensor(np.array([np.inf, 0.0], np.float32)), axis=0)


# ---------------------------------------------------------------------------
# rms_norm / silu
# ---------------------------------------------------------------------------


def test_rms_norm_ones():
    x = T.Tensor(np.ones((3, 8), np.float32))
    w = T.Tensor(np.ones(8, np.float32))
    out = T.rms_norm(x, w, eps=0.0)
    assert np.allclose(out.data, 1.0, atol=1e-7)


def test_rms_norm_zeros():
    out = T.rms_norm(T.zeros((2, 4)), T.ones(4), eps=1e-6)
    assert np.array_equal(out.data, np.zeros((2, 4), np.float32))


def test_rms_norm_output_rms_is_one():
    x = T.Tensor(_rand((1, 64), 7, std=3.0))
    out = T.rms_norm(x, T.ones(64)).data
    rms = math.sqrt(float(np.mean(out.astype(np.float64) ** 2)))
    assert abs(rms - 1.0) < 1e-4


def test_silu_values():
    assert T.silu(T.Tensor([0.0])).data[0] == 0.0
    assert T.silu(T.Tensor([40.0])).data[0] == pytest.approx(40.0, rel=1e-6)
    want = 1.0 / (1.0 + math.exp(-1.0))
    assert T.silu(T.Tensor([1.0])).data[0] == pytest.approx(want, abs=1e-6)


SIGMOID_FAMILY = {
    "sigmoid": (T.sigmoid, lambda z: 1.0 / (1.0 + np.exp(-z))),
    "silu": (T.silu, lambda z: z / (1.0 + np.exp(-z))),
    "softplus": (T.softplus, lambda z: np.logaddexp(0.0, z)),
}


@pytest.mark.parametrize("name", SIGMOID_FAMILY)
def test_sigmoid_family_against_float64(name):
    op, ref = SIGMOID_FAMILY[name]
    x = np.concatenate([np.linspace(-80.0, 80.0, 161), _rand((200,), 35, std=4.0)]).astype(np.float32)
    got = op(T.Tensor(x)).data
    assert got.dtype == np.float32
    want = ref(x.astype(np.float64))
    assert np.all(np.abs(got - want) <= 1e-6 * np.abs(want) + 1e-30)


@pytest.mark.parametrize("name", SIGMOID_FAMILY)
def test_grad_check_sigmoid_family(name):
    op = SIGMOID_FAMILY[name][0]
    w = T.Tensor(_rand((3, 5), 36))
    assert grad_check(lambda t: T.sum_all(T.mul(op(t), w)), T.Tensor(_rand((3, 5), 37, std=3.0))) < 1e-3


# ---------------------------------------------------------------------------
# cross entropy
# ---------------------------------------------------------------------------


def test_cross_entropy_one_hot():
    logits = np.zeros((2, 4), np.float32)
    logits[0, 1] = 1000.0
    logits[1, 2] = 1000.0
    loss = T.cross_entropy(T.Tensor(logits), np.array([1, 2]))
    assert loss.item() == pytest.approx(0.0, abs=1e-6)


def test_cross_entropy_uniform():
    loss = T.cross_entropy(T.Tensor(np.zeros((3, 4), np.float32)), np.array([0, 1, 3]))
    assert loss.item() == pytest.approx(math.log(4.0), abs=1e-6)


def test_cross_entropy_against_float64_oracle():
    logits = _rand((6, 11), 9, std=2.0)
    targets = np.random.default_rng(10).integers(0, 11, 6)
    z = logits.astype(np.float64)
    p = np.exp(z - z.max(axis=1, keepdims=True))
    p /= p.sum(axis=1, keepdims=True)
    want = -np.log(p[np.arange(6), targets]).mean()
    got = T.cross_entropy(T.Tensor(logits), targets).item()
    assert got == pytest.approx(want, abs=1e-5)


def test_cross_entropy_rejects_bad_target():
    with pytest.raises(TokenIndexError):
        T.cross_entropy(T.Tensor(np.zeros((2, 4), np.float32)), np.array([0, 4]))


# ---------------------------------------------------------------------------
# backward mechanics
# ---------------------------------------------------------------------------


def test_backward_sum_gives_ones():
    x = T.Tensor(_rand((3, 4), 11), requires_grad=True)
    with T.Tape() as tape:
        loss = T.sum_all(x)
    T.backward(tape, loss)
    assert np.array_equal(x.grad, np.ones((3, 4), np.float32))


def test_backward_product_rule():
    x = T.Tensor([2.0], requires_grad=True)
    y = T.Tensor([3.0], requires_grad=True)
    with T.Tape() as tape:
        loss = T.sum_all(T.mul(x, y))
    T.backward(tape, loss)
    assert x.grad[0] == 3.0 and y.grad[0] == 2.0


def test_backward_fanout_accumulates():
    x = T.Tensor([5.0], requires_grad=True)
    with T.Tape() as tape:
        loss = T.sum_all(T.add(x, x))
    T.backward(tape, loss)
    assert x.grad[0] == 2.0


def test_backward_twice_over_one_tape_adds_the_gradient_twice():
    x = T.Tensor([1.0, 2.0], requires_grad=True)
    with T.Tape() as tape:
        y = T.scale(x, 3.0)
        loss = T.sum_all(T.mul(y, y))
    T.backward(tape, loss)
    assert x.grad.tolist() == [18.0, 36.0]
    assert y.grad is None and loss.grad is None  # only leaves keep a gradient
    T.backward(tape, loss)
    assert x.grad.tolist() == [36.0, 72.0]


def test_backward_gives_each_leaf_its_own_gradient_array():
    # add, reshape and concat_cols hand out views of their upstream gradient
    x, y, z = (T.Tensor(_rand((2, 3), s), requires_grad=True) for s in (60, 61, 62))
    with T.Tape() as tape:
        both = T.concat_cols([T.add(x, y), T.reshape(T.reshape(z, (3, 2)), (2, 3)), x])
        loss = T.sum_all(T.mul(both, T.Tensor(_rand((2, 9), 63))))
    T.backward(tape, loss)
    grads = [x.grad, y.grad, z.grad]
    assert not any(np.may_share_memory(a, b) for a, b in itertools.combinations(grads, 2))


def test_import_keeps_freed_heap_for_reuse():
    # 32 live arrays of 1 MiB, freed, then again: with glibc's default thresholds each
    # array is its own mapping, unmapped when freed, and every page faults in again
    script = ("import resource, numpy as np, hybridlm.tensor\n"
              "def faults():\n"
              "    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt\n"
              "    arrays = [np.ones(1 << 17) for _ in range(32)]\n"
              "    del arrays\n"
              "    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before\n"
              "print(faults(), faults())\n")
    env = dict(os.environ, PYTHONPATH=str(Path(T.__file__).parents[1]))
    result = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120,
                            check=True)
    first, second = map(int, result.stdout.split())
    assert first >= 32 * 256 * 0.9  # every page of the first round is new
    assert second < 0.05 * first


def test_backward_requires_scalar_loss():
    x = T.Tensor(_rand((2, 2), 12), requires_grad=True)
    with T.Tape() as tape:
        y = T.add(x, x)
    with pytest.raises(ContractError):
        T.backward(tape, y)


def test_no_recording_without_tape():
    x = T.Tensor(_rand((2, 2), 13), requires_grad=True)
    y = T.silu(x)
    assert y.requires_grad  # flag propagates
    tape = T.Tape()
    assert len(tape) == 0


class _ContractTape(T.Tape):
    """A tape whose closures get a read-only ``dout`` and whose gradients are checked against
    the closure contract: each shares memory with ``dout`` or with no tensor's data or grad."""

    def __init__(self):
        super().__init__()
        self.tensors, self.ran, self.broken = [], set(), []

    def record(self, out, inputs, backward):
        self.tensors += [out, *inputs]
        name = backward.__qualname__.split(".", 1)[0]

        def checked(dout):
            dout.flags.writeable = False  # a closure that writes into dout raises
            grads = backward(dout)
            self.ran.add(name)
            arrays = [a for t in self.tensors for a in (t.data, t.grad) if a is not None]
            for g in grads:
                values = g[1] if isinstance(g, tuple) else g
                if g is not None and not np.may_share_memory(values, dout) and any(
                        np.may_share_memory(values, a) for a in arrays):
                    self.broken.append(name)
            # the sweep accumulates in place, which read-only views of dout would refuse
            return tuple(None if g is None else (g[0], g[1].copy()) if isinstance(g, tuple) else g.copy()
                         for g in grads)

        super().record(out, inputs, checked)


def test_every_closure_leaves_dout_alone_and_returns_unshared_gradients():
    rng = np.random.default_rng(64)

    def leaf(*shape):
        return T.Tensor((rng.standard_normal(shape) * 0.4).astype(np.float32), requires_grad=True)

    emb, norm_w, w = leaf(10, 8), leaf(8), leaf(8, 8)
    conv_w, conv_b, a_log, d_skip = leaf(4, 8), leaf(8), leaf(2), leaf(2)
    recipes = (Q.REFERENCE_LINEAR, Q.LinearPrecision(Q.Format.NVFP4, Q.Format.NVFP4_2D, Q.Format.NVFP4, seed=5),
               Q.LinearPrecision(Q.Format.MXFP8, Q.Format.MXFP8, Q.Format.MXFP8, seed=5))
    with _ContractTape() as tape:
        h = T.rms_norm(T.embedding(emb, rng.integers(0, 10, 6)), norm_w)
        for prec in recipes:
            h = Q.quantized_linear(h, w, prec)
        conv = T.silu(T.causal_conv1d(h, conv_w, conv_b))
        y, _ = T.mamba_scan(T.reshape(T.slice_cols(conv, 0, 4), (6, 2, 2)), T.softplus(T.slice_cols(h, 4, 6)),
                            T.scale(T.exp(a_log), -1.0), T.slice_cols(h, 0, 3), T.slice_cols(h, 3, 6), d_skip)
        y = T.reshape(y, (6, 4))
        v = T.matmul(T.causal_softmax(T.matmul(y, T.transpose2d(y))), y)
        s = T.sigmoid(v)
        probs = T.softmax(T.concat_cols([v, T.sub(T.clamp(s, 0.2, 0.8), s)]))
        gate = T.gather_cols(probs, np.argsort(-probs.data, axis=1)[:, :2])
        mixed = T.mul(T.add(probs, T.scatter_rows(T.take_rows(probs, [0, 2, 2]), [1, 1, 3], 6)), h)
        loss = T.add(T.cross_entropy(mixed, rng.integers(0, 8, 6)),
                     T.add(T.mean_all(gate), T.sum_all(T.take_elems(gate, [0, 0, 5], [1, 1, 0]))))
    T.backward(tape, loss)
    recorded = {name for name, f in vars(T).items() if inspect.isfunction(f) and "_make" in f.__code__.co_names}
    assert tape.ran == recorded | {"quantized_linear"}
    assert tape.broken == []


# ---------------------------------------------------------------------------
# grad_check
# ---------------------------------------------------------------------------


def grad_check(f, x, eps=1e-3):
    """Max relative error between autodiff and central differences.

    The autodiff gradient is computed at float32, as the model runs. The
    difference quotient (f(x+eps*e_i) - f(x-eps*e_i)) / 2eps is evaluated
    with the network carried in float64, the same oracle precision used
    elsewhere; float32 forward evaluations are too noisy for a
    per-coordinate comparison. Coordinates where both gradients are below
    1e-6 in magnitude are compared absolutely instead of relatively.
    """
    xg = T.Tensor(np.array(x.data, np.float32, copy=True), requires_grad=True)
    with T.Tape() as tape:
        out = f(xg)
    if out.data.size != 1:
        raise ContractError("grad_check requires a scalar-valued function")
    T.backward(tape, out)
    g_ad = xg.grad if xg.grad is not None else np.zeros_like(xg.data)

    base = x.data.astype(np.float64)
    flat = base.reshape(-1)
    fd = np.zeros(flat.size, np.float64)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + eps
        fp = f(T.Tensor(base.reshape(x.shape))).item()
        flat[i] = orig - eps
        fm = f(T.Tensor(base.reshape(x.shape))).item()
        flat[i] = orig
        fd[i] = (fp - fm) / (2.0 * eps)

    fd = fd.reshape(x.shape)
    ad = g_ad.astype(np.float64)
    mag = np.maximum(np.abs(fd), np.abs(ad))
    err = np.where(mag < 1e-6, np.abs(fd - ad), np.abs(fd - ad) / np.maximum(mag, 1e-300))
    return float(err.max()) if err.size else 0.0


def test_grad_check_sum_of_squares():
    x = T.Tensor(_rand((4, 5), 14))
    err = grad_check(lambda t: T.sum_all(T.mul(t, t)), x)
    assert err < 1e-4


def test_grad_check_two_layer_mlp_cross_entropy():
    w1 = T.Tensor(_rand((6, 16), 15, std=0.5))
    w2 = T.Tensor(_rand((16, 10), 16, std=0.5))
    targets = np.random.default_rng(17).integers(0, 10, 5)
    x0 = T.Tensor(_rand((5, 6), 18))

    def f(x):
        h = T.silu(T.matmul(x, w1))
        return T.cross_entropy(T.matmul(h, w2), targets)

    assert grad_check(f, x0) < 1e-3


def test_grad_check_constant_function():
    x = T.Tensor(_rand((3,), 19))
    err = grad_check(lambda t: T.sum_all(T.mul(t, T.zeros(t.shape))), x)
    assert err == 0.0


# ---------------------------------------------------------------------------
# structural ops
# ---------------------------------------------------------------------------


def test_slice_concat_roundtrip_and_grads():
    x = T.Tensor(_rand((4, 10), 20), requires_grad=True)
    with T.Tape() as tape:
        left = T.slice_cols(x, 0, 3)
        right = T.slice_cols(x, 3, 10)
        back = T.concat_cols([left, right])
        loss = T.sum_all(back)
    assert np.array_equal(back.data, x.data)
    T.backward(tape, loss)
    assert np.array_equal(x.grad, np.ones_like(x.data))


def test_gather_scatter_rows_grads():
    x = T.Tensor(_rand((5, 3), 21), requires_grad=True)
    idx = np.array([0, 2, 2])
    with T.Tape() as tape:
        rows = T.take_rows(x, idx)
        out = T.scatter_rows(rows, idx, 5)
        loss = T.sum_all(out)
    T.backward(tape, loss)
    # row 2 gathered twice -> gradient 2, rows 1,3,4 untouched -> 0
    want = np.zeros((5, 3), np.float32)
    want[0] = 1.0
    want[2] = 2.0
    assert np.array_equal(x.grad, want)


# Index ops against a Python loop oracle, forward and backward, bit for bit.
# Many repeated indices make the float32 sums order-dependent; the oracle adds
# in index order, as np.add.at does.


def _fwd_bwd(op, x, *args):
    """Output, input gradient and upstream gradient of ``op(x, *args)``."""
    xt = T.Tensor(x, requires_grad=True)
    with T.Tape() as tape:
        y = op(xt, *args)
        g = _rand(y.shape, 99)
        T.backward(tape, T.sum_all(T.mul(y, T.Tensor(g))))
    return y.data, xt.grad, g


@pytest.mark.parametrize("op", [T.take_rows, T.embedding])
def test_row_gather_matches_loop_oracle(op):
    x, idx = _rand((6, 5), 40), np.random.default_rng(40).integers(0, 6, 24)
    out, dx, g = _fwd_bwd(op, x, idx)
    want_dx = np.zeros_like(x)
    for i, r in enumerate(idx):
        want_dx[r] = want_dx[r] + g[i]
    _assert_same_bits(out, np.stack([x[r] for r in idx]))
    _assert_same_bits(dx, want_dx)


def test_rows_gathered_twice_match_loop_oracle():
    # the stack embeds ids[:t] and, for multi-token prediction, ids[1:t+1] from one table
    x, rng = _rand((6, 5), 44), np.random.default_rng(44)
    first, second = rng.integers(0, 6, 24), rng.integers(0, 6, 24)
    g1, g2 = _rand((24, 5), 45), _rand((24, 5), 46)
    xt = T.Tensor(x, requires_grad=True)
    with T.Tape() as tape:
        loss = T.add(T.sum_all(T.mul(T.embedding(xt, first), T.Tensor(g1))),
                     T.sum_all(T.mul(T.embedding(xt, second), T.Tensor(g2))))
    T.backward(tape, loss)
    sums = []
    for idx, g in ((second, g2), (first, g1)):  # the sweep meets the later gather first
        want = np.zeros_like(x)
        for i, r in enumerate(idx):
            want[r] = want[r] + g[i]
        sums.append(want)
    _assert_same_bits(xt.grad, sums[0] + sums[1])


def test_overlapping_column_slices_match_the_dense_formula():
    x = T.Tensor(_rand((4, 10), 47), requires_grad=True)
    spans = [(0, 6), (4, 10), (2, 5)]
    g0, gs = _rand((4, 10), 48), [_rand((4, b - a), 49 + i) for i, (a, b) in enumerate(spans)]
    # column 2: -0.0 from the direct use and from the slices [0, 6) and [2, 5), outside [4, 10)
    g0[:, 2] = gs[0][:, 2] = gs[2][:, 0] = -0.0
    with T.Tape() as tape:
        loss = T.sum_all(T.mul(x, T.Tensor(g0)))
        for (a, b), g in zip(spans, gs):
            loss = T.add(loss, T.sum_all(T.mul(T.slice_cols(x, a, b), T.Tensor(g))))
    T.backward(tape, loss)
    # the dense formula the sweep replaced: a zero-filled gradient per slice, added
    # in reverse recording order, then the direct use
    dense = []
    for (a, b), g in zip(spans, gs):
        dx = np.zeros_like(x.data)
        dx[:, a:b] = g
        dense.append(dx)
    want = dense[2] + dense[1] + dense[0] + g0
    # The one permitted difference is the sign of a zero: the dense formula adds
    # +0.0 outside each later slice's columns, which turns a -0.0 into +0.0.
    assert np.array_equal(x.grad, want)  # value equality: +0.0 == -0.0, nonzero bits equal
    assert np.signbit(x.grad[:, 2]).all() and not np.signbit(want[:, 2]).any()


def test_gather_cols_matches_loop_oracle():
    x, idx = _rand((4, 6), 41), np.random.default_rng(41).integers(0, 6, (4, 10))
    out, dx, g = _fwd_bwd(T.gather_cols, x, idx)
    want, want_dx = np.zeros(idx.shape, np.float32), np.zeros_like(x)
    for t, k in itertools.product(range(idx.shape[0]), range(idx.shape[1])):
        want[t, k] = x[t, idx[t, k]]
        want_dx[t, idx[t, k]] = want_dx[t, idx[t, k]] + g[t, k]
    _assert_same_bits(out, want)
    _assert_same_bits(dx, want_dx)


def test_take_elems_matches_loop_oracle():
    rng = np.random.default_rng(42)
    x, rows, cols = _rand((5, 4), 42), rng.integers(0, 3, 30), rng.integers(0, 2, 30)
    out, dx, g = _fwd_bwd(T.take_elems, x, rows, cols)
    want_dx = np.zeros_like(x)
    for i, (r, c) in enumerate(zip(rows, cols)):
        want_dx[r, c] = want_dx[r, c] + g[i]
    _assert_same_bits(out, np.array([x[r, c] for r, c in zip(rows, cols)], np.float32))
    _assert_same_bits(dx, want_dx)


def test_scatter_rows_matches_loop_oracle():
    vals, idx = _rand((24, 3), 43), np.random.default_rng(43).integers(0, 5, 24)
    out, dvals, g = _fwd_bwd(T.scatter_rows, vals, idx, 6)
    want = np.zeros((6, 3), np.float32)
    for i, r in enumerate(idx):
        want[r] = want[r] + vals[i]
    _assert_same_bits(out, want)
    _assert_same_bits(dvals, np.stack([g[r] for r in idx]))


def test_causal_conv1d_matches_manual():
    x = _rand((6, 3), 22)
    w = _rand((4, 3), 23)
    b = _rand((3,), 24)
    out = T.causal_conv1d(T.Tensor(x), T.Tensor(w), T.Tensor(b)).data
    xp = np.concatenate([np.zeros((3, 3), np.float32), x], axis=0)
    want = np.empty_like(out)
    for t in range(6):
        for c in range(3):
            acc = b[c]  # the bias, then each tap's float32 product in increasing tau
            for tau in range(4):
                acc = np.float32(acc + np.float32(w[tau, c] * xp[t + tau, c]))
            want[t, c] = acc
    _assert_same_bits(out, want)


# rms_norm, causal_conv1d, causal_softmax (around numpy's exp) and the index
# scatter-add run in C and keep the bits of the numpy code they replaced, which
# stays here as their oracle. That code follows these rules of numpy 2.4.6:
# - Along a row (sum(axis=-1), mean): +0 plus numpy's pairwise sum of the row,
#   8 partial sums per block of up to 128 values, added as
#   ((r0 + r1) + (r2 + r3)) + ((r4 + r5) + (r6 + r7)), then the rest one by one;
#   a longer row splits at n / 2 rounded down to a multiple of 8.
# - mean: that sum divided by the count, an intp, in float64, then rounded.
# - Down the rows (sum(axis=0)) of a C-contiguous matrix: each column in row
#   order from +0. A single column is contiguous, so it is summed pairwise.
# - ``r ** 3`` is numpy's power, which rounds as neither powf nor r * r * r.
# - np.add.at adds repeated indices in index order.
# - The conv keeps the products of its zero padding, so a -0 bias stays -0
#   only where every product is -0, and an infinite weight makes a NaN there.


def _rms_norm_numpy(x, w, dout, eps=1e-6):
    """rms_norm's numpy body: the output, dx and dw."""
    d = x.shape[-1]
    r = (1.0 / np.sqrt(np.mean(np.square(x), axis=-1, keepdims=True) + eps)).astype(x.dtype)
    xn = x * r
    inner = (dout * w * x).sum(axis=-1, keepdims=True)
    dx = dout * w * r - x * (r ** 3) * inner / d
    return xn * w, dx, (dout * xn).reshape(-1, d).sum(axis=0)


def _causal_softmax_numpy(z, dout):
    """causal_softmax's numpy body: the output and the gradient of the scores."""
    mask = np.tril(np.ones(z.shape, dtype=bool))
    zmax = np.where(mask, z, -np.inf).max(axis=1, keepdims=True)
    e = np.exp(np.where(mask, z, zmax) - zmax) * mask
    y = e / e.sum(axis=1, keepdims=True)
    inner = (dout * y).sum(axis=1, keepdims=True)
    return y, y * (dout - inner)


def _causal_conv1d_numpy(x, w, bias, dout):
    """causal_conv1d's numpy body: the output, dx, dw and db."""
    t, c = x.shape
    k = w.shape[0]
    xp = np.concatenate([np.zeros((k - 1, c), x.dtype), x], axis=0)
    out = np.broadcast_to(bias, (t, c)).copy()
    for tau in range(k):
        out += w[tau] * xp[tau : tau + t]
    dx, dw = np.zeros_like(xp), np.zeros_like(w)
    for tau in range(k):
        dw[tau] = (dout * xp[tau : tau + t]).sum(axis=0)
        dx[tau : tau + t] += dout * w[tau]
    return out, dx[k - 1 :], dw, dout.sum(axis=0)


WIDTHS = (1, 5, 13, 32, 129, 256, 300, 1000)
DTYPES = (np.float32, np.float64)
# (shape of x, dtype, with -0, inf and NaN entries); 300 rows of one column split the pairwise sum down them
RMS_NORM_CASES = ([((37, d), dtype, False) for d in WIDTHS for dtype in DTYPES]
                  + [((300, 1), dtype, False) for dtype in DTYPES]
                  + [((3, 7, 13), dtype, False) for dtype in DTYPES]
                  + [((37, d), dtype, True) for d in (1, 32) for dtype in DTYPES])
# (t, c, k, dtype, with a -0 bias, infinite weights and NaN, inf and -0 inputs)
CONV_CASES = ([(37, c, 4, dtype, False) for c in WIDTHS for dtype in DTYPES]
              + [(300, 1, 4, dtype, False) for dtype in DTYPES]
              + [(3, c, 6, dtype, False) for c in (1, 13) for dtype in DTYPES]
              + [(37, c, 4, dtype, True) for c in (1, 13) for dtype in DTYPES])
# (t, dtype, with +-inf, NaN, huge and -0 scores on both sides of the diagonal and -0 in the upstream gradient)
SOFTMAX_CASES = [(t, dtype, special) for t in (1, 2, 17, 128, 129, 256, 300) for dtype in DTYPES
                 for special in (False, True)]


def _special(a, rng, values):
    """``a`` with each of ``values`` written at a few random entries."""
    for v in values:
        a.reshape(-1)[rng.integers(0, a.size, 3)] = v
    return a


def _rms_norm_inputs(shape, dtype, special):
    """x, weight and the upstream gradient for an RMS_NORM_CASES entry."""
    rng = np.random.default_rng(sum(shape))
    x, w, dout = ((rng.standard_normal(s) * 3).astype(dtype) for s in (shape, shape[-1:], shape))
    if special:
        x[0], x[1], dout[2] = -0.0, 0.0, -0.0  # whole rows of zeros, of either sign
        _special(x, rng, (-0.0, np.inf, np.nan))
        _special(dout, rng, (-0.0, -np.inf))
    return x, w, dout


def _conv_inputs(t, c, k, dtype, special):
    """x, w, bias and the upstream gradient for a CONV_CASES entry."""
    rng = np.random.default_rng(t + c + k)
    x, w, bias, dout = (rng.standard_normal(s).astype(dtype) for s in ((t, c), (k, c), (c,), (t, c)))
    if special:
        bias[:] = -0.0
        w[0, 0], w[1, -1] = np.inf, -np.inf  # times the zero padding: NaN
        x[5, 0], x[9, 0], x[20, -1] = -0.0, np.nan, np.inf
        dout[0, -1], dout[8, 0] = np.inf, -0.0  # the first row meets the padding in dw
    return x, w, bias, dout


def _softmax_inputs(t, dtype, special):
    """Scores and the upstream gradient for a SOFTMAX_CASES entry."""
    rng = np.random.default_rng(t)
    z, dout = ((rng.standard_normal((t, t)) * 3).astype(dtype) for _ in range(2))
    if special:
        huge = np.finfo(dtype).max / 4  # huge - (-huge) overflows
        for rows, cols in (np.tril_indices(t), np.triu_indices(t, 1)):  # on and below the diagonal, then above
            if rows.size:
                pick = rng.integers(0, rows.size, 7)
                z[rows[pick], cols[pick]] = (np.inf, -np.inf, np.nan, huge, -huge, -0.0, 0.0)
        _special(dout, rng, (-0.0,))
    return z, dout


def _op_fwd_bwd(op, *arrays):
    """The output of ``op`` on all but the last array, and each one's gradient for the last as upstream."""
    *inputs, dout = arrays
    ts = [T.Tensor(a, requires_grad=True) for a in inputs]
    with T.Tape() as tape, np.errstate(invalid="ignore"):  # the loss of inf and NaN entries
        y = op(*ts)
        T.backward(tape, T.sum_all(T.mul(y, T.Tensor(dout))))  # y's gradient is dout times one: dout
    return [y.data] + [t.grad for t in ts]


@pytest.mark.parametrize("case", RMS_NORM_CASES, ids=str)
def test_rms_norm_matches_its_numpy_body(case):
    x, w, dout = _rms_norm_inputs(*case)
    with np.errstate(invalid="ignore"):  # NaN from inf - inf or inf * 0
        want = _rms_norm_numpy(x, w, dout)
    for g, v in zip(_op_fwd_bwd(T.rms_norm, x, w, dout), want):
        _assert_same_bits(g, v, x.dtype)


@pytest.mark.parametrize("case", CONV_CASES, ids=str)
def test_causal_conv1d_matches_its_numpy_body(case):
    x, w, bias, dout = _conv_inputs(*case)
    with np.errstate(invalid="ignore"):
        want = _causal_conv1d_numpy(x, w, bias, dout)
    for g, v in zip(_op_fwd_bwd(T.causal_conv1d, x, w, bias, dout), want):
        _assert_same_bits(g, v, x.dtype)


@pytest.mark.parametrize("case", SOFTMAX_CASES, ids=str)
def test_causal_softmax_matches_its_numpy_body(case):
    z, dout = _softmax_inputs(*case)
    with np.errstate(invalid="ignore", over="ignore"):  # inf - inf, and huge - (-huge)
        want = _causal_softmax_numpy(z, dout)
    for g, v in zip(_op_fwd_bwd(T.causal_softmax, z, dout), want):
        _assert_same_bits(g, v, z.dtype)


def _scatter_cases(dtype):
    """(out, idx, values) with many repeated indices: rows of a matrix, rows of a 3-D array under a 2-D
    index, and single elements of a vector that starts with -0 and nonzero entries."""
    rng = np.random.default_rng(50)

    def rand(*shape):
        return rng.standard_normal(shape).astype(dtype)

    vec = rand(24)
    vec[::5] = -0.0
    return [(np.zeros((6, 5), dtype), rng.integers(0, 6, 40), rand(40, 5)),
            (np.zeros((4, 2, 3), dtype), rng.integers(0, 4, (5, 2)), rand(5, 2, 2, 3)),
            (vec, rng.integers(0, 24, 60), rand(60))]


def _scatter_outputs(dtype):
    """T._scatter_add's result on each of _scatter_cases."""
    out = []
    for dst, idx, values in _scatter_cases(dtype):
        T._scatter_add(dst, idx, values)
        out.append(dst)
    return out


@pytest.mark.parametrize("dtype", DTYPES)
def test_scatter_add_matches_np_add_at(dtype):
    for (dst, idx, values), got in zip(_scatter_cases(dtype), _scatter_outputs(dtype)):
        np.add.at(dst, idx, values)
        _assert_same_bits(got, dst, dtype)


def test_scatter_add_rejects_a_shape_it_would_misread():
    out, idx = np.zeros((6, 5), np.float32), np.array([0, 2, 2])
    for values in (np.ones((1, 5), np.float32), np.ones((4, 5), np.float32), np.ones(3, np.float32)):
        with pytest.raises(ShapeError):  # np.add.at would broadcast one row; the kernel would read past it
            T._scatter_add(out, idx, values)
    with pytest.raises(ValueError):
        T._scatter_add(np.zeros((5, 6), np.float32).T, idx, np.ones((3, 5), np.float32))
    assert not out.any()


def test_scatter_rows_needs_one_row_of_values_per_index():
    idx = np.array([0, 2, 2])
    for n in (1, 2, 4):
        with pytest.raises(ShapeError):
            T.scatter_rows(T.Tensor(np.ones((n, 5), np.float32)), idx, 6)


def test_index_ops_need_integer_indices():
    x = T.Tensor(_rand((3, 4), 54))
    with pytest.raises(TokenIndexError):
        T.take_rows(x, np.array([True, False, True]))
    with pytest.raises(TokenIndexError):
        T.take_elems(x, np.array([0, 1]), np.array([1.0, 2.0]))


@pytest.mark.parametrize("via_transpose2d", [True, False], ids=["transpose2d", "transposed_leaf"])
def test_index_grads_of_fortran_ordered_data_match_loop_oracle(via_transpose2d):
    # transpose2d's output, and a leaf over a transposed array, hold Fortran-ordered data;
    # the gradient parts are still written row-major
    x, rng = _rand((5, 6), 51).T, np.random.default_rng(51)
    idx, rows, cols = rng.integers(0, 6, 30), rng.integers(0, 6, 30), rng.integers(0, 5, 30)
    for op, args, at in ((T.take_rows, (idx,), lambda i: idx[i]),
                         (T.take_elems, (rows, cols), lambda i: (rows[i], cols[i]))):
        if via_transpose2d:
            _, dx, g = _fwd_bwd(lambda t, *a: op(T.transpose2d(t), *a), np.ascontiguousarray(x.T), *args)
            dx = dx.T
        else:
            _, dx, g = _fwd_bwd(op, x, *args)
        want_dx = np.zeros(x.shape, np.float32)
        for i in range(30):
            want_dx[at(i)] = want_dx[at(i)] + g[i]
        _assert_same_bits(dx, want_dx)


def test_take_elems_of_a_3d_tensor_matches_loop_oracle():
    rng = np.random.default_rng(55)
    x, rows, cols = _rand((4, 3, 2), 55), rng.integers(0, 4, 30), rng.integers(0, 3, 30)
    out, dx, g = _fwd_bwd(T.take_elems, x, rows, cols)
    want_dx = np.zeros_like(x)
    for i, (r, c) in enumerate(zip(rows, cols)):
        want_dx[r, c] = want_dx[r, c] + g[i]
    _assert_same_bits(out, np.stack([x[r, c] for r, c in zip(rows, cols)]))
    _assert_same_bits(dx, want_dx)


def test_rms_norm_of_float32_x_with_float64_weight_runs_in_float64():
    # numpy's promotion of the old body would take the mean and r in float32; the kernel takes x as float64
    x, w, dout = _rms_norm_inputs((37, 13), np.float64, False)
    x = x.astype(np.float32)
    out, dx, dw = _op_fwd_bwd(T.rms_norm, x, w, dout)
    want = _rms_norm_numpy(x.astype(np.float64), w, dout)
    _assert_same_bits(out, want[0], np.float64)
    _assert_same_bits(dx, want[1].astype(np.float32))
    _assert_same_bits(dw, want[2], np.float64)


def test_causal_softmax_rows_sum_to_one_and_are_causal():
    s = T.Tensor(_rand((5, 5), 25, std=2.0))
    y = T.causal_softmax(s).data
    assert np.allclose(y.sum(axis=1), 1.0, atol=1e-6)
    assert np.array_equal(y[np.triu_indices(5, k=1)], np.zeros(10, np.float32))


def _causal_softmax_exp_everywhere(z):
    """causal_softmax's formula when it exponentiated every entry and masked afterwards."""
    mask = np.tril(np.ones(z.shape, dtype=bool))
    zmax = np.where(mask, z, -np.inf).max(axis=1, keepdims=True)
    e = np.where(mask, np.exp(z - zmax), 0.0).astype(z.dtype)
    return e / e.sum(axis=1, keepdims=True)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_causal_softmax_bits_match_masking_after_exp(dtype):
    z = _rand((9, 9), 35, std=3.0).astype(dtype)
    y = T.causal_softmax(T.Tensor(z)).data
    assert y.dtype == dtype and y.tobytes() == _causal_softmax_exp_everywhere(z).tobytes()


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_causal_softmax_ignores_huge_scores_above_the_diagonal(dtype):
    # exp(1000) overflows float32 and float64 alike
    z = _rand((6, 6), 36).astype(dtype)
    future = np.triu(np.ones((6, 6), dtype=bool), 1)
    with np.errstate(all="raise"):
        y = T.causal_softmax(T.Tensor(np.where(future, z.max() + 1000, z))).data
    assert y.tobytes() == T.causal_softmax(T.Tensor(z)).data.tobytes()


def test_grad_check_sequence_ops():
    # composite through causal softmax, conv, and gathers
    w = T.Tensor(_rand((3, 4), 26, std=0.5))

    def f(x):
        s = T.matmul(x, T.transpose2d(x))
        att = T.causal_softmax(s)
        y = T.matmul(att, T.matmul(x, w))
        return T.mean_all(T.mul(y, y))

    x0 = T.Tensor(_rand((5, 3), 27))
    assert grad_check(f, x0) < 1e-3


def test_grad_check_mamba_scan():
    t_len, h, p, n = 5, 2, 3, 4
    dt = T.Tensor(np.abs(_rand((t_len, h), 28)) * 0.5 + 0.05)
    a = T.Tensor(-np.abs(_rand((h,), 29)) - 0.1)
    b = T.Tensor(_rand((t_len, n), 30))
    c = T.Tensor(_rand((t_len, n), 31))
    d = T.Tensor(_rand((h,), 32))

    def f_x(x3):
        xr = T.reshape(x3, (t_len, h, p))
        y, _ = T.mamba_scan(xr, dt, a, b, c, d)
        return T.mean_all(T.mul(y, y))

    x0 = T.Tensor(_rand((t_len, h * p), 33))
    assert grad_check(f_x, x0) < 1e-3

    x_fixed = T.Tensor(_rand((t_len, h, p), 34))

    def f_dt(dtv):
        y, _ = T.mamba_scan(x_fixed, T.clamp(dtv, 1e-4, 10.0), a, b, c, d)
        return T.mean_all(T.mul(y, y))

    assert grad_check(f_dt, dt) < 1e-3

    def f_a(av):
        y, _ = T.mamba_scan(x_fixed, dt, av, b, c, d)
        return T.mean_all(T.mul(y, y))

    assert grad_check(f_a, a) < 1e-3

    def f_b(bv):
        y, _ = T.mamba_scan(x_fixed, dt, a, bv, c, d)
        return T.mean_all(T.mul(y, y))

    assert grad_check(f_b, b) < 1e-3

    def f_c(cv):
        y, _ = T.mamba_scan(x_fixed, dt, a, b, cv, d)
        return T.mean_all(T.mul(y, y))

    assert grad_check(f_c, c) < 1e-3

    def f_d(dv):
        y, _ = T.mamba_scan(x_fixed, dt, a, b, c, dv)
        return T.mean_all(T.mul(y, y))

    assert grad_check(f_d, d) < 1e-3


# mamba_scan is not bit-exact: its C kernel sums over the state and the lanes
# in an order of its own. The oracle is the step-by-step recurrence, forward
# and backward, carried in float64.


def _scan_oracle(x, dt, a, b, c, d, h0, dout):
    """Output, final state and the six gradients for upstream ``dout``, step by step in float64."""
    x, dt, a, b, c, d, dout = (np.asarray(v, np.float64) for v in (x, dt, a, b, c, d, dout))
    t_len, h, p = x.shape
    n = b.shape[1]
    decays = np.exp(dt[:, :, None, None] * a[None, :, None, None])
    hs = np.empty((t_len + 1, h, p, n))
    hs[0] = 0 if h0 is None else h0
    y = np.empty((t_len, h, p))
    for t in range(t_len):
        hs[t + 1] = decays[t] * hs[t] + dt[t][:, None, None] * (x[t][:, :, None] * b[t][None, None, :])
        y[t] = np.einsum("hpn,n->hp", hs[t + 1], c[t]) + d[:, None] * x[t]
    dx, ddt, da, db, dc, dd = (np.zeros_like(v) for v in (x, dt, a, b, c, d))
    dh = np.zeros((h, p, n))
    for t in range(t_len - 1, -1, -1):
        g = dout[t]
        dc[t] = np.einsum("hp,hpn->n", g, hs[t + 1])
        dd += (g * x[t]).sum(axis=1)
        dx[t] += d[:, None] * g
        dht = dh + g[:, :, None] * c[t][None, None, :]
        ddecay = (dht * hs[t]).sum(axis=(1, 2)) * decays[t, :, 0, 0]
        ddt[t] += ddecay * a + (dht * (x[t][:, :, None] * b[t][None, None, :])).sum(axis=(1, 2))
        da += ddecay * dt[t]
        db[t] = np.einsum("hpn,hp,h->n", dht, x[t], dt[t])
        dx[t] += dt[t][:, None] * np.einsum("hpn,n->hp", dht, b[t])
        dh = decays[t] * dht
    return [y, hs[t_len], dx, ddt, da, db, dc, dd]


def _scan_inputs(t_len, h, p, n, seed, dtype=np.float32):
    """x, dt, a_coef, b_in, c_out, d_skip, an initial state and an upstream gradient."""
    rng = np.random.default_rng(seed)
    shapes = ((t_len, h, p), (t_len, h), (h,), (t_len, n), (t_len, n), (h,), (h, p, n), (t_len, h, p))
    x, dt, a, b, c, d, h0, dout = (rng.standard_normal(s) for s in shapes)
    dt, a = np.log1p(np.exp(dt - 1.0)), -np.abs(a) - 0.1
    return [v.astype(dtype) for v in (x, dt, a, b, c, d)], h0.astype(dtype), dout.astype(dtype)


def _scan_fwd_bwd(args, h0, dout):
    """Output, final state and the six gradients of mamba_scan for upstream ``dout``."""
    ts = [T.Tensor(v, requires_grad=True) for v in args]
    with T.Tape() as tape:
        y, state = T.mamba_scan(*ts, h0=h0)
        T.backward(tape, T.sum_all(T.mul(y, T.Tensor(dout))))
    return [y.data, state] + [t.grad for t in ts]


def _rel_err(got, want):
    """Largest |got - want| over the largest |want|."""
    return np.abs(got - want).max() / max(np.abs(want).max(), 1e-300)


SCAN_OUTPUTS = ("y", "state", "dx", "ddt", "da", "db", "dc", "dd")


@pytest.mark.parametrize("shape", [(37, 3, 4, 5), (256, 4, 16, 32), (1, 2, 3, 4), (256, 8, 64, 16), (2048, 4, 16, 32)])
@pytest.mark.parametrize("with_h0", [False, True])
def test_mamba_scan_float32_matches_float64_oracle(shape, with_h0):
    args, h0, dout = _scan_inputs(*shape, seed=sum(shape))
    h0 = h0 if with_h0 else None
    got = _scan_fwd_bwd(args, h0, dout)
    want = _scan_oracle(*args, h0, dout)
    for name, g, w in zip(SCAN_OUTPUTS, got, want):
        assert g.dtype == np.float32 and g.shape == w.shape, name
        assert _rel_err(g, w) < 1e-4, name


@pytest.mark.parametrize("chunk", [1, 7, 37])
def test_mamba_scan_chunk_size_independent_in_float64(monkeypatch, chunk):
    monkeypatch.setattr(T, "_SCAN_CHUNK", chunk)
    args, h0, dout = _scan_inputs(37, 3, 4, 5, seed=50, dtype=np.float64)
    got = _scan_fwd_bwd(args, h0, dout)
    want = _scan_oracle(*args, h0, dout)
    for name, g, w in zip(SCAN_OUTPUTS, got, want):
        assert _rel_err(g, w) < 1e-12, name


def test_mamba_scan_h0_continues_a_split_sequence():
    args, h0, dout = _scan_inputs(40, 2, 3, 4, seed=51, dtype=np.float64)
    y, state = T.mamba_scan(*map(T.Tensor, args), h0=h0)
    y1, mid = T.mamba_scan(*(T.Tensor(v[:25] if v.ndim > 1 else v) for v in args), h0=h0)
    y2, end = T.mamba_scan(*(T.Tensor(v[25:] if v.ndim > 1 else v) for v in args), h0=mid)
    assert _rel_err(np.concatenate([y1.data, y2.data]), y.data) < 1e-12
    assert _rel_err(end, state) < 1e-12
    # no steps: the state passes through unchanged
    empty, same = T.mamba_scan(*(T.Tensor(v[:0] if v.ndim > 1 else v) for v in args), h0=h0)
    assert empty.shape == (0, 2, 3) and np.array_equal(same, h0)


def test_mamba_scan_accepts_h0_as_nested_list():
    args, h0, _ = _scan_inputs(20, 2, 3, 4, seed=52)
    y, state = T.mamba_scan(*map(T.Tensor, args), h0=h0)
    y_list, state_list = T.mamba_scan(*map(T.Tensor, args), h0=h0.tolist())
    _assert_same_bits(y_list.data, y.data)
    _assert_same_bits(state_list, state)


def test_mamba_scan_strong_decay_stays_finite():
    # a = -8 and dt near 3: exp(dt * a) is about 4e-11 per step and the
    # in-chunk decay products underflow to 0; nothing may overflow or go NaN
    args, h0, dout = _scan_inputs(64, 3, 4, 5, seed=53)
    args[1] = np.full_like(args[1], 3.0) + 0.1 * args[1]
    args[2] = np.full_like(args[2], -8.0)
    with np.errstate(over="raise", invalid="raise", divide="raise"):
        got = _scan_fwd_bwd(args, h0, dout)
    assert all(np.isfinite(g).all() for g in got)
    want = _scan_oracle(*args, h0, dout)
    for name, g, w in zip(SCAN_OUTPUTS, got, want):
        assert _rel_err(g, w) < 1e-4, name


def test_mamba_scan_repeats_bit_for_bit():
    # the benchmark replays training steps and compares losses bit for bit
    args, h0, dout = _scan_inputs(256, 4, 16, 32, seed=54)
    first, second = _scan_fwd_bwd(args, h0, dout), _scan_fwd_bwd(args, h0, dout)
    for g1, g2 in zip(first, second):
        _assert_same_bits(g1, g2)


def test_mamba_scan_reads_strided_operands():
    # the stack passes b_in, c_out and dt as column slices of one [T, W] projection
    args, h0, dout = _scan_inputs(40, 4, 16, 8, seed=55)
    x, dt, a, b, c, d = args
    proj = np.concatenate([np.ones((40, 3), np.float32), b, c, dt], axis=1)
    b_v, c_v, dt_v = proj[:, 3:11], proj[:, 11:19], proj[:, 19:23]
    x_v = np.ascontiguousarray(x.transpose(1, 0, 2)).transpose(1, 0, 2)
    assert not any(v.flags.c_contiguous for v in (x_v, b_v, c_v, dt_v))
    strided = _scan_fwd_bwd([x_v, dt_v, a, b_v, c_v, d], h0, dout)
    for g1, g2 in zip(strided, _scan_fwd_bwd(args, h0, dout)):
        _assert_same_bits(g1, g2)


def test_mamba_scan_writes_its_scratch_before_reading_it(monkeypatch):
    # scratch buffers come uninitialised; NaN in them must not reach an output,
    # including through the padding lanes (H * P = 12 pads to 16)
    args, h0, dout = _scan_inputs(37, 3, 4, 5, seed=57)
    want = _scan_fwd_bwd(args, h0, dout)
    aligned = T._aligned

    def nan_filled(shape, dtype):
        out = aligned(shape, dtype)
        out[...] = np.nan
        return out

    monkeypatch.setattr(T, "_aligned", nan_filled)
    for g1, g2 in zip(_scan_fwd_bwd(args, h0, dout), want):
        _assert_same_bits(g1, g2)


def test_mamba_scan_leaves_h0_alone_and_returns_its_own_state():
    args, h0, _ = _scan_inputs(20, 2, 3, 4, seed=56)
    kept = h0.copy()
    y, state = T.mamba_scan(*map(T.Tensor, args), h0=h0)
    _assert_same_bits(h0, kept)
    first = state.copy()
    state[...] = 7.0
    y2, state2 = T.mamba_scan(*map(T.Tensor, args), h0=h0)
    _assert_same_bits(y2.data, y.data)
    _assert_same_bits(state2, first)


# ---------------------------------------------------------------------------
# typed errors
# ---------------------------------------------------------------------------


def _t(*shape):
    return T.Tensor(np.ones(shape, np.float32))


def _scan(**shapes):
    """mamba_scan on ones with T=4, H=2, P=3, N=5, except the operand shapes given."""
    shapes = dict(dict(x=(4, 2, 3), dt=(4, 2), a_coef=(2,), b_in=(4, 5), c_out=(4, 5), d_skip=(2,)), **shapes)
    h0 = shapes.pop("h0", None)
    return T.mamba_scan(*(_t(*shape) for shape in shapes.values()), h0=None if h0 is None else np.ones(h0))


TYPED_ERRORS = {
    "rms_norm_weight": (ShapeError, lambda: T.rms_norm(_t(2, 4), _t(3))),
    "cross_entropy_targets_2d": (ShapeError, lambda: T.cross_entropy(_t(2, 4), np.zeros((2, 1), int))),
    "cross_entropy_targets_len": (ShapeError, lambda: T.cross_entropy(_t(2, 4), np.zeros(3, int))),
    "embedding_id_past_vocab": (TokenIndexError, lambda: T.embedding(_t(5, 3), np.array([0, 5]))),
    "embedding_negative_id": (TokenIndexError, lambda: T.embedding(_t(5, 3), np.array([-1, 2]))),
    "take_rows_negative": (TokenIndexError, lambda: T.take_rows(_t(4, 3), np.array([-1]))),
    "take_rows_past_end": (TokenIndexError, lambda: T.take_rows(_t(4, 3), np.array([0, 4]))),
    "take_elems_col_past_end": (TokenIndexError, lambda: T.take_elems(_t(4, 3), np.array([0]), np.array([3]))),
    "gather_cols_past_end": (TokenIndexError, lambda: T.gather_cols(_t(4, 3), np.full((4, 1), 3))),
    "scatter_rows_negative": (TokenIndexError, lambda: T.scatter_rows(_t(4, 3), np.array([0, 1, 2, -1]), 4)),
    "scatter_rows_past_end": (TokenIndexError, lambda: T.scatter_rows(_t(4, 3), np.array([0, 1, 2, 4]), 4)),
    "transpose2d_3d": (ShapeError, lambda: T.transpose2d(_t(2, 3, 4))),
    "causal_softmax_non_square": (ShapeError, lambda: T.causal_softmax(_t(3, 4))),
    "causal_conv1d_channels": (ShapeError, lambda: T.causal_conv1d(_t(6, 3), _t(4, 2), _t(3))),
    "causal_conv1d_bias": (ShapeError, lambda: T.causal_conv1d(_t(6, 3), _t(4, 3), _t(2))),
    "grad_check_non_scalar": (ContractError, lambda: grad_check(lambda t: T.scale(t, 2.0), _t(3))),
    "item_non_scalar": (ContractError, lambda: _t(2).item()),
    "mamba_scan_x_2d": (ShapeError, lambda: _scan(x=(4, 6))),
    "mamba_scan_b_in_1d": (ShapeError, lambda: _scan(b_in=(5,))),
    "mamba_scan_b_in_extra_row": (ShapeError, lambda: _scan(b_in=(5, 5))),
    "mamba_scan_c_out_extra_row": (ShapeError, lambda: _scan(c_out=(5, 5))),
    "mamba_scan_dt_extra_row": (ShapeError, lambda: _scan(dt=(5, 2))),
    "mamba_scan_h0_per_head_missing": (ShapeError, lambda: _scan(h0=(3, 5))),
    "mamba_scan_h0_one_head": (ShapeError, lambda: _scan(h0=(1, 3, 5))),
    "mamba_scan_a_coef_one": (ShapeError, lambda: _scan(a_coef=(1,))),
    "mamba_scan_c_out_wrong_n": (ShapeError, lambda: _scan(c_out=(4, 6))),
    "mamba_scan_d_skip_wrong_h": (ShapeError, lambda: _scan(d_skip=(3,))),
    "rounding_kind_misspelt": (ConfigError, lambda: Q.RoundingMode("stocastic", 3)),
    "rounding_seed_negative": (ConfigError, lambda: Q.stochastic(-1)),
    "rounding_seed_past_philox_key": (ConfigError, lambda: Q.stochastic(2**128)),
    "rounding_seed_bool": (ConfigError, lambda: Q.stochastic(True)),
    "hadamard_seed_negative": (ConfigError, lambda: Q.random_hadamard(16, -1)),
    "hadamard_seed_float": (ConfigError, lambda: Q.random_hadamard(16, 1.5)),
    "hadamard_seed_past_philox_key": (ConfigError, lambda: Q.random_hadamard(16, 2**128)),
    "hadamard_seed_bool": (ConfigError, lambda: Q.random_hadamard(16, True)),
    "hadamard_size_float": (ConfigError, lambda: Q.random_hadamard(16.0, 1)),
    "hadamard_size_str": (ConfigError, lambda: Q.random_hadamard("16", 1)),
    "dequantize_codes_off_grid": (ShapeError, lambda: Q.QuantizedTensorNVFP4(
        (2, 20), Q.Layout.BLOCK_1D, np.zeros((2, 1, 16), np.uint8), np.zeros((2, 1), np.uint8), 1.0).dequantize()),
    "dequantize_2d_of_a_vector": (ShapeError, lambda: Q.QuantizedTensorNVFP4(
        (16,), Q.Layout.BLOCK_2D, np.zeros(16, np.uint8), np.zeros(1, np.uint8), 1.0).dequantize()),
}


@pytest.mark.parametrize("case", TYPED_ERRORS)
def test_ops_raise_typed_errors(case):
    err, call = TYPED_ERRORS[case]
    with pytest.raises(err):
        call()


def test_mamba_scan_shape_error_names_the_operand():
    with pytest.raises(ShapeError, match=r"c_out \(4, 6\) \(want \(4, 5\)\)"):
        _scan(c_out=(4, 6))
    y, state = _scan(h0=(2, 3, 5))
    assert y.shape == (4, 2, 3) and state.shape == (2, 3, 5)


def test_index_error_names_the_op_and_the_range():
    with pytest.raises(TokenIndexError, match=r"scatter_rows: indices span \[-1, 2\], outside an axis of size 4"):
        T.scatter_rows(_t(4, 3), np.array([0, 1, 2, -1]), 4)
