"""Quantizer checks against independent oracles.

The C kernels are checked against a numpy oracle built here from the
sorted-grid search that the encoders used before they rounded on float32
bits, the formats' scale rules in float64 and numpy's own Philox draws.
Every code's decoded value is checked against the OCP Microscaling Formats
(MX) v1.0 values.
"""

import hashlib
import io
import json
import os
import struct
import subprocess
import sys
from contextlib import contextmanager, redirect_stdout
from dataclasses import replace
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import hybridlm.quant as Q
import hybridlm.tensor as T
from extra_ops import sum_all
from hybridlm.errors import CheckpointError, ConfigError, NumericInputError, ShapeError

# ---------------------------------------------------------------------------
# oracle: OCP MX v1.0 element values, searchsorted rounding, float64 scale rules
# ---------------------------------------------------------------------------

OCP_E2M1 = [0.0, 0.5, 1.0, 1.5, 2.0, 3.0, 4.0, 6.0]


def ocp_e4m3(code: int) -> float:
    """E4M3 per OCP MX v1.0: bias 7, subnormals m/8 * 2^-6, S.1111.111 is NaN."""
    sign = -1.0 if code & 0x80 else 1.0
    e, m = (code >> 3) & 0xF, code & 0x7
    if e == 15 and m == 7:
        return float("nan")
    return sign * (m / 8 * 2.0 ** -6 if e == 0 else (1 + m / 8) * 2.0 ** (e - 7))


E2M1_GRID = np.array(OCP_E2M1, np.float32)
E4M3_GRID = np.array([ocp_e4m3(c) for c in range(127)], np.float32)
E2M1_VALUES = np.concatenate([E2M1_GRID, -E2M1_GRID])  # every code's value; code 8 is -0.0
E4M3_VALUES = np.array([ocp_e4m3(c) for c in range(256)], np.float32)
GRIDS = {"e2m1": (E2M1_GRID, 3), "e4m3": (E4M3_GRID, 7)}
FLT_MAX = np.finfo(np.float32).max
E8M0_MIN_EXP, E8M0_MAX_EXP = -127, 127


def oracle_nearest_even(mag, grid):
    pos = np.searchsorted(grid, mag)
    lo = np.clip(pos - 1, 0, len(grid) - 1)
    hi = np.clip(pos, 0, len(grid) - 1)
    d_lo, d_hi = mag - grid[lo], grid[hi] - mag
    return np.where((d_hi < d_lo) | ((d_hi == d_lo) & (hi % 2 == 0)), hi, lo)


def oracle_stochastic(mag, grid, u):
    lo = np.clip(np.searchsorted(grid, mag, side="right") - 1, 0, len(grid) - 1)
    hi = np.minimum(lo + 1, len(grid) - 1)
    gap = grid[hi] - grid[lo]
    p = np.where(gap > 0, (mag - grid[lo]) / np.where(gap > 0, gap, 1.0), 0.0)
    return np.where(u < np.clip(p, 0.0, 1.0), hi, lo)


def oracle_round_up(mag, grid):
    return np.clip(np.searchsorted(grid, mag, side="left"), 0, len(grid) - 1)


def oracle_encode(x, grid, sign_bit, how, u=None):
    """Sign-magnitude codes of ``x`` rounded on ``grid`` "nearest", "up", or "stochastic" under uniforms ``u``."""
    arr = np.asarray(x, np.float32)
    mag = np.abs(arr)
    if how == "up":
        idx = oracle_round_up(mag, grid)
    elif how == "stochastic":
        idx = oracle_stochastic(np.minimum(mag, grid[-1]), grid, u)
    else:
        idx = oracle_nearest_even(mag, grid)
    return ((np.signbit(arr).astype(np.uint8) << sign_bit) | idx.astype(np.uint8)).astype(np.uint8)


def philox_uniforms(seed, shape):
    """The stochastic-rounding draws over a code grid of ``shape``, one per code, as RoundingMode defines them."""
    return np.random.Generator(np.random.Philox(key=seed)).random(shape)


def pow2_exponent(amax, limit):
    """The smallest integers e with amax <= limit * 2^e, which float64 tests exactly; amax > 0."""
    e = np.ceil(np.log2(amax / limit)).astype(np.int64)
    e += amax > np.ldexp(limit, e)
    return e - (amax <= np.ldexp(limit, e - 1))


def oracle_encode_blocks(fmt, data, mode):
    """The encode kernel's contract, from the format's scale rules in float64 and the searchsorted oracles:
    (codes, scales, global scale or None), or status 1 for a non-finite input and 2 for a code that
    decodes past float32's maximum."""
    grid, (nr, nb) = Q._grids(fmt, data.shape)
    if not np.isfinite(data).all():
        return 1
    (bh, bw), (rows, cols) = Q._BLOCK[fmt], Q._matrix(data.shape)
    x = np.zeros((nr * bh, nb * bw), np.float32)
    x[:rows, :cols] = data.reshape(rows, cols)
    x = x.reshape(nr, bh, nb, bw)
    amax = np.abs(x).max(axis=(1, 3), initial=0.0).astype(np.float64)
    live = np.where(amax > 0, amax, 2.0**-200)  # a block of zeros takes the smallest exponent
    g = None
    if fmt == Q.Format.MXFP8:  # 2^e with amax <= 448 * 2^e, e in E8M0's [-127, 127]
        scales = np.clip(pow2_exponent(live, 448.0), -127, 127).astype(np.int16)
        elem, sign_bit, eff = E4M3_GRID, 7, np.ldexp(np.float32(1), scales.astype(np.int32))
    else:  # a power of two g >= 2^-126 with amax <= 6 * 448 * g, and E4M3 amax / (6 g) rounded up per block
        g = np.float32(2.0 ** max(int(pow2_exponent(live.max(initial=2.0**-200), 6 * 448.0)), -126))
        scales = oracle_round_up((amax / (6 * np.float64(g))).astype(np.float32), E4M3_GRID).astype(np.uint8)
        elem, sign_bit, eff = E2M1_GRID, 3, E4M3_GRID[scales] * g
    eff = eff[:, None, :, None]
    scaled = x / np.where(eff > 0, eff, np.float32(1))
    u = philox_uniforms(mode.seed, grid).reshape(x.shape) if mode.kind == "stochastic" else None
    codes = np.where(eff > 0, oracle_encode(scaled, elem, sign_bit, mode.kind, u), 0).astype(np.uint8)
    if (elem[codes & ((1 << sign_bit) - 1)] * eff.astype(np.float64) > FLT_MAX).any():
        return 2
    return codes.reshape(grid), scales, g


def oracle_decode_blocks(fmt, shape, codes, scales, g, out):
    """The decode kernel's contract, from the rule for what a quantized record may hold in float64 and the
    OCP values: the status of the first part of the rule the record breaks, in the kernel's order (3 the
    global scale, 4 a block scale, 6 a block scale past float32's maximum, 5 a code off its grid, padding
    included, 6 a code times its scale past that maximum), else 0 after writing the float32 values to
    ``out`` unless it is None."""
    (bh, bw), (nr, nb), (rows, cols) = Q._BLOCK[fmt], scales.shape, Q._matrix(shape)
    if fmt == Q.Format.MXFP8:
        if ((scales < E8M0_MIN_EXP) | (scales > E8M0_MAX_EXP)).any():
            return 4
        vals, eff = E4M3_VALUES[codes], np.ldexp(np.float32(1), scales.astype(np.int32))
        off = np.isnan(vals)
    else:
        if not (np.isfinite(g) and g >= 2.0**-126 and np.frexp(g)[0] == 0.5):
            return 3
        if (scales > 126).any():
            return 4
        if (E4M3_VALUES[scales].astype(np.float64) * np.float64(g) > FLT_MAX).any():
            return 6
        vals, eff = E2M1_VALUES[codes & 15], E4M3_VALUES[scales] * np.float32(g)
        off = codes > 15
    if off.any():
        return 5
    vals, eff = vals.reshape(nr, bh, nb, bw), eff[:, None, :, None]
    if (np.abs(vals.astype(np.float64)) * eff.astype(np.float64) > FLT_MAX).any():
        return 6
    if out is not None:
        out[...] = (vals * eff).reshape(nr * bh, nb * bw)[:rows, :cols].reshape(shape)
    return 0


HOWS = [("e2m1", "nearest"), ("e2m1", "stochastic"), ("e4m3", "nearest"), ("e4m3", "stochastic"),
        ("e4m3", "up")]


def encode_at_unit_scale(name, how, vals, seed=0):
    """Round ``vals`` on grid ``name`` as ``how`` does, through the C quantizer at unit scale.

    Nearest and stochastic: the values no larger than the grid's top, 15 (E2M1, NVFP4 blocks) or 31
    (E4M3, MXFP8 blocks) to a row after a leading top value, which sets every block scale to one. Up:
    the distinct magnitudes v up to 448 as NVFP4 block maxima 6v, whose block scales round (6v) / 6
    up in E4M3 under the global scale one that a first block of 6 * 448 sets. Returns the codes, the values
    the C encoder rounded, and the uniforms their codes drew (None unless stochastic)."""
    vals = np.asarray(vals, np.float32).reshape(-1)
    if how == "up":
        mags = np.unique(np.abs(vals))
        amax = (mags[mags <= 448].astype(np.float64) * 6).astype(np.float32)
        x = np.zeros((amax.size + 1, 16), np.float32)
        x[0, 0], x[1:, 0] = 6 * 448.0, amax
        q = Q.quantize_nvfp4(x)
        assert q.global_scale == 1.0
        return q.block_scales[1:, 0], (amax.astype(np.float64) / 6).astype(np.float32), None
    top, fmt, block = (6.0, Q.Format.NVFP4, 16) if name == "e2m1" else (448.0, Q.Format.MXFP8, 32)
    vals = vals[np.abs(vals) <= top]
    x = unit_scale_rows(vals, top, block)
    mode = Q.stochastic(seed) if how == "stochastic" else Q.NEAREST_EVEN
    q = quantize(fmt, x, mode)
    assert_unit_scale(q)

    def body(grid_values):
        return grid_values.reshape(x.shape)[:, 1:].reshape(-1)[:vals.size]

    return body(q.codes), vals, body(philox_uniforms(seed, q.codes.shape)) if how == "stochastic" else None


def unit_scale_rows(vals, top, block):
    """``vals``, block - 1 to a row after a leading ``top``, which sets the scale of each row's blocks to one."""
    rows = -(-vals.size // (block - 1))
    body = np.zeros((rows, block - 1), np.float32)
    body.reshape(-1)[:vals.size] = vals
    return np.concatenate([np.full((rows, 1), top, np.float32), body], axis=1)


def assert_unit_scale(q):
    if isinstance(q, Q.QuantizedTensorMXFP8):
        assert (q.scale_exps == 0).all()
    else:
        assert (E4M3_GRID[q.block_scales] * q.global_scale == 1.0).all()


def sweep_inputs() -> np.ndarray:
    """Strided float32 bit patterns over [0, 500], every grid point and midpoint
    with their float32 neighbours, subnormals and saturating values; both signs."""
    top = int(np.float32(500.0).view(np.int32))
    strided = np.arange(0, top, 1237, dtype=np.int32).view(np.float32)
    grids = [E2M1_GRID.astype(np.float64), E4M3_GRID.astype(np.float64)]
    points = np.concatenate(grids + [(g[1:] + g[:-1]) / 2 for g in grids]).astype(np.float32)
    near = np.concatenate([points, np.nextafter(points, np.float32(0)), np.nextafter(points, np.float32(1e9))])
    extra = np.array([1e-45, 1e-40, 1.2e-38, 6.5, 7.0, 449.0, 464.0, 480.0, 1e6, 3.4e38], np.float32)
    x = np.concatenate([strided, near, extra])
    return np.concatenate([x, -x])


@pytest.mark.parametrize("name,how", HOWS)
def test_rounding_matches_searchsorted_oracle_on_sweep(name, how):
    grid, sign_bit = GRIDS[name]
    codes, vals, u = encode_at_unit_scale(name, how, sweep_inputs(), seed=5)
    assert vals.size > 1000
    assert np.array_equal(codes, oracle_encode(vals, grid, sign_bit, how, u))


@settings(max_examples=200, deadline=None)
@given(hnp.arrays(np.float32, st.integers(1, 64),
                  elements=st.floats(-1e4, 1e4, width=32, allow_subnormal=True)),
       st.integers(0, 2**32 - 1))
def test_rounding_matches_searchsorted_oracle_property(x, seed):
    for name, how in HOWS:
        grid, sign_bit = GRIDS[name]
        codes, vals, u = encode_at_unit_scale(name, how, x, seed)
        assert np.array_equal(codes, oracle_encode(vals, grid, sign_bit, how, u)), (name, how)


# ---------------------------------------------------------------------------
# decode tables and ties
# ---------------------------------------------------------------------------


def test_e2m1_table_matches_ocp_values():
    """Every E2M1 code under a unit block scale decodes through dequantize to its OCP value, the sign of zero
    included."""
    nvfp4 = Q.QuantizedTensorNVFP4((1, 16), Q.Layout.BLOCK_1D, np.arange(16, dtype=np.uint8).reshape(1, 1, 16),
                                   np.full((1, 1), 0x38, np.uint8), np.float32(1))  # E4M3 0x38 is 1.0
    assert nvfp4.dequantize().tobytes() == E2M1_VALUES.tobytes()  # code 8 is -0.0


def test_e4m3_table_matches_ocp_values():
    """Every E4M3 code but its two NaNs decodes through dequantize under exponent 0 to its OCP value."""
    assert E4M3_VALUES[[0x7E, 0x01, 0x08, 0xFE]].tolist() == [448.0, 2.0 ** -9, 2.0 ** -6, -448.0]
    finite = np.flatnonzero(~np.isnan(E4M3_VALUES))
    assert sorted(set(range(256)) - set(finite)) == [0x7F, 0xFF]
    grid, scales_grid = Q._grids(Q.Format.MXFP8, (1, finite.size))
    codes = np.zeros(grid, np.uint8)
    codes.reshape(-1)[:finite.size] = finite
    mxfp8 = Q.QuantizedTensorMXFP8((1, finite.size), codes, np.zeros(scales_grid, np.int16))
    assert mxfp8.dequantize().tobytes() == E4M3_VALUES[finite].tobytes()


@pytest.mark.parametrize("name", ["e2m1", "e4m3"])
def test_ties_round_to_the_even_code(name):
    grid, sign_bit = GRIDS[name]
    g = grid.astype(np.float64)
    mids = ((g[1:] + g[:-1]) / 2).astype(np.float32)
    assert np.array_equal(mids.astype(np.float64), (g[1:] + g[:-1]) / 2)  # exact midpoints
    codes = encode_at_unit_scale(name, "nearest", mids)[0]
    assert (codes % 2 == 0).all()
    lower = np.arange(len(mids))
    assert np.array_equal(codes, lower + lower % 2)
    assert np.array_equal(encode_at_unit_scale(name, "nearest", -mids)[0], codes | (1 << sign_bit))
    if name == "e2m1":
        assert list(encode_at_unit_scale(name, "nearest", [0.25, 0.75, 1.25, 2.5, 3.5, 5.0])[0]) == [0, 2, 2, 4, 6, 6]


@pytest.mark.parametrize("name,x", [("e2m1", 0.1), ("e2m1", 2.3), ("e2m1", 5.9),
                                    ("e4m3", 0.0011), ("e4m3", 300.0)])
def test_stochastic_rounding_is_unbiased(name, x):
    n = 200_000
    grid, _ = GRIDS[name]
    vals = grid[encode_at_unit_scale(name, "stochastic", np.full(n, x), seed=20251217)[0]].astype(np.float64)
    lo = grid[grid <= np.float32(x)].max()
    hi = grid[grid > np.float32(x)].min()
    assert set(np.unique(vals)) == {lo, hi}
    # 5 standard errors of the mean of n draws from {lo, hi}
    assert abs(vals.mean() - np.float32(x)) < 5 * (hi - lo) * 0.5 / np.sqrt(n)


# ---------------------------------------------------------------------------
# block quantizers
# ---------------------------------------------------------------------------


def golden_input() -> np.ndarray:
    rng = np.random.default_rng(2512)
    x = (rng.standard_normal((40, 72)) * np.exp(rng.uniform(-6, 6, (40, 1)))).astype(np.float32)
    x[3, :16] = 0.0  # a dead block
    x[5, 7] = -0.0
    return x


# sha256 of serialized bytes + dequantized float32 bytes, fixed before the
# encoders moved to bit arithmetic; any change of a code, scale or byte shows
GOLDEN = {
    "nvfp4_1d": "d6fd33af05e2223735ad5442",
    "nvfp4_1d_sr": "a5c5b07ec27522c47e160534",
    "nvfp4_2d": "1a270fe0e3d76ba1b01a1d7a",
    "nvfp4_2d_sr": "deecc3699cefe8ade54b1263",
    "mxfp8": "b5a9778f4a7c96eb4ace3316",
    "mxfp8_sr": "e386bdccf0aab4975030bad5",
}


def golden_case(name):
    x, sr = golden_input(), Q.stochastic(11)
    return {
        "nvfp4_1d": lambda: Q.quantize_nvfp4(x),
        "nvfp4_1d_sr": lambda: Q.quantize_nvfp4(x, mode=sr),
        "nvfp4_2d": lambda: Q.quantize_nvfp4(x, Q.Layout.BLOCK_2D),
        "nvfp4_2d_sr": lambda: Q.quantize_nvfp4(x, Q.Layout.BLOCK_2D, sr),
        "mxfp8": lambda: Q.quantize_mxfp8(x),
        "mxfp8_sr": lambda: Q.quantize_mxfp8(x, sr),
    }[name]()


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_golden_codes_scales_and_bytes(name):
    q = golden_case(name)
    digest = hashlib.sha256(Q.quantized_to_bytes(q) + q.dequantize().tobytes()).hexdigest()[:24]
    assert digest == GOLDEN[name]


def test_golden_leading_codes_and_scales():
    q = golden_case("nvfp4_1d")
    assert list(q.codes[0, 0, :8]) == [13, 11, 10, 13, 0, 8, 5, 11]
    assert q.block_scales[:2, :3].tolist() == [[3, 3, 2], [113, 114, 115]] and q.global_scale == 0.5
    assert not q.codes[3, 0].any() and q.block_scales[3, 0] == 0  # dead block: all codes 0
    m = golden_case("mxfp8")
    assert list(m.codes[0, 0, :8]) == [241, 234, 230, 240, 81, 207, 113, 234]
    assert m.scale_exps[:2, :3].tolist() == [[-14, -14, -14], [1, 1, 0]]


@settings(max_examples=60, deadline=None)
@given(hnp.arrays(np.float32, hnp.array_shapes(min_dims=2, max_dims=2, max_side=40),
                  elements=st.floats(-1e6, 1e6, width=32)))
def test_round_up_block_scales_never_make_the_element_encoder_clamp(x):
    padded = np.pad(np.abs(x), [(0, -n % 16) for n in x.shape]).astype(np.float64)
    rows, cols = padded.shape
    amax_1d = padded[: x.shape[0]].reshape(x.shape[0], cols // 16, 16).max(axis=2)
    amax_2d = padded.reshape(rows // 16, 16, cols // 16, 16).max(axis=(1, 3))
    for layout, amax in [(Q.Layout.BLOCK_1D, amax_1d), (Q.Layout.BLOCK_2D, amax_2d)]:
        q = Q.quantize_nvfp4(x, layout)
        eff = E4M3_GRID[q.block_scales].astype(np.float64) * q.global_scale
        # a block whose scale underflows E4M3 flushes to zero rather than clamping
        assert (amax <= 6 * eff)[eff > 0].all()


@pytest.mark.parametrize("shape", [(), (0, 16), (16, 0), (0,), (3, 0, 5), (1,), (2, 3, 17)])
def test_edge_shapes_round_trip(shape):
    x = np.where(np.arange(int(np.prod(shape))) % 2, 1.5, -0.75).astype(np.float32).reshape(shape)
    quantizers = [Q.quantize_nvfp4, Q.quantize_mxfp8]
    if len(shape) == 2:
        quantizers.append(lambda a: Q.quantize_nvfp4(a, Q.Layout.BLOCK_2D))
    for quantize in quantizers:
        q = quantize(x)
        out = q.dequantize()
        assert out.shape == shape and out.dtype == np.float32
        assert np.array_equal(out, x)  # both values are exact in both formats
        back = Q.quantized_from_bytes(Q.quantized_to_bytes(q))
        assert back.shape == shape and back.dequantize().tobytes() == out.tobytes()


# code grid and scale grid per format and shape, as the serialization header records them
GRID_TABLE = [
    (Q.Format.NVFP4, (), (1, 1, 16), (1, 1)), (Q.Format.NVFP4, (0, 16), (0, 1, 16), (0, 1)),
    (Q.Format.NVFP4, (3, 0, 5), (0, 1, 16), (0, 1)), (Q.Format.NVFP4, (2, 3, 17), (6, 2, 16), (6, 2)),
    (Q.Format.MXFP8, (), (1, 1, 32), (1, 1)), (Q.Format.MXFP8, (0, 16), (0, 1, 32), (0, 1)),
    (Q.Format.MXFP8, (3, 0, 5), (0, 1, 32), (0, 1)), (Q.Format.MXFP8, (2, 3, 17), (6, 1, 32), (6, 1)),
    (Q.Format.NVFP4_2D, (0, 16), (0, 16), (0, 1)), (Q.Format.NVFP4_2D, (17, 33), (32, 48), (2, 3)),
]


@pytest.mark.parametrize("fmt,shape,codes,scales", GRID_TABLE)
def test_code_and_scale_grids_per_format(fmt, shape, codes, scales):
    x = np.ones(shape, np.float32)
    if fmt == Q.Format.MXFP8:
        q, q_scales = Q.quantize_mxfp8(x), "scale_exps"
    else:
        q = Q.quantize_nvfp4(x, Q.Layout.BLOCK_2D if fmt == Q.Format.NVFP4_2D else Q.Layout.BLOCK_1D)
        q_scales = "block_scales"
    assert (q.codes.shape, getattr(q, q_scales).shape) == (codes, scales)


@pytest.mark.parametrize("shape", [(32,), (2, 16, 16)])
def test_2d_tiles_need_a_matrix(shape):
    with pytest.raises(ShapeError):
        Q.quantize_nvfp4(np.ones(shape, np.float32), Q.Layout.BLOCK_2D)


def test_quantizers_reject_non_finite_input():
    for quantize in (Q.quantize_nvfp4, Q.quantize_mxfp8):
        with pytest.raises(NumericInputError):
            quantize(np.array([1.0, np.nan], np.float32))


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------


def serialized_cases():
    x = golden_input()
    return [Q.quantize_nvfp4(x[:5, :37]), Q.quantize_nvfp4(x[:20, :37], Q.Layout.BLOCK_2D),
            Q.quantize_mxfp8(x[:6].reshape(2, 3, 72))]


def unchecked_to_bytes(q):
    """The bytes that quantized_to_bytes wrote before it checked the record, so that a record it now refuses
    still reaches quantized_from_bytes. Each array is cast or masked to its field, so a code too wide for its
    nibble or byte wraps, and int64 block scales take 8 bytes each."""

    def dims(shape) -> bytes:
        return struct.pack(f"<B{len(shape)}q", len(shape), *shape)

    if isinstance(q, Q.QuantizedTensorNVFP4):
        head = struct.pack("<BB", 1, q.layout != Q.Layout.BLOCK_1D) + dims(q.shape)
        head += dims(q.codes.shape) + struct.pack("<f", float(q.global_scale))
        flat = q.codes.reshape(-1).astype(np.uint8)
        if flat.size % 2:
            flat = np.concatenate([flat, np.zeros(1, np.uint8)])
        scales, codes = q.block_scales, ((flat[0::2] & 0xF) | (flat[1::2] << 4)).tobytes()
    else:
        head = struct.pack("<BB", 2, 0) + dims(q.shape) + dims(q.codes.shape)
        scales, codes = q.scale_exps.astype("<i2"), q.codes.astype(np.uint8).tobytes()
    return head + dims(scales.shape) + scales.tobytes() + struct.pack("<q", q.codes.size) + codes


def same_record(q, r) -> bool:
    """Whether records q and r hold the same shape, layout, values and global scale, in any dtypes."""
    fields = ("layout", "codes", "block_scales", "scale_exps", "global_scale")
    return type(q) is type(r) and tuple(q.shape) == tuple(r.shape) and all(
        np.array_equal(getattr(q, f, None), getattr(r, f, None)) for f in fields)


def assert_refused(q, match="no quantizer makes"):
    """dequantize and quantized_to_bytes raise NumericInputError for record q, and quantized_from_bytes
    CheckpointError for its unchecked bytes."""
    with pytest.raises(NumericInputError):
        q.dequantize()
    with pytest.raises(NumericInputError):
        Q.quantized_to_bytes(q)
    with pytest.raises(CheckpointError, match=match):
        Q.quantized_from_bytes(unchecked_to_bytes(q))


@pytest.mark.parametrize("case", range(3))
def test_serialization_round_trips_and_rejects_damage(case):
    q = serialized_cases()[case]
    raw = Q.quantized_to_bytes(q)
    back = Q.quantized_from_bytes(raw)
    assert Q.quantized_to_bytes(back) == raw
    assert back.dequantize().tobytes() == q.dequantize().tobytes()
    for cut in range(len(raw)):
        with pytest.raises(CheckpointError):
            Q.quantized_from_bytes(raw[:cut])
    with pytest.raises(CheckpointError):
        Q.quantized_from_bytes(raw + b"\0")


def test_serialization_rejects_unknown_tag_and_inconsistent_grids():
    raw = Q.quantized_to_bytes(serialized_cases()[0])  # nvfp4 1D, shape (5, 37)
    with pytest.raises(ConfigError):
        Q.quantized_from_bytes(b"\x09" + raw[1:])
    # header: tag, layout, ndim, then the shape as int64
    wrong_shape = raw[:3] + struct.pack("<q", 6) + raw[11:]
    with pytest.raises(CheckpointError):
        Q.quantized_from_bytes(wrong_shape)
    negative = raw[:3] + struct.pack("<q", -5) + raw[11:]
    with pytest.raises(CheckpointError):
        Q.quantized_from_bytes(negative)
    with pytest.raises(CheckpointError):
        Q.quantized_from_bytes(raw[:1] + b"\x07" + raw[2:])  # layout code
    n = serialized_cases()[0].codes.size  # a code count off the grid, odd or even, with the bytes it takes
    for count, extra in ((n - 1, b""), (n + 1, b"\0"), (n - 2, b"")):
        with pytest.raises(CheckpointError):
            Q.quantized_from_bytes(raw[:-n // 2 - 8] + struct.pack("<q", count) + raw[-n // 2:] + extra)
    odd = replace(Q.quantize_nvfp4(np.ones((1, 15), np.float32)), codes=np.zeros((1, 1, 15), np.uint8))
    with pytest.raises(CheckpointError):
        Q.quantized_from_bytes(unchecked_to_bytes(odd))
    # fields that no quantizer makes
    nvfp4, _, mxfp8 = serialized_cases()

    def poke(q, field, index, value):
        arr = getattr(q, field).copy()
        arr[index] = value
        return replace(q, **{field: arr})

    damaged = [replace(nvfp4, global_scale=np.float32(g)) for g in (np.nan, np.inf, 0.0, -1.0)]
    damaged += [poke(nvfp4, "block_scales", (0, 1), c) for c in (0x7F, 0xFF, 0x80)]  # NaN, negative
    damaged += [poke(mxfp8, "scale_exps", (1, 1), e) for e in (-30000, -128, 128, 200)]  # outside E8M0
    damaged += [poke(mxfp8, "codes", (0, 1, 2), c) for c in (0x7F, 0xFF)]  # NaN elements
    for q in damaged:
        assert_refused(q)
    for e in (-127, 127):  # E8M0's ends load
        q = poke(mxfp8, "scale_exps", (1, 1), e)
        if e == 127:  # the block's codes reach 256, past float32's maximum at 2^127
            q = poke(q, "codes", (1, 1), 0x3F)  # 1.875, the largest code still finite at 2^127
        back = Q.quantized_from_bytes(Q.quantized_to_bytes(q))
        assert back.scale_exps[1, 1] == e and np.isfinite(back.dequantize()).all()


def test_serialization_takes_only_global_scales_a_quantizer_makes():
    """A global scale is a power of two no smaller than 2^-126; any other would make decodes round
    (0.1) or is one no quantizer picks (2^-130, a float32 subnormal)."""
    nvfp4 = Q.quantize_nvfp4(golden_input()[:2, :16])
    for g in (0.1, 3.0, 1.5 * 2.0**-126, 2.0**-127, 2.0**-130, np.nextafter(np.float32(1), np.float32(2))):
        assert_refused(replace(nvfp4, global_scale=np.float32(g)))
    for g in (2.0**-126, 1.0, 2.0**64):
        back = Q.quantized_from_bytes(Q.quantized_to_bytes(replace(nvfp4, global_scale=np.float32(g))))
        assert back.global_scale == g
        exact = E2M1_VALUES[back.codes] * (E4M3_GRID[back.block_scales][:, :, None] * np.float64(g))
        assert np.array_equal(back.dequantize(), exact.reshape(2, 16))


def test_serialization_rejects_records_that_decode_past_float32_max():
    """So do dequantize, which decoded them to inf or NaN before the one check, and quantized_to_bytes."""
    mxfp8 = Q.quantize_mxfp8(np.ones((1, 32), np.float32))
    assert (E4M3_VALUES[mxfp8.codes] == 256).all() and mxfp8.scale_exps.tolist() == [[-8]]
    nvfp4 = Q.quantize_nvfp4(np.ones((1, 16), np.float32))
    top_scale = np.full_like(nvfp4.block_scales, 0x7E)  # 448
    damaged = [replace(mxfp8, scale_exps=np.full_like(mxfp8.scale_exps, 127)),  # 256 * 2^127
               replace(nvfp4, global_scale=np.float32(2.0**127)),  # 6 * its block scale * 2^127
               # 448 * 2^120 passes float32's maximum, so a float32 block scale would be inf:
               # a code of 0.5 would decode to inf, though its float64 product does not pass it,
               # and a code of 0 to NaN
               replace(nvfp4, codes=np.ones_like(nvfp4.codes), block_scales=top_scale,
                       global_scale=np.float32(2.0**120)),
               replace(nvfp4, codes=np.zeros_like(nvfp4.codes), block_scales=top_scale,
                       global_scale=np.float32(2.0**120))]
    for q in damaged:
        assert_refused(q)


# The numpy bodies that packed and unpacked NVFP4 codes before the C loops nibbles_pack and nibbles_unpack,
# kept as their oracle. A code grid holds whole blocks, so an even count; the pack pads an odd one with a
# zero code, as the writer once did.
def oracle_pack_nibbles(codes):
    pairs = np.concatenate([codes, np.zeros(codes.size % 2, np.uint8)]).view("<u2")
    return ((pairs & 0xF) | (pairs >> 4)).astype(np.uint8)


def oracle_unpack_nibbles(packed, n_codes):
    pairs = packed.astype("<u2")
    return ((pairs & 0xF) | (pairs >> 4 << 8)).view(np.uint8)[:n_codes]


def test_nibble_loops_match_the_numpy_oracle():
    """Every pair of codes 0 to 15 packs as the numpy body packed it, every byte unpacks as it unpacked, and
    the loops invert each other, at odd and even counts."""
    pairs = np.array([(lo, hi) for hi in range(16) for lo in range(16)], np.uint8).reshape(-1)
    random = np.random.default_rng(12).integers(0, 16, 2129).astype(np.uint8)
    for codes in [pairs[:n] for n in (*range(34), 511, 512)] + [random[:2128], random]:
        packed = np.full((codes.size + 1) // 2, 0xAA, np.uint8)
        Q._QUANT_LIBRARY.nibbles_pack(codes, codes.size, packed)
        assert np.array_equal(packed, oracle_pack_nibbles(codes)), codes.size
        back = np.full(codes.size, 0xAA, np.uint8)
        Q._QUANT_LIBRARY.nibbles_unpack(packed, codes.size, back)
        assert np.array_equal(back, codes), codes.size
    every_byte = np.arange(256, dtype=np.uint8)
    for n in (512, 511, 1, 0):
        codes = np.full(n, 0xAA, np.uint8)
        Q._QUANT_LIBRARY.nibbles_unpack(every_byte[:(n + 1) // 2], n, codes)
        assert np.array_equal(codes, oracle_unpack_nibbles(every_byte[:(n + 1) // 2], n)), n


EMPTY_RECORDS = """
import json, time
import numpy as np
import hybridlm.quant as Q
x, times = np.empty((2**40, 0), np.float32), {}
quantizers = {"nvfp4": Q.quantize_nvfp4, "nvfp4_2d": lambda x: Q.quantize_nvfp4(x, Q.Layout.BLOCK_2D),
              "mxfp8": Q.quantize_mxfp8}
for name, quantize in quantizers.items():
    steps = [("encode", quantize), ("to_bytes", Q.quantized_to_bytes), ("from_bytes", Q.quantized_from_bytes),
             ("dequantize", lambda q: q.dequantize())]
    value = x
    for step, run in steps:
        start = time.perf_counter()
        value = run(value)
        times[f"{name} {step}"] = time.perf_counter() - start
    assert value.shape == x.shape
print(json.dumps(times))
"""


def test_records_with_no_codes_take_no_time_however_many_rows():
    """An array of shape (2^40, 0) holds no code, so encoding it and serializing, restoring and decoding its
    record each take under a second. The kernels once walked every row of such a record, about 0.7 h for
    this shape, so the steps run in a child process that is stopped after a minute."""
    env = dict(os.environ, PYTHONPATH=str(Path(Q.__file__).resolve().parents[1]))
    result = subprocess.run([sys.executable, "-c", EMPTY_RECORDS], env=env, capture_output=True, text=True,
                            timeout=60, check=True)
    times = json.loads(result.stdout)
    assert len(times) == 12 and max(times.values()) < 1.0, times


def test_serialization_refuses_grids_past_numpy_size_limit():
    """A header whose grids hold no code but whose dimensions multiply past what numpy can address raises
    CheckpointError, where numpy's ValueError escaped."""

    def dims(shape) -> bytes:
        return struct.pack(f"<B{len(shape)}q", len(shape), *shape)

    big = (2**62, 0)
    headers = [struct.pack("<BB", 2, 0) + dims(big) + dims(big + (32,)) + dims(big),  # MXFP8, codes past it
               struct.pack("<BB", 2, 0) + dims(big) + dims((0,)) + dims(big),  # int16 scales past it
               struct.pack("<BB", 1, 0) + dims(big) + dims(big + (16,)) + struct.pack("<f", 1.0) + dims(big)]
    for header in headers:
        with pytest.raises(CheckpointError, match="too big"):
            Q.quantized_from_bytes(header + struct.pack("<q", 0))


def sign_set(scales):
    scales = scales.copy()
    scales[0, 1] |= 0x80
    return scales


# Records that dequantize and quantized_to_bytes once took without an error, built from serialized_cases'
# NVFP4 and MXFP8 records: values wider than the kernel's types, which wrapped back to the quantizer's, and
# scales no quantizer makes
WRAPPED_OR_UNPRODUCIBLE = {
    "nvfp4_int64_scales_plus_256": lambda n, m: replace(n, block_scales=n.block_scales.astype(np.int64) + 256),
    "nvfp4_int64_codes_plus_16": lambda n, m: replace(n, codes=n.codes.astype(np.int64) + 16),
    "nvfp4_uint8_codes_plus_16": lambda n, m: replace(n, codes=n.codes + 16),
    "mxfp8_int64_codes_plus_256": lambda n, m: replace(m, codes=m.codes.astype(np.int64) + 256),
    "nvfp4_sign_set_scale": lambda n, m: replace(n, block_scales=sign_set(n.block_scales)),  # decoded negative
    "nvfp4_global_scale_0.1": lambda n, m: replace(n, global_scale=0.1),  # decoded with products that round
    "nvfp4_global_scale_2^127": lambda n, m: replace(n, global_scale=np.float32(2.0**127)),  # decoded to inf
}
# A nibble or a byte cannot hold these codes: the unchecked writer masks them back to the quantizer's
UNWRITABLE = {"nvfp4_int64_codes_plus_16": 0xF, "nvfp4_uint8_codes_plus_16": 0xF, "mxfp8_int64_codes_plus_256": 0xFF}


@pytest.mark.parametrize("name", WRAPPED_OR_UNPRODUCIBLE)
def test_dequantize_and_serialization_refuse_what_no_quantizer_makes(name):
    nvfp4, _, mxfp8 = serialized_cases()
    q = WRAPPED_OR_UNPRODUCIBLE[name](nvfp4, mxfp8)
    if name not in UNWRITABLE:
        assert_refused(q, match=None)  # int64 block scales take 8 bytes each: the record reads back truncated
        return
    with pytest.raises(NumericInputError, match="code off its element grid"):
        q.dequantize()
    with pytest.raises(NumericInputError, match="code off its element grid"):
        Q.quantized_to_bytes(q)
    back = Q.quantized_from_bytes(unchecked_to_bytes(q))
    assert not same_record(back, q) and np.array_equal(back.codes, q.codes & UNWRITABLE[name])


@st.composite
def records(draw):
    """A record with a random format, shape, codes, scales and global scale. Each field is either drawn from
    the values a quantizer makes or from any value of its dtype; in the int64 and float64 case that includes
    values the kernel's types cannot hold."""
    fmt = draw(st.sampled_from(FORMATS))
    shape = tuple(draw(st.lists(st.integers(0, 40), min_size=2 if fmt == Q.Format.NVFP4_2D else 0,
                                max_size=2 if fmt == Q.Format.NVFP4_2D else 3)))
    grid, scales_grid = Q._grids(fmt, shape)
    wide = draw(st.booleans())
    mxfp8 = fmt == Q.Format.MXFP8

    def field(arr_shape, dtype, valid, wide_range):
        if draw(st.integers(0, 3)):
            elements = valid
        else:
            elements = st.integers(*wide_range) if wide else st.integers(np.iinfo(dtype).min, np.iinfo(dtype).max)
        return draw(hnp.arrays(np.int64 if wide else dtype, arr_shape, elements=elements))

    codes = field(grid, np.uint8, st.integers(0, 255).filter(lambda c: c & 0x7F != 0x7F) if mxfp8
                  else st.integers(0, 15), (-300, 300))
    if mxfp8:
        return Q.QuantizedTensorMXFP8(shape, codes, field(scales_grid, np.int16, st.integers(-127, 127),
                                                          (-70000, 70000)))
    scales = field(scales_grid, np.uint8, st.integers(0, 126), (-300, 300))
    g = draw(st.one_of(st.integers(-150, 127).map(lambda e: 2.0**e), st.floats(width=32),
                       st.floats(-3e38, 3e38) if wide else st.nothing()))
    layout = Q.Layout.BLOCK_2D if fmt == Q.Format.NVFP4_2D else Q.Layout.BLOCK_1D
    return Q.QuantizedTensorNVFP4(shape, layout, codes, scales, g if wide else np.float32(g))


@settings(max_examples=300, deadline=None)
@given(records())
def test_dequantize_and_serialization_check_one_rule(q):
    """dequantize, quantized_to_bytes and quantized_from_bytes agree on every record, and the numpy oracle's
    rule agrees with the kernel's. A record they refuse does not load from its unchecked bytes, or loads as
    another record where the bytes cannot hold its codes; one they take round-trips to the same bits."""
    outcomes = []
    for path in PATHS:
        with on_path(path):
            try:
                outcomes.append(q.dequantize().tobytes())
            except NumericInputError as e:
                outcomes.append(str(e))
    assert outcomes[0] == outcomes[1]
    if isinstance(outcomes[0], str):
        with pytest.raises(NumericInputError):
            Q.quantized_to_bytes(q)
        try:
            back = Q.quantized_from_bytes(unchecked_to_bytes(q))
        except CheckpointError:
            return
        assert not same_record(back, q)
        return
    back = Q.quantized_from_bytes(Q.quantized_to_bytes(q))
    assert same_record(back, q) and back.dequantize().tobytes() == outcomes[0]


# ---------------------------------------------------------------------------
# random Hadamard transform and the quantized linear
# ---------------------------------------------------------------------------


NVFP4_RECIPE = Q.LinearPrecision(Q.Format.NVFP4, Q.Format.NVFP4_2D, Q.Format.NVFP4, seed=5)
MXFP8_RECIPE = Q.LinearPrecision(Q.Format.MXFP8, Q.Format.MXFP8, Q.Format.MXFP8, seed=5)
LINEAR_PRECISIONS = {"reference": Q.REFERENCE_LINEAR, "nvfp4": NVFP4_RECIPE, "mxfp8": MXFP8_RECIPE}


@pytest.mark.parametrize("seed", [0, 1, 7])
def test_rht_pair_in_the_quantized_gemm_leaves_the_product_unchanged(seed):
    rng = np.random.default_rng(seed)
    a, b = rng.standard_normal((24, 56)), rng.standard_normal((56, 40))  # k pads to 64
    m = Q.random_hadamard(16, seed).astype(np.float64)
    assert np.abs(m @ m.T - np.eye(16)).max() < 1e-12
    ta, tb = Q._rht_pair(a, b, seed)
    assert ta.shape == (24, 64) and tb.shape == (64, 40) and ta.dtype == tb.dtype == np.float64  # float64 in, out
    out = T.matmul_exact(ta, tb)
    assert out.dtype == np.float64 and np.abs(out - a @ b).max() < 1e-12


@pytest.mark.parametrize("n", [1, 2, 16, 256])
@pytest.mark.parametrize("seed", [0, 1, 7, 2**40 + 3])
def test_random_hadamard_matches_the_doubling_construction(n, seed):
    h = np.ones((1, 1), np.float64)
    while h.shape[0] < n:
        h = np.block([[h, h], [h, -h]])
    d = np.random.Generator(np.random.Philox(key=seed)).integers(0, 2, n) * 2 - 1
    expected = np.ones((1, 1), np.float32) if n == 1 else (h * d[None, :] / np.sqrt(n)).astype(np.float32)
    assert Q.random_hadamard(n, seed).tobytes() == expected.tobytes()
    assert Q.random_hadamard(n, seed).flags.writeable  # callers get their own array


def rht_oracle(x: np.ndarray, m: np.ndarray, axis: int) -> np.ndarray:
    """apply_rht through the scalar GEMM oracle: every [-1, n] block row times m, summed in k order."""
    moved = np.moveaxis(x, axis, -1)
    return np.moveaxis(T.matmul_oracle(moved.reshape(-1, m.shape[0]), m).reshape(moved.shape), -1, axis)


# (shape, axis, transposed): a transposed x is the .T view of a C-ordered array, as the weight gradient
# passes x^T
RHT_ORDER_CASES = [((64, 17), 0, False), ((8, 32), 1, False), ((8, 32), -1, False), ((3, 16, 5), 1, False),
                   ((8, 32), 1, True), ((4, 0), 1, False), ((0, 16), 1, False), ((16, 0), 0, False)]


@pytest.mark.parametrize("shape,axis,transposed", RHT_ORDER_CASES)
def test_rht_sums_each_block_in_k_order(shape, axis, transposed):
    """Float32 blocks are multiplied in the exact GEMM's order, so the result is ``matmul_oracle``'s whatever
    the host's BLAS."""
    rng = np.random.default_rng(len(shape) * 100 + axis)
    m = Q.random_hadamard(16, 4)
    x = rng.standard_normal(shape[::-1] if transposed else shape).astype(np.float32)
    x = x.T if transposed else x
    out = Q.apply_rht(x, m, axis)
    assert out.dtype == np.float32 and out.shape == x.shape
    assert out.tobytes() == rht_oracle(x, m, axis).tobytes()


def test_rht_pair_pads_and_transforms_in_k_order():
    rng = np.random.default_rng(5)
    a, b = rng.standard_normal((24, 56)).astype(np.float32), rng.standard_normal((56, 40)).astype(np.float32)
    ta, tb = Q._rht_pair(a, b, 3)
    m = Q._rht_matrix(3)
    pa, pb = np.pad(a, ((0, 0), (0, 8))), np.pad(b, ((0, 8), (0, 0)))
    assert ta.tobytes() == rht_oracle(pa, m, 1).tobytes() and tb.tobytes() == rht_oracle(pb, m, 0).tobytes()


RHT_HASH = """
import hashlib
import numpy as np
import hybridlm.quant as Q
rng = np.random.default_rng(27)
x, dout = rng.standard_normal((256, 256), np.float32), rng.standard_normal((256, 1064), np.float32)
a, b = Q._rht_pair(x.T, dout, 3)
print(hashlib.sha256(a.tobytes() + b.tobytes()).hexdigest())
"""


def test_rht_bits_do_not_depend_on_the_blas_kernels():
    """A stack-shaped weight-gradient transform gives the same bits under OpenBLAS's Haswell kernels, which
    an AVX2 host runs, as in this process. Through numpy's ``@`` about 40% of its outputs moved in the last
    bit there."""
    env = dict(os.environ, PYTHONPATH=str(Path(Q.__file__).resolve().parents[1]), OPENBLAS_CORETYPE="Haswell")
    haswell = subprocess.run([sys.executable, "-c", RHT_HASH], env=env, capture_output=True, text=True,
                             timeout=120, check=True)
    here = io.StringIO()
    with redirect_stdout(here):
        exec(RHT_HASH, {})
    assert haswell.stdout == here.getvalue()


def test_nvfp4_weight_gradient_points_along_the_reference():
    rng = np.random.default_rng(3)
    x = T.Tensor(rng.standard_normal((128, 64)).astype(np.float32), requires_grad=True)
    w = T.Tensor((rng.standard_normal((64, 48)) / 8).astype(np.float32), requires_grad=True)
    dy = T.Tensor(rng.standard_normal((128, 48)).astype(np.float32))
    with T.Tape() as tape:
        loss = sum_all(T.mul(Q.quantized_linear(x, w, NVFP4_RECIPE), dy))
    T.backward(tape, loss)
    ref = x.data.astype(np.float64).T @ dy.data.astype(np.float64)
    dw = w.grad.astype(np.float64)
    assert (dw * ref).sum() / np.linalg.norm(dw) / np.linalg.norm(ref) > 0.9


def linear_pass(linear, m, k, n):
    """out, dx and dw of one seeded linear under the upstream gradient dy."""
    rng = np.random.default_rng(m * 10000 + k * 100 + n)
    x = T.Tensor(rng.standard_normal((m, k)).astype(np.float32), requires_grad=True)
    w = T.Tensor((rng.standard_normal((k, n)) / 8).astype(np.float32), requires_grad=True)
    dy = T.Tensor(rng.standard_normal((m, n)).astype(np.float32))
    with T.Tape() as tape:
        out = linear(x, w)
        loss = sum_all(T.mul(out, dy))
    T.backward(tape, loss)
    return out.data, x.grad, w.grad


# sha256 of out, dx and dw bytes, fixed before the three passes called
# matmul_exact directly; k and n need not divide by 16
GOLDEN_LINEAR = {
    ("reference", (40, 72, 37)): "aa1baef438e1988269756cd8",
    ("reference", (17, 33, 50)): "033f0648c5229fe11bcb0640",
    ("nvfp4", (40, 72, 37)): "8a25eb84e9dfe4608dc2318b",
    ("nvfp4", (17, 33, 50)): "08ee3fe3f5a7c07db3400be1",
    ("mxfp8", (40, 72, 37)): "e0ea02068e1f0d6af84c9903",
    ("mxfp8", (17, 33, 50)): "3d584bc66475e77250139e33",
}


@pytest.mark.parametrize("name,shape", sorted(GOLDEN_LINEAR))
def test_golden_quantized_linear_outputs_and_gradients(name, shape):
    prec = LINEAR_PRECISIONS[name]
    out, dx, dw = linear_pass(lambda x, w: Q.quantized_linear(x, w, prec), *shape)
    digest = hashlib.sha256(out.tobytes() + dx.tobytes() + dw.tobytes()).hexdigest()[:24]
    assert digest == GOLDEN_LINEAR[name, shape]


def test_reference_linear_matches_matmul_bit_for_bit():
    ours = linear_pass(Q.quantized_linear, 40, 72, 37)
    theirs = linear_pass(T.matmul, 40, 72, 37)
    for a, b in zip(ours, theirs):
        assert a.tobytes() == b.tobytes()


@settings(max_examples=40, deadline=None)
@given(hnp.arrays(np.float32, hnp.array_shapes(min_dims=2, max_dims=2, max_side=40),
                  elements=st.floats(-1e6, 1e6, width=32)))
def test_2d_tile_quantization_commutes_with_transposition(x):
    q, qt = Q.quantize_nvfp4(x, Q.Layout.BLOCK_2D), Q.quantize_nvfp4(np.ascontiguousarray(x.T), Q.Layout.BLOCK_2D)
    assert np.array_equal(q.codes.T, qt.codes) and np.array_equal(q.block_scales.T, qt.block_scales)
    assert q.dequantize().T.tobytes() == qt.dequantize().tobytes()


def test_nvfp4_linear_quantizes_its_2d_weight_once_per_step(monkeypatch):
    layouts, orig = [], Q.quantize_nvfp4

    def spy(data, layout=Q.Layout.BLOCK_1D, *args, **kwargs):
        layouts.append(layout)
        return orig(data, layout, *args, **kwargs)

    monkeypatch.setattr(Q, "quantize_nvfp4", spy)
    linear_pass(lambda x, w: Q.quantized_linear(x, w, NVFP4_RECIPE), 40, 72, 37)
    # 1D: x (forward), dy (dgrad), x and dy (wgrad); 2D: w, shared by forward and dgrad
    assert layouts.count(Q.Layout.BLOCK_2D) == 1 and layouts.count(Q.Layout.BLOCK_1D) == 4


@pytest.mark.parametrize("name", sorted(LINEAR_PRECISIONS))
def test_quantized_linear_rejects_operands_that_are_not_matching_matrices(name):
    prec = LINEAR_PRECISIONS[name]
    x, w = T.Tensor(np.ones((4, 32), np.float32)), T.Tensor(np.ones((32, 16), np.float32))
    for a, b in [(T.Tensor(np.ones(32, np.float32)), w), (x, T.Tensor(np.ones(32, np.float32))),
                 (x, T.Tensor(np.ones((16, 16), np.float32)))]:
        with pytest.raises(ShapeError):
            Q.quantized_linear(a, b, prec)


def test_quantized_linear_rejects_unknown_formats():
    # when the precision is built, before a backward sweep could add part of a gradient into a leaf
    for field in ("x_format", "w_format", "grad_format"):
        with pytest.raises(ConfigError):
            Q.LinearPrecision(**{field: "fp16"})


@pytest.mark.parametrize("seed", [-1, 2**128 - 2, 1.5, True, "5"])
def test_linear_precision_rejects_a_seed_its_passes_cannot_key(seed):
    with pytest.raises(ConfigError):  # dgrad rounds with seed, the RHT takes seed + 1, wgrad rounds with seed + 2
        Q.LinearPrecision(seed=seed)


@pytest.mark.parametrize("seed", [2**128 - 3, np.uint64(2**64 - 1)])
def test_linear_precision_keys_every_pass_from_its_largest_seeds(seed):
    prec = Q.LinearPrecision(Q.Format.NVFP4, Q.Format.NVFP4_2D, Q.Format.NVFP4, seed)
    assert type(prec.seed) is int and prec.seed == int(seed)  # seed + 2 does not wrap
    rng = np.random.default_rng(9)
    x, w = (T.Tensor(rng.standard_normal(shape).astype(np.float32), requires_grad=True) for shape in ((4, 32), (32, 16)))
    with T.Tape() as tape:
        loss = sum_all(Q.quantized_linear(x, w, prec))
    T.backward(tape, loss)
    assert np.isfinite(x.grad).all() and np.isfinite(w.grad).all()


@pytest.mark.parametrize("kwargs", [dict(base="fp8"), dict(base="NVFP4"), dict(fraction_high_precision_tail=2.0),
                                    dict(fraction_high_precision_tail=-0.1),
                                    dict(fraction_high_precision_tail=float("nan")),
                                    dict(fraction_high_precision_tail="0.5"),
                                    dict(fraction_high_precision_tail=True), dict(quantize_sensitive="no")], ids=str)
def test_precision_policy_rejects_a_base_or_tail_it_cannot_apply(kwargs):
    with pytest.raises(ConfigError):
        Q.PrecisionPolicy(**kwargs)


def test_precision_policy_takes_a_numpy_bool():
    """quantize_sensitive=np.True_ moves QKV to NVFP4, as True does."""
    desc = Q.LayerDescriptor(K.QKV_PROJ, 0, 4)
    assert Q.resolve_precision(desc, Q.PrecisionPolicy(quantize_sensitive=np.True_)) == Q.Format.NVFP4


@pytest.mark.parametrize("exp", [65528, 200, -128, 128])
def test_mxfp8_decode_rejects_exponents_outside_e8m0(exp):
    # read as int16, 65528 would wrap to -8 and decode 256 as 1.0; 200 would decode it as inf
    grid, scales_grid = Q._grids(Q.Format.MXFP8, (1, 32))
    q = Q.QuantizedTensorMXFP8((1, 32), np.full(grid, 0x78, np.uint8), np.full(scales_grid, exp, np.int64))
    with pytest.raises(NumericInputError, match="outside E8M0"):
        q.dequantize()
    for edge in (E8M0_MIN_EXP, E8M0_MAX_EXP):  # 1.0 times 2^edge
        q = Q.QuantizedTensorMXFP8((1, 32), np.full(grid, 0x38, np.uint8), np.full(scales_grid, edge, np.int64))
        assert (q.dequantize() == np.float32(2.0**edge)).all()


# ---------------------------------------------------------------------------
# the C kernels against the numpy oracle
# ---------------------------------------------------------------------------

# The "c" path runs the library's kernels; the "numpy" path puts this file's
# oracles in their place, so that each assertion below holds for the oracle
# too: it reproduces the golden hashes and raises where the kernels raise.
PATHS = ["c", "numpy"]
FORMATS = [Q.Format.NVFP4, Q.Format.NVFP4_2D, Q.Format.MXFP8]


@contextmanager
def on_path(path):
    if path == "c":
        yield
        return
    with mock.patch.object(Q, "_encode_kernel_c", oracle_encode_blocks), \
            mock.patch.object(Q, "_decode_kernel_c", oracle_decode_blocks):
        yield


def quantize(fmt, x, mode=Q.NEAREST_EVEN):
    if fmt == Q.Format.MXFP8:
        return Q.quantize_mxfp8(x, mode)
    return Q.quantize_nvfp4(x, Q.Layout.BLOCK_2D if fmt == Q.Format.NVFP4_2D else Q.Layout.BLOCK_1D, mode)


def assert_same_codes(q, r):
    """Same codes, scales and global scale."""
    assert type(q) is type(r) and q.shape == r.shape
    for name in ("codes", "block_scales", "scale_exps"):
        a, b = getattr(q, name, None), getattr(r, name, None)
        assert (a is None and b is None) or (a.dtype == b.dtype and np.array_equal(a, b)), name
    if isinstance(q, Q.QuantizedTensorNVFP4):
        assert np.float32(q.global_scale).view(np.uint32) == np.float32(r.global_scale).view(np.uint32)


def on_both_paths(fmt, x, mode):
    """Quantize and dequantize ``x`` with the C kernels and with the oracle, check that both give the
    same codes and the same dequantized bits (so the sign of zero counts), and return the C pair. If
    either raises NumericInputError, both must raise it with the same message; that is re-raised."""
    results = []
    for path in ("c", "numpy"):
        with on_path(path):
            try:
                q = quantize(fmt, x, mode)
            except NumericInputError as e:
                results.append(e)
                continue
            results.append((q, q.dequantize()))
    if any(isinstance(r, NumericInputError) for r in results):
        assert [type(r) for r in results] == [NumericInputError] * 2 and str(results[0]) == str(results[1])
        raise results[0]
    (q, out), (r, ref) = results
    assert_same_codes(q, r)
    assert out.shape == ref.shape == x.shape and out.dtype == ref.dtype == np.float32
    assert np.array_equal(out.view(np.uint32), ref.view(np.uint32))
    return q, out


@pytest.mark.parametrize("path", PATHS)
@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_golden_hashes_on_each_path(path, name):
    with on_path(path):
        test_golden_codes_scales_and_bytes(name)
        if name == "nvfp4_1d":
            test_golden_leading_codes_and_scales()


@pytest.mark.parametrize("path", PATHS)
@pytest.mark.parametrize("name,shape", sorted(GOLDEN_LINEAR))
def test_golden_linear_hashes_on_each_path(path, name, shape):
    with on_path(path):
        test_golden_quantized_linear_outputs_and_gradients(name, shape)


@pytest.mark.parametrize("path", PATHS)
@pytest.mark.parametrize("fmt", FORMATS)
def test_stochastic_rounding_draws_one_uniform_per_code_on_each_path(path, fmt):
    """A key gives the same codes every time, and the C encoder, which computes each code's draw from
    the key, gives the codes of the oracle, which draws one uniform per code over the padded grid."""
    x = golden_input()[:17, :33]
    with on_path(path):
        q = quantize(fmt, x, Q.stochastic(9))
        again = quantize(fmt, x, Q.stochastic(9))
    assert_same_codes(q, again)
    with on_path("numpy"):
        assert_same_codes(q, quantize(fmt, x, Q.stochastic(9)))


# Seeds at the ends of both 64-bit words of the Philox key, and a numpy integer
KEY_SEEDS = [0, 2**64 - 1, 2**64, 2**128 - 1, np.uint64(2**63 + 5)]
# 1D blocks ending part-way (40 and 100 columns), an [..., 40] input, 2D tiles cut in both axes,
# MXFP8 rows of 32 codes, which take the words of 8 Philox counters, and rows that cross the
# encoder's run of 64 blocks
ALIGNMENT_SHAPES = [(Q.Format.NVFP4, (2, 3, 40)), (Q.Format.NVFP4, (5, 100)), (Q.Format.NVFP4_2D, (17, 33)),
                    (Q.Format.MXFP8, (2, 3, 40)), (Q.Format.MXFP8, (5, 100)), (Q.Format.NVFP4, (3, 1100)),
                    (Q.Format.NVFP4_2D, (33, 1100)), (Q.Format.MXFP8, (3, 2100))]


@pytest.mark.parametrize("seed", KEY_SEEDS, ids=repr)
@pytest.mark.parametrize("fmt,shape", ALIGNMENT_SHAPES)
def test_c_stochastic_draws_line_up_with_the_code_grid(fmt, shape, seed):
    """C codes equal numpy's under stochastic rounding, with blocks of zeros, which NVFP4 leaves
    undrawn, ahead of live ones and between them: a code's uniform depends on its grid index alone."""
    rng = np.random.default_rng(len(shape) * 100 + shape[-1])
    x = rng.standard_normal(shape).astype(np.float32)
    flat = x.reshape(-1, shape[-1])
    flat[:16 if fmt == Q.Format.NVFP4_2D else 1] = 0.0  # the first row of blocks is dead
    flat[-1, :16] = 0.0  # and one block of the last row
    flat[16 if fmt == Q.Format.NVFP4_2D else 1:, 64:128] = 0.0  # and blocks between live ones, inside a run
    q, _ = on_both_paths(fmt, x, Q.stochastic(seed))
    if fmt != Q.Format.MXFP8:
        assert (q.block_scales.reshape(-1)[:q.block_scales.shape[-1]] == 0).all()


def signed_zero_and_subnormal_input() -> np.ndarray:
    """Blocks of +-0, of subnormals, of values that round to zero next to a large one, and one dead block."""
    x = np.zeros((32, 48), np.float32)
    x[0, :16] = np.where(np.arange(16) % 2, -0.0, 0.0)  # dead block holding -0.0
    x[1, :16] = np.float32(1e-45) * np.arange(-8, 8)
    x[2, :16] = -np.float32(1e-40)
    x[3, 0], x[3, 1:16] = 1000.0, -1e-3  # the small ones round to -0
    x[4:20, 16:32] = np.float32(3e-39) * np.arange(-128, 128).reshape(16, 16)
    x[21, 3] = -0.0  # in a live block
    x[21, 4] = 1.0
    return x


# shape and input scale; 1064 columns and the 2D tiles' odd shapes leave partial blocks
EDGE_CASES = [((), 1.0), ((0, 16), 1.0), ((16, 0), 1.0), ((17, 33), 1.0), ((33, 5), 1e-38), ((5, 33), 1e30),
              ((3, 1064), 1.0), ((2, 3, 40), 1e-45), ((67, 128), 1.0), ((256, 8), 3.0)]
# rows of 2048, 2049 and 2080 columns cross the encoder's run of 64 blocks in both 1D formats, at whole
# blocks and one column past them
RUN_CASES = [((3, 2048), 1.0), ((17, 2049), 1.0), ((2, 2080), 1e-30)]


@pytest.mark.parametrize("mode", [Q.NEAREST_EVEN, Q.stochastic(4)], ids=["nearest", "stochastic"])
@pytest.mark.parametrize("fmt,shape,scale", [(fmt, shape, scale) for fmt in FORMATS for shape, scale in EDGE_CASES
                                             if fmt != Q.Format.NVFP4_2D or len(shape) == 2]
                         + [(fmt, shape, scale) for fmt in FORMATS for shape, scale in RUN_CASES])
def test_c_and_numpy_paths_agree_on_edge_shapes(fmt, mode, shape, scale):
    rng = np.random.default_rng(len(shape) * 1000 + sum(shape))
    x = (rng.standard_normal(shape) * scale).astype(np.float32)
    x.reshape(-1)[::5] = -0.0
    on_both_paths(fmt, x, mode)


@pytest.mark.parametrize("fmt", FORMATS)
@pytest.mark.parametrize("mode", [Q.NEAREST_EVEN, Q.stochastic(4)], ids=["nearest", "stochastic"])
def test_c_and_numpy_paths_agree_on_signed_zeros_and_subnormals(fmt, mode):
    x = signed_zero_and_subnormal_input()
    _, out = on_both_paths(fmt, x, mode)
    if fmt == Q.Format.NVFP4:
        bits = out.view(np.uint32)
        assert (bits[0, :16] == 0).all()  # a dead block decodes to +0.0, even where it held -0.0
        assert (bits[3, 1:16] == 0x80000000).all()  # a live value rounding to zero keeps its sign
        assert bits[21, 3] == 0x80000000


# The first uniform under this key, 0.00264154770411551, is a float32, so an input of it times
# the subnormal step rounds stochastically with a fraction equal to its uniform: a tie.
TIE_KEY = 3278259


@pytest.mark.parametrize("fmt", FORMATS)
def test_c_and_numpy_paths_agree_on_grid_ties(fmt):
    """The sweep's grid points, midpoints and neighbours at unit block scale, which a leading 6 or 448
    in every block sets, rounded to nearest and stochastically by the C kernels and the oracle, and
    stochastically also by the element oracle under the same draws. A midpoint ties with its uniform
    only on a draw of exactly 0.5, so a real draw ties instead: TIE_KEY's first uniform is a float32."""
    top, block = (448.0, 32) if fmt == Q.Format.MXFP8 else (6.0, 16)
    table, sign_bit, grid = (E4M3_VALUES, 7, E4M3_GRID) if fmt == Q.Format.MXFP8 else (E2M1_VALUES, 3, E2M1_GRID)
    vals = sweep_inputs()
    x = unit_scale_rows(vals[np.abs(vals) <= top], top, block)
    q, _ = on_both_paths(fmt, x, Q.NEAREST_EVEN)
    assert_unit_scale(q)
    q, out = on_both_paths(fmt, x, Q.stochastic(TIE_KEY))
    u = philox_uniforms(TIE_KEY, q.codes.shape).reshape(-1)[:x.size].reshape(x.shape)
    expected = table[oracle_encode(x, grid, sign_bit, "stochastic", u)]
    assert np.array_equal(out.view(np.uint32), expected.view(np.uint32))
    u = philox_uniforms(TIE_KEY, 1)[0]
    assert u == np.float32(u) and u == 0.00264154770411551
    tie = np.zeros((16, 2 * block), np.float32)
    tie[0, 0], tie[0, 1] = u * grid[1], top  # the subnormal step times u: its fraction is u
    q, out = on_both_paths(fmt, tie, Q.stochastic(TIE_KEY))
    assert q.codes.reshape(-1)[0] == 0 and out[0, 0] == 0.0  # u < fraction fails at the tie


@pytest.mark.parametrize("path", PATHS)
@pytest.mark.parametrize("fmt", FORMATS)
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_input_raises_on_each_path(path, fmt, bad):
    name = "quantize_mxfp8" if fmt == Q.Format.MXFP8 else "quantize_nvfp4"
    for shape, at in [((3, 20), (2, 19)), ((17, 33), (0, 0)), ((16, 16), (15, 15))]:
        x = np.ones(shape, np.float32)
        x[at] = bad
        with on_path(path), pytest.raises(NumericInputError, match=f"^{name} requires finite inputs$"):
            quantize(fmt, x, Q.stochastic(1))


@pytest.mark.parametrize("path", PATHS)
@pytest.mark.parametrize("fmt", FORMATS)
def test_non_finite_input_raises_ahead_of_codes_past_float32_max_on_each_path(path, fmt):
    x = np.ones((17, 40), np.float32)
    x[0, 0], x[16, 39] = 3.4e38, np.inf  # the first block's codes would decode past float32's maximum
    with on_path(path), pytest.raises(NumericInputError, match="requires finite inputs$"):
        quantize(fmt, x)


PAST_MAX = "input rounds to a code that decodes past float32's maximum"
# The largest inputs whose codes decode finite when rounded to nearest. NVFP4: above
# 2688 * 2^116 the global scale is 2^117, a block maximum past 320 * 6 * 2^117 gets block
# scale 352 (rounded up), and its code, 6, decodes to 2112 * 2^117 > 2^128. MXFP8: above
# 448 * 2^119 the block exponent is 120, and x / 2^120 at or past 248 rounds to 256 (a
# tie goes to 256, the even code), which decodes to 2^128.
LARGEST_FINITE = {Q.Format.NVFP4: np.float32(1920 * 2.0**117), Q.Format.NVFP4_2D: np.float32(1920 * 2.0**117),
                  Q.Format.MXFP8: np.nextafter(np.float32(248 * 2.0**120), np.float32(0))}


@pytest.mark.parametrize("path", PATHS)
@pytest.mark.parametrize("fmt", FORMATS)
@pytest.mark.parametrize("big", [3.4e38, FLT_MAX], ids=["3.4e38", "FLT_MAX"])
def test_codes_decoding_past_float32_max_raise_on_each_path(path, fmt, big):
    name = "quantize_mxfp8" if fmt == Q.Format.MXFP8 else "quantize_nvfp4"
    for shape, at in [((1, 1), (0, 0)), ((3, 40), (1, 35)), ((17, 33), (16, 32))]:
        for sign in (1, -1):
            x = np.ones(shape, np.float32)
            x[at] = sign * big
            with on_path(path), pytest.raises(NumericInputError, match=f"^{name} {PAST_MAX}$"):
                quantize(fmt, x)


@pytest.mark.parametrize("path", PATHS)
@pytest.mark.parametrize("fmt", FORMATS)
def test_largest_inputs_that_do_not_raise_decode_finite_on_each_path(path, fmt):
    top = LARGEST_FINITE[fmt]
    for shape, at in [((1, 1), (0, 0)), ((17, 33), (16, 32))]:
        for sign in (1, -1):
            x = np.ones(shape, np.float32)
            x[at] = sign * top
            with on_path(path):
                out = quantize(fmt, x).dequantize()
                assert np.isfinite(out).all() and abs(out[at]) <= FLT_MAX
                x[at] = sign * np.nextafter(top, np.float32(np.inf))
                with pytest.raises(NumericInputError, match=PAST_MAX):
                    quantize(fmt, x)
    # near the top, stochastic rounding may round either way: each input raises or decodes finite
    outcomes = set()
    for v in np.linspace(0.9 * float(top), float(FLT_MAX), 48).astype(np.float32):
        for seed in range(4):
            with on_path(path):
                try:
                    out = quantize(fmt, np.full((1, 1), v), Q.stochastic(seed)).dequantize()
                except NumericInputError as e:
                    assert str(e).endswith(PAST_MAX)
                    outcomes.add("raised")
                else:
                    assert np.isfinite(out).all()
                    outcomes.add("finite")
    assert outcomes == {"raised", "finite"}


@pytest.mark.parametrize("path", PATHS)
def test_nan_codes_do_not_decode_on_each_path(path):
    nvfp4, _, mxfp8 = serialized_cases()
    scales = nvfp4.block_scales.copy()
    scales[0, 1] = 0xFF
    codes = mxfp8.codes.copy()
    codes[-1, -1, -1] = 0x7F  # in the padding: the numpy path checks the whole grid
    for q in (replace(nvfp4, block_scales=scales), replace(mxfp8, codes=codes)):
        with on_path(path), pytest.raises(NumericInputError, match="NaN E4M3 code"):
            q.dequantize()


@pytest.mark.parametrize("path", PATHS)
def test_codes_or_scales_off_their_grid_do_not_decode_on_each_path(path):
    nvfp4, nvfp4_2d, mxfp8 = serialized_cases()
    damaged = [replace(nvfp4, codes=nvfp4.codes[:, :, :8]), replace(nvfp4, block_scales=nvfp4.block_scales[:-1]),
               replace(nvfp4_2d, codes=nvfp4_2d.codes.reshape(-1)), replace(nvfp4_2d, layout=Q.Layout.BLOCK_1D),
               replace(mxfp8, codes=mxfp8.codes[1:]), replace(mxfp8, scale_exps=mxfp8.scale_exps[:, :1])]
    for q in damaged:
        with on_path(path), pytest.raises(ShapeError, match="do not fit"):
            q.dequantize()


@settings(max_examples=150, deadline=None)
@given(hnp.arrays(np.float32, hnp.array_shapes(min_dims=1, max_dims=2, max_side=40),
                  elements=st.floats(width=32, allow_nan=False, allow_infinity=False, allow_subnormal=True)),
       st.integers(0, 2**32 - 1), st.sampled_from(FORMATS), st.booleans())
def test_c_encode_matches_numpy_encode_property(x, seed, fmt, sr):
    if fmt == Q.Format.NVFP4_2D and x.ndim != 2:
        x = x.reshape(1, -1)
    try:
        _, out = on_both_paths(fmt, x, Q.stochastic(seed) if sr else Q.NEAREST_EVEN)
    except NumericInputError as e:  # near float32's maximum; both paths raised alike
        assert str(e).endswith(PAST_MAX)
    else:
        assert np.isfinite(out).all()


# ---------------------------------------------------------------------------
# precision policy
# ---------------------------------------------------------------------------

K, R, N4, M8 = Q.LayerKind, Q.Format.REFERENCE, Q.Format.NVFP4, Q.Format.MXFP8
RECIPE, ABLATION = Q.PrecisionPolicy(), Q.PrecisionPolicy(quantize_sensitive=True)
ALWAYS_REFERENCE = (K.LATENT_DOWN, K.LATENT_UP, K.MTP_MIX, K.ROUTER_GATE, K.LM_HEAD)

POLICY_TABLE = [  # policy, kind, layer index, layer count, format
    *[(Q.PrecisionPolicy(base="reference", quantize_sensitive=s), k, 0, 10, R)
      for s in (False, True) for k in (K.EXPERT_FFN, K.QKV_PROJ, K.MAMBA_OUT_PROJ)],
    *[(p, k, 0, 10, R) for p in (RECIPE, ABLATION) for k in ALWAYS_REFERENCE],
    *[(p, k, 0, 10, N4) for p in (RECIPE, ABLATION) for k in (K.MAMBA_IN_PROJ, K.EXPERT_FFN, K.SHARED_EXPERT)],
    (RECIPE, K.QKV_PROJ, 0, 10, R), (RECIPE, K.ATTN_OUT_PROJ, 0, 10, R), (RECIPE, K.MAMBA_OUT_PROJ, 0, 10, M8),
    (ABLATION, K.QKV_PROJ, 0, 10, N4), (ABLATION, K.ATTN_OUT_PROJ, 0, 10, N4),
    (ABLATION, K.MAMBA_OUT_PROJ, 0, 10, N4),
    # the last ceil(fraction * count) layers stay reference: 2 of 10 at 0.15
    (RECIPE, K.EXPERT_FFN, 7, 10, N4), (RECIPE, K.EXPERT_FFN, 8, 10, R), (ABLATION, K.QKV_PROJ, 8, 10, R),
    (RECIPE, K.MAMBA_OUT_PROJ, 9, 10, R), (ABLATION, K.MAMBA_OUT_PROJ, 9, 10, R),
    (Q.PrecisionPolicy(fraction_high_precision_tail=0.0), K.EXPERT_FFN, 3, 4, N4),
    (Q.PrecisionPolicy(fraction_high_precision_tail=0.15), K.EXPERT_FFN, 2, 4, N4),
    (Q.PrecisionPolicy(fraction_high_precision_tail=0.15), K.EXPERT_FFN, 3, 4, R),
    (Q.PrecisionPolicy(fraction_high_precision_tail=0.5), K.EXPERT_FFN, 1, 4, N4),
    (Q.PrecisionPolicy(fraction_high_precision_tail=0.5), K.EXPERT_FFN, 2, 4, R),
    (Q.PrecisionPolicy(fraction_high_precision_tail=1.0), K.EXPERT_FFN, 0, 4, R),
]


@pytest.mark.parametrize("policy,kind,index,total,fmt", POLICY_TABLE)
def test_precision_policy_table(policy, kind, index, total, fmt):
    desc = Q.LayerDescriptor(kind, index, total)
    assert Q.resolve_precision(desc, policy) == fmt
    expected = {R: Q.REFERENCE_LINEAR, M8: Q.LinearPrecision(M8, M8, M8, 3),
                N4: Q.LinearPrecision(N4, Q.Format.NVFP4_2D, N4, 3)}[fmt]
    assert Q.linear_precision(desc, policy, seed=3) == expected


@pytest.mark.parametrize("policy", [RECIPE, Q.PrecisionPolicy(base="reference")])
def test_precision_policy_rejects_a_layer_index_past_the_stack(policy):
    for index in (4, 5):
        with pytest.raises(ConfigError):
            Q.resolve_precision(Q.LayerDescriptor(K.EXPERT_FFN, index, 4), policy)
        with pytest.raises(ConfigError):
            Q.linear_precision(Q.LayerDescriptor(K.EXPERT_FFN, index, 4), policy, seed=0)
