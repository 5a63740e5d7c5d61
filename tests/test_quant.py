"""Quantizer checks against independent oracles.

The rounding oracle is the sorted-grid search the encoders used before they
rounded on float32 bits; the decode tables are checked against the OCP
Microscaling Formats (MX) v1.0 values.
"""

import hashlib
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import hybridlm.quant as Q
import hybridlm.tensor as T
from hybridlm.errors import CheckpointError, ConfigError, NumericInputError

# ---------------------------------------------------------------------------
# oracle: OCP MX v1.0 element values and searchsorted rounding
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
GRIDS = {"e2m1": (E2M1_GRID, 3, Q.encode_e2m1), "e4m3": (E4M3_GRID, 7, Q.encode_e4m3)}


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


def oracle_encode(x, grid, sign_bit, how, seed=0):
    arr = np.asarray(x, np.float32)
    mag = np.abs(arr)
    if how == "up":
        idx = oracle_round_up(mag, grid)
    elif how == "stochastic":
        u = Q.stochastic(seed).uniforms(arr.shape)
        idx = oracle_stochastic(np.minimum(mag, grid[-1]), grid, u)
    else:
        idx = oracle_nearest_even(mag, grid)
    return ((np.signbit(arr).astype(np.uint8) << sign_bit) | idx.astype(np.uint8)).astype(np.uint8)


def encode(name, x, how, seed=0):
    enc = GRIDS[name][2]
    if how == "up":
        return enc(x, round_up=True)
    return enc(x, Q.stochastic(seed) if how == "stochastic" else Q.NEAREST_EVEN)


HOWS = [("e2m1", "nearest"), ("e2m1", "stochastic"), ("e4m3", "nearest"), ("e4m3", "stochastic"),
        ("e4m3", "up")]


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
    grid, sign_bit, _ = GRIDS[name]
    x = sweep_inputs()
    assert np.array_equal(encode(name, x, how, seed=5), oracle_encode(x, grid, sign_bit, how, seed=5))


@settings(max_examples=200, deadline=None)
@given(hnp.arrays(np.float32, st.integers(1, 64),
                  elements=st.floats(-1e4, 1e4, width=32, allow_subnormal=True)),
       st.integers(0, 2**32 - 1))
def test_rounding_matches_searchsorted_oracle_property(x, seed):
    for name, how in HOWS:
        grid, sign_bit, _ = GRIDS[name]
        expected = oracle_encode(x, grid, sign_bit, how, seed)
        assert np.array_equal(encode(name, x, how, seed), expected), (name, how)


def test_encoders_keep_shape_of_scalars_and_matrices():
    assert Q.encode_e2m1(1.4).shape == () and Q.encode_e2m1(1.4) == 3
    assert Q.encode_e4m3(np.ones((2, 3)), Q.stochastic(1)).shape == (2, 3)


def test_encoders_reject_non_finite_input():
    with pytest.raises(NumericInputError):
        Q.encode_e2m1([1.0, np.nan])
    with pytest.raises(NumericInputError):
        Q.encode_e4m3([np.inf])


# ---------------------------------------------------------------------------
# decode tables and ties
# ---------------------------------------------------------------------------


def test_e2m1_table_matches_ocp_values():
    expected = np.array(OCP_E2M1 + [-v for v in OCP_E2M1], np.float32)
    assert Q.E2M1_TABLE.dtype == np.float32
    assert Q.E2M1_TABLE.tobytes() == expected.tobytes()  # code 8 is -0.0
    assert Q.decode_e2m1(np.arange(16, dtype=np.uint8)).tobytes() == expected.tobytes()


def test_e4m3_table_matches_ocp_values():
    expected = np.array([ocp_e4m3(c) for c in range(256)], np.float32)
    nan = np.isnan(expected)
    assert list(np.flatnonzero(nan)) == [0x7F, 0xFF]
    assert np.isnan(Q.E4M3_TABLE[nan]).all()
    assert Q.E4M3_TABLE[~nan].tobytes() == expected[~nan].tobytes()
    assert (Q.E4M3_TABLE[0x7E], Q.E4M3_TABLE[0x01], Q.E4M3_TABLE[0x08], Q.E4M3_TABLE[0xFE]) == (
        448.0, 2.0 ** -9, 2.0 ** -6, -448.0)
    with pytest.raises(NumericInputError):
        Q.decode_e4m3([0x7F])


@pytest.mark.parametrize("name", ["e2m1", "e4m3"])
def test_ties_round_to_the_even_code(name):
    grid, sign_bit, enc = GRIDS[name]
    g = grid.astype(np.float64)
    mids = ((g[1:] + g[:-1]) / 2).astype(np.float32)
    assert np.array_equal(mids.astype(np.float64), (g[1:] + g[:-1]) / 2)  # exact midpoints
    codes = enc(mids)
    assert (codes % 2 == 0).all()
    lower = np.arange(len(mids))
    assert np.array_equal(codes, lower + lower % 2)
    assert np.array_equal(enc(-mids), codes | (1 << sign_bit))
    if name == "e2m1":
        assert list(enc([0.25, 0.75, 1.25, 2.5, 3.5, 5.0])) == [0, 2, 2, 4, 6, 6]


@pytest.mark.parametrize("name,x", [("e2m1", 0.1), ("e2m1", 2.3), ("e2m1", 5.9),
                                    ("e4m3", 0.0011), ("e4m3", 300.0)])
def test_stochastic_rounding_is_unbiased(name, x):
    n = 200_000
    grid, _, enc = GRIDS[name]
    decode = Q.decode_e2m1 if name == "e2m1" else Q.decode_e4m3
    vals = decode(enc(np.full(n, x, np.float32), Q.stochastic(20251217))).astype(np.float64)
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
        eff = Q.decode_e4m3(q.block_scales).astype(np.float64) * q.global_scale
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


def test_global_scale_override_that_would_clamp_raises():
    x = np.zeros((1, 16), np.float32)
    x[0, 0] = 1e5
    with pytest.raises(NumericInputError, match="clamp"):
        Q.quantize_nvfp4(x, global_scale=1.0)
    for bad in (0.0, -1.0, np.nan, np.inf):
        with pytest.raises(NumericInputError):
            Q.quantize_nvfp4(x, global_scale=bad)
    x[0, 0] = 6 * 448  # the largest block max a unit global scale holds
    assert Q.quantize_nvfp4(x, global_scale=1.0).dequantize()[0, 0] == 2688.0


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


# ---------------------------------------------------------------------------
# random Hadamard transform and the quantized linear
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("seed", [0, 1, 7])
def test_rht_pair_in_the_quantized_gemm_leaves_the_product_unchanged(seed, monkeypatch):
    rng = np.random.default_rng(seed)
    a, b = rng.standard_normal((24, 56)), rng.standard_normal((56, 40))  # k pads to 64
    tr = Q.random_hadamard(16, seed)
    assert np.abs(tr.matrix.astype(np.float64) @ tr.matrix.T - np.eye(16)).max() < 1e-12
    # with quantization switched off, only the transform pair acts on the float64 operands
    monkeypatch.setattr(Q, "quantize_dequantize", lambda data, fmt, mode=None: data)
    out = Q._qgemm_arrays(a, b, Q.Format.NVFP4, Q.Format.NVFP4, Q.QgemmOptions(rht_on_a=True, rht_seed=seed))
    assert out.dtype == np.float64 and np.abs(out - a @ b).max() < 1e-12


def test_nvfp4_weight_gradient_points_along_the_reference():
    rng = np.random.default_rng(3)
    x = T.Tensor(rng.standard_normal((128, 64)).astype(np.float32), requires_grad=True)
    w = T.Tensor((rng.standard_normal((64, 48)) / 8).astype(np.float32), requires_grad=True)
    dy = T.Tensor(rng.standard_normal((128, 48)).astype(np.float32))
    prec = Q.LinearPrecision(Q.Format.NVFP4, Q.Format.NVFP4_2D, Q.Format.NVFP4, seed=5)
    with T.Tape() as tape:
        loss = T.sum_all(T.mul(Q.quantized_linear(x, w, prec), dy))
    T.backward(tape, loss)
    ref = x.data.astype(np.float64).T @ dy.data.astype(np.float64)
    dw = w.grad.astype(np.float64)
    assert (dw * ref).sum() / np.linalg.norm(dw) / np.linalg.norm(ref) > 0.9
