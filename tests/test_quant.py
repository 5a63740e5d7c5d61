"""Quantizer checks against independent oracles.

The rounding oracle is the sorted-grid search the encoders used before they
rounded on float32 bits; the decode tables are checked against the OCP
Microscaling Formats (MX) v1.0 values.
"""

import hashlib
import struct
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import hybridlm.quant as Q
import hybridlm.tensor as T
from hybridlm.errors import CheckpointError, ConfigError, NumericInputError, ShapeError

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
        with pytest.raises(CheckpointError):
            Q.quantized_from_bytes(Q.quantized_to_bytes(q))
    for e in (-127, 127):  # E8M0's ends load
        raw = Q.quantized_to_bytes(poke(mxfp8, "scale_exps", (1, 1), e))
        assert Q.quantized_from_bytes(raw).scale_exps[1, 1] == e


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
    assert ta.shape == (24, 64) and tb.shape == (64, 40)
    out = T.matmul_exact(ta, tb)
    assert out.dtype == np.float64 and np.abs(out - a @ b).max() < 1e-12


def test_nvfp4_weight_gradient_points_along_the_reference():
    rng = np.random.default_rng(3)
    x = T.Tensor(rng.standard_normal((128, 64)).astype(np.float32), requires_grad=True)
    w = T.Tensor((rng.standard_normal((64, 48)) / 8).astype(np.float32), requires_grad=True)
    dy = T.Tensor(rng.standard_normal((128, 48)).astype(np.float32))
    with T.Tape() as tape:
        loss = T.sum_all(T.mul(Q.quantized_linear(x, w, NVFP4_RECIPE), dy))
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
        loss = T.sum_all(T.mul(out, dy))
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
    x = T.Tensor(np.ones((4, 32), np.float32), requires_grad=True)
    w = T.Tensor(np.ones((32, 16), np.float32))
    with pytest.raises(ConfigError):
        Q.quantized_linear(x, w, Q.LinearPrecision(x_format="fp16"))
    with T.Tape() as tape:
        loss = T.sum_all(Q.quantized_linear(x, w, Q.LinearPrecision(grad_format="fp16")))
    with pytest.raises(ConfigError):
        T.backward(tape, loss)


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
