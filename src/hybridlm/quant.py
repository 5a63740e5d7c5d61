"""Bit-exact 4/8-bit microscaling formats and simulated quantized GEMMs.

Two storage formats are modeled:

* 4-bit: E2M1 elements in 16-element micro-blocks (1D along the last axis)
  or 16x16 tiles (2D, for weights), each block carrying an E4M3 scale, plus
  one float32 power-of-two global scale per tensor.
* 8-bit: E4M3 elements in 32-element blocks with power-of-two (E8M0)
  block scales.

No low-precision arithmetic is performed anywhere: tensors are encoded,
decoded, and multiplied with the reference matmul (quantize-dequantize
simulation). Every decode is exact in float32 because element grids have
few significand bits, block scales have four, and global scales are powers
of two, so dequantized values are products that round nowhere.

Supporting machinery: sign-randomized Hadamard transforms for spreading
outliers ahead of gradient-side quantization, seeded stochastic rounding,
and the per-layer precision policy used when wiring a model for
mixed-precision training.
"""

from __future__ import annotations

import math
import struct
from collections import namedtuple
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import CheckpointError, ConfigError, NumericInputError, ShapeError
from .tensor import Tensor, _make, matmul_exact

# ---------------------------------------------------------------------------
# Rounding modes
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RoundingMode:
    """Nearest-even or seeded stochastic rounding.

    Stochastic draws are a pure function of (seed, element index): the
    uniform array is generated over the padded block grid in C order, so
    the same seed and input always produce the same codes.
    """

    kind: str  # "nearest" | "stochastic"
    seed: int = 0

    def uniforms(self, shape) -> np.ndarray:
        rng = np.random.Generator(np.random.Philox(key=self.seed))
        return rng.random(shape)


NEAREST_EVEN = RoundingMode("nearest")


def stochastic(seed: int) -> RoundingMode:
    return RoundingMode("stochastic", seed)


# ---------------------------------------------------------------------------
# Grids and scalar codecs
# ---------------------------------------------------------------------------

# E2M1 and E4M3 are minifloats with mb mantissa bits and smallest normal
# 2^emin. A code's magnitude bits, (biased exponent << mb) | mantissa, are
# the index of its value in the sorted grid, and exponent 0 holds the
# subnormals mantissa * 2^(emin - mb). So rounding is integer arithmetic on
# float32 bits: bits >> (23 - mb) keeps the exponent and the top mb mantissa
# bits, and a bias added first makes that truncation a floor (0), a ceiling
# (2^(23-mb) - 1) or round-half-to-even (2^(22-mb) - 1 plus the lowest kept
# bit). A mantissa carry lands in the exponent, which is the next code, and
# subtracting (126 + emin) << mb rebases float32's exponent onto the grid's.
# Below 2^emin the grid is uniform, so the index there is rint/floor/ceil of
# min(mag, 2^emin) * 2^(mb - emin), exact in float32. Each candidate is the
# smaller outside its own range, so the index is their maximum, clamped to
# the top code: that saturates at +-6 and +-448 and never makes E4M3's NaN
# code. Ties go to even integers, that is to even codes.

# mantissa bits, exponent of the smallest normal, code and value of the
# largest finite magnitude, bit position of the sign in a code
_Grid = namedtuple("_Grid", "mb emin top max sign_bit")
_E2M1 = _Grid(1, 0, 7, 6.0, 3)
_E4M3 = _Grid(3, -6, 126, 448.0, 7)
E2M1_MAX, E4M3_MAX = _E2M1.max, _E4M3.max
E8M0_MIN_EXP, E8M0_MAX_EXP = -127, 127
_SUBNORMAL_ROUND = {"nearest": np.rint, "floor": np.floor, "ceil": np.ceil}


def _round_index(mag: np.ndarray, grid: _Grid, how: str) -> np.ndarray:
    """int32 grid index of float32 magnitudes ``mag``, which it overwrites.

    ``how`` is "nearest" (ties to the even code), "floor" or "ceil".
    """
    shift = 23 - grid.mb
    bits = mag.view(np.int32)
    if how == "nearest":  # the lowest kept bit joins the bias, so ties go to the even code
        idx = bits >> shift
        idx &= 1
        idx += bits
    else:
        idx = bits.copy()
    idx += {"floor": 0, "ceil": (1 << shift) - 1, "nearest": (1 << (shift - 1)) - 1}[how]
    idx >>= shift
    idx -= (126 + grid.emin) << grid.mb
    np.minimum(mag, np.float32(2.0 ** grid.emin), out=mag)
    mag *= np.float32(2.0 ** (grid.mb - grid.emin))
    np.maximum(idx, _SUBNORMAL_ROUND[how](mag, out=bits, casting="unsafe"), out=idx)
    return np.minimum(idx, grid.top, out=idx)


def _round_index_stochastic(mag: np.ndarray, grid: _Grid, u: np.ndarray) -> np.ndarray:
    """Floor index, plus one where ``u`` < (mag - floor value) / step, for mag <= grid.max.

    That fraction is exact in float32: the dropped mantissa bits above 2^emin,
    the fractional part of mag / step below it. Overwrites ``mag``."""
    shift = 23 - grid.mb
    tiny = np.float32(2.0 ** grid.emin)
    low = np.maximum(mag, tiny).view(np.int32)
    low &= (1 << shift) - 1
    frac = low.astype(np.float32)
    frac *= np.float32(2.0 ** -shift)
    sub = np.minimum(mag, tiny)
    sub *= np.float32(2.0 ** (grid.mb - grid.emin))
    sub -= np.floor(sub)
    frac += sub
    idx = _round_index(mag, grid, "floor")
    idx += u < frac
    return idx


def _check_finite(x: np.ndarray, what: str) -> None:
    if not np.isfinite(x).all():
        raise NumericInputError(f"{what} requires finite inputs")


def _encode(x: np.ndarray, grid: _Grid, mode: RoundingMode, round_up: bool = False) -> np.ndarray:
    """uint8 sign-magnitude codes of the finite float32 array ``x`` (at least 1-D), which it overwrites."""
    sign = x.view(np.int32) >> (31 - grid.sign_bit)
    sign &= 1 << grid.sign_bit
    mag = np.abs(x, out=x)
    if round_up:
        idx = _round_index(mag, grid, "ceil")
    elif mode.kind == "stochastic":
        np.minimum(mag, np.float32(grid.max), out=mag)
        idx = _round_index_stochastic(mag, grid, mode.uniforms(x.shape))
    else:
        idx = _round_index(mag, grid, "nearest")
    idx |= sign
    return idx.astype(np.uint8)


def encode_e2m1(x, mode: RoundingMode = NEAREST_EVEN) -> np.ndarray:
    """4-bit codes (sign<<3 | grid index) for values clamped to +-6."""
    arr = np.array(x, np.float32)  # a copy, which the encoder overwrites
    _check_finite(arr, "encode_e2m1")
    return _encode(arr.reshape(-1), _E2M1, mode).reshape(arr.shape)


def encode_e4m3(x, mode: RoundingMode = NEAREST_EVEN, round_up: bool = False) -> np.ndarray:
    """8-bit codes; finite-only (the NaN code is never produced)."""
    arr = np.array(x, np.float32)  # a copy, which the encoder overwrites
    _check_finite(arr, "encode_e4m3")
    return _encode(arr.reshape(-1), _E4M3, mode, round_up).reshape(arr.shape)


def _decode_table(grid: _Grid) -> np.ndarray:
    """Values of every code: magnitudes by index, then the same with the sign bit set."""
    idx = np.arange(1 << grid.sign_bit, dtype=np.int32)
    normal = ((idx + ((126 + grid.emin) << grid.mb)) << (23 - grid.mb)).view(np.float32)
    mags = np.where(idx < (1 << grid.mb), idx * 2.0 ** (grid.emin - grid.mb), normal).astype(np.float32)
    mags[grid.top + 1:] = np.nan
    return np.concatenate([mags, -mags])


E2M1_TABLE = _decode_table(_E2M1)  # 16 entries; code 8 is -0.0
E4M3_TABLE = _decode_table(_E4M3)  # 256 entries; codes 0x7F and 0xFF are NaN


def decode_e2m1(codes) -> np.ndarray:
    return E2M1_TABLE.take(np.asarray(codes, np.uint8) & 0xF)


def decode_e4m3(codes) -> np.ndarray:
    codes = np.asarray(codes, np.uint8)
    if np.any((codes & 0x7F) == 0x7F):
        raise NumericInputError("NaN E4M3 code cannot be decoded")
    return E4M3_TABLE.take(codes)


# ---------------------------------------------------------------------------
# Block-scaled tensors
# ---------------------------------------------------------------------------


class Layout(str, Enum):
    BLOCK_1D = "1d16"   # 16-element micro-blocks along the last axis
    BLOCK_2D = "2d16"   # 16x16 tiles over a matrix (weights)


BLOCK_1D_SIZE = 16
BLOCK_2D_TILE = 16
MXFP8_BLOCK = 32


def _last_axis_grid(shape: tuple[int, ...], block: int) -> tuple[int, int, int]:
    """[rows, blocks, block] grid of zero-padded blocks along the last axis (0-d: one element)."""
    cols = shape[-1] if shape else 1
    return math.prod(shape[:-1]), -(-cols // block), block


def _last_axis_blocks(data: np.ndarray, block: int) -> np.ndarray:
    """``data`` on its ``_last_axis_grid``; copies only to pad or to make it contiguous."""
    rows, nblk, _ = grid = _last_axis_grid(data.shape, block)
    cols = data.shape[-1] if data.ndim else 1
    flat = data.reshape(rows, cols)
    if cols % block:
        flat = np.pad(flat, ((0, 0), (0, nblk * block - cols)))
    return flat.reshape(grid)


def _abs_max_last(x: np.ndarray) -> np.ndarray:
    """max(|x|) over a last axis of power-of-two length, by halving: two to
    three times faster than numpy's reduction over a short contiguous axis."""
    x = np.abs(x)
    while x.shape[-1] > 1:
        half = x.shape[-1] // 2
        x = np.maximum(x[..., :half], x[..., half:])
    return x[..., 0]


def _from_last_axis_blocks(blocks: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Inverse of ``_last_axis_blocks``: drop the padding, restore ``shape``."""
    rows, nblk, block = blocks.shape
    cols = shape[-1] if shape else 1
    return np.ascontiguousarray(blocks.reshape(rows, nblk * block)[:, :cols]).reshape(shape)


@dataclass
class QuantizedTensorNVFP4:
    """4-bit codes + E4M3 block scales + float32 power-of-two global scale.

    Codes and scales are stored over the zero-padded block grid; padding
    decodes to zero and is sliced off on dequantize.
    """

    shape: tuple[int, ...]
    layout: Layout
    codes: np.ndarray        # uint8, padded grid, one code value per element
    block_scales: np.ndarray  # uint8 E4M3 codes
    global_scale: np.float32

    def dequantize(self) -> np.ndarray:
        vals = decode_e2m1(self.codes)
        scales = decode_e4m3(self.block_scales) * self.global_scale
        if self.layout == Layout.BLOCK_1D:
            return _from_last_axis_blocks(vals * scales[:, :, None], self.shape)
        pr, pc = vals.shape
        tiled = vals.reshape(pr // BLOCK_2D_TILE, BLOCK_2D_TILE, pc // BLOCK_2D_TILE, BLOCK_2D_TILE)
        out = (tiled * scales[:, None, :, None]).reshape(pr, pc)
        return np.ascontiguousarray(out[: self.shape[0], : self.shape[1]])


@dataclass
class QuantizedTensorMXFP8:
    """E4M3 element codes in 32-element blocks with power-of-two scales."""

    shape: tuple[int, ...]
    codes: np.ndarray        # uint8 E4M3, padded to whole blocks
    scale_exps: np.ndarray   # int16 exponents, one per block

    def dequantize(self) -> np.ndarray:
        scales = np.ldexp(np.float32(1.0), self.scale_exps.astype(np.int32))
        return _from_last_axis_blocks(decode_e4m3(self.codes) * scales[:, :, None], self.shape)


def _pow2_exponent(amax, limit: float):
    """Smallest integer e with amax <= limit * 2^e for amax > 0: with amax = m 2^k
    and limit = l 2^j, m and l in [0.5, 1), it is k - j, plus one when m > l."""
    m, k = np.frexp(amax)
    lm, lk = math.frexp(limit)
    return k - lk + (m > lm)


def _pow2_global_scale(amax: float) -> np.float32:
    """Smallest power of two g with amax/(6g) <= 448, floored at 2^-126.

    A power of two keeps every block_scale * global product exact in
    float32; the raw block scale of the hottest block lands in (224, 448].
    """
    e = _pow2_exponent(amax, E2M1_MAX * E4M3_MAX) if amax > 0 else -126
    return np.float32(2.0 ** max(int(e), -126))


def quantize_nvfp4(
    t: Tensor | np.ndarray,
    layout: Layout = Layout.BLOCK_1D,
    mode: RoundingMode = NEAREST_EVEN,
    global_scale: float | None = None,
) -> QuantizedTensorNVFP4:
    """Encode a tensor as E2M1 codes with E4M3 block scales.

    Block scales are amax(block) / (6 * global), encoded rounding up in
    magnitude so scaled elements never exceed +-6 and the element encoder
    never clamps. All-zero blocks get scale code 0 and element codes 0.
    ``global_scale`` overrides the derived per-tensor scale (used by tests
    that need unit scales); an override under which a block scale would
    exceed E4M3's range raises ``NumericInputError``.
    """
    data = np.asarray(t.data if isinstance(t, Tensor) else t, np.float32)
    _check_finite(data, "quantize_nvfp4")
    shape = data.shape
    if layout == Layout.BLOCK_1D:
        blocks = _last_axis_blocks(data, BLOCK_1D_SIZE)  # [rows, blocks, 16]
        amax, per_block = _abs_max_last(blocks), np.s_[:, :, None]
    elif layout == Layout.BLOCK_2D:
        if data.ndim != 2:
            raise ShapeError(f"2D block layout needs a matrix, got shape {shape}")
        pr, pc = (-(-n // BLOCK_2D_TILE) * BLOCK_2D_TILE for n in shape)
        padded = np.pad(data, ((0, pr - shape[0]), (0, pc - shape[1]))) if (pr, pc) != shape else data
        blocks = padded.reshape(pr // BLOCK_2D_TILE, BLOCK_2D_TILE, pc // BLOCK_2D_TILE, BLOCK_2D_TILE)
        amax, per_block = _abs_max_last(np.abs(blocks).max(axis=1)), np.s_[:, None, :, None]
    else:  # pragma: no cover
        raise ConfigError(f"unknown layout {layout}")

    g = np.float32(_pow2_global_scale(float(amax.max(initial=0.0))) if global_scale is None else global_scale)
    with np.errstate(divide="ignore", invalid="ignore"):
        raw = amax.astype(np.float64) / (E2M1_MAX * float(g))
    if not (0 < g < np.inf and raw.max(initial=0.0) <= E4M3_MAX):
        raise NumericInputError(f"global_scale {global_scale} is not finite and positive or clamps a scale")
    scale_codes = _encode(raw.astype(np.float32), _E4M3, NEAREST_EVEN, round_up=True)  # 0 where amax == 0
    eff = decode_e4m3(scale_codes) * g  # exact: 4-bit significand times a power of two
    live = eff != 0.0
    eff[~live] = 1.0
    codes = _encode(blocks / eff[per_block], _E2M1, mode)
    codes *= live[per_block]
    if layout == Layout.BLOCK_2D:
        codes = codes.reshape(pr, pc)
    return QuantizedTensorNVFP4(shape, layout, codes, scale_codes, g)


def quantize_mxfp8(t: Tensor | np.ndarray, mode: RoundingMode = NEAREST_EVEN) -> QuantizedTensorMXFP8:
    """Encode with E4M3 elements and power-of-two scales per 32-wide block.

    The block exponent is the smallest power of two that brings the block
    max within E4M3 range, so block maxima never clamp.
    """
    data = np.asarray(t.data if isinstance(t, Tensor) else t, np.float32)
    _check_finite(data, "quantize_mxfp8")
    blocks = _last_axis_blocks(data, MXFP8_BLOCK)
    amax = _abs_max_last(blocks)

    e = np.where(amax > 0, _pow2_exponent(amax, E4M3_MAX), E8M0_MIN_EXP)
    e = np.clip(e, E8M0_MIN_EXP, E8M0_MAX_EXP).astype(np.int16)
    scaled = blocks / np.exp2(e.astype(np.float32))[:, :, None]
    return QuantizedTensorMXFP8(data.shape, _encode(scaled, _E4M3, mode), e)


# ---------------------------------------------------------------------------
# Random Hadamard transform
# ---------------------------------------------------------------------------


def random_hadamard(n: int, seed: int) -> np.ndarray:
    """Orthogonal float32 [n, n] matrix (1/sqrt(n)) H_n D with a seeded random +-1 diagonal D."""
    if n <= 0 or (n & (n - 1)) != 0:
        raise ConfigError(f"Hadamard size must be a power of two, got {n}")
    if n == 1:
        return np.ones((1, 1), np.float32)
    h = np.ones((1, 1), np.float64)
    while h.shape[0] < n:
        h = np.block([[h, h], [h, -h]])
    rng = np.random.Generator(np.random.Philox(key=seed))
    d = rng.integers(0, 2, n) * 2 - 1
    return (h * d[None, :] / np.sqrt(n)).astype(np.float32)


def apply_rht(x: np.ndarray, matrix: np.ndarray, axis: int) -> np.ndarray:
    """Map every n-block v of the vectors along ``axis`` to v @ M (length must divide by n).

    For A's rows (axis=1) that is A M, for B's columns (axis=0) M^T B, so
    transforming both contraction axes leaves A @ B unchanged: M M^T = I.
    """
    n = matrix.shape[0]
    if x.shape[axis] % n != 0:
        raise ShapeError(f"axis length {x.shape[axis]} not divisible by transform size {n}")
    moved = np.moveaxis(x, axis, -1)
    blocked = moved.reshape(*moved.shape[:-1], moved.shape[-1] // n, n)
    out = blocked @ matrix
    return np.moveaxis(out.reshape(moved.shape), -1, axis)


RHT_BLOCK = 16


def _rht_pair(a: np.ndarray, b: np.ndarray, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """(A M, M^T B) for one seeded 16-point transform M, after zero-padding the contraction axis to 16."""
    pad = (-a.shape[1]) % RHT_BLOCK
    if pad:
        a = np.concatenate([a, np.zeros((a.shape[0], pad), a.dtype)], axis=1)
        b = np.concatenate([b, np.zeros((pad, b.shape[1]), b.dtype)], axis=0)
    m = random_hadamard(RHT_BLOCK, seed)
    return apply_rht(a, m, axis=1), apply_rht(b, m, axis=0)


# ---------------------------------------------------------------------------
# Formats and simulated GEMM
# ---------------------------------------------------------------------------


class Format(str, Enum):
    REFERENCE = "reference"
    NVFP4 = "nvfp4"        # 1D 16-element blocks (activations, gradients)
    NVFP4_2D = "nvfp4_2d"  # 16x16 tiles (weights)
    MXFP8 = "mxfp8"


def _qdq(data: np.ndarray, fmt: Format, axis: int, mode: RoundingMode = NEAREST_EVEN) -> np.ndarray:
    """Quantize-dequantize a matrix with 1D blocks along ``axis``, its GEMM's
    contraction axis; REFERENCE and NVFP4_2D's 16x16 tiles ignore the axis."""
    if fmt == Format.REFERENCE:
        return data
    if fmt == Format.NVFP4_2D:
        return quantize_nvfp4(data, Layout.BLOCK_2D, mode).dequantize()
    if fmt not in (Format.NVFP4, Format.MXFP8):
        raise ConfigError(f"unknown format {fmt}")
    rows = data if axis == 1 else np.ascontiguousarray(data.T)  # blocks run along the last axis
    q = quantize_nvfp4(rows, Layout.BLOCK_1D, mode) if fmt == Format.NVFP4 else quantize_mxfp8(rows, mode)
    return q.dequantize() if axis == 1 else q.dequantize().T


@dataclass(frozen=True)
class LinearPrecision:
    """Resolved GEMM formats for one linear layer's three passes.

    Quantization noise enters exactly where a low-precision GEMM would run:
    forward (x @ w), input gradient (dy @ w^T), and weight gradient
    (x^T @ dy). The gradient operand is stochastically rounded; weight-
    gradient inputs get the Hadamard pair when the format is 4-bit.
    Block scaling guarantees encoders never clamp, so the straight-through
    gradient of each quantize-dequantize is exactly identity.
    """

    x_format: Format = Format.REFERENCE
    w_format: Format = Format.REFERENCE
    grad_format: Format = Format.REFERENCE
    seed: int = 0

    @property
    def active(self) -> bool:
        return (self.x_format != Format.REFERENCE or self.w_format != Format.REFERENCE
                or self.grad_format != Format.REFERENCE)


REFERENCE_LINEAR = LinearPrecision()


def quantized_linear(x: Tensor, w: Tensor, prec: LinearPrecision = REFERENCE_LINEAR) -> Tensor:
    """Differentiable linear with quantize-dequantize simulation on all paths.

    Each pass blocks both operands along its contraction axis. 16x16 tiles
    commute with transposition, so dgrad reuses the forward's NVFP4_2D
    weight; 1D weight formats are blocked again along the other axis.
    """
    wq = _qdq(w.data, prec.w_format, 0)
    out = matmul_exact(_qdq(x.data, prec.x_format, 1), wq)
    w_fwd = wq if prec.w_format in (Format.REFERENCE, Format.NVFP4_2D) else None  # what dgrad reuses

    def bwd(dout):
        dx = dw = None
        if x.requires_grad:
            wd = w_fwd if w_fwd is not None else _qdq(w.data, prec.w_format, 1)
            dx = matmul_exact(_qdq(dout, prec.grad_format, 1, stochastic(prec.seed)), wd.T)
        if w.requires_grad:
            a, b = x.data.T, dout
            if prec.grad_format in (Format.NVFP4, Format.NVFP4_2D):
                a, b = _rht_pair(a, b, prec.seed + 1)
            x_format = Format.NVFP4 if prec.x_format == Format.NVFP4_2D else prec.x_format
            dw = matmul_exact(_qdq(a, x_format, 1), _qdq(b, prec.grad_format, 0, stochastic(prec.seed + 2)))
        return dx, dw

    return _make(out, (x, w), bwd)


# ---------------------------------------------------------------------------
# Precision policy
# ---------------------------------------------------------------------------


class LayerKind(str, Enum):
    MAMBA_IN_PROJ = "mamba_in_proj"
    MAMBA_OUT_PROJ = "mamba_out_proj"
    QKV_PROJ = "qkv_proj"
    ATTN_OUT_PROJ = "attn_out_proj"
    ROUTER_GATE = "router_gate"
    EXPERT_FFN = "expert_ffn"
    SHARED_EXPERT = "shared_expert"
    LATENT_DOWN = "latent_down"
    LATENT_UP = "latent_up"
    MTP_MIX = "mtp_mix"
    LM_HEAD = "lm_head"


# kinds that are never quantized under any low-precision policy
_ALWAYS_REFERENCE = {LayerKind.LATENT_DOWN, LayerKind.LATENT_UP, LayerKind.MTP_MIX,
                     LayerKind.ROUTER_GATE, LayerKind.LM_HEAD}
# attention fidelity set: reference under the recommended recipe, 4-bit
# under the sensitivity ablation
_SENSITIVE_ATTENTION = {LayerKind.QKV_PROJ, LayerKind.ATTN_OUT_PROJ}


@dataclass(frozen=True)
class PrecisionPolicy:
    """Per-layer-kind precision assignment for training GEMMs.

    ``base`` "reference" disables quantization entirely. Under "nvfp4":
    the last ceil(fraction * L) composite layers stay reference, QKV and
    attention output projections stay reference, Mamba output projections
    store in 8-bit, latent and MTP projections stay reference, and the
    rest run 4-bit. ``quantize_sensitive`` flips the attention projections
    and Mamba output projection to 4-bit (the recipe ablation) while
    leaving the tail rule intact.
    """

    base: str = "nvfp4"  # "reference" | "nvfp4"
    fraction_high_precision_tail: float = 0.15
    quantize_sensitive: bool = False

    def tail_start(self, total_layers: int) -> int:
        keep = int(np.ceil(self.fraction_high_precision_tail * total_layers))
        return total_layers - keep


@dataclass(frozen=True)
class LayerDescriptor:
    kind: LayerKind
    index: int          # composite-layer index within the stack
    total_layers: int


def resolve_precision(desc: LayerDescriptor, policy: PrecisionPolicy) -> Format:
    """Storage format for one linear under the policy."""
    if desc.index >= desc.total_layers:
        raise ConfigError(f"layer index {desc.index} >= total {desc.total_layers}")
    if policy.base == "reference":
        return Format.REFERENCE
    if desc.kind in _ALWAYS_REFERENCE:
        return Format.REFERENCE
    if desc.index >= policy.tail_start(desc.total_layers):
        return Format.REFERENCE
    if desc.kind in _SENSITIVE_ATTENTION:
        return Format.NVFP4 if policy.quantize_sensitive else Format.REFERENCE
    if desc.kind == LayerKind.MAMBA_OUT_PROJ:
        return Format.NVFP4 if policy.quantize_sensitive else Format.MXFP8
    return Format.NVFP4


def linear_precision(desc: LayerDescriptor, policy: PrecisionPolicy, seed: int) -> LinearPrecision:
    """Expand a resolved format into the per-pass GEMM formats."""
    fmt = resolve_precision(desc, policy)
    if fmt == Format.REFERENCE:
        return REFERENCE_LINEAR
    if fmt == Format.MXFP8:
        return LinearPrecision(Format.MXFP8, Format.MXFP8, Format.MXFP8, seed)
    return LinearPrecision(Format.NVFP4, Format.NVFP4_2D, Format.NVFP4, seed)


# ---------------------------------------------------------------------------
# Serialization (checkpoint container records)
# ---------------------------------------------------------------------------

_FMT_TAGS = {"nvfp4": 1, "mxfp8": 2}


def _pack_nibbles(codes: np.ndarray) -> bytes:
    flat = codes.reshape(-1).astype(np.uint8)
    if flat.size % 2:
        flat = np.concatenate([flat, np.zeros(1, np.uint8)])
    return ((flat[0::2] & 0xF) | (flat[1::2] << 4)).tobytes()  # low nibble = even index


def _unpack_nibbles(raw: bytes, count: int) -> np.ndarray:
    packed = np.frombuffer(raw, np.uint8)
    return np.stack([packed & 0xF, packed >> 4], axis=1).reshape(-1)[:count]


def quantized_to_bytes(q: QuantizedTensorNVFP4 | QuantizedTensorMXFP8) -> bytes:
    """Header {tag, layout, shape, block grid}, scales, then packed codes."""

    def dims(shape) -> bytes:
        return struct.pack(f"<B{len(shape)}q", len(shape), *shape)

    if isinstance(q, QuantizedTensorNVFP4):
        head = struct.pack("<BB", _FMT_TAGS["nvfp4"], q.layout != Layout.BLOCK_1D) + dims(q.shape)
        head += dims(q.codes.shape) + struct.pack("<f", float(q.global_scale))
        scales, codes = q.block_scales, _pack_nibbles(q.codes)
    else:
        head = struct.pack("<BB", _FMT_TAGS["mxfp8"], 0) + dims(q.shape) + dims(q.codes.shape)
        scales, codes = q.scale_exps.astype("<i2"), q.codes.astype(np.uint8).tobytes()
    return head + dims(scales.shape) + scales.tobytes() + struct.pack("<q", q.codes.size) + codes


def quantized_from_bytes(raw: bytes) -> QuantizedTensorNVFP4 | QuantizedTensorMXFP8:
    """Inverse of ``quantized_to_bytes``. Truncated or trailing bytes, grids that
    disagree with the shape, and scales or codes that no quantizer makes (a
    global scale that is not finite and positive, E4M3 NaN codes, sign-set
    block scales, exponents outside E8M0) raise ``CheckpointError``; an
    unknown tag raises ``ConfigError``."""
    view, off = memoryview(raw), 0

    def take(n: int) -> memoryview:
        nonlocal off
        if not 0 <= n <= len(view) - off:
            raise CheckpointError(f"quantized record truncated: {n} bytes wanted at {off} of {len(view)}")
        off += n
        return view[off - n:off]

    def unpack(fmt: str) -> tuple:
        return struct.unpack(fmt, take(struct.calcsize(fmt)))

    def dims() -> tuple[int, ...]:
        shape = unpack(f"<{unpack('<B')[0]}q")
        if min(shape, default=0) < 0:
            raise CheckpointError(f"negative dimension in quantized record: {shape}")
        return shape

    tag, layout_code = unpack("<BB")
    if tag not in _FMT_TAGS.values():
        raise ConfigError(f"unknown quantized format tag {tag}")
    nvfp4 = tag == _FMT_TAGS["nvfp4"]
    shape, codes_shape = dims(), dims()
    g = unpack("<f")[0] if nvfp4 else None
    scales_shape = dims()
    scales = np.frombuffer(take(math.prod(scales_shape) * (1 if nvfp4 else 2)), np.uint8 if nvfp4 else "<i2")
    (n_codes,) = unpack("<q")
    codes = (_unpack_nibbles(take((n_codes + 1) // 2), n_codes) if nvfp4
             else np.frombuffer(take(n_codes), np.uint8))
    if off != len(view):
        raise CheckpointError(f"{len(view) - off} trailing bytes after quantized record")
    if layout_code == 1 and nvfp4 and len(shape) == 2:
        grid = tuple(-(-n // BLOCK_2D_TILE) * BLOCK_2D_TILE for n in shape)
        scales_grid = tuple(n // BLOCK_2D_TILE for n in grid)
    elif layout_code == 0:
        grid = _last_axis_grid(shape, BLOCK_1D_SIZE if nvfp4 else MXFP8_BLOCK)
        scales_grid = grid[:2]
    else:
        raise CheckpointError(f"layout code {layout_code} does not fit tag {tag} and shape {shape}")
    if (codes_shape, scales_shape, n_codes) != (grid, scales_grid, math.prod(grid)):
        raise CheckpointError(f"quantized record of shape {shape} holds {n_codes} codes on grid "
                              f"{codes_shape} and scales on {scales_shape}, not {grid} and {scales_grid}")
    codes, scales = codes.reshape(grid).copy(), scales.reshape(scales_grid).copy()
    if nvfp4:  # block scale codes above E4M3's top finite magnitude are NaN or negative
        unproducible = not 0 < g < math.inf or (scales > _E4M3.top).any()
    else:
        unproducible = ((scales < E8M0_MIN_EXP) | (scales > E8M0_MAX_EXP)).any() or ((codes & 0x7F) == 0x7F).any()
    if unproducible:
        raise CheckpointError(f"quantized record of shape {shape} holds a scale or code no quantizer makes")
    if nvfp4:
        layout = (Layout.BLOCK_1D, Layout.BLOCK_2D)[layout_code]
        return QuantizedTensorNVFP4(shape, layout, codes, scales, np.float32(g))
    return QuantizedTensorMXFP8(shape, codes, scales.astype(np.int16))
