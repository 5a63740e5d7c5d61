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

The block quantizers encode and decode in a compiled C kernel, which the
GEMM's loader in tensor.py builds on import; the tests check its codes,
scales and values against a numpy oracle that rounds by sorted-grid search.

Supporting machinery: sign-randomized Hadamard transforms for spreading
outliers ahead of gradient-side quantization, seeded stochastic rounding,
and the per-layer precision policy used when wiring a model for
mixed-precision training.
"""

from __future__ import annotations

import functools
import math
import struct
from collections import namedtuple
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import CheckpointError, ConfigError, NumericInputError, ShapeError
from .tensor import Tensor, _cache_dirs, _load_library, _make, _ptrs, matmul_exact

# ---------------------------------------------------------------------------
# Rounding modes
# ---------------------------------------------------------------------------


def _is_int(x) -> bool:
    return isinstance(x, (int, np.integer)) and not isinstance(x, bool)


def _check_seed(seed, what: str) -> None:
    """ConfigError unless ``seed`` is an integer, not a bool, that numpy's Philox takes as its 128-bit key."""
    if not _is_int(seed) or not 0 <= seed < 2**128:
        raise ConfigError(f"{what} seed must be an integer in [0, 2**128), got {seed!r}")


@dataclass(frozen=True)
class RoundingMode:
    """Nearest-even or seeded stochastic rounding.

    Stochastic draws are a pure function of (seed, code index): the code at
    flat index i of the padded code grid, in C order, rounds with uniform i
    of ``np.random.Generator(np.random.Philox(key=seed)).random(grid)``.
    Under that key, Philox4x64-10 on counter (i // 4 + 1, 0, 0, 0) gives four
    words, and word i % 4, w, is the uniform (w >> 11) * 2^-53. So a draw
    depends on nothing but the key and its index: the C encoder computes
    each where it uses it, and a new key is all a new set of draws needs.
    """

    kind: str  # "nearest" | "stochastic"
    seed: int = 0

    def __post_init__(self):
        if self.kind not in ("nearest", "stochastic"):
            raise ConfigError(f"rounding kind must be 'nearest' or 'stochastic', got {self.kind!r}")
        _check_seed(self.seed, "rounding")


NEAREST_EVEN = RoundingMode("nearest")


def stochastic(seed: int) -> RoundingMode:
    return RoundingMode("stochastic", seed)


# ---------------------------------------------------------------------------
# Grids and decode tables
# ---------------------------------------------------------------------------

# mantissa bits, exponent of the smallest normal, code and value of the
# largest finite magnitude, bit position of the sign in a code
_Grid = namedtuple("_Grid", "mb emin top max sign_bit")
_E2M1 = _Grid(1, 0, 7, 6.0, 3)
_E4M3 = _Grid(3, -6, 126, 448.0, 7)
E8M0_MIN_EXP, E8M0_MAX_EXP = -127, 127


def _decode_table(grid: _Grid) -> np.ndarray:
    """Values of every code: magnitudes by index, then the same with the sign bit set."""
    idx = np.arange(1 << grid.sign_bit, dtype=np.int32)
    normal = ((idx + ((126 + grid.emin) << grid.mb)) << (23 - grid.mb)).view(np.float32)
    mags = np.where(idx < (1 << grid.mb), idx * 2.0 ** (grid.emin - grid.mb), normal).astype(np.float32)
    mags[grid.top + 1:] = np.nan
    return np.concatenate([mags, -mags])


E2M1_TABLE = _decode_table(_E2M1)  # 16 entries; code 8 is -0.0
E4M3_TABLE = _decode_table(_E4M3)  # 256 entries; codes 0x7F and 0xFF are NaN


# ---------------------------------------------------------------------------
# Block-scaled tensors
# ---------------------------------------------------------------------------


class Layout(str, Enum):
    BLOCK_1D = "1d16"   # 16-element micro-blocks along the last axis
    BLOCK_2D = "2d16"   # 16x16 tiles over a matrix (weights)


class Format(str, Enum):
    REFERENCE = "reference"
    NVFP4 = "nvfp4"        # 1D 16-element blocks (activations, gradients)
    NVFP4_2D = "nvfp4_2d"  # 16x16 tiles (weights)
    MXFP8 = "mxfp8"


# (block rows, block cols) of each format's blocks over an array's [rows, cols]
# matrix: the last axis, and the product of the others as rows
_BLOCK = {Format.NVFP4: (1, 16), Format.NVFP4_2D: (16, 16), Format.MXFP8: (1, 32)}
BLOCK_1D_SIZE, BLOCK_2D_TILE, MXFP8_BLOCK = (_BLOCK[f][1] for f in (Format.NVFP4, Format.NVFP4_2D, Format.MXFP8))
_LAYOUT_FORMAT = {Layout.BLOCK_1D: Format.NVFP4, Layout.BLOCK_2D: Format.NVFP4_2D}


def _matrix(shape: tuple[int, ...]) -> tuple[int, int]:
    """[rows, cols] of an array blocked along its last axis (0-d: one element)."""
    return math.prod(shape[:-1]), shape[-1] if shape else 1


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
        return _decode(_LAYOUT_FORMAT[self.layout], self.shape, self.codes, self.block_scales, self.global_scale)


@dataclass
class QuantizedTensorMXFP8:
    """E4M3 element codes in 32-element blocks with power-of-two scales."""

    shape: tuple[int, ...]
    codes: np.ndarray        # uint8 E4M3, padded to whole blocks
    scale_exps: np.ndarray   # int16 exponents, one per block

    def dequantize(self) -> np.ndarray:
        return _decode(Format.MXFP8, self.shape, self.codes, self.scale_exps)


# ---------------------------------------------------------------------------
# Encode/decode kernels
# ---------------------------------------------------------------------------
#
# Every format is encoded and decoded by the C source in _QUANT_SOURCE, built
# and loaded like the GEMM kernel in tensor.py; the tests check it against a
# numpy oracle that rounds by sorted-grid search. A format is its block shape
# in _BLOCK and its scale rule. MXFP8: an E8M0 exponent per block, the
# smallest e in [-127, 127] with amax <= 448 * 2^e, so block maxima never
# clamp. NVFP4: one global scale g per tensor, the smallest power of two of at
# least 2^-126 with amax / (6 g) <= 448, which keeps every block_scale * g
# product exact in float32 and puts the raw block scale of the hottest block
# in (224, 448]; then an E4M3 block scale per block, amax / (6 g) rounded up,
# so scaled elements never exceed +-6. A block whose scale is 0 (NVFP4 zeros)
# gets codes 0.
# Kernel contract: _encode_kernel_c takes a format, a float32 array and a
# RoundingMode and returns (codes, scales, global scale or None) on the grids
# _grids derives from the block shape, or a status in _ENCODE_ERRORS for an
# input it cannot take; _decode_kernel_c takes (format, shape, codes, scales,
# global scale) already checked against those grids and returns the float32
# array, or None for a NaN E4M3 code. MXFP8 exponents are int16 in both, and
# the C kernels' argument types come from their declarations.

_ENCODE_ERRORS = {
    1: "requires finite inputs",
    # within a block scale of float32's maximum a code can round up past it
    2: "input rounds to a code that decodes past float32's maximum",
}
_FLT_MAX = float(np.finfo(np.float32).max)


def _grids(fmt: Format, shape) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Shapes of the code grid and the scale grid of a ``fmt`` array of ``shape``: the
    zero-padded [nr, nb] blocks of its [rows, cols] matrix hold codes on [rows, nb, bw]
    for 1D blocks and on the padded matrix for 2D tiles, and one scale each."""
    bh, bw = _BLOCK[fmt]
    if bh > 1 and len(shape) != 2:
        raise ShapeError(f"2D block layout needs a matrix, got shape {shape}")
    rows, cols = _matrix(shape)
    nr, nb = -(-rows // bh), -(-cols // bw)
    return ((nr * bh, nb * bw) if bh > 1 else (rows, nb, bw)), (nr, nb)


def _past_max(grid: _Grid, table: np.ndarray, codes: np.ndarray, scales: np.ndarray) -> bool:
    """Whether a code's value in ``table`` times its float64 block scale passes float32's maximum."""
    return grid.max * scales.max(initial=0.0) > _FLT_MAX and bool(
        (np.abs(table.take(codes)) * scales > _FLT_MAX).any())


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
#
# The one block table, BH and BW as _BLOCK, cuts the [rows, cols] matrix into
# blocks zero-padded at the ends, and encode_blocks gives each block its scale
# and its codes, on the code grid of _grids. A block's codes are built one
# element at a time in that arithmetic: float32 bits for the grid index
# (rounding by bias and shift), an integer conversion for the subnormal
# index, u < fraction in double for stochastic rounding. The u of a code is
# RoundingMode's draw for the code's index in the code grid, computed where
# it is used from that index and the Philox key (seed mod 2^64, seed >> 64):
# no uniform array is made, and a block of zeros skips its draws without
# moving any other. Maxima are integer maxima of |x|'s bits, which order like
# the values and flag inf and NaN. The source is built with tensor.py's
# flags, which keep every float operation an IEEE one rounded as written.
_QUANT_SOURCE = r"""
#include <float.h>
#include <stddef.h>
#include <stdint.h>
#include <string.h>

enum { NVFP4_1D, NVFP4_2D, MXFP8 };
/* rows and columns of a format's blocks, as _BLOCK */
#define BH(fmt) ((fmt) == NVFP4_2D ? 16 : 1)
#define BW(fmt) ((fmt) == MXFP8 ? 32 : 16)
enum { FLOOR, CEIL, NEAREST };
/* as _Grid: mantissa bits, exponent of the smallest normal, top code, largest magnitude, sign bit */
#define E2M1 1, 0, 7, 6.0f, 3
#define E4M3 3, -6, 126, 448.0f, 7
#define GRID int mb, int emin, int32_t top, float max, int sb
#define ABS 0x7fffffffu
#define INF 0x7f800000u

static inline uint32_t f2u(float f) { uint32_t u; memcpy(&u, &f, 4); return u; }
static inline float u2f(uint32_t u) { float f; memcpy(&f, &u, 4); return f; }
/* min and max of floats >= +0 taken on their bits, which the vectorizer handles as integers */
static inline float min0(float a, float b) { return u2f(f2u(a) < f2u(b) ? f2u(a) : f2u(b)); }
static inline float max0(float a, float b) { return u2f(f2u(a) > f2u(b) ? f2u(a) : f2u(b)); }

static inline float pow2f(int32_t e)  /* 2^e exactly, 0 below 2^-149, inf above 2^127 */
{
    if (e > 127) return u2f(INF);
    if (e >= -126) return u2f((uint32_t)(e + 127) << 23);
    return e >= -149 ? u2f(1u << (e + 149)) : 0.0f;
}

/* The smallest integer e with amax <= limit 2^e, for amax > 0: with amax = m 2^k and
   limit = l 2^j, m and l in [1, 2), it is k - j, plus one when m > l. */
static inline int pow2_exponent(float amax, float limit)
{
    int k = 0;
    if (amax < 0x1p-126f) { amax *= 0x1p64f; k = -64; }  /* a subnormal, made normal */
    const uint32_t a = f2u(amax), l = f2u(limit);
    return k + (int)(a >> 23) - (int)(l >> 23) + ((a & 0x7fffffu) > (l & 0x7fffffu));
}

static inline float tiny_of(int emin) { return emin < 0 ? 1.0f / (float)(1 << -emin) : (float)(1 << emin); }

/* The grid index of magnitude mag rounded FLOOR, CEIL or NEAREST (ties to the even code), at most top */
static inline int32_t round_index(float mag, int how, GRID)
{
    const int shift = 23 - mb;
    const float tiny = tiny_of(emin);
    const int32_t bits = (int32_t)f2u(mag);
    const int32_t bias = how == FLOOR ? 0 : how == CEIL ? (1 << shift) - 1
                         : (1 << (shift - 1)) - 1 + ((bits >> shift) & 1);
    const int32_t idx = ((bits + bias) >> shift) - ((126 + emin) << mb);
    const float s = min0(mag, tiny) * ((float)(1 << mb) / tiny);  /* in [0, 2^mb] */
    const int32_t fl = (int32_t)s;
    const int32_t sub = how == FLOOR ? fl : how == CEIL ? fl + ((float)fl < s)
                        : (int32_t)((s + 0x1p23f) - 0x1p23f);
    const int32_t best = idx > sub ? idx : sub;
    return best < top ? best : top;
}

/* The floor index, plus one where u < (mag - floor value) / step, for mag <= max. That fraction
   is exact in float32: the dropped mantissa bits above 2^emin, the fractional part of mag / step below it. */
static inline int32_t round_stochastic(float mag, double u, GRID)
{
    const int shift = 23 - mb;
    const float tiny = tiny_of(emin);
    float frac = (float)(int32_t)(f2u(max0(mag, tiny)) & ((1u << shift) - 1)) * (1.0f / (float)(1 << shift));
    const float s = min0(mag, tiny) * ((float)(1 << mb) / tiny);
    frac += s - (float)(int32_t)s;
    return round_index(mag, FLOOR, mb, emin, top, max, sb) + (u < (double)frac);
}

/* Uniforms 4 (c - 1) .. 4 (c - 1) + 3 of np.random.Generator(np.random.Philox(key=k)).random:
   Philox4x64-10 (Salmon et al., SC'11) on counter (c, 0, 0, 0) under the 128-bit key {k0, k1},
   each word w as (w >> 11) 2^-53. A draw depends only on its index, so no block waits for another.
   One counter per call: interleaving 2 to 8 counters measured no faster. */
static inline void philox_uniforms(uint64_t c, uint64_t k0, uint64_t k1, double *u)
{
    uint64_t w[4] = {c, 0, 0, 0};
    for (int r = 0; r < 10; r++, k0 += 0x9E3779B97F4A7C15u, k1 += 0xBB67AE8584CAA73Bu) {
        const unsigned __int128 p = (unsigned __int128)0xD2E7470EE14C6C93u * w[0];
        const unsigned __int128 q = (unsigned __int128)0xCA5A826395121157u * w[2];
        w[0] = (uint64_t)(q >> 64) ^ w[1] ^ k0;
        w[1] = (uint64_t)q;
        w[2] = (uint64_t)(p >> 64) ^ w[3] ^ k1;
        w[3] = (uint64_t)p;
    }
    for (int i = 0; i < 4; i++) u[i] = (double)(w[i] >> 11) * 0x1p-53;
}

static inline uint8_t code_nearest(float v, GRID)  /* v's sign-magnitude code, rounded to nearest even */
{
    const uint32_t b = f2u(v);
    return (uint8_t)(round_index(u2f(b & ABS), NEAREST, mb, emin, top, max, sb) | (int32_t)(b >> 31) << sb);
}

static inline uint8_t code_stochastic(float v, double u, GRID)
{
    const uint32_t b = f2u(v);
    return (uint8_t)(round_stochastic(min0(u2f(b & ABS), max), u, mb, emin, top, max, sb) | (int32_t)(b >> 31) << sb);
}

static inline float value_of(uint32_t c, GRID)  /* a decode table entry, for a code that is not NaN */
{
    const uint32_t idx = c & ((1u << sb) - 1);
    const uint32_t mag = idx < (1u << mb) ? f2u((float)idx * (tiny_of(emin) / (float)(1 << mb)))
                         : (idx + (uint32_t)((126 + emin) << mb)) << (23 - mb);
    return u2f(mag | (c >> sb & 1) << 31);
}

/* Does one of the n codes c decode past FLT_MAX under block scale s? */
static inline int past_max(const uint8_t *c, int n, float s, GRID)
{
    if ((double)max * (double)s <= (double)FLT_MAX) return 0;
    for (int i = 0; i < n; i++)
        if ((double)value_of(c[i] & ((1u << sb) - 1), mb, emin, top, max, sb) * (double)s > (double)FLT_MAX)
            return 1;
    return 0;
}

/* Scales and codes on element grid GRID of the finite [rows, cols] matrix x
   in format fmt, a constant once inlined, under NVFP4 global scale g, with
   stochastic rounding under the Philox key key[0..1] (NULL: nearest): block by block in C
   order, each full block read in place through row stride cols and each
   partial one from a zero-padded copy. Returns 2 if a code would decode past
   FLT_MAX. */
static inline __attribute__((always_inline)) int encode_blocks(const int fmt, GRID, const float *x, ptrdiff_t rows,
                                                               ptrdiff_t cols, float g, const uint64_t *key,
                                                               uint8_t *codes, void *scales)
{
    const int bh = BH(fmt), bw = BW(fmt);
    const ptrdiff_t nb = (cols + bw - 1) / bw, pc = bw * nb;
    float pad[256];
    for (ptrdiff_t t = 0; bh * t < rows; t++)
        for (ptrdiff_t b = 0; b < nb; b++) {
            const ptrdiff_t h = rows - bh * t < bh ? rows - bh * t : bh, w = cols - bw * b < bw ? cols - bw * b : bw;
            const ptrdiff_t k = t * nb + b, at = bh * t * pc + bw * b;  /* its scale and its first code */
            const float *src = x + bh * t * cols + bw * b;
            ptrdiff_t ld = cols;
            if (h < bh || w < bw) {
                memset(pad, 0, sizeof *pad * bh * bw);
                for (ptrdiff_t i = 0; i < h; i++) memcpy(pad + bw * i, src + cols * i, (size_t)w * sizeof *src);
                src = pad;
                ld = bw;
            }
            uint32_t m[32] = {0}, amax = 0;  /* the rows' elementwise maximum, then its maximum */
            for (int r = 0; r < bh; r++)
                for (int i = 0; i < bw; i++) {
                    const uint32_t a = f2u(src[ld * r + i]) & ABS;
                    m[i] = a > m[i] ? a : m[i];
                }
            for (int i = 0; i < bw; i++) amax = m[i] > amax ? m[i] : amax;
            float s;  /* the format's scale rule: see the kernel section in quant.py */
            if (fmt == MXFP8) {
                int e = amax ? pow2_exponent(u2f(amax), 448.0f) : -127;
                e = e < -127 ? -127 : e > 127 ? 127 : e;
                ((int16_t *)scales)[k] = (int16_t)e;
                s = pow2f(e);
            } else {
                const int32_t scale = round_index((float)((double)u2f(amax) / (6.0 * (double)g)), CEIL, E4M3);
                ((uint8_t *)scales)[k] = (uint8_t)scale;
                s = value_of((uint32_t)scale, E4M3) * g;
            }
            for (int r = 0; r < bh; r++) {
                const float *xr = src + ld * r;
                uint8_t *c = codes + at + pc * r;
                if (s == 0.0f)  /* an NVFP4 block of zeros */
                    memset(c, 0, (size_t)bw);
                else if (key) {  /* code o + i of the code grid takes uniform o + i; 4 divides o */
                    const uint64_t o = (uint64_t)(at + pc * r);
                    double u[32];
                    for (int q = 0; q < bw / 4; q++) philox_uniforms(o / 4 + q + 1, key[0], key[1], u + 4 * q);
                    for (int i = 0; i < bw; i++) c[i] = code_stochastic(xr[i] / s, u[i], mb, emin, top, max, sb);
                } else
                    for (int i = 0; i < bw; i++) c[i] = code_nearest(xr[i] / s, mb, emin, top, max, sb);
                if (past_max(c, bw, s, mb, emin, top, max, sb)) return 2;
            }
        }
    return 0;
}

/* Codes and scales of the [rows, cols] float32 matrix x in format fmt, with
   stochastic rounding under the Philox key {seed mod 2^64, seed >> 64} (NULL: nearest);
   the NVFP4 global scale goes to *g. Returns 1 if x is not finite, 2 if a
   code would decode past FLT_MAX (x within a block scale of it). */
CLONES int quant_encode(int fmt, const float *x, ptrdiff_t rows, ptrdiff_t cols, const uint64_t *key,
                        uint8_t *codes, void *scales, float *g)
{
    uint32_t amax = 0;
    for (ptrdiff_t i = 0; i < rows * cols; i++) {
        const uint32_t a = f2u(x[i]) & ABS;
        amax = a > amax ? a : amax;
    }
    if (amax >= INF) return 1;
    if (fmt == MXFP8) return encode_blocks(MXFP8, E4M3, x, rows, cols, 0.0f, key, codes, scales);
    const int e = amax ? pow2_exponent(u2f(amax), 2688.0f) : -126;  /* amax <= 6 * 448 * g */
    const float gs = *g = pow2f(e < -126 ? -126 : e);
    return fmt == NVFP4_1D ? encode_blocks(NVFP4_1D, E2M1, x, rows, cols, gs, key, codes, scales)
                           : encode_blocks(NVFP4_2D, E2M1, x, rows, cols, gs, key, codes, scales);
}

/* out[rows, cols] from codes and scales on fmt's grids. Returns 1, before
   writing, if an E4M3 code it would read is NaN. */
CLONES int quant_decode(int fmt, const uint8_t *codes, const void *scales, float g,
                        ptrdiff_t rows, ptrdiff_t cols, float *out)
{
    const ptrdiff_t bh = BH(fmt), bw = BW(fmt), nb = (cols + bw - 1) / bw, pc = bw * nb;
    const uint8_t *checked = fmt == MXFP8 ? codes : scales;
    uint32_t nan = 0;
    for (ptrdiff_t i = 0; i < (fmt == MXFP8 ? rows * pc : (rows + bh - 1) / bh * nb); i++)
        nan |= (checked[i] & 0x7fu) == 0x7fu;
    if (nan) return 1;
    for (ptrdiff_t r = 0; r < rows; r++)
        for (ptrdiff_t b = 0, k = r / bh * nb; b < nb; b++, k++) {
            const ptrdiff_t w = cols - bw * b < bw ? cols - bw * b : bw;
            const uint8_t *c = codes + r * pc + bw * b;
            float *o = out + r * cols + bw * b;
            if (fmt == MXFP8) {
                const float s = pow2f(((const int16_t *)scales)[k]);
                for (ptrdiff_t i = 0; i < w; i++) o[i] = value_of(c[i], E4M3) * s;
            } else {
                const float s = value_of(((const uint8_t *)scales)[k], E4M3) * g;
                for (ptrdiff_t i = 0; i < w; i++) o[i] = value_of(c[i], E2M1) * s;
            }
        }
    return 0;
}
"""
_C_FORMATS = {Format.NVFP4: 0, Format.NVFP4_2D: 1, Format.MXFP8: 2}
_QUANT_LIBRARY = _load_library(_cache_dirs(), _QUANT_SOURCE)


def _encode_kernel_c(fmt: Format, data: np.ndarray, mode: RoundingMode):
    grid, scales_grid = _grids(fmt, data.shape)
    x = np.ascontiguousarray(data)
    seed = int(mode.seed)
    key = np.array([seed & (2**64 - 1), seed >> 64], np.uint64) if mode.kind == "stochastic" else None
    codes = np.empty(grid, np.uint8)
    scales = np.empty(scales_grid, np.int16 if fmt == Format.MXFP8 else np.uint8)
    g = np.zeros(1, np.float32)
    x_p, key_p, codes_p, scales_p, g_p = _ptrs(x, key, codes, scales, g)
    status = _QUANT_LIBRARY.quant_encode(_C_FORMATS[fmt], x_p, *_matrix(data.shape), key_p, codes_p, scales_p, g_p)
    return status or (codes, scales, None if fmt == Format.MXFP8 else g[0])


def _decode_kernel_c(fmt: Format, shape, codes, scales, g):
    out = np.empty(shape, np.float32)
    codes = np.ascontiguousarray(codes, np.uint8)
    scales = np.ascontiguousarray(scales, np.int16 if fmt == Format.MXFP8 else np.uint8)
    codes_p, scales_p, out_p = _ptrs(codes, scales, out)
    if _QUANT_LIBRARY.quant_decode(_C_FORMATS[fmt], codes_p, scales_p, 0.0 if g is None else g, *_matrix(shape), out_p):
        return None
    return out


def _decode(fmt: Format, shape, codes, scales, g=None) -> np.ndarray:
    grid, scales_grid = _grids(fmt, shape)
    if np.shape(codes) != grid or np.shape(scales) != scales_grid:
        raise ShapeError(f"codes on {np.shape(codes)} and scales on {np.shape(scales)} do not fit "
                         f"shape {shape}, whose grids are {grid} and {scales_grid}")
    out = _decode_kernel_c(fmt, shape, codes, scales, g)
    if out is None:
        raise NumericInputError("NaN E4M3 code cannot be decoded")
    return out


def quantize_nvfp4(
    data: np.ndarray, layout: Layout = Layout.BLOCK_1D, mode: RoundingMode = NEAREST_EVEN
) -> QuantizedTensorNVFP4:
    """Encode an array as E2M1 codes with E4M3 block scales.

    Block scales are amax(block) / (6 * global), encoded rounding up in
    magnitude so scaled elements never exceed +-6 and the element encoder
    never clamps. All-zero blocks get scale code 0 and element codes 0.
    """
    data = np.asarray(data, np.float32)
    if layout not in _LAYOUT_FORMAT:  # pragma: no cover
        raise ConfigError(f"unknown layout {layout}")
    encoded = _encode_kernel_c(_LAYOUT_FORMAT[layout], data, mode)
    if isinstance(encoded, int):
        raise NumericInputError(f"quantize_nvfp4 {_ENCODE_ERRORS[encoded]}")
    return QuantizedTensorNVFP4(data.shape, layout, *encoded)


def quantize_mxfp8(data: np.ndarray, mode: RoundingMode = NEAREST_EVEN) -> QuantizedTensorMXFP8:
    """Encode with E4M3 elements and power-of-two scales per 32-wide block.

    The block exponent is the smallest power of two that brings the block
    max within E4M3 range, so block maxima never clamp.
    """
    data = np.asarray(data, np.float32)
    encoded = _encode_kernel_c(Format.MXFP8, data, mode)
    if isinstance(encoded, int):
        raise NumericInputError(f"quantize_mxfp8 {_ENCODE_ERRORS[encoded]}")
    return QuantizedTensorMXFP8(data.shape, *encoded[:2])


# ---------------------------------------------------------------------------
# Random Hadamard transform
# ---------------------------------------------------------------------------


@functools.lru_cache(maxsize=None)
def _sylvester(n: int) -> np.ndarray:
    """Read-only float64 +-1 Sylvester matrix H_n, H_2n = [[H_n, H_n], [H_n, -H_n]], for n a power of two."""
    h = np.ones((1, 1), np.float64)
    while h.shape[0] < n:
        h = np.block([[h, h], [h, -h]])
    h.flags.writeable = False
    return h


def random_hadamard(n: int, seed: int) -> np.ndarray:
    """Orthogonal float32 [n, n] matrix (1/sqrt(n)) H_n D with a seeded random +-1 diagonal D."""
    if not _is_int(n) or n <= 0 or (n & (n - 1)) != 0:
        raise ConfigError(f"Hadamard size must be a power of two, got {n!r}")
    _check_seed(seed, "Hadamard")
    if n == 1:
        return np.ones((1, 1), np.float32)
    rng = np.random.Generator(np.random.Philox(key=seed))
    d = rng.integers(0, 2, n) * 2 - 1
    return (_sylvester(n) * d[None, :] / np.sqrt(n)).astype(np.float32)


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
    m = _rht_matrix(seed)
    return apply_rht(a, m, axis=1), apply_rht(b, m, axis=0)


@functools.lru_cache(maxsize=256, typed=True)
def _rht_matrix(seed: int) -> np.ndarray:
    """Read-only ``random_hadamard(RHT_BLOCK, seed)``, built once per seed: a wide training step
    transforms 19 weight gradients with a few seeds, and each build took about 0.15 ms."""
    m = random_hadamard(RHT_BLOCK, seed)
    m.flags.writeable = False
    return m


# ---------------------------------------------------------------------------
# Formats and simulated GEMM
# ---------------------------------------------------------------------------


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
    global scale that is not a power of two of at least 2^-126, whose
    products with block scales would round, E4M3 NaN codes, sign-set
    block scales, exponents outside E8M0, block scales or codes that decode
    past float32's maximum) raise ``CheckpointError``; an unknown tag raises
    ``ConfigError``."""
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
    layouts = list(_LAYOUT_FORMAT) if nvfp4 else [Layout.BLOCK_1D]
    if layout_code >= len(layouts) or (layouts[layout_code] == Layout.BLOCK_2D and len(shape) != 2):
        raise CheckpointError(f"layout code {layout_code} does not fit tag {tag} and shape {shape}")
    fmt = _LAYOUT_FORMAT[layouts[layout_code]] if nvfp4 else Format.MXFP8
    grid, scales_grid = _grids(fmt, shape)
    if (codes_shape, scales_shape, n_codes) != (grid, scales_grid, math.prod(grid)):
        raise CheckpointError(f"quantized record of shape {shape} holds {n_codes} codes on grid "
                              f"{codes_shape} and scales on {scales_shape}, not {grid} and {scales_grid}")
    codes, scales = codes.reshape(grid).copy(), scales.reshape(scales_grid).copy()
    if nvfp4:  # block scale codes above E4M3's top finite magnitude are NaN or negative
        unproducible = (not (math.isfinite(g) and g >= 2.0**-126 and math.frexp(g)[0] == 0.5)  # as quant_encode picks
                        or (scales > _E4M3.top).any())
    else:
        unproducible = ((scales < E8M0_MIN_EXP) | (scales > E8M0_MAX_EXP)).any() or ((codes & 0x7F) == 0x7F).any()
    if not unproducible:  # nor a block scale, or a code times it, past float32's maximum
        (bh, bw), (nr, nb) = _BLOCK[fmt], scales_grid
        elem, table, eff = ((_E2M1, E2M1_TABLE, E4M3_TABLE.take(scales) * np.float64(g)) if nvfp4
                            else (_E4M3, E4M3_TABLE, np.ldexp(1.0, scales)))
        unproducible = (eff > _FLT_MAX).any() or _past_max(elem, table, codes.reshape(nr, bh, nb, bw),
                                                             eff[:, None, :, None])
    if unproducible:
        raise CheckpointError(f"quantized record of shape {shape} holds a scale or code no quantizer makes")
    if nvfp4:
        return QuantizedTensorNVFP4(shape, layouts[layout_code], codes, scales, np.float32(g))
    return QuantizedTensorMXFP8(shape, codes, scales.astype(np.int16))
