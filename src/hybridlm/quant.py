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
import numbers
import struct
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import CheckpointError, ConfigError, NumericInputError, ShapeError
from .tensor import Tensor, _cache_dirs, _load_library, _make, matmul_exact

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
        return _decode(self)[3]


@dataclass
class QuantizedTensorMXFP8:
    """E4M3 element codes in 32-element blocks with power-of-two scales."""

    shape: tuple[int, ...]
    codes: np.ndarray        # uint8 E4M3, padded to whole blocks
    scale_exps: np.ndarray   # int16 exponents, one per block

    def dequantize(self) -> np.ndarray:
        return _decode(self)[3]


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
# _grids derives from the block shape, or a status in _STATUS for an input it
# cannot take. _decode_kernel_c takes (format, shape, codes, scales, global
# scale, out) on those grids as uint8 codes, uint8 or int16 scales and a
# float32 global scale, checks them against quant_decode's rule for what a
# quantized record may hold, decodes them into out unless out is None and
# returns a status: _decode runs that one check for dequantize,
# quantized_to_bytes and quantized_from_bytes. A record with no columns holds
# no code, so neither kernel walks its rows, however many. nibbles_pack and
# nibbles_unpack pack the NVFP4 codes of a serialized record two to a byte.
# The loader converts each kernel's arguments as its C declaration types them.

# What quant_encode (1, 2) and quant_decode (3 to 6) return for an input they refuse
_STATUS = {
    1: "requires finite inputs",
    # within a block scale of float32's maximum a code can round up past it
    2: "input rounds to a code that decodes past float32's maximum",
    3: "holds a global scale that is not a finite power of two of at least 2^-126",
    4: "holds a block scale its format lacks: a NaN E4M3 code or a sign-set one, or an exponent outside E8M0",
    5: "holds a code off its element grid, such as an E2M1 code past 15 or a NaN E4M3 code",
    6: "holds a block scale, or a code times it, that decodes past float32's maximum",
}


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
# and its codes, on the code grid of _grids. It encodes a row of blocks in runs
# of up to 64 blocks, on 16-float GCC vectors as _MM_SOURCE's tile does, in
# three passes: the blocks' maxima, 16 blocks to a vector; their scales; then
# their codes, 16 to a vector in that arithmetic: float32 bits for the grid
# index (rounding by bias and shift), an integer conversion for the subnormal
# index, u < fraction in double for stochastic rounding, after one divide by
# the block scale. The u of a code is RoundingMode's draw for the code's index
# in the code grid, drawn from that index and the Philox key (seed mod 2^64,
# seed >> 64) into a buffer of the run's draws: no uniform array of the grid
# is made, and a block of zeros skips its draws without moving any other.
# Maxima are integer maxima of |x|'s bits, which order like the values and
# flag inf and NaN. quant_decode's row loop is one per format and decodes 16
# codes to a vector. Every vector helper takes and gives its vectors through
# pointers: passed by value, a 64-byte vector changes the baseline build's ABI,
# which GCC 12.2 warns of (-Wpsabi) even for a helper it must inline. The
# source is built with tensor.py's flags, which keep every float operation an
# IEEE one rounded as written.
_QUANT_SOURCE = r"""
#include <float.h>
#include <stdint.h>
#include <string.h>

enum { NVFP4_1D, NVFP4_2D, MXFP8 };
/* rows and columns of a format's blocks, as _BLOCK */
#define BH(fmt) ((fmt) == NVFP4_2D ? 16 : 1)
#define BW(fmt) ((fmt) == MXFP8 ? 32 : 16)
enum { FLOOR, CEIL, NEAREST };
/* the element grids: mantissa bits, exponent of the smallest normal, top code, largest magnitude, sign bit */
#define E2M1 1, 0, 7, 6.0f, 3
#define E4M3 3, -6, 126, 448.0f, 7
#define GRID int mb, int emin, int32_t top, float max, int sb
#define ABS 0x7fffffffu
#define INF 0x7f800000u

typedef float vf __attribute__((vector_size(64)));
typedef int32_t vi __attribute__((vector_size(64)));
typedef uint32_t vu __attribute__((vector_size(64)));
enum { VW = 16, RUN = 64 };  /* the lanes of a vector; the most blocks a run encodes */

static inline uint32_t f2u(float f) { uint32_t u; memcpy(&u, &f, 4); return u; }
static inline float u2f(uint32_t u) { float f; memcpy(&f, &u, 4); return f; }

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

static inline float tiny_of(int emin)
{ return emin < 0 ? 1.0f / (float)(1 << -emin) : (float)(1 << emin); }

/* *a becomes the lanewise maximum of *a and *b */
static inline void max_into(vi *a, const vi *b)
{
    const vi more = *b > *a;
    *a = (more & *b) | (~more & *a);
}

/* The lesser and the greater of each lane of *mag and lim, bits of floats >= +0, which order like their values */
static inline void clamp_bits(const vi *mag, int32_t lim, vi *lo, vi *hi)
{
    const vi m = *mag, below = m < lim;
    *lo = (below & m) | (~below & lim);
    *hi = (below & lim) | (~below & m);
}

/* The grid index of each lane's magnitude, float bits *mag, rounded FLOOR, CEIL or NEAREST (ties to the
   even code), at most top */
static inline void round_index(const vi *mag, int how, vi *idx, GRID)
{
    const int shift = 23 - mb;
    const float tiny = tiny_of(emin);
    const vi bits = *mag;
    vi lo, hi;
    clamp_bits(mag, (int32_t)f2u(tiny), &lo, &hi);
    const vf s = (vf)lo * ((float)(1 << mb) / tiny);  /* in [0, 2^mb] */
    const vi fl = __builtin_convertvector(s, vi);
    vi i = bits >> shift, sub = fl;  /* FLOOR */
    if (how == CEIL)
        i = (bits + ((1 << shift) - 1)) >> shift, sub = fl - (__builtin_convertvector(fl, vf) < s);
    if (how == NEAREST)
        i = (bits + ((1 << (shift - 1)) - 1) + ((bits >> shift) & 1)) >> shift,
        sub = __builtin_convertvector((s + 0x1p23f) - 0x1p23f, vi);
    i -= (126 + emin) << mb;
    max_into(&i, &sub);
    clamp_bits(&i, top, idx, &hi);
}

/* The floor index, plus one in each lane where u < (mag - floor value) / step, for magnitudes at most max.
   That fraction is exact in float32: the dropped mantissa bits above 2^emin, the fractional part of
   mag / step below it. */
static inline void round_stochastic(const vi *mag, const double *u, vi *idx, GRID)
{
    const int shift = 23 - mb;
    const float tiny = tiny_of(emin);
    vi lo, hi;
    clamp_bits(mag, (int32_t)f2u(tiny), &lo, &hi);
    const vf s = (vf)lo * ((float)(1 << mb) / tiny);
    const vf frac = __builtin_convertvector(hi & ((1 << shift) - 1), vf) * (1.0f / (float)(1 << shift))
                    + (s - __builtin_convertvector(__builtin_convertvector(s, vi), vf));
    round_index(mag, FLOOR, idx, mb, emin, top, max, sb);
    for (int i = 0; i < VW; i++) (*idx)[i] += u[i] < (double)frac[i];
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

/* The sign-magnitude codes c[0..16) of x[0..16) / s, rounded to nearest even or, with uniforms u, stochastically */
static inline void encode_lanes(const float *x, float s, const double *u, uint8_t *c, GRID)
{
    vf v;
    memcpy(&v, x, sizeof v);
    v /= s;
    const vi bits = (vi)v;
    vi mag = bits & (int32_t)ABS, idx, hi;
    if (u) {
        clamp_bits(&mag, (int32_t)f2u(max), &mag, &hi);
        round_stochastic(&mag, u, &idx, mb, emin, top, max, sb);
    } else
        round_index(&mag, NEAREST, &idx, mb, emin, top, max, sb);
    idx |= (bits >> 31) & (1 << sb);
    for (int i = 0; i < VW; i++) c[i] = (uint8_t)idx[i];
}

/* The values of the codes *c, none of them NaN, in each lane */
static inline void values_of(const vi *c, vf *v, GRID)
{
    const vi idx = *c & ((1 << sb) - 1), sub = idx < (1 << mb);
    const vi subnormal = (vi)(__builtin_convertvector(idx, vf) * (tiny_of(emin) / (float)(1 << mb)));
    const vi normal = (idx + ((126 + emin) << mb)) << (23 - mb);
    *v = (vf)((sub & subnormal) | (~sub & normal) | (vi)(((vu)*c >> sb & 1) << 31));
}

/* One lane of values_of, for a block scale or a check: a scalar formula measured faster than a vector lane */
static inline float value_of(uint32_t c, GRID)
{
    const uint32_t idx = c & ((1u << sb) - 1);
    const uint32_t mag = idx < (1u << mb) ? f2u((float)idx * (tiny_of(emin) / (float)(1 << mb)))
                         : (idx + (uint32_t)((126 + emin) << mb)) << (23 - mb);
    return u2f(mag | (c >> sb & 1) << 31);
}

/* Does one of the n codes c decode past FLT_MAX under block scale s? Inlined late, as GCC 12.2 does
   unforced, it left the stochastic NVFP4 encodes 6-8% slower on an AVX-512 Xeon. */
static inline __attribute__((always_inline)) int past_max(const uint8_t *c, int n, float s, GRID)
{
    if ((double)max * (double)s <= (double)FLT_MAX) return 0;
    for (int i = 0; i < n; i++)
        if ((double)value_of(c[i] & ((1u << sb) - 1), mb, emin, top, max, sb) * (double)s > (double)FLT_MAX)
            return 1;
    return 0;
}

/* lane j of out is the greatest lane of m[j], for 16 vectors m: each level packs the halved lanes of two
   vectors into one, as add_sums_SFX in tensor.py */
static inline void lane_maxima(vi *m, int32_t *out)
{
    const vi lo8 = {0, 1, 2, 3, 4, 5, 6, 7, 16, 17, 18, 19, 20, 21, 22, 23};
    const vi lo4 = {0, 1, 2, 3, 8, 9, 10, 11, 16, 17, 18, 19, 24, 25, 26, 27};
    const vi lo2 = {0, 1, 4, 5, 8, 9, 12, 13, 16, 17, 20, 21, 24, 25, 28, 29};
    const vi lo1 = {0, 2, 4, 6, 8, 10, 12, 14, 16, 18, 20, 22, 24, 26, 28, 30};
    const vi *lo[4] = {&lo8, &lo4, &lo2, &lo1};
#pragma GCC unroll 4
    for (int l = 0; l < 4; l++)
#pragma GCC unroll 8
        for (int i = 0; i < 8 >> l; i++) {
            const vi b = __builtin_shuffle(m[2 * i], m[2 * i + 1], *lo[l] + (8 >> l));
            m[i] = __builtin_shuffle(m[2 * i], m[2 * i + 1], *lo[l]);
            max_into(m + i, &b);
        }
    memcpy(out, m, sizeof *m);
}

/* Scales and codes of n <= RUN blocks of one row of blocks in format fmt: h rows of them from src
   (row stride ld), then bh - h rows of zeros. Pass 1 takes the blocks' maxima, 16 blocks at a time;
   pass 2 their scales, to scales[k..k + n); pass 3 their codes, row by row, to codes (row stride pc),
   code i of a row taking uniform o + pc r + i into u under stochastic rounding. Returns 2 if a code would
   decode past FLT_MAX. */
static inline int encode_run(const int fmt, GRID, const float *src, ptrdiff_t ld, ptrdiff_t h, ptrdiff_t n, float g,
                             const uint64_t *key, uint64_t o, double *u, ptrdiff_t pc, uint8_t *codes, void *scales,
                             ptrdiff_t k)
{
    const int bh = BH(fmt), bw = BW(fmt);
    int32_t amax[RUN];
    float s[RUN];
    for (ptrdiff_t j0 = 0; j0 < n; j0 += VW) {
        vi m[VW] = {{0}};
        for (ptrdiff_t r = 0; r < h; r++)
            for (ptrdiff_t j = 0; j < VW && j0 + j < n; j++)
                for (int q = 0; q < bw; q += VW) {
                    vi a;
                    memcpy(&a, src + ld * r + bw * (j0 + j) + q, sizeof a);
                    a &= (int32_t)ABS;
                    max_into(m + j, &a);
                }
        lane_maxima(m, amax + j0);
    }
    if (fmt == MXFP8)  /* the format's scale rule: see the kernel section in quant.py */
        for (ptrdiff_t j = 0; j < n; j++) {
            int e = amax[j] ? pow2_exponent(u2f((uint32_t)amax[j]), 448.0f) : -127;
            e = e < -127 ? -127 : e > 127 ? 127 : e;
            ((int16_t *)scales)[k + j] = (int16_t)e;
            s[j] = pow2f(e);
        }
    else
        for (ptrdiff_t j0 = 0; j0 < n; j0 += VW) {
            float q[VW];
            for (int i = 0; i < VW; i++) q[i] = (float)((double)u2f((uint32_t)amax[j0 + i]) / (6.0 * (double)g));
            vi mag, code;
            vf v;
            memcpy(&mag, q, sizeof mag);
            round_index(&mag, CEIL, &code, E4M3);
            values_of(&code, &v, E4M3);
            v *= g;
            memcpy(s + j0, &v, sizeof v);
            for (ptrdiff_t i = 0; i < VW && j0 + i < n; i++) ((uint8_t *)scales)[k + j0 + i] = (uint8_t)code[i];
        }
    for (ptrdiff_t r = 0; r < bh; r++) {
        const float *x = src + ld * r;
        uint8_t *c = codes + pc * r;
        if (r >= h) {
            memset(c, 0, (size_t)(bw * n));
            continue;
        }
        if (key)  /* 4 divides o + pc r, the index of the row's first code; a block of zeros draws nothing */
            for (ptrdiff_t j = 0; j < n; j++)
                if (s[j] != 0.0f)
                    for (int q = 0; q < bw / 4; q++)
                        philox_uniforms((o + (uint64_t)(pc * r + bw * j)) / 4 + q + 1, key[0], key[1],
                                        u + bw * j + 4 * q);
        for (ptrdiff_t j = 0; j < n; j++) {
            if (s[j] == 0.0f) {  /* an NVFP4 block of zeros */
                memset(c + bw * j, 0, (size_t)bw);
                continue;
            }
            for (int q = 0; q < bw; q += VW)
                encode_lanes(x + bw * j + q, s[j], key ? u + bw * j + q : NULL, c + bw * j + q, mb, emin, top, max, sb);
            if (past_max(c + bw * j, bw, s[j], mb, emin, top, max, sb)) return 2;
        }
    }
    return 0;
}

/* Scales and codes on element grid GRID of the finite [rows, cols] matrix x
   in format fmt, a constant once inlined, under NVFP4 global scale g, with
   stochastic rounding under the Philox key key[0..1] (NULL: nearest): runs of
   RUN blocks in C order, read in place through row stride cols, and a last
   partial block of each row of blocks from a zero-padded copy. Returns 2 if a
   code would decode past FLT_MAX. */
static inline int encode_blocks(const int fmt, GRID, const float *x, ptrdiff_t rows, ptrdiff_t cols, float g,
                                const uint64_t *key, uint8_t *codes, void *scales)
{
    const int bh = BH(fmt), bw = BW(fmt);
    const ptrdiff_t nb = (cols + bw - 1) / bw, whole = cols / bw, pc = bw * nb;
    float pad[256];
    double u[RUN * 32];  /* a run's draws, for blocks of up to 32 codes */
    if (nb == 0) return 0;  /* no columns: no blocks to walk, however many rows */
    for (ptrdiff_t t = 0; bh * t < rows; t++) {
        const ptrdiff_t h = rows - bh * t < bh ? rows - bh * t : bh, at = bh * t * pc;  /* its first code */
        const float *xt = x + bh * t * cols;
        for (ptrdiff_t b = 0; b < whole; b += RUN)
            if (encode_run(fmt, mb, emin, top, max, sb, xt + bw * b, cols, h, whole - b < RUN ? whole - b : RUN, g,
                           key, (uint64_t)(at + bw * b), u, pc, codes + at + bw * b, scales, t * nb + b))
                return 2;
        if (whole < nb) {
            memset(pad, 0, sizeof *pad * bh * bw);
            for (ptrdiff_t i = 0; i < h; i++)
                memcpy(pad + bw * i, xt + cols * i + bw * whole, (size_t)(cols - bw * whole) * sizeof *x);
            if (encode_run(fmt, mb, emin, top, max, sb, pad, bw, h, 1, g, key, (uint64_t)(at + bw * whole), u, pc,
                           codes + at + bw * whole, scales, t * nb + whole))
                return 2;
        }
    }
    return 0;
}

/* Codes and scales of the [rows, cols] float32 matrix x in format fmt, with
   stochastic rounding under the Philox key {seed mod 2^64, seed >> 64} (NULL: nearest);
   the NVFP4 global scale goes to *g. Returns 1 if x is not finite, 2 if a
   code would decode past FLT_MAX (x within a block scale of it). */
EXPORT int quant_encode(int fmt, const float *x, ptrdiff_t rows, ptrdiff_t cols, const uint64_t *key,
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

/* Is code c off element grid GRID: a bit set above its sign, or a magnitude past the top code (E4M3's NaN)? */
static inline uint8_t off_grid(uint8_t c, GRID)
{ return (uint8_t)(c >> (sb + 1)) | (uint8_t)(((c & ((1u << sb) - 1)) + ((1u << sb) - 1 - top)) & (1u << sb)); }

/* The scale of block k of a record in format fmt */
static inline float block_scale(const int fmt, const void *scales, float g, ptrdiff_t k)
{ return fmt == MXFP8 ? pow2f(((const int16_t *)scales)[k]) : value_of(((const uint8_t *)scales)[k], E4M3) * g; }

/* v[0..16) = the values of the codes c[0..16) times s */
static inline void decode_lanes(const uint8_t *c, float s, float *v, GRID)
{
    vi w;
    vf f;
    for (int i = 0; i < VW; i++) w[i] = c[i];  /* one widening load: a vector conversion measured slower */
    values_of(&w, &f, mb, emin, top, max, sb);
    f *= s;
    memcpy(v, &f, sizeof f);
}

/* quant_decode's row loop in format fmt, a constant once inlined: each row of codes is tested, then decoded
   into out 16 codes to a vector, each value times its block's scale. */
static inline int decode_rows(const int fmt, GRID, const uint8_t *codes, const void *scales, float g, double peak,
                              ptrdiff_t rows, ptrdiff_t cols, float *out)
{
    const ptrdiff_t bh = BH(fmt), bw = BW(fmt), nb = (cols + bw - 1) / bw, whole = cols / bw, pc = bw * nb;
    const ptrdiff_t nr = (rows + bh - 1) / bh;
    uint8_t off = 0;
    int past = 0;
    if (nb == 0) return 0;  /* no columns: no codes to test or decode, however many rows */
    for (ptrdiff_t r = 0; r < bh * nr; r++) {  /* the padding rows of 2D tiles too */
        const uint8_t *cr = codes + r * pc;
        const ptrdiff_t k = r / bh * nb;
        for (ptrdiff_t i = 0; i < pc; i++) off |= off_grid(cr[i], mb, emin, top, max, sb);
        if (peak > (double)FLT_MAX)
            for (ptrdiff_t b = 0; b < nb; b++)
                past |= past_max(cr + bw * b, bw, block_scale(fmt, scales, g, k + b), mb, emin, top, max, sb);
        if (!out || r >= rows) continue;
        float *o = out + r * cols;
        for (ptrdiff_t b = 0; b < whole; b++) {
            const float s = block_scale(fmt, scales, g, k + b);
            for (int q = 0; q < bw; q += VW) decode_lanes(cr + bw * b + q, s, o + bw * b + q, mb, emin, top, max, sb);
        }
        for (ptrdiff_t j = bw * whole; j < cols; j += VW) {  /* a last block, partial, through a copy */
            float t[VW];
            decode_lanes(cr + j, block_scale(fmt, scales, g, k + whole), t, mb, emin, top, max, sb);
            memcpy(o + j, t, (size_t)(cols - j < VW ? cols - j : VW) * sizeof *o);
        }
    }
    return off ? 5 : past ? 6 : 0;
}

/* The one rule for what a quantized record may hold: the values quant_encode can make. Returns 0, or the
   status of the first part the record breaks: 3 g is no power of two in [2^-126, 2^127], 4 a block scale
   is past E4M3's top finite code, 126, or an exponent outside E8M0, 5 a code on the grid, padding included,
   is off its element grid, 6 a block scale, or a code times it, passes FLT_MAX in double. Each row of codes
   is tested just before it is decoded into out[rows, cols] (a test inside the decode loop measured slower). */
EXPORT int quant_decode(int fmt, const uint8_t *codes, const void *scales, float g,
                        ptrdiff_t rows, ptrdiff_t cols, float *out)
{
    const ptrdiff_t bh = BH(fmt), bw = BW(fmt), nb = (cols + bw - 1) / bw, nr = (rows + bh - 1) / bh;
    double peak;  /* the largest magnitude a code can decode to under the largest block scale */
    if (fmt == MXFP8) {
        const int16_t *e = scales;
        int32_t lo = 0, hi = -127;
        for (ptrdiff_t k = 0; k < nr * nb; k++) lo = e[k] < lo ? e[k] : lo, hi = e[k] > hi ? e[k] : hi;
        if (lo < -127 || hi > 127) return 4;
        peak = 448.0 * (double)pow2f(hi);
        return decode_rows(MXFP8, E4M3, codes, scales, g, peak, rows, cols, out);
    }
    if ((f2u(g) & 0x807fffffu) || f2u(g) < 0x00800000u || f2u(g) >= INF) return 3;
    const uint8_t *sc = scales;
    uint8_t hi = 0;  /* codes 0 to 126 order like their values */
    for (ptrdiff_t k = 0; k < nr * nb; k++) hi = sc[k] > hi ? sc[k] : hi;
    if (hi > 126) return 4;
    if ((peak = (double)value_of(hi, E4M3) * (double)g) > (double)FLT_MAX) return 6;
    peak *= 6.0;
    return fmt == NVFP4_1D ? decode_rows(NVFP4_1D, E2M1, codes, scales, g, peak, rows, cols, out)
                           : decode_rows(NVFP4_2D, E2M1, codes, scales, g, peak, rows, cols, out);
}

/* The n codes, each below 16, two to a byte of packed: code 2i in the low nibble of byte i, code 2i + 1 in
   its high nibble, an odd last code alone in the low nibble. */
EXPORT void nibbles_pack(const uint8_t *codes, ptrdiff_t n, uint8_t *packed)
{
    for (ptrdiff_t i = 0; i < n / 2; i++) packed[i] = (uint8_t)(codes[2 * i] | codes[2 * i + 1] << 4);
    if (n % 2) packed[n / 2] = codes[n - 1];
}

/* The n codes that nibbles_pack packed, each nibble of packed one code. */
EXPORT void nibbles_unpack(const uint8_t *packed, ptrdiff_t n, uint8_t *codes)
{
    for (ptrdiff_t i = 0; i < n / 2; i++) codes[2 * i] = packed[i] & 0xF, codes[2 * i + 1] = packed[i] >> 4;
    if (n % 2) codes[n - 1] = packed[n / 2] & 0xF;
}
"""
_C_FORMATS = {Format.NVFP4: 0, Format.NVFP4_2D: 1, Format.MXFP8: 2}
_QUANT_LIBRARY = _load_library(_cache_dirs(), _QUANT_SOURCE)


def _encode_kernel_c(fmt: Format, data: np.ndarray, mode: RoundingMode):
    if not isinstance(mode, RoundingMode):
        raise ConfigError(f"rounding mode must be a RoundingMode, got {mode!r}")
    grid, scales_grid = _grids(fmt, data.shape)
    x = np.ascontiguousarray(data)
    seed = int(mode.seed)
    key = np.array([seed & (2**64 - 1), seed >> 64], np.uint64) if mode.kind == "stochastic" else None
    codes = np.empty(grid, np.uint8)
    scales = np.empty(scales_grid, np.int16 if fmt == Format.MXFP8 else np.uint8)
    g = np.zeros(1, np.float32)
    status = _QUANT_LIBRARY.quant_encode(_C_FORMATS[fmt], x, *_matrix(data.shape), key, codes, scales, g)
    return status or (codes, scales, None if fmt == Format.MXFP8 else g[0])


def _decode_kernel_c(fmt: Format, shape, codes, scales, g, out):
    return _QUANT_LIBRARY.quant_decode(_C_FORMATS[fmt], codes, scales, g, *_matrix(shape), out)


def _kernel_array(a, dtype, refused) -> np.ndarray:
    """``a`` as a C-contiguous ``dtype`` array, where a value the cast would change becomes ``refused``."""
    a = np.asarray(a)
    if a.dtype == dtype:
        return np.asarray(a, order="C")
    with np.errstate(invalid="ignore", over="ignore"):
        cast = a.astype(dtype)
    return np.where(cast == a, cast, refused)


def _decode(q: QuantizedTensorNVFP4 | QuantizedTensorMXFP8, decode: bool = True):
    """The codes, scales and global scale of record ``q`` in the kernel's types, and its float32 values if
    ``decode`` (else None). ConfigError if an NVFP4 record's layout is unknown, ShapeError if its arrays are
    off the grids of its shape, NumericInputError if it breaks quant_decode's rule for what a quantized
    record may hold."""
    nvfp4 = isinstance(q, QuantizedTensorNVFP4)
    if nvfp4 and q.layout not in _LAYOUT_FORMAT:
        raise ConfigError(f"quantized nvfp4 record of unknown layout {q.layout!r}")
    fmt, scales = (_LAYOUT_FORMAT[q.layout], q.block_scales) if nvfp4 else (Format.MXFP8, q.scale_exps)
    grid, scales_grid = _grids(fmt, q.shape)
    if np.shape(q.codes) != grid or np.shape(scales) != scales_grid:
        raise ShapeError(f"codes on {np.shape(q.codes)} and scales on {np.shape(scales)} do not fit "
                         f"shape {q.shape}, whose grids are {grid} and {scales_grid}")
    codes = _kernel_array(q.codes, np.uint8, 0xFF)  # 0xFF is off both element grids
    if nvfp4:
        scales, g = _kernel_array(scales, np.uint8, 0xFF), _kernel_array(q.global_scale, np.float32, np.nan)[()]
    else:
        scales, g = _kernel_array(scales, np.int16, -2**15), np.float32(0)
    out = np.empty(q.shape, np.float32) if decode else None
    status = _decode_kernel_c(fmt, q.shape, codes, scales, g, out)
    if status:
        raise NumericInputError(f"quantized {fmt.value} record {_STATUS[status]}")
    return codes, scales, g, out


def quantize_nvfp4(
    data: np.ndarray, layout: Layout = Layout.BLOCK_1D, mode: RoundingMode = NEAREST_EVEN
) -> QuantizedTensorNVFP4:
    """Encode an array as E2M1 codes with E4M3 block scales.

    Block scales are amax(block) / (6 * global), encoded rounding up in
    magnitude so scaled elements never exceed +-6 and the element encoder
    never clamps. All-zero blocks get scale code 0 and element codes 0.
    """
    data = np.asarray(data, np.float32)
    if layout not in _LAYOUT_FORMAT:
        raise ConfigError(f"unknown layout {layout}")
    encoded = _encode_kernel_c(_LAYOUT_FORMAT[layout], data, mode)
    if isinstance(encoded, int):
        raise NumericInputError(f"quantize_nvfp4 {_STATUS[encoded]}")
    return QuantizedTensorNVFP4(data.shape, layout, *encoded)


def quantize_mxfp8(data: np.ndarray, mode: RoundingMode = NEAREST_EVEN) -> QuantizedTensorMXFP8:
    """Encode with E4M3 elements and power-of-two scales per 32-wide block.

    The block exponent is the smallest power of two that brings the block
    max within E4M3 range, so block maxima never clamp.
    """
    data = np.asarray(data, np.float32)
    encoded = _encode_kernel_c(Format.MXFP8, data, mode)
    if isinstance(encoded, int):
        raise NumericInputError(f"quantize_mxfp8 {_STATUS[encoded]}")
    return QuantizedTensorMXFP8(data.shape, *encoded[:2])


# ---------------------------------------------------------------------------
# Random Hadamard transform
# ---------------------------------------------------------------------------


def random_hadamard(n: int, seed: int) -> np.ndarray:
    """Orthogonal float32 [n, n] matrix (1/sqrt(n)) H_n D with a seeded random +-1 diagonal D."""
    if not _is_int(n) or n <= 0 or (n & (n - 1)) != 0:
        raise ConfigError(f"Hadamard size must be a power of two, got {n!r}")
    _check_seed(seed, "Hadamard")
    if n == 1:
        return np.ones((1, 1), np.float32)
    h = np.ones((1, 1), np.float64)
    while h.shape[0] < n:  # Sylvester's H_2n = [[H_n, H_n], [H_n, -H_n]]
        h = np.block([[h, h], [h, -h]])
    d = np.random.Generator(np.random.Philox(key=seed)).integers(0, 2, n) * 2 - 1
    return (h * d[None, :] / np.sqrt(n)).astype(np.float32)


def apply_rht(x: np.ndarray, matrix: np.ndarray, axis: int) -> np.ndarray:
    """Map every n-block v of the vectors along ``axis`` to v @ M (length must divide by n).

    For A's rows (axis=1) that is A M, for B's columns (axis=0) M^T B, so
    transforming both contraction axes leaves A @ B unchanged: M M^T = I.
    The blocks go through ``matmul_exact`` as one [-1, n] matrix: float32
    operands sum in k order, as ``matmul_oracle`` does, whatever the host's
    BLAS; a float64 operand takes its float64 branch and returns float64.
    """
    if np.ndim(matrix) != 2 or not 0 < matrix.shape[0] == matrix.shape[1] or not -x.ndim <= axis < x.ndim:
        raise ShapeError(f"apply_rht needs a square matrix and an axis of x, got {np.shape(matrix)} and {axis}")
    n = matrix.shape[0]
    if x.shape[axis] % n != 0:
        raise ShapeError(f"axis length {x.shape[axis]} not divisible by transform size {n}")
    moved = np.moveaxis(x, axis, -1)
    out = matmul_exact(moved.reshape(-1, n), matrix)
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
    """Read-only ``random_hadamard(RHT_BLOCK, seed)``, built once per seed: each linear keys its own
    transform, so every wide training step uses the same 19 seeds, and each build took about 0.15 ms."""
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

    def __post_init__(self):  # a bad precision fails here, not halfway through a backward sweep
        formats = (self.x_format, self.w_format, self.grad_format)
        if not all(isinstance(f, Format) for f in formats) or not _is_int(self.seed) or not 0 <= self.seed < 2**128 - 2:
            raise ConfigError(f"linear formats {formats}, seed {self.seed!r}: want Formats, seed in [0, 2**128 - 2)")
        object.__setattr__(self, "seed", int(self.seed))  # seed + 2 cannot wrap in a numpy integer

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

    def __post_init__(self):
        tail, sensitive = self.fraction_high_precision_tail, self.quantize_sensitive
        if (self.base not in ("reference", "nvfp4") or not isinstance(tail, numbers.Real) or isinstance(tail, bool)
                or not 0 <= tail <= 1 or not isinstance(sensitive, (bool, np.bool_))):
            raise ConfigError(f"precision base {self.base!r}, tail {tail!r}, quantize_sensitive {sensitive!r}: "
                              f"want 'reference' or 'nvfp4', a number in [0, 1] and a bool")

    def tail_start(self, total_layers: int) -> int:
        keep = int(np.ceil(self.fraction_high_precision_tail * total_layers))
        return total_layers - keep


@dataclass(frozen=True)
class LayerDescriptor:
    kind: LayerKind
    index: int          # composite-layer index within the stack
    total_layers: int

    def __post_init__(self):
        if not (isinstance(self.kind, LayerKind) and _is_int(self.index) and _is_int(self.total_layers)
                and 0 <= self.index < self.total_layers):
            raise ConfigError(f"layer {self.kind!r} at index {self.index!r} of {self.total_layers!r}: want a "
                              f"LayerKind and integers 0 <= index < total_layers")


def resolve_precision(desc: LayerDescriptor, policy: PrecisionPolicy) -> Format:
    """Storage format for one linear under the policy."""
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


def quantized_to_bytes(q: QuantizedTensorNVFP4 | QuantizedTensorMXFP8) -> bytes:
    """Header {tag, layout, shape, block grid}, scales, then packed codes. A record that breaks the rule
    for what a quantized record may hold raises, as ``dequantize`` does, before a byte is written."""
    codes, scales, g, _ = _decode(q, decode=False)

    def dims(shape) -> bytes:
        return struct.pack(f"<B{len(shape)}q", len(shape), *shape)

    if isinstance(q, QuantizedTensorNVFP4):
        head = struct.pack("<BB", _FMT_TAGS["nvfp4"], q.layout != Layout.BLOCK_1D) + dims(q.shape)
        head += dims(codes.shape) + struct.pack("<f", float(g))
        packed = bytearray((codes.size + 1) // 2)  # two codes to a byte, each < 16 once checked
        _QUANT_LIBRARY.nibbles_pack(codes, codes.size, packed)
    else:
        head = struct.pack("<BB", _FMT_TAGS["mxfp8"], 0) + dims(q.shape) + dims(codes.shape)
        scales, packed = scales.astype("<i2", copy=False), codes.tobytes()
    return head + dims(scales.shape) + scales.tobytes() + struct.pack("<q", codes.size) + packed


def quantized_from_bytes(raw: bytes) -> QuantizedTensorNVFP4 | QuantizedTensorMXFP8:
    """Inverse of ``quantized_to_bytes``. Truncated or trailing bytes, and a record whose grids do not fit
    its shape or that breaks the rule for what a quantized record may hold, the one check ``dequantize``
    and ``quantized_to_bytes`` run, raise ``CheckpointError``; an unknown tag raises ``ConfigError``."""
    view, off = memoryview(raw), 0

    def take(n: int) -> memoryview:
        nonlocal off
        if not 0 <= n <= len(view) - off:
            raise CheckpointError(f"quantized record truncated: {n} bytes wanted at {off} of {len(view)}")
        off += n
        return view[off - n:off]

    def dims() -> tuple[int, ...]:  # a byte-sized count, then that many int64s
        ndim = take(1)[0]
        shape = struct.unpack(f"<{ndim}q", take(8 * ndim))
        if min(shape, default=0) < 0:
            raise CheckpointError(f"negative dimension in quantized record: {shape}")
        return shape

    tag, layout_code = take(2)
    if tag not in _FMT_TAGS.values():
        raise ConfigError(f"unknown quantized format tag {tag}")
    nvfp4 = tag == _FMT_TAGS["nvfp4"]
    shape, codes_shape = dims(), dims()
    g = np.float32(struct.unpack("<f", take(4))[0]) if nvfp4 else None
    scales_shape = dims()
    scales = np.frombuffer(take(math.prod(scales_shape) * (1 if nvfp4 else 2)), np.uint8 if nvfp4 else "<i2")
    (n_codes,) = struct.unpack("<q", take(8))
    packed = take((n_codes + 1) // 2 if nvfp4 else n_codes)
    if off != len(view):
        raise CheckpointError(f"{len(view) - off} trailing bytes after quantized record")
    layouts = list(_LAYOUT_FORMAT) if nvfp4 else [Layout.BLOCK_1D]
    if layout_code >= len(layouts) or n_codes != math.prod(codes_shape):
        raise CheckpointError(f"quantized record, tag {tag}, layout {layout_code}: {n_codes} codes on {codes_shape}")
    try:
        codes = np.empty(codes_shape, np.uint8)
        scales = scales.reshape(scales_shape).astype(np.uint8 if nvfp4 else np.int16)
    except ValueError as e:  # numpy makes no array past its size limit, even one with no elements
        raise CheckpointError(f"quantized record grids {codes_shape} and {scales_shape} are too big: {e}") from e
    if nvfp4:
        _QUANT_LIBRARY.nibbles_unpack(packed, n_codes, codes)
    else:
        codes[...] = np.frombuffer(packed, np.uint8).reshape(codes_shape)
    q = (QuantizedTensorNVFP4(shape, layouts[layout_code], codes, scales, g) if nvfp4
         else QuantizedTensorMXFP8(shape, codes, scales))
    try:
        _decode(q, decode=False)
    except (ShapeError, NumericInputError) as e:
        raise CheckpointError(f"quantized record of shape {shape} holds what no quantizer makes: {e}") from e
    return q
