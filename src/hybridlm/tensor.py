"""Minimal dense tensor type with tape-based reverse-mode differentiation.

Design goals, in order: verifiability, determinism, speed. Reference
precision is float32 throughout. Matrix multiplication uses a fixed
summation order (for each output element, products are accumulated over
the contraction index k in increasing order, one float32 rounding per
add), so results can be compared bit-for-bit against a scalar triple-loop
oracle instead of with tolerances.

Gradients are recorded on an explicit :class:`Tape`. Ops only record when
a tape is active and some input requires gradients, so inference code
pays no bookkeeping cost. A backward sweep accumulates gradients into the
``grad`` of leaf tensors, those no recorded op produced, and releases every
other tensor's gradient once its op has consumed it; the training loop is
responsible for zeroing leaf gradients.

Threading: a tape and the tensors recorded on it belong to one thread.
Independent tapes may run concurrently; there is no shared mutable state.
"""

from __future__ import annotations

import ctypes
import functools
import hashlib
import importlib.machinery
import importlib.util
import math
import os
import re
import subprocess
import sysconfig
import tempfile
import threading
import types
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from .errors import ContractError, KernelBuildError, NumericInputError, ShapeError, TokenIndexError

# A training step allocates and frees the same arrays, up to a few MB each,
# every step. With glibc's defaults an allocation above the mmap threshold
# (128 KiB, raised only to the largest mapping freed so far) gets its own
# mapping, unmapped when freed, and free memory above the trim threshold at
# the top of the heap goes back to the kernel, so the next step faults every
# page in again: in a loop of long-stack steps (T 2048) each step took about
# 12,700 minor faults and spent a quarter of its time in the kernel. Arrays
# up to 32 MiB (glibc's largest mmap threshold on 64-bit) therefore come from
# the heap, which keeps up to 256 MiB free for reuse. Setting either value
# stops glibc adjusting both, so both are set. ctypes.pythonapi resolves
# mallopt among the symbols the process already has, so no library is
# opened; a C library without mallopt is left as is.
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3
try:
    _mallopt = ctypes.pythonapi["mallopt"]
except AttributeError:
    pass
else:
    _mallopt.argtypes, _mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    _mallopt(_M_MMAP_THRESHOLD, 32 << 20)
    _mallopt(_M_TRIM_THRESHOLD, 256 << 20)

# ---------------------------------------------------------------------------
# Exact matmul kernel
# ---------------------------------------------------------------------------
#
# BLAS reorders float32 sums (blocking, SIMD), which breaks bit-exact oracle
# comparisons. The kernel below gives every output element the oracle's
# rounding sequence: start from +0, then for k = 0, 1, ... add a[i,k]*b[k,j],
# rounding the product and then the sum to float32.
#
# The kernel is the C source in _MM_SOURCE. On first import the local
# `cc` compiles it into an extension module, which Python imports. It reads A and
# B through element strides, so transposed and sliced views need no copy.
# For each panel of 64 columns of B (32 or 16 when the panel is that narrow)
# and each block of up to 128 values of k (KC), it packs the panel into a
# contiguous stack buffer, then sweeps the rows of A in tiles of 6 rows (12
# for the narrow panels). A tile's sums stay in 24 (or 12) 16-float vectors,
# registers under AVX-512, while k runs through the block and go back to
# `out` after it. They start from +0 on the first block and the next block
# resumes from `out`, so each sum still sees k in increasing order with one
# product and one sum rounding per step, and `out` needs no zero fill; with
# k = 0 the kernel writes the zeros itself. A tile that overhangs the last
# rows or columns repeats the last row and pads the panel with zeros, and
# only its real rows and columns are stored.
#
# Two flag rules protect the bits: -ffp-contract=off stops the compiler
# fusing a multiply and an add into one FMA (one rounding instead of two),
# and -ffast-math/-Ofast are never used, since they reassociate sums and
# flush subnormals to zero. The one exception is the GEMM's fused body. The
# tile and the panel loop are instantiated twice from _MM_TYPED, and only the
# fused copy is marked fp-contract=fast. mm_exact_f32 runs it when
# mm_products_exact finds every product exact: every nonzero element of both
# operands is a normal float whose 12 low mantissa bits are zero, and either
# an operand is all zero or the least and greatest biased exponents satisfy
# min e(A) + min e(B) - 254 >= -126 and max e(A) + max e(B) - 254 <= 126.
# Proof: two significands of at most 12 bits multiply to at most 24 bits,
# and the bounds put every nonzero product in [2^-126, 2^128), the normal
# range, so the float32 product is ab itself. Then fma(a, b, c) = round(ab +
# c) = round(round(ab) + c), the separate multiply and add, for every c,
# infinite or NaN included. Operands dequantized from NVFP4 (at most 6
# significant bits) and MXFP8 (at most 4) pass: in one wide training step
# all 60 quantized-linear GEMMs do, their products' exponents spanning -50
# to 2, and none of the 135 others. The scan is vectorized, keeping per
# element only the minimum of u - 1 over the magnitude bits u (a zero wraps
# to the maximum), their maximum and their OR, and it stops after the first
# row that fails, so a failing GEMM pays for one row. The baseline x86-64
# build has no FMA instruction and keeps a multiply and an add, which give
# the same bits.
# -fno-trapping-math lets the compiler assume that floating-point
# operations do not trap, which it needs to vectorize conditional selects
# such as the quantizers' (quant.py); it changes no rounding, and the
# GEMM's machine code is the same with or without it. -fno-math-errno makes
# a square root the one instruction, without a call into libm to set errno
# on a negative argument, so no library needs libm; it changes no result.
# -Wall changes no code either; the build tests require it to print nothing.
# The kernel is single-threaded: splitting rows over two threads gave no
# reliable end-to-end gain on a 2-vCPU host whose cores also serve numpy's
# BLAS calls.
#
# One recipe builds every C source: _MM_SOURCE here, _SCAN_SOURCE
# (mamba_scan's recurrence and the rms_norm, causal_conv1d, softmax and
# scatter-add kernels, below) and quant.py's _QUANT_SOURCE (the
# quantizers' encode/decode). _load_library compiles each once, with
# _C_FLAGS and _ISA_FLAGS, after a line that defines EXPORT, the marker of
# exported functions, as nothing. _ISA_FLAGS is -mavx512f where the probe
# (_PROBE_SOURCE, built with no level flag) finds AVX-512F usable, the OS's
# support for its state included, and empty otherwise, which builds
# baseline code. There is no AVX2 level: GCC gives the kernels' 64-byte
# vectors no register mode under AVX2. On a 2-vCPU AVX-512 Xeon an AVX2
# build ran the GEMM at 256x1064x256 in 40-42 ms, no faster than the
# baseline build's 37-42 ms (avx512f: 2 ms), and the scan forward at the
# long layer in 3.8-4.0 ms against the baseline's 1.6-2.1 ms.
#
# Each source becomes a CPython extension module. _load_library includes the
# interpreter's Python.h ahead of it and generates a METH_FASTCALL wrapper
# (PEP 590) for every EXPORT function from its declaration (_wrapper), so
# argument types are written once, in C. Arrays pass through the buffer
# protocol (PEP 3118), and the kernel runs with the GIL released. On a 2-vCPU
# AVX-512 Xeon an empty C function of three arrays took 0.32 us to call, where
# ctypes took about 5.5 us, 3.7 of them reading the addresses.
#
# A module is cached in $XDG_CACHE_HOME/hybridlm (default
# ~/.cache/hybridlm), or in <tempdir>/hybridlm-<uid> when that directory is
# not writable. Its file name hashes the generated text, the flags, the
# include directory and `cc --version`, so a changed kernel, level,
# interpreter or compiler builds afresh. Each build goes to a temporary file
# that os.replace moves into place, so processes importing concurrently are
# safe. A directory that another user owns or can write to is skipped, since
# a module planted there would be loaded. A process runs `cc --version` once
# per compiler, and each module loads each of its sources once. With no
# working compiler, no Python.h or no usable cache directory the import
# raises KernelBuildError: there is no slower path to fall back to.

_MM_TYPED = r"""
/* out[0:rows, 0:w] (row stride n) = s + a[0:rows, 0:kc] @ bp, in k order, for an MR x NV*VW tile,
   where s is +0 on the first k block and out otherwise; bp is the packed panel, NV*VW floats per k. */
static inline CONTRACT void mm_tile_SFX(
    const float *restrict a, ptrdiff_t sa0, ptrdiff_t sa1, ptrdiff_t rows, const float *restrict bp, float *restrict out,
    ptrdiff_t n, ptrdiff_t w, ptrdiff_t kc, int first, const int MR, const int NV)
{
    const int full = rows == MR && w == NV * VW;
    const float *ar[12];
    vf acc[12][4], bv[4];
    float t[12 * NP] __attribute__((aligned(64)));
    if (!full && !first)
        for (ptrdiff_t r = 0; r < MR; r++)
            for (ptrdiff_t j = 0; j < NV * VW; j++)
                t[r * NP + j] = r < rows && j < w ? out[r * n + j] : 0.0f;
#pragma GCC unroll 12
    for (int r = 0; r < MR; r++) {
        ar[r] = a + (r < rows ? r : rows - 1) * sa0;
#pragma GCC unroll 4
        for (int v = 0; v < NV; v++)
            acc[r][v] = first ? (vf){0} : full ? *(const vfu *)(out + r * n + v * VW) : *(const vf *)(t + r * NP + v * VW);
    }
    for (ptrdiff_t k = 0; k < kc; k++) {
#pragma GCC unroll 4
        for (int v = 0; v < NV; v++)
            bv[v] = *(const vf *)(bp + (k * NV + v) * VW);
#pragma GCC unroll 12
        for (int r = 0; r < MR; r++) {
            const float x = ar[r][k * sa1];
#pragma GCC unroll 4
            for (int v = 0; v < NV; v++)
                acc[r][v] += x * bv[v];
        }
    }
#pragma GCC unroll 12
    for (int r = 0; r < MR; r++)
#pragma GCC unroll 4
        for (int v = 0; v < NV; v++)
            if (full)
                *(vfu *)(out + r * n + v * VW) = acc[r][v];
            else
                *(vf *)(t + r * NP + v * VW) = acc[r][v];
    if (!full)
        for (ptrdiff_t r = 0; r < rows; r++)
            for (ptrdiff_t j = 0; j < w; j++)
                out[r * n + j] = t[r * NP + j];
}

/* out = a @ b for kk > 0, tile by tile. */
EXPORT CONTRACT void mm_body_SFX(const float *restrict a, const float *restrict b, float *restrict out,
                                 ptrdiff_t m, ptrdiff_t kk, ptrdiff_t n,
                                 ptrdiff_t sa0, ptrdiff_t sa1, ptrdiff_t sb0, ptrdiff_t sb1)
{
    float bp[KC * NP] __attribute__((aligned(64)));
    for (ptrdiff_t j0 = 0; j0 < n; j0 += NP) {
        const ptrdiff_t w = n - j0 < NP ? n - j0 : NP;
        const ptrdiff_t pw = w <= NP / 4 ? NP / 4 : w <= NP / 2 ? NP / 2 : NP;
        for (ptrdiff_t k0 = 0; k0 < kk; k0 += KC) {
            const ptrdiff_t kc = kk - k0 < KC ? kk - k0 : KC;
            for (ptrdiff_t k = 0; k < kc; k++) {
                const float *bk = b + (k0 + k) * sb0 + j0 * sb1;
                for (ptrdiff_t j = 0; j < pw; j++)
                    bp[k * pw + j] = j < w ? bk[j * sb1] : 0.0f;
            }
            const float *ak = a + k0 * sa1;
            for (ptrdiff_t i = 0, mr = pw == NP ? 6 : 12; i < m; i += mr) {
                const ptrdiff_t rows = m - i < mr ? m - i : mr;
                float *o = out + i * n + j0;
                if (pw == NP)
                    mm_tile_SFX(ak + i * sa0, sa0, sa1, rows, bp, o, n, w, kc, k0 == 0, 6, 4);
                else if (pw == NP / 2)
                    mm_tile_SFX(ak + i * sa0, sa0, sa1, rows, bp, o, n, w, kc, k0 == 0, 12, 2);
                else
                    mm_tile_SFX(ak + i * sa0, sa0, sa1, rows, bp, o, n, w, kc, k0 == 0, 12, 1);
            }
        }
    }
}
"""
_MM_SOURCE = r"""
#include <stdint.h>
#include <string.h>

typedef float vf __attribute__((vector_size(64)));
typedef float vfu __attribute__((vector_size(64), aligned(4)));
typedef uint32_t u32 __attribute__((may_alias));

enum { VW = 16, KC = 128, NP = 64 };
""" + "".join(_MM_TYPED.replace("SFX", sfx).replace("CONTRACT", contract)
              for sfx, contract in (("separate", ""), ("fused", '__attribute__((optimize("fp-contract=fast")))'))) + r"""
/* Folds the magnitude bits u of x[0:cols] (stride s) into lo, the least u - 1 (a zero wraps to the
   greatest), hi, the greatest u, and bits, their OR. */
static inline void mm_scan_row(const u32 *x, ptrdiff_t cols, ptrdiff_t s, uint32_t *lo, uint32_t *hi, uint32_t *bits)
{
    uint32_t mn = *lo, mx = *hi, ors = *bits;
    for (ptrdiff_t j = 0; j < cols; j++) {
        const uint32_t u = x[j * s] & 0x7fffffffu;
        mn = u - 1 < mn ? u - 1 : mn;
        mx = u > mx ? u : mx;
        ors |= u;
    }
    *lo = mn, *hi = mx, *bits = ors;
}

/* mm_scan_row over the rows of x[0:rows, 0:cols] (strides s0, s1), or over its columns when those are
   contiguous. Returns 0 after the first row that holds a nonzero element with any of its 12 low
   mantissa bits set, a subnormal, an infinity or a NaN. */
static inline int mm_scan(const float *x, ptrdiff_t rows, ptrdiff_t cols, ptrdiff_t s0, ptrdiff_t s1, uint32_t *lo,
                          uint32_t *hi)
{
    uint32_t bits = 0;
    *lo = UINT32_MAX, *hi = 0;
    if (s1 != 1 && s0 == 1) {
        const ptrdiff_t r = rows;
        rows = cols, cols = r, s0 = s1, s1 = 1;
    }
    for (ptrdiff_t i = 0; i < rows; i++) {
        if (s1 == 1)
            mm_scan_row((const u32 *)(x + i * s0), cols, 1, lo, hi, &bits);
        else
            mm_scan_row((const u32 *)(x + i * s0), cols, s1, lo, hi, &bits);
        if (bits & 0xfffu || *hi >= 0x7f800000u || *lo < 0x007fffffu)
            return 0;
    }
    return 1;
}

/* 1 when every product a[i,k] b[k,j] is exact in float32: an operand is all zero, or the nonzero
   elements of both are normal with 12 low mantissa bits of zero and their biased exponents keep
   every product in [2^-126, 2^128). */
EXPORT int mm_products_exact(const float *a, const float *b, ptrdiff_t m, ptrdiff_t kk, ptrdiff_t n,
                             ptrdiff_t sa0, ptrdiff_t sa1, ptrdiff_t sb0, ptrdiff_t sb1)
{
    uint32_t alo, ahi, blo, bhi;
    if (!mm_scan(a, m, kk, sa0, sa1, &alo, &ahi) || !mm_scan(b, kk, n, sb0, sb1, &blo, &bhi))
        return 0;
    if (alo == UINT32_MAX || blo == UINT32_MAX)
        return 1;
    const int emin = (int)((alo + 1) >> 23) + (int)((blo + 1) >> 23), emax = (int)(ahi >> 23) + (int)(bhi >> 23);
    return emin - 254 >= -126 && emax - 254 <= 126;
}

/* out = a @ b in the oracle's order, by the fused body when every product is exact. */
EXPORT void mm_exact_f32(const float *restrict a, const float *restrict b, float *restrict out,
                         ptrdiff_t m, ptrdiff_t kk, ptrdiff_t n,
                         ptrdiff_t sa0, ptrdiff_t sa1, ptrdiff_t sb0, ptrdiff_t sb1)
{
    if (kk == 0)
        memset(out, 0, (size_t)(m * n) * sizeof *out);
    else if (mm_products_exact(a, b, m, kk, n, sa0, sa1, sb0, sb1))
        mm_body_fused(a, b, out, m, kk, n, sa0, sa1, sb0, sb1);
    else
        mm_body_separate(a, b, out, m, kk, n, sa0, sa1, sb0, sb1);
}
"""
_C_FLAGS = ("-O3", "-ffp-contract=off", "-fno-trapping-math", "-fno-math-errno", "-Wall", "-fPIC", "-shared")
_ISA_FLAGS: tuple[str, ...] = ()  # the level's flags, set from the probe below, which builds without any
_PROBE_SOURCE = r"""
EXPORT int avx512f_usable(int unused)
{
#if defined(__x86_64__)
    __builtin_cpu_init();
    return __builtin_cpu_supports("avx512f") != 0;
#endif
    return 0;
}
"""
_PYTHON_INCLUDE = sysconfig.get_paths()["include"]  # the interpreter's Python.h
_DECLARATION = re.compile(r"^EXPORT\b.*?\b(\w+) (\w+)\(([^)]*)\)", re.M | re.S)
_MODULE = "hybridlm_kernels"  # every kernel module's name; none is put in sys.modules
# The argument converters of the generated wrappers, one per parameter type: arg_<type> for each of
# _C_SCALARS, and arg_buffer for a pointer. Each returns nonzero, with a Python error set, for an argument it
# refuses. A pointer takes None as NULL or an object's buffer, which must be writable unless the pointer is
# const; the buffer may be strided, and its address is that of its first element.
_GLUE = r"""
static inline int arg_buffer(PyObject *o, int writable, Py_buffer *view)
{ return o != Py_None && PyObject_GetBuffer(o, view, writable ? PyBUF_STRIDES | PyBUF_WRITABLE : PyBUF_STRIDES); }
static inline int arg_ptrdiff_t(PyObject *o, ptrdiff_t *v)
{ return (*v = PyNumber_AsSsize_t(o, PyExc_OverflowError)) == -1 && PyErr_Occurred(); }
static inline int arg_double(PyObject *o, double *v) { return (*v = PyFloat_AsDouble(o)) == -1.0 && PyErr_Occurred(); }
static inline int arg_float(PyObject *o, float *v) { double d; return arg_double(o, &d) || (*v = (float)d, 0); }
static inline int arg_int(PyObject *o, int *v)
{
    const long l = PyLong_AsLong(o);
    if (l == -1 && PyErr_Occurred()) return 1;
    if (l >= INT_MIN && l <= INT_MAX) return *v = (int)l, 0;
    PyErr_SetString(PyExc_OverflowError, "Python int too large for a C int");
    return 1;
}
"""
_C_SCALARS = ("ptrdiff_t", "int", "float", "double")
# For each result type: the declaration of its variable, the assignment ahead of the call and the return value
_C_RESULTS = {"void": ("", "", "Py_NewRef(Py_None)"), "int": ("int r;", "r = ", "PyLong_FromLong(r)")}
_WRAPPER = """
static PyObject *{name}_py(PyObject *self, PyObject *const *args, Py_ssize_t nargs)
{{
    PyObject *ret = NULL;
    {decls}
    if (nargs != {count})
        PyErr_Format(PyExc_TypeError, "{name} takes {count} arguments (%zd given)", nargs);
    else if (!({convert})) {{
        {result}
        Py_BEGIN_ALLOW_THREADS
        {assign}{name}({call});
        Py_END_ALLOW_THREADS
        ret = {returned};
    }}
    {release}
    return ret;
}}
"""
# The module's function table and its multi-phase init function (PEP 489)
_MODULE_INIT = """
static PyMethodDef kernel_methods[] = {{
{methods}    {{NULL, NULL, 0, NULL}}
}};
static struct PyModuleDef kernel_module = {{PyModuleDef_HEAD_INIT, "{module}", NULL, 0, kernel_methods}};
PyMODINIT_FUNC PyInit_{module}(void) {{ return PyModuleDef_Init(&kernel_module); }}
"""


def _cache_dirs() -> list[Path]:
    base = os.environ.get("XDG_CACHE_HOME") or os.path.join(os.path.expanduser("~"), ".cache")
    return [Path(base) / "hybridlm", Path(tempfile.gettempdir()) / f"hybridlm-{os.getuid()}"]


def _wrapper(result: str, name: str, params: str) -> str:
    """The METH_FASTCALL function name_py, which checks the argument count, converts each argument as the C
    declaration ``result name(params)`` types it, calls name with the GIL released and returns None or the
    int. Raises KernelBuildError for a type it cannot convert."""
    params = params.split(",")
    c_types = ["*" if "*" in param else " ".join(param.split()[:-1]) for param in params]
    unknown = [t for t in c_types if t != "*" and t not in _C_SCALARS] + [result] * (result not in _C_RESULTS)
    if unknown:
        raise KernelBuildError(f"C function {name} uses type {unknown[0]!r}, which the loader cannot type")
    decls, convert, call, release = [], [], [], []
    for i, (param, c_type) in enumerate(zip(params, c_types)):
        if c_type == "*":
            decls.append(f"Py_buffer b{i} = {{0}};")
            convert.append(f"arg_buffer(args[{i}], {int('const' not in param.split('*')[0].split())}, &b{i})")
            call.append(f"b{i}.buf")
            release.append(f"PyBuffer_Release(&b{i});")
        else:
            decls.append(f"{c_type} a{i};")
            convert.append(f"arg_{c_type}(args[{i}], &a{i})")
            call.append(f"a{i}")
    declared, assign, returned = _C_RESULTS[result]
    return _WRAPPER.format(name=name, decls=" ".join(decls), count=len(params), convert=" || ".join(convert),
                           result=declared, assign=assign, call=", ".join(call), returned=returned,
                           release=" ".join(release))


def _compile(cc: str, lib: Path, text: str, flags: Sequence[str]) -> None:
    fd, tmp = tempfile.mkstemp(dir=lib.parent, suffix=".so.tmp")
    os.close(fd)
    try:
        subprocess.run([cc, *flags, "-x", "c", "-", "-o", tmp], input=text, text=True, capture_output=True,
                       check=True)
        os.replace(tmp, lib)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


@functools.cache
def _cc_version(cc: str) -> str:
    """``cc --version``, run once per compiler; a failure raises and is not cached."""
    return subprocess.run([cc, "--version"], capture_output=True, text=True, check=True).stdout


def _load_library(cache_dirs: Sequence[Path], source: str, cc: str = "cc") -> types.ModuleType:
    """The extension module built from the C ``source``, with a function for each of its EXPORT functions
    generated from the declaration.

    Reuses a build cached in the first usable directory of ``cache_dirs``,
    or compiles one into it. Raises KernelBuildError naming the function
    and the type for a type the wrappers cannot convert, or naming ``cc`` and
    every directory tried when ``cc`` is missing or fails, Python.h included,
    or no directory is usable.
    """
    dirs = [Path(d) for d in cache_dirs]

    def error(why: str) -> KernelBuildError:
        return KernelBuildError(f"cannot build the C kernels with compiler {cc!r} in cache directories "
                                f"{', '.join(map(str, dirs))}: {why}")

    try:
        version = _cc_version(cc)
    except (OSError, subprocess.CalledProcessError) as e:
        raise error(f"the compiler does not run ({e})") from e
    declarations = _DECLARATION.findall(source)  # the source always holds the literal EXPORT
    wrappers = "".join(_wrapper(*declaration) for declaration in declarations)
    methods = "".join(f'    {{"{name}", (PyCFunction)(void (*)(void)){name}_py, METH_FASTCALL, NULL}},\n'
                      for _, name, _ in declarations)
    text = (f"#include <Python.h>\n#include <stddef.h>\n#define EXPORT\n{source}{_GLUE}{wrappers}"
            f"{_MODULE_INIT.format(methods=methods, module=_MODULE)}")
    flags = (*_C_FLAGS, *_ISA_FLAGS, f"-I{_PYTHON_INCLUDE}")
    key = hashlib.sha256("\0".join((text, *flags, version)).encode()).hexdigest()[:16]
    skipped = []
    for d in dirs:
        lib = d / f"hybridlm-{key}.so"
        try:
            d.mkdir(mode=0o700, parents=True, exist_ok=True)
            st = d.stat()
            if st.st_uid != os.getuid() or st.st_mode & 0o022:
                skipped.append(f"{d} is another user's or writable by others")
                continue
            if not lib.exists():
                _compile(cc, lib, text, flags)
            loader = importlib.machinery.ExtensionFileLoader(_MODULE, str(lib))
            module = importlib.util.module_from_spec(importlib.util.spec_from_loader(_MODULE, loader))
            loader.exec_module(module)
            return module
        except subprocess.CalledProcessError as e:
            raise error(f"the compiler failed: {e.stderr.strip()}") from e
        except (OSError, ImportError) as e:  # directory not writable, or the module cannot be loaded from it
            skipped.append(f"{d}: {e}")
    raise error("no directory is usable (" + "; ".join(skipped) + ")")


_ISA_FLAGS = ("-mavx512f",) if _load_library(_cache_dirs(), _PROBE_SOURCE).avx512f_usable(0) else ()
_MM_LIBRARY = _load_library(_cache_dirs(), _MM_SOURCE)


# Kernel contract: ``a`` (m, k) and ``b`` (k, n) are float32 arrays whose
# strides are non-negative multiples of 4 bytes, so views such as ``x.T`` or
# slices qualify; ``out`` (m, n) is C-contiguous float32, its contents
# ignored. The kernel writes a @ b into ``out`` in the oracle's order and
# returns it. The loader converts mm_exact_f32's arguments as its C declaration
# types them.


def _mm_kernel(a, b, out):
    (m, kk), (sa0, sa1), (sb0, sb1) = a.shape, a.strides, b.strides
    _MM_LIBRARY.mm_exact_f32(a, b, out, m, kk, b.shape[1], sa0 // 4, sa1 // 4, sb0 // 4, sb1 // 4)
    return out


def _kernel_operand(x: np.ndarray) -> np.ndarray:
    """Matrix ``x`` itself when the kernel contract admits it, else a C-contiguous float32 copy."""
    s0, s1 = x.strides
    if x.dtype == np.float32 and s0 >= 0 and s1 >= 0 and (s0 | s1) % 4 == 0:
        return x
    return np.ascontiguousarray(x, np.float32)


def matmul_exact(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Raw float matmul with fixed k-increasing accumulation order."""
    if a.ndim != 2 or b.ndim != 2 or a.shape[1] != b.shape[0]:
        raise ShapeError(f"matmul shapes incompatible: {a.shape} x {b.shape}")
    if a.dtype == np.float64 or b.dtype == np.float64:
        # float64 path only serves verification oracles; order is irrelevant
        # there because the extra precision swamps reassociation effects.
        return np.asarray(a, np.float64) @ np.asarray(b, np.float64)
    out = np.empty((a.shape[0], b.shape[1]), dtype=np.float32)
    return _mm_kernel(_kernel_operand(a), _kernel_operand(b), out)


def matmul_oracle(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Scalar triple-loop reference (k innermost), for tests. Slow."""
    m, kk = a.shape
    n = b.shape[1]
    out = np.zeros((m, n), dtype=np.float32)
    for i in range(m):
        for j in range(n):
            acc = np.float32(0.0)
            for k in range(kk):
                acc = np.float32(acc + np.float32(a[i, k] * b[k, j]))
            out[i, j] = acc
    return out


# ---------------------------------------------------------------------------
# Tensor and tape
# ---------------------------------------------------------------------------


class Tensor:
    """Dense row-major float array with optional gradient buffer.

    ``data`` is float32 in normal operation; verification oracles may carry
    float64 through the same ops. ``grad``, when present, matches ``data``
    in shape.
    """

    __slots__ = ("data", "requires_grad", "grad")

    def __init__(self, data, requires_grad: bool = False):
        arr = np.asarray(data)
        if arr.dtype not in (np.float32, np.float64):
            arr = arr.astype(np.float32)
        self.data = arr
        self.requires_grad = requires_grad
        self.grad: np.ndarray | None = None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    def item(self) -> float:
        if self.data.size != 1:
            raise ContractError(f"item() on non-scalar tensor of shape {self.shape}")
        return float(self.data.reshape(()))

    def zero_grad(self) -> None:
        self.grad = None

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"

    # operator sugar for the residual adds, routed through the module-level op
    def __add__(self, other):
        return add(self, _as_tensor(other))


def _as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


class Tape:
    """Ordered record of differentiable operations.

    Nodes are appended in forward order, which guarantees every node's
    inputs appear earlier on the tape; the backward pass is a single
    reverse sweep that visits each node exactly once.
    """

    def __init__(self):
        self._nodes: list[tuple[Tensor, tuple[Tensor, ...], Callable]] = []

    def __len__(self) -> int:
        return len(self._nodes)

    def record(self, out: Tensor, inputs: tuple[Tensor, ...], backward: Callable) -> None:
        self._nodes.append((out, inputs, backward))

    def __enter__(self) -> "Tape":
        _STATE.stack.append(self)
        return self

    def __exit__(self, *exc) -> None:
        popped = _STATE.stack.pop()
        assert popped is self


class _TapeState(threading.local):
    def __init__(self):
        self.stack: list[Tape] = []


_STATE = _TapeState()


def active_tape() -> Tape | None:
    return _STATE.stack[-1] if _STATE.stack else None


def _make(out_data, inputs: Sequence[Tensor], backward: Callable) -> Tensor:
    """Wrap an op result, recording it when gradients are being traced."""
    req = any(t.requires_grad for t in inputs)
    out = Tensor(out_data, requires_grad=req)
    tape = active_tape()
    if req and tape is not None:
        tape.record(out, tuple(inputs), backward)
    return out


def backward(tape: Tape, loss: Tensor) -> None:
    """Add the gradient of ``loss`` into ``grad`` of every leaf reachable from it.

    A leaf is a tensor that no op on ``tape`` produced. Gradients accumulate
    across fan-out and across repeated calls; callers zero leaf grads
    between steps. Every other tensor's ``grad`` is released as soon as its
    op's closure has consumed it, so after the sweep only leaves keep one.

    Closure contract: a closure receives its output's gradient ``dout`` and
    returns, per input, None, a new array, a view of ``dout``, or a
    ``(key, values)`` part meaning an array of zeros with ``values`` at
    ``[key]``; it never writes into ``dout``. Every live gradient array
    belongs to one tensor: the sweep takes a returned array without a copy
    (casting it if its dtype differs) and copies only a second view of
    ``dout`` handed out by the same closure.
    """
    if loss.data.size != 1:
        raise ContractError(f"backward needs a scalar loss, got shape {loss.shape}")
    seed = np.ones_like(loss.data)
    loss.grad = seed if loss.grad is None else loss.grad + seed
    for out, inputs, bwd in reversed(tape._nodes):
        dout = out.grad
        if dout is None:
            continue  # not reachable from the loss
        grads = bwd(dout)
        out.grad = None
        taken = False  # whether an input already holds a view of dout
        for t, g in zip(inputs, grads):
            if g is None:
                continue
            if isinstance(g, tuple):
                _add_part(t, *g)
            elif t.grad is not None:
                t.grad += g
            else:
                g = np.asarray(g, t.data.dtype)  # g itself when it is an array of that dtype
                if np.may_share_memory(g, dout):
                    g = g.copy() if taken else g
                    taken = True
                t.grad = g


def _add_part(t: Tensor, key, values: np.ndarray) -> None:
    """Add the part ``(key, values)``, zeros with ``values`` at ``[key]``, into ``t.grad``.

    A basic-slice key is assigned into a new gradient and added in place
    into an existing one. An index-array key, rows ``idx`` or elements
    ``(rows, cols)`` over the first two axes (index arrays of one shape),
    adds by ``_scatter_add``, which sums repeated indices in index order;
    into an existing gradient it goes through a zero temporary, so each
    element still gets one sum of the part's contributions added to it.
    """
    if isinstance(key, tuple) and isinstance(key[0], slice):  # index-array keys hold no slice
        if t.grad is None:
            t.grad = np.zeros_like(t.data)
            t.grad[key] = values
        else:
            t.grad[key] += values
        return
    part = np.zeros(t.data.shape, t.data.dtype)  # C order, whatever the layout of t.data
    rows, cols = key if isinstance(key, tuple) else (key, None)
    _scatter_add(part, rows, values, cols)
    if t.grad is None:
        t.grad = part
    else:
        t.grad += part


def _scatter_add(out: np.ndarray, idx: np.ndarray, values: np.ndarray, cols: np.ndarray | None = None) -> None:
    """Add the rows of ``values`` into the rows ``idx`` of C-contiguous ``out`` in index order, as
    ``np.add.at(out, idx, values)`` does; a 1-D ``out`` has rows of one value. With ``cols``, index
    arrays of one shape, the rows are those of ``out``'s first two axes merged, and ``values`` are
    added at the elements ``(idx, cols)`` as ``np.add.at(out, (idx, cols), values)`` adds. The
    indices are in range.

    ``values`` must have the shape of the indices followed by that of a row: nothing is broadcast.
    """
    axes, n = (1, 1) if cols is None else (2, out.shape[1])
    if not out.flags.c_contiguous:
        raise ValueError("scatter-add needs a C-contiguous output")
    if values.shape != idx.shape + out.shape[axes:] or cols is not None and cols.shape != idx.shape:
        raise ShapeError(f"scatter-add of values {values.shape} at indices {idx.shape} into {out.shape}")
    _scan_kernel("scatter_add", out.dtype)(idx.size, math.prod(out.shape[axes:]), n, np.ascontiguousarray(idx, np.intp),
                                           None if cols is None else np.ascontiguousarray(cols, np.intp),
                                           np.ascontiguousarray(values, out.dtype), out)


# ---------------------------------------------------------------------------
# Constructors
# ---------------------------------------------------------------------------


def tensor(data, requires_grad: bool = False) -> Tensor:
    return Tensor(data, requires_grad=requires_grad)


def zeros(shape, requires_grad: bool = False) -> Tensor:
    return Tensor(np.zeros(shape, np.float32), requires_grad=requires_grad)


def ones(shape, requires_grad: bool = False) -> Tensor:
    return Tensor(np.ones(shape, np.float32), requires_grad=requires_grad)


def randn(shape, rng: np.random.Generator, std: float = 1.0, requires_grad: bool = False) -> Tensor:
    return Tensor(rng.standard_normal(shape).astype(np.float32) * np.float32(std),
                  requires_grad=requires_grad)


# ---------------------------------------------------------------------------
# Broadcasting helper
# ---------------------------------------------------------------------------


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum ``grad`` down to ``shape`` (inverse of numpy broadcasting)."""
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    for ax, n in enumerate(shape):
        if n == 1 and grad.shape[ax] != 1:
            grad = grad.sum(axis=ax, keepdims=True)
    return grad


# ---------------------------------------------------------------------------
# Core ops
# ---------------------------------------------------------------------------


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """2-D matrix product with fixed summation order.

    Backward: dA = dC @ B^T, dB = A^T @ dC.
    """
    out = matmul_exact(a.data, b.data)

    def bwd(dout):
        da = matmul_exact(dout, b.data.T) if a.requires_grad else None
        db = matmul_exact(a.data.T, dout) if b.requires_grad else None
        return da, db

    return _make(out, (a, b), bwd)


def add(a: Tensor, b: Tensor) -> Tensor:
    out = a.data + b.data

    def bwd(dout):
        return (_unbroadcast(dout, a.shape) if a.requires_grad else None,
                _unbroadcast(dout, b.shape) if b.requires_grad else None)

    return _make(out, (a, b), bwd)


def sub(a: Tensor, b: Tensor) -> Tensor:
    out = a.data - b.data

    def bwd(dout):
        return (_unbroadcast(dout, a.shape) if a.requires_grad else None,
                _unbroadcast(-dout, b.shape) if b.requires_grad else None)

    return _make(out, (a, b), bwd)


def mul(a: Tensor, b: Tensor) -> Tensor:
    out = a.data * b.data

    def bwd(dout):
        return (_unbroadcast(dout * b.data, a.shape) if a.requires_grad else None,
                _unbroadcast(dout * a.data, b.shape) if b.requires_grad else None)

    return _make(out, (a, b), bwd)


def scale(a: Tensor, c: float) -> Tensor:
    cc = a.data.dtype.type(c)

    def bwd(dout):
        return (dout * cc,)

    return _make(a.data * cc, (a,), bwd)


def _sigmoid(z: np.ndarray, silu: bool = False) -> tuple[np.ndarray, np.ndarray | None]:
    """numpy's ``1 / (1 + exp(-z))`` in z's dtype and, with ``silu``, ``z`` times it (else None), both
    C-contiguous. numpy's exp runs on a C-ordered -z, and one C pass (``sigmoid`` in _SCAN_SOURCE) writes
    the sigmoid and the product, the latter over -z: -(-z) is z bit for bit, so a view of z is read once."""
    nz = np.negative(z, out=np.empty(z.shape, z.dtype))
    s = np.exp(nz, out=np.empty_like(nz) if silu else nz)
    y = nz if silu else None
    _scan_kernel("sigmoid", z.dtype)(s.size, s, y)
    return s, y


def sigmoid(x: Tensor) -> Tensor:
    s = _sigmoid(x.data)[0]

    def bwd(dout):
        return (dout * s * (1.0 - s),)

    return _make(s, (x,), bwd)


def silu(x: Tensor) -> Tensor:
    """x * sigmoid(x). Runs in C around numpy's exp (``_sigmoid``, ``silu_bwd`` in _SCAN_SOURCE) with the bits of
    the numpy body ``s = 1 / (1 + exp(-x))``, ``x * s`` and of its gradient ``dout * (s + x * s * (1 - s))``,
    whose ``x * s`` is the output; a ``dout`` wider than x multiplies that factor in its own dtype."""
    s, out = _sigmoid(x.data, silu=True)

    def bwd(dout):
        wide = np.result_type(dout, s) != s.dtype
        dx = np.empty(s.shape, s.dtype)
        _scan_kernel("silu_bwd", s.dtype)(s.size, s, out, None if wide else np.ascontiguousarray(dout, s.dtype), dx)
        return (dout * dx if wide else dx,)

    return _make(out, (x,), bwd)


def exp(x: Tensor) -> Tensor:
    out = np.exp(x.data)

    def bwd(dout):
        return (dout * out,)

    return _make(out, (x,), bwd)


def softplus(x: Tensor) -> Tensor:
    """log(1 + e^x), computed without overflow for large x."""
    out = np.where(x.data > 30.0, x.data, np.log1p(np.exp(np.minimum(x.data, 30.0))))
    out = out.astype(x.data.dtype, copy=False)
    s = _sigmoid(x.data)[0]

    def bwd(dout):
        return (dout * s,)

    return _make(out, (x,), bwd)


def _softmax_rows(z: np.ndarray, causal: bool) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Softmax y over the last axis of ``z``, or the causal prefix of square ``z``, with each row's max m and sum s."""
    z = np.ascontiguousarray(z)
    y, m, s = np.empty(z.shape, z.dtype), np.empty(z.shape[:-1], z.dtype), np.empty(z.shape[:-1], z.dtype)
    _scan_kernel("softmax_shift", z.dtype)(math.prod(z.shape[:-1]), z.shape[-1], causal, z, y, m)
    np.exp(y, out=y)  # past a causal span m - m: 0, so a large score there cannot overflow
    _scan_kernel("softmax_norm", z.dtype)(math.prod(z.shape[:-1]), z.shape[-1], causal, y, s)
    return y, m, s


def _softmax_grad(y: np.ndarray, dout: np.ndarray) -> np.ndarray:
    """The gradient of _softmax_rows' y for upstream ``dout``, in their wider dtype."""
    dtype = np.result_type(y, dout)
    ys, g = np.ascontiguousarray(y, dtype), np.ascontiguousarray(dout, dtype)
    dx = np.empty(ys.shape, dtype)
    _scan_kernel("softmax_bwd", dtype)(math.prod(ys.shape[:-1]), ys.shape[-1], ys, g, dx)
    return dx


def softmax(x: Tensor) -> Tensor:
    """Softmax over the last axis, with max subtraction; total on any finite input. Runs causal_softmax's C
    passes over whole rows, with the bits of the numpy body ``e = exp(x - x.max(-1))``, ``y = e / e.sum(-1)``
    and of its gradient ``y * (dout - (dout * y).sum(-1))`` on C-contiguous arrays."""
    if not np.isfinite(x.data).all():
        raise NumericInputError("softmax requires finite inputs")
    y = _softmax_rows(x.data, causal=False)[0]

    def bwd(dout):
        return (_softmax_grad(y, dout),)

    return _make(y, (x,), bwd)


def rms_norm(x: Tensor, weight: Tensor, eps: float = 1e-6) -> Tensor:
    """x / sqrt(mean(x^2) + eps) * weight over the trailing axis.

    Runs in C (``rms_fwd``/``rms_bwd`` in _SCAN_SOURCE) in the wider dtype
    of ``x`` and ``weight``, with the bits of the numpy expression
    ``r = 1 / sqrt(mean(x**2) + eps); x * r * weight`` and of its gradients
    ``dx = dout w r - x r**3 sum(dout w x) / d`` and ``dw = sum(dout x r)``
    down the rows, all evaluated in that dtype. ``r ** 3`` is numpy's, on the
    column of ``r``: its power function rounds neither as ``powf`` nor as
    ``r * r * r``. So a float32 ``x`` with a float64 ``weight`` is normalised
    as ``x`` cast to float64, mean and ``r`` included, not with a float32 ``r``
    as numpy's own type promotion of that expression would give; the
    gradient for ``x`` is then rounded to float32.
    """
    if not x.shape or weight.shape != x.shape[-1:]:
        raise ShapeError(f"rms_norm needs a weight of the trailing dim of x, got x {x.shape} and weight {weight.shape}")
    d = x.shape[-1]
    dtype = np.result_type(x.data, weight.data)
    xs, w = np.ascontiguousarray(x.data, dtype), np.ascontiguousarray(weight.data, dtype)
    rows = math.prod(x.shape[:-1])
    r, out = np.empty(x.shape[:-1] + (1,), dtype), np.empty(x.shape, dtype)
    _scan_kernel("rms_fwd", dtype)(rows, d, eps, xs, w, r, out)

    def bwd(dout):
        g, r3 = np.ascontiguousarray(dout, dtype), r ** 3
        dx, dw = np.empty_like(out), np.empty(d, dtype)
        _scan_kernel("rms_bwd", dtype)(rows, d, xs, w, r, r3, g, dx, dw)
        return dx if x.requires_grad else None, dw if weight.requires_grad else None

    return _make(out, (x, weight), bwd)


def cross_entropy(logits: Tensor, targets: np.ndarray) -> Tensor:
    """Mean negative log-softmax of the target entries. Targets: int ids [T]. Runs softmax's C passes,
    with the bits of the numpy body ``m = z.max(1)``, ``e = exp(z - m)``, ``s = e.sum(1)``, loss ``-((z - m) -
    log(s))[rows, targets].mean()`` and gradient ``(e / s - onehot) * (dout / T)`` on C-contiguous logits."""
    targets = np.asarray(targets)
    if logits.data.ndim != 2 or not logits.shape[0] or targets.shape != logits.shape[:1]:
        raise ShapeError(f"cross_entropy needs [T, vocab] logits with T > 0 and [T] targets, "
                         f"got {logits.shape} and {targets.shape}")
    t, v = logits.shape
    targets = _checked_index("cross_entropy", targets, v)
    y, m, s = _softmax_rows(logits.data, causal=False)
    rows = np.arange(t)
    out = np.asarray(-((logits.data[rows, targets] - m) - np.log(s)).mean(), dtype=y.dtype)

    def bwd(dout):
        p = y.copy()  # y stays as it is for a second backward over the tape
        p[rows, targets] -= 1.0
        return (p * (dout / t),)

    return _make(out, (logits,), bwd)


def embedding(weight: Tensor, ids: np.ndarray) -> Tensor:
    """Row gather: out[t] = weight[ids[t]]; ids outside the vocabulary raise TokenIndexError."""
    return take_rows(weight, ids)


# ---------------------------------------------------------------------------
# Shape / indexing ops
# ---------------------------------------------------------------------------


def reshape(x: Tensor, shape) -> Tensor:
    def bwd(dout):
        return (dout.reshape(x.shape),)

    return _make(x.data.reshape(shape), (x,), bwd)


def transpose2d(x: Tensor) -> Tensor:
    if x.data.ndim != 2:
        raise ShapeError(f"transpose2d needs a matrix, got shape {x.shape}")

    def bwd(dout):
        return (dout.T,)

    return _make(x.data.T, (x,), bwd)


def slice_cols(x: Tensor, start: int, stop: int) -> Tensor:
    """Columns [start, stop) of a matrix."""
    if x.data.ndim != 2:
        raise ShapeError(f"slice_cols needs a matrix, got shape {x.shape}")
    out = x.data[:, start:stop]

    def bwd(dout):
        return ((np.s_[:, start:stop], dout),)

    return _make(out, (x,), bwd)


def concat_cols(parts: Sequence[Tensor]) -> Tensor:
    if not parts or any(p.data.ndim != 2 or p.shape[0] != parts[0].shape[0] for p in parts):
        raise ShapeError(f"concat_cols needs matrices with one row count, got {[p.shape for p in parts]}")
    widths = [p.shape[1] for p in parts]
    out = np.concatenate([p.data for p in parts], axis=1)
    offsets = np.cumsum([0] + widths)

    def bwd(dout):
        return tuple(
            dout[:, offsets[i] : offsets[i + 1]] if p.requires_grad else None
            for i, p in enumerate(parts)
        )

    return _make(out, tuple(parts), bwd)


def _checked_index(op: str, idx, size: int) -> np.ndarray:
    """``idx`` as an array, or TokenIndexError if any entry is outside [0, size)
    or it is not an integer array (a boolean mask included).

    numpy would wrap a negative index to the end of the axis and raise a bare
    IndexError past it.
    """
    idx = np.asarray(idx)
    if idx.dtype.kind not in "iu":
        raise TokenIndexError(f"{op}: indices must be integers, got {idx.dtype}")
    if idx.size and (idx.min() < 0 or idx.max() >= size):
        raise TokenIndexError(f"{op}: indices span [{idx.min()}, {idx.max()}], outside an axis of size {size}")
    return idx


def take_rows(x: Tensor, idx: np.ndarray) -> Tensor:
    idx = _checked_index("take_rows", idx, x.shape[0])
    out = x.data[idx]

    def bwd(dout):
        return ((idx, dout),)

    return _make(out, (x,), bwd)


def scatter_rows(vals: Tensor, idx: np.ndarray, num_rows: int) -> Tensor:
    """Rows of ``vals`` added into a zero [num_rows, d] matrix at ``idx``."""
    if vals.data.ndim != 2:
        raise ShapeError(f"scatter_rows needs a matrix of rows, got shape {vals.shape}")
    idx = _checked_index("scatter_rows", idx, num_rows)
    out = np.zeros((num_rows, vals.shape[1]), dtype=vals.data.dtype)
    _scatter_add(out, idx, vals.data)

    def bwd(dout):
        return (dout[idx],)

    return _make(out, (vals,), bwd)


def gather_cols(x: Tensor, idx: np.ndarray) -> Tensor:
    """out[t, k] = x[t, idx[t, k]] for per-row column indices."""
    return take_elems(x, np.arange(x.shape[0])[:, None], idx)


def take_elems(x: Tensor, rows: np.ndarray, cols: np.ndarray) -> Tensor:
    """Element gather out[...] = x[rows[...], cols[...]] over the broadcast index arrays."""
    if x.data.ndim < 2:
        raise ShapeError(f"take_elems indexes two axes, got shape {x.shape}")
    rows = _checked_index("take_elems rows", rows, x.shape[0])
    cols = _checked_index("take_elems cols", cols, x.shape[1])
    out = x.data[rows, cols]
    if rows.shape != cols.shape:  # the backward's scatter-add takes one row and one column per element
        rows, cols = (np.ascontiguousarray(a) for a in np.broadcast_arrays(rows, cols))

    def bwd(dout):
        return (((rows, cols), dout),)

    return _make(out, (x,), bwd)


# ---------------------------------------------------------------------------
# Sequence ops (attention mask, depthwise conv, state-space scan)
# ---------------------------------------------------------------------------


def causal_softmax(scores: Tensor) -> Tensor:
    """Row-wise softmax over the causal prefix: row t spans columns 0..t.

    Entries above the diagonal are exactly zero in the output and receive
    zero gradient, so no -inf sentinel ever enters the arithmetic. Runs in C
    (``softmax_shift`` and ``softmax_norm`` around numpy's exp, and
    ``softmax_bwd``, in _SCAN_SOURCE) with the bits of the numpy body
    ``m = where(mask, z, -inf).max(axis=1)``, ``e = exp(where(mask, z, m) - m)
    * mask``, ``y = e / e.sum(axis=1)`` in the scores' dtype, and of its
    gradient ``y * (dout - (dout * y).sum(axis=1))`` in the wider dtype of
    ``dout`` and ``y``.
    """
    t = scores.shape[0]
    if scores.shape != (t, t):
        raise ShapeError(f"causal_softmax needs square scores, got {scores.shape}")
    y = _softmax_rows(scores.data, causal=True)[0]

    def bwd(dout):
        return (_softmax_grad(y, dout),)

    return _make(y, (scores,), bwd)


def causal_conv1d(x: Tensor, w: Tensor, bias: Tensor) -> Tensor:
    """Depthwise causal convolution along the time axis.

    x: [T, C], w: [K, C], bias: [C]. Output[t, c] = bias[c] +
    sum_tau w[tau, c] * x[t - K + 1 + tau, c], zero-padded on the left.
    Runs in C (``conv_fwd``/``conv_bwd`` in _SCAN_SOURCE) with the bits of
    numpy adding bias and then each tau's products over the padded input.
    """
    if x.data.ndim != 2 or w.data.ndim != 2 or w.shape[1] != x.shape[1] or bias.shape != x.shape[1:]:
        raise ShapeError(f"conv needs x [T, C], w [K, C] and bias [C], got {x.shape}, {w.shape} and {bias.shape}")
    (t, c), k = x.shape, w.shape[0]
    dtype = np.result_type(x.data, w.data, bias.data)
    xs, ws, b = (np.ascontiguousarray(v.data, dtype) for v in (x, w, bias))
    out = np.empty((t, c), dtype)
    _scan_kernel("conv_fwd", dtype)(t, c, k, xs, ws, b, out)

    def bwd(dout):
        g = np.ascontiguousarray(dout, dtype)
        dx, dw, db = np.empty_like(out), np.empty_like(ws), np.empty(c, dtype)
        _scan_kernel("conv_bwd", dtype)(t, c, k, xs, ws, g, dx, dw, db)
        return (dx if x.requires_grad else None, dw.astype(w.data.dtype, copy=False) if w.requires_grad else None,
                db if bias.requires_grad else None)

    return _make(out, (x, w, bias), bwd)


# mamba_scan runs the recurrence step by step in the C source _SCAN_SOURCE,
# built by _load_library like the GEMM. On one core the plain recurrence
# does less work than the chunked SSD form of Dao & Gu (arXiv 2405.21060),
# whose point is to turn it into matmuls for tensor cores. Backward keeps no
# state per step: as in Mamba's scan (Gu & Dao, arXiv 2312.00752, section
# 3.3), the forward saves the state entering every _SCAN_CHUNK-th step and
# the backward walks those segments in reverse, recomputing each segment's
# states. The lanes of the state are independent except in the sums for
# db and dc, so the backward runs a segment one block of LP lanes at a
# time, and the block's (_SCAN_CHUNK + 1) x N recomputed state vectors, 35 KB
# at N = 32, stay in the L1 cache. On an AVX-512 Xeon with a 48 KB L1 data
# cache, a checkpoint every 16 steps measured faster than every 8 or 32.
#
# Kernel contract. The state is held as [N, MP]: row n, lane j = h * P + p
# for the M = H * P lanes, then zero lanes up to MP, the next multiple of
# _SCAN_LANES (LP in the source), so every inner loop runs over whole
# vectors of contiguous lanes: 64 in the long stack, 512 in the wide one.
# numpy computes decay = exp(dt * a) as [T, H], so the source needs no libm;
# every other array is C-contiguous in the scan's dtype, float32 or float64,
# and one source text serves both. scan_fwd writes y and leaves the final
# state in `state`, with the state entering step s * seg in ckpt[s]. scan_bwd
# takes the upstream gradient g [T, H, P] and writes dx, db and dc, dd, and
# per (t, h) the sums ex = sum_p e x and dq = sum_(p,n) dh_t s_(t-1), where e =
# sum_n dh_t b_t is the gradient of dt x; numpy turns dq into the gradients of
# dt and a. A sum over the lanes (db, dc) adds each block's LP lanes by a
# fixed tree and then the blocks in increasing order; sums over N run in
# increasing n. The order is thus the same at every level, and the loops
# vectorize without reassociating. Python passes every
# scratch buffer.
#
# The same template holds the kernels of rms_norm, causal_conv1d, the three
# softmaxes, the sigmoid of sigmoid, silu and softplus, silu's gradient and the
# index scatter-add (_scatter_add). Each gives the bits of the numpy code it
# replaced, which tests/test_tensor.py keeps as its oracle: it sums in numpy's
# orders, pairwise along a row (pairwise_SFX) and in row order down the rows,
# and computes each element in numpy's order of operations.
#
# Every exp stays numpy's, in place between two C passes where one is needed:
# _softmax_rows (softmax, cross_entropy, causal_softmax), _sigmoid (sigmoid,
# silu, softplus), exp, softplus's log1p(exp) and mamba_scan's decay. A C exp
# would not keep the bits: numpy 2.4.6's float32 exp differs from float64 exp
# rounded to float32 on 819,696 of 8,752,465 sampled inputs, by up to 2 ulp.
_SCAN_CHUNK = 16
_SCAN_LANES = 16
_SCAN_TYPED = r"""
typedef REAL vec_SFX __attribute__((vector_size(LP * sizeof(REAL)), aligned(sizeof(REAL))));
typedef IDX idx_SFX __attribute__((vector_size(LP * sizeof(REAL))));

/* acc[r] += the sum of the LP lanes of rows[r], for LP rows, each summed by one tree: lane l plus
   lane l + 8, then l + 4, l + 2 and l + 1. Each level packs the halved lanes of two vectors into one. */
static inline void add_sums_SFX(const vec_SFX *rows, REAL *acc)
{
    const idx_SFX lo8 = {0, 1, 2, 3, 4, 5, 6, 7, 16, 17, 18, 19, 20, 21, 22, 23};
    const idx_SFX lo4 = {0, 1, 2, 3, 8, 9, 10, 11, 16, 17, 18, 19, 24, 25, 26, 27};
    const idx_SFX lo2 = {0, 1, 4, 5, 8, 9, 12, 13, 16, 17, 20, 21, 24, 25, 28, 29};
    const idx_SFX lo1 = {0, 2, 4, 6, 8, 10, 12, 14, 16, 18, 20, 22, 24, 26, 28, 30};
    vec_SFX v8[8], v4[4], v2[2];
    for (int i = 0; i < 8; i++)
        v8[i] = __builtin_shuffle(rows[2 * i], rows[2 * i + 1], lo8) + __builtin_shuffle(rows[2 * i], rows[2 * i + 1], lo8 + 8);
    for (int i = 0; i < 4; i++)
        v4[i] = __builtin_shuffle(v8[2 * i], v8[2 * i + 1], lo4) + __builtin_shuffle(v8[2 * i], v8[2 * i + 1], lo4 + 4);
    for (int i = 0; i < 2; i++)
        v2[i] = __builtin_shuffle(v4[2 * i], v4[2 * i + 1], lo2) + __builtin_shuffle(v4[2 * i], v4[2 * i + 1], lo2 + 2);
    *(vec_SFX *)acc += __builtin_shuffle(v2[0], v2[1], lo1) + __builtin_shuffle(v2[0], v2[1], lo1 + 1);
}

/* One step's lanes j = i p + k (head i): decay dl and input ul = dt x, then zeros up to mp. */
static inline void lanes_SFX(ptrdiff_t h, ptrdiff_t p, ptrdiff_t mp, const REAL *restrict x, const REAL *restrict dt,
                             const REAL *restrict decay, REAL *restrict dl, REAL *restrict ul)
{
    for (ptrdiff_t i = 0; i < h; i++)
        for (ptrdiff_t k = 0; k < p; k++) {
            dl[i * p + k] = decay[i];
            ul[i * p + k] = dt[i] * x[i * p + k];
        }
    for (ptrdiff_t j = h * p; j < mp; j++) dl[j] = ul[j] = 0;
}

/* y [t_len, h, p] of the scan from `state` [n, mp], which ends as the final state; the state
   entering step s seg goes to ckpt[s]. Scratch: lanes 3 mp. */
EXPORT void scan_fwd_SFX(ptrdiff_t t_len, ptrdiff_t h, ptrdiff_t p, ptrdiff_t n, ptrdiff_t mp, ptrdiff_t seg,
                         const REAL *restrict x, const REAL *restrict dt, const REAL *restrict decay,
                         const REAL *restrict d, const REAL *restrict b, const REAL *restrict c,
                         REAL *restrict lanes, REAL *restrict state, REAL *restrict ckpt, REAL *restrict y)
{
    const ptrdiff_t m = h * p, nm = n * mp;
    REAL *dl = lanes, *ul = lanes + mp, *yl = lanes + 2 * mp;
    for (ptrdiff_t t = 0; t < t_len; t++) {
        if (t % seg == 0) memcpy(ckpt + t / seg * nm, state, (size_t)nm * sizeof *state);
        lanes_SFX(h, p, mp, x + t * m, dt + t * h, decay + t * h, dl, ul);
        const REAL *bt = b + t * n, *ct = c + t * n;
        for (ptrdiff_t j = 0; j < mp; j += LP) {
            const vec_SFX dv = *(const vec_SFX *)(dl + j), uv = *(const vec_SFX *)(ul + j);
            vec_SFX yv = {0};
            for (ptrdiff_t k = 0; k < n; k++) {
                vec_SFX *s = (vec_SFX *)(state + k * mp + j);
                *s = dv * *s + uv * bt[k];
                yv += *s * ct[k];
            }
            *(vec_SFX *)(yl + j) = yv;
        }
        for (ptrdiff_t i = 0; i < h; i++)
            for (ptrdiff_t k = 0; k < p; k++)
                y[t * m + i * p + k] = yl[i * p + k] + d[i] * x[t * m + i * p + k];
    }
}

/* The gradients of scan_fwd for upstream g [t_len, h, p], from its checkpoints: dx [t_len, h, p],
   ex and dq [t_len, h], dd [h], db and dc [t_len, n]. Scratch: lanes 5 seg mp, rows 2 np LP and
   sums 2 seg np (np: n rounded up to a multiple of LP), dh n mp, st (seg + 1) n LP. */
EXPORT void scan_bwd_SFX(ptrdiff_t t_len, ptrdiff_t h, ptrdiff_t p, ptrdiff_t n, ptrdiff_t mp, ptrdiff_t seg,
                         const REAL *restrict x, const REAL *restrict dt, const REAL *restrict decay,
                         const REAL *restrict d, const REAL *restrict b, const REAL *restrict c,
                         const REAL *restrict g, const REAL *restrict ckpt, REAL *restrict lanes,
                         REAL *restrict rows, REAL *restrict sums, REAL *restrict dh, REAL *restrict st,
                         REAL *restrict dx, REAL *restrict ex, REAL *restrict dq, REAL *restrict dd,
                         REAL *restrict db, REAL *restrict dc)
{
    const ptrdiff_t m = h * p, nm = n * mp, np = (n + LP - 1) / LP * LP, sm = seg * mp;
    REAL *dl = lanes, *ul = dl + sm, *gl = ul + sm, *el = gl + sm, *ql = el + sm;  /* per step of a segment */
    vec_SFX *rc = (vec_SFX *)rows, *rb = rc + np;  /* one block's lanes of the terms of dc and db */
    REAL *sc = sums, *sb = sums + seg * np;        /* dc and db over the blocks so far */
    vec_SFX *sv = (vec_SFX *)st;                   /* one block's states through the segment */
    memset(rows, 0, (size_t)(2 * np) * sizeof *rc);
    memset(dh, 0, (size_t)nm * sizeof *dh);  /* the gradient of the state after the step at hand */
    memset(dd, 0, (size_t)h * sizeof *dd);
    for (ptrdiff_t sg = (t_len + seg - 1) / seg; sg-- > 0;) {
        const ptrdiff_t t0 = sg * seg, len = t_len - t0 < seg ? t_len - t0 : seg;
        for (ptrdiff_t i = 0, t = t0; i < len; i++, t++) {
            lanes_SFX(h, p, mp, x + t * m, dt + t * h, decay + t * h, dl + i * mp, ul + i * mp);
            memcpy(gl + i * mp, g + t * m, (size_t)m * sizeof *gl);
            for (ptrdiff_t j = m; j < mp; j++) gl[i * mp + j] = 0;
        }
        memset(sums, 0, (size_t)(2 * seg * np) * sizeof *sums);
        for (ptrdiff_t j = 0; j < mp; j += LP) {
            for (ptrdiff_t k = 0; k < n; k++) sv[k] = *(const vec_SFX *)(ckpt + sg * nm + k * mp + j);
            for (ptrdiff_t i = 0; i < len; i++) {
                const vec_SFX dv = *(const vec_SFX *)(dl + i * mp + j), uv = *(const vec_SFX *)(ul + i * mp + j);
                const REAL *bt = b + (t0 + i) * n;
                for (ptrdiff_t k = 0; k < n; k++) sv[(i + 1) * n + k] = dv * sv[i * n + k] + uv * bt[k];
            }
            for (ptrdiff_t i = len; i-- > 0;) {
                const ptrdiff_t t = t0 + i;
                const REAL *bt = b + t * n, *ct = c + t * n;
                const vec_SFX *s0 = sv + i * n, *s1 = s0 + n;
                const vec_SFX gv = *(const vec_SFX *)(gl + i * mp + j), uv = *(const vec_SFX *)(ul + i * mp + j);
                const vec_SFX dv = *(const vec_SFX *)(dl + i * mp + j);
                vec_SFX ev = {0}, qv = {0};
                for (ptrdiff_t k = 0; k < n; k++) {
                    vec_SFX *dk = (vec_SFX *)(dh + k * mp + j);
                    const vec_SFX dht = *dk + gv * ct[k];  /* plus this step's output */
                    rc[k] = gv * s1[k];
                    rb[k] = dht * uv;
                    ev += dht * bt[k];
                    qv += dht * s0[k];
                    *dk = dv * dht;
                }
                *(vec_SFX *)(el + i * mp + j) = ev;
                *(vec_SFX *)(ql + i * mp + j) = qv;
                for (ptrdiff_t k = 0; k < n; k += LP) {
                    add_sums_SFX(rc + k, sc + i * np + k);
                    add_sums_SFX(rb + k, sb + i * np + k);
                }
            }
        }
        for (ptrdiff_t i = 0, t = t0; i < len; i++, t++) {
            memcpy(dc + t * n, sc + i * np, (size_t)n * sizeof *dc);
            memcpy(db + t * n, sb + i * np, (size_t)n * sizeof *db);
            const REAL *e = el + i * mp, *q = ql + i * mp, *gi = gl + i * mp;
            for (ptrdiff_t hi = 0; hi < h; hi++) {
                REAL es = 0, qs = 0, ds = 0;
                for (ptrdiff_t k = 0; k < p; k++) {
                    const ptrdiff_t j = hi * p + k;
                    dx[t * m + j] = dt[t * h + hi] * e[j] + d[hi] * gi[j];
                    es += e[j] * x[t * m + j];
                    qs += q[j];
                    ds += gi[j] * x[t * m + j];
                }
                ex[t * h + hi] = es;
                dq[t * h + hi] = qs;
                dd[hi] += ds;
            }
        }
    }
}

/* numpy's pairwise sum of a[0:n] (np.add.reduce over a contiguous axis): a block of up to 128 values
   goes to 8 partial sums, added as ((r0 + r1) + (r2 + r3)) + ((r4 + r5) + (r6 + r7)), then the values
   past the last multiple of 8 one by one; fewer than 8 values are added one by one from -0. A longer
   span splits at n / 2 rounded down to a multiple of 8 and adds its halves' sums. The recursion runs
   on an explicit stack of split spans: the start and end of the right half, which is -1 once the left
   half's sum is in `left`. */
static inline REAL pairwise_block_SFX(const REAL *a, ptrdiff_t n)
{
    REAL res = -0.0;
    ptrdiff_t i = 0;
    if (n >= 8) {
        REAL r[8];
        for (int k = 0; k < 8; k++) r[k] = a[k];
        for (i = 8; i < n - n % 8; i += 8)
            for (int k = 0; k < 8; k++) r[k] += a[i + k];
        res = ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7]));
    }
    for (; i < n; i++) res += a[i];
    return res;
}

static inline REAL pairwise_SFX(const REAL *a, ptrdiff_t n)
{
    ptrdiff_t mid[64], hi[64], lo = 0, end = n;
    REAL left[64];
    int sp = 0;
    for (;;) {
        while (end - lo > 128) {
            const ptrdiff_t half = (end - lo) / 2 - (end - lo) / 2 % 8;
            mid[sp] = lo + half, hi[sp++] = end;
            end = lo + half;
        }
        REAL s = pairwise_block_SFX(a + lo, end - lo);
        while (sp > 0 && mid[sp - 1] < 0) s = left[--sp] + s;
        if (sp == 0) return s;
        left[sp - 1] = s, lo = mid[sp - 1], end = hi[sp - 1], mid[sp - 1] = -1;
    }
}

/* rms_norm over rows of d: r[i] = 1 / sqrt(mean(x_i^2) + eps) and out_i = x_i r[i] w. The mean is
   numpy's: +0 plus the pairwise sum of the squares, divided by d in double and rounded. */
EXPORT void rms_fwd_SFX(ptrdiff_t rows, ptrdiff_t d, double eps, const REAL *restrict x, const REAL *restrict w,
                        REAL *restrict r, REAL *restrict out)
{
    for (ptrdiff_t i = 0; i < rows; i++) {
        const REAL *xi = x + i * d;
        REAL *oi = out + i * d;
        for (ptrdiff_t j = 0; j < d; j++) oi[j] = xi[j] * xi[j];
        const REAL ms = (REAL)((double)((REAL)0 + pairwise_SFX(oi, d)) / (double)d);
        const REAL ri = 1 / SQRT(ms + (REAL)eps);
        r[i] = ri;
        for (ptrdiff_t j = 0; j < d; j++) oi[j] = xi[j] * ri * w[j];
    }
}

/* The gradients of rms_fwd for upstream g, given r and r3 = r^3 per row: dx = g w r - x r3 inner / d
   with inner = +0 plus the pairwise sum of g w x over the row, and dw = the sum of g x r down the rows,
   in row order from +0 or, when d is 1 and so the column is contiguous, pairwise. */
EXPORT void rms_bwd_SFX(ptrdiff_t rows, ptrdiff_t d, const REAL *restrict x, const REAL *restrict w,
                        const REAL *restrict r, const REAL *restrict r3, const REAL *restrict g,
                        REAL *restrict dx, REAL *restrict dw)
{
    const REAL dd = (REAL)d;
    if (d == 1) {
        for (ptrdiff_t i = 0; i < rows; i++) dx[i] = g[i] * (x[i] * r[i]);  /* dx is scratch here */
        dw[0] = (REAL)0 + pairwise_SFX(dx, rows);
    } else {
        for (ptrdiff_t j = 0; j < d; j++) dw[j] = 0;
        for (ptrdiff_t i = 0; i < rows; i++)
            for (ptrdiff_t j = 0; j < d; j++) dw[j] += g[i * d + j] * (x[i * d + j] * r[i]);
    }
    for (ptrdiff_t i = 0; i < rows; i++) {
        const REAL *xi = x + i * d, *gi = g + i * d;
        REAL *di = dx + i * d;
        for (ptrdiff_t j = 0; j < d; j++) di[j] = gi[j] * w[j] * xi[j];
        const REAL inner = (REAL)0 + pairwise_SFX(di, d), ri = r[i], r3i = r3[i];
        for (ptrdiff_t j = 0; j < d; j++) di[j] = gi[j] * w[j] * ri - xi[j] * r3i * inner / dd;
    }
}

/* Depthwise causal conv of x [t, c] by w [k, c]: out[u] = b + w[0] xp[u] + ... + w[k - 1] xp[u + k - 1]
   in that order, where xp is x after k - 1 zero rows. The zero rows' products are added too, so a
   -0 bias or an infinite weight gives numpy's bits. */
EXPORT void conv_fwd_SFX(ptrdiff_t t, ptrdiff_t c, ptrdiff_t k, const REAL *restrict x, const REAL *restrict w,
                         const REAL *restrict b, REAL *restrict out)
{
    const REAL zero = 0;
    for (ptrdiff_t u = 0; u < t; u++) {
        REAL *o = out + u * c;
        for (ptrdiff_t ch = 0; ch < c; ch++) o[ch] = b[ch];
        for (ptrdiff_t tau = 0, s = u - k + 1; tau < k; tau++, s++)
            for (ptrdiff_t ch = 0; ch < c; ch++) o[ch] += w[tau * c + ch] * (s < 0 ? zero : x[s * c + ch]);
    }
}

/* The gradients of conv_fwd for upstream g [t, c]. dw[tau] sums g[v] xp[tau + v] and db sums g[v] over v
   in order from +0, or pairwise when c is 1 and so the column is contiguous; the zero rows of xp add
   their products. dx[u] adds g[v] w[tau] for v = u + k - 1 - tau in [0, t), in increasing tau from +0. */
EXPORT void conv_bwd_SFX(ptrdiff_t t, ptrdiff_t c, ptrdiff_t k, const REAL *restrict x, const REAL *restrict w,
                         const REAL *restrict g, REAL *restrict dx, REAL *restrict dw, REAL *restrict db)
{
    const REAL zero = 0;
    if (c == 1) {
        for (ptrdiff_t tau = 0; tau < k; tau++) {
            for (ptrdiff_t v = 0, s = tau - k + 1; v < t; v++, s++) dx[v] = g[v] * (s < 0 ? zero : x[s]);  /* scratch */
            dw[tau] = (REAL)0 + pairwise_SFX(dx, t);
        }
        db[0] = (REAL)0 + pairwise_SFX(g, t);
    } else {
        for (ptrdiff_t j = 0; j < k * c; j++) dw[j] = 0;
        for (ptrdiff_t ch = 0; ch < c; ch++) db[ch] = 0;
        for (ptrdiff_t v = 0; v < t; v++) {
            const REAL *gv = g + v * c;
            for (ptrdiff_t tau = 0, s = v - k + 1; tau < k; tau++, s++)
                for (ptrdiff_t ch = 0; ch < c; ch++) dw[tau * c + ch] += gv[ch] * (s < 0 ? zero : x[s * c + ch]);
            for (ptrdiff_t ch = 0; ch < c; ch++) db[ch] += gv[ch];
        }
    }
    for (ptrdiff_t u = 0; u < t; u++) {
        REAL *du = dx + u * c;
        for (ptrdiff_t ch = 0; ch < c; ch++) du[ch] = 0;
        for (ptrdiff_t tau = u + k - t > 0 ? u + k - t : 0; tau < k; tau++) {
            const REAL *gv = g + (u + k - 1 - tau) * c, *wt = w + tau * c;
            for (ptrdiff_t ch = 0; ch < c; ch++) du[ch] += gv[ch] * wt[ch];
        }
    }
}

/* numpy's sigmoid 1 / (1 + e) of n values, in place over e = exp(-x); with nx = -x, also silu's x times it, in
   place over nx. */
EXPORT void sigmoid_SFX(ptrdiff_t n, REAL *restrict e, REAL *restrict nx)
{
    for (ptrdiff_t i = 0; i < n; i++) {
        e[i] = 1 / (1 + e[i]);
        if (nx) nx[i] = -nx[i] * e[i];
    }
}

/* silu's gradient g (s + y (1 - s)) for upstream g, its sigmoid s and its output y = x s, which is numpy's
   ((x s) (1 - s)); with g NULL, the factor s + y (1 - s) alone. */
EXPORT void silu_bwd_SFX(ptrdiff_t n, const REAL *restrict s, const REAL *restrict y, const REAL *restrict g,
                         REAL *restrict dx)
{
    for (ptrdiff_t i = 0; i < n; i++) {
        const REAL f = s[i] + y[i] * (1 - s[i]);
        dx[i] = g ? g[i] * f : f;
    }
}

/* The softmax of each row i of z [rows, cols] over its span, the whole row or (causal) columns 0..i, around
   numpy's exp. The span's max m[i] is NaN if any entry of it is, and a zero max takes the sign of the span's
   first zero, as a scan in column order gives. A span of LP or more runs its whole vectors on LP lanes, each
   with its own NaN flag, and halves the lanes four times to one; its last columns, or a shorter span, then go
   through one scalar max in column order. softmax_shift writes e = z - m in the span and m - m past it; after
   e = exp(e), softmax_norm multiplies the entries past the span by 0 (those in it by 1, which changes no bit),
   writes the row sum s[i], +0 plus its pairwise sum, and divides the row by it. */
static inline void max_into_SFX(vec_SFX *acc, const vec_SFX *v)
{
    const idx_SFX gt = (idx_SFX)(*v > *acc);  /* false where *v is NaN */
    *acc = (vec_SFX)(((idx_SFX)*v & gt) | ((idx_SFX)*acc & ~gt));
}

EXPORT void softmax_shift_SFX(ptrdiff_t rows, ptrdiff_t cols, int causal, const REAL *restrict z, REAL *restrict e,
                              REAL *restrict m)
{
    const idx_SFX half[4] = {{8, 9, 10, 11, 12, 13, 14, 15, 8, 9, 10, 11, 12, 13, 14, 15},
                             {4, 5, 6, 7, 4, 5, 6, 7, 4, 5, 6, 7, 4, 5, 6, 7},
                             {2, 3, 2, 3, 2, 3, 2, 3, 2, 3, 2, 3, 2, 3, 2, 3},
                             {1, 0, 1, 0, 1, 0, 1, 0, 1, 0, 1, 0, 1, 0, 1, 0}};
    for (ptrdiff_t i = 0; i < rows; i++) {
        const ptrdiff_t span = causal && i + 1 < cols ? i + 1 : cols;
        const REAL *zi = z + i * cols;
        REAL *ei = e + i * cols, mi = -(REAL)__builtin_inf();
        ptrdiff_t j = 0;
        int nan = 0;
        if (span >= LP) {
            vec_SFX mv = (vec_SFX){0} + mi;
            idx_SFX nv = {0};
            for (; j + LP <= span; j += LP) {
                const vec_SFX v = *(const vec_SFX *)(zi + j);
                max_into_SFX(&mv, &v);
                nv |= (idx_SFX)(v != v);
            }
            for (int k = 0; k < 4; k++) {
                const vec_SFX w = __builtin_shuffle(mv, half[k]);
                max_into_SFX(&mv, &w);
                nv |= __builtin_shuffle(nv, half[k]);
            }
            mi = mv[0], nan = nv[0] != 0;
        }
        for (; j < span; j++) {
            mi = zi[j] > mi ? zi[j] : mi;
            nan |= zi[j] != zi[j];
        }
        if (__builtin_expect(nan, 0))  /* both rare: laid out off the path of a short row, such as the router's */
            mi = (REAL)__builtin_nan("");
        else if (__builtin_expect(mi == 0, 0)) {
            for (j = 0; zi[j] != 0;) j++;
            mi = zi[j];
        }
        for (ptrdiff_t j = 0; j < span; j++) ei[j] = zi[j] - mi;
        for (ptrdiff_t j = span; j < cols; j++) ei[j] = mi - mi;
        m[i] = mi;
    }
}

EXPORT void softmax_norm_SFX(ptrdiff_t rows, ptrdiff_t cols, int causal, REAL *restrict e, REAL *restrict s)
{
    for (ptrdiff_t i = 0; i < rows; i++) {
        REAL *ei = e + i * cols;
        for (ptrdiff_t j = causal ? i + 1 : cols; j < cols; j++) ei[j] *= 0;
        const REAL si = (REAL)0 + pairwise_SFX(ei, cols);
        for (ptrdiff_t j = 0; j < cols; j++) ei[j] /= si;
        s[i] = si;
    }
}

/* The gradient of a softmax's output y [rows, cols] for upstream g: y (g - inner) with inner = +0 plus the
   pairwise sum of g y over the whole row, past any span too. */
EXPORT void softmax_bwd_SFX(ptrdiff_t rows, ptrdiff_t cols, const REAL *restrict y, const REAL *restrict g,
                            REAL *restrict dx)
{
    for (ptrdiff_t i = 0; i < rows; i++) {
        const REAL *yi = y + i * cols, *gi = g + i * cols;
        REAL *di = dx + i * cols;
        for (ptrdiff_t j = 0; j < cols; j++) di[j] = gi[j] * yi[j];
        const REAL inner = (REAL)0 + pairwise_SFX(di, cols);
        for (ptrdiff_t j = 0; j < cols; j++) di[j] = yi[j] * (gi[j] - inner);
    }
}

/* out[r d + j] += vals[i d + j] for i in increasing order, as np.add.at adds, at row r = idx[i] n + cols[i],
   or idx[i] n when cols is NULL. */
EXPORT void scatter_add_SFX(ptrdiff_t count, ptrdiff_t d, ptrdiff_t n, const ptrdiff_t *restrict idx,
                            const ptrdiff_t *restrict cols, const REAL *restrict vals, REAL *restrict out)
{
    for (ptrdiff_t i = 0; i < count; i++) {
        REAL *o = out + (idx[i] * n + (cols ? cols[i] : 0)) * d;
        const REAL *v = vals + i * d;
        for (ptrdiff_t j = 0; j < d; j++) o[j] += v[j];
    }
}
"""
_SCAN_SOURCE = r"""
#include <string.h>

enum { LP = 16 };  /* lanes per vector and lane partials per sum, as _SCAN_LANES */
""" + "".join(_SCAN_TYPED.replace("REAL", real).replace("IDX", idx).replace("SFX", sfx).replace("SQRT", sqrt)
              for real, idx, sfx, sqrt in (("float", "int", "f32", "__builtin_sqrtf"),
                                           ("double", "long long", "f64", "__builtin_sqrt")))
_SCAN_LIBRARY = _load_library(_cache_dirs(), _SCAN_SOURCE)
_SCAN_SUFFIX = {np.dtype(np.float32): "_f32", np.dtype(np.float64): "_f64"}  # SFX of each instance


def _scan_kernel(name: str, dtype: np.dtype):
    return getattr(_SCAN_LIBRARY, name + _SCAN_SUFFIX[dtype])


def _aligned(shape, dtype) -> np.ndarray:
    """An uninitialised C-contiguous array whose data starts on a 64-byte boundary.

    On the 16-byte alignment numpy gives, the scan's 64-byte vector loads
    and stores split across two cache lines; its backward ran about a fifth
    slower so on an AVX-512 Xeon.
    """
    size, item = int(np.prod(shape)), np.dtype(dtype).itemsize
    buf = np.empty(size + 64 // item, dtype)
    start = -buf.__array_interface__["data"][0] % 64 // item
    return buf[start:start + size].reshape(shape)


def mamba_scan(
    x: Tensor,
    dt: Tensor,
    a_coef: Tensor,
    b_in: Tensor,
    c_out: Tensor,
    d_skip: Tensor,
    h0: np.ndarray | None = None,
) -> tuple[Tensor, np.ndarray]:
    """Selective-state-space scan with per-head scalar decay, step by step in C.

    Shapes: x [T, H, P], dt [T, H], a_coef [H] (negative), b_in [T, N],
    c_out [T, N], d_skip [H]. Per step t and head h it computes

        decay_t = exp(dt[t,h] * a[h])                      in (0, 1)
        state   = decay_t * state + dt[t,h] * (x_t outer b_t)
        y[t,h,p] = sum_n c_t[n] * state[h,p,n] + d_skip[h] * x[t,h,p]

    Backward recomputes the states from checkpoints taken every
    ``_SCAN_CHUNK`` steps instead of keeping one per step.

    Contract: not bit-exact. The kernel's sums over the state and the lanes
    have their own fixed order, and the fixed-order ``matmul_exact``
    contract covers the linear layers' GEMMs, not the scan. Results differ
    from the recurrence run another way in the last bits, and tests compare
    them with the recurrence run in float64. Repeated calls on the same
    inputs give the same bits.

    Returns the output [T, H, P] and the final state [H, P, N] as a plain
    array (states are inference bookkeeping, not differentiated through).
    ``h0``, when given, is the initial state [H, P, N].
    """
    if x.data.ndim != 3 or b_in.data.ndim != 2:
        raise ShapeError(f"mamba_scan needs x [T, H, P] and b_in [T, N], got {x.shape} and {b_in.shape}")
    (t_len, h, p), n = x.shape, b_in.shape[1]
    names = ("dt", "a_coef", "b_in", "c_out", "d_skip", "h0")
    got = (dt.shape, a_coef.shape, b_in.shape, c_out.shape, d_skip.shape, (h, p, n) if h0 is None else np.shape(h0))
    want = ((t_len, h), (h,), (t_len, n), (t_len, n), (h,), (h, p, n))
    bad = [f"{k} {g} (want {w})" for k, g, w in zip(names, got, want) if g != w]
    if bad:
        raise ShapeError(f"mamba_scan shapes for x {x.shape}: " + ", ".join(bad))
    dtype = np.result_type(x.data, dt.data, a_coef.data, b_in.data, c_out.data, d_skip.data)
    # the stack passes b_in, c_out and dt as column slices of one projection
    xs, dts, a, bs, cs, d = (np.ascontiguousarray(v.data, dtype) for v in (x, dt, a_coef, b_in, c_out, d_skip))
    seg, m, lp = _SCAN_CHUNK, h * p, _SCAN_LANES
    mp = -(-m // lp) * lp
    decay = np.exp(dts * a)
    state = _aligned((n, mp), dtype)
    state[...] = 0
    if h0 is not None:
        state[:, :m] = np.asarray(h0, dtype).reshape(m, n).T
    ckpt = _aligned((-(-t_len // seg), n, mp), dtype)
    y = np.empty((t_len, h, p), dtype)
    lanes = _aligned(3 * mp, dtype)
    _scan_kernel("scan_fwd", dtype)(t_len, h, p, n, mp, seg, xs, dts, decay, d, bs, cs, lanes, state, ckpt, y)

    def bwd(dout):
        g = np.ascontiguousarray(dout, dtype)
        dx, ex, dq, dd = np.empty_like(y), np.empty((t_len, h), dtype), np.empty((t_len, h), dtype), np.empty(h, dtype)
        db, dc = np.empty((t_len, n), dtype), np.empty((t_len, n), dtype)
        np_ = -(-n // lp) * lp
        lanes, rows, sums = _aligned(5 * seg * mp, dtype), _aligned(2 * np_ * lp, dtype), _aligned(2 * seg * np_, dtype)
        dh, st = _aligned(n * mp, dtype), _aligned((seg + 1) * n * lp, dtype)
        _scan_kernel("scan_bwd", dtype)(t_len, h, p, n, mp, seg, xs, dts, decay, d, bs, cs, g, ckpt, lanes, rows,
                                        sums, dh, st, dx, ex, dq, dd, db, dc)
        dexp = dq * decay  # the gradient of the exponent dt * a
        return dx, ex + a * dexp, (dexp * dts).sum(axis=0), db, dc, dd

    out = _make(y, (x, dt, a_coef, b_in, c_out, d_skip), bwd)
    return out, np.ascontiguousarray(state[:, :m].T.reshape(h, p, n))

