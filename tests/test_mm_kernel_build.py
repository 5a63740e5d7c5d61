"""Build and load checks for the compiled kernels: the exact GEMM, the
Mamba scan and the quantizers' encode/decode, each built by one loader from
its C source into one library.

Each build test calls the loader directly with its own ``tmp_path`` cache,
so none depends on what the user's cache holds. Each source is built once
with its shipped clones, which checks the flags and the warnings, and once
with the clone list empty, which gives baseline x86-64 code and must give
the shipped build's bits. The tests of the loader's typing, caching,
directories and concurrency build a few-line source, which compiles in a
fraction of the time the kernels take.
"""

import json
import os
import platform
import re
import subprocess
import sys
import types
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import hybridlm.quant as Q
import hybridlm.tensor as T
import test_quant
import test_tensor
from hybridlm.errors import KernelBuildError

SRC = str(Path(T.__file__).resolve().parents[1])
SOURCES = {"mm": T._MM_SOURCE, "quant": Q._QUANT_SOURCE, "scan": T._SCAN_SOURCE}
# the module attribute that holds each source's library; every call of an entry point reads it
LIBRARIES = {"mm": (T, "_MM_LIBRARY"), "quant": (Q, "_QUANT_LIBRARY"), "scan": (T, "_SCAN_LIBRARY")}

TINY_SOURCE = "#include <stddef.h>\nCLONES int twice(ptrdiff_t v) { return (int)(2 * v); }\n"


def test_second_load_reuses_cached_library(tmp_path, monkeypatch):
    T._load_library([tmp_path], TINY_SOURCE)
    assert len(list(tmp_path.glob("*.so"))) == 1

    def no_compile(*args):
        raise AssertionError("cached library was rebuilt")

    monkeypatch.setattr(T, "_compile", no_compile)
    assert T._load_library([tmp_path], TINY_SOURCE).twice(21) == 42


TYPED_SOURCE = """#include <stddef.h>
CLONES int echo(ptrdiff_t n, int i, float f, double d, double *out)
{
    out[0] = (double)n, out[1] = i, out[2] = f, out[3] = d;
    return i + 1;
}
CLONES void negate(double *out, ptrdiff_t n) { for (ptrdiff_t i = 0; i < n; i++) out[i] = -out[i]; }
CLONES int is_null(const double *p) { return p == NULL; }
CLONES int holds_gil(int unused) { return PyGILState_Check(); }
"""


def test_loader_types_each_function_from_its_declaration(tmp_path):
    """One parameter of each type the loader maps, and both result types, reach C and come back."""
    lib = T._load_library([tmp_path], TYPED_SOURCE)
    out = np.zeros(4)
    assert lib.echo(2**40 + 1, -7, 0.1, 0.1, out) == -6
    assert out.tolist() == [2**40 + 1, -7, float(np.float32(0.1)), 0.1]
    assert lib.negate(out, 1) is None and out[0] == -(2**40 + 1)
    assert lib.echo(np.int64(-2**63), -2**31, np.float32(2.5), 3, out) == 1 - 2**31
    assert out.tolist() == [-2**63, -2**31, 2.5, 3.0]


def test_wrappers_check_their_arguments(tmp_path):
    """A wrong argument count, an integer its C type cannot hold and a read-only array for a pointer that is
    not const raise, where ctypes had passed them on; each buffer taken before the refusal is released."""
    lib = T._load_library([tmp_path], TYPED_SOURCE)
    out = np.zeros(4)
    with pytest.raises(TypeError, match=re.escape("echo takes 5 arguments (4 given)")):
        lib.echo(1, 2, 3.0, 4.0)
    with pytest.raises(TypeError, match=re.escape("negate takes 2 arguments (3 given)")):
        lib.negate(out, 1, 1)
    for n, i in ((2**63, 0), (-2**63 - 1, 0), (0, 2**31), (0, -2**31 - 1)):
        with pytest.raises(OverflowError):
            lib.echo(n, i, 0.0, 0.0, out)
    with pytest.raises(TypeError):
        lib.echo(1.0, 0, 0.0, 0.0, out)  # a float is no ptrdiff_t
    read_only = np.ones(4)
    read_only.flags.writeable = False
    with pytest.raises(ValueError, match="read-only"):
        lib.negate(read_only, 4)
    with pytest.raises(BufferError):
        lib.negate(b"\0" * 32, 4)
    assert read_only.tolist() == [1.0] * 4 and out.tolist() == [0.0] * 4
    taken = bytearray(32)
    with pytest.raises(OverflowError):
        lib.negate(taken, 2**63)
    taken.extend(b"\0")  # a bytearray whose buffer is still held cannot grow


def test_wrappers_pass_none_as_null_and_release_the_gil(tmp_path):
    """None reaches C as NULL, a const pointer takes a read-only buffer, and the call runs without the GIL."""
    lib = T._load_library([tmp_path], TYPED_SOURCE)
    read_only = np.ones(4)
    read_only.flags.writeable = False
    assert lib.is_null(None) == 1 and lib.is_null(read_only) == 0 and lib.is_null(b"\0" * 8) == 0
    assert lib.holds_gil(0) == 0


@pytest.mark.parametrize("declaration, c_type", [("int widen(long v) { return (int)v; }", "long"),
                                                 ("int widen(size_t v) { return (int)v; }", "size_t"),
                                                 ("long widen(int v) { return v; }", "long")])
def test_loader_refuses_a_type_it_does_not_map(tmp_path, declaration, c_type):
    with pytest.raises(KernelBuildError, match=f"C function widen uses type '{c_type}'"):
        T._load_library([tmp_path], f"#include <stddef.h>\nCLONES {declaration}\n")


def test_every_shipped_entry_point_comes_back_typed():
    """Each kernel module holds one function for each CLONES function of its source, and nothing else."""
    for name, (module, attr) in LIBRARIES.items():
        lib = getattr(module, attr)
        functions = [f for f in vars(lib) if isinstance(getattr(lib, f), types.BuiltinFunctionType)]
        assert len(functions) == len(re.findall(r"^CLONES\b", SOURCES[name], re.M)), name
        assert all(re.search(rf"^CLONES\b[^{{]*\b{f}\(", SOURCES[name], re.M) for f in functions), name


def test_import_runs_the_compiler_once_and_opens_each_library_once():
    """Every extension module the import loads is counted: the three kernel modules load once each, from
    their own files, and no other module loads under their name or from their files."""
    script = ("import importlib.machinery, json, subprocess\n"
              "runs, opened = [], []\n"
              "run, create = subprocess.run, importlib.machinery.ExtensionFileLoader.create_module\n"
              "subprocess.run = lambda cmd, *a, **k: runs.append(cmd) or run(cmd, *a, **k)\n"
              "importlib.machinery.ExtensionFileLoader.create_module = "
              "lambda self, spec: opened.append((spec.name, spec.origin)) or create(self, spec)\n"
              "import hybridlm.quant\n"
              "print(json.dumps([runs, opened]))\n")
    env = dict(os.environ, PYTHONPATH=SRC)
    result = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120,
                            check=True)
    runs, opened = json.loads(result.stdout)
    assert [cmd for cmd in runs if "-shared" not in cmd] == [["cc", "--version"]]
    kernels = [path for name, path in opened if name == T._MODULE]
    assert len(kernels) == len(set(kernels)) == 3
    assert all(Path(path).name.startswith("hybridlm-") for path in kernels)
    assert [path for name, path in opened if Path(path).name.startswith("hybridlm-")] == kernels


# none of these may change a rounding: fused multiply-adds, reassociation,
# reciprocals, flushed subnormals or dropped signs of zero
UNSAFE_FLAGS = {"-ffast-math", "-Ofast", "-ffp-contract=fast", "-freciprocal-math", "-fassociative-math",
                "-ffinite-math-only", "-fno-signed-zeros", "-funsafe-math-optimizations", "-ffp-contract=on"}


@pytest.fixture(scope="module")
def built(tmp_path_factory):
    """Builds source ``name`` once through the loader, the first time a test asks for it, and returns the
    compile command, its result and the library, so the flag and warning tests share one build per source."""
    cache, cache_dir = {}, tmp_path_factory.mktemp("kernels")

    def build(name):
        if name not in cache:
            runs = []
            real_run = subprocess.run

            def spy(cmd, *args, **kwargs):
                result = real_run(cmd, *args, **kwargs)
                runs.append((list(cmd), result))
                return result

            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(subprocess, "run", spy)
                lib = T._load_library([cache_dir], SOURCES[name])
            [(cmd, result)] = [(cmd, result) for cmd, result in runs if "-shared" in cmd]
            cache[name] = cmd, result, lib
        return cache[name]

    build.cache_dir = cache_dir
    return build


def test_compile_flags_protect_the_bits(built, monkeypatch):
    """Each source builds once, into its own library, with exactly the shared flags: contraction off and
    no flag that may change a rounding. The GEMM so built matches the oracle bit for bit."""
    builds = {name: built(name) for name in SOURCES}
    assert len(list(built.cache_dir.glob("*.so"))) == len(SOURCES)
    for cmd, _, _ in builds.values():
        assert [arg for arg in cmd[1:] if arg.startswith("-")] == [*T._C_FLAGS, f"-I{T._PYTHON_INCLUDE}", "-x",
                                                                    "-", "-o"]
        assert "-ffp-contract=off" in cmd and "-Wall" in cmd and not UNSAFE_FLAGS & set(cmd)
    rng = np.random.default_rng(7)
    a, b = rng.standard_normal((37, 50)).astype(np.float32), rng.standard_normal((50, 45)).astype(np.float32)
    monkeypatch.setattr(T, "_MM_LIBRARY", builds["mm"][2])
    test_tensor._assert_same_bits(T.matmul_exact(a, b), T.matmul_oracle(a, b))


@pytest.mark.parametrize("name", ["mm", "quant", "scan"])
def test_c_sources_compile_without_warnings(built, name):
    """The compiler, run by the loader with -Wall, prints nothing. The loader has found and typed every
    CLONES function in the library, or it would have raised."""
    _, result, _ = built(name)
    assert result.stderr == ""


def _bits(values):
    """Each value's dtype, shape and raw bytes, so that equal lists hold the same bits."""
    return [None if v is None else (np.asarray(v).dtype.str, np.shape(v), np.asarray(v).tobytes()) for v in values]


def _quant_outputs():
    """Codes, scales and global scale of each format and rounding on a few inputs, and their decodes with and
    without an output; then the decode statuses of records that break the rule for what a quantized record may
    hold. Rows of 2048, 2049 and 2080 columns cross the encoder's run of 64 blocks in both 1D formats, at whole
    blocks and one column past them, with blocks of zeros between live ones inside a run."""
    rng = np.random.default_rng(8)
    wide = rng.standard_normal((37, 1064)).astype(np.float32)
    wide *= (np.float32(2.0) ** rng.integers(-140, 120, (37, 1))).astype(np.float32)  # subnormal to near max
    wide[3] = 0.0
    long = rng.standard_normal((5, 2080)).astype(np.float32)
    long[:, 64:128] = 0.0
    long[2, 1024:1056] = 0.0
    vals = test_quant.sweep_inputs()
    out = []
    for fmt, (top, block) in zip(test_quant.FORMATS, ((6.0, 16), (6.0, 16), (448.0, 32))):
        ties = test_quant.unit_scale_rows(vals[np.abs(vals) <= top], top, block)
        for x in (wide, long, long[:, :2048], long[:, :2049], ties, test_quant.signed_zero_and_subnormal_input()):
            for mode in (Q.NEAREST_EVEN, Q.stochastic(5)):
                codes, scales, g = Q._encode_kernel_c(fmt, x, mode)
                g = np.float32(0) if g is None else g
                values = np.empty(x.shape, np.float32)
                status = Q._decode_kernel_c(fmt, x.shape, codes, scales, g, values)
                out += [codes, scales, g, status, values, Q._decode_kernel_c(fmt, x.shape, codes, scales, g, None)]
    nvfp4, nvfp4_2d, mxfp8 = test_quant.serialized_cases()
    damaged = [(nvfp4, "global_scale", (), 0.1), (nvfp4, "block_scales", (0, 1), 0xFF),
               (nvfp4, "block_scales", (1, 2), 0x80), (nvfp4_2d, "codes", (19, 40), 16),  # in the padding
               (mxfp8, "scale_exps", (1, 1), 128), (mxfp8, "codes", (0, 1, 2), 0x7F),
               (mxfp8, "scale_exps", (1, 1), 127), (nvfp4, "global_scale", (), 2.0**127)]  # past float32's max
    for q, field, at, value in damaged:
        arr = np.array(getattr(q, field))
        arr[at] = value
        q = replace(q, **{field: arr})
        nvfp4 = isinstance(q, Q.QuantizedTensorNVFP4)
        fmt = Q._LAYOUT_FORMAT[q.layout] if nvfp4 else Q.Format.MXFP8
        scales, g = (q.block_scales, np.float32(q.global_scale)) if nvfp4 else (q.scale_exps, np.float32(0))
        for values in (None, np.empty(q.shape, np.float32)):
            out.append(Q._decode_kernel_c(fmt, q.shape, q.codes, scales, g, values))
    return out


def _scan_outputs():
    """The outputs and gradients of every kernel in the scan source, in float32 and float64: mamba_scan with
    and without h0, rms_norm, causal_conv1d, causal_softmax, softmax and cross_entropy on each oracle case, and the
    index scatter-adds."""
    out = []
    for shape, dtype, with_h0 in (((37, 3, 4, 5), np.float32, True), ((37, 3, 4, 5), np.float64, False),
                                  ((256, 4, 16, 32), np.float32, False), ((64, 8, 64, 16), np.float64, True)):
        args, h0, dout = test_tensor._scan_inputs(*shape, seed=sum(shape), dtype=dtype)
        out += test_tensor._scan_fwd_bwd(args, h0 if with_h0 else None, dout)
    for case in test_tensor.RMS_NORM_CASES:
        out += test_tensor._op_fwd_bwd(T.rms_norm, *test_tensor._rms_norm_inputs(*case))
    for case in test_tensor.CONV_CASES:
        out += test_tensor._op_fwd_bwd(T.causal_conv1d, *test_tensor._conv_inputs(*case))
    for case in test_tensor.SOFTMAX_CASES:
        out += test_tensor._op_fwd_bwd(T.causal_softmax, *test_tensor._softmax_inputs(*case))
    for case in test_tensor.ROW_SOFTMAX_CASES:
        out += test_tensor._op_fwd_bwd(T.softmax, *test_tensor._row_softmax_inputs(*case))
    for case in test_tensor.CROSS_ENTROPY_CASES:
        out += test_tensor._cross_entropy_fwd_bwd(*test_tensor._cross_entropy_inputs(*case))
    for dtype in (np.float32, np.float64):
        out += test_tensor._scatter_outputs(dtype)
    return out


# what the baseline build must reproduce bit for bit; its GEMM is checked against the oracle instead
SHIPPED_OUTPUTS = {"quant": _quant_outputs, "scan": _scan_outputs}


@pytest.mark.parametrize("name", ["mm", "quant", "scan"])
def test_baseline_build_gives_the_same_bits(tmp_path, monkeypatch, name):
    """With no clone list the loader builds the baseline x86-64 code that a host without AVX-512 runs.
    Its GEMM matches the oracle bit for bit, the guarded fused body included, and its quantizers and scan
    give the shipped build's bits."""
    want = SHIPPED_OUTPUTS[name]() if name in SHIPPED_OUTPUTS else None
    monkeypatch.setattr(T, "CLONES", "")
    lib = T._load_library([tmp_path], SOURCES[name])
    [path] = tmp_path.glob("*.so")
    assert b".avx512f" not in path.read_bytes()  # no clone: the code that runs is the baseline
    monkeypatch.setattr(*LIBRARIES[name], lib)
    if want is None:
        test_tensor.test_kernel_matches_oracle_on_edge_shapes()
        test_tensor.test_kernel_matches_oracle_on_views()
        test_tensor.test_kernel_overwrites_its_output()
        test_tensor.test_gemm_guard_bounds()
        for case in test_tensor.FMA_ROUNDS_DIFFERENTLY:
            test_tensor.test_gemm_falls_back_where_a_fused_multiply_add_rounds_differently(case)
        for fmt in test_tensor.QUANTIZED_FORMATS:
            for rht in (False, True):
                test_tensor.test_kernel_matches_oracle_on_quantized_operands(fmt, rht)
        test_tensor.test_kernel_matches_oracle_on_12_bit_operands_near_the_exponent_bounds()
    else:
        assert _bits(SHIPPED_OUTPUTS[name]()) == _bits(want)


ALWAYS_INLINE = "static inline __attribute__((always_inline))"


@pytest.mark.parametrize("name", ["mm", "quant", "scan"])
def test_every_c_helper_is_always_inline(name):
    """GCC clones only the CLONES functions, so a helper that one calls and that is not always_inline would
    run its one baseline body in every clone: each static function is static inline always_inline."""
    helpers = re.findall(r"\bstatic\b.*", SOURCES[name])
    assert helpers and [h for h in helpers if not h.startswith(ALWAYS_INLINE)] == []


@pytest.mark.skipif(platform.machine() != "x86_64", reason="the clones are built on x86-64 only")
def test_contraction_is_on_only_in_the_fused_gemm_body():
    """fp-contract=fast marks the fused tile and panel loop and nothing else, and the shipped GEMM library
    holds an avx512f clone of both bodies, the one that has fused multiply-adds."""
    marked = [line for line in T._MM_SOURCE.splitlines() if "fp-contract" in line]
    assert len(marked) == 2 and all(re.search(r"\bmm_(tile|body)_fused\(", line) for line in marked)
    assert "fp-contract" not in T._SCAN_SOURCE and "fp-contract" not in Q._QUANT_SOURCE
    shipped = Path(T._MM_LIBRARY.__file__).read_bytes()
    assert b"mm_body_fused.avx512f" in shipped and b"mm_body_separate.avx512f" in shipped


def test_missing_compiler_raises_kernel_build_error(tmp_path):
    cc = str(tmp_path / "no-such-cc")
    for _ in range(2):  # the failure is not cached
        with pytest.raises(KernelBuildError, match=re.escape(f"compiler '{cc}' in cache directories {tmp_path}:")):
            T._load_library([tmp_path], TINY_SOURCE, cc=cc)
    assert not list(tmp_path.iterdir())


def test_missing_python_header_raises_kernel_build_error(tmp_path, monkeypatch):
    """Without Python.h the build fails as with a broken compiler, and nothing is left to load instead."""
    (tmp_path / "include").mkdir()
    monkeypatch.setattr(T, "_PYTHON_INCLUDE", str(tmp_path / "include"))
    named = re.escape(f"compiler 'cc' in cache directories {tmp_path / 'cache'}: the compiler failed: ")
    with pytest.raises(KernelBuildError, match=named + r".*Python\.h"):
        T._load_library([tmp_path / "cache"], TINY_SOURCE)
    assert not list((tmp_path / "cache").iterdir())


def test_unwritable_directory_raises_kernel_build_error(tmp_path):
    blocker = tmp_path / "not-a-dir"
    blocker.write_text("")  # a file where a directory is needed fails even for root
    dirs = [blocker / "hybridlm", blocker / "tmp"]
    named = re.escape(f"compiler 'cc' in cache directories {dirs[0]}, {dirs[1]}: no directory is usable")
    with pytest.raises(KernelBuildError, match=named):
        T._load_library(dirs, TINY_SOURCE)


def test_unusable_directories_fall_through_to_next(tmp_path):
    blocker = tmp_path / "not-a-dir"
    blocker.write_text("")
    shared = tmp_path / "shared"
    shared.mkdir()
    shared.chmod(0o777)  # others could plant a library here
    lib = T._load_library([blocker / "hybridlm", shared, tmp_path / "fallback"], TINY_SOURCE)
    assert not list(shared.iterdir())
    assert len(list((tmp_path / "fallback").glob("*.so"))) == 1
    assert lib.twice(4) == 8


@pytest.mark.parametrize("module", ["hybridlm.tensor", "hybridlm.quant"])
def test_import_without_compiler_raises_kernel_build_error(tmp_path, module):
    (tmp_path / "empty").mkdir()
    env = dict(os.environ, PATH=str(tmp_path / "empty"), PYTHONPATH=SRC, XDG_CACHE_HOME=str(tmp_path / "cache"))
    result = subprocess.run([sys.executable, "-c", f"import {module}"], env=env, capture_output=True, text=True,
                            timeout=120)
    assert result.returncode != 0
    assert "hybridlm.errors.KernelBuildError: cannot build the C kernels with compiler 'cc'" in result.stderr
    assert str(tmp_path / "cache" / "hybridlm") in result.stderr
    assert not (tmp_path / "cache").exists()


def test_concurrent_first_builds_share_one_library(tmp_path):
    script = ("import hybridlm.tensor as T\n"
              f"assert T._load_library([{str(tmp_path)!r}], {TINY_SOURCE!r}).twice(21) == 42\n")
    env = dict(os.environ, PYTHONPATH=SRC)
    procs = [subprocess.Popen([sys.executable, "-c", script], env=env) for _ in range(3)]
    assert [p.wait(timeout=120) for p in procs] == [0, 0, 0]
    files = list(tmp_path.iterdir())  # one library, no temporary files left
    assert len(files) == 1 and files[0].suffix == ".so"
