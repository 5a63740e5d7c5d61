"""Build and load checks for the compiled kernels: tensor.py's exact GEMM
and Mamba scan in one library, and the quantizers' encode/decode in another,
each built by one loader from its C source.

Each build test calls the loader directly with its own cache, so none
depends on what the user's cache holds. Each source is built once at the
probe's level, as the import builds it, and once with no -m flag, which
gives baseline code that must give the shipped build's bits. The tests of
the loader's typing, caching, directories and concurrency build a few-line
source, which compiles in a fraction of the time the kernels take.
"""

import json
import os
import re
import shutil
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
SOURCES = {"tensor": T._MM_SOURCE + T._SCAN_SOURCE, "quant": Q._QUANT_SOURCE}
# the module attribute that holds each source's library; every call of an entry point reads it
LIBRARIES = {"tensor": (T, "_TENSOR_LIBRARY"), "quant": (Q, "_QUANT_LIBRARY")}

TINY_SOURCE = "#include <stddef.h>\nEXPORT int twice(ptrdiff_t v) { return (int)(2 * v); }\n"


def test_second_load_reuses_cached_library(tmp_path, monkeypatch):
    T._load_library([tmp_path], TINY_SOURCE)
    assert len(list(tmp_path.glob("*.so"))) == 1

    def no_compile(*args):
        raise AssertionError("cached library was rebuilt")

    monkeypatch.setattr(T, "_compile", no_compile)
    assert T._load_library([tmp_path], TINY_SOURCE).twice(21) == 42


TYPED_SOURCE = """#include <stddef.h>
EXPORT int echo(ptrdiff_t n, int i, float f, double d, double *out)
{
    out[0] = (double)n, out[1] = i, out[2] = f, out[3] = d;
    return i + 1;
}
EXPORT void negate(double *out, ptrdiff_t n) { for (ptrdiff_t i = 0; i < n; i++) out[i] = -out[i]; }
EXPORT int is_null(const double *p) { return p == NULL; }
EXPORT int holds_gil(int unused) { return PyGILState_Check(); }
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
        T._load_library([tmp_path], f"#include <stddef.h>\nEXPORT {declaration}\n")


def test_every_shipped_entry_point_comes_back_typed():
    """Each kernel module holds one function for each EXPORT function of its source, and nothing else."""
    for name, (module, attr) in LIBRARIES.items():
        lib = getattr(module, attr)
        functions = [f for f in vars(lib) if isinstance(getattr(lib, f), types.BuiltinFunctionType)]
        assert len(functions) == len(re.findall(r"^EXPORT\b", SOURCES[name], re.M)), name
        assert all(re.search(rf"^EXPORT\b[^{{]*\b{f}\(", SOURCES[name], re.M) for f in functions), name


def test_import_runs_the_compiler_once_and_opens_each_library_once(built):
    """Every extension module the import loads is counted: the probe, built with no -m flag, and the two kernel
    modules, built here with the probe's flags, load once each, and no other module loads under their name."""
    builds = [built(name) for name in SOURCES]
    script = ("import importlib.machinery, json, subprocess\n"
              "runs, opened = [], []\n"
              "run, create = subprocess.run, importlib.machinery.ExtensionFileLoader.create_module\n"
              "subprocess.run = lambda cmd, *a, **k: runs.append(cmd) or run(cmd, *a, **k)\n"
              "importlib.machinery.ExtensionFileLoader.create_module = "
              "lambda self, spec: opened.append((spec.name, spec.origin)) or create(self, spec)\n"
              "import hybridlm.quant\n"
              "print(json.dumps([runs, opened, hybridlm.tensor._ISA_FLAGS]))\n")
    env = dict(os.environ, PYTHONPATH=SRC, XDG_CACHE_HOME=str(built.cache_dir.parent))
    result = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120,
                            check=True)
    runs, opened, isa = json.loads(result.stdout)
    assert [cmd for cmd in runs if "-shared" not in cmd] == [["cc", "--version"]]
    [probe] = [cmd for cmd in runs if "-shared" in cmd]
    assert [arg for arg in probe if arg.startswith("-m")] == [] and tuple(isa) == T._ISA_FLAGS
    kernels = [path for name, path in opened if name == T._MODULE]
    assert len(kernels) == len(set(kernels)) == 3
    assert set(kernels[1:]) == {lib.__file__ for _, _, lib in builds}
    assert all([arg for arg in cmd if arg.startswith("-m")] == isa for cmd, _, _ in builds)
    assert [path for name, path in opened if Path(path).name.startswith("hybridlm-")] == kernels


# none of these may change a rounding: fused multiply-adds, reassociation,
# reciprocals, flushed subnormals or dropped signs of zero
UNSAFE_FLAGS = {"-ffast-math", "-Ofast", "-ffp-contract=fast", "-freciprocal-math", "-fassociative-math",
                "-ffinite-math-only", "-fno-signed-zeros", "-funsafe-math-optimizations", "-ffp-contract=on"}


@pytest.fixture(scope="module")
def built(tmp_path_factory):
    """Builds source ``name`` at level ``isa`` once through the loader, the first time a test asks for it, and
    returns the compile command, its result and the library, so that tests share one build per source and level."""
    cache, cache_dir = {}, tmp_path_factory.mktemp("kernels") / "hybridlm"

    def build(name, isa=T._ISA_FLAGS):
        if (name, isa) not in cache:
            runs = []
            real_run = subprocess.run

            def spy(cmd, *args, **kwargs):
                result = real_run(cmd, *args, **kwargs)
                runs.append((list(cmd), result))
                return result

            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(subprocess, "run", spy)
                mp.setattr(T, "_ISA_FLAGS", isa)
                lib = T._load_library([cache_dir], SOURCES[name])
            [(cmd, result)] = [(cmd, result) for cmd, result in runs if "-shared" in cmd]
            cache[name, isa] = cmd, result, lib
        return cache[name, isa]

    build.cache_dir = cache_dir
    return build


def test_compile_flags_protect_the_bits(built, monkeypatch):
    """Each source builds once, into its own library, with exactly the shared flags and the level's: contraction
    off and no flag that may change a rounding. The GEMM so built matches the oracle bit for bit."""
    builds = {name: built(name) for name in SOURCES}
    assert len({lib.__file__ for _, _, lib in builds.values()}) == len(SOURCES)
    for cmd, _, _ in builds.values():
        assert [arg for arg in cmd[1:] if arg.startswith("-")] == [*T._C_FLAGS, *T._ISA_FLAGS,
                                                                    f"-I{T._PYTHON_INCLUDE}", "-x", "-", "-o"]
        assert "-ffp-contract=off" in cmd and "-Wall" in cmd and not UNSAFE_FLAGS & set(cmd)
    rng = np.random.default_rng(7)
    a, b = rng.standard_normal((37, 50)).astype(np.float32), rng.standard_normal((50, 45)).astype(np.float32)
    monkeypatch.setattr(T, "_TENSOR_LIBRARY", builds["tensor"][2])
    test_tensor._assert_same_bits(T.matmul_exact(a, b), T.matmul_oracle(a, b))


@pytest.mark.parametrize("name", SOURCES)
def test_c_sources_compile_without_warnings(built, name):
    """The compiler, run by the loader with -Wall, prints nothing at either level; the baseline's would warn of a
    64-byte vector passed by value (-Wpsabi). The loader has typed every EXPORT function, or it would have raised."""
    assert built(name)[1].stderr == built(name, ())[1].stderr == ""


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
    and without h0, rms_norm, causal_conv1d, causal_softmax, softmax, cross_entropy, sigmoid, silu and softplus on
    each oracle case, the gradients of the last three for a dout of the other dtype, and the index scatter-adds."""
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
    with np.errstate(over="ignore", invalid="ignore"):  # exp(-x) past the range, and -inf * 0
        for case in test_tensor.SIGMOID_CASES:
            x, dout = test_tensor._sigmoid_inputs(*case)
            other = np.float64 if x.dtype == np.float32 else np.float32
            for op, _ in test_tensor.SIGMOID_BODIES.values():
                out += test_tensor._op_fwd_bwd(op, x, dout)
                out.append(test_tensor._closure_grad(op, x, dout.astype(other)))
    for dtype in (np.float32, np.float64):
        out += test_tensor._scatter_outputs(dtype)
    return out


# what the baseline build must reproduce bit for bit; its GEMM is checked against the oracle instead
SHIPPED_OUTPUTS = {"quant": _quant_outputs, "tensor": _scan_outputs}


@pytest.mark.parametrize("name", SOURCES)
def test_baseline_build_gives_the_same_bits(built, monkeypatch, name):
    """With no level flag the loader builds the baseline code that a host without AVX-512 runs. Its GEMM
    matches the oracle bit for bit, the guarded fused body included, and its quantizers and scan give the
    shipped build's bits."""
    want = SHIPPED_OUTPUTS[name]()
    monkeypatch.setattr(*LIBRARIES[name], built(name, ())[2])
    assert _bits(SHIPPED_OUTPUTS[name]()) == _bits(want)
    if name == "tensor":
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


def test_scan_outputs_call_every_scan_kernel(monkeypatch):
    """Every EXPORT function of the scan source runs while _scan_outputs runs, so the baseline build's bits are
    checked for each one. The calls are counted by wrapping the module's functions."""
    names = [name for _, name, _ in T._DECLARATION.findall(SOURCES["tensor"])]
    calls = dict.fromkeys(names, 0)

    def counted(name, kernel):
        def call(*args):
            calls[name] += 1
            return kernel(*args)
        return call

    monkeypatch.setattr(T, "_TENSOR_LIBRARY",
                        types.SimpleNamespace(**{n: counted(n, getattr(T._TENSOR_LIBRARY, n)) for n in names}))
    _scan_outputs()
    scan = [name for _, name, _ in T._DECLARATION.findall(T._SCAN_SOURCE)]
    assert scan and [name for name in scan if not calls[name]] == []


def _disassembly(path):
    """Each function's machine code in the library at ``path`` by symbol name, from ``objdump -d``. Skips the
    test where objdump is not installed."""
    if shutil.which("objdump") is None:
        pytest.skip("objdump is not installed")
    text = subprocess.run(["objdump", "-d", "--no-show-raw-insn", path], capture_output=True, text=True,
                          check=True).stdout
    return dict(re.findall(r"^[0-9a-f]+ <([^>]+)>:\n(.*?)(?:\n\n|\Z)", text, re.M | re.S))


@pytest.mark.parametrize("name", SOURCES)
def test_baseline_build_names_no_avx_register(built, name):
    """No instruction of the baseline build names a 256- or 512-bit register or an AVX-512 mask register, so
    the code whose bits test_baseline_build_gives_the_same_bits checks is the code a host without AVX runs."""
    code = _disassembly(built(name, ())[2].__file__)
    assert {"mm_exact_f32", "quant_encode", "scan_fwd_f32"} & set(code)
    assert [f for f, body in code.items() if re.search(r"%(ymm|zmm|k[0-7]\b)", body)] == []


def test_contraction_is_on_only_in_the_fused_gemm_body():
    """fp-contract=fast marks the fused tile and panel loop and nothing else. In the shipped tensor library only
    the fused body holds fused multiply-adds, and at the AVX-512 level it holds them."""
    marked = [line for line in T._MM_SOURCE.splitlines() if "fp-contract" in line]
    assert len(marked) == 2 and all(re.search(r"\bmm_(tile|body)_fused\(", line) for line in marked)
    assert "fp-contract" not in T._SCAN_SOURCE and "fp-contract" not in Q._QUANT_SOURCE
    code = _disassembly(T._TENSOR_LIBRARY.__file__)
    fused = [f for f, body in code.items() if re.search(r"\bvfn?m(add|sub)", body)]
    assert "mm_body_separate" in code and all("_fused" in f for f in fused)
    assert ("mm_body_fused" in fused) == bool(T._ISA_FLAGS)


@pytest.mark.skipif(not os.path.exists("/proc/cpuinfo"), reason="no /proc/cpuinfo lists the CPU's flags")
def test_the_probe_agrees_with_the_host():
    """The kernels build for AVX-512 exactly when the kernel lists avx512f among the CPU's flags."""
    flags = re.findall(r"^flags\s*:(.*)$", Path("/proc/cpuinfo").read_text(), re.M)
    assert T._ISA_FLAGS == (("-mavx512f",) if flags and "avx512f" in flags[0].split() else ())


def test_missing_compiler_raises_kernel_build_error(tmp_path, monkeypatch):
    (tmp_path / "bin").mkdir()
    monkeypatch.setenv("PATH", str(tmp_path / "bin"))  # a PATH without cc
    T._cc_version.cache_clear()
    cache = tmp_path / "cache"
    for _ in range(2):  # the failure is not cached
        with pytest.raises(KernelBuildError, match=re.escape(f"compiler 'cc' in cache directories {cache}:")):
            T._load_library([cache], TINY_SOURCE)
    assert not cache.exists() and not list((tmp_path / "bin").iterdir())


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
