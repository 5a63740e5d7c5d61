"""Build and load checks for the compiled kernels: the exact GEMM and the
quantizers' encode/decode, built by one loader from their C sources.

Each build test calls the loader directly with its own ``tmp_path`` cache,
so none depends on what the user's cache holds.
"""

import os
import shutil
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

import hybridlm.quant as Q
import hybridlm.tensor as T

needs_cc = pytest.mark.skipif(shutil.which("cc") is None, reason="no C compiler on PATH")
SRC = str(Path(T.__file__).resolve().parents[1])


def _run_kernel(fn, a, b):
    out = np.zeros((a.shape[0], b.shape[1]), np.float32)
    fn(a.ctypes.data, b.ctypes.data, out.ctypes.data, a.shape[0], a.shape[1], b.shape[1],
       *(s // 4 for s in a.strides + b.strides))
    return out


def _operands():
    rng = np.random.default_rng(7)
    return rng.standard_normal((37, 50)).astype(np.float32), rng.standard_normal((50, 45)).astype(np.float32)


@needs_cc
def test_c_kernel_selected_when_cc_available():
    # A compiler is present, so falling back to numpy here is a build failure.
    assert T._mm_kernel is T._mm_kernel_c


@needs_cc
def test_c_quant_kernels_selected_when_cc_available():
    assert Q._encode_kernel is Q._encode_kernel_c and Q._decode_kernel is Q._decode_kernel_c


@needs_cc
def test_second_load_reuses_cached_library(tmp_path, monkeypatch):
    a, b = _operands()
    first = T._load_c_kernel([tmp_path])
    assert first is not None
    assert len(list(tmp_path.glob("*.so"))) == 1

    def no_compile(*args):
        raise AssertionError("cached library was rebuilt")

    monkeypatch.setattr(T, "_compile", no_compile)
    second = T._load_c_kernel([tmp_path])
    assert second is not None
    assert np.array_equal(_run_kernel(second, a, b), T.matmul_oracle(a, b))


@needs_cc
def test_compile_flags_protect_the_bits(tmp_path, monkeypatch):
    commands = []
    real_run = subprocess.run

    def spy(cmd, *args, **kwargs):
        commands.append(list(cmd))
        return real_run(cmd, *args, **kwargs)

    monkeypatch.setattr(subprocess, "run", spy)
    assert T._load_c_kernel([tmp_path]) is not None
    compiles = [c for c in commands if "-shared" in c]
    assert len(compiles) == 1
    assert "-ffp-contract=off" in compiles[0]
    assert "-ffast-math" not in compiles[0] and "-Ofast" not in compiles[0]
    # the quantizer source builds with the same flags into its own library
    assert T._load_c_kernel([tmp_path], source=Q._QUANT_SOURCE, entry="quant_encode") is not None
    compiles = [c for c in commands if "-shared" in c]
    assert len(compiles) == 2 and len(list(tmp_path.glob("*.so"))) == 2
    # none of these may change a rounding: fused multiply-adds, reassociation,
    # reciprocals, flushed subnormals or dropped signs of zero
    unsafe = {"-ffast-math", "-Ofast", "-ffp-contract=fast", "-freciprocal-math", "-fassociative-math",
              "-ffinite-math-only", "-fno-signed-zeros", "-funsafe-math-optimizations", "-ffp-contract=on"}
    for cmd in compiles:
        assert cmd[1:1 + len(T._MM_FLAGS)] == list(T._MM_FLAGS)
        assert "-ffp-contract=off" in cmd and not unsafe & set(cmd)


@needs_cc
@pytest.mark.parametrize("name", ["mm", "quant"])
def test_c_sources_compile_without_warnings(tmp_path, name):
    # -Wextra is left out: it flags the GRID parameters that a function leaves unused
    source = {"mm": T._MM_SOURCE, "quant": Q._QUANT_SOURCE}[name]
    cmd = ["cc", *T._MM_FLAGS, "-Wall", "-Werror", "-x", "c", "-", "-o", str(tmp_path / f"{name}.so")]
    result = subprocess.run(cmd, input=source, text=True, capture_output=True)
    assert result.returncode == 0, result.stderr


def test_missing_compiler_yields_none(tmp_path):
    assert T._load_c_kernel([tmp_path], cc=str(tmp_path / "no-such-cc")) is None
    assert not list(tmp_path.iterdir())


def test_unwritable_directory_yields_none(tmp_path):
    blocker = tmp_path / "not-a-dir"
    blocker.write_text("")  # a file where a directory is needed fails even for root
    assert T._load_c_kernel([blocker / "hybridlm", blocker / "tmp"]) is None


@needs_cc
def test_unusable_directories_fall_through_to_next(tmp_path):
    blocker = tmp_path / "not-a-dir"
    blocker.write_text("")
    shared = tmp_path / "shared"
    shared.mkdir()
    shared.chmod(0o777)  # others could plant a library here
    a, b = _operands()
    fn = T._load_c_kernel([blocker / "hybridlm", shared, tmp_path / "fallback"])
    assert fn is not None
    assert not list(shared.iterdir())
    assert len(list((tmp_path / "fallback").glob("*.so"))) == 1
    assert np.array_equal(_run_kernel(fn, a, b), T.matmul_oracle(a, b))


def test_import_without_compiler_selects_numpy_kernel_with_same_bits(tmp_path):
    a, b = _operands()
    np.save(tmp_path / "a.npy", a)
    np.save(tmp_path / "b.npy", b)
    (tmp_path / "empty").mkdir()
    script = textwrap.dedent(f"""
        import numpy as np
        import hybridlm.tensor as T
        assert T._mm_kernel is T._mm_kernel_numpy, T._mm_kernel
        np.save({str(tmp_path / "out.npy")!r},
                T.matmul_exact(np.load({str(tmp_path / "a.npy")!r}), np.load({str(tmp_path / "b.npy")!r})))
    """)
    env = dict(os.environ, PATH=str(tmp_path / "empty"), PYTHONPATH=SRC, XDG_CACHE_HOME=str(tmp_path / "cache"))
    subprocess.run([sys.executable, "-c", script], env=env, check=True, timeout=120)
    out = np.load(tmp_path / "out.npy")
    assert np.array_equal(out, T.matmul_exact(a, b))
    assert np.array_equal(out, T.matmul_oracle(a, b))
    assert not (tmp_path / "cache").exists()


@needs_cc
def test_concurrent_first_builds_share_one_library(tmp_path):
    script = f"import sys; import hybridlm.tensor as T; sys.exit(T._load_c_kernel([{str(tmp_path)!r}]) is None)"
    env = dict(os.environ, PYTHONPATH=SRC)
    procs = [subprocess.Popen([sys.executable, "-c", script], env=env) for _ in range(3)]
    assert [p.wait(timeout=120) for p in procs] == [0, 0, 0]
    files = list(tmp_path.iterdir())  # one library, no temporary files left
    assert len(files) == 1 and files[0].suffix == ".so"


def test_import_without_compiler_selects_numpy_quantizer_with_same_bits(tmp_path):
    x = (np.random.default_rng(3).standard_normal((17, 70)) * 1e-3).astype(np.float32)
    x[0, :16] = -0.0
    np.save(tmp_path / "x.npy", x)
    (tmp_path / "empty").mkdir()
    script = textwrap.dedent(f"""
        import numpy as np
        import hybridlm.quant as Q
        assert Q._encode_kernel is Q._encode_kernel_numpy and Q._decode_kernel is Q._decode_kernel_numpy
        x = np.load({str(tmp_path / "x.npy")!r})
        qs = [Q.quantize_nvfp4(x, mode=Q.stochastic(2)), Q.quantize_nvfp4(x, Q.Layout.BLOCK_2D),
              Q.quantize_mxfp8(x, Q.stochastic(2))]
        np.savez({str(tmp_path / "out.npz")!r},
                 *[np.frombuffer(Q.quantized_to_bytes(q), np.uint8) for q in qs], *[q.dequantize() for q in qs])
    """)
    env = dict(os.environ, PATH=str(tmp_path / "empty"), PYTHONPATH=SRC, XDG_CACHE_HOME=str(tmp_path / "cache"))
    subprocess.run([sys.executable, "-c", script], env=env, check=True, timeout=120)
    with np.load(tmp_path / "out.npz") as out:
        got = [out[f"arr_{i}"] for i in range(6)]
    qs = [Q.quantize_nvfp4(x, mode=Q.stochastic(2)), Q.quantize_nvfp4(x, Q.Layout.BLOCK_2D),
          Q.quantize_mxfp8(x, Q.stochastic(2))]
    for i, q in enumerate(qs):
        assert got[i].tobytes() == Q.quantized_to_bytes(q)
        assert got[3 + i].view(np.uint32).tobytes() == q.dequantize().view(np.uint32).tobytes()
    assert not (tmp_path / "cache").exists()
