"""Build and load checks for the compiled kernels: the exact GEMM, the
Mamba scan and the quantizers' encode/decode, built by one loader from their
C sources.

Each build test calls the loader directly with its own ``tmp_path`` cache,
so none depends on what the user's cache holds. The tests of the loader's
caching, directories and concurrency build a few-line source, which compiles
in a fraction of the time the kernels take.
"""

import ctypes
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import hybridlm.quant as Q
import hybridlm.tensor as T
from hybridlm.errors import KernelBuildError

SRC = str(Path(T.__file__).resolve().parents[1])


def _run_kernel(fn, a, b):
    out = np.zeros((a.shape[0], b.shape[1]), np.float32)
    fn(a.ctypes.data, b.ctypes.data, out.ctypes.data, a.shape[0], a.shape[1], b.shape[1],
       *(s // 4 for s in a.strides + b.strides))
    return out


def _operands():
    rng = np.random.default_rng(7)
    return rng.standard_normal((37, 50)).astype(np.float32), rng.standard_normal((50, 45)).astype(np.float32)


TINY_SOURCE = "long twice(long v) { return 2 * v; }\nlong thrice(long v) { return 3 * v; }\n"
TINY = dict(source=TINY_SOURCE, entry="twice", prototype=ctypes.CFUNCTYPE(ctypes.c_long, ctypes.c_long))


def test_second_load_reuses_cached_library(tmp_path, monkeypatch):
    T._load_c_kernel([tmp_path], **TINY)
    assert len(list(tmp_path.glob("*.so"))) == 1

    def no_compile(*args):
        raise AssertionError("cached library was rebuilt")

    monkeypatch.setattr(T, "_compile", no_compile)
    second = T._load_c_kernel([tmp_path], **TINY)
    assert second(21) == 42


def test_another_entry_point_of_a_loaded_library_starts_no_process(tmp_path, monkeypatch):
    T._load_c_kernel([tmp_path], **TINY)
    started, opened = [], []
    real_run, real_cdll = subprocess.run, ctypes.CDLL
    monkeypatch.setattr(subprocess, "run", lambda *a, **k: started.append(a) or real_run(*a, **k))
    monkeypatch.setattr(ctypes, "CDLL", lambda *a, **k: opened.append(a) or real_cdll(*a, **k))
    thrice = T._load_c_kernel([tmp_path], **dict(TINY, entry="thrice"))
    assert thrice(5) == 15
    assert started == [] and opened == []


def test_compile_flags_protect_the_bits(tmp_path, monkeypatch):
    commands = []
    real_run = subprocess.run

    def spy(cmd, *args, **kwargs):
        commands.append(list(cmd))
        return real_run(cmd, *args, **kwargs)

    monkeypatch.setattr(subprocess, "run", spy)
    a, b = _operands()
    assert np.array_equal(_run_kernel(T._load_c_kernel([tmp_path]), a, b), T.matmul_oracle(a, b))
    compiles = [c for c in commands if "-shared" in c]
    assert len(compiles) == 1
    assert "-ffp-contract=off" in compiles[0]
    assert "-ffast-math" not in compiles[0] and "-Ofast" not in compiles[0]
    # the quantizer source builds with the same flags into its own library
    T._load_c_kernel([tmp_path], source=Q._QUANT_SOURCE, entry="quant_encode")
    compiles = [c for c in commands if "-shared" in c]
    assert len(compiles) == 2 and len(list(tmp_path.glob("*.so"))) == 2
    # none of these may change a rounding: fused multiply-adds, reassociation,
    # reciprocals, flushed subnormals or dropped signs of zero
    unsafe = {"-ffast-math", "-Ofast", "-ffp-contract=fast", "-freciprocal-math", "-fassociative-math",
              "-ffinite-math-only", "-fno-signed-zeros", "-funsafe-math-optimizations", "-ffp-contract=on"}
    for cmd in compiles:
        assert cmd[1:1 + len(T._MM_FLAGS)] == list(T._MM_FLAGS)
        assert "-ffp-contract=off" in cmd and not unsafe & set(cmd)


@pytest.mark.parametrize("name", ["mm", "quant", "scan"])
def test_c_sources_compile_without_warnings(tmp_path, name):
    # -Wextra is left out: it flags the GRID parameters that a function leaves unused
    source = {"mm": T._MM_SOURCE, "quant": Q._QUANT_SOURCE, "scan": T._SCAN_SOURCE}[name]
    cmd = ["cc", *T._MM_FLAGS, "-Wall", "-Werror", "-x", "c", "-", "-o", str(tmp_path / f"{name}.so")]
    result = subprocess.run(cmd, input=source, text=True, capture_output=True)
    assert result.returncode == 0, result.stderr


def test_missing_compiler_raises_kernel_build_error(tmp_path):
    cc = str(tmp_path / "no-such-cc")
    for _ in range(2):  # the failure is not cached
        with pytest.raises(KernelBuildError, match=re.escape(f"compiler '{cc}' in cache directories {tmp_path}:")):
            T._load_c_kernel([tmp_path], cc=cc)
    assert not list(tmp_path.iterdir())


def test_unwritable_directory_raises_kernel_build_error(tmp_path):
    blocker = tmp_path / "not-a-dir"
    blocker.write_text("")  # a file where a directory is needed fails even for root
    dirs = [blocker / "hybridlm", blocker / "tmp"]
    named = re.escape(f"compiler 'cc' in cache directories {dirs[0]}, {dirs[1]}: no directory is usable")
    with pytest.raises(KernelBuildError, match=named):
        T._load_c_kernel(dirs)


def test_unusable_directories_fall_through_to_next(tmp_path):
    blocker = tmp_path / "not-a-dir"
    blocker.write_text("")
    shared = tmp_path / "shared"
    shared.mkdir()
    shared.chmod(0o777)  # others could plant a library here
    fn = T._load_c_kernel([blocker / "hybridlm", shared, tmp_path / "fallback"], **TINY)
    assert not list(shared.iterdir())
    assert len(list((tmp_path / "fallback").glob("*.so"))) == 1
    assert fn(4) == 8


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
    script = ("import ctypes, hybridlm.tensor as T\n"
              f"fn = T._load_c_kernel([{str(tmp_path)!r}], source={TINY_SOURCE!r}, entry='twice', "
              "prototype=ctypes.CFUNCTYPE(ctypes.c_long, ctypes.c_long))\n"
              "assert fn(21) == 42\n")
    env = dict(os.environ, PYTHONPATH=SRC)
    procs = [subprocess.Popen([sys.executable, "-c", script], env=env) for _ in range(3)]
    assert [p.wait(timeout=120) for p in procs] == [0, 0, 0]
    files = list(tmp_path.iterdir())  # one library, no temporary files left
    assert len(files) == 1 and files[0].suffix == ".so"
