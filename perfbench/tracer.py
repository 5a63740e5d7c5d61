"""Spans around the library's layer boundaries, recorded from outside it.

``Tracer.install()`` replaces module attributes of ``hybridlm.tensor`` and
``hybridlm.quant`` with timing wrappers and ``uninstall()`` restores the
originals, so untraced code calls the library unwrapped. ``quant`` binds
its own name for ``matmul_exact`` at import, so both bindings are wrapped.
Backward closures are timed by ``TracingTape``, which wraps each closure
in a span named after its ``__qualname__`` and tagged with the
``LayerKind`` active when it was recorded.

Spans are kept in memory. A span's self time is its duration minus the
durations of its child spans. Bookkeeping the tracer does inside a span
(hashing inputs for ``repeat_frac``) is charged to no span, so it lowers
coverage instead of inflating a layer's self time.
"""

from __future__ import annotations

import functools
import hashlib
from collections import defaultdict
from time import perf_counter

import numpy as np

from hybridlm import quant as Q
from hybridlm import tensor as T

# Public tensor ops the stack calls, plus the backward sweep itself.
TENSOR_OPS = (
    "matmul_exact", "matmul", "add", "sub", "mul", "scale", "sigmoid", "silu", "exp", "softplus",
    "softmax", "rms_norm", "cross_entropy", "embedding", "reshape", "transpose2d", "slice_cols",
    "concat_cols", "take_rows", "scatter_rows", "gather_cols", "take_elems", "causal_softmax",
    "causal_conv1d", "mamba_scan", "backward",
)
QUANT_OPS = (
    "matmul_exact", "quantized_linear", "quantize_nvfp4", "quantize_mxfp8", "apply_rht",
    "random_hadamard", "quantized_to_bytes", "quantized_from_bytes",
)
# quant spans reported as plain time totals
QUANT_TIMES = {"apply_rht": "quant.rht_s", "random_hadamard": "quant.rht_s", "quantized_to_bytes": "quant.to_bytes_s",
               "quantized_from_bytes": "quant.from_bytes_s", "dequantize": "quant.dequantize_s"}
DISPATCH_OPS = frozenset({"take_rows", "take_elems", "gather_cols", "scatter_rows"})
NAMED_TENSOR_OPS = ("matmul_exact", "mamba_scan", "causal_softmax", "causal_conv1d")


def _array(x) -> np.ndarray:
    return np.asarray(x.data if isinstance(x, T.Tensor) else x)


def _digest(arr: np.ndarray) -> bytes:
    return hashlib.blake2b(np.ascontiguousarray(arr).view(np.uint8), digest_size=16).digest()


class TracingTape(T.Tape):
    """A tape whose backward closures each run inside a tracer span."""

    def __init__(self, tracer: "Tracer"):
        super().__init__()
        self._tracer = tracer

    def record(self, out, inputs, backward):
        tracer = self._tracer
        tracer.counts["tape_nodes"] += 1
        name = backward.__qualname__.split(".<locals>", 1)[0]
        kind = tracer.stack.active_kind

        def traced(dout):
            tracer.enter(name, kind)
            try:
                return backward(dout)
            finally:
                tracer.exit()

        super().record(out, inputs, traced)


class Tracer:
    """Collects spans ``(name, phase, kind, duration, self_time, work)``.

    ``phase`` is set by the caller (``fwd``, ``bwd``, ``update``,
    ``export``); ``work`` is a flop count for GEMMs and an element count for
    quantizers. ``iteration()`` starts a new unit for ``repeat_frac``.
    """

    def __init__(self, stack):
        self.stack = stack
        self.phase = None
        self.spans: list[tuple] = []
        self.counts: dict[str, int] = defaultdict(int)
        self._open: list[list] = []
        self._seen: dict[str, set] = defaultdict(set)
        self._saved: list[tuple] = []

    # -- spans --------------------------------------------------------------

    def enter(self, name, kind=None, work=0):
        self._open.append([name, kind, work, perf_counter(), 0.0])

    def exit(self):
        end = perf_counter()
        name, kind, work, start, child = self._open.pop()
        dur = end - start
        if self._open:
            self._open[-1][4] += dur
        self.spans.append((name, self.phase, kind and kind.value, dur, dur - child, work))

    def _untimed_since(self, start):
        """Keep the tracer's own work since ``start`` out of the parent's self time."""
        if self._open:
            self._open[-1][4] += perf_counter() - start

    def tape(self) -> TracingTape:
        return TracingTape(self)

    def iteration(self):
        self._seen.clear()

    def _repeat(self, op, key):
        seen = self._seen[op]
        self.counts[op + ".calls"] += 1
        if key in seen:
            self.counts[op + ".repeats"] += 1
        seen.add(key)

    # -- wrappers -----------------------------------------------------------

    def _wrap(self, name, fn, inspect=None):
        tracer = self

        @functools.wraps(fn)
        def wrapped(*args, **kwargs):
            work = 0
            if inspect is not None:
                t0 = perf_counter()
                work = inspect(args, kwargs)
                tracer._untimed_since(t0)
            kind = tracer.stack.active_kind if name == "quantized_linear" else None
            tracer.enter(name, kind, work)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.exit()

        return wrapped

    def _inspect_matmul(self, args, kwargs):
        (m, k), n = args[0].shape, args[1].shape[1]
        return 2 * m * k * n

    def _inspect_quantize(self, op):
        def inspect(args, kwargs):
            data = _array(args[0])
            rest = args[1:] + tuple(sorted(kwargs.items()))
            mode = next((a for a in rest if isinstance(a, Q.RoundingMode)),
                        kwargs.get("mode", Q.NEAREST_EVEN))
            tiles_2d = op == "quantize_nvfp4" and Q.Layout.BLOCK_2D in (*rest, kwargs.get("layout"))
            fmt = "mxfp8" if op == "quantize_mxfp8" else "nvfp4_2d" if tiles_2d else "nvfp4"
            self.counts["format." + fmt] += 1
            if mode.kind == "stochastic":
                self.counts["stochastic_rounding"] += 1
            key = (_digest(data), data.shape)
            if tiles_2d and mode.kind == "nearest":
                # 2D tile quantization commutes with transpose, so quantizing
                # w.T after w is repeated work
                key = min(key, (_digest(data.T), data.T.shape))
            self._repeat(op, key + (data.dtype.str, repr(rest)))
            return data.size

        return inspect

    def _inspect_hadamard(self, args, kwargs):
        self._repeat("random_hadamard", (args, tuple(sorted(kwargs.items()))))
        return 0

    def _inspect_rht(self, args, kwargs):
        self.counts["rht"] += 1
        return 0

    def install(self):
        inspectors = {
            "matmul_exact": self._inspect_matmul,
            "quantize_nvfp4": self._inspect_quantize("quantize_nvfp4"),
            "quantize_mxfp8": self._inspect_quantize("quantize_mxfp8"),
            "random_hadamard": self._inspect_hadamard,
            "apply_rht": self._inspect_rht,
        }
        targets = [(T, n) for n in TENSOR_OPS] + [(Q, n) for n in QUANT_OPS]
        targets += [(Q.QuantizedTensorNVFP4, "dequantize"), (Q.QuantizedTensorMXFP8, "dequantize")]
        for owner, name in targets:
            orig = getattr(owner, name)
            self._saved.append((owner, name, orig))
            setattr(owner, name, self._wrap(name, orig, inspectors.get(name)))

    def uninstall(self):
        while self._saved:
            owner, name, orig = self._saved.pop()
            setattr(owner, name, orig)

    # -- aggregation --------------------------------------------------------

    def summary(self, iterations: int, wall_s: float) -> dict[str, float]:
        """Per-iteration layer metrics over all spans recorded so far."""
        total, covered = defaultdict(float), 0.0
        for name, phase, kind, dur, self_s, work in self.spans:
            covered += self_s
            if name in NAMED_TENSOR_OPS:
                total[f"tensor.{name}.{phase}_s"] += dur
                if name == "matmul_exact":
                    total["tensor.matmul_exact.calls"] += 1
                    total["tensor.matmul_exact.gflop"] += work / 1e9
            elif name in DISPATCH_OPS:
                total["tensor.dispatch_s"] += self_s
            elif name == "backward":
                total["tensor.backward_s"] += dur
            elif name in ("quantize_nvfp4", "quantize_mxfp8"):
                total[f"quant.{name}.s"] += dur
                total[f"quant.{name}.elems"] += work
            elif name == "quantized_linear":
                total["quant.quantized_linear.self_s"] += self_s
                total[f"kind.{kind}.s"] += dur
            elif name in QUANT_TIMES:
                total[QUANT_TIMES[name]] += dur
            else:
                total["tensor.other_s"] += self_s
        out = {k: v / iterations for k, v in total.items()}
        mm_s = total["tensor.matmul_exact.fwd_s"] + total["tensor.matmul_exact.bwd_s"]
        out["tensor.matmul_exact.gflops"] = total["tensor.matmul_exact.gflop"] / mm_s if mm_s > 0 else 0.0
        for op in ("quantize_nvfp4", "quantize_mxfp8", "random_hadamard"):
            out[f"quant.{op}.calls"] = self.counts[op + ".calls"] / iterations
        for op in ("quantize_nvfp4", "random_hadamard"):
            calls = self.counts[op + ".calls"]
            out[f"quant.{op}.repeat_frac"] = self.counts[op + ".repeats"] / calls if calls else 0.0
        out["trace.coverage"] = covered / wall_s
        return out
