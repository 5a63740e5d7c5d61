"""Hybrid-stack training benchmark for hybridlm.

Run from the repository root:

    python3 perfbench/run.py --workload train_wide_nvfp4 --seed 1 --seconds 20 --trace 0

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``. The line before it
is the run record (machine, versions, GEMM kernel, seed, loss trajectory).
Records and traced spans are also written under ``.perfbench_out/``.
See ``perfbench/README.md`` for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
from collections import defaultdict
from pathlib import Path
from time import perf_counter

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"

WIDE = dict(pattern="MEAE", vocab=512, d_model=256, seq_len=256, attn_heads=8, ssm_heads=8, ssm_state=16,
            conv_width=4, experts=8, top_k=2, latent=128, expert_ffn=256, shared_ffn=256,
            policy="nvfp4", lr=0.1)
LONG = dict(pattern="MMME", vocab=128, d_model=32, seq_len=2048, attn_heads=1, ssm_heads=4, ssm_state=32,
            conv_width=4, experts=4, top_k=2, latent=16, expert_ffn=64, shared_ffn=64,
            policy="reference", lr=0.1)
# workload -> (stack shape, closed-loop schedule). The first op of the
# schedule is the workload's primary loop; the others are interleaved so
# every workload reports every end-to-end metric from samples spread over
# the whole run rather than from one burst.
WORKLOADS = {
    "train_wide_nvfp4": (WIDE, ("train", "train", "export_eval")),
    "train_long_ref": (LONG, ("train", "export_eval")),
    "export_eval_nvfp4": (WIDE, ("export_eval",) * 3 + ("train",)),
}
TRAIN_SEQS, HELDOUT_SEQS = 32, 8
REPLAY_STEPS = 2
MIN_SAMPLES = 3
MIN_EXPORT_S = 0.02

END_TO_END = {
    "train_tok_s": "tok/s", "eval_tok_s": "tok/s", "export_s": "s", "export_bytes": "bytes",
    "grad_cosine": "1", "setup_s": "s", "peak_rss_mb": "MB",
}


def per_layer_units(kinds) -> dict[str, str]:
    """Every per-layer metric name with its unit."""
    units = {}
    for op in ("matmul_exact", "mamba_scan", "causal_softmax", "causal_conv1d"):
        units[f"tensor.{op}.fwd_s"] = units[f"tensor.{op}.bwd_s"] = "s"
    units.update({"tensor.matmul_exact.calls": "count", "tensor.matmul_exact.gflop": "GFLOP",
                  "tensor.matmul_exact.gflops": "GFLOP/s", "tensor.dispatch_s": "s", "tensor.other_s": "s",
                  "tensor.backward_s": "s", "tensor.tape_nodes": "count"})
    units.update({"quant.quantize_nvfp4.s": "s", "quant.quantize_nvfp4.calls": "count",
                  "quant.quantize_nvfp4.elems": "count", "quant.quantize_nvfp4.repeat_frac": "1",
                  "quant.quantize_mxfp8.s": "s", "quant.quantize_mxfp8.calls": "count",
                  "quant.quantize_mxfp8.elems": "count", "quant.rht_s": "s",
                  "quant.random_hadamard.calls": "count", "quant.random_hadamard.repeat_frac": "1",
                  "quant.quantized_linear.self_s": "s", "quant.to_bytes_s": "s", "quant.from_bytes_s": "s",
                  "quant.dequantize_s": "s"})
    for k in kinds:
        units[f"kind.{k.value}.s"] = "s"
        units[f"kind.{k.value}.grad_cosine"] = "1"
    units.update({"step.fwd_s": "s", "step.bwd_s": "s", "step.update_s": "s",
                  "trace.overhead": "1", "trace.coverage": "1"})
    return units


def import_library():
    """Import hybridlm from this checkout's ``src``; exit non-zero if absent."""
    sys.path[:0] = [str(SRC), str(Path(__file__).resolve().parent)]
    try:
        import hybridlm
    except ImportError as exc:
        sys.exit(f"perfbench: cannot import hybridlm from {SRC}: {exc}")
    if Path(hybridlm.__file__).resolve().parent.parent != SRC.resolve():
        sys.exit(f"perfbench: hybridlm imported from {hybridlm.__file__}, not from {SRC}")


def bits_equal(a, b) -> bool:
    a, b = np.ascontiguousarray(a), np.ascontiguousarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def grads_equal(a, b) -> bool:
    return (a is None and b is None) or (a is not None and b is not None and bits_equal(a, b))


def median(xs) -> float:
    return float(statistics.median(xs))


def timed(fn, *args):
    """(result, seconds) of one call."""
    t0 = perf_counter()
    out = fn(*args)
    return out, perf_counter() - t0


def cosine(a: np.ndarray | None, b: np.ndarray | None) -> float | None:
    if a is None or b is None:
        return None
    a, b = a.astype(np.float64).ravel(), b.astype(np.float64).ravel()
    na, nb = np.linalg.norm(a), np.linalg.norm(b)
    return float(a @ b / (na * nb)) if na > 0 and nb > 0 else None


class GemmChecker:
    """Bit-exact spot check of ``matmul_exact`` calls against ``matmul_oracle``.

    Each output element depends only on its own row of ``a`` and column of
    ``b``, so a sampled block of the output is recomputed from the matching
    operand slices and must match bit for bit, whatever kernel ran.
    """

    def __init__(self, T, Q, seed: int, rows: int = 2, cols: int = 2):
        self._T, self._Q = T, Q
        self._rng = np.random.default_rng(seed)
        self._rows, self._cols = rows, cols
        self._saved = []
        self.checked = self.mismatched = 0

    def _wrap(self, orig):
        def checked(a, b):
            out = orig(a, b)
            if out.dtype == np.float32 and out.size:
                r = self._rng.choice(out.shape[0], min(self._rows, out.shape[0]), replace=False)
                c = self._rng.choice(out.shape[1], min(self._cols, out.shape[1]), replace=False)
                ref = self._T.matmul_oracle(np.asarray(a)[r], np.asarray(b)[:, c])
                self.checked += 1
                self.mismatched += not bits_equal(out[np.ix_(r, c)], ref)
            return out

        return checked

    def __enter__(self):
        for mod in (self._T, self._Q):
            self._saved.append((mod, mod.matmul_exact))
            mod.matmul_exact = self._wrap(mod.matmul_exact)
        return self

    def __exit__(self, *exc):
        while self._saved:
            mod, orig = self._saved.pop()
            mod.matmul_exact = orig


class Phases:
    """Wall time per phase of traced iterations; tells the tracer the current phase."""

    def __init__(self, tracer=None):
        self.tracer = tracer
        self.totals: dict[str, float] = defaultdict(float)
        self._cur, self._t = None, 0.0

    def __call__(self, phase):
        now = perf_counter()
        if self._cur is not None:
            self.totals[self._cur] += now - self._t
        self._cur, self._t = phase, now
        if self.tracer is not None:
            self.tracer.phase = phase


class Session:
    """One benchmark run of one workload."""

    def __init__(self, workload: str, seed: int, seconds: float, trace: bool):
        import stack as S
        from hybridlm import quant as Q
        from hybridlm import tensor as T
        from tracer import Tracer

        self.S, self.Q, self.T = S, Q, T
        self.workload, self.seed, self.seconds, self.trace = workload, seed, seconds, trace
        shape, self.schedule = WORKLOADS[workload]
        self.cfg = S.StackConfig(**shape)
        self.attempted = self.failed = 0
        self.checks: dict[str, bool] = {}
        self.losses: list[list[float]] = []
        self.eval_losses: list[float] = []
        self.samples: dict[str, list[float]] = {"train": [], "export": [], "eval": []}
        self.setup_times: list[float] = []
        self._setup_digest: int | None = None
        self.untraced_s: list[float] = []
        self.traced_s: list[float] = []
        self.tracer = Tracer(None) if trace else None
        self.phases = Phases(self.tracer)

    def check(self, name: str, ok: bool) -> bool:
        self.checks[name] = self.checks.get(name, True) and bool(ok)
        return bool(ok)

    def count(self, ok: bool):
        """Count one attempted operation (training step or export-and-eval)."""
        self.attempted += 1
        self.failed += not ok

    # -- phases of the run --------------------------------------------------

    def build(self):
        """One timed set-up: corpus and stack from the seed, identical every time."""
        c = self.cfg
        t0 = perf_counter()
        corpus = self.S.make_corpus(c.vocab, c.seq_len + 2, TRAIN_SEQS + HELDOUT_SEQS, self.seed)
        stack = self.S.HybridStack(c, self.seed)
        self.setup_times.append(perf_counter() - t0)
        digest = hash((corpus.tobytes(),) + tuple(p.data.tobytes() for p in stack.params.values()))
        if self._setup_digest is None:
            self._setup_digest = digest
        self.check("setup_deterministic", digest == self._setup_digest)
        return corpus, stack

    def setup(self):
        """Build the stack twice: one to run, one for the replay."""
        corpus, self.stack = self.build()
        _, self.replay_stack = self.build()
        self.train_ids, self.heldout_ids = corpus[:TRAIN_SEQS], corpus[TRAIN_SEQS:]
        if self.tracer is not None:
            self.tracer.stack = self.stack
        used = {(p.x_format.value, p.w_format.value, p.grad_format.value) for _, p in self.stack.linears.values()}
        self.precisions = sorted(used)
        if self.cfg.policy == "nvfp4":
            formats = {f for triple in used for f in triple}
            self.check("all_formats_used", formats >= {"reference", "nvfp4", "nvfp4_2d", "mxfp8"})

    def train(self, k: int, traced: bool) -> dict[str, float]:
        """Training step ``k`` on the stack; step 0 also yields ``grad_cosine``."""
        S, stack = self.S, self.stack
        if k == 0:
            self.reference_grads = S.reference_grads(stack, self.train_ids[0])
        tape = self.tracer.tape if traced else self.T.Tape
        t0 = perf_counter()
        loss, main = S.train_step(stack, self.train_ids[k % TRAIN_SEQS], tape, self.phases if traced else None)
        dt = perf_counter() - t0
        ok = self.check("finite_loss", np.isfinite(loss) and np.isfinite(main))
        if k == 0:
            # step 0 ran the policy on the same weights and batch as the reference pass
            self.policy_grads = {n: stack.params[n].grad for n in stack.linears}
            self._grad_cosine()
        self.losses.append([loss, main])
        self.count(ok)
        return {"train": dt}

    def _grad_cosine(self):
        per_kind = defaultdict(list)
        for name, (kind, _) in self.stack.linears.items():
            cos = cosine(self.policy_grads[name], self.reference_grads[name])
            if cos is not None:
                per_kind[kind.value].append(cos)
        self.kind_cosine = {k: float(np.mean(v)) for k, v in per_kind.items()}
        self.grad_cosine = float(np.mean([c for v in per_kind.values() for c in v]))

    def export_eval(self, k: int, traced: bool) -> dict[str, float]:
        """Export ``k`` of the stack and one eval pass on a held-out sequence."""
        S, stack = self.S, self.stack
        ids = self.heldout_ids[k % HELDOUT_SEQS]
        mark = self.phases if traced else (lambda phase: None)
        mark("export")
        # untraced, repeat back to back until MIN_EXPORT_S has passed, so a
        # sub-millisecond export is timed over enough work to outlast cache
        # and timer noise; traced, export once so spans are per export
        t0, reps = perf_counter(), 0
        while not reps or (not traced and perf_counter() - t0 < MIN_EXPORT_S):
            restored, nbytes, pairs = S.export_model(stack)
            reps += 1
        t_export = (perf_counter() - t0) / reps
        mark("fwd")
        loss, t_eval = timed(S.eval_loss, stack, ids, restored)
        mark(None)
        self.export_bytes = nbytes
        ok = self.check("finite_loss", np.isfinite(loss))
        if k == 0:
            ok &= self.check("export_roundtrip", self._roundtrip_ok(restored, pairs))
            in_memory = {n: self.T.Tensor(pairs[n][0].dequantize()) if n in pairs else t
                         for n, t in stack.params.items()}
            ok &= self.check("restored_eval_equal", S.eval_loss(stack, ids, in_memory) == loss)
        self.eval_losses.append(loss)
        self.count(ok)
        return {"export": t_export, "eval": t_eval}

    def _roundtrip_ok(self, restored, pairs) -> bool:
        Q = self.Q
        for name, t in self.stack.params.items():
            if name not in pairs:
                if not bits_equal(restored[name].data, t.data):
                    return False
                continue
            q, back = pairs[name]
            same = back.shape == q.shape and bits_equal(back.codes, q.codes)
            if isinstance(q, Q.QuantizedTensorNVFP4):
                same &= (back.layout == q.layout and bits_equal(back.block_scales, q.block_scales)
                         and bits_equal(back.global_scale, q.global_scale))
            else:
                same &= bits_equal(back.scale_exps, q.scale_exps)
            if not (same and bits_equal(restored[name].data, q.dequantize())):
                return False
        return True

    def replay(self):
        """Re-run the first steps on the identical second stack; all must match bit for bit."""
        S, stack = self.S, self.replay_stack
        for i, expected in enumerate(self.losses[:REPLAY_STEPS]):
            ok = self.check("loss_sequence_deterministic", list(S.train_step(stack, self.train_ids[i])) == expected)
            if i == 0:
                same = all(grads_equal(stack.params[n].grad, g) for n, g in self.policy_grads.items())
                ok &= self.check("grad_cosine_deterministic", same)
            self.count(ok)

    def run(self):
        """Closed loop over the workload's schedule for ``seconds``, then the replay.

        The first op of each kind is warm-up: it is not timed, and every
        ``matmul_exact`` call in it is spot-checked. With tracing on, every
        other later op of the schedule's first kind runs wrapped; secondary
        ops never do. Each pass through the schedule also repeats the timed
        set-up, so ``setup_s`` samples the whole run, not one moment of it.
        """
        self.setup()
        ops = {"train": self.train, "export_eval": self.export_eval}
        done = dict.fromkeys(ops, 0)
        gemm = GemmChecker(self.T, self.Q, self.seed)
        start, i = perf_counter(), 0
        while True:
            if i and i % len(self.schedule) == 0:
                self.build()
            name = self.schedule[i % len(self.schedule)]
            k = done[name]
            primary = name == self.schedule[0]
            traced = self.trace and primary and k % 2 == 0 and k > 0
            if k == 0:
                with gemm:
                    ops[name](k, False)
            else:
                if traced:
                    self.tracer.install()
                    self.tracer.iteration()
                t0 = perf_counter()
                times = ops[name](k, traced)
                dt = perf_counter() - t0
                if traced:
                    self.tracer.uninstall()
                    self.traced_s.append(dt)
                else:
                    for key, t in times.items():
                        self.samples[key].append(t)
                    if primary:
                        self.untraced_s.append(dt)
            done[name] += 1
            i += 1
            if perf_counter() - start >= self.seconds and self._enough():
                break
        self.check("gemm_slices_bit_exact", gemm.checked > 0 and gemm.mismatched == 0)
        self.gemm_checked = gemm.checked
        self.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        self.replay()

    def _enough(self) -> bool:
        keys = {"train": ("train",), "export_eval": ("export", "eval")}
        sampled = all(len(self.samples[key]) >= MIN_SAMPLES for op in self.schedule for key in keys[op])
        return sampled and (not self.trace or len(self.traced_s) >= MIN_SAMPLES)

    # -- results ------------------------------------------------------------

    def metrics(self) -> dict[str, dict]:
        if self.trace:
            return self._per_layer()
        t = self.cfg.seq_len
        values = {
            "train_tok_s": t / median(self.samples["train"]),
            "eval_tok_s": t / median(self.samples["eval"]),
            "export_s": median(self.samples["export"]),
            "export_bytes": self.export_bytes,
            "grad_cosine": self.grad_cosine,
            "setup_s": median(self.setup_times),
            "peak_rss_mb": self.peak_rss_mb,
        }
        return {k: {"value": v, "unit": END_TO_END[k]} for k, v in values.items()}

    def _per_layer(self) -> dict[str, dict]:
        n = len(self.traced_s)
        values = self.tracer.summary(n, sum(self.traced_s))
        for phase in ("fwd", "bwd", "update"):
            values[f"step.{phase}_s"] = self.phases.totals.get(phase, 0.0) / n
        values["tensor.tape_nodes"] = self.tracer.counts["tape_nodes"] / n
        values["trace.overhead"] = median(self.traced_s) / median(self.untraced_s) - 1.0
        for kind, cos in self.kind_cosine.items():
            values[f"kind.{kind}.grad_cosine"] = cos
        units = per_layer_units(self.Q.LayerKind)
        return {k: {"value": float(values.get(k, 0.0)), "unit": u} for k, u in units.items()}

    def record(self, result) -> dict:
        mm = getattr(self.T, "_mm_kernel", None)
        return {
            "workload": self.workload, "seed": self.seed, "seconds": self.seconds, "trace": int(self.trace),
            "machine": machine(), "python": platform.python_version(), "numpy": np.__version__,
            "mm_kernel": None if mm is None else f"{type(mm).__name__} {mm.__module__}.{mm.__qualname__}",
            "use_numba": getattr(self.T, "_USE_NUMBA", None),
            "config": self.cfg.__dict__, "schedule": self.schedule, "precisions": self.precisions,
            "loss_trajectory": self.losses, "final_loss": self.losses[-1] if self.losses else None,
            "eval_losses": self.eval_losses, "checks": self.checks, "gemm_slices_checked": self.gemm_checked,
            "samples_s": self.samples, "setup_s": self.setup_times,
            "traced_op_s": self.traced_s, "untraced_op_s": self.untraced_s,
            "trace_counts": dict(self.tracer.counts) if self.tracer else None,
            "result": result,
        }


def machine() -> dict:
    model = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            model = next((ln.split(":", 1)[1].strip() for ln in f if ln.startswith("model name")), model)
    except OSError:
        pass
    return {"cpu": model, "nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
            "platform": platform.platform()}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    import_library()

    session = Session(args.workload, args.seed, args.seconds, bool(args.trace))
    session.run()
    metrics = session.metrics()
    result = {"correct": all(session.checks.values()) and session.failed == 0,
              "attempted": session.attempted, "failed": session.failed, "metrics": metrics}
    record = session.record(result)
    OUT_DIR.mkdir(exist_ok=True)
    stem = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    stem.with_suffix(".json").write_text(json.dumps(record, indent=1))
    if session.tracer is not None:
        stem.with_suffix(".spans.json").write_text(json.dumps(session.tracer.spans))
    print("record " + json.dumps(record))
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
