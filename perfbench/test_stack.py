"""Checks of the benchmark itself. Run with ``python3 -m pytest perfbench``."""

import json

from hybridlm import quant as Q
from hybridlm import tensor as T

import run
import stack as S
from tracer import Tracer


def test_stack_reaches_every_layer_kind_through_linear_precision(monkeypatch):
    seen = []
    orig = Q.linear_precision

    def spy(desc, policy, seed):
        seen.append(desc.kind)
        return orig(desc, policy, seed)

    monkeypatch.setattr(Q, "linear_precision", spy)
    S.HybridStack(S.StackConfig(**run.WIDE), seed=0)
    assert set(seen) == set(Q.LayerKind)


def test_nvfp4_workload_step_runs_every_format_and_mechanism():
    stack = S.HybridStack(S.StackConfig(**run.WIDE), seed=0)
    ids = S.make_corpus(stack.cfg.vocab, stack.cfg.seq_len + 2, 1, seed=0)[0]
    originals = (T.matmul_exact, Q.matmul_exact, Q.quantize_nvfp4, Q.QuantizedTensorNVFP4.dequantize)
    tracer = Tracer(stack)
    tracer.install()
    try:
        S.train_step(stack, ids, tracer.tape)
    finally:
        tracer.uninstall()
    assert (T.matmul_exact, Q.matmul_exact, Q.quantize_nvfp4, Q.QuantizedTensorNVFP4.dequantize) == originals

    linear_kinds = {kind for name, _, kind, *_ in tracer.spans if name == "quantized_linear"}
    assert linear_kinds == {k.value for k in Q.LayerKind}
    for mechanism in ("format.nvfp4", "format.nvfp4_2d", "format.mxfp8", "rht", "stochastic_rounding"):
        assert tracer.counts[mechanism] > 0, mechanism
    reference = {kind.value for kind, prec in stack.linears.values() if not prec.active}
    assert reference and reference <= linear_kinds
    # the tail rule keeps the last MoE layer at reference precision
    assert not stack.linears["3.shared_up"][1].active and stack.linears["1.shared_up"][1].active


def test_benchmark_json_lists_the_metrics_the_run_prints():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.per_layer_units(Q.LayerKind)
    assert {w["name"] for w in spec["workloads"]} == set(run.WORKLOADS)
