"""Whole-stack checks of the benchmark's hybrid stack (``perfbench/stack.py``), built from the library.

A float64 directional gradient check pins the tape's gradient of every op the stack composes, a floor
on each quantized kind's gradient cosine pins the NVFP4 recipe's pairing of its transforms, and a spy tape
pins the dtypes that the backward sweep hands each closure and that each closure returns.
"""

import sys
from pathlib import Path

import numpy as np
import pytest

import hybridlm.tensor as T

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import stack as S  # noqa: E402
from run import cosine  # noqa: E402

TINY = dict(pattern="MEAE", vocab=32, d_model=32, seq_len=24, attn_heads=2, ssm_heads=2, ssm_state=4,
            conv_width=4, experts=4, top_k=2, latent=8, expert_ffn=16, shared_ffn=16, policy="reference", lr=0.1)
EPS = (1e-4, 1e-5, 1e-6)
IDS = S.make_corpus(TINY["vocab"], TINY["seq_len"] + 2, 1, seed=0)[0]


def test_float64_tape_gradient_matches_a_central_difference(monkeypatch):
    """Along one seeded direction v, the tape's dL . v equals (L(p + eps v) - L(p - eps v)) / 2 eps up to
    the difference's O(eps^2) error, which falls 100x per decade of eps: 6.1e-6, 6.1e-8 and 3.5e-10 at
    1e-4, 1e-5 and 1e-6 with these seeds. A missing or wrong gradient term holds the error near its own
    size at every eps. Top-k routing is piecewise constant, so the check holds only where no step changes
    it."""
    stack = S.HybridStack(S.StackConfig(**TINY), seed=0)
    for t in stack.params.values():
        t.data = t.data.astype(np.float64)
    with T.Tape() as tape:
        loss, _ = stack.loss(IDS)
    T.backward(tape, loss)
    missing = [name for name, t in stack.params.items() if t.grad is None]
    assert not missing, missing

    rng = np.random.default_rng(1)
    base = {name: t.data.copy() for name, t in stack.params.items()}
    direction = {name: rng.standard_normal(t.shape) for name, t in stack.params.items()}
    tape_slope = sum(float((t.grad * direction[name]).sum()) for name, t in stack.params.items())

    routes, gather_cols = [], T.gather_cols

    def spy(x, idx):
        routes[-1].append(np.array(idx))
        return gather_cols(x, idx)

    monkeypatch.setattr(T, "gather_cols", spy)

    def loss_at(eps):
        for name, t in stack.params.items():
            t.data = base[name] + eps * direction[name]
        routes.append([])
        return stack.loss(IDS)[0].item()

    loss_at(0.0)
    errors = []
    for eps in EPS:
        slope = (loss_at(eps) - loss_at(-eps)) / (2 * eps)
        errors.append(abs(slope - tape_slope) / abs(tape_slope))
    assert all(len(r) == TINY["pattern"].count("E") for r in routes)
    assert all(np.array_equal(a, b) for r in routes[1:] for a, b in zip(r, routes[0])), "routing moved"
    assert errors[-1] < 1e-8, errors
    assert all(coarse >= 30 * fine for coarse, fine in zip(errors, errors[1:])), errors


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_every_quantized_linear_keeps_the_reference_gradient_direction(seed):
    """Step 0's NVFP4-policy weight gradients point along the reference ones: each quantized linear keeps a
    cosine of at least 0.8 (0.895 at the lowest, an expert FFN, over these seeds). Pairing M instead of M^T
    with the upstream gradient in the weight gradient's transform drops three kinds below 0.63 at each seed."""
    stack = S.HybridStack(S.StackConfig(**dict(TINY, policy="nvfp4")), seed=seed)
    reference = S.reference_grads(stack, IDS)
    S.train_step(stack, IDS)
    cosines = {name: cosine(stack.params[name].grad, reference[name])
               for name, (_, prec) in stack.linears.items() if prec.active}
    assert cosines and min(cosines.values()) >= 0.8, cosines


class _DtypeTape(T.Tape):
    """A tape that checks each closure's call: ``dout`` in its output's dtype, and every returned array or part
    in its input's dtype. ``ran`` names the closures called, ``wrong`` each that broke the rule."""

    def __init__(self):
        super().__init__()
        self.ran, self.wrong = set(), []

    def record(self, out, inputs, backward):
        name = backward.__qualname__.split(".", 1)[0]

        def checked(dout):
            grads = backward(dout)
            self.ran.add(name)
            got = [None if g is None else (g[1] if isinstance(g, tuple) else np.asarray(g)).dtype for g in grads]
            want = [t.data.dtype for t in inputs]
            if dout.dtype != out.data.dtype or any(g is not None and g != w for g, w in zip(got, want)):
                self.wrong.append((name, out.data.dtype, dout.dtype, want, got))
            return grads

        super().record(out, inputs, checked)


@pytest.mark.parametrize("policy, dtype", [("nvfp4", np.float32), ("reference", np.float32),
                                           ("reference", np.float64)])
def test_every_closure_gets_and_returns_the_dtypes_of_its_tensors(policy, dtype):
    """Over one training step of the stack, every closure gets ``dout`` in its output's dtype and returns each
    gradient in its input's dtype, so no closure needs a path for another dtype."""
    stack = S.HybridStack(S.StackConfig(**dict(TINY, policy=policy)), seed=0)
    for t in stack.params.values():
        t.data = t.data.astype(dtype)
    tape = _DtypeTape()
    S.train_step(stack, IDS, tape_factory=lambda: tape)
    assert {"silu", "mamba_scan", "rms_norm", "causal_conv1d", "causal_softmax", "softmax"} <= tape.ran
    assert tape.wrong == []
