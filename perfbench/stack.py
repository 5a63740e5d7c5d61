"""A small hybrid Mamba / MoE / attention language model for the benchmark.

The stack is composed only from the public functions of ``hybridlm.tensor``
and ``hybridlm.quant``. It lives in the benchmark, not in the library, so
that every library change is measured against the same composition.

Every library function is called through its module attribute (``T.matmul``,
``Q.quantized_linear``), never through a name bound at import, so the tracer
in ``tracer.py`` can wrap it from outside. The stack itself never wraps
anything: untraced runs call the library unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from hybridlm import quant as Q
from hybridlm import tensor as T
from hybridlm.errors import PatternParseError

LAYER_CHARS = {"M": "mamba", "E": "moe", "A": "attention"}


@dataclass(frozen=True)
class StackConfig:
    """Shape and precision of one stack.

    ``pattern`` has one character per composite layer: ``M`` Mamba, ``E``
    top-k MoE, ``A`` causal attention. ``policy`` is the ``base`` of the
    library's ``PrecisionPolicy`` (``"nvfp4"`` or ``"reference"``); its
    default 0.15 high-precision tail is kept.
    """

    pattern: str
    vocab: int
    d_model: int
    seq_len: int
    attn_heads: int
    ssm_heads: int
    ssm_state: int
    conv_width: int
    experts: int
    top_k: int
    latent: int
    expert_ffn: int
    shared_ffn: int
    policy: str
    lr: float
    mtp_weight: float = 0.3

    def __post_init__(self):
        bad = sorted(set(self.pattern) - set(LAYER_CHARS))
        if not self.pattern or bad:
            raise PatternParseError(f"layer pattern {self.pattern!r} has illegal characters {bad}")


def make_corpus(vocab: int, length: int, count: int, seed: int) -> np.ndarray:
    """``count`` token sequences of ``length`` from a seeded sparse Markov chain.

    Each token has four likely successors with Dirichlet weights, so a model
    can learn the bigram table and the loss falls well below log(vocab).
    """
    rng = np.random.default_rng(seed)
    succ = rng.integers(0, vocab, size=(vocab, 4))
    cum = np.cumsum(rng.dirichlet(np.full(4, 0.5), size=vocab), axis=1)
    seqs = np.empty((count, length), np.int64)
    seqs[:, 0] = rng.integers(0, vocab, size=count)
    u = rng.random((count, length))
    for t in range(1, length):
        prev = seqs[:, t - 1]
        pick = np.minimum((u[:, t, None] > cum[prev]).sum(axis=1), 3)
        seqs[:, t] = succ[prev, pick]
    return seqs


class HybridStack:
    """Parameters, precisions and the differentiable loss of the stack.

    ``linears`` maps each linear weight's name to its ``LayerKind`` and the
    ``LinearPrecision`` that ``linear_precision`` gave it. The stack is built
    deterministically from ``seed``.
    """

    def __init__(self, cfg: StackConfig, seed: int):
        self.cfg = cfg
        self.params: dict[str, T.Tensor] = {}
        self.linears: dict[str, tuple[Q.LayerKind, Q.LinearPrecision]] = {}
        self.active_kind: Q.LayerKind | None = None
        self._seed = seed
        self._rng = np.random.default_rng(seed)
        self._policy = Q.PrecisionPolicy(base=cfg.policy)
        d, n_layers = cfg.d_model, len(cfg.pattern)
        self._param("embed", (cfg.vocab, d), 1.0)
        for i, ch in enumerate(cfg.pattern):
            self._ones(f"{i}.norm", d)
            getattr(self, "_init_" + LAYER_CHARS[ch])(i)
        last = n_layers - 1
        self._ones("norm_f", d)
        self._ones("mtp_norm_h", d)
        self._ones("mtp_norm_e", d)
        self._ones("mtp_norm_out", d)
        self._linear("mtp_mix", Q.LayerKind.MTP_MIX, last, 2 * d, d)
        self._linear("lm_head", Q.LayerKind.LM_HEAD, last, d, cfg.vocab)
        del self._rng

    # -- construction -------------------------------------------------------

    def _param(self, name, shape, std):
        self.params[name] = T.randn(shape, self._rng, std=std, requires_grad=True)

    def _ones(self, name, n):
        self.params[name] = T.ones((n,), requires_grad=True)

    def _linear(self, name, kind, index, fan_in, fan_out):
        self._param(name, (fan_in, fan_out), fan_in ** -0.5)
        desc = Q.LayerDescriptor(kind, index, len(self.cfg.pattern))
        seed = self._seed * 4096 + 4 * len(self.linears)
        self.linears[name] = (kind, Q.linear_precision(desc, self._policy, seed))

    def _init_mamba(self, i):
        c = self.cfg
        inner = 2 * c.d_model
        width = 2 * inner + 2 * c.ssm_state + c.ssm_heads
        self._linear(f"{i}.in_proj", Q.LayerKind.MAMBA_IN_PROJ, i, c.d_model, width)
        self._param(f"{i}.conv_w", (c.conv_width, inner), c.conv_width ** -0.5)
        self.params[f"{i}.conv_b"] = T.zeros((inner,), requires_grad=True)
        self.params[f"{i}.dt_bias"] = T.tensor(np.full(c.ssm_heads, -2.0, np.float32), requires_grad=True)
        a_log = np.log(np.linspace(1.0, 8.0, c.ssm_heads)).astype(np.float32)
        self.params[f"{i}.a_log"] = T.tensor(a_log, requires_grad=True)
        self.params[f"{i}.d_skip"] = T.ones((c.ssm_heads,), requires_grad=True)
        self._linear(f"{i}.out_proj", Q.LayerKind.MAMBA_OUT_PROJ, i, inner, c.d_model)

    def _init_attention(self, i):
        d = self.cfg.d_model
        self._linear(f"{i}.qkv", Q.LayerKind.QKV_PROJ, i, d, 3 * d)
        self._linear(f"{i}.attn_out", Q.LayerKind.ATTN_OUT_PROJ, i, d, d)

    def _init_moe(self, i):
        c = self.cfg
        self._linear(f"{i}.router", Q.LayerKind.ROUTER_GATE, i, c.d_model, c.experts)
        self._linear(f"{i}.latent_down", Q.LayerKind.LATENT_DOWN, i, c.d_model, c.latent)
        for e in range(c.experts):
            self._linear(f"{i}.expert{e}.up", Q.LayerKind.EXPERT_FFN, i, c.latent, c.expert_ffn)
            self._linear(f"{i}.expert{e}.down", Q.LayerKind.EXPERT_FFN, i, c.expert_ffn, c.latent)
        self._linear(f"{i}.latent_up", Q.LayerKind.LATENT_UP, i, c.latent, c.d_model)
        self._linear(f"{i}.shared_up", Q.LayerKind.SHARED_EXPERT, i, c.d_model, c.shared_ffn)
        self._linear(f"{i}.shared_down", Q.LayerKind.SHARED_EXPERT, i, c.shared_ffn, c.d_model)

    # -- forward ------------------------------------------------------------

    def loss(self, ids: np.ndarray, params: dict | None = None, reference: bool = False):
        """(total loss, next-token loss) on one sequence of ``seq_len + 2`` ids.

        ``params`` replaces the stack's parameters (restored exports);
        ``reference`` runs every linear at reference precision.
        """
        self._p = self.params if params is None else params
        self._reference = reference
        c, p = self.cfg, self._p
        t = c.seq_len
        x = T.embedding(p["embed"], ids[:t])
        for i, ch in enumerate(c.pattern):
            x = getattr(self, "_" + LAYER_CHARS[ch])(i, x)
        h = T.rms_norm(x, p["norm_f"])
        main = T.cross_entropy(self._lin("lm_head", h), ids[1 : t + 1])
        # multi-token prediction: mix h_t with the embedding of token t+1 to predict t+2
        e_next = T.rms_norm(T.embedding(p["embed"], ids[1 : t + 1]), p["mtp_norm_e"])
        m = self._lin("mtp_mix", T.concat_cols([T.rms_norm(h, p["mtp_norm_h"]), e_next]))
        mtp = T.cross_entropy(self._lin("lm_head", T.rms_norm(m, p["mtp_norm_out"])), ids[2 : t + 2])
        return main + T.scale(mtp, c.mtp_weight), main

    def _lin(self, name, x):
        kind, prec = self.linears[name]
        self.active_kind = kind
        try:
            return Q.quantized_linear(x, self._p[name], Q.REFERENCE_LINEAR if self._reference else prec)
        finally:
            self.active_kind = None

    def _mamba(self, i, x):
        c, p = self.cfg, self._p
        inner, n, h = 2 * c.d_model, c.ssm_state, c.ssm_heads
        proj = self._lin(f"{i}.in_proj", T.rms_norm(x, p[f"{i}.norm"]))
        xs = T.slice_cols(proj, 0, inner)
        z = T.slice_cols(proj, inner, 2 * inner)
        b = T.slice_cols(proj, 2 * inner, 2 * inner + n)
        cc = T.slice_cols(proj, 2 * inner + n, 2 * inner + 2 * n)
        dt = T.softplus(T.slice_cols(proj, 2 * inner + 2 * n, 2 * inner + 2 * n + h) + p[f"{i}.dt_bias"])
        xs = T.silu(T.causal_conv1d(xs, p[f"{i}.conv_w"], p[f"{i}.conv_b"]))
        a = T.scale(T.exp(p[f"{i}.a_log"]), -1.0)
        y, _ = T.mamba_scan(T.reshape(xs, (c.seq_len, h, inner // h)), dt, a, b, cc, p[f"{i}.d_skip"])
        y = T.mul(T.reshape(y, (c.seq_len, inner)), T.silu(z))
        return x + self._lin(f"{i}.out_proj", y)

    def _attention(self, i, x):
        c, p = self.cfg, self._p
        d, dh = c.d_model, c.d_model // c.attn_heads
        qkv = self._lin(f"{i}.qkv", T.rms_norm(x, p[f"{i}.norm"]))
        heads = []
        for j in range(c.attn_heads):
            q = T.slice_cols(qkv, j * dh, (j + 1) * dh)
            k = T.slice_cols(qkv, d + j * dh, d + (j + 1) * dh)
            v = T.slice_cols(qkv, 2 * d + j * dh, 2 * d + (j + 1) * dh)
            scores = T.scale(T.matmul(q, T.transpose2d(k)), dh ** -0.5)
            heads.append(T.matmul(T.causal_softmax(scores), v))
        return x + self._lin(f"{i}.attn_out", T.concat_cols(heads))

    def _moe(self, i, x):
        c, p = self.cfg, self._p
        u = T.rms_norm(x, p[f"{i}.norm"])
        probs = T.softmax(self._lin(f"{i}.router", u))
        top = np.argsort(-probs.data, axis=1, kind="stable")[:, : c.top_k]
        gate = T.gather_cols(probs, top)
        latent = self._lin(f"{i}.latent_down", u)
        routed = None
        for e in range(c.experts):
            rows, slots = np.nonzero(top == e)
            if rows.size == 0:
                continue
            he = T.silu(self._lin(f"{i}.expert{e}.up", T.take_rows(latent, rows)))
            ye = self._lin(f"{i}.expert{e}.down", he)
            we = T.reshape(T.take_elems(gate, rows, slots), (rows.size, 1))
            part = T.scatter_rows(T.mul(ye, we), rows, c.seq_len)
            routed = part if routed is None else routed + part
        shared = self._lin(f"{i}.shared_down", T.silu(self._lin(f"{i}.shared_up", u)))
        return x + self._lin(f"{i}.latent_up", routed) + shared

    # -- training and export ------------------------------------------------

    def zero_grad(self):
        for t in self.params.values():
            t.zero_grad()

    def sgd(self):
        lr = np.float32(self.cfg.lr)
        for t in self.params.values():
            if t.grad is not None:
                t.data -= lr * t.grad


def train_step(stack: HybridStack, ids, tape_factory: Callable = T.Tape, mark: Callable = None):
    """One fwd + bwd + SGD step. Returns the (total, next-token) loss floats.

    A non-finite loss skips backward and update and is returned as is, so
    the caller counts the step as failed; it is never patched over.
    ``mark(phase)`` is called at each phase boundary.
    """
    mark = mark or (lambda phase: None)
    stack.zero_grad()
    mark("fwd")
    with tape_factory() as tape:
        loss, main = stack.loss(ids)
    losses = loss.item(), main.item()
    if np.isfinite(losses).all():
        mark("bwd")
        T.backward(tape, loss)
        mark("update")
        stack.sgd()
    mark(None)
    return losses


def reference_grads(stack: HybridStack, ids) -> dict[str, np.ndarray | None]:
    """Linear-weight gradients on ``ids`` with every linear at reference precision."""
    stack.zero_grad()
    with T.Tape() as tape:
        loss, _ = stack.loss(ids, reference=True)
    T.backward(tape, loss)
    grads = {name: None if stack.params[name].grad is None else stack.params[name].grad.copy()
             for name in stack.linears}
    stack.zero_grad()
    return grads


def export_model(stack: HybridStack):
    """Quantize, serialize, restore and dequantize every parameter.

    Returns ``(restored, nbytes, pairs)``: the restored float32 parameters as
    Tensors, the total serialized size, and for each quantized weight the
    (in-memory, restored) quantized objects so callers can compare them.
    """
    restored, pairs, nbytes = {}, {}, 0
    for name, t in stack.params.items():
        fmt = stack.linears[name][1].w_format if name in stack.linears else Q.Format.REFERENCE
        if fmt == Q.Format.NVFP4_2D:
            q = Q.quantize_nvfp4(t.data, Q.Layout.BLOCK_2D)
        elif fmt == Q.Format.MXFP8:
            q = Q.quantize_mxfp8(t.data)
        else:
            raw = t.data.astype("<f4").tobytes()
            nbytes += len(raw)
            restored[name] = T.Tensor(np.frombuffer(raw, "<f4").reshape(t.shape).astype(np.float32))
            continue
        raw = Q.quantized_to_bytes(q)
        nbytes += len(raw)
        back = Q.quantized_from_bytes(raw)
        restored[name] = T.Tensor(back.dequantize())
        pairs[name] = (q, back)
    return restored, nbytes, pairs


def eval_loss(stack: HybridStack, ids, params) -> float:
    """Forward-only next-token loss with ``params``; no tape is active."""
    return stack.loss(ids, params=params)[1].item()
