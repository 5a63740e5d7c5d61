"""Differentiable ops that only the tests use, recorded through ``hybridlm.tensor._make``.

The library keeps no op without a caller in ``src/`` or ``perfbench/``;
``test_tensor.test_every_public_name_has_a_caller`` enforces that.
"""

import numpy as np

import hybridlm.tensor as T


def clamp(x: T.Tensor, lo: float, hi: float) -> T.Tensor:
    out = np.clip(x.data, lo, hi)
    mask = ((x.data >= lo) & (x.data <= hi)).astype(x.data.dtype)

    def bwd(dout):
        return (dout * mask,)

    return T._make(out, (x,), bwd)


def sum_all(x: T.Tensor) -> T.Tensor:
    out = np.asarray(x.data.sum(), dtype=x.data.dtype)

    def bwd(dout):
        return (np.broadcast_to(dout, x.shape).astype(x.data.dtype),)

    return T._make(out, (x,), bwd)


def mean_all(x: T.Tensor) -> T.Tensor:
    n = x.data.size
    out = np.asarray(x.data.mean(), dtype=x.data.dtype)

    def bwd(dout):
        return (np.broadcast_to(dout / n, x.shape).astype(x.data.dtype),)

    return T._make(out, (x,), bwd)
