"""Desk-scale hybrid Mamba/MoE/attention LM laboratory.

Modules: the dense tensor/autodiff substrate with its exact-order GEMM
(`tensor`), bit-exact low-precision formats, simulated quantized GEMMs and
the per-layer precision policy (`quant`), and the typed errors (`errors`).
"""

__version__ = "0.1.0"
