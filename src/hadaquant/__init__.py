"""Dithered vector quantization behind one randomized Hadamard transform.

An unbiased vector codec with distortion (pi*sqrt(3)/2 + o(1)) / 4**bits per
unit vector, a two-stage residual codec for inner-product estimation, and a
bit-exact wire format whose payload never exceeds dim*bits + 3.73*dim bits.
"""

from .codebook import (
    BIASED,
    UNBIASED,
    build_codebook,
    cdf,
    inv_cdf,
    quantize_scalar,
)
from .transform import (
    apply_hd,
    apply_hd_inverse,
    fwht_normalized,
    sample_signs,
    stream_rng,
)
from .vquant import QuantConfig, VectorCode, vector_dequant, vector_quant
from .residual import (
    ResidualCode,
    residual_dequant,
    residual_quant,
    scalar_dequant,
    scalar_quant,
)
from .twostage import (
    TwoStageCode,
    dequantize_two_stage,
    estimate_inner_product,
    project_unit_ball,
    quantize_two_stage,
)
from .bitstream import WireFormatError, decode, encode, rate_report

__version__ = "0.1.0"

__all__ = [
    "BIASED",
    "UNBIASED",
    "QuantConfig",
    "VectorCode",
    "ResidualCode",
    "TwoStageCode",
    "WireFormatError",
    "apply_hd",
    "apply_hd_inverse",
    "build_codebook",
    "cdf",
    "decode",
    "dequantize_two_stage",
    "encode",
    "estimate_inner_product",
    "fwht_normalized",
    "inv_cdf",
    "project_unit_ball",
    "quantize_scalar",
    "quantize_two_stage",
    "rate_report",
    "residual_dequant",
    "residual_quant",
    "sample_signs",
    "scalar_dequant",
    "scalar_quant",
    "stream_rng",
    "vector_dequant",
    "vector_quant",
]
