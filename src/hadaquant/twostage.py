"""Two-stage codec for inner-product estimation.

The base code stores the input's norm and quantizes its unit direction
(stage 1); the decoded direction is projected onto the unit ball, which caps
the residual norm at 2. Stage 2 encodes that residual with the sign-bit codec
under an independent sign diagonal. Decoding adds the two reconstructions and
scales the sum by the stored norm; the residual stage decorrelates the total
error from any fixed query direction.
"""

from dataclasses import dataclass

import numpy as np

from . import residual, vquant
from .residual import ResidualCode, residual_dequant, residual_quant
from .transform import check_vector
from .vquant import (
    _DECODE_CHECK_NORM,
    QuantConfig,
    VectorCode,
    _decode_padded_unit,
    _quantize,
    _scale_decoded,
)


@dataclass(frozen=True)
class TwoStageCode:
    """Base code + residual code + the config snapshot they were made under."""

    base: VectorCode
    residual: ResidualCode
    config: QuantConfig


def check_code(code: TwoStageCode) -> None:
    """Raise ValueError unless both stages are well formed under code.config."""
    vquant.check_code(code.base, code.config)
    residual.check_code(code.residual, code.config)


def project_unit_ball(v) -> np.ndarray:
    """Identity inside the unit ball, radial projection outside; always a new array."""
    v = np.asarray(v, dtype=np.float64)
    return v / max(1.0, float(np.linalg.norm(v)))


def quantize_two_stage(x, config: QuantConfig, seed: int, vec_counter: int) -> TwoStageCode:
    """Encode any finite vector: its norm once, its direction in two stages.

    Both stages key their randomness off (seed, vec_counter), which the base
    code carries for the residual stage too. The base stage's sign diagonal
    and dither are derived once and reused to decode it here. Raises ValueError
    for a complex or non-finite x, tokens outside [0, 2**64) or an overflowing decode.
    """
    base, target, draws = _quantize(x, config, seed, vec_counter)
    if draws is not None:
        # The decoder recomputes the identical projected point, so the residual
        # is defined against exactly what the decoder will see.
        target -= project_unit_ball(_decode_padded_unit(base, config, draws))
    code = TwoStageCode(base, residual_quant(target, config, seed, vec_counter), config)
    if base.norm > _DECODE_CHECK_NORM:
        dequantize_two_stage(code)  # raises if the decode overflows
    return code


def dequantize_two_stage(code: TwoStageCode) -> np.ndarray:
    """Decode: stored norm times (projected base reconstruction plus residual).

    Raises ValueError unless check_code passes, or when a coordinate of the
    decode lies beyond the float64 range. Each stage is checked once, the
    residual inside residual_dequant.
    """
    config, base = code.config, code.base
    vquant.check_code(base, config)
    rhat = residual_dequant(code.residual, config, base.seed, base.vec_counter)
    if base.norm == 0.0:
        return np.zeros(config.dim)
    approx = project_unit_ball(_decode_padded_unit(base, config))
    return _scale_decoded(base.norm, (approx + rhat)[: config.dim])


def estimate_inner_product(code: TwoStageCode, y) -> float:
    """Inner product of a real, finite y of length config.dim with the decoded vector.

    Raises ValueError when that product lies beyond the float64 range.
    """
    y = check_vector("query vector", y, code.config.dim)
    decoded = dequantize_two_stage(code)
    with np.errstate(over="ignore", invalid="ignore"):
        ip = float(y @ decoded)
    if not np.isfinite(ip):
        raise ValueError("the inner product with the query vector exceeds the float64 range")
    return ip
