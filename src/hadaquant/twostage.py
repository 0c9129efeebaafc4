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

from .residual import ResidualCode, residual_dequant, residual_quant
from .vquant import (
    QuantConfig,
    VectorCode,
    _decode_padded_unit,
    _quantize,
    _reject_overflowing_decode,
)


@dataclass(frozen=True)
class TwoStageCode:
    """Base code + residual code + the config snapshot they were made under."""

    base: VectorCode
    residual: ResidualCode
    config: QuantConfig


def project_unit_ball(v) -> np.ndarray:
    """Identity inside the unit ball, radial projection outside; always a new array."""
    v = np.asarray(v, dtype=np.float64)
    return v / max(1.0, float(np.linalg.norm(v)))


def quantize_two_stage(x, config: QuantConfig, seed: int, vec_counter: int) -> TwoStageCode:
    """Encode any finite vector: its norm once, its direction in two stages.

    Both stages key their randomness off (seed, vec_counter), which the base
    code carries for the residual stage too. The base stage's sign diagonal
    and dither are derived once and reused to decode it here. Raises
    ValueError only for a norm whose decode would overflow float64.
    """
    base, draws = _quantize(x, config, seed, vec_counter)
    target = np.zeros(config.padded_dim)
    if base.norm > 0.0:
        target[: config.dim] = np.asarray(x, dtype=np.float64) / base.norm
        # The decoder recomputes the identical projected point, so the residual
        # is defined against exactly what the decoder will see.
        target -= project_unit_ball(_decode_padded_unit(base, config, draws))
    residual = residual_quant(target, config.num_levels, seed, vec_counter)
    code = TwoStageCode(base, residual, config)
    _reject_overflowing_decode(base.norm, lambda: dequantize_two_stage(code))
    return code


def dequantize_two_stage(code: TwoStageCode) -> np.ndarray:
    """Decode: stored norm times (projected base reconstruction plus residual)."""
    config, base = code.config, code.base
    if base.norm == 0.0:
        return np.zeros(config.dim)
    approx = project_unit_ball(_decode_padded_unit(base, config))
    rhat = residual_dequant(code.residual, config.num_levels, base.seed, base.vec_counter)
    if rhat.shape != approx.shape:
        raise ValueError(f"residual length {rhat.shape} does not match {approx.shape}")
    return base.norm * (approx + rhat)[: config.dim]


def estimate_inner_product(code: TwoStageCode, y) -> float:
    """Inner product of y with the decoded vector."""
    y = np.asarray(y, dtype=np.float64)
    if y.ndim != 1 or y.shape[0] != code.config.dim:
        raise ValueError(f"expected a vector of length {code.config.dim}, got shape {y.shape}")
    if not np.all(np.isfinite(y)):
        raise ValueError("query vector has NaN or infinite coordinates")
    return float(y @ dequantize_two_stage(code))
