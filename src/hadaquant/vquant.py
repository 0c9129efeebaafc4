"""Whole-vector quantization: norm extraction, padding, transform, bucketing.

A vector is stored as its full-precision norm plus per-coordinate bucket
indices of the transformed unit direction. Fresh randomness (sign diagonal
and dither offset) is derived deterministically from (seed, vec_counter),
so the decoder needs only those two tokens. Each encode derives that
randomness once: bucketing reads only the dither, and the two-stage codec
reuses the same draws to decode its base stage. A reconstruction table is
built only where a decode reads it.
"""

import math
from dataclasses import dataclass

import numpy as np

from .codebook import MODES, UNBIASED, build_codebook, quantize_scalar
from .transform import (
    STREAM_BASE_SIGNS,
    STREAM_DITHER,
    apply_hd,
    apply_hd_inverse,
    check_int,
    check_token,
    check_vector,
    sample_signs,
    sample_uniforms,
)


@dataclass(frozen=True)
class QuantConfig:
    """Dimensions, bit width and mode shared by encoder and decoder; checks that they are valid."""

    dim: int
    bits: int
    mode: str = UNBIASED

    def __post_init__(self):
        object.__setattr__(self, "dim", check_int("dim", self.dim, 1, math.inf))
        object.__setattr__(self, "bits", check_int("bits", self.bits, 1, 16))
        if self.mode not in MODES:
            raise ValueError(f"unknown mode {self.mode!r}")

    @property
    def padded_dim(self) -> int:
        """Smallest power of two >= dim."""
        return 1 << (self.dim - 1).bit_length()

    @property
    def num_levels(self) -> int:
        return 1 << self.bits


@dataclass(frozen=True)
class VectorCode:
    """Encoded vector: bucket indices, stored norm, and derivation tokens."""

    indices: np.ndarray  # (padded_dim,) uint16
    norm: float
    seed: int
    vec_counter: int


def check_code(code: VectorCode, config: QuantConfig) -> None:
    """Raise ValueError unless vector_quant can make code under config.

    Such a code has padded_dim integer indices in [0, num_levels), a finite
    norm >= 0, and seed and vec_counter integers in [0, 2**64).
    """
    check_token("seed", code.seed)
    check_token("vec_counter", code.vec_counter)
    indices = np.asarray(code.indices)
    if indices.shape != (config.padded_dim,) or indices.dtype.kind not in "iu":
        raise ValueError(f"need {config.padded_dim} integer indices, got {indices.dtype}")
    if int(indices.min()) < 0 or int(indices.max()) >= config.num_levels:
        raise ValueError(f"bucket index outside [0, {config.num_levels})")
    if not (math.isfinite(code.norm) and code.norm >= 0.0):
        raise ValueError(f"stored norm must be finite and >= 0, got {code.norm}")


def derive_base_signs(seed: int, vec_counter: int, padded_dim: int):
    return sample_signs(seed, (vec_counter, STREAM_BASE_SIGNS), padded_dim)


def derive_dither(seed: int, vec_counter: int) -> float:
    return sample_uniforms(seed, (vec_counter, STREAM_DITHER), None)


def scaled_norm(x: np.ndarray) -> float:
    """Euclidean norm of x, computed on x scaled by a power of two.

    Scaling by 2**-k, where 2**k just exceeds max|x|, is exact, so the result
    equals np.linalg.norm(x) wherever that neither overflows nor underflows,
    and stays finite and nonzero where it would. A norm beyond the float64
    range cannot be stored and raises ValueError.
    """
    peak = float(np.max(np.abs(x), initial=0.0))
    if peak == 0.0:
        return 0.0
    k = math.frexp(peak)[1]
    try:
        return math.ldexp(float(np.linalg.norm(np.ldexp(x, -k))), k)
    except OverflowError:
        raise ValueError("the norm of the input vector exceeds the float64 range") from None


# Codebook entries stay below 2**52 at every dither the streams can draw, and
# a residual decodes to at most 2**317 per unit norm (scale index 255, every
# level 64), so a well-formed code decodes to a finite vector at any norm up
# to this. Only above it does a decoder check its product.
_DECODE_CHECK_NORM = 2.0**700


def _scale_decoded(norm: float, direction: np.ndarray) -> np.ndarray:
    # norm * direction for both decoders; ValueError where that overflows.
    if norm <= _DECODE_CHECK_NORM:
        return norm * direction
    with np.errstate(over="ignore"):
        out = norm * direction
    if not np.isfinite(out).all():
        raise ValueError("the decoded vector exceeds the float64 range")
    return out


def _quantize(x, config: QuantConfig, seed: int, vec_counter: int):
    # vector_quant without its decode check. Also returns the padded unit
    # direction it quantized and the (signs, dither) it derived, None for the
    # zero vector, which the two-stage codec reuses to form its residual and
    # decode its base stage. That codec runs its own decoder instead, as it
    # never scales the base alone by the norm.
    seed, vec_counter = check_token("seed", seed), check_token("vec_counter", vec_counter)
    x = check_vector("input vector", x, config.dim)
    norm = scaled_norm(x)
    unit = np.zeros(config.padded_dim)
    if norm == 0.0:
        indices = np.zeros(config.padded_dim, dtype=np.uint16)
        return VectorCode(indices, 0.0, seed, vec_counter), unit, None
    signs = derive_base_signs(seed, vec_counter, config.padded_dim)
    dither = derive_dither(seed, vec_counter)
    unit[: config.dim] = x / norm
    z = math.sqrt(config.padded_dim) * apply_hd(unit, signs)
    indices = quantize_scalar(z, config.mode, config.num_levels, dither).astype(np.uint16)
    return VectorCode(indices, norm, seed, vec_counter), unit, (signs, dither)


def vector_quant(x, config: QuantConfig, seed: int, vec_counter: int) -> VectorCode:
    """Encode x: pad, transform with a fresh sign diagonal, bucket every coordinate.

    Any real, finite x is accepted, except one whose decode would overflow float64.
    seed and vec_counter must be integers in [0, 2**64), the range the streams key on.
    """
    code = _quantize(x, config, seed, vec_counter)[0]
    if code.norm > _DECODE_CHECK_NORM:
        vector_dequant(code, config)  # raises if the decode overflows
    return code


def _decode_padded_unit(code: VectorCode, config: QuantConfig, draws=None) -> np.ndarray:
    # Unit direction of a checked code in padded space (no norm scaling, no
    # truncation), for both decoders; draws is the code's (signs, dither)
    # pair, if already known.
    if draws is None:
        draws = (
            derive_base_signs(code.seed, code.vec_counter, config.padded_dim),
            derive_dither(code.seed, code.vec_counter),
        )
    signs, dither = draws
    table = build_codebook(config.mode, config.num_levels, dither)
    y = table[code.indices] / math.sqrt(config.padded_dim)
    return apply_hd_inverse(y, signs)


def vector_dequant(code: VectorCode, config: QuantConfig) -> np.ndarray:
    """Decode a VectorCode back to a length-dim vector; check_code judges it first.

    Raises ValueError when a coordinate of the decode lies beyond the float64 range.
    """
    check_code(code, config)
    if code.norm == 0.0:
        return np.zeros(config.dim)
    return _scale_decoded(code.norm, _decode_padded_unit(code, config)[: config.dim])
