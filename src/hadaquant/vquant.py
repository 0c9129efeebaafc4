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
    sample_signs,
    stream_rng,
)


@dataclass(frozen=True)
class QuantConfig:
    """Dimensions, bit width and mode shared by encoder and decoder."""

    dim: int
    bits: int
    mode: str = UNBIASED

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError(f"dim must be >= 1, got {self.dim}")
        if not 1 <= self.bits <= 16:
            raise ValueError(f"bits must lie in [1, 16], got {self.bits}")
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


def derive_base_signs(seed: int, vec_counter: int, padded_dim: int):
    return sample_signs(seed, (vec_counter, STREAM_BASE_SIGNS), padded_dim)


def derive_dither(seed: int, vec_counter: int) -> float:
    return float(stream_rng(seed, (vec_counter, STREAM_DITHER)).random())


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


# Codebook entries stay below 2**52 at every dither the streams can draw, so
# a decoded coordinate is below 2**52 times the norm; only a norm above this
# can overflow on decode, and only such inputs are decoded at encode time.
_DECODE_CHECK_NORM = 2.0**960


def _reject_overflowing_decode(norm: float, decode) -> None:
    if norm > _DECODE_CHECK_NORM:
        with np.errstate(over="ignore"):
            finite = bool(np.all(np.isfinite(decode())))
        if not finite:
            raise ValueError("decoding this vector would exceed the float64 range")


def _quantize(x, config: QuantConfig, seed: int, vec_counter: int):
    # vector_quant, also returning the (signs, dither) it derived, so
    # that the two-stage codec decodes its base stage without re-deriving
    # them; the draws are None for the zero vector, which derives nothing.
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 1 or x.shape[0] != config.dim:
        raise ValueError(f"expected a vector of length {config.dim}, got shape {x.shape}")
    if not np.all(np.isfinite(x)):
        raise ValueError("input vector has NaN or infinite coordinates")
    norm = scaled_norm(x)
    if norm == 0.0:
        indices = np.zeros(config.padded_dim, dtype=np.uint16)
        return VectorCode(indices, 0.0, int(seed), int(vec_counter)), None
    signs = derive_base_signs(seed, vec_counter, config.padded_dim)
    dither = derive_dither(seed, vec_counter)
    unit = np.zeros(config.padded_dim)
    unit[: config.dim] = x / norm
    z = math.sqrt(config.padded_dim) * apply_hd(unit, signs)
    indices = quantize_scalar(z, config.mode, config.num_levels, dither).astype(np.uint16)
    code = VectorCode(indices, norm, int(seed), int(vec_counter))
    _reject_overflowing_decode(norm, lambda: vector_dequant(code, config))
    return code, (signs, dither)


def vector_quant(x, config: QuantConfig, seed: int, vec_counter: int) -> VectorCode:
    """Encode x: pad, transform with a fresh sign diagonal, bucket every coordinate.

    Any finite x is accepted, except one whose decode would overflow float64.
    """
    return _quantize(x, config, seed, vec_counter)[0]


def _decode_padded_unit(code: VectorCode, config: QuantConfig, draws=None) -> np.ndarray:
    # Reconstruction of the unit direction in padded space (no norm scaling,
    # no truncation); shared by the plain decoder and the two-stage codec.
    # Both reach it for every nonzero norm, so it rejects the norms no encode
    # makes. draws is the (signs, dither) pair of the code, if already known.
    if not (math.isfinite(code.norm) and code.norm >= 0.0):
        raise ValueError(f"stored norm must be finite and >= 0, got {code.norm}")
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
    """Decode a VectorCode back to a length-dim vector."""
    indices = np.asarray(code.indices)
    if indices.shape != (config.padded_dim,):
        raise ValueError(
            f"index length {indices.shape} does not match padded dim {config.padded_dim}"
        )
    if indices.size and int(indices.max()) >= config.num_levels:
        raise ValueError(f"bucket index >= {config.num_levels}")
    if code.norm == 0.0:
        return np.zeros(config.dim)
    return code.norm * _decode_padded_unit(code, config)[: config.dim]
