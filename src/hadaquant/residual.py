"""Residual codec: geometric scale index, doubling levels, randomized signs.

The residual scale ||r||/sqrt(d) is rounded up to a power of two above a
floor of 1/(d * num_levels); a scale index of 0 flags a negligible residual
and skips coordinate coding entirely. Each transformed coordinate then
records the smallest doubling level covering its magnitude plus one sign
bit whose bias makes the decoded coordinate conditionally unbiased.
"""

import math
from dataclasses import dataclass

import numpy as np

from .transform import (
    STREAM_RESIDUAL_SIGNS,
    STREAM_SIGN_BITS,
    apply_hd,
    apply_hd_inverse,
    check_int,
    check_token,
    check_vector,
    sample_signs,
    sample_uniforms,
)
from .vquant import QuantConfig, _as_rows, _decode_rows, _encode_rows

MAX_SCALE_IDX = 255  # one header byte; unreachable for any desk-scale (d, bits)
MAX_LEVEL = 64

# 2**level for every level a code can hold, which decoding gathers from.
_LEVEL_SCALES = np.ldexp(1.0, np.arange(MAX_LEVEL + 1))

# Deterministic per-coordinate storage bound: sum(level_i + 1) never exceeds
# this multiple of d whenever ||r|| <= 2.
LEVEL_SUM_COEFF = 2.0 + 1.0 / (2.0 * math.log(2.0))


def min_scale(padded_dim: int, num_levels: int) -> float:
    """Smallest encodable residual scale; anything below rounds to zero."""
    return 1.0 / (padded_dim * num_levels)


def _ceil_log2(x):
    # ceil(log2 x) for x > 0 by exponent extraction, elementwise; exact, no
    # floating log. Zero maps to 0.
    m, e = np.frexp(x)
    return e - (m == 0.5)


def scalar_dequant(scale_idx: int, padded_dim: int, num_levels: int) -> float:
    """Quantized scale: 0, or the floor times 2**(scale_idx - 1).

    residual_quant picks the index whose scale sigma covers s = ||r||/sqrt(d)
    at or above the floor within a factor of two: s <= sigma < 2 s.
    """
    if check_int("scale index", scale_idx, 0, MAX_SCALE_IDX) == 0:
        return 0.0
    return math.ldexp(min_scale(padded_dim, num_levels), scale_idx - 1)


@dataclass(frozen=True)
class ResidualCode:
    """Scale index, per-coordinate doubling levels and signs.

    The derivation tokens (seed, vec_counter) are not stored here: the
    residual stage shares them with the base code it belongs to.
    """

    scale_idx: int
    levels: np.ndarray  # (d,) int16, all zero when scale_idx == 0
    signs: np.ndarray  # (d,) int8 in {-1,+1}, all zero when scale_idx == 0


def check_code(code: ResidualCode, config: QuantConfig) -> None:
    """Raise ValueError unless residual_quant can make code under config.

    Such a code has a scale index in [0, MAX_SCALE_IDX] and integer levels and
    signs of shape (config.padded_dim,): at a nonzero scale index, levels in
    [0, MAX_LEVEL] and signs -1 or +1; at 0, zero levels and zero signs.
    """
    check_int("scale index", code.scale_idx, 0, MAX_SCALE_IDX)
    levels, signs, d = np.asarray(code.levels), np.asarray(code.signs), config.padded_dim
    if levels.shape != (d,) or signs.shape != (d,):
        raise ValueError(f"levels {levels.shape} and signs {signs.shape} need length {d}")
    top, sign = (MAX_LEVEL, 1) if code.scale_idx else (0, 0)
    if levels.dtype.kind not in "iu" or levels.min() < 0 or levels.max() > top:
        raise ValueError(f"levels must be integers in [0, {top}] at scale index {code.scale_idx}")
    if signs.dtype.kind not in "iu" or not np.all(np.abs(signs) == sign):
        raise ValueError(
            f"signs must be integers of magnitude {sign} at scale index {code.scale_idx}"
        )


def derive_residual_signs(seed: int, vec_counter: int, padded_dim: int):
    return sample_signs(seed, (vec_counter, STREAM_RESIDUAL_SIGNS), padded_dim)


def _doubling_levels(v_abs: np.ndarray, sigma) -> np.ndarray:
    # Smallest level >= 0 with v_abs <= sigma * 2**level. sigma is a power of
    # two (a column of them for rows), so v_abs / sigma is exact and so is
    # its ceil(log2).
    lev = np.maximum(_ceil_log2(v_abs / sigma), 0).astype(np.int16)
    if lev.max(initial=0) > MAX_LEVEL:
        raise RuntimeError(f"doubling level exceeds cap {MAX_LEVEL}")
    return lev


def residual_quant(r, config: QuantConfig, seed: int, vec_counter):
    """Encode a real, finite residual of shape (config.padded_dim,) with ||r|| <= 2.

    r may also be (n, padded_dim) rows with a sequence of n counters, which
    returns the list of their codes, each equal to the code of its own call.
    Sign bits come from a dedicated stream keyed by (seed, vec_counter) so
    encoding is reproducible yet independent of the sign diagonal.
    """
    return _encode_rows(r, config, seed, vec_counter, _check_residual, _residual_chunk)


def _check_residual(r, config: QuantConfig):
    # check_row of residual_quant.
    r = check_vector("residual", r, config.padded_dim)
    norm = float(np.linalg.norm(r))
    if norm > 2.0 * (1.0 + 1e-9):
        raise ValueError(f"residual norm {norm} exceeds the unit-ball bound of 2")
    return r, norm


def _residual_chunk(items, config: QuantConfig, seed: int) -> list:
    # The codes of checked (r, norm, counter) items: row views of one
    # zero-filled array per field, written only at the rows at or above the
    # scale floor; a row below it stays zero at scale index 0 and derives no
    # randomness.
    d, num_levels = config.padded_dim, config.num_levels
    tau = min_scale(d, num_levels)
    # s / tau <= 2 * sqrt(d) * num_levels: far below MAX_SCALE_IDX.
    scales = [int(_ceil_log2(s / tau)) + 1 if s >= tau else 0
              for s in (norm / math.sqrt(d) for _, norm, _ in items)]
    live = [i for i, scale_idx in enumerate(scales) if scale_idx]
    levels = np.zeros((len(items), d), dtype=np.int16)
    signs = np.zeros((len(items), d), dtype=np.int8)
    if live:
        counters = [items[i][2] for i in live]
        diag = np.array([derive_residual_signs(seed, counter, d) for counter in counters])
        v = apply_hd(np.array([items[i][0] for i in live]), diag)
        sigma = np.array([scalar_dequant(scales[i], d, num_levels) for i in live])[:, None]
        live_levels = _doubling_levels(np.abs(v), sigma)
        p_plus = 0.5 * (1.0 + v / np.ldexp(sigma, live_levels))
        uniforms = np.array([sample_uniforms(seed, (counter, STREAM_SIGN_BITS), d)
                             for counter in counters])
        levels[live] = live_levels
        signs[live] = np.where(uniforms < p_plus, 1, -1)
    return [ResidualCode(*fields) for fields in zip(scales, levels, signs)]


def residual_dequant(code, config: QuantConfig, seed, vec_counter) -> np.ndarray:
    """Decode a residual code; conditionally unbiased given (diagonal, r).

    (seed, vec_counter) are the tokens the code was encoded under, checked
    as residual_quant checks them; check_code judges the code first. A list
    or tuple of n codes, with length-n sequences of seeds and counters,
    decodes to an (n, padded_dim) array, each row equal to its own call's;
    an empty one to a (0, padded_dim) array.
    """
    codes, batch = _as_rows(code)
    seeds, counters = (seed, vec_counter) if batch else ([seed], [vec_counter])
    try:
        lengths = len(seeds), len(counters)
    except TypeError:  # a scalar token has no length
        lengths = None
    if lengths != (len(codes), len(codes)):
        got = f"{lengths[0]} seeds and {lengths[1]} counters" if lengths else "a scalar token"
        raise ValueError(f"a batch is n codes with n seeds and n counters, got {len(codes)} "
                         f"codes with {got}")

    def check_row(item):
        code, seed, vec_counter = item
        check_token("seed", seed)
        check_token("vec_counter", vec_counter)
        check_code(code, config)
        return config

    return _decode_rows(list(zip(codes, seeds, counters)), batch, check_row,
                        lambda _: config.padded_dim, _dequant_chunk)


def _dequant_chunk(items, config: QuantConfig, out) -> None:
    # The decodes of checked (code, seed, vec_counter) items. A code at scale
    # index 0 has zero levels and signs, so its row decodes to +0.0 under a
    # diagonal of ones, and it derives no randomness.
    d = config.padded_dim
    q, diag = np.empty((len(items), d)), np.empty((len(items), d))
    for k, (code, seed, counter) in enumerate(items):
        sigma = scalar_dequant(code.scale_idx, d, config.num_levels)
        # sigma * 2**level, exact for a power-of-two sigma: np.ldexp's bits
        np.multiply(np.take(sigma * _LEVEL_SCALES, code.levels), code.signs, out=q[k])
        diag[k] = derive_residual_signs(seed, counter, d) if code.scale_idx else 1.0
    out[:] = apply_hd_inverse(q, diag)
