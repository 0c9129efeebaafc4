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
    QuantConfig,
    VectorCode,
    _as_rows,
    _check_input,
    _decode_padded_unit,
    _decode_rows,
    _each_row,
    _encode_rows,
    _quantize_chunk,
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


def quantize_two_stage(x, config: QuantConfig, seed: int, vec_counter):
    """Encode any finite vector: its norm once, its direction in two stages.

    x is one vector with an int vec_counter, which returns its TwoStageCode,
    or an (n, dim) array of rows with a sequence of n counters, which returns
    the list of their codes; each row's code equals the code of its own call.
    Both stages key their randomness off (seed, vec_counter), which the base
    code carries for the residual stage too. The base stage's sign diagonal
    and dither are derived once and reused to decode it here. Raises ValueError
    for a complex or non-finite x, tokens outside [0, 2**64) or an overflowing decode.
    """
    return _encode_rows(x, config, seed, vec_counter, _check_input, _two_stage_chunk,
                        lambda code, config: dequantize_two_stage(code))


def _two_stage_chunk(items, config: QuantConfig, seed: int) -> list:
    bases, live, units, draws = _quantize_chunk(items, config, seed)
    target = np.zeros((len(items), config.padded_dim))
    if live:
        # The decoder recomputes the identical projected points, so each
        # residual is defined against exactly what the decoder will see.
        decoded = _decode_padded_unit([bases[i] for i in live], config, draws)
        target[live] = units - np.array([project_unit_ball(row) for row in decoded])
    residuals = residual_quant(target, config, seed, [counter for _, _, counter in items])
    return [TwoStageCode(base, resid, config) for base, resid in zip(bases, residuals)]


def dequantize_two_stage(code) -> np.ndarray:
    """Decode: stored norm times (projected base reconstruction plus residual).

    A list or tuple of n codes of one dim decodes to an (n, dim) array, each
    row equal to its own code's decode; codes of different bits, mode or seed
    may be mixed. An empty one holds no config, so it decodes to a (0, 0)
    array. Raises ValueError unless check_code passes, or when a
    coordinate of the decode lies beyond the float64 range. Each stage is
    checked once, the residual inside residual_dequant.
    """
    def check_row(code):
        vquant.check_code(code.base, code.config)
        return code.config

    return _decode_rows(*_as_rows(code), check_row,
                        lambda config: config.dim if config else 0, _dequant_chunk)


def _dequant_chunk(codes, config: QuantConfig, out) -> None:
    # The decodes of codes whose base stage is checked; the residual stage is
    # checked and decoded by one residual_dequant call. A zero-norm code stays
    # a zero row, and its base stage derives no randomness.
    bases = [code.base for code in codes]
    rhat = residual_dequant([code.residual for code in codes], config,
                            [base.seed for base in bases], [base.vec_counter for base in bases])
    live = [j for j, base in enumerate(bases) if base.norm > 0.0]
    if live:
        approx = _decode_padded_unit([bases[j] for j in live], config)
        total = [project_unit_ball(row) for row in approx]
        for row, j in zip(total, live):
            row += rhat[j]
        total = [row[: config.dim] for row in total]
        _scale_decoded(live, [bases[j].norm for j in live], total, out)


def estimate_inner_product(code, y):
    """Inner product of a real, finite y of length config.dim with the decoded vector.

    A list or tuple of n codes of one dim takes an (n, dim) array of query
    rows and returns the array of their n products, each equal to its own
    code's call; an empty one returns a (0,) array. Raises ValueError when a
    product lies beyond the float64 range; in a batch, a ValueError raised for
    a code or its query names its row: "row 1: ...".
    """
    codes, batch = _as_rows(code)
    if batch and (np.ndim(y) != 2 or len(y) != len(codes)):
        raise ValueError(f"a batch is n codes with n query rows, got {len(codes)} codes "
                         f"with queries of shape {np.shape(y)}")
    queries = _each_row(zip(codes, y if batch else [y]), batch,
                        lambda item: check_vector("query vector", item[1], item[0].config.dim))
    decoded = dequantize_two_stage(code)

    def product(item):
        y, row = item
        with np.errstate(over="ignore", invalid="ignore"):
            ip = float(y @ row)
        if not np.isfinite(ip):
            raise ValueError("the inner product with the query vector exceeds the float64 range")
        return ip

    products = _each_row(zip(queries, decoded if batch else [decoded]), batch, product)
    return np.array(products) if batch else products[0]
