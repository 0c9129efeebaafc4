"""Whole-vector quantization: norm extraction, padding, transform, bucketing.

A vector is stored as its full-precision norm plus per-coordinate bucket
indices of the transformed unit direction. Fresh randomness (sign diagonal
and dither offset) is derived deterministically from (seed, vec_counter),
so the decoder needs only those two tokens. Each encode derives that
randomness once: bucketing reads only the dither, and the two-stage codec
reuses the same draws to decode its base stage. A reconstruction table is
built only where a decode reads it.

The encoders and decoders are batch-first: n rows with n counters, or a
list of n codes, run a chunk of rows at a time, and one vector or code is a
batch of one, so every code and every decode comes from the same path and
a row's result does not depend on the rows beside it.
"""

import itertools
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
    peak = float(np.abs(x).max(initial=0.0))
    if peak == 0.0:
        return 0.0
    k = math.frexp(peak)[1]
    try:
        return math.ldexp(float(np.linalg.norm(np.ldexp(x, -k))), k)
    except OverflowError:
        raise ValueError("the norm of the input vector exceeds the float64 range") from None


class RowError(ValueError):
    """The ValueError of row `row` of a batch, its message prefixed "row <row>: "."""

    def __init__(self, row: int, error: ValueError):
        super().__init__(f"row {row}: {error}")
        self.row, self.error = row, error


# Codebook entries stay below 2**52 at every dither the streams can draw, and
# a residual decodes to at most 2**317 per unit norm (scale index 255, every
# level 64), so a well-formed code decodes to a finite vector at any norm up
# to this. Only above it does a decoder check its product.
_DECODE_CHECK_NORM = 2.0**700


def _scale_decoded(rows, norms, directions, out) -> None:
    # out[i] = norm * direction for the rows i of a decode chunk, for both
    # decoders; RowError(i) where that overflows.
    with np.errstate(over="ignore"):
        for i, norm, direction in zip(rows, norms, directions):
            np.multiply(norm, direction, out=out[i])
            if norm > _DECODE_CHECK_NORM and not np.isfinite(out[i]).all():
                raise RowError(i, ValueError("the decoded vector exceeds the float64 range"))


# A batch is encoded and decoded a chunk of rows at a time, so that a chunk's
# arrays stay in a core's L2 cache: its (rows, padded_dim) float64 arrays and
# the (rows, num_levels) codebook stack the two-stage codec builds hold at
# most this many entries (256 KiB) each. That is 8 rows at d = 4096 and one
# row at 2**16 levels. On a 2-MiB-L2 Xeon, a 30-row (4096, 4) two-stage
# encode took 790 us per row in 8-row chunks, 760-790 in 4- to 16-row ones,
# 980 in one 30-row chunk and 960 row by row.
_CHUNK_ENTRIES = 2**15


def chunk_rows(config: QuantConfig) -> int:
    """Rows per chunk of a batch encode or decode under config."""
    return max(1, _CHUNK_ENTRIES // max(config.padded_dim, config.num_levels))


def _each_row(items, batch, fn) -> list:
    """fn(item) for each of items, as a list: the one row loop of every batch
    entry point. In a batch, a ValueError raised for item i is raised as
    RowError(i), "row i: ..."; without batch, the one item raises its own."""
    results = []
    for i, item in enumerate(items):
        try:
            results.append(fn(item))
        except ValueError as exc:
            if not batch:
                raise
            raise RowError(i, exc) from exc
    return results


def _encode_rows(x, config: QuantConfig, seed, vec_counter, check_row, encode_chunk, decode=None):
    """The one batch path of every encoder; returns one code, or a list of n codes.

    x is one vector with an int vec_counter, a batch of one, or an (n, length)
    array of rows with a length-n sequence of counters. Each row is checked
    first: its counter as an integer in [0, 2**64), then the row by
    check_row(row, config), which returns it with its norm. encode_chunk(items,
    config, seed) then encodes the (row, norm, counter) items, chunk_rows(config)
    at a time, one code per item; a chunk's codes hold row views of one array
    per code field, so a code kept alone keeps its chunk's arrays alive (at
    most _CHUNK_ENTRIES entries each). decode(code, config) runs for each code
    whose norm exceeds _DECODE_CHECK_NORM, and raises where that decode overflows.
    In a batch, a ValueError raised for a row names it: "row 1: ..." (a RowError).
    """
    seed = check_token("seed", seed)
    batch = not isinstance(vec_counter, int) and np.ndim(vec_counter) == 1
    rows, counters = (x, vec_counter) if batch else ([x], [vec_counter])
    if batch and (np.ndim(x) != 2 or len(rows) != len(counters)):
        raise ValueError(f"a batch is n rows with n counters, got shape {np.shape(x)} "
                         f"with {len(counters)} counters")

    def check(item):
        row, counter = item
        counter = check_token("vec_counter", counter)
        return (*check_row(row, config), counter)

    def check_decode(item):
        (_, norm, _), code = item
        if norm > _DECODE_CHECK_NORM:
            decode(code, config)

    items = _each_row(zip(rows, counters), batch, check)
    step = chunk_rows(config)
    codes = []
    for start in range(0, len(items), step):
        codes += encode_chunk(items[start : start + step], config, seed)
    _each_row(zip(items, codes), batch, check_decode)
    return codes if batch else codes[0]


def _as_rows(codes):
    # (rows, batch) for a decoder's argument: a list or tuple is a batch of
    # rows, anything else one row.
    return (codes, True) if isinstance(codes, (list, tuple)) else ([codes], False)


def _decode_rows(codes, batch, check_row, width, decode_chunk):
    """The one batch path of every decoder; returns one vector, or an (n, width) array.

    codes is a list of n codes, whose decodes are the n rows of one array,
    each equal to its own code's decode; without batch it holds one code,
    whose decode is returned alone. Each code is checked first by
    check_row(code), which returns the config it decodes under; every config
    must agree on the row width(config), and width(None) is the row width of
    an empty batch. Each run of consecutive codes of one config is then
    decoded chunk_rows(config) codes at a time: decode_chunk(codes, config,
    out) writes their decodes into out, the rows of the output they fill,
    which start at zero, and raises RowError(j) for its row j. In a batch, a
    ValueError raised for a code names its row: "row 1: ...".
    """
    configs = _each_row(codes, batch, check_row)
    widths = sorted({width(config) for config in configs})
    if len(widths) > 1:
        raise ValueError(f"codes decode to mixed dimensions {widths}")
    out = np.zeros((len(codes), widths[0] if widths else width(None)))
    end = 0
    for config, run in itertools.groupby(configs):
        run_start, end = end, end + len(list(run))
        step = chunk_rows(config)
        for start in range(run_start, end, step):
            stop = min(start + step, end)
            try:
                decode_chunk(codes[start:stop], config, out[start:stop])
            except RowError as exc:
                if not batch:
                    raise exc.error from None
                raise RowError(start + exc.row, exc.error) from exc.error
    return out if batch else out[0]


def _check_input(x, config: QuantConfig):
    # check_row of the encoders of input vectors.
    x = check_vector("input vector", x, config.dim)
    return x, scaled_norm(x)


def _quantize_chunk(items, config: QuantConfig, seed: int):
    # The base codes of checked (row, norm, counter) items, without their
    # decode check: row views of one zero-filled indices array, written only
    # at the nonzero rows, so a zero row derives no randomness. Also returns,
    # for the nonzero rows, their positions, padded unit directions and
    # (signs, dithers), which the two-stage codec reuses to form its
    # residuals and decode its base stage.
    d = config.padded_dim
    live = [i for i, (_, norm, _) in enumerate(items) if norm > 0.0]
    units = np.zeros((len(live), d))
    signs = np.zeros((len(live), d))
    dithers = np.zeros(len(live))
    for row, i in enumerate(live):
        x, norm, counter = items[i]
        units[row, : config.dim] = x / norm
        signs[row] = derive_base_signs(seed, counter, d)
        dithers[row] = derive_dither(seed, counter)
    z = math.sqrt(d) * apply_hd(units, signs)
    indices = np.zeros((len(items), d), dtype=np.uint16)
    indices[live] = quantize_scalar(z, config.mode, config.num_levels, dithers[:, None])
    codes = [VectorCode(row, norm, seed, counter) for row, (_, norm, counter) in zip(indices, items)]
    return codes, live, units, (signs, dithers)


def vector_quant(x, config: QuantConfig, seed: int, vec_counter):
    """Encode x: pad, transform with a fresh sign diagonal, bucket every coordinate.

    x is one vector with an int vec_counter, which returns its VectorCode, or
    an (n, dim) array of rows with a sequence of n counters, which returns
    the list of their codes; each row's code equals the code of its own call.
    Any real, finite x is accepted, except one whose decode would overflow
    float64. seed and the counters must be integers in [0, 2**64), the range
    the streams key on.
    """
    return _encode_rows(x, config, seed, vec_counter, _check_input,
                        lambda items, config, seed: _quantize_chunk(items, config, seed)[0],
                        vector_dequant)


def _decode_padded_unit(codes, config: QuantConfig, draws=None) -> np.ndarray:
    # Unit directions of checked codes in padded space (no norm scaling, no
    # truncation), one row per code, for both decoders: a build_codebook
    # stack over the codes' dithers, gathered row by row. draws is the codes'
    # (signs, dithers) stack, if already known.
    d = config.padded_dim
    if draws is None:
        draws = (
            np.array([derive_base_signs(code.seed, code.vec_counter, d) for code in codes]),
            np.array([derive_dither(code.seed, code.vec_counter) for code in codes]),
        )
    signs, dithers = draws
    tables = build_codebook(config.mode, config.num_levels, dithers)
    # Row i gathers from table i: flat positions in the stack.
    flat = np.array([code.indices for code in codes], dtype=np.intp)
    flat += np.arange(0, tables.size, config.num_levels)[:, None]
    units = np.take(tables, flat)
    units /= math.sqrt(d)
    return apply_hd_inverse(units, signs)


def vector_dequant(code, config: QuantConfig) -> np.ndarray:
    """Decode a VectorCode back to a length-dim vector; check_code judges it first.

    A list or tuple of n codes decodes to an (n, dim) array, each row equal
    to its own code's decode; an empty one to a (0, dim) array. Raises
    ValueError when a coordinate of the decode lies beyond the float64 range.
    """
    def check_row(code):
        check_code(code, config)
        return config

    return _decode_rows(*_as_rows(code), check_row, lambda _: config.dim, _dequant_chunk)


def _dequant_chunk(codes, config: QuantConfig, out) -> None:
    # The decodes of checked codes; a zero-norm code stays a zero row and
    # derives no randomness.
    live = [j for j, code in enumerate(codes) if code.norm > 0.0]
    if live:
        units = _decode_padded_unit([codes[j] for j in live], config)[:, : config.dim]
        _scale_decoded(live, [codes[j].norm for j in live], units, out)
