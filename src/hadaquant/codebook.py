"""Gaussian-quantile scalar codebooks for dithered quantization.

Quantization happens in quantile space: each input t is mapped through the
CDF of a centered Gaussian with variance 3, and a uniformly dithered grid
on [0, 1] decides its bucket. Bucketing (``quantize_scalar``) needs only the
mode, the size and the dither; reconstruction tables (``build_codebook``)
are built only to decode. Two reconstruction rules are supported:

* ``biased``   -- a grid with spacing 1/size and pinned endpoints; each
  bucket reconstructs at the inverse CDF of its quantile midpoint.
* ``unbiased`` -- a free-floating grid with spacing 1/(size-1); buckets
  reconstruct through a modified map whose sliding-window averages equal
  the inverse CDF, which makes the dither-averaged reconstruction of every
  input exactly equal to that input.

The dither is an array axis of this layer. ``build_codebook`` takes a float
or a 1-D array of n dithers and returns one table or an ``(n, size)`` stack,
built in one pass over the rows; a float is a batch of one, so every row
has the bits of the table its dither builds alone. ``quantize_scalar``
broadcasts its inputs against an array of dithers.

A decode reads only the entries its indices name, so ``build_codebook``
also takes a column range ``[lo, hi)`` and builds just those columns, each
with the bits of the full table's entry. With many levels and few
coordinates that range is a part of the table: at 2**16 levels and 64
coordinates, about four fifths, and the columns it leaves out are the
costliest, where ``ndtri`` evaluates its tails. An unbiased table sums
outward from slot size/2 - 1 or size/2, so its sweep always spans both.

A full build allocates only its result: every pass runs in place in the
returned array, and the dither-independent offsets are computed once per
table size and kept read-only. At 2**16 entries a full-size temporary is
512 KiB, which the C allocator maps fresh and page-faults in on every use.
"""

import functools
import math

import numpy as np
from scipy.special import ndtr, ndtri

from .transform import check_int, is_power_of_two

BIASED = "biased"
UNBIASED = "unbiased"
MODES = (BIASED, UNBIASED)

_SQRT3 = math.sqrt(3.0)
_PDF_NORM = 1.0 / math.sqrt(6.0 * math.pi)

# Saturation value for reconstruction entries whose defining formula
# diverges: a table end next to dither 0 or 1 (see _saturate).
_SATURATION_QUANTILE = 1e-300


def cdf(t):
    """CDF of the reference Gaussian (mean 0, variance 3)."""
    t = np.asarray(t, dtype=np.float64)
    if np.isnan(t).any():
        raise ValueError("cdf: NaN input")
    out = ndtr(t / _SQRT3)
    return float(out) if out.ndim == 0 else out


def inv_cdf(p):
    """Quantile function of the reference Gaussian; p must lie strictly in (0, 1)."""
    p = np.asarray(p, dtype=np.float64)
    if not np.all((p > 0.0) & (p < 1.0)):
        raise ValueError("inv_cdf: argument must lie strictly inside (0, 1)")
    out = _SQRT3 * ndtri(p)
    return float(out) if out.ndim == 0 else out


def _inv_cdf_slope(s: np.ndarray) -> None:
    # Writes (inv_cdf)'(s) = 1 / density(inv_cdf(s)) over the float64 array s,
    # whose entries lie in [0, 1]: +inf at 0 and 1, which keeps divergent sums
    # well-defined instead of raising. The operations of
    # 1 / (_PDF_NORM * exp(-(_SQRT3 * ndtri(s))**2 / 6)), in that order, run
    # in place: at 2**16 entries a temporary costs as much as the arithmetic.
    with np.errstate(divide="ignore", over="ignore"):
        ndtri(s, out=s)
        np.multiply(s, _SQRT3, out=s)
        np.multiply(s, s, out=s)
        np.divide(s, -6.0, out=s)
        np.exp(s, out=s)
        np.multiply(s, _PDF_NORM, out=s)
        np.divide(1.0, s, out=s)


def _biased_grid_points(j, size: int, dither) -> np.ndarray:
    # Quantile boundaries j of the biased buckets: pinned endpoints, dithered
    # interior, (j + dither) / size. The bucket rule computes them here; the
    # table builder computes the same expression in its result array.
    j = np.asarray(j)
    return np.where(j == 0, 0.0, np.where(j == size, 1.0, (j + dither) / size))


@functools.lru_cache(maxsize=8)
def _grid_indices(size: int) -> np.ndarray:
    out = np.arange(size + 1, dtype=np.float64)
    out.flags.writeable = False
    return out


def _build_biased(size: int, dither: np.ndarray, lo: int, hi: int) -> np.ndarray:
    # Slot s first holds grid point j = lo + s: pinned 0.0 at j = 0, dithered
    # (j + dither) / size inside. One forward pass over the flattened rows
    # then adds each slot's right neighbour, so slot s becomes the midpoint
    # sum of bucket j. The last slot of a row meanwhile adds the next row's
    # first slot, so its sum with grid point hi (1.0 when hi is size) is
    # formed first and written back.
    recon = np.empty((dither.size, hi - lo))
    np.add(_grid_indices(size)[lo:hi], dither[:, None], out=recon)
    recon /= size
    if lo == 0:
        recon[:, 0] = 0.0
    top = recon[:, -1] + (1.0 if hi == size else (hi + dither) / size)
    flat = recon.reshape(-1)
    np.add(flat[:-1], flat[1:], out=flat[:-1])
    recon[:, -1] = top
    recon /= 2.0
    # Next to dither 1 the top bucket's midpoint 1 - (1 - dither) / (2 * size)
    # rounds to 1.0, where inv_cdf diverges; that entry is then taken from the
    # upper tail, as inv_cdf(1 - q) = -inv_cdf(q). Every other midpoint lies
    # below 1 - 1/(2 * size), so only a span that reaches the table's end
    # can hold such an entry.
    tail = recon[:, -1] >= 1.0
    recon[tail, -1] = (1.0 - dither[tail]) / (2 * size)
    ndtri(recon, out=recon)
    recon *= _SQRT3
    recon[tail, -1] *= -1.0
    return recon


@functools.lru_cache(maxsize=8)
def _unbiased_offsets(size: int) -> np.ndarray:
    # Row b holds the cell offsets (k + 1/2) * spacing, k = k0 .. k0 + size - 2,
    # of the sweep with k0 = b - size // 2, laid out as _build_unbiased lays
    # out its increments: offset k - k0 in slot k - k0 below the anchor slot
    # -k0 and in slot k - k0 + 1 above it. The anchor slot repeats a
    # neighbour, so each row is nondecreasing.
    half = size // 2
    spacing = 1.0 / (size - 1)
    cells = (np.arange(-half, half, dtype=np.float64) + 0.5) * spacing
    out = np.stack([np.insert(cells[:-1], half, cells[half - 1]),
                    np.insert(cells[1:], half - 1, cells[half])])
    out.flags.writeable = False
    return out


def _build_unbiased(size: int, dither: np.ndarray, lo: int, hi: int) -> np.ndarray:
    # Reconstruction arguments (j + dither - 1/2) * spacing share one cell
    # representative u, at cell offsets k0 .. k0 + size - 1 with
    # k0 = ceil(dither - 1/2) - size/2 <= 0, so each row is one cumulative
    # sweep of midpoint slopes anchored at offset 0 (entry -k0: slot size/2
    # for dither <= 1/2, else size/2 - 1): O(size) per row. The sweep covers
    # slots start .. stop - 1, the span widened to hold both anchor slots,
    # and the span's columns are returned.
    spacing = 1.0 / (size - 1)
    half = size // 2
    start, stop = min(lo, half - 1), max(hi, half + 1)
    high = dither > 0.5
    k0 = high - half
    u = (dither - 0.5) * spacing - k0 * spacing
    recon = np.empty((dither.size, stop - start))
    for rows, offsets in zip((~high, high), _unbiased_offsets(size)):
        if rows.all():
            np.add(u[:, None], offsets[start:stop], out=recon)
        elif rows.any():
            np.add(u[:, None], offsets[start:stop], out=recon, where=rows[:, None])
    # The rows are nondecreasing, so their ends decide whether a midpoint
    # leaves (0, 1), next to dither 0 or 1; clipping it to the nearer end
    # gives it the same +inf slope.
    if not ((recon[:, 0] > 0.0).all() and (recon[:, -1] < 1.0).all()):
        np.clip(recon, 0.0, 1.0, out=recon)
    _inv_cdf_slope(recon)
    recon *= spacing
    # Partial sums accumulated outward from the anchor, so that a divergent
    # increment next to a domain endpoint cannot poison the rest. With the
    # anchor at 0.0, the sums below it run in place over the reversed slots
    # below size/2 of every row and the sums above it over the rest,
    # whichever the row's k0: a sum that starts at the anchor adds 0.0 first,
    # which is exact. cumsum along axis 1 adds in order, so each row gets the
    # bits of a 1-D sweep, and a sweep cut short the first sums of a longer one.
    anchors = (np.arange(dither.size), -k0 - start)
    recon[anchors] = 0.0
    below = recon[:, : half - start][:, ::-1]
    np.cumsum(below, axis=1, out=below)
    np.negative(below, out=below)
    above = recon[:, half - start :]
    np.cumsum(above, axis=1, out=above)
    recon[anchors] = 0.0  # the negation left -0.0 at anchors below size/2
    # u <= 1 always; u == 1 (size 2, dither 1/2) anchors at +inf.
    recon += (_SQRT3 * ndtri(u))[:, None]
    # A row's ends are its extremes, so a non-finite entry shows at an end.
    for i in np.flatnonzero(~(np.isfinite(recon[:, 0]) & np.isfinite(recon[:, -1]))):
        _saturate(recon[i])
    return np.ascontiguousarray(recon[:, lo - start : hi - start])


def _saturate(row: np.ndarray) -> None:
    # A table end diverges with its midpoint's slope, next to dither 0
    # (bottom) or 1 (top): of the streams' multiples of 2**-53, 2**-53 and
    # 1 - 2**-53 do at every size >= 4, 1 - 2**-40 from size 2**14 on. At
    # size 2 and dither 1/2 the anchor is +inf, so both ends are. Endpoint
    # values are irrelevant to the dither-averaged contract: they saturate at
    # an extreme quantile, and the table stays strictly increasing. Above
    # size 2 one end diverges and every other entry lies inside the clip, so
    # only that entry changes: a part row (never size 2) saturates in place.
    lo_val = inv_cdf(_SATURATION_QUANTILE)
    np.clip(row, lo_val, -lo_val, out=row)
    for j in range(1, row.size):
        if row[j] <= row[j - 1]:
            row[j] = row[j - 1] + 1.0


def _check_args(mode: str, num_levels: int, dither) -> np.ndarray:
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r}")
    if not is_power_of_two(check_int("num_levels", num_levels, 2, math.inf)):
        raise ValueError(f"num_levels must be a power of two >= 2, got {num_levels}")
    dither = np.asarray(dither, dtype=np.float64)
    if not ((dither >= 0.0) & (dither < 1.0)).all():
        raise ValueError(f"dither must lie in [0, 1), got {dither}")
    return dither


def build_codebook(mode: str, num_levels: int, dither, lo: int = 0,
                   hi: int | None = None) -> np.ndarray:
    """Reconstruction tables for a bucket count and dithers in [0, 1).

    ``dither`` is a float or a 1-D array of n dithers; the result is the
    table or the ``(n, width)`` stack of them. Entry j of a table is the
    value bucket j of ``quantize_scalar`` decodes to at that dither. Only
    columns ``lo .. hi - 1`` are built (default: all ``num_levels``), so
    the width is ``hi - lo`` and column c holds entry ``lo + c``. Every
    entry has the bits of the full table built from its dither alone: a
    float is built as a batch of one, and a column range only drops columns.
    """
    dither = _check_args(mode, num_levels, dither)
    if dither.ndim > 1:
        raise ValueError(f"dither must be a float or a 1-D array, got shape {dither.shape}")
    lo = check_int("lo", lo, 0, num_levels - 1)
    hi = check_int("hi", num_levels if hi is None else hi, lo + 1, num_levels)
    build = _build_biased if mode == BIASED else _build_unbiased
    tables = build(num_levels, dither.reshape(-1), lo, hi)
    return tables[0] if dither.ndim == 0 else tables


def quantize_scalar(t, mode: str, num_levels: int, dither):
    """Bucket index of t; half-open buckets, ties go up.

    ``t`` and ``dither`` are scalars or arrays and broadcast against each
    other, so a dither column against a row of inputs buckets every input
    at every dither. Needs no reconstruction table: the buckets follow from
    the mode, the bucket count and the dither offset alone.
    """
    dither = _check_args(mode, num_levels, dither)
    p = cdf(t)
    if mode == BIASED:
        # The last grid point <= p, found without building the grid: the
        # arithmetic guess is off by at most one bucket, so it is checked
        # against its two grid points, computed as the grid computes them.
        idx = np.floor(num_levels * p - dither).astype(np.int64)
        # clipped into [0, num_levels): two ufunc calls cost less than
        # np.clip's Python-level dispatch, here and below
        idx = np.minimum(np.maximum(idx, 0), num_levels - 1)
        idx -= _biased_grid_points(idx, num_levels, dither) > p
        upper = np.minimum(idx + 1, num_levels - 1)
        idx += (upper > idx) & (_biased_grid_points(upper, num_levels, dither) <= p)
    else:
        idx = np.floor((num_levels - 1) * p - dither).astype(np.int64) + 1
        idx = np.minimum(np.maximum(idx, 0), num_levels - 1)
    return int(idx) if idx.ndim == 0 else idx
