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
"""

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import ndtr, ndtri

BIASED = "biased"
UNBIASED = "unbiased"
MODES = (BIASED, UNBIASED)

_SQRT3 = math.sqrt(3.0)
_PDF_NORM = 1.0 / math.sqrt(6.0 * math.pi)

# Saturation value for reconstruction entries whose defining formula
# diverges; this happens only at dither offsets of measure zero (see
# build_codebook).
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


def pdf(t):
    """Density of the reference Gaussian, i.e. the derivative of cdf."""
    t = np.asarray(t, dtype=np.float64)
    out = _PDF_NORM * np.exp(-t * t / 6.0)
    return float(out) if out.ndim == 0 else out


def _inv_cdf_slope(s: np.ndarray) -> np.ndarray:
    # (inv_cdf)'(s) = 1 / pdf(inv_cdf(s)); +inf outside (0, 1), which keeps
    # divergent sums well-defined instead of raising. The operations of
    # 1 / (_PDF_NORM * exp(-(_SQRT3 * ndtri(s))**2 / 6)), in that order, run in
    # place on one buffer: at 2**16 entries the temporaries cost as much as
    # the arithmetic.
    s = np.asarray(s, dtype=np.float64)
    ok = (s > 0.0) & (s < 1.0)
    inside = bool(ok.all())
    with np.errstate(divide="ignore", over="ignore"):
        q = ndtri(s if inside else s[ok])
        q *= _SQRT3
        q *= q
        q /= -6.0
        np.exp(q, out=q)
        q *= _PDF_NORM
        np.divide(1.0, q, out=q)
    if inside:
        return q
    out = np.full(s.shape, np.inf)
    out[ok] = q
    return out


def _split_cell(r: float, spacing: float):
    # Canonical decomposition r = u + k*spacing with u in the central cell
    # ((1-spacing)/2, (1+spacing)/2]; top boundary inclusive. The 1e-12
    # nudge keeps arguments that are exact cell boundaries on the intended
    # side of the ceiling.
    k = math.ceil((r - (1.0 + spacing) / 2.0) / spacing - 1e-12)
    return r - k * spacing, k


def unbiased_recon(r: float, num_levels: int) -> float:
    """Reconstruction map for the unbiased codebook.

    A piecewise-shifted copy of inv_cdf built from midpoint slopes, with
    spacing 1/(num_levels - 1). Its defining property: the average over any
    spacing-wide window centered at c in (0, 1) equals inv_cdf(c). Defined
    on [-spacing/2, 1 + spacing/2]; at the exact endpoints the one-sided
    limits diverge, so -inf/+inf is returned there.
    """
    if num_levels < 2:
        raise ValueError(f"num_levels must be >= 2, got {num_levels}")
    spacing = 1.0 / (num_levels - 1)
    r = float(r)
    if math.isnan(r) or r < -spacing / 2 - 1e-12 or r > 1.0 + spacing / 2 + 1e-12:
        raise ValueError(f"unbiased_recon: {r} outside [{-spacing/2}, {1 + spacing/2}]")
    u, k = _split_cell(r, spacing)
    if u >= 1.0:
        # Possible only at num_levels == 2 cell tops; the pointwise formula
        # anchors at inv_cdf(1).
        return math.inf
    base = inv_cdf(u)
    if k == 0:
        return base
    if k > 0:
        mids = u + (np.arange(k) + 0.5) * spacing
        return float(base + spacing * np.sum(_inv_cdf_slope(mids)))
    mids = u + (np.arange(k, 0) + 0.5) * spacing
    return float(base - spacing * np.sum(_inv_cdf_slope(mids)))


@dataclass(frozen=True)
class ScalarCodebook:
    """Bucket tables for one (mode, size, dither offset)."""

    mode: str
    size: int
    dither: float
    recon: np.ndarray
    grid: np.ndarray | None = None  # quantile boundaries, biased mode only


def _biased_grid(size: int, dither: float) -> np.ndarray:
    # Quantile boundaries of the biased buckets: pinned endpoints, dithered
    # interior. The bucket rule and the table builder share this one helper.
    grid = np.empty(size + 1)
    grid[0] = 0.0
    grid[size] = 1.0
    grid[1:size] = (np.arange(1, size) + dither) / size
    return grid


def _build_biased(size: int, dither: float) -> ScalarCodebook:
    grid = _biased_grid(size, dither)
    mids = (grid[:-1] + grid[1:]) / 2.0
    return ScalarCodebook(BIASED, size, dither, inv_cdf(mids), grid)


def _build_unbiased(size: int, dither: float) -> ScalarCodebook:
    spacing = 1.0 / (size - 1)
    # Reconstruction arguments (j + dither - 1/2) * spacing share one cell
    # representative u, at cell offsets k0 .. k0 + size - 1 with k0 <= 0, so
    # the whole table is one cumulative sweep of midpoint slopes anchored at
    # offset 0 (entry -k0): O(size) total.
    k0 = (0 if dither <= 0.5 else 1) - size // 2  # exact: ceil(dither - 1/2) - size/2
    u = (dither - 0.5) * spacing - k0 * spacing
    mids = u + (np.arange(k0, k0 + size - 1, dtype=np.float64) + 0.5) * spacing
    inc = spacing * _inv_cdf_slope(mids)
    # Partial sums accumulated outward from the anchor, so that a divergent
    # increment next to a domain endpoint cannot poison the rest.
    neg = -np.cumsum(inc[:-k0][::-1])[::-1]
    pos = np.cumsum(inc[-k0:])
    anchor = math.inf if u >= 1.0 else inv_cdf(u)
    recon = anchor + np.concatenate([neg, [0.0], pos])

    if not np.all(np.isfinite(recon)):
        # Only reachable at measure-zero dithers (dither == 0, or 0.5 when
        # size == 2) where the defining formula diverges; endpoint values
        # are irrelevant to the dither-averaged contract, so saturate them
        # at an extreme quantile and keep the table strictly increasing.
        lo_val = inv_cdf(_SATURATION_QUANTILE)
        recon = np.clip(recon, lo_val, -lo_val)
        for j in range(1, size):
            if recon[j] <= recon[j - 1]:
                recon[j] = recon[j - 1] + 1.0
    return ScalarCodebook(UNBIASED, size, dither, recon)


def _check_args(mode: str, num_levels: int, dither: float) -> None:
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r}")
    if num_levels < 2 or not math.log2(num_levels).is_integer():
        raise ValueError(f"num_levels must be a power of two >= 2, got {num_levels}")
    if not 0.0 <= dither < 1.0:
        raise ValueError(f"dither must lie in [0, 1), got {dither}")


def build_codebook(mode: str, num_levels: int, dither: float) -> ScalarCodebook:
    """Construct the scalar codebook for a bucket count and dither offset in [0, 1)."""
    _check_args(mode, num_levels, dither)
    if mode == BIASED:
        return _build_biased(num_levels, dither)
    return _build_unbiased(num_levels, dither)


def quantize_scalar(t, mode: str, num_levels: int, dither: float):
    """Bucket index of t (scalar or array); half-open buckets, ties go up.

    Needs no reconstruction table: the buckets follow from the mode, the
    bucket count and the dither offset alone.
    """
    _check_args(mode, num_levels, dither)
    t = np.asarray(t, dtype=np.float64)
    if np.isnan(t).any():
        raise ValueError("quantize_scalar: NaN input")
    p = ndtr(t / _SQRT3)
    if mode == BIASED:
        idx = np.searchsorted(_biased_grid(num_levels, dither), p, side="right") - 1
    else:
        idx = np.floor((num_levels - 1) * p - dither).astype(np.int64) + 1
    idx = np.clip(idx, 0, num_levels - 1)
    return int(idx) if idx.ndim == 0 else idx


def reconstruct_scalar(index, cb: ScalarCodebook):
    """Reconstruction value for a bucket index (scalar or array)."""
    index = np.asarray(index)
    if index.size and (index.min() < 0 or index.max() >= cb.size):
        raise ValueError(f"bucket index out of range [0, {cb.size})")
    out = cb.recon[index]
    return float(out) if out.ndim == 0 else out


def _biased_quant_direct(t, dither, num_levels: int):
    """Grid-free biased-mode reconstruction of t, vectorized over both t and dither.

    Same quantization rule as the table path (used to cross-check it and to
    run fresh-dither Monte Carlo sweeps without rebuilding tables).
    """
    t = np.asarray(t, dtype=np.float64)
    dither = np.asarray(dither, dtype=np.float64)
    p = ndtr(t / _SQRT3)
    idx = np.clip(np.floor(num_levels * p - dither), 0, num_levels - 1)
    left = np.where(idx == 0, 0.0, (idx + dither) / num_levels)
    right = np.where(idx == num_levels - 1, 1.0, (idx + 1 + dither) / num_levels)
    return _SQRT3 * ndtri((left + right) / 2.0)
