"""Reference scalar reconstructions that the codebook tests compare against.

Both formulas call ``scipy.special`` directly rather than the codebook's
helpers, and this module imports nothing from ``hadaquant``:
``unbiased_recon`` evaluates the unbiased reconstruction map pointwise, and
``biased_quant_direct`` applies the biased quantization rule without a table.
``window_average`` integrates the unbiased map over one spacing-wide window,
which the map's defining property says returns the quantile at its centre.
"""

import math

import numpy as np
from numpy.polynomial.legendre import leggauss
from scipy.special import ndtr, ndtri

_SQRT3 = math.sqrt(3.0)
_WINDOW_NODES = 64  # Gauss-Legendre nodes per smooth piece of a window


def _quantile(p):
    # Quantile of the Gaussian with variance 3 that both codebooks use.
    return _SQRT3 * ndtri(p)


def _quantile_slope(s: np.ndarray) -> np.ndarray:
    # d/ds of _quantile(s), 1 / density(_quantile(s)); +inf outside (0, 1).
    inside = (s > 0.0) & (s < 1.0)
    q = _quantile(np.where(inside, s, 0.5))
    with np.errstate(over="ignore"):
        return np.where(inside, math.sqrt(6.0 * math.pi) * np.exp(q * q / 6.0), np.inf)


def unbiased_recon(r: float, num_levels: int) -> float:
    """Reconstruction map of the unbiased codebook, evaluated pointwise.

    A piecewise-shifted copy of the quantile built from midpoint slopes, with
    spacing 1/(num_levels - 1). Its defining property: the average over any
    spacing-wide window centered at c in (0, 1) equals the quantile at c.
    Defined on [-spacing/2, 1 + spacing/2]; at the exact endpoints the
    one-sided limits diverge, so -inf/+inf is returned there. Table entry j
    of the unbiased codebook at dither u is this map at (j + u - 1/2) * spacing.
    """
    if num_levels < 2:
        raise ValueError(f"num_levels must be >= 2, got {num_levels}")
    spacing = 1.0 / (num_levels - 1)
    r = float(r)
    if math.isnan(r) or r < -spacing / 2 - 1e-12 or r > 1.0 + spacing / 2 + 1e-12:
        raise ValueError(f"unbiased_recon: {r} outside [{-spacing/2}, {1 + spacing/2}]")
    # r = u + k*spacing with u in the central cell ((1-spacing)/2, (1+spacing)/2],
    # top boundary inclusive; the 1e-12 nudge keeps exact cell boundaries on
    # the intended side of the ceiling.
    k = math.ceil((r - (1.0 + spacing) / 2.0) / spacing - 1e-12)
    u = r - k * spacing
    if u >= 1.0:
        # Possible only at num_levels == 2 cell tops; the pointwise formula
        # anchors at the quantile of 1.
        return math.inf
    base = float(_quantile(u))
    if k == 0:
        return base
    if k > 0:
        mids = u + (np.arange(k) + 0.5) * spacing
        return float(base + spacing * np.sum(_quantile_slope(mids)))
    mids = u + (np.arange(k, 0) + 0.5) * spacing
    return float(base - spacing * np.sum(_quantile_slope(mids)))


def window_average(r: float, num_levels: int) -> float:
    """Average of unbiased_recon over the spacing-wide window centered at r.

    Gauss-Legendre quadrature on each piece between the map's cell
    boundaries, where it jumps.
    """
    spacing = 1.0 / (num_levels - 1)
    lo, hi = r - spacing / 2, r + spacing / 2
    cuts = [lo, hi]
    k = math.floor((lo - (1 + spacing) / 2) / spacing)
    for j in (k, k + 1, k + 2):
        s = (1 + spacing) / 2 + j * spacing
        if lo < s < hi:
            cuts.append(s)
    cuts.sort()
    x, w = leggauss(_WINDOW_NODES)
    total = 0.0
    for a, b in zip(cuts[:-1], cuts[1:]):
        xs = (x + 1.0) / 2.0 * (b - a) + a
        total += float(np.sum(w * (b - a) / 2.0 * [unbiased_recon(s, num_levels) for s in xs]))
    return total / spacing


def biased_quant_direct(t, dither, num_levels: int):
    """Grid-free biased-mode reconstruction of t, vectorized over both t and dither.

    The biased codebook's quantization rule, written without its tables.
    """
    t = np.asarray(t, dtype=np.float64)
    dither = np.asarray(dither, dtype=np.float64)
    p = ndtr(t / _SQRT3)
    idx = np.clip(np.floor(num_levels * p - dither), 0, num_levels - 1)
    left = np.where(idx == 0, 0.0, (idx + dither) / num_levels)
    right = np.where(idx == num_levels - 1, 1.0, (idx + 1 + dither) / num_levels)
    return _quantile((left + right) / 2.0)
