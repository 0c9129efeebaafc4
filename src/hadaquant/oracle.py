"""Independent brute-force and quadrature oracles used by tests and benchmarks.

Nothing here shares code with the modules it validates: the dense Hadamard
matrix is built by explicit Sylvester recursion, expectations over sign
patterns are exhaustive enumerations, dither averages are piecewise
Gauss-Legendre quadrature with caller-supplied jump points, and the normal
CDF/quantile oracles evaluate an erf series rather than a library routine.
The two reference reconstruction formulas (``unbiased_recon``, pointwise, and
``biased_quant_direct``, grid-free) call ``scipy.special`` directly rather
than the codebook's helpers.
"""

import math

import numpy as np
from numpy.polynomial.legendre import leggauss
from scipy.special import ndtr, ndtri

_ENUM_CAP = 12  # 4096 sign patterns; keeps exact full-pipeline checks fast


def sign_patterns(dim: int) -> np.ndarray:
    """All 2**dim sign vectors as a (2**dim, dim) array of +-1."""
    if dim > _ENUM_CAP:
        raise ValueError(f"enumeration capped at dim <= {_ENUM_CAP}, got {dim}")
    bits = (np.arange(1 << dim)[:, None] >> np.arange(dim)) & 1
    return 1.0 - 2.0 * bits


def enumerate_rademacher_expectation(fn, dim: int):
    """Exact expectation of fn over all 2**dim sign vectors (dim <= 12).

    fn may return a scalar or an array; the mean is taken pattern-wise.
    """
    patterns = sign_patterns(dim)
    vals = np.asarray([fn(row) for row in patterns], dtype=np.float64)
    out = vals.mean(axis=0)
    return float(out) if out.ndim == 0 else out


def _gauss_piece(fn, lo: float, hi: float, nodes: int):
    x, w = leggauss(nodes)
    xs = (x + 1.0) / 2.0 * (hi - lo) + lo
    vals = np.asarray([fn(s) for s in xs], dtype=np.float64)
    return np.tensordot(w * (hi - lo) / 2.0, vals, axes=1)


def _adaptive(fn, lo: float, hi: float, tol: float, depth: int):
    coarse = _gauss_piece(fn, lo, hi, 16)
    fine = _gauss_piece(fn, lo, hi, 32)
    err = np.max(np.abs(fine - coarse))
    floor = 1e-13 * max(1.0, float(np.max(np.abs(fine))))
    if err <= max(tol * (hi - lo), floor) or hi - lo < 1e-14:
        return fine
    if depth <= 0:
        raise RuntimeError(
            f"quadrature did not converge on [{lo}, {hi}] (refinement error {err:.3e})"
        )
    mid = (lo + hi) / 2.0
    return _adaptive(fn, lo, mid, tol, depth - 1) + _adaptive(fn, mid, hi, tol, depth - 1)


def u_average(fn, breakpoints=None, tol: float = 1e-10):
    """Average of fn(U) over the dither U in [0, 1).

    fn must be piecewise smooth, and the caller supplies the locations of its
    jumps in ``breakpoints`` (quantization-decision jumps are analytic, so
    blind adaptive quadrature across them is never needed). Refinement-estimated absolute error is at most ~tol per piece.
    fn may return scalars or arrays.
    """
    pts = sorted({0.0, 1.0, *(float(b) for b in (breakpoints or []) if 0.0 < float(b) < 1.0)})
    total = None
    for lo, hi in zip(pts[:-1], pts[1:]):
        piece = _adaptive(fn, lo, hi, tol, depth=24)
        total = piece if total is None else total + piece
    return float(total) if np.ndim(total) == 0 else total


def dense_hadamard(dim: int) -> np.ndarray:
    """Explicit normalized Sylvester-Hadamard matrix for dim <= 16."""
    if dim > 16:
        raise ValueError(f"dense oracle capped at dim <= 16, got {dim}")
    if dim < 1 or dim & (dim - 1):
        raise ValueError(f"dim must be a power of two, got {dim}")
    h = np.array([[1.0]])
    while h.shape[0] < dim:
        h = np.block([[h, h], [h, -h]])
    return h / math.sqrt(dim)


# --- reference scalar reconstruction (scipy.special, not the codebook) ---

_SQRT3 = math.sqrt(3.0)


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


def biased_quant_direct(t, dither, num_levels: int):
    """Grid-free biased-mode reconstruction of t, vectorized over both t and dither.

    The biased codebook's quantization rule, written without its tables: it
    cross-checks them and runs fresh-dither Monte Carlo sweeps without
    building a table per draw.
    """
    t = np.asarray(t, dtype=np.float64)
    dither = np.asarray(dither, dtype=np.float64)
    p = ndtr(t / _SQRT3)
    idx = np.clip(np.floor(num_levels * p - dither), 0, num_levels - 1)
    left = np.where(idx == 0, 0.0, (idx + dither) / num_levels)
    right = np.where(idx == num_levels - 1, 1.0, (idx + 1 + dither) / num_levels)
    return _quantile((left + right) / 2.0)


# --- independent normal CDF / quantile (erf series + continued fraction) ---


def _erf_taylor(x: float) -> float:
    # erf(x) = 2/sqrt(pi) * sum (-1)^n x^(2n+1) / (n! (2n+1)); |x| <= 3.
    term = x
    acc = x
    n = 0
    while abs(term) > 1e-18 * (abs(acc) + 1.0):
        n += 1
        term *= -x * x / n
        acc += term / (2 * n + 1)
    return 2.0 / math.sqrt(math.pi) * acc


def _erfc_cf(x: float) -> float:
    # Continued fraction for erfc, x > 0:
    #   erfc(x) = exp(-x^2)/sqrt(pi) * 1/(x + (1/2)/(x + 1/(x + (3/2)/(x + ...))))
    # evaluated by the modified Lentz algorithm.
    tiny = 1e-300
    f = x if x != 0 else tiny
    c = f
    d = 0.0
    for n in range(1, 300):
        a = n / 2.0
        d = x + a * d
        d = tiny if d == 0 else d
        c = x + a / c
        c = tiny if c == 0 else c
        d = 1.0 / d
        delta = c * d
        f *= delta
        if abs(delta - 1.0) < 1e-17:
            break
    return math.exp(-x * x) / math.sqrt(math.pi) / f


def normal_cdf_oracle(t: float) -> float:
    """Standard normal CDF via series/continued fraction, accurate to ~1e-15."""
    x = t / math.sqrt(2.0)
    if abs(x) <= 3.0:
        return 0.5 * (1.0 + _erf_taylor(x))
    if x > 0:
        return 1.0 - 0.5 * _erfc_cf(x)
    return 0.5 * _erfc_cf(-x)


def normal_quantile_oracle(p: float) -> float:
    """Standard normal quantile by bisection plus Newton on the series CDF."""
    if not 0.0 < p < 1.0:
        raise ValueError("p must lie in (0, 1)")
    lo, hi = -40.0, 40.0
    for _ in range(60):
        mid = (lo + hi) / 2.0
        if normal_cdf_oracle(mid) < p:
            lo = mid
        else:
            hi = mid
    x = (lo + hi) / 2.0
    for _ in range(4):
        density = math.exp(-x * x / 2.0) / math.sqrt(2.0 * math.pi)
        if density == 0.0:
            break
        x -= (normal_cdf_oracle(x) - p) / density
    return x
