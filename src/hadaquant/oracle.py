"""Independent brute-force and quadrature oracles used by tests and benchmarks.

Nothing here shares code with the modules it validates: the dense Hadamard
matrix is built by explicit Sylvester recursion, expectations over sign
patterns are exhaustive enumerations, dither averages are piecewise
Gauss-Legendre quadrature with caller-supplied jump points, and the normal
CDF/quantile oracles evaluate an erf series rather than a library routine.
"""

import math
from dataclasses import dataclass

import numpy as np
from numpy.polynomial.legendre import leggauss

_ENUM_CAP = 12  # 4096 sign patterns; keeps exact full-pipeline checks fast


@dataclass(frozen=True)
class EnumerationReport:
    """Outcome of one exact-enumeration check."""

    dim: int
    quantity: str
    exact: float
    reference: float

    @property
    def abs_error(self) -> float:
        return abs(self.exact - self.reference)


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
