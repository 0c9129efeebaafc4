"""Independent brute-force and quadrature oracles that the bench suites run.

Nothing here shares code with the modules it validates: the dense Hadamard
matrix is built by explicit Sylvester recursion, an expectation over signs is
a mean over the rows of ``sign_patterns``, and dither averages are piecewise
Gauss-Legendre quadrature with caller-supplied jump points. Reference
formulas that only tests read live with the tests.

``u_average`` takes its integrand over arrays: each Gauss piece passes all
of its nodes in one call, and the integrand returns the values with the node
axis first. An integrand built on ``codebook.build_codebook`` therefore
builds one ``(nodes, num_levels)`` table stack per piece.
"""

import functools
import math

import numpy as np
from numpy.polynomial.legendre import leggauss

ENUM_DIM = 12  # 4096 sign patterns: the largest enumeration, and the one the bench runs
U_AVERAGE_TOL = 1e-10  # refinement error allowed per unit length of a u_average piece


def sign_patterns(dim: int) -> np.ndarray:
    """All 2**dim sign vectors as a (2**dim, dim) array of +-1 (dim <= ENUM_DIM)."""
    if dim > ENUM_DIM:
        raise ValueError(f"enumeration capped at dim <= {ENUM_DIM}, got {dim}")
    bits = (np.arange(1 << dim)[:, None] >> np.arange(dim)) & 1
    return 1.0 - 2.0 * bits


@functools.cache
def _legendre(nodes: int):
    # Gauss-Legendre nodes and weights on [-1, 1], computed once per order.
    x, w = leggauss(nodes)
    x.flags.writeable = w.flags.writeable = False
    return x, w


def _gauss_piece(fn, lo: float, hi: float, nodes: int):
    x, w = _legendre(nodes)
    xs = (x + 1.0) / 2.0 * (hi - lo) + lo
    vals = np.asarray(fn(xs), dtype=np.float64)
    if vals.ndim == 0 or vals.shape[0] != nodes:
        raise ValueError(
            f"u_average: fn must return {nodes} values along axis 0 (one per node), "
            f"got shape {vals.shape}"
        )
    return np.tensordot(w * (hi - lo) / 2.0, vals, axes=1)


def _adaptive(fn, lo: float, hi: float, depth: int):
    coarse = _gauss_piece(fn, lo, hi, 16)
    fine = _gauss_piece(fn, lo, hi, 32)
    err = np.max(np.abs(fine - coarse))
    floor = 1e-13 * max(1.0, float(np.max(np.abs(fine))))
    if err <= max(U_AVERAGE_TOL * (hi - lo), floor) or hi - lo < 1e-14:
        return fine
    if depth <= 0:
        raise RuntimeError(
            f"quadrature did not converge on [{lo}, {hi}] (refinement error {err:.3e})"
        )
    mid = (lo + hi) / 2.0
    return _adaptive(fn, lo, mid, depth - 1) + _adaptive(fn, mid, hi, depth - 1)


def u_average(fn, breakpoints=None):
    """Average of fn(U) over the dither U in [0, 1).

    fn is evaluated once per Gauss piece: it receives the piece's nodes as a
    1-D array and returns the values at them with the node axis first, shape
    ``(nodes,)`` for a scalar integrand or ``(nodes, ...)`` for an array one;
    any other shape raises ``ValueError``. The average has the integrand's
    shape without the node axis.

    fn must be piecewise smooth, and the caller supplies the locations of its
    jumps in ``breakpoints`` (quantization-decision jumps are analytic, so
    blind adaptive quadrature across them is never needed). Refinement-estimated
    absolute error is at most ~U_AVERAGE_TOL per piece.
    """
    pts = sorted({0.0, 1.0, *(float(b) for b in (breakpoints or []) if 0.0 < float(b) < 1.0)})
    total = None
    for lo, hi in zip(pts[:-1], pts[1:]):
        piece = _adaptive(fn, lo, hi, depth=24)
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
