"""Normalized fast Walsh-Hadamard transform and random sign diagonals.

The transform realized here is the Sylvester (tensor-power) construction,
so the matrix is symmetric and the forward and inverse butterflies are the
same up to the sign diagonal. Normalization is applied as a single scale
pass after the butterflies, which keeps the butterfly stages exact in
binary floating point for integer inputs.

The butterflies run as a constant-geometry sweep (M. C. Pease, J. ACM 15(2),
1968). Every one of the log2 d stages reads the adjacent pairs
(v[2i], v[2i+1]) and writes a + b to out[i] and a - b to out[i + d/2], two
long array operations into one of two buffers in turn. Each stage rotates
the index bits one place to the right, so after the last stage the layout is
back in natural order, and stage k meets exactly the two operands, in the
same order, that the textbook in-place stage of span 2**k pairs up. The
result is therefore bit-identical to the in-place sweep, signed zeros
included, while every stage is two calls over d/2 entries rather than d/2h
short loops of length h.
"""

import numpy as np

_MASK64 = (1 << 64) - 1

# Stage tags for the independent randomness streams derived from one seed.
# The vector quantizer keys its streams by (vec_counter, tag) so that the
# base sign diagonal, the dither offset, the residual sign diagonal and the
# residual sign bits are mutually independent but individually reproducible.
STREAM_BASE_SIGNS = 1
STREAM_DITHER = 2
STREAM_RESIDUAL_SIGNS = 3
STREAM_SIGN_BITS = 4


def is_power_of_two(n: int) -> bool:
    return n > 0 and (n & (n - 1)) == 0


def _mix64(x: int) -> int:
    # SplitMix64 finalizer; bijective on 64-bit words.
    x &= _MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
    return x ^ (x >> 31)


def stream_rng(seed: int, stream_id) -> np.random.Generator:
    """Counter-based generator for the stream keyed by (seed, stream_id).

    ``stream_id`` may be an integer or a tuple of integers. Distinct ids
    under the same seed give statistically independent Philox streams;
    the same (seed, stream_id) always reproduces the same stream.
    """
    key_lo = _mix64(int(seed))
    for token in stream_id if isinstance(stream_id, tuple) else (stream_id,):
        key_lo = _mix64(key_lo ^ _mix64(int(token)))
    key_hi = _mix64(key_lo ^ 0x9E3779B97F4A7C15)
    return np.random.Generator(np.random.Philox(key=_philox_key(key_lo, key_hi)))


def _philox_key(key_lo: int, key_hi: int) -> np.ndarray:
    # The key numpy derives from the list [key_lo, key_hi]: when exactly one
    # word is >= 2**63 it infers float64, so both words are rounded to 53
    # bits, and a word that rounds to 2**64 is stored as 0. Every payload's
    # streams carry that rounding, so it is kept, made explicit.
    if (key_lo >> 63) != (key_hi >> 63):
        key_lo, key_hi = (int(float(w)) & _MASK64 for w in (key_lo, key_hi))
    return np.array([key_lo, key_hi], dtype=np.uint64)


def sample_signs(seed: int, stream_id, d: int) -> np.ndarray:
    """Draw d independent random +-1.0 signs, reproducibly keyed by (seed, stream_id).

    Sign j is +1 when the top bit of the j-th 32-bit half of the stream's raw
    64-bit words is set, low half first. These are the draws of
    ``2 * Generator.integers(0, 2, size=d) - 1``, read straight from the raw
    words, which numpy keeps stable across releases (NEP 19); Generator
    methods carry no such promise.
    """
    if not is_power_of_two(d):
        raise ValueError(f"dimension must be a power of two, got {d}")
    raw = stream_rng(seed, stream_id).bit_generator.random_raw((d + 1) // 2)
    halves = raw.astype("<u8").view("<i4")[:d]
    return np.where(halves < 0, 1.0, -1.0)


def _fwht(v: np.ndarray) -> np.ndarray:
    # Unnormalized constant-geometry butterflies along the last axis, then
    # one d**-0.5 scale pass. Each stage reads the adjacent pairs of its
    # source and writes their sums to the low half and their differences to
    # the high half of one of two buffers, in turn; v itself is only read.
    d = v.shape[-1]
    half = d // 2
    arrays = (v, np.empty_like(v), np.empty_like(v))
    pairs = [(x[..., 0::2], x[..., 1::2]) for x in arrays]
    halves = [(x[..., :half], x[..., half:]) for x in arrays]
    src = 0
    for stage in range(d.bit_length() - 1):
        dst = 1 + stage % 2
        a, b = pairs[src]
        np.add(a, b, out=halves[dst][0])
        np.subtract(a, b, out=halves[dst][1])
        src = dst
    return np.multiply(arrays[src], d ** -0.5, out=arrays[2 if src == 1 else 1])


def fwht_normalized(v) -> np.ndarray:
    """Multiply by the normalized Sylvester-Hadamard matrix in O(d log d).

    The input length must be a power of two. The result has the same
    Euclidean norm as the input up to floating-point rounding.
    """
    v = np.asarray(v, dtype=np.float64)
    if v.ndim != 1 or not is_power_of_two(v.shape[0]):
        raise ValueError(
            f"fwht_normalized needs a 1-d vector with power-of-two length, got shape {v.shape}"
        )
    return _fwht(v)


def _check_signs(signs, v: np.ndarray) -> np.ndarray:
    # The sign diagonal as float64: a +-1 vector of power-of-two length
    # matching v.
    signs = np.asarray(signs, dtype=np.float64)
    if signs.ndim != 1 or not is_power_of_two(signs.shape[0]):
        raise ValueError(f"sign diagonal length must be a power of two, got shape {signs.shape}")
    if v.shape != signs.shape:
        raise ValueError(f"length mismatch: vector {v.shape} vs diagonal {signs.shape}")
    if not np.all(np.abs(signs) == 1.0):
        raise ValueError("sign diagonal entries must be exactly -1 or +1")
    return signs


def apply_hd(x, signs) -> np.ndarray:
    """Randomly flip signs then mix: returns H (D x) for the +-1 diagonal D = signs."""
    x = np.asarray(x, dtype=np.float64)
    return _fwht(x * _check_signs(signs, x))


def apply_hd_inverse(y, signs) -> np.ndarray:
    """Exact inverse of apply_hd: returns D (H^T y); H^T = H here."""
    y = np.asarray(y, dtype=np.float64)
    signs = _check_signs(signs, y)
    out = _fwht(y)
    out *= signs
    return out
