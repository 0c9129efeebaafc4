"""Bit-exact wire format for two-stage codes (file extension ``.hq``).

Layout
------
header (36 bytes, 288 bits)::

    magic        4 bytes  b"HQ01"
    version      u8       1
    mode         u8       0 = biased, 1 = unbiased
    bits         u8       base bits per coordinate, 1..16
    scale_idx    u8       residual scale index (0 = no residual payload)
    dim          u32 LE   original vector length
    seed         u64 LE
    vec_counter  u64 LE
    norm         f64 LE   stored input norm

body (little-endian bit cursor, zero-padded to a byte boundary)::

    indices   d fields of `bits` bits each, coordinate 0 in the lowest bits
    levels    only if scale_idx > 0: unary, level ones then a zero, per coordinate
    signs     only if scale_idx > 0: one bit per coordinate, 1 means +1

Every corruption decodes to a typed WireFormatError subclass, never a crash.
"""

import struct

import numpy as np

from .codebook import BIASED, UNBIASED
from .residual import MAX_LEVEL, ResidualCode
from .twostage import TwoStageCode, check_code
from .vquant import QuantConfig, VectorCode

MAGIC = b"HQ01"
VERSION = 1
HEADER = struct.Struct("<4sBBBBIQQd")
HEADER_BITS = HEADER.size * 8

_MODE_TO_BYTE = {BIASED: 0, UNBIASED: 1}
_BYTE_TO_MODE = {byte: mode for mode, byte in _MODE_TO_BYTE.items()}


class WireFormatError(ValueError):
    """Base class for every malformed-payload condition."""


class BadMagicError(WireFormatError):
    pass


class VersionMismatchError(WireFormatError):
    pass


class TruncatedPayloadError(WireFormatError):
    pass


class PaddingError(WireFormatError):
    pass


class TrailingDataError(WireFormatError):
    pass


class LevelOverrunError(WireFormatError):
    pass


class FieldOverflowError(WireFormatError):
    pass


def _check_fields(code: TwoStageCode):
    # The wire's own limit, then the codec's one check of the code: a code no
    # encoder makes has no faithful payload either.
    if not code.config.dim < 1 << 32:
        raise FieldOverflowError(f"dim {code.config.dim} does not fit u32")
    try:
        check_code(code)
    except ValueError as exc:
        raise FieldOverflowError(str(exc)) from None


def encode(code: TwoStageCode) -> bytes:
    """Serialize a TwoStageCode to the wire layout above."""
    _check_fields(code)
    cfg, base, resid = code.config, code.base, code.residual
    header = HEADER.pack(
        MAGIC,
        VERSION,
        _MODE_TO_BYTE[cfg.mode],
        cfg.bits,
        resid.scale_idx,
        cfg.dim,
        base.seed,
        base.vec_counter,
        base.norm,
    )
    d, b = cfg.padded_dim, cfg.bits
    # Field j is the low b bits of index j, lowest first: the first b of the
    # 16 bits that unpacking its little-endian u16 bytes gives.
    idx = np.ascontiguousarray(base.indices, dtype="<u2")
    chunks = [np.unpackbits(idx.view(np.uint8), bitorder="little").reshape(d, 16)[:, :b].ravel()]
    if resid.scale_idx > 0:
        levels = np.asarray(resid.levels, dtype=np.int64)
        unary = np.ones(int(levels.sum()) + d, dtype=np.uint8)
        unary[np.cumsum(levels + 1) - 1] = 0
        chunks.append(unary)
        chunks.append(((np.asarray(resid.signs, dtype=np.int8) + 1) // 2).astype(np.uint8))
    body = np.packbits(np.concatenate(chunks), bitorder="little").tobytes()
    return header + body


def _parse_header(data: bytes):
    if len(data) < HEADER.size:
        raise TruncatedPayloadError(f"payload of {len(data)} bytes is shorter than the header")
    magic, version, mode_byte, bits, scale_idx, dim, seed, vec_counter, norm = HEADER.unpack_from(
        data
    )
    if magic != MAGIC:
        raise BadMagicError(f"bad magic {magic!r}")
    if version != VERSION:
        raise VersionMismatchError(f"unsupported version {version}")
    try:
        cfg = QuantConfig(dim, bits, _BYTE_TO_MODE.get(mode_byte, f"byte {mode_byte}"))
    except ValueError as exc:
        raise FieldOverflowError(str(exc)) from None
    return cfg, scale_idx, seed, vec_counter, norm


def decode(data: bytes) -> TwoStageCode:
    """Inverse of encode; rejects malformed payloads, and codes that fail check_code."""
    cfg, scale_idx, seed, vec_counter, norm = _parse_header(data)
    d, b = cfg.padded_dim, cfg.bits
    bits = np.unpackbits(
        np.frombuffer(data, dtype=np.uint8, offset=HEADER.size), bitorder="little"
    )
    if bits.size < d * b:
        raise TruncatedPayloadError("body ends inside the index block")
    # The inverse of encode's unpacking: each field padded to 16 bits with
    # zeros, then packed back into little-endian u16 bytes.
    block = np.zeros((d, 16), dtype=np.uint8)
    block[:, :b] = bits[: d * b].reshape(d, b)
    indices = np.packbits(block, bitorder="little").view("<u2")
    rest = bits[d * b :]
    if scale_idx > 0:
        # The one-runs ended by the first d zeros are the levels. If fewer
        # than d zeros come, the run after the last one is an unfinished
        # level, and it is judged with the others.
        ends = np.flatnonzero(rest == 0)[:d]
        levels = np.diff(np.concatenate(([-1], ends, [rest.size])))[:d] - 1
        if int(levels.max()) > MAX_LEVEL:
            raise LevelOverrunError(f"unary level run exceeds {MAX_LEVEL}")
        if ends.size < d:
            raise TruncatedPayloadError(f"body ends inside the level block ({ends.size}/{d})")
        sign_start = int(ends[-1]) + 1
        if sign_start + d > rest.size:
            raise TruncatedPayloadError("body ends inside the sign block")
        signs = (2 * rest[sign_start : sign_start + d].astype(np.int8) - 1).astype(np.int8)
        padding = rest[sign_start + d :]
    else:
        levels, signs, padding = np.zeros(d, dtype=np.int16), np.zeros(d, dtype=np.int8), rest
    if padding.size >= 8:
        raise TrailingDataError(f"{padding.size} spare bits after the payload")
    if padding.any():
        raise PaddingError("nonzero padding bits")
    base = VectorCode(indices.astype(np.uint16), norm, seed, vec_counter)
    code = TwoStageCode(base, ResidualCode(scale_idx, levels.astype(np.int16), signs), cfg)
    _check_fields(code)
    return code


def rate_report(code: TwoStageCode) -> dict:
    """Exact bit accounting: header, indices, unary levels, signs, total."""
    _check_fields(code)
    cfg = code.config
    d = cfg.padded_dim
    with_residual = code.residual.scale_idx > 0
    level_bits = int(np.asarray(code.residual.levels).sum()) + d if with_residual else 0
    sign_bits = d if with_residual else 0
    idx_bits = d * cfg.bits
    return {
        "header_bits": HEADER_BITS,
        "idx_bits": idx_bits,
        "level_bits": level_bits,
        "sign_bits": sign_bits,
        "total_bits": HEADER_BITS + idx_bits + level_bits + sign_bits,
    }
