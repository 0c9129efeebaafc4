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

import math
import struct

import numpy as np

from .codebook import BIASED, UNBIASED
from .residual import MAX_LEVEL, ResidualCode
from .twostage import TwoStageCode
from .vquant import QuantConfig, VectorCode

MAGIC = b"HQ01"
VERSION = 1
HEADER = struct.Struct("<4sBBBBIQQd")
HEADER_BITS = HEADER.size * 8

_MODE_TO_BYTE = {BIASED: 0, UNBIASED: 1}
_BYTE_TO_MODE = {0: BIASED, 1: UNBIASED}


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
    cfg = code.config
    base, resid = code.base, code.residual
    if not 1 <= cfg.bits <= 16:
        raise FieldOverflowError(f"bits {cfg.bits} outside [1, 16]")
    if not 0 <= resid.scale_idx <= 255:
        raise FieldOverflowError(f"scale index {resid.scale_idx} does not fit one byte")
    if not 0 < cfg.dim < 1 << 32:
        raise FieldOverflowError(f"dim {cfg.dim} does not fit u32")
    for name, tok in (("seed", base.seed), ("vec_counter", base.vec_counter)):
        if not 0 <= tok < 1 << 64:
            raise FieldOverflowError(f"{name} {tok} does not fit u64")
    if not (math.isfinite(base.norm) and base.norm >= 0):
        raise FieldOverflowError(f"norm {base.norm} must be finite and >= 0")
    indices = np.asarray(base.indices)
    if indices.shape != (cfg.padded_dim,):
        raise FieldOverflowError(f"index count {indices.shape} != padded dim {cfg.padded_dim}")
    if indices.size and int(indices.max()) >= cfg.num_levels:
        raise FieldOverflowError(f"bucket index >= 2**bits = {cfg.num_levels}")
    levels = np.asarray(resid.levels)
    signs = np.asarray(resid.signs)
    if levels.shape != (cfg.padded_dim,) or signs.shape != (cfg.padded_dim,):
        raise FieldOverflowError("residual arrays do not match the padded dimension")
    if resid.scale_idx > 0:
        if levels.size and (int(levels.min()) < 0 or int(levels.max()) > MAX_LEVEL):
            raise FieldOverflowError(f"level outside [0, {MAX_LEVEL}]")
        if not np.all(np.abs(signs) == 1):
            raise FieldOverflowError("signs must be -1/+1 when the scale index is nonzero")


def encode(code: TwoStageCode) -> bytes:
    """Serialize a TwoStageCode to the wire layout above."""
    _check_fields(code)
    cfg = code.config
    base, resid = code.base, code.residual
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
    idx = np.asarray(base.indices, dtype=np.uint32)
    chunks = [((idx[:, None] >> np.arange(b)) & 1).astype(np.uint8).ravel()]
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
    if mode_byte not in _BYTE_TO_MODE:
        raise FieldOverflowError(f"unknown mode byte {mode_byte}")
    if not 1 <= bits <= 16:
        raise FieldOverflowError(f"bits {bits} outside [1, 16]")
    if dim < 1:
        raise FieldOverflowError("dim must be >= 1")
    if not (math.isfinite(norm) and norm >= 0):
        raise FieldOverflowError(f"norm {norm} must be finite and >= 0")
    cfg = QuantConfig(dim=dim, bits=bits, mode=_BYTE_TO_MODE[mode_byte])
    return cfg, scale_idx, seed, vec_counter, norm


def decode(data: bytes) -> TwoStageCode:
    """Inverse of encode; rejects truncation, dirty padding and trailing bytes."""
    cfg, scale_idx, seed, vec_counter, norm = _parse_header(data)
    d, b = cfg.padded_dim, cfg.bits
    bits = np.unpackbits(
        np.frombuffer(data, dtype=np.uint8, offset=HEADER.size), bitorder="little"
    )
    if bits.size < d * b:
        raise TruncatedPayloadError("body ends inside the index block")
    indices = (bits[: d * b].reshape(d, b).astype(np.uint32) << np.arange(b)).sum(axis=1)
    rest = bits[d * b :]
    if scale_idx > 0:
        zero_pos = np.flatnonzero(rest == 0)
        if zero_pos.size < d:
            # the level block never finishes; every 1-run seen so far is a level
            runs = np.diff(np.concatenate(([-1], zero_pos))) - 1
            tail = rest.size - (int(zero_pos[-1]) + 1 if zero_pos.size else 0)
            if int(runs.max(initial=0)) > MAX_LEVEL or tail > MAX_LEVEL:
                raise LevelOverrunError(f"unary level run exceeds {MAX_LEVEL}")
            raise TruncatedPayloadError(
                f"body ends inside the level block ({zero_pos.size}/{d} levels)"
            )
        ends = zero_pos[:d]
        levels = np.diff(np.concatenate(([-1], ends))) - 1
        if int(levels.max(initial=0)) > MAX_LEVEL:
            raise LevelOverrunError(f"decoded level exceeds {MAX_LEVEL}")
        sign_start = int(ends[-1]) + 1
        if sign_start + d > rest.size:
            raise TruncatedPayloadError("body ends inside the sign block")
        signs = (2 * rest[sign_start : sign_start + d].astype(np.int8) - 1).astype(np.int8)
        padding = rest[sign_start + d :]
    else:
        levels = np.zeros(d, dtype=np.int64)
        signs = np.zeros(d, dtype=np.int8)
        padding = rest
    if padding.size >= 8:
        raise TrailingDataError(f"{padding.size} spare bits after the payload")
    if padding.any():
        raise PaddingError("nonzero padding bits")
    if indices.size and int(indices.max()) >= cfg.num_levels:
        raise FieldOverflowError(f"bucket index >= 2**bits = {cfg.num_levels}")
    base = VectorCode(indices.astype(np.uint16), norm, seed, vec_counter)
    resid = ResidualCode(scale_idx, levels.astype(np.int64), signs)
    return TwoStageCode(base, resid, cfg)


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
