"""Serialize codes to the bit-exact .hq wire format and audit the rate.

Payload = 36-byte header + packed indices + unary residual levels + one
sign bit per coordinate. For d = dim padded to a power of two, the body never
exceeds d*(bits+1) + floor(LEVEL_SUM_COEFF*d) bits, deterministically, for any
input: one sign bit plus at most LEVEL_SUM_COEFF (2.7213475) level bits per
coordinate.
"""

import numpy as np

from hadaquant import QuantConfig, decode, encode, quantize_two_stage, rate_report
from hadaquant.bitstream import HEADER, WireFormatError
from hadaquant.residual import LEVEL_SUM_COEFF

rng = np.random.default_rng(4)
dim, bits = 48, 5
x = rng.standard_normal(dim)
x /= np.linalg.norm(x)

code = quantize_two_stage(x, QuantConfig(dim=dim, bits=bits), seed=123, vec_counter=0)
payload = encode(code)

print(f"payload: {len(payload)} bytes")
print(f"header : {payload[:HEADER.size].hex(' ')}")
print(f"body   : {payload[HEADER.size:HEADER.size + 16].hex(' ')} ...")

report = rate_report(code)
d = code.config.padded_dim
budget = d * (bits + 1) + int(np.floor(LEVEL_SUM_COEFF * d))
print("\nbit accounting:", report)
print(f"body bits = {report['total_bits'] - report['header_bits']} <= budget {budget}")

back = decode(payload)
print(f"\ndecode(encode(code)) re-encodes identically: {encode(back) == payload}")

print("\nevery corruption is a typed error:")
for name, blob in [
    ("flipped magic ", b"XX" + payload[2:]),
    ("truncated     ", payload[:-3]),
    ("trailing junk ", payload + b"\x00"),
    ("version bump  ", payload[:4] + b"\x09" + payload[5:]),
]:
    try:
        decode(blob)
        print(f"  {name}: accepted (!)")
    except WireFormatError as exc:
        print(f"  {name}: {type(exc).__name__}: {exc}")
