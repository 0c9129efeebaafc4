"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run `pytest -v -s tests/test_acceptance.py` to watch the lines live; the
bench CLI (`hadaquant bench <suite>`) exposes the same experiments.
"""

import math
import time

import numpy as np
import pytest

from hadaquant import bench, bitstream
from hadaquant.codebook import (
    UNBIASED,
    build_codebook,
    cdf,
    inv_cdf,
    quantize_scalar,
)
from hadaquant.oracle import dense_hadamard, u_average
from hadaquant.residual import ResidualCode
from hadaquant.transform import fwht_normalized, sample_signs, apply_hd
from hadaquant.twostage import TwoStageCode
from hadaquant.vquant import QuantConfig, VectorCode

from scalar_reference import window_average

SEED = 20240805


def _report(number: int, name: str, ok: bool, detail: str):
    print(f"[acceptance] criterion {number} ({name}): {detail} -> {'PASS' if ok else 'FAIL'}")


def _basis_e1_exact(bits: int, trials: int):
    """Exact mean of one mse/basis-e1 trial and the Monte Carlo standard error.

    sqrt(d) * H D e1 = D_11 * (1, ..., 1): every transformed coordinate is the
    same t = +-1, so one trial's 4**bits * ||err||^2 is
    4**bits * (recon(t, U) - t)**2 and depends only on t and the dither U.
    Its first two moments come from quadrature over U (jumps at each t's
    bucket-change point and at 0.5), averaged over t = +-1.
    """
    num_levels = 1 << bits
    ts = np.array([1.0, -1.0])

    def moments(u):
        tables = build_codebook(UNBIASED, num_levels, u)
        idx = quantize_scalar(ts, UNBIASED, num_levels, u[:, None])
        v = 4.0**bits * (np.take_along_axis(tables, idx, axis=1) - ts) ** 2
        return np.concatenate([v, v * v], axis=1)

    jumps = ((num_levels - 1) * cdf(ts)) % 1.0
    m = u_average(moments, breakpoints=[*jumps, 0.5])
    mean, second = float(m[:2].mean()), float(m[2:].mean())
    return mean, math.sqrt((second - mean * mean) / trials)


def test_criterion_1_mse_constant():
    start = time.perf_counter()
    rows = bench.mse_suite(1024, 6, 20000, SEED)
    wall = time.perf_counter() - start
    random_row, basis_row = rows
    assert (random_row.experiment, basis_row.experiment) == ("mse/random-unit", "mse/basis-e1")
    exact, stderr = _basis_e1_exact(6, basis_row.trials)
    z = (basis_row.measured - exact) / stderr
    ok_time = wall <= 60.0
    ok_random = 2.3 <= random_row.measured <= 3.0
    ok_basis = basis_row.measured <= 3.0 and abs(z) <= 5.0
    _report(
        1,
        "mse constant",
        ok_time and ok_random and ok_basis,
        f"random-unit={random_row.measured:.4f} (window [2.3, 3.0]), "
        f"basis-e1={basis_row.measured:.4f} (<= 3.0; exact {exact:.5f}, z {z:+.2f}, gate 5), "
        f"wall {wall:.1f}s",
    )
    assert ok_time, f"runtime {wall:.1f}s exceeds 60s"
    assert ok_random, (
        f"mse/random-unit: measured 4^b*MSE = {random_row.measured:.4f} outside [2.3, 3.0]"
    )
    assert basis_row.measured <= 3.0, (
        f"mse/basis-e1: measured 4^b*MSE = {basis_row.measured:.4f} above the cap 3.0"
    )
    assert abs(z) <= 5.0, (
        f"mse/basis-e1: measured 4^b*MSE = {basis_row.measured:.4f} is {z:+.2f} standard "
        f"errors from its exact value {exact:.5f} (dither quadrature at bits=6; every "
        f"transformed coordinate of this input is +-1)"
    )


def test_criterion_2_unbiasedness():
    rows = bench.unbiased_suite(64, 3, 100000, SEED)
    z_row, quad_row = rows
    ok = all(r.passed for r in rows)
    _report(
        2,
        "unbiasedness",
        ok,
        f"max coordinate z-score {z_row.measured:.3f} (gate 5), "
        f"dither-average error {quad_row.measured:.2e} (gate 1e-6)",
    )
    assert z_row.measured <= 5.0
    assert quad_row.measured <= 1e-6


def test_criterion_3_inner_product_bound():
    start = time.perf_counter()
    (row,) = bench.inner_product_suite(512, 4, 10000, SEED)
    wall = time.perf_counter() - start
    ok = row.passed and wall <= 90.0
    _report(
        3,
        "inner-product bound",
        ok,
        f"d*4^b*mean<y,err>^2 = {row.measured:.3f} (gate 48.4), wall {wall:.1f}s",
    )
    assert wall <= 90.0, f"runtime {wall:.1f}s exceeds 90s"
    assert row.measured <= 48.4


def test_criterion_4_rate_bound():
    ok = True
    details = []
    for dim in (64, 4096):
        row = bench.rate_suite(dim, 4, 1000, SEED)[0]
        ok = ok and row.passed
        details.append(f"d={dim}: max body {row.measured:.0f} <= {row.reference:.0f}")
    _report(4, "rate bound", ok, "; ".join(details))
    assert ok


def test_criterion_5_exact_enumeration_suite():
    errors = bench.enumeration_reports(SEED)
    worst = max(errors.values())
    ok = worst <= 1e-12
    _report(5, "exact enumeration suite", ok, f"worst enumeration error {worst:.2e} (gate 1e-12)")
    for quantity, error in errors.items():
        assert error <= 1e-12, quantity


def test_criterion_6_recon_map_window_identity():
    worst = 0.0
    for num_levels in (8, 64):
        for r in (0.1, 0.3, 0.5, 0.77, 0.9):
            worst = max(worst, abs(window_average(r, num_levels) - inv_cdf(r)))
    ok = worst <= 1e-7
    _report(6, "reconstruction-map window identity", ok, f"worst error {worst:.2e} (gate 1e-7)")
    assert worst <= 1e-7


def test_criterion_7_transform_correctness():
    rng = np.random.default_rng(SEED)
    worst = 0.0
    for d in (1, 2, 4, 8, 16):
        v = rng.standard_normal(d)
        worst = max(worst, float(np.abs(fwht_normalized(v) - dense_hadamard(d) @ v).max()))
    x = rng.standard_normal(1 << 14)
    diag = sample_signs(SEED, 0, 1 << 14)
    y = apply_hd(x, diag)
    rel = abs(np.linalg.norm(y) ** 2 - np.linalg.norm(x) ** 2) / np.linalg.norm(x) ** 2
    ok = worst <= 1e-12 and rel <= 1e-10
    _report(
        7,
        "transform correctness",
        ok,
        f"dense mismatch {worst:.2e} (gate 1e-12), norm drift {rel:.2e} (gate 1e-10)",
    )
    assert worst <= 1e-12
    assert rel <= 1e-10


def _random_code(rng):
    dim = int(rng.integers(1, 40))
    bits = int(rng.integers(1, 9))
    cfg = QuantConfig(dim=dim, bits=bits)
    d = cfg.padded_dim
    indices = rng.integers(0, cfg.num_levels, size=d).astype(np.uint16)
    seed = int(rng.integers(1 << 40))
    counter = int(rng.integers(1 << 40))
    norm = float(rng.random() * 9)
    base = VectorCode(indices, norm, seed, counter)
    if rng.random() < 0.25:
        resid = ResidualCode(0, np.zeros(d, dtype=np.int64), np.zeros(d, dtype=np.int8))
    else:
        resid = ResidualCode(int(rng.integers(1, 40)), rng.integers(0, 7, size=d),
                             rng.choice([-1, 1], size=d).astype(np.int8))
    return TwoStageCode(base, resid, cfg)


def test_criterion_8_codec_roundtrip():
    rng = np.random.default_rng(SEED)
    for _ in range(1000):
        code = _random_code(rng)
        payload = bitstream.encode(code)
        assert bitstream.encode(bitstream.decode(payload)) == payload

    payload = bytearray(bitstream.encode(_random_code(rng)))
    corruptions = 0
    probes = [
        (bitstream.BadMagicError, lambda p: p[:1].replace(b"H", b"X") + p[1:]),
        (bitstream.VersionMismatchError, lambda p: p[:4] + b"\x07" + p[5:]),
        (bitstream.TruncatedPayloadError, lambda p: p[:-1]),
        (bitstream.TrailingDataError, lambda p: p + b"\x00"),
    ]
    for err, mutate in probes:
        with pytest.raises(err):
            bitstream.decode(bytes(mutate(bytes(payload))))
        corruptions += 1
    _report(8, "codec roundtrip", True,
            f"1000 fuzzed codes bit-identical; {corruptions} corruption classes typed")


def test_distortion_trend_toward_constant():
    # the measured constant drifts toward pi*sqrt(3)/2 as bits grow; no
    # limit is asserted, only that bits=8 sits closer than bits=3
    stats = {}
    for bits in (3, 8):
        row = bench.mse_suite(128, bits, 2000, SEED)[0]
        stats[bits] = row.measured
    drift_ok = abs(stats[8] - bench.MSE_CONSTANT) < abs(stats[3] - bench.MSE_CONSTANT)
    _report(
        0,
        "trend",
        drift_ok,
        f"4^b*MSE at b=3: {stats[3]:.3f}, b=8: {stats[8]:.3f}, target {bench.MSE_CONSTANT:.4f}",
    )
    assert drift_ok
