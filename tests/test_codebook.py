import math
import tracemalloc
from statistics import NormalDist

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import ndtr, ndtri

from hadaquant.codebook import (
    BIASED,
    UNBIASED,
    _biased_grid_points,
    build_codebook,
    cdf,
    inv_cdf,
    quantize_scalar,
)
from hadaquant.oracle import u_average

from scalar_reference import biased_quant_direct, unbiased_recon, window_average

SQRT3 = math.sqrt(3.0)
# The reference Gaussian from the standard library (libm erf for the CDF,
# Wichura's AS241 for the quantile), independent of scipy.special.
REFERENCE = NormalDist(0.0, SQRT3)


# --- cdf / inv_cdf --------------------------------------------------------


def test_cdf_at_zero():
    assert cdf(0.0) == 0.5


def test_cdf_matches_normal_dist():
    # cdf(t) must equal the standard normal CDF at t/sqrt(3)
    assert cdf(SQRT3) == pytest.approx(NormalDist().cdf(1.0), abs=1e-14)
    for t in np.linspace(-8.0, 8.0, 33):
        assert cdf(t) == pytest.approx(REFERENCE.cdf(t), abs=1e-14)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(t=st.floats(-70.0, 70.0))
def test_cdf_matches_normal_dist_everywhere(t):
    assert abs(cdf(t) - REFERENCE.cdf(t)) <= 1e-15


def test_cdf_symmetry():
    for t in np.linspace(-10.0, 10.0, 81):
        assert cdf(t) + cdf(-t) == pytest.approx(1.0, abs=1e-14)


def test_inv_cdf_midpoint_and_oracle():
    assert inv_cdf(0.5) == 0.0
    assert inv_cdf(NormalDist().cdf(1.0)) == pytest.approx(SQRT3, abs=1e-12)
    for p in (0.01, 0.1, 0.25, 0.75, 0.9, 0.999):
        assert inv_cdf(p) == pytest.approx(REFERENCE.inv_cdf(p), abs=1e-10)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(p=st.floats(1e-300, 1.0 - 2.0**-53))
def test_inv_cdf_matches_normal_dist_into_both_tails(p):
    assert math.isclose(inv_cdf(p), REFERENCE.inv_cdf(p), rel_tol=1e-13, abs_tol=0.0)


def test_inv_cdf_antisymmetry():
    # below p ~ 1e-6 the rounding of the literal 1 - p already moves the
    # quantile by more than 1e-10, so the identity is only testable above it
    for p in (1e-6, 1e-4, 0.2, 0.49, 0.73):
        assert inv_cdf(1.0 - p) == pytest.approx(-inv_cdf(p), abs=1e-10)


def test_inv_cdf_accuracy_contract():
    grid = np.concatenate(
        [np.logspace(-12, -1, 45), np.linspace(0.1, 0.9, 33), 1.0 - np.logspace(-12, -1, 45)]
    )
    err = np.abs(cdf(inv_cdf(grid)) - grid)
    assert err.max() <= 1e-10


def test_inv_cdf_rejects_boundary():
    for bad in (0.0, 1.0, -0.1, 1.1, math.nan):
        with pytest.raises(ValueError):
            inv_cdf(bad)


def test_cdf_rejects_nan():
    with pytest.raises(ValueError):
        cdf(math.nan)


# --- the unbiased reconstruction map ----------------------------------------


def test_recon_map_equals_inv_cdf_on_central_cell():
    assert unbiased_recon(0.5, 16) == 0.0
    spacing = 1.0 / 15
    for u in (0.5 - 0.45 * spacing, 0.5, 0.5 + 0.45 * spacing):
        assert unbiased_recon(u, 16) == pytest.approx(inv_cdf(u), abs=0)


def test_recon_map_window_average_identity():
    for r in (0.1, 0.3, 0.5, 0.77, 0.9):
        avg = window_average(r, 16)
        assert avg == pytest.approx(inv_cdf(r), abs=1e-7)


def test_recon_map_antisymmetry():
    num_levels = 16
    spacing = 1.0 / 15
    u = 0.5 + 0.2 * spacing
    for k in (1, 2, 5, -3, -7):
        lhs = unbiased_recon(u + k * spacing, num_levels)
        rhs = -unbiased_recon((1 - u) - k * spacing, num_levels)
        assert lhs == pytest.approx(rhs, abs=1e-10)


def test_unbiased_build_matches_pointwise_map():
    # the O(size) cumulative sweep must agree with direct evaluation
    rng = np.random.default_rng(23)
    for size in (2, 4, 8, 64):
        for dither in (0.25, 0.75, float(rng.random()), float(rng.random())):
            table = build_codebook(UNBIASED, size, dither)
            spacing = 1.0 / (size - 1)
            for j in range(size):
                direct = unbiased_recon((j + dither - 0.5) * spacing, size)
                assert table[j] == pytest.approx(direct, abs=1e-12), (size, dither, j)


def test_recon_map_domain():
    with pytest.raises(ValueError):
        unbiased_recon(-0.2, 16)
    with pytest.raises(ValueError):
        unbiased_recon(1.2, 16)
    with pytest.raises(ValueError):
        unbiased_recon(0.5, 1)
    spacing = 1.0 / 15
    assert unbiased_recon(-spacing / 2, 16) == -math.inf
    assert unbiased_recon(1 + spacing / 2, 16) == math.inf


# --- codebook construction ---------------------------------------------------


def test_biased_two_level_tables():
    assert np.array_equal(_biased_grid_points(np.arange(3), 2, 0.0), [0.0, 0.5, 1.0])
    want = REFERENCE.inv_cdf(0.75)
    assert build_codebook(BIASED, 2, 0.0) == pytest.approx([-want, want], abs=1e-9)


def test_biased_grid_with_half_dither():
    grid = _biased_grid_points(np.arange(5), 4, 0.5)
    assert grid == pytest.approx([0.0, 0.375, 0.625, 0.875, 1.0], abs=0)


def test_recon_strictly_increasing_all_modes():
    for mode in (BIASED, UNBIASED):
        for size in (2, 4, 16, 64):
            for dither in (0.0, 0.123, 0.5, 0.999):
                table = build_codebook(mode, size, dither)
                assert np.all(np.diff(table) > 0), (mode, size, dither)


def test_biased_interior_mirror_symmetry():
    # pinned endpoints break the mirror for the two outer buckets; interior
    # buckets mirror exactly under dither -> 1 - dither
    size = 8
    for dither in (0.2, 0.7):
        a = build_codebook(BIASED, size, dither)
        b = build_codebook(BIASED, size, 1.0 - dither)
        for j in range(1, size - 2):
            assert a[j] == pytest.approx(-b[size - 2 - j], abs=1e-12)


# Reference table arithmetic in its plainest form: a mask-guarded slope, a
# full argument array and a gather over the partial sums. The builder and
# the biased bucket rule must reproduce it bit for bit.


def _reference_slope(s):
    out = np.full(s.shape, np.inf)
    ok = (s > 0.0) & (s < 1.0)
    with np.errstate(divide="ignore", over="ignore"):
        out[ok] = 1.0 / (1.0 / math.sqrt(6.0 * math.pi)
                         * np.exp(-(SQRT3 * ndtri(s[ok])) ** 2 / 6.0))
    return out


def _reference_biased(size, dither):
    grid = np.empty(size + 1)
    grid[0] = 0.0
    grid[size] = 1.0
    grid[1:size] = (np.arange(1, size) + dither) / size
    mids = (grid[:-1] + grid[1:]) / 2.0
    return grid, SQRT3 * ndtri(mids)


def _reference_unbiased(size, dither):
    """The table and whether the saturation branch ran."""
    spacing = 1.0 / (size - 1)
    args = (np.arange(size) + dither - 0.5) * spacing
    k0 = (0 if dither <= 0.5 else 1) - size // 2
    u = args[0] - k0 * spacing
    ks = k0 + np.arange(size)
    lo = min(k0, 0)
    hi = max(int(ks[-1]), 0)
    mids = u + (np.arange(lo, hi) + 0.5) * spacing
    inc = spacing * _reference_slope(mids)
    neg = -np.cumsum(inc[:-lo][::-1])[::-1] if lo < 0 else np.empty(0)
    pos = np.cumsum(inc[-lo:]) if hi > 0 else np.empty(0)
    partial = np.concatenate([neg, [0.0], pos])
    anchor = math.inf if u >= 1.0 else SQRT3 * ndtri(u)
    recon = anchor + partial[ks - lo]
    saturated = not np.all(np.isfinite(recon))
    if saturated:
        lo_val = SQRT3 * ndtri(1e-300)
        recon = np.clip(recon, lo_val, -lo_val)
        for j in range(1, size):
            if recon[j] <= recon[j - 1]:
                recon[j] = recon[j - 1] + 1.0
    return recon, saturated


BUCKET_PROBES = np.random.default_rng(25).standard_normal(400) * 3.0


def _boundary_probes(grid):
    # Inputs that map onto interior grid points and their 1-4 ulp neighbours,
    # where the Gaussian probes above never land. At most 257 grid points.
    size = grid.size - 1
    js = np.unique(np.linspace(1, size - 1, min(size - 1, 257)).round().astype(int))
    with np.errstate(divide="ignore"):
        t = SQRT3 * ndtri(grid[js])
    probes = [t]
    up, down = t, t
    for _ in range(4):
        up, down = np.nextafter(up, np.inf), np.nextafter(down, -np.inf)
        probes += [up, down]
    return np.concatenate(probes)


TABLE_DITHERS = [0.0, 2.0**-53, 0.25, 0.5, 0.5 + 2.0**-53, 1.0 - 98303 * 2.0**-53,
                 1.0 - 2.0**-53] + [
    float(u) for u in np.random.default_rng(24).random(50)
]


@pytest.mark.parametrize("bits", range(1, 17))
def test_tables_match_reference_bit_for_bit(bits):
    # each dither alone, and all of them as one array: every row of the
    # batch is held to the same reference
    size = 1 << bits
    dithers = np.array(TABLE_DITHERS)
    biased_rows = build_codebook(BIASED, size, dithers)
    unbiased_rows = build_codebook(UNBIASED, size, dithers)
    assert biased_rows.shape == unbiased_rows.shape == (dithers.size, size)
    # one dither per row of the column, broadcast against the shared probes
    column = {mode: quantize_scalar(BUCKET_PROBES, mode, size, dithers[:, None])
              for mode in (BIASED, UNBIASED)}
    for i, dither in enumerate(TABLE_DITHERS):
        grid, recon = _reference_biased(size, dither)
        points = _biased_grid_points(np.arange(size + 1), size, dither)
        assert np.array_equal(points, grid), (size, dither)
        for table in (build_codebook(BIASED, size, dither), biased_rows[i]):
            if np.all(np.isfinite(recon)):
                assert np.array_equal(table, recon), (size, dither)
            else:
                # the top bucket's midpoint rounds to 1.0 (at bits=16 for every
                # dither >= 1 - 98303 * 2**-53); only that entry leaves the
                # reference, and stays finite
                assert np.array_equal(table[:-1], recon[:-1]), (size, dither)
                assert np.isfinite(table[-1]), (size, dither)
                assert table[-1] > table[-2], (size, dither)
        probes = np.concatenate([BUCKET_PROBES, _boundary_probes(grid)])
        p = ndtr(probes / SQRT3)
        want = np.clip(np.searchsorted(grid, p, side="right") - 1, 0, size - 1)
        assert np.array_equal(quantize_scalar(probes, BIASED, size, dither), want), (size, dither)
        assert np.array_equal(column[BIASED][i], want[:BUCKET_PROBES.size]), (size, dither)
        assert np.array_equal(column[UNBIASED][i],
                              quantize_scalar(BUCKET_PROBES, UNBIASED, size, dither)), (size, dither)
        recon, _ = _reference_unbiased(size, dither)
        for table in (build_codebook(UNBIASED, size, dither), unbiased_rows[i]):
            assert np.array_equal(table, recon), (size, dither)


def test_tables_match_reference_on_saturation_branch():
    # the measure-zero dithers where the defining formula diverges, alone and
    # as one array together with a dither on each side of 1/2 that does not
    # saturate
    for bits in range(1, 17):
        size = 1 << bits
        dithers = [0.0, 0.5] if size == 2 else [0.0]
        rows = build_codebook(UNBIASED, size, np.array([0.3, *dithers, 0.7]))
        recon, saturated = _reference_unbiased(size, 0.3)
        assert not saturated and np.array_equal(rows[0], recon), size
        recon, saturated = _reference_unbiased(size, 0.7)
        assert not saturated and np.array_equal(rows[-1], recon), size
        for i, dither in enumerate(dithers, start=1):
            recon, saturated = _reference_unbiased(size, dither)
            assert saturated, (size, dither)
            assert np.array_equal(build_codebook(UNBIASED, size, dither), recon), (size, dither)
            assert np.array_equal(rows[i], recon), (size, dither)


SPAN_DITHERS = [0.0, 2.0**-53, 0.5, 1.0 - 2.0**-53, 1.0 - 22 * 2.0**-53] + [
    float(u) for u in np.random.default_rng(2401).random(5)
]


def _spans(size: int, rng) -> set:
    # [lo, hi) column ranges: one column at each end and at each side of the
    # two anchor slots size/2 - 1 and size/2, spans touching column 0 or
    # size, spans wholly below or above the anchors, the full range, and
    # random ones
    half = size // 2
    spans = {(0, size), (0, 1), (size - 1, size), (half - 1, half), (half, half + 1),
             (0, half), (half, size), (0, half - 1 or 1), (min(half + 1, size - 1), size),
             (1, size), (0, size - 1 or 1)}
    for _ in range(4):
        lo = int(rng.integers(0, size))
        spans.add((lo, int(rng.integers(lo + 1, size + 1))))
    for _ in range(2):
        lo = int(rng.integers(0, half))
        spans.add((lo, lo + 1 + int(rng.integers(0, half - lo))))  # below size/2
        spans.add((half + lo, half + lo + 1 + int(rng.integers(0, half - lo))))  # above
    return spans


@pytest.mark.parametrize("mode", [BIASED, UNBIASED])
@pytest.mark.parametrize("bits", range(1, 17))
def test_span_columns_have_the_bits_of_the_full_table(mode, bits):
    # every dither of the saturation branch, both cell offsets and the top
    # bucket's upper-tail entry, over spans that keep or leave out the
    # anchor slot and the table's ends
    size = 1 << bits
    dithers = np.array(SPAN_DITHERS)
    full = build_codebook(mode, size, dithers)
    for lo, hi in sorted(_spans(size, np.random.default_rng(bits))):
        span = build_codebook(mode, size, dithers, lo, hi)
        assert span.shape == (dithers.size, hi - lo) and span.flags.c_contiguous, (lo, hi)
        assert np.array_equal(span, full[:, lo:hi]), (size, lo, hi)
    for i, dither in enumerate(SPAN_DITHERS):
        assert np.array_equal(build_codebook(mode, size, dither, size - 1, size),
                              full[i, -1:]), (size, dither)


@pytest.mark.parametrize("mode", [BIASED, UNBIASED])
@pytest.mark.parametrize("dither", [0.3, 0.7, np.array([0.3, 0.7, 0.5])],
                         ids=["low", "high", "mixed-stack"])
def test_build_at_bits_16_allocates_only_its_result(mode, dither):
    # after a warm-up build, a table is built inside the array it returns;
    # the stack mixes both cell offsets and keeps every row's bits
    build_codebook(mode, 1 << 16, dither)
    tracemalloc.start()
    try:
        table = build_codebook(mode, 1 << 16, dither)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.25 * table.nbytes, peak / table.nbytes
    for row, d in zip(np.atleast_2d(table), np.atleast_1d(dither)):
        assert np.array_equal(row, build_codebook(mode, 1 << 16, float(d))), d


def test_build_rejects_bad_args():
    with pytest.raises(ValueError):
        build_codebook(BIASED, 1, 0.0)
    with pytest.raises(ValueError):
        build_codebook(BIASED, 3, 0.0)
    with pytest.raises(ValueError):
        build_codebook(UNBIASED, 4, 1.0)
    with pytest.raises(ValueError):
        build_codebook("other", 4, 0.0)
    # a log2 test passed both: 2**60 + 1 rounds to 2**60, and 8.0 then
    # failed inside the build with TypeError
    for size in (2**60 + 1, 8.0):
        with pytest.raises(ValueError, match="num_levels"):
            build_codebook(UNBIASED, size, 0.3)
    for lo, hi in ((-1, 4), (0, 0), (2, 2), (3, 2), (0, 5), (4, None), (0.0, 4), (0, 2.5)):
        with pytest.raises(ValueError, match="lo|hi"):
            build_codebook(UNBIASED, 4, 0.3, lo, hi)


@pytest.mark.parametrize("mode", [BIASED, UNBIASED])
def test_batch_checks_every_dither(mode):
    for bad in (1.0, -0.1, math.nan):
        with pytest.raises(ValueError, match="dither"):
            build_codebook(mode, 4, np.array([0.2, bad, 0.6]))
        with pytest.raises(ValueError, match="dither"):
            quantize_scalar(np.zeros(3), mode, 4, np.array([[0.2], [bad]]))
    with pytest.raises(ValueError, match="1-D"):
        build_codebook(mode, 4, np.full((2, 2), 0.5))
    assert build_codebook(mode, 4, np.empty(0)).shape == (0, 4)


# --- quantize / reconstruct ---------------------------------------------------


def test_quantize_biased_examples():
    assert cdf(-1.0) < 0.5  # oracle for the bucket decision
    assert quantize_scalar(-1.0, BIASED, 2, 0.0) == 0
    assert quantize_scalar(0.0, BIASED, 2, 0.0) == 1  # tie at a boundary goes up


def test_quantize_unbiased_formula_example():
    assert quantize_scalar(0.0, UNBIASED, 4, 0.25) == 2


def test_quantize_saturated_tails():
    for mode in (BIASED, UNBIASED):
        assert quantize_scalar(-80.0, mode, 8, 0.37) == 0
        assert quantize_scalar(80.0, mode, 8, 0.37) == 7


def test_quantize_rejects_nan():
    with pytest.raises(ValueError):
        quantize_scalar(math.nan, BIASED, 4, 0.2)


def test_quantize_rejects_bad_args():
    # the same arguments build_codebook rejects
    for mode, size, dither in ((BIASED, 1, 0.0), (BIASED, 3, 0.0), (UNBIASED, 4, 1.0),
                               (UNBIASED, 4, -0.1), ("other", 4, 0.0),
                               (UNBIASED, 2**60 + 1, 0.3), (UNBIASED, 8.0, 0.3)):
        with pytest.raises(ValueError):
            quantize_scalar(0.0, mode, size, dither)


def test_reconstruct_roundtrip_and_monotone():
    vals = build_codebook(BIASED, 16, 0.3)
    assert all(v1 < v2 for v1, v2 in zip(vals, vals[1:]))
    for j in range(16):
        assert quantize_scalar(vals[j], BIASED, 16, 0.3) == j


def test_biased_direct_path_matches_tables():
    rng = np.random.default_rng(21)
    for size in (2, 8, 256):
        t = rng.standard_normal(300) * 2.5
        u = rng.random(300)
        direct = np.array(
            [biased_quant_direct(ti, ui, size) for ti, ui in zip(t, u)]
        )
        tables = np.array(
            [
                build_codebook(BIASED, size, ui)[quantize_scalar(ti, BIASED, size, ui)]
                for ti, ui in zip(t, u)
            ]
        )
        assert np.abs(direct - tables).max() <= 1e-12


# --- statistical invariants ---------------------------------------------------


def _dither_jumps(t, size):
    return [((size - 1) * cdf(float(t))) % 1.0, 0.5]


def test_unbiased_dither_average_recovers_input():
    for size in (4, 16, 64):
        for t in np.linspace(-6.0, 6.0, 13):

            def recon_of_dither(u, t=float(t), size=size):
                idx = quantize_scalar(t, UNBIASED, size, u)
                return build_codebook(UNBIASED, size, u)[np.arange(u.size), idx]

            avg = u_average(recon_of_dither, breakpoints=_dither_jumps(t, size))
            assert avg == pytest.approx(float(t), abs=1e-6), (size, t)


def test_scalar_mse_constant_monte_carlo():
    # fresh dither per draw, standard normal inputs; the size**2-scaled error
    # must approach pi*sqrt(3)/2 ~ 2.7207
    size = 256
    rng = np.random.default_rng(2024)
    z = rng.standard_normal(1_000_000)
    u = rng.random(1_000_000)
    err = z - biased_quant_direct(z, u, size)
    stat = size**2 * float(np.mean(err * err))
    assert 2.55 <= stat <= 2.90, stat


def test_crude_envelope():
    rng = np.random.default_rng(22)
    for mode in (BIASED, UNBIASED):
        for _ in range(20):
            dither = float(rng.random())
            table = build_codebook(mode, 16, dither)
            cap = max(abs(table[0]), abs(table[-1]))
            t = rng.standard_normal(50) * 10
            vals = table[quantize_scalar(t, mode, 16, dither)]
            assert np.all(np.abs(vals) <= cap)
