import math

import numpy as np
import pytest
from numpy.polynomial.legendre import leggauss
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
from hadaquant.oracle import (
    biased_quant_direct,
    normal_cdf_oracle,
    normal_quantile_oracle,
    u_average,
    unbiased_recon,
)

SQRT3 = math.sqrt(3.0)


# --- cdf / inv_cdf --------------------------------------------------------


def test_cdf_at_zero():
    assert cdf(0.0) == 0.5


def test_cdf_matches_series_oracle():
    # cdf(t) must equal the standard normal CDF at t/sqrt(3)
    assert cdf(SQRT3) == pytest.approx(normal_cdf_oracle(1.0), abs=1e-14)
    for t in np.linspace(-8.0, 8.0, 33):
        assert cdf(t) == pytest.approx(normal_cdf_oracle(t / SQRT3), abs=1e-14)


def test_cdf_symmetry():
    for t in np.linspace(-10.0, 10.0, 81):
        assert cdf(t) + cdf(-t) == pytest.approx(1.0, abs=1e-14)


def test_inv_cdf_midpoint_and_oracle():
    assert inv_cdf(0.5) == 0.0
    assert inv_cdf(normal_cdf_oracle(1.0)) == pytest.approx(SQRT3, abs=1e-12)
    for p in (0.01, 0.1, 0.25, 0.75, 0.9, 0.999):
        assert inv_cdf(p) == pytest.approx(SQRT3 * normal_quantile_oracle(p), abs=1e-10)


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


def _recon_map_window_average(r, num_levels, nodes=64):
    # (num_levels-1) * integral of the map over [r - w/2, r + w/2], split at
    # the map's cell boundaries (w = 1/(num_levels-1))
    spacing = 1.0 / (num_levels - 1)
    lo, hi = r - spacing / 2, r + spacing / 2
    cuts = [lo, hi]
    k = math.floor((lo - (1 + spacing) / 2) / spacing)
    for j in (k, k + 1, k + 2):
        s = (1 + spacing) / 2 + j * spacing
        if lo < s < hi:
            cuts.append(s)
    cuts.sort()
    x, w = leggauss(nodes)
    total = 0.0
    for a, b in zip(cuts[:-1], cuts[1:]):
        xs = (x + 1.0) / 2.0 * (b - a) + a
        total += float(np.sum(w * (b - a) / 2.0 * [unbiased_recon(s, num_levels) for s in xs]))
    return total / spacing


def test_recon_map_equals_inv_cdf_on_central_cell():
    assert unbiased_recon(0.5, 16) == 0.0
    spacing = 1.0 / 15
    for u in (0.5 - 0.45 * spacing, 0.5, 0.5 + 0.45 * spacing):
        assert unbiased_recon(u, 16) == pytest.approx(inv_cdf(u), abs=0)


def test_recon_map_window_average_identity():
    for r in (0.1, 0.3, 0.5, 0.77, 0.9):
        avg = _recon_map_window_average(r, 16)
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
    want = SQRT3 * normal_quantile_oracle(0.75)
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
    size = 1 << bits
    for dither in TABLE_DITHERS:
        grid, recon = _reference_biased(size, dither)
        table = build_codebook(BIASED, size, dither)
        points = _biased_grid_points(np.arange(size + 1), size, dither)
        assert np.array_equal(points, grid), (size, dither)
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
        recon, _ = _reference_unbiased(size, dither)
        assert np.array_equal(build_codebook(UNBIASED, size, dither), recon), (size, dither)


def test_tables_match_reference_on_saturation_branch():
    # the measure-zero dithers where the defining formula diverges
    cases = [(1 << bits, 0.0) for bits in range(1, 17)] + [(2, 0.5)]
    for size, dither in cases:
        recon, saturated = _reference_unbiased(size, dither)
        assert saturated, (size, dither)
        assert np.array_equal(build_codebook(UNBIASED, size, dither), recon), (size, dither)


def test_build_rejects_bad_args():
    with pytest.raises(ValueError):
        build_codebook(BIASED, 1, 0.0)
    with pytest.raises(ValueError):
        build_codebook(BIASED, 3, 0.0)
    with pytest.raises(ValueError):
        build_codebook(UNBIASED, 4, 1.0)
    with pytest.raises(ValueError):
        build_codebook("other", 4, 0.0)


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
                               (UNBIASED, 4, -0.1), ("other", 4, 0.0)):
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
                return build_codebook(UNBIASED, size, u)[quantize_scalar(t, UNBIASED, size, u)]

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
