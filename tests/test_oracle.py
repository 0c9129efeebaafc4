import math

import numpy as np
import pytest
from numpy.polynomial.legendre import leggauss

from hadaquant.codebook import UNBIASED, _biased_quant_direct, build_codebook, cdf
from hadaquant.codebook import quantize_scalar, reconstruct_scalar
from hadaquant.oracle import (
    EnumerationReport,
    dense_hadamard,
    enumerate_rademacher_expectation,
    normal_cdf_oracle,
    normal_quantile_oracle,
    u_average,
)


def test_enumeration_linear_is_zero():
    rng = np.random.default_rng(31)
    a = rng.standard_normal(9)
    assert enumerate_rademacher_expectation(lambda e: a @ e, 9) == pytest.approx(0.0, abs=1e-14)


def test_enumeration_square_is_one():
    rng = np.random.default_rng(32)
    a = rng.standard_normal(9)
    a /= np.linalg.norm(a)
    assert enumerate_rademacher_expectation(lambda e: (a @ e) ** 2, 9) == pytest.approx(
        1.0, abs=1e-13
    )


def test_enumeration_mixed_fourth_moment_identity():
    rng = np.random.default_rng(33)
    for _ in range(20):
        dim = int(rng.integers(2, 11))
        a = rng.standard_normal(dim)
        a /= np.linalg.norm(a)
        b = rng.standard_normal(dim)
        b /= np.linalg.norm(b)
        exact = enumerate_rademacher_expectation(lambda e: (a @ e) ** 2 * (b @ e) ** 2, dim)
        predicted = 1.0 + 2.0 * float(a @ b) ** 2 - 2.0 * float((a * a) @ (b * b))
        assert exact == pytest.approx(predicted, abs=1e-12)
        assert exact <= 3.0 + 1e-12


def test_enumeration_caps_dimension():
    with pytest.raises(ValueError):
        enumerate_rademacher_expectation(lambda e: 0.0, 13)


def test_enumeration_report_error_field():
    report = EnumerationReport(4, "x", 1.25, 1.0)
    assert report.abs_error == 0.25


def test_u_average_constant():
    assert u_average(lambda u: 2.75, 8) == pytest.approx(2.75, abs=1e-12)


def test_u_average_vector_valued():
    out = u_average(lambda u: np.array([u, u * u]), 8)
    assert out == pytest.approx([0.5, 1.0 / 3.0], abs=1e-10)


def test_u_average_is_the_unbiasedness_oracle():
    t, size = 0.7, 8
    jump = ((size - 1) * cdf(t)) % 1.0

    def recon_of_dither(u):
        cb = build_codebook(UNBIASED, size, u)
        return reconstruct_scalar(quantize_scalar(t, UNBIASED, size, u), cb)

    avg = u_average(recon_of_dither, size, breakpoints=[jump, 0.5])
    assert avg == pytest.approx(t, abs=1e-6)


def test_u_average_reports_nonconvergence_on_undeclared_jump():
    with pytest.raises(RuntimeError):
        u_average(lambda u: 1.0 if u > 1.0 / 3.0 else 0.0, 8)


def test_normal_weighted_scalar_mse_near_constant():
    # E_t E_U (t - quant(t))^2 under a standard normal t-weighting, size 256:
    # within 5% of (pi sqrt(3)/2) / size^2
    size = 256
    nodes, weights = leggauss(160)
    t = nodes * 8.0
    w = weights * 8.0 * np.exp(-t * t / 2.0) / math.sqrt(2.0 * math.pi)
    total = 0.0
    for ti, wi in zip(t, w):
        jump = (size * cdf(float(ti))) % 1.0
        val = u_average(
            lambda u, ti=ti: (ti - _biased_quant_direct(ti, u, size)) ** 2,
            size,
            breakpoints=[jump],
        )
        total += wi * val
    constant = math.pi * math.sqrt(3.0) / 2.0
    assert abs(total * size**2 - constant) <= 0.05 * constant


def test_dense_hadamard_small_cases():
    assert np.array_equal(dense_hadamard(1), [[1.0]])
    assert dense_hadamard(2) == pytest.approx(np.array([[1, 1], [1, -1]]) / math.sqrt(2), abs=0)


def test_dense_hadamard_orthonormal():
    h = dense_hadamard(16)
    assert np.abs(h.T @ h - np.eye(16)).max() <= 1e-14


def test_dense_hadamard_caps():
    with pytest.raises(ValueError):
        dense_hadamard(32)
    with pytest.raises(ValueError):
        dense_hadamard(12)


def test_series_cdf_known_values():
    assert normal_cdf_oracle(0.0) == 0.5
    assert normal_cdf_oracle(1.0) == pytest.approx(0.8413447460685429, abs=1e-15)
    assert normal_cdf_oracle(-6.0) == pytest.approx(9.865876450376946e-10, rel=1e-12)


def test_series_quantile_inverts_series_cdf():
    for p in (1e-10, 1e-4, 0.3, 0.5, 0.77, 1 - 1e-6):
        assert normal_cdf_oracle(normal_quantile_oracle(p)) == pytest.approx(p, rel=1e-12)
