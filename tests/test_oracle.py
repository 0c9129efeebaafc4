import ast
import math
from pathlib import Path

import numpy as np
import pytest
from numpy.polynomial.legendre import leggauss

from hadaquant import oracle
from hadaquant.codebook import UNBIASED, build_codebook, cdf, quantize_scalar
from hadaquant.oracle import dense_hadamard, sign_patterns, u_average

import scalar_reference
from scalar_reference import biased_quant_direct


def test_enumeration_linear_is_zero():
    rng = np.random.default_rng(31)
    a = rng.standard_normal(9)
    assert np.mean(sign_patterns(9) @ a) == pytest.approx(0.0, abs=1e-14)


def test_enumeration_square_is_one():
    rng = np.random.default_rng(32)
    a = rng.standard_normal(9)
    a /= np.linalg.norm(a)
    assert np.mean((sign_patterns(9) @ a) ** 2) == pytest.approx(1.0, abs=1e-13)


def test_enumeration_mixed_fourth_moment_identity():
    rng = np.random.default_rng(33)
    for _ in range(20):
        dim = int(rng.integers(2, 11))
        a = rng.standard_normal(dim)
        a /= np.linalg.norm(a)
        b = rng.standard_normal(dim)
        b /= np.linalg.norm(b)
        patterns = sign_patterns(dim)
        exact = np.mean((patterns @ a) ** 2 * (patterns @ b) ** 2)
        predicted = 1.0 + 2.0 * float(a @ b) ** 2 - 2.0 * float((a * a) @ (b * b))
        assert exact == pytest.approx(predicted, abs=1e-12)
        assert exact <= 3.0 + 1e-12


def test_enumeration_caps_dimension():
    with pytest.raises(ValueError):
        sign_patterns(13)


def test_u_average_constant():
    assert u_average(lambda u: np.full(u.shape, 2.75)) == pytest.approx(2.75, abs=1e-12)


def test_u_average_vector_valued():
    out = u_average(lambda u: np.stack([u, u * u], axis=1))
    assert out == pytest.approx([0.5, 1.0 / 3.0], abs=1e-10)


@pytest.mark.parametrize("fn", [lambda u: 2.75, lambda u: np.ones(3), lambda u: np.ones((2, u.size))],
                         ids=["scalar", "fixed-length", "node-axis-last"])
def test_u_average_rejects_values_without_leading_node_axis(fn):
    with pytest.raises(ValueError, match="one per node"):
        u_average(fn)


def _recon_of_dithers(t, size):
    # the unbiased reconstruction of t at each dither of a 1-D array
    def fn(us):
        rows = np.arange(us.size)
        return build_codebook(UNBIASED, size, us)[rows, quantize_scalar(t, UNBIASED, size, us)]

    return fn


def test_u_average_is_the_unbiasedness_oracle():
    t, size = 0.7, 8
    jump = ((size - 1) * cdf(t)) % 1.0
    avg = u_average(_recon_of_dithers(t, size), breakpoints=[jump, 0.5])
    assert avg == pytest.approx(t, abs=1e-6)


@pytest.mark.parametrize("bits", [2, 4, 6])
def test_batched_integrand_matches_per_node_builds(bits):
    # one table stack per Gauss piece gives the bits of one table per node
    size = 1 << bits

    def per_node(t):
        return lambda us: np.array(
            [build_codebook(UNBIASED, size, u)[quantize_scalar(t, UNBIASED, size, u)]
             for u in us.tolist()]
        )

    for t in np.linspace(-6.0, 6.0, 13).tolist():
        jumps = [((size - 1) * cdf(t)) % 1.0, 0.5]
        batched = u_average(_recon_of_dithers(t, size), breakpoints=jumps)
        assert batched == u_average(per_node(t), breakpoints=jumps), (bits, t)


def test_u_average_reports_nonconvergence_on_undeclared_jump():
    with pytest.raises(RuntimeError):
        u_average(lambda u: np.where(u > 1.0 / 3.0, 1.0, 0.0))


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
            lambda u, ti=ti: (ti - biased_quant_direct(ti, u, size)) ** 2,
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


def test_oracle_imports_nothing_from_the_package():
    # the oracles and the tests' reference formulas stay independent of the
    # code they check
    for module in (oracle, scalar_reference):
        tree = ast.parse(Path(module.__file__).read_text())
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom):
                assert node.level == 0, ast.unparse(node)
                assert not node.module.startswith("hadaquant"), ast.unparse(node)
            elif isinstance(node, ast.Import):
                for alias in node.names:
                    assert not alias.name.startswith("hadaquant"), ast.unparse(node)
