import dataclasses
import math

import numpy as np
import pytest

from hadaquant.bitstream import FieldOverflowError, encode
from hadaquant.codebook import BIASED, UNBIASED, build_codebook, cdf, quantize_scalar
from hadaquant.oracle import u_average
from hadaquant.transform import apply_hd, apply_hd_inverse
from hadaquant.twostage import dequantize_two_stage, quantize_two_stage
from hadaquant.vquant import (
    QuantConfig,
    VectorCode,
    derive_base_signs,
    derive_dither,
    vector_dequant,
    vector_quant,
)


def _unit(rng, dim):
    x = rng.standard_normal(dim)
    return x / np.linalg.norm(x)


def test_config_padding_and_validation():
    assert QuantConfig(dim=5, bits=4).padded_dim == 8
    assert QuantConfig(dim=8, bits=4).padded_dim == 8
    assert QuantConfig(dim=1, bits=1).padded_dim == 1
    assert QuantConfig(dim=3, bits=6).num_levels == 64
    with pytest.raises(ValueError):
        QuantConfig(dim=0, bits=4)
    with pytest.raises(ValueError):
        QuantConfig(dim=4, bits=0)
    with pytest.raises(ValueError):
        QuantConfig(dim=4, bits=17)
    with pytest.raises(ValueError):
        QuantConfig(dim=4, bits=4, mode="nope")
    # a float size constructed, then failed in padded_dim or num_levels
    for dim, bits in ((2.5, 3), (4, 3.0)):
        with pytest.raises(ValueError, match="integer"):
            QuantConfig(dim, bits)


def test_zero_vector_roundtrip():
    cfg = QuantConfig(dim=6, bits=4)
    code = vector_quant(np.zeros(6), cfg, seed=1, vec_counter=0)
    assert code.norm == 0.0
    assert np.array_equal(vector_dequant(code, cfg), np.zeros(6))


def test_dim1_recovers_sign():
    for mode in (BIASED, UNBIASED):
        cfg = QuantConfig(dim=1, bits=4, mode=mode)
        for seed in range(50):
            for x in (np.array([2.7]), np.array([-0.3])):
                decoded = vector_dequant(vector_quant(x, cfg, seed, 0), cfg)
                assert np.sign(decoded[0]) == np.sign(x[0]), (mode, seed, x)


def test_distortion_sanity_small_instance():
    cfg = QuantConfig(dim=16, bits=8)
    rng = np.random.default_rng(41)
    for trial in range(100):
        x = _unit(rng, 16)
        decoded = vector_dequant(vector_quant(x, cfg, seed=5, vec_counter=trial), cfg)
        assert float(np.sum((x - decoded) ** 2)) < 0.01


def test_decode_deterministic():
    cfg = QuantConfig(dim=33, bits=5)
    x = _unit(np.random.default_rng(42), 33)
    code = vector_quant(x, cfg, seed=9, vec_counter=3)
    again = vector_quant(x, cfg, seed=9, vec_counter=3)
    assert np.array_equal(code.indices, again.indices) and code.norm == again.norm
    a = vector_dequant(code, cfg)
    b = vector_dequant(code, cfg)
    assert np.array_equal(a, b)


def test_matches_manual_pipeline():
    # vector_quant must equal the composition of its published pieces
    cfg = QuantConfig(dim=12, bits=5, mode=UNBIASED)
    rng = np.random.default_rng(43)
    x = rng.standard_normal(12) * 3.0
    code = vector_quant(x, cfg, seed=17, vec_counter=2)
    norm = np.linalg.norm(x)
    padded = np.zeros(cfg.padded_dim)
    padded[:12] = x / norm
    diag = derive_base_signs(17, 2, cfg.padded_dim)
    dither = derive_dither(17, 2)
    table = build_codebook(cfg.mode, cfg.num_levels, dither)
    z = math.sqrt(cfg.padded_dim) * apply_hd(padded, diag)
    indices = quantize_scalar(z, cfg.mode, cfg.num_levels, dither)
    assert np.array_equal(code.indices, indices.astype(np.uint16))
    assert code.norm == pytest.approx(norm, abs=0)
    decoded = vector_dequant(code, cfg)
    manual = norm * apply_hd_inverse(table[code.indices] / math.sqrt(cfg.padded_dim), diag)
    assert np.array_equal(decoded, manual[:12])


def test_dither_quadrature_unbiasedness_at_fixed_signs():
    # fixing the sign diagonal, the dither-average of the decoded vector is x
    cfg = QuantConfig(dim=8, bits=4, mode=UNBIASED)
    rng = np.random.default_rng(44)
    x = _unit(rng, 8)
    diag = derive_base_signs(seed=77, vec_counter=0, padded_dim=8)
    z = math.sqrt(8) * apply_hd(x, diag)
    jumps = [((cfg.num_levels - 1) * cdf(float(zi))) % 1.0 for zi in z] + [0.5]

    def decoded_of_dither(u):
        tables = build_codebook(UNBIASED, cfg.num_levels, u)
        idx = quantize_scalar(z, UNBIASED, cfg.num_levels, u[:, None])
        y = np.take_along_axis(tables, idx, axis=1) / math.sqrt(8)
        return np.array([apply_hd_inverse(row, diag) for row in y])

    avg = u_average(decoded_of_dither, breakpoints=jumps)
    assert np.abs(avg - x).max() <= 1e-6


def test_orthogonality_decomposition():
    # per-trial identity: ||x - decoded||^2 = sum_i (z_i - recon_i)^2 / padded_dim
    cfg = QuantConfig(dim=64, bits=5, mode=UNBIASED)
    rng = np.random.default_rng(45)
    for trial in range(20):
        x = _unit(rng, 64)
        code = vector_quant(x, cfg, seed=31, vec_counter=trial)
        decoded = vector_dequant(code, cfg)
        diag = derive_base_signs(31, trial, 64)
        table = build_codebook(cfg.mode, cfg.num_levels, derive_dither(31, trial))
        z = math.sqrt(64) * apply_hd(x / code.norm, diag)
        transform_domain = float(np.sum((z - table[code.indices]) ** 2)) / 64
        direct = float(np.sum((x / code.norm - decoded / code.norm) ** 2))
        assert direct == pytest.approx(transform_domain, rel=1e-9)


def test_exact_small_instance_expectation_matches_monte_carlo():
    # exact E over all 16 sign patterns x dither quadrature vs seeded MC
    cfg = QuantConfig(dim=4, bits=3, mode=UNBIASED)
    rng = np.random.default_rng(46)
    x = _unit(rng, 4)
    size = cfg.num_levels

    exact = 0.0
    for pattern in range(16):
        diag = 1.0 - 2.0 * ((pattern >> np.arange(4)) & 1)
        z = 2.0 * apply_hd(x, diag)
        jumps = [((size - 1) * cdf(float(zi))) % 1.0 for zi in z] + [0.5]

        def sq_error_of_dither(u):
            tables = build_codebook(UNBIASED, size, u)
            y = np.take_along_axis(tables, quantize_scalar(z, UNBIASED, size, u[:, None]), axis=1)
            return np.array([float(np.sum((x - apply_hd_inverse(row / 2.0, diag)) ** 2))
                             for row in y])

        exact += u_average(sq_error_of_dither, breakpoints=jumps) / 16.0

    trials = 3000
    samples = np.empty(trials)
    for trial in range(trials):
        decoded = vector_dequant(vector_quant(x, cfg, seed=101, vec_counter=trial), cfg)
        samples[trial] = float(np.sum((x - decoded) ** 2))
    stderr = samples.std(ddof=1) / math.sqrt(trials)
    assert abs(samples.mean() - exact) <= 3.0 * stderr


def test_biased_mode_vector_constant():
    # end-to-end distortion statistic for the midpoint-reconstruction mode
    from hadaquant.bench import mse_suite

    row = mse_suite(256, 6, 2000, seed=12345, mode=BIASED)[0]
    assert row.experiment == "mse/random-unit"
    assert 2.4 <= row.measured <= 3.0, row.measured


def test_padding_discards_tail_and_matches_unpadded():
    cfg = QuantConfig(dim=5, bits=4)
    rng = np.random.default_rng(47)
    x = rng.standard_normal(5)
    decoded = vector_dequant(vector_quant(x, cfg, seed=3, vec_counter=0), cfg)
    assert decoded.shape == (5,)

    # a power-of-two input must hit the identical unpadded pipeline
    cfg8 = QuantConfig(dim=8, bits=4)
    x8 = rng.standard_normal(8)
    code = vector_quant(x8, cfg8, seed=3, vec_counter=0)
    diag = derive_base_signs(3, 0, 8)
    z = math.sqrt(8) * apply_hd(x8 / np.linalg.norm(x8), diag)
    indices = quantize_scalar(z, cfg8.mode, 16, derive_dither(3, 0))
    assert np.array_equal(code.indices, indices.astype(np.uint16))


def test_rejects_bad_inputs():
    cfg = QuantConfig(dim=4, bits=4)
    with pytest.raises(ValueError):
        vector_quant(np.array([1.0, np.nan, 0.0, 0.0]), cfg, 0, 0)
    with pytest.raises(ValueError):
        vector_quant(np.array([1.0, np.inf, 0.0, 0.0]), cfg, 0, 0)
    with pytest.raises(ValueError):
        vector_quant(np.zeros(3), cfg, 0, 0)
    # it was cast to its real part with only a ComplexWarning
    with pytest.raises(ValueError, match="complex"):
        vector_quant(np.array([1 + 5j, 2, 3, 4]), cfg, 0, 0)


def test_decode_rejects_out_of_range_index():
    cfg = QuantConfig(dim=4, bits=2)
    code = vector_quant(np.array([1.0, 2.0, 3.0, 4.0]), cfg, 0, 0)
    bad = VectorCode(np.full(4, 4, dtype=np.uint16), code.norm, 0, 0)
    with pytest.raises(ValueError):
        vector_dequant(bad, cfg)
    short = VectorCode(code.indices[:2], code.norm, 0, 0)
    with pytest.raises(ValueError):
        vector_dequant(short, cfg)
    # a negative index wrapped to the top bucket; float indices gave IndexError
    for indices in (np.array([-1, 0, 0, 0]), code.indices.astype(np.float64)):
        with pytest.raises(ValueError, match="index|indices"):
            vector_dequant(VectorCode(indices, code.norm, 0, 0), cfg)


@pytest.mark.parametrize(
    "seed, counter", [(2**64, 0), (-1, 0), (0, 2**64), (0, -1), (1.5, 0), (0, 1.5)]
)
def test_tokens_outside_u64_are_rejected(seed, counter):
    # the streams key on the tokens mod 2**64, so 2**64 encoded as seed 0 did;
    # 1.5 was truncated to 1, and a code carrying it decoded under seed 1
    match = "integer" if 1.5 in (seed, counter) else "outside"
    cfg = QuantConfig(dim=4, bits=3)
    for x in (np.array([3.0, -2.0, 1.0, 0.5]), np.zeros(4)):
        with pytest.raises(ValueError, match=match):
            vector_quant(x, cfg, seed, counter)
        with pytest.raises(ValueError, match=match):
            quantize_two_stage(x, cfg, seed, counter)
    code = dataclasses.replace(vector_quant(np.ones(4), cfg, 0, 0), seed=seed, vec_counter=counter)
    with pytest.raises(ValueError, match=match):
        vector_dequant(code, cfg)
    two = quantize_two_stage(np.array([3.0, -2.0, 1.0, 0.5]), cfg, 0, 1)
    bad = dataclasses.replace(two, base=dataclasses.replace(two.base, seed=seed,
                                                            vec_counter=counter))
    with pytest.raises(ValueError, match=match):
        dequantize_two_stage(bad)
    with pytest.raises(FieldOverflowError, match=match):  # a bare struct.error for 1.5
        encode(bad)
