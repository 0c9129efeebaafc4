import itertools
import math

import numpy as np
import pytest

from hadaquant import bench, bitstream, residual
from hadaquant.residual import (
    LEVEL_SUM_COEFF,
    MAX_LEVEL,
    MAX_SCALE_IDX,
    ResidualCode,
    _doubling_levels,
    derive_residual_signs,
    min_scale,
    residual_dequant,
    residual_quant,
    scalar_dequant,
)
from hadaquant.transform import apply_hd, apply_hd_inverse, stream_rng
from hadaquant.twostage import TwoStageCode
from hadaquant.vquant import QuantConfig, VectorCode


def _scale_idx(s, d, bits):
    # The scale index residual_quant picks for r = s*sqrt(d)*e1, whose
    # norm/sqrt(d) is exactly s when sqrt(d) is a power of two.
    r = np.zeros(d)
    r[0] = s * math.sqrt(d)
    return residual_quant(r, QuantConfig(d, bits), seed=0, vec_counter=0).scale_idx


def test_scale_quant_examples():
    # d=4, num_levels=4 -> floor 1/16
    assert min_scale(4, 4) == 1.0 / 16.0
    assert _scale_idx(0.01, 4, 2) == 0
    assert _scale_idx(0.3, 4, 2) == 4  # ceil(log2 4.8) = 3
    assert _scale_idx(1.0 / 16.0, 4, 2) == 1  # exactly the floor


def test_scale_dequant_examples():
    assert scalar_dequant(0, 4, 4) == 0.0
    sigma = scalar_dequant(4, 4, 4)
    assert sigma == 0.5
    assert 0.3 <= sigma < 0.6
    assert scalar_dequant(1, 4, 4) == 1.0 / 16.0
    with pytest.raises(ValueError):
        scalar_dequant(-1, 4, 4)


def test_scale_roundtrip_property():
    d, bits, size = 64, 4, 16
    tau = min_scale(d, size)
    rng = np.random.default_rng(51)
    for s in tau + (2.0 / math.sqrt(d) - tau) * rng.random(1000):
        sigma = scalar_dequant(_scale_idx(s, d, bits), d, size)
        assert s <= sigma < 2.0 * s


def test_zero_residual_trivial_code():
    code = residual_quant(np.zeros(8), QuantConfig(8, 4), seed=1, vec_counter=0)
    assert code.scale_idx == 0
    assert not code.levels.any() and not code.signs.any()
    assert np.array_equal(residual_dequant(code, QuantConfig(8, 4), 1, 0), np.zeros(8))


def _residual_for_transformed(v, seed, vec_counter):
    # build an input whose transformed image is exactly v, so levels and
    # sign biases can be checked against hand-computed values
    diag = derive_residual_signs(seed, vec_counter, len(v))
    return apply_hd_inverse(np.asarray(v, dtype=np.float64), diag)


def _fresh_sign_bits(monkeypatch, draw):
    # Replace the sign-bit stream, keeping the sign diagonal fixed.
    monkeypatch.setattr(residual, "sample_uniforms", lambda seed, stream_id, n: draw(n))


@pytest.mark.parametrize("scale_idx, bits", [(1, 1), (40, 4), (MAX_SCALE_IDX, 16)])
def test_decode_is_the_inverse_transform_of_every_level(scale_idx, bits):
    # sigma * 2**level * sign at every level 0..MAX_LEVEL, by np.ldexp, then
    # the inverse transform under the code's diagonal: the same bits
    cfg = QuantConfig(130, bits)
    d = cfg.padded_dim
    levels = np.resize(np.arange(MAX_LEVEL + 1, dtype=np.int16), d)
    signs = np.where(np.arange(d) % 3 == 0, -1, 1).astype(np.int8)
    sigma = scalar_dequant(scale_idx, d, cfg.num_levels)
    want = apply_hd_inverse(np.ldexp(sigma, levels.astype(np.int64)) * signs,
                            derive_residual_signs(5, 6, d))
    code = ResidualCode(scale_idx, levels, signs)
    assert residual_dequant(code, cfg, 5, 6).tobytes() == want.tobytes()


def test_levels_and_radii_worked_example(monkeypatch):
    # sigma = 0.5 at d=4, num_levels=4; transformed magnitudes (0.7, .5, .1, 0)
    v = np.array([0.7, 0.5, 0.1, 0.0])
    r = _residual_for_transformed(v, seed=9, vec_counter=0)
    code = residual_quant(r, QuantConfig(4, 2), seed=9, vec_counter=0)
    assert code.scale_idx == 4
    assert scalar_dequant(code.scale_idx, 4, 4) == 0.5
    assert list(code.levels) == [1, 0, 0, 0]
    # v = radius exactly (0.5 = sigma * 2^0) forces a deterministic +1 sign
    with monkeypatch.context() as patch:
        for draw in range(20):
            _fresh_sign_bits(patch, stream_rng(1234, draw).random)
            assert residual_quant(r, QuantConfig(4, 2), 9, 0).signs[1] == 1
    # decoded magnitudes are radius * sign
    decoded_q = np.abs(apply_hd(residual_dequant(code, QuantConfig(4, 2), 9, 0),
                                derive_residual_signs(9, 0, 4)))
    assert decoded_q == pytest.approx([1.0, 0.5, 0.5, 0.5], abs=1e-12)


def test_sign_bias_matches_probability(monkeypatch):
    # P(sign=+1) = (1 + v/radius)/2 = 0.85 for v=0.7, radius=1.0
    v = np.array([0.7, 0.5, 0.1, 0.0])
    r = _residual_for_transformed(v, seed=9, vec_counter=0)
    _fresh_sign_bits(monkeypatch, stream_rng(555, 0).random)
    hits = sum(residual_quant(r, QuantConfig(4, 2), 9, 0).signs[0] == 1 for _ in range(2000))
    assert abs(hits / 2000 - 0.85) <= 0.03


def test_conditional_unbiasedness_monte_carlo():
    # fixed (r, diagonal); average decode over fresh sign draws approaches r.
    # Draws are vectorized through the dense transform oracle; a spot check
    # ties that decode path to the production one.
    from hadaquant.oracle import dense_hadamard

    d = 8
    rng_input = np.random.default_rng(52)
    r = rng_input.standard_normal(d)
    r *= 0.05 / np.linalg.norm(r)
    code = residual_quant(r, QuantConfig(8, 4), seed=3, vec_counter=0)
    diag = derive_residual_signs(3, 0, d)
    sigma = scalar_dequant(code.scale_idx, d, 16)
    radius = np.ldexp(sigma, code.levels)
    p_plus = 0.5 * (1.0 + apply_hd(r, diag) / radius)

    trials = 100_000
    rng = stream_rng(777, 0)
    signs = np.where(rng.random((trials, d)) < p_plus, 1, -1)
    decoded = (signs * radius) @ dense_hadamard(d) * diag
    for row in range(5):
        prod = residual_dequant(
            ResidualCode(code.scale_idx, code.levels, signs[row].astype(np.int8)),
            QuantConfig(8, 4), 3, 0,
        )
        assert np.abs(prod - decoded[row]).max() <= 1e-12
    mean = decoded.mean(axis=0)
    stderr = decoded.std(axis=0, ddof=1) / math.sqrt(trials)
    assert np.all(np.abs(mean - r) <= 5.0 * stderr)


def test_exact_sign_enumeration_recovers_residual():
    # weight every sign pattern by its probability: E[decode] = r exactly
    d = 4
    v = np.array([0.31, -0.22, 0.119, -0.04])
    r = _residual_for_transformed(v, seed=21, vec_counter=5)
    code = residual_quant(r, QuantConfig(4, 3), seed=21, vec_counter=5)
    sigma = scalar_dequant(code.scale_idx, d, 8)
    radius = np.ldexp(sigma, code.levels)
    v_check = apply_hd(r, derive_residual_signs(21, 5, d))
    p_plus = 0.5 * (1.0 + v_check / radius)
    expect = np.zeros(d)
    for pattern in itertools.product((1, -1), repeat=d):
        signs = np.array(pattern, dtype=np.int8)
        prob = float(np.prod(np.where(signs == 1, p_plus, 1.0 - p_plus)))
        lam = ResidualCode(code.scale_idx, code.levels, signs)
        expect += prob * residual_dequant(lam, QuantConfig(4, 3), 21, 5)
    assert np.abs(expect - r).max() <= 1e-12


def _level_by_definition(v, sigma):
    level = 0
    while v > sigma * 2.0**level:
        level += 1
    return level


def test_doubling_levels_match_definition_on_boundaries():
    # exact powers of two times sigma, their one-ulp neighbours, zero and
    # subnormals, for every power-of-two sigma from 2**-60 to 2**2
    rng = np.random.default_rng(56)
    for exp in range(-60, 3):
        sigma = 2.0**exp
        edges = sigma * 2.0 ** np.arange(MAX_LEVEL + 1)
        v = np.concatenate([
            edges,
            np.nextafter(edges, 0.0),
            np.nextafter(edges[:-1], np.inf),
            [0.0, 5e-324, 1e-310, np.nextafter(2.0**-1022, 0.0), 2.0**-1022],
            sigma * 2.0 ** (rng.random(50) * MAX_LEVEL),
        ])
        expect = [_level_by_definition(float(vi), sigma) for vi in v]
        assert _doubling_levels(v, sigma).tolist() == expect, exp
    with pytest.raises(RuntimeError):
        _doubling_levels(np.array([np.nextafter(2.0**MAX_LEVEL, np.inf)]), 1.0)


def test_level_sum_rate_bound():
    # The scale floor 1/(d * 2**bits) moves with bits; the rate gate rests on this bound.
    for bits in (1, 4, 16):
        rng = np.random.default_rng(53)
        for d in (64, 1024):
            for _ in range(500):
                r = rng.standard_normal(d)
                r *= rng.random() * 2.0 / np.linalg.norm(r)
                code = residual_quant(r, QuantConfig(d, bits), seed=8, vec_counter=0)
                if code.scale_idx > 0:
                    assert float(np.sum(code.levels + 1)) <= LEVEL_SUM_COEFF * d, (bits, d)
            # Gaussian residuals stay below 1.5 * d. Near the bound: every
            # transformed coordinate but the last sits just above the scale the
            # norm quantizes to, so each takes level 1 and the sum is 2d - 1.
            num_levels = 1 << bits
            sigma = scalar_dequant(_scale_idx(0.5 / math.sqrt(d), d, bits), d, num_levels)
            v = np.zeros(d)
            v[:-1] = sigma * (1.0 + 0.4 / d)
            v[1:-1:2] *= -1.0
            r = apply_hd_inverse(v, derive_residual_signs(8, 0, d))
            code = residual_quant(r, QuantConfig(d, bits), seed=8, vec_counter=0)
            level_sum = int(np.sum(code.levels + 1))
            assert level_sum == 2 * d - 1 and level_sum <= LEVEL_SUM_COEFF * d, (bits, d)


@pytest.mark.parametrize("dim, bits, trials", [(64, 4, 4), (32768, 1, 1)])
def test_rate_gate_is_the_proven_bound(dim, bits, trials):
    # One dimension on each side of 8192..16384, where a rounded coefficient
    # would meet the proof: above it below that range, below it beyond.
    (row,) = bench.rate_suite(dim, bits, trials, seed=2)
    padded = QuantConfig(dim, bits).padded_dim
    assert row.reference == padded * (bits + 1) + math.floor(LEVEL_SUM_COEFF * padded)
    assert row.passed


def test_level_tail_bound():
    d = 4096
    rng = np.random.default_rng(54)
    levels = []
    for trial in range(25):
        r = rng.standard_normal(d)
        r *= 1.5 / np.linalg.norm(r)
        levels.append(residual_quant(r, QuantConfig(d, 4), seed=13, vec_counter=trial).levels)
    levels = np.concatenate(levels)
    for k in range(1, 7):
        bound = 2.0 * math.exp(-(2.0 ** (2 * (k - 1))) / 2.0)
        assert float(np.mean(levels >= k)) <= 2.0 * bound, k


def test_query_direction_error_bound():
    # mean squared <y, decode - r> stays below 13 |y|^2 (|r|^2 + size^-2)/d
    d, size = 256, 16
    rng = np.random.default_rng(55)
    r = rng.standard_normal(d)
    r *= 0.1 / np.linalg.norm(r)
    y = rng.standard_normal(d)
    y /= np.linalg.norm(y)
    errs = []
    for trial in range(400):
        code = residual_quant(r, QuantConfig(d, 4), seed=300, vec_counter=trial)
        errs.append(float(y @ (residual_dequant(code, QuantConfig(d, 4), 300, trial) - r)) ** 2)
    bound = 13.0 * (0.1**2 + size**-2.0) / d
    assert np.mean(errs) <= bound


def test_rejects_norm_above_two():
    r = np.ones(4)  # norm 2 is fine, 2.2 is not
    residual_quant(r, QuantConfig(4, 2), 0, 0)
    with pytest.raises(ValueError):
        residual_quant(1.1 * r, QuantConfig(4, 2), 0, 0)


def test_rejects_malformed_code():
    code = residual_quant(np.full(4, 0.3), QuantConfig(4, 2), 0, 0)
    bad = ResidualCode(code.scale_idx, code.levels[:2], code.signs)
    with pytest.raises(ValueError):
        residual_dequant(bad, QuantConfig(4, 2), 0, 0)
    zeroed = ResidualCode(code.scale_idx, code.levels, np.zeros(4, dtype=np.int8))
    with pytest.raises(ValueError):
        residual_dequant(zeroed, QuantConfig(4, 2), 0, 0)
    # levels above the cap decoded to inf, negative ones silently
    for level in (MAX_LEVEL + 1, -1):
        bad = ResidualCode(code.scale_idx, np.full(4, level), code.signs)
        with pytest.raises(ValueError, match="levels"):
            residual_dequant(bad, QuantConfig(4, 2), 0, 0)
    # a float scale index passed the check and then raised TypeError
    with pytest.raises(ValueError, match="scale index"):
        residual_dequant(ResidualCode(4.0, code.levels, code.signs), QuantConfig(4, 2), 0, 0)


@pytest.mark.parametrize("levels, signs", [
    (np.full(4, 7), np.zeros(4, dtype=np.int8)),
    (np.zeros(4, dtype=np.int64), np.array([1, -1, 5, 0], dtype=np.int8)),
    (np.full(4, 2.5), np.zeros(4, dtype=np.int8)),
], ids=["levels-7", "signs", "float-levels"])
def test_zero_residual_has_one_form(levels, signs):
    # At scale index 0 the check once passed any levels and signs, and encode
    # wrote the zero residual's payload for them.
    cfg, code = QuantConfig(4, 2), ResidualCode(0, levels, signs)
    with pytest.raises(ValueError, match="scale index 0"):
        residual.check_code(code, cfg)
    with pytest.raises(ValueError, match="scale index 0"):
        residual_dequant(code, cfg, 0, 0)
    base = VectorCode(np.zeros(4, dtype=np.uint16), 1.0, 0, 0)
    with pytest.raises(bitstream.FieldOverflowError, match="scale index 0"):
        bitstream.encode(TwoStageCode(base, code, cfg))


@pytest.mark.parametrize("signs", [
    np.array([1j, 1, -1, 1]),
    np.array([1.0, 1.0, -1.0, 1.0]),
], ids=["complex", "float"])
def test_signs_must_be_integers(signs):
    # Complex signs of magnitude 1 passed the check; encode then cast 1j to
    # 0 and wrote sign -1, while the decoder read its real part.
    cfg, code = QuantConfig(4, 2), ResidualCode(4, np.zeros(4, dtype=np.int64), signs)
    with pytest.raises(ValueError, match="signs must be integers"):
        residual.check_code(code, cfg)
    with pytest.raises(ValueError, match="signs must be integers"):
        residual_dequant(code, cfg, 0, 0)
    base = VectorCode(np.zeros(4, dtype=np.uint16), 1.0, 0, 0)
    with pytest.raises(bitstream.FieldOverflowError, match="signs must be integers"):
        bitstream.encode(TwoStageCode(base, code, cfg))


@pytest.mark.parametrize("bad", [-1, 2**64, 1.5])
def test_rejects_tokens_outside_64_bits(bad):
    # they used to be reduced mod 2**64: seed -1 coded like seed 2**64 - 1;
    # 1.5 was truncated to 1, and a zero residual, which derives no stream,
    # took any token
    match = "integer" if isinstance(bad, float) else "outside"
    cfg = QuantConfig(4, 2)
    for r in (np.full(4, 0.3), np.zeros(4)):
        for seed, counter in ((bad, 0), (0, bad)):
            with pytest.raises(ValueError, match=match):
                residual_quant(r, cfg, seed, counter)
            with pytest.raises(ValueError, match=match):
                residual_dequant(residual_quant(r, cfg, 0, 0), cfg, seed, counter)


@pytest.mark.parametrize("shape", [(0,), (3,), (2, 2), (8,)], ids=["0", "3", "2x2", "8"])
def test_rejects_residual_of_wrong_shape(shape):
    # only shape (padded_dim,) = (4,) is a residual under this config; an
    # empty one divided by zero, (2, 2) made a length-2 code, and the other
    # lengths passed when the residual was negligible
    cfg = QuantConfig(3, 2)
    for fill in (0.0, 0.3):
        with pytest.raises(ValueError, match="length 4"):
            residual_quant(np.full(shape, fill), cfg, 0, 0)


def test_rejects_complex_residual():
    # it was cast to its real part with only a ComplexWarning
    with pytest.raises(ValueError, match="complex"):
        residual_quant(np.array([0.1 + 0.5j, 0.2, 0.3, 0.4]), QuantConfig(4, 2), 0, 0)


@pytest.mark.parametrize("entry", [0.5j, np.complex128(0.5j)], ids=["python", "numpy"])
def test_rejects_a_complex_entry_of_an_object_residual(entry):
    # float64 raised TypeError for a Python complex and cast a numpy one to
    # its real part with a ComplexWarning
    with pytest.raises(ValueError, match="complex"):
        residual_quant(np.array([entry, 0.2, 0.3, 0.4], dtype=object), QuantConfig(4, 2), 0, 0)
