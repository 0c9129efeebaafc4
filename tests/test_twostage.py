import dataclasses
import math

import numpy as np
import pytest

from hadaquant import bitstream, residual, vquant
from hadaquant.residual import ResidualCode
from hadaquant.twostage import (
    TwoStageCode,
    dequantize_two_stage,
    estimate_inner_product,
    project_unit_ball,
    quantize_two_stage,
)
from hadaquant.vquant import QuantConfig, _decode_padded_unit, derive_base_signs
from hadaquant.residual import derive_residual_signs


def _unit(rng, dim):
    x = rng.standard_normal(dim)
    return x / np.linalg.norm(x)


def test_projection_cases():
    v = np.array([0.3, 0.4])  # norm 0.5
    assert np.array_equal(project_unit_ball(v), v)
    w = np.array([0.0, 4.0])
    assert project_unit_ball(w) == pytest.approx([0.0, 1.0], abs=0)
    rng = np.random.default_rng(61)
    for _ in range(10):
        u = rng.standard_normal(16) * 3
        once = project_unit_ball(u)
        assert np.linalg.norm(once) <= 1.0 + 1e-12
        assert project_unit_ball(once) == pytest.approx(once, abs=1e-12)


def test_residual_norm_within_ball_bound():
    cfg = QuantConfig(dim=24, bits=2)
    rng = np.random.default_rng(62)
    for trial in range(30):
        code = quantize_two_stage(_unit(rng, 24), cfg, seed=4, vec_counter=trial)
        assert code.residual.scale_idx >= 0  # encode asserted ||r|| <= 2 internally


def test_residual_scale_typically_small():
    # median ||r||^2 <= 10 x the expected base distortion at bits=6
    cfg = QuantConfig(dim=1024, bits=6)
    rng = np.random.default_rng(63)
    x = _unit(rng, 1024)
    norms = []
    for trial in range(60):
        code = quantize_two_stage(x, cfg, seed=50, vec_counter=trial)
        approx = project_unit_ball(_decode_padded_unit([code.base], cfg)[0])
        norms.append(float(np.sum((x - approx) ** 2)))
    cap = 10.0 * (math.pi * math.sqrt(3.0) / 2.0) / 4.0**6
    assert float(np.median(norms)) <= cap


def test_seed_determinism_byte_identical():
    cfg = QuantConfig(dim=40, bits=5)
    x = _unit(np.random.default_rng(64), 40)
    a = quantize_two_stage(x, cfg, seed=77, vec_counter=9)
    b = quantize_two_stage(x, cfg, seed=77, vec_counter=9)
    assert bitstream.encode(a) == bitstream.encode(b)


def test_stage_streams_are_separated():
    base = derive_base_signs(77, 9, 64)
    resid = derive_residual_signs(77, 9, 64)
    assert not np.array_equal(base, resid)


def test_trivial_residual_decodes_to_projected_base():
    cfg = QuantConfig(dim=12, bits=6)
    x = _unit(np.random.default_rng(65), 12)
    code = quantize_two_stage(x, cfg, seed=6, vec_counter=0)
    d = cfg.padded_dim
    trivial = TwoStageCode(
        code.base,
        ResidualCode(0, np.zeros(d, dtype=np.int64), np.zeros(d, dtype=np.int8)),
        cfg,
    )
    expect = code.base.norm * project_unit_ball(_decode_padded_unit([code.base], cfg)[0])[:12]
    assert np.array_equal(dequantize_two_stage(trivial), expect)


def test_roundtrip_distortion_reasonable():
    cfg = QuantConfig(dim=256, bits=6)
    rng = np.random.default_rng(66)
    x = _unit(rng, 256)
    errs = []
    for trial in range(30):
        code = quantize_two_stage(x, cfg, seed=12, vec_counter=trial)
        errs.append(float(np.sum((x - dequantize_two_stage(code)) ** 2)))
    # the sign-bit stage trades L2 distortion for query-direction
    # decorrelation; a loose cap still catches gross breakage
    assert float(np.mean(errs)) <= 100.0 / 4.0**6


def test_inner_product_trivial_cases():
    cfg = QuantConfig(dim=20, bits=4)
    x = _unit(np.random.default_rng(67), 20)
    code = quantize_two_stage(x, cfg, seed=2, vec_counter=0)
    assert estimate_inner_product(code, np.zeros(20)) == 0.0
    xhat = dequantize_two_stage(code)
    assert estimate_inner_product(code, xhat) == pytest.approx(
        float(xhat @ xhat), rel=1e-12
    )


def test_rejects_non_unit_and_bad_shapes():
    # non-unit and zero inputs are encoded, not rejected: the norm rides along
    cfg = QuantConfig(dim=8, bits=4)
    for scale in (0.5, 3.0, 1e-3):
        x = np.full(8, scale)
        decoded = dequantize_two_stage(quantize_two_stage(x, cfg, 0, 0))
        assert np.linalg.norm(decoded - x) <= 0.2 * np.linalg.norm(x)
    zero = quantize_two_stage(np.zeros(8), cfg, 0, 0)
    assert zero.base.norm == 0.0 and zero.residual.scale_idx == 0
    assert np.array_equal(dequantize_two_stage(zero), np.zeros(8))
    with pytest.raises(ValueError):
        quantize_two_stage(np.zeros(7), cfg, 0, 0)
    with pytest.raises(ValueError):
        quantize_two_stage(np.array([np.nan] + [0.0] * 7), cfg, 0, 0)
    # complex vectors were cast to their real parts with only a ComplexWarning
    with pytest.raises(ValueError, match="complex"):
        quantize_two_stage(np.array([1 + 5j] + [2.0] * 7), cfg, 0, 0)
    x = _unit(np.random.default_rng(69), 8)
    code = quantize_two_stage(x, cfg, 0, 0)
    with pytest.raises(ValueError):
        estimate_inner_product(code, np.zeros(7))
    with pytest.raises(ValueError, match="complex"):
        estimate_inner_product(code, np.array([1 + 5j] + [2.0] * 7))
    # a finite query whose product with the decoded vector overflows gave inf
    aligned = np.sign(dequantize_two_stage(code))
    with pytest.raises(ValueError, match="exceeds the float64 range"):
        estimate_inner_product(code, 1e308 * aligned)
    assert math.isfinite(estimate_inner_product(code, 1e300 * aligned))
    bad = TwoStageCode(
        code.base,
        ResidualCode(code.residual.scale_idx, code.residual.levels[:4],
                     code.residual.signs[:4]),
        cfg,
    )
    with pytest.raises(ValueError):
        dequantize_two_stage(bad)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_estimate_rejects_non_finite_query(bad):
    cfg = QuantConfig(dim=8, bits=4)
    code = quantize_two_stage(_unit(np.random.default_rng(70), 8), cfg, 0, 0)
    y = np.ones(8)
    y[3] = bad
    with pytest.raises(ValueError, match="NaN or infinite"):
        estimate_inner_product(code, y)
    with pytest.raises(ValueError, match="NaN or infinite"):
        estimate_inner_product(code, np.full(8, bad))


# (stage, field, corruption): codes no encoder makes; a decode of the first
# two gave inf/NaN or silently wrong values, the next two a wrapped or
# IndexError lookup, and the last a TypeError. The stage decoders get the
# same cases in test_vquant.py and test_residual.py.
_MALFORMED = {
    "level-above-cap": ("residual", "levels", lambda a: np.full_like(a, 2000)),
    "negative-level": ("residual", "levels", lambda a: np.full_like(a, -1)),
    "negative-index": ("base", "indices", lambda a: np.concatenate(([-1], a[1:]))),
    "float-indices": ("base", "indices", lambda a: a.astype(np.float64)),
    "float-scale-index": ("residual", "scale_idx", float),
}


@pytest.mark.parametrize("case", list(_MALFORMED))
def test_two_stage_decoders_reject_a_malformed_code(case):
    stage, field, corrupt = _MALFORMED[case]
    cfg = QuantConfig(dim=4, bits=3)
    code = quantize_two_stage(np.array([3.0, -2.0, 1.0, 0.5]), cfg, 0, 1)
    assert code.residual.scale_idx > 0
    part = getattr(code, stage)
    part = dataclasses.replace(part, **{field: corrupt(getattr(part, field))})
    bad = dataclasses.replace(code, **{stage: part})
    with pytest.raises(ValueError):
        dequantize_two_stage(bad)
    with pytest.raises(ValueError):
        estimate_inner_product(bad, np.ones(4))


def test_two_stage_decode_checks_each_stage_once(monkeypatch):
    # the residual is judged inside residual_dequant only, the zero vector's too
    calls = []
    for module in (vquant, residual):
        check = module.check_code
        monkeypatch.setattr(module, "check_code",
                            lambda *a, _m=module, _c=check: calls.append(_m.__name__) or _c(*a))
    cfg = QuantConfig(dim=4, bits=3)
    for x in (np.array([3.0, -2.0, 1.0, 0.5]), np.zeros(4)):
        code = quantize_two_stage(x, cfg, 0, 1)
        calls.clear()
        dequantize_two_stage(code)
        assert sorted(calls) == ["hadaquant.residual", "hadaquant.vquant"]


def _scored_batch(dim=12, n=7):
    # n codes of mixed bits and modes, one of them a zero vector, and n queries
    rng = np.random.default_rng(73)
    x = rng.standard_normal((n, dim))
    x[2] = 0.0
    codes = [quantize_two_stage(row, QuantConfig(dim, 2 + i % 5, ("biased", "unbiased")[i % 2]),
                                9, 40 + i) for i, row in enumerate(x)]
    return codes, rng.standard_normal((n, dim))


@pytest.mark.parametrize("container", [list, tuple])
def test_a_batch_of_codes_scores_each_query_as_its_own_call(container):
    codes, ys = _scored_batch()
    products = estimate_inner_product(container(codes), ys)
    assert products.shape == (len(codes),) and products.dtype == np.float64
    assert products.tolist() == [estimate_inner_product(c, y) for c, y in zip(codes, ys)]
    (one,) = estimate_inner_product(container(codes[:1]), ys[:1])
    assert one == estimate_inner_product(codes[0], ys[0])
    assert products[2] == 0.0


def test_an_empty_batch_scores_to_an_empty_array():
    products = estimate_inner_product([], np.zeros((0, 12)))
    assert products.shape == (0,) and products.dtype == np.float64


@pytest.mark.parametrize("queries", [
    lambda ys: ys[:-1],  # one query short
    lambda ys: np.vstack([ys, ys[:1]]),  # one query over
    lambda ys: ys[0],  # one vector for the whole batch
], ids=["short", "long", "one-vector"])
def test_a_batch_needs_one_query_row_per_code(queries):
    codes, ys = _scored_batch()
    with pytest.raises(ValueError, match="a batch is n codes with n query rows"):
        estimate_inner_product(codes, queries(ys))


def test_a_bad_query_or_product_raises_its_own_error_naming_the_row():
    codes, ys = _scored_batch()
    ys[4, 3] = np.nan
    with pytest.raises(vquant.RowError, match="row 4: query vector has NaN") as info:
        estimate_inner_product(codes, ys)
    assert info.value.row == 4
    ys[4, 3] = 0.0
    with pytest.raises(vquant.RowError, match="row 0: expected query vector of length 12"):
        estimate_inner_product(codes, ys[:, :8])
    ys[5] = 1e308 * np.sign(dequantize_two_stage(codes[5]))
    with pytest.raises(vquant.RowError, match="row 5: the inner product .* exceeds the float64"):
        estimate_inner_product(codes, ys)
    bad = dataclasses.replace(codes[3], base=dataclasses.replace(codes[3].base, norm=-1.0))
    with pytest.raises(vquant.RowError, match="row 3: stored norm"):
        estimate_inner_product(codes[:3] + [bad], ys[:4])
