"""How often one encode derives its randomness and builds codebook tables.

Calls are counted by rebinding each function wherever a hadaquant module
has bound it by name, as the benchmark tracer does.
"""

import sys

import numpy as np
import pytest

from hadaquant import bench
from hadaquant.codebook import BIASED, UNBIASED
from hadaquant.residual import derive_residual_signs, residual_quant, scalar_dequant
from hadaquant.transform import (
    STREAM_DITHER,
    STREAM_SIGN_BITS,
    _mix64,
    _philox_key,
    apply_hd,
)
from hadaquant.twostage import quantize_two_stage
from hadaquant.vquant import QuantConfig, derive_dither, vector_quant

COUNTED = (
    "codebook.build_codebook",
    "vquant.derive_base_signs",
    "vquant.derive_dither",
    "transform.stream_rng",
)


def _count_calls(monkeypatch, names=COUNTED) -> dict:
    counts = dict.fromkeys(names, 0)
    modules = [
        m for n, m in list(sys.modules.items())
        if m is not None and (n == "hadaquant" or n.startswith("hadaquant."))
    ]
    for name in names:
        layer, fn_name = name.split(".")
        original = getattr(sys.modules[f"hadaquant.{layer}"], fn_name)

        def counted(*args, _name=name, _fn=original, **kwargs):
            counts[_name] += 1
            return _fn(*args, **kwargs)

        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if value is original:
                    monkeypatch.setattr(mod, attr, counted)
    return counts


@pytest.mark.parametrize("mode", [BIASED, UNBIASED])
def test_two_stage_encode_derives_once(monkeypatch, mode):
    cfg = QuantConfig(dim=12, bits=16, mode=mode)
    x = np.random.default_rng(91).standard_normal(12)
    counts = _count_calls(monkeypatch)
    quantize_two_stage(x, cfg, 5, 7)
    # base signs, dither, residual signs and residual sign bits: one stream
    # each; one table, for the base-stage decode the residual is built against
    assert counts == {
        "codebook.build_codebook": 1,
        "vquant.derive_base_signs": 1,
        "vquant.derive_dither": 1,
        "transform.stream_rng": 4,
    }


@pytest.mark.parametrize("mode", [BIASED, UNBIASED])
def test_vector_quant_builds_no_table(monkeypatch, mode):
    cfg = QuantConfig(dim=12, bits=16, mode=mode)
    x = np.random.default_rng(92).standard_normal(12)
    counts = _count_calls(monkeypatch)
    vector_quant(x, cfg, 5, 7)
    assert counts["codebook.build_codebook"] == 0
    assert counts["vquant.derive_base_signs"] == counts["vquant.derive_dither"] == 1


def test_dither_average_builds_one_table_stack_per_gauss_piece(monkeypatch):
    # the quadrature hands each piece's nodes to the integrand at once, and
    # the integrand builds all of their tables in one call
    counts = _count_calls(monkeypatch, ("codebook.build_codebook", "oracle._gauss_piece"))
    bench.dither_average_error(4)
    assert counts == {"codebook.build_codebook": 228, "oracle._gauss_piece": 228}


def _raw_uniforms(seed, stream_id, n):
    # (word >> 11) * 2**-53 of a bare Philox under the key stream_rng derives:
    # numpy keeps raw words stable across releases, Generator methods not.
    key_lo = _mix64(seed)
    for token in stream_id:
        key_lo = _mix64(key_lo ^ _mix64(token))
    key = _philox_key(key_lo, _mix64(key_lo ^ 0x9E3779B97F4A7C15))
    return (np.random.Philox(key=key).random_raw(n) >> 11) * 2.0**-53


@pytest.mark.parametrize("seed", [0, 5, 2**63 + 1, 2**64 - 1])
def test_dither_and_sign_bits_are_raw_philox_words(seed):
    d, num_levels = 16, 8
    r = 0.3 * np.random.default_rng(94).standard_normal(d)
    for counter in range(30):
        dither = _raw_uniforms(seed, (counter, STREAM_DITHER), 1)[0]
        assert derive_dither(seed, counter) == dither
        code = residual_quant(r, QuantConfig(d, 3), seed, counter)
        assert code.scale_idx > 0
        v = apply_hd(r, derive_residual_signs(seed, counter, d))
        radius = np.ldexp(scalar_dequant(code.scale_idx, d, num_levels), code.levels)
        uniforms = _raw_uniforms(seed, (counter, STREAM_SIGN_BITS), d)
        assert np.array_equal(code.signs, np.where(uniforms < 0.5 * (1.0 + v / radius), 1, -1))
