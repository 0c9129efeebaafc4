"""How often one encode derives its randomness and builds codebook tables.

Calls are counted by rebinding each function wherever a hadaquant module
has bound it by name, as the benchmark tracer does.
"""

import sys

import numpy as np
import pytest

from hadaquant import bench
from hadaquant.codebook import BIASED, UNBIASED
from hadaquant.twostage import quantize_two_stage
from hadaquant.vquant import QuantConfig, vector_quant

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
