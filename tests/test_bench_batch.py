"""The bench suites on the batch path: rows equal to the per-trial loop, one
encode and one decode per sub-batch of chunk_rows(config) trials."""

import numpy as np
import pytest

import suite_reference as ref
from hadaquant import bench, twostage
from hadaquant.codebook import BIASED, UNBIASED
from hadaquant.vquant import QuantConfig, chunk_rows

_SUITES = {
    "mse": (bench.mse_suite, ref.mse_rows),
    "unbiased": (bench.unbiased_suite, ref.unbiased_rows),
    "inner-product": (bench.inner_product_suite, ref.inner_product_rows),
    "rate": (bench.rate_suite, ref.rate_rows),
}

# (suite, dim, bits, trials, mode): chunk_rows is 256 at dims 65..128 (and at
# 128 levels), 128 at dims 129..256 and 1 at bits 16, so these cross
# sub-batch boundaries inside a 512-trial group; 513 and 1100 trials cross
# the group boundary. The unbiased suite has no mode.
_CASES = [
    ("mse", 100, 4, 513, UNBIASED),
    ("mse", 48, 7, 1100, BIASED),
    ("mse", 20, 16, 5, BIASED),
    ("unbiased", 100, 3, 1100, None),
    ("unbiased", 16, 3, 513, None),
    ("unbiased", 12, 16, 3, None),
    ("inner-product", 200, 4, 600, BIASED),
    ("inner-product", 48, 5, 1100, UNBIASED),
    ("inner-product", 20, 16, 4, UNBIASED),
    ("rate", 100, 4, 513, BIASED),
    ("rate", 48, 3, 1100, UNBIASED),
    ("rate", 20, 16, 3, BIASED),
]


def _call(fn, suite, dim, bits, trials, mode, seed):
    # the unbiased suite takes no mode
    return fn(dim, bits, trials, seed, *([] if suite == "unbiased" else [mode]))


@pytest.fixture
def quick_dither_average(monkeypatch):
    # The dither-average row takes no trials, and the golden tests pin it;
    # a stub keeps the 2**16-level quadrature out of these tests.
    monkeypatch.setattr(bench, "dither_average_error", lambda bits: 1e-15 * bits)


@pytest.mark.parametrize("case", _CASES, ids=repr)
def test_batched_suite_rows_equal_the_per_trial_loop(case, quick_dither_average):
    suite, dim, bits, trials, mode = case
    batched, per_trial = _SUITES[suite]
    seed = 17 + trials
    assert _call(batched, suite, dim, bits, trials, mode, seed) == \
        _call(per_trial, suite, dim, bits, trials, mode, seed)


def _expected_sizes(trials, config):
    step = chunk_rows(config)
    sizes = []
    for lo in range(0, trials, bench._CHUNK):
        group = min(bench._CHUNK, trials - lo)
        sizes += [step] * (group // step) + ([group % step] if group % step else [])
    return sizes


# suite -> (the bench globals of its encoder and its batch decode or scorer)
_CALLS = {
    "mse": ("vector_quant", "vector_dequant"),
    "unbiased": ("vector_quant", "vector_dequant"),
    "inner-product": ("quantize_two_stage", "estimate_inner_product"),
    "rate": ("quantize_two_stage", None),
}


@pytest.mark.parametrize("suite", list(_SUITES))
@pytest.mark.parametrize("dim, bits, trials", [(100, 4, 600), (8, 3, 1030), (20, 16, 3)])
def test_a_suite_encodes_and_decodes_once_per_sub_batch(monkeypatch, quick_dither_average,
                                                        suite, dim, bits, trials):
    calls = {"encode": [], "decode": [], "two-stage decode": []}

    def counted(name, fn, size):
        def wrapper(*args):
            calls[name].append(size(*args))
            return fn(*args)
        return wrapper

    encoder, decoder = _CALLS[suite]
    monkeypatch.setattr(bench, encoder, counted(
        "encode", getattr(bench, encoder),
        lambda x, cfg, seed, counters: (np.shape(x), counters)))
    if decoder:
        monkeypatch.setattr(bench, decoder, counted("decode", getattr(bench, decoder),
                                                    lambda codes, _: len(codes)))
    monkeypatch.setattr(twostage, "dequantize_two_stage",
                        counted("two-stage decode", twostage.dequantize_two_stage, len))
    _call(_SUITES[suite][0], suite, dim, bits, trials, BIASED, 5)
    sizes = _expected_sizes(trials, QuantConfig(dim, bits))
    ranges, lo = [], 0
    for n in sizes:
        ranges.append(((n, dim), range(lo, lo + n)))
        lo += n
    kinds = len(("random-unit", "basis-e1")) if suite == "mse" else 1
    assert calls["encode"] == ranges * kinds
    assert calls["decode"] == (sizes * kinds if decoder else [])
    assert calls["two-stage decode"] == (sizes if suite == "inner-product" else [])


def test_grouped_sums_add_in_trial_order_from_a_positive_zero():
    # The terms of trial 0 are -0.0 in column 0, as is every trial's; the
    # per-trial loop starts each group from 0.0, so that column sums to +0.0.
    cfg = QuantConfig(100, 4)
    trials = 1100
    rng = np.random.default_rng(3)
    terms = rng.standard_normal((trials, 2, 5)) * 10.0 ** rng.uniform(-8, 8, (trials, 1, 1))
    terms[:, :, 0] = -0.0
    terms[0] = -0.0
    scalars = terms[:, 0, 1].tolist()
    arrays = bench._grouped_sum(trials, cfg, lambda sub: terms[sub.start:sub.stop])
    expected = ref.chunked_sum(trials, lambda trial: terms[trial])
    assert arrays.tobytes() == expected.tobytes()
    assert not np.signbit(arrays[:, 0]).any()
    floats = bench._grouped_sum(trials, cfg, lambda sub: scalars[sub.start:sub.stop])
    assert floats == ref.chunked_sum(trials, lambda trial: scalars[trial])
