"""Per-trial references of the bench suites that run on the batch path.

Each function is the loop the suites ran before they batched their trials:
one encode and one decode per trial, the terms added in trial order per
group of ``bench._CHUNK`` trials, then the group sums in order. A batched
suite must return rows equal to these, bit for bit. The dither-average row
of the unbiased suite comes from ``bench.dither_average_error``, which takes
no trials.
"""

import math

import numpy as np

from hadaquant import bench, bitstream, residual
from hadaquant.bench import ExperimentRow, _random_unit
from hadaquant.codebook import UNBIASED
from hadaquant.transform import stream_rng
from hadaquant.twostage import dequantize_two_stage, quantize_two_stage
from hadaquant.vquant import QuantConfig, vector_dequant, vector_quant


def chunked_sum(trials, term):
    """Sum of term(trial), a float or an array, per _CHUNK trials, then in order."""
    total = 0.0
    for lo in range(0, trials, bench._CHUNK):
        part = 0.0
        for trial in range(lo, min(lo + bench._CHUNK, trials)):
            part += term(trial)
        total += part
    return total


def mse_rows(dim, bits, trials, seed, mode=UNBIASED):
    cfg = QuantConfig(dim, bits, mode)
    rows = []
    for kind in ("random-unit", "basis-e1"):
        if kind == "basis-e1":
            x = np.zeros(dim)
            x[0] = 1.0
        else:
            x = _random_unit(stream_rng(seed, (bench._TAG_BENCH_X, 0)), dim)

        def squared_error(trial):
            err = x - vector_dequant(vector_quant(x, cfg, seed, trial), cfg)
            return float(err @ err)

        measured = 4.0**bits * chunked_sum(trials, squared_error) / trials
        floor = bench.MSE_WINDOW[0] if kind == "random-unit" else -math.inf
        rows.append(ExperimentRow(f"mse/{kind}", dim, bits, trials, measured, bench.MSE_CONSTANT,
                                  floor <= measured <= bench.MSE_WINDOW[1]))
    return rows


def unbiased_rows(dim, bits, trials, seed):
    cfg = QuantConfig(dim, bits, UNBIASED)
    x = _random_unit(stream_rng(seed, (bench._TAG_BENCH_X, 0)), dim)

    def moments(trial):
        decoded = vector_dequant(vector_quant(x, cfg, seed, trial), cfg)
        return np.stack([decoded, decoded * decoded])

    acc, acc_sq = chunked_sum(trials, moments)
    mean = acc / trials
    var = np.maximum(acc_sq / trials - mean * mean, 1e-300)
    z_max = float(np.max(np.abs(mean - x) / np.sqrt(var / trials)))
    quad_err = bench.dither_average_error(bits)
    return [
        ExperimentRow("unbiased/coordinate-zscore", dim, bits, trials, z_max,
                      bench.UNBIASED_Z_GATE, z_max <= bench.UNBIASED_Z_GATE),
        ExperimentRow("unbiased/dither-average", dim, bits, 0, quad_err,
                      bench.UNBIASED_QUAD_TOL, quad_err <= bench.UNBIASED_QUAD_TOL),
    ]


def inner_product_rows(dim, bits, trials, seed, mode=UNBIASED):
    cfg = QuantConfig(dim, bits, mode)
    x = _random_unit(stream_rng(seed, (bench._TAG_BENCH_X, 0)), dim)

    def squared_error(trial):
        y = _random_unit(stream_rng(seed, (bench._TAG_BENCH_Y, trial)), dim)
        decoded = dequantize_two_stage(quantize_two_stage(x, cfg, seed, trial))
        err = float(y @ decoded) - float(y @ x)
        return err * err

    measured = dim * 4.0**bits * chunked_sum(trials, squared_error) / trials
    return [ExperimentRow("inner-product/error", dim, bits, trials, measured,
                          bench.INNER_PRODUCT_GATE, measured <= bench.INNER_PRODUCT_GATE)]


def rate_rows(dim, bits, trials, seed, mode=UNBIASED):
    cfg = QuantConfig(dim, bits, mode)
    budget = cfg.padded_dim * (bits + 1) + math.floor(residual.LEVEL_SUM_COEFF * cfg.padded_dim)
    worst = 0
    for trial in range(trials):
        x = _random_unit(stream_rng(seed, (bench._TAG_BENCH_RATE, trial)), dim)
        report = bitstream.rate_report(quantize_two_stage(x, cfg, seed, trial))
        worst = max(worst, report["total_bits"] - report["header_bits"])
    return [ExperimentRow("rate/max-body-bits", dim, bits, trials, float(worst), float(budget),
                          worst <= budget)]
