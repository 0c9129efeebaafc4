"""Benchmark suites: measured statistics against their theoretical constants.

Each suite returns ExperimentRow records, which carry no time: the caller
times a suite. All randomness is keyed by (seed, trial index), so a suite
called again with the same arguments returns equal rows, bit for bit.

The trials run in groups of _CHUNK, and each group in sub-batches of
chunk_rows(config) trials: a sub-batch is one batch encode of its trials'
rows under counters range(lo, hi), and one batch decode or score where the
suite decodes. Every per-trial term is computed from its own row as a
one-trial call would (each 1-D dot product per row) and added in trial
order within its group, and the group sums are added in order, so the rows
equal those of a loop over single trials.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import bitstream, oracle, residual
from .codebook import UNBIASED, build_codebook, cdf, quantize_scalar
from .transform import check_int, fwht_normalized, stream_rng
from .twostage import estimate_inner_product, quantize_two_stage
from .vquant import QuantConfig, chunk_rows, vector_dequant, vector_quant

# Theoretical constants the suites print next to their measurements.
MSE_CONSTANT = math.pi * math.sqrt(3.0) / 2.0  # distortion coefficient, ~2.72070
MSE_WINDOW = (2.3, 3.0)
INNER_PRODUCT_GATE = 13.0 * (MSE_CONSTANT + 1.0)  # the query-direction error ceiling, ~48.369
ENUM_TOL = 1e-12
ENUM_PAIRS = 20  # random (a, b) pairs for the mixed fourth moment
UNBIASED_Z_GATE = 5.0
UNBIASED_QUAD_TOL = 1e-6
DITHER_AVERAGE_T = tuple(np.linspace(-6.0, 6.0, 25).tolist())  # inputs of the dither-average check

# Stream tags private to the harness (vector codecs use tags 1..4).
_TAG_BENCH_X = 101
_TAG_BENCH_Y = 102
_TAG_BENCH_RATE = 103

_CHUNK = 512  # trials per group of a suite's sums; the golden CSV digests pin it


@dataclass
class ExperimentRow:
    """One measured statistic next to the constant it is judged against."""

    experiment: str
    dim: int
    bits: int
    trials: int
    measured: float
    reference: float
    passed: bool


def rows_to_csv(rows) -> str:
    """Deterministic CSV: one line per row, every field of the row."""
    lines = ["experiment,dim,bits,trials,measured,reference,passed"]
    for r in rows:
        lines.append(
            f"{r.experiment},{r.dim},{r.bits},{r.trials},{r.measured!r},{r.reference!r},"
            f"{'pass' if r.passed else 'FAIL'}"
        )
    return "\n".join(lines) + "\n"


def _random_unit(rng: np.random.Generator, dim: int) -> np.ndarray:
    v = rng.standard_normal(dim)
    return v / np.linalg.norm(v)


def _sub_batches(trials: int, config: QuantConfig):
    # The trials as groups of _CHUNK, each a list of the counter ranges of its
    # sub-batches of at most chunk_rows(config) trials, which keep a batch's
    # arrays as small as the codec's own chunks.
    trials = check_int("trials", trials, 1, math.inf)
    step = chunk_rows(config)
    for lo in range(0, trials, _CHUNK):
        hi = min(lo + _CHUNK, trials)
        yield [range(start, min(start + step, hi)) for start in range(lo, hi, step)]


def _grouped_sum(trials: int, config: QuantConfig, terms):
    # Sum over the trials of terms(counters), the per-trial terms of a
    # sub-batch, each a float or an array: added in trial order per group,
    # then the group sums in order. One running total would change the last
    # bits of `measured` above _CHUNK trials, and the golden CSV digests pin
    # those bits. Starting from 0.0 adds exactly as a zero array would. No
    # builtin sum(): from Python 3.12 on it compensates float rounding.
    total = 0.0
    for group in _sub_batches(trials, config):
        part = 0.0
        for counters in group:
            for term in terms(counters):
                part += term
        total += part
    return total


# --- mse suite -------------------------------------------------------------


def mse_suite(dim, bits, trials, seed, mode=UNBIASED):
    """Distortion constant 4**bits * E||x - decoded||^2 for two input shapes.

    A random unit vector spreads over the transform and concentrates inside
    MSE_WINDOW. The first basis vector transforms to identical +-1
    coordinates, whose distortion sits below the spread constant (about
    2.262 at bits=6, falling towards 2.19 as bits grows), so its row is held
    only to the upper edge: the method caps distortion for every input but
    promises no floor.
    """
    cfg = QuantConfig(dim=dim, bits=bits, mode=mode)
    rows = []
    for kind in ("random-unit", "basis-e1"):
        if kind == "basis-e1":
            x = np.zeros(dim)
            x[0] = 1.0
        else:
            x = _random_unit(stream_rng(seed, (_TAG_BENCH_X, 0)), dim)

        def squared_errors(counters):
            batch = np.broadcast_to(x, (len(counters), dim))
            errors = x - vector_dequant(vector_quant(batch, cfg, seed, counters), cfg)
            return [float(err @ err) for err in errors]

        measured = 4.0**bits * _grouped_sum(trials, cfg, squared_errors) / trials
        floor = MSE_WINDOW[0] if kind == "random-unit" else -math.inf
        rows.append(
            ExperimentRow(
                experiment=f"mse/{kind}",
                dim=dim,
                bits=bits,
                trials=trials,
                measured=measured,
                reference=MSE_CONSTANT,
                passed=floor <= measured <= MSE_WINDOW[1],
            )
        )
    return rows


# --- unbiased suite --------------------------------------------------------


def dither_average_error(bits: int) -> float:
    """Max over DITHER_AVERAGE_T of |E_U[reconstruct(quantize(t))] - t| by quadrature.

    Each Gauss piece builds one table per node in a single batched call and
    reads each table's entry for t.
    """
    num_levels = 1 << bits
    worst = 0.0
    for t in DITHER_AVERAGE_T:
        # bucket-change point of t, plus 0.5 where every reconstruction
        # argument crosses a cell boundary of the reconstruction map
        jump = ((num_levels - 1) * cdf(t)) % 1.0

        def recon_of_u(us, t=t):
            tables = build_codebook(UNBIASED, num_levels, us)
            return tables[np.arange(us.size), quantize_scalar(t, UNBIASED, num_levels, us)]

        avg = oracle.u_average(recon_of_u, breakpoints=[jump, 0.5])
        worst = max(worst, abs(avg - t))
    return worst


def unbiased_suite(dim, bits, trials, seed):
    """Per-coordinate z-scores of the decoded mean, plus the dither-average check.

    Needs bits >= 2, since the dither average has no finite quadrature at one
    bit, and trials >= 2, since a z-score needs a sample variance.
    """
    if bits < 2:
        raise ValueError(
            f"unbiased suite needs bits >= 2, got {bits}: the 2-level unbiased table "
            "diverges at dither 1/2, so its dither average cannot be integrated"
        )
    if trials < 2:
        raise ValueError(f"unbiased suite needs trials >= 2 for a sample variance, got {trials}")
    cfg = QuantConfig(dim=dim, bits=bits, mode=UNBIASED)
    x = _random_unit(stream_rng(seed, (_TAG_BENCH_X, 0)), dim)

    def moments(counters):
        batch = np.broadcast_to(x, (len(counters), dim))
        decoded = vector_dequant(vector_quant(batch, cfg, seed, counters), cfg)
        return np.stack([decoded, decoded * decoded], axis=1)

    acc, acc_sq = _grouped_sum(trials, cfg, moments)
    mean = acc / trials
    var = np.maximum(acc_sq / trials - mean * mean, 1e-300)
    stderr = np.sqrt(var / trials)
    z_max = float(np.max(np.abs(mean - x) / stderr))
    rows = [
        ExperimentRow(
            "unbiased/coordinate-zscore",
            dim,
            bits,
            trials,
            z_max,
            UNBIASED_Z_GATE,
            z_max <= UNBIASED_Z_GATE,
        )
    ]
    quad_err = dither_average_error(bits)
    rows.append(
        ExperimentRow(
            "unbiased/dither-average",
            dim,
            bits,
            0,
            quad_err,
            UNBIASED_QUAD_TOL,
            quad_err <= UNBIASED_QUAD_TOL,
        )
    )
    return rows


# --- inner-product suite ---------------------------------------------------


def inner_product_suite(dim, bits, trials, seed, mode=UNBIASED):
    """Query-direction error statistic dim * 4**bits * E<y, decoded - x>^2."""
    cfg = QuantConfig(dim=dim, bits=bits, mode=mode)
    x = _random_unit(stream_rng(seed, (_TAG_BENCH_X, 0)), dim)

    def squared_errors(counters):
        codes = quantize_two_stage(np.broadcast_to(x, (len(counters), dim)), cfg, seed, counters)
        ys = np.array([_random_unit(stream_rng(seed, (_TAG_BENCH_Y, t)), dim) for t in counters])
        products = estimate_inner_product(codes, ys).tolist()
        errors = [ip - float(y @ x) for ip, y in zip(products, ys)]
        return [err * err for err in errors]

    measured = dim * 4.0**bits * _grouped_sum(trials, cfg, squared_errors) / trials
    return [
        ExperimentRow(
            "inner-product/error",
            dim,
            bits,
            trials,
            measured,
            INNER_PRODUCT_GATE,
            measured <= INNER_PRODUCT_GATE,
        )
    ]


# --- rate suite ------------------------------------------------------------


def rate_suite(dim, bits, trials, seed, mode=UNBIASED):
    """Proven payload budget: body bits <= d*(bits+1) + floor(LEVEL_SUM_COEFF*d), d padded."""
    cfg = QuantConfig(dim=dim, bits=bits, mode=mode)
    budget = cfg.padded_dim * (bits + 1) + math.floor(residual.LEVEL_SUM_COEFF * cfg.padded_dim)
    worst = 0
    for group in _sub_batches(trials, cfg):
        for counters in group:
            rows = [_random_unit(stream_rng(seed, (_TAG_BENCH_RATE, t)), dim) for t in counters]
            for code in quantize_two_stage(np.array(rows), cfg, seed, counters):
                report = bitstream.rate_report(code)
                worst = max(worst, report["total_bits"] - report["header_bits"])
    return [
        ExperimentRow(
            "rate/max-body-bits",
            dim,
            bits,
            trials,
            float(worst),
            float(budget),
            worst <= budget,
        )
    ]


# --- oracle suite ----------------------------------------------------------


def enumeration_reports(seed):
    """Exact sign-pattern enumeration of the moment identities and bounds: {quantity: error}."""
    dim = oracle.ENUM_DIM
    patterns = oracle.sign_patterns(dim)  # each expectation is a mean over its rows
    rng = stream_rng(seed, (_TAG_BENCH_X, 1))
    worst_fourth = 0.0
    for _ in range(ENUM_PAIRS):
        a = _random_unit(rng, dim)
        b = _random_unit(rng, dim)
        exact = float(np.mean((patterns @ a) ** 2 * (patterns @ b) ** 2))
        predicted = 1.0 + 2.0 * float(a @ b) ** 2 - 2.0 * float(a * a @ (b * b))
        worst_fourth = max(worst_fourth, abs(exact - predicted))
    t = patterns @ _random_unit(rng, dim)
    lam = np.arange(-3.0, 4.0)
    mgf_excess = np.exp(np.outer(t, lam)).mean(axis=0) - np.exp(lam * lam / 2.0)
    square_excess = float(np.exp(t * t / 3.0).mean()) - math.sqrt(3.0)
    return {
        "mixed-fourth-moment": worst_fourth,
        "subgaussian-mgf-excess": max(float(mgf_excess.max()), 0.0),
        "square-exponential-excess": max(square_excess, 0.0),
    }


def oracle_suite(seed):
    """Exhaustive-enumeration checks plus the codec's FWHT against the dense Hadamard oracle."""
    errors = enumeration_reports(seed)
    rows = [
        ExperimentRow(
            f"oracle/{quantity}",
            oracle.ENUM_DIM,
            0,
            1 << oracle.ENUM_DIM,
            error,
            ENUM_TOL,
            error <= ENUM_TOL,
        )
        for quantity, error in errors.items()
    ]
    # The codec's FWHT of each basis vector against the dense matrix's column.
    columns = zip(np.eye(16), oracle.dense_hadamard(16).T)
    fwht_err = max(float(np.abs(fwht_normalized(e) - col).max()) for e, col in columns)
    rows.append(
        ExperimentRow(
            "oracle/fwht-matches-dense",
            16,
            0,
            16,
            fwht_err,
            1e-14,
            fwht_err <= 1e-14,
        )
    )
    return rows
