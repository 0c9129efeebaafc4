"""Benchmark suites: measured statistics against their theoretical constants.

Each suite returns ExperimentRow records. All randomness is keyed by
(seed, trial index) and the trials run in order in one process, so a suite
called again with the same arguments measures the same values bit for bit.
"""

import math
import time
from dataclasses import dataclass

import numpy as np

from . import bitstream, oracle, residual
from .codebook import UNBIASED, build_codebook, cdf, quantize_scalar
from .transform import check_int, stream_rng
from .twostage import estimate_inner_product, quantize_two_stage
from .vquant import QuantConfig, vector_dequant, vector_quant

# Theoretical constants the suites print next to their measurements.
MSE_CONSTANT = math.pi * math.sqrt(3.0) / 2.0  # distortion coefficient, ~2.72070
MSE_WINDOW = (2.3, 3.0)
INNER_PRODUCT_GATE = 48.4  # 13 * (MSE_CONSTANT + 1) rounded up at the gate
ENUM_TOL = 1e-12
ENUM_DIM = 10  # 1024 sign patterns per enumeration
ENUM_PAIRS = 20  # random (a, b) pairs for the mixed fourth moment
UNBIASED_Z_GATE = 5.0
UNBIASED_QUAD_TOL = 1e-6
DITHER_AVERAGE_T = tuple(np.linspace(-6.0, 6.0, 25).tolist())  # inputs of the dither-average check

# Stream tags private to the harness (vector codecs use tags 1..4).
_TAG_BENCH_X = 101
_TAG_BENCH_Y = 102
_TAG_BENCH_RATE = 103

_CHUNK = 512


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
    wall_time: float


def rows_to_csv(rows) -> str:
    """Deterministic CSV (wall time excluded: it is not reproducible)."""
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


def _trial_range(trials: int) -> range:
    return range(check_int("trials", trials, 1, math.inf))


def _chunked_sum(trials: int, term):
    # Sum of term(trial) over the trials, a float or an array: the terms are
    # added per group of _CHUNK trials, then the group sums in order. One
    # running total would change the last bits of `measured` above _CHUNK
    # trials, and the golden CSV digests pin those bits. Starting from 0.0
    # adds exactly as a zero array would.
    every = _trial_range(trials)
    total = 0.0
    for lo in range(0, trials, _CHUNK):
        part = 0.0
        for trial in every[lo : lo + _CHUNK]:
            part += term(trial)
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
        start = time.perf_counter()
        if kind == "basis-e1":
            x = np.zeros(dim)
            x[0] = 1.0
        else:
            x = _random_unit(stream_rng(seed, (_TAG_BENCH_X, 0)), dim)

        def squared_error(trial):
            err = x - vector_dequant(vector_quant(x, cfg, seed, trial), cfg)
            return float(err @ err)

        measured = 4.0**bits * _chunked_sum(trials, squared_error) / trials
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
                wall_time=time.perf_counter() - start,
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
    start = time.perf_counter()
    cfg = QuantConfig(dim=dim, bits=bits, mode=UNBIASED)
    x = _random_unit(stream_rng(seed, (_TAG_BENCH_X, 0)), dim)

    def moments(trial):
        decoded = vector_dequant(vector_quant(x, cfg, seed, trial), cfg)
        return np.stack([decoded, decoded * decoded])

    acc, acc_sq = _chunked_sum(trials, moments)
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
            time.perf_counter() - start,
        )
    ]
    start = time.perf_counter()
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
            time.perf_counter() - start,
        )
    )
    return rows


# --- inner-product suite ---------------------------------------------------


def inner_product_suite(dim, bits, trials, seed, mode=UNBIASED):
    """Query-direction error statistic dim * 4**bits * E<y, decoded - x>^2."""
    start = time.perf_counter()
    cfg = QuantConfig(dim=dim, bits=bits, mode=mode)
    x = _random_unit(stream_rng(seed, (_TAG_BENCH_X, 0)), dim)

    def squared_error(trial):
        y = _random_unit(stream_rng(seed, (_TAG_BENCH_Y, trial)), dim)
        err = estimate_inner_product(quantize_two_stage(x, cfg, seed, trial), y) - float(y @ x)
        return err * err

    measured = dim * 4.0**bits * _chunked_sum(trials, squared_error) / trials
    return [
        ExperimentRow(
            "inner-product/error",
            dim,
            bits,
            trials,
            measured,
            INNER_PRODUCT_GATE,
            measured <= INNER_PRODUCT_GATE,
            time.perf_counter() - start,
        )
    ]


# --- rate suite ------------------------------------------------------------


def rate_suite(dim, bits, trials, seed, mode=UNBIASED):
    """Proven payload budget: body bits <= d*(bits+1) + floor(LEVEL_SUM_COEFF*d), d padded."""
    start = time.perf_counter()
    cfg = QuantConfig(dim=dim, bits=bits, mode=mode)
    budget = cfg.padded_dim * (bits + 1) + math.floor(residual.LEVEL_SUM_COEFF * cfg.padded_dim)
    worst = 0
    for trial in _trial_range(trials):
        x = _random_unit(stream_rng(seed, (_TAG_BENCH_RATE, trial)), dim)
        report = bitstream.rate_report(quantize_two_stage(x, cfg, seed, trial))
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
            time.perf_counter() - start,
        )
    ]


# --- oracle suite ----------------------------------------------------------


def enumeration_reports(seed, dim=ENUM_DIM):
    """Exact sign-pattern enumeration of the moment identities and bounds: {quantity: error}."""
    rng = stream_rng(seed, (_TAG_BENCH_X, 1))
    errors = {}
    worst_fourth = 0.0
    for _ in range(ENUM_PAIRS):
        a = _random_unit(rng, dim)
        b = _random_unit(rng, dim)
        exact = oracle.enumerate_rademacher_expectation(
            lambda e: (a @ e) ** 2 * (b @ e) ** 2, dim
        )
        predicted = 1.0 + 2.0 * float(a @ b) ** 2 - 2.0 * float(a * a @ (b * b))
        worst_fourth = max(worst_fourth, abs(exact - predicted))
    errors["mixed-fourth-moment"] = worst_fourth

    a = _random_unit(rng, dim)
    worst_mgf = -math.inf
    for lam in range(-3, 4):
        exact = oracle.enumerate_rademacher_expectation(lambda e: math.exp(lam * (a @ e)), dim)
        worst_mgf = max(worst_mgf, exact - math.exp(lam * lam / 2.0))
    errors["subgaussian-mgf-excess"] = max(worst_mgf, 0.0)

    exact = oracle.enumerate_rademacher_expectation(lambda e: math.exp((a @ e) ** 2 / 3.0), dim)
    errors["square-exponential-excess"] = max(exact - math.sqrt(3.0), 0.0)
    return errors


def oracle_suite(seed):
    """Exhaustive-enumeration checks plus the dense transform oracle."""
    start = time.perf_counter()
    errors = enumeration_reports(seed)
    enum_wall = time.perf_counter() - start
    rows = [
        ExperimentRow(
            f"oracle/{quantity}",
            ENUM_DIM,
            0,
            1 << ENUM_DIM,
            error,
            ENUM_TOL,
            error <= ENUM_TOL,
            enum_wall,
        )
        for quantity, error in errors.items()
    ]
    start = time.perf_counter()
    h = oracle.dense_hadamard(16)
    ortho_err = float(np.abs(h.T @ h - np.eye(16)).max())
    rows.append(
        ExperimentRow(
            "oracle/dense-hadamard-orthonormal",
            16,
            0,
            1,
            ortho_err,
            1e-14,
            ortho_err <= 1e-14,
            time.perf_counter() - start,
        )
    )
    return rows
