"""Golden fixtures: the bytes of `.hq` payloads and bench CSVs are pinned.

A payload stores only (seed, vec_counter) and the bucket data, so a change to
the encoder's arithmetic, its stream derivation or the wire layout would make
old payloads decode silently to other vectors. Every digest below was computed
once from the codec and written here; a refactor must leave them all
unchanged.

The digests can also move with no codec change. The payload inputs
(`_golden_input`) and the inputs of every bench suite (`bench._random_unit`)
are drawn with `Generator.standard_normal`, whose output numpy does not keep
stable across releases (NEP 19). They hold under numpy 2.4.6, the version
recorded in `BENCH_12.json`. The codec's own streams read raw Philox words
instead, which numpy does keep stable (see `transform.sample_signs`).
"""

import hashlib

import numpy as np
import pytest

from hadaquant import bench
from hadaquant.cli import encode_vector
from hadaquant.codebook import BIASED, UNBIASED
from hadaquant.vquant import QuantConfig


def _golden_input(kind, dim, norm):
    if kind == "zero":
        return np.zeros(dim)
    if kind == "e1":
        x = np.zeros(dim)
        x[0] = norm
        return x
    x = np.random.default_rng(dim * 131 + 7).standard_normal(dim)
    return x * (norm / np.linalg.norm(x))


# (mode, dim, bits, kind, norm, seed, vec_counter) -> sha256 of the payload
PAYLOADS = {
    (BIASED, 3, 1, "gauss", 1e-3, 11, 0):
        "7ff17782c12767a961fc061e7bf9ac80e84204d8ea2a331e57fb2ed98ff6b2a9",
    (BIASED, 3, 6, "gauss", 1.0, 11, 1):
        "13650eb95aa6f001167f5dfc590691da4bf9b5205cb05d85a0538ce1cda2142d",
    (BIASED, 3, 16, "gauss", 1e3, 11, 2):
        "18056d3487d273384251c511c6f3f93b7828ac377206319e02ec53680aa8f05f",
    (BIASED, 48, 1, "gauss", 10.0, 12, 3):
        "89f6ea9c930b9b7c833479a1a1df52573b8fb90b457a9a6abf69f02362d8ea87",
    (BIASED, 48, 6, "gauss", 0.1, 12, 4):
        "ec58826ff9499240f9c7977c35388ec118e3402c0660d14027a18528bde888af",
    (BIASED, 48, 16, "gauss", 1.0, 12, 5):
        "7126cb977b736961a7bdbcca7ebc3af87c1397aa0d4d47ab2a3762a3425f1e96",
    (BIASED, 64, 1, "gauss", 1.0, 13, 6):
        "4a9f967d443448f5d9e7cc88f157a60317c427a6ce13c3319dfcab9d86c1f6a0",
    (BIASED, 64, 6, "gauss", 1e3, 13, 7):
        "270411b6201fd5afcb122e10650aaf5e71efdfe981e37ccaf9320ea6edd37697",
    (BIASED, 64, 16, "gauss", 1e-3, 13, 8):
        "423d2bee914b5226d16b4f216d1a47df124b8ed26f825bfacab75bab501b6728",
    (BIASED, 100, 1, "gauss", 0.1, 14, 9):
        "55fb7091bdfcf5b2eef26aef19d68ff549c50b9dd91a5df9fb17a4df2d8e91c5",
    (BIASED, 100, 6, "gauss", 1.0, 14, 10):
        "c7c10796de64b844648e6f048492464cf9fa09ee60ebae8485d20a0c37bc863f",
    (BIASED, 100, 16, "gauss", 10.0, 14, 11):
        "90dcf1d8c06052dc0ee2b84f7fd5b0ba72de3a549e172e35bb600f7344bc9524",
    (BIASED, 4096, 1, "gauss", 1.0, 15, 12):
        "47f6695ad9c10333a135947ed7fa5e676be434d16b29195c4816b139f0a6f343",
    (BIASED, 4096, 6, "gauss", 1e-3, 15, 13):
        "7ebd4c965ade280d3e7b0910f0fc0eae4e05faa3460b8283e8139fad8e1caaae",
    (BIASED, 4096, 16, "gauss", 1e3, 15, 14):
        "fabb70d8dfe4392eb4b50af32de065a8a95d3138e1a181cfe93363e44d4af7e4",
    (UNBIASED, 3, 1, "gauss", 1e3, 21, 0):
        "845f2081bac975b4a784e2d1fa4e56d71e67f712fa35e88b0458fe0f5015f30c",
    (UNBIASED, 3, 6, "gauss", 1e-3, 21, 1):
        "32e0fb5d41ea11205a660e4d51116b14850b849a3f6e9644b8463ff836230910",
    (UNBIASED, 3, 16, "gauss", 1.0, 21, 2):
        "2356c6525591f39ff76200a2449dc3a9c02a897c724ad24e85ec19ef8863a9e1",
    (UNBIASED, 48, 1, "gauss", 1.0, 22, 3):
        "a88f638f2502082939e8e5b5904a775c98a1c04f9ebcda3e9f9453ea54f72812",
    (UNBIASED, 48, 6, "gauss", 10.0, 22, 4):
        "8c1df3d7786e8deac797de757d8bf27ab02b84bf5b3de00699f37d639fbbb092",
    (UNBIASED, 48, 16, "gauss", 0.1, 22, 5):
        "b6fa75941d921945654def04ba7e5a08fe203fc68749fbdbeb0dab2b6343d286",
    (UNBIASED, 64, 1, "gauss", 1e-3, 23, 6):
        "e1d62a5037fb04aa32bade5ea3ce77213610467054af1cb7875e8f78c56079b3",
    (UNBIASED, 64, 6, "gauss", 1.0, 23, 7):
        "6c273d72b8fd557d306cb150a1711b4a24fa4f8d6ba3f16d50d957a75a1471eb",
    (UNBIASED, 64, 16, "gauss", 1e3, 23, 8):
        "47320b2551f153310c7ae67419a6643771bfa1fc4bec14656b4efffd52791bf5",
    (UNBIASED, 100, 1, "gauss", 10.0, 24, 9):
        "9046d1d894d411854179da8915f5b82791233d26462861b3e762ce34c17652b2",
    (UNBIASED, 100, 6, "gauss", 0.1, 24, 10):
        "9c82340fc252971e15d8ccfb247242a15cfedc09632a023502205645b88bcafc",
    (UNBIASED, 100, 16, "gauss", 1.0, 24, 11):
        "dc2aac077336bbeb60cd351a1b9bea5987db153da916fbaad10a921d37bea15d",
    (UNBIASED, 4096, 1, "gauss", 1e-3, 25, 12):
        "949eb8040852955ed7acd7e7b8c1ca5fac0fa1934457aa5f423dfe248d102315",
    (UNBIASED, 4096, 6, "gauss", 1e3, 25, 13):
        "4258bff777c65c7ce3d7a01bba2e83ff71f2f2ffdddf6f8d6d9bb5646a46f0bb",
    (UNBIASED, 4096, 16, "gauss", 1.0, 25, 14):
        "a613d3f39ca15f62e739a4934fa5e5a798b0926082f2b7330d1d11732f145b4e",
    (BIASED, 48, 6, "zero", 0.0, 31, 0):
        "91cb6152727b169a02e23c540b6abfead996ccdce5a2a801358f8307931b71e6",
    (UNBIASED, 100, 16, "zero", 0.0, 31, 1):
        "b72ca44c7b829d406fc852039eaef11180fd2e10bc475d37935c87a4431008af",
    (BIASED, 64, 1, "e1", 1.0, 32, 0):
        "c0de744f193932aaf6299a762076cfb9cff250d250e7a1020be3fd598efcbd78",
    (UNBIASED, 3, 6, "e1", 1e3, 32, 1):
        "13239d55cb98e75906a0171cd51c1509b1c8725ff77908b1c7d96cede9e1c64c",
    (UNBIASED, 4096, 6, "e1", 1e-3, 32, 2):
        "d341da8fc56774ee15c1cda6d42b7da9b6f76384b026ee4747b9c8acc8d44ac8",
}


@pytest.mark.parametrize("case", sorted(PAYLOADS, key=repr), ids=repr)
def test_payload_digest(case):
    mode, dim, bits, kind, norm, seed, vec_counter = case
    x = _golden_input(kind, dim, norm)
    payload = encode_vector(x, QuantConfig(dim=dim, bits=bits, mode=mode), seed, vec_counter)
    assert hashlib.sha256(payload).hexdigest() == PAYLOADS[case]


# suite call -> sha256 of bench.rows_to_csv(rows). The calls above 512 trials
# pin how the suites group their per-trial sums (per 512 trials, then in
# order): one running total differs in the last bits.
CSV_DIGESTS = {
    ("mse", 48, 6, 40, 5):
        "ceb03896b0d75f5c8b08833c49f0c59167e390fec604e4ca95b40c395a11569e",
    ("mse", 64, 2, 30, 9):
        "3cccf629aca148324896abd4ed22fda0fd0cc2c12d5be38e199ad0f5700be5aa",
    ("mse", 64, 4, 1100, 5):
        "138c28313edf0cf0e231ddfad5ffcc951a645bc707f5b3cd90aa6cbd14e38a68",
    ("rate", 100, 4, 20, 3):
        "fe9ba79e6d10c4ea99daa0595ff0249ea41a3981f39ecbe90bea73ed5d27d62d",
    ("rate", 64, 16, 6, 5):
        "d46e0bf01a1f8fef05c160057867c229d7ea2f8073e59e8165c4b8143068d81b",
    ("unbiased", 16, 3, 200, 4):
        "85a16b78d30bd326095b435b3d5fd68c51afc52ad05dded9eb600782ef9dbd3f",
    ("unbiased", 16, 3, 1300, 4):
        "623d18e6ff694fb176669a54c39dde2d2b867b9faf3a243483f8b9d224e99376",
}

_SUITES = {
    "mse": bench.mse_suite,
    "rate": bench.rate_suite,
    "unbiased": bench.unbiased_suite,
}


@pytest.mark.parametrize("case", sorted(CSV_DIGESTS), ids=repr)
def test_bench_csv_digest(case):
    suite, dim, bits, trials, seed = case
    csv = bench.rows_to_csv(_SUITES[suite](dim, bits, trials, seed))
    assert hashlib.sha256(csv.encode()).hexdigest() == CSV_DIGESTS[case]


# inner_product_suite(dim, bits, trials, seed) -> (measured, passed).
# `measured` is a mean of products of decoded coordinates; rounding the
# decoded vector differently in its last bits moves it by about 1e-12
# relative, so it is held to rel 1e-9 and `passed` exactly.
INNER_PRODUCT = {
    (64, 16, 96, 5): (4.215314872141838, True),
    (48, 6, 300, 3): (3.314348150404061, True),
    (512, 4, 200, 7): (7.006288156263126, True),
}


@pytest.mark.parametrize("case", sorted(INNER_PRODUCT), ids=repr)
def test_inner_product_row(case):
    (row,) = bench.inner_product_suite(*case)
    measured, passed = INNER_PRODUCT[case]
    assert row.passed is passed
    assert row.measured == pytest.approx(measured, rel=1e-9, abs=0)


# dither_average_error(bits) -> its exact value. Bits 3 is pinned through the
# unbiased CSV digests above.
DITHER_AVERAGE = {
    2: 5.3290705182007514e-14,
    4: 5.3290705182007514e-14,
    6: 6.394884621840902e-14,
}


@pytest.mark.parametrize("bits", sorted(DITHER_AVERAGE))
def test_dither_average_error(bits):
    assert bench.dither_average_error(bits) == DITHER_AVERAGE[bits]
