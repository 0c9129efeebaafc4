import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from hadaquant.oracle import dense_hadamard
from hadaquant.transform import (
    STREAM_BASE_SIGNS,
    _philox_key,
    apply_hd,
    apply_hd_inverse,
    fwht_normalized,
    sample_signs,
    stream_rng,
)


def test_dim1_is_identity():
    assert fwht_normalized([3.5]) == pytest.approx([3.5])


def test_first_basis_vector_dim4():
    out = fwht_normalized([1.0, 0.0, 0.0, 0.0])
    assert out == pytest.approx([0.5, 0.5, 0.5, 0.5], abs=0)


def test_matches_dense_sylvester_oracle():
    rng = np.random.default_rng(11)
    for d in (1, 2, 4, 8, 16):
        h = dense_hadamard(d)
        v = rng.standard_normal(d)
        assert np.abs(fwht_normalized(v) - h @ v).max() <= 1e-12


def test_norm_preservation_100_random_pairs():
    rng = np.random.default_rng(12)
    for trial in range(100):
        x = rng.standard_normal(256)
        diag = sample_signs(seed=3, stream_id=trial, d=256)
        y = apply_hd(x, diag)
        assert abs(np.linalg.norm(y) - np.linalg.norm(x)) <= 1e-12


def test_orthonormality_relative_large_dim():
    rng = np.random.default_rng(13)
    x = rng.standard_normal(1 << 14)
    diag = sample_signs(seed=3, stream_id=99, d=1 << 14)
    y = apply_hd(x, diag)
    nx, ny = np.linalg.norm(x) ** 2, np.linalg.norm(y) ** 2
    assert abs(ny - nx) / nx <= 1e-10


def test_roundtrip_inverse():
    rng = np.random.default_rng(14)
    x = rng.standard_normal(1024)
    diag = sample_signs(seed=8, stream_id=0, d=1024)
    back = apply_hd_inverse(apply_hd(x, diag), diag)
    assert np.abs(back - x).max() <= 1e-12


def test_inverse_trivial_cases():
    diag = np.array([1.0, 1.0])
    assert apply_hd_inverse(np.zeros(2), diag) == pytest.approx([0.0, 0.0], abs=0)
    out = apply_hd_inverse(np.array([1.0, 0.0]), diag)
    assert out == pytest.approx([2**-0.5, 2**-0.5])


def test_all_plus_signs_equals_plain_transform():
    rng = np.random.default_rng(15)
    x = rng.standard_normal(32)
    diag = np.ones(32)
    assert np.array_equal(apply_hd(x, diag), fwht_normalized(x))


def test_single_sign_flip_example():
    diag = np.array([-1.0, 1.0, 1.0, 1.0])
    out = apply_hd(np.array([1.0, 0.0, 0.0, 0.0]), diag)
    assert out == pytest.approx([-0.5, -0.5, -0.5, -0.5], abs=0)


def test_coordinate_law_by_exhaustive_enumeration_d4():
    # the first transformed coordinate, over all sign patterns, must realize
    # exactly the sign-weighted sums of the dense first row
    rng = np.random.default_rng(16)
    x = rng.standard_normal(4)
    x /= np.linalg.norm(x)
    h = dense_hadamard(4)
    transformed, enumerated = [], []
    for pattern in range(16):
        eps = 1.0 - 2.0 * ((pattern >> np.arange(4)) & 1)
        diag = eps
        transformed.append(2.0 * apply_hd(x, diag)[0])
        enumerated.append(float(np.sum(2.0 * h[0] * x * eps)))
    assert np.abs(np.sort(transformed) - np.sort(enumerated)).max() <= 1e-12


def test_sample_signs_deterministic():
    a = sample_signs(123, 5, 64)
    b = sample_signs(123, 5, 64)
    assert np.array_equal(a, b)


def test_sample_signs_mean_bound():
    diag = sample_signs(42, 0, 1 << 16)
    assert abs(diag.mean()) <= 0.02


def test_sample_signs_streams_differ():
    for stream in range(10):
        a = sample_signs(7, (stream, 1), 512)
        b = sample_signs(7, (stream, 2), 512)
        assert not np.array_equal(a, b)


def test_rejects_non_power_of_two():
    with pytest.raises(ValueError):
        fwht_normalized(np.zeros(12))
    with pytest.raises(ValueError):
        sample_signs(0, 0, 6)


def test_rejects_length_mismatch():
    diag = sample_signs(0, 0, 8)
    with pytest.raises(ValueError):
        apply_hd(np.zeros(16), diag)
    with pytest.raises(ValueError):
        apply_hd_inverse(np.zeros(4), diag)


def test_sign_diagonal_validates_entries():
    # the +-1 check and the power-of-two check, in both directions
    for apply in (apply_hd, apply_hd_inverse):
        with pytest.raises(ValueError, match=r"exactly -1 or \+1"):
            apply(np.zeros(2), np.array([1.0, 0.5]))
        with pytest.raises(ValueError, match="power of two"):
            apply(np.zeros(3), np.ones(3))


# Philox keys: numpy's reading of the list [key_lo, key_hi] is the contract,
# rounding and all.


@pytest.mark.parametrize("key", [
    (2**63 + 12345, 5),  # one word >= 2**63: numpy infers float64 and rounds
    (2**63 + 12345, 2**63 + 6),  # both >= 2**63: uint64, exact
    (12345, 2**63 - 1),  # both < 2**63: int64, exact
])
def test_philox_key_matches_list_key(key):
    want = np.random.Philox(key=list(key)).state["state"]["key"]
    assert np.array_equal(_philox_key(*key), want)


def test_philox_key_rounds_mixed_words():
    assert _philox_key(2**63 + 12345, 5).tolist() == [2**63 + 12288, 5]


def test_philox_key_rounding_to_2_64_stores_zero_without_warning():
    # numpy's list form stores [0, 5] here too, with an invalid-cast warning
    assert _philox_key(2**64 - 100, 5).tolist() == [0, 5]
    assert _philox_key(5, 2**64 - 100).tolist() == [5, 0]


# Reference: the textbook in-place butterflies. Stage k of the
# constant-geometry sweep adds and subtracts the same operands, in the same
# order, as the in-place stage of span 2**k, so the two agree bit for bit,
# signed zeros included.


def _reference_fwht(v):
    v = np.array(v, dtype=np.float64)
    d = v.shape[0]
    h = 1
    while h < d:
        pairs = v.reshape(-1, 2, h)
        a = pairs[:, 0, :]
        b = pairs[:, 1, :]
        diff = a - b
        a += b
        b[...] = diff
        h *= 2
    v *= d ** -0.5
    return v


def _assert_bit_identical(got, want):
    assert np.array_equal(got, want)
    assert np.array_equal(np.signbit(got), np.signbit(want))


def _assert_transforms_match_reference(x, diag):
    _assert_bit_identical(fwht_normalized(x), _reference_fwht(x))
    _assert_bit_identical(apply_hd(x, diag), _reference_fwht(x * diag))
    _assert_bit_identical(apply_hd_inverse(x, diag), diag * _reference_fwht(x))


# |x| <= 1e300 keeps every butterfly sum finite at d <= 2**12; the bounds
# themselves, signed zeros and subnormals are all drawn
_finite_vectors = st.integers(0, 12).flatmap(lambda k: hnp.arrays(
    np.float64, 1 << k, elements=st.floats(-1e300, 1e300, allow_subnormal=True)))


@settings(max_examples=80, deadline=None, derandomize=True)
@given(x=_finite_vectors, seed=st.integers(0, 2**64 - 1))
def test_transforms_match_reference_bit_for_bit(x, seed):
    _assert_transforms_match_reference(x, sample_signs(seed, 0, x.shape[0]))


def test_transforms_match_reference_at_dim_2_16():
    x = np.random.default_rng(17).standard_normal(1 << 16)
    _assert_transforms_match_reference(x, sample_signs(5, 6, 1 << 16))


@pytest.mark.parametrize("d", [1, 2, 64])
def test_transforms_leave_read_only_inputs_unchanged(d):
    x = np.random.default_rng(18).standard_normal(d)
    x.flags.writeable = False
    diag = sample_signs(1, 2, d)
    before = x.copy()
    for out in (fwht_normalized(x), apply_hd(x, diag), apply_hd_inverse(x, diag)):
        assert out is not x and out.flags.writeable
    assert np.array_equal(x, before)


@pytest.mark.parametrize("d", [1, 2, 4, 64, 4096])
def test_sample_signs_match_generator_integers(d):
    # the draws Generator.integers(0, 2) makes from the same stream
    for seed in (0, 1, 2**63, 2**64 - 1):
        for counter in range(40):
            stream = (counter, STREAM_BASE_SIGNS)
            want = 2.0 * stream_rng(seed, stream).integers(0, 2, size=d) - 1.0
            assert np.array_equal(sample_signs(seed, stream, d), want), (seed, counter)
