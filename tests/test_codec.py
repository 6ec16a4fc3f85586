import math

import numpy as np
import pytest
from naive_detector import gather_observations

from wavemod.codec import (
    METHOD1,
    METHOD2,
    MessageBlock,
    PlacementSpec,
    coefficient_symbol_map,
    place_method1,
    place_method2,
)
from wavemod.errors import ConfigurationError


def symbols_of(bits, e0=1.0):
    return (2.0 * np.asarray(bits) - 1.0) * math.sqrt(e0)


def test_polarity():
    msg = MessageBlock(bits=np.array([1, 0]), symbol_energy=4.0)
    np.testing.assert_allclose(msg.symbols(), [2.0, -2.0])


def test_non_binary_bits_rejected():
    with pytest.raises(ConfigurationError, match="0 or 1"):
        MessageBlock(bits=np.array([0, 2])).symbols()


@pytest.mark.parametrize(
    "bits",
    [
        np.array([True, False]),
        np.array([0, 1]),
        np.array([0.0, 1.0]),
        np.array([0.5, 1.0]),
        np.array(["0", "1"]),
        np.array([0, 1], dtype=object),
        np.array(["0", 1], dtype=object),
        np.array([None, 1], dtype=object),
    ],
    ids=repr,
)
def test_bit_check_matches_membership_test(bits):
    """The bit check accepts exactly what np.isin(bits, (0, 1)) accepts."""
    accepted = True
    try:
        MessageBlock(bits).symbols()
    except ConfigurationError:
        accepted = False
    assert accepted == np.isin(bits, (0, 1)).all()


def test_method1_two_scales():
    bits = np.array([1, 0, 0, 1])
    frame = place_method1(MessageBlock(bits), 2)
    s = symbols_of(bits)
    np.testing.assert_allclose(frame.details[1], s)
    np.testing.assert_allclose(frame.details[0], s[[0, 2]])
    assert np.all(frame.coarse == 0.0)


def test_method1_single_scale_verbatim():
    bits = np.array([1, 1, 0, 1, 0])
    frame = place_method1(MessageBlock(bits), 1)
    np.testing.assert_allclose(frame.details[0], symbols_of(bits))


def test_method1_three_scale_strides():
    bits = np.arange(8) % 2
    frame = place_method1(MessageBlock(bits), 3)
    s = symbols_of(bits)
    assert [len(d) for d in frame.details] == [2, 4, 8]
    np.testing.assert_allclose(frame.details[2], s)
    np.testing.assert_allclose(frame.details[1], s[::2])
    np.testing.assert_allclose(frame.details[0], s[::4])


def test_method1_divisibility():
    with pytest.raises(ConfigurationError, match="divisible by 4"):
        place_method1(MessageBlock(np.zeros(6, dtype=int)), 3)


def test_method2_two_scales():
    bits = np.array([1, 0])
    frame = place_method2(MessageBlock(bits), 2)
    s = symbols_of(bits)
    np.testing.assert_allclose(frame.details[0], s)
    np.testing.assert_allclose(frame.details[1], np.tile(s, 2))


def test_method2_degenerate_single_symbol():
    frame = place_method2(MessageBlock(np.array([1])), 3)
    assert [len(d) for d in frame.details] == [1, 2, 4]
    assert sum(len(d) for d in frame.details) == 2**3 - 1
    assert all(np.all(d == 1.0) for d in frame.details)


@pytest.mark.parametrize("length,num_scales", [(3, 2), (5, 4), (8, 3)])
def test_method2_copy_count(length, num_scales):
    bits = np.random.default_rng(length).integers(0, 2, length)
    frame = place_method2(MessageBlock(bits), num_scales)
    spec = PlacementSpec(METHOD2, num_scales, length)
    obs = gather_observations(frame, spec)
    assert all(len(o.copies) == 2**num_scales - 1 for o in obs)


def test_method1_copy_counts():
    bits = np.random.default_rng(0).integers(0, 2, 16)
    frame = place_method1(MessageBlock(bits), 3)
    obs = gather_observations(frame, PlacementSpec(METHOD1, 3, 4))
    # copy count = 1 + min(v2(k), M-1)
    assert len(obs[4].copies) == 3
    for k in range(1, 16, 2):
        assert len(obs[k].copies) == 1
    assert len(obs[0].copies) == 3


def test_method1_copy_count_census():
    num_scales, n0 = 4, 8
    n = n0 * 2 ** (num_scales - 1)
    bits = np.random.default_rng(1).integers(0, 2, n)
    frame = place_method1(MessageBlock(bits), num_scales)
    obs = gather_observations(frame, PlacementSpec(METHOD1, num_scales, n0))
    counts = np.bincount([len(o.copies) for o in obs])
    # N/2 symbols with 1 copy, N/4 with 2, ..., residue class gets M copies.
    assert counts[1] == n // 2
    assert counts[2] == n // 4
    assert counts[3] == n // 8
    assert counts[4] == n // 8


def test_method2_frame_size_vs_method1_rate():
    # Same frame budget: Method 1 carries 2**(M-1)*n0 distinct symbols,
    # Method 2 only n0.
    num_scales, n0 = 4, 4
    m1 = place_method1(MessageBlock(np.zeros(n0 * 2 ** (num_scales - 1), dtype=int)), num_scales)
    m2 = place_method2(MessageBlock(np.zeros(n0, dtype=int)), num_scales)
    total1 = sum(len(d) for d in m1.details)
    total2 = sum(len(d) for d in m2.details)
    assert total1 == total2 == (2**num_scales - 1) * n0


@pytest.mark.parametrize(
    "method,place", [(METHOD1, place_method1), (METHOD2, place_method2)]
)
def test_noiseless_round_trip_by_sign(method, place):
    rng = np.random.default_rng(3)
    num_scales = 4
    bits = rng.integers(0, 2, 16 if method == METHOD1 else 5)
    frame = place(MessageBlock(bits, symbol_energy=0.25), num_scales)
    base = 2 if method == METHOD1 else 5
    obs = gather_observations(frame, PlacementSpec(method, num_scales, base))
    recovered = [int(np.sum(o.copies) > 0) for o in obs]
    assert np.array_equal(recovered, bits)


def test_gather_shape_mismatch():
    frame = place_method2(MessageBlock(np.array([1, 0])), 2)
    with pytest.raises(ConfigurationError, match="does not match"):
        gather_observations(frame, PlacementSpec(METHOD2, 3, 2))


def test_symbol_map_is_cached_and_read_only():
    spec = PlacementSpec(METHOD2, 3, 4)
    owners = coefficient_symbol_map(spec)
    assert coefficient_symbol_map(PlacementSpec(METHOD2, 3, 4)) is owners
    assert [o.tolist() for o in owners] == [
        [0, 1, 2, 3], [0, 1, 2, 3] * 2, [0, 1, 2, 3] * 4
    ]
    for o in owners:
        with pytest.raises(ValueError):
            o[0] = 1
