import math

import numpy as np
import pytest
from naive_detector import gather_observations

from wavemod.codec import (
    METHOD1,
    METHOD2,
    place_method1,
    place_method2,
    symbols,
    symbols_per_coarse_sample,
)
from wavemod.errors import ConfigurationError, ShapeError
from wavemod.filterbank import level_slice
from wavemod.modem import Modem


def test_polarity():
    np.testing.assert_allclose(symbols(np.array([1, 0]), 4.0), [2.0, -2.0])


@pytest.mark.parametrize("energy", [0.0, -1.0, math.nan, math.inf, -math.inf])
def test_bad_symbol_energy_rejected(energy):
    # codec.symbols trusts its energy; the Modem that feeds it checks it once.
    # nan used to pass the check and give nan symbols.
    with pytest.raises(ConfigurationError, match="symbol energy"):
        Modem("wm2", 4, 64, symbol_energy=energy)


def test_non_binary_bits_rejected():
    with pytest.raises(ConfigurationError, match="0 or 1"):
        symbols(np.array([0, 2]), 1.0)


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
        symbols(bits, 1.0)
    except ConfigurationError:
        accepted = False
    assert accepted == np.isin(bits, (0, 1)).all()


def test_method1_divisibility():
    # codec states the geometry; the Modem built on it checks the contract.
    assert symbols_per_coarse_sample(METHOD1, 3) == 4
    assert symbols_per_coarse_sample(METHOD2, 3) == 1
    assert len(place_method1(symbols(np.zeros(8, dtype=int), 1.0), 3)) == 16
    with pytest.raises(ConfigurationError, match="divisible by 4"):
        Modem("wm1", 3, 6)


def test_method2_degenerate_single_symbol():
    frame = place_method2(symbols(np.array([1]), 1.0), 3)
    details = [frame[level_slice(1, m)] for m in range(3)]
    assert [len(d) for d in details] == [1, 2, 4]
    assert sum(len(d) for d in details) == 2**3 - 1
    assert all(np.all(d == 1.0) for d in details)
    # The frame follows the message: an empty one (the Modem refuses it)
    # gives an empty frame.
    assert len(place_method2(symbols(np.array([], dtype=int), 1.0), 3)) == 0


def test_gather_shape_mismatch():
    frame = place_method2(symbols(np.array([1, 0]), 1.0), 2)
    with pytest.raises(ConfigurationError, match="does not match"):
        gather_observations(frame, METHOD2, 3, 2)


@pytest.mark.parametrize("method, place", [(METHOD1, place_method1), (METHOD2, place_method2)])
def test_placement_onto_a_frame_adds_the_copies(method, place):
    """With out=, placement is superposition: each detail coefficient is
    what it held plus its copy, bit for bit, and the coarse branch keeps
    its bytes, -0.0 and nan included."""
    num_scales = 4
    rng = np.random.default_rng(6)
    a = symbols(rng.integers(0, 2, 24), 2.0)
    fresh = place(a, num_scales)
    n0 = len(fresh) >> num_scales
    before = rng.standard_normal(len(fresh))
    before[:2] = [-0.0, np.nan]
    frame = before.copy()
    out = place(a, num_scales, out=frame)
    assert out is frame
    assert out[n0:].tobytes() == (before[n0:] + fresh[n0:]).tobytes()
    assert out[:n0].tobytes() == before[:n0].tobytes()
    with pytest.raises(ShapeError, match="output"):
        place(a, num_scales, out=np.empty(len(fresh) + 1))
