import numpy as np
import pytest

from wavemod.channel import NoiseSpec, add_awgn, noise_rng
from wavemod.errors import ConfigurationError


def test_zero_sigma_is_identity():
    block = np.arange(8, dtype=float)
    out = add_awgn(block, NoiseSpec(sigma=0.0, seed=1))
    assert np.array_equal(out, block)


def test_determinism_per_stream():
    block = np.zeros(100)
    spec = NoiseSpec(sigma=1.0, seed=42, stream_id=7)
    a = add_awgn(block, spec)
    b = add_awgn(block, spec)
    assert np.array_equal(a, b)


def test_noise_is_scaled_then_added_bit_for_bit():
    block = np.random.default_rng(3).standard_normal(257)
    block[::5] = -0.0
    spec = NoiseSpec(sigma=0.3, seed=5, stream_id=9)
    expected = block + spec.sigma * noise_rng(spec).standard_normal(len(block))
    out = add_awgn(block, spec)
    assert np.array_equal(out, expected)
    assert np.array_equal(np.signbit(out), np.signbit(expected))


def test_streams_are_distinct():
    block = np.zeros(100)
    a = add_awgn(block, NoiseSpec(sigma=1.0, seed=42, stream_id=0))
    b = add_awgn(block, NoiseSpec(sigma=1.0, seed=42, stream_id=1))
    c = add_awgn(block, NoiseSpec(sigma=1.0, seed=43, stream_id=0))
    assert not np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_order_independence():
    block = np.zeros(16)
    first = [add_awgn(block, NoiseSpec(1.0, 5, i)) for i in range(4)]
    second = [add_awgn(block, NoiseSpec(1.0, 5, i)) for i in reversed(range(4))]
    for i in range(4):
        assert np.array_equal(first[i], second[3 - i])


def test_moments_at_scale():
    n = 10**6
    out = add_awgn(np.zeros(n), NoiseSpec(sigma=1.0, seed=0))
    assert abs(np.mean(out)) < 5e-3
    assert abs(np.var(out) - 1.0) < 0.01


def test_negative_sigma_rejected():
    with pytest.raises(ConfigurationError, match="sigma"):
        NoiseSpec(sigma=-1.0, seed=0)


@pytest.mark.parametrize("sigma", [float("nan"), float("inf"), float("-inf")])
def test_non_finite_sigma_rejected(sigma):
    # nan used to pass the check and give nan samples; inf gave +-inf ones.
    with pytest.raises(ConfigurationError, match="finite"):
        NoiseSpec(sigma=sigma, seed=0)
