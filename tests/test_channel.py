import numpy as np
import pytest

from wavemod.channel import add_awgn
from wavemod.errors import ConfigurationError


def stream(seed, stream_id=0):
    return np.random.default_rng(np.random.SeedSequence([seed, stream_id]))


def test_zero_sigma_is_identity():
    block = np.arange(8, dtype=float)
    out = add_awgn(block, 0.0, stream(1))
    assert np.array_equal(out, block)


def test_determinism_per_stream():
    block = np.zeros(100)
    a = add_awgn(block, 1.0, stream(42, 7))
    b = add_awgn(block, 1.0, stream(42, 7))
    assert np.array_equal(a, b)


def test_noise_is_scaled_then_added_bit_for_bit():
    block = np.random.default_rng(3).standard_normal(257)
    block[::5] = -0.0
    expected = block + 0.3 * stream(5, 9).standard_normal(len(block))
    out = add_awgn(block, 0.3, stream(5, 9))
    assert np.array_equal(out, expected)
    assert np.array_equal(np.signbit(out), np.signbit(expected))


def test_streams_are_distinct():
    block = np.zeros(100)
    a = add_awgn(block, 1.0, stream(42, 0))
    b = add_awgn(block, 1.0, stream(42, 1))
    c = add_awgn(block, 1.0, stream(43, 0))
    assert not np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_order_independence():
    block = np.zeros(16)
    first = [add_awgn(block, 1.0, stream(5, i)) for i in range(4)]
    second = [add_awgn(block, 1.0, stream(5, i)) for i in reversed(range(4))]
    for i in range(4):
        assert np.array_equal(first[i], second[3 - i])


def test_moments_at_scale():
    n = 10**6
    out = add_awgn(np.zeros(n), 1.0, stream(0))
    assert abs(np.mean(out)) < 5e-3
    assert abs(np.var(out) - 1.0) < 0.01


def test_overlapping_out_rejected():
    """The normals go into out first, so out=samples would give 2*sigma*z."""
    block = np.ones(8)
    for samples, out in ((block, block), (block[:4], block[2:6])):
        with pytest.raises(ConfigurationError, match="overlaps"):
            add_awgn(samples, 1.0, stream(0), out=out)
    assert np.array_equal(block, np.ones(8))


def test_negative_sigma_rejected():
    with pytest.raises(ConfigurationError, match="sigma"):
        add_awgn(np.zeros(4), -1.0, stream(0))


@pytest.mark.parametrize("sigma", [float("nan"), float("inf"), float("-inf")])
def test_non_finite_sigma_rejected(sigma):
    # nan used to pass the check and give nan samples; inf gave +-inf ones.
    with pytest.raises(ConfigurationError, match="finite"):
        add_awgn(np.zeros(4), sigma, stream(0))


@pytest.mark.parametrize("sigma", [0.0, 0.7])
def test_output_buffer_gives_the_fresh_bytes(sigma):
    block = np.random.default_rng(4).standard_normal(129)
    block[::3] = -0.0
    fresh = add_awgn(block, sigma, stream(8, 2))
    buf = np.full(len(block), np.nan)
    out = add_awgn(block, sigma, stream(8, 2), out=buf)
    assert out is buf
    assert out.tobytes() == fresh.tobytes()
