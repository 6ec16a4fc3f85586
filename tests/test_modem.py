import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies
from naive_modem import check_modem

from wavemod.ber import _MESSAGE_TAG, _NOISE_TAG, _noise_level, _stream
from wavemod.channel import add_awgn
from wavemod.errors import ConfigurationError, ShapeError
from wavemod.modem import MAX_FRAME_SAMPLES, METHODS, Modem


def message_len_for(method, num_scales):
    # Method 1 needs a multiple of 2**(M-1); any length works for the others.
    return 3 * 2 ** (num_scales - 1) if method == "wm1" else 11


@pytest.mark.parametrize("taps", [2, 4, 6, 8])
@pytest.mark.parametrize("num_scales", range(1, 9))
@pytest.mark.parametrize("method", METHODS)
@settings(max_examples=3, deadline=None, derandomize=True, database=None)
@given(data=strategies.data())
def test_modem_matches_the_reference_chain(method, num_scales, taps, data):
    """Placement, modulate, demodulate, transmit and detection give the
    reference chain's bytes and decisions at every geometry. The geometry
    is enumerated; hypothesis draws the content: the length, E0, the bits
    and the noise seed."""
    # wm1 needs a multiple of 2**(M-1); wm2 with L = 1 sums one-sample rows.
    rate = 1 << (num_scales - 1) if method == "wm1" else 1
    message_len = rate * data.draw(strategies.integers(1, 3 if method == "wm1" else 24))
    modem = Modem(method, num_scales, message_len, taps, data.draw(strategies.floats(0.01, 100.0)))
    bits = strategies.lists(strategies.integers(0, 1), min_size=message_len, max_size=message_len)
    check_modem(modem, data.draw(bits), data.draw(strategies.integers(0, 2**32 - 1)))


def test_the_sweeps_frame_matches_the_reference_chain():
    """The sweep's frame: 2**m rows of 512 samples per level."""
    check_modem(Modem("wm2", 6, 512), [1, 0] * 256, 16)


@pytest.mark.parametrize("method", METHODS)
def test_results_do_not_share_the_modems_work_area(method):
    """One modem switching direction, its work area dirty from the other
    direction, gives the bytes of a fresh modem on every call, and a later
    call leaves the arrays an earlier one returned as they were."""
    modem = Modem(method, 4, message_len_for(method, 4))
    rng = np.random.default_rng(7)
    bits_a, bits_b = rng.integers(0, 2, (2, modem.message_len))
    noise = rng.standard_normal(modem.num_samples)

    def same(got, call, *args):
        want = getattr(Modem(method, 4, modem.message_len), call)(*args)
        assert got.tobytes() == want.tobytes()

    samples_a = modem.modulate(bits_a)
    same(modem.transmit(bits_a, noise.copy()), "transmit", bits_a, noise.copy())
    samples_b = modem.modulate(bits_b)
    detected_a = modem.demodulate(samples_a)
    same(modem.transmit(bits_b, noise.copy()), "transmit", bits_b, noise.copy())
    same(modem.demodulate(samples_b), "demodulate", samples_b)
    same(samples_a, "modulate", bits_a)
    same(samples_b, "modulate", bits_b)
    same(detected_a, "demodulate", samples_a)
    assert np.array_equal(detected_a, bits_a)


def test_frame_cap_boundary():
    # 512 * 2**15 == MAX_FRAME_SAMPLES is allowed; one more scale is not.
    assert Modem("wm2", 15, 512).num_samples == MAX_FRAME_SAMPLES
    with pytest.raises(ConfigurationError, match="cap"):
        Modem("wm2", 16, 512)
    assert Modem("pam", 1, MAX_FRAME_SAMPLES).num_samples == MAX_FRAME_SAMPLES
    with pytest.raises(ConfigurationError, match="cap"):
        Modem("pam", 1, MAX_FRAME_SAMPLES + 1)


@pytest.mark.parametrize(
    "args, kwargs, message",
    [
        (("qam", 4, 64), {}, "unknown method"),
        (("wm2", 0, 64), {}, "num_scales"),
        (("wm1", -1, 64), {}, "num_scales"),
        (("pam", 0, 64), {}, "num_scales"),
        (("wm2", 4, 0), {}, "message_len"),
        (("wm1", 4, 100), {}, "divisible by 8"),
        (("wm2", 4, 64), {"taps": 5}, "tap count"),
        (("wm1", 4, 64), {"taps": 0}, "tap count"),
        (("wm2", 4, 64), {"symbol_energy": 0.0}, "energy"),
        (("wm2", 4, 64), {"symbol_energy": -1.0}, "energy"),
        (("wm1", 4, 64), {"symbol_energy": float("nan")}, "energy"),
        (("pam", 4, 64), {"symbol_energy": float("inf")}, "energy"),
        (("wm2", 40, 512), {}, "cap"),
        (("wm1", 40, 512), {}, "cap"),
        (("wm1", 10**12, 512), {}, "cap"),
        (("wm2", 20, 512), {}, "cap"),
        # Non-integral settings used to end in a bare TypeError.
        (("wm2", 6.0, 512), {}, "num_scales must be an integer"),
        (("wm1", True, 64), {}, "num_scales must be an integer"),
        (("wm2", 6, 512.0), {}, "message_len must be an integer"),
        (("pam", 6, 512.5), {}, "message_len must be an integer"),
        (("wm2", 6, 512), {"taps": 4.0}, "taps must be an integer"),
        # PAM runs the depth-0 chain with a real filter pair.
        (("pam", 4, 64), {"taps": 5}, "tap count"),
    ],
)
def test_contract_violations(args, kwargs, message):
    with pytest.raises(ConfigurationError, match=message):
        Modem(*args, **kwargs)


@pytest.mark.parametrize(
    "method, num_scales, num_samples, message",
    [
        ("wm2", 3, 12, "not divisible by 2\\^3"),
        ("wm1", 0, 8, "num_scales"),
        ("wm2", 40, 8, "cap"),
        ("pam", 1, MAX_FRAME_SAMPLES + 1, "cap"),
    ],
)
def test_for_samples_violations(method, num_scales, num_samples, message):
    with pytest.raises(ConfigurationError, match=message):
        Modem.for_samples(method, num_scales, num_samples)


def test_demodulate_refuses_a_non_finite_frame():
    samples = np.ones(64)
    samples[17] = np.nan
    with pytest.raises(ConfigurationError, match="non-finite"):
        Modem("wm2", 3, 8).demodulate(samples)


def test_block_length_must_match():
    modem = Modem("wm2", 3, 4)
    with pytest.raises(ShapeError, match="bits"):
        modem.modulate(np.zeros(5, dtype=int))
    with pytest.raises(ShapeError, match="samples"):
        modem.demodulate(np.zeros(16))
    with pytest.raises(ShapeError, match="samples"):
        Modem("pam", 1, 4).demodulate(np.zeros(3))



def grid(lo, hi, step):
    return [lo + i * step for i in range((hi - lo) // step + 1)]


# (method, scales, message length, taps, seed, SNR grid in dB, blocks per
# point): the pinned sweeps of test_guarded_outputs for every method, then
# Haar and taps 8.
FULL_CHAIN_CASES = [
    *[(m, 4, 64, 4, 42, grid(-6, 2, 2), 100) for m in METHODS],
    *[(m, 6, 512, 6, 7, grid(-12, 4, 2), 20) for m in METHODS],
    ("wm2", 4, 64, 2, 42, grid(-6, 2, 2), 100),
    ("wm2", 5, 64, 8, 42, grid(-6, 2, 2), 100),
]


@pytest.mark.parametrize(
    "method, num_scales, message_len, taps, seed, snr_grid_db, blocks",
    FULL_CHAIN_CASES,
    ids=[f"{c[0]}-M{c[1]}-L{c[2]}-taps{c[3]}" for c in FULL_CHAIN_CASES],
)
def test_transmit_matches_full_chain(
    method, num_scales, message_len, taps, seed, snr_grid_db, blocks
):
    """transmit decides as demodulate(add_awgn(modulate(bits))) does on
    every block of the Monte Carlo harness's streams."""
    modem = Modem(method, num_scales, message_len, taps)
    for pt, snr_db in enumerate(snr_grid_db):
        _, sigma = _noise_level(modem.symbol_energy, snr_db)
        for block in range(blocks):
            bits = _stream(seed, _MESSAGE_TAG, pt, block).integers(0, 2, message_len)
            words = (seed, _NOISE_TAG | pt << 40 | block)
            full = modem.demodulate(add_awgn(modem.modulate(bits), sigma, _stream(*words)))
            noise = add_awgn(np.zeros(modem.num_samples), sigma, _stream(*words))
            assert np.array_equal(modem.transmit(bits, noise), full), (snr_db, block)


@pytest.mark.parametrize("method", METHODS)
def test_transmit_contract(method):
    modem = Modem(method, 3, message_len_for(method, 3))
    bits = np.zeros(modem.message_len, dtype=int)
    with pytest.raises(ShapeError, match="bits"):
        modem.transmit(bits[1:], np.zeros(modem.num_samples))
    with pytest.raises(ShapeError, match="noise"):
        modem.transmit(bits, np.zeros(modem.num_samples + 1))
    bits[0] = 2
    with pytest.raises(ConfigurationError, match="0 or 1"):
        modem.transmit(bits, np.zeros(modem.num_samples))


def test_transmit_allocates_no_frame():
    """A warm modem's Monte Carlo block allocates less than half a frame:
    the noise is analyzed in place and the message added onto it. The
    page-fault tests miss a fresh frame that the heap reuses; tracemalloc
    sees numpy's buffers."""
    modem = Modem("wm2", 6, 512)
    rng = np.random.default_rng(8)
    bits = rng.integers(0, 2, modem.message_len)
    noise = rng.standard_normal(modem.num_samples)
    modem.transmit(bits, noise.copy())  # builds the work area
    tracemalloc.start()
    try:
        modem.transmit(bits, noise)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < modem.num_samples * 8 // 2
