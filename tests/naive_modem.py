"""The whole modem chain composed from the per-layer oracles: the test
oracle for modem.Modem.

place lays the symbols out by naive_detector.coefficient_symbol_map,
modulate runs naive_kernels.synthesize_pyramid, and the receiver
runs naive_kernels.analyze_pyramid and gathers each symbol's copies with
naive_detector.gather_observations. PAM is the depth-0 chain: the frame is
the message, and each symbol's one copy is its sample. check_modem holds
a Modem to this chain at the Modem's geometry.
"""

import dataclasses
from math import sqrt

import naive_kernels
import numpy as np
from naive_detector import ObservationSet, coefficient_symbol_map, gather_observations, ml_decide

from wavemod import codec, detector
from wavemod.codec import METHOD1, PAM
from wavemod.filters import make_daubechies
from wavemod.modem import Modem


def depth(modem: Modem) -> int:
    return 0 if modem.method == PAM else modem.num_scales


def place(bits, modem: Modem) -> np.ndarray:
    """Zeros in the coarse branch, then each detail coefficient its owner's
    symbol; at depth 0, the symbols alone."""
    a = (2.0 * np.asarray(bits) - 1.0) * sqrt(modem.symbol_energy)
    n0 = len(a) >> (modem.num_scales - 1) if modem.method == METHOD1 else len(a)
    owners = coefficient_symbol_map(modem.method, depth(modem), n0)
    return np.concatenate([np.zeros(n0) if owners else a, *(a[k] for k in owners)])


def modulate(bits, modem: Modem) -> np.ndarray:
    return naive_kernels.synthesize_pyramid(
        place(bits, modem), depth(modem), *make_daubechies(modem.taps)
    )


def decide(frame, modem: Modem) -> tuple:
    """(ml_decide's bit, the copy sum) of each symbol in frame, whose
    copies at depth 0 are its one sample."""
    if depth(modem) == 0:
        obs = [ObservationSet(frame[k : k + 1], k) for k in range(len(frame))]
    else:
        obs = gather_observations(frame, modem.method, depth(modem), modem.message_len)
    bits = np.array([ml_decide(o, 1.0, 1.0).bit for o in obs])
    return bits, np.array([np.sum(o.copies) for o in obs])


def check_modem(modem: Modem, bits, seed=0):
    """modem against the reference chain on bits: placement and modulate
    bytes, the noiseless round trip and for_samples, the decisions on a
    noisy block (σ = 3·sqrt(E0), noise from the seed) and on exact frames
    of half-integers, and the energy of the block (Parseval)."""
    bits = np.asarray(bits)
    place_each = codec.place_method1 if modem.method == METHOD1 else codec.place_method2
    placed = place_each(codec.symbols(bits, modem.symbol_energy), depth(modem))
    assert placed.tobytes() == place(bits, modem).tobytes()
    samples = modem.modulate(bits)
    assert samples.tobytes() == modulate(bits, modem).tobytes()
    assert np.array_equal(modem.demodulate(samples), bits)
    n = len(samples)
    assert Modem.for_samples(modem.method, modem.num_scales, n, modem.taps) == (
        dataclasses.replace(modem, symbol_energy=1.0)
    )

    # transmit and demodulate round their sums differently from the
    # reference, so they may decide otherwise only where a sum is this small.
    rng = np.random.default_rng(seed)
    noise = rng.standard_normal(n) * (3.0 * sqrt(modem.symbol_energy))
    received = samples + noise
    analyzed = naive_kernels.analyze_pyramid(received, depth(modem), *make_daubechies(modem.taps))
    want, sums = decide(analyzed, modem)
    clear = np.abs(sums) > 1e-9 * np.abs(received).max() * 2 ** depth(modem)
    for got in (modem.transmit(bits, noise), modem.demodulate(received)):
        assert np.array_equal(got[clear], want[clear])

    # Half-integer sums are exact in any order, so ties must go to bit 0.
    for frame in (np.zeros(n), rng.integers(-2, 3, n) / 2.0):
        got = detector.detect_block(frame, modem.method, depth(modem))
        assert np.array_equal(got, decide(frame, modem)[0])

    energy = modem.symbol_energy * (n - (n >> depth(modem)) if depth(modem) else n)
    assert abs(samples @ samples - energy) <= 1e-12 * energy
