"""Geometric weight banding: the fast integer path must match the exact rule."""

from __future__ import annotations

import random
from bisect import bisect_left
from fractions import Fraction

import pytest

from streamaug.weightbands import GeometricBands, as_fraction, ceil_power_index


def exact_index(base: Fraction, w: int) -> int:
    """Reference band rule: largest j with base**j <= w, by direct search."""
    assert w >= 1
    j = 0
    while base ** (j + 1) <= w:
        j += 1
    return j


def test_as_fraction_accepts_int_float_fraction():
    assert as_fraction(3) == Fraction(3)
    assert as_fraction(0.5) == Fraction(1, 2)
    assert as_fraction(Fraction(2, 7)) == Fraction(2, 7)
    with pytest.raises(TypeError):
        as_fraction("0.5")


def test_band_indices_small_base():
    bands = GeometricBands(Fraction(3, 2))
    assert bands.index(1) == 0
    assert bands.index(2) == 1
    assert bands.index(3) == 2
    # 1.5**2 = 2.25 so 2 still lands in band 1, 3 in band 2
    assert bands.contains(1, 2)
    assert not bands.contains(1, 3)


def test_band_index_matches_exact_rule_across_magnitudes():
    rng = random.Random(2024)
    for base in (Fraction(11, 10), Fraction(3, 2), Fraction(2), Fraction(20, 1)):
        bands = GeometricBands(base)
        weights = [rng.randint(1, 10 ** rng.randint(0, 18)) for _ in range(800)]
        weights += [1, 2, 10**18]
        # boundary weights: exactly on, one below, one above each threshold
        b = Fraction(1)
        for _ in range(30):
            b *= base
            t = -(-b.numerator // b.denominator)
            weights += [max(1, t - 1), t, t + 1]
        for w in weights:
            assert bands.index(w) == exact_index(base, w), (base, w)


def test_band_lower_bounds_are_monotone():
    bands = GeometricBands(Fraction(3, 2))
    lows = [bands.lower(j) for j in range(40)]
    assert lows == sorted(lows)
    assert lows[0] == 1


def test_index_rejects_nonpositive():
    bands = GeometricBands(Fraction(3, 2))
    with pytest.raises(ValueError):
        bands.index(0)


def test_lower_rejects_negative_band_indices():
    # once bands are grown, a negative j would read the list from its end
    bands = GeometricBands(2)
    bands.index(100)
    with pytest.raises(ValueError):
        bands.lower(-1)
    with pytest.raises(ValueError):
        bands.contains(-1, 64)
    assert bands.lower(0) == 1 and bands.contains(0, 1)


def test_ceil_power_index():
    # smallest b with 1.5**b >= 64 is 11 (1.5**10 ~ 57.7, 1.5**11 ~ 86.5)
    assert ceil_power_index(Fraction(3, 2), 64) == 11
    assert ceil_power_index(Fraction(2), 1) == 0
    assert ceil_power_index(Fraction(2), 2) == 1
    assert ceil_power_index(Fraction(2), 3) == 2
    # a float 1 + epsilon has a denominator near 2^52: the answer's exact
    # power has over half a million bits
    assert ceil_power_index(1 + 0.001, 32 / 0.001) == 10379


def test_repeated_lookups_give_the_same_band():
    bands = GeometricBands(Fraction(11, 10))
    first = [bands.index(w) for w in (5, 5, 17, 10**12, 17)]
    second = [bands.index(w) for w in (5, 5, 17, 10**12, 17)]
    assert first == second


def test_state_grows_with_bands_not_with_distinct_weights():
    # a band lookup keeps nothing per weight: after 10^4 distinct weights
    # every container of the instance is bounded by the bands it spans
    bands = GeometricBands(Fraction(11, 10))
    rng = random.Random(77)
    weights = rng.sample(range(1, 10**6), 10**4)
    band_count = max(bands.index(w) for w in weights) + 1
    sizes = {
        name: len(value)
        for name, value in vars(bands).items()
        if isinstance(value, (list, dict, set, tuple))
    }
    assert sizes
    assert all(size <= band_count + 1 for size in sizes.values()), (band_count, sizes)


def test_ceil_power_index_matches_the_step_loop():
    rng = random.Random(3175)
    bases = [Fraction(3, 2), Fraction(2), Fraction(11, 10), Fraction(101, 100), Fraction(20)]
    bases += [1.5, 1.1, 1 + 0.05, 1 + 1 / 3, 1000.0]
    tiny = Fraction(1, 10**40)
    cases = 0
    for raw in bases:
        base = as_fraction(raw)
        # the step loop: powers[b] = base**b, multiplied up past every target
        powers = [Fraction(1)]
        while powers[-1] < 10**13:
            powers.append(powers[-1] * base)
        targets = [0, -3, Fraction(-1, 7), Fraction(1, 2), 1, 1.0, 2, 0.999, 1 + 1e-12]
        targets += [rng.randint(2, 10 ** rng.randint(1, 12)) for _ in range(40)]
        targets += [Fraction(rng.randint(1, 10**9), rng.randint(1, 10**6)) for _ in range(40)]
        targets += [rng.uniform(0.5, 10**6) for _ in range(20)]
        # exact powers and their nearest neighbours on either side
        for power in rng.sample(powers[:-1], min(len(powers) - 1, 60)):
            targets += [power, power - tiny, power + tiny, power * (1 + tiny)]
        for target in targets:
            want = bisect_left(powers, as_fraction(target))
            assert ceil_power_index(raw, target) == want, (raw, target)
            cases += 1
    assert cases > 2500
