from itertools import islice

from depmat.rng import GOLDEN, SplitMix64, bounded, derive_seed, stream, threshold

import pytest

# First outputs of the splitmix64 reference stream for seed 0.
REFERENCE_SEED0 = (
    0xE220A8397B1DCDAF,
    0x6E789E6AA1B965F4,
    0x06C45D188009454F,
)


def test_reference_stream_seed0():
    rng = SplitMix64(0)
    assert tuple(rng.next_u64() for _ in range(3)) == REFERENCE_SEED0


def test_same_seed_same_stream():
    a, b = SplitMix64(123456789), SplitMix64(123456789)
    assert [a.next_u64() for _ in range(100)] == [b.next_u64() for _ in range(100)]


def test_derive_seed_is_stream_position():
    rng = SplitMix64(99)
    stream = [rng.next_u64() for _ in range(8)]
    assert [derive_seed(99, i) for i in range(8)] == stream


def test_derive_seed_rejects_negative_index():
    with pytest.raises(ValueError):
        derive_seed(0, -1)


def test_random_unit_interval():
    rng = SplitMix64(7)
    values = [rng.random() for _ in range(1000)]
    assert all(0.0 <= v < 1.0 for v in values)
    assert min(values) < 0.2 and max(values) > 0.8


def test_below_bounds_and_coverage():
    rng = SplitMix64(11)
    seen = {rng.below(5) for _ in range(500)}
    assert seen == {0, 1, 2, 3, 4}
    assert all(SplitMix64(s).below(1) == 0 for s in range(20))
    with pytest.raises(ValueError):
        rng.below(0)


def test_seed_wraps_to_64_bits():
    assert SplitMix64(2**64).next_u64() == SplitMix64(0).next_u64()


def test_below_bound_fits_one_draw():
    rng = SplitMix64(7)
    assert SplitMix64(7).below(2**64) == rng.next_u64()
    with pytest.raises(ValueError):
        rng.below(2**64 + 1)


@pytest.mark.parametrize("seed", [0, 1, 2**63, 2**64 - 1])
# 63..65 and 191..193 straddle the stream's first block ends (64, 64 + 128)
@pytest.mark.parametrize("count", [0, 1, 63, 64, 65, 191, 192, 193, 4095, 4096, 4097])
def test_block_equals_successive_outputs(seed, count):
    rng = SplitMix64(seed)
    expected = [rng.next_u64() for _ in range(count)]
    assert list(islice(stream(seed), count)) == expected
    # the state after them: the stream continues from seed + count * GOLDEN
    after = SplitMix64(seed + count * GOLDEN)
    assert [after.next_u64() for _ in range(3)] == [rng.next_u64() for _ in range(3)]
    continued = list(islice(stream(seed + count * GOLDEN), 3))
    assert list(islice(stream(seed), count + 3)) == expected + continued


def test_block_reference_stream_seed0():
    assert tuple(islice(stream(0), 3)) == REFERENCE_SEED0
    assert tuple(islice(stream(2**64), 3)) == REFERENCE_SEED0


def test_threshold_is_exactly_random_below():
    edges = [0, 1, 2**11 - 1, 2**11, 2**63, 2**64 - 2**11, 2**64 - 1]
    rng = SplitMix64(5)
    outputs = edges + [rng.next_u64() for _ in range(2000)]
    for p in (1.0, 0.5, 0.05, 0.9, 1 / 3, 2.0**-53, 1e-300, 1 - 2.0**-53):
        t = threshold(p)
        for u in outputs:
            assert (u < t) == ((u >> 11) * 2.0**-53 < p)
    assert threshold(1.0) == 2**64


def test_bounded_rejects_at_or_above_the_limit():
    # n = 2**63 + 1 rejects about half of all outputs
    for n in (1, 2, 5, 9, 2**63 + 1, 2**64):
        limit = 2**64 - 2**64 % n
        draws, reference = stream(n), SplitMix64(n)
        for _ in range(50):
            u = reference.next_u64()
            while u >= limit:
                u = reference.next_u64()
            assert bounded(draws, n) == u % n
    with pytest.raises(ValueError):
        bounded(stream(0), 0)
    with pytest.raises(ValueError):
        bounded(stream(0), 2**64 + 1)
