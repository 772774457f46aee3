import math
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from tfaug.floattext import _CHUNK, _HI, _K_MAX, _K_MIN, _LO, _flog2pow10, float_chunks, float_rows


def oracle(X) -> str:
    return "\n".join(",".join(map(repr, row)) for row in np.asarray(X).tolist())


def from_bits(bits) -> np.ndarray:
    return np.asarray(bits, dtype=np.uint64).view(np.float64)


def with_neighbours(values) -> np.ndarray:
    v = np.asarray(values, dtype=np.float64)
    return np.concatenate([np.nextafter(v, -np.inf), v, np.nextafter(v, np.inf)])


def assert_rows(X):
    got, expect = float_rows(X), oracle(X)
    if got != expect:
        pairs = zip(got.replace("\n", ",").split(","), expect.replace("\n", ",").split(","))
        bad = [(g, e) for g, e in pairs if g != e]
        pytest.fail(f"{len(bad)} values differ from repr, first {bad[:5]}")


def test_subnormals_below_2_16():
    assert_rows(from_bits(np.arange(1, 1 << 16)).reshape(-1, 15))


def test_powers_of_two_and_ten_with_neighbours():
    twos = np.ldexp(1.0, np.arange(-1074, 1024))
    tens = np.array([float(f"1e{e}") for e in range(-323, 309)])
    values = with_neighbours(np.concatenate([twos, tens]))
    assert_rows(np.concatenate([values, -values]).reshape(-1, 6))


def test_layout_boundaries():
    edges = [1e-05, 9.999999999999999e-05, 0.0001, 9999999999999998.0, 1e16]
    values = with_neighbours(edges)
    assert_rows(values.reshape(1, -1))
    text = "1e-05,9.999999999999999e-05,0.0001,9999999999999998.0,1e+16"
    assert float_rows(np.array([edges])) == text


def test_zeros_infinities_and_nans():
    values = np.array([0.0, -0.0, np.inf, -np.inf, np.nan])
    values = np.concatenate([values, from_bits([0xFFF8000000000000, 0x7FF0000000000001])])
    assert float_rows(values.reshape(1, -1)) == "0.0,-0.0,inf,-inf,nan,nan,nan"
    assert float_rows(np.array([[5e-324, 8e-323, -1.0]])) == "5e-324,8e-323,-1.0"


def test_a_million_random_bit_patterns():
    bits = np.random.default_rng(20260418).integers(0, 2**64, size=1_000_000, dtype=np.uint64)
    assert_rows(from_bits(bits).reshape(1000, 1000))


@settings(max_examples=200, deadline=None)
@given(arrays(np.float64, array_shapes(min_dims=2, max_dims=2, max_side=12), elements=st.floats()))
def test_matches_repr_on_any_grid(X):
    assert_rows(X)


@pytest.mark.parametrize("shape", [(3, _CHUNK // 2 + 7), (2, _CHUNK + 1), (_CHUNK + 3, 1)])
def test_rows_straddling_chunks(shape):
    rng = np.random.default_rng(5)
    assert_rows(rng.standard_normal(shape) * 10.0 ** rng.integers(-30, 30, shape))


@pytest.mark.parametrize("shape", [(1, 1), (1, 2), (1, 9), (4, 1), (0, 3), (2, 0)])
def test_small_shapes(shape):
    X = np.arange(np.prod(shape), dtype=np.float64).reshape(shape) / 3.0
    assert_rows(X)


@pytest.mark.parametrize("shape", [(3, _CHUNK // 2 + 7), (2, _CHUNK + 1), (1, 1), (0, 3), (2, 0)])
def test_rows_are_the_joined_chunks(shape):
    X = np.random.default_rng(7).standard_normal(shape)
    chunks = list(float_chunks(X))
    assert all(type(chunk) is bytes for chunk in chunks)
    assert b"".join(chunks).decode("ascii") == float_rows(X) == oracle(X)
    # every chunk but the last holds _CHUNK values, each followed by ',' or '\n'
    full = [chunk.count(b",") + chunk.count(b"\n") for chunk in chunks[:-1]]
    assert full == [_CHUNK] * (len(chunks) - 1)


@pytest.mark.parametrize("X", [np.zeros(3), np.zeros((2, 2), np.float32), np.zeros((1, 1, 1))])
def test_rejects_other_arrays(X):
    with pytest.raises(ValueError, match="2-d float64"):
        float_rows(X)
    with pytest.raises(ValueError, match="2-d float64"):
        next(float_chunks(X))


def test_strided_view():
    X = np.random.default_rng(9).standard_normal((6, 10))[:, ::3].T
    assert_rows(X)


@pytest.mark.parametrize(
    "values",
    [[0.0], [-0.0], [0.0, -0.0], [np.nan], [np.inf, -np.inf], [np.nan, np.inf, -np.inf, -np.nan]],
)
def test_chunks_with_nothing_to_search(values):
    # whole chunks of zeros or non-finite values, which hold no digits to search for
    X = np.resize(np.array(values), 2 * _CHUNK + 3).reshape(1, -1)
    assert_rows(X)
    assert_rows(X.reshape(-1, 1))


def test_zeros_straddling_a_chunk_boundary():
    X = np.random.default_rng(11).standard_normal(3 * _CHUNK)
    X[_CHUNK - 40 : _CHUNK + 60] = 0.0
    X[2 * _CHUNK - 3 : 2 * _CHUNK + 2] = -0.0
    assert_rows(X.reshape(-1, 64))


def test_dragonbox_cache_matches_exact_powers_of_ten():
    # phi_k = ceil(10^k 2^(127 - floor(log2 10^k))), from exact rationals
    for k in range(_K_MIN, _K_MAX + 1):
        p = Fraction(10) ** k
        e = math.floor(k * math.log2(10))
        e += (Fraction(2) ** (e + 1) <= p) - (Fraction(2) ** e > p)
        assert Fraction(2) ** e <= p < Fraction(2) ** (e + 1)
        assert _flog2pow10(k) == e, k
        phi = math.ceil(p * Fraction(2) ** (127 - e))
        assert (int(_HI[k - _K_MIN]) << 64) | int(_LO[k - _K_MIN]) == phi, k


def layout_of(v) -> tuple[int, int]:
    """(E, n) of repr(v): its scientific exponent and its significant digits."""
    _, digits, exponent = Decimal(repr(abs(v))).normalize().as_tuple()
    return exponent + len(digits) - 1, len(digits)


def with_layout(rng, E, n) -> float:
    """A random positive double whose repr has exponent E and n digits."""
    while True:
        digits = int(rng.integers(10 ** (n - 1), 10**n))
        if n == 1 or digits % 10:
            v = float(f"{digits}e{E - n + 1}")
            if math.isfinite(v) and layout_of(v) == (E, n):
                return v


# every kind of text a finite nonzero value takes: its exponents
KINDS = {
    **{f"positional E={E}": [E] for E in range(-4, 16)},
    "scientific, 2 exponent digits": [*range(-99, -4), *range(16, 100)],
    "scientific, 3 exponent digits": [*range(-307, -99), *range(100, 308)],
}


def test_every_layout_in_one_row():
    # one value per (kind, digit count, sign), shuffled among zeros, nans and infinities
    rng = np.random.default_rng(20261020)
    values = [
        sign * with_layout(rng, int(rng.choice(exponents)), n)
        for exponents in KINDS.values()
        for n in range(1, 18)
        for sign in (1.0, -1.0)
    ]
    assert len(values) == 22 * 17 * 2
    values += [0.0, -0.0, np.nan, np.inf, -np.inf]
    rng.shuffle(values)
    assert_rows(np.array([values]))
    assert_rows(np.array(values).reshape(-1, 1))


def test_a_later_chunk_keeps_no_digit_of_an_earlier_one():
    # the rows are reused from chunk to chunk: 17 digits each in the first,
    # then nans, infinities and one-digit values, whose rows hold stale digits
    rng = np.random.default_rng(24)
    kinds = list(KINDS.values())
    long = [with_layout(rng, int(rng.choice(kinds[i])), 17) for i in rng.integers(0, len(kinds), _CHUNK)]
    short = np.resize([np.nan, np.inf, -np.inf, 1.0, -3e-05, 5e+100, 0.0002, 7e15, -0.0], _CHUNK)
    X = np.array([long, short])
    assert_rows(X)
    assert float_rows(X[1:, :9]) == "nan,inf,-inf,1.0,-3e-05,5e+100,0.0002,7000000000000000.0,-0.0"
