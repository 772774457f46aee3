import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from tfaug.floattext import _CHUNK, float_rows


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


@pytest.mark.parametrize("X", [np.zeros(3), np.zeros((2, 2), np.float32), np.zeros((1, 1, 1))])
def test_rejects_other_arrays(X):
    with pytest.raises(ValueError, match="2-d float64"):
        float_rows(X)


def test_strided_view():
    X = np.random.default_rng(9).standard_normal((6, 10))[:, ::3].T
    assert_rows(X)
