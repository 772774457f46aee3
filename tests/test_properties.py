"""Property-based checks of the simplest structural invariants."""

import numpy as np
from hypothesis import given, settings, strategies as st

import tfaug as T

from test_operators import fn_op_direct


def _signal(seed, d):
    rng = np.random.default_rng(seed)
    return rng.standard_normal(d) + 1j * rng.standard_normal(d)


dims = st.integers(min_value=4, max_value=48)
seeds = st.integers(min_value=0, max_value=2**31 - 1)


@settings(max_examples=30, deadline=None)
@given(seed=seeds, d=dims, data=st.data())
def test_tf_shift_unitary(seed, d, data):
    f = _signal(seed, d)
    z = (data.draw(st.integers(0, d - 1)), data.draw(st.integers(0, d - 1)))
    assert abs(np.linalg.norm(T.tf_shift(f, z)) - np.linalg.norm(f)) < 1e-12 * np.linalg.norm(f)


@settings(max_examples=30, deadline=None)
@given(seed=seeds, d=dims)
def test_moyal(seed, d):
    rng = np.random.default_rng(seed)
    f = rng.standard_normal(d) + 1j * rng.standard_normal(d)
    g = rng.standard_normal(d) + 1j * rng.standard_normal(d)
    lhs = T.grid_integrate(T.spectrogram(f, g))
    rhs = np.linalg.norm(f) ** 2 * np.linalg.norm(g) ** 2
    assert abs(lhs - rhs) < 1e-10 * rhs


@settings(max_examples=30, deadline=None)
@given(seed=seeds, d=dims, n=st.integers(1, 6))
def test_normalize_idempotent_and_unit(seed, d, n):
    rng = np.random.default_rng(seed)
    ds = T.DataSet(
        tuple(rng.standard_normal(d) + 1j * rng.standard_normal(d) for _ in range(n))
    )
    out = T.normalize_dataset(ds)
    assert abs(out.total_energy() - 1.0) < 1e-12
    twice = T.normalize_dataset(out)
    assert np.allclose(twice.as_matrix(), out.as_matrix())


@settings(max_examples=30, deadline=None)
@given(seed=seeds, d=dims)
def test_data_operator_trace_one(seed, d):
    rng = np.random.default_rng(seed)
    ds = T.normalize_dataset(
        T.DataSet(tuple(rng.standard_normal(d) + 1j * rng.standard_normal(d) for _ in range(3)))
    )
    assert abs(T.data_operator(ds).trace - 1.0) < 1e-10


@settings(max_examples=30, deadline=None)
@given(seed=seeds, d=st.integers(min_value=2, max_value=12))
def test_fn_op_convolve_matches_direct_sum(seed, d):
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((3, d)) + 1j * rng.standard_normal((3, d))
    X /= np.linalg.norm(X)
    S = X.T @ X.conj()
    F = rng.standard_normal((d, d))
    assert np.max(np.abs(T.fn_op_convolve(F, S).matrix - fn_op_direct(F, S))) < 1e-10
