"""Property-based checks of the simplest structural invariants."""

import numpy as np
from hypothesis import given, settings, strategies as st

import tfaug as T
from tfaug import datasets
from tfaug.metrics import _spectral_entropy

from test_operators import fn_op_direct, op_op_direct


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
    assert abs(datasets._total_energy(out.signals) - 1.0) < 1e-12
    twice = T.normalize_dataset(out)
    assert np.allclose(twice.signals, out.signals)


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


small_dims = st.integers(min_value=1, max_value=12)


def _dataset(rng, n, d):
    return T.normalize_dataset(
        T.DataSet(tuple(rng.standard_normal(d) + 1j * rng.standard_normal(d) for _ in range(n)))
    )


@settings(max_examples=30, deadline=None)
@given(seed=seeds, d=small_dims)
def test_op_op_convolve_matches_direct_sum(seed, d):
    # general complex operators: neither needs to be Hermitian
    rng = np.random.default_rng(seed)
    A, B = (rng.standard_normal((2, d, d)) + 1j * rng.standard_normal((2, d, d)))
    A, B = A / np.linalg.norm(A), B / np.linalg.norm(B)
    assert np.max(np.abs(T.op_op_convolve(A, B) - op_op_direct(A, B))) < 1e-10


@settings(max_examples=30, deadline=None)
@given(seed=seeds, d=small_dims, n=st.integers(1, 4))
def test_total_correlation_matches_double_stft_sum(seed, d, n):
    ds = _dataset(np.random.default_rng(seed), n, d)
    brute = sum(T.spectrogram(fj, fi) for fi in ds.signals for fj in ds.signals)
    assert np.max(np.abs(T.total_correlation(T.data_operator(ds)) - brute)) < 1e-9


@settings(max_examples=30, deadline=None)
@given(seed=seeds, d=small_dims, n=st.integers(1, 4))
def test_cohen_class_matches_spectrogram_sum(seed, d, n):
    rng = np.random.default_rng(seed)
    ds = _dataset(rng, n, d)
    f = rng.standard_normal(d) + 1j * rng.standard_normal(d)
    f /= np.linalg.norm(f)
    direct = sum(T.spectrogram(f, fi) for fi in ds.signals)
    assert np.max(np.abs(T.cohen_class(T.data_operator(ds), f) - direct)) < 1e-10


@settings(max_examples=30, deadline=None)
@given(seed=seeds, d=small_dims, n=st.integers(1, 4))
def test_alc_from_localization_matches_alc(seed, d, n):
    # on a mask with mask(-z) != mask(z) a wrongly reflected transform of
    # chi_Omega changes the value; a centred rectangle would hide it
    rng = np.random.default_rng(seed)
    S = T.data_operator(_dataset(rng, n, d))
    mask = rng.random((d, d)) < 0.4
    mask[0, 0] = True
    if d >= 3:
        mask[0, 1], mask[0, d - 1] = True, False
    dom = T.Domain(mask)
    loc = T.localize(S, dom)
    assert abs(loc.alc - T.alc(T.total_correlation(S), dom)) < 1e-12
    L = T.mixed_state_localization(dom, S)
    assert loc.eigenvalues.tobytes() == np.maximum(np.linalg.eigvalsh(L.matrix)[::-1], 0).tobytes()
    assert abs(loc.entropy - T.von_neumann_entropy(L.matrix / dom.measure)) < 1e-12


@settings(max_examples=60, deadline=None)
@given(seed=seeds, d=st.integers(min_value=2, max_value=24), data=st.data())
def test_data_operator_entropy_matches_full_spectrum(seed, d, data):
    # N < d takes the N x N Gram route, N >= d the d x d operator; both give
    # the entropy of eigvalsh(S) well inside the 1e-7 entropy tolerance
    n = data.draw(st.sampled_from([1, d - 1, d, d + 1, 2 * d]))
    S = T.data_operator(_dataset(np.random.default_rng(seed), n, d))
    expected = _spectral_entropy(np.linalg.eigvalsh(S.matrix))
    assert abs(T.von_neumann_entropy(S) - expected) < 1e-12
