import numpy as np
import pytest

import tfaug as T


def rand_signal(rng, d):
    return rng.standard_normal(d) + 1j * rng.standard_normal(d)


def rand_unit(rng, d):
    f = rand_signal(rng, d)
    return f / np.linalg.norm(f)


def rand_dataset(rng, n, d):
    ds = T.DataSet(tuple(rand_signal(rng, d) for _ in range(n)))
    return T.normalize_dataset(ds)


def rand_state(rng, n, d):
    """Random positive trace-one operator (a random data operator)."""
    return T.data_operator(rand_dataset(rng, n, d))


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


def disk_mask(d, R):
    """The cells z with |z| <= R in phase units, around the origin."""
    k = T.tf_core.signed_indices(d) / np.sqrt(d)
    return k[:, None] ** 2 + k[None, :] ** 2 <= R * R


def operator_shift(S, z):
    """alpha_z(S) = pi(z) S pi(z)^*, the direct-summation oracles' shift;
    unitary conjugation, so the spectrum is invariant."""
    M = S.matrix if isinstance(S, T.HermitianOperator) else np.asarray(S, dtype=complex)
    d = M.shape[0]
    m, n = z[0] % d, z[1] % d
    x = np.arange(d)
    phase = np.exp(2j * np.pi * x * n / d)
    shifted = np.roll(M, (m, m), axis=(0, 1))
    return phase[:, None] * shifted * phase.conj()[None, :]
