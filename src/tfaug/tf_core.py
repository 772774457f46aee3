"""Finite-dimensional time-frequency primitives.

All signals live in C^d and phase space is the d x d cyclic grid with cell
measure 1/d, so every continuous identity (Moyal, trace formulas, entropy
bounds) holds exactly up to floating round-off.  Grid index (m, n) maps to
the continuous point z = (m/sqrt(d), n/sqrt(d)); both axes wrap modulo d.
"""

import numpy as np


def signed_indices(d: int) -> np.ndarray:
    """Grid indices 0..d-1 remapped to the centered range [-d/2, d/2)."""
    if d < 1:
        raise ValueError(f"dimension must be positive, got {d}")
    k = np.arange(d)
    return np.where(k < d - k, k, k - d)


def _check_signal(f: np.ndarray, d: int | None = None) -> np.ndarray:
    f = np.asarray(f)
    if f.ndim != 1 or f.size == 0:
        raise ValueError(f"signal must be 1-d and nonempty, got shape {f.shape}")
    if d is not None and len(f) != d:
        raise ValueError(f"dimension mismatch: signal has length {len(f)}, expected {d}")
    return f


def tf_shift(f: np.ndarray, z: tuple[int, int]) -> np.ndarray:
    """Apply the time-frequency shift pi(z) for z = (m, n).

    pi(m, n) f(x) = exp(2 pi i x n / d) * f(x - m mod d).  Unitary, so the
    norm is preserved exactly up to round-off.
    """
    m, n = z
    return _tf_shifts(_check_signal(f)[None, :], [m], [n])[0, 0]


def _tf_shifts(X: np.ndarray, m, n) -> np.ndarray:
    """pi(m_k, n_k) applied to every row of the (N, d) X, shape (N, K, d):
    one gather X[:, (x - m_k) mod d], multiplied in place by one (K, d)
    phase table."""
    d = X.shape[1]
    x = np.arange(d)
    m, n = np.asarray(m)[:, None], np.asarray(n)[:, None]
    out = X.take((x - m) % d, axis=1).astype(complex, copy=False)
    return np.multiply(np.exp(2j * np.pi * x * (n % d) / d), out, out=out)


def stft(f: np.ndarray, g: np.ndarray) -> np.ndarray:
    """Short-time Fourier transform of f with window g.

    V[m, n] = sum_x f(x) conj(g(x - m)) exp(-2 pi i x n / d), i.e. row m is
    the length-d DFT of x -> f(x) conj(g(x - m)).  Satisfies the Moyal
    identity (1/d) sum |V|^2 = |f|^2 |g|^2.
    """
    f = _check_signal(f)
    g = _check_signal(g, len(f))
    d = len(f)
    # rows: all cyclic lags of the window at once
    idx = (np.arange(d)[None, :] - np.arange(d)[:, None]) % d
    prod = f[None, :] * np.conj(g[idx])
    return np.fft.fft(prod, axis=1)


def spectrogram(f: np.ndarray, g: np.ndarray) -> np.ndarray:
    """|V_g f|^2 as a real non-negative grid function."""
    V = stft(f, g)
    return (V * np.conj(V)).real


def grid_integrate(F: np.ndarray) -> complex | float:
    """Phase-space integral of a grid function: cell_measure * sum."""
    F = np.asarray(F)
    if F.ndim != 2 or F.shape[0] != F.shape[1]:
        raise ValueError(f"grid function must be square 2-d, got shape {F.shape}")
    val = F.sum() / F.shape[0]
    return float(val) if np.isrealobj(F) else complex(val)


def grid_convolve(F: np.ndarray, G: np.ndarray) -> np.ndarray:
    """Cyclic convolution of grid functions with cell-measure weighting.

    (F * G)(z) = (1/d) sum_{z'} F(z') G(z - z'), computed by 2-d FFT.
    """
    F = np.asarray(F)
    G = np.asarray(G)
    if F.shape != G.shape:
        raise ValueError(f"shape mismatch: {F.shape} vs {G.shape}")
    d = F.shape[0]
    out = np.fft.ifft2(np.fft.fft2(F) * np.fft.fft2(G)) / d
    if np.isrealobj(F) and np.isrealobj(G):
        out = out.real
    return out


def grid_reflect(F: np.ndarray) -> np.ndarray:
    """F(-z) on the cyclic grid: index v maps to (d - v) mod d on both axes."""
    F = np.asarray(F)
    return np.roll(np.flip(F, axis=(0, 1)), 1, axis=(0, 1))


def gaussian_window(d: int) -> np.ndarray:
    """Unit-norm periodized Gaussian 2^{1/4} exp(-pi x^2), x = (j - d/2)/sqrt(d)."""
    if d < 4:
        raise ValueError(f"need d >= 4, got {d}")
    x = (np.arange(d) - d / 2) / np.sqrt(d)
    g = np.zeros(d)
    for k in range(-3, 4):
        g += 2 ** 0.25 * np.exp(-np.pi * (x + k * np.sqrt(d)) ** 2)
    g = g.astype(complex)
    return g / np.linalg.norm(g)


def hermite(d: int, n: int) -> np.ndarray:
    """Sampled Hermite function of order n, re-orthonormalized.

    Samples H_n(sqrt(2 pi) x) exp(-pi x^2) on the centered grid, then
    Gram-Schmidts against orders 0..n-1 so the family is exactly
    orthonormal in C^d.  Every order 0 <= n < d is finite and orthonormal.
    """
    return _hermite_family(d, n)[:, n]


def _hermite_family(d: int, n_max: int) -> np.ndarray:
    """Columns 0..n_max of sampled, Gram-Schmidted Hermite functions.

    Row n of the samples is h_n = H_n(y) exp(-pi x^2) / sqrt(2^n n!),
    y = sqrt(2 pi) x, from the normalized three-term recurrence (DLMF 18.9)
    h_n = sqrt(2/n) y h_{n-1} - sqrt((n-1)/n) h_{n-2}, h_0 = exp(-pi x^2).
    Each point holds h_n as a exp(e): the recurrence runs on a, and where
    |a| passes 1e150 its last two terms shrink by 1e-150 while e grows to
    match, so no order overflows and an underflowing exp(-pi x^2) at the
    edges of a large grid zeroes no order that is not small there.
    Raises ValueError unless 0 <= n_max < d.
    """
    if d < 4:
        raise ValueError(f"need d >= 4, got {d}")
    if not 0 <= n_max < d:
        raise ValueError(f"Hermite order must satisfy 0 <= n < d, got n={n_max}, d={d}")
    x = (np.arange(d) - d / 2) / np.sqrt(d)
    y = np.sqrt(2 * np.pi) * x
    e = -np.pi * x**2
    H = np.empty((n_max + 1, d))
    H[0] = np.exp(e)
    a_prev, a = np.zeros(d), np.ones(d)
    for n in range(1, n_max + 1):
        a_prev, a = a, np.sqrt(2 / n) * y * a - np.sqrt((n - 1) / n) * a_prev
        big = np.abs(a) > 1e150
        a_prev[big] *= 1e-150
        a[big] *= 1e-150
        e[big] += np.log(1e150)
        H[n] = a * np.exp(e)
    cols = np.ascontiguousarray(H.T, dtype=complex)
    # QR gives exactly the Gram-Schmidt orthonormalization of the columns
    q, r = np.linalg.qr(cols)
    # fix signs so each function matches the raw sample's orientation
    signs = np.sign(np.diag(r).real)
    signs[signs == 0] = 1.0
    return q * signs[None, :]
