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
    orthonormal in C^d.  High orders overflow float64 in H_n at the grid's
    edge and raise ValueError: from n = 199 at d = 280 and from n = 179 at
    d = 512, so not every n < d is available for large d.
    """
    return _hermite_family(d, n)[:, n]


def _hermite_polys(n_max: int, y: np.ndarray) -> np.ndarray:
    """Rows 0..n_max: the physicists' Hermite polynomials H_n(y).

    A port of scipy's `eval_hermite`, equal to it bit for bit: H_n(y) =
    He_n(sqrt(2) y) 2^(n/2), with He_n from the backward loop y3, y2 = 0, 1;
    y3, y2 = y2, x y2 - k y3 for k = n..2; He_n = x y2 - y3.  Every order runs
    in one pass: row n joins the loop at k = n.  Like scipy, it does not warn
    when a value overflows to inf or becomes NaN.
    """
    x = np.sqrt(2) * y
    He = np.empty((n_max + 1, len(y)))
    He[0] = 1.0
    He[1:2] = x  # a slice: no row 1 when n_max = 0
    y3, y2, xy2 = np.empty((3, n_max + 1, len(y)))
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(n_max, 1, -1):
            y3[k], y2[k] = 0.0, 1.0
            np.multiply(x, y2[k:], out=xy2[k:])
            y3[k:] *= k
            np.subtract(xy2[k:], y3[k:], out=y3[k:])
            y3, y2 = y2, y3
        np.multiply(x, y2[2:], out=He[2:])
        He[2:] -= y3[2:]
        He *= np.array([2.0 ** (n / 2) for n in range(n_max + 1)])[:, None]
    return He


def _hermite_family(d: int, n_max: int) -> np.ndarray:
    """Columns 0..n_max of sampled, Gram-Schmidted Hermite functions.

    Raises ValueError unless 0 <= n_max < d, and when a sampled function is
    not finite: H_n overflows float64 at the grid's edges (from n = 199 at d = 280).
    """
    if d < 4:
        raise ValueError(f"need d >= 4, got {d}")
    if not 0 <= n_max < d:
        raise ValueError(f"Hermite order must satisfy 0 <= n < d, got n={n_max}, d={d}")
    x = (np.arange(d) - d / 2) / np.sqrt(d)
    H = _hermite_polys(n_max, np.sqrt(2 * np.pi) * x)
    with np.errstate(invalid="ignore"):
        H *= np.exp(-np.pi * x**2)
    finite = np.isfinite(H).all(axis=1)
    if not finite.all():
        n = int(np.argmin(finite))
        raise ValueError(
            f"Hermite function of order {n} is not finite at d={d}: H_{n} overflows "
            f"float64 at the grid's edges; orders 0..{n - 1} are finite"
        )
    cols = np.ascontiguousarray(H.T, dtype=complex)
    # QR gives exactly the Gram-Schmidt orthonormalization of the columns
    q, r = np.linalg.qr(cols)
    # fix signs so each function matches the raw sample's orientation
    signs = np.sign(np.diag(r).real)
    signs[signs == 0] = 1.0
    return q * signs[None, :]
