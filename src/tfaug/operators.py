"""Operator algebra: tensor products, data operators, operator convolutions,
Cohen's class, total correlation and spectral decomposition.

Operators are dense d x d complex matrices.  The two convolutions are

    F (x) S  -> operator:  (1/d) sum_z F(z) pi(z) S pi(z)^*
    S (x) T  -> function:  z -> tr(S pi(z) PTP pi(z)^*)

with P the parity f(x) -> f(-x mod d).  Both rest on one transform pair,
`spreading(S)` and its inverse `from_spreading(eta)`: the DFT along each
generalized diagonal, O(d^2 log d).  By Werner's identities F (x) S has the
spreading function F-hat eta_S / d (F-hat the symplectic DFT of F), and
S (x) T is the inverse symplectic DFT of a product of spreading functions;
in particular S-tilde = S (x) S-check is the transform of |eta_S|^2.  A
HermitianOperator keeps its spreading function, so all transforms of one
operator share a single one.  The direct sums are test oracles.
"""

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .tf_core import grid_reflect


@dataclass(frozen=True)
class HermitianOperator:
    """A finite d x d Hermitian matrix, symmetrized on construction."""

    matrix: np.ndarray
    hermiticity_defect: float = field(init=False)

    def __post_init__(self):
        A = np.asarray(self.matrix, dtype=complex)
        if A.ndim != 2 or A.shape[0] != A.shape[1]:
            raise ValueError(f"operator must be square, got shape {A.shape}")
        # a NaN or inf entry makes the defect NaN, which fails the test below too
        with np.errstate(invalid="ignore"):
            defect = float(np.max(np.abs(A - A.conj().T))) if A.size else 0.0
        scale = float(np.max(np.abs(A))) if A.size else 0.0
        if not defect <= 1e-10 * max(scale, 1.0):
            raise ValueError(f"matrix is not finite and Hermitian: defect {defect:.3e}")
        sym = 0.5 * (A + A.conj().T)
        sym.setflags(write=False)
        object.__setattr__(self, "matrix", sym)
        object.__setattr__(self, "hermiticity_defect", defect)

    @property
    def d(self) -> int:
        return self.matrix.shape[0]

    @property
    def trace(self) -> float:
        return float(np.trace(self.matrix).real)

    @cached_property
    def _spreading(self) -> np.ndarray:
        eta = spreading(self.matrix)
        eta.setflags(write=False)
        return eta


@dataclass(frozen=True)
class SpectralDecomposition:
    """Eigenvalues sorted descending with orthonormal eigenvectors."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    clamp_tolerance: float

    def reconstruct(self) -> np.ndarray:
        V = self.eigenvectors
        return (V * self.eigenvalues[None, :]) @ V.conj().T


def tensor_product(f: np.ndarray, g: np.ndarray) -> np.ndarray:
    """Rank-one operator f (x) g: h -> <h, g> f, i.e. the matrix f g^*."""
    f = np.asarray(f, dtype=complex)
    g = np.asarray(g, dtype=complex)
    if f.shape != g.shape or f.ndim != 1:
        raise ValueError(f"need equal-length vectors, got {f.shape} and {g.shape}")
    return np.outer(f, g.conj())


def data_operator(dataset) -> HermitianOperator:
    """S = sum_i f_i (x) f_i for a normalized dataset (trace 1)."""
    X = dataset.signals  # (N, d)
    norms_sq = float(np.sum(np.abs(X) ** 2))
    if abs(norms_sq - 1.0) > 1e-8:
        raise ValueError(
            f"dataset is not normalized: sum of squared norms is {norms_sq:.6g}"
        )
    return HermitianOperator(X.T @ X.conj())


def spectral_decompose(A: HermitianOperator, clamp_tolerance: float = 1e-10) -> SpectralDecomposition:
    """Eigendecomposition with descending eigenvalues and deterministic phases.

    Eigenvalues in [-clamp_tolerance * ||A||, 0) are clamped to zero; each
    eigenvector is phase-rotated so its largest-modulus component is real
    and positive, which makes results reproducible across runs.
    """
    M = A.matrix
    w, V = np.linalg.eigh(M)
    order = np.argsort(w, kind="stable")[::-1]
    w = w[order]
    V = V[:, order]
    scale = max(float(np.max(np.abs(w))), 1.0) if w.size else 1.0
    clamp = clamp_tolerance * scale
    w = np.where((w < 0) & (w >= -clamp), 0.0, w)
    for k in range(V.shape[1]):
        j = int(np.argmax(np.abs(V[:, k])))
        phase = V[j, k] / abs(V[j, k])
        V[:, k] = V[:, k] / phase
    return SpectralDecomposition(w, V, clamp_tolerance)


def operator_shift(S: np.ndarray | HermitianOperator, z: tuple[int, int]) -> np.ndarray:
    """alpha_z(S) = pi(z) S pi(z)^*; unitary conjugation, spectrum invariant."""
    M = S.matrix if isinstance(S, HermitianOperator) else np.asarray(S, dtype=complex)
    d = M.shape[0]
    m, n = z[0] % d, z[1] % d
    x = np.arange(d)
    phase = np.exp(2j * np.pi * x * n / d)
    shifted = np.roll(M, (m, m), axis=(0, 1))
    return phase[:, None] * shifted * phase.conj()[None, :]


def _as_matrix(S) -> np.ndarray:
    return S.matrix if isinstance(S, HermitianOperator) else np.asarray(S, dtype=complex)


def parity(f: np.ndarray) -> np.ndarray:
    """P f(x) = f(-x mod d)."""
    return np.roll(np.asarray(f)[::-1], 1)


def operator_parity(S) -> np.ndarray:
    """S-check = P S P, reflecting both indices through the origin."""
    M = _as_matrix(S)
    return np.roll(np.flip(M, axis=(0, 1)), 1, axis=(0, 1))


def _diagonal_index(d: int) -> tuple[np.ndarray, np.ndarray]:
    """Index of the generalized diagonals: M[idx][u, x] = M[x, x - u mod d]."""
    x = np.arange(d)
    return np.broadcast_to(x, (d, d)), (x[None, :] - x[:, None]) % d


def spreading(S) -> np.ndarray:
    """Spreading function eta_S[u, k] = sum_x S[x, x - u] exp(-2 pi i k x / d).

    Row u is the DFT of the u-th generalized diagonal; `from_spreading`
    inverts it.  For Hermitian S, |eta_S|^2 is the ambiguity function whose
    symplectic DFT is S-tilde.  A HermitianOperator computes its spreading
    function once and keeps it read-only, so every transform of the same
    operator shares it.
    """
    if isinstance(S, HermitianOperator):
        return S._spreading
    M = np.asarray(S, dtype=complex)
    return np.fft.fft(M[_diagonal_index(M.shape[0])], axis=1)


def from_spreading(eta: np.ndarray) -> np.ndarray:
    """The d x d matrix whose spreading function is eta; inverts `spreading`."""
    d = eta.shape[0]
    out = np.empty((d, d), dtype=complex)
    out[_diagonal_index(d)] = np.fft.ifft(eta, axis=1)
    return out


def _symplectic_fft(F: np.ndarray) -> np.ndarray:
    """F-hat[u, k] = sum_{m,n} F[m, n] exp(2 pi i (n u - k m) / d)."""
    return np.fft.fft(np.fft.ifft(F, axis=1) * F.shape[0], axis=0).T


def _inverse_symplectic_fft(H: np.ndarray) -> np.ndarray:
    """G[m, n] = (1/d) sum_{u,k} H[u, k] exp(2 pi i (u n - k m) / d)."""
    return np.fft.fft(np.fft.ifft(H, axis=0), axis=1).T


def fn_op_convolve(F: np.ndarray, S) -> HermitianOperator:
    """Convolution of a real grid function with an operator.

    F (x) S = (1/d) sum_{m,n} F(m,n) alpha_{(m,n)}(S).  Positive for F >= 0
    and S positive; tr(F (x) S) = grid_integrate(F) tr(S).

    Evaluated as from_spreading(F-hat eta_S) / d, O(d^2 log d).
    """
    F = np.asarray(F)
    M = _as_matrix(S)
    d = M.shape[0]
    if F.shape != (d, d):
        raise ValueError(f"grid shape {F.shape} does not match operator size {d}")
    if not np.isrealobj(F):
        raise ValueError("grid function must be real")
    return HermitianOperator(from_spreading(_symplectic_fft(F) * spreading(S)) / d)


def op_op_convolve(S, T) -> np.ndarray:
    """Convolution of two operators, yielding a grid function.

    (S (x) T)(z) = tr(S alpha_z(T-check)).  Real for Hermitian inputs,
    non-negative for positive inputs, and integrates to tr(S) tr(T).
    Evaluated as the inverse symplectic DFT of conj(eta_{S^*}) eta_{T-check},
    where eta_{T-check}(z) = eta_T(-z).
    """
    A, B = _as_matrix(S), _as_matrix(T)
    d = A.shape[0]
    if B.shape[0] != d:
        raise ValueError(f"dimension mismatch: {d} vs {B.shape[0]}")
    out = _inverse_symplectic_fft(
        np.conj(spreading(A.conj().T)) * grid_reflect(spreading(T))
    )
    if _is_hermitian(A) and _is_hermitian(B):
        out = np.ascontiguousarray(out.real)
    return out


def _is_hermitian(M: np.ndarray) -> bool:
    scale = max(float(np.max(np.abs(M))), 1e-300)
    return float(np.max(np.abs(M - M.conj().T))) < 1e-10 * scale


def _clamp_nonnegative(out) -> np.ndarray:
    """Real part of a grid that is non-negative up to roundoff, roundoff set to 0.

    Raises ValueError when a value is below -1e-12 max(1, max |value|).
    """
    out = np.asarray(out).real
    if out.size and out.min() < -1e-12 * max(1.0, float(np.max(np.abs(out)))):
        raise ValueError(f"grid is not non-negative: min value {out.min():.3e}")
    return np.maximum(out, 0.0)


def _check_positive(A: np.ndarray) -> None:
    """Raise unless the Hermitian matrix A has no eigenvalue below
    -1e-10 max(|lambda_max|, 1).  A Cholesky factorization of A + tau I with
    tau = 1e-10 max(1, max_i A_ii) accepts at a fraction of an eigensolve's
    cost, and never more loosely, as max_i A_ii <= lambda_max; only when it
    fails are the eigenvalues computed."""
    if not len(A):
        return
    tau = 1e-10 * max(1.0, float(A.diagonal().real.max()))
    try:
        np.linalg.cholesky(A + tau * np.eye(len(A)))
        return
    except np.linalg.LinAlgError:
        pass
    w = np.linalg.eigvalsh(A)  # ascending
    if w[0] < -1e-10 * max(abs(w[-1]), 1.0):
        raise ValueError(f"operator is not positive: min eigenvalue {w[0]:.3e}")


def total_correlation(S) -> np.ndarray:
    """Total correlation function S-tilde = S (x) S-check.

    For a data operator, S-tilde(z) = sum_{i,j} |V_{f_i} f_j (z)|^2.  It is
    the inverse symplectic DFT of |eta_S|^2 (one 2-d FFT).  S must be
    positive: its eigenvalues may not fall below -1e-10 max(1, lambda_max).
    The O(N^2) double-STFT sum is the test oracle.

    Non-negative, integrates to tr(S)^2 = 1, and S-tilde(0) = tr(S^2).
    """
    A = S if isinstance(S, HermitianOperator) else HermitianOperator(S)
    _check_positive(A.matrix)
    return _clamp_nonnegative(_inverse_symplectic_fft(np.abs(spreading(A)) ** 2))


def cohen_class(S, f: np.ndarray) -> np.ndarray:
    """Cohen's class distribution Q_S(f) = S-check (x) (f (x) f).

    For S = g (x) g this is the spectrogram |V_g f|^2; for a data operator
    it equals sum_i |V_{f_i} f|^2.  Integrates to tr(S) ||f||^2.
    """
    return _clamp_nonnegative(op_op_convolve(operator_parity(S), tensor_product(f, f)))


def conv_layer_identity(f: np.ndarray, g: np.ndarray, m: np.ndarray):
    """First-convolutional-layer identity, both routes.

    lhs: cyclic grid convolution of the spectrogram |V_g f|^2 with kernel m.
    rhs: the operator route [m (x) (f (x) f)] (x) (g-check (x) g-check).
    Returns (lhs, rhs, max abs difference); the agreement of the two routes
    is itself the correctness oracle.
    """
    from .tf_core import grid_convolve, spectrogram

    F0 = spectrogram(f, g)
    lhs = grid_convolve(F0, np.asarray(m, dtype=float))
    gc = parity(g)
    inner = fn_op_convolve(np.asarray(m, dtype=float), tensor_product(f, f))
    rhs = np.asarray(op_op_convolve(inner, tensor_product(gc, gc))).real
    return lhs, rhs, float(np.max(np.abs(lhs - rhs)))
