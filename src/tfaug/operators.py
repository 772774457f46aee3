"""Operator algebra: tensor products, data operators, operator convolutions,
Cohen's class and total correlation.

Operators are dense d x d complex matrices.  The two convolutions are

    F (x) S  -> operator:  (1/d) sum_z F(z) pi(z) S pi(z)^*
    S (x) T  -> function:  z -> tr(S pi(z) PTP pi(z)^*)

with P the parity f(x) -> f(-x mod d).  Both rest on the spreading function
`spreading(S)`: the DFT along each generalized diagonal, O(d^2 log d).  By
Werner's identities F (x) S has the spreading function F-hat eta_S / d
(F-hat the symplectic DFT of F), and S (x) T is the inverse symplectic DFT
of a product of spreading functions; in particular S-tilde = S (x) S-check
is the transform of |eta_S|^2.  A HermitianOperator keeps its spreading
function, so all transforms of one operator share a single one.  The
direct sums are test oracles.

F (x) S is Hermitian, so its generalized diagonal -u is the conjugate of
diagonal u: `_hermitian_from_spreading` inverts only rows u = 0..d//2 of
its spreading function, and the other half of the matrix is read from
their conjugates, which makes the result exactly Hermitian.
`from_spreading`, the full inverse of `spreading`, inverts every row; no
convolution uses it.  A boolean grid is a domain indicator; for a
product set (every rectangle, wrapped ones included) its symplectic DFT is
the outer product of two 1-d DFTs, O(d log d).

An FFT of an array the library has just made runs in that array's memory,
a block of about 1 MiB of lines at a time (`_fft_in_place`), so a d x d
transform needs no second d x d array.  `_inverse_symplectic_fft`
therefore consumes its argument; `_symplectic_fft` transforms a copy.
"""

from dataclasses import dataclass, field
from functools import cached_property, lru_cache

import numpy as np

from .tf_core import grid_convolve, grid_reflect, spectrogram


@dataclass(frozen=True, eq=False)
class HermitianOperator:
    """A finite d x d Hermitian matrix, checked and symmetrized on construction.

    The one checked constructor, for public and file input, symmetrizes
    into a new matrix; matrices the library builds Hermitian take the
    trusted `_built`, which symmetrizes its fresh matrix in place and tests
    nothing, or `_exact` when they are built exactly Hermitian already.
    The result is exactly Hermitian, its own adjoint.
    A data operator S = X^T conj(X) also keeps its (N, d) factor X in
    `_factor`, which marks it positive by construction.  Only
    `data_operator` sets it, to its dataset's signal matrix.
    """

    matrix: np.ndarray
    _factor: np.ndarray | None = field(init=False, default=None, repr=False)

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
        object.__setattr__(self, "matrix", _symmetrized(A))

    @classmethod
    def _built(cls, A: np.ndarray, factor: np.ndarray | None = None) -> "HermitianOperator":
        """A fresh matrix the library built Hermitian and holds nowhere else:
        symmetrized in place, in its own C order, and not tested."""
        return cls._exact(_symmetrized(A, out=A), factor)

    @classmethod
    def _exact(cls, A: np.ndarray, factor: np.ndarray | None = None) -> "HermitianOperator":
        """A read-only complex matrix the library built equal to its adjoint
        bit for bit: kept as it is."""
        op = object.__new__(cls)
        object.__setattr__(op, "matrix", A)
        object.__setattr__(op, "_factor", factor)
        return op

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


def _symmetrized(A: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """(A + A^*) / 2, read-only: exactly Hermitian, so eigvalsh reads either
    triangle.  Written into out (A itself for a fresh A), or a new array."""
    sym = np.add(A, A.conj().T, out=out)
    sym *= 0.5
    sym.setflags(write=False)
    return sym


def tensor_product(f: np.ndarray, g: np.ndarray) -> np.ndarray:
    """Rank-one operator f (x) g: h -> <h, g> f, i.e. the matrix f g^*."""
    f = np.asarray(f, dtype=complex)
    g = np.asarray(g, dtype=complex)
    if f.shape != g.shape or f.ndim != 1:
        raise ValueError(f"need equal-length vectors, got {f.shape} and {g.shape}")
    return np.outer(f, g.conj())


def data_operator(dataset) -> HermitianOperator:
    """S = sum_i f_i (x) f_i for a normalized dataset (trace 1).

    S is the product X^T conj(X), symmetrized in place, so it stays
    C-ordered and needs one d x d temporary (its conjugate) besides S.
    S keeps the dataset's (N, d) signal matrix X as its factor, so spectral
    functions can solve the N x N Gram matrix conj(X) X^T, which has the
    same nonzero eigenvalues, when N < d.
    """
    X = dataset.signals
    norms_sq = float(np.sum(np.abs(X) ** 2))
    if not abs(norms_sq - 1.0) <= 1e-8:  # so that a NaN signal fails too
        raise ValueError(f"dataset is not normalized: sum of squared norms is {norms_sq:.6g}")
    return HermitianOperator._built(X.T @ X.conj(), X)


def _as_matrix(S) -> np.ndarray:
    return S.matrix if isinstance(S, HermitianOperator) else np.asarray(S, dtype=complex)


def parity(f: np.ndarray) -> np.ndarray:
    """P f(x) = f(-x mod d)."""
    return np.roll(np.asarray(f)[::-1], 1)


@lru_cache(maxsize=8)
def _diagonal_index(d: int) -> tuple[np.ndarray, np.ndarray]:
    """Index of the generalized diagonals: M[idx][u, x] = M[x, x - u mod d].

    Built once per d (the most recent 8 sizes are kept) and read-only.
    """
    x = np.arange(d)
    cols = (x[None, :] - x[:, None]) % d
    cols.setflags(write=False)
    return np.broadcast_to(x, (d, d)), cols


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
    return _fft_in_place(np.fft.fft, M[_diagonal_index(M.shape[0])], axis=1)


def from_spreading(eta: np.ndarray) -> np.ndarray:
    """The d x d matrix whose spreading function is eta; inverts `spreading`."""
    d = eta.shape[0]
    out = np.empty((d, d), dtype=complex)
    out[_diagonal_index(d)] = np.fft.ifft(eta, axis=1)
    return out


@lru_cache(maxsize=8)
def _half_diagonal_index(d: int) -> np.ndarray:
    """Flat gather index for a Hermitian matrix from its diagonals u = 0..d//2.

    The source is the array [D, conj(D)] of shape (2, d//2 + 1, d), with
    D[u, x] = M[x, x - u mod d].  Entry (x, y) with lag u = x - y mod d is
    read from D[u, x] when u <= d/2, and from conj(D)[d - u, y] otherwise,
    as M[x, y] = conj(M[y, x]).  Built once per d (the most recent 8 sizes
    are kept) and read-only.
    """
    x = np.arange(d)[:, None]
    y = np.arange(d)
    u = (x - y) % d
    index = np.where(2 * u <= d, u * d + x, (d // 2 + 1 + d - u) * d + y).ravel()
    index.setflags(write=False)
    return index


def _hermitian_from_spreading(eta: np.ndarray) -> np.ndarray:
    """The exactly Hermitian, read-only d x d matrix whose spreading function
    is eta, which must be that of a Hermitian matrix up to roundoff.

    Only rows u = 0..d//2 of eta are read (it may hold just those).  Their
    inverse DFTs are the diagonals u, and the conjugates of the diagonals
    fill the mirror diagonals -u; the main diagonal is set real and, for
    even d, diagonal d/2, its own mirror image, is made Hermitian with itself.
    """
    d = eta.shape[1]
    source = np.empty((2, d // 2 + 1, d), dtype=complex)
    diagonals = source[0]
    diagonals[...] = np.fft.ifft(eta[: d // 2 + 1], axis=1)
    diagonals[0].imag = 0.0
    if d % 2 == 0:
        np.conj(diagonals[-1, : d // 2], out=diagonals[-1, d // 2 :])
    np.conj(diagonals, out=source[1])
    out = source.reshape(-1).take(_half_diagonal_index(d)).reshape(d, d)
    out.setflags(write=False)
    return out


def _indicator_fft(mask: np.ndarray, n_rows: int | None = None) -> np.ndarray:
    """Symplectic DFT of the indicator of a boolean mask, its first n_rows
    rows (all by default).

    A product set, mask = outer(mask.any(1), mask.any(0)), has the
    transform outer(d ifft(cols), fft(rows)), O(d log d) plus the outer
    product, of which only the rows asked for are formed; any other mask
    takes the 2-d route.
    """
    rows, cols = mask.any(axis=1), mask.any(axis=0)
    if np.array_equal(mask, np.outer(rows, cols)):
        return np.outer((np.fft.ifft(cols) * mask.shape[0])[:n_rows], np.fft.fft(rows))
    return _symplectic_fft(mask)[:n_rows]


def _fft_in_place(transform, G: np.ndarray, axis: int) -> np.ndarray:
    """G, a complex 2-d array, transformed by np.fft.fft or np.fft.ifft along
    axis in its own memory and returned.

    The lines along axis (columns for axis 0, rows for axis 1) go through
    the transform in blocks of about 1 MiB, each line by the same pocketfft
    call that a whole-array call makes, so the result equals
    `transform(G, axis=axis)` bit for bit.
    """
    if not G.size:  # numpy's own error for a zero-length transform
        return transform(G, axis=axis)
    step = max(1, (1 << 20) // (G.shape[axis] * G.itemsize))
    for start in range(0, G.shape[1 - axis], step):
        lines = slice(start, start + step)
        block = (slice(None), lines) if axis == 0 else lines
        G[block] = transform(G[block], axis=axis)
    return G


def _symplectic_fft(F: np.ndarray) -> np.ndarray:
    """F-hat[u, k] = sum_{m,n} F[m, n] exp(2 pi i (n u - k m) / d).

    F is never written: one complex copy of it is transformed in place."""
    G = np.array(F, dtype=complex)
    _fft_in_place(np.fft.ifft, G, axis=1)
    G *= G.shape[0]
    return _fft_in_place(np.fft.fft, G, axis=0).T


def _inverse_symplectic_fft(H: np.ndarray) -> np.ndarray:
    """G[m, n] = (1/d) sum_{u,k} H[u, k] exp(2 pi i (u n - k m) / d).

    H is consumed: a complex H is transformed in place and its transpose
    returned, so callers pass an array they hold nowhere else.  A real H is
    cast to complex once, first."""
    G = np.asarray(H, dtype=complex)
    _fft_in_place(np.fft.ifft, G, axis=0)
    return _fft_in_place(np.fft.fft, G, axis=1).T


def fn_op_convolve(F: np.ndarray, S) -> HermitianOperator:
    """Convolution of a real grid function with an operator.

    F (x) S = (1/d) sum_{m,n} F(m,n) alpha_{(m,n)}(S).  Positive for F >= 0
    and S positive; tr(F (x) S) = grid_integrate(F) tr(S).

    Evaluated as the matrix with spreading function F-hat eta_S / d, built
    exactly Hermitian from half its diagonals, O(d^2 log d).  A boolean F is
    a domain indicator, transformed in O(d log d) when it is a product set.
    A raw S is checked Hermitian and F finite.
    """
    F = np.asarray(F)
    S = S if isinstance(S, HermitianOperator) else HermitianOperator(S)
    d = S.d
    if F.shape != (d, d):
        raise ValueError(f"grid shape {F.shape} does not match operator size {d}")
    if not np.isrealobj(F):
        raise ValueError("grid function must be real")
    if not np.isfinite(F).all():
        raise ValueError("grid function must be finite")
    half = d // 2 + 1  # the rows a Hermitian result is built from
    F_hat = _indicator_fft(F, half) if F.dtype == bool else _symplectic_fft(F)[:half]
    eta = _convolved_spreading(F_hat, spreading(S)[:half])
    return HermitianOperator._exact(_hermitian_from_spreading(eta))


def _convolved_spreading(F_hat: np.ndarray, eta_S: np.ndarray) -> np.ndarray:
    """The spreading function of F (x) S, F-hat eta_S / d, on whichever rows
    of F-hat and eta_S are given."""
    eta = F_hat * eta_S
    eta /= eta_S.shape[1]
    return eta


def _localization_grids(mask: np.ndarray, S: HermitianOperator) -> tuple[np.ndarray, np.ndarray]:
    """For L = chi (x) S, chi the indicator of a boolean mask: the grids
    chi * S-tilde and L (x) S, from one chi-hat and S's spreading function.

    chi * S-tilde is the inverse symplectic DFT of conj(chi-hat) |eta_S|^2,
    and L (x) S takes eta_L = chi-hat eta_S / d as `fn_op_convolve` forms it,
    so L is not spread.
    """
    chi_hat, eta_S = _indicator_fft(mask), spreading(S)
    density = _inverse_symplectic_fft(np.conj(chi_hat) * np.abs(eta_S) ** 2).real / S.d
    symbol = _spreading_correlation(_convolved_spreading(chi_hat, eta_S), eta_S).real
    return density, symbol


def op_op_convolve(S, T) -> np.ndarray:
    """Convolution of two operators, yielding a grid function.

    (S (x) T)(z) = tr(S alpha_z(T-check)).  Real for Hermitian inputs,
    non-negative for positive inputs, and integrates to tr(S) tr(T).
    Evaluated as the inverse symplectic DFT of conj(eta_{S^*}) eta_{T-check},
    where eta_{T-check}(z) = eta_T(-z).  A HermitianOperator operand is its
    own adjoint, so its kept spreading function serves as eta_{S^*}.  The
    grid is real when both operands are HermitianOperators, and complex
    otherwise (its imaginary part is roundoff for Hermitian raw matrices).
    """
    A, B = _as_matrix(S), _as_matrix(T)
    d = A.shape[0]
    if B.shape[0] != d:
        raise ValueError(f"dimension mismatch: {d} vs {B.shape[0]}")
    typed_S, typed_T = isinstance(S, HermitianOperator), isinstance(T, HermitianOperator)
    eta_adjoint = spreading(S) if typed_S else spreading(A.conj().T)
    out = _spreading_correlation(eta_adjoint, spreading(T))
    return np.ascontiguousarray(out.real) if typed_S and typed_T else out


def _spreading_correlation(eta_adjoint: np.ndarray, eta_T: np.ndarray) -> np.ndarray:
    """S (x) T from eta_{S^*} and eta_T: the inverse symplectic DFT of
    conj(eta_{S^*}) eta_{T-check}."""
    return _inverse_symplectic_fft(np.conj(eta_adjoint) * grid_reflect(eta_T))


def _clamped(x, name: str, tol: float, hi: float = np.inf):
    """x clipped to [0, hi], which it may leave by roundoff only: by at most
    bound = tol max(1, max |x|) on the half-line (hi = inf), and bound = tol on
    [0, 1], where every valid value is at most 1.  A value beyond, or a NaN,
    raises ValueError with x's name and interval, the bound, and x's min and
    max.  A scalar comes back as a float.  The sites:

        grids of `total_correlation` and `cohen_class`    [0, inf)  1e-12
        spectra of `_positive_eigenvalues` (both routes), [0, inf)  the caller's,
          `_check_positive` and `finite_rank_approx`                1e-8 by default
        the entropy of `_spectral_entropy`                [0, inf)  1e-7
        ALC in `alc` and `localize`                       [0, 1]    1e-9
        symbol L (x) S and L's spectrum in `check_bounds` [0, 1]    1e-8
        spectrum in `projection_functional_spectral`      [0, 1]    1e-8
    """
    x = np.asarray(x, dtype=float)
    if not x.size:
        return x
    low, high = float(x.min()), float(x.max())
    bound = tol if hi < np.inf else tol * max(1.0, -low, high)
    if not (low >= -bound and high <= hi + bound):  # a NaN fails both
        raise ValueError(f"{name} is outside [0, {hi:g}] by more than {bound:.3e}: "
                         f"min {low:.3e}, max {high:.3e}")
    out = np.maximum(x, 0.0, out=np.empty_like(x))
    np.minimum(out, hi, out=out)
    return float(out) if out.ndim == 0 else out


def _check_positive(A: np.ndarray, tol: float = 1e-10) -> None:
    """Raise unless the Hermitian matrix A has no eigenvalue below
    -tol max(1, max |lambda|).  A Cholesky factorization of A + tau I with
    tau = tol max(1, max_i A_ii) accepts at a fraction of an eigensolve's
    cost, and never more loosely, as max_i A_ii <= lambda_max; only when it
    fails are the eigenvalues computed, and checked by `_clamped`."""
    if not len(A):
        return
    tau = tol * max(1.0, float(A.diagonal().real.max()))
    try:
        np.linalg.cholesky(A + tau * np.eye(len(A)))
    except np.linalg.LinAlgError:
        _clamped(np.linalg.eigvalsh(A), "eigenvalue", tol)


def total_correlation(S) -> np.ndarray:
    """Total correlation function S-tilde = S (x) S-check.

    For a data operator, S-tilde(z) = sum_{i,j} |V_{f_i} f_j (z)|^2.  It is
    the inverse symplectic DFT of |eta_S|^2 (one 2-d FFT).  S must be
    positive: its eigenvalues may not fall below -1e-10 max(1, max |lambda|).
    A data operator is positive by construction and is not factorized.
    The O(N^2) double-STFT sum is the test oracle.

    Non-negative, integrates to tr(S)^2 = 1, and S-tilde(0) = tr(S^2).
    """
    A = S if isinstance(S, HermitianOperator) else HermitianOperator(S)
    if A._factor is None:
        _check_positive(A.matrix)
    # cast here, so the real |eta_S|^2 is freed before the transform
    ambiguity = (np.abs(spreading(A)) ** 2).astype(complex)
    return _clamped(_inverse_symplectic_fft(ambiguity).real, "S-tilde", 1e-12)


def cohen_class(S, f: np.ndarray) -> np.ndarray:
    """Cohen's class distribution Q_S(f) = S-check (x) (f (x) f).

    For S = g (x) g this is the spectrogram |V_g f|^2; for a data operator
    it equals sum_i |V_{f_i} f|^2.  Integrates to tr(S) ||f||^2.

    The grid of `op_op_convolve(grid_reflect(S), tensor_product(f, f))`,
    clamped, bit for bit, but without its d x d copies.  The spreading
    function of the adjoint of S-check is taken from one gather of S's
    entries, with that adjoint folded into the index, and the spreading
    function of f (x) f from a gather of the 1-d f; conjugates, products
    and transforms are formed in place.  Besides its input and result it
    holds at most two d x d complex arrays at a time, and a block of about
    1 MiB.
    """
    M = _as_matrix(S)
    f = np.asarray(f, dtype=complex)
    d = M.shape[0]
    if M.shape != (d, d) or f.shape != (d,):
        raise ValueError(f"need a square operator and a signal of its size, "
                         f"got shapes {M.shape} and {f.shape}")
    _, lag = _diagonal_index(d)  # lag[u, x] = x - u mod d
    minus = -np.arange(d) % d
    # (S-check)^*[x, x - u] = conj(S-check[x - u, x]) = conj(S[u - x, -x])
    eta = M[minus[lag], minus]
    np.conj(eta, out=eta)
    _fft_in_place(np.fft.fft, eta, axis=1)
    np.conj(eta, out=eta)
    # (f (x) f)[x, x - u] = f[x] conj(f[x - u])
    diagonals = np.conj(f)[lag]
    np.multiply(f, diagonals, out=diagonals)
    _fft_in_place(np.fft.fft, diagonals, axis=1)
    for u, row in zip(minus, eta):  # times grid_reflect(diagonals), a row at a time
        row *= diagonals[u].take(minus)
    del diagonals  # the inverse transform then holds eta alone
    return _clamped(_inverse_symplectic_fft(eta).real, "Cohen's class", 1e-12)


def conv_layer_identity(f: np.ndarray, g: np.ndarray, m: np.ndarray):
    """First-convolutional-layer identity, both routes.

    lhs: cyclic grid convolution of the spectrogram |V_g f|^2 with kernel m.
    rhs: the operator route [m (x) (f (x) f)] (x) (g-check (x) g-check).
    Returns (lhs, rhs, max abs difference); the agreement of the two routes
    is itself the correctness oracle.
    """
    F0 = spectrogram(f, g)
    lhs = grid_convolve(F0, np.asarray(m, dtype=float))
    gc = parity(g)
    inner = fn_op_convolve(np.asarray(m, dtype=float), tensor_product(f, f))
    rhs = np.asarray(op_op_convolve(inner, tensor_product(gc, gc))).real
    return lhs, rhs, float(np.max(np.abs(lhs - rhs)))
