"""Entropy and concentration functionals, and the paper's inequalities as
checks.

`localize(S, Omega)` is the one localization pass: it builds
L = chi_Omega (x) S once and returns it with its ALC (read off L), its
eigenvalues and the augmented entropy H_vN(L / |Omega|).  Every ALC and
augmented-entropy value of the experiments, the CLI and `check_bounds`
comes from it.  `check_bounds(S, Omega)` makes one analysis pass over a
(data operator, domain) pair: the total correlation S-tilde and one
`localize`, from which it derives every inequality.  Each inequality comes
back as a `CheckResult` recording `lhs <= rhs` with its tolerance and
verdict.

Natural logarithms throughout.  Structural identities are checked at
1e-8..1e-10, entropy comparisons at 1e-7 absolute, discretization-sensitive
bounds at 1e-3 relative.  Values in range only up to roundoff are clamped by
`operators._clamped`, whose docstring tables every site: ALC within 1e-9 of
[0, 1], spectra and the Berezin-Lieb symbol within 1e-8, entropies within 1e-7.
"""

import math
from dataclasses import dataclass, replace
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .augmentation import Domain, _finite_rank, mixed_state_localization, scale_domain
from .operators import (
    HermitianOperator,
    _check_positive,
    _clamped,
    _localization_grids,
    fn_op_convolve,
    total_correlation,
)
from .tf_core import grid_integrate, signed_indices


def _positive_eigenvalues(A, clamp_tolerance: float = 1e-8) -> np.ndarray:
    """Eigenvalues, descending; eigenvectors are not computed.

    A data operator S = X^T conj(X) with N < d signals has at most N nonzero
    eigenvalues, those of the N x N Gram matrix conj(X) X^T.  Forming that
    matrix costs O(N^2 d), so it is solved instead of S only for N <= 3d/4
    (at d = 128 and 280 with one BLAS thread it took at most 0.72 of S's
    time there, and about as long at N = 0.9 d); the Gram eigenvalues are
    checked and clamped as S's would be, and padded with d - N zeros.
    """
    A = A if isinstance(A, HermitianOperator) else HermitianOperator(A)
    X = A._factor
    if X is not None and 4 * len(X) <= 3 * A.d:
        w = _clamped(np.linalg.eigvalsh(X.conj() @ X.T)[::-1], "eigenvalue", clamp_tolerance)
        return np.concatenate([w, np.zeros(A.d - len(X))])
    return _clamped(np.linalg.eigvalsh(A.matrix)[::-1], "eigenvalue", clamp_tolerance)


def _spectral_entropy(w: np.ndarray) -> float:
    """-sum_k w_k ln w_k for the non-negative eigenvalues of a trace-one
    operator; its roundoff below 0, about -1e-8 at most after the trace check, is clamped.
    The sum is subtracted from 0.0, so a pure state's entropy is +0.0, not -0.0."""
    tr = float(w.sum())
    if abs(tr - 1.0) > 1e-8:
        raise ValueError(f"operator trace is {tr:.6g}, expected 1")
    nz = w[w > 0]
    return _clamped(0.0 - np.sum(nz * np.log(nz)), "entropy", 1e-7)


def von_neumann_entropy(A) -> float:
    """H_vN(A) = -sum_k lambda_k ln lambda_k for a trace-one positive A."""
    return _spectral_entropy(_positive_eigenvalues(A))


def data_entropy_and_rank(X) -> tuple[float, int]:
    """(H_vN(S), rank S) for the data operator S = X^T conj(X) of an (N, d)
    signal matrix X with unit total energy, from one SVD of X.

    S's nonzero eigenvalues are the squared singular values sigma^2 of X;
    the rank counts sigma > sigma_max max(N, d) eps, `np.linalg.matrix_rank`'s
    rule, so it equals `matrix_rank(X)`.
    """
    X = np.asarray(X)
    sigma = np.linalg.svd(X, compute_uv=False)
    tol = sigma.max() * max(X.shape) * np.finfo(sigma.dtype).eps
    return _spectral_entropy(sigma**2), int(np.count_nonzero(sigma > tol))


def effective_dimension(A) -> tuple[float, float]:
    """(H_vN, exp(H_vN)): the entropy and the effective dimensionality."""
    H = von_neumann_entropy(A)
    return H, math.exp(H)


def _check_density(F) -> np.ndarray:
    """F as a float grid, rejected unless non-negative with unit mass."""
    F = np.asarray(F, dtype=float)
    if F.min() < -1e-12:
        raise ValueError(f"density has negative values down to {F.min():.3e}")
    mass = grid_integrate(F)
    if abs(mass - 1.0) > 1e-6:
        raise ValueError(f"density mass is {mass:.6g}, expected 1")
    return F


def differential_entropy(F: np.ndarray) -> float:
    """-integral F ln F for a non-negative grid density of unit mass; a zero
    entropy is +0.0, as the sum is subtracted from 0.0."""
    F = _check_density(F)
    nz = F[F > 0]
    return float((0.0 - np.sum(nz * np.log(nz))) / F.shape[0])


def projection_functional_spectral(A) -> float:
    """P(A) = tr(A) - tr(A^2) = sum lambda (1 - lambda); zero iff projection."""
    w = _clamped(_positive_eigenvalues(A), "eigenvalue", 1e-8, hi=1.0)
    return float(np.sum(w * (1.0 - w)))


def _domain_autocorrelation(domain: Domain) -> np.ndarray:
    """C[v] = number of cell pairs (z, z + v) both inside the domain."""
    F = np.fft.fft2(domain.mask)
    return np.fft.ifft2(np.conj(F) * F).real


def alc(S_tilde: np.ndarray, domain: Domain) -> float:
    """Average lack of concentration of a correlation density over a domain.

    ALC = (1/|Omega|) int_Omega (1 - int_{Omega - z} S-tilde) dz, evaluated
    through the equivalent cross-correlation form
    1 - (1/(|Omega| d^2)) sum_{z,w in Omega} S-tilde(w - z).  The density
    must be non-negative with unit mass; the value is clamped to [0, 1]
    only within 1e-9 and rejected beyond.
    """
    S_tilde = np.asarray(S_tilde, dtype=float)
    d = domain.d
    if S_tilde.shape != (d, d):
        raise ValueError(f"grid shape {S_tilde.shape} does not match domain {d}")
    S_tilde = _check_density(S_tilde)
    C = _domain_autocorrelation(domain)
    inner = float(np.sum(C * S_tilde))
    return _clamped(1.0 - inner / (domain.measure * d * d), "ALC", 1e-9, hi=1.0)


class Localization(NamedTuple):
    """L = chi_Omega (x) S, the operator of the Omega-augmented dataset times
    |Omega|, with its ALC, its descending eigenvalues and H_vN(L / |Omega|)."""

    operator: HermitianOperator
    alc: float
    eigenvalues: np.ndarray
    entropy: float


def localize(S, domain: Domain) -> Localization:
    """L = chi_Omega (x) S, built once, and everything read off it.

    The ALC is 1 - tr(L^2)/|Omega|, O(d^2): by Parseval, tr(L^2) =
    (1/d^2) sum_{z,w in Omega} S-tilde(w - z), so it equals
    `alc(S-tilde, Omega)` and is range-checked as there.  L's eigenvalues
    are solved once; one below -1e-8 min(1, |Omega|) max(1, max lambda)
    raises ValueError, which is never looser than checking L / |Omega| or L
    at 1e-8.
    """
    loc = mixed_state_localization(domain, S)
    omega = domain.measure
    a = _clamped(1.0 - float(np.vdot(loc.matrix, loc.matrix).real) / omega, "ALC", 1e-9, hi=1.0)
    w = _positive_eigenvalues(loc, 1e-8 * min(1.0, omega))
    return Localization(loc, a, w, _spectral_entropy(w / omega))


VERDICTS = ("pass", "fail", "vacuous", "inconclusive")


@dataclass(frozen=True)
class CheckResult:
    """One inequality lhs <= rhs, checked up to the absolute tolerance tol.

    verdict is 'pass' or 'fail'; 'vacuous' when the inequality holds but
    bounds nothing (the rhs exceeds every possible lhs); 'inconclusive'
    when the rhs cannot be evaluated (it is then NaN).
    """

    name: str
    lhs: float
    rhs: float
    tol: float
    verdict: str

    def __post_init__(self):
        if self.verdict not in VERDICTS:
            raise ValueError(f"unknown verdict {self.verdict!r}")

    @property
    def slack(self) -> float:
        return self.rhs - self.lhs

    @property
    def ok(self) -> bool:
        return self.verdict != "fail"


def _check(name: str, lhs, rhs, tol: float) -> CheckResult:
    lhs, rhs, tol = float(lhs), float(rhs), float(tol)
    return CheckResult(name, lhs, rhs, tol, "pass" if rhs - lhs >= -tol else "fail")


def check_bounds(S, domain: Domain) -> list[CheckResult]:
    """Every inequality for one (S, Omega) pair, from one analysis pass.

    S-tilde and `localize(S, Omega)` (L = chi_Omega (x) S, the ALC and L's
    descending eigenvalues lambda_k) are computed once; the smoothed
    density chi/|Omega| * S-tilde and the symbol L (x) S come from S's
    spreading function, without spreading L.  With A_Omega = ceil(|Omega|),
    T_Omega the projection onto L's top A_Omega eigenvectors,
    Phi(x) = x - x^2 and f = L (x) S clipped to [0, 1], the results are, in
    order:

    sandwich_lower/_upper  ln|Omega| + ALC <= H_vN(L/|Omega|) <= H(chi/|Omega| * S-tilde)
    entropy_correlation    H_vN(S) <= H(S-tilde)
    alc_lemma              1 - sum_{k <= A_Omega} lambda_k / |Omega| <= ALC
    finite_rank            ||L - T_Omega||_1 / |Omega| <= (A_Omega - |Omega|)/|Omega| + 2 ALC
    general_berezin_lieb_lower/_upper  tr Phi(L) <= int Phi(f) <= tr Phi(f (x) S)
    perimeter              ALC <= (|boundary|/|Omega|) int S-tilde(z) |z| dz, 'vacuous' above 1
    entropy_covariance     exp(H(S-tilde)/2) <= sqrt(pi e) sqrt(Var S-tilde), 'inconclusive'
                           (NaN rhs and tol) when S-tilde's mass is too spread for torus moments

    The entropy checks use the tolerance 1e-7 max(1, |H_vN(L/|Omega|)|),
    entropy_covariance 1e-3 relative to its rhs, the others 1e-8.  L (x) S
    and the lambda_k are clipped to [0, 1] only within 1e-8, and raise
    ValueError beyond.

    L is the pair's one d x d eigensolve (S's entropy solves the N x N Gram
    matrix when N <= 3d/4).  A = f (x) S needs no spectrum: f in [0, 1] and
    tr S = 1 give 0 <= A <= I, so tr Phi(A) = tr A - tr A^2.  Its positivity
    is certified by a Cholesky factorization of A + tau I with
    tau = 1e-8 max(1, max_i A_ii), which is never looser than the eigenvalue
    test at 1e-8 max(1, max |lambda|), as max_i A_ii <= lambda_max; only if
    it fails is A solved, and an eigenvalue below that bound raises ValueError.
    """
    S = S if isinstance(S, HermitianOperator) else HermitianOperator(S)
    omega = domain.measure
    S_tilde = _check_density(total_correlation(S))
    H_tilde = differential_entropy(S_tilde)
    _, a, w, mid = localize(S, domain)
    A_omega, rank_error = _finite_rank(w, omega)
    smoothed, symbol = _localization_grids(domain.mask, S)
    upper = differential_entropy(smoothed / omega)
    tol = 1e-7 * max(1.0, abs(mid))

    def phi(x):
        return x - x * x

    symbol = _clamped(symbol, "Berezin-Lieb symbol L (x) S", 1e-8, hi=1.0)
    int_phi_symbol = grid_integrate(phi(symbol))
    tr_phi_A = float(np.sum(phi(_clamped(w, "eigenvalue of L", 1e-8, hi=1.0))))
    fS = fn_op_convolve(symbol, S).matrix
    _check_positive(fS, 1e-8)
    tr_phi_fS = float(np.trace(fS).real - np.vdot(fS, fS).real)

    moment = grid_integrate(S_tilde * _centered_distance_grid(domain.d))
    perimeter = _check("perimeter", a, domain.perimeter / omega * moment, 1e-8)
    if perimeter.ok and perimeter.rhs > 1.0:
        perimeter = replace(perimeter, verdict="vacuous")
    return [
        _check("sandwich_lower", math.log(omega) + a, mid, tol),
        _check("sandwich_upper", mid, upper, tol),
        _check("entropy_correlation", von_neumann_entropy(S), H_tilde, tol),
        _check("alc_lemma", 1.0 - float(np.sum(w[:A_omega])) / omega, a, 1e-8),
        _check("finite_rank", rank_error / omega,
               (A_omega - omega) / omega + 2.0 * a, 1e-8),
        _check("general_berezin_lieb_lower", tr_phi_A, int_phi_symbol, 1e-8),
        _check("general_berezin_lieb_upper", int_phi_symbol, tr_phi_fS, 1e-8),
        perimeter,
        _entropy_covariance(S_tilde, H_tilde),
    ]


def _entropy_covariance(S_tilde: np.ndarray, entropy: float) -> CheckResult:
    """exp(H/2) <= sqrt(pi e) sqrt(Var) for the checked density S-tilde of
    entropy H, within 1e-3 relative to the rhs.

    The moments, from S-tilde's row and column sums, use cyclic coordinates
    centered at its peak, the origin (S-tilde(z) <= S-tilde(0) = tr S^2 by
    Cauchy-Schwarz).  A variance <= 0, or over 0.2 of the mass off the
    central block, where they wrap around, is 'inconclusive' (NaN rhs, tol).
    """
    d = S_tilde.shape[0]
    side = math.sqrt(d)
    k = signed_indices(d) / side
    rows, cols = S_tilde.sum(axis=1), S_tilde.sum(axis=0)
    mu = np.array([k @ rows, k @ cols]) / d
    var = float((k * k) @ (rows + cols)) / d - float(mu @ mu)
    central = np.abs(k) < side / 4
    edge_mass = 1.0 - float(np.sum(S_tilde[np.ix_(central, central)])) / d
    lhs = math.exp(entropy / 2.0)
    if var <= 0 or edge_mass > 0.2:
        return CheckResult("entropy_covariance", lhs, math.nan, math.nan, "inconclusive")
    rhs = math.sqrt(math.pi * math.e) * math.sqrt(var)
    return _check("entropy_covariance", lhs, rhs, 1e-3 * rhs)


@lru_cache(maxsize=8)
def _centered_distance_grid(d: int) -> np.ndarray:
    """Minimal cyclic Euclidean distance |z| in phase units; built once per d
    (the most recent 8 sizes are kept) and read-only."""
    k = signed_indices(d) / math.sqrt(d)
    mm, nn = np.meshgrid(k, k, indexing="ij")
    dist = np.hypot(mm, nn)
    dist.setflags(write=False)
    return dist


def asymptotic_alc_scan(S_tilde: np.ndarray, domain: Domain, scales) -> list[tuple[float, float]]:
    """ALC of the density against scaled copies R * Omega of the domain."""
    out = []
    for R in scales:
        out.append((float(R), alc(S_tilde, scale_domain(domain, float(R)))))
    return out
