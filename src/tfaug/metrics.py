"""Entropy and concentration functionals, and the main inequalities as
executable checkers.

Natural logarithms throughout.  Structural identities are checked at
1e-8..1e-10, entropy comparisons at 1e-7 absolute, discretization-sensitive
bounds at 1e-3 relative.
"""

import math
from dataclasses import dataclass

import numpy as np

from .augmentation import Domain, finite_rank_approx, mixed_state_localization
from .operators import (
    HermitianOperator,
    total_correlation,
)
from .tf_core import PhaseGrid, grid_convolve, grid_integrate


def _positive_eigenvalues(A, clamp_tolerance: float = 1e-8) -> np.ndarray:
    """Eigenvalues, descending; eigenvectors are not computed."""
    A = A if isinstance(A, HermitianOperator) else HermitianOperator(A)
    w = np.linalg.eigvalsh(A.matrix)[::-1]
    scale = max(float(np.max(np.abs(w))), 1.0) if w.size else 1.0
    if w.size and w[-1] < -clamp_tolerance * scale:
        raise ValueError(f"operator is not positive: min eigenvalue {w[-1]:.3e}")
    return np.maximum(w, 0.0)


def von_neumann_entropy(A) -> float:
    """H_vN(A) = -sum_k lambda_k ln lambda_k for a trace-one positive A."""
    w = _positive_eigenvalues(A)
    tr = float(w.sum())
    if abs(tr - 1.0) > 1e-8:
        raise ValueError(f"operator trace is {tr:.6g}, expected 1")
    nz = w[w > 0]
    return max(float(-np.sum(nz * np.log(nz))), 0.0)


def effective_dimension(A) -> tuple[float, float]:
    """(H_vN, exp(H_vN)): the entropy and the effective dimensionality."""
    H = von_neumann_entropy(A)
    return H, math.exp(H)


def differential_entropy(F: np.ndarray) -> float:
    """-integral F ln F for a non-negative grid density of unit mass."""
    F = np.asarray(F, dtype=float)
    if F.min() < -1e-12:
        raise ValueError(f"density has negative values down to {F.min():.3e}")
    mass = grid_integrate(F)
    if abs(mass - 1.0) > 1e-6:
        raise ValueError(f"density mass is {mass:.6g}, expected 1")
    Fc = np.clip(F, 0.0, None)
    nz = Fc[Fc > 0]
    return float(-np.sum(nz * np.log(nz)) / F.shape[0])


def projection_functional_spectral(A) -> float:
    """P(A) = tr(A) - tr(A^2) = sum lambda (1 - lambda); zero iff projection."""
    w = _positive_eigenvalues(A)
    if w.size and w.max() > 1.0 + 1e-8:
        raise ValueError(f"eigenvalues exceed 1: max {w.max():.6g}")
    return max(float(np.sum(w * (1.0 - w))), 0.0)


def _domain_autocorrelation(domain: Domain) -> np.ndarray:
    """C[v] = number of cell pairs (z, z + v) both inside the domain."""
    chi = domain.indicator()
    F = np.fft.fft2(chi)
    return np.fft.ifft2(np.conj(F) * F).real


def alc(S_tilde: np.ndarray, domain: Domain) -> float:
    """Average lack of concentration of a correlation density over a domain.

    ALC = (1/|Omega|) int_Omega (1 - int_{Omega - z} S-tilde) dz, evaluated
    through the equivalent cross-correlation form
    1 - (1/(|Omega| d^2)) sum_{z,w in Omega} S-tilde(w - z).
    """
    if domain.n_cells == 0:
        raise ValueError("domain is empty")
    S_tilde = np.asarray(S_tilde, dtype=float)
    d = domain.d
    if S_tilde.shape != (d, d):
        raise ValueError(f"grid shape {S_tilde.shape} does not match domain {d}")
    C = _domain_autocorrelation(domain)
    inner = float(np.sum(C * S_tilde))
    val = 1.0 - inner / (domain.measure * d * d)
    return float(min(max(val, 0.0), 1.0 + 1e-9))


@dataclass(frozen=True)
class BoundsReport:
    """Entropy sandwich ln|Omega| + ALC <= H_vN <= H(upper), with slacks."""

    lower: float
    mid: float
    upper: float
    slack_lower: float
    slack_upper: float
    pass_: bool
    tolerance: float
    entropy_correlation_ok: bool

    def to_json_dict(self) -> dict:
        return {
            "lower": self.lower,
            "mid": self.mid,
            "upper": self.upper,
            "slack_lower": self.slack_lower,
            "slack_upper": self.slack_upper,
            "pass": self.pass_,
            "tolerance": self.tolerance,
            "entropy_correlation_ok": self.entropy_correlation_ok,
        }


def berezin_lieb_check(S, domain: Domain, rank_cut: float = 1e-10) -> BoundsReport:
    """Check the entropy sandwich for one (S, Omega) pair.

    lower = ln|Omega| + ALC(S-tilde, Omega); mid = H_vN of the normalized
    augmentation; upper = differential entropy of (chi/|Omega|) convolved
    with S-tilde.  Also verifies H(S-tilde) >= H_vN(S).
    """
    S = S if isinstance(S, HermitianOperator) else HermitianOperator(S)
    S_tilde = total_correlation(S, rank_cut)
    omega = domain.measure
    lower = math.log(omega) + alc(S_tilde, domain)
    loc = mixed_state_localization(domain, S)
    mid = von_neumann_entropy(HermitianOperator(loc.matrix / omega))
    smoothed = grid_convolve(domain.indicator() / omega, S_tilde)
    upper = differential_entropy(np.clip(smoothed, 0.0, None))
    tol = 1e-7 * max(1.0, abs(mid))
    slack_lower = mid - lower
    slack_upper = upper - mid
    ok = slack_lower >= -tol and slack_upper >= -tol
    corr_ok = differential_entropy(S_tilde) >= von_neumann_entropy(S) - tol
    return BoundsReport(lower, mid, upper, slack_lower, slack_upper, ok, tol, corr_ok)


def lemma_alc_lower_bound(S, domain: Domain):
    """ALC >= 1 - sum_{k <= A_Omega} lambda_k / |Omega|."""
    S = S if isinstance(S, HermitianOperator) else HermitianOperator(S)
    lhs = alc(total_correlation(S), domain)
    loc = mixed_state_localization(domain, S)
    w = _positive_eigenvalues(loc)
    A_omega = int(math.ceil(domain.measure - 1e-12))
    rhs = 1.0 - float(np.sum(w[:A_omega])) / domain.measure
    return lhs, rhs, lhs >= rhs - 1e-8


def finite_rank_error_check(S, domain: Domain):
    """Trace-norm error of the rank-A_Omega approximant against its bound.

    error / |Omega| <= (A_Omega - |Omega|) / |Omega| + 2 ALC.
    """
    S = S if isinstance(S, HermitianOperator) else HermitianOperator(S)
    _, A_omega, err = finite_rank_approx(domain, S)
    omega = domain.measure
    a = alc(total_correlation(S), domain)
    bound = (A_omega - omega) / omega + 2.0 * a
    lhs = err / omega
    return lhs, bound, lhs <= bound + 1e-8


def general_berezin_lieb_check(S, domain: Domain):
    """Concave-function trace inequalities with Phi(x) = x - x^2.

    For A = chi_Omega (x) S (eigenvalues in [0, 1]) and the trace-one S:
    integral of Phi over the symbol A (x) S-check dominates tr Phi(A); and
    for a grid function f with values in [0, 1], tr Phi(f (x) S) dominates
    the integral of Phi over f (checked with f the symbol itself).
    Returns a dict with both sides of both inequalities and a 'pass' flag.
    """
    from .operators import fn_op_convolve, op_op_convolve

    S = S if isinstance(S, HermitianOperator) else HermitianOperator(S)
    A = mixed_state_localization(domain, S)

    def phi(x):
        return x - x * x

    symbol = np.clip(np.asarray(op_op_convolve(A.matrix, S.matrix)).real, 0.0, 1.0)
    int_phi_symbol = grid_integrate(phi(symbol))
    w = np.clip(_positive_eigenvalues(A), 0.0, 1.0)
    tr_phi_A = float(np.sum(phi(w)))
    w2 = np.clip(_positive_eigenvalues(fn_op_convolve(symbol, S)), 0.0, 1.0)
    tr_phi_fS = float(np.sum(phi(w2)))
    tol = 1e-8
    ok = int_phi_symbol >= tr_phi_A - tol and tr_phi_fS >= int_phi_symbol - tol
    return {
        "int_phi_symbol": float(int_phi_symbol),
        "tr_phi_A": tr_phi_A,
        "tr_phi_fS": tr_phi_fS,
        "pass": ok,
    }


def _centered_distance_grid(d: int) -> np.ndarray:
    """Minimal cyclic Euclidean distance |z| in phase units."""
    grid = PhaseGrid(d)
    k = grid.signed_indices() / math.sqrt(d)
    mm, nn = np.meshgrid(k, k, indexing="ij")
    return np.hypot(mm, nn)


def perimeter_bound_check(S, domain: Domain):
    """ALC <= (|boundary| / |Omega|) int S-tilde(z) |z| dz.

    Returns (alc, bound, verdict) with verdict 'pass', 'vacuous' (bound over
    one, so trivially satisfied) or 'fail'.
    """
    S = S if isinstance(S, HermitianOperator) else HermitianOperator(S)
    S_tilde = total_correlation(S)
    a = alc(S_tilde, domain)
    moment = grid_integrate(S_tilde * _centered_distance_grid(domain.d))
    bound = domain.perimeter / domain.measure * moment
    if a <= bound + 1e-8:
        verdict = "vacuous" if bound > 1.0 else "pass"
    else:
        verdict = "fail"
    return a, float(bound), verdict


def entropy_covariance_check(S_tilde: np.ndarray):
    """exp(H(S-tilde)/2) <= sqrt(pi e) * sqrt(second moment - |mean|^2).

    Moments use cyclic coordinates recentered at the density's argmax.
    Returns (lhs, rhs, verdict) with verdict 'pass', 'fail' or
    'inconclusive' when the mass is too spread for torus moments.
    """
    S_tilde = np.asarray(S_tilde, dtype=float)
    d = S_tilde.shape[0]
    mass = grid_integrate(S_tilde)
    if abs(mass - 1.0) > 1e-6:
        raise ValueError(f"density mass is {mass:.6g}, expected 1")
    peak = np.unravel_index(int(np.argmax(S_tilde)), S_tilde.shape)
    side = math.sqrt(d)
    k = np.arange(d)
    cm = ((k - peak[0] + d / 2) % d - d / 2) / side
    cn = ((k - peak[1] + d / 2) % d - d / 2) / side
    mm, nn = np.meshgrid(cm, cn, indexing="ij")
    mu = np.array(
        [grid_integrate(mm * S_tilde), grid_integrate(nn * S_tilde)]
    )
    second = grid_integrate((mm**2 + nn**2) * S_tilde)
    var = second - float(mu @ mu)
    # wraparound makes the moments meaningless once mass sits near the seam
    edge_mass = 1.0 - float(
        np.sum(S_tilde[(np.abs(mm) < side / 4) & (np.abs(nn) < side / 4)]) / d
    )
    lhs = math.exp(differential_entropy(np.clip(S_tilde, 0.0, None)) / 2.0)
    if var <= 0 or edge_mass > 0.2:
        return lhs, float("nan"), "inconclusive"
    rhs = math.sqrt(math.pi * math.e) * math.sqrt(var)
    verdict = "pass" if lhs <= rhs * (1.0 + 1e-3) else "fail"
    return lhs, rhs, verdict


def asymptotic_alc_scan(S_tilde: np.ndarray, domain: Domain, scales) -> list[tuple[float, float]]:
    """ALC of the density against scaled copies R * Omega of the domain."""
    from .augmentation import scale_domain

    out = []
    for R in scales:
        out.append((float(R), alc(S_tilde, scale_domain(domain, float(R)))))
    return out
