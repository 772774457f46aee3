import math
from collections import Counter

import numpy as np
import pytest
from scipy.special import gammainc

import tfaug as T
import tfaug.metrics
from tfaug.cli import bounds_report
from tfaug.tf_core import _hermite_family

from conftest import disk_mask, rand_dataset, rand_state, rand_unit


def alc_direct(S_tilde, dom):
    """O(cells^2) double loop straight from the definition."""
    d = dom.d
    cells = dom.cells()
    tot = 0.0
    for zm, zn in cells:
        inner = 0.0
        for wm, wn in cells:
            inner += S_tilde[(wm - zm) % d, (wn - zn) % d]
        tot += 1.0 - inner / d
    return tot / len(cells)


class TestVonNeumannEntropy:
    def test_rank_one_zero(self, rng):
        f = rand_unit(rng, 8)
        assert T.von_neumann_entropy(T.HermitianOperator(T.tensor_product(f, f))) < 1e-10

    def test_maximally_mixed(self):
        d = 16
        assert abs(T.von_neumann_entropy(T.HermitianOperator(np.eye(d) / d)) - math.log(d)) < 1e-10

    def test_two_level(self):
        S = T.HermitianOperator(np.diag([0.7, 0.3, 0.0, 0.0]))
        expected = -0.7 * math.log(0.7) - 0.3 * math.log(0.3)
        assert abs(T.von_neumann_entropy(S) - expected) < 1e-12
        assert abs(expected - 0.6109) < 1e-4

    def test_pure_state_is_positive_zero(self):
        # -sum 1 ln 1 is -0.0 before the clamp
        H = T.von_neumann_entropy(T.HermitianOperator(np.diag([1.0, 0.0, 0.0, 0.0])))
        assert H == 0.0 and math.copysign(1.0, H) == 1.0

    def test_rejects_wrong_trace(self):
        with pytest.raises(ValueError):
            T.von_neumann_entropy(T.HermitianOperator(np.eye(4)))

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            T.von_neumann_entropy(T.HermitianOperator(np.diag([1.5, -0.5, 0.0, 0.0])))


class TestDataEntropyAndRank:
    @pytest.mark.parametrize("n, d", [(1, 8), (5, 16), (16, 16), (24, 16)])
    def test_matches_the_operator_spectrum(self, rng, n, d):
        ds = rand_dataset(rng, n, d)
        H, rank = T.data_entropy_and_rank(ds.signals)
        assert abs(H - T.von_neumann_entropy(T.data_operator(ds))) < 1e-12
        assert rank == np.linalg.matrix_rank(ds.signals) == min(n, d)

    def test_repeated_signals_lower_the_rank(self, rng):
        X = np.repeat(rand_dataset(rng, 3, 16).signals, 2, axis=0) / math.sqrt(2)
        assert T.data_entropy_and_rank(X)[1] == np.linalg.matrix_rank(X) == 3

    def test_rejects_wrong_energy(self, rng):
        with pytest.raises(ValueError):
            T.data_entropy_and_rank(2 * rand_dataset(rng, 3, 8).signals)


class TestLocalize:
    @pytest.mark.parametrize("measure, lowest, accepted", [
        (4.0, -0.9e-8, True), (4.0, -1.5e-8, False), (0.4, -3e-9, True), (0.4, -5e-9, False),
    ])
    def test_one_clamp_rule(self, monkeypatch, measure, lowest, accepted):
        # L's lowest eigenvalue is roundoff down to -1e-8 min(1, |Omega|) (L's
        # eigenvalues are at most 1): -1e-8 at |Omega| = 4, -4e-9 at 0.4
        d = 5
        mask = np.arange(d * d).reshape(d, d) < round(measure * d)
        dom = T.Domain(mask)
        assert dom.measure == measure
        top = [1.0, 1.0, 1.0, 1.0] if measure > 1 else [measure, 0.0, 0.0, 0.0]
        L = T.HermitianOperator(np.diag(top + [lowest]))
        monkeypatch.setattr(tfaug.metrics, "mixed_state_localization", lambda dom, S: L)
        if not accepted:
            with pytest.raises(ValueError, match=f"eigenvalue is outside .*: min {lowest:.3e}"):
                T.localize(None, dom)
            return
        loc = T.localize(None, dom)
        assert loc.operator is L
        assert loc.eigenvalues.tolist() == sorted(top, reverse=True) + [0.0]
        assert loc.entropy == pytest.approx(T.von_neumann_entropy(L.matrix / measure), abs=1e-12)
        assert loc.alc == pytest.approx(1.0 - sum(t * t for t in top) / measure, abs=1e-15)

    def test_empty_domain_rejected(self, rng):
        with pytest.raises(ValueError, match="domain is empty"):
            T.localize(rand_state(rng, 2, 8), T.Domain(np.zeros((8, 8), dtype=bool)))


class TestDiskOracle:
    """Daubechies (1988): with the Gaussian window g, the localization
    operator of a disk has the eigenvalues gamma(k + 1, |Omega|) / k!, the
    regularized lower incomplete gamma, taken here at the discrete measure.
    Disks are no product sets, so this pins the 2-d route and the Hermitian
    build of L at the sizes the experiments use.  The augmented entropy is
    compared with the entropy of those values divided by |Omega|, k < d."""

    @pytest.mark.parametrize("d", [128, 280, 512])
    def test_gaussian_disk_spectrum(self, d):
        g = T.gaussian_window(d)
        S = T.HermitianOperator(T.tensor_product(g, g))
        for R in (1.0, 1.5, 2.0):
            dom = T.Domain(disk_mask(d, R))
            loc = T.localize(S, dom)
            w = loc.eigenvalues[:29]
            # the torus gap is at most 1.71e-4, 1.35e-4 and 4.26e-5 at
            # d = 128, 280 and 512; the bound leaves a margin of 1.46x
            assert np.max(np.abs(w - gammainc(np.arange(1, 30), dom.measure))) < 2.5e-4
            p = gammainc(np.arange(1, d + 1), dom.measure) / dom.measure
            p = p[p > 0]
            # the entropy gap is at most 1.90e-4, 2.90e-4 (R = 1) and 9.1e-5
            # at d = 128, 280 and 512; the bound leaves a margin of 1.55x
            assert abs(loc.entropy + np.sum(p * np.log(p))) < 4.5e-4

    @pytest.mark.parametrize("d", [128, 280, 512])
    def test_gaussian_disk_eigenvectors_are_hermite(self, d):
        # the eigenvector of the k-th largest eigenvalue is h_k, tested on the
        # k < 40 whose eigenvalue is more than 1e-12 from both neighbours:
        # eigh fixes a vector to about eps max(w) / gap, at most 1e-4 there
        # (k < 22, k < 32 or 33, all 40 for R = 1, 1.5, 2); below that gap the
        # eigenvalues sit at round-off and the vector is not determined
        g = T.gaussian_window(d)
        S = T.HermitianOperator(T.tensor_product(g, g))
        h = _hermite_family(d, 39)  # the columns T.hermite(d, k), k < 40, from one build
        for R in (1.0, 1.5, 2.0):
            w, v = np.linalg.eigh(T.localize(S, T.Domain(disk_mask(d, R))).operator.matrix)
            w, v = w[::-1], v[:, ::-1]
            gap = np.minimum(np.r_[np.inf, -np.diff(w)], np.r_[-np.diff(w), np.inf])[:40]
            tested = gap > 1e-12
            overlap = np.abs(np.sum(v[:, :40].conj() * h, axis=0))[tested]
            # measured |<v_k, h_k>| >= 0.99987 (d = 128, R = 1.5, k = 15)
            assert tested[:22].all() and np.min(overlap) > 0.9995


class TestDataOperatorSpectrum:
    @pytest.mark.parametrize("n, d, side", [
        (3, 16, 3), (12, 16, 12), (13, 16, 16), (16, 16, 16), (20, 16, 16),
    ])
    def test_smaller_side_solved(self, rng, monkeypatch, n, d, side):
        # N <= 3d/4 solves the N x N Gram matrix, larger N the d x d operator
        S = rand_state(rng, n, d)
        w = np.linalg.eigvalsh(S.matrix)
        shapes = []
        eigvalsh = np.linalg.eigvalsh

        def recorded(M):
            shapes.append(M.shape)
            return eigvalsh(M)

        monkeypatch.setattr(np.linalg, "eigvalsh", recorded)
        spectrum = tfaug.metrics._positive_eigenvalues(S)
        assert shapes == [(side, side)] and spectrum.shape == (d,)
        assert np.max(np.abs(spectrum - np.maximum(w[::-1], 0.0))) < 1e-12

    def test_gram_route_checks_trace(self, rng):
        # the Gram spectrum goes through the same trace check as S's
        S = rand_state(rng, 3, 16)
        scaled = T.HermitianOperator(2.0 * S.matrix)
        object.__setattr__(scaled, "_factor", np.sqrt(2.0) * S._factor)
        assert tfaug.metrics._positive_eigenvalues(scaled).sum() == pytest.approx(2.0)
        with pytest.raises(ValueError, match="trace"):
            T.von_neumann_entropy(scaled)


class TestEffectiveDimension:
    def test_rank_one(self, rng):
        f = rand_unit(rng, 8)
        H, ed = T.effective_dimension(T.HermitianOperator(T.tensor_product(f, f)))
        assert H < 1e-10 and abs(ed - 1.0) < 1e-9

    def test_maximally_mixed(self):
        d = 8
        H, ed = T.effective_dimension(T.HermitianOperator(np.eye(d) / d))
        assert abs(H - math.log(d)) < 1e-10 and abs(ed - d) < 1e-8

    def test_matches_eigenvalue_formula(self, rng):
        S = rand_state(rng, 4, 16)
        w = np.linalg.eigvalsh(S.matrix)
        w = w[w > 1e-14]
        H, ed = T.effective_dimension(S)
        assert abs(H - (-np.sum(w * np.log(w)))) < 1e-9


class TestDifferentialEntropy:
    def test_uniform_density(self):
        d = 16
        F = np.full((d, d), 1.0 / d)  # unit mass over the measure-d torus
        assert abs(T.differential_entropy(F) - math.log(d)) < 1e-12

    def test_single_cell(self):
        d = 16
        F = np.zeros((d, d))
        F[0, 0] = d
        assert abs(T.differential_entropy(F) - (-math.log(d))) < 1e-12

    def test_total_correlation_direct_sum(self, rng):
        St = T.total_correlation(rand_state(rng, 3, 16))
        nz = St[St > 0]
        direct = -np.sum(nz * np.log(nz)) / 16
        assert abs(T.differential_entropy(St) - direct) < 1e-12

    def test_rejects_bad_mass(self):
        with pytest.raises(ValueError):
            T.differential_entropy(np.ones((4, 4)))

    def test_rejects_negative_density(self):
        d = 64
        g = T.gaussian_window(d)
        St = T.total_correlation(T.tensor_product(g, g))
        peak = np.unravel_index(np.argmax(St), St.shape)
        low = np.unravel_index(np.argmin(St), St.shape)
        St[low] -= 1e-6  # unit mass kept; one value below zero
        St[peak] += 1e-6
        with pytest.raises(ValueError, match="negative"):
            T.differential_entropy(St)


class TestProjectionFunctional:
    def test_projection_zero(self, rng):
        f = rand_unit(rng, 8)
        P = T.HermitianOperator(T.tensor_product(f, f))
        assert T.projection_functional_spectral(P) < 1e-10

    def test_half_identity(self):
        assert abs(T.projection_functional_spectral(T.HermitianOperator(np.eye(4) / 2)) - 1.0) < 1e-12

    def test_eigenvalues_clamped_up_to_1e_8_above_1(self):
        edge = 1.0 + 1e-8
        assert T.projection_functional_spectral(np.diag([edge, 0.0, 0.0, 0.0])) == 0.0
        with pytest.raises(ValueError, match="eigenvalue is outside .* by more than 1.000e-08"):
            T.projection_functional_spectral(np.diag([np.nextafter(edge, 2.0), 0.0, 0.0, 0.0]))

    def test_matches_eigenvalue_sum(self, rng):
        d = 16
        S = rand_state(rng, 3, d)
        dom = T.make_rect_domain(d, 2.0, 1.5)
        loc = T.mixed_state_localization(dom, S)
        w = np.clip(np.linalg.eigvalsh(loc.matrix), 0.0, None)
        assert abs(T.projection_functional_spectral(loc) - np.sum(w * (1 - w))) < 1e-10


class TestAlc:
    def test_full_torus_zero(self, rng):
        d = 16
        St = T.total_correlation(rand_state(rng, 3, d))
        assert T.alc(St, T.full_domain(d)) < 1e-10

    def test_matches_double_loop(self, rng):
        d = 8
        St = T.total_correlation(rand_state(rng, 3, d))
        dom = T.make_rect_domain(d, 1.2, 0.9)
        assert abs(T.alc(St, dom) - alc_direct(St, dom)) < 1e-10

    def test_cross_route_projection_functional(self, rng):
        d = 16
        S = rand_state(rng, 3, d)
        dom = T.make_rect_domain(d, 2.0, 1.5)
        lhs = dom.measure * T.alc(T.total_correlation(S), dom)
        rhs = T.projection_functional_spectral(T.mixed_state_localization(dom, S))
        assert abs(lhs - rhs) < 1e-8

    def test_range(self, rng):
        d = 16
        St = T.total_correlation(rand_state(rng, 2, d))
        for w, h in [(1.0, 1.0), (2.5, 1.5), (3.9, 3.9)]:
            a = T.alc(St, T.make_rect_domain(d, w, h))
            assert 0.0 <= a <= 1.0 + 1e-9

    def test_clamped_up_to_1e_9_above_1(self, monkeypatch):
        # d = 4, |Omega| = 1 and a uniform density: ALC = 1 - C[0, 0] / 64 for
        # an autocorrelation C that is zero elsewhere, so ALC hits any double near 1
        dom, density = T.Domain(np.arange(16).reshape(4, 4) < 4), np.full((4, 4), 0.25)
        edge = 1.0 + 1e-9

        def run(value):
            C = np.zeros((4, 4))
            C[0, 0] = 64.0 * (1.0 - value)
            monkeypatch.setattr(tfaug.metrics, "_domain_autocorrelation", lambda domain: C)
            return T.alc(density, dom)

        assert run(edge) == 1.0
        with pytest.raises(ValueError, match="ALC is outside .* by more than 1.000e-09"):
            run(np.nextafter(edge, 2.0))

    @pytest.mark.parametrize(
        "factor, full",
        [(3.0, False), (-1.0, False), (1.0 + 9e-7, True)],
        ids=["mass_3", "negated", "below_zero"],
    )
    def test_rejects_bad_density(self, rng, factor, full):
        # on the full torus ALC = 1 - mass, so a mass of 1 + 9e-7 (inside the
        # mass tolerance) gives ALC = -9e-7, beyond the clamp tolerance
        d = 16
        St = T.total_correlation(rand_state(rng, 3, d))
        dom = T.full_domain(d) if full else T.make_rect_domain(d, 2.0, 1.5)
        with pytest.raises(ValueError):
            T.alc(factor * St, dom)


def checks(S, dom):
    """The results of check_bounds by name."""
    return {c.name: c for c in T.check_bounds(S, dom)}


class TestBerezinLieb:
    def test_full_torus_lower_bound_attained(self, rng):
        d = 16
        S = rand_state(rng, 3, d)
        c = checks(S, T.full_domain(d))
        low = c["sandwich_lower"]
        assert low.ok and c["sandwich_upper"].ok
        assert abs(low.lhs - math.log(d)) < 1e-8
        assert abs(low.rhs - math.log(d)) < 1e-8

    def test_random_instances_pass(self, rng):
        d = 16
        for _ in range(10):
            S = rand_state(rng, int(rng.integers(1, 5)), d)
            w = float(rng.uniform(1.0, 3.0))
            h = float(rng.uniform(1.0, 3.0))
            c = checks(S, T.make_rect_domain(d, w, h))
            assert c["sandwich_lower"].ok and c["sandwich_upper"].ok
            assert c["entropy_correlation"].ok

    def test_rank_one_strictly_between(self, rng):
        d = 16
        f = rand_unit(rng, d)
        S = T.HermitianOperator(T.tensor_product(f, f))
        c = checks(S, T.make_rect_domain(d, 1.5, 1.5))
        assert c["sandwich_lower"].lhs < c["sandwich_lower"].rhs < c["sandwich_upper"].rhs

    def test_monotone_lower_bound(self, rng):
        # mid >= ln|Omega| always (ALC >= 0)
        d = 16
        S = rand_state(rng, 3, d)
        dom = T.make_rect_domain(d, 2.5, 2.0)
        mid = checks(S, dom)["sandwich_lower"].rhs
        assert mid >= math.log(dom.measure) - 1e-9

    def test_report_serializes(self, rng):
        results = T.check_bounds(rand_state(rng, 2, 8), T.make_rect_domain(8, 1.5, 1.5))
        dct = bounds_report(results)["sandwich"]
        assert set(dct) >= {"lower", "mid", "upper", "pass", "tolerance"}


class TestLemmaAndFiniteRank:
    def test_full_torus_equality(self, rng):
        d = 8
        lemma = checks(rand_state(rng, 3, d), T.full_domain(d))["alc_lemma"]
        lhs, rhs = lemma.rhs, lemma.lhs  # ALC >= 1 - sum lambda_k / |Omega|
        assert lemma.ok and abs(lhs) < 1e-9 and abs(rhs) < 1e-9

    def test_random_instances(self, rng):
        d = 16
        for _ in range(10):
            S = rand_state(rng, int(rng.integers(1, 4)), d)
            dom = T.make_rect_domain(d, float(rng.uniform(1, 3)), float(rng.uniform(1, 3)))
            c = checks(S, dom)
            assert c["alc_lemma"].ok and c["finite_rank"].ok

    def test_perimeter_never_fails(self, rng):
        d = 16
        for _ in range(10):
            S = rand_state(rng, int(rng.integers(1, 4)), d)
            dom = T.make_rect_domain(d, float(rng.uniform(1, 3)), float(rng.uniform(1, 3)))
            verdict = checks(S, dom)["perimeter"].verdict
            assert verdict in ("pass", "vacuous")

    def test_general_berezin_lieb(self, rng):
        d = 16
        for _ in range(10):
            S = rand_state(rng, int(rng.integers(1, 4)), d)
            dom = T.make_rect_domain(d, float(rng.uniform(1, 3)), float(rng.uniform(1, 3)))
            c = checks(S, dom)
            assert c["general_berezin_lieb_lower"].ok and c["general_berezin_lieb_upper"].ok

    def test_projection_vs_entropy(self, rng):
        # x - x^2 <= -x ln x eigenvalue-wise: P(A) <= entropy of eigenvalues
        d = 16
        S = rand_state(rng, 3, d)
        dom = T.make_rect_domain(d, 2.0, 2.0)
        loc = T.mixed_state_localization(dom, S)
        w = np.clip(np.linalg.eigvalsh(loc.matrix), 0.0, 1.0)
        nz = w[w > 0]
        assert np.sum(w * (1 - w)) <= -np.sum(nz * np.log(nz)) + 1e-9


class TestBerezinLiebUpperSide:
    """tr Phi(f (x) S), Phi(x) = x - x^2, is read from tr A - tr A^2 with
    A = f (x) S; the oracle takes it from A's eigenvalues."""

    @staticmethod
    def domains(d):
        side = math.sqrt(d)
        centred = T.make_rect_domain(d, 0.4 * side, 0.3 * side)
        wrapped = T.make_rect_domain(d, side / 3, side / 2, (side / 2, -side / 2 + 0.1))
        k = T.tf_core.signed_indices(d)
        # the wrapped rectangle straddles the seam of the centred coordinates
        assert wrapped.mask[k.argmin()].any() and wrapped.mask[k.argmax()].any()
        disk = disk_mask(d, 0.4 * side)
        assert not np.array_equal(disk, np.outer(disk.any(1), disk.any(0)))
        return centred, wrapped, T.Domain(disk)

    @pytest.mark.parametrize("d", [7, 8, 16, 32])
    def test_matches_the_eigenvalue_oracle(self, rng, d):
        S = rand_state(rng, 3, d)
        for dom in self.domains(d):
            symbol = T.op_op_convolve(T.mixed_state_localization(dom, S), S)
            fS = T.fn_op_convolve(np.clip(symbol, 0.0, 1.0), S)
            w = np.clip(np.linalg.eigvalsh(fS.matrix), 0.0, 1.0)
            expected = float(np.sum(w - w * w))
            upper = checks(S, dom)["general_berezin_lieb_upper"]
            assert abs(upper.rhs - expected) < 1e-12


class TestCheckBounds:
    def test_one_analysis_pass(self, rng, monkeypatch):
        calls = Counter()

        def counted(key, fn):
            def wrapper(*args, **kwargs):
                calls[key] += 1
                return fn(*args, **kwargs)
            return wrapper

        for name in ("total_correlation", "fn_op_convolve"):
            monkeypatch.setattr(tfaug.metrics, name, counted(name, getattr(tfaug.metrics, name)))
        # localize reaches fn_op_convolve through mixed_state_localization
        monkeypatch.setattr(tfaug.augmentation, "fn_op_convolve",
                            counted("fn_op_convolve", tfaug.augmentation.fn_op_convolve))
        for name in ("eigh", "eigvalsh", "eig", "eigvals"):
            monkeypatch.setattr(np.linalg, name, counted("eigensolves", getattr(np.linalg, name)))
        d = 16
        T.check_bounds(rand_state(rng, 3, d), T.make_rect_domain(d, 2.0, 1.5))
        assert calls["total_correlation"] == 1
        assert calls["fn_op_convolve"] == 2
        assert calls["eigensolves"] <= 4

    def test_spreads_S_once_and_not_L(self, rng, monkeypatch):
        spread = []
        spreading = tfaug.operators.spreading

        def recorded(M):
            if not isinstance(M, T.HermitianOperator):
                spread.append(M)  # a transform computed, not a kept one read
            return spreading(M)

        monkeypatch.setattr(tfaug.operators, "spreading", recorded)
        d = 16
        S, dom = rand_state(rng, 3, d), T.make_rect_domain(d, 2.0, 1.5)
        T.check_bounds(S, dom)
        # the symbol L (x) S takes eta_L = chi-hat eta_S / d, not a spreading of L
        assert len(spread) == 1 and spread[0] is S.matrix

    def test_one_d_by_d_eigensolve_per_pair(self, rng, monkeypatch):
        # L is the one d x d eigenproblem; S's entropy solves its N x N Gram
        # matrix, and f (x) S is only factorized, by the positivity certificate
        n, d = 5, 16
        shapes = {"eigvalsh": [], "cholesky": []}
        for name, calls in shapes.items():
            def recorded(M, fn=getattr(np.linalg, name), calls=calls):
                calls.append(M.shape)
                return fn(M)
            monkeypatch.setattr(np.linalg, name, recorded)
        S = T.data_operator(rand_dataset(rng, n, d))
        T.check_bounds(S, T.make_rect_domain(d, 2.0, 1.5))
        assert sorted(shapes["eigvalsh"]) == [(n, n), (d, d)]
        assert shapes["cholesky"] == [(d, d)]

    def test_distance_grid_built_once_per_d(self):
        grid = tfaug.metrics._centered_distance_grid
        grid.cache_clear()
        assert grid(12) is grid(12) and not grid(12).flags.writeable
        assert grid.cache_info().misses == 1
        assert grid(12)[0, 1] == pytest.approx(1 / math.sqrt(12))
        assert grid(12)[11, 11] == pytest.approx(math.sqrt(2 / 12))

    def test_results(self, rng):
        d = 16
        results = T.check_bounds(rand_state(rng, 3, d), T.make_rect_domain(d, 2.0, 1.5))
        assert [r.name for r in results] == [
            "sandwich_lower", "sandwich_upper", "entropy_correlation", "alc_lemma",
            "finite_rank", "general_berezin_lieb_lower", "general_berezin_lieb_upper",
            "perimeter", "entropy_covariance",
        ]
        for r in results[:-1]:
            assert r.slack == r.rhs - r.lhs
            assert r.ok == (r.verdict != "fail")
            assert r.verdict in ("pass", "vacuous")
        # only the entropy-covariance check may be inconclusive, with NaN rhs and tol
        last = results[-1]
        assert last.verdict in ("pass", "inconclusive")
        if last.verdict == "inconclusive":
            assert math.isnan(last.rhs) and math.isnan(last.tol) and last.ok

    @pytest.mark.parametrize("value, clipped, accepted", [
        (1.0 + 0.5e-8, 1.0, True), (1.0 + 2e-8, 1.0, False),
        (-0.5e-8, 0.0, True), (-2e-8, 0.0, False),
    ])
    def test_symbol_clamp(self, rng, monkeypatch, value, clipped, accepted):
        # f = L (x) S lies in [0, 1]: roundoff outside is clipped within
        # 1e-8 and raises beyond, naming the symbol
        grids = tfaug.metrics._localization_grids

        def run(entry):
            def pushed(mask, S):
                density, symbol = grids(mask, S)
                symbol = symbol.copy()
                symbol[3, 5] = entry
                return density, symbol
            monkeypatch.setattr(tfaug.metrics, "_localization_grids", pushed)
            return T.check_bounds(S, dom)

        d = 16
        S, dom = rand_state(rng, 3, d), T.make_rect_domain(d, 2.0, 1.5)
        if not accepted:
            with pytest.raises(ValueError, match="symbol"):
                run(value)
            return
        # both Berezin-Lieb sides read the clipped symbol
        assert run(value)[5:7] == run(clipped)[5:7]

    @pytest.mark.parametrize("excess, accepted", [(0.5e-8, True), (2e-8, False)])
    def test_eigenvalue_clamp(self, rng, monkeypatch, excess, accepted):
        # L's eigenvalues are at most 1: roundoff above is clipped within
        # 1e-8 and raises beyond, naming the eigenvalue
        localize = tfaug.metrics.localize

        def run(top):
            def pushed(S, domain):
                loc = localize(S, domain)
                w = loc.eigenvalues.copy()
                w[0] = top
                return loc._replace(eigenvalues=w)
            monkeypatch.setattr(tfaug.metrics, "localize", pushed)
            return T.check_bounds(S, dom)

        d = 16
        S, dom = rand_state(rng, 3, d), T.make_rect_domain(d, 2.0, 1.5)
        if not accepted:
            with pytest.raises(ValueError, match="eigenvalue of L"):
                run(1.0 + excess)
            return
        # general_berezin_lieb_lower reads the clipped lambda_1
        assert run(1.0 + excess)[5] == run(1.0)[5]

    @pytest.mark.parametrize("name", ["Berezin-Lieb symbol", "eigenvalue of L"])
    def test_unit_clamps_accept_up_to_1e_8(self, rng, monkeypatch, name):
        # 1 + 1e-8 itself is clipped to 1, and the next double raises
        grids, localize = tfaug.metrics._localization_grids, tfaug.metrics.localize

        def pushed_grids(mask, S):
            density, symbol = grids(mask, S)
            symbol = symbol.copy()
            symbol[3, 5] = top
            return density, symbol

        def pushed_localize(S, domain):
            loc = localize(S, domain)
            return loc._replace(eigenvalues=np.concatenate([[top], loc.eigenvalues[1:]]))

        if name == "eigenvalue of L":
            monkeypatch.setattr(tfaug.metrics, "localize", pushed_localize)
        else:
            monkeypatch.setattr(tfaug.metrics, "_localization_grids", pushed_grids)
        d = 16
        S, dom = rand_state(rng, 3, d), T.make_rect_domain(d, 2.0, 1.5)
        top = 1.0 + 1e-8
        assert T.check_bounds(S, dom)
        top = np.nextafter(top, 2.0)
        with pytest.raises(ValueError, match=f"{name}.* is outside .* by more than 1.000e-08"):
            T.check_bounds(S, dom)

    def test_fail_verdict(self):
        r = T.CheckResult("x", 1.0, 0.5, 1e-8, "fail")
        assert not r.ok and r.slack == -0.5
        with pytest.raises(ValueError):
            T.CheckResult("x", 0.0, 1.0, 1e-8, "passed")

    def test_rejects_empty_domain(self, rng):
        d = 8
        with pytest.raises(ValueError):
            T.check_bounds(rand_state(rng, 2, d), T.Domain(np.zeros((d, d), dtype=bool)))


class TestEntropyCovariance:
    """exp(H(S-tilde)/2) <= sqrt(pi e) sqrt(Var S-tilde), the last result of
    check_bounds; it reads S-tilde only, so any domain serves."""

    @staticmethod
    def result(S):
        return checks(S, T.make_rect_domain(S.d, 2.0, 2.0))["entropy_covariance"]

    def test_gaussian_pair_passes(self):
        d = 64
        g = T.gaussian_window(d)
        r = self.result(T.HermitianOperator(T.tensor_product(g, g)))
        assert r.verdict == "pass"
        assert r.lhs <= r.rhs * (1 + 1e-3)

    def test_hermite_pair_passes(self):
        d = 64
        S = T.gen_hermite_pair_state(0.5, T.hermite(d, 0), T.hermite(d, 1))
        assert self.result(S).verdict == "pass"

    def test_chirps_never_fail(self):
        # chirp correlation mass wraps the torus; inconclusive is acceptable
        S = T.data_operator(T.gen_chirps(20, 128, seed=0))
        assert self.result(S).verdict in ("pass", "inconclusive")


class TestAsymptoticAlc:
    def test_full_cover_zero(self, rng):
        d = 16
        St = T.total_correlation(rand_state(rng, 3, d))
        dom = T.make_rect_domain(d, 1.0, 1.0)
        scans = T.asymptotic_alc_scan(St, dom, [4.0])  # 4x1 covers the side-4 torus
        assert scans[0][1] < 1e-10

    def test_gaussian_strictly_decreasing(self):
        d = 64
        g = T.gaussian_window(d)
        St = T.total_correlation(T.tensor_product(g, g))
        dom = T.make_rect_domain(d, 1.0, 1.0)
        vals = [a for _, a in T.asymptotic_alc_scan(St, dom, [1.0, 1.5, 2.0, 3.0])]
        assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_chirp_strictly_decreasing(self):
        d = 128
        ds = T.gen_chirps(30, d, seed=1)
        St = T.total_correlation(T.data_operator(ds))
        dom = T.make_rect_domain(d, 1.0, 1.0)
        vals = [a for _, a in T.asymptotic_alc_scan(St, dom, [1.0, 1.5, 2.0, 3.0])]
        assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_overflow_rejected(self, rng):
        d = 16
        St = T.total_correlation(rand_state(rng, 2, d))
        dom = T.make_rect_domain(d, 2.0, 2.0)
        with pytest.raises(ValueError):
            T.asymptotic_alc_scan(St, dom, [3.0])
