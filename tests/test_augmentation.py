import math
import tracemalloc

import numpy as np
import pytest

import tfaug as T

from conftest import operator_shift, rand_dataset, rand_state, rand_unit


class TestDomainMask:
    def test_caller_array_stays_writable(self):
        m = np.zeros((16, 16), dtype=bool)
        m[:3, :3] = True
        dom = T.Domain(m)
        m[0, 5] = True  # the caller's array is not frozen
        assert not dom.mask.flags.writeable
        assert dom.n_cells == 9 and dom.measure == 0.5625

    def test_later_write_through_a_view_leaves_the_domain(self):
        m = np.zeros((16, 16), dtype=bool)
        m[:3, :3] = True
        dom = T.Domain(m[:, :])
        m[8, 8] = True
        assert dom.n_cells == 9 and dom.measure == 0.5625
        assert not dom.mask[8, 8]


@pytest.mark.parametrize("build", [
    lambda rng: rand_dataset(rng, 3, 8),
    lambda rng: rand_state(rng, 3, 8),
    lambda rng: T.make_rect_domain(8, 1.0, 1.0),
], ids=["DataSet", "HermitianOperator", "Domain"])
def test_array_holders_compare_by_identity(rng, build):
    # a generated == would compare the arrays and raise, and a generated
    # hash would hash them
    x, y = build(rng), build(rng)
    assert x in [y, x] and x != y
    assert hash(x) == hash(x) and len({x, y, x}) == 2


class TestRectDomain:
    def test_paper_square_measure(self):
        dom = T.make_rect_domain(100, 2.45, 2.45)
        assert abs(dom.measure - 6.0) < 0.5

    def test_wide_and_tall_agree(self):
        wide = T.make_rect_domain(100, 4.0, 1.49)
        tall = T.make_rect_domain(100, 1.49, 4.0)
        assert abs(wide.measure - tall.measure) <= 1.0 / 100 + 1e-12

    def test_scaling_measures(self):
        base = T.make_rect_domain(100, 2.45, 2.45)
        mid = T.scale_domain(base, 1.3)
        big = T.scale_domain(base, 1.6)
        assert abs(mid.measure - 10.0) < 0.7
        assert abs(big.measure - 15.0) < 0.8

    def test_perimeter_matches_rectangle(self):
        d = 144
        w, h = 2.0, 3.0
        dom = T.make_rect_domain(d, w, h)
        assert abs(dom.perimeter - 2 * (w + h)) < 5.0 / math.sqrt(d)

    def test_too_large_rejected(self):
        with pytest.raises(ValueError):
            T.make_rect_domain(16, 5.0, 1.0)  # torus side is 4

    @pytest.mark.parametrize("args, message", [
        ((math.nan, 1.0), "rectangle width must be finite, got nan"),
        ((1.0, math.nan), "rectangle height must be finite, got nan"),
        ((math.inf, 1.0), "rectangle width must be finite, got inf"),
        ((1.0, 1.0, (math.nan, 0.0)), r"rectangle center must be finite, got \(nan, 0.0\)"),
        ((1.0, 1.0, (0.0, -math.inf)), r"rectangle center must be finite, got \(0.0, -inf\)"),
        ((1.0, 1.0, (math.inf, 0.0)), r"rectangle center must be finite, got \(inf, 0.0\)"),
    ])
    def test_non_finite_rejected(self, args, message):
        with pytest.raises(ValueError, match=message):
            T.make_rect_domain(16, *args)

    @pytest.mark.parametrize("center", [(0.0, 0.0, 5.0), (0.0,), ()])
    def test_center_not_two_numbers_rejected(self, center):
        # domain_to_json would write it as a center that domain_from_json refuses
        with pytest.raises(ValueError, match="rectangle center must be two numbers"):
            T.make_rect_domain(16, 1.0, 1.0, center)

    @pytest.mark.parametrize("factor", [math.nan, math.inf, 0.0, -1.0])
    def test_scaling_by_non_finite_rejected(self, factor):
        base = T.make_rect_domain(16, 1.0, 1.0)
        message = f"scale factor must be finite and positive, got {factor}"
        with pytest.raises(ValueError, match=message):
            T.scale_domain(base, factor)

    @pytest.mark.parametrize("make", [
        lambda d: T.make_rect_domain(d, 1.0, 1.0),
        lambda d: T.make_cells_domain(d, [(0, 0)]),
        T.full_domain,
    ])
    @pytest.mark.parametrize("d", [0, -3])
    def test_d_below_one_rejected(self, make, d):
        with pytest.raises(ValueError, match=f"dimension must be positive, got {d}"):
            make(d)

    def test_cells_domain_roundtrip(self):
        dom = T.make_cells_domain(8, [(0, 0), (1, 2), (7, 7)])
        assert dom.n_cells == 3
        assert dom.measure == pytest.approx(3 / 8)


class TestMixedStateLocalization:
    def test_full_torus_is_identity(self, rng):
        d = 16
        S = rand_state(rng, 3, d)
        loc = T.mixed_state_localization(T.full_domain(d), S)
        assert np.max(np.abs(loc.matrix - np.eye(d))) < 1e-10
        H = T.von_neumann_entropy(T.HermitianOperator(loc.matrix / d))
        assert abs(H - math.log(d)) < 1e-8

    def test_single_cell(self, rng):
        d = 8
        S = rand_state(rng, 3, d)
        dom = T.make_cells_domain(d, [(2, 5)])
        loc = T.mixed_state_localization(dom, S)
        assert np.max(np.abs(loc.matrix - operator_shift(S, (2, 5)) / d)) < 1e-10
        assert abs(loc.trace - 1.0 / d) < 1e-12

    def test_trace_is_measure(self, rng):
        d = 16
        for _ in range(5):
            S = rand_state(rng, 3, d)
            w = float(rng.uniform(0.8, 3.0))
            h = float(rng.uniform(0.8, 3.0))
            dom = T.make_rect_domain(d, w, h)
            loc = T.mixed_state_localization(dom, S)
            assert abs(loc.trace - dom.measure) < 1e-9

    def test_eigenvalues_in_unit_interval(self, rng):
        d = 16
        S = rand_state(rng, 3, d)
        dom = T.make_rect_domain(d, 2.0, 1.5)
        w = np.linalg.eigvalsh(T.mixed_state_localization(dom, S).matrix)
        assert w.min() > -1e-10
        assert w.max() < 1.0 + 1e-9

    def test_eigenvalue_sum_is_measure(self, rng):
        d = 16
        S = rand_state(rng, 4, d)
        dom = T.make_rect_domain(d, 2.5, 1.0)
        w = np.linalg.eigvalsh(T.mixed_state_localization(dom, S).matrix)
        assert abs(w.sum() - dom.measure) < 1e-9

    def test_variational_cohen_bound(self, rng):
        # top eigenvalue dominates the Omega-integral of the Cohen class
        d = 16
        S = rand_state(rng, 3, d)
        dom = T.make_rect_domain(d, 2.0, 2.0)
        loc = T.mixed_state_localization(dom, S)
        lam1 = float(np.linalg.eigvalsh(loc.matrix)[-1])
        for _ in range(200):
            psi = rand_unit(rng, d)
            val = float(np.sum(T.cohen_class(S, psi)[dom.mask]) / d)
            assert val <= lam1 + 1e-9

    def test_empty_domain_rejected(self, rng):
        with pytest.raises(ValueError):
            T.mixed_state_localization(T.Domain(np.zeros((8, 8), dtype=bool)), rand_state(rng, 2, 8))


class TestFiniteRankApprox:
    def test_full_torus_projection(self, rng):
        d = 8
        S = rand_state(rng, 3, d)
        Tproj, A, err = T.finite_rank_approx(T.full_domain(d), S)
        assert A == d
        assert np.max(np.abs(Tproj.matrix - np.eye(d))) < 1e-9
        assert err < 1e-9

    def test_error_matches_singular_values(self, rng):
        d = 16
        S = rand_state(rng, 2, d)
        dom = T.make_rect_domain(d, 1.8, 1.1)
        Tproj, A, err = T.finite_rank_approx(dom, S)
        loc = T.mixed_state_localization(dom, S)
        sv = np.linalg.svd(loc.matrix - Tproj.matrix, compute_uv=False)
        assert abs(err - sv.sum()) < 1e-9

    def test_matches_eigh_oracle(self, rng):
        d = 16
        S = rand_state(rng, 3, d)
        dom = T.make_rect_domain(d, 2.2, 1.7)
        Tproj, A, err = T.finite_rank_approx(dom, S)
        w, V = np.linalg.eigh(T.mixed_state_localization(dom, S).matrix)
        w, V = w[::-1], V[:, ::-1]
        A_oracle = math.ceil(dom.measure - 1e-12)
        assert A == A_oracle
        top = V[:, :A_oracle]
        assert np.max(np.abs(Tproj.matrix - top @ top.conj().T)) < 1e-10
        assert abs(err - (np.sum(1.0 - w[:A_oracle]) + np.sum(w[A_oracle:]))) < 1e-10

    def test_ceiling_rank(self, rng):
        d = 16
        dom = T.make_rect_domain(d, 1.5, 1.5)
        _, A, _ = T.finite_rank_approx(dom, rand_state(rng, 3, d))
        assert A == math.ceil(dom.measure - 1e-12)


class TestAugmentDataset:
    def test_single_origin_cell_identity(self, rng):
        d = 8
        ds = rand_dataset(rng, 2, d)
        dom = T.make_cells_domain(d, [(0, 0)])
        aug = T.augment_dataset(dom, ds)
        S = T.data_operator(ds)
        S_aug = T.data_operator(aug)
        assert np.max(np.abs(S_aug.matrix - S.matrix)) < 1e-10

    def test_route_equality(self, rng):
        d = 16
        ds = rand_dataset(rng, 3, d)
        dom = T.make_rect_domain(d, 1.2, 0.9)
        S_aug = T.data_operator(T.augment_dataset(dom, ds))
        loc = T.mixed_state_localization(dom, T.data_operator(ds))
        assert np.max(np.abs(S_aug.matrix - loc.matrix / dom.measure)) < 1e-9

    def test_cardinality(self, rng):
        d = 8
        ds = rand_dataset(rng, 3, d)
        dom = T.make_rect_domain(d, 1.2, 1.2)
        assert len(T.augment_dataset(dom, ds)) == 3 * dom.n_cells

    def test_signal_cap(self, rng):
        # 5 signals x 65 536 cells is over the cap
        d = 256
        ds = rand_dataset(rng, 5, d)
        with pytest.raises(ValueError):
            T.augment_dataset(T.full_domain(d), ds)

    def test_signal_cap_boundary(self, rng):
        # one cell per signal at d = 1: the output count is the signal count
        X = rng.standard_normal((200_001, 1)) + 0j
        dom = T.full_domain(1)
        assert len(T.augment_dataset(dom, T.DataSet(X[:200_000]))) == 200_000
        with pytest.raises(ValueError, match=r"200001 signals \(cap 200000\)"):
            T.augment_dataset(dom, T.DataSet(X))

    def test_cap_checked_before_allocating(self, rng):
        # the cell list of the full d=2048 grid alone takes 67 MB
        ds = rand_dataset(rng, 1, 2048)
        dom = T.full_domain(2048)
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="cap"):
                T.augment_dataset(dom, ds)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 64 * 2**20

    @pytest.mark.parametrize("d", [1, 2, 7, 8, 16])
    @pytest.mark.parametrize("shape", ["rect", "cells", "full"])
    def test_matches_per_signal_oracle_bit_for_bit(self, rng, d, shape):
        if shape == "rect":
            dom = T.make_rect_domain(d, 0.8 * math.sqrt(d), 0.6 * math.sqrt(d))
        elif shape == "cells":
            dom = T.make_cells_domain(d, [(0, 0), (1, 2), (1, 2), (-1, d + 3), (2 * d + 1, -5)])
        else:
            dom = T.full_domain(d)
        ds = rand_dataset(rng, 3, d)
        scale = (dom.measure * d) ** -0.5
        # signal-major, then cell order
        expect = np.array([
            scale * T.tf_shift(f, (int(m), int(n))) for f in ds.signals for m, n in dom.cells()
        ])
        aug = T.augment_dataset(dom, ds)
        assert aug.signals.shape == expect.shape
        assert np.array_equal(aug.signals.view(np.uint64), expect.view(np.uint64))
