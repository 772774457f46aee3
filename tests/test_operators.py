import math
import tracemalloc
import warnings

import numpy as np
import pytest

import tfaug as T
import tfaug.metrics
import tfaug.operators
from tfaug.operators import (
    _clamped,
    _indicator_fft,
    _symplectic_fft,
    from_spreading,
    parity,
    spreading,
)
from tfaug.tf_core import grid_reflect

from conftest import (
    disk_mask, operator_shift, rand_dataset, rand_signal, rand_state, rand_unit,
)


def fn_op_direct(F, S):
    """Direct O(d^4) summation: (1/d) sum_z F(z) alpha_z(S)."""
    d = S.shape[0]
    out = np.zeros((d, d), complex)
    for m in range(d):
        for n in range(d):
            out += F[m, n] * operator_shift(S, (m, n))
    return out / d


def op_op_direct(A, B):
    """Direct O(d^4): (A (x) B)(z) = tr(A alpha_z(B-check))."""
    d = A.shape[0]
    Bc = grid_reflect(B)
    out = np.zeros((d, d), complex)
    for m in range(d):
        for n in range(d):
            out[m, n] = np.trace(A @ operator_shift(Bc, (m, n)))
    return out


def trace_one_with_lowest(rng, d, lowest):
    """A random trace-one matrix, Hermitian up to roundoff, with the smallest
    eigenvalue lowest and the others in (0, 1)."""
    V, _ = np.linalg.qr(rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))
    w = rng.random(d) + 0.5
    w[0] = 0.0
    w *= (1.0 - lowest) / w.sum()
    w[0] = lowest
    return (V * w) @ V.conj().T


def trace_norm(M):
    return float(np.sum(np.linalg.svd(M, compute_uv=False)))


class TestTensorProduct:
    def test_rank_one_projection(self, rng):
        f = rand_unit(rng, 8)
        P = T.tensor_product(f, f)
        assert np.max(np.abs(P @ P - P)) < 1e-12

    def test_application(self, rng):
        f, g, h = (rand_signal(rng, 8) for _ in range(3))
        assert np.allclose(T.tensor_product(f, g) @ h, np.vdot(g, h) * f)

    def test_trace(self, rng):
        f = rand_signal(rng, 8)
        tr = np.trace(T.tensor_product(f, f)).real
        assert abs(tr - np.linalg.norm(f) ** 2) < 1e-12


class TestDataOperator:
    def test_single_signal(self, rng):
        f = rand_unit(rng, 8)
        S = T.data_operator(T.DataSet((f,)))
        assert np.max(np.abs(S.matrix - T.tensor_product(f, f))) < 1e-12

    def test_orthonormal_pair_eigenvalues(self):
        h0, h1 = T.hermite(16, 0), T.hermite(16, 1)
        S = T.data_operator(T.DataSet((h0 / np.sqrt(2), h1 / np.sqrt(2))))
        w = np.sort(np.linalg.eigvalsh(S.matrix))[::-1]
        assert abs(w[0] - 0.5) < 1e-10 and abs(w[1] - 0.5) < 1e-10

    def test_matches_loop_oracle(self, rng):
        ds = rand_dataset(rng, 5, 8)
        direct = sum(T.tensor_product(f, f) for f in ds.signals)
        assert np.max(np.abs(T.data_operator(ds).matrix - direct)) < 1e-12

    def test_rejects_unnormalized(self, rng):
        ds = T.DataSet(tuple(rand_signal(rng, 8) for _ in range(3)))
        with pytest.raises(ValueError):
            T.data_operator(ds)

    def test_trace_one(self, rng):
        assert abs(rand_state(rng, 4, 16).trace - 1.0) < 1e-10

    def test_keeps_its_factor_uncopied(self, rng):
        ds = rand_dataset(rng, 5, 8)
        assert T.data_operator(ds)._factor is ds.signals
        assert T.HermitianOperator(T.data_operator(ds).matrix)._factor is None

    def test_keeps_a_read_file_uncopied(self, rng, tmp_path):
        # the signals of a binary file are read-only views of immutable bytes
        T.write_signals(tmp_path / "s.bin", rand_dataset(rng, 5, 8))
        ds = T.read_signals(tmp_path / "s.bin")
        assert T.data_operator(ds)._factor is ds.signals

    def test_copies_a_factor_that_a_writable_base_shares(self, rng):
        # DataSet copies a read-only view of a writable array; a write to its
        # base must not reach the factor, or the Gram spectrum would be another S's
        base = rand_dataset(rng, 3, 16).signals.copy()
        view = base.view()
        view.setflags(write=False)
        ds = T.DataSet(view)
        assert ds.signals is not view
        S = T.data_operator(ds)
        assert S._factor is not view and not S._factor.flags.writeable
        assert np.array_equal(S._factor, view)
        base[0] *= 3.0
        w = np.linalg.eigvalsh(S.matrix)[::-1]
        assert np.max(np.abs(tfaug.metrics._positive_eigenvalues(S) - w)) < 1e-12

    @pytest.mark.parametrize("d", [1, 7, 16])
    def test_symmetrized_in_place_bit_for_bit(self, rng, d):
        # (A + A^*) / 2 of the product, computed into the product itself
        ds = rand_dataset(rng, 5, d)
        A = ds.signals.T @ ds.signals.conj()
        S = T.data_operator(ds).matrix
        assert S.flags.c_contiguous and not S.flags.writeable
        assert S.tobytes() == (0.5 * (A + A.conj().T)).tobytes()

    def test_data_operator_holds_two_matrices(self, rng):
        # the product and its conjugate; out of place it held three
        d = 256
        ds = rand_dataset(rng, 10, d)
        tracemalloc.start()
        try:
            T.data_operator(ds)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2.5 * d * d * 16

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_rejects_non_finite_signal(self, rng, value):
        # the result is not tested again, so the norm test must catch it
        X = rand_dataset(rng, 3, 8).signals.copy()
        X[1, 2] = value
        with pytest.raises(ValueError, match="not normalized"):
            T.data_operator(T.DataSet(X))


class TestOperatorShift:
    def test_zero_shift(self, rng):
        S = rand_state(rng, 3, 8)
        assert np.max(np.abs(operator_shift(S, (0, 0)) - S.matrix)) < 1e-12

    def test_rank_one_correspondence(self, rng):
        f = rand_signal(rng, 8)
        z = (3, 5)
        lhs = operator_shift(T.tensor_product(f, f), z)
        pf = T.tf_shift(f, z)
        assert np.max(np.abs(lhs - T.tensor_product(pf, pf))) < 1e-12

    def test_spectrum_invariant(self, rng):
        S = rand_state(rng, 3, 8)
        w0 = np.linalg.eigvalsh(S.matrix)
        w1 = np.linalg.eigvalsh(operator_shift(S, (2, 7)))
        assert np.max(np.abs(w0 - w1)) < 1e-10


class TestFnOpConvolve:
    def test_delta_cell(self, rng):
        d = 8
        S = rand_state(rng, 3, d)
        F = np.zeros((d, d))
        F[2, 5] = d  # unit mass concentrated in one cell
        out = T.fn_op_convolve(F, S)
        assert np.max(np.abs(out.matrix - operator_shift(S, (2, 5)))) < 1e-10

    def test_full_twirl_is_identity(self, rng):
        d = 8
        S = rand_state(rng, 3, d)
        out = T.fn_op_convolve(np.ones((d, d)), S)
        assert np.max(np.abs(out.matrix - np.eye(d))) < 1e-10

    def test_trace_identity(self, rng):
        d = 8
        S = rand_state(rng, 3, d)
        F = rng.uniform(size=(d, d))
        out = T.fn_op_convolve(F, S)
        assert abs(out.trace - T.grid_integrate(F) * S.trace) < 1e-9

    def test_matches_direct(self, rng):
        d = 8
        S = rand_state(rng, 3, d)
        F = rng.uniform(size=(d, d))
        assert np.max(np.abs(T.fn_op_convolve(F, S).matrix - fn_op_direct(F, S.matrix))) < 1e-10

    @pytest.mark.parametrize("d", [1, 2, 3, 7, 8, 16])
    def test_matches_direct_sizes(self, rng, d):
        # odd and tiny d expose sign errors in the diagonal index arithmetic
        S = rand_state(rng, 3, d)
        F = rng.standard_normal((d, d))
        assert np.max(np.abs(T.fn_op_convolve(F, S).matrix - fn_op_direct(F, S.matrix))) < 1e-10

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_rejects_non_finite_grid(self, rng, value):
        d = 8
        F = np.ones((d, d))
        F[3, 4] = value
        with pytest.raises(ValueError, match="finite"):
            T.fn_op_convolve(F, rand_state(rng, 3, d))

    def test_rejects_raw_non_hermitian_operator(self, rng):
        # the full twirl of any M is tr(M) I, Hermitian: only the input
        # check can reject M
        d = 8
        M = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        with pytest.raises(ValueError, match="Hermitian"):
            T.fn_op_convolve(np.ones((d, d)), M)

    def test_young_trace_norm_bound(self, rng):
        d = 8
        S = rand_state(rng, 3, d)
        F = rng.uniform(size=(d, d))
        out = T.fn_op_convolve(F, S)
        L1 = T.grid_integrate(np.abs(F))
        assert trace_norm(out.matrix) <= L1 * trace_norm(S.matrix) + 1e-9


def l_shape_mask(d):
    """Two overlapping bars: a union of rectangles that is no product set."""
    mask = np.zeros((d, d), dtype=bool)
    mask[: d // 2, :2] = True
    mask[:2, : d // 2] = True
    return mask


class TestIndicatorTransform:
    def product_masks(self, d):
        side = math.sqrt(d)
        centers = [(0.0, 0.0), (side / 2, -side / 2 + 0.1), (-0.4 * side, 0.3 * side)]
        if d == 1:  # the two wrapped rectangles select no cell
            centers = centers[:1]
        # the empty product set is no Domain, but still a legal indicator grid
        empty = np.zeros((d, d), dtype=bool)
        return [T.full_domain(d).mask, T.make_cells_domain(d, [(d // 3, d - 1)]).mask, empty] + [
            T.make_rect_domain(d, side / 3, side / 2, c).mask for c in centers
        ]

    @pytest.mark.parametrize("d", [1, 2, 7, 16, 33, 64, 280])
    def test_product_sets_match_the_2d_transform(self, d, monkeypatch):
        two_d = []
        monkeypatch.setattr(tfaug.operators, "_symplectic_fft", two_d.append)
        for mask in self.product_masks(d):
            # centers near the edge wrap around, and the set stays a product
            assert np.array_equal(mask, np.outer(mask.any(1), mask.any(0)))
            fast = _indicator_fft(mask)
            # chi-hat peaks at chi-hat(0) = the number of cells
            scale = float(mask.sum())
            assert np.max(np.abs(fast - _symplectic_fft(mask.astype(float)))) <= 1e-15 * scale
        assert two_d == []

    @pytest.mark.parametrize("d", [7, 16, 64])
    def test_other_masks_take_the_2d_route(self, d, monkeypatch):
        two_d = []

        def counted(F):
            two_d.append(F)
            return _symplectic_fft(F)

        monkeypatch.setattr(tfaug.operators, "_symplectic_fft", counted)
        for mask in (l_shape_mask(d), disk_mask(d, 0.4 * math.sqrt(d))):
            assert not np.array_equal(mask, np.outer(mask.any(1), mask.any(0)))
            assert np.array_equal(_indicator_fft(mask), _symplectic_fft(mask))
            assert two_d.pop() is mask and not two_d

    @pytest.mark.parametrize("d", [1, 2, 7, 16])
    def test_first_rows_bit_for_bit(self, d):
        # each row of the outer product is formed alone, so asking for the
        # rows u <= d/2 changes no bit of them
        for mask in [*self.product_masks(d), l_shape_mask(d)]:
            full = _indicator_fft(mask)
            head = _indicator_fft(mask, d // 2 + 1)
            assert head.shape == (d // 2 + 1, d)
            assert head.tobytes() == full[: d // 2 + 1].tobytes()

    def test_localization_forms_only_the_half_rows(self, rng, monkeypatch):
        d = 16
        asked = []

        def counted(mask, n_rows=None):
            asked.append(n_rows)
            return _indicator_fft(mask, n_rows)

        monkeypatch.setattr(tfaug.operators, "_indicator_fft", counted)
        T.fn_op_convolve(T.make_rect_domain(d, 2.0, 1.5).mask, rand_state(rng, 3, d))
        assert asked == [d // 2 + 1]

    def test_boolean_grid_is_the_indicator(self, rng):
        d = 16
        S = rand_state(rng, 3, d)
        for mask in (T.make_rect_domain(d, 2.0, 1.5, (1.8, -1.9)).mask, l_shape_mask(d)):
            L = T.fn_op_convolve(mask, S).matrix
            assert np.max(np.abs(L - fn_op_direct(mask.astype(float), S.matrix))) < 1e-10


class TestHermitianBuild:
    @pytest.mark.parametrize("d", [1, 2, 3, 7, 16])
    def test_exactly_hermitian_and_matches_direct(self, rng, d):
        S = rand_state(rng, 3, d)
        F = rng.standard_normal((d, d))
        L = T.fn_op_convolve(F, S).matrix
        assert np.array_equal(L, L.conj().T) and not L.flags.writeable
        # every entry of (1/d) sum_z F(z) alpha_z(S) is at most this
        scale = np.abs(F).sum() / d * np.abs(S.matrix).max()
        assert np.max(np.abs(L - fn_op_direct(F, S.matrix))) <= 1e-15 * scale

    def test_exactly_hermitian_at_experiment_size(self):
        d = 280
        S = T.data_operator(T.gen_chirps(50, d, seed=0))
        eta = spreading(S)
        for mask in (T.make_rect_domain(d, 3.0, 2.0, (7.5, -8.0)).mask, disk_mask(d, 2.0)):
            L = T.fn_op_convolve(mask, S).matrix
            assert np.array_equal(L, L.conj().T)
            # the full inverse transform, every diagonal, as the reference
            full = from_spreading(_symplectic_fft(mask.astype(float)) * eta / d)
            scale = mask.sum() / d * np.abs(S.matrix).max()
            assert np.max(np.abs(L - full)) <= 1e-15 * scale

    def test_half_index_built_once_per_d(self):
        index = tfaug.operators._half_diagonal_index
        index.cache_clear()
        src = index(6)
        assert index(6) is src and not src.flags.writeable
        # [D, conj(D)] holds lags u = 0..3, so entry (x, y) with lag 4 or 5 is
        # the conjugate of D[6 - u, y]
        part, u, x = np.unravel_index(src, (2, 4, 6))
        lag = (np.arange(6)[:, None] - np.arange(6)) % 6
        assert np.array_equal(part.reshape(6, 6), lag > 3)
        assert np.array_equal(u.reshape(6, 6), np.minimum(lag, 6 - lag))
        assert np.array_equal(x.reshape(6, 6), np.where(lag > 3, np.arange(6), np.arange(6)[:, None]))


class TestLocalizationGrids:
    @pytest.mark.parametrize("d", [7, 8, 16])
    def test_match_the_grid_and_operator_convolutions(self, rng, d):
        S = rand_state(rng, 3, d)
        S_tilde = T.total_correlation(S)
        off_center = T.make_rect_domain(d, 0.4 * math.sqrt(d), 0.3 * math.sqrt(d), (1.1, -0.7))
        for mask in (off_center.mask, l_shape_mask(d)):
            density, symbol = tfaug.operators._localization_grids(mask, S)
            chi = mask.astype(float)
            # neither mask is symmetric under z -> -z, so a reflected density fails
            assert np.max(np.abs(density - T.grid_convolve(chi, S_tilde))) < 1e-14
            L = T.fn_op_convolve(mask, S)
            assert np.max(np.abs(symbol - T.op_op_convolve(L, S))) < 1e-14


class TestOpOpConvolve:
    def test_spectrogram_identity(self, rng):
        d = 8
        f, g = rand_signal(rng, d), rand_signal(rng, d)
        gc = parity(g)
        lhs = T.op_op_convolve(T.tensor_product(f, f), T.tensor_product(gc, gc))
        assert np.max(np.abs(lhs - T.spectrogram(f, g))) < 1e-10

    def test_integral_is_trace_product(self, rng):
        d = 8
        S, Q = rand_state(rng, 3, d), rand_state(rng, 2, d)
        conv = T.op_op_convolve(S, Q)
        assert abs(T.grid_integrate(conv) - S.trace * Q.trace) < 1e-9

    def test_positivity(self, rng):
        d = 8
        conv = T.op_op_convolve(rand_state(rng, 3, d), rand_state(rng, 2, d))
        assert conv.min() >= -1e-12

    def test_matches_direct(self, rng):
        d = 8
        S, Q = rand_state(rng, 3, d), rand_state(rng, 2, d)
        conv = T.op_op_convolve(S, Q)
        assert np.max(np.abs(conv - op_op_direct(S.matrix, Q.matrix).real)) < 1e-10

    @pytest.mark.parametrize("d", [1, 2, 3, 7, 8, 16])
    def test_matches_direct_sizes(self, rng, d):
        # S (x) (F (x) Q) with a signed real F: an operator that is not a
        # data operator, at sizes where a diagonal-index sign error shows
        S, Q = rand_state(rng, 3, d), rand_state(rng, 2, d)
        R = T.fn_op_convolve(rng.standard_normal((d, d)), Q).matrix
        conv = T.op_op_convolve(S, R)
        assert np.max(np.abs(conv - op_op_direct(S.matrix, R).real)) < 1e-10

    def test_commutative(self, rng):
        d = 8
        S, Q = rand_state(rng, 3, d), rand_state(rng, 2, d)
        assert np.max(np.abs(T.op_op_convolve(S, Q) - T.op_op_convolve(Q, S))) < 1e-10

    def test_associativity_with_fn_convolve(self, rng):
        d = 8
        S, Q = rand_state(rng, 3, d), rand_state(rng, 2, d)
        F = rng.uniform(size=(d, d))
        lhs = T.op_op_convolve(T.fn_op_convolve(F, S), Q)
        rhs = T.grid_convolve(F, T.op_op_convolve(S, Q))
        assert np.max(np.abs(lhs - rhs)) < 1e-9

    def test_sup_bound(self, rng):
        d = 8
        S, Q = rand_state(rng, 3, d), rand_state(rng, 2, d)
        conv = T.op_op_convolve(S, Q)
        bound = trace_norm(S.matrix) * float(np.linalg.norm(Q.matrix, 2))
        assert np.max(np.abs(conv)) <= bound + 1e-9

    @pytest.mark.parametrize("d", [1, 2, 3, 7, 16])
    def test_typed_and_raw_operands_agree_bitwise(self, rng, d):
        # a typed operand is exactly Hermitian, so its kept spreading
        # function stands in for that of its adjoint without changing a bit
        S, Q = rand_state(rng, 3, d), rand_state(rng, 2, d)
        R = T.fn_op_convolve(rng.standard_normal((d, d)), Q)
        for A, B in [(S, Q), (R, S), (S, R), (R, R)]:
            typed = T.op_op_convolve(A, B)
            assert typed.dtype == float
            # a raw operand makes the grid complex, with the same real part
            for raw in (T.op_op_convolve(A.matrix.copy(), B.matrix.copy()),
                        T.op_op_convolve(A, B.matrix.copy()),
                        T.op_op_convolve(A.matrix.copy(), B)):
                assert raw.dtype == complex and raw.real.tobytes() == typed.tobytes()


class TestTotalCorrelation:
    def test_rank_one(self, rng):
        f = rand_unit(rng, 8)
        St = T.total_correlation(T.tensor_product(f, f))
        assert np.max(np.abs(St - T.spectrogram(f, f))) < 1e-10
        assert abs(St[0, 0] - 1.0) < 1e-9

    def test_brute_force_double_sum(self, rng):
        ds = rand_dataset(rng, 3, 8)
        St = T.total_correlation(T.data_operator(ds))
        brute = sum(
            T.spectrogram(fj, fi) for fi in ds.signals for fj in ds.signals
        )
        assert np.max(np.abs(St - brute)) < 1e-9

    def test_integral_one(self, rng):
        St = T.total_correlation(rand_state(rng, 4, 16))
        assert abs(T.grid_integrate(St) - 1.0) < 1e-8

    def test_origin_is_purity(self, rng):
        S = rand_state(rng, 4, 16)
        St = T.total_correlation(S)
        assert abs(St[0, 0] - np.trace(S.matrix @ S.matrix).real) < 1e-9

    def test_rejects_non_positive(self, rng):
        M = np.diag([1.5, -0.5] + [0.0] * 6)
        with pytest.raises(ValueError):
            T.total_correlation(M)

    def test_data_operator_is_not_factorized(self, rng, monkeypatch):
        # positive by construction: no Cholesky factorization
        calls = []
        cholesky = np.linalg.cholesky

        def counted(M):
            calls.append(M)
            return cholesky(M)

        monkeypatch.setattr(np.linalg, "cholesky", counted)
        S = rand_state(rng, 3, 8)
        St = T.total_correlation(S)
        assert calls == []
        # the same matrix, typed but not a data operator, is factorized once
        assert np.array_equal(T.total_correlation(T.HermitianOperator(S.matrix)), St)
        assert len(calls) == 1
        # and a raw indefinite matrix still fails, after its factorization
        with pytest.raises(ValueError, match="eigenvalue is outside .*: min -5.000e-01"):
            T.total_correlation(np.diag([1.5, -0.5] + [0.0] * 6))
        assert len(calls) == 2

    @pytest.mark.parametrize("lowest, accepted", [(-2e-10, False), (-5e-11, True)])
    def test_positivity_tolerance(self, rng, lowest, accepted):
        # trace one, lambda_max < 1: the bound is -1e-10 on either side of the
        # Cholesky shortcut
        S = trace_one_with_lowest(rng, 8, lowest)
        if accepted:
            assert np.isfinite(T.total_correlation(S)).all()
        else:
            with pytest.raises(ValueError, match=f"eigenvalue is outside .*: min {lowest:.3e}"):
                T.total_correlation(S)


class TestPositivityCertificate:
    @pytest.mark.parametrize("lowest, accepted", [(-2e-8, False), (-5e-9, True)])
    def test_boundary_at_tolerance(self, rng, lowest, accepted):
        # lambda_max < 1, so the bound is -1e-8 both for the Cholesky
        # certificate and for the eigenvalue test it falls back to
        A = trace_one_with_lowest(rng, 8, lowest)
        A = 0.5 * (A + A.conj().T)
        if accepted:
            tfaug.operators._check_positive(A, 1e-8)
        else:
            with pytest.raises(ValueError, match="eigenvalue is outside .*: min -2.000e-08"):
                tfaug.operators._check_positive(A, 1e-8)


class TestClamped:
    """The one clamp: its accepted band, NaN, and its return types."""

    @pytest.mark.parametrize("x", [
        math.nan, np.array([0.5, math.nan, 0.0]), np.full((4, 4), math.nan),
    ], ids=["scalar", "spectrum", "grid"])
    def test_rejects_nan(self, x):
        with pytest.raises(ValueError, match="x is outside .*: min nan, max nan"):
            _clamped(x, "x", 1e-8)

    def test_scalar_comes_back_float(self):
        out = _clamped(-1e-8, "x", 1e-7)
        assert type(out) is float and out == 0.0
        x = np.array([[-1e-13, 0.25], [0.5, 2.0]])
        grid = _clamped(x, "x", 1e-12)
        assert grid.tolist() == [[0.0, 0.25], [0.5, 2.0]] and x[0, 0] == -1e-13

    def test_half_line_band(self):
        # the bound is tol max(1, max |w|): -1e-8 * 1.5 is accepted, the next
        # double below it is not, at every spectrum site
        edge = -1e-8 * 1.5
        w = np.array([1.5, 0.25, edge])
        sites = [
            lambda w: _clamped(w, "eigenvalue", 1e-8),
            lambda w: tfaug.operators._check_positive(np.diag(w), 1e-8),
            lambda w: tfaug.metrics._positive_eigenvalues(np.diag(w)),
        ]
        for site in sites:
            site(w)
        assert sites[2](w).tolist() == [1.5, 0.25, 0.0]
        w[-1] = np.nextafter(edge, -1.0)
        for site in sites:
            with pytest.raises(ValueError, match="eigenvalue is outside .*: min -1.500e-08"):
                site(w)

    @pytest.mark.parametrize("tol", [1e-9, 1e-8])
    def test_unit_band(self, tol):
        # on [0, 1] the bound is tol itself: ALC at 1e-9, the others at 1e-8
        for edge, clipped, outward in [(-tol, 0.0, -1.0), (1.0 + tol, 1.0, 2.0)]:
            assert _clamped(edge, "ALC", tol, hi=1.0) == clipped
            with pytest.raises(ValueError, match=f"ALC is outside .* by more than {tol:.3e}"):
                _clamped(np.nextafter(edge, outward), "ALC", tol, hi=1.0)


class TestCohenClass:
    def test_rank_one_is_spectrogram(self, rng):
        d = 8
        g = rand_unit(rng, d)
        f = rand_unit(rng, d)
        Q = T.cohen_class(T.tensor_product(g, g), f)
        assert np.max(np.abs(Q - T.spectrogram(f, g))) < 1e-10

    def test_linearity(self, rng):
        d = 8
        g1, g2, f = rand_unit(rng, d), rand_unit(rng, d), rand_unit(rng, d)
        S = 0.4 * T.tensor_product(g1, g1) + 0.6 * T.tensor_product(g2, g2)
        Q = T.cohen_class(S, f)
        direct = 0.4 * T.spectrogram(f, g1) + 0.6 * T.spectrogram(f, g2)
        assert np.max(np.abs(Q - direct)) < 1e-10

    def test_data_operator_route(self, rng):
        ds = rand_dataset(rng, 3, 8)
        f = rand_unit(rng, 8)
        Q = T.cohen_class(T.data_operator(ds), f)
        direct = sum(T.spectrogram(f, fi) for fi in ds.signals)
        assert np.max(np.abs(Q - direct)) < 1e-10

    def test_integral_one(self, rng):
        Q = T.cohen_class(rand_state(rng, 3, 16), rand_unit(rng, 16))
        assert abs(T.grid_integrate(Q) - 1.0) < 1e-9

    def test_negative_state_rejected(self):
        # the true values are <= 0, so clamping them to 0 would hide the error
        g = T.gaussian_window(16)
        with pytest.raises(ValueError):
            T.cohen_class(T.HermitianOperator(-T.tensor_product(g, g)), g)

    @pytest.mark.parametrize("operand", ["S", "f"])
    def test_nan_rejected(self, rng, operand):
        d = 16
        S, f = T.data_operator(rand_dataset(rng, 3, d)).matrix.copy(), rand_unit(rng, d)
        if operand == "S":
            S[2, 3] = math.nan
        else:
            f[5] = math.nan
        with pytest.raises(ValueError, match="Cohen's class is outside .*: min nan"):
            T.cohen_class(S, f)

    @staticmethod
    def outcome(compute):
        try:
            return compute().tobytes()
        except ValueError as err:
            return str(err)

    @pytest.mark.parametrize("d", [7, 8, 16])
    def test_bit_for_bit_its_definition(self, rng, d):
        f = rand_signal(rng, d)
        S = T.data_operator(rand_dataset(rng, 3, d))
        A = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        P = A @ A.conj().T / np.linalg.norm(A) ** 2
        noise = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        operands = {
            "raw Hermitian": 0.5 * (P + P.conj().T),
            "data operator matrix": S.matrix,
            "HermitianOperator": S,
            "non-Hermitian": S.matrix + 1e-3 * noise,
            "non-Hermitian, negative": S.matrix + 0.1 * noise,
        }
        for name, op in operands.items():
            M = op.matrix if isinstance(op, T.HermitianOperator) else op
            want = self.outcome(
                lambda: _clamped(T.op_op_convolve(grid_reflect(M), T.tensor_product(f, f)).real,
                                 "Cohen's class", 1e-12))
            got = self.outcome(lambda: T.cohen_class(op, f))
            assert got == want, name
            assert isinstance(got, str) == name.endswith("negative"), name

    def test_holds_few_d_by_d_arrays(self, rng):
        # the result (d x d real) and at most three d x d complex arrays at a
        # time; with the dense f (x) f, the reflected and adjoint copies and
        # out-of-place products it held seven
        d = 256
        S = T.data_operator(rand_dataset(rng, 10, d)).matrix
        f = rand_unit(rng, d)
        T.cohen_class(S, f)  # the diagonal index is cached per d
        tracemalloc.start()
        try:
            T.cohen_class(S, f)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * d * d * 16


class TestConvLayerIdentity:
    def test_delta_kernel(self, rng):
        d = 8
        f, g = rand_unit(rng, d), rand_unit(rng, d)
        m = np.zeros((d, d))
        m[0, 0] = d  # unit-mass identity element for grid convolution
        lhs, rhs, diff = T.conv_layer_identity(f, g, m)
        assert np.max(np.abs(lhs - T.spectrogram(f, g))) < 1e-10
        assert diff < 1e-9

    def test_averaging_kernel(self, rng):
        d = 8
        f, g = rand_unit(rng, d), rand_unit(rng, d)
        m = np.full((d, d), 1.0 / d)
        lhs, rhs, diff = T.conv_layer_identity(f, g, m)
        F0 = T.spectrogram(f, g)
        assert np.max(np.abs(lhs - F0.mean())) < 1e-10
        assert diff < 1e-9

    def test_random_kernel_routes_agree(self, rng):
        d = 16
        f, g = rand_signal(rng, d), rand_signal(rng, d)
        m = rng.uniform(size=(d, d))
        _, _, diff = T.conv_layer_identity(f, g, m)
        assert diff < 1e-9


class TestHermitianOperator:
    def test_rejects_non_hermitian(self, rng):
        M = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        with pytest.raises(ValueError):
            T.HermitianOperator(M)

    def test_rejects_non_square(self):
        with pytest.raises(ValueError):
            T.HermitianOperator(np.zeros((3, 4)))

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_rejects_non_finite(self, value):
        # the ValueError is the only signal: no RuntimeWarning before it
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError):
                T.HermitianOperator(np.full((4, 4), value))

    def test_factor_is_not_a_keyword(self, rng):
        # only data_operator may attach a factor, so it always belongs to S
        ds = rand_dataset(rng, 3, 8)
        M = T.data_operator(ds).matrix
        for key in ("factor", "_factor"):
            with pytest.raises(TypeError):
                T.HermitianOperator(M, **{key: ds.signals})

    def test_diagonal_index_built_once_per_d(self):
        tfaug.operators._diagonal_index.cache_clear()
        rows, cols = tfaug.operators._diagonal_index(12)
        again = tfaug.operators._diagonal_index(12)
        assert again[0] is rows and again[1] is cols
        tfaug.operators._diagonal_index(12)
        assert not rows.flags.writeable and not cols.flags.writeable
        info = tfaug.operators._diagonal_index.cache_info()
        assert (info.misses, info.hits) == (1, 2)
        M = np.arange(144.0).reshape(12, 12)
        assert all(M[rows, cols][u, x] == M[x, (x - u) % 12] for u in range(12) for x in range(12))

    def test_spreading_kept_read_only(self, rng):
        S = rand_state(rng, 3, 12)
        eta = spreading(S)
        assert spreading(S) is eta and not eta.flags.writeable
        assert np.array_equal(eta, spreading(S.matrix))

    def test_spreading_computed_once(self, rng, monkeypatch):
        calls = []

        def counted(name):
            index = getattr(tfaug.operators, name)

            def wrapper(d):
                calls.append(name)
                return index(d)
            return wrapper

        for name in ("_diagonal_index", "_half_diagonal_index"):
            monkeypatch.setattr(tfaug.operators, name, counted(name))
        S = rand_state(rng, 3, 12)
        chi = T.make_rect_domain(12, 2.0, 1.5).mask.astype(float)
        T.total_correlation(S)
        T.fn_op_convolve(chi, S)
        T.fn_op_convolve(chi, S)
        # one spreading of S, then one half-diagonal build per convolution
        assert calls == ["_diagonal_index"] + 2 * ["_half_diagonal_index"]
