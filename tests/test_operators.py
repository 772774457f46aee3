import warnings

import numpy as np
import pytest

import tfaug as T
import tfaug.operators
from tfaug.operators import operator_parity, operator_shift, parity, spreading

from conftest import rand_dataset, rand_signal, rand_state, rand_unit


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
    Bc = operator_parity(B)
    out = np.zeros((d, d), complex)
    for m in range(d):
        for n in range(d):
            out[m, n] = np.trace(A @ operator_shift(Bc, (m, n)))
    return out


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


class TestSpectralDecompose:
    def test_scaled_identity(self):
        d = 8
        dec = T.spectral_decompose(T.HermitianOperator(np.eye(d) / d))
        assert np.allclose(dec.eigenvalues, 1 / d)

    def test_rank_one(self, rng):
        f = rand_signal(rng, 8)
        dec = T.spectral_decompose(T.HermitianOperator(T.tensor_product(f, f)))
        assert abs(dec.eigenvalues[0] - np.linalg.norm(f) ** 2) < 1e-10
        assert np.max(np.abs(dec.eigenvalues[1:])) < 1e-10

    def test_reconstruction_and_gram(self, rng):
        S = rand_state(rng, 5, 16)
        dec = T.spectral_decompose(S)
        assert np.max(np.abs(dec.reconstruct() - S.matrix)) < 1e-8
        G = dec.eigenvectors.conj().T @ dec.eigenvectors
        assert np.max(np.abs(G - np.eye(16))) < 1e-10

    def test_variational_property(self, rng):
        # top eigenvector maximizes sum_i |<psi, f_i>|^2 over random probes
        ds = rand_dataset(rng, 5, 16)
        S = T.data_operator(ds)
        dec = T.spectral_decompose(S)
        h1 = dec.eigenvectors[:, 0]
        best = sum(abs(np.vdot(h1, f)) ** 2 for f in ds.signals)
        for _ in range(200):
            psi = rand_unit(rng, 16)
            val = sum(abs(np.vdot(psi, f)) ** 2 for f in ds.signals)
            assert val <= best + 1e-9

    def test_deterministic_phases(self, rng):
        S = rand_state(rng, 4, 12)
        a = T.spectral_decompose(S).eigenvectors
        b = T.spectral_decompose(S).eigenvectors
        assert np.array_equal(a, b)


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

    def test_young_trace_norm_bound(self, rng):
        d = 8
        S = rand_state(rng, 3, d)
        F = rng.uniform(size=(d, d))
        out = T.fn_op_convolve(F, S)
        L1 = T.grid_integrate(np.abs(F))
        assert trace_norm(out.matrix) <= L1 * trace_norm(S.matrix) + 1e-9


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

    @pytest.mark.parametrize("lowest, accepted", [(-2e-10, False), (-5e-11, True)])
    def test_positivity_tolerance(self, rng, lowest, accepted):
        # trace one, lambda_max < 1: the bound is -1e-10 on either side of the
        # Cholesky shortcut
        d = 8
        V, _ = np.linalg.qr(rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))
        w = rng.random(d) + 0.5
        w[0] = 0.0
        w *= (1.0 - lowest) / w.sum()
        w[0] = lowest
        S = (V * w) @ V.conj().T
        if accepted:
            assert np.isfinite(T.total_correlation(S)).all()
        else:
            with pytest.raises(ValueError, match="not positive"):
                T.total_correlation(S)


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

    def test_spreading_kept_read_only(self, rng):
        S = rand_state(rng, 3, 12)
        eta = spreading(S)
        assert spreading(S) is eta and not eta.flags.writeable
        assert np.array_equal(eta, spreading(S.matrix))

    def test_spreading_computed_once(self, rng, monkeypatch):
        calls = []
        diagonal_index = tfaug.operators._diagonal_index

        def counted(d):
            calls.append(d)
            return diagonal_index(d)

        monkeypatch.setattr(tfaug.operators, "_diagonal_index", counted)
        S = rand_state(rng, 3, 12)
        chi = T.make_rect_domain(12, 2.0, 1.5).indicator()
        T.total_correlation(S)
        T.fn_op_convolve(chi, S)
        T.fn_op_convolve(chi, S)
        # one spreading of S, then one from_spreading per convolution
        assert len(calls) == 3
