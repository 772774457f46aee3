import numpy as np
import pytest
from scipy.special import eval_hermite

import tfaug as T
from tfaug.tf_core import _hermite_family, _tf_shifts, grid_reflect

from conftest import rand_signal, rand_unit


def stft_direct(f, g):
    """O(d^3) summation straight from the definition; the FFT oracle."""
    d = len(f)
    out = np.zeros((d, d), complex)
    for m in range(d):
        for n in range(d):
            s = 0.0
            for x in range(d):
                s += f[x] * np.conj(g[(x - m) % d]) * np.exp(-2j * np.pi * x * n / d)
            out[m, n] = s
    return out


class TestTfShift:
    def test_zero_shift_is_identity(self, rng):
        f = rand_signal(rng, 8)
        assert np.allclose(T.tf_shift(f, (0, 0)), f)

    def test_impulse_translation(self):
        delta = np.zeros(4)
        delta[0] = 1.0
        out = T.tf_shift(delta, (1, 0))
        expected = np.zeros(4)
        expected[1] = 1.0
        assert np.allclose(out, expected)

    def test_norm_preserved(self, rng):
        for _ in range(20):
            d = int(rng.integers(4, 40))
            f = rand_signal(rng, d)
            z = (int(rng.integers(0, d)), int(rng.integers(0, d)))
            assert abs(np.linalg.norm(T.tf_shift(f, z)) - np.linalg.norm(f)) < 1e-12 * np.linalg.norm(f)

    def test_torus_closure_up_to_phase(self, rng):
        d = 16
        f = rand_signal(rng, d)
        z1, z2 = (3, 7), (5, 11)
        a = T.tf_shift(T.tf_shift(f, z1), z2)
        b = T.tf_shift(f, ((z1[0] + z2[0]) % d, (z1[1] + z2[1]) % d))
        ratio = a / b
        assert np.max(np.abs(np.abs(ratio) - 1)) < 1e-10
        assert np.max(np.abs(ratio - ratio[0])) < 1e-10  # global phase

    def test_dimension_mismatch(self, rng):
        with pytest.raises(ValueError):
            T.tf_shift(rng.standard_normal((4, 4)), (1, 1))
        with pytest.raises(ValueError, match="nonempty"):
            T.tf_shift(np.zeros(0), (1, 1))

    def test_matches_roll_formula_bit_for_bit(self, rng):
        # exp(2 pi i x n / d) * f(x - m), evaluated as a phase times np.roll
        for trial in range(200):
            d = int(rng.integers(1, 40))
            f = rand_signal(rng, d) if trial % 4 else rng.standard_normal(d)
            m, n = (int(v) for v in rng.integers(-3 * d, 3 * d, size=2))
            x = np.arange(d)
            expect = np.exp(2j * np.pi * x * (n % d) / d) * np.roll(f, m % d)
            assert np.array_equal(T.tf_shift(f, (m, n)).view(np.uint64), expect.view(np.uint64))

    @pytest.mark.parametrize("real", [False, True])
    def test_shift_table_matches_tf_shift_bit_for_bit(self, rng, real):
        # every (signal, shift) pair of the table, against the roll formula
        d = 12
        X = rng.standard_normal((3, d)) if real else np.array([rand_signal(rng, d) for _ in range(3)])
        m, n = rng.integers(-d, 2 * d, size=(2, 5))
        table = _tf_shifts(X, m, n)
        assert table.shape == (3, 5, d) and table.dtype == complex
        x = np.arange(d)
        for i, k in np.ndindex(3, 5):
            expect = np.exp(2j * np.pi * x * (n[k] % d) / d) * np.roll(X[i], m[k] % d)
            assert table[i, k].tobytes() == expect.tobytes()


class TestStft:
    def test_self_overlap_at_origin(self, rng):
        g = rand_unit(rng, 12)
        assert abs(T.stft(g, g)[0, 0] - 1.0) < 1e-12

    def test_two_point_impulse(self):
        delta = np.array([1.0, 0.0])
        P = np.abs(T.stft(delta, delta)) ** 2
        assert np.allclose(P[0], [1.0, 1.0])
        assert np.allclose(P[1], [0.0, 0.0])

    def test_matches_direct_summation(self, rng):
        d = 16
        f, g = rand_signal(rng, d), rand_signal(rng, d)
        assert np.max(np.abs(T.stft(f, g) - stft_direct(f, g))) < 1e-10

    def test_moyal(self, rng):
        for _ in range(10):
            d = int(rng.integers(4, 33))
            f, g = rand_signal(rng, d), rand_signal(rng, d)
            lhs = T.grid_integrate(T.spectrogram(f, g))
            rhs = np.linalg.norm(f) ** 2 * np.linalg.norm(g) ** 2
            assert abs(lhs - rhs) < 1e-10 * rhs

    def test_covariance_under_shift(self, rng):
        d = 16
        f, g = rand_signal(rng, d), rand_signal(rng, d)
        z = (3, 5)
        shifted = np.abs(T.stft(T.tf_shift(f, z), g))
        rolled = np.roll(np.abs(T.stft(f, g)), z, axis=(0, 1))
        assert np.max(np.abs(shifted - rolled)) < 1e-10


class TestSpectrogram:
    def test_unit_pair_integral(self, rng):
        f, g = rand_unit(rng, 16), rand_unit(rng, 16)
        assert abs(T.grid_integrate(T.spectrogram(f, g)) - 1.0) < 1e-10

    def test_matches_stft_modulus(self, rng):
        d = 280
        ds = T.gen_chirps(1, d, seed=0)
        g = T.gaussian_window(d)
        f = ds.signals[0]
        assert np.max(np.abs(T.spectrogram(f, g) - np.abs(T.stft(f, g)) ** 2)) < 1e-14

    def test_orthogonal_pair_zero_at_origin(self):
        h0, h1 = T.hermite(16, 0), T.hermite(16, 1)
        assert T.spectrogram(h0, h1)[0, 0] < 1e-20


class TestWindows:
    def test_gaussian_unit_norm(self):
        for d in (4, 32, 128):
            assert abs(np.linalg.norm(T.gaussian_window(d)) - 1.0) < 1e-12

    def test_hermite_orthonormal(self):
        h0, h1 = T.hermite(128, 0), T.hermite(128, 1)
        assert abs(np.vdot(h0, h1)) < 1e-12
        assert abs(np.linalg.norm(h0) - 1) < 1e-12

    def test_gaussian_is_hermite_ground_state(self):
        g = T.gaussian_window(128)
        h0 = T.hermite(128, 0)
        assert abs(np.vdot(g, h0)) > 0.999

    def test_order_out_of_range(self):
        with pytest.raises(ValueError):
            T.hermite(8, 8)

    @pytest.mark.parametrize("d", [4, 5, 16, 128, 280])
    def test_hermite_family_is_scipy_eval_hermite(self, d):
        # scipy's H_n(y) exp(-pi x^2) through the same QR and sign fix is the
        # oracle, on every order where it is finite (n < 199 at d = 280)
        x = (np.arange(d) - d / 2) / np.sqrt(d)
        y = np.sqrt(2 * np.pi) * x
        with np.errstate(over="ignore", invalid="ignore"):
            H = np.array([eval_hermite(n, y) * np.exp(-np.pi * x**2) for n in range(d)])
        k = int(np.isfinite(H).all(axis=1).sum())
        q, r = np.linalg.qr(np.ascontiguousarray(H[:k].T, dtype=complex))
        oracle = q * np.sign(np.diag(r).real)
        gap = np.max(np.abs(_hermite_family(d, d - 1)[:, :k] - oracle), axis=0)
        # a Gram-Schmidt column moves with the condition number kappa_n of
        # the unit-scaled samples of orders 0..n: the top orders at d = 128
        # are almost dependent on the grid (kappa up to 1.6e7, gap 1.1e-10);
        # the measured gap is at most 4.6e-15 kappa_n at these five sizes
        A = H[:k] / np.max(np.abs(H[:k]), axis=1, keepdims=True)
        A /= np.linalg.norm(A, axis=1, keepdims=True)
        r = np.linalg.qr(A.T, mode="r")
        kappa = np.array([np.linalg.cond(r[:n + 1, :n + 1]) for n in range(k)])
        assert np.all(gap < 2e-14 * kappa), np.argmax(gap / kappa)

    @pytest.mark.parametrize("d", [280, 512, 1024])
    def test_every_order_finite_and_orthonormal(self, d):
        F = _hermite_family(d, d - 1)
        assert np.isfinite(F).all()
        # measured defect 1.1e-15 at all three sizes
        assert np.max(np.abs(F.conj().T @ F - np.eye(d))) < 5e-15
        if d == 1024:
            # exp(-pi x^2) underflows to 0 at 39 edge points, where the top
            # orders still oscillate: their mass there is at least 0.085
            x = (np.arange(d) - d / 2) / np.sqrt(d)
            edge = np.exp(-np.pi * x**2) == 0
            assert np.min(np.linalg.norm(F[edge, 900:], axis=0)) > 0.05


class TestGridOps:
    def test_integrate_constant(self):
        for d in (4, 9):
            assert T.grid_integrate(np.ones((d, d))) == pytest.approx(d)

    def test_convolve_matches_direct(self, rng):
        d = 8
        F = rng.uniform(size=(d, d))
        G = rng.uniform(size=(d, d))
        direct = np.zeros((d, d))
        for a in range(d):
            for b in range(d):
                s = 0.0
                for u in range(d):
                    for v in range(d):
                        s += F[u, v] * G[(a - u) % d, (b - v) % d]
                direct[a, b] = s / d
        assert np.max(np.abs(T.grid_convolve(F, G) - direct)) < 1e-12

    def test_reflect_involution(self, rng):
        F = rng.uniform(size=(8, 8))
        assert np.array_equal(grid_reflect(grid_reflect(F)), F)

    def test_reflect_maps_index(self, rng):
        d = 8
        F = rng.uniform(size=(d, d))
        R = grid_reflect(F)
        for a, b in [(0, 0), (1, 2), (5, 7)]:
            assert R[a, b] == F[(d - a) % d, (d - b) % d]
