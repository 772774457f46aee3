import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.signal.windows import barthann

import tfaug as T
from tfaug.datasets import _barthann

from conftest import rand_signal


class TestNormalize:
    def test_unit_signal_unchanged(self, rng):
        f = rand_signal(rng, 8)
        f /= np.linalg.norm(f)
        out = T.normalize_dataset(T.DataSet((f,)))
        assert np.allclose(out.signals[0], f)

    def test_two_unit_signals(self, rng):
        f = rand_signal(rng, 8)
        f /= np.linalg.norm(f)
        g = rand_signal(rng, 8)
        g /= np.linalg.norm(g)
        out = T.normalize_dataset(T.DataSet((f, g)))
        assert abs(np.linalg.norm(out.signals[0]) - 2**-0.5) < 1e-12

    def test_random_set_sums_to_one(self, rng):
        ds = T.DataSet(tuple(rand_signal(rng, 16) for _ in range(10)))
        assert abs(T.normalize_dataset(ds).total_energy() - 1.0) < 1e-12

    def test_zero_dataset_rejected(self):
        with pytest.raises(ValueError):
            T.normalize_dataset(T.DataSet((np.zeros(4),)))

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            T.DataSet(())

    def test_mixed_lengths_rejected(self):
        with pytest.raises(ValueError):
            T.DataSet((np.ones(4), np.ones(5)))


class TestDataSetMatrix:
    def test_signals_read_only_and_as_matrix_a_writable_copy(self, rng):
        rows = [rand_signal(rng, 8) for _ in range(3)]
        ds = T.DataSet(rows)
        assert ds.signals.shape == (3, 8) and ds.signals.dtype == np.complex128
        assert len(ds) == 3 and ds.d == 8
        with pytest.raises(ValueError):
            ds.signals[0, 0] = 1.0
        M = ds.as_matrix()
        assert not np.shares_memory(M, ds.signals)
        M[0, 0] = 99.0
        assert np.array_equal(ds.signals, np.stack(rows))
        assert all(np.array_equal(f, r) for f, r in zip(ds.signals, rows, strict=True))

    def test_two_d_array_accepted_and_copied(self, rng):
        X = rng.standard_normal((4, 6)) + 1j * rng.standard_normal((4, 6))
        ds = T.DataSet(X)
        assert np.array_equal(ds.signals, X)
        assert np.array_equal(ds.signals, T.DataSet(tuple(X)).signals)
        X[0, 0] = 99.0
        assert ds.signals[0, 0] != 99.0
        real = T.DataSet(np.ones((2, 3)))
        assert real.signals.dtype == np.complex128 and real.signals.flags.c_contiguous

    def test_zero_length_signals_rejected(self):
        with pytest.raises(ValueError):
            T.DataSet(np.zeros((3, 0)))
        with pytest.raises(ValueError):
            T.DataSet(tuple(np.zeros((3, 0))))

    def test_non_1d_signal_rejected(self):
        with pytest.raises(ValueError):
            T.DataSet((np.ones((2, 2)),))
        with pytest.raises(ValueError):
            T.DataSet(np.ones((2, 2, 2)))
        with pytest.raises(ValueError):
            T.DataSet(np.ones(4))

    def test_total_energy_is_the_per_signal_sum(self, rng):
        # row sums added in row order; one whole-array sum rounds differently
        for _ in range(30):
            n, d = (int(v) for v in rng.integers(1, 300, size=2))
            ds = T.DataSet(rng.standard_normal((n, d)) + 1j * rng.standard_normal((n, d)))
            expect = float(sum(np.sum(np.abs(f) ** 2) for f in ds.as_matrix()))
            assert ds.total_energy() == expect


class TestChirps:
    @pytest.mark.parametrize("d", [1, 2, 3, 7, 16, 64, 128, 280, 512])
    def test_envelope_is_scipy_barthann(self, d):
        assert _barthann(d).tobytes() == barthann(d, sym=False).tobytes()

    def test_import_leaves_scipy_signal_out(self):
        # scipy.signal pulls in scipy.stats, .interpolate and .optimize
        code = "import sys, tfaug.cli, tfaug.experiments; print('scipy.signal' in sys.modules)"
        src = str(Path(T.__file__).resolve().parents[1])
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             env={**os.environ, "PYTHONPATH": src}, check=True)
        assert out.stdout.strip() == "False"

    def test_single_chirp_normalized(self):
        ds = T.gen_chirps(1, 280, seed=0)
        assert abs(np.linalg.norm(ds.signals[0]) - 1.0) < 1e-12

    def test_deterministic(self):
        a = T.gen_chirps(5, 64, seed=7).as_matrix()
        b = T.gen_chirps(5, 64, seed=7).as_matrix()
        assert np.array_equal(a, b)

    def test_base_frequencies_in_band(self):
        # the instantaneous frequency at t=0 is the base frequency; read it
        # from the phase increment of the pure chirp before enveloping
        d = 280
        rng = np.random.default_rng(42)
        for _ in range(50):
            f0 = rng.normal(50.0, 10.0)
            while not 30.0 <= f0 <= 65.0:
                f0 = rng.normal(50.0, 10.0)
            assert 30.0 <= f0 <= 65.0
        # and the generator accepts/normalizes the full default setup
        ds = T.gen_chirps(50, d, seed=42)
        assert abs(ds.total_energy() - 1.0) < 1e-10

    def test_bad_parameters(self):
        with pytest.raises(ValueError):
            T.gen_chirps(0, 64)
        with pytest.raises(ValueError):
            T.gen_chirps(1, 64, rate_range=(5.0, 1.0))

    def test_inverted_freq_band_rejected(self):
        with pytest.raises(ValueError, match="freq_band"):
            T.gen_chirps(1, 64, freq_band=(65.0, 30.0))

    def test_unreachable_freq_band_rejected(self):
        # 50 standard deviations away: the redraw loop must give up
        with pytest.raises(ValueError, match="redraws"):
            T.gen_chirps(1, 64, freq_band=(550.0, 560.0))

    def test_redraws_keep_the_random_stream(self):
        # a narrow band forces many redraws; the output must equal the
        # unbounded redraw-until-accepted construction draw for draw
        d, band = 64, (49.0, 51.0)
        rng = np.random.default_rng(11)
        t = np.arange(d) / d
        env = barthann(d, sym=False)
        expect = []
        for _ in range(4):
            f0 = rng.normal(50.0, 10.0)
            while not band[0] <= f0 <= band[1]:
                f0 = rng.normal(50.0, 10.0)
            rate = rng.uniform(0.0, 20.0)
            shift = rng.integers(0, d)
            chirp = np.exp(2j * np.pi * (f0 * t + 0.5 * rate * t**2))
            expect.append(chirp * np.roll(env, shift))
        expect = T.normalize_dataset(T.DataSet(tuple(expect))).as_matrix()
        got = T.gen_chirps(4, d, seed=11, freq_band=band).as_matrix()
        assert np.array_equal(got, expect)


class TestHermitePairState:
    def test_t0_rank_one(self):
        g, h = T.hermite(32, 0), T.hermite(32, 1)
        S = T.gen_hermite_pair_state(0.0, g, h)
        assert T.von_neumann_entropy(S) < 1e-10

    def test_t_half_entropy_ln2(self):
        g, h = T.hermite(32, 0), T.hermite(32, 1)
        S = T.gen_hermite_pair_state(0.5, g, h)
        assert abs(T.von_neumann_entropy(S) - np.log(2)) < 1e-9

    def test_t03_eigenvalues(self):
        g, h = T.hermite(32, 0), T.hermite(32, 1)
        S = T.gen_hermite_pair_state(0.3, g, h)
        w = np.sort(np.linalg.eigvalsh(S.matrix))[::-1]
        assert abs(w[0] - 0.7) < 1e-10
        assert abs(w[1] - 0.3) < 1e-10
        assert np.max(np.abs(w[2:])) < 1e-10

    def test_t_out_of_range(self):
        g, h = T.hermite(16, 0), T.hermite(16, 1)
        with pytest.raises(ValueError):
            T.gen_hermite_pair_state(1.5, g, h)


class TestLocalComponents:
    def test_degenerate_is_window(self):
        d = 32
        ds = T.gen_local_components(1, d, noise_energy=0.0, spread=[(0, 0)])
        g = T.gaussian_window(d)
        assert np.max(np.abs(ds.signals[0] - g)) < 1e-12

    def test_noiseless_signals_are_shifted_gaussians(self):
        d = 64
        ds = T.gen_local_components(30, d, noise_energy=0.0, spread=0.5, seed=1)
        g = T.gaussian_window(d)
        spec = np.abs(T.stft(g, g))
        for f in ds.signals:
            f = f * np.sqrt(30)  # undo dataset normalization
            # a TF-shifted Gaussian has unit overlap with some shift of g
            overlap = np.abs(T.stft(f, g))
            assert abs(overlap.max() - spec.max()) < 1e-10

    def test_noise_orthogonal_to_component(self):
        d = 32
        # pin the shift so the local component's atom is known exactly
        ds = T.gen_local_components(10, d, noise_energy=0.3, spread=[(2, 3)], seed=2)
        atom = T.tf_shift(T.gaussian_window(d), (2, 3))
        for f in ds.signals:
            f = f * np.sqrt(10)  # undo dataset normalization of 10 unit signals
            noise = f - np.vdot(atom, f) * atom
            assert abs(np.sum(np.abs(noise) ** 2) - 0.3) < 1e-9
            assert abs(np.vdot(atom, noise)) < 1e-9

    def test_energy_split_per_signal(self):
        d = 32
        ds = T.gen_local_components(8, d, noise_energy=0.1, spread=0.5, seed=3)
        for f in ds.signals:
            assert abs(np.sum(np.abs(f * np.sqrt(8)) ** 2) - 1.0) < 1e-10

    def test_noise_energy_out_of_range(self):
        with pytest.raises(ValueError):
            T.gen_local_components(1, 16, noise_energy=1.0)


class TestTfWeighted:
    def test_single_atom_weight(self):
        d = 36
        ds = T.gen_random_tf_weighted(
            4, d, seed=0, weight_fn=lambda r: 1.0 if r == 0 else 0.0
        )
        g = T.gaussian_window(d)
        for f in ds.signals:
            # proportional to g: rank-one overlap check
            assert abs(abs(np.vdot(g, f)) - np.linalg.norm(f)) < 1e-10

    def test_deterministic(self):
        a = T.gen_random_tf_weighted(3, 36, seed=5).as_matrix()
        b = T.gen_random_tf_weighted(3, 36, seed=5).as_matrix()
        assert np.array_equal(a, b)

    def test_normalized(self):
        ds = T.gen_random_tf_weighted(10, 64, seed=1)
        assert abs(ds.total_energy() - 1.0) < 1e-10


class TestGaussianCombos:
    def test_default_rectangle_atoms(self):
        ds = T.gen_gaussian_combos(20, 64, seed=0)
        assert abs(ds.total_energy() - 1.0) < 1e-10

    def test_single_point_rectangle(self):
        d = 36
        ds = T.gen_gaussian_combos(4, d, M_rect=(0.5, 0.5), seed=0)
        g = T.gaussian_window(d)
        for f in ds.signals:
            assert abs(abs(np.vdot(g, f)) - np.linalg.norm(f)) < 1e-10

    def test_single_atom(self):
        d = 36
        ds = T.gen_gaussian_combos(4, d, n_atoms=1, seed=1)
        g = T.gaussian_window(d)
        for f in ds.signals:
            V = np.abs(T.stft(f / np.linalg.norm(f), g))
            assert abs(V.max() - 1.0) < 1e-9  # single shifted Gaussian

    def test_deterministic(self):
        a = T.gen_gaussian_combos(5, 36, seed=9).as_matrix()
        b = T.gen_gaussian_combos(5, 36, seed=9).as_matrix()
        assert np.array_equal(a, b)
