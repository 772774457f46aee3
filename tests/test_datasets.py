import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from scipy.signal.windows import barthann

import tfaug as T
from tfaug.datasets import _barthann
from tfaug.experiments import _random_instance

from conftest import rand_dataset, rand_signal


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
    def test_signals_read_only(self, rng):
        rows = [rand_signal(rng, 8) for _ in range(3)]
        ds = T.DataSet(rows)
        assert ds.signals.shape == (3, 8) and ds.signals.dtype == np.complex128
        assert len(ds) == 3 and ds.d == 8
        with pytest.raises(ValueError):
            ds.signals[0, 0] = 1.0
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

    def test_copies_a_read_only_view_of_a_writable_array(self, rng, tmp_path):
        # a write to the base reaches neither the signals nor the factor
        base = rand_dataset(rng, 3, 16).signals.copy()
        view = base.view()
        view.setflags(write=False)
        ds = T.DataSet(view)
        S = T.data_operator(ds)
        assert ds.signals is not view and S._factor is ds.signals
        before = ds.signals.copy()
        base[0] *= 3.0
        assert np.array_equal(ds.signals, before) and np.array_equal(S._factor, before)
        # a frozen array that owns its memory is copied too: its holder can
        # make it writable again, and that write must not reach the dataset
        owned = rand_dataset(rng, 3, 16).signals.copy()
        owned.setflags(write=False)
        ds = T.DataSet(owned)
        S = T.data_operator(ds)
        before = ds.signals.copy()
        owned.setflags(write=True)
        owned[0, 0] = 9
        assert np.array_equal(ds.signals, before) and np.array_equal(S._factor, before)
        # the readers hand over their matrix uncopied: a binary file's signals
        # view its bytes, the CSV reader's its parsed array
        T.write_signals(tmp_path / "s.bin", ds)
        T.write_signals(tmp_path / "s.csv", ds)
        assert isinstance(T.read_signals(tmp_path / "s.bin").signals.base.base, bytes)
        assert T.read_signals(tmp_path / "s.csv").signals.base is not None

    def test_producers_never_copy_through_the_public_constructor(self, monkeypatch, tmp_path):
        # generators, readers and augmentation keep the one matrix they build
        ds = T.gen_chirps(3, 16)
        T.write_signals(tmp_path / "s.bin", ds)
        T.write_signals(tmp_path / "s.csv", ds)

        def refuse(self):
            raise AssertionError("copied through DataSet(...)")

        monkeypatch.setattr(T.DataSet, "__post_init__", refuse)
        made = [
            T.gen_chirps(3, 16), T.gen_local_components(3, 16, seed=1),
            T.gen_random_tf_weighted(3, 16), T.gen_gaussian_combos(3, 16),
            T.normalize_dataset(ds), T.augment_dataset(T.make_rect_domain(16, 1.5, 1.5), ds),
            T.read_signals(tmp_path / "s.bin"), T.read_signals(tmp_path / "s.csv"),
        ]
        _random_instance(16, np.random.default_rng(0))  # bounds_suite's data operator
        assert all(not m.signals.flags.writeable for m in made)

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
            expect = float(sum(np.sum(np.abs(f) ** 2) for f in ds.signals))
            assert ds.total_energy() == expect


class TestChirps:
    @pytest.mark.parametrize("d", [1, 2, 3, 7, 16, 64, 128, 280, 512])
    def test_envelope_is_scipy_barthann(self, d):
        assert _barthann(d).tobytes() == barthann(d, sym=False).tobytes()

    def test_import_leaves_scipy_signal_out(self):
        # the runtime needs numpy alone: no scipy at all, and no xml.sax,
        # whose saxutils pulls in urllib.request, http.client, ssl and email
        # (urllib and urllib.parse are loaded by the interpreter's own start-up)
        code = ("import sys, tfaug.cli, tfaug.experiments; "
                "print(' '.join(sorted(sys.modules)))")
        src = str(Path(T.__file__).resolve().parents[1])
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             env={**os.environ, "PYTHONPATH": src}, check=True)
        banned = ("scipy", "xml.sax", "urllib.request", "http", "ssl", "email")
        loaded = [m for m in out.stdout.split()
                  if any(m == b or m.startswith(b + ".") for b in banned)]
        assert loaded == []

    def test_single_chirp_normalized(self):
        ds = T.gen_chirps(1, 280, seed=0)
        assert abs(np.linalg.norm(ds.signals[0]) - 1.0) < 1e-12

    def test_deterministic(self):
        a = T.gen_chirps(5, 64, seed=7).signals
        b = T.gen_chirps(5, 64, seed=7).signals
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
        expect = T.normalize_dataset(T.DataSet(tuple(expect))).signals
        got = T.gen_chirps(4, d, seed=11, freq_band=band).signals
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
        a = T.gen_random_tf_weighted(3, 36, seed=5).signals
        b = T.gen_random_tf_weighted(3, 36, seed=5).signals
        assert np.array_equal(a, b)

    def test_normalized(self):
        ds = T.gen_random_tf_weighted(10, 64, seed=1)
        assert abs(ds.total_energy() - 1.0) < 1e-10


    def test_peak_memory_is_near_its_result(self):
        # the one (N, d) matrix is normalized in place, not copied
        tracemalloc.start()
        try:
            ds = T.gen_random_tf_weighted(500, 512)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2.5 * ds.signals.nbytes


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
        a = T.gen_gaussian_combos(5, 36, seed=9).signals
        b = T.gen_gaussian_combos(5, 36, seed=9).signals
        assert np.array_equal(a, b)
