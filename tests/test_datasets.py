import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from scipy.signal.windows import barthann

import tfaug as T
from tfaug import datasets
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
        assert abs(datasets._total_energy(T.normalize_dataset(ds).signals) - 1.0) < 1e-12

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
            assert datasets._total_energy(ds.signals) == expect


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
        # phase(n) = 2 pi (f0 n / d + rate n^2 / (2 d^2)) wherever the envelope
        # is nonzero: read f0 and rate back from three samples near its peak
        d = 280
        for f in T.gen_chirps(50, d, seed=42).signals:
            a = np.abs(f)
            n = int(np.argmax(np.minimum(np.minimum(a[:-2], a[1:-1]), a[2:])))
            step = np.angle(f[n + 1] * f[n].conj())
            curve = np.angle(f[n + 2] * f[n] * f[n + 1].conj() ** 2)
            rate = d**2 * curve / (2 * np.pi)
            f0 = d * step / (2 * np.pi) - rate * (2 * n + 1) / (2 * d)
            assert 30.0 - 1e-8 <= f0 <= 65.0 + 1e-8
            assert -1e-8 <= rate <= 20.0

    def test_redraws_keep_the_random_stream(self):
        # the output equals the redraw-until-accepted construction draw for
        # draw; seed 2 redraws a base frequency below the band and one above
        d = 64
        rng = np.random.default_rng(2)
        t = np.arange(d) / d
        env = barthann(d, sym=False)
        expect, rejected = [], []
        for _ in range(4):
            f0 = rng.normal(50.0, 10.0)
            while not 30.0 <= f0 <= 65.0:
                rejected.append(f0)
                f0 = rng.normal(50.0, 10.0)
            rate = rng.uniform(0.0, 20.0)
            shift = rng.integers(0, d)
            chirp = np.exp(2j * np.pi * (f0 * t + 0.5 * rate * t**2))
            expect.append(chirp * np.roll(env, shift))
        assert min(rejected) < 30.0 and max(rejected) > 65.0
        expect = T.normalize_dataset(T.DataSet(tuple(expect))).signals
        got = T.gen_chirps(4, d, seed=2).signals
        assert np.array_equal(got, expect)

    def test_bad_parameters(self):
        with pytest.raises(ValueError):
            T.gen_chirps(0, 64)


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


@pytest.fixture
def pinned_cell(monkeypatch):
    # every local component is drawn at the one grid cell (2, 3)
    monkeypatch.setattr(datasets, "_near_origin_cells", lambda d: np.array([[2, 3]]))
    return (2, 3)


class TestLocalComponents:
    def test_degenerate_is_window(self, pinned_cell):
        d = 32
        ds = T.gen_local_components(1, d, noise_energy=0.0)
        atom = T.tf_shift(T.gaussian_window(d), pinned_cell)
        assert np.max(np.abs(ds.signals[0] - atom)) < 1e-12

    def test_noiseless_signals_are_shifted_gaussians(self):
        d = 64
        ds = T.gen_local_components(30, d, noise_energy=0.0, seed=1)
        g = T.gaussian_window(d)
        spec = np.abs(T.stft(g, g))
        for f in ds.signals:
            f = f * np.sqrt(30)  # undo dataset normalization
            # a TF-shifted Gaussian has unit overlap with some shift of g
            overlap = np.abs(T.stft(f, g))
            assert abs(overlap.max() - spec.max()) < 1e-10

    def test_noise_orthogonal_to_component(self, pinned_cell):
        d = 32
        ds = T.gen_local_components(10, d, noise_energy=0.3, seed=2)
        atom = T.tf_shift(T.gaussian_window(d), pinned_cell)
        for f in ds.signals:
            f = f * np.sqrt(10)  # undo dataset normalization of 10 unit signals
            noise = f - np.vdot(atom, f) * atom
            assert abs(np.sum(np.abs(noise) ** 2) - 0.3) < 1e-9
            assert abs(np.vdot(atom, noise)) < 1e-9

    def test_random_phase_only_with_noise(self, pinned_cell):
        # <pi(z) g, f>: real and positive without noise, a random phase with it
        d, n = 32, 8
        atom = T.tf_shift(T.gaussian_window(d), pinned_cell)
        clean = T.gen_local_components(n, d, noise_energy=0.0, seed=4).signals @ atom.conj()
        assert np.all(np.abs(clean - n**-0.5) < 1e-12)
        noisy = T.gen_local_components(n, d, noise_energy=0.1, seed=4).signals @ atom.conj()
        assert np.all(np.abs(np.abs(noisy) - (0.9 / n) ** 0.5) < 1e-12)
        assert np.max(np.abs(noisy.imag)) > 0.5 * n**-0.5

    def test_energy_split_per_signal(self):
        d = 32
        ds = T.gen_local_components(8, d, noise_energy=0.1, seed=3)
        for f in ds.signals:
            assert abs(np.sum(np.abs(f * np.sqrt(8)) ** 2) - 1.0) < 1e-10

    def test_noise_energy_out_of_range(self):
        with pytest.raises(ValueError):
            T.gen_local_components(1, 16, noise_energy=1.0)


class TestTfWeighted:
    def test_single_atom_weight(self, monkeypatch):
        d = 36
        monkeypatch.setattr(datasets, "_tf_weight", lambda r: 1.0 if r == 0 else 0.0)
        ds = T.gen_random_tf_weighted(4, d, seed=0)
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
        assert abs(datasets._total_energy(ds.signals) - 1.0) < 1e-10


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
        assert abs(datasets._total_energy(ds.signals) - 1.0) < 1e-10

    def test_single_point_rectangle(self, monkeypatch):
        # with every lattice point moved to (0, 0), each signal is a multiple of g
        lattice_atoms = datasets._lattice_atoms
        monkeypatch.setattr(datasets, "_lattice_atoms",
                            lambda d, lattice: lattice_atoms(d, [(0, 0)] * len(lattice)))
        d = 36
        ds = T.gen_gaussian_combos(4, d, seed=0)
        g = T.gaussian_window(d)
        for f in ds.signals:
            assert abs(abs(np.vdot(g, f)) - np.linalg.norm(f)) < 1e-10

    def test_single_atom(self):
        # a signal whose three draws hit one lattice point is one shifted
        # Gaussian; replay the draws to find them (seed 3 gives three)
        d, n = 36, 20
        rng = np.random.default_rng(3)
        single = []
        for _ in range(n):
            single.append(len(set(rng.integers(0, 3, size=3))) == 1)
            rng.uniform(size=6)
        assert sum(single) == 3
        g = T.gaussian_window(d)
        for f, one in zip(T.gen_gaussian_combos(n, d, seed=3).signals, single):
            peak = np.abs(T.stft(f / np.linalg.norm(f), g)).max()
            if one:
                assert abs(peak - 1.0) < 1e-9
            else:
                assert peak < 1.0 - 1e-3

    def test_signals_span_the_three_fixed_atoms(self):
        # the lattice points (-1, 0), (0, 0), (1, 0) are the time shifts
        # -6, 0, 6 of the window at d = 36; all three are drawn
        d = 36
        X = T.gen_gaussian_combos(20, d, seed=1).signals.T
        g = T.gaussian_window(d)
        A = np.stack([np.roll(g, -6), g, np.roll(g, 6)], axis=1)
        coef = np.linalg.lstsq(A, X, rcond=None)[0]
        assert np.max(np.abs(A @ coef - X)) < 1e-10
        assert np.linalg.matrix_rank(X) == 3

    def test_deterministic(self):
        a = T.gen_gaussian_combos(5, 36, seed=9).signals
        b = T.gen_gaussian_combos(5, 36, seed=9).signals
        assert np.array_equal(a, b)
