"""Generators for the signal families used in the experiments.

Each family is fixed: a generator is a deterministic function of N, d and
seed (and, for local components, the noise energy), and returns a DataSet
whose squared norms sum to one.  The family constants are in each
generator's docstring.
"""

from dataclasses import dataclass

import numpy as np

from .operators import HermitianOperator, tensor_product
from .tf_core import _tf_shifts, gaussian_window, signed_indices, tf_shift


@dataclass(frozen=True, eq=False)
class DataSet:
    """N equal-length signals as the rows of one read-only (N, d) complex matrix.

    Built from a 2-d array or a sequence of 1-d signals, always copied into
    a fresh, frozen, C-ordered complex128 matrix that no caller holds."""

    signals: np.ndarray

    def __post_init__(self):
        X = self.signals
        if not (isinstance(X, np.ndarray) and X.ndim == 2):
            X = [np.asarray(s) for s in X]
            if any(r.ndim != 1 or len(r) != len(X[0]) for r in X):
                raise ValueError("all signals must share one dimension")
        X = np.array(X, dtype=complex, order="C")
        X.setflags(write=False)
        object.__setattr__(self, "signals", _checked(X))

    @classmethod
    def _kept(cls, X: np.ndarray) -> "DataSet":
        """The dataset of X itself, uncopied, for the library's producers: X
        is a fresh read-only C-ordered complex128 (N, d) matrix that nothing
        else holds, or a view of immutable bytes."""
        ds = object.__new__(cls)
        ds.__dict__["signals"] = _checked(X)
        return ds

    @property
    def d(self) -> int:
        return self.signals.shape[1]

    def __len__(self) -> int:
        return len(self.signals)


def _checked(X: np.ndarray) -> np.ndarray:
    if len(X) == 0:
        raise ValueError("dataset must be nonempty")
    if X.shape[1] < 1:
        raise ValueError("signals must have at least one sample")
    return X


def _total_energy(X: np.ndarray) -> float:
    # row sums added in row order: the bits of a per-signal loop
    return float(sum(np.sum(np.abs(X) ** 2, axis=1)))


def normalize_dataset(dataset: DataSet) -> DataSet:
    """Globally rescale so the squared norms sum to one."""
    return _normalized(dataset.signals.copy())


def _normalized(X: np.ndarray) -> DataSet:
    """The dataset of X scaled in place to unit total energy, for a fresh
    (N, d) complex matrix X that nothing else holds."""
    total = _total_energy(X)
    if total <= 0:
        raise ValueError("cannot normalize an all-zero dataset")
    X *= total**-0.5
    X.setflags(write=False)
    return DataSet._kept(X)


def _rng(N: int, d: int, seed: int) -> np.random.Generator:
    """The generator's RNG, once the arguments every generator takes are checked."""
    for name, value, low in (("N", N, 1), ("d", d, 1), ("seed", seed, 0)):
        if value < low:
            raise ValueError(f"need {name} >= {low}, got {value}")
    return np.random.default_rng(seed)


def _barthann(d: int) -> np.ndarray:
    """The periodic Bartlett-Hann window, bit for bit scipy's
    `barthann(d, sym=False)`, without importing `scipy.signal`."""
    if d == 1:
        return np.ones(1)
    fac = np.abs(np.arange(d) / d - 0.5)
    return 0.62 - 0.48 * fac + 0.38 * np.cos(2 * np.pi * fac)


def gen_chirps(N: int, d: int, seed: int = 0) -> DataSet:
    """Time-localized analytic chirps under rotated Bartlett-Hanning envelopes.

    The d samples are read as one second at d Hz.  Each signal draws, in
    turn, its base frequency from N(50, 10^2), redrawn until it lands in
    [30, 65] Hz (about 91% of draws do), its sweep rate uniformly from
    [0, 20) Hz per second, and the rotation of its envelope uniformly from
    the d samples.
    """
    rng = _rng(N, d, seed)
    f0, rate, shift = np.empty(N), np.empty(N), np.empty(N, dtype=np.int64)
    for i in range(N):
        f0[i] = rng.normal(50.0, 10.0)
        while not 30.0 <= f0[i] <= 65.0:
            f0[i] = rng.normal(50.0, 10.0)
        rate[i] = rng.uniform(0.0, 20.0)
        shift[i] = rng.integers(0, d)
    t = np.arange(d) / d
    # row i: the chirp times the envelope rotated by shift[i]
    X = (np.exp(2j * np.pi * (f0[:, None] * t + 0.5 * rate[:, None] * t**2))
         * _barthann(d)[(np.arange(d) - shift[:, None]) % d])
    return _normalized(X)


def gen_hermite_pair_state(t: float, g: np.ndarray, h: np.ndarray) -> HermitianOperator:
    """Interpolated two-state operator (1-t) g(x)g + t h(x)h, trace one."""
    if not 0.0 <= t <= 1.0:
        raise ValueError(f"t must lie in [0, 1], got {t}")
    for v in (g, h):
        if abs(np.linalg.norm(v) - 1.0) > 1e-8:
            raise ValueError("g and h must be unit vectors")
    return HermitianOperator((1 - t) * tensor_product(g, g) + t * tensor_product(h, h))


def _near_origin_cells(d: int) -> np.ndarray:
    """Grid cells whose centered phase coordinates lie within 0.5 phase units
    of the origin; the origin is always one."""
    sq = (signed_indices(d) / np.sqrt(d)) ** 2
    return np.argwhere(sq[:, None] + sq[None, :] <= 0.25)


def gen_local_components(N: int, d: int, noise_energy: float = 0.0, seed: int = 0) -> DataSet:
    """Signals f_i = c_i pi(z_i) g + noise, g the Gaussian window, z_i drawn
    uniformly from the grid cells within 0.5 phase units of the origin.

    Noiseless signals are the shifted windows themselves (c_i = 1).  With
    noise_energy > 0, c_i is (1 - noise_energy)^(1/2) times a uniformly
    random phase, and the noise is orthogonal to pi(z_i) g and carries the
    remaining energy noise_energy.
    """
    if not 0.0 <= noise_energy < 1.0:
        raise ValueError(f"noise_energy must lie in [0, 1), got {noise_energy}")
    rng = _rng(N, d, seed)
    g = gaussian_window(d)
    cells = _near_origin_cells(d)
    X = np.empty((N, d), dtype=complex)
    for i in range(N):
        atom = tf_shift(g, tuple(cells[rng.integers(0, len(cells))]))
        if noise_energy == 0:
            X[i] = atom
            continue
        c = (1 - noise_energy) ** 0.5 * np.exp(2j * np.pi * rng.uniform())
        noise = rng.standard_normal(d) + 1j * rng.standard_normal(d)
        noise -= np.vdot(atom, noise) * atom / np.vdot(atom, atom)
        noise *= (noise_energy**0.5) / np.linalg.norm(noise)
        X[i] = c * atom + noise
    return _normalized(X)


def _tf_weight(r: float) -> float:
    """Radial weight sin(2 pi r) / (1 + r)^2 at phase-space distance r."""
    return np.sin(2 * np.pi * r) * (1 + r) ** -2.0


def gen_random_tf_weighted(N: int, d: int, seed: int = 0) -> DataSet:
    """Random lattice combinations with a common time-frequency weight.

    Each signal is sum_l c_l w(|l|) pi(l) g over the 49 points l of the
    integer lattice (spacing one phase unit) within radius 4 of the origin,
    with w(r) = sin(2 pi r) / (1 + r)^2 and c_l = u exp(2 pi i v), u and v
    uniform in [0, 1).
    """
    rng = _rng(N, d, seed)
    lattice = [(a, b) for a in range(-4, 5) for b in range(-4, 5) if a * a + b * b <= 16]
    atoms = _lattice_atoms(d, lattice)
    weights = np.array([float(_tf_weight(np.hypot(a, b))) for a, b in lattice])
    coeffs = rng.uniform(size=(N, len(lattice))) * np.exp(
        2j * np.pi * rng.uniform(size=(N, len(lattice)))
    )
    X = (coeffs * weights[None, :]) @ atoms
    return _normalized(X)


def gen_gaussian_combos(N: int, d: int, seed: int = 0) -> DataSet:
    """Random combinations of three time-frequency shifted Gaussians.

    Each signal is sum_j c_j pi(l_j) g over three lattice points l_j drawn
    with replacement from (-1, 0), (0, 0) and (1, 0) (phase units), with
    c_j = u exp(2 pi i v), u and v uniform in [0, 1).
    """
    rng = _rng(N, d, seed)
    atoms = _lattice_atoms(d, [(-1, 0), (0, 0), (1, 0)])
    X = np.empty((N, d), dtype=complex)
    for i in range(N):
        picks = rng.integers(0, 3, size=3)
        c = rng.uniform(size=3) * np.exp(2j * np.pi * rng.uniform(size=3))
        X[i] = c @ atoms[picks]
    return _normalized(X)


def _lattice_atoms(d: int, lattice) -> np.ndarray:
    """Rows pi(z) g, g the Gaussian window, at the grid points
    z = (round(a sqrt d), round(b sqrt d)) mod d of the lattice points (a, b),
    in lattice order: one gather."""
    sqd = np.sqrt(d)
    m, n = np.array([(int(round(a * sqd)) % d, int(round(b * sqd)) % d) for a, b in lattice]).T
    return _tf_shifts(gaussian_window(d)[None, :], m, n)[0]
