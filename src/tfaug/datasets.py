"""Generators for the signal families used in the experiments.

Every generator is a deterministic function of its parameters and seed, and
returns a DataSet whose squared norms sum to one.
"""

from dataclasses import dataclass

import numpy as np

from .operators import HermitianOperator, tensor_product
from .tf_core import _tf_shifts, gaussian_window, signed_indices, tf_shift


@dataclass(frozen=True)
class DataSet:
    """N equal-length signals as the rows of one read-only (N, d) complex
    matrix, with the provenance of their generator.

    Built from a 2-d array or a sequence of 1-d signals, always copied into
    a fresh, frozen, C-ordered complex128 matrix that no caller holds."""

    signals: np.ndarray
    seed: int | None = None
    label: str = ""

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
    def _kept(cls, X: np.ndarray, seed: int | None = None, label: str = "") -> "DataSet":
        """The dataset of X itself, uncopied, for the library's producers: X
        is a fresh read-only C-ordered complex128 (N, d) matrix that nothing
        else holds, or a view of immutable bytes."""
        ds = object.__new__(cls)
        ds.__dict__.update(signals=_checked(X), seed=seed, label=label)
        return ds

    @property
    def d(self) -> int:
        return self.signals.shape[1]

    def __len__(self) -> int:
        return len(self.signals)

    def total_energy(self) -> float:
        return _total_energy(self.signals)


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
    return _normalized(dataset.signals.copy(), dataset.seed, dataset.label)


def _normalized(X: np.ndarray, seed: int | None, label: str) -> DataSet:
    """The dataset of X scaled in place to unit total energy, for a fresh
    (N, d) complex matrix X that nothing else holds."""
    total = _total_energy(X)
    if total <= 0:
        raise ValueError("cannot normalize an all-zero dataset")
    X *= total**-0.5
    X.setflags(write=False)
    return DataSet._kept(X, seed, label)


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


MAX_FREQ_REDRAWS = 10_000  # per signal; the default band needs about 1.1 draws


def gen_chirps(
    N: int,
    d: int = 280,
    seed: int = 0,
    rate_range: tuple[float, float] = (0.0, 20.0),
    freq_mean: float = 50.0,
    freq_band: tuple[float, float] = (30.0, 65.0),
    freq_std: float = 10.0,
) -> DataSet:
    """Time-localized analytic chirps under rotated Bartlett-Hanning envelopes.

    The d samples are read as one second at d Hz; base frequencies are
    normal around freq_mean, redrawn until they land in freq_band (ValueError
    after MAX_FREQ_REDRAWS redraws), and the sweep rate is uniform in
    rate_range (Hz per second).
    """
    rng = _rng(N, d, seed)
    lo, hi = rate_range
    if hi < lo:
        raise ValueError(f"invalid rate_range {rate_range}")
    if freq_band[1] < freq_band[0]:
        raise ValueError(f"invalid freq_band {freq_band}")
    f0, rate, shift = np.empty(N), np.empty(N), np.empty(N, dtype=np.int64)
    for i in range(N):
        for _ in range(MAX_FREQ_REDRAWS + 1):
            f0[i] = rng.normal(freq_mean, freq_std)
            if freq_band[0] <= f0[i] <= freq_band[1]:
                break
        else:
            raise ValueError(
                f"no base frequency in freq_band {freq_band} after "
                f"{MAX_FREQ_REDRAWS} redraws from N({freq_mean}, {freq_std}^2)"
            )
        rate[i] = rng.uniform(lo, hi)
        shift[i] = rng.integers(0, d)
    t = np.arange(d) / d
    # row i: the chirp times the envelope rotated by shift[i]
    X = (np.exp(2j * np.pi * (f0[:, None] * t + 0.5 * rate[:, None] * t**2))
         * _barthann(d)[(np.arange(d) - shift[:, None]) % d])
    return _normalized(X, seed, f"chirps(N={N},d={d})")


def gen_hermite_pair_state(t: float, g: np.ndarray, h: np.ndarray) -> HermitianOperator:
    """Interpolated two-state operator (1-t) g(x)g + t h(x)h, trace one."""
    if not 0.0 <= t <= 1.0:
        raise ValueError(f"t must lie in [0, 1], got {t}")
    for v in (g, h):
        if abs(np.linalg.norm(v) - 1.0) > 1e-8:
            raise ValueError("g and h must be unit vectors")
    return HermitianOperator((1 - t) * tensor_product(g, g) + t * tensor_product(h, h))


def _near_origin_cells(d: int, spread: float) -> np.ndarray:
    """Grid cells whose centered phase coordinates lie within radius spread."""
    sq = (signed_indices(d) / np.sqrt(d)) ** 2
    return np.argwhere(sq[:, None] + sq[None, :] <= spread**2)


def gen_local_components(
    N: int,
    d: int = 128,
    noise_energy: float = 0.0,
    spread: float = 0.5,
    seed: int = 0,
    window: np.ndarray | None = None,
    random_coeffs: bool = False,
) -> DataSet:
    """Signals f_i = c_i pi(z_i) g + noise, with the noise orthogonal to the
    shifted window and carrying a fixed energy fraction.

    spread is either a radius in phase units (cells around the origin) or an
    explicit sequence of (m, n) index pairs.  With random_coeffs the local
    component's phase is randomized; its energy share stays 1 - noise_energy.
    """
    if not 0.0 <= noise_energy < 1.0:
        raise ValueError(f"noise_energy must lie in [0, 1), got {noise_energy}")
    rng = _rng(N, d, seed)
    g = gaussian_window(d) if window is None else np.asarray(window, dtype=complex)
    if np.isscalar(spread):
        cells = _near_origin_cells(d, float(spread))
    else:
        cells = np.asarray(spread, dtype=int).reshape(-1, 2)
    if len(cells) == 0:
        raise ValueError("spread selects no grid cells")
    X = np.empty((N, d), dtype=complex)
    for i in range(N):
        z = tuple(cells[rng.integers(0, len(cells))])
        atom = tf_shift(g, z)
        c = (1 - noise_energy) ** 0.5
        if random_coeffs:
            c *= np.exp(2j * np.pi * rng.uniform())
        f = c * atom
        if noise_energy > 0:
            noise = rng.standard_normal(d) + 1j * rng.standard_normal(d)
            noise -= np.vdot(atom, noise) * atom / np.vdot(atom, atom)
            noise *= (noise_energy**0.5) / np.linalg.norm(noise)
            f = f + noise
        X[i] = f
    return _normalized(X, seed, f"local_components(N={N},d={d},noise={noise_energy})")


def default_tf_weight(z: np.ndarray) -> np.ndarray:
    """Radial weight sin(2 pi r) / (1 + r)^2 on phase-space distance r."""
    r = np.abs(z)
    return np.sin(2 * np.pi * r) * (1 + r) ** -2.0


def gen_random_tf_weighted(
    N: int,
    d: int = 128,
    seed: int = 0,
    weight_fn=default_tf_weight,
    max_radius: float = 4.0,
) -> DataSet:
    """Random lattice combinations with a common time-frequency weight.

    Each signal is sum_l c_l w(l) pi(l) g over the integer lattice (spacing
    one phase unit) within max_radius of the origin, with uniform random
    complex coefficients c_l.
    """
    rng = _rng(N, d, seed)
    half = int(max_radius)
    span = range(-half, half + 1)
    lattice = [(a, b) for a in span for b in span if a * a + b * b <= max_radius**2]
    atoms = _lattice_atoms(d, lattice)
    weights = np.array([float(weight_fn(np.hypot(a, b))) for a, b in lattice])
    coeffs = rng.uniform(size=(N, len(lattice))) * np.exp(
        2j * np.pi * rng.uniform(size=(N, len(lattice)))
    )
    X = (coeffs * weights[None, :]) @ atoms
    return _normalized(X, seed, f"tf_weighted(N={N},d={d})")


def gen_gaussian_combos(
    N: int,
    d: int = 128,
    M_rect: tuple[float, float] = (2.1875, 0.3125),
    n_atoms: int = 3,
    seed: int = 0,
) -> DataSet:
    """Random combinations of time-frequency shifted Gaussians from a small
    rectangle M (phase units, centered at the origin).

    Atom positions are drawn from the integer lattice intersected with M;
    coefficients are uniform random complex numbers.
    """
    w, h = M_rect
    rng = _rng(N, d, seed)
    lattice = [
        (a, b)
        for a in range(-int(w / 2), int(w / 2) + 1)
        for b in range(-int(h / 2), int(h / 2) + 1)
    ]
    if not lattice:
        raise ValueError(f"no lattice points inside rectangle {M_rect}")
    atoms = _lattice_atoms(d, lattice)
    X = np.empty((N, d), dtype=complex)
    for i in range(N):
        picks = rng.integers(0, len(lattice), size=n_atoms)
        c = rng.uniform(size=n_atoms) * np.exp(2j * np.pi * rng.uniform(size=n_atoms))
        X[i] = c @ atoms[picks]
    return _normalized(X, seed, f"gaussian_combos(N={N},d={d})")


def _lattice_atoms(d: int, lattice) -> np.ndarray:
    """Rows pi(z) g, g the Gaussian window, at the grid points
    z = (round(a sqrt d), round(b sqrt d)) mod d of the lattice points (a, b),
    in lattice order: one gather."""
    sqd = np.sqrt(d)
    m, n = np.array([(int(round(a * sqd)) % d, int(round(b * sqd)) % d) for a, b in lattice]).T
    return _tf_shifts(gaussian_window(d)[None, :], m, n)[0]
