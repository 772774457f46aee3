"""Generators for the signal families used in the experiments.

Every generator is a deterministic function of its parameters and seed, and
returns a DataSet whose squared norms sum to one.
"""

from dataclasses import dataclass

import numpy as np

from .operators import HermitianOperator, tensor_product
from .tf_core import gaussian_window, tf_shift


@dataclass(frozen=True)
class DataSet:
    """N equal-length signals as the rows of one read-only (N, d) complex
    matrix, with the provenance of their generator.  Built from a 2-d array or
    a sequence of 1-d signals; a read-only C-ordered complex array is kept,
    anything else copied."""

    signals: np.ndarray
    seed: int | None = None
    label: str = ""

    def __post_init__(self):
        X = self.signals
        if len(X) == 0:
            raise ValueError("dataset must be nonempty")
        if not (isinstance(X, np.ndarray) and X.ndim == 2):
            rows = [np.asarray(s) for s in X]
            if any(r.ndim != 1 or len(r) != len(rows[0]) for r in rows):
                raise ValueError("all signals must share one dimension")
            X = np.stack(rows)
        if X.shape[1] < 1:
            raise ValueError("signals must have at least one sample")
        if X.flags.writeable or not X.flags.c_contiguous or X.dtype != complex:
            X = np.array(X, dtype=complex, order="C")
            X.setflags(write=False)
        object.__setattr__(self, "signals", X)

    @property
    def d(self) -> int:
        return self.signals.shape[1]

    def __len__(self) -> int:
        return len(self.signals)

    def as_matrix(self) -> np.ndarray:
        """A writable copy of the signals, shape (N, d)."""
        return self.signals.copy()

    def total_energy(self) -> float:
        # row sums added in row order: the bits of a per-signal loop
        return float(sum(np.sum(np.abs(self.signals) ** 2, axis=1)))


def normalize_dataset(dataset: DataSet) -> DataSet:
    """Globally rescale so the squared norms sum to one."""
    total = dataset.total_energy()
    if total <= 0:
        raise ValueError("cannot normalize an all-zero dataset")
    return DataSet(total**-0.5 * dataset.signals, dataset.seed, dataset.label)


def _rng(seed) -> np.random.Generator:
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
    if N < 1:
        raise ValueError(f"need N >= 1, got {N}")
    lo, hi = rate_range
    if hi < lo:
        raise ValueError(f"invalid rate_range {rate_range}")
    if freq_band[1] < freq_band[0]:
        raise ValueError(f"invalid freq_band {freq_band}")
    rng = _rng(seed)
    t = np.arange(d) / d
    env = _barthann(d)
    signals = []
    for _ in range(N):
        for _ in range(MAX_FREQ_REDRAWS + 1):
            f0 = rng.normal(freq_mean, freq_std)
            if freq_band[0] <= f0 <= freq_band[1]:
                break
        else:
            raise ValueError(
                f"no base frequency in freq_band {freq_band} after "
                f"{MAX_FREQ_REDRAWS} redraws from N({freq_mean}, {freq_std}^2)"
            )
        rate = rng.uniform(lo, hi)
        shift = rng.integers(0, d)
        chirp = np.exp(2j * np.pi * (f0 * t + 0.5 * rate * t**2))
        signals.append(chirp * np.roll(env, shift))
    ds = DataSet(signals, seed, f"chirps(N={N},d={d})")
    return normalize_dataset(ds)


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
    k = np.arange(d)
    signed = np.where(k < d - k, k, k - d) / np.sqrt(d)
    mm, nn = np.meshgrid(signed, signed, indexing="ij")
    sel = mm**2 + nn**2 <= spread**2
    return np.argwhere(sel)


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
    rng = _rng(seed)
    g = gaussian_window(d) if window is None else np.asarray(window, dtype=complex)
    if np.isscalar(spread):
        cells = _near_origin_cells(d, float(spread))
    else:
        cells = np.asarray(spread, dtype=int).reshape(-1, 2)
    if len(cells) == 0:
        raise ValueError("spread selects no grid cells")
    signals = []
    for _ in range(N):
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
        signals.append(f)
    ds = DataSet(signals, seed, f"local_components(N={N},d={d},noise={noise_energy})")
    return normalize_dataset(ds)


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
    if N < 1:
        raise ValueError(f"need N >= 1, got {N}")
    rng = _rng(seed)
    g = gaussian_window(d)
    sqd = np.sqrt(d)
    half = int(max_radius)
    lattice = []
    for a in range(-half, half + 1):
        for b in range(-half, half + 1):
            if a * a + b * b <= max_radius**2:
                lattice.append((a, b))
    atoms = []
    weights = []
    for a, b in lattice:
        z_idx = (int(round(a * sqd)) % d, int(round(b * sqd)) % d)
        atoms.append(tf_shift(g, z_idx))
        weights.append(float(weight_fn(np.hypot(a, b))))
    atoms = np.stack(atoms)
    weights = np.asarray(weights)
    coeffs = rng.uniform(size=(N, len(lattice))) * np.exp(
        2j * np.pi * rng.uniform(size=(N, len(lattice)))
    )
    signals = (coeffs * weights[None, :]) @ atoms
    ds = DataSet(signals, seed, f"tf_weighted(N={N},d={d})")
    return normalize_dataset(ds)


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
    if N < 1:
        raise ValueError(f"need N >= 1, got {N}")
    w, h = M_rect
    rng = _rng(seed)
    g = gaussian_window(d)
    sqd = np.sqrt(d)
    lattice = [
        (a, b)
        for a in range(-int(w / 2), int(w / 2) + 1)
        for b in range(-int(h / 2), int(h / 2) + 1)
    ]
    if not lattice:
        raise ValueError(f"no lattice points inside rectangle {M_rect}")
    atoms = np.stack(
        [
            tf_shift(g, (int(round(a * sqd)) % d, int(round(b * sqd)) % d))
            for a, b in lattice
        ]
    )
    signals = []
    for _ in range(N):
        picks = rng.integers(0, len(lattice), size=n_atoms)
        c = rng.uniform(size=n_atoms) * np.exp(2j * np.pi * rng.uniform(size=n_atoms))
        signals.append(c @ atoms[picks])
    ds = DataSet(signals, seed, f"gaussian_combos(N={N},d={d})")
    return normalize_dataset(ds)
