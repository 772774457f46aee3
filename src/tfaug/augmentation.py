"""Phase-space domains and data augmentation by time-frequency shifts.

A Domain is a non-empty boolean cell mask on the torus grid: an empty one,
such as a rectangle that selects no cell, raises ValueError when built, and
`io.domain_to_json` writes any domain so that it reads back to the same
mask.  Augmenting a dataset over a domain Omega averages the
operator-shifted data operator over the cells of Omega; dividing by the
measure |Omega| gives a trace-one operator again.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .datasets import DataSet
from .operators import HermitianOperator, _clamped, fn_op_convolve
from .tf_core import _tf_shifts, signed_indices


@dataclass(frozen=True, eq=False)
class Domain:
    """Non-empty boolean mask on the phase grid with measure and discrete
    perimeter.  `rect` is a rectangle's (width, height, center), set only by
    `make_rect_domain`, and None for any other mask."""

    mask: np.ndarray
    rect: tuple | None = field(init=False, default=None)

    def __post_init__(self):
        mask = np.array(self.mask, dtype=bool)  # copied: the caller's array stays writable
        if mask.ndim != 2 or mask.shape[0] != mask.shape[1]:
            raise ValueError(f"mask must be square 2-d, got shape {mask.shape}")
        if not mask.any():
            raise ValueError("domain is empty")
        mask.setflags(write=False)
        object.__setattr__(self, "mask", mask)

    @property
    def d(self) -> int:
        return self.mask.shape[0]

    @property
    def n_cells(self) -> int:
        return int(self.mask.sum())

    @property
    def measure(self) -> float:
        """|Omega| = (number of cells) * cell measure."""
        return self.n_cells / self.d

    @property
    def perimeter(self) -> float:
        """Boundary edges (4-neighborhood, cyclic) times the cell side."""
        m = self.mask
        edges = 0
        for axis in (0, 1):
            edges += int(np.sum(m != np.roll(m, 1, axis=axis)))
        return edges / math.sqrt(self.d)

    def cells(self) -> np.ndarray:
        """Indices (m, n) of the cells in the domain, shape (n_cells, 2)."""
        return np.argwhere(self.mask)


def make_rect_domain(
    d: int,
    width: float,
    height: float,
    center: tuple[float, float] = (0.0, 0.0),
) -> Domain:
    """Axis-aligned rectangle in phase units, cyclically embedded.

    Selects the cells whose centers lie in the closed rectangle of the given
    width (time axis) and height (frequency axis) around center; one that
    selects no cell raises ValueError.
    """
    k = signed_indices(d)
    given = {"width": float(width), "height": float(height), "center": tuple(map(float, center))}
    for name, value in given.items():
        if not np.isfinite(value).all():
            raise ValueError(f"rectangle {name} must be finite, got {value}")
    if width <= 0 or height <= 0:
        raise ValueError("width and height must be positive")
    side = math.sqrt(d)
    if width > side or height > side:
        raise ValueError(
            f"rectangle {width} x {height} exceeds the torus side {side:.4g}"
        )
    c = k / side

    def _axis_mask(extent, center_coord):
        delta = (c - center_coord + side / 2) % side - side / 2
        return np.abs(delta) <= extent / 2 + 1e-12

    tm = _axis_mask(width, center[0])
    fm = _axis_mask(height, center[1])
    domain = Domain(tm[:, None] & fm[None, :])
    object.__setattr__(domain, "rect", (width, height, tuple(center)))
    return domain


def make_cells_domain(d: int, cells) -> Domain:
    """Domain from an explicit list of (m, n) cell indices."""
    mask = _blank_mask(d)
    for m, n in cells:
        mask[m % d, n % d] = True
    return Domain(mask)


def full_domain(d: int) -> Domain:
    return Domain(~_blank_mask(d))


def _blank_mask(d: int) -> np.ndarray:
    if d < 1:
        raise ValueError(f"dimension must be positive, got {d}")
    return np.zeros((d, d), dtype=bool)


def scale_domain(domain: Domain, factor: float) -> Domain:
    """Rescale a rectangle domain's side lengths by factor."""
    if not 0.0 < factor < math.inf:
        raise ValueError(f"scale factor must be finite and positive, got {factor}")
    if domain.rect is None:
        raise ValueError("only rectangle domains can be scaled")
    width, height, center = domain.rect
    return make_rect_domain(domain.d, width * factor, height * factor, center)


def mixed_state_localization(domain: Domain, S) -> HermitianOperator:
    """chi_Omega (x) S: the operator of the Omega-augmented dataset.

    Positive with trace |Omega| and eigenvalues in [0, 1] for positive
    trace-one S.  The boolean mask is convolved as the indicator, so a
    rectangle's transform takes two 1-d FFTs.
    """
    return fn_op_convolve(domain.mask, S)


def finite_rank_approx(domain: Domain, S):
    """Rank-ceil(|Omega|) projection approximant of chi_Omega (x) S.

    Returns (T_Omega, A_Omega, trace-norm error) with T_Omega the projection
    onto the top A_Omega eigenvectors.
    """
    loc = mixed_state_localization(domain, S)
    w, V = np.linalg.eigh(loc.matrix)
    A_omega, err = _finite_rank(_clamped(w[::-1], "eigenvalue", 1e-8), domain.measure)
    V = V[:, ::-1][:, :A_omega]
    return HermitianOperator._built(V @ V.conj().T), A_omega, err


def _finite_rank(w: np.ndarray, measure: float) -> tuple[int, float]:
    """(A_Omega, ||L - T_Omega||_1) for the descending eigenvalues w of a
    localization L of trace |Omega|: A_Omega = ceil(|Omega|), and the
    trace-norm error sum_{k <= A}(1 - lambda_k) + sum_{k > A} lambda_k."""
    A_omega = int(math.ceil(measure - 1e-12))
    return A_omega, float(np.sum(1.0 - w[:A_omega]) + np.sum(w[A_omega:]))


MAX_AUGMENTED_SIGNALS = 200_000


def augment_dataset(domain: Domain, dataset: DataSet) -> DataSet:
    """Materialize the Omega-augmented dataset on the grid.

    D_Omega = {(|Omega| d)^{-1/2} pi(mu) f_i : mu a cell of Omega}, signal by
    signal, each over the cells in `domain.cells()` order; one gather over all
    of them, after the output size is checked against MAX_AUGMENTED_SIGNALS.
    Its data operator equals mixed_state_localization(Omega, S) / |Omega|.
    """
    n_out = domain.n_cells * len(dataset)
    if n_out > MAX_AUGMENTED_SIGNALS:
        raise ValueError(
            f"augmentation would produce {n_out} signals (cap {MAX_AUGMENTED_SIGNALS})"
        )
    m, n = domain.cells().T
    X = _tf_shifts(dataset.signals, m, n)
    X *= (domain.measure * domain.d) ** -0.5
    X.setflags(write=False)
    return DataSet._kept(X.reshape(-1, dataset.d))
