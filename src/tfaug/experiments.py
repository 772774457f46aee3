"""Experiment catalog: reproducible runs emitting CSV (canonical), optional
SVG plots, and a JSON report.

Every run is fully determined by (config, seed): per-trial seeds are derived
as seed + trial index and trials run in order, so reruns produce
byte-identical CSV output.  `CATALOG` is the one table of experiments: each
name maps to its runner and to the sizes the runner reads (d, and N and
trials where used), with their defaults.  Every other value of a run is a
constant of its runner.
"""

import hashlib
import json
import math
from dataclasses import dataclass, asdict
from functools import partial
from pathlib import Path

import numpy as np

from . import svg
from .augmentation import make_rect_domain
from .datasets import (
    DataSet,
    gen_chirps,
    gen_gaussian_combos,
    gen_hermite_pair_state,
    gen_local_components,
    gen_random_tf_weighted,
)
from .floattext import float_chunks
from .metrics import (
    check_bounds,
    data_entropy_and_rank,
    localize,
    von_neumann_entropy,
)
from .operators import (
    HermitianOperator,
    cohen_class,
    data_operator,
    tensor_product,
    total_correlation,
)
from .tf_core import _hermite_family, gaussian_window

# the three domain shapes used across the averaging experiments:
# square, wide-in-time, narrow-in-time, each of measure about 6
DOMAIN_SHAPES = {"square": (2.45, 2.45), "wide": (4.0, 1.49), "tall": (1.49, 4.0)}
DOMAIN_SCALES = (1.0, 1.3, 1.6)


@dataclass
class ExperimentConfig:
    """Everything that determines a run; identical config means identical CSV.

    An experiment reads `d` and `seed`, and `N` and `trials` where its
    `CATALOG` entry lists them; its other values are constants of its
    runner.  `d`, `N` and `trials` default to None ("unset"), and
    construction gives each unset one the experiment's default, so the
    config, its hash and the report record the run that actually happens.
    Construction checks every field in order and raises ValueError naming
    the first bad one: an unknown experiment, a size the experiment does
    not read, a read size or seed that is not an int (a bool is not) or is
    below its least value (seed 0, N and trials 1, d the experiment's least
    d), an `out` that is not a str or an `svg` that is not a bool.
    """

    experiment: str
    d: int | None = None
    seed: int = 0
    N: int | None = None
    trials: int | None = None
    out: str = "results"
    svg: bool = True

    def __post_init__(self):
        if not isinstance(self.experiment, str) or self.experiment not in CATALOG:
            raise ValueError(
                f"unknown experiment {self.experiment!r}; "
                f"available: {', '.join(sorted(CATALOG))}"
            )
        _, defaults, least_d = CATALOG[self.experiment]
        least = {"d": least_d, "N": 1, "trials": 1}  # the sizes, None when unset
        for key in least:
            if getattr(self, key) is None:
                setattr(self, key, defaults.get(key))
            elif key not in defaults:
                raise ValueError(f"{self.experiment} does not read {key}")
        read = {key: least[key] for key in defaults} | {"seed": 0}
        for key, low in read.items():
            value = getattr(self, key)
            if type(value) is not int:
                raise ValueError(f"{key} must be an int, got {value!r}")
            if value < low:
                raise ValueError(f"{key} must be at least {low}, got {value}")
        for key, kind in (("out", str), ("svg", bool)):  # a numpy bool is no bool
            if not isinstance(value := getattr(self, key), kind):
                raise ValueError(f"{key} must be a {kind.__name__}, got {value!r}")

    @property
    def csv_path(self) -> Path:
        """The file `run_experiment` writes the table to."""
        return Path(self.out) / f"{self.experiment}.csv"

    def config_hash(self) -> str:
        """Hash of the result-determining fields (output/plumbing excluded)."""
        data = asdict(self)
        for key in ("out", "svg"):
            data.pop(key)
        blob = json.dumps(data, sort_keys=True)
        return hashlib.sha256(blob.encode()).hexdigest()[:16]

    @classmethod
    def from_dict(cls, data: dict) -> "ExperimentConfig":
        """Config from a JSON object, each of whose keys must be a field."""
        fields = cls.__dataclass_fields__
        config = cls(**{key: value for key, value in data.items() if key in fields})
        unused = sorted(set(data) - set(fields))
        if unused:
            raise ValueError(f"{config.experiment} does not read {', '.join(unused)}")
        return config


class ResultTable:
    """Rectangular numeric table with a reproducibility metadata header.

    `add` appends a mixed row (a tuple of str, int, bool, None or float);
    `add_grid` appends a real grid as one C-ordered float64 block, whose
    text `floattext.float_chunks` formats a chunk at a time.  `write`
    streams those chunks to the file, so its memory does not grow with the
    text; `to_csv` is their join.  `rows` holds the mixed rows and the
    blocks in order; `len(table)` counts CSV rows.
    """

    def __init__(self, columns, metadata=None):
        self.columns = list(columns)
        self.rows = []
        self.metadata = dict(metadata or {})

    def add(self, *values):
        if len(values) != len(self.columns):
            raise ValueError(f"expected {len(self.columns)} values, got {len(values)}")
        self.rows.append(tuple(values))

    def add_grid(self, G) -> None:
        G = np.asarray(G)
        if G.ndim != 2 or G.shape[1] != len(self.columns) or not np.isrealobj(G):
            raise ValueError(
                f"expected a real grid of {len(self.columns)} columns, "
                f"got {G.dtype} of shape {G.shape}"
            )
        if len(G):
            self.rows.append(np.array(G, dtype=np.float64, order="C"))

    def __len__(self) -> int:
        return sum(len(row) if isinstance(row, np.ndarray) else 1 for row in self.rows)

    @staticmethod
    def _fmt(v) -> str:
        if v is None:
            return ""  # inconclusive checks map to an empty field
        if isinstance(v, str):
            return v
        if isinstance(v, (bool, np.bool_)):
            return "1" if v else "0"
        if isinstance(v, (int, np.integer)):
            return str(int(v))
        return repr(float(v))

    def _chunks(self):
        """The CSV text as UTF-8 bytes: the header, then each mixed row and each
        `floattext.float_chunks` chunk of a block, every CSV line ending in '\\n'."""
        lines = [f"# {k}={v}" for k, v in sorted(self.metadata.items())]
        lines.append(",".join(self.columns))
        yield ("\n".join(lines) + "\n").encode()
        for row in self.rows:
            if isinstance(row, np.ndarray):
                yield from float_chunks(row)
                yield b"\n"
            else:
                yield (",".join(self._fmt(v) for v in row) + "\n").encode()

    def to_csv(self) -> str:
        return b"".join(self._chunks()).decode()

    def write(self, path) -> None:
        """Write the CSV text chunk by chunk: the file holds `to_csv()` encoded,
        and no more than one chunk of it is in memory at a time."""
        with open(path, "wb") as fh:
            fh.writelines(self._chunks())


def _meta(config: ExperimentConfig) -> dict:
    from . import __version__

    return {
        "experiment": config.experiment,
        "config_hash": config.config_hash(),
        "d": config.d,
        "seed": config.seed,
        "tfaug_version": __version__,
        "tol_identity": "1e-8",
        "tol_entropy": "1e-7",
    }


# --- individual experiments ---------------------------------------------


def run_hermite_interp(config: ExperimentConfig):
    d = config.d
    fam = _hermite_family(d, 9)
    dom = make_rect_domain(d, 2.45, 2.45)
    table = ResultTable(
        ["t", "H_S", "H_aug_h0_h1", "H_aug_h0_h9"], _meta(config)
    )
    ts = [round(0.05 * i, 2) for i in range(21)]
    for t in ts:
        S01 = gen_hermite_pair_state(t, fam[:, 0], fam[:, 1])
        S09 = gen_hermite_pair_state(t, fam[:, 0], fam[:, 9])
        table.add(
            t,
            von_neumann_entropy(S01),
            localize(S01, dom).entropy,
            localize(S09, dom).entropy,
        )
    report = {
        "max_H_S": max(r[1] for r in table.rows),
        "ln2": math.log(2.0),
        "pair_ordering_h9_above_h1": all(
            r[3] > r[2] for r in table.rows if 0.0 < r[0] < 1.0
        ),
    }
    curves = {
        "H(S_t)": [(r[0], r[1]) for r in table.rows],
        "H aug (h0,h1)": [(r[0], r[2]) for r in table.rows],
        "H aug (h0,h9)": [(r[0], r[3]) for r in table.rows],
    }
    fig = svg.polyline_svg(curves, "Interpolated two-state entropies", "t", "entropy")
    return table, report, {"hermite_interp": fig}


def run_chirp_ed(config: ExperimentConfig):
    """Entropy and rank of chirp datasets, plain and augmented over a square
    of side 80/sqrt(d), for N = 100, 150, ..., 400 with 5 seeds each."""
    d = config.d
    side = 80 / math.sqrt(d)
    dom = make_rect_domain(d, side, side)
    table = ResultTable(
        ["N", "seed", "rank", "H", "ED", "H_aug", "ED_aug"], _meta(config)
    )
    for N in range(100, 401, 50):
        for s_i in range(5):
            ds = gen_chirps(N, d, seed=config.seed + s_i)
            H, rank = data_entropy_and_rank(ds.signals)
            H_aug = localize(data_operator(ds), dom).entropy
            table.add(N, s_i, rank, H, math.exp(H), H_aug, math.exp(H_aug))
    by_n = {}
    for r in table.rows:
        by_n.setdefault(r[0], []).append(r[3])
    means = {n: float(np.mean(v)) for n, v in by_n.items()}
    report = {
        "H_mean_by_N": means,
        "rank_saturates_at_d": bool(max(r[2] for r in table.rows) >= d - 1),
        "aug_exceeds_plain": all(r[5] > r[3] for r in table.rows),
        "domain_measure": dom.measure,
    }
    curves = {
        "H(S)": sorted((n, h) for n, h in means.items()),
        "H augmented": sorted(
            (n, float(np.mean([r[5] for r in table.rows if r[0] == n])))
            for n in by_n
        ),
    }
    fig = svg.polyline_svg(curves, "Chirp dataset entropy vs N", "N", "entropy")
    return table, report, {"chirp_ed": fig}


def _run_totalcorr(gen, config: ExperimentConfig):
    """Heat map of S-tilde for N signals drawn by gen."""
    ds = gen(config.N, config.d, seed=config.seed)
    St = total_correlation(data_operator(ds))
    table = ResultTable([f"c{j}" for j in range(config.d)], _meta(config))
    table.add_grid(St)
    report = {"grid_max": float(St.max()), "grid_sum": float(St.sum())}
    return table, report, {config.experiment: svg.heatmap_svg(St, config.experiment)}


def _run_alc_family(gen, config: ExperimentConfig):
    """ALC and augmented entropy per domain, over trials of N signals from gen."""
    table = ResultTable(
        ["domain", "scale", "alc_mean", "alc_var", "ed_mean", "ed_var"], _meta(config)
    )
    domains = {
        (name, scale): make_rect_domain(config.d, w * scale, h * scale)
        for name, (w, h) in DOMAIN_SHAPES.items()
        for scale in DOMAIN_SCALES
    }
    results = []
    for trial in range(config.trials):
        S = data_operator(gen(config.N, config.d, seed=config.seed + trial))
        row = {}
        for key, dom in domains.items():
            _, a, _, H_aug = localize(S, dom)  # the numbers are kept, not L
            row[key] = (a, H_aug)
        results.append(row)
    summary = {}
    for name, scale in domains:
        a = np.array([r[(name, scale)][0] for r in results])
        e = np.array([r[(name, scale)][1] for r in results])
        table.add(name, scale, a.mean(), a.var(), e.mean(), e.var())
        summary[f"{name}@{scale}"] = {"alc": float(a.mean()), "ed": float(e.mean())}
    adapted_ok = all(
        summary[f"wide@{s}"]["alc"] < summary[f"{o}@{s}"]["alc"]
        and summary[f"wide@{s}"]["ed"] < summary[f"{o}@{s}"]["ed"]
        for s in DOMAIN_SCALES
        for o in ("square", "tall")
    )
    ed_grows = all(
        summary[f"{n}@1.3"]["ed"] > summary[f"{n}@1.0"]["ed"]
        and summary[f"{n}@1.6"]["ed"] > summary[f"{n}@1.3"]["ed"]
        for n in DOMAIN_SHAPES
    )
    report = {"summary": summary, "adapted_domain_wins": adapted_ok, "ed_grows_with_size": ed_grows}
    curves = {
        f"ED {name}": [(s, summary[f"{name}@{s}"]["ed"]) for s in DOMAIN_SCALES]
        for name in DOMAIN_SHAPES
    }
    fig = svg.polyline_svg(curves, "Augmented entropy vs domain scale", "scale", "entropy")
    return table, report, {config.experiment: fig}


def run_alc_vs_ed(config: ExperimentConfig):
    d = config.d
    ds = gen_chirps(config.N, d, seed=config.seed)
    S = data_operator(ds)
    table = ResultTable(
        ["domain", "scale", "measure", "lower", "H_aug"], _meta(config)
    )
    for name, (w, h) in DOMAIN_SHAPES.items():
        for scale in DOMAIN_SCALES:
            dom = make_rect_domain(d, w * scale, h * scale)
            _, a, _, H_aug = localize(S, dom)
            table.add(name, scale, dom.measure, math.log(dom.measure) + a, H_aug)
    report = {"lower_below_mid": all(r[3] <= r[4] + 1e-7 for r in table.rows)}
    curves = {
        "ln|O|+ALC": [(i, r[3]) for i, r in enumerate(table.rows)],
        "H_vN": [(i, r[4]) for i, r in enumerate(table.rows)],
    }
    fig = svg.polyline_svg(curves, "Lower bound vs augmented entropy", "setup", "entropy")
    return table, report, {"alc_vs_ed": fig}


def run_local_components(config: ExperimentConfig):
    """The 40 largest eigenvalues and the entropies of a Gaussian state's
    localization and of mixtures of 30 shifted Gaussians at noise energies
    0.0, 0.1 and 0.3."""
    d = config.d
    side = math.sqrt(15.0)
    dom = make_rect_domain(d, side, side)
    g = gaussian_window(d)
    S_classical = HermitianOperator(tensor_product(g, g))
    noise_levels, n_eigs = (0.0, 0.1, 0.3), 40
    ops = {"classical": S_classical}
    for ne in noise_levels:
        ops[f"mixed_{ne}"] = data_operator(
            gen_local_components(30, d, noise_energy=ne, seed=config.seed)
        )
    cols = ["k"] + [f"eig_{name}" for name in ops]
    table = ResultTable(cols, _meta(config))
    spectra = {}
    entropies = {}
    for name, S in ops.items():
        _, _, w, H_aug = localize(S, dom)
        spectra[name] = w[:n_eigs]
        entropies[name] = {"H_S": von_neumann_entropy(S), "H_aug": H_aug}
    for k in range(n_eigs):
        table.add(k, *(spectra[name][k] for name in ops))
    delta = abs(entropies["classical"]["H_aug"] - entropies["mixed_0.0"]["H_aug"])
    h_s = [entropies[f"mixed_{ne}"]["H_S"] for ne in noise_levels]
    h_a = [entropies[f"mixed_{ne}"]["H_aug"] for ne in noise_levels]
    report = {
        "entropies": entropies,
        "noiseless_delta": delta,
        "noiseless_delta_small": delta <= 0.15,
        "H_S_increases_with_noise": all(a < b for a, b in zip(h_s, h_s[1:])),
        "H_aug_increases_with_noise": all(a < b for a, b in zip(h_a, h_a[1:])),
        "domain_measure": dom.measure,
    }
    curves = {
        name: [(k, float(v)) for k, v in enumerate(spectra[name])] for name in ops
    }
    fig = svg.polyline_svg(curves, "Localization operator eigenvalues", "k", "eigenvalue")
    return table, report, {"local_components": fig}


def run_hermite_mix(config: ExperimentConfig):
    """Augmented entropy of h_{n-1} alone and of the first n Hermite
    functions mixed, for n = 1..16.  The crossover is the first n >= 2 where
    the mixture's lies at or below the single state's: at n = 1 both states
    are h_0, so their entropies are equal."""
    d = config.d
    dom = make_rect_domain(d, 3.0, 3.0)  # area 9
    fam = _hermite_family(d, 15)
    table = ResultTable(["n", "H_single", "H_accumulated"], _meta(config))
    for n in range(1, 17):
        hn = fam[:, n - 1]
        S_single = HermitianOperator._built(tensor_product(hn, hn))
        S_accum = HermitianOperator._built(fam[:, :n] @ fam[:, :n].conj().T / n)
        table.add(n, localize(S_single, dom).entropy, localize(S_accum, dom).entropy)
    crossover = next((r[0] for r in table.rows[1:] if r[2] <= r[1]), None)
    report = {"crossover_n": crossover, "domain_measure": dom.measure}
    curves = {
        "single h_n": [(r[0], r[1]) for r in table.rows],
        "first n mixed": [(r[0], r[2]) for r in table.rows],
    }
    fig = svg.polyline_svg(curves, "Augmented entropy: single vs accumulated", "n", "entropy")
    return table, report, {"hermite_mix": fig}


def run_cohen_demo(config: ExperimentConfig):
    d = config.d
    g = gaussian_window(d)
    Q_gauss = cohen_class(tensor_product(g, g), g)
    ds = gen_chirps(config.N, d, seed=config.seed)
    Q_chirp = cohen_class(data_operator(ds).matrix, g)
    table = ResultTable([f"c{j}" for j in range(d)], _meta(config))
    table.add_grid(Q_gauss)
    table.add_grid(Q_chirp)
    report = {
        "gauss_mass": float(Q_gauss.sum() / d),
        "chirp_mass": float(Q_chirp.sum() / d),
        "rows": "first d rows: Q for the Gaussian state; last d rows: chirp data operator",
    }
    figs = {
        "cohen_gauss": svg.heatmap_svg(Q_gauss, "Cohen class, Gaussian state"),
        "cohen_chirp": svg.heatmap_svg(Q_chirp, "Cohen class, chirp data operator"),
    }
    return table, report, figs


def _random_instance(d, rng):
    N = int(rng.integers(2, 6))
    X = rng.standard_normal((N, d)) + 1j * rng.standard_normal((N, d))
    X /= math.sqrt(float(np.sum(np.abs(X) ** 2)))
    X.setflags(write=False)
    S = data_operator(DataSet._kept(X))
    side = math.sqrt(d)
    w = float(rng.uniform(1.2, side * 0.7))
    h = float(rng.uniform(1.2, side * 0.7))
    dom = make_rect_domain(d, w, h)
    return S, dom


def run_bounds_suite(config: ExperimentConfig):
    trials = []
    for trial in range(config.trials):
        rng = np.random.default_rng(config.seed + trial)
        S, dom = _random_instance(config.d, rng)
        trials.append((dom.measure, {c.name: c for c in check_bounds(S, dom)}))
    names = list(trials[0][1])  # one verdict column per check
    table = ResultTable(
        ["trial", "measure", "lower", "mid", "upper", *names, "pass"], _meta(config)
    )
    for trial, (measure, checks) in enumerate(trials):
        low, up = checks["sandwich_lower"], checks["sandwich_upper"]
        table.add(
            trial, measure, low.lhs, low.rhs, up.rhs,
            *(c.verdict for c in checks.values()), all(c.ok for c in checks.values()),
        )
    all_ok = all(r[-1] for r in table.rows)
    report = {"n_trials": config.trials, "all_pass": all_ok}
    return table, report, {}


# name -> (runner, each of d, N and trials it reads with its default, least d).
# The least d fits each rectangle side in the torus side sqrt(d) (ALC sweeps
# 4.0 x 1.6 = 6.4, chirp_ed's 80 / sqrt(d), bounds_suite's 1.2 <= 0.7 sqrt(d)),
# 40 eigenvalues for local_components, h_15 for hermite_mix, h_9 for
# hermite_interp and d >= 4 for the Gaussian window.
CATALOG = {
    "hermite_interp": (run_hermite_interp, {"d": 128}, 10),
    "chirp_ed": (run_chirp_ed, {"d": 280}, 80),
    "chirp_totalcorr": (partial(_run_totalcorr, gen_chirps), {"d": 280, "N": 150}, 1),
    "gauss_alc": (partial(_run_alc_family, gen_gaussian_combos),
                  {"d": 128, "N": 50, "trials": 100}, 41),
    "chirp_alc": (partial(_run_alc_family, gen_chirps), {"d": 280, "N": 50, "trials": 100}, 41),
    "alc_vs_ed": (run_alc_vs_ed, {"d": 280, "N": 150}, 41),
    "local_components": (run_local_components, {"d": 128}, 40),
    "hermite_mix": (run_hermite_mix, {"d": 128}, 16),
    "tf_weighted": (partial(_run_totalcorr, gen_random_tf_weighted), {"d": 128, "N": 500}, 4),
    "cohen_demo": (run_cohen_demo, {"d": 280, "N": 150}, 4),
    "bounds_suite": (run_bounds_suite, {"d": 32, "trials": 50}, 3),
}


def run_experiment(config: ExperimentConfig) -> tuple[ResultTable, dict]:
    """Run one catalog experiment, writing CSV, report JSON and optional SVG."""
    table, report, figures = CATALOG[config.experiment][0](config)
    out_dir = Path(config.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    table.write(config.csv_path)
    full_report = {"config": asdict(config), "config_hash": config.config_hash(), **report}
    (out_dir / f"{config.experiment}.report.json").write_text(
        json.dumps(full_report, indent=2, sort_keys=True, default=float) + "\n"
    )
    if config.svg:
        for name, content in figures.items():
            (out_dir / f"{name}.svg").write_text(content)
    return table, full_report
