"""Experiment catalog: reproducible runs emitting CSV (canonical), optional
SVG plots, and a JSON report.

Every run is fully determined by (config, seed): per-trial seeds are derived
as seed + trial index and trials run in order, so reruns produce
byte-identical CSV output.  `CATALOG` is the one table of experiments: each
name maps to its runner and to every parameter the runner reads, with its
default.
"""

import hashlib
import json
import math
from dataclasses import dataclass, field, asdict
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
SIZE_FIELDS = ("d", "N", "trials")  # the config fields an experiment may read


def _at_least(low):
    return (lambda v, d: v >= low), f"be at least {low}"


# every parameter's valid range: name -> (test of a value given the config's d,
# what the test asks for); a name means the same thing in every experiment
RANGES = {
    **dict.fromkeys(("N", "trials", "n_seeds", "n_gauss"), _at_least(1)),
    "seed": _at_least(0),
    "N_values": (lambda v, d: len(v) > 0 and min(v) >= 1, "be a non-empty list of values >= 1"),
    # chirp_ed's square of side_cells / sqrt(d) must fit the torus, local_components
    # tabulates the n_eigs largest of d eigenvalues, hermite_mix the orders below n_max
    **dict.fromkeys(("side_cells", "n_eigs", "n_max"),
                    ((lambda v, d: 1 <= v <= d), "be between 1 and d = {d}")),
    # local_components reads the noiseless column as mixed_0.0 (not mixed_-0.0) and
    # the noise energy fractions in order
    "noise_levels": (
        lambda v, d: str(v[:1]) == "[0.0]" and all(a < b < 1 for a, b in zip(v, v[1:])),
        "include 0.0 as its first level and increase strictly below 1"),
}
# each experiment's least d (else 1): its rectangle sides fit the torus side sqrt(d)
# (ALC sweeps 4.0 x 1.6 = 6.4, sqrt(15), 3, bounds_suite's 1.2 <= 0.7 sqrt(d)),
# hermite_interp needs h_9 and the Gaussian window d >= 4
LEAST_D = {"gauss_alc": 41, "chirp_alc": 41, "alc_vs_ed": 41, "local_components": 15,
           "hermite_interp": 10, "hermite_mix": 9, "cohen_demo": 4, "tf_weighted": 4,
           "bounds_suite": 3}


def _same_type(value, default) -> bool:
    """value has default's type; a list's items have the type of default's items."""
    if isinstance(default, list):
        return type(value) is list and all(type(v) is type(default[0]) for v in value)
    return type(value) is type(default)


@dataclass
class ExperimentConfig:
    """Everything that determines a run; identical config means identical CSV.

    `d`, `N` and `trials` default to None ("unset").  Construction resolves
    the config against the experiment's `CATALOG` entry: unset fields and
    missing `params` keys take the experiment's defaults, so the config, its
    hash and the report record the run that actually happens.  An unknown
    experiment, a field or key the experiment does not read, a value whose
    type differs from the default's (for lists: the items' type) or a value
    outside its range in `RANGES` (for d: the experiment's `LEAST_D`) raises
    ValueError naming the parameter, the bound and the value.
    """

    experiment: str
    d: int | None = None
    seed: int = 0
    N: int | None = None
    trials: int | None = None
    out: str = "results"
    svg: bool = True
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.experiment not in CATALOG:
            raise ValueError(
                f"unknown experiment {self.experiment!r}; "
                f"available: {', '.join(sorted(CATALOG))}"
            )
        defaults = CATALOG[self.experiment][1]
        given = {k: getattr(self, k) for k in SIZE_FIELDS if getattr(self, k) is not None}
        params = {k: v for k, v in defaults.items() if k not in SIZE_FIELDS}
        unused = (set(given) - set(defaults)) | (set(self.params) - set(params))
        if unused:
            raise ValueError(f"{self.experiment} does not read {', '.join(sorted(unused))}")
        params.update(self.params)
        sizes = {k: given.get(k, defaults[k]) for k in SIZE_FIELDS if k in defaults}
        for key in SIZE_FIELDS:
            setattr(self, key, sizes.get(key))
        self.params = params
        ranges = {**RANGES, "d": _at_least(LEAST_D.get(self.experiment, 1))}
        # d first: the ranges of side_cells, n_eigs and n_max depend on it
        for key, value in {**sizes, "seed": self.seed, **params}.items():
            default = defaults.get(key, 0)
            if not _same_type(value, default):
                raise ValueError(f"{key} must have the type of {default!r}, got {value!r}")
            holds, wording = ranges[key]
            if not holds(value, self.d):
                raise ValueError(f"{key} must {wording.format(d=self.d)}, got {value!r}")

    def config_hash(self) -> str:
        """Hash of the result-determining fields (output/plumbing excluded)."""
        data = asdict(self)
        for key in ("out", "svg"):
            data.pop(key)
        blob = json.dumps(data, sort_keys=True)
        return hashlib.sha256(blob.encode()).hexdigest()[:16]

    @classmethod
    def from_dict(cls, data: dict) -> "ExperimentConfig":
        """Config from a JSON object; keys that are not fields are params."""
        fields = cls.__dataclass_fields__
        kwargs = {k: v for k, v in data.items() if k in fields}
        extra = {k: v for k, v in data.items() if k not in fields}
        kwargs["params"] = {**data.get("params", {}), **extra}
        return cls(**kwargs)


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
    d, p = config.d, config.params
    side = p["side_cells"] / math.sqrt(d)
    dom = make_rect_domain(d, side, side)
    table = ResultTable(
        ["N", "seed", "rank", "H", "ED", "H_aug", "ED_aug"], _meta(config)
    )
    for N in p["N_values"]:
        for s_i in range(p["n_seeds"]):
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
    d = config.d
    side = math.sqrt(15.0)
    dom = make_rect_domain(d, side, side)
    g = gaussian_window(d)
    S_classical = HermitianOperator(tensor_product(g, g))
    noise_levels, n_eigs = config.params["noise_levels"], config.params["n_eigs"]
    ops = {"classical": S_classical}
    for ne in noise_levels:
        ops[f"mixed_{ne}"] = data_operator(
            gen_local_components(config.params["n_gauss"], d, noise_energy=ne, seed=config.seed)
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
    d = config.d
    dom = make_rect_domain(d, 3.0, 3.0)  # area 9
    n_max = config.params["n_max"]
    fam = _hermite_family(d, n_max - 1)
    table = ResultTable(["n", "H_single", "H_accumulated"], _meta(config))
    for n in range(1, n_max + 1):
        hn = fam[:, n - 1]
        S_single = HermitianOperator._built(tensor_product(hn, hn))
        S_accum = HermitianOperator._built(fam[:, :n] @ fam[:, :n].conj().T / n)
        table.add(n, localize(S_single, dom).entropy, localize(S_accum, dom).entropy)
    crossover = next((r[0] for r in table.rows if r[2] <= r[1]), None)
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


# name -> (runner, every parameter the runner reads with its default)
CATALOG = {
    "hermite_interp": (run_hermite_interp, {"d": 128}),
    "chirp_ed": (run_chirp_ed, {
        "d": 280, "side_cells": 80, "n_seeds": 5,
        "N_values": [100, 150, 200, 250, 300, 350, 400],
    }),
    "chirp_totalcorr": (partial(_run_totalcorr, gen_chirps), {"d": 280, "N": 150}),
    "gauss_alc": (
        partial(_run_alc_family, gen_gaussian_combos), {"d": 128, "N": 50, "trials": 100}
    ),
    "chirp_alc": (partial(_run_alc_family, gen_chirps), {"d": 280, "N": 50, "trials": 100}),
    "alc_vs_ed": (run_alc_vs_ed, {"d": 280, "N": 150}),
    "local_components": (run_local_components, {
        "d": 128, "noise_levels": [0.0, 0.1, 0.3], "n_gauss": 30, "n_eigs": 40,
    }),
    "hermite_mix": (run_hermite_mix, {"d": 128, "n_max": 16}),
    "tf_weighted": (partial(_run_totalcorr, gen_random_tf_weighted), {"d": 128, "N": 500}),
    "cohen_demo": (run_cohen_demo, {"d": 280, "N": 150}),
    "bounds_suite": (run_bounds_suite, {"d": 32, "trials": 50}),
}


def run_experiment(config: ExperimentConfig) -> tuple[ResultTable, dict]:
    """Run one catalog experiment, writing CSV, report JSON and optional SVG."""
    table, report, figures = CATALOG[config.experiment][0](config)
    out_dir = Path(config.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    table.write(out_dir / f"{config.experiment}.csv")
    full_report = {"config": asdict(config), "config_hash": config.config_hash(), **report}
    (out_dir / f"{config.experiment}.report.json").write_text(
        json.dumps(full_report, indent=2, sort_keys=True, default=float) + "\n"
    )
    if config.svg:
        for name, content in figures.items():
            (out_dir / f"{name}.svg").write_text(content)
    return table, full_report
