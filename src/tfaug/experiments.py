"""Experiment catalog: reproducible runs emitting CSV (canonical), optional
SVG plots, and a JSON report.

Every run is fully determined by (config, seed): per-trial seeds are derived
as seed + trial index and results are aggregated in trial order, so reruns
produce byte-identical CSV output.
"""

import hashlib
import json
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, asdict
from pathlib import Path

import numpy as np

from . import svg
from .augmentation import make_rect_domain, mixed_state_localization
from .datasets import (
    gen_chirps,
    gen_gaussian_combos,
    gen_hermite_pair_state,
    gen_local_components,
    gen_random_tf_weighted,
)
from .metrics import alc, check_bounds
from .operators import (
    HermitianOperator,
    cohen_class,
    data_operator,
    spectral_decompose,
    tensor_product,
    total_correlation,
)
from .tf_core import _hermite_family, gaussian_window
from .metrics import von_neumann_entropy

# the three domain shapes used across the averaging experiments:
# square, wide-in-time, narrow-in-time, each of measure about 6
DOMAIN_SHAPES = {"square": (2.45, 2.45), "wide": (4.0, 1.49), "tall": (1.49, 4.0)}
DOMAIN_SCALES = (1.0, 1.3, 1.6)


@dataclass
class ExperimentConfig:
    """Everything that determines a run; identical config means identical CSV."""

    experiment: str
    d: int = 128
    seed: int = 0
    N: int = 50
    trials: int = 100
    out: str = "results"
    svg: bool = True
    threads: int = 1
    params: dict = field(default_factory=dict)

    def config_hash(self) -> str:
        """Hash of the result-determining fields (output/plumbing excluded)."""
        data = asdict(self)
        for key in ("out", "svg", "threads"):
            data.pop(key, None)
        blob = json.dumps(data, sort_keys=True)
        return hashlib.sha256(blob.encode()).hexdigest()[:16]

    @classmethod
    def from_dict(cls, data: dict) -> "ExperimentConfig":
        known = {f for f in cls.__dataclass_fields__}
        kwargs = {k: v for k, v in data.items() if k in known}
        extra = {k: v for k, v in data.items() if k not in known}
        if extra:
            kwargs.setdefault("params", {}).update(extra)
        return cls(**kwargs)


class ResultTable:
    """Rectangular numeric table with a reproducibility metadata header."""

    def __init__(self, columns, metadata=None):
        self.columns = list(columns)
        self.rows = []
        self.metadata = dict(metadata or {})

    def add(self, *values):
        if len(values) != len(self.columns):
            raise ValueError(f"expected {len(self.columns)} values, got {len(values)}")
        self.rows.append(tuple(values))

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

    def to_csv(self) -> str:
        lines = [f"# {k}={v}" for k, v in sorted(self.metadata.items())]
        lines.append(",".join(self.columns))
        for row in self.rows:
            lines.append(",".join(self._fmt(v) for v in row))
        return "\n".join(lines) + "\n"

    def write(self, path) -> None:
        Path(path).write_text(self.to_csv())


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


def _norm_entropy(S, domain) -> float:
    """H_vN of the trace-normalized Omega-augmentation of S."""
    loc = mixed_state_localization(domain, S)
    return von_neumann_entropy(HermitianOperator(loc.matrix / domain.measure))


def _map_trials(fn, n_trials, threads):
    indices = range(n_trials)
    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            return list(pool.map(fn, indices))
    return [fn(i) for i in indices]


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
            _norm_entropy(S01, dom),
            _norm_entropy(S09, dom),
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
    d = config.d if config.d != 128 else 280
    side_cells = config.params.get("side_cells", 80)
    dom = make_rect_domain(d, side_cells / math.sqrt(d), side_cells / math.sqrt(d))
    Ns = config.params.get("N_values", [100, 150, 200, 250, 300, 350, 400])
    n_seeds = config.params.get("n_seeds", 5)
    table = ResultTable(
        ["N", "seed", "rank", "H", "ED", "H_aug", "ED_aug"], _meta(config)
    )

    def one(idx):
        n_i, s_i = divmod(idx, n_seeds)
        N = Ns[n_i]
        ds = gen_chirps(N, d, seed=config.seed + s_i)
        S = data_operator(ds)
        H = von_neumann_entropy(S)
        H_aug = _norm_entropy(S, dom)
        rank = int(np.linalg.matrix_rank(ds.as_matrix()))
        return (N, s_i, rank, H, math.exp(H), H_aug, math.exp(H_aug))

    for row in _map_trials(one, len(Ns) * n_seeds, config.threads):
        table.add(*row)
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


def _heatmap_table(F: np.ndarray, config, name):
    table = ResultTable([f"c{j}" for j in range(F.shape[1])], _meta(config))
    for row in F:
        table.add(*row)
    return table, {"grid_max": float(F.max()), "grid_sum": float(F.sum())}, {
        name: svg.heatmap_svg(F, name)
    }


def run_chirp_totalcorr(config: ExperimentConfig):
    d = config.d if config.d != 128 else 280
    ds = gen_chirps(config.params.get("N", 150), d, seed=config.seed)
    St = total_correlation(data_operator(ds).matrix)
    return _heatmap_table(St, config, "chirp_totalcorr")


def run_tf_weighted(config: ExperimentConfig):
    ds = gen_random_tf_weighted(config.params.get("N", 500), config.d, seed=config.seed)
    St = total_correlation(data_operator(ds).matrix)
    return _heatmap_table(St, config, "tf_weighted")


def _run_alc_family(config: ExperimentConfig, make_dataset, d):
    table = ResultTable(
        ["domain", "scale", "alc_mean", "alc_var", "ed_mean", "ed_var"], _meta(config)
    )
    shapes = list(DOMAIN_SHAPES.items())

    def one(trial):
        ds = make_dataset(config.seed + trial)
        S = data_operator(ds)
        St = total_correlation(S.matrix)
        out = {}
        for name, (w, h) in shapes:
            for scale in DOMAIN_SCALES:
                dom = make_rect_domain(d, w * scale, h * scale)
                out[(name, scale)] = (alc(St, dom), _norm_entropy(S, dom))
        return out

    results = _map_trials(one, config.trials, config.threads)
    summary = {}
    for name, _ in shapes:
        for scale in DOMAIN_SCALES:
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
        for n, _ in shapes
    )
    report = {"summary": summary, "adapted_domain_wins": adapted_ok, "ed_grows_with_size": ed_grows}
    curves = {
        f"ED {name}": [(s, summary[f"{name}@{s}"]["ed"]) for s in DOMAIN_SCALES]
        for name, _ in shapes
    }
    fig = svg.polyline_svg(curves, "Augmented entropy vs domain scale", "scale", "entropy")
    return table, report, {config.experiment: fig}


def run_gauss_alc(config: ExperimentConfig):
    d = config.d
    return _run_alc_family(
        config, lambda seed: gen_gaussian_combos(config.N, d, seed=seed), d
    )


def run_chirp_alc(config: ExperimentConfig):
    d = config.d if config.d != 128 else 280
    return _run_alc_family(
        config, lambda seed: gen_chirps(config.N, d, seed=seed), d
    )


def run_alc_vs_ed(config: ExperimentConfig):
    d = config.d if config.d != 128 else 280
    ds = gen_chirps(config.params.get("N", 150), d, seed=config.seed)
    S = data_operator(ds)
    St = total_correlation(S.matrix)
    table = ResultTable(
        ["domain", "scale", "measure", "lower", "H_aug"], _meta(config)
    )
    for name, (w, h) in DOMAIN_SHAPES.items():
        for scale in DOMAIN_SCALES:
            dom = make_rect_domain(d, w * scale, h * scale)
            lower = math.log(dom.measure) + alc(St, dom)
            table.add(name, scale, dom.measure, lower, _norm_entropy(S, dom))
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
    noise_levels = config.params.get("noise_levels", [0.0, 0.1, 0.3])
    n_gauss = config.params.get("n_gauss", 30)
    ops = {"classical": S_classical}
    for ne in noise_levels:
        ops[f"mixed_{ne}"] = data_operator(
            gen_local_components(
                n_gauss, d, noise_energy=ne, spread=0.5, seed=config.seed,
                random_coeffs=ne > 0,
            )
        )
    n_eigs = config.params.get("n_eigs", 40)
    cols = ["k"] + [f"eig_{name}" for name in ops]
    table = ResultTable(cols, _meta(config))
    spectra = {}
    entropies = {}
    for name, S in ops.items():
        loc = mixed_state_localization(dom, S)
        spectra[name] = spectral_decompose(loc).eigenvalues[:n_eigs]
        entropies[name] = {
            "H_S": von_neumann_entropy(S),
            "H_aug": _norm_entropy(S, dom),
        }
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
    n_max = config.params.get("n_max", 16)
    fam = _hermite_family(d, n_max - 1)
    table = ResultTable(["n", "H_single", "H_accumulated"], _meta(config))
    for n in range(1, n_max + 1):
        hn = fam[:, n - 1]
        S_single = HermitianOperator(tensor_product(hn, hn))
        S_accum = HermitianOperator(fam[:, :n] @ fam[:, :n].conj().T / n)
        table.add(n, _norm_entropy(S_single, dom), _norm_entropy(S_accum, dom))
    crossover = next((r[0] for r in table.rows if r[2] <= r[1]), None)
    report = {"crossover_n": crossover, "domain_measure": dom.measure}
    curves = {
        "single h_n": [(r[0], r[1]) for r in table.rows],
        "first n mixed": [(r[0], r[2]) for r in table.rows],
    }
    fig = svg.polyline_svg(curves, "Augmented entropy: single vs accumulated", "n", "entropy")
    return table, report, {"hermite_mix": fig}


def run_cohen_demo(config: ExperimentConfig):
    d = config.d if config.d != 128 else 280
    g = gaussian_window(d)
    Q_gauss = cohen_class(tensor_product(g, g), g)
    ds = gen_chirps(config.params.get("N", 150), d, seed=config.seed)
    Q_chirp = cohen_class(data_operator(ds).matrix, g)
    table = ResultTable([f"c{j}" for j in range(d)], _meta(config))
    for row in Q_gauss:
        table.add(*row)
    for row in Q_chirp:
        table.add(*row)
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
    S = HermitianOperator(X.T @ X.conj())
    side = math.sqrt(d)
    w = float(rng.uniform(1.2, side * 0.7))
    h = float(rng.uniform(1.2, side * 0.7))
    dom = make_rect_domain(d, w, h)
    return S, dom


def run_bounds_suite(config: ExperimentConfig):
    d = config.d if config.d != 128 else 32
    n_trials = config.trials if config.trials != 100 else 50

    def one(trial):
        rng = np.random.default_rng(config.seed + trial)
        S, dom = _random_instance(d, rng)
        return dom.measure, {c.name: c for c in check_bounds(S, dom)}

    trials = _map_trials(one, n_trials, config.threads)
    names = list(trials[0][1]) if trials else []  # one verdict column per check
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
    report = {"n_trials": n_trials, "all_pass": all_ok}
    return table, report, {}


CATALOG = {
    "hermite_interp": run_hermite_interp,
    "chirp_ed": run_chirp_ed,
    "chirp_totalcorr": run_chirp_totalcorr,
    "gauss_alc": run_gauss_alc,
    "chirp_alc": run_chirp_alc,
    "alc_vs_ed": run_alc_vs_ed,
    "local_components": run_local_components,
    "hermite_mix": run_hermite_mix,
    "tf_weighted": run_tf_weighted,
    "cohen_demo": run_cohen_demo,
    "bounds_suite": run_bounds_suite,
}


def run_experiment(config: ExperimentConfig) -> tuple[ResultTable, dict]:
    """Run one catalog experiment, writing CSV, report JSON and optional SVG."""
    if config.experiment not in CATALOG:
        raise KeyError(
            f"unknown experiment {config.experiment!r}; "
            f"available: {', '.join(sorted(CATALOG))}"
        )
    out_dir = Path(config.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    table, report, figures = CATALOG[config.experiment](config)
    table.write(out_dir / f"{config.experiment}.csv")
    full_report = {"config": asdict(config), "config_hash": config.config_hash(), **report}
    (out_dir / f"{config.experiment}.report.json").write_text(
        json.dumps(full_report, indent=2, sort_keys=True, default=float) + "\n"
    )
    if config.svg:
        for name, content in figures.items():
            (out_dir / f"{name}.svg").write_text(content)
    return table, full_report
