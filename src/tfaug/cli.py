"""Command line front end.

Subcommands: gen, metrics, augment, bounds, experiment, convert.  A domain
is given by exactly one of --domain FILE and --rect W H: augment and bounds
need one, metrics takes at most one.  convert converts signal files only.
Exit codes: 0 on success, 1 when a theorem check fails, 2 on a usage or
I/O error or on input a numerical check rejects.
"""

import argparse
import json
import math
import sys
from dataclasses import asdict
from functools import cache
from pathlib import Path

import numpy as np

from .augmentation import augment_dataset, make_rect_domain
from .datasets import (
    gen_chirps,
    gen_gaussian_combos,
    gen_local_components,
    gen_random_tf_weighted,
)
from .experiments import CATALOG, ExperimentConfig, run_experiment
from .io import domain_from_json, read_signals, write_signals
from .metrics import check_bounds, effective_dimension, localize
from .operators import data_operator

GENERATORS = {
    "chirps": gen_chirps,
    "gaussian_combos": gen_gaussian_combos,
    "tf_weighted": gen_random_tf_weighted,
    "local_components": gen_local_components,
}


def _load_domain(args, d: int):
    """The domain of --domain or --rect, of which argparse admits one."""
    if args.rect:
        return make_rect_domain(d, *args.rect)
    try:
        return domain_from_json(Path(args.domain).read_text(), d)
    except (OSError, ValueError, RecursionError) as e:  # json nests too deep
        raise ValueError(f"cannot read domain {args.domain}: {e}")


def _load_signals(path):
    try:
        return read_signals(path)
    except (OSError, ValueError) as e:
        raise ValueError(f"cannot read signals {path}: {e}")


def cmd_gen(args) -> int:
    gen = GENERATORS[args.family]
    ds = gen(args.n, d=args.d, seed=args.seed)
    write_signals(args.out, ds)
    print(f"wrote {len(ds)} signals (d={ds.d}) to {args.out}")
    return 0


def cmd_metrics(args) -> int:
    ds = _load_signals(args.input)
    S = data_operator(ds)
    H, ed = effective_dimension(S)
    out = {"n_signals": len(ds), "d": ds.d, "H": H, "effective_dimension": ed}
    if args.domain or args.rect:
        dom = _load_domain(args, ds.d)
        _, a, _, H_aug = localize(S, dom)
        out["domain_measure"] = dom.measure
        out["alc"] = a
        out["H_augmented"] = H_aug
        out["effective_dimension_augmented"] = math.exp(H_aug)
    print(json.dumps(out, indent=2, sort_keys=True))
    return 0


def cmd_augment(args) -> int:
    ds = _load_signals(args.input)
    dom = _load_domain(args, ds.d)
    aug = augment_dataset(dom, ds)
    write_signals(args.out, aug)
    print(f"wrote {len(aug)} augmented signals to {args.out}")
    return 0


def bounds_report(results) -> dict:
    """The JSON printed by `tfaug bounds` for the results of check_bounds.

    "checks" lists every result in one shape, with a non-finite value (the
    NaN rhs, tol and slack of an 'inconclusive' result) as null; the other
    keys group the same values per theorem.  The ALC lemma is reported as
    lhs = ALC >= rhs.
    """
    r = {c.name: c for c in results}
    low, up = r["sandwich_lower"], r["sandwich_upper"]
    gbl_low, gbl_up = r["general_berezin_lieb_lower"], r["general_berezin_lieb_upper"]
    lemma, rank, perim = r["alc_lemma"], r["finite_rank"], r["perimeter"]
    return {
        "checks": [{k: v if not isinstance(v, float) or math.isfinite(v) else None
                    for k, v in {**asdict(c), "slack": c.slack}.items()} for c in results],
        "sandwich": {
            "lower": low.lhs, "mid": low.rhs, "upper": up.rhs,
            "slack_lower": low.slack, "slack_upper": up.slack,
            "pass": low.ok and up.ok, "tolerance": low.tol,
            "entropy_correlation_ok": r["entropy_correlation"].ok,
        },
        "alc_lower_bound": {"lhs": lemma.rhs, "rhs": lemma.lhs, "pass": lemma.ok},
        "finite_rank": {"error": rank.lhs, "bound": rank.rhs, "pass": rank.ok},
        "general_berezin_lieb": {
            "int_phi_symbol": gbl_low.rhs, "tr_phi_A": gbl_low.lhs,
            "tr_phi_fS": gbl_up.rhs, "pass": gbl_low.ok and gbl_up.ok,
        },
        "perimeter": {"alc": perim.lhs, "bound": perim.rhs, "verdict": perim.verdict},
    }


def cmd_bounds(args) -> int:
    ds = _load_signals(args.input)
    dom = _load_domain(args, ds.d)
    results = check_bounds(data_operator(ds), dom)
    print(json.dumps(bounds_report(results), indent=2, sort_keys=True, allow_nan=False))
    return 0 if all(r.ok for r in results) else 1


def cmd_experiment(args) -> int:
    conf = {}
    if args.config:
        try:
            conf = json.loads(Path(args.config).read_text())
        except (OSError, ValueError, RecursionError) as e:  # json nests too deep
            raise ValueError(f"cannot read config {args.config}: {e}")
        if not isinstance(conf, dict):
            raise ValueError(f"config {args.config} is not a JSON object")
    for key in ExperimentConfig.__dataclass_fields__:  # flags override the config
        if (value := getattr(args, key, None)) is not None:
            conf[key] = value
    if "experiment" not in conf:
        raise ValueError("provide --experiment NAME or a config with one")
    try:
        config = ExperimentConfig.from_dict(conf)
    except ValueError as e:
        raise ValueError(f"bad config: {e}")
    table, report = run_experiment(config)
    print(f"wrote {len(table)} rows to {config.csv_path}")
    checks = [bool(v) for v in report.values() if isinstance(v, (bool, np.bool_))]
    return 0 if all(checks) else 1


def cmd_convert(args) -> int:
    ds = _load_signals(args.input)
    write_signals(args.out, ds)
    print(f"wrote {len(ds)} signals to {args.out}")
    return 0


def _add_domain_args(p, required=True):
    g = p.add_mutually_exclusive_group(required=required)
    g.add_argument("--domain", help="domain description JSON file")
    g.add_argument(
        "--rect", nargs=2, type=float, metavar=("W", "H"),
        help="rectangle domain, phase units",
    )


@cache
def build_parser() -> argparse.ArgumentParser:
    """The `tfaug` argument parser, built on the first call and shared after:
    building it costs over 20 times as much as one parse, and a parse leaves
    it unchanged."""
    ap = argparse.ArgumentParser(
        prog="tfaug",
        description="Quantum harmonic analysis toolbox for time-series datasets",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate a signal dataset")
    p.add_argument("--family", choices=sorted(GENERATORS), required=True)
    p.add_argument("--n", type=int, required=True, help="number of signals")
    p.add_argument("--d", type=int, default=128, help="signal length")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True, help="output file (.csv or binary)")
    p.set_defaults(fn=cmd_gen)

    p = sub.add_parser("metrics", help="entropy and concentration metrics")
    p.add_argument("--in", dest="input", required=True, help="signal file")
    _add_domain_args(p, required=False)
    p.set_defaults(fn=cmd_metrics)

    p = sub.add_parser("augment", help="augment a dataset over a domain")
    p.add_argument("--in", dest="input", required=True, help="signal file")
    _add_domain_args(p)
    p.add_argument("--out", required=True, help="output signal file")
    p.set_defaults(fn=cmd_augment)

    p = sub.add_parser("bounds", help="run the inequality checkers")
    p.add_argument("--in", dest="input", required=True, help="signal file")
    _add_domain_args(p)
    p.set_defaults(fn=cmd_bounds)

    p = sub.add_parser(
        "experiment", help="run a catalog experiment",
        epilog="Unset values take the experiment's defaults; "
        "a flag it does not read exits 2.",
    )
    p.add_argument("--experiment", help=", ".join(sorted(CATALOG)))
    p.add_argument("--config", help="JSON config file")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--d", type=int, default=None, help="grid size")
    p.add_argument("--out", default=None, help="output directory")
    p.add_argument("--trials", type=int, default=None)
    p.add_argument("--N", type=int, default=None, help="dataset size")
    g = p.add_mutually_exclusive_group()
    g.add_argument("--svg", dest="svg", action="store_true", default=None)
    g.add_argument("--no-svg", dest="svg", action="store_false")
    p.set_defaults(fn=cmd_experiment)

    p = sub.add_parser("convert", help="convert between signal file formats")
    p.add_argument("--in", dest="input", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_convert)

    return ap


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as e:  # argparse exits 2 on a usage error, 0 after --help
        return e.code
    try:
        return args.fn(args)
    except (OSError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
