"""Command line front end.

Subcommands: gen, metrics, augment, bounds, experiment, convert.
Exit codes: 0 on success, 1 when a theorem check fails, 2 on usage or
I/O errors.
"""

import argparse
import json
import math
import sys
from dataclasses import asdict
from pathlib import Path

from .augmentation import augment_dataset, make_rect_domain
from .datasets import (
    gen_chirps,
    gen_gaussian_combos,
    gen_local_components,
    gen_random_tf_weighted,
)
from .experiments import CATALOG, ExperimentConfig, run_experiment
from .io import domain_from_json, domain_to_json, read_signals, write_signals
from .metrics import (
    _alc_and_augmented_entropy,
    _checked_total_correlation,
    check_bounds,
    effective_dimension,
)
from .operators import data_operator

GENERATORS = {
    "chirps": gen_chirps,
    "gaussian_combos": gen_gaussian_combos,
    "tf_weighted": gen_random_tf_weighted,
    "local_components": gen_local_components,
}


def _load_domain(args):
    if args.domain:
        try:
            return domain_from_json(Path(args.domain).read_text())
        except (OSError, ValueError, KeyError) as e:
            raise SystemExit(f"error: cannot read domain {args.domain}: {e}")
    if args.rect:
        w, h = args.rect
        return make_rect_domain(args.d, w, h)
    raise SystemExit("error: provide --domain FILE or --rect W H")


def _load_signals(path):
    try:
        return read_signals(path)
    except (OSError, ValueError) as e:
        raise SystemExit(f"error: cannot read signals {path}: {e}")


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
        args.d = ds.d
        dom = _load_domain(args)
        _checked_total_correlation(S)
        a, H_aug = _alc_and_augmented_entropy(S, dom)
        out["domain_measure"] = dom.measure
        out["alc"] = a
        out["H_augmented"] = H_aug
        out["effective_dimension_augmented"] = math.exp(H_aug)
    print(json.dumps(out, indent=2, sort_keys=True))
    return 0


def cmd_augment(args) -> int:
    ds = _load_signals(args.input)
    args.d = ds.d
    dom = _load_domain(args)
    aug = augment_dataset(dom, ds)
    write_signals(args.out, aug)
    print(f"wrote {len(aug)} augmented signals to {args.out}")
    return 0


def bounds_report(results) -> dict:
    """The JSON printed by `tfaug bounds` for the results of check_bounds.

    "checks" lists every result in one shape; the other keys group the same
    values per theorem.  The ALC lemma is reported as lhs = ALC >= rhs.
    """
    r = {c.name: c for c in results}
    low, up = r["sandwich_lower"], r["sandwich_upper"]
    gbl_low, gbl_up = r["general_berezin_lieb_lower"], r["general_berezin_lieb_upper"]
    lemma, rank, perim = r["alc_lemma"], r["finite_rank"], r["perimeter"]
    return {
        "checks": [{**asdict(c), "slack": c.slack} for c in results],
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
    args.d = ds.d
    dom = _load_domain(args)
    results = check_bounds(data_operator(ds), dom)
    print(json.dumps(bounds_report(results), indent=2, sort_keys=True))
    return 0 if all(r.ok for r in results) else 1


def cmd_experiment(args) -> int:
    conf = {}
    if args.config:
        try:
            conf = json.loads(Path(args.config).read_text())
        except (OSError, ValueError) as e:
            raise SystemExit(f"error: cannot read config {args.config}: {e}")
        if not isinstance(conf, dict):
            raise SystemExit(f"error: config {args.config} is not a JSON object")
    if args.experiment:
        conf["experiment"] = args.experiment
    if "experiment" not in conf:
        raise SystemExit("error: provide --experiment NAME or a config with one")
    # command line overrides the config file
    for key in ("seed", "d", "out", "trials", "N"):
        val = getattr(args, key, None)
        if val is not None:
            conf[key] = val
    if args.svg is not None:
        conf["svg"] = args.svg
    try:
        config = ExperimentConfig.from_dict(conf)
    except (TypeError, ValueError) as e:
        raise SystemExit(f"error: bad config: {e}")
    table, report = run_experiment(config)
    print(f"wrote {len(table)} rows to {config.out}/{config.experiment}.csv")
    import numpy as np

    checks = [bool(v) for v in report.values() if isinstance(v, (bool, np.bool_))]
    return 0 if all(checks) else 1


def cmd_convert(args) -> int:
    if args.input.endswith(".json") or args.out.endswith(".json"):
        # domain description round trip
        if args.input.endswith(".json") and args.out.endswith(".json"):
            dom = domain_from_json(Path(args.input).read_text())
            Path(args.out).write_text(domain_to_json(dom) + "\n")
            print(f"wrote domain to {args.out}")
            return 0
        raise SystemExit("error: cannot convert between signals and domains")
    ds = _load_signals(args.input)
    write_signals(args.out, ds)
    print(f"wrote {len(ds)} signals to {args.out}")
    return 0


def _add_domain_args(p):
    p.add_argument("--domain", help="domain description JSON file")
    p.add_argument(
        "--rect", nargs=2, type=float, metavar=("W", "H"),
        help="rectangle domain, phase units",
    )


def build_parser() -> argparse.ArgumentParser:
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
    _add_domain_args(p)
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
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as e:
        # argparse exits 2 on usage errors already; normalize others
        raise SystemExit(2 if e.code not in (0,) else 0)
    try:
        return args.fn(args)
    except SystemExit as e:
        if isinstance(e.code, str):
            print(e.code, file=sys.stderr)
            return 2
        return e.code if e.code is not None else 0
    except (OSError, ValueError, KeyError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
