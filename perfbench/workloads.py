"""The four benchmark workloads.

Each workload makes its item list and input files from the benchmark seed,
runs one item through a public tfaug entry point (`run_experiment` or
`cli.main`), and checks the item's outputs.  `check` raises `CheckFailed`
when an invariant breaks and otherwise returns the item's named output
values, which are compared against stored references at the default seed.

The program is imported lazily (`load_program`), so that the import is
timed as part of set-up and so that a missing source tree fails cleanly.
"""

import contextlib
import io
import json
import math
import random
import struct
from collections import Counter
from pathlib import Path

DEFAULT_SEED = 0

# The catalog's three domain shapes and scales (phase units); the benchmark
# keeps its own copy so that it does not depend on program internals.
SHAPES = {"square": (2.45, 2.45), "wide": (4.0, 1.49), "tall": (1.49, 4.0)}
SCALES = (1.0, 1.3, 1.6)

SIGNAL_MAGIC = b"QHA1"

# The tolerances tfaug states in its CSV headers (and uses in its checkers),
# for outputs that carry no CSV header of their own.
TOL_IDENTITY = 1e-8
TOL_ENTROPY = 1e-7

tfaug = None  # set by load_program()


class CheckFailed(Exception):
    """An output of the program broke an invariant or a reference value."""


def load_program(src_dir):
    """Import tfaug from the source tree; returns the package."""
    global tfaug
    import sys

    if not (Path(src_dir) / "tfaug" / "__init__.py").is_file():
        raise FileNotFoundError(f"no tfaug sources under {src_dir}")
    if str(src_dir) not in sys.path:
        sys.path.insert(0, str(src_dir))
    import tfaug as pkg
    import tfaug.cli  # noqa: F401  (the CLI is an entry point the items use)
    import tfaug.experiments  # noqa: F401

    tfaug = pkg
    return pkg


def _rng(workload, seed):
    # str seeds are hashed with SHA-512, so the stream is fixed across runs
    return random.Random(f"{workload}/{seed}")


def _capture(argv):
    """Run cli.main with stdout captured; returns (exit code, stdout)."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        try:
            code = tfaug.cli.main(argv)
        except SystemExit as e:
            code = e.code if isinstance(e.code, int) else 2
    return code, buf.getvalue()


def _read_csv(path):
    """A tfaug result CSV: ({'# key=value' header}, [column line, data lines])."""
    meta, lines = {}, []
    for line in Path(path).read_text().splitlines():
        if line.startswith("# "):
            key, _, value = line[2:].partition("=")
            meta[key] = value
        elif line:
            lines.append(line)
    return meta, lines


def _tolerances(meta):
    try:
        return float(meta["tol_identity"]), float(meta["tol_entropy"])
    except (KeyError, ValueError) as e:
        raise CheckFailed(f"CSV header lacks tolerances: {e}")


def _expect(cond, msg):
    if not cond:
        raise CheckFailed(msg)


def _signal_file_header(path):
    raw = Path(path).read_bytes()[:12]
    _expect(len(raw) == 12 and raw[:4] == SIGNAL_MAGIC, f"{path}: bad signal header")
    return struct.unpack("<II", raw[4:12])


class Workload:
    """Subclasses define items, run and check, and may extend prepare."""

    name = ""
    d = 0
    cycle = 1  # items per balanced round; runs stop only at round boundaries
    n_items = 16
    pairs_per_item = 0  # (S, Omega) pairs put through the bound checkers

    def items(self, seed):
        raise NotImplementedError

    def prepare(self, workdir, seed):
        """Write input files into workdir; returns the context for run/check.

        ctx["notes"] counts known defects that checks tolerate and report.
        """
        return {"workdir": Path(workdir), "notes": Counter()}

    def run(self, ctx, item):
        raise NotImplementedError

    def check(self, ctx, item, output):
        raise NotImplementedError

    @staticmethod
    def key(item):
        return "/".join(str(v) for v in item)

    def operator_bytes(self):
        return self.d * self.d * 16  # one dense complex128 d x d operator


class AlcSweep(Workload):
    """The paper's headline experiment, one trial per item."""

    name = "alc_sweep"
    d = 280
    N = 50
    n_items = 16

    def items(self, seed):
        rng = _rng(self.name, seed)
        return [("chirp_alc", rng.randrange(2**31)) for _ in range(self.n_items)]

    def prepare(self, workdir, seed):
        ctx = super().prepare(workdir, seed)
        ctx["measure"] = {
            (name, scale): tfaug.make_rect_domain(self.d, w * scale, h * scale).measure
            for name, (w, h) in SHAPES.items()
            for scale in SCALES
        }
        return ctx

    def run(self, ctx, item):
        experiment, s = item
        out = ctx["workdir"] / "alc"
        # d is passed explicitly: the catalog remaps the default d=128 to 280
        config = tfaug.ExperimentConfig(
            experiment, d=self.d, N=self.N, trials=1, seed=s, svg=False, out=str(out)
        )
        tfaug.run_experiment(config)
        return out / f"{experiment}.csv"

    def check(self, ctx, item, output):
        meta, lines = _read_csv(output)
        _, tol_entropy = _tolerances(meta)
        _expect(meta.get("d") == str(self.d), f"CSV d={meta.get('d')}, expected {self.d}")
        _expect(meta.get("seed") == str(item[1]), f"CSV seed={meta.get('seed')}")
        header, rows = lines[0].split(","), [ln.split(",") for ln in lines[1:]]
        _expect(len(rows) == len(ctx["measure"]), f"{len(rows)} rows, expected {len(ctx['measure'])}")
        col = {c: i for i, c in enumerate(header)}
        values = {}
        for row in rows:
            name, scale = row[col["domain"]], float(row[col["scale"]])
            a, h_aug = float(row[col["alc_mean"]]), float(row[col["ed_mean"]])
            _expect(0.0 <= a <= 1.0, f"{name}@{scale}: ALC {a} outside [0, 1]")
            lower = math.log(ctx["measure"][(name, scale)]) + a
            _expect(
                lower <= h_aug + tol_entropy * max(1.0, abs(h_aug)),
                f"{name}@{scale}: ln|Omega| + ALC = {lower} exceeds H_aug = {h_aug}",
            )
            values[f"{name}@{scale}.alc"] = a
            values[f"{name}@{scale}.H_aug"] = h_aug
        return values, tol_entropy


class BoundsCheck(Workload):
    """The interactive `tfaug bounds` check on stored signal files."""

    name = "bounds_check"
    d = 128
    N = 40
    pairs_per_item = 1
    files = ("chirps_a", "chirps_b", "gaussian_combos_a", "gaussian_combos_b")

    def items(self, seed):
        rng = _rng(self.name, seed)
        items = [
            (f, shape, scale) for f in self.files for shape in SHAPES for scale in SCALES
        ]
        rng.shuffle(items)
        return items

    def prepare(self, workdir, seed):
        ctx = super().prepare(workdir, seed)
        rng = _rng(self.name + "/files", seed)
        gens = {"chirps": tfaug.gen_chirps, "gaussian_combos": tfaug.gen_gaussian_combos}
        for f in self.files:
            ds = gens[f.rsplit("_", 1)[0]](self.N, d=self.d, seed=rng.randrange(2**31))
            tfaug.write_signals(ctx["workdir"] / f"{f}.bin", ds)
        return ctx

    def run(self, ctx, item):
        f, shape, scale = item
        w, h = SHAPES[shape]
        argv = ["bounds", "--in", str(ctx["workdir"] / f"{f}.bin"),
                "--rect", repr(w * scale), repr(h * scale)]
        return _capture(argv)

    def check(self, ctx, item, output):
        code, text = output
        _expect(code == 0, f"bounds exited {code}")
        try:
            rep = json.loads(text)
        except ValueError as e:
            raise CheckFailed(f"bounds printed no JSON: {e}")
        sw, lem, fr = rep["sandwich"], rep["alc_lower_bound"], rep["finite_rank"]
        gbl, per = rep["general_berezin_lieb"], rep["perimeter"]
        _expect(sw["pass"] and sw["entropy_correlation_ok"], "entropy sandwich failed")
        tol = sw["tolerance"]
        _expect(sw["lower"] <= sw["mid"] + tol and sw["mid"] <= sw["upper"] + tol,
                f"sandwich out of order: {sw['lower']}, {sw['mid']}, {sw['upper']}")
        _expect(lem["pass"] and lem["lhs"] >= lem["rhs"] - TOL_IDENTITY, "ALC lemma failed")
        _expect(fr["pass"] and fr["error"] <= fr["bound"] + TOL_IDENTITY, "finite-rank bound failed")
        _expect(gbl["pass"], "general Berezin-Lieb inequality failed")
        _expect(per["verdict"] in ("pass", "vacuous"), f"perimeter verdict {per['verdict']}")
        _expect(0.0 <= per["alc"] <= 1.0, f"ALC {per['alc']} outside [0, 1]")
        values = {
            "lower": sw["lower"], "mid": sw["mid"], "upper": sw["upper"],
            "lemma.rhs": lem["rhs"], "finite_rank.error": fr["error"],
            "gbl.int_phi_symbol": gbl["int_phi_symbol"], "gbl.tr_phi_A": gbl["tr_phi_A"],
            "gbl.tr_phi_fS": gbl["tr_phi_fS"], "perimeter.alc": per["alc"],
        }
        return values, TOL_ENTROPY


class CorrMaps(Workload):
    """Heat-map experiments at d=512 with CSV and SVG output; no fn (x) S."""

    name = "corr_maps"
    d = 512
    experiments = ("chirp_totalcorr", "cohen_demo", "tf_weighted")
    cycle = len(experiments)
    n_items = 12

    def items(self, seed):
        rng = _rng(self.name, seed)
        # whole rounds of the three experiments keep every run's mix equal
        return [
            (experiment, rng.randrange(2**31))
            for _ in range(self.n_items // self.cycle)
            for experiment in self.experiments
        ]

    def run(self, ctx, item):
        experiment, s = item
        out = ctx["workdir"] / "maps"
        config = tfaug.ExperimentConfig(experiment, d=self.d, seed=s, svg=True, out=str(out))
        tfaug.run_experiment(config)
        return out, experiment

    def check(self, ctx, item, output):
        out, experiment = output
        meta, lines = _read_csv(out / f"{experiment}.csv")
        tol_identity, _ = _tolerances(meta)
        _expect(meta.get("d") == str(self.d), f"CSV d={meta.get('d')}, expected {self.d}")
        _expect(meta.get("seed") == str(item[1]), f"CSV seed={meta.get('seed')}")
        n_rows = len(lines) - 1
        expect_rows = 2 * self.d if experiment == "cohen_demo" else self.d
        _expect(n_rows == expect_rows, f"CSV has {n_rows} rows, expected {expect_rows}")
        report = json.loads((out / f"{experiment}.report.json").read_text())
        if experiment == "cohen_demo":
            masses = {"gauss_mass": report["gauss_mass"], "chirp_mass": report["chirp_mass"]}
            svgs = ("cohen_gauss", "cohen_chirp")
            values = dict(masses)
        else:
            masses = {"mass": report["grid_sum"] / self.d}
            svgs = (experiment,)
            values = {**masses, "grid_max": report["grid_max"]}
            _expect(0.0 < report["grid_max"] <= 1.0, f"grid_max {report['grid_max']}")
        for key, mass in masses.items():
            _expect(abs(mass - 1.0) <= tol_identity, f"{key} = {mass!r}, expected 1")
        for name in svgs:
            head = (out / f"{name}.svg").read_bytes()[:64]
            _expect(b"<svg" in head, f"{name}.svg is not an SVG document")
        return values, tol_identity


class CliRoundtrip(Workload):
    """gen -> convert bin->csv -> convert csv->bin -> metrics -> augment."""

    name = "cli_roundtrip"
    d = 128
    N = 200
    rect = (0.5, 0.5)

    def items(self, seed):
        rng = _rng(self.name, seed)
        return [("chirps", rng.randrange(2**31)) for _ in range(self.n_items)]

    def prepare(self, workdir, seed):
        ctx = super().prepare(workdir, seed)
        ctx["cells"] = tfaug.make_rect_domain(self.d, *self.rect).n_cells
        return ctx

    def run(self, ctx, item):
        family, s = item
        w = ctx["workdir"]
        a_bin, a_csv, b_bin, aug = (str(w / n) for n in ("a.bin", "a.csv", "b.bin", "aug.bin"))
        rect = [repr(v) for v in self.rect]
        steps = [
            ["gen", "--family", family, "--n", str(self.N), "--d", str(self.d),
             "--seed", str(s), "--out", a_bin],
            ["convert", "--in", a_bin, "--out", a_csv],
            ["convert", "--in", a_csv, "--out", b_bin],
            ["metrics", "--in", b_bin],
            ["augment", "--in", b_bin, "--rect", *rect, "--out", aug],
        ]
        results = []
        for argv in steps:
            code, text = _capture(argv)
            results.append((code, text))
            if code != 0:
                break
        return results

    def check(self, ctx, item, output):
        codes = [code for code, _ in output]
        _expect(codes == [0] * 5, f"step exit codes {codes}")
        w = ctx["workdir"]
        a_bin, b_bin = (w / "a.bin").read_bytes(), (w / "b.bin").read_bytes()
        _expect(len(a_bin) == len(b_bin) and a_bin[:12] == b_bin[:12],
                "bin -> csv -> bin changed the file's size or header")
        if a_bin != b_bin:
            # Known defect: the signal readers build re + 1j * im, which turns
            # a real part of -0.0 into +0.0.  Every other bit must survive;
            # the flipped zeros are counted and reported, not hidden.
            import numpy as np

            a = np.frombuffer(a_bin, "<f8", offset=12)
            b = np.frombuffer(b_bin, "<f8", offset=12)
            changed = a.view("<u8") != b.view("<u8")
            _expect(not np.any(a[changed]) and not np.any(b[changed]),
                    "bin -> csv -> bin is not bit-exact")
            ctx["notes"]["zero_sign_flips"] += int(np.count_nonzero(changed))
        d, n = struct.unpack("<II", a_bin[4:12])
        _expect((d, n) == (self.d, self.N), f"gen wrote d={d}, N={n}")
        with open(w / "a.csv") as fh:
            head = fh.readline().strip()
        _expect(head == f"# d={self.d} n={self.N}", f"CSV header {head!r}")
        d_aug, n_aug = _signal_file_header(w / "aug.bin")
        expect_n = ctx["cells"] * self.N
        _expect((d_aug, n_aug) == (self.d, expect_n),
                f"augment wrote {n_aug} signals, expected {expect_n}")
        _expect((w / "aug.bin").stat().st_size == 12 + n_aug * d_aug * 16, "augment output truncated")
        m = json.loads(output[3][1])
        H, ed = m["H"], m["effective_dimension"]
        _expect(m["n_signals"] == self.N and m["d"] == self.d, "metrics reports wrong shape")
        _expect(0.0 <= H <= math.log(min(self.N, self.d)) + TOL_ENTROPY, f"H = {H}")
        _expect(abs(ed - math.exp(H)) <= TOL_ENTROPY * ed, "ED != exp(H)")
        return {"H": H}, TOL_ENTROPY


WORKLOADS = {w.name: w for w in (AlcSweep(), BoundsCheck(), CorrMaps(), CliRoundtrip())}


def compare_reference(values, expected, tol):
    """Raise CheckFailed if any value differs from its reference beyond tol."""
    for key, ref in expected.items():
        got = values.get(key)
        _expect(got is not None, f"reference value {key} missing from output")
        _expect(abs(got - ref) <= tol * max(1.0, abs(ref)),
                f"{key} = {got!r}, reference {ref!r}")
