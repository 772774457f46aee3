#!/usr/bin/env python3
"""Benchmark of tfaug: one workload, one closed-loop client, one process.

Run from the repository root:

    python3 perfbench/run.py --workload alc_sweep --seed 0 --seconds 20 --trace 0

The client sends the next item only when the previous one has finished.
Items go through the public entry points `tfaug.run_experiment` and
`tfaug.cli.main` only, and every item's outputs are checked (see
workloads.py).  The BLAS thread count is fixed before numpy loads.

`--trace 0` reports the end-to-end metrics.  Set-up (import, input
generation and one warm-up item) is measured in this process and in
SETUP_REPEATS - 1 fresh child processes, and the median is reported.
`--trace 1` runs each item twice, untraced and with spans around every
public tfaug function (spans.py), and reports per-layer metrics per traced
item and the tracing overhead; the spans are written under RUNS_DIR.

Every line but the last is informational: the environment, the sample
counts and every item's latency.  The last line of stdout is one JSON
object: {"correct", "attempted", "failed", "metrics"}.  A run exits 0 with
that line whenever it could set up; items that raise, exit non-zero or
fail a check are counted in "failed".  Without the tfaug sources it exits 2.
"""

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import traceback
from pathlib import Path
from time import perf_counter

import workloads as wl
from spans import LAYERS, Tracer

ROOT = Path(__file__).resolve().parents[1]
RUNS_DIR = ROOT / ".perfbench_runs"
REFERENCE = Path(__file__).resolve().with_name("reference.json")

# One BLAS thread (at most nproc): the steadiest setting on a small shared
# machine, and faster than two threads for these matrix sizes.
BLAS_THREADS = 1
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_REPEATS = 3
P90_MIN_ITEMS = 100  # at least ten samples beyond the 90th percentile

# functions later changes are expected to move, traced one by one
TRACKED = (
    "operators.fn_op_convolve", "operators.op_op_convolve",
    "operators.spectral_decompose", "operators.total_correlation",
    "metrics.berezin_lieb_check", "metrics.lemma_alc_lower_bound",
    "metrics.finite_rank_error_check", "metrics.perimeter_bound_check",
    "metrics.general_berezin_lieb_check", "metrics.alc",
    "metrics.von_neumann_entropy", "experiments.run_experiment",
    "svg.heatmap_svg", "io.read_signals", "io.write_signals",
    "datasets.gen_chirps", "tf_core.tf_shift",
)


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(wl.WORKLOADS))
    ap.add_argument("--seed", type=int, default=wl.DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true",
                    help="set up once, print the set-up time and exit")
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    return args


# -- environment --------------------------------------------------------------


def _read(path):
    try:
        return Path(path).read_text().strip()
    except OSError:
        return None


def _cpu_model():
    for line in (_read("/proc/cpuinfo") or "").splitlines():
        if line.startswith("model name"):
            return line.split(":", 1)[1].strip()
    return platform.processor() or "unknown"


def _l2_size():
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        if _read(index / "level") == "2" and _read(index / "type") in ("Unified", "Data"):
            return _read(index / "size")
    return "unknown"


def _blas_threads_in_use():
    """Ask the loaded OpenBLAS for its thread count; None if not found."""
    import ctypes

    maps = _read("/proc/self/maps") or ""
    libs = sorted({ln.split()[-1] for ln in maps.splitlines() if "openblas" in ln.lower()})
    for lib in libs:
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment(workload):
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads_set": BLAS_THREADS,
        "blas_threads_in_use": _blas_threads_in_use(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "cpu": _cpu_model(),
        "l2_cache": _l2_size(),
        "workload_d": workload.d,
        "operator_bytes": workload.operator_bytes(),
    }


# -- items --------------------------------------------------------------------


class Runner:
    """Runs and checks the items of one workload; counts failures."""

    def __init__(self, workload, ctx, items, seed, reference):
        self.workload, self.ctx, self.items = workload, ctx, items
        # outputs are compared with stored values at the default seed only
        self.reference = reference if seed == wl.DEFAULT_SEED else None
        self.attempted = 0
        self.failed = 0

    def run(self, index, tracer=None):
        """Run item `index` (cycling through the list) without checking it.

        Returns (seconds, output, error); a raised exception is the error.
        """
        item = self.items[index % len(self.items)]
        output, error = None, None
        if tracer is not None:
            tracer.begin_item(index)
        start = perf_counter()
        try:
            output = self.workload.run(self.ctx, item)
        except Exception:  # the program failed on this item: count it, go on
            error = traceback.format_exc()
        elapsed = perf_counter() - start
        if tracer is not None:
            tracer.end_item()
        return elapsed, output, error

    def record(self, index, output, error):
        """Check a finished item and count it as attempted, maybe failed."""
        item = self.items[index % len(self.items)]
        if error is None:
            error = self.check(item, output)
        self.attempted += 1
        if error is not None:
            self.failed += 1
            if self.failed <= 5:
                print(f"item {index} {item} failed: {error}", file=sys.stderr)

    def fail(self, what, error):
        """Count a failed step that is not an item, such as a set-up child."""
        self.attempted += 1
        self.failed += 1
        print(f"{what} failed: {error}", file=sys.stderr)

    def one(self, index, tracer=None):
        """Run and check one item; returns its seconds."""
        elapsed, output, error = self.run(index, tracer)
        self.record(index, output, error)
        return elapsed

    def check(self, item, output):
        """None if the outputs hold every invariant and reference value."""
        try:
            values, tol = self.workload.check(self.ctx, item, output)
            if self.reference is not None:
                key = self.workload.key(item)
                if key not in self.reference:
                    raise wl.CheckFailed(f"no reference values for item {key}")
                wl.compare_reference(values, self.reference[key], tol)
        except Exception:  # a broken output may break the check in any way
            return traceback.format_exc(limit=2)
        return None

    def loop(self, seconds):
        """Closed loop over items from index 0 for `seconds`.

        The loop stops only at a whole round of the workload's item mix.
        """
        times = []
        start = perf_counter()
        while not (len(times) % self.workload.cycle == 0
                   and perf_counter() - start >= seconds):
            times.append(self.one(len(times)))
        return times


    def paired_loop(self, seconds, tracer):
        """Each item twice, untraced and traced, alternating which goes first.

        Pairing the two runs of an item keeps drift in machine speed out of
        the tracing overhead.  The tracer is installed only around traced
        items, so untraced items run the unwrapped program.
        """
        plain, traced = [], []
        start = perf_counter()
        n = 0
        while not (n % self.workload.cycle == 0 and perf_counter() - start >= seconds):
            for use_tracer in ((False, True) if n % 2 == 0 else (True, False)):
                if use_tracer:
                    tracer.install()
                    try:
                        traced.append(self.one(n, tracer))
                    finally:
                        tracer.uninstall()
                else:
                    plain.append(self.one(n))
            n += 1
        return plain, traced


def load_reference(name):
    """Stored output values of the default seed, by item key."""
    if not REFERENCE.is_file():
        return {}
    return json.loads(REFERENCE.read_text()).get(name, {})


def set_up(workload, seed, workdir):
    """Import and input generation; returns the runner."""
    wl.load_program(ROOT / "src")
    ctx = workload.prepare(workdir, seed)
    return Runner(workload, ctx, workload.items(seed), seed, load_reference(workload.name))


def child_setup_seconds(args):
    """Set-up time measured in a fresh interpreter; (seconds, error)."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-only"]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120)
    except subprocess.TimeoutExpired:  # run() has killed and reaped the child
        return None, "timed out"
    if proc.returncode != 0:
        return None, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])["setup_s"], None


def _quantile(values, q):
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def end_to_end(runner, times, setup_times):
    n = len(times)
    return {
        "setup_s": (statistics.median(setup_times), "s"),
        "items_per_s": (n / sum(times), "1/s"),
        "item_ms.p50": (1e3 * statistics.median(times), "ms"),
        "item_ms.p90": (1e3 * _quantile(times, 90), "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "ok_frac": (1.0 - runner.failed / runner.attempted, "frac"),
    }


def per_layer(workload, tracer, n_items, overhead):
    totals = tracer.totals()
    layer_calls = dict.fromkeys(LAYERS, 0)
    layer_self = dict.fromkeys(LAYERS, 0.0)
    for name, (calls, self_s) in totals.items():
        layer = name.split(".", 1)[0]
        if layer in layer_calls:
            layer_calls[layer] += calls
            layer_self[layer] += self_s
    out = {}
    for layer in LAYERS:
        out[f"{layer}.self_s"] = (layer_self[layer] / n_items, "s/item")
        out[f"{layer}.calls"] = (layer_calls[layer] / n_items, "calls/item")
    for name in TRACKED:
        calls, self_s = totals.get(name, (0, 0.0))
        out[f"{name}.calls"] = (calls / n_items, "calls/item")
        out[f"{name}.self_s"] = (self_s / n_items, "s/item")
    pairs = n_items * workload.pairs_per_item

    def per_pair(name):
        return totals.get(name, (0, 0.0))[0] / pairs if pairs else 0.0

    out["io.bytes_read"] = (tracer.counts["io.bytes_read"] / n_items, "B/item")
    out["io.bytes_written"] = (tracer.counts["io.bytes_written"] / n_items, "B/item")
    out["metrics.tc_per_pair"] = (per_pair("operators.total_correlation"), "calls/pair")
    out["metrics.loc_per_pair"] = (per_pair("operators.fn_op_convolve"), "calls/pair")
    out["operators.eigensolves_per_item"] = (
        tracer.counts["operators.eigensolves"] / n_items, "calls/item")
    out["trace.overhead_frac"] = (overhead, "frac")
    return out


def main(argv=None):
    start = perf_counter()
    args = parse_args(argv)
    for var in BLAS_ENV:
        os.environ[var] = str(BLAS_THREADS)
    workload = wl.WORKLOADS[args.workload]
    if not (ROOT / "src" / "tfaug").is_dir():
        print(f"error: no tfaug sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    RUNS_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=RUNS_DIR, prefix=f"{workload.name}-") as workdir:
        runner = set_up(workload, args.seed, workdir)
        warm_s, warm_output, warm_error = runner.run(0)
        setup_s = perf_counter() - start
        if args.setup_only:
            if warm_error is not None:
                print(warm_error, file=sys.stderr)
                return 1
            print(json.dumps({"setup_s": setup_s}))
            return 0
        runner.record(0, warm_output, warm_error)

        info = {"workload": workload.name, "seed": args.seed, "seconds": args.seconds,
                "trace": args.trace, "environment": environment(workload),
                "warmup_item_s": warm_s}
        if args.trace == 0:
            setup_times = [setup_s]
            for _ in range(SETUP_REPEATS - 1):
                child_s, error = child_setup_seconds(args)
                if error is None:
                    setup_times.append(child_s)
                else:
                    runner.fail("set-up in a child process", error)
            times = runner.loop(seconds=args.seconds)
            metrics = end_to_end(runner, times, setup_times)
            info["setup_s_samples"] = setup_times
            if len(times) < P90_MIN_ITEMS:
                info["p90_note"] = f"only {len(times)} items: p90 has fewer than 10 samples beyond it"
        else:
            tracer = Tracer()
            plain, traced = runner.paired_loop(args.seconds, tracer)
            overhead = sum(traced) / sum(plain) - 1.0
            metrics = per_layer(workload, tracer, len(traced), overhead)
            spans_file = RUNS_DIR / f"trace-{workload.name}-seed{args.seed}.csv.gz"
            tracer.write(spans_file)
            info["spans"] = len(tracer)
            info["spans_file"] = str(spans_file.relative_to(ROOT))
            times = plain + traced

    info["items"] = len(times)
    info["item_ms"] = [round(1e3 * t, 3) for t in times]
    info["known_defects"] = dict(runner.ctx["notes"])
    info["failed_frac"] = runner.failed / runner.attempted
    print(json.dumps(info, sort_keys=True))
    result = {
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
