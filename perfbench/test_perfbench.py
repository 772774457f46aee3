"""Self-tests of the benchmark: seeded inputs, a correctness gate that is not
vacuous, and a tracer that sees calls made through imported names.

    python3 -m pytest perfbench
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402
import spans  # noqa: E402
import workloads as wl  # noqa: E402

wl.load_program(run.ROOT / "src")


def _inputs(workload, seed, workdir):
    workdir.mkdir(parents=True)
    workload.prepare(workdir, seed)
    files = {p.name: p.read_bytes() for p in sorted(workdir.iterdir())}
    return workload.items(seed), files


@pytest.mark.parametrize("name", sorted(wl.WORKLOADS))
def test_same_seed_gives_same_items_and_files(name, tmp_path):
    workload = wl.WORKLOADS[name]
    first = _inputs(workload, 7, tmp_path / "a")
    assert first == _inputs(workload, 7, tmp_path / "b")
    assert first[0], "no items"


@pytest.mark.parametrize("name", sorted(wl.WORKLOADS))
def test_other_seed_gives_other_inputs(name, tmp_path):
    workload = wl.WORKLOADS[name]
    assert _inputs(workload, 7, tmp_path / "a") != _inputs(workload, 8, tmp_path / "b")


def test_items_do_not_depend_on_hash_randomization():
    code = ("import workloads as wl; "
            "print(repr([w.items(7) for _, w in sorted(wl.WORKLOADS.items())]))")
    outputs = set()
    for hash_seed in ("1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed)
        proc = subprocess.run([sys.executable, "-c", code], cwd=Path(__file__).parent,
                              env=env, capture_output=True, text=True, check=True)
        outputs.add(proc.stdout)
    assert len(outputs) == 1


def test_reference_covers_every_item_of_the_default_seed():
    for name, workload in wl.WORKLOADS.items():
        keys = {workload.key(item) for item in workload.items(wl.DEFAULT_SEED)}
        assert keys == set(run.load_reference(name)), name


# -- the gate flags perturbed outputs ---------------------------------------


def _first_item(name, tmp_path, seed=wl.DEFAULT_SEED):
    workload = wl.WORKLOADS[name]
    ctx = workload.prepare(tmp_path, seed)
    runner = run.Runner(workload, ctx, workload.items(seed), seed, run.load_reference(name))
    item = runner.items[0]
    output = workload.run(ctx, item)
    assert runner.check(item, output) is None
    return runner, item, output


def _replace_in_file(path, old, new):
    text = Path(path).read_text()
    assert old in text
    Path(path).write_text(text.replace(old, new, 1))


def _alc_row(csv_path):
    lines = Path(csv_path).read_text().splitlines()
    return next(ln for ln in lines if ln.startswith("square,1.0,"))


@pytest.mark.parametrize("seed", [wl.DEFAULT_SEED, 5])
def test_gate_flags_alc_outside_unit_interval(tmp_path, seed):
    runner, item, csv = _first_item("alc_sweep", tmp_path, seed)
    row = _alc_row(csv)
    alc_value = row.split(",")[2]
    _replace_in_file(csv, row, row.replace(alc_value, "1.5", 1))
    assert "outside [0, 1]" in runner.check(item, csv)


def test_gate_flags_alc_off_its_reference(tmp_path):
    runner, item, csv = _first_item("alc_sweep", tmp_path)
    row = _alc_row(csv)
    alc_value = row.split(",")[2]
    nudged = repr(float(alc_value) * (1 + 1e-5))
    _replace_in_file(csv, row, row.replace(alc_value, nudged, 1))
    assert "reference" in runner.check(item, csv)


def test_gate_flags_failed_bounds_verdict(tmp_path):
    runner, item, (code, text) = _first_item("bounds_check", tmp_path)
    assert runner.check(item, (1, text)) is not None
    rep = json.loads(text)
    rep["sandwich"]["mid"] *= 1 + 1e-5
    assert "reference" in runner.check(item, (code, json.dumps(rep)))
    rep["sandwich"]["mid"] = rep["sandwich"]["lower"] - 1.0
    assert "out of order" in runner.check(item, (code, json.dumps(rep)))


def test_gate_flags_mass_off_one(tmp_path):
    runner, item, output = _first_item("corr_maps", tmp_path)
    out, experiment = output
    report = out / f"{experiment}.report.json"
    data = json.loads(report.read_text())
    data["grid_sum"] *= 1 + 1e-6
    report.write_text(json.dumps(data))
    assert "expected 1" in runner.check(item, output)


def test_gate_flags_roundtrip_and_count_errors(tmp_path):
    runner, item, output = _first_item("cli_roundtrip", tmp_path)
    b_bin = tmp_path / "b.bin"
    raw = bytearray(b_bin.read_bytes())
    raw[100] ^= 1
    b_bin.write_bytes(bytes(raw))
    assert "bit-exact" in runner.check(item, output)
    raw[100] ^= 1
    b_bin.write_bytes(bytes(raw))
    assert runner.check(item, output) is None
    aug = tmp_path / "aug.bin"
    aug.write_bytes(aug.read_bytes()[:-16])
    assert "truncated" in runner.check(item, output)


# -- tracer -------------------------------------------------------------------


def test_tracer_catches_calls_through_imported_names():
    import numpy as np
    import tfaug
    from tfaug import augmentation, operators

    original = operators.fn_op_convolve
    S = tfaug.data_operator(tfaug.gen_chirps(4, 16, seed=1))
    domain = tfaug.make_rect_domain(16, 2.0, 2.0)
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert augmentation.fn_op_convolve is operators.fn_op_convolve is not original
        tracer.begin_item(0)
        tfaug.mixed_state_localization(domain, S)  # reaches fn_op_convolve by import
        tfaug.von_neumann_entropy(S)
        np.linalg.eigh(np.eye(2))
        tracer.end_item()
        np.linalg.eigh(np.eye(2))  # outside an item: not counted
    finally:
        tracer.uninstall()
    assert augmentation.fn_op_convolve is operators.fn_op_convolve is original
    totals = tracer.totals()
    assert totals["operators.fn_op_convolve"][0] == 1
    assert totals["augmentation.mixed_state_localization"][0] == 1
    assert tracer.counts["operators.eigensolves"] == 2
    self_times = tracer.self_times()
    assert all(t >= -1e-9 for t in self_times)
    root = tracer.end[0] - tracer.start[0]
    assert sum(self_times) == pytest.approx(root, rel=1e-9, abs=1e-12)
