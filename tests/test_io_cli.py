import json
import math
import os
import struct
import subprocess
import sys
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import tfaug as T
import tfaug.cli
from tfaug.cli import main
from tfaug.experiments import CATALOG, LEAST_D, RANGES
from tfaug.floattext import _CHUNK
from tfaug.io import (
    read_signals_binary,
    read_signals_csv,
    write_signals_binary,
    write_signals_csv,
)

from conftest import disk_mask, rand_dataset
from test_operators import l_shape_mask


class TestSignalFiles:
    def test_binary_round_trip_exact(self, rng, tmp_path):
        ds = rand_dataset(rng, 4, 16)
        path = tmp_path / "sig.bin"
        write_signals_binary(path, ds)
        back = read_signals_binary(path)
        assert np.array_equal(back.signals, ds.signals)

    def test_csv_round_trip_exact(self, rng, tmp_path):
        ds = rand_dataset(rng, 3, 8)
        path = tmp_path / "sig.csv"
        write_signals_csv(path, ds)
        back = read_signals_csv(path)
        assert np.array_equal(back.signals, ds.signals)

    def test_csv_text_streamed_across_chunks(self, rng, tmp_path):
        # 3 signals of 2 x 700 values: chunk ends fall inside rows
        ds = rand_dataset(rng, 3, 700)
        write_signals_csv(tmp_path / "sig.csv", ds)
        rows = [",".join(map(repr, row)) for row in ds.signals.view(np.float64).tolist()]
        expect = "# d=700 n=3\n" + "\n".join(rows) + "\n"
        assert (tmp_path / "sig.csv").read_bytes() == expect.encode()

    def test_cross_format_equal(self, rng, tmp_path):
        ds = rand_dataset(rng, 3, 8)
        write_signals_binary(tmp_path / "a.bin", ds)
        write_signals_csv(tmp_path / "a.csv", ds)
        a = read_signals_binary(tmp_path / "a.bin").signals
        b = read_signals_csv(tmp_path / "a.csv").signals
        assert np.array_equal(a, b)

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "empty.bin"
        path.write_bytes(b"")
        with pytest.raises(ValueError):
            read_signals_binary(path)

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "bad.bin"
        path.write_bytes(b"NOPE" + bytes(16))
        with pytest.raises(ValueError):
            read_signals_binary(path)

    def test_truncated_rejected(self, rng, tmp_path):
        ds = rand_dataset(rng, 2, 8)
        path = tmp_path / "sig.bin"
        write_signals_binary(path, ds)
        path.write_bytes(path.read_bytes()[:-8])
        with pytest.raises(ValueError):
            read_signals_binary(path)

    def test_negative_zero_round_trip_bytes(self, tmp_path):
        # real and imaginary parts of -0.0 must keep their sign through
        # bin -> csv -> bin, so the two binary files match byte for byte
        parts = np.array([[-0.0, 0.5, 0.5, -0.0, -0.0, -0.0, 0.0, -0.5],
                          [0.5, 0.0, -0.0, 0.5, 0.0, -0.0, -0.5, 0.0]])
        ds = T.DataSet(tuple(parts.view(np.complex128)))
        a_bin, a_csv, b_bin = (str(tmp_path / n) for n in ("a.bin", "a.csv", "b.bin"))
        write_signals_binary(a_bin, ds)
        assert main(["convert", "--in", a_bin, "--out", a_csv]) == 0
        assert main(["convert", "--in", a_csv, "--out", b_bin]) == 0
        assert (tmp_path / "b.bin").read_bytes() == (tmp_path / "a.bin").read_bytes()

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    @pytest.mark.parametrize("ext", [".bin", ".csv"])
    def test_non_finite_rejected(self, rng, tmp_path, ext, value):
        X = rand_dataset(rng, 2, 8).signals.copy()
        X[1, 3] = value
        path = tmp_path / f"sig{ext}"
        T.write_signals(path, T.DataSet(tuple(X)))
        with pytest.raises(ValueError, match="non-finite"):
            T.read_signals(path)

    def test_csv_text_is_repr_of_each_part(self, tmp_path):
        # the CSV writer formats whole rows at once; its text must equal
        # repr(float(.)) of every real and imaginary part in order
        parts = np.array([[-0.0, 5e-324, 1e16, 0.1, -1e-300, 2.0**53, 1 / 3, -0.0]])
        X = parts.view(np.complex128)
        write_signals_csv(tmp_path / "s.csv", T.DataSet(tuple(X)))
        row = ",".join(repr(float(p)) for v in X[0] for p in (v.real, v.imag))
        assert (tmp_path / "s.csv").read_text() == f"# d=4 n=1\n{row}\n"

    def test_zero_length_signals_exit_2(self, tmp_path, capsys):
        # a QHA1 header with d=0, N=5 and no samples
        src, out = tmp_path / "d0.bin", tmp_path / "x.bin"
        src.write_bytes(b"QHA1" + struct.pack("<II", 0, 5))
        assert main(["convert", "--in", str(src), "--out", str(out)]) == 2
        assert "at least one sample" in capsys.readouterr().err
        assert not out.exists()

    def test_csv_missing_header_rejected(self, tmp_path):
        path = tmp_path / "sig.csv"
        path.write_text("1.0,0.0\n")
        with pytest.raises(ValueError):
            read_signals_csv(path)

    @pytest.mark.parametrize("header, field", [("# n=1", "d"), ("# n=1 d", "d"),
                                               ("# d=1 n=x", "n")])
    def test_csv_bad_header_exit_2(self, tmp_path, capsys, header, field):
        path = tmp_path / "sig.csv"
        path.write_text(f"{header}\n1.0,0.0\n")
        assert main(["metrics", "--in", str(path)]) == 2
        err = capsys.readouterr().err
        assert str(path) in err and f"lacks a '{field}=<count>' field" in err

    @pytest.mark.parametrize("token", ["0.5x", "0.5#", "0.5 0.5", "", "nan0", '"0.5"', "0x1p0"])
    def test_csv_malformed_token_exit_2(self, tmp_path, capsys, token):
        # a token is never truncated to the float it starts with
        path = tmp_path / "sig.csv"
        path.write_text(f"# d=2 n=2\n1.0,0.0,0.0,0.0\n0.5,{token},0.0,0.0\n")
        assert main(["convert", "--in", str(path), "--out", str(tmp_path / "s.bin")]) == 2
        assert str(path) in capsys.readouterr().err
        assert not (tmp_path / "s.bin").exists()

    def test_csv_column_count_names_file(self, tmp_path):
        path = tmp_path / "sig.csv"
        path.write_text("# d=2 n=2\n1.0,0.0,0.0,0.0\n1.0,0.0,0.0\n")
        with pytest.raises(ValueError, match=f"{path}: row has 3 columns, expected 4"):
            read_signals_csv(path)

    def test_csv_reads_random_bit_patterns_exactly(self, rng, tmp_path):
        # every finite double, subnormals and -0.0 included, reads back bit for bit
        bits = rng.integers(0, 2**64, size=(40, 64), dtype=np.uint64)
        parts = bits.view(np.float64)
        parts[~np.isfinite(parts)] = -0.0
        parts[0, :4] = [-0.0, 5e-324, -2.2250738585072014e-308, 1.7976931348623157e308]
        ds = T.DataSet(parts.view(np.complex128))
        write_signals_csv(tmp_path / "s.csv", ds)
        back = read_signals_csv(tmp_path / "s.csv").signals
        assert back.tobytes() == ds.signals.tobytes()


class TestDomainJson:
    def test_rect_round_trip(self):
        dom = T.make_rect_domain(16, 2.0, 1.5, center=(0.5, 0.0))
        back = T.domain_from_json(T.domain_to_json(dom))
        assert np.array_equal(back.mask, dom.mask)

    def test_full_round_trip(self):
        dom = T.full_domain(8)
        back = T.domain_from_json(T.domain_to_json(dom))
        assert np.array_equal(back.mask, dom.mask)

    def test_cells_round_trip(self):
        dom = T.make_cells_domain(8, [(0, 0), (3, 4)])
        back = T.domain_from_json(T.domain_to_json(dom))
        assert np.array_equal(back.mask, dom.mask)

    @pytest.mark.parametrize("d", [2, 7, 16, 64])
    def test_any_mask_round_trip(self, d):
        for mask in (disk_mask(d, 0.4 * math.sqrt(d)), l_shape_mask(d)):
            dom = T.Domain(mask)
            assert np.array_equal(T.domain_from_json(T.domain_to_json(dom), d).mask, dom.mask)

    @pytest.mark.parametrize("dom, text", [
        (T.make_rect_domain(16, 2, 1.5, (0.5, 0.0)),
         '{"center": [0.5, 0.0], "d": 16, "height": 1.5, "shape": "rect", "width": 2}'),
        (T.full_domain(8), '{"d": 8, "shape": "full"}'),
        (T.make_cells_domain(8, [(3, 4), (0, 0)]),
         '{"cells": [[0, 0], [3, 4]], "d": 8, "shape": "cells"}'),
    ], ids=["rect", "full", "cells"])
    def test_written_bytes(self, dom, text):
        assert T.domain_to_json(dom) == text

    @pytest.mark.parametrize("build", [
        lambda: T.Domain(np.zeros((8, 8), dtype=bool)),
        lambda: T.make_rect_domain(16, 0.1, 0.1, center=(0.125, 0.0)),  # between cell centers
        lambda: T.domain_from_json('{"d": 16, "shape": "cells", "cells": []}'),
    ], ids=["mask", "rect", "cells_json"])
    def test_empty_domain_rejected_when_built(self, build):
        with pytest.raises(ValueError, match="domain is empty"):
            build()


    @pytest.mark.parametrize("spec, field", [
        ({"d": 16, "width": "2", "height": 1.0}, "'width'"),
        ({"d": 16, "width": 1.0, "height": True}, "'height'"),
        ({"d": 16, "width": float("nan"), "height": 1.0}, "'width'"),
        ([1, 2], "JSON object"),
        ({"d": 16, "shape": "cells", "cells": [[1.5, 2]]}, "'cells'"),
        ({"d": 16, "shape": "cells", "cells": [[1e9, 2]]}, "'cells'"),
        ({"d": 16, "shape": "cells", "cells": [[1, 2, 3]]}, "'cells'"),
        ({"d": 16, "shape": "cells"}, "'cells'"),
        ({"d": 16.0, "shape": "full"}, "'d'"),
        ({"d": 0, "shape": "full"}, "'d'"),
        ({"shape": "full"}, "'d'"),
        ({"d": 16, "width": 1.0, "height": 1.0, "center": [0.0]}, "'center'"),
        # ints too large for a float
        ({"d": 16, "width": 10**400, "height": 1.0}, "'width'"),
        ({"d": 16, "width": 1.0, "height": 1.0, "center": [10**400, 0]}, "'center'"),
    ])
    def test_malformed_rejected(self, spec, field):
        with pytest.raises(ValueError, match=field):
            T.domain_from_json(json.dumps(spec))

    def test_d_checked_before_the_grid_is_built(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("grid built")

        monkeypatch.setattr(tfaug.io, "full_domain", refuse)
        spec = json.dumps({"d": 10**400, "shape": "full"})
        with pytest.raises(ValueError, match="'d' is 1000"):
            T.domain_from_json(spec, 16)
        assert T.domain_from_json(json.dumps({"d": 16, "shape": "cells", "cells": [[1, 2]]}), 16).d == 16


class TestCli:
    def test_gen_metrics_pipeline(self, tmp_path, capsys):
        sig = str(tmp_path / "s.bin")
        assert main(["gen", "--family", "chirps", "--n", "10", "--d", "64",
                     "--seed", "3", "--out", sig]) == 0
        capsys.readouterr()
        assert main(["metrics", "--in", sig, "--rect", "2", "2"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["n_signals"] == 10
        assert out["H_augmented"] >= out["H"] - 1e-9 or out["alc"] >= 0

    def test_augment_and_convert(self, tmp_path, capsys):
        sig = str(tmp_path / "s.bin")
        main(["gen", "--family", "gaussian_combos", "--n", "5", "--d", "36",
              "--seed", "0", "--out", sig])
        aug = str(tmp_path / "aug.csv")
        assert main(["augment", "--in", sig, "--rect", "1.2", "1.2", "--out", aug]) == 0
        conv = str(tmp_path / "s.csv")
        assert main(["convert", "--in", sig, "--out", conv]) == 0
        a = T.read_signals(sig).signals
        b = T.read_signals(conv).signals
        assert np.array_equal(a, b)

    def test_bounds_passes(self, tmp_path, capsys):
        sig = str(tmp_path / "s.bin")
        main(["gen", "--family", "chirps", "--n", "8", "--d", "64",
              "--seed", "1", "--out", sig])
        capsys.readouterr()
        assert main(["bounds", "--in", sig, "--rect", "2.5", "2.5"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["sandwich"]["pass"] is True

    def test_runs_without_scipy(self, tmp_path):
        # a None entry in sys.modules makes any import of scipy fail
        code = """if True:
            import sys
            sys.modules["scipy"] = None
            from tfaug.cli import main
            sig, out = sys.argv[1] + "/s.bin", sys.argv[1] + "/res"
            runs = [
                ["gen", "--family", "chirps", "--n", "8", "--d", "64", "--seed", "1",
                 "--out", sig],
                ["metrics", "--in", sig, "--rect", "2.5", "2.5"],
                ["bounds", "--in", sig, "--rect", "2.5", "2.5"],
                ["experiment", "--experiment", "hermite_interp", "--d", "16",
                 "--no-svg", "--out", out],
            ]
            print([main(argv) for argv in runs])
        """
        src = str(Path(T.__file__).resolve().parents[1])
        res = subprocess.run([sys.executable, "-c", code, str(tmp_path)], capture_output=True,
                             text=True, env={**os.environ, "PYTHONPATH": src})
        assert res.returncode == 0, res.stderr
        assert res.stdout.splitlines()[-1] == "[0, 0, 0, 0]"

    def test_bounds_json_keys(self, tmp_path, capsys):
        sig = str(tmp_path / "s.bin")
        main(["gen", "--family", "chirps", "--n", "8", "--d", "64",
              "--seed", "1", "--out", sig])
        capsys.readouterr()
        assert main(["bounds", "--in", sig, "--rect", "2.5", "2.5"]) == 0

        def no_constant(token):
            raise ValueError(f"non-standard JSON constant {token}")

        out = json.loads(capsys.readouterr().out, parse_constant=no_constant)
        expected = {
            "sandwich": {"lower", "mid", "upper", "slack_lower", "slack_upper",
                         "pass", "tolerance", "entropy_correlation_ok"},
            "alc_lower_bound": {"lhs", "rhs", "pass"},
            "finite_rank": {"error", "bound", "pass"},
            "general_berezin_lieb": {"int_phi_symbol", "tr_phi_A", "tr_phi_fS", "pass"},
            "perimeter": {"alc", "bound", "verdict"},
        }
        assert set(out) == {"checks", *expected}
        for group, keys in expected.items():
            assert set(out[group]) >= keys, group
        for check in out["checks"]:
            assert set(check) == {"name", "lhs", "rhs", "tol", "verdict", "slack"}
        # chirp correlation mass wraps the torus, so the entropy-covariance
        # check is inconclusive: its NaN rhs, tol and slack print as null
        last = out["checks"][-1]
        assert last["name"] == "entropy_covariance" and last["verdict"] == "inconclusive"
        assert last["rhs"] is None and last["tol"] is None and last["slack"] is None

    def test_bounds_failing_check_exits_1(self, tmp_path, capsys, monkeypatch):
        real = tfaug.cli.check_bounds

        def one_failing(S, dom):
            return [replace(r, verdict="fail") if r.name == "finite_rank" else r
                    for r in real(S, dom)]

        monkeypatch.setattr(tfaug.cli, "check_bounds", one_failing)
        sig = str(tmp_path / "s.bin")
        main(["gen", "--family", "chirps", "--n", "8", "--d", "64",
              "--seed", "1", "--out", sig])
        capsys.readouterr()
        assert main(["bounds", "--in", sig, "--rect", "2.5", "2.5"]) == 1
        out = json.loads(capsys.readouterr().out)
        assert out["finite_rank"]["pass"] is False
        assert out["sandwich"]["pass"] is True

    def test_experiment_runs(self, tmp_path, capsys):
        out_dir = str(tmp_path / "res")
        code = main(["experiment", "--experiment", "hermite_mix", "--d", "64",
                     "--out", out_dir, "--no-svg"])
        assert code == 0
        csv = (tmp_path / "res" / "hermite_mix.csv").read_text()
        assert csv.startswith("#")
        assert "config_hash" in csv
        report = json.loads((tmp_path / "res" / "hermite_mix.report.json").read_text())
        assert report["config"]["experiment"] == "hermite_mix"

    def test_experiment_counts_grid_rows(self, tmp_path, capsys):
        out_dir = tmp_path / "res"
        assert main(["experiment", "--experiment", "cohen_demo", "--d", "9",
                     "--out", str(out_dir), "--no-svg"]) == 0
        # two 9 x 9 grids, not two blocks
        assert "wrote 18 rows" in capsys.readouterr().out
        assert len((out_dir / "cohen_demo.csv").read_text().splitlines()) == 18 + 8

    def test_experiment_svg_emitted(self, tmp_path):
        out_dir = tmp_path / "res"
        main(["experiment", "--experiment", "hermite_mix", "--d", "64",
              "--out", str(out_dir), "--svg"])
        assert (out_dir / "hermite_mix.svg").read_text().startswith("<svg")

    def test_config_file_with_override(self, tmp_path):
        conf = tmp_path / "conf.json"
        conf.write_text(json.dumps({"experiment": "hermite_mix", "d": 36, "svg": False}))
        out_dir = tmp_path / "res"
        assert main(["experiment", "--config", str(conf), "--d", "64",
                     "--out", str(out_dir)]) == 0
        text = (out_dir / "hermite_mix.csv").read_text()
        assert "# d=64" in text  # CLI flag overrides the config value

    def test_missing_file_exit_2(self, tmp_path, capsys):
        assert main(["metrics", "--in", str(tmp_path / "nope.bin")]) == 2

    def test_pure_state_entropy_prints_positive_zero(self, tmp_path, capsys):
        path = tmp_path / "e0.bin"
        T.write_signals(path, T.DataSet((np.eye(8)[0],)))
        assert main(["metrics", "--in", str(path)]) == 0
        assert '"H": 0.0,' in capsys.readouterr().out
        # its S-tilde's differential entropy is 0 too, and so the slack between them
        assert main(["bounds", "--in", str(path), "--rect", "2", "2"]) == 0
        checks = json.loads(capsys.readouterr().out)["checks"]
        (check,) = [c for c in checks if c["name"] == "entropy_correlation"]
        for key in ("lhs", "rhs", "slack"):
            assert check[key] == 0.0 and math.copysign(1.0, check[key]) == 1.0, key

    def test_metrics_nan_file_exit_2(self, rng, tmp_path, capsys):
        X = rand_dataset(rng, 3, 16).signals.copy()
        X[0, 0] = np.nan
        path = tmp_path / "nan.bin"
        T.write_signals(path, T.DataSet(tuple(X)))
        assert main(["metrics", "--in", str(path)]) == 2
        assert "non-finite" in capsys.readouterr().err

    @pytest.mark.parametrize("spec, message", [
        ({"d": 16, "width": "2", "height": 1.0}, "domain field 'width' must be a finite number"),
        ([1, 2], "domain must be a JSON object"),
        ({"d": 16, "shape": "cells", "cells": [[1.5, 2]]},
         "domain field 'cells' must be a list of [m, n] integer pairs, got [1.5, 2]"),
        ({"d": 16, "width": 10**400, "height": 1.0}, "domain field 'width' must be a finite number"),
    ])
    def test_malformed_domain_file_exit_2(self, rng, tmp_path, capsys, spec, message):
        sig, dom = tmp_path / "s.bin", tmp_path / "dom.json"
        T.write_signals(sig, rand_dataset(rng, 3, 16))
        dom.write_text(json.dumps(spec))
        assert main(["metrics", "--in", str(sig), "--domain", str(dom)]) == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("rect, message", [
        (["nan", "1"], "rectangle width must be finite, got nan"),
        (["1", "inf"], "rectangle height must be finite, got inf"),
    ])
    def test_non_finite_rect_exit_2(self, rng, tmp_path, capsys, rect, message):
        sig = tmp_path / "s.bin"
        T.write_signals(sig, rand_dataset(rng, 3, 16))
        assert main(["metrics", "--in", str(sig), "--rect", *rect]) == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("cmd", ["metrics", "augment", "bounds"])
    def test_domain_for_another_d_exit_2(self, rng, tmp_path, capsys, cmd):
        # a d=16 rectangle names other cells on a d=64 grid: every command refuses it
        sig, dom, out = tmp_path / "s.bin", tmp_path / "dom.json", tmp_path / "aug.bin"
        T.write_signals(sig, rand_dataset(rng, 3, 64))
        dom.write_text(T.domain_to_json(T.make_rect_domain(16, 1.0, 1.0)))
        argv = [cmd, "--in", str(sig), "--domain", str(dom)]
        assert main(argv + (["--out", str(out)] if cmd == "augment" else [])) == 2
        assert "domain field 'd' is 16, but the signals have d = 64" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("cmd", ["metrics", "augment", "bounds"])
    def test_domain_and_rect_together_exit_2(self, rng, tmp_path, capsys, cmd):
        # neither flag is silently dropped: argparse refuses the pair
        sig, dom, out = tmp_path / "s.bin", tmp_path / "dom.json", tmp_path / "aug.bin"
        T.write_signals(sig, rand_dataset(rng, 3, 16))
        dom.write_text(T.domain_to_json(T.full_domain(16)))
        argv = [cmd, "--in", str(sig), "--domain", str(dom), "--rect", "1", "1"]
        assert main(argv + (["--out", str(out)] if cmd == "augment" else [])) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines()[-1].endswith(
            "error: argument --rect: not allowed with argument --domain")
        assert not out.exists()

    @pytest.mark.parametrize("cmd", ["augment", "bounds"])
    def test_domain_required_exit_2(self, rng, tmp_path, capsys, cmd):
        sig, out = tmp_path / "s.bin", tmp_path / "aug.bin"
        T.write_signals(sig, rand_dataset(rng, 3, 16))
        argv = [cmd, "--in", str(sig)]
        assert main(argv + (["--out", str(out)] if cmd == "augment" else [])) == 2
        assert capsys.readouterr().err.splitlines()[-1].endswith(
            "error: one of the arguments --domain --rect is required")
        assert not out.exists()

    def test_metrics_without_domain_prints_no_domain_keys(self, rng, tmp_path, capsys):
        sig = tmp_path / "s.bin"
        T.write_signals(sig, rand_dataset(rng, 3, 16))
        assert main(["metrics", "--in", str(sig)]) == 0
        out = json.loads(capsys.readouterr().out)
        assert set(out) == {"n_signals", "d", "H", "effective_dimension"}

    @pytest.mark.parametrize("case", ["no_experiment", "config_not_object",
                                      "config_malformed", "domain_missing"])
    def test_usage_message_exit_2(self, rng, tmp_path, capsys, case):
        sig, path = tmp_path / "s.bin", tmp_path / "in.json"
        T.write_signals(sig, rand_dataset(rng, 3, 16))
        argv, line = {
            "no_experiment": (["experiment"],
                              "error: provide --experiment NAME or a config with one"),
            "config_not_object": (["experiment", "--config", str(path)],
                                  f"error: config {path} is not a JSON object"),
            "config_malformed": (["experiment", "--config", str(path)],
                                 f"error: cannot read config {path}: "
                                 "Expecting value: line 1 column 1 (char 0)"),
            "domain_missing": (["metrics", "--in", str(sig), "--domain", str(path)],
                               f"error: cannot read domain {path}: "
                               f"[Errno 2] No such file or directory: '{path}'"),
        }[case]
        if case.startswith("config"):
            path.write_text("[1, 2]" if case == "config_not_object" else "nope")
        assert main(argv) == 2
        assert capsys.readouterr().err == line + "\n"

    def test_convert_refuses_a_domain_file(self, tmp_path, capsys):
        dom, out = tmp_path / "dom.json", tmp_path / "x.json"
        dom.write_text(T.domain_to_json(T.full_domain(16)))
        assert main(["convert", "--in", str(dom), "--out", str(out)]) == 2
        assert f"cannot read signals {dom}" in capsys.readouterr().err
        assert not out.exists()

    def test_unknown_experiment_exit_2(self, capsys):
        assert main(["experiment", "--experiment", "nope"]) == 2

    @pytest.mark.parametrize("family, n, d, seed, named", [
        ("chirps", "5", "-4", "0", "need d >= 1, got -4"),
        ("local_components", "0", "16", "0", "need N >= 1, got 0"),
        ("chirps", "5", "16", "-2", "need seed >= 0, got -2"),
    ])
    def test_gen_names_rejected_argument_exit_2(self, tmp_path, capsys, family, n, d, seed,
                                                named):
        out = tmp_path / "s.bin"
        assert main(["gen", "--family", family, "--n", n, "--d", d, "--seed", seed,
                     "--out", str(out)]) == 2
        assert named in capsys.readouterr().err
        assert not out.exists()

    def test_usage_error_exit_2(self, capsys):
        # argparse's exit is returned like every other error's
        assert main(["gen", "--family", "chirps"]) == 2  # missing required args
        assert main(["--help"]) == 0
        assert capsys.readouterr().out.startswith("usage: tfaug")

    def test_key_error_is_a_bug_not_a_usage_error(self, rng, tmp_path, monkeypatch):
        def broken(S):
            raise KeyError("bug")

        sig = tmp_path / "s.bin"
        T.write_signals(sig, rand_dataset(rng, 3, 16))
        monkeypatch.setattr(tfaug.cli, "effective_dimension", broken)
        with pytest.raises(KeyError, match="bug"):
            main(["metrics", "--in", str(sig)])

    def test_empty_cells_domain_exit_2(self, rng, tmp_path, capsys):
        sig, dom = tmp_path / "s.bin", tmp_path / "dom.json"
        T.write_signals(sig, rand_dataset(rng, 3, 16))
        dom.write_text(json.dumps({"d": 16, "shape": "cells", "cells": []}))
        assert main(["metrics", "--in", str(sig), "--domain", str(dom)]) == 2
        assert capsys.readouterr().err == f"error: cannot read domain {dom}: domain is empty\n"


class TestDeterminism:
    def test_experiment_csv_byte_identical(self, tmp_path):
        dirs = [str(tmp_path / "a"), str(tmp_path / "b")]
        for out in dirs:
            assert main(["experiment", "--experiment", "bounds_suite", "--d", "16",
                         "--trials", "10", "--seed", "5", "--out", out,
                         "--no-svg"]) == 0
        a = (tmp_path / "a" / "bounds_suite.csv").read_bytes()
        b = (tmp_path / "b" / "bounds_suite.csv").read_bytes()
        assert a == b


def _csv(out_dir, name):
    """(metadata, header, data rows) of an experiment's CSV."""
    lines = (out_dir / f"{name}.csv").read_text().splitlines()
    meta = dict(ln[2:].split("=", 1) for ln in lines if ln.startswith("# "))
    rows = [ln for ln in lines if not ln.startswith("#")]
    return meta, rows[0], rows[1:]


class TestExperimentConfig:
    def test_explicit_d_and_N_are_used(self, tmp_path):
        assert main(["experiment", "--experiment", "chirp_totalcorr", "--d", "128",
                     "--N", "20", "--out", str(tmp_path), "--no-svg"]) == 0
        meta, header, rows = _csv(tmp_path, "chirp_totalcorr")
        assert meta["d"] == "128"
        assert len(rows) == 128 and len(header.split(",")) == 128
        report = json.loads((tmp_path / "chirp_totalcorr.report.json").read_text())
        assert (report["config"]["d"], report["config"]["N"]) == (128, 20)

    def test_explicit_trials_are_used(self, tmp_path):
        assert main(["experiment", "--experiment", "bounds_suite", "--d", "16",
                     "--trials", "100", "--out", str(tmp_path), "--no-svg"]) == 0
        _, _, rows = _csv(tmp_path, "bounds_suite")
        assert len(rows) == 100

    def test_unknown_config_key_exit_2(self, tmp_path):
        conf = tmp_path / "conf.json"
        conf.write_text(json.dumps({"experiment": "chirp_ed", "n_seed": 2}))
        assert main(["experiment", "--config", str(conf), "--out", str(tmp_path)]) == 2
        assert not (tmp_path / "chirp_ed.csv").exists()

    def test_unused_flag_exit_2(self, tmp_path):
        assert main(["experiment", "--experiment", "hermite_mix", "--trials", "7",
                     "--out", str(tmp_path)]) == 2
        assert not (tmp_path / "hermite_mix.csv").exists()

    @pytest.fixture
    def failing_runner(self, monkeypatch):
        # a config that passes every declared check but fails inside the runner
        def refuse(config):
            raise ValueError(f"no result at d={config.d}")
        monkeypatch.setitem(CATALOG, "hermite_mix", (refuse, CATALOG["hermite_mix"][1]))

    def test_runner_error_exit_2(self, tmp_path, capsys, failing_runner):
        assert main(["experiment", "--experiment", "hermite_mix", "--d", "16",
                     "--out", str(tmp_path)]) == 2
        assert "no result at d=16" in capsys.readouterr().err
        assert not (tmp_path / "hermite_mix.csv").exists()

    def test_failed_run_makes_no_directory(self, tmp_path, failing_runner):
        # the output directory is made only once the runner has returned
        out = tmp_path / "res"
        assert main(["experiment", "--experiment", "hermite_mix", "--d", "16",
                     "--out", str(out)]) == 2
        assert not out.exists()

    def test_hermite_order_at_d_exit_2(self, tmp_path, capsys):
        # hermite_interp needs h_9, so d = 8 has too few orders
        assert main(["experiment", "--experiment", "hermite_interp", "--d", "8",
                     "--no-svg", "--out", str(tmp_path)]) == 2
        assert "bad config: d must be at least 10, got 8" in capsys.readouterr().err
        assert not (tmp_path / "hermite_interp.csv").exists()

    def test_hermite_mix_without_orders_exit_2(self, tmp_path, capsys):
        conf = tmp_path / "conf.json"
        conf.write_text(json.dumps({"experiment": "hermite_mix", "n_max": 0, "d": 16}))
        assert main(["experiment", "--config", str(conf), "--out", str(tmp_path)]) == 2
        assert "bad config: n_max must be between 1 and d = 16, got 0" in capsys.readouterr().err
        assert not (tmp_path / "hermite_mix.csv").exists()

    def test_wrong_type_exit_2(self, tmp_path):
        conf = tmp_path / "conf.json"
        conf.write_text(json.dumps({"experiment": "hermite_mix", "d": "64"}))
        assert main(["experiment", "--config", str(conf), "--out", str(tmp_path)]) == 2

    @pytest.mark.parametrize("name, trials", [("gauss_alc", "0"), ("bounds_suite", "-1")])
    def test_trials_below_one_exit_2(self, tmp_path, name, trials):
        assert main(["experiment", "--experiment", name, "--d", "48", "--trials", trials,
                     "--out", str(tmp_path), "--no-svg"]) == 2
        assert not (tmp_path / f"{name}.csv").exists()

    def test_noise_levels_without_zero_exit_2(self, tmp_path, capsys):
        conf = tmp_path / "conf.json"
        conf.write_text(json.dumps({"experiment": "local_components", "d": 48,
                                    "noise_levels": [0.1, 0.3], "n_gauss": 10}))
        assert main(["experiment", "--config", str(conf), "--out", str(tmp_path)]) == 2
        assert "bad config: noise_levels must include 0.0" in capsys.readouterr().err
        assert not (tmp_path / "local_components.csv").exists()

    @pytest.mark.parametrize("d", ["0", "-3"])
    def test_d_below_one_exit_2(self, tmp_path, capsys, d):
        assert main(["experiment", "--experiment", "gauss_alc", "--d", d,
                     "--out", str(tmp_path), "--no-svg"]) == 2
        assert f"bad config: d must be at least 41, got {d}" in capsys.readouterr().err
        assert not (tmp_path / "gauss_alc.csv").exists()

    def test_n_eigs_message_names_tested_value(self):
        with pytest.raises(ValueError, match="n_eigs must be between 1 and d = 16, got 0"):
            T.ExperimentConfig("local_components", d=16, params={"n_eigs": 0})

    def test_n_eigs_above_d_exit_2(self, tmp_path, capsys):
        assert main(["experiment", "--experiment", "local_components", "--d", "32",
                     "--out", str(tmp_path), "--no-svg"]) == 2
        assert "bad config: n_eigs must be between 1 and d = 32, got 40" in capsys.readouterr().err
        assert not (tmp_path / "local_components.csv").exists()

    def test_undeclared_field_rejected(self):
        with pytest.raises(ValueError, match="does not read N"):
            T.ExperimentConfig("hermite_mix", N=999)

    def test_every_parameter_has_a_range(self):
        read = {"seed"}.union(*(defaults for _, defaults in CATALOG.values()))
        assert read - {"d"} <= set(RANGES)

    @pytest.mark.parametrize("conf, name", [
        ({"experiment": "chirp_ed", "N_values": []}, "N_values"),
        ({"experiment": "chirp_ed", "N_values": [0]}, "N_values"),
        ({"experiment": "chirp_ed", "n_seeds": 0}, "n_seeds"),
        ({"experiment": "chirp_ed", "side_cells": 0}, "side_cells"),
        ({"experiment": "local_components", "noise_levels": [0.0, 0.0]}, "noise_levels"),
        ({"experiment": "local_components", "noise_levels": [0.0, 0.3, 0.1]}, "noise_levels"),
        ({"experiment": "local_components", "noise_levels": [-0.0, 0.3]}, "noise_levels"),
        ({"experiment": "local_components", "noise_levels": [0.0, 1.0]}, "noise_levels"),
        ({"experiment": "local_components", "n_gauss": 0}, "n_gauss"),
        ({"experiment": "gauss_alc", "d": 16}, "d"),
        ({"experiment": "bounds_suite", "d": 2}, "d"),
        ({"experiment": "chirp_totalcorr", "seed": -1}, "seed"),
        ({"experiment": "hermite_mix", "d": 16, "n_max": 0}, "n_max"),
        ({"experiment": "hermite_mix", "d": 16, "n_max": 300}, "n_max"),
    ])
    def test_value_outside_declared_range_exit_2(self, tmp_path, capsys, conf, name):
        path = tmp_path / "conf.json"
        path.write_text(json.dumps(conf))
        out = tmp_path / "out"
        assert main(["experiment", "--config", str(path), "--out", str(out)]) == 2
        assert f"bad config: {name} must " in capsys.readouterr().err
        assert not out.exists()

    # a small config of every experiment whose other parameters fit its least d
    SMALL = {
        "hermite_interp": {}, "hermite_mix": {"n_max": 3},
        "chirp_ed": {"side_cells": 1, "N_values": [2], "n_seeds": 1},
        "chirp_totalcorr": {"N": 2}, "tf_weighted": {"N": 3}, "cohen_demo": {"N": 3},
        "gauss_alc": {"N": 3, "trials": 1}, "chirp_alc": {"N": 3, "trials": 1},
        "alc_vs_ed": {"N": 3}, "local_components": {"n_gauss": 3, "n_eigs": 3},
        "bounds_suite": {"trials": 2},
    }

    @pytest.mark.parametrize("name", sorted(CATALOG))
    def test_least_d_is_tight(self, tmp_path, capsys, name):
        least = LEAST_D.get(name, 1)
        path = tmp_path / "conf.json"
        for d, codes in ((least, (0, 1)), (least - 1, (2,))):
            path.write_text(json.dumps({"experiment": name, "d": d, **self.SMALL[name]}))
            out = tmp_path / str(d)
            assert main(["experiment", "--config", str(path), "--out", str(out),
                         "--no-svg"]) in codes
        assert f"bad config: d must be at least {least}, got {least - 1}" in capsys.readouterr().err
        assert (tmp_path / str(least) / f"{name}.csv").exists()
        assert not (tmp_path / str(least - 1)).exists()
        # the runner itself fails one below, so the declared bound is not too strict
        config = T.ExperimentConfig.from_dict({"experiment": name, "d": least, **self.SMALL[name]})
        config.d = least - 1
        with pytest.raises((ValueError, ZeroDivisionError)):  # chirp_ed divides by sqrt(d)
            CATALOG[name][0](config)

    @pytest.mark.parametrize("name", sorted(CATALOG))
    def test_defaults_written_out_hash_equal(self, name):
        _, defaults = CATALOG[name]
        explicit = T.ExperimentConfig.from_dict({"experiment": name, **defaults})
        assert T.ExperimentConfig(name).config_hash() == explicit.config_hash()

    def test_report_config_reproduces_run(self, tmp_path):
        first, second = tmp_path / "a", tmp_path / "b"
        assert main(["experiment", "--experiment", "chirp_totalcorr", "--d", "48",
                     "--N", "6", "--seed", "3", "--out", str(first), "--no-svg"]) == 0
        report = json.loads((first / "chirp_totalcorr.report.json").read_text())
        conf = tmp_path / "conf.json"
        conf.write_text(json.dumps(report["config"]))
        assert main(["experiment", "--config", str(conf), "--out", str(second)]) == 0
        again = json.loads((second / "chirp_totalcorr.report.json").read_text())
        assert again["config_hash"] == report["config_hash"]
        assert ((first / "chirp_totalcorr.csv").read_bytes()
                == (second / "chirp_totalcorr.csv").read_bytes())


class TestResultTable:
    SPECIAL = [-0.0, np.nan, np.inf, -np.inf, 5e-324, 1e16, 0.1]

    def test_grid_rows_match_fmt(self):
        table = T.ResultTable([f"c{j}" for j in range(7)])
        G = np.array([self.SPECIAL, self.SPECIAL[::-1]])
        table.add_grid(G)
        rows = table.to_csv().splitlines()[1:]
        assert rows == [",".join(T.ResultTable._fmt(v) for v in r) for r in G]
        assert rows[0] == "-0.0,nan,inf,-inf,5e-324,1e+16,0.1"

    def test_mixed_rows_unchanged(self):
        table = T.ResultTable(list("abcdefghi"), {"seed": 3})
        table.add("wide", 3, True, None, 0.1, np.float64(-0.0), np.int64(7),
                  np.bool_(False), np.nan)
        assert table.to_csv() == "# seed=3\na,b,c,d,e,f,g,h,i\nwide,3,1,,0.1,-0.0,7,0,nan\n"

    def test_grid_and_mixed_rows_keep_order(self):
        table = T.ResultTable(["x", "y"])
        table.add("a", 1)
        table.add_grid(np.array([[0.5, -0.0]]))
        table.add(None, False)
        assert table.to_csv().splitlines()[1:] == ["a,1", "0.5,-0.0", ",0"]

    def test_len_counts_rows_and_grid_is_copied(self):
        table = T.ResultTable(["x", "y"])
        G = np.array([[0.5, -0.0], [1e16, 2.0]])
        table.add("a", 1)
        table.add_grid(G)
        table.add_grid(np.zeros((0, 2)))
        G[0, 0] = 7.0
        assert len(table) == 3
        assert table.to_csv() == "x,y\na,1\n0.5,-0.0\n1e+16,2.0\n"

    @staticmethod
    def csv_oracle(table):
        """The CSV text with every value through `_fmt`, one row at a time."""
        lines = [f"# {k}={v}" for k, v in sorted(table.metadata.items())]
        lines.append(",".join(table.columns))
        for row in table.rows:
            rows = row.tolist() if isinstance(row, np.ndarray) else [row]
            lines += [",".join(T.ResultTable._fmt(v) for v in r) for r in rows]
        return "\n".join(lines) + "\n"

    @staticmethod
    def table(case):
        rng = np.random.default_rng(11)
        if case == "no rows":
            return T.ResultTable(["a", "b"], {"seed": 1})
        if case == "one column":
            table = T.ResultTable(["x"], {"d": 4})
            table.add_grid(rng.standard_normal((_CHUNK + 3, 1)))
            return table
        cols = 3 if case == "mixed rows" else _CHUNK // 2 + 7
        G = rng.standard_normal((3, cols)) * 10.0 ** rng.integers(-30, 30, (3, cols))
        G[0, :2] = -0.0, np.nan
        table = T.ResultTable([f"c{j}" for j in range(cols)], {"experiment": "x", "seed": 2})
        table.add("a", *range(1, cols))
        table.add_grid(G)
        table.add(None, *[0.1] * (cols - 1))
        table.add_grid(G[::-1])
        return table

    @pytest.mark.parametrize("case", ["mixed rows", "straddling chunks", "one column", "no rows"])
    def test_write_streams_the_csv(self, case, tmp_path):
        table = self.table(case)
        table.write(tmp_path / "t.csv")
        text = table.to_csv()
        assert (tmp_path / "t.csv").read_bytes() == text.encode()
        assert text == self.csv_oracle(table)

    def test_write_holds_less_than_its_text(self, tmp_path):
        # the writer holds one chunk's text at a time, not the grid's 5 MB
        d = 512
        table = T.ResultTable([f"c{j}" for j in range(d)])
        table.add_grid(np.random.default_rng(3).random((d, d)))
        size = len(table.to_csv())
        tracemalloc.start()
        try:
            table.write(tmp_path / "g.csv")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (tmp_path / "g.csv").stat().st_size == size
        assert peak < size

    def test_write_peak_is_under_six_tenths_of_its_text(self, tmp_path):
        # per chunk, one row of characters per value and its token bytes: no
        # per-byte index (0.54 of the text measured, 0.72 with an int64 gather index)
        d = 512
        table = T.ResultTable([f"c{j}" for j in range(d)])
        table.add_grid(np.random.default_rng(3).random((d, d)))
        size = len(table.to_csv())
        tracemalloc.start()
        try:
            table.write(tmp_path / "g.csv")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 0.6 * size

    @pytest.mark.parametrize("shape", [(2, 3), (2, 5), (4,), (1, 2, 4)])
    def test_add_grid_rejects_wrong_shape(self, shape):
        table = T.ResultTable(["a", "b", "c", "d"])
        with pytest.raises(ValueError, match="4 columns"):
            table.add_grid(np.zeros(shape))
        assert table.rows == []

    def test_add_grid_rejects_complex(self):
        with pytest.raises(ValueError, match="real grid"):
            T.ResultTable(["a", "b"]).add_grid(np.ones((2, 2), complex))
