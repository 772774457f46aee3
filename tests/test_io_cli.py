import json
import struct
from dataclasses import replace

import numpy as np
import pytest

import tfaug as T
import tfaug.cli
from tfaug.cli import main
from tfaug.experiments import CATALOG
from tfaug.io import (
    read_signals_binary,
    read_signals_csv,
    write_signals_binary,
    write_signals_csv,
)

from conftest import rand_dataset


class TestSignalFiles:
    def test_binary_round_trip_exact(self, rng, tmp_path):
        ds = rand_dataset(rng, 4, 16)
        path = tmp_path / "sig.bin"
        write_signals_binary(path, ds)
        back = read_signals_binary(path)
        assert np.array_equal(back.as_matrix(), ds.as_matrix())

    def test_csv_round_trip_exact(self, rng, tmp_path):
        ds = rand_dataset(rng, 3, 8)
        path = tmp_path / "sig.csv"
        write_signals_csv(path, ds)
        back = read_signals_csv(path)
        assert np.array_equal(back.as_matrix(), ds.as_matrix())

    def test_cross_format_equal(self, rng, tmp_path):
        ds = rand_dataset(rng, 3, 8)
        write_signals_binary(tmp_path / "a.bin", ds)
        write_signals_csv(tmp_path / "a.csv", ds)
        a = read_signals_binary(tmp_path / "a.bin").as_matrix()
        b = read_signals_csv(tmp_path / "a.csv").as_matrix()
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
        X = rand_dataset(rng, 2, 8).as_matrix()
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
        a = T.read_signals(sig).as_matrix()
        b = T.read_signals(conv).as_matrix()
        assert np.array_equal(a, b)

    def test_bounds_passes(self, tmp_path, capsys):
        sig = str(tmp_path / "s.bin")
        main(["gen", "--family", "chirps", "--n", "8", "--d", "64",
              "--seed", "1", "--out", sig])
        capsys.readouterr()
        assert main(["bounds", "--in", sig, "--rect", "2.5", "2.5"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["sandwich"]["pass"] is True

    def test_bounds_json_keys(self, tmp_path, capsys):
        sig = str(tmp_path / "s.bin")
        main(["gen", "--family", "chirps", "--n", "8", "--d", "64",
              "--seed", "1", "--out", sig])
        capsys.readouterr()
        assert main(["bounds", "--in", sig, "--rect", "2.5", "2.5"]) == 0
        out = json.loads(capsys.readouterr().out)
        expected = {
            "sandwich": {"lower", "mid", "upper", "slack_lower", "slack_upper",
                         "pass", "tolerance", "entropy_correlation_ok"},
            "alc_lower_bound": {"lhs", "rhs", "pass"},
            "finite_rank": {"error", "bound", "pass"},
            "general_berezin_lieb": {"int_phi_symbol", "tr_phi_A", "tr_phi_fS", "pass"},
            "perimeter": {"alc", "bound", "verdict"},
        }
        for group, keys in expected.items():
            assert set(out[group]) >= keys, group
        for check in out["checks"]:
            assert set(check) == {"name", "lhs", "rhs", "tol", "verdict", "slack"}

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

    def test_metrics_nan_file_exit_2(self, rng, tmp_path, capsys):
        X = rand_dataset(rng, 3, 16).as_matrix()
        X[0, 0] = np.nan
        path = tmp_path / "nan.bin"
        T.write_signals(path, T.DataSet(tuple(X)))
        assert main(["metrics", "--in", str(path)]) == 2
        assert "non-finite" in capsys.readouterr().err

    def test_unknown_experiment_exit_2(self, capsys):
        assert main(["experiment", "--experiment", "nope"]) == 2

    def test_usage_error_exit_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["gen", "--family", "chirps"])  # missing required args
        assert exc.value.code == 2


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

    def test_n_eigs_above_d_exit_2(self, tmp_path, capsys):
        assert main(["experiment", "--experiment", "local_components", "--d", "32",
                     "--out", str(tmp_path), "--no-svg"]) == 2
        assert "bad config: n_eigs must be between 1 and d = 32, got 40" in capsys.readouterr().err
        assert not (tmp_path / "local_components.csv").exists()

    def test_undeclared_field_rejected(self):
        with pytest.raises(ValueError, match="does not read N"):
            T.ExperimentConfig("hermite_mix", N=999)

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

    @pytest.mark.parametrize("shape", [(2, 3), (2, 5), (4,), (1, 2, 4)])
    def test_add_grid_rejects_wrong_shape(self, shape):
        table = T.ResultTable(["a", "b", "c", "d"])
        with pytest.raises(ValueError, match="4 columns"):
            table.add_grid(np.zeros(shape))
        assert table.rows == []

    def test_add_grid_rejects_complex(self):
        with pytest.raises(ValueError, match="real grid"):
            T.ResultTable(["a", "b"]).add_grid(np.ones((2, 2), complex))
