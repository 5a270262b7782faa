"""Command-line interface: records, exit codes, file outputs, config precedence."""

import json

import numpy as np
import pytest

from lglab.cli import main, read_records

SQ3 = np.sqrt(3.0)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 0, err
    return json.loads(out)


class TestProbabilities:
    def test_generic(self, capsys):
        rec = run_json(capsys, "probabilities", "--beta", "0.5")
        assert rec["p3"] == pytest.approx((2 + SQ3) / 4, rel=1e-14)
        assert rec["p4"] == pytest.approx((2 - SQ3) / 4, rel=1e-14)

    def test_equal_split(self, capsys):
        rec = run_json(capsys, "probabilities", "--beta", "0")
        assert rec["p3"] == 0.5 and rec["p4"] == 0.5

    def test_dark_port(self, capsys):
        rec = run_json(capsys, "probabilities", "--beta", "0.7071067811865476")
        assert rec["p3"] == pytest.approx(1.0, abs=1e-12)
        assert rec["p4"] == pytest.approx(0.0, abs=1e-12)

    def test_out_of_range_exits_2(self, capsys):
        code, _, err = run_cli(capsys, "probabilities", "--beta", "1.5")
        assert code == 2
        assert "[-1, 1]" in err


class TestWeakValues:
    def test_anomalous(self, capsys):
        rec = run_json(capsys, "weak-values", "--beta", "0.5")
        assert rec["w4"] == pytest.approx(2 + SQ3, rel=1e-14)
        assert rec["w4_anomalous"] is True
        assert rec["w3_anomalous"] is False

    def test_special_case(self, capsys):
        rec = run_json(capsys, "weak-values", "--beta", "0")
        assert rec["w3"] == pytest.approx(1.0, abs=1e-12)
        assert rec["w4"] == pytest.approx(1.0, abs=1e-12)

    def test_undefined_sentinel(self, capsys):
        rec = run_json(capsys, "weak-values", "--beta", "0.7071067811865476")
        assert rec["w4"] == "undefined"


class TestSweep:
    def test_five_point_pattern(self, capsys, tmp_path):
        out = tmp_path / "sweep.csv"
        rec = run_json(
            capsys, "lgi-sweep", "--grid", "5", "--min", "0", "--max", "1",
            "--output", str(out),
        )
        assert rec["rows"] == 5
        records = read_records(str(out))
        assert [r["violated"] for r in records] == ["none", 31, 31, 32, "none"]
        assert [r["beta"] for r in records] == pytest.approx([0, 0.25, 0.5, 0.75, 1.0])

    def test_degenerate_range_exits_2(self, capsys, tmp_path):
        code, _, err = run_cli(
            capsys, "lgi-sweep", "--grid", "2", "--min", "0", "--max", "0",
            "--output", str(tmp_path / "x.csv"),
        )
        assert code == 2
        assert "min < max" in err

    def test_grid_too_small_exits_2(self, capsys, tmp_path):
        code, _, _ = run_cli(
            capsys, "lgi-sweep", "--grid", "1", "--output", str(tmp_path / "x.csv")
        )
        assert code == 2

    def test_unwritable_path_exits_2(self, capsys, tmp_path):
        code, _, err = run_cli(
            capsys, "lgi-sweep", "--grid", "5", "--output",
            str(tmp_path / "missing_dir" / "x.csv"),
        )
        assert code == 2
        assert "cannot write" in err

    def test_byte_identical_outputs(self, capsys, tmp_path):
        paths = [tmp_path / "a.csv", tmp_path / "b.csv"]
        for p in paths:
            run_json(capsys, "lgi-sweep", "--grid", "101", "--output", str(p))
        assert paths[0].read_bytes() == paths[1].read_bytes()
        assert b"\r" not in paths[0].read_bytes()

    def test_json_format(self, capsys, tmp_path):
        out = tmp_path / "sweep.json"
        run_json(capsys, "lgi-sweep", "--grid", "5", "--min", "0", "--max", "1",
                 "--output", str(out), "--format", "json")
        records = json.loads(out.read_text())
        assert len(records) == 5
        assert records[2]["violated"] == "31"

    def test_round_trip_precision(self, capsys, tmp_path):
        out = tmp_path / "sweep.csv"
        run_json(capsys, "lgi-sweep", "--grid", "101", "--output", str(out))
        from lglab import MZConfig, mz_lg_closed_form

        for rec in read_records(str(out)):
            truth = mz_lg_closed_form(MZConfig(beta=rec["beta"])).k31
            # 15 significant digits survive the round trip
            assert rec["K31"] == pytest.approx(truth, rel=1e-14, abs=1e-14)

    def test_reproduce_fig2_defaults(self, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        rec = run_json(capsys, "reproduce-fig2")
        assert rec["rows"] == 1001
        assert (tmp_path / "fig2.csv").exists()


class TestQuasiprob:
    def test_negative_entry(self, capsys):
        rec = run_json(capsys, "quasiprob", "--beta", "0.5")
        assert rec["q(m2=-1,m3=+1)"] == pytest.approx((1 - SQ3) / 8, rel=1e-13)
        assert rec["negativity"] == pytest.approx((SQ3 - 1) / 8, rel=1e-13)
        assert rec["nsit_residual_m2"] < 1e-12
        assert rec["nsit_residual_m3"] < 1e-12


class TestMrCheck:
    def test_center_feasible(self, capsys):
        rec = run_json(capsys, "mr-check", "--e2", "0", "--e3", "0", "--e23", "0")
        assert rec["feasible"] is True
        assert rec["margin"] == 0.25

    def test_mz_infeasible(self, capsys):
        rec = run_json(
            capsys, "mr-check", "--e2", "0.5", "--e3", str(-SQ3 / 2), "--e23", "0"
        )
        assert rec["feasible"] is False

    def test_missing_argument_exits_2(self, capsys):
        code, _, err = run_cli(capsys, "mr-check", "--e2", "0", "--e3", "0")
        assert code == 2
        assert "e23" in err


class TestSimulate:
    def test_reproducible_bytes(self, capsys):
        args = ("simulate", "--beta", "0.5", "--shots", "100000", "--seed", "42")
        _, out1, _ = run_cli(capsys, *args)
        _, out2, _ = run_cli(capsys, *args)
        assert out1 == out2

    def test_counts_present(self, capsys):
        rec = run_json(capsys, "simulate", "--beta", "0.5", "--shots", "1000",
                       "--seed", "1", "--kind", "sequential")
        counts = [v for k, v in rec.items() if k.startswith("count[")]
        assert sum(counts) == 1000

    def test_bad_kind_exits_2(self, capsys):
        code, _, _ = run_cli(capsys, "simulate", "--beta", "0.5", "--shots", "10",
                             "--seed", "1", "--kind", "magic")
        assert code == 2

    def test_env_seed_default(self, capsys, monkeypatch):
        monkeypatch.setenv("LGLAB_SEED", "777")
        rec = run_json(capsys, "simulate", "--beta", "0.5", "--shots", "100")
        assert rec["seed"] == 777


class TestNsit:
    def test_gap_record(self, capsys):
        rec = run_json(capsys, "nsit", "--beta", "0.5", "--shots", "1000000", "--seed", "42")
        assert rec["true_gap"] == pytest.approx(SQ3 / 4, rel=1e-14)
        assert abs(rec["gap"] - rec["true_gap"]) < 4 * rec["gap_stderr"]


class TestLibraryChecks:
    """The CLI holds no copy of the library's input checks; it maps their
    ValueErrors to exit 2, and the message names the offending field."""

    @pytest.mark.parametrize(
        "argv, field",
        [
            (("probabilities", "--beta", "1.5"), "beta"),
            (("probabilities", "--beta", "1.0000000001"), "beta"),
            (("probabilities", "--beta", "0.6", "--alpha", "0.6"), "alpha"),
            (("mr-check", "--e2", "2", "--e3", "0", "--e23", "0"), "e2"),
            (("simulate", "--beta", "0.5", "--shots", "10", "--kind", "magic"), "kind"),
            (("simulate", "--beta", "0.5", "--shots", "0", "--seed", "1"), "shots"),
            (("nsit", "--beta", "0.5", "--shots", "0", "--seed", "1"), "shots"),
            (("simulate", "--beta", "0.5", "--seed", "1"), "shots"),
        ],
    )
    def test_rejected_input_exits_2(self, capsys, argv, field):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2
        assert out == ""
        assert field in err


class TestConfig:
    def test_flags_beat_config(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"beta": 0.9, "shots": 50}))
        rec = run_json(capsys, "--config", str(cfg), "simulate", "--beta", "0.5",
                       "--seed", "1")
        assert rec["beta"] == 0.5  # flag wins
        assert rec["shots"] == 50  # config fills the gap

    def test_bad_config_exits_2(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text("not json")
        code, _, err = run_cli(capsys, "--config", str(cfg), "probabilities", "--beta", "0")
        assert code == 2
        assert "config" in err

    @pytest.mark.parametrize(
        "config, argv, key",
        [
            ({"beta": None}, ("probabilities",), "beta"),
            ({"beta": "abc"}, ("probabilities",), "beta"),
            ({"grid": 2.9}, ("lgi-sweep", "--output", "x.csv"), "grid"),
            ({"shots": True}, ("simulate", "--beta", "0.5", "--seed", "1"), "shots"),
            ({"bogus": 1}, ("probabilities", "--beta", "0"), "bogus"),
        ],
    )
    def test_bad_config_value_exits_2(self, capsys, tmp_path, monkeypatch, config, argv, key):
        monkeypatch.chdir(tmp_path)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        code, out, err = run_cli(capsys, "--config", str(cfg), *argv)
        assert code == 2
        assert out == ""
        assert repr(key) in err
        assert not (tmp_path / "x.csv").exists()

    def test_shared_config_keys_accepted(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"beta": 0.5, "shots": 1e3, "seed": 3, "grid": 5}))
        rec = run_json(capsys, "--config", str(cfg), "probabilities")
        assert rec["beta"] == 0.5
        rec = run_json(capsys, "--config", str(cfg), "simulate")
        assert rec["shots"] == 1000 and rec["seed"] == 3
