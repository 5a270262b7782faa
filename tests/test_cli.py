"""Command-line interface: records, exit codes, file outputs, config precedence."""

import contextlib
import csv
import hashlib
import io
import json
import math
import os
import struct
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import lglab
from lglab import SweepRow, sweep_beta
from lglab.cli import _CSV_LINE, _SWEEP_FIELDS, MAX_GRID, UNDEFINED, _fmt, _row_cells, _write_sweep, main
from lglab.lgi import _K_SIGNS
from lglab.qcore import VIOLATION_TOL

SQ3 = np.sqrt(3.0)

# sha256 of the two sweep files whose bytes the CLI must keep
FIG2_SHA256 = "da5cbc815f630e5d6a0c9cd37cce481f1f416d834e3964ae041420d79b78625a"
GRID101_JSON_SHA256 = "62c27543a9ff2b6a7d6223295ee1dae8d886d54423fb233cf9d5b48911376024"


def read_records(path: str) -> list[dict]:
    """Read back a CSV emitted by lgi-sweep, parsing numeric fields to int or float."""
    records = []
    with open(path, newline="") as fh:
        for row in csv.DictReader(fh):
            rec = {}
            for key, raw in row.items():
                try:
                    rec[key] = int(raw)
                except ValueError:
                    try:
                        rec[key] = float(raw)
                    except ValueError:
                        rec[key] = raw
            records.append(rec)
    return records


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


# a sweep row of any cells: each float either zero or any float, NaN and
# infinities included; each weak value also undefined; a verdict or none
sweep_cell_st = st.one_of(st.sampled_from([0.0, -0.0]), st.floats())
sweep_row_st = st.builds(
    SweepRow,
    *(sweep_cell_st,) * 6,
    *(st.one_of(st.none(), sweep_cell_st),) * 2,
    sweep_cell_st,
    sweep_cell_st,
    st.sampled_from([None, 31, 32, 33, 34]),
)


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

    @pytest.mark.parametrize(
        "config, argv",
        [
            (None, ("lgi-sweep", "--grid", "1000000000000")),
            (None, ("lgi-sweep", "--grid", str(MAX_GRID + 1))),
            (None, ("reproduce-fig2", "--grid", "1000000000000")),
            ({"grid": 1e300}, ("lgi-sweep",)),
        ],
    )
    def test_grid_above_the_bound_exits_2_before_building(self, capsys, tmp_path, config, argv):
        out = tmp_path / "x.csv"
        prefix = ()
        if config is not None:
            cfg = tmp_path / "cfg.json"
            cfg.write_text(json.dumps(config))
            prefix = ("--config", str(cfg))
        start = time.perf_counter()
        code, stdout, err = run_cli(capsys, *prefix, *argv, "--output", str(out))
        assert time.perf_counter() - start < 1.0
        assert code == 2 and stdout == ""
        assert f"--grid must be at most {MAX_GRID}" in err
        assert not out.exists()

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

    def test_reproduce_fig2_bytes(self, capsys, tmp_path):
        out = tmp_path / "fig2.csv"
        rec = run_json(capsys, "reproduce-fig2", "--output", str(out))
        assert rec["violated_rows"] == 998
        assert hashlib.sha256(out.read_bytes()).hexdigest() == FIG2_SHA256

    def test_json_sweep_bytes(self, capsys, tmp_path):
        out = tmp_path / "sweep.json"
        run_json(capsys, "lgi-sweep", "--grid", "101", "--output", str(out), "--format", "json")
        assert hashlib.sha256(out.read_bytes()).hexdigest() == GRID101_JSON_SHA256


    def test_csv_bytes_match_dictwriter_on_cells_fig2_never_holds(self, capsys, tmp_path):
        """The dark ports give undefined, -0 and none cells, which the pinned
        fig2 hash never sees; the joined lines must still be csv's bytes. Both
        line templates write here: beta = 0 has both weak values defined, each
        dark port has one undefined."""
        out = tmp_path / "dark.csv"
        dark = 0.7071067811865476
        run_json(capsys, "lgi-sweep", "--grid", "3", "--min", repr(-dark), "--max", repr(dark),
                 "--output", str(out))

        def cell(v):
            return "undefined" if v is None else f"{v:.15g}"

        ref = io.StringIO()
        fields = ["beta", "alpha", "K31", "K32", "K33", "K34", "w3", "w4", "p3", "p4", "violated"]
        writer = csv.DictWriter(ref, fieldnames=fields, lineterminator="\n")
        writer.writeheader()
        rows = sweep_beta([-dark, 0.0, dark])
        assert [r.w3 is None or r.w4 is None for r in rows] == [True, False, True]
        for r in rows:
            values = (r.beta, r.alpha, r.k31, r.k32, r.k33, r.k34, r.w3, r.w4, r.p3, r.p4)
            writer.writerow(
                {**dict(zip(fields, map(cell, values))),
                 "violated": "none" if r.violated_index is None else str(r.violated_index)}
            )
        text = ref.getvalue()
        assert "undefined" in text and ",-0," in text and ",none" in text
        assert out.read_bytes() == text.encode()

    @settings(derandomize=True, max_examples=100, deadline=None, database=None)
    @given(st.lists(sweep_row_st, min_size=1, max_size=8))
    def test_csv_lines_are_the_cell_template_on_drawn_rows(self, rows):
        """A row whose weak values are both defined takes the all-%.15g line;
        on any cells, -0.0, NaN, undefined w and both kinds of verdict
        included, every line is the text of ``_CSV_LINE % _row_cells(row, _fmt)``."""
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "rows.csv")
            _write_sweep(path, "csv", rows)
            with open(path, newline="") as fh:
                text = fh.read()
        lines = (_CSV_LINE % _row_cells(r, _fmt) for r in rows)
        assert text == ",".join(_SWEEP_FIELDS) + "\n" + "".join(lines)

    @pytest.mark.parametrize(
        "argv",
        [
            ["reproduce-fig2"],
            ["lgi-sweep", "--grid", "3", "--min", "-0.7071067811865476", "--max", "0.7071067811865476"],
        ],
    )
    def test_sweep_process_is_warning_free(self, tmp_path, argv):
        """Both sweep commands run warning-free under ``python -W error``, the
        grid-3 sweep ending on both dark ports: the shipped CLI, not only the
        library under the suite's warning filters."""
        env = {**os.environ, "PYTHONPATH": str(Path(lglab.__file__).resolve().parents[1])}
        proc = subprocess.run(
            [sys.executable, "-W", "error", "-m", "lglab.cli", *argv, "--output", str(tmp_path / "out.csv")],
            capture_output=True, text=True, timeout=120, env=env,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stderr == ""


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

    def test_run_seeds_replay_empirical_lg(self, capsys):
        """Each run behind an ``empirical_lg`` report replays alone from its
        ``run_seeds`` entry, and its counts give back the report's moments."""
        beta, phi, shots = 0.3, 0.4, 10_000
        lg = lglab.empirical_lg(lglab.MZConfig(beta=beta, phi=phi), shots, 2024)
        counts = {}
        for kind, seed in lg.run_seeds.items():
            rec = run_json(capsys, "simulate", "--kind", kind, "--seed", str(seed),
                           "--beta", repr(beta), "--phi", repr(phi), "--shots", str(shots))
            counts[kind] = {k[len("count["):-1]: v for k, v in rec.items() if k.startswith("count[")}
        inter, path, seq = counts["interference"], counts["path"], counts["sequential"]
        assert lg.m3_est == inter["psi4"] / shots - inter["psi3"] / shots
        assert lg.m2_est == path["psi1"] / shots - path["psi2"] / shots
        assert lg.corr_est == sum(m2 * m3 * (seq[f"m2={m2:+d},m3={m3:+d}"] / shots)
                                  for m2, m3 in lglab.experiment.SEQ_OUTCOMES)

    def test_env_seed_default(self, capsys, monkeypatch):
        monkeypatch.setenv("LGLAB_SEED", "777")
        rec = run_json(capsys, "simulate", "--beta", "0.5", "--shots", "100")
        assert rec["seed"] == 777

    def test_bad_env_seed_exits_2(self, capsys, monkeypatch):
        monkeypatch.setenv("LGLAB_SEED", "abc")
        code, out, err = run_cli(capsys, "simulate", "--beta", "0.5", "--shots", "10")
        assert code == 2
        assert out == ""
        assert "LGLAB_SEED" in err


class TestNsit:
    def test_gap_record(self, capsys):
        rec = run_json(capsys, "nsit", "--beta", "0.5", "--shots", "1000000", "--seed", "42")
        assert rec["true_gap"] == pytest.approx(SQ3 / 4, rel=1e-14)
        assert abs(rec["gap"] - rec["true_gap"]) < 4 * rec["gap_stderr"]

    def test_run_seeds_replay_nsit_gap(self, capsys):
        """The gap ``nsit --seed S`` prints rebuilds from two ``simulate`` runs: the
        interference run of ``run_seeds["interference"]`` and the sequential run of
        ``run_seeds["path"]``, the second child seed of S."""
        beta, phi, shots, seed = 0.5, 0.4, 10_000, 42
        rec = run_json(capsys, "nsit", "--beta", repr(beta), "--phi", repr(phi),
                       "--shots", str(shots), "--seed", str(seed))
        seeds = lglab.empirical_lg(lglab.MZConfig(beta=beta, phi=phi), shots, seed).run_seeds
        counts = {}
        for kind, child in (("interference", seeds["interference"]), ("sequential", seeds["path"])):
            run = run_json(capsys, "simulate", "--kind", kind, "--seed", str(child),
                           "--beta", repr(beta), "--phi", repr(phi), "--shots", str(shots))
            counts[kind] = {k[len("count["):-1]: v for k, v in run.items() if k.startswith("count[")}
        inter, seq = counts["interference"], counts["sequential"]
        # psi3 is the m3 = -1 outcome
        gap = inter["psi3"] / shots - (seq["m2=+1,m3=-1"] / shots + seq["m2=-1,m3=-1"] / shots)
        assert rec["gap"] == r15(gap)


def r15(x: float) -> float:
    """``x`` as a record holds it: rounded to 15 significant digits."""
    return float(f"{x:.15g}")


class TestPhase:
    """Every interferometer command reads phi, from a flag or a config file,
    prints it after beta and alpha, and reports the library's values at that
    phase. At phi = 1 and beta = 0.5 no K is violated, so no weak value is
    anomalous and no q is negative."""

    PHI = 1.0
    CFG = {"beta": 0.5, "phi": PHI}

    @pytest.fixture(params=["flag", "config"])
    def run_at_phi(self, request, capsys, tmp_path):
        def run(command, *argv):
            if request.param == "flag":
                return run_json(capsys, command, "--beta", "0.5", "--phi", str(self.PHI), *argv)
            cfg = tmp_path / "cfg.json"
            cfg.write_text(json.dumps({"phi": self.PHI}))
            return run_json(capsys, "--config", str(cfg), command, "--beta", "0.5", *argv)

        return run

    def test_every_record_opens_with_beta_alpha_phi(self, run_at_phi):
        cfg = lglab.MZConfig(**self.CFG)
        for argv in (("probabilities",), ("weak-values",), ("quasiprob",),
                     ("simulate", "--shots", "100", "--seed", "7"),
                     ("nsit", "--shots", "100", "--seed", "7")):
            rec = run_at_phi(*argv)
            assert list(rec)[:3] == ["beta", "alpha", "phi"]
            assert (rec["beta"], rec["alpha"], rec["phi"]) == (0.5, r15(cfg.alpha), self.PHI)

    def test_probabilities(self, run_at_phi):
        rec = run_at_phi("probabilities")
        p3, p4 = lglab.detection_probabilities(lglab.MZConfig(**self.CFG))
        assert (rec["p3"], rec["p4"]) == (r15(p3), r15(p4))

    def test_weak_values(self, run_at_phi):
        rec = run_at_phi("weak-values")
        cfg = lglab.MZConfig(**self.CFG)
        assert (rec["p3"], rec["p4"]) == tuple(map(r15, lglab.detection_probabilities(cfg)))
        assert rec["p3"] == run_at_phi("probabilities")["p3"]
        for name, w in zip(("w3", "w4"), lglab.mz_weak_values(cfg)):
            assert rec[name] == r15(w.value.real)
            assert rec[f"{name}_imag"] == r15(w.value.imag) != 0.0
            assert rec[f"{name}_anomalous"] is w.anomalous_real is False
        assert list(rec)[3:] == ["p3", "p4", "w3", "w3_imag", "w3_anomalous",
                                 "w4", "w4_imag", "w4_anomalous"]

    def test_quasiprob(self, run_at_phi):
        rec = run_at_phi("quasiprob")
        cfg = lglab.MZConfig(**self.CFG)
        table = lglab.mz_quasi(cfg)
        for (mi, mj), v in table.q.items():
            assert rec[f"q(m2={mi:+d},m3={mj:+d})"] == r15(v)
        assert rec["negativity"] == table.negativity == 0.0
        assert (rec["nsit_residual_m2"], rec["nsit_residual_m3"]) == tuple(map(r15, table.nsit_residuals))

    @pytest.mark.parametrize("kind", ["interference", "sequential"])
    def test_simulate(self, run_at_phi, kind):
        rec = run_at_phi("simulate", "--shots", "10000", "--seed", "7", "--kind", kind)
        spec = lglab.RunSpec(cfg=lglab.MZConfig(**self.CFG), shots=10000, seed=7, kind=kind)
        for label, count in lglab.run(spec).counts.items():
            assert rec[f"count[{label}]"] == count

    def test_nsit(self, run_at_phi):
        rec = run_at_phi("nsit", "--shots", "10000", "--seed", "7")
        cfg = lglab.MZConfig(**self.CFG)
        assert rec["true_gap"] == r15(cfg.alpha * cfg.beta * math.cos(self.PHI))
        assert rec["gap"] == r15(lglab.empirical_nsit(cfg, 10000, 7)[0])


class TestRounding:
    @pytest.mark.parametrize(
        "argv",
        [
            ("probabilities", "--beta", "0.3", "--phi", "0.7"),
            ("weak-values", "--beta", "0.3"),
            ("quasiprob", "--beta", "0.3"),
            ("nsit", "--beta", "0.3", "--shots", "1000", "--seed", "5"),
        ],
    )
    def test_record_floats_have_15_digits(self, capsys, argv):
        rec = run_json(capsys, *argv)
        floats = [v for v in rec.values() if isinstance(v, float)]
        assert floats
        assert all(v == float(f"{v:.15g}") for v in floats)


# stdout of records that read the pre-selected state, signed zeros included.
# Every interferometer record opens with beta, alpha and phi, and weak-values
# prints Im w after each Re w; with those keys left out, each holds the bytes
# printed before the phase shifter was folded into the state. The two quasiprob
# records hold mz_quasi's table, K/4 of the closed-form kernel, whose entries
# lie within 2 ulp of the exact table of the float alpha and beta
# (tests/test_quasiprob.py::TestExactTable); the generic moment route on the
# state, which they replaced, differed in the noise digits
PINNED_RECORDS = [
    (
        ("weak-values", "--beta", "0.5"),
        '{"beta": 0.5, "alpha": 0.866025403784439, "phi": 0.0, "p3": 0.933012701892219, '
        '"p4": 0.0669872981077807, "w3": 0.267949192431123, "w3_imag": 0.0, '
        '"w3_anomalous": false, "w4": 3.73205080756888, "w4_imag": 0.0, "w4_anomalous": true}',
    ),
    (
        ("weak-values", "--beta", "0.7071067811865476", "--alpha", "0.7071067811865476"),
        '{"beta": 0.707106781186548, "alpha": 0.707106781186548, "phi": 0.0, "p3": 1.0, '
        '"p4": 0.0, "w3": 4.26642158858964e-17, "w3_imag": 0.0, "w3_anomalous": false, '
        '"w4": "undefined", "w4_imag": "undefined", "w4_anomalous": "undefined"}',
    ),
    (
        ("weak-values", "--beta", "0.7071067811865476"),
        '{"beta": 0.707106781186548, "alpha": 0.707106781186547, "phi": 0.0, "p3": 1.0, '
        '"p4": 6.16297582203915e-33, "w3": -6.83580865766192e-17, "w3_imag": 0.0, '
        '"w3_anomalous": false, "w4": "undefined", "w4_imag": "undefined", '
        '"w4_anomalous": "undefined"}',
    ),
    (
        ("weak-values", "--beta", "0.7071067811865476", "--alpha", "-0.7071067811865476"),
        '{"beta": 0.707106781186548, "alpha": -0.707106781186548, "phi": 0.0, "p3": 0.0, '
        '"p4": 1.0, "w3": "undefined", "w3_imag": "undefined", "w3_anomalous": "undefined", '
        '"w4": 4.26642158858964e-17, "w4_imag": -0.0, "w4_anomalous": false}',
    ),
    (
        ("quasiprob", "--beta", "0.5"),
        '{"beta": 0.5, "alpha": 0.866025403784439, "phi": 0.0, "q(m2=+1,m3=+1)": 0.15849364905389, '
        '"q(m2=+1,m3=-1)": 0.59150635094611, "q(m2=-1,m3=+1)": -0.0915063509461096, '
        '"q(m2=-1,m3=-1)": 0.34150635094611, "negativity": 0.0915063509461096, '
        '"nsit_residual_m2": 0.0, "nsit_residual_m3": 1.11022302462516e-16}',
    ),
    (
        ("quasiprob", "--beta", "-0.8", "--alpha", "-0.6"),
        '{"beta": -0.8, "alpha": -0.6, "phi": 0.0, "q(m2=+1,m3=+1)": -0.06, '
        '"q(m2=+1,m3=-1)": 0.42, "q(m2=-1,m3=+1)": 0.08, "q(m2=-1,m3=-1)": 0.56, '
        '"negativity": 0.06, "nsit_residual_m2": 1.11022302462516e-16, '
        '"nsit_residual_m3": 1.11022302462516e-16}',
    ),
    (
        ("simulate", "--beta", "0.5", "--shots", "1000000", "--seed", "42", "--kind", "sequential"),
        '{"beta": 0.5, "alpha": 0.866025403784439, "phi": 0.0, "kind": "sequential", '
        '"shots": 1000000, "seed": 42, "count[m2=+1,m3=+1]": 374620, '
        '"estimate[m2=+1,m3=+1]": 0.37462, '
        '"stderr[m2=+1,m3=+1]": 0.000484024643587493, "count[m2=+1,m3=-1]": 375134, '
        '"estimate[m2=+1,m3=-1]": 0.375134, "stderr[m2=+1,m3=-1]": 0.000484157497147364, '
        '"count[m2=-1,m3=+1]": 125152, "estimate[m2=-1,m3=+1]": 0.125152, '
        '"stderr[m2=-1,m3=+1]": 0.000330891185884423, "count[m2=-1,m3=-1]": 125094, '
        '"estimate[m2=-1,m3=-1]": 0.125094, "stderr[m2=-1,m3=-1]": 0.000330825469339953}',
    ),
    (
        ("nsit", "--beta", "0.5", "--shots", "1000000", "--seed", "42"),
        '{"beta": 0.5, "alpha": 0.866025403784439, "phi": 0.0, "shots": 1000000, "seed": 42, '
        '"gap": 0.432751, "gap_stderr": 0.000558913577093096, "true_gap": 0.433012701892219}',
    ),
    (
        ("mr-check", "--e2", "0", "--e3", "0", "--e23", "0"),
        '{"e2": 0.0, "e3": 0.0, "e23": 0.0, "feasible": true, "margin": 0.25}',
    ),
    (
        ("mr-check", "--e2", "0.5", "--e3", "-0.8660254037844386", "--e23", "0"),
        '{"e2": 0.5, "e3": -0.866025403784439, "e23": 0.0, "feasible": false, '
        '"margin": -0.0915063509461096}',
    ),
    (
        ("mr-check", "--e2", "1", "--e3", "1", "--e23", "1"),
        '{"e2": 1.0, "e3": 1.0, "e23": 1.0, "feasible": true, "margin": 0.0}',
    ),
    (
        ("mr-check", "--e2", "-0", "--e3", "0", "--e23", "0"),
        '{"e2": -0.0, "e3": 0.0, "e23": 0.0, "feasible": true, "margin": 0.25}',
    ),
]

# (argv, stderr) of rejected inputs whose message bytes are pinned; each exits 2
PINNED_REJECTIONS = [
    (
        ("mr-check", "--e2", "1.0000000005", "--e3", "0", "--e23", "0"),
        "error: e2 must lie in [-1, 1], got 1.0000000005\n",
    ),
    (
        ("mr-check", "--e2", "0", "--e3", "0", "--e23", "nan"),
        "error: e23 must lie in [-1, 1], got nan\n",
    ),
]


class TestPinnedRecords:
    @pytest.mark.parametrize(
        "argv, stdout", PINNED_RECORDS, ids=[" ".join(argv) for argv, _ in PINNED_RECORDS]
    )
    def test_record_bytes(self, capsys, argv, stdout):
        code, out, err = run_cli(capsys, *argv)
        assert code == 0, err
        assert out == stdout + "\n"

    @pytest.mark.parametrize(
        "argv, stderr", PINNED_REJECTIONS, ids=[" ".join(argv) for argv, _ in PINNED_REJECTIONS]
    )
    def test_rejection_bytes(self, capsys, argv, stderr):
        assert run_cli(capsys, *argv) == (2, "", stderr)


class TestQuasiprobPass:
    def test_one_pass_per_record(self, capsys, monkeypatch):
        """The quasiprob record is one mz_quasi table: no state is built and the
        generic quasi is not called, and the closed-form commands beside it
        build no table."""
        calls = []
        one_pass = lglab.mz_quasi

        def counted(cfg):
            calls.append(cfg)
            return one_pass(cfg)

        def refuse(*args, **kwargs):
            raise AssertionError("the quasiprob record built a state or called quasi")

        monkeypatch.setattr(lglab.StateVector, "__init__", refuse)
        monkeypatch.setattr(lglab, "quasi", refuse)
        monkeypatch.setattr(lglab.quasiprob, "quasi", refuse)
        monkeypatch.setattr(lglab, "mz_quasi", counted)
        rec = run_json(capsys, "quasiprob", "--beta", "0.5")
        run_json(capsys, "probabilities", "--beta", "0.5")
        run_json(capsys, "mr-check", "--e2", "0.5", "--e3", "-0.5", "--e23", "0.25")
        assert calls == [lglab.MZConfig(beta=0.5)]
        assert rec["q(m2=-1,m3=+1)"] == r15(one_pass(calls[0]).entry(-1, +1))


class TestNoStateBuilt:
    """No interferometer record, sweep or closed-form command builds a
    StateVector: with its constructor patched to raise, each exits 0 with the
    stdout (and sweep file bytes) it gives unpatched."""

    @pytest.mark.parametrize(
        "argv",
        [
            ("probabilities", "--beta", "0.5"),
            ("weak-values", "--beta", "0.5"),
            ("weak-values", "--beta", "0.5", "--phi", "1"),
            ("weak-values", "--beta", "0.6", "--alpha", "-0.8"),
            ("quasiprob", "--beta", "0.5"),
            ("lgi-sweep", "--grid", "11", "--output", "sweep.csv"),
            ("reproduce-fig2", "--output", "fig2.csv"),
            ("mr-check", "--e2", "0.5", "--e3", "-0.5", "--e23", "0.25"),
            ("simulate", "--beta", "0.123", "--shots", "1000", "--seed", "3", "--kind", "interference"),
            ("simulate", "--beta", "0.123", "--shots", "1000", "--seed", "3", "--kind", "path"),
        ],
        ids=" ".join,
    )
    def test_record_is_the_unpatched_one(self, capsys, monkeypatch, tmp_path, argv):
        monkeypatch.chdir(tmp_path)

        def record():
            code, out, err = run_cli(capsys, *argv)
            assert code == 0, err
            written = sorted(tmp_path.iterdir())
            return out, [path.read_bytes() for path in written]

        def refuse(*args, **kwargs):
            raise AssertionError("a StateVector was built")

        with monkeypatch.context() as patch:
            patch.setattr(lglab.StateVector, "__init__", refuse)
            patched = record()
        assert patched == record()


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
            (("simulate", "--beta", "0.5", "--shots", "99999999999999999999", "--seed", "1"), "shots"),
            (("nsit", "--beta", "0.5", "--shots", "99999999999999999999", "--seed", "1"), "shots"),
            (("probabilities",), "--beta is required"),
            (("weak-values",), "--beta is required"),
            (("quasiprob",), "--beta is required"),
            (("nsit", "--beta", "0.5", "--seed", "1"), "--shots is required"),
            (("lgi-sweep", "--grid", "5"), "--output is required"),
            (("probabilities", "--beta", "0.5", "--phi", "inf"), "phi must be finite, got inf"),
            (("probabilities", "--beta", "0.5", "--alpha", "nan"), "alpha must be finite, got nan"),
            (("nsit", "--beta", "0.5", "--shots", "10", "--seed", "18446744073709551616"), "seed"),
            (("nsit", "--beta", "0.5", "--shots", "10", "--seed", "-1"), "seed"),
            # alpha**2 overflows past |alpha| of about 1.34e154
            (("probabilities", "--beta", "0.6", "--alpha", "1e200"), "got alpha = 1e+200"),
            (("weak-values", "--beta", "0.6", "--alpha=-1e308"), "got alpha = -1e+308"),
            (("probabilities", "--beta", "0.6", "--alpha", "1e150"), "alpha^2 + beta^2 = "),
        ],
    )
    def test_rejected_input_exits_2(self, capsys, argv, field):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2
        assert out == ""
        assert field in err


# the values an MZ field may take, by flag or config key: both zeros, NaN,
# both infinities, subnormals, the ends of the double range, 1e200 (whose
# square overflows), and one ulp either side of +-1 and +-1/sqrt(2)
MZ_EDGES = [
    0.0, -0.0, math.nan, math.inf, -math.inf, 5e-324, -5e-324, 2.2250738585072014e-308,
    1e308, -1e308, 1.7976931348623157e308, 1e200, -1e200,
    *(math.nextafter(x, toward) for x in (1.0, -1.0, 2**-0.5, -(2**-0.5)) for toward in (-2.0, 2.0)),
    1.0, -1.0, 2**-0.5, -(2**-0.5),
]
mz_value_st = st.one_of(st.sampled_from(MZ_EDGES), st.floats())


@st.composite
def mz_fields(draw) -> dict:
    """beta, alpha and phi, each an edge value or any float; beta also anywhere
    in [-1, 1], and alpha also omitted or +-sqrt(1 - beta^2)."""
    beta = draw(st.one_of(mz_value_st, st.floats(-1.0, 1.0)))
    on_circle = math.sqrt(1.0 - beta * beta) if abs(beta) <= 1.0 else 1.0
    alpha = draw(st.one_of(st.none(), mz_value_st, st.sampled_from([on_circle, -on_circle])))
    return {"beta": beta, "alpha": alpha, "phi": draw(mz_value_st)}


def faulty_field(beta: float, alpha: float | None, phi: float) -> str | None:
    """The first of beta, alpha and phi outside its own domain, else None."""
    if not (math.isfinite(beta) and abs(beta) <= 1.0):
        return "beta"
    if alpha is not None and not math.isfinite(alpha):
        return "alpha"
    return None if math.isfinite(phi) else "phi"


class TestMZInputs:
    """Any beta, alpha and phi, each by flag or config key, through the three
    closed-form interferometer commands: the exit code is 0 or 2, a rejection
    names the field at fault (alpha where only alpha^2 + beta^2 is off 1), and
    an accepted record is finite and agrees with the library's K verdict."""

    @settings(derandomize=True, max_examples=400, deadline=None, database=None)
    @given(
        st.sampled_from(["probabilities", "weak-values", "quasiprob"]),
        mz_fields(),
        st.fixed_dictionaries({name: st.booleans() for name in ("beta", "alpha", "phi")}),
    )
    def test_exit_code_and_record(self, command, fields, by_config):
        config = {k: v for k, v in fields.items() if v is not None and by_config[k]}
        flags = [f"--{k}={v!r}" for k, v in fields.items() if v is not None and not by_config[k]]
        out, err = io.StringIO(), io.StringIO()
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "cfg.json")
            with open(path, "w") as fh:
                json.dump(config, fh)
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main(["--config", path, command, *flags])
        fault = faulty_field(**fields)
        if code == 2:
            assert out.getvalue() == ""
            assert (fault or "alpha") in err.getvalue()
            return
        assert code == 0 and fault is None, err.getvalue()
        rec = json.loads(out.getvalue())
        assert all(math.isfinite(v) for v in rec.values() if isinstance(v, float)), rec
        cfg = lglab.MZConfig(**fields)
        report = lglab.mz_lg_closed_form(cfg)
        if command == "quasiprob":
            ks = {_K_SIGNS[i]: k for i, k in report.values().items()}
            for (m2, m3), q in lglab.mz_quasi(cfg).q.items():
                # q is K/4 bit for bit, so 4q is K wherever K/4 is normal
                assert struct.pack("<d", q) == struct.pack("<d", ks[(m2, m3)] / 4.0)
                assert rec[f"q(m2={m2:+d},m3={m3:+d})"] == r15(q)
        elif command == "weak-values" and UNDEFINED not in (rec["w3"], rec["w4"]):
            assert (rec["w3_anomalous"] or rec["w4_anomalous"]) == (report.violated_index is not None)


# the values a moment may take, by flag or config key: both zeros, NaN, both
# infinities, subnormals, +-1e308, and +-1 with one ulp either side
MOMENT_EDGES = [
    0.0, -0.0, math.nan, math.inf, -math.inf, 5e-324, -5e-324, 2.2250738585072014e-308, 1e308, -1e308,
    *(math.nextafter(x, toward) for x in (1.0, -1.0) for toward in (-2.0, 2.0)), 1.0, -1.0,
]
moment_value_st = st.one_of(st.sampled_from(MOMENT_EDGES), st.floats(-1.0, 1.0))
MOMENTS = ("e2", "e3", "e23")


class TestMrCheckInputs:
    """Any e2, e3 and e23, each by flag or config key, through ``mr-check``:
    the exit code is 0 or 2, a rejection names the first moment outside
    [-1, 1], and an accepted record is finite, echoes the moments and reads
    its verdict off its margin: feasible exactly when 4 * margin, the lowest
    K, does not violate."""

    @settings(derandomize=True, max_examples=300, deadline=None, database=None)
    @given(
        st.fixed_dictionaries({name: moment_value_st for name in MOMENTS}),
        st.fixed_dictionaries({name: st.booleans() for name in MOMENTS}),
    )
    def test_exit_code_and_record(self, fields, by_config):
        config = {k: v for k, v in fields.items() if by_config[k]}
        flags = [f"--{k}={v!r}" for k, v in fields.items() if not by_config[k]]
        out, err = io.StringIO(), io.StringIO()
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "cfg.json")
            with open(path, "w") as fh:
                json.dump(config, fh)
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main(["--config", path, "mr-check", *flags])
        fault = next((k for k in MOMENTS if not (math.isfinite(fields[k]) and abs(fields[k]) <= 1.0)), None)
        if code == 2:
            assert out.getvalue() == ""
            # the whole phrase: e2 is a prefix of e23
            assert f"{fault} must lie in [-1, 1]" in err.getvalue(), err.getvalue()
            return
        assert code == 0 and fault is None, err.getvalue()
        rec = json.loads(out.getvalue())
        assert all(math.isfinite(v) for v in rec.values() if isinstance(v, float)), rec
        assert [struct.pack("<d", rec[k]) for k in MOMENTS] == [struct.pack("<d", r15(fields[k])) for k in MOMENTS]
        table = lglab.macrorealist_feasible(lglab.CorrelationTriple(**fields))
        assert (rec["feasible"], rec["margin"]) == (table.feasible, r15(table.margin))
        assert rec["feasible"] is (not (4.0 * rec["margin"] < -VIOLATION_TOL))


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

    def test_config_integer_past_the_digit_limit_exits_2(self, capsys, tmp_path):
        """json refuses an integer of more than 4300 digits with a ValueError;
        the file is then unreadable, and the message names it."""
        cfg = tmp_path / "big.json"
        cfg.write_text('{"beta": 1' + "0" * 5000 + "}")
        code, out, err = run_cli(capsys, "--config", str(cfg), "probabilities")
        assert code == 2
        assert out == ""
        assert f"cannot read config file {str(cfg)!r}" in err

    @pytest.mark.parametrize(
        "config, argv, key",
        [
            ({"beta": None}, ("probabilities",), "beta"),
            ({"beta": "abc"}, ("probabilities",), "beta"),
            ({"grid": 2.9}, ("lgi-sweep", "--output", "x.csv"), "grid"),
            ({"shots": True}, ("simulate", "--beta", "0.5", "--seed", "1"), "shots"),
            ({"bogus": 1}, ("probabilities", "--beta", "0"), "bogus"),
            # an integer past the double range, also under a command that never reads it
            ({"beta": 10**400}, ("probabilities",), "beta"),
            ({"beta": 10**400}, ("mr-check", "--e2", "0", "--e3", "0", "--e23", "0"), "beta"),
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

    @pytest.mark.parametrize("alpha", [1e200, -1e308])
    def test_config_alpha_whose_square_overflows_exits_2(self, capsys, tmp_path, alpha):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"beta": 0.6, "alpha": alpha}))
        code, out, err = run_cli(capsys, "--config", str(cfg), "probabilities")
        assert (code, out) == (2, "")
        assert f"got alpha = {alpha!r}" in err

    @pytest.mark.parametrize(
        "config, argv",
        [
            ({"e2": 0.5, "e3": -0.2, "e23": 0.1}, ("mr-check",)),
            ({"output": "from_config.csv"}, ("lgi-sweep", "--grid", "5")),
        ],
    )
    def test_config_supplies_required_option(self, capsys, tmp_path, monkeypatch, config, argv):
        monkeypatch.chdir(tmp_path)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        rec = run_json(capsys, "--config", str(cfg), *argv)
        for key, value in config.items():
            assert rec[key] == value
        if "output" in config:
            assert len(read_records(config["output"])) == 5

    def test_shared_config_keys_accepted(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"beta": 0.5, "shots": 1e3, "seed": 3, "grid": 5}))
        rec = run_json(capsys, "--config", str(cfg), "probabilities")
        assert rec["beta"] == 0.5
        rec = run_json(capsys, "--config", str(cfg), "simulate")
        assert rec["shots"] == 1000 and rec["seed"] == 3
