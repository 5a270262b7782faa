"""Self-tests of the benchmark: output checks, tracer restoration, compare.

Run with ``python -m pytest bench -q`` from the repository root.
"""

import contextlib
import dataclasses
import io
import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

import compare
import run
import workloads
from trace_layers import LAYERS, Tracer
from workloads import lglab

BENCH = Path(__file__).resolve().parent


def _cli(*args):
    with contextlib.redirect_stdout(io.StringIO()) as out:
        assert lglab.cli.main(list(args)) == 0
    return json.loads(out.getvalue())


def test_fig2_check_trips_on_corrupted_csv_or_record(tmp_path):
    path = tmp_path / "fig2.csv"
    record = _cli("reproduce-fig2", "--output", str(path))
    assert workloads.check_fig2_output(record, path) == []
    assert workloads.check_fig2_output({**record, "violated_rows": 997}, path)
    data = bytearray(path.read_bytes())
    data[-3] = ord("7") if data[-3] != ord("7") else ord("8")
    path.write_bytes(bytes(data))
    assert any("sha256" in f for f in workloads.check_fig2_output(record, path))


def test_sweep_check_trips_on_a_perturbed_k_value(tmp_path):
    path = tmp_path / "sub.csv"
    record = _cli("lgi-sweep", "--grid", "21", "--min", "0.5", "--max", "0.9", "--output", str(path))
    assert workloads.check_sweep_csv(path, record, 21) == []
    lines = path.read_text().splitlines()
    fields = lines[5].split(",")
    fields[2] = repr(float(fields[2]) + 1e-9)
    lines[5] = ",".join(fields)
    path.write_text("\n".join(lines) + "\n")
    assert workloads.check_sweep_csv(path, record, 21)


def test_montecarlo_check_trips_on_a_perturbed_count(tmp_path):
    wl = workloads.MonteCarlo(seed=3, workdir=tmp_path)
    inp = (0.5, 12345)
    out = wl.op(inp)
    assert wl.check(inp, out) == []
    assert wl.verify_round([inp], [out]) == [[]]
    runs, lg, nsit = out
    seq = runs["sequential"]
    label = next(iter(seq.counts))
    bad = dict(runs, sequential=dataclasses.replace(seq, counts={**seq.counts, label: seq.counts[label] + 1}))
    assert wl.check(inp, (bad, lg, nsit))
    assert wl.verify_round([inp], [(bad, lg, nsit)]) != [[]]


def test_identities_check_trips_on_a_perturbed_gap(tmp_path):
    wl = workloads.Identities(seed=3, workdir=tmp_path)
    inp = wl.round_inputs(0)[0]
    out = wl.op(inp)
    assert wl.check(inp, out) == []
    bad = list(out)
    bad[5] = out[5] + 1e-11
    assert wl.check(inp, tuple(bad))


def _layer_bindings():
    mods = [m for name, m in sys.modules.items() if name == "lglab" or name.startswith("lglab.")]
    snapshot = {(m.__name__, k): v for m in mods for k, v in vars(m).items()}
    inits = {cls: cls.__dict__.get("__init__") for cls in {v for v in snapshot.values() if isinstance(v, type)}}
    return snapshot, inits


def test_tracer_restores_every_patched_name_and_self_times_add_up():
    before, inits = _layer_bindings()
    tracer = Tracer()
    start = time.perf_counter()
    with tracer:
        # a name imported with ``from .lgi import sweep_beta`` is patched too
        assert lglab.cli.sweep_beta is lglab.lgi.sweep_beta is lglab.sweep_beta
        assert lglab.lgi.sweep_beta.__wrapped__ is before[("lglab.lgi", "sweep_beta")]
        with contextlib.redirect_stdout(io.StringIO()):
            lglab.cli.main(["mr-check", "--e2", "0.5", "--e3", "-0.2", "--e23", "0.1"])
        lglab.sweep_beta([-0.5, 0.1, 0.9])
        cfg = lglab.MZConfig(beta=0.3)
        lglab.empirical_lg(cfg, 1000, 1)
        lglab.quasi(lglab.input_state(cfg), lglab.path_observable(), lglab.output_observable())
        with pytest.raises(lglab.OrthogonalPostSelection):
            lglab.mz_weak_values(lglab.MZConfig(beta=2 ** -0.5, alpha=2 ** -0.5))
    wall = time.perf_counter() - start
    assert tracer.patched_leftovers() == []
    after, inits_after = _layer_bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is v for k, v in before.items())
    assert all(inits_after[cls] is own for cls, own in inits.items())

    summary = tracer.summary()
    spans = summary["spans"]
    assert {name.split(".", 1)[0] for name in spans} <= set(LAYERS)
    assert spans["cli.main"]["calls"] == 1
    assert spans["experiment.run.sequential"]["calls"] == 1
    assert spans["lgi.sweep_beta"]["calls"] == 1
    self_total = sum(s["self_s"] for s in spans.values())
    assert self_total == pytest.approx(summary["root_s"], rel=1e-9, abs=1e-12)
    assert 0 < summary["root_s"] <= wall


def test_tail_is_the_highest_percentile_with_ten_samples_beyond():
    samples = [float(i) for i in range(1, 101)]
    assert run.tail(samples) == (90.0, 90.0)
    assert run.tail(samples[:40]) == (30.0, 75.0)
    assert run.group_tail(samples, 50) == (65.0, 80.0, 50)
    assert run.group_tail(samples, 0) == (90.0, 90.0, 100)


def _result(path, workload, trace, metrics):
    rec = {"workload": workload, "seed": 1, "trace": trace,
           "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    path.mkdir(exist_ok=True)
    (path / f"result-{workload}-seed1-trace{trace}.json").write_text(json.dumps(rec))


def test_compare_reports_deltas_and_the_prior_layer_share(tmp_path, capsys):
    _result(tmp_path / "a", "fig2", 0, {"wall_s": (2.0, "s")})
    _result(tmp_path / "b", "fig2", 0, {"wall_s": (1.5, "s")})
    _result(tmp_path / "a", "fig2", 1, {"weakval.mz_weak_values.us": (600.0, "us"),
                                         "weakval.share": (0.25, "ratio")})
    _result(tmp_path / "b", "fig2", 1, {"weakval.mz_weak_values.us": (60.0, "us"),
                                         "weakval.share": (0.05, "ratio")})
    assert compare.main([str(tmp_path / "a"), str(tmp_path / "b")]) == 0
    out = capsys.readouterr().out
    wall = next(line for line in out.splitlines() if line.startswith("wall_s"))
    assert "-0.5 (-25.0%)" in wall and "better" in wall
    mz = next(line for line in out.splitlines() if line.startswith("weakval.mz_weak_values.us"))
    assert "(-90.0%)" in mz and "[share 0.250]" in mz


def test_benchmark_refuses_a_tree_without_the_source(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "fig2", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
