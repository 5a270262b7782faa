"""lglab benchmark: one workload, one seed, one measurement window.

Usage, from the root of a checkout::

    python3 bench/run.py --workload fig2 --seed 1 --seconds 30 --trace 0

It measures the checked-out ``src/`` tree (``src`` goes on ``sys.path`` and
on ``PYTHONPATH`` for subprocesses), in one single-threaded process pinned,
with its subprocesses, to one CPU.

``--trace 0`` measures the end-to-end metrics. Within the window it repeats
cycles of: one round of the workload's fixed ops (each op timed), one
fresh-interpreter ``import lglab.cli`` (``setup_s``) and one run of the
workload's CLI commands as subprocesses (``cli_wall_s``). Interleaving them
lets every metric sample the same stretches of a shared, noisy machine.
Every time is scaled to a reference machine speed measured right before it
(see ``calibration.py``); the result file keeps the median scale factor.

``--trace 1`` measures the per-layer metrics. It alternates untraced and
traced rounds on the same inputs; the traced ones wrap every public function
and constructor of ``lglab`` from outside (see ``trace_layers.py``). Counts are
per round and exact; times are per call and include the cost of tracing
nested calls; ``trace.overhead_s`` is the traced round time minus the untraced
one. All spans are written to ``bench/out/spans-<workload>.csv``.

Every op's output is checked; the last line of stdout is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``. A full record with the
environment, sample counts and failures goes to ``bench/out/``. The exit code
is 0 only when every check passed.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from calibration import Calibration

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "bench" / "out"

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "peak_rss_mb": "MB",
    "cli_wall_s": "s",
}

# per-call inclusive times of the named spans
SPAN_TIMES = (
    "interferometer.MZConfig.us",
    "interferometer.detection_probabilities.us",
    "interferometer.path_observable.us",
    "interferometer.output_observable.us",
    "weakval.mz_weak_values.us",
    "weakval.weak_value.us",
    "lgi.sweep_beta.ms",
    "lgi.mz_lg_closed_form.us",
    "experiment.run.interference.us",
    "experiment.run.path.us",
    "experiment.run.sequential.us",
    "experiment.outcome_probabilities.us",
    "experiment.empirical_lg.us",
    "experiment.empirical_nsit.us",
    "lgi.sequential_joint.us",
    "quasiprob.quasi.us",
    "quasiprob.nsit_check.us",
    "quasiprob.signaling_gap_projective.us",
    "mrcheck.macrorealist_feasible.us",
    "mrcheck.feasibility_oracle.us",
    "lgi.precession_k3.us",
)
CONSTRUCTIONS = ("qcore.Operator", "qcore.DichotomicObservable", "qcore.StateVector")
MIN_ROUNDS = 3
MIN_PROBES = 5

def per_layer_units(layers) -> dict[str, str]:
    units = {}
    for layer in layers:
        units[f"{layer}.calls"] = "count"
        units[f"{layer}.self_s"] = "s"
        units[f"{layer}.share"] = "ratio"
    for name in SPAN_TIMES:
        units[name] = name.rsplit(".", 1)[1]
    for name in CONSTRUCTIONS:
        units[f"{name}.calls_per_op"] = "count"
    units["trace.overhead_s"] = "s"
    return units


def tail(samples: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with at least 10 samples beyond it."""
    s = sorted(samples)
    k = len(s) - 11
    if k < 0:
        return s[-1], 100.0
    return s[k], 100.0 * (k + 1) / len(s)


def group_tail(samples: list[float], group: int) -> tuple[float, float, int]:
    """(value, percentile, samples per group) of the op latency tail.

    With ``group`` set, the tail of each run of ``group`` consecutive ops
    (which share one speed calibration) is taken and the median over groups
    reported. Over a whole run, the extreme ops are set by how bursty the
    shared machine was, not by the program; within small groups the tail
    stays a property of the program. Without ``group`` all ops are pooled.
    """
    if not group:
        return (*tail(samples), len(samples))
    tails = [tail(samples[i:i + group]) for i in range(0, len(samples) - group + 1, group)]
    return statistics.median(t[0] for t in tails), tails[0][1], group


def pin_to_one_cpu() -> int | None:
    """Run this process, and every subprocess it starts, on one CPU.

    The calibration loops measure the speed of the CPU they run on; pinning
    makes that the CPU on which the ops and the CLI subprocesses run too.
    """
    try:
        cpu = max(os.sched_getaffinity(0))
        os.sched_setaffinity(0, {cpu})
    except (AttributeError, OSError):
        return None
    return cpu


def git_state() -> tuple[str | None, bool | None]:
    if not (ROOT / ".git").exists():
        return None, None
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=30).stdout.strip() or None
        dirty = subprocess.run(["git", "status", "--porcelain", "--untracked-files=no"],
                               cwd=ROOT, capture_output=True, text=True, timeout=30).stdout
    except (OSError, subprocess.SubprocessError):
        return None, None
    return sha, bool(dirty.strip())


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def environment(seed: int) -> dict:
    import numpy
    import lglab

    sha, dirty = git_state()
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "git_sha": sha,
        "git_dirty": dirty,
        "seed": seed,
        "lglab_file": lglab.__file__,
    }


def setup_probe() -> tuple[float, str]:
    """Wall time of a fresh interpreter importing ``lglab.cli``, and the file it imported."""
    import workloads

    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-c", "import lglab.cli, sys; sys.stdout.write(lglab.__file__)"],
        cwd=ROOT, env=workloads.subprocess_env(), capture_output=True, text=True, timeout=60,
    )
    wall = time.perf_counter() - start
    if proc.returncode != 0:
        return wall, ""
    return wall, proc.stdout.strip()


class Tally:
    """Attempted and failed ops with the first few failure messages."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []

    def add(self, failures: list[str]) -> None:
        self.attempted += 1
        if failures:
            self.failed += 1
            if len(self.messages) < 20:
                self.messages.extend(failures[: 20 - len(self.messages)])


def run_round(wl, inputs, tally: Tally, cal: Calibration | None = None):
    """Run and check one round; return its wall time, op times and outputs.

    With ``cal``, the ops run in chunks of ``wl.ops_per_chunk`` and every time
    is scaled by the speed factor measured right before its chunk.
    """
    op_times, outs = [], []
    clock = time.perf_counter
    wall = 0.0
    for c in range(0, len(inputs), wl.ops_per_chunk):
        factor = cal.probe() if cal else 1.0
        for inp in inputs[c:c + wl.ops_per_chunk]:
            start = clock()
            try:
                out = wl.op(inp)
            except Exception as exc:  # an op that raises counts as failed
                out = None
                failures = [f"{type(exc).__name__}: {exc}"]
            dt = (clock() - start) * factor
            if out is not None:
                failures = wl.check(inp, out)
            wall += dt
            op_times.append(dt)
            outs.append(out)
            tally.add(failures)
    return wall, op_times, outs


def verify(wl, inputs, outs, tally: Tally) -> None:
    """Count the ops that fail the workload's rerun check as failed."""
    for inp, out, failures in zip(inputs, outs, wl.verify_round(inputs, outs)):
        if out is not None and failures:
            tally.failed += 1
            tally.messages.extend(failures[:1])


def measure_end_to_end(wl, seconds: float, tally: Tally, notes: dict) -> dict:
    first = wl.round_inputs(0)
    _, _, outs = run_round(wl, first, Tally())  # warm-up
    setup_probe()
    wl.cli_probe()
    verify(wl, first, outs, tally)

    walls, op_times, setups, clis, files = [], [], [], [], set()
    cal = Calibration()
    deadline = time.perf_counter() + seconds
    r = 0
    while (time.perf_counter() < deadline or len(walls) < MIN_ROUNDS
           or len(setups) < MIN_PROBES or len(clis) < MIN_PROBES):
        r += 1
        wall, times, _ = run_round(wl, wl.round_inputs(r), tally, cal)
        walls.append(wall)
        op_times.extend(times)
        factor = cal.probe()
        wall, imported = setup_probe()
        setups.append(wall * factor)
        files.add(imported)
        factor = cal.probe()
        wall, failures = wl.cli_probe()
        clis.append(wall * factor)
        tally.add(failures)
    tally.add([] if files == {notes["env"]["lglab_file"]} else
              [f"subprocesses imported {sorted(files)}, not {notes['env']['lglab_file']}"])

    tail_s, tail_pct, tail_samples = group_tail(op_times, wl.tail_group)
    notes.update(rounds=len(walls), ops=len(op_times), op_tail_pct=tail_pct,
                 op_tail_samples=tail_samples, setup_samples=len(setups), cli_samples=len(clis),
                 calibration_probes=len(cal.factors), speed_factor=cal.median())
    return {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median(walls),
        "ops_per_s": len(op_times) / sum(op_times),
        "op_p50_ms": statistics.median(op_times) * 1e3,
        "op_tail_ms": tail_s * 1e3,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "cli_wall_s": statistics.median(clis),
    }


def measure_per_layer(wl, seconds: float, tally: Tally, notes: dict, spans_path: Path) -> dict:
    from trace_layers import LAYERS, Tracer

    tracer = Tracer()
    first = wl.round_inputs(0)
    run_round(wl, first, Tally())  # warm-up, untraced
    untraced, traced, traced_raw, bounds, leftovers = [], [], [], [], []
    cal = Calibration()
    deadline = time.perf_counter() + seconds
    r = 0
    while time.perf_counter() < deadline or len(traced) < MIN_ROUNDS:
        inputs = wl.round_inputs(r)
        for tracing in ((False, True) if r % 2 == 0 else (True, False)):
            factor = cal.probe()
            if tracing:
                lo = tracer.mark()
                with tracer:
                    wall, _, outs = run_round(wl, inputs, tally)
                leftovers += tracer.patched_leftovers()
                traced.append(wall * factor)
                traced_raw.append(wall)
                bounds.append((lo, tracer.mark()))
            else:
                wall, _, outs = run_round(wl, inputs, tally)
                untraced.append(wall * factor)
        if r == 0:
            verify(wl, inputs, outs, tally)
        r += 1
    tracer.write(spans_path)

    whole = tracer.summary()
    first_round = tracer.summary(*bounds[0])["spans"]
    spans = whole["spans"]
    f = cal.median()
    traced_wall = sum(traced_raw)
    self_sum = sum(s["self_s"] for s in spans.values())
    # time in the benchmark's own code inside the timed ops, outside every span
    outside_s = traced_wall - whole["root_s"]
    if leftovers:
        tally.add([f"tracer left patched: {leftovers[:5]}"])
    if abs(self_sum - whole["root_s"]) > 1e-9 * max(1, len(tracer.span_start)) or outside_s < 0:
        tally.add([f"self times {self_sum} do not add up to root span time {whole['root_s']} "
                   f"within traced wall {traced_wall}"])
    notes.update(rounds=len(traced), spans=len(tracer.span_start), traced_wall_s=traced_wall,
                 outside_spans_s=outside_s, spans_file=str(spans_path.relative_to(ROOT)),
                 calibration_probes=len(cal.factors), speed_factor=f)

    # counts are per round (exact); times are per round or per call, scaled
    # by the run's median speed factor
    n = len(traced)
    metrics = {}
    for layer in LAYERS:
        names = [k for k in spans if k.split(".", 1)[0] == layer]
        self_s = sum(spans[k]["self_s"] for k in names)
        metrics[f"{layer}.calls"] = sum(first_round[k]["calls"] for k in names if k in first_round)
        metrics[f"{layer}.self_s"] = self_s / n * f
        metrics[f"{layer}.share"] = self_s / traced_wall
    for name in SPAN_TIMES:
        span, unit = name.rsplit(".", 1)
        s = spans.get(span)
        scale = (1e6 if unit == "us" else 1e3) * f
        metrics[name] = s["total_s"] / s["calls"] * scale if s else 0.0
    for name in CONSTRUCTIONS:
        calls = first_round.get(name, {}).get("calls", 0)
        metrics[f"{name}.calls_per_op"] = calls / wl.ops_per_round
    metrics["trace.overhead_s"] = statistics.median(traced) - statistics.median(untraced)
    notes["per_layer_units"] = per_layer_units(LAYERS)
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Run one lglab benchmark workload.")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "lglab" / "__init__.py").is_file():
        print(f"error: no lglab source tree under {ROOT / 'src'}", file=sys.stderr)
        return 2
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    if not (args.seconds > 0 and math.isfinite(args.seconds)):
        print("error: --seconds must be positive", file=sys.stderr)
        return 2

    OUT.mkdir(parents=True, exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT))
    tally = Tally()
    notes = {"env": {**environment(args.seed), "pinned_cpu": pin_to_one_cpu()}}
    try:
        wl = workloads.WORKLOADS[args.workload](args.seed, workdir)
        if args.trace:
            metrics = measure_per_layer(wl, args.seconds, tally, notes,
                                        OUT / f"spans-{args.workload}.csv")
            units = notes.pop("per_layer_units")
        else:
            metrics = measure_end_to_end(wl, args.seconds, tally, notes)
            units = END_TO_END_UNITS
        tally.messages.extend(wl.final_failures())
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    correct = tally.failed == 0 and not tally.messages
    notes["fail_ratio"] = tally.failed / max(1, tally.attempted)
    result = {
        "correct": correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "seconds": args.seconds, **result, "notes": notes, "failures": tally.messages}
    with open(OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json", "w") as fh:
        json.dump(record, fh, indent=1)
        fh.write("\n")
    print(f"env = {json.dumps(notes['env'])}")
    for msg in tally.messages:
        print(f"FAIL {msg}")
    for key in ("rounds", "ops", "op_tail_pct", "op_tail_samples", "setup_samples", "cli_samples", "spans",
                "outside_spans_s", "speed_factor", "fail_ratio"):
        if key in notes:
            print(f"{key} = {notes[key]}")
    for k, v in metrics.items():
        print(f"{k} = {v:.6g} {units[k]}")
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
