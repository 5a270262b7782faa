"""The three benchmark workloads: inputs from a seed, timed ops, output checks.

Each workload generates its inputs with numpy from ``(seed, round)`` and hands
only those inputs to the program. A *round* is the workload's fixed set of
ops; every call into the program goes through a public ``lglab`` name looked
up at call time (``lglab.quasi``, ``lglab.cli.main``, ...) so that the tracer's
wrappers see it. Checks run outside the timed region and do not call into
``lglab``; the exceptions, :meth:`verify_round` (which reruns ops) and the
in-process references of :meth:`cli_probe`, only run with tracing off.

Why these workloads:

* ``fig2`` is the paper's headline figure: ``reproduce-fig2`` plus one
  ``lgi-sweep`` over a seed-drawn sub-range around a dark port. It is almost
  all ``weakval``/``interferometer``/``qcore`` work and no Monte Carlo.
* ``montecarlo`` follows acceptance criterion 9: per (beta, run seed) block,
  ``run`` for every kind at 10^6 shots plus ``empirical_lg`` and
  ``empirical_nsit``. The multinomial draw costs the same at any shot count,
  so this measures per-run overhead. No weak values, no CSV.
* ``identities`` follows criteria 5-8 on freshly validated random objects:
  quasiprobability identities, feasibility routes and the precession K3. No
  weak values and no Monte Carlo.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

import lglab  # noqa: E402
import lglab.cli  # noqa: E402

SQ2 = math.sqrt(2.0)
EXCEPTIONAL = (-1.0, -1 / SQ2, 0.0, 1 / SQ2, 1.0)
K_IDX = (31, 32, 33, 34)

# sha256 of the 1001-point ``reproduce-fig2`` CSV, recorded from the code the
# benchmark was written against; any byte change in the sweep output fails
FIG2_SHA256 = "da5cbc815f630e5d6a0c9cd37cce481f1f416d834e3964ae041420d79b78625a"
FIG2_ROWS = 1001
FIG2_VIOLATED = 998

SHOTS = 1_000_000
IDENTITY_TOL = 1e-12


def closed_form_k(alpha: float, beta: float) -> dict[int, float]:
    """K31..K34 of the interferometer at phi = 0 (Williams & Jordan closed forms)."""
    a, b = alpha, beta
    return {31: 2 * b * (b - a), 32: 2 * a * (a - b), 33: 2 * b * (a + b), 34: 2 * a * (a + b)}


def expected_violation(beta: float) -> int | None:
    """Region pattern of criterion 3; None within 1e-6 of an exceptional point."""
    if any(abs(beta - e) < 1e-6 for e in EXCEPTIONAL):
        return None
    if 0 < beta < 1 / SQ2:
        return 31
    if 1 / SQ2 < beta < 1:
        return 32
    if -1 / SQ2 < beta < 0:
        return 33
    return 34


def subprocess_env() -> dict:
    """Environment for ``python -m lglab.cli``: the checked-out ``src`` and no seed override."""
    env = {k: v for k, v in os.environ.items() if k not in ("PYTHONPATH", "LGLAB_SEED")}
    env["PYTHONPATH"] = str(SRC)
    return env


def run_cli(args: list[str], timeout: float = 60.0) -> tuple[float, subprocess.CompletedProcess]:
    """Run ``python -m lglab.cli ARGS`` as a user would; return (wall seconds, result)."""
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "lglab.cli", *args],
        cwd=ROOT, env=subprocess_env(), capture_output=True, text=True, timeout=timeout,
    )
    return time.perf_counter() - start, proc


def cli_record(proc: subprocess.CompletedProcess, what: str, failures: list[str]) -> dict | None:
    if proc.returncode != 0:
        failures.append(f"{what}: exit code {proc.returncode}: {proc.stderr.strip()[-200:]}")
        return None
    try:
        return json.loads(proc.stdout.strip().splitlines()[-1])
    except (ValueError, IndexError) as exc:
        failures.append(f"{what}: unreadable record ({exc})")
        return None


def sha256_file(path) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def _rng(seed: int, *stream: int) -> np.random.Generator:
    return np.random.default_rng([seed, *stream])


class Workload:
    name = ""
    ops_per_round = 1
    # ops timed between two speed calibrations (a fraction of a second)
    ops_per_chunk = 1
    # consecutive ops whose latency tail is taken together (0: all ops pooled);
    # it divides ops_per_chunk
    tail_group = 0

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = Path(workdir)

    def round_inputs(self, r: int) -> list:
        raise NotImplementedError

    def op(self, inp):
        raise NotImplementedError

    def check(self, inp, out) -> list[str]:
        """Failures of one op's output; pure Python, no calls into lglab."""
        raise NotImplementedError

    def verify_round(self, inputs: list, outs: list) -> list[list[str]]:
        """Per-op failures found by rerunning ops; call with tracing off."""
        return [[] for _ in inputs]

    def final_failures(self) -> list[str]:
        """Failures of checks over all ops (such as Monte Carlo coverage)."""
        return []

    def cli_probe(self) -> tuple[float, list[str]]:
        """Wall time of the workload's CLI commands and their failures."""
        raise NotImplementedError


class Fig2(Workload):
    name = "fig2"
    ops_per_round = 3
    SUB_GRID = 201

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        rng = _rng(seed, 0)
        dark = float(rng.choice([1 / SQ2, -1 / SQ2]))
        self.lo = max(-1.0, dark - float(rng.uniform(0.05, 0.4)))
        self.hi = min(1.0, dark + float(rng.uniform(0.05, 0.4)))
        self.fig2_csv = self.workdir / "fig2.csv"
        self.sub_csv = self.workdir / "sub.csv"
        self.cli_csv = self.workdir / "cli-fig2.csv"
        self.sub_sha = None

    def round_inputs(self, r):
        return [(self.lo, self.hi)] * self.ops_per_round

    def op(self, inp):
        lo, hi = inp
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            rc_fig2 = lglab.cli.main(["reproduce-fig2", "--output", str(self.fig2_csv)])
            rc_sub = lglab.cli.main([
                "lgi-sweep", "--grid", str(self.SUB_GRID), "--min", repr(lo),
                "--max", repr(hi), "--output", str(self.sub_csv),
            ])
        return rc_fig2, rc_sub, buf.getvalue()

    def check(self, inp, out):
        rc_fig2, rc_sub, stdout = out
        failures = []
        if (rc_fig2, rc_sub) != (0, 0):
            return [f"exit codes {rc_fig2}, {rc_sub}"]
        lines = stdout.strip().splitlines()
        if len(lines) != 2:
            return [f"expected two records on stdout, got {len(lines)}"]
        rec_fig2, rec_sub = (json.loads(line) for line in lines)
        failures += check_fig2_output(rec_fig2, self.fig2_csv)
        sub_sha = sha256_file(self.sub_csv)
        if self.sub_sha is None:
            self.sub_sha = sub_sha
        elif sub_sha != self.sub_sha:
            failures.append("sub-range CSV bytes changed between identical calls")
        failures += check_sweep_csv(self.sub_csv, rec_sub, self.SUB_GRID)
        return failures

    def cli_probe(self):
        wall, proc = run_cli(["reproduce-fig2", "--output", str(self.cli_csv)])
        failures = []
        rec = cli_record(proc, "reproduce-fig2", failures)
        if rec is not None:
            failures += check_fig2_output(rec, self.cli_csv)
        return wall, failures


def check_fig2_output(record: dict, csv_path) -> list[str]:
    """The reproduce-fig2 record and the CSV bytes against the recorded output."""
    failures = []
    if record.get("rows") != FIG2_ROWS or record.get("violated_rows") != FIG2_VIOLATED:
        failures.append(
            f"fig2 record reports {record.get('rows')} rows / {record.get('violated_rows')} "
            f"violated, expected {FIG2_ROWS} / {FIG2_VIOLATED}"
        )
    sha = sha256_file(csv_path)
    if sha != FIG2_SHA256:
        failures.append(f"fig2 CSV sha256 {sha[:12]}... differs from recorded {FIG2_SHA256[:12]}...")
    return failures


def check_sweep_csv(path, record: dict, grid: int) -> list[str]:
    """Rows of an lgi-sweep CSV against the closed forms and criteria 3 and 4."""
    failures = []
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    violated = 0
    if len(rows) != grid or record.get("rows") != grid:
        failures.append(f"sweep has {len(rows)} rows, record says {record.get('rows')}, expected {grid}")
    for row in rows:
        beta, alpha = float(row["beta"]), float(row["alpha"])
        ks = {i: float(row[f"K{i}"]) for i in K_IDX}
        want = closed_form_k(alpha, beta)
        p3, p4 = float(row["p3"]), float(row["p4"])
        if (abs(alpha - math.sqrt(max(0.0, 1 - beta * beta))) > IDENTITY_TOL
                or any(abs(ks[i] - want[i]) > IDENTITY_TOL for i in K_IDX)
                or abs(p3 - (alpha + beta) ** 2 / 2) > IDENTITY_TOL
                or abs(p4 - (alpha - beta) ** 2 / 2) > IDENTITY_TOL):
            failures.append(f"beta={beta}: values differ from the closed forms")
            continue
        negative = [i for i in K_IDX if ks[i] < -IDENTITY_TOL]
        idx = None if row["violated"] == "none" else int(row["violated"])
        violated += idx is not None
        if len(negative) > 1 or idx != (negative[0] if negative else None):
            failures.append(f"beta={beta}: violated={row['violated']} but negative K {negative}")
            continue
        region = expected_violation(beta)
        if region is not None and idx != region:
            failures.append(f"beta={beta}: violated K{idx}, criterion 3 expects K{region}")
        w3 = None if row["w3"] == "undefined" else float(row["w3"])
        w4 = None if row["w4"] == "undefined" else float(row["w4"])
        if region is not None and (
            (idx == 31) != (w4 is not None and w4 > 1)
            or (idx == 32) != (w4 is not None and w4 < -1)
            or (idx == 33) != (w3 is not None and w3 > 1)
            or (idx == 34) != (w3 is not None and w3 < -1)
        ):
            failures.append(f"beta={beta}: anomalous weak value does not match K{idx}")
    if record.get("violated_rows") != violated:
        failures.append(f"record says {record.get('violated_rows')} violated rows, CSV has {violated}")
    return failures


def _within(est: float, true: float, se: float) -> bool:
    # 4 sigma as in criterion 9; the 1e-12 slack covers the exactly determined
    # branches (a certain outcome has a zero standard error)
    return abs(est - true) < 4.0 * se + 1e-12


class MonteCarlo(Workload):
    name = "montecarlo"
    ops_per_round = 400
    ops_per_chunk = 100
    tail_group = 50
    KINDS = ("interference", "path", "sequential")

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        self.blocks = 0
        self.covered = 0
        rng = _rng(seed, 0)
        self.cli_beta = float(rng.uniform(-1.0, 1.0))
        self.cli_seed = int(rng.integers(0, 2**63))
        self._cli_reference = None

    def round_inputs(self, r):
        rng = _rng(self.seed, 1, r)
        n = self.ops_per_round
        betas = list(EXCEPTIONAL) + [float(b) for b in rng.uniform(-1.0, 1.0, n - len(EXCEPTIONAL))]
        seeds = [int(s) for s in rng.integers(0, 2**63, n)]
        return list(zip(betas, seeds))

    def op(self, inp):
        beta, seed = inp
        cfg = lglab.MZConfig(beta=beta)
        runs = {kind: lglab.run(lglab.RunSpec(cfg=cfg, shots=SHOTS, seed=seed, kind=kind))
                for kind in self.KINDS}
        return runs, lglab.empirical_lg(cfg, SHOTS, seed), lglab.empirical_nsit(cfg, SHOTS, seed)

    @staticmethod
    def fingerprint(out) -> tuple:
        runs, lg, (gap, gap_se) = out
        r = lg.report
        return (tuple(tuple(runs[k].counts.items()) for k in sorted(runs)),
                (r.k31, r.k32, r.k33, r.k34, lg.corr_est), gap, gap_se)

    def check(self, inp, out):
        beta, _ = inp
        runs, lg, (gap, gap_se) = out
        failures = []
        for kind, est in runs.items():
            if est.total != SHOTS or sum(est.counts.values()) != SHOTS or min(est.counts.values()) < 0:
                failures.append(f"beta={beta} {kind}: counts {est.counts} do not sum to {SHOTS}")
        if failures:
            return failures
        alpha = math.sqrt(max(0.0, 1.0 - beta * beta))
        p4 = (alpha - beta) ** 2 / 2
        ks = closed_form_k(alpha, beta)
        got = lg.report.values()
        inter, path = runs["interference"], runs["path"]
        covered = (
            _within(inter.estimates["psi4"], p4, inter.stderr["psi4"])
            and _within(path.estimates["psi1"], alpha * alpha, path.stderr["psi1"])
            and _within(lg.corr_est, 0.0, lg.corr_stderr)
            and all(_within(got[i], ks[i], lg.k_stderr[i]) for i in K_IDX)
            and _within(gap, alpha * beta, gap_se)
        )
        self.blocks += 1
        self.covered += covered
        return failures

    def verify_round(self, inputs, outs):
        # a rerun of the same (spec, seed) must give identical counts
        return [[] if self.fingerprint(self.op(inp)) == self.fingerprint(out)
                else [f"beta={inp[0]} seed={inp[1]}: rerun gave different results"]
                for inp, out in zip(inputs, outs)]

    def final_failures(self):
        if self.blocks and self.covered < 0.98 * self.blocks:
            return [f"4-sigma coverage {self.covered}/{self.blocks} below 98%"]
        return []

    def cli_probe(self):
        b, s = repr(self.cli_beta), str(self.cli_seed)
        wall_sim, sim = run_cli(["simulate", "--kind", "sequential", "--beta", b,
                                 "--shots", str(SHOTS), "--seed", s])
        wall_nsit, nsit = run_cli(["nsit", "--beta", b, "--shots", str(SHOTS), "--seed", s])
        if self._cli_reference is None:
            cfg = lglab.MZConfig(beta=self.cli_beta)
            est = lglab.run(lglab.RunSpec(cfg=cfg, shots=SHOTS, seed=self.cli_seed, kind="sequential"))
            self._cli_reference = est.counts, lglab.empirical_nsit(cfg, SHOTS, self.cli_seed)[0]
        counts, gap = self._cli_reference
        failures = []
        rec = cli_record(sim, "simulate", failures)
        if rec is not None and {k: rec.get(f"count[{k}]") for k in counts} != counts:
            failures.append("simulate: CLI counts differ from the library run with the same seed")
        rec = cli_record(nsit, "nsit", failures)
        if rec is not None and rec.get("gap") != float(f"{gap:.15g}"):
            failures.append("nsit: CLI gap differs from the library estimate with the same seed")
        return wall_sim + wall_nsit, failures


def _random_unitary(rng) -> np.ndarray:
    z = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def mr_margin(e2: float, e3: float, e23: float) -> float:
    """Smallest entry of the moment-matching joint (1 + s2 e2 + s3 e3 + s2 s3 e23) / 4."""
    return min((1 + s2 * e2 + s3 * e3 + s2 * s3 * e23) / 4 for s2 in (1, -1) for s3 in (1, -1))


class Identities(Workload):
    name = "identities"
    ops_per_round = 400
    ops_per_chunk = 100
    tail_group = 50
    TRIPLES = 3

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        # constant observables are built once here, outside the timed ops
        self.m2 = lglab.path_observable()
        self.m3 = lglab.output_observable()
        rng = _rng(seed, 0)
        self.cli_beta = float(rng.uniform(-1.0, 1.0))
        self.cli_triple = tuple(float(x) for x in rng.uniform(-1.0, 1.0, 3))

    def round_inputs(self, r):
        rng = _rng(self.seed, 1, r)
        out = []
        for _ in range(self.ops_per_round):
            amps = rng.standard_normal(2) + 1j * rng.standard_normal(2)
            u_i, u_j = _random_unitary(rng), _random_unitary(rng)
            beta = float(rng.uniform(-1.0, 1.0))
            theta = float(rng.uniform(0.0, 2 * math.pi))
            triples = [tuple(float(x) for x in t) for t in rng.uniform(-1.0, 1.0, (self.TRIPLES, 3))]
            out.append((amps, u_i, u_j, beta, theta, triples))
        return out

    def op(self, inp):
        amps, u_i, u_j, beta, theta, triples = inp
        state = lglab.StateVector(amps, normalize=True)
        mi, mj = (
            lglab.DichotomicObservable(lglab.projector_onto(lglab.StateVector(u[:, 0])),
                                       lglab.projector_onto(lglab.StateVector(u[:, 1])))
            for u in (u_i, u_j)
        )
        table = lglab.quasi(state, mi, mj)
        residuals = lglab.nsit_check(state, mi, mj)
        corr = lglab.sequential_correlation(state, mi, mj)
        cfg = lglab.MZConfig(beta=beta)
        lg = lglab.lg_from_quasi(lglab.quasi(lglab.input_state(cfg), self.m2, self.m3))
        gap = lglab.signaling_gap_projective(cfg)
        verdicts = []
        for e2, e3, e23 in triples:
            t = lglab.CorrelationTriple(e2=e2, e3=e3, e23=e23)
            verdicts.append((lglab.macrorealist_feasible(t), lglab.feasibility_oracle(t)))
        k3 = lglab.precession_k3(theta)
        return table, residuals, corr, cfg.alpha, lg, gap, verdicts, k3

    def check(self, inp, out):
        _, _, _, beta, theta, triples = inp
        table, residuals, corr, alpha, lg, gap, verdicts, k3 = out
        failures = []
        if abs(table.total() - 1.0) > IDENTITY_TOL:
            failures.append(f"quasiprobabilities sum to {table.total()}")
        if not max(residuals) < IDENTITY_TOL:
            failures.append(f"NSIT residuals {residuals}")
        if abs(table.moments()[2] - corr) > IDENTITY_TOL:
            failures.append("quasiprobability and sequential correlators differ")
        want = closed_form_k(alpha, beta)
        if any(abs(lg.values()[i] - want[i]) > IDENTITY_TOL for i in K_IDX):
            failures.append(f"beta={beta}: K = 4q differs from the closed form")
        if abs(gap - abs(alpha * beta)) > IDENTITY_TOL:
            failures.append(f"beta={beta}: signaling gap {gap} != |alpha beta|")
        for (e2, e3, e23), (moments, oracle) in zip(triples, verdicts):
            if moments.feasible != oracle.feasible or abs(moments.margin - oracle.margin) > IDENTITY_TOL:
                failures.append(f"feasibility routes disagree on {(e2, e3, e23)}")
        closed_k3 = 2 * math.cos(theta) - math.cos(2 * theta) - 1
        if not (k3 <= 0.5 + 1e-9 and abs(k3 - closed_k3) <= IDENTITY_TOL):
            failures.append(f"theta={theta}: precession K3 {k3} (closed form {closed_k3})")
        return failures

    def cli_probe(self):
        beta = self.cli_beta
        e2, e3, e23 = self.cli_triple
        wall_q, q = run_cli(["quasiprob", "--beta", repr(beta)])
        wall_mr, mr = run_cli(["mr-check", "--e2", repr(e2), "--e3", repr(e3), "--e23", repr(e23)])
        failures = []
        rec = cli_record(q, "quasiprob", failures)
        if rec is not None:
            alpha = math.sqrt(max(0.0, 1.0 - beta * beta))
            ks = closed_form_k(alpha, beta)
            qs = {i: rec.get(f"q(m2={s2:+d},m3={s3:+d})")
                  for i, (s2, s3) in {31: (-1, 1), 32: (1, 1), 33: (-1, -1), 34: (1, -1)}.items()}
            if (any(v is None or abs(4 * v - ks[i]) > IDENTITY_TOL for i, v in qs.items())
                    or not max(rec["nsit_residual_m2"], rec["nsit_residual_m3"]) < IDENTITY_TOL):
                failures.append("quasiprob: table differs from K/4 or NSIT residuals too large")
        rec = cli_record(mr, "mr-check", failures)
        margin = mr_margin(e2, e3, e23)
        if rec is not None and (rec.get("feasible") != (margin >= -IDENTITY_TOL)
                                or abs(rec.get("margin", math.inf) - margin) > IDENTITY_TOL):
            failures.append("mr-check: verdict differs from the moment-matching joint")
        return wall_q + wall_mr, failures


WORKLOADS = {w.name: w for w in (Fig2, MonteCarlo, Identities)}
