"""Acceptance gate: one test per release criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
status lines. Every tolerance is fixed here; nothing is calibrated later.
"""

import time

import numpy as np

from lglab import (
    CorrelationTriple,
    MZConfig,
    detection_probabilities,
    empirical_lg,
    empirical_nsit,
    feasibility_oracle,
    input_state,
    lg_from_quasi,
    macrorealist_feasible,
    mz_lg_closed_form,
    mz_weak_values,
    nsit_check,
    output_observable,
    path_observable,
    precession_k3,
    projector_onto,
    quasi,
    sequential_correlation,
    signaling_gap_projective,
    sweep_beta,
)
from lglab.experiment import RunSpec, run as mc_run
from lglab.interferometer import mz_basis

from conftest import random_dichotomic, random_state
from oracles import born_probability, propagate_unitary, quasi_matrix

SQ2 = np.sqrt(2.0)
SQ3 = np.sqrt(3.0)
GRID = np.linspace(-1.0, 1.0, 1001)
EXCEPTIONAL = (-1.0, -1 / SQ2, 0.0, 1 / SQ2, 1.0)


def is_exceptional(beta):
    return any(abs(beta - e) < 1e-9 for e in EXCEPTIONAL)


def report(n, label):
    print(f"PASS criterion {n}: {label}")


def test_criterion_1_closed_form_probabilities():
    """Detection probabilities match closed forms and unitary propagation, < 1 s."""
    b = mz_basis()
    p3_proj, p4_proj = projector_onto(b.psi3), projector_onto(b.psi4)
    start = time.perf_counter()
    for beta in GRID:
        cfg = MZConfig(beta=float(beta))
        p3, p4 = detection_probabilities(cfg)
        assert abs(p3 - (cfg.alpha + cfg.beta) ** 2 / 2) <= 1e-12
        assert abs(p4 - (cfg.alpha - cfg.beta) ** 2 / 2) <= 1e-12
        out = propagate_unitary(MZConfig(beta=float(beta)))
        assert abs(p3 - born_probability(p3_proj, out)) <= 1e-12
        assert abs(p4 - born_probability(p4_proj, out)) <= 1e-12
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0, f"runtime {elapsed:.3f}s exceeds 1s"
    report(1, f"closed-form probability reproduction over 1001 points ({elapsed:.3f}s)")


def test_criterion_2_weak_value_equivalence():
    """Matrix weak values equal (alpha-+beta)/(alpha+-beta); beta=0 special case."""
    for beta in GRID:
        cfg = MZConfig(beta=float(beta))
        a, b = cfg.alpha, cfg.beta
        w3, w4 = mz_weak_values(cfg, allow_undefined=True)
        # the closed forms are ratios that blow up near the dark ports, so the
        # 1e-12 tolerance is applied to the cleared-denominator identity
        # w * (alpha +- beta) = alpha -+ beta, whose operands stay O(1)
        if abs(a + b) ** 2 / 2 > 1e-15:
            assert w3 is not None
            assert abs(w3.value * (a + b) - (a - b)) <= 1e-12
        if abs(a - b) ** 2 / 2 > 1e-15:
            assert w4 is not None
            assert abs(w4.value * (a - b) - (a + b)) <= 1e-12
    w3, w4 = mz_weak_values(MZConfig(beta=0.0))
    assert w3.value == 1.0 and w4.value == 1.0
    p3, p4 = detection_probabilities(MZConfig(beta=0.0))
    assert p3 == 0.5 and p4 == 0.5
    assert abs(w3.postselect_prob - 0.5) <= 1e-12
    assert abs(w4.postselect_prob - 0.5) <= 1e-12
    report(2, "weak-value closed-form equivalence incl. beta=0 special case")


def test_criterion_3_fig2_reproduction():
    """Exactly one negative K off the five exceptional points, with the
    region pattern 31/32/33/34; < 1 s."""
    start = time.perf_counter()
    rows = sweep_beta(GRID)
    for row in rows:
        ks = (row.k31, row.k32, row.k33, row.k34)
        if is_exceptional(row.beta):
            assert -1e-12 <= min(ks) <= 1e-12
            assert row.violated_index is None
            continue
        assert sum(1 for k in ks if k < -1e-12) == 1
        if 0 < row.beta < 1 / SQ2:
            assert row.violated_index == 31
        elif 1 / SQ2 < row.beta < 1:
            assert row.violated_index == 32
        elif -1 / SQ2 < row.beta < 0:
            assert row.violated_index == 33
        else:
            assert row.violated_index == 34
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0, f"runtime {elapsed:.3f}s exceeds 1s"
    report(3, f"violation pattern over 1001-point sweep ({elapsed:.3f}s)")


def test_criterion_4_anomaly_violation_equivalence():
    """LG violation iff the corresponding weak value is anomalous (four-way map)."""
    for row in sweep_beta(GRID):
        if is_exceptional(row.beta):
            continue
        assert (row.violated_index == 31) == (row.w4 is not None and row.w4 > 1)
        assert (row.violated_index == 32) == (row.w4 is not None and row.w4 < -1)
        assert (row.violated_index == 33) == (row.w3 is not None and row.w3 > 1)
        assert (row.violated_index == 34) == (row.w3 is not None and row.w3 < -1)
        anomalous = (row.w3 is not None and abs(row.w3) > 1) or (
            row.w4 is not None and abs(row.w4) > 1
        )
        assert anomalous == (row.violated_index is not None)
    report(4, "anomalous weak value <=> LG violation over the grid")


def test_criterion_5_quasiprobability_identities():
    """Sum, NSIT residuals, correlator equality and 4q = K, random + grid; each
    table is also the projector-product trace of the matrix oracle."""
    rng = np.random.default_rng(5)
    instances = [
        (random_state(rng), random_dichotomic(rng), random_dichotomic(rng))
        for _ in range(1000)
    ]
    m2, m3 = path_observable(), output_observable()
    instances += [(input_state(MZConfig(beta=float(b))), m2, m3) for b in GRID]
    for state, mi, mj in instances:
        table = quasi(state, mi, mj)
        oracle = quasi_matrix(state, mi, mj)
        assert all(abs(table.q[k] - oracle.q[k]) <= 1e-12 for k in oracle.q)
        assert abs(table.total() - 1.0) <= 1e-12
        res = nsit_check(state, mi, mj)
        assert max(res) < 1e-12
        assert abs(table.moments()[2] - sequential_correlation(state, mi, mj)) <= 1e-12
    for beta in GRID:
        cfg = MZConfig(beta=float(beta))
        table = quasi(input_state(cfg), m2, m3)
        via_q = lg_from_quasi(table)
        closed = mz_lg_closed_form(cfg)
        for a, b in zip(
            (via_q.k31, via_q.k32, via_q.k33, via_q.k34),
            (closed.k31, closed.k32, closed.k33, closed.k34),
        ):
            assert abs(a - b) <= 1e-12
    report(5, "quasiprobability identities on 1000 random instances + grid")


def test_criterion_6_nsc_cross_validation():
    """Three feasibility routes agree on 10^4 uniform random triples."""
    rng = np.random.default_rng(6)
    disagreements = 0
    for _ in range(10_000):
        t = CorrelationTriple(*(rng.uniform(-1.0, 1.0, 3)))
        via_moments = macrorealist_feasible(t)
        via_vertices = feasibility_oracle(t)
        lg = lg_from_quasi(via_moments)
        via_lgi = min(lg.k31, lg.k32, lg.k33, lg.k34) >= -4e-12
        if not (via_moments.feasible == via_vertices.feasible == via_lgi):
            disagreements += 1
        assert abs(via_moments.margin - via_vertices.margin) <= 1e-12
    assert disagreements == 0
    report(6, "zero disagreements among three feasibility routes on 10^4 triples")


def test_criterion_7_signaling_contrast():
    """Projective intervention shifts statistics by |alpha*beta| while the
    quasiprobability marginals stay non-signaling."""
    m2, m3 = path_observable(), output_observable()
    for beta in GRID:
        cfg = MZConfig(beta=float(beta))
        gap = signaling_gap_projective(cfg)
        assert abs(gap - abs(cfg.alpha * cfg.beta)) <= 1e-12
        assert max(nsit_check(input_state(cfg), m2, m3)) < 1e-12
    report(7, "projective signaling gap |alpha*beta| vs structural NSIT")


def test_criterion_8_three_time_sanity():
    """Precession K3 = 1/2 at theta = pi/3 and K3 <= 1/2 over a 1000-point grid."""
    assert abs(precession_k3(np.pi / 3) - 0.5) <= 1e-9
    for theta in np.linspace(0.0, 2 * np.pi, 1000):
        assert precession_k3(float(theta)) <= 0.5 + 1e-9
    report(8, "three-time precession K3 maximum 1/2 at theta = pi/3")


def test_criterion_9_monte_carlo_consistency():
    """1e6 shots x 100 seeds at beta = 1/2: 4-sigma coverage >= 98/100,
    byte-identical reruns, < 60 s."""
    cfg = MZConfig(beta=0.5)
    shots = 1_000_000
    p4_true = (2 - SQ3) / 4
    corr_true = 0.0
    k31_true = (1 - SQ3) / 2
    gap_true = SQ3 / 4
    start = time.perf_counter()
    hits = 0
    for seed in range(100):
        est = mc_run(RunSpec(cfg=cfg, shots=shots, seed=seed, kind="interference"))
        ok = abs(est.estimates["psi4"] - p4_true) < 4 * est.stderr["psi4"]
        lg = empirical_lg(cfg, shots, seed)
        ok &= abs(lg.corr_est - corr_true) < 4 * lg.corr_stderr
        ok &= abs(lg.report.k31 - k31_true) < 4 * lg.k_stderr[31]
        gap, se = empirical_nsit(cfg, shots, seed)
        ok &= abs(gap - gap_true) < 4 * se
        hits += int(ok)
    elapsed = time.perf_counter() - start
    assert hits >= 98, f"only {hits}/100 repetitions inside 4-sigma bands"
    assert elapsed < 60.0, f"runtime {elapsed:.1f}s exceeds 60s"
    # determinism: identical seeds give identical results
    spec = RunSpec(cfg=cfg, shots=shots, seed=0, kind="sequential")
    assert mc_run(spec).counts == mc_run(spec).counts
    report(9, f"Monte Carlo 4-sigma coverage {hits}/100 in {elapsed:.1f}s, reruns identical")


def test_criterion_10_special_case_spot_checks():
    """beta=0 weak values both 1; p3 = p4 = 1/2; psi4 extinction at alpha = beta."""
    w3, w4 = mz_weak_values(MZConfig(beta=0.0))
    assert w3.value == 1.0 and w4.value == 1.0
    p3, p4 = detection_probabilities(MZConfig(beta=0.0))
    assert p3 == 0.5 and p4 == 0.5
    _, p4_dark = detection_probabilities(MZConfig(beta=1 / SQ2, alpha=1 / SQ2))
    assert p4_dark == 0.0
    report(10, "beta=0 weak values/probabilities and balanced-port extinction exact")
