"""Finite-shot Monte Carlo emulation of the interferometer experiments.

Three run kinds are modeled, each a multinomial draw from exact quantum
probabilities:

* ``interference`` -- detect at the output ports {psi3, psi4};
* ``path`` -- projective which-path measurement, outcomes {psi1, psi2};
* ``sequential`` -- path measurement followed by port detection, four joint
  outcomes (m2, m3) from the two-step projective rule.

Randomness comes from numpy's Philox (4x64) counter-based bit generator keyed
directly by the run seed, so identical (spec, seed) pairs give bit-identical
counts regardless of host or thread count. Standard errors are plain
multinomial sqrt(p(1-p)/N); zero-count outcomes get the rule-of-three upper
bound 3/N instead, noted in the estimate metadata.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .interferometer import (
    MZConfig,
    detection_probabilities,
    input_state,
    output_observable,
    path_observable,
)
from .lgi import TwoTimeLGReport, k_from_moments, sequential_joint

KINDS = ("interference", "path", "sequential")

# joint-outcome labels in fixed order: (m2, m3) with psi4 as m3 = +1
SEQ_OUTCOMES = ((+1, +1), (+1, -1), (-1, +1), (-1, -1))


def _seq_label(m2: int, m3: int) -> str:
    return f"m2={m2:+d},m3={m3:+d}"


@dataclass(frozen=True)
class RunSpec:
    cfg: MZConfig
    shots: int
    seed: int
    kind: str

    def __post_init__(self):
        if self.shots < 1:
            raise ValueError("shots must be >= 1")
        if self.shots > 2**63 - 1:
            raise ValueError(f"shots must be <= 2**63 - 1, got {self.shots}")
        if not 0 <= int(self.seed) < 2**64:
            raise ValueError("seed must be a 64-bit unsigned integer")
        if self.kind not in KINDS:
            raise ValueError(f"kind must be one of {KINDS}, got {self.kind!r}")


@dataclass(frozen=True)
class SampleEstimate:
    counts: dict[str, int]
    total: int
    estimates: dict[str, float]
    stderr: dict[str, float]
    metadata: dict = field(default_factory=dict)

    def estimate(self, outcome: str) -> float:
        return self.estimates[outcome]


def outcome_probabilities(cfg: MZConfig, kind: str) -> dict[str, float]:
    """Exact model probabilities for one run kind, in fixed outcome order."""
    if kind == "interference":
        p3, p4 = detection_probabilities(cfg)
        return {"psi3": p3, "psi4": p4}
    if kind == "path":
        return {"psi1": cfg.alpha**2, "psi2": cfg.beta**2}
    if kind == "sequential":
        joint = sequential_joint(input_state(cfg), path_observable(), output_observable())
        return {_seq_label(m2, m3): joint[(m2, m3)] for m2, m3 in SEQ_OUTCOMES}
    raise ValueError(f"kind must be one of {KINDS}, got {kind!r}")


def _rng(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(key=int(seed)))


def run(spec: RunSpec) -> SampleEstimate:
    """Sample one run and return counts, frequency estimates and standard errors."""
    probs = outcome_probabilities(spec.cfg, spec.kind)
    labels = list(probs)
    pvec = np.array([probs[k] for k in labels])
    pvec = pvec / pvec.sum()  # guard against 1e-16 drift in the tail entry
    counts = _rng(spec.seed).multinomial(spec.shots, pvec)
    n = spec.shots
    est = {k: c / n for k, c in zip(labels, counts)}
    stderr = {}
    zero = []
    for k, c in zip(labels, counts):
        if c == 0:
            stderr[k] = 3.0 / n
            zero.append(k)
        else:
            p = c / n
            stderr[k] = float(np.sqrt(p * (1.0 - p) / n))
    meta = {"rng": "numpy Philox(4x64)", "seed": int(spec.seed), "kind": spec.kind}
    if zero:
        meta["zero_count_stderr_rule"] = "rule-of-three upper bound 3/N"
        meta["zero_count_outcomes"] = zero
    return SampleEstimate(
        counts={k: int(c) for k, c in zip(labels, counts)},
        total=n,
        estimates=est,
        stderr=stderr,
        metadata=meta,
    )


def _child_seeds(seed: int, n: int) -> list[int]:
    """Deterministic per-run seeds derived from one master seed."""
    return [int(s) for s in np.random.SeedSequence(int(seed)).generate_state(n, np.uint64)]


def _moment_stderr(m: float, n: int) -> float:
    # variance of a +-1-valued empirical mean: (1 - m^2)/N
    return float(np.sqrt(max(0.0, 1.0 - m * m) / n))


@dataclass(frozen=True)
class EmpiricalLGReport:
    """Finite-shot two-time LG estimates with propagated standard errors."""

    report: TwoTimeLGReport
    k_stderr: dict[int, float]
    m2_est: float
    m2_stderr: float
    m3_est: float
    m3_stderr: float
    corr_est: float
    corr_stderr: float
    shots: int
    seed: int


def empirical_lg(cfg: MZConfig, shots: int, seed: int) -> EmpiricalLGReport:
    """Estimate K31..K34 from three independent simulated runs.

    <M3> comes from an interference run (psi4 is the +1 outcome), <M2> from a
    path run, and <M2 M3> from a sequential run; per-K errors are the three
    moment errors combined in quadrature.
    """
    s_int, s_path, s_seq = _child_seeds(seed, 3)
    interference = run(RunSpec(cfg=cfg, shots=shots, seed=s_int, kind="interference"))
    path = run(RunSpec(cfg=cfg, shots=shots, seed=s_path, kind="path"))
    sequential = run(RunSpec(cfg=cfg, shots=shots, seed=s_seq, kind="sequential"))

    m3 = interference.estimate("psi4") - interference.estimate("psi3")
    m2 = path.estimate("psi1") - path.estimate("psi2")
    corr = sum(
        m2v * m3v * sequential.estimate(_seq_label(m2v, m3v))
        for m2v, m3v in SEQ_OUTCOMES
    )
    se = np.sqrt(
        _moment_stderr(m2, shots) ** 2
        + _moment_stderr(m3, shots) ** 2
        + _moment_stderr(corr, shots) ** 2
    )
    ks = k_from_moments(m2, m3, corr)
    # sampling noise can make more than one estimate dip negative; report the
    # minimum directly rather than asserting the exact-theory exclusivity
    negative = [i for i, v in ks.items() if v < 0.0]
    idx = min(negative, key=lambda i: ks[i]) if negative else None
    report = TwoTimeLGReport(
        k31=ks[31],
        k32=ks[32],
        k33=ks[33],
        k34=ks[34],
        violated_index=idx,
        margin=abs(ks[idx]) if idx is not None else 0.0,
    )
    return EmpiricalLGReport(
        report=report,
        k_stderr={i: float(se) for i in ks},
        m2_est=m2,
        m2_stderr=_moment_stderr(m2, shots),
        m3_est=m3,
        m3_stderr=_moment_stderr(m3, shots),
        corr_est=corr,
        corr_stderr=_moment_stderr(corr, shots),
        shots=shots,
        seed=int(seed),
    )


def empirical_nsit(cfg: MZConfig, shots: int, seed: int) -> tuple[float, float]:
    """Estimated signaling gap p(psi3 | no path measurement) - p(psi3 | path measured).

    The true value is alpha*beta (the sequential side is exactly 1/2); a
    nonzero gap is the operational-non-invasiveness failure of an actual
    projective intervention.
    """
    s_int, s_seq = _child_seeds(seed, 2)
    interference = run(RunSpec(cfg=cfg, shots=shots, seed=s_int, kind="interference"))
    sequential = run(RunSpec(cfg=cfg, shots=shots, seed=s_seq, kind="sequential"))
    p3_int = interference.estimate("psi3")
    # psi3 is the m3 = -1 outcome
    p3_seq = sequential.estimate(_seq_label(+1, -1)) + sequential.estimate(_seq_label(-1, -1))
    se = np.sqrt(
        p3_int * (1.0 - p3_int) / shots + p3_seq * (1.0 - p3_seq) / shots
    )
    return float(p3_int - p3_seq), float(se)
