"""Finite-shot Monte Carlo emulation of the interferometer experiments.

Three run kinds are modeled, each a multinomial draw from exact quantum
probabilities:

* ``interference`` -- detect at the output ports {psi3, psi4};
* ``path`` -- projective which-path measurement, outcomes {psi1, psi2};
* ``sequential`` -- path measurement followed by port detection, four joint
  outcomes (m2, m3) from the two-step projective rule.

Randomness comes from numpy's Philox (4x64) counter-based bit generator keyed
directly by the run seed. Philox's whole stream is fixed by its (key, counter)
pair, so each thread keeps one generator and resets it to (seed, counter 0)
before every draw: that is exactly the stream of a freshly keyed generator,
without the OS-entropy seeding its construction costs. Identical (spec, seed)
pairs therefore give bit-identical counts regardless of host or thread count.
The fixed inputs of a run are built once: the normalised probability vector
once per (config, kind), and the child seeds once per master seed, each in a
small bounded memo (``_MEMO_SIZE`` entries, least recently used out first).
numpy is imported where those memos miss and where a thread builds its
generator, never at load and never on a run's steady path, so a command that
draws nothing loads none of it.
Standard errors are plain multinomial sqrt(p(1-p)/N); zero-count outcomes get
the rule-of-three upper bound 3/N instead, noted in the estimate metadata.
Results store only the counts or moments; estimates, errors, metadata and K
are properties of them.
"""

from __future__ import annotations

import functools
import math
import operator
import threading
from dataclasses import dataclass

from .interferometer import (
    MZConfig,
    detection_probabilities,
    input_state,
    output_observable,
    path_observable,
)
from .lgi import _K_SIGNS, TwoTimeLGReport, k_from_moments, sequential_joint

KINDS = ("interference", "path", "sequential")

# joint-outcome labels in fixed order: (m2, m3) with psi4 as m3 = +1
SEQ_OUTCOMES = ((+1, +1), (+1, -1), (-1, +1), (-1, -1))
_SEQ_LABELS = {(m2, m3): f"m2={m2:+d},m3={m3:+d}" for m2, m3 in SEQ_OUTCOMES}

# entries per memo: a criterion-9 block reuses one config's three vectors and
# one master seed's children, so a few dozen cover any interleaving of blocks
_MEMO_SIZE = 64


# one Philox generator per thread, built on the thread's first run: built at
# import, it would put numpy's import into every command, not only runs
_THREAD = threading.local()


def _keyed(seed: int):
    """This thread's ``numpy.random.Generator`` in the state of a fresh
    ``Philox(key=seed)``: counter 0, key (seed, 0), an empty buffer and no
    cached half-word."""
    try:
        gen = _THREAD.generator
    except AttributeError:
        import numpy as np

        gen = _THREAD.generator = np.random.Generator(np.random.Philox())
    gen.bit_generator.state = {
        "bit_generator": "Philox",
        "state": {"counter": (0, 0, 0, 0), "key": (seed, 0)},
        "buffer": (0, 0, 0, 0),
        "buffer_pos": 4,
        "has_uint32": 0,
        "uinteger": 0,
    }
    return gen


def _integer(name: str, value) -> int:
    """``value`` as an int (numpy integers pass, booleans do not); a ValueError
    naming the field otherwise."""
    if not isinstance(value, bool):
        try:
            return operator.index(value)
        except TypeError:
            pass
    raise ValueError(f"{name} must be an integer, got {value!r}")


def _check_seed(seed) -> int:
    """The one seed rule, for run seeds and master seeds alike."""
    value = _integer("seed", seed)
    if not 0 <= value < 2**64:
        raise ValueError(f"seed must be a 64-bit unsigned integer, got {seed}")
    return value


@dataclass(frozen=True)
class RunSpec:
    """One run's config, shot count, seed and kind; ``shots`` and ``seed`` are
    stored as Python ints, so numpy integers give the same results as ints."""

    cfg: MZConfig
    shots: int
    seed: int
    kind: str

    def __post_init__(self):
        if not isinstance(self.cfg, MZConfig):
            raise ValueError(f"cfg must be an MZConfig, got {self.cfg!r}")
        shots = _integer("shots", self.shots)
        if not 1 <= shots <= 2**63 - 1:
            raise ValueError(f"shots must lie in [1, 2**63 - 1], got {self.shots}")
        seed = _check_seed(self.seed)
        if self.kind not in KINDS:
            raise ValueError(f"kind must be one of {KINDS}, got {self.kind!r}")
        if shots is not self.shots or seed is not self.seed:  # numpy integers: store the ints
            object.__setattr__(self, "shots", shots)
            object.__setattr__(self, "seed", seed)


@dataclass(frozen=True)
class SampleEstimate:
    """The counts of one run; everything else is read off them and the spec."""

    spec: RunSpec
    counts: dict[str, int]

    @property
    def total(self) -> int:
        return self.spec.shots

    def estimate(self, outcome: str) -> float:
        return self.counts[outcome] / self.spec.shots

    @property
    def estimates(self) -> dict[str, float]:
        return {k: self.estimate(k) for k in self.counts}

    @property
    def stderr(self) -> dict[str, float]:
        """sqrt(p(1-p)/N) per outcome; 3/N (rule of three) for a zero count."""
        n = self.spec.shots
        return {k: math.sqrt(c / n * (1.0 - c / n) / n) if c else 3.0 / n
                for k, c in self.counts.items()}

    @property
    def metadata(self) -> dict:
        meta = {"rng": "numpy Philox(4x64)", "seed": self.spec.seed, "kind": self.spec.kind}
        zero = [k for k, c in self.counts.items() if c == 0]
        if zero:
            meta["zero_count_stderr_rule"] = "rule-of-three upper bound 3/N"
            meta["zero_count_outcomes"] = zero
        return meta


def outcome_probabilities(cfg: MZConfig, kind: str) -> dict[str, float]:
    """Exact model probabilities for one run kind, in fixed outcome order."""
    if kind == "interference":
        p3, p4 = detection_probabilities(cfg)
        return {"psi3": p3, "psi4": p4}
    if kind == "path":
        return {"psi1": cfg.alpha**2, "psi2": cfg.beta**2}
    if kind == "sequential":
        joint = sequential_joint(input_state(cfg), path_observable(), output_observable())
        return {label: joint[m] for m, label in _SEQ_LABELS.items()}
    raise ValueError(f"kind must be one of {KINDS}, got {kind!r}")


@functools.lru_cache(maxsize=_MEMO_SIZE)
def _sampling_vector(cfg: MZConfig, kind: str) -> tuple:
    """The outcome labels and the read-only normalised probability vector
    (an ndarray) of one run kind.

    Configs that compare equal share an entry: their (beta, alpha, phi) differ
    at most in the sign of a zero, which no probability depends on.
    """
    import numpy as np

    probs = outcome_probabilities(cfg, kind)
    # normalised against 1e-16 drift in the tail entry, with the bits of
    # ``pvec / pvec.sum()``: numpy sums fewer than eight entries left to right
    # (builtin sum compensates since Python 3.12), and divides as Python does
    total = 0.0
    for p in probs.values():
        total += p
    pvec = np.array([p / total for p in probs.values()])
    pvec.setflags(write=False)
    return tuple(probs), pvec


def run(spec: RunSpec) -> SampleEstimate:
    """Sample one run: the counts, from which the estimates and errors are read."""
    labels, pvec = _sampling_vector(spec.cfg, spec.kind)
    counts = _keyed(spec.seed).multinomial(spec.shots, pvec)
    return SampleEstimate(spec, dict(zip(labels, counts.tolist())))


# typed: a bool is checked (and rejected) even after an equal integer was cached
@functools.lru_cache(maxsize=_MEMO_SIZE, typed=True)
def _child_seeds(seed: int) -> tuple[int, int, int]:
    """The three run seeds (interference, path, sequential) derived from one master seed.

    ``generate_state`` is prefix-stable, so a caller that needs two takes the first two.
    """
    import numpy as np

    states = np.random.SeedSequence(_check_seed(seed)).generate_state(3, np.uint64)
    return tuple(int(s) for s in states)


def _moment_stderr(m: float, n: int) -> float:
    # variance of a +-1-valued empirical mean: (1 - m^2)/N
    return math.sqrt(max(0.0, 1.0 - m * m) / n)


@dataclass(frozen=True)
class EmpiricalLGReport:
    """Finite-shot moment estimates; K values and propagated errors are read off them."""

    m2_est: float
    m3_est: float
    corr_est: float
    shots: int
    seed: int

    @property
    def report(self) -> TwoTimeLGReport:
        """K31..K34 of the moments; of several violations (noise) the most negative is named."""
        return TwoTimeLGReport(*k_from_moments(self.m2_est, self.m3_est, self.corr_est).values())

    @property
    def m2_stderr(self) -> float:
        return _moment_stderr(self.m2_est, self.shots)

    @property
    def m3_stderr(self) -> float:
        return _moment_stderr(self.m3_est, self.shots)

    @property
    def corr_stderr(self) -> float:
        return _moment_stderr(self.corr_est, self.shots)

    @property
    def k_stderr(self) -> dict[int, float]:
        """The three moment errors in quadrature, the same for every K."""
        se = math.sqrt(self.m2_stderr**2 + self.m3_stderr**2 + self.corr_stderr**2)
        return dict.fromkeys(_K_SIGNS, se)

    @property
    def run_seeds(self) -> dict[str, int]:
        """The seed of each of the three runs, so that any one can be replayed alone."""
        return dict(zip(KINDS, _child_seeds(self.seed)))


def empirical_lg(cfg: MZConfig, shots: int, seed: int) -> EmpiricalLGReport:
    """Estimate K31..K34 from three independent simulated runs.

    <M3> comes from an interference run (psi4 is the +1 outcome), <M2> from a
    path run, and <M2 M3> from a sequential run; per-K errors are the three
    moment errors combined in quadrature.
    """
    s_int, s_path, s_seq = _child_seeds(seed)
    interference = run(RunSpec(cfg=cfg, shots=shots, seed=s_int, kind="interference"))
    shots = interference.total  # the checked int
    path = run(RunSpec(cfg=cfg, shots=shots, seed=s_path, kind="path"))
    sequential = run(RunSpec(cfg=cfg, shots=shots, seed=s_seq, kind="sequential"))

    m3 = interference.estimate("psi4") - interference.estimate("psi3")
    m2 = path.estimate("psi1") - path.estimate("psi2")
    # a left fold, as builtin sum was until Python 3.12 began to compensate:
    # the same bits on every supported version
    corr = 0.0
    for (m2v, m3v), label in _SEQ_LABELS.items():
        corr += m2v * m3v * sequential.estimate(label)
    return EmpiricalLGReport(m2_est=m2, m3_est=m3, corr_est=corr, shots=shots, seed=int(seed))


def empirical_nsit(cfg: MZConfig, shots: int, seed: int) -> tuple[float, float]:
    """Estimated signaling gap p(psi3 | no path measurement) - p(psi3 | path measured).

    The true value is alpha*beta*cos(phi) (the sequential side is exactly 1/2); a
    nonzero gap is the operational-non-invasiveness failure of an actual
    projective intervention. The interference run takes the first child seed
    and the sequential run the second, the one ``run_seeds`` labels ``path``,
    so the gap replays from those two entries of the same master seed.
    """
    s_int, s_seq = _child_seeds(seed)[:2]
    interference = run(RunSpec(cfg=cfg, shots=shots, seed=s_int, kind="interference"))
    shots = interference.total  # the checked int
    sequential = run(RunSpec(cfg=cfg, shots=shots, seed=s_seq, kind="sequential"))
    p3_int = interference.estimate("psi3")
    # psi3 is the m3 = -1 outcome
    p3_seq = (sequential.estimate(_SEQ_LABELS[(+1, -1)])
              + sequential.estimate(_SEQ_LABELS[(-1, -1)]))
    se = math.sqrt(p3_int * (1.0 - p3_int) / shots + p3_seq * (1.0 - p3_seq) / shots)
    return p3_int - p3_seq, se
