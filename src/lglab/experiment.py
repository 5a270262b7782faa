"""Finite-shot Monte Carlo emulation of the interferometer experiments.

Three run kinds are modeled, each a multinomial draw from exact quantum
probabilities: ``interference`` detects at the output ports {psi3, psi4};
``path`` is a projective which-path measurement, outcomes {psi1, psi2};
``sequential`` is a path measurement then port detection, four joint outcomes
(m2, m3) from the two-step projective rule.

Randomness comes from numpy's Philox (4x64) counter-based generator keyed
directly by the run seed. Its stream is fixed by (key, counter), so each thread
keeps one generator and resets it to (seed, counter 0) before every draw: the
stream of a freshly keyed generator, without the OS-entropy seeding its
construction costs, so a (spec, seed) pair gives the same counts on any host
and thread count. Bounded memos (``_MEMO_SIZE`` entries, least recently used
out first) hold a run's fixed inputs: per config, one read-only probability
array per kind, normalised, from one pass over the ``interferometer`` closed
forms (no ``StateVector``); per master seed, the child seeds (numpy's
``SeedSequence`` bits in plain Python, hash multipliers tabulated at import).
``run`` is the public single-run route; each estimator checks its inputs once,
through ``run`` on its sequential child, and draws the others from the memo
through the same draw, ``_counts``. numpy loads only for the draw and the
vectors, never at import, so a command that draws nothing loads none.
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

from .interferometer import MZConfig, _mz_sequential, detection_probabilities
from .lgi import _K_SIGNS, TwoTimeLGReport, k_from_moments
from .qcore import _Record

KINDS = ("interference", "path", "sequential")

# joint-outcome labels in fixed order: (m2, m3) with psi4 as m3 = +1
SEQ_OUTCOMES = ((+1, +1), (+1, -1), (-1, +1), (-1, -1))
_SEQ_LABELS = {(m2, m3): f"m2={m2:+d},m3={m3:+d}" for m2, m3 in SEQ_OUTCOMES}

# entries per memo: one config's vector set (all three kinds) or one master
# seed's children per entry; a criterion-9 block reuses one of each, so a few
# dozen cover any interleaving of blocks
_MEMO_SIZE = 64


# one Philox generator and state dict per thread, built on the thread's first
# run (at import, numpy would load in every command); each run sets only the
# dict's key, and a dict shared by threads could take another thread's key
_THREAD = threading.local()


def _keyed(seed: int):
    """This thread's ``numpy.random.Generator`` in the state of a fresh
    ``Philox(key=seed)``: counter 0, key (seed, 0), an empty buffer and no
    cached half-word."""
    try:
        gen, bit_generator, state, inner = _THREAD.philox
    except AttributeError:
        import numpy as np

        gen = np.random.Generator(np.random.Philox())
        bit_generator, inner = gen.bit_generator, {"counter": (0, 0, 0, 0)}
        state = {"bit_generator": "Philox", "state": inner, "buffer": (0, 0, 0, 0),
                 "buffer_pos": 4, "has_uint32": 0, "uinteger": 0}
        _THREAD.philox = gen, bit_generator, state, inner
    inner["key"] = (seed, 0)
    bit_generator.state = state
    return gen


def _integer(name: str, value) -> int:
    """``value`` as an int (numpy integers pass, booleans do not); a ValueError
    naming the field otherwise."""
    if type(value) is int:
        return value
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


class RunSpec(_Record):
    """One run's config, shot count, seed and kind; ``shots`` and ``seed`` are
    stored as Python ints, so numpy integers give the same results as ints."""

    __slots__ = ("cfg", "shots", "seed", "kind")

    def __init__(self, cfg: MZConfig, shots: int, seed: int, kind: str):
        if not isinstance(cfg, MZConfig):
            raise ValueError(f"cfg must be an MZConfig, got {cfg!r}")
        checked = _integer("shots", shots)
        if not 1 <= checked <= 2**63 - 1:
            raise ValueError(f"shots must lie in [1, 2**63 - 1], got {shots}")
        seed = _check_seed(seed)
        if kind not in KINDS:
            raise ValueError(f"kind must be one of {KINDS}, got {kind!r}")
        object.__setattr__(self, "cfg", cfg)
        object.__setattr__(self, "shots", checked)
        object.__setattr__(self, "seed", seed)
        object.__setattr__(self, "kind", kind)


# the one dataclass left: bench/test_bench.py calls ``dataclasses.replace`` on
# an estimate, so it stays one until that test builds its estimate directly
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
        """The generator, numpy's version (its stream drew the counts), seed, kind
        and, for zero counts, the rule of their error."""
        import numpy as np

        meta = {"rng": "numpy Philox(4x64)", "numpy": np.__version__, "seed": self.spec.seed,
                "kind": self.spec.kind}
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
        return dict(zip(_SEQ_LABELS.values(), _mz_sequential(cfg)))
    raise ValueError(f"kind must be one of {KINDS}, got {kind!r}")


@functools.lru_cache(maxsize=_MEMO_SIZE)
def _sampling_vectors(cfg: MZConfig) -> dict[str, tuple]:
    """Each run kind's outcome labels and read-only normalised probability
    vector (an ndarray of its own), all three from one pass.

    Configs that compare equal share an entry: their (beta, alpha, phi) differ
    at most in the sign of a zero, which no probability depends on.
    """
    import numpy as np

    # each normalised against 1e-16 drift in the tail entry, with the bits of
    # ``pvec / pvec.sum()``: numpy sums fewer than eight entries left to right
    # (builtin sum compensates since Python 3.12), and divides as Python does.
    # Plain loops: a comprehension is a function call before Python 3.12
    vectors = {}
    for kind in KINDS:
        probs = outcome_probabilities(cfg, kind)
        total = 0.0
        for p in probs.values():
            total += p
        flat = []
        for p in probs.values():
            flat.append(p / total)
        pvec = np.array(flat)
        pvec.setflags(write=False)
        vectors[kind] = tuple(probs), pvec
    return vectors


def _counts(pvec, shots: int, seed: int) -> list[int]:
    """One run's counts, in the label order of ``pvec``, a ``_sampling_vectors`` vector."""
    return _keyed(seed).multinomial(shots, pvec).tolist()


def run(spec: RunSpec) -> SampleEstimate:
    """Sample one run: the counts, from which the estimates and errors are read."""
    labels, pvec = _sampling_vectors(spec.cfg)[spec.kind]
    return SampleEstimate(spec, dict(zip(labels, _counts(pvec, spec.shots, spec.seed))))


_M32 = 0xFFFFFFFF
# numpy's SeedSequence hash: step k xors in the multiplier init * mult^(k-1)
# and multiplies by init * mult^k (mod 2^32), for every seed alike
_A = [0x43B0D7E5 * pow(0x931E8875, k, 2**32) & _M32 for k in range(17)]
_B = [0x8B51F9DD * pow(0x58F38DED, k, 2**32) & _M32 for k in range(7)]
# the four-word pool: the seed's two words hashed, then these two hashed zeros
_PAD = [v ^ v >> 16 for v in (_A[2] * _A[3] & _M32, _A[3] * _A[4] & _M32)]
# then one step per ordered pair (src, dst) of pool words, src != dst, in loop order
_MIX = [(src, dst, _A[k], _A[k + 1]) for k, (src, dst) in enumerate(
    ((src, dst) for src in range(4) for dst in range(4) if src != dst), start=4)]
# generate_state(3, uint64): six 32-bit words cycled from the pool, low word first
_OUT = [(k % 4, _B[k], _B[k + 1]) for k in range(6)]


# typed: a bool is checked (and rejected) even after an equal integer was cached
@functools.lru_cache(maxsize=_MEMO_SIZE, typed=True)
def _child_seeds(seed: int) -> tuple[int, int, int]:
    """The three run seeds (interference, path, sequential) derived from one
    master seed: numpy's ``SeedSequence(seed).generate_state(3, uint64)``.

    A seed's words are (low, high); numpy pads a one-word seed with a zero word.
    ``generate_state`` is prefix-stable, so a caller that needs two takes the first two.
    """
    seed = _check_seed(seed)
    lo = ((seed & _M32) ^ _A[0]) * _A[1] & _M32
    hi = ((seed >> 32) ^ _A[1]) * _A[2] & _M32
    pool = [lo ^ lo >> 16, hi ^ hi >> 16, *_PAD]
    for src, dst, x, m in _MIX:
        v = (pool[src] ^ x) * m & _M32
        v = (0xCA01F9DD * pool[dst] - 0x4973F715 * (v ^ v >> 16)) & _M32
        pool[dst] = v ^ v >> 16
    words = []
    for src, x, m in _OUT:
        v = (pool[src] ^ x) * m & _M32
        words.append(v ^ v >> 16)
    return words[0] | words[1] << 32, words[2] | words[3] << 32, words[4] | words[5] << 32


def _moment_stderr(m: float, n: int) -> float:
    # variance of a +-1-valued empirical mean: (1 - m^2)/N
    return math.sqrt(max(0.0, 1.0 - m * m) / n)


class EmpiricalLGReport(_Record):
    """Finite-shot moment estimates; K values and propagated errors are read off them."""

    __slots__ = ("m2_est", "m3_est", "corr_est", "shots", "seed")

    def __init__(self, m2_est: float, m3_est: float, corr_est: float, shots: int, seed: int):
        object.__setattr__(self, "m2_est", m2_est)
        object.__setattr__(self, "m3_est", m3_est)
        object.__setattr__(self, "corr_est", corr_est)
        object.__setattr__(self, "shots", shots)
        object.__setattr__(self, "seed", seed)

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
    path run, and <M2 M3> from a sequential run, the one through ``run`` (so the
    one input check); per-K errors are the three moment errors in quadrature.
    """
    s_int, s_path, s_seq = _child_seeds(seed)
    sequential = run(RunSpec(cfg=cfg, shots=shots, seed=s_seq, kind="sequential"))
    shots = sequential.total  # the checked int
    vectors = _sampling_vectors(cfg)
    n3, n4 = _counts(vectors["interference"][1], shots, s_int)
    n1, n2 = _counts(vectors["path"][1], shots, s_path)
    m3 = n4 / shots - n3 / shots
    m2 = n1 / shots - n2 / shots
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
    and the sequential run, through ``run`` as in ``empirical_lg``, the second,
    the one ``run_seeds`` labels ``path``: the gap replays from those two.
    """
    s_int, s_seq = _child_seeds(seed)[:2]
    sequential = run(RunSpec(cfg=cfg, shots=shots, seed=s_seq, kind="sequential"))
    shots = sequential.total  # the checked int
    p3_int = _counts(_sampling_vectors(cfg)["interference"][1], shots, s_int)[0] / shots
    # psi3 is the m3 = -1 outcome
    p3_seq = sequential.estimate("m2=+1,m3=-1") + sequential.estimate("m2=-1,m3=-1")
    se = math.sqrt(p3_int * (1.0 - p3_int) / shots + p3_seq * (1.0 - p3_seq) / shots)
    return p3_int - p3_seq, se
