"""A standing mutation check: does the test suite still catch a fixed list of faults?

Each mutant replaces one exact piece of source text, found exactly once, in a
temporary copy of the project (``src``, ``tests`` and ``pyproject.toml``) and
runs ``python -m pytest -x tests`` there, all but ``tests/test_mutants.py``.
The mutant is killed when that run fails, or runs past the timeout. The unmutated copy is run first and must
pass, so that no kill is a failure the suite has anyway.

Run it from anywhere, with the test extra installed:

    python tests/mutants.py

It prints one line per mutant and a kill count. The exit code is 0 when every
mutant is killed except the listed equivalent survivors, 1 when another one
survives, and 2 when the unmutated copy fails or a mutant's text is not found
exactly once (the list no longer matches the source). That last check,
``stale_anchors``, runs before any suite run, and ``tests/test_mutants.py``
runs it with the tests. A surviving mutant costs one full suite run, about a
minute, so the mutants run as their own CI step, not with the tests.

The list holds twenty-four hand-made mutants on the current source: two K signs,
the rule-of-three error, the clip of p at 1, an interferometer input whose
norm drops the imaginary part of e^{i phi} beta (at a nonzero phase the
state is off unit norm, and the state route and the sequential closed form
move alike, so no comparison of those two sees it), a sequential closed form whose
p(-1, .) drops the imaginary part of the amplitude (only a nonzero phase makes
that part nonzero), the p kernel's zero-phase branch taken on the wrong side
of its test, six boundaries, a report that reads its verdict past a NaN K,
interferometer records that drop ``phi``, sweep CSV lines that print a
defined row's weak values to 16 digits, an MZ
quasiprobability table whose M3 residuals compare each marginal with the
other port, a weak-value overlap kernel whose squared norm drops the
imaginary parts (only the bit-for-bit weak-value properties at a nonzero
phase see it: the weak value is a ratio of overlaps, so only p(f) moves), and
an ``MZConfig`` that lets the OverflowError of an alpha past about 1.34e154
escape, a ``StateVector`` that keeps the subnormal or infinite norm of its
input after rescaling the parts, child seeds whose output words skip the
final xorshift of numpy's ``SeedSequence``, an integer check whose fast
path lets a bool through as a shot count, an NSIT estimator that draws its
interference run, which goes round ``run``, at its sequential run's seed, and
a record equality that compares only the first field, so that two configs
that differ only in ``phi`` compare equal.
Three of the boundaries are the one violation rule, ``qcore._violates``: the
predicate itself, and the two readers that once spelt the rule out, each made
to count K = -VIOLATION_TOL as a violation. Three more boundaries are equivalent survivors. One is
``weakval._ratio`` with ``<`` for ``<=`` on ``OVERLAP_TOL``: no input the
suite can build gives |overlap|^2 of exactly 1e-15. Another is
``StateVector``'s range check with ``<`` for ``<=`` at the smallest normal
double: the rescale there is by a power of two, which ``math.hypot``
scales out exactly, so no bit moves. The third is
``QuasiprobTable.negativity`` with ``<=`` for ``<``: a zero entry, of
either sign, takes a zero off the fold and leaves its bytes as they were
(all 38416 four-entry tables over +-0, +-subnormal, +-smallest normal,
+-0.1, +-1, +-largest double and +-inf agree), and ``_checked`` names a NaN
before the fold.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# a run that takes longer than this is stopped and counted as a kill
TIMEOUT_S = 900


@dataclass(frozen=True)
class Mutant:
    name: str
    path: str
    old: str
    new: str
    # why the mutant is equivalent, for the documented survivors
    equivalent: str | None = None


MUTANTS = (
    Mutant(
        "k_from_moments: the sign of <M2 M3> in K31",
        "src/lglab/lgi.py",
        "31: 1.0 - e2 - e23 + e3,",
        "31: 1.0 - e2 + e23 + e3,",
    ),
    Mutant(
        "_mz_k: the sign of the cross term in K31",
        "src/lglab/interferometer.py",
        "2.0 * beta * (beta - alpha * c),",
        "2.0 * beta * (beta + alpha * c),",
    ),
    Mutant(
        "SampleEstimate.stderr: the rule-of-three bound 3/N",
        "src/lglab/experiment.py",
        "if c else 3.0 / n",
        "if c else 1.0 / n",
    ),
    Mutant(
        "_mz_probabilities: the clip of p3 at 1",
        "src/lglab/interferometer.py",
        "return min(q3 / 2.0, 1.0), min(q4 / 2.0, 1.0)",
        "return q3 / 2.0, min(q4 / 2.0, 1.0)",
    ),
    Mutant(
        "_unit_parts: the norm without the imaginary part of e^{i phi} beta",
        "src/lglab/interferometer.py",
        "n = math.hypot(a, 0.0, b.real, b.imag)",
        "n = math.hypot(a, 0.0, b.real)",
    ),
    Mutant(
        "_mz_sequential: p(-1, .) without the square of the imaginary amplitude",
        "src/lglab/interferometer.py",
        "2.0 * (yr * yr + yi * yi)",
        "2.0 * (yr * yr)",
    ),
    Mutant(
        "_mz_probabilities: the zero-phase branch taken where beta*sin(phi) is nonzero",
        "src/lglab/interferometer.py",
        "        if bs\n",
        "        if not bs\n",
    ),
    Mutant(
        "_violates: K = -VIOLATION_TOL violates (< to <=)",
        "src/lglab/qcore.py",
        "return k < -VIOLATION_TOL",
        "return k <= -VIOLATION_TOL",
    ),
    Mutant(
        "QuasiprobTable.feasible: 4 min q = -VIOLATION_TOL is infeasible (>= to >)",
        "src/lglab/quasiprob.py",
        "return not _violates(4.0 * self.margin)",
        "return not _violates(4.0 * self.margin) and 4.0 * self.margin != -1e-12",
    ),
    Mutant(
        "WeakValueResult.anomalous_real: K = -VIOLATION_TOL is anomalous (> to >=)",
        "src/lglab/weakval.py",
        "return bool(_violates(2.0 * self.postselect_prob * (1.0 - abs(self.value.real))))",
        "return bool(_violates(k := 2.0 * self.postselect_prob * (1.0 - abs(self.value.real)))"
        " or k == -1e-12)",
    ),
    Mutant(
        "TwoTimeLGReport.violated_index: no NaN check before the verdict",
        "src/lglab/lgi.py",
        "return _lowest_violation(_named_nan((self.k31, self.k32, self.k33, self.k34)))",
        "return _lowest_violation((self.k31, self.k32, self.k33, self.k34))",
    ),
    Mutant(
        "cli._mz: the interferometer record prefix without phi",
        "src/lglab/cli.py",
        '"alpha": cfg.alpha, "phi": cfg.phi, **fields(cfg, merged)}',
        '"alpha": cfg.alpha, **fields(cfg, merged)}',
    ),
    Mutant(
        "cli._write_sweep: the w3 and w4 cells of a defined row at 16 digits",
        "src/lglab/cli.py",
        '_CSV_DEFINED_LINE = "%.15g," * 10 + "%s\\n"',
        '_CSV_DEFINED_LINE = "%.15g," * 6 + "%.16g," * 2 + "%.15g," * 2 + "%s\\n"',
    ),
    Mutant(
        "mz_quasi: the M3 residuals read q(., +1) against p3 and q(., -1) against p4",
        "src/lglab/quasiprob.py",
        "return _with_residuals(q, alpha**2, beta**2, p4, p3)",
        "return _with_residuals(q, alpha**2, beta**2, p3, p4)",
    ),
    Mutant(
        "_mz_overlaps: the squared norm without the imaginary-part dot",
        "src/lglab/weakval.py",
        "sq = np.matmul(re[:, None, :], re[:, :, None]) + np.matmul(im[:, None, :], im[:, :, None])",
        "sq = np.matmul(re[:, None, :], re[:, :, None])",
    ),
    Mutant(
        "MZConfig: the OverflowError of alpha**2 left uncaught",
        "src/lglab/interferometer.py",
        "except OverflowError:  # |alpha| past about 1.34e154",
        "except ZeroDivisionError:  # |alpha| past about 1.34e154",
    ),
    Mutant(
        "StateVector: the norm left unscaled after the parts are rescaled",
        "src/lglab/qcore.py",
        "norm, scale = math.hypot(xr, xi, yr, yi), math.ldexp(1.0, k)",
        "norm, scale = norm, math.ldexp(1.0, k)",
    ),
    Mutant(
        "_child_seeds: the output words without their xorshift",
        "src/lglab/experiment.py",
        "words.append(v ^ v >> 16)",
        "words.append(v)",
    ),
    Mutant(
        "_integer: the int fast path accepts a bool",
        "src/lglab/experiment.py",
        "if type(value) is int:",
        "if type(value) in (int, bool):",
    ),
    Mutant(
        "empirical_nsit: the interference child drawn at the sequential child's seed",
        "src/lglab/experiment.py",
        '_counts(_sampling_vectors(cfg)["interference"][1], shots, s_int)',
        '_counts(_sampling_vectors(cfg)["interference"][1], shots, s_seq)',
    ),
    Mutant(
        "_Record.__eq__: only the first field compared",
        "src/lglab/qcore.py",
        "return self._fields(self) == other._fields(other)",
        "return self._fields(self)[0] == other._fields(other)[0]",
    ),
    Mutant(
        "StateVector: a norm of exactly the smallest normal double is rescaled (<= to <)",
        "src/lglab/qcore.py",
        "if not sys.float_info.min <= norm < math.inf:",
        "if not sys.float_info.min < norm < math.inf:",
        equivalent="the rescale is by a power of two, which math.hypot scales out exactly,"
        " so a normal norm and every stored part keep their bits",
    ),
    Mutant(
        "_ratio: |overlap|^2 = OVERLAP_TOL is defined (<= to <)",
        "src/lglab/weakval.py",
        "if prob <= OVERLAP_TOL:",
        "if prob < OVERLAP_TOL:",
        equivalent="no input gives |overlap|^2 of exactly 1e-15",
    ),
    Mutant(
        "QuasiprobTable.negativity: a zero entry counts as negative (< to <=)",
        "src/lglab/quasiprob.py",
        "            if v < 0.0:\n                neg -= v",
        "            if v <= 0.0:\n                neg -= v",
        equivalent="a +-0.0 term leaves the fold's bytes unchanged, and _checked names"
        " a NaN before the fold",
    ),
)


def _copy(dest: Path) -> None:
    ignore = shutil.ignore_patterns("__pycache__", ".hypothesis", ".pytest_cache", "*.egg-info")
    for part in ("src", "tests"):
        shutil.copytree(ROOT / part, dest / part, ignore=ignore)
    shutil.copy2(ROOT / "pyproject.toml", dest / "pyproject.toml")


def stale_anchors(mutants, root: Path) -> list[str]:
    """What no longer matches the source under ``root``: each mutant whose
    ``old`` text does not occur exactly once in its file, or equals ``new``."""
    problems = []
    for mutant in mutants:
        count = (root / mutant.path).read_text().count(mutant.old)
        if count != 1:
            problems.append(f"{mutant.name!r}: {mutant.path}: {mutant.old!r} occurs {count} times")
        if mutant.old == mutant.new:
            problems.append(f"{mutant.name!r}: its new text is its old text")
    return problems


def _mutate(dest: Path, mutant: Mutant) -> None:
    path = dest / mutant.path
    text = path.read_text()
    if text.count(mutant.old) != 1:
        raise LookupError(f"{mutant.path}: {mutant.old!r} occurs {text.count(mutant.old)} times")
    path.write_text(text.replace(mutant.old, mutant.new))


def _suite_fails(dest: Path) -> bool:
    """Whether ``pytest -x tests`` fails (or times out) in the copy at ``dest``.

    ``tests/test_mutants.py`` is left out: its anchor check fails on every
    mutated copy by construction, since the mutant has replaced its anchor,
    so it would kill every mutant without testing the program.
    """
    env = {**os.environ, "PYTHONPATH": str(dest / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    cmd = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
           "--ignore=tests/test_mutants.py", "tests"]
    try:
        run = subprocess.run(cmd, cwd=dest, env=env, capture_output=True, timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return True
    return run.returncode != 0


def _run(mutant: Mutant | None) -> bool:
    """Whether the suite fails on a fresh copy with ``mutant`` applied (None: unmutated)."""
    with tempfile.TemporaryDirectory(prefix="lglab-mutant-") as tmp:
        dest = Path(tmp)
        _copy(dest)
        if mutant is not None:
            _mutate(dest, mutant)
        return _suite_fails(dest)


def main() -> int:
    stale = stale_anchors(MUTANTS, ROOT)
    for problem in stale:
        print(f"stale mutant {problem}", file=sys.stderr)
    if stale:
        return 2
    start = time.perf_counter()
    if _run(None):
        print("the unmutated copy fails its tests: no mutant can be scored", file=sys.stderr)
        return 2
    print(f"unmutated copy passes ({time.perf_counter() - start:.1f} s)", flush=True)
    killed, unexpected = 0, []
    for mutant in MUTANTS:
        start = time.perf_counter()
        try:
            dead = _run(mutant)
        except LookupError as exc:
            print(f"stale mutant {mutant.name!r}: {exc}", file=sys.stderr)
            return 2
        killed += dead
        note = ""
        if dead:
            verdict = "killed  "
        elif mutant.equivalent:
            verdict, note = "survived", f"; equivalent: {mutant.equivalent}"
        else:
            verdict = "SURVIVED"
            unexpected.append(mutant.name)
        print(f"{verdict} {mutant.name} ({time.perf_counter() - start:.1f} s){note}", flush=True)
    print(f"killed {killed} of {len(MUTANTS)}")
    return 1 if unexpected else 0


if __name__ == "__main__":
    sys.exit(main())
