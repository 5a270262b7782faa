"""Version-stable sums: the bits of lglab's folded sums on fixed inputs.

Builtin ``sum`` of floats is compensated since Python 3.12, so a sum written
with it gives other bits on other interpreters. lglab writes its float sums
as left folds instead: ``sequential_correlation`` and the ``QuasiprobTable``
reads ``total``, ``moments`` and ``negativity``. This script computes them on
fixed random inputs, built with the standard library alone (every
constructor it calls takes its plain-Python path, so numpy is never
imported), and compares a sha256 of their ``float.hex`` with the digest
recorded below. Run it from anywhere; it reads the ``src`` tree beside it:

    python tests/portable_bits.py

It exits 0 when the digest is the recorded one, on every supported Python,
and 1 otherwise. ``tests/test_quasiprob.py`` computes the digest in process
with the tests, so the recorded value cannot go stale.
"""

from __future__ import annotations

import hashlib
import random
import sys
from pathlib import Path

RECORDED = "7c5f7c5ff6bce65c97a156d1ca0879a4717528da9788203c1aeef52fdb56ac39"
INSTANCES = 5000
PINNED_TABLES = ((1e16, 1.0, -1e16, 1.0), (1e16, 1.0, 1e16, -1.0), (-1e16, -1.0, -1.0, 1e16))


def _amps(rng: random.Random) -> list[complex]:
    return [complex(rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0)) for _ in range(2)]


def digest() -> str:
    """The sha256 of the folded quantities, one ``float.hex`` a line."""
    from lglab import DichotomicObservable, StateVector, projector_onto, quasi, sequential_correlation
    from lglab.quasiprob import QuasiprobTable

    def observable():
        up = StateVector(_amps(rng), normalize=True)
        x, y = up._flat
        down = StateVector([-y.conjugate(), x.conjugate()])
        return DichotomicObservable(projector_onto(up), projector_onto(down))

    rng = random.Random(7)
    values = []
    for _ in range(INSTANCES):
        state, mi, mj = StateVector(_amps(rng), normalize=True), observable(), observable()
        table = quasi(state, mi, mj)
        values += [sequential_correlation(state, mi, mj), table.total(), *table.moments(), table.negativity]
    # tables on which a left fold and a compensated sum disagree: the first in
    # total and <Mj>, the second in <Mi> and <Mi Mj>, the third in negativity
    for entries in PINNED_TABLES:
        table = QuasiprobTable(dict(zip(((+1, +1), (+1, -1), (-1, +1), (-1, -1)), entries)))
        values += [table.total(), *table.moments(), table.negativity]
    return hashlib.sha256("\n".join(v.hex() for v in values).encode()).hexdigest()


def main() -> int:
    got = digest()
    if got != RECORDED:
        print(f"portable bits: sha256 {got}, recorded {RECORDED}", file=sys.stderr)
        return 1
    print(f"portable bits: sha256 {got} on Python {sys.version.split()[0]}")
    return 0


if __name__ == "__main__":
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))
    sys.exit(main())
