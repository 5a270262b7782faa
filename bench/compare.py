"""Compare two sets of benchmark results, workload by workload.

Usage::

    python3 bench/compare.py BASE NEW

BASE and NEW are each a result file written by ``bench/run.py`` or a
directory of them (``result-*.json``). Results of the same workload and trace
setting are pooled by taking each metric's median. For every end-to-end
metric the command prints the base and new medians and their difference. For
every per-layer metric it also prints the base share of wall time held by the
metric's layer, which a speed claim has to name. The command only reports;
its exit code does not depend on the deltas.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load(path) -> dict:
    """{(workload, trace): {metric: (median, unit)}} over the result files at ``path``."""
    path = Path(path)
    files = sorted(path.glob("result-*.json")) if path.is_dir() else [path]
    pooled: dict = {}
    for f in files:
        with open(f) as fh:
            rec = json.load(fh)
        group = pooled.setdefault((rec["workload"], int(rec["trace"])), {})
        for name, m in rec["metrics"].items():
            group.setdefault(name, ([], m["unit"]))[0].append(m["value"])
    return {key: {name: (statistics.median(vals), unit) for name, (vals, unit) in group.items()}
            for key, group in pooled.items()}


def directions() -> dict[str, str]:
    try:
        with open(ROOT / "BENCHMARK.json") as fh:
            spec = json.load(fh)
    except (OSError, ValueError):
        return {}
    return {m["name"]: m["better"] for m in spec.get("end_to_end", []) + spec.get("per_layer", [])}


def _delta(base: float, new: float) -> str:
    rel = f"{(new - base) / base * 100:+.1f}%" if base else "n/a"
    return f"{new - base:+.6g} ({rel})"


def report(base: dict, new: dict) -> list[str]:
    better = directions()
    lines = []
    for workload, trace in sorted(set(base) & set(new)):
        b, n = base[(workload, trace)], new[(workload, trace)]
        kind = "per-layer" if trace else "end-to-end"
        lines.append(f"== {workload} ({kind})")
        header = f"{'metric':44s} {'unit':6s} {'base':>12s} {'new':>12s}  delta"
        lines.append(header + ("  [prior layer share]" if trace else ""))
        for name in b:
            if name not in n:
                continue
            (bv, unit), (nv, _) = b[name], n[name]
            row = f"{name:44s} {unit:6s} {bv:12.6g} {nv:12.6g}  {_delta(bv, nv)}"
            if name in better and bv != nv:
                row += "  better" if (nv < bv) == (better[name] == "lower") else "  worse"
            if trace:
                share = b.get(f"{name.split('.', 1)[0]}.share")
                row += f"  [share {share[0]:.3f}]" if share else "  [share -]"
            lines.append(row)
    missing = sorted(set(base) ^ set(new))
    if missing:
        lines.append("only on one side: " + ", ".join(f"{w} trace={t}" for w, t in missing))
    return lines


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    print("\n".join(report(load(argv[0]), load(argv[1]))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
