"""Command-line front end.

Every command prints a single flat JSON record to stdout (numeric values
rounded to 15 significant digits); ``lgi-sweep`` and ``reproduce-fig2``
additionally write the sweep dataset to a CSV or JSON file with a stable
column set, LF line endings and deterministic bytes for fixed arguments.

Exit codes: 0 success, 2 usage or validation error, 1 internal invariant
failure.

An optional JSON config file (flat map mirroring the long option names) can
supply defaults; precedence is flags > config > built-in defaults. The
environment variable ``LGLAB_SEED`` overrides the default seed.

Handlers look library names up through the package on use (``lglab.sweep_beta``),
so import, ``--help`` and every usage error load no numpy and no layer module.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import lglab

UNDEFINED = "undefined"

# default of an option the user must supply, by flag or config file
REQUIRED = object()

# the most sweep rows: 10^6 take about 0.6 GB and write a 182 MB CSV
MAX_GRID = 10**6


def __getattr__(name: str):  # lglab.cli.sweep_beta names the library's sweep, looked up on use
    if name != "sweep_beta":
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return lglab.sweep_beta


class CliError(ValueError):
    """Usage/validation error; maps to exit code 2 like the library's ValueErrors."""


def _fmt(x: float) -> str:
    return f"{x:.15g}"


def _rounded(record: dict) -> dict:
    """The record with every float rounded to 15 significant digits for serialization."""
    return {k: float(_fmt(v)) if isinstance(v, float) else v for k, v in record.items()}


def _default_seed() -> int:
    env = os.environ.get("LGLAB_SEED")
    if env is None:
        return 0
    try:
        return int(env)
    except ValueError:
        raise CliError(f"LGLAB_SEED must be an integer, got {env!r}") from None


def _mz(fields):
    """The handler of an interferometer command: the checked ``MZConfig`` of the
    merged ``beta``, ``alpha`` and ``phi``, its prefix, then ``fields(cfg, merged)``."""
    def handler(merged: dict) -> dict:
        cfg = lglab.MZConfig(beta=merged["beta"], alpha=merged["alpha"], phi=merged["phi"])
        return {"beta": cfg.beta, "alpha": cfg.alpha, "phi": cfg.phi, **fields(cfg, merged)}
    return handler


def cmd_probabilities(cfg: lglab.MZConfig, merged: dict) -> dict:
    p3, p4 = lglab.detection_probabilities(cfg)
    return {"p3": p3, "p4": p4}


def cmd_weak_values(cfg: lglab.MZConfig, merged: dict) -> dict:
    p3, p4 = lglab.detection_probabilities(cfg)
    w3, w4 = lglab.mz_weak_values(cfg, allow_undefined=True)
    rec = {"p3": p3, "p4": p4}
    for name, w in (("w3", w3), ("w4", w4)):
        if w is None:
            rec[name] = rec[f"{name}_imag"] = rec[f"{name}_anomalous"] = UNDEFINED
        else:
            rec[name] = w.value.real
            rec[f"{name}_imag"] = w.value.imag
            rec[f"{name}_anomalous"] = w.anomalous_real
    return rec


def _sweep_rows(merged: dict):
    n = merged["grid"]
    lo, hi = merged["min"], merged["max"]
    if n is None or n < 2:
        raise CliError("--grid must be an integer >= 2")
    if n > MAX_GRID:
        raise CliError(f"--grid must be at most {MAX_GRID}, got {n}")
    if not (-1.0 <= lo < hi <= 1.0):
        raise CliError(f"sweep range must satisfy -1 <= min < max <= 1, got [{lo}, {hi}]")
    step = (hi - lo) / (n - 1)
    grid = [lo + k * step for k in range(n - 1)] + [hi]
    return lglab.sweep_beta(grid)


# sweep file columns, in order
_SWEEP_FIELDS = ("beta", "alpha", "K31", "K32", "K33", "K34", "w3", "w4", "p3", "p4", "violated")
# CSV lines, %.15g being _fmt's format. _CSV_LINE takes _row_cells(row, _fmt),
# in which w3, w4 and violated arrive as text, since each may be a word. A row
# whose w3 and w4 are both defined takes _CSV_DEFINED_LINE on its numbers and
# gets the same text with no _fmt call; its violated is "none" or the index.
_CSV_LINE = "%.15g,%.15g,%.15g,%.15g,%.15g,%.15g,%s,%s,%.15g,%.15g,%s\n"
_CSV_DEFINED_LINE = "%.15g," * 10 + "%s\n"


def _row_cells(row, weak_cell) -> tuple:
    """The row's cells in _SWEEP_FIELDS order, a defined weak value passed through ``weak_cell``."""
    return (
        row.beta, row.alpha, row.k31, row.k32, row.k33, row.k34,
        UNDEFINED if row.w3 is None else weak_cell(row.w3),
        UNDEFINED if row.w4 is None else weak_cell(row.w4),
        row.p3, row.p4,
        "none" if row.violated_index is None else str(row.violated_index),
    )


def _write_sweep(path: str, fmt: str, rows) -> None:
    try:
        with open(path, "w", newline="") as fh:
            if fmt == "csv":
                # no field name or cell ever holds a comma, quote or newline,
                # so plain lines give the bytes csv.DictWriter would
                fh.write(",".join(_SWEEP_FIELDS) + "\n")
                fh.writelines(
                    _CSV_LINE % _row_cells(r, _fmt) if r.w3 is None or r.w4 is None
                    else _CSV_DEFINED_LINE % (
                        r.beta, r.alpha, r.k31, r.k32, r.k33, r.k34, r.w3, r.w4, r.p3, r.p4,
                        "none" if r.violated_index is None else r.violated_index,
                    )
                    for r in rows
                )
            else:
                json.dump([_rounded(dict(zip(_SWEEP_FIELDS, _row_cells(r, float)))) for r in rows],
                          fh, indent=1)
                fh.write("\n")
    except OSError as exc:
        raise CliError(f"cannot write output file {path!r}: {exc}") from exc


def cmd_lgi_sweep(merged: dict) -> dict:
    fmt = merged["format"]
    if fmt not in ("csv", "json"):
        raise CliError(f"--format must be csv or json, got {fmt!r}")
    output = merged["output"]
    rows = _sweep_rows(merged)
    _write_sweep(output, fmt, rows)
    violated = sum(1 for r in rows if r.violated_index is not None)
    return {"rows": len(rows), "violated_rows": violated, "output": output, "format": fmt}


def cmd_quasiprob(cfg: lglab.MZConfig, merged: dict) -> dict:
    table = lglab.mz_quasi(cfg)
    rec = {f"q(m2={mi:+d},m3={mj:+d})": v for (mi, mj), v in sorted(table.q.items(), reverse=True)}
    rec["negativity"] = table.negativity
    rec["nsit_residual_m2"], rec["nsit_residual_m3"] = table.nsit_residuals
    return rec


def cmd_mr_check(merged: dict) -> dict:
    table = lglab.macrorealist_feasible(
        lglab.CorrelationTriple(e2=merged["e2"], e3=merged["e3"], e23=merged["e23"])
    )
    return {
        "e2": merged["e2"],
        "e3": merged["e3"],
        "e23": merged["e23"],
        "feasible": table.feasible,
        "margin": table.margin,
    }


def cmd_simulate(cfg: lglab.MZConfig, merged: dict) -> dict:
    kind = merged["kind"]
    est = lglab.run(lglab.RunSpec(cfg=cfg, shots=merged["shots"], seed=merged["seed"], kind=kind))
    estimates, stderr, metadata = est.estimates, est.stderr, est.metadata
    rec = {"kind": kind, "shots": est.total, "seed": merged["seed"]}
    for label in est.counts:
        rec[f"count[{label}]"] = est.counts[label]
        rec[f"estimate[{label}]"] = estimates[label]
        rec[f"stderr[{label}]"] = stderr[label]
    if "zero_count_outcomes" in metadata:
        rec["zero_count_stderr_rule"] = metadata["zero_count_stderr_rule"]
    return rec


def cmd_nsit(cfg: lglab.MZConfig, merged: dict) -> dict:
    shots = merged["shots"]
    gap, se = lglab.empirical_nsit(cfg, shots, merged["seed"])
    return {
        "shots": shots,
        "seed": merged["seed"],
        "gap": gap,
        "gap_stderr": se,
        "true_gap": lglab.quasiprob.signed_signaling_gap(cfg),
    }


# options shared by both sweep commands; reproduce-fig2 only changes two defaults
_SWEEP_OPTIONS = {
    "grid": (int, None),
    "min": (float, -1.0),
    "max": (float, 1.0),
    "output": (str, REQUIRED),
    "format": (str, "csv"),
}

# the interferometer of every MZ command, read by _mz
_MZ_OPTIONS = {"beta": (float, REQUIRED), "alpha": (float, None), "phi": (float, 0.0)}

# (handler, {option: (type, default)})
COMMANDS = {
    "probabilities": (_mz(cmd_probabilities), _MZ_OPTIONS),
    "weak-values": (_mz(cmd_weak_values), _MZ_OPTIONS),
    "lgi-sweep": (cmd_lgi_sweep, _SWEEP_OPTIONS),
    "reproduce-fig2": (cmd_lgi_sweep, {**_SWEEP_OPTIONS, "grid": (int, 1001), "output": (str, "fig2.csv")}),
    "quasiprob": (_mz(cmd_quasiprob), _MZ_OPTIONS),
    "mr-check": (cmd_mr_check, {"e2": (float, REQUIRED), "e3": (float, REQUIRED), "e23": (float, REQUIRED)}),
    "simulate": (
        _mz(cmd_simulate),
        {**_MZ_OPTIONS, "shots": (int, REQUIRED), "seed": (int, None), "kind": (str, "interference")},
    ),
    "nsit": (_mz(cmd_nsit), {**_MZ_OPTIONS, "shots": (int, REQUIRED), "seed": (int, None)}),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lglab",
        description="Interferometric Leggett-Garg toolkit: probabilities, weak "
        "values, LG sweeps, quasiprobabilities and Monte Carlo runs.",
    )
    parser.add_argument("--config", help="JSON file of default option values")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, options) in COMMANDS.items():
        p = sub.add_parser(name)
        for opt, (typ, _default) in options.items():
            p.add_argument(f"--{opt}", type=typ, default=None)
    return parser


# every option of every command, so that one config file can serve them all
_OPTION_TYPES = {opt: typ for _, options in COMMANDS.values() for opt, (typ, _) in options.items()}
_TYPE_NAMES = {str: "a string", float: "a number", int: "an integer"}


def _config_value(key: str, raw):
    """Convert one config-file value, naming the key if it is unknown or mistyped.

    str options take a JSON string, float options a JSON number and int options
    an integral JSON number; a boolean is never a number.
    """
    typ = _OPTION_TYPES.get(key)
    if typ is None:
        raise CliError(f"unknown config key {key!r}")
    number = isinstance(raw, (int, float)) and not isinstance(raw, bool)
    if typ is str:
        ok = isinstance(raw, str)
    else:
        ok = number and (typ is float or isinstance(raw, int) or raw.is_integer())
    if not ok:
        raise CliError(f"config key {key!r} must be {_TYPE_NAMES[typ]}, got {raw!r}")
    try:
        return typ(raw)
    except OverflowError:  # an integer beyond the double range for a float option
        raise CliError(f"config key {key!r} is too large for a double") from None


def _merge(args: argparse.Namespace) -> dict:
    _, options = COMMANDS[args.command]
    config = {}
    if args.config:
        try:
            with open(args.config) as fh:
                config = json.load(fh)
        except (OSError, ValueError) as exc:  # ValueError: bad JSON or an over-long integer
            raise CliError(f"cannot read config file {args.config!r}: {exc}") from exc
        if not isinstance(config, dict):
            raise CliError("config file must contain a flat JSON object")
    config = {key: _config_value(key, raw) for key, raw in config.items()}
    merged = {}
    for opt, (_, default) in options.items():
        flag = getattr(args, opt)
        merged[opt] = flag if flag is not None else config.get(opt, default)
    if "seed" in merged and merged["seed"] is None:
        merged["seed"] = _default_seed()
    for opt, value in merged.items():
        if value is REQUIRED:
            raise CliError(f"--{opt} is required")
    return merged


# built on the first main() call and reused: parsing leaves it unchanged
_PARSER = None


def main(argv=None) -> int:
    global _PARSER
    if _PARSER is None:
        _PARSER = build_parser()
    args = _PARSER.parse_args(argv)
    handler, _ = COMMANDS[args.command]
    try:
        merged = _merge(args)
        record = _rounded(handler(merged))
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except AssertionError as exc:
        print(f"internal invariant failure: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
