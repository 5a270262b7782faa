"""Package surface and start-up: the lazy exports of ``lglab``, a numpy-free CLI
until a command is dispatched, and numpy-free layers until a route needs it."""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import lglab
import lglab.cli
import oracles

LAYERS = ("qcore", "interferometer", "weakval", "lgi", "quasiprob", "mrcheck", "experiment")

# the package's public names; a change here is an API change
EXPORTS = {
    "CorrelationTriple", "DichotomicObservable", "EmpiricalLGReport",
    "MZBasis", "MZConfig", "Operator", "OrthogonalPostSelection",
    "QuasiprobTable", "RunSpec", "SampleEstimate", "StateVector", "SweepRow",
    "TwoTimeLGReport", "WeakValueResult", "detection_probabilities",
    "empirical_lg", "empirical_nsit", "feasibility_oracle", "input_state",
    "k_from_moments", "lg_from_quasi", "macrorealist_feasible", "mz_basis",
    "mz_lg_closed_form", "mz_quasi", "mz_weak_values", "nsit_check", "outcome_probabilities",
    "output_observable", "path_observable", "precession_k3", "projector_onto", "quasi", "run",
    "sequential_correlation", "sequential_joint", "signaling_gap_projective", "sweep_beta",
    "weak_value",
}

# test oracles, not runtime routes: they live in tests/oracles.py
ORACLES = ("two_time_lg", "mz_two_time_lg", "born_probability", "dichotomic_from_hermitian",
           "expectation")
# deleted: the first two had no caller but their own tests; every field of
# FeasibilityVerdict was a reading of its witness, the QuasiprobTable the
# feasibility routes now return; mz_verdict restated mz_lg_closed_form as q = K/4
# (through _table_from_k) and the three-time suite was three quasi calls; with a
# qubit-only core no two objects can differ in dimension; mr_reading built the
# table macrorealist_feasible builds, with a second moment bound (1 + INPUT_TOL,
# then a clip) that was _check_moments' only reason to take a bound
DELETED = ("inner_product", "expectation_decomposition", "FeasibilityVerdict", "mz_verdict",
           "_table_from_k", "three_time_suite", "ThreeTimeQuasiReport", "DimensionMismatch",
           "_check_dims", "mr_reading", "_check_moments")

# reports, as JSON on the last stdout line, the exit code of ``python -m lglab.cli
# ARGS`` run in this interpreter and the numpy, numbers and lglab modules it left
# loaded: a command that hands the library only floats loads neither numpy nor numbers
RUN_CLI = """
import json, runpy, sys
sys.argv[0] = "lglab"
try:
    runpy.run_module("lglab.cli", run_name="__main__", alter_sys=True)
except SystemExit as exc:
    code = exc.code
print(json.dumps({"code": code, "modules": sorted(
    m for m in sys.modules if m in ("numpy", "numbers", "lglab") or m.startswith("lglab."))}))
"""


def python(*args: str) -> subprocess.CompletedProcess:
    """Run a fresh ``python -W error ARGS`` on this checkout's ``lglab``."""
    env = {**os.environ, "PYTHONPATH": str(Path(lglab.__file__).resolve().parents[1])}
    env.pop("LGLAB_SEED", None)
    return subprocess.run([sys.executable, "-W", "error", *args], capture_output=True, text=True,
                          timeout=120, env=env)


def last_json(proc: subprocess.CompletedProcess):
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


class TestSurface:
    def test_all_is_the_export_set(self):
        assert len(lglab.__all__) == len(EXPORTS) == 39
        assert set(lglab.__all__) == EXPORTS

    def test_dir_lists_every_export(self):
        assert EXPORTS <= set(dir(lglab))

    def test_star_import_binds_every_export(self):
        namespace = {}
        exec("from lglab import *", namespace)
        assert {k for k in namespace if k != "__builtins__"} == EXPORTS
        assert all(namespace[name] is getattr(lglab, name) for name in EXPORTS)

    @pytest.mark.parametrize("module", ["lglab", "lglab.cli"])
    def test_unknown_name_raises_attribute_error(self, module):
        mod = sys.modules[module]
        with pytest.raises(AttributeError, match="no_such_name"):
            mod.no_such_name
        assert not hasattr(mod, "no_such_name")

    @pytest.mark.parametrize("name", ORACLES + DELETED)
    def test_removed_name_is_not_exported(self, name):
        with pytest.raises(AttributeError, match=name):
            getattr(lglab, name)
        assert not any(hasattr(importlib.import_module(f"lglab.{layer}"), name) for layer in LAYERS)
        assert callable(getattr(oracles, name, None)) == (name in ORACLES)

    def test_cli_sweep_beta_is_the_library_sweep(self):
        assert lglab.cli.sweep_beta is lglab.lgi.sweep_beta
        assert "sweep_beta" not in vars(lglab.cli)


class TestStartup:
    def test_any_export_loads_all_seven_layers(self):
        """Each export, touched first in a freshly imported package, loads every layer."""
        script = f"""
import importlib, sys
layers = {LAYERS!r}
for name in {sorted(EXPORTS)!r}:
    for m in [m for m in sys.modules if m == "lglab" or m.startswith("lglab.")]:
        del sys.modules[m]
    lglab = importlib.import_module("lglab")
    assert not any("lglab." + l in sys.modules for l in layers), name
    getattr(lglab, name)
    missing = [l for l in layers if "lglab." + l not in sys.modules]
    assert not missing, (name, missing)
    assert all(n in vars(lglab) for n in lglab.__all__), name
print("ok")
"""
        proc = python("-c", script)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "ok"

    def test_import_loads_no_numpy(self):
        proc = python("-c", "import json, sys, lglab.cli; print(json.dumps(sorted(sys.modules)))")
        loaded = set(last_json(proc))
        assert "numpy" not in loaded
        assert not any(f"lglab.{layer}" in loaded for layer in LAYERS)

    def test_help_loads_no_numpy(self):
        proc = python("-c", RUN_CLI, "--help")
        rec = last_json(proc)
        assert rec["code"] == 0
        assert "usage: lglab" in proc.stdout
        assert rec["modules"] == ["lglab"]

    def test_usage_error_loads_no_numpy(self):
        proc = python("-c", RUN_CLI, "probabilities")
        rec = last_json(proc)
        assert rec["code"] == 2
        assert "--beta is required" in proc.stderr
        assert rec["modules"] == ["lglab"]

    @pytest.mark.parametrize(
        "args, code",
        [
            (["mr-check", "--e2", "0.5", "--e3", "-0.5", "--e23", "0.25"], 0),
            (["probabilities", "--beta", "0.6", "--phi", "1"], 0),
            (["quasiprob", "--beta", "0.6"], 0),
            (["mr-check", "--e2", "2", "--e3", "0", "--e23", "0"], 2),
        ],
        ids=["mr-check", "probabilities", "quasiprob", "validation-error"],
    )
    def test_closed_form_commands_load_every_layer_and_no_numpy(self, args, code):
        """The moment check, the port probabilities and the quasiprobability
        table load the seven layers and run without numpy or ``numbers`` (the
        real-number rule's float fast path), a validation error included."""
        proc = python("-c", RUN_CLI, *args)
        rec = last_json(proc)
        assert rec["code"] == code, proc.stderr
        assert rec["modules"] == sorted(["lglab", *(f"lglab.{layer}" for layer in LAYERS)])

    @pytest.mark.parametrize(
        "args",
        [
            ["weak-values", "--beta", "0.6"],
            ["simulate", "--beta", "0.6", "--shots", "100"],
        ],
        ids=["weak-values", "simulate"],
    )
    def test_array_commands_load_numpy(self, args):
        """Where the boundary lies: a BLAS dot or a draw loads numpy."""
        rec = last_json(python("-c", RUN_CLI, *args))
        assert rec["code"] == 0
        assert "numpy" in rec["modules"]

    def test_numbers_parse_without_numpy(self):
        """States given as plain numbers, and observables of their
        projectors, are parsed and checked without numpy; a rejected shape
        loads it to be named."""
        script = (
            "import sys, lglab\n"
            "m2, m3 = lglab.path_observable(), lglab.output_observable()\n"
            "s = lglab.StateVector((0.6, 0.8j))\n"
            "lglab.StateVector([3, 4], normalize=True)\n"
            "lglab.input_state(lglab.MZConfig(beta=0.6, phi=1.0))\n"
            "lglab.DichotomicObservable(lglab.projector_onto(s), lglab.projector_onto(lglab.StateVector([0.8j, 0.6])))\n"
            "lglab.quasi(s, m2, m3)\n"
            "assert 'numpy' not in sys.modules\n"
            "try:\n"
            "    lglab.StateVector([[0.6], [0.8]])\n"
            "except ValueError as exc:\n"
            "    assert str(exc).endswith('got shape (2, 1)'), exc\n"
            "else:\n"
            "    raise AssertionError('a column vector was accepted')\n"
            "assert 'numpy' in sys.modules\n"
            "print('ok')\n"
        )
        proc = python("-c", script)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "ok"

    def test_dispatch_loads_every_layer(self, tmp_path):
        """An in-process ``reproduce-fig2`` leaves all seven layers loaded, as a
        tracer that wraps every layer after one such call needs."""
        script = (
            "import json, sys, lglab.cli\n"
            f"assert lglab.cli.main(['reproduce-fig2', '--output', {str(tmp_path / 'fig2.csv')!r}]) == 0\n"
            "print(json.dumps(sorted(sys.modules)))\n"
        )
        loaded = set(last_json(python("-c", script)))
        assert "numpy" in loaded
        assert {f"lglab.{layer}" for layer in LAYERS} <= loaded
