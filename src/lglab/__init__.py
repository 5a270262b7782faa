"""Desk-scale toolkit linking interferometric destructive interference,
anomalous path weak values and two-time Leggett-Garg violations, with the
quasiprobability no-signaling-in-time machinery and a finite-shot Monte
Carlo harness.

``import lglab`` is cheap: it imports neither numpy nor any layer module.
The first use of an exported name (or of a layer module such as
``lglab.quasiprob``) imports all seven layers at once and binds every export
into the package namespace (PEP 562), so later lookups are plain attribute
reads. ``__all__`` lists the 39 exports; other unknown names raise
:class:`AttributeError`.

Loading the layers loads no numpy either: ``qcore``, ``weakval`` and
``experiment`` import it inside the routes that use it (parsing array-like
input, the BLAS dots, the Philox draws), so the closed forms, the moment
checks and every object built from flat entries run without it.
Nor do they generate code: the records are ``__slots__`` classes. The one
dataclass left, ``SampleEstimate``, stays one because the benchmark's tests
call ``dataclasses.replace`` on it.
"""

import importlib

__version__ = "0.1.0"

# every exported name, keyed by the layer module that defines it
_EXPORTS = {
    "qcore": ("DichotomicObservable", "Operator", "StateVector", "projector_onto"),
    "interferometer": ("MZBasis", "MZConfig", "detection_probabilities", "input_state", "mz_basis",
                       "output_observable", "path_observable"),
    "weakval": ("OrthogonalPostSelection", "WeakValueResult", "mz_weak_values", "weak_value"),
    "lgi": ("SweepRow", "TwoTimeLGReport", "k_from_moments", "mz_lg_closed_form", "precession_k3",
            "sequential_correlation", "sequential_joint", "sweep_beta"),
    "quasiprob": ("QuasiprobTable", "lg_from_quasi", "mz_quasi", "nsit_check", "quasi",
                  "signaling_gap_projective"),
    "mrcheck": ("CorrelationTriple", "feasibility_oracle", "macrorealist_feasible"),
    "experiment": ("EmpiricalLGReport", "RunSpec", "SampleEstimate", "empirical_lg", "empirical_nsit",
                   "outcome_probabilities", "run"),
}

__all__ = [name for names in _EXPORTS.values() for name in names]


def __getattr__(name: str):
    """Load every layer on the first use of an export or a layer module name."""
    if name not in __all__ and name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    namespace = globals()
    for layer, names in _EXPORTS.items():
        module = importlib.import_module(f".{layer}", __name__)
        namespace.update((n, getattr(module, n)) for n in names)
    return namespace[name]


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
