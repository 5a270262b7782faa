"""Desk-scale toolkit linking interferometric destructive interference,
anomalous path weak values and two-time Leggett-Garg violations, with the
quasiprobability no-signaling-in-time machinery and a finite-shot Monte
Carlo harness."""

from .qcore import (
    DichotomicObservable,
    DimensionMismatch,
    Operator,
    StateVector,
    apply,
    born_probability,
    dichotomic_from_hermitian,
    expectation,
    identity,
    inner_product,
    projector_onto,
)
from .interferometer import (
    MZBasis,
    MZConfig,
    bs_unitary,
    detection_probabilities,
    input_state,
    mz_basis,
    output_observable,
    path_observable,
    phase_unitary,
    propagate,
)
from .weakval import (
    OrthogonalPostSelection,
    WeakValueResult,
    expectation_decomposition,
    mz_weak_values,
    weak_value,
)
from .lgi import (
    SweepRow,
    ThreeTimeSpec,
    TwoTimeLGReport,
    k3,
    k_from_moments,
    mz_lg_closed_form,
    mz_two_time_lg,
    precession_k3,
    precession_observables,
    sequential_correlation,
    sequential_joint,
    sweep_beta,
    two_time_lg,
)
from .quasiprob import (
    QuasiprobTable,
    ThreeTimeQuasiReport,
    correlation_equivalence,
    lg_from_quasi,
    mr_reading,
    nsit_check,
    quasi,
    signaling_gap_projective,
    three_time_suite,
)
from .mrcheck import (
    CorrelationTriple,
    FeasibilityVerdict,
    feasibility_oracle,
    macrorealist_feasible,
    mz_verdict,
)
from .experiment import (
    EmpiricalLGReport,
    RunSpec,
    SampleEstimate,
    empirical_lg,
    empirical_nsit,
    outcome_probabilities,
    run,
)

__version__ = "0.1.0"
