"""The record classes: ``__slots__`` classes with hand-written ``__init__``s in
place of generated dataclasses, and the immutable ``qcore`` objects.

Each record keeps the behaviour its dataclass had: value equality and hash
over its fields, the dataclass repr, the same constructor signature, and
AttributeError on set and delete (``SweepRow`` alone stays mutable and
unhashable). Every public class also survives ``copy.copy``,
``copy.deepcopy`` and a ``pickle`` round trip bit for bit.
"""

import copy
import dataclasses
import inspect
import math
import pickle

import numpy as np
import pytest

import lglab
from lglab import (
    CorrelationTriple,
    DichotomicObservable,
    EmpiricalLGReport,
    MZBasis,
    MZConfig,
    Operator,
    OrthogonalPostSelection,
    QuasiprobTable,
    RunSpec,
    SampleEstimate,
    StateVector,
    SweepRow,
    TwoTimeLGReport,
    WeakValueResult,
)

# explicit alpha: building a config from this one's stored fields renormalises
# again and moves a bit, so a copy must not re-run __init__
EXPLICIT = MZConfig(beta=0.9850868243521302, alpha=0.1720579800302725)


def samples() -> dict[type, list]:
    """Instances of every public class, built through the library's own routes."""
    cfg = MZConfig(beta=0.3, phi=0.2)
    spec = RunSpec(cfg, np.int64(1000), 7, "sequential")
    return {
        StateVector: [StateVector([1, 1j], normalize=True), lglab.input_state(cfg)],
        Operator: [Operator([[1.0, 0.5 - 0.25j], [0.5 + 0.25j, -1.0]])],
        DichotomicObservable: [lglab.path_observable(), lglab.output_observable()],
        MZBasis: [lglab.mz_basis()],
        MZConfig: [cfg, EXPLICIT, MZConfig(beta=-0.0)],
        WeakValueResult: list(lglab.mz_weak_values(cfg)),
        TwoTimeLGReport: [lglab.mz_lg_closed_form(cfg)],
        SweepRow: lglab.sweep_beta([0.3, 2**-0.5]),
        QuasiprobTable: [lglab.mz_quasi(cfg), lglab.macrorealist_feasible(CorrelationTriple(0.1, -0.0, 1))],
        CorrelationTriple: [CorrelationTriple(0.1, -0.0, 1)],
        RunSpec: [spec],
        SampleEstimate: [lglab.run(spec)],
        EmpiricalLGReport: [lglab.empirical_lg(cfg, 1000, 3)],
        OrthogonalPostSelection: [OrthogonalPostSelection("weak value undefined")],
    }


def state(value):
    """``value`` as its type and exact bits (floats by ``float.hex``, so signed
    zeros count), through slots, dataclass fields, exception args, dicts and
    sequences; NaN-free, so two states compare equal only bit for bit."""
    if isinstance(value, float):
        return float, value.hex()
    if isinstance(value, complex):
        return complex, value.real.hex(), value.imag.hex()
    if isinstance(value, dict):
        return dict, [(state(k), state(v)) for k, v in value.items()]
    if isinstance(value, (tuple, list)):
        return type(value), [state(v) for v in value]
    if isinstance(value, BaseException):
        return type(value), state(value.args)
    if dataclasses.is_dataclass(value):
        return type(value), [state(getattr(value, f.name)) for f in dataclasses.fields(value)]
    if hasattr(type(value), "__slots__"):
        names = [n for cls in type(value).__mro__ for n in getattr(cls, "__slots__", ())]
        return type(value), [state(getattr(value, n)) for n in names]
    return type(value), value


def test_samples_cover_every_public_class():
    classes = {obj for obj in (getattr(lglab, n) for n in lglab.__all__) if isinstance(obj, type)}
    assert set(samples()) == classes


def test_the_explicit_alpha_sample_moves_a_bit_when_rebuilt():
    again = MZConfig(beta=EXPLICIT.beta, alpha=EXPLICIT.alpha)
    assert state(again) != state(EXPLICIT)


@pytest.mark.parametrize("how", ["copy", "deepcopy", *(f"pickle{p}" for p in range(pickle.HIGHEST_PROTOCOL + 1))])
@pytest.mark.parametrize("cls", list(samples()), ids=lambda c: c.__name__)
def test_copies_and_pickles_keep_every_bit(cls, how):
    if how.startswith("pickle"):
        def round_trip(value):
            return pickle.loads(pickle.dumps(value, protocol=int(how[6:])))
    else:
        round_trip = getattr(copy, how)
    for value in samples()[cls]:
        twin = round_trip(value)
        assert type(twin) is cls and twin is not value
        assert state(twin) == state(value)


def test_a_copied_basis_holds_copied_states():
    basis = lglab.mz_basis()
    twin = copy.deepcopy(basis)
    assert twin.psi3 is not basis.psi3
    assert state(twin.psi3) == state(basis.psi3)


def test_qcore_objects_keep_identity_equality_and_refuse_set_and_delete():
    for value in (StateVector([0.6, 0.8]), lglab.path_observable(), lglab.path_observable().operator()):
        assert value == value and value != copy.copy(value)
        assert hash(value) == object.__hash__(value)
        name = type(value).__slots__[0]
        with pytest.raises(AttributeError, match="is immutable"):
            setattr(value, name, getattr(value, name))
        with pytest.raises(AttributeError, match="is immutable"):
            delattr(value, name)


# the nine records, each with positional arguments that exercise every field,
# and whether its dataclass was frozen
RECORDS = {
    MZConfig: ((0.6, 0.8, 0.5), True),
    MZBasis: ((lglab.input_state(MZConfig(0.6)), lglab.mz_basis().psi2, lglab.mz_basis().psi3,
               lglab.mz_basis().psi4), True),
    WeakValueResult: ((-3 + 0.5j, 0.25), True),
    TwoTimeLGReport: ((0.5, -0.25, 1.0, 2.75), True),
    SweepRow: ((0.6, 0.8, 0.1, 0.2, 0.3, 0.4, None, 7.0, 0.98, 0.02, None), False),
    QuasiprobTable: (({(1, 1): 0.5, (1, -1): 0.5, (-1, 1): 0.0, (-1, -1): 0.0}, (1e-17, 0.0)), True),
    CorrelationTriple: ((0.5, -0.0, 1), True),
    RunSpec: ((MZConfig(0.6), 1000, 7, "path"), True),
    EmpiricalLGReport: ((0.1, -0.2, 0.3, 1000, 42), True),
}


def dataclass_twin(cls, frozen: bool):
    """The dataclass with ``cls``'s name and fields, no checks: the reference
    for equality, hash and repr."""
    return dataclasses.make_dataclass(cls.__name__, cls.__slots__, frozen=frozen, slots=True)


@pytest.mark.parametrize("cls", list(RECORDS), ids=lambda c: c.__name__)
def test_records_behave_as_their_dataclasses_did(cls):
    args, frozen = RECORDS[cls]
    ref = dataclass_twin(cls, frozen)
    names = cls.__slots__
    by_position, by_keyword = cls(*args), cls(**dict(zip(names, args)))
    assert state(by_position) == state(by_keyword)
    twin = ref(*(getattr(by_position, n) for n in names))
    assert repr(by_position) == repr(twin)
    assert by_position == by_keyword and twin == copy.copy(twin)
    assert by_position != twin and by_position != tuple(args)
    if frozen and cls is not QuasiprobTable:
        assert hash(by_position) == hash(twin) == hash(by_keyword)
    for name in names:
        # a change in any one field, the last included, breaks equality
        changed = "changed"
        mutated, other = copy.copy(by_position), copy.copy(twin)
        object.__setattr__(mutated, name, changed)
        object.__setattr__(other, name, changed)
        assert mutated != by_position and other != twin
    if frozen:
        with pytest.raises(AttributeError):
            by_position.__setattr__(names[0], args[0])
        with pytest.raises(AttributeError):
            setattr(by_position, names[-1], args[-1])
        with pytest.raises(AttributeError):
            delattr(by_position, names[0])
        with pytest.raises(AttributeError):
            by_position.extra = 1


def test_constructors_keep_their_dataclass_signatures():
    for cls in RECORDS:
        assert tuple(inspect.signature(cls).parameters) == cls.__slots__, cls
    assert inspect.signature(MZConfig).parameters["alpha"].default is None
    assert inspect.signature(MZConfig).parameters["phi"].default == 0.0
    assert inspect.signature(QuasiprobTable).parameters["nsit_residuals"].default == (0.0, 0.0)
    assert MZConfig(0.6) == MZConfig(beta=0.6, alpha=None, phi=0.0)
    q = RECORDS[QuasiprobTable][0][0]
    assert QuasiprobTable(q) == QuasiprobTable(q, nsit_residuals=(0.0, 0.0))


def test_stored_types_are_the_old_ones():
    cfg = MZConfig(np.float64(0.6), np.float64(0.8), np.array(0.5))
    assert [type(v) for v in (cfg.beta, cfg.alpha, cfg.phi)] == [float, float, float]
    spec = RunSpec(cfg, np.int64(1000), np.uint64(7), "path")
    assert type(spec.shots) is int and type(spec.seed) is int
    triple = CorrelationTriple(np.float32(0.5), np.int64(0), 1)
    assert [type(v) for v in (triple.e2, triple.e3, triple.e23)] == [float, float, float]


def test_repr_text():
    assert repr(MZConfig(0.6, phi=0.5)) == "MZConfig(beta=0.6, alpha=0.8, phi=0.5)"
    assert repr(CorrelationTriple(0.5, -0.0, 1)) == "CorrelationTriple(e2=0.5, e3=-0.0, e23=1.0)"


def test_signed_zero_configs_share_a_memo_entry():
    """As ``experiment._sampling_vectors`` promises: the configs at beta = +-0
    compare equal and hash alike."""
    plus, minus = MZConfig(beta=0.0), MZConfig(beta=-0.0)
    assert plus == minus and hash(plus) == hash(minus)
    assert math.copysign(1.0, minus.beta) == -1.0


def test_configs_that_differ_only_in_phi_differ():
    a, b = MZConfig(0.5, phi=0.1), MZConfig(0.5, phi=0.2)
    assert a != b and len({a, b}) == 2


def test_a_table_is_unhashable_and_a_row_is_mutable_and_unhashable():
    table = lglab.mz_quasi(MZConfig(0.3))
    with pytest.raises(TypeError, match="unhashable"):
        hash(table)
    row = lglab.sweep_beta([0.3])[0]
    with pytest.raises(TypeError, match="unhashable"):
        hash(row)
    row.w3 = None
    assert row.w3 is None
    assert not hasattr(row, "__dict__")
