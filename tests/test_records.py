"""Contract of the package's records, which are typing.NamedTuple classes.

Each record keeps its keyword repr, compares and hashes by its fields,
refuses assignment, and refuses an invalid input with a ValueError at
construction.
"""

import pickle
import re

import numpy as np
import pytest

from hlevels import (
    ComplexMass,
    Constants,
    DiracState,
    EnergyLevel,
    Environment,
    PotentialParams,
    QuantumState,
    RadialProblem,
    ReferenceDataset,
    SolverConfig,
    SSOperatorMatrices,
    TurningPoints,
    derive,
)

_C = Constants()
_D = derive(_C)
_P = PotentialParams(alpha=_C.alpha)
_CONSTANTS_REPR = ("Constants(alpha=0.0072973525664, m_e=0.5109989461, m_p=938.2720813, "
                   "hbar_c=197.3269788, ev_per_mev=1000000.0)")
_DERIVED_REPR = ("DerivedMasses(m_plus=938.7830802461, m_minus=937.7610823539, "
                 "m_a=469.39154012305, mu=0.5107207988598017)")
_PARAMS_REPR = "PotentialParams(alpha=0.0072973525664, lam=840.0, z=1)"
_SOLVER_REPR = "SolverConfig(basis_size=64, quad_nodes=4096, scale_search=True)"
_GAP = _D.m_plus**2 - 2.0e6  # m_plus^2 - s of the RadialProblem records below


def _matrices(value=1.0):
    return SSOperatorMatrices(*(np.full((1, 1), value) for _ in range(3)))


# name: (make, make a record of the same type with another field value, repr of make())
RECORDS = {
    "Constants": (Constants, lambda: Constants(alpha=0.007), _CONSTANTS_REPR),
    "DerivedMasses": (lambda: derive(_C), lambda: derive(Constants(m_e=0.5)), _DERIVED_REPR),
    "QuantumState": (lambda: QuantumState(0, 1), lambda: QuantumState(1, 0),
                     "QuantumState(k=0, l=1)"),
    "DiracState": (lambda: DiracState(2, 3), lambda: DiracState(2, 1),
                   "DiracState(n=2, two_j=3)"),
    "ComplexMass": (lambda: ComplexMass(1.5, -0.25), lambda: ComplexMass(1.5, 0.25),
                    "ComplexMass(re=1.5, im=-0.25)"),
    "EnergyLevel": (lambda: EnergyLevel(-13.6, "kg", QuantumState(0, 0)),
                    lambda: EnergyLevel(-13.6, "qc", QuantumState(0, 0)),
                    "EnergyLevel(value=-13.6, model='kg', state=QuantumState(k=0, l=0))"),
    "PotentialParams": (lambda: PotentialParams(alpha=_C.alpha),
                        lambda: PotentialParams(alpha=_C.alpha, z=2), _PARAMS_REPR),
    "ReferenceDataset": (lambda: ReferenceDataset({QuantumState(0, 0): -13.6}),
                         lambda: ReferenceDataset({QuantumState(0, 0): -13.6}, "file.csv"),
                         "ReferenceDataset(entries={QuantumState(k=0, l=0): -13.6}, "
                         "source='builtin')"),
    "Environment": (Environment, lambda: Environment(z=2),
                    f"Environment(constants={_CONSTANTS_REPR}, solver={_SOLVER_REPR}, "
                    "reference=None, z=1)"),
    "SolverConfig": (SolverConfig, lambda: SolverConfig(basis_size=32), _SOLVER_REPR),
    "SSOperatorMatrices": (_matrices, lambda: _matrices(2.0),
                           "SSOperatorMatrices(potential=array([[1.]]), overlap=array([[1.]]), "
                           "kinetic_binding=array([[1.]]))"),
    "RadialProblem": (lambda: RadialProblem(2.0e6, 1, _P, _D, _GAP),
                      lambda: RadialProblem(2.0e6, 0, _P, _D, _GAP),
                      f"RadialProblem(s=2000000.0, l=1, params={_PARAMS_REPR}, "
                      f"derived={_DERIVED_REPR}, s_gap_high=-1118686.3282436444)"),
    "TurningPoints": (lambda: TurningPoints(0.5, 2.0), lambda: TurningPoints(0.5, 3.0),
                      "TurningPoints(r1=0.5, r2=2.0)"),
}
# a dict field makes a record unhashable, and numpy arrays have no truth value for ==
UNHASHABLE = {"ReferenceDataset", "SSOperatorMatrices"}
ARRAY_FIELDS = {"SSOperatorMatrices"}


@pytest.mark.parametrize("name", RECORDS)
def test_repr_names_the_type_and_every_field(name):
    make, _, expected = RECORDS[name]
    record = make()
    assert type(record).__name__ == name
    assert repr(record) == expected


@pytest.mark.parametrize("name", sorted(set(RECORDS) - ARRAY_FIELDS))
def test_equal_fields_make_equal_records(name):
    make, make_other, _ = RECORDS[name]
    a, b = make(), make()
    assert a is not b and a == b and not a != b
    assert a != make_other()
    if name not in UNHASHABLE:
        assert hash(a) == hash(b)
        assert len({a, b, make_other()}) == 2


@pytest.mark.parametrize("name", sorted(UNHASHABLE))
def test_records_with_a_dict_or_array_field_are_unhashable(name):
    with pytest.raises(TypeError, match="unhashable"):
        hash(RECORDS[name][0]())


@pytest.mark.parametrize("name", RECORDS)
def test_fields_cannot_be_assigned(name):
    record = RECORDS[name][0]()
    for field in record._fields:
        with pytest.raises(AttributeError):
            setattr(record, field, 1)
    with pytest.raises(AttributeError):
        record.no_such_field = 1


@pytest.mark.parametrize("name", sorted(set(RECORDS) - ARRAY_FIELDS))
def test_pickle_keeps_the_type_and_the_fields(name):
    record = RECORDS[name][0]()
    copy = pickle.loads(pickle.dumps(record))
    assert type(copy) is type(record) and copy == record


def test_a_record_is_the_tuple_of_its_fields():
    state = QuantumState(2, 1)
    assert state == (2, 1) and tuple(state) == (2, 1)
    k, l = state
    assert (k, l) == (2, 1)
    assert sorted([QuantumState(1, 0), QuantumState(0, 3)]) == [(0, 3), (1, 0)]


@pytest.mark.parametrize("cls, kwargs, message", [
    (Constants, {"alpha": 0.0}, "alpha out of range: 0.0"),
    (Constants, {"alpha": 1.0}, "alpha out of range: 1.0"),
    (Constants, {"m_e": 2000.0}, "need 0 < m_e < m_p"),
    (Constants, {"m_e": -1.0}, "need 0 < m_e < m_p"),
    (Constants, {"m_p": float("inf")}, "m_p must be finite and positive, got inf"),
    (Constants, {"hbar_c": 0.0}, "hbar_c must be finite and positive, got 0.0"),
    (Constants, {"hbar_c": float("inf")}, "hbar_c must be finite and positive, got inf"),
    (Constants, {"ev_per_mev": -1.0}, "ev_per_mev must be finite and positive, got -1.0"),
    (QuantumState, {"k": -1, "l": 0}, "quantum numbers must be non-negative: k=-1, l=0"),
    (QuantumState, {"k": 0, "l": -2}, "quantum numbers must be non-negative: k=0, l=-2"),
    (DiracState, {"n": 0, "two_j": 1}, "n must be >= 1, got 0"),
    (DiracState, {"n": 1, "two_j": 2}, "two_j must be a positive odd integer, got 2"),
    (DiracState, {"n": 1, "two_j": -1}, "two_j must be a positive odd integer, got -1"),
    (DiracState, {"n": 1, "two_j": 3}, "j + 1/2 must not exceed n (n=1, two_j=3)"),
    (PotentialParams, {"alpha": 0.0}, "alpha and lambda must be positive"),
    (PotentialParams, {"alpha": 0.1, "lam": -1.0}, "alpha and lambda must be positive"),
    (PotentialParams, {"alpha": 0.1, "z": 0}, "z must be a positive integer, got 0"),
    (PotentialParams, {"alpha": 0.1, "z": 1.5}, "z must be a positive integer, got 1.5"),
    (ReferenceDataset, {"entries": {QuantumState(1, 1): 0.0}},
     "reference energy for 2P must be negative"),
    (SolverConfig, {"basis_size": 3}, "basis_size must be >= 4"),
    (SolverConfig, {"basis_size": 2049}, "basis_size 2049 needs quad_nodes >= 4098, have 4096"),
    (SolverConfig, {"basis_size": 64, "quad_nodes": 100},
     "basis_size 64 needs quad_nodes >= 128, have 100"),
    (TurningPoints, {"r1": 0.0, "r2": 1.0}, "need 0 < r1 < r2, got 0.0, 1.0"),
    (TurningPoints, {"r1": 2.0, "r2": 1.0}, "need 0 < r1 < r2, got 2.0, 1.0"),
    (PotentialParams, {"alpha": 0.1, "lam": float("inf")},
     "alpha and lambda must be finite, got 0.1, inf"),
    (PotentialParams, {"alpha": float("nan")}, "alpha and lambda must be finite, got nan, 840.0"),
    (RadialProblem, {"s": 2.0e6, "l": -1, "params": _P, "derived": _D, "s_gap_high": _GAP},
     "l must be >= 0, got -1"),
])
def test_invalid_input_raises_value_error(cls, kwargs, message):
    # the constructor, _replace and _make of a valid record, and unpickling check alike
    valid = RECORDS[cls.__name__][0]()
    fields = {**valid._asdict(), **kwargs}.values()
    for build in (lambda: cls(**kwargs),
                  lambda: valid._replace(**kwargs),
                  lambda: cls._make(fields),
                  lambda: pickle.loads(pickle.dumps(tuple.__new__(cls, fields)))):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            build()


@pytest.mark.parametrize("cls", [Constants, QuantumState, DiracState, PotentialParams,
                                 SolverConfig, ReferenceDataset, RadialProblem, TurningPoints],
                         ids=lambda cls: cls.__name__)
def test_a_checked_record_is_one_class(cls):
    # one class holds the fields and their _check
    assert cls.__mro__ == (cls, tuple, object)


def test_asdict_keeps_the_field_order():
    # the keys of `constants --format json` and of compare's "constants" object
    assert list(Constants()._asdict()) == ["alpha", "m_e", "m_p", "hbar_c", "ev_per_mev"]
    assert list(_D._asdict()) == ["m_plus", "m_minus", "m_a", "mu"]
    assert Constants()._asdict() == dict(zip(Constants._fields, Constants()))


def test_environment_makes_its_defaults_per_record():
    env = Environment()
    assert env.solver == SolverConfig() and env.constants == Constants()
    assert env.reference is None and env.z == 1
    solver = SolverConfig(basis_size=16)
    assert Environment(solver=solver).solver is solver


def test_radial_problem_computes_its_derived_fields():
    # k_factor and m_l are properties of the five fields; the gap is always given
    assert RadialProblem._fields == ("s", "l", "params", "derived", "s_gap_high")
    s = 2.0e6
    problem = RadialProblem(s, 2, _P, _D, 1.0)
    assert problem.s_gap_high == 1.0
    assert problem.k_factor == (1.0 - _D.m_minus**2 / s) / 4.0
    assert problem.m_l == 2.5
    replaced = problem._replace(s=2.0 * s, l=0)
    assert replaced.k_factor == (1.0 - _D.m_minus**2 / (2.0 * s)) / 4.0
    assert replaced.m_l == 0.5 and replaced.s_gap_high == 1.0
    with pytest.raises(TypeError, match="s_gap_high"):
        RadialProblem(s=s, l=2, params=_P, derived=_D)

