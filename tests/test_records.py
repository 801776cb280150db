"""The library's record classes behave as value classes: construction by
position and keyword, defaults (a fresh container per instance), checks at
construction, ``repr``, ``==``, hashing, immutability and pickling.

Runs under pytest, or as a plain script on an interpreter without it:
``PYTHONPATH=src python tests/test_records.py``.
"""

import dataclasses
import math
import os
import pickle
import subprocess
import sys
from fractions import Fraction
from typing import NamedTuple

import treeshift
from treeshift.cli import Command, Reproduction
from treeshift.criteria import (
    DecayObservation,
    DynamicsReport,
    GammaSpec,
    LimitPointReport,
    RungResult,
    SampleSetResult,
    SupercyclicityReport,
)
from treeshift.errors import EmptyIndexSetError
from treeshift.families import FamilySpec, Verdict
from treeshift.shifts import BallSpec, OperatorNormResult, OrbitPoint, ReturnSetReport
from treeshift.simplex import (
    InUnrootedResult,
    RecurrentCertificate,
    RecurrentSynthesis,
    RecurrentTerm,
    SimplexInstance,
    TailBudget,
)
from treeshift.spaces import DualExponent, SpaceSpec, basis
from treeshift.trees import (
    EdgeData,
    Truncation,
    ValidationReport,
    VertexAddress,
    Violation,
)
from treeshift.treespec import TreeSpecDocument

try:
    import pytest
except ImportError:  # run as a plain script
    pytest = None

V = VertexAddress(0, (1,))
V_REPR = "VertexAddress(up=0, path=(1,))"
E = basis(V)
E_REPR = "SparseVector({(0; 1): 1})"
L2 = SpaceSpec.ell(2)
L2_REPR = "SpaceSpec(kind='lp', p=Fraction(2, 1))"
VERDICT = Verdict("holds", 4, True, {"n": 1})
VERDICT_REPR = "Verdict(status='holds', horizon=4, positive_evidence=True, witness={'n': 1})"
EDGES = EdgeData((("a", "b"),), {"a": 1, "b": Fraction(1, 2)}, "a")
EDGES_REPR = ("EdgeData(edges=(('a', 'b'),), weights={'a': 1, 'b': Fraction(1, 2)}, "
              "anchor='a', kind='rooted')")


class Case(NamedTuple):
    cls: type
    fields: dict  # every field, in order, with the value the instance gets
    repr: str
    other: tuple  # (field, value): an instance that differs in one field
    defaults: dict = {}  # the fields left out in the short call, with their defaults
    hashable: bool = True  # frozen, with hashable field values


CASES = [
    Case(Reproduction, dict(header=("n",), horizon=None, run=abs),
         "Reproduction(header=('n',), horizon=None, run=<built-in function abs>)",
         other=("horizon", 3)),
    Case(Command, dict(help="h", flags=("--x",), header=("a",), run=abs, defaults={}),
         "Command(help='h', flags=('--x',), header=('a',), run=<built-in function abs>, "
         "defaults={})", defaults={"defaults": {}}, other=("help", "g"), hashable=False),
    Case(RungResult, dict(N=2, times=(1, 3), verdict=VERDICT),
         f"RungResult(N=2, times=(1, 3), verdict={VERDICT_REPR})",
         other=("N", 3), hashable=False),
    Case(SampleSetResult, dict(vertices=(V,), rungs=(), q_sup=0.5, j_sup=None),
         f"SampleSetResult(vertices=({V_REPR},), rungs=(), q_sup=0.5, j_sup=None)",
         other=("q_sup", 1.5)),
    Case(DynamicsReport, dict(tree_name="t", space="l^2", family="infinite", horizon=5,
                              entries=[], satisfied=True, witness_vertex=V,
                              witness_sequence=[1, 2], q_rows={V: [1]}, j_rows=None,
                              spec=L2),
         "DynamicsReport(tree_name='t', space='l^2', family='infinite', horizon=5, "
         f"entries=[], satisfied=True, witness_vertex={V_REPR}, witness_sequence=[1, 2], "
         f"q_rows={{{V_REPR}: [1]}}, j_rows=None, spec={L2_REPR})",
         other=("horizon", 6), hashable=False),
    Case(GammaSpec, dict(lambdas=abs, description="powers:2", bounded=False),
         "GammaSpec(lambdas=<built-in function abs>, description='powers:2', bounded=False)",
         other=("bounded", True)),
    Case(SupercyclicityReport, dict(tree_name="t", space="c0", gamma="const:1", horizon=3,
                                    mode="unrooted-criterion", satisfied=False,
                                    achieved=[(1, 2, 0, 1)], failed_rung=4, sample=[V],
                                    notes=[], hypercyclicity=None, leaf_witness=None),
         "SupercyclicityReport(tree_name='t', space='c0', gamma='const:1', horizon=3, "
         "mode='unrooted-criterion', satisfied=False, achieved=[(1, 2, 0, 1)], "
         f"failed_rung=4, sample=[{V_REPR}], notes=[], hypercyclicity=None, "
         "leaf_witness=None)",
         defaults={"notes": [], "hypercyclicity": None, "leaf_witness": None},
         other=("satisfied", True), hashable=False),
    Case(DecayObservation, dict(i=1, last=0.25, tail_min=0.125, decayed=True),
         "DecayObservation(i=1, last=0.25, tail_min=0.125, decayed=True)",
         other=("decayed", False)),
    Case(LimitPointReport, dict(tree_name="t", space="l^2", horizon=4, status="holds",
                                diverging_vertex=None, records=[0], record_values=[1.0],
                                root_diverging=None, shifted_ok=None, decay=None,
                                sample=[V], q_rows={}, tree=None, spec=L2),
         "LimitPointReport(tree_name='t', space='l^2', horizon=4, status='holds', "
         "diverging_vertex=None, records=[0], record_values=[1.0], root_diverging=None, "
         f"shifted_ok=None, decay=None, sample=[{V_REPR}], q_rows={{}}, tree=None, "
         f"spec={L2_REPR})",
         other=("status", "fails"), hashable=False),
    Case(FamilySpec, dict(kind="syndetic", gap=None, length=None, shift=None, inner=None,
                          bases=()),
         "FamilySpec(kind='syndetic', gap=None, length=None, shift=None, inner=None, "
         "bases=())",
         defaults={"gap": None, "length": None, "shift": None, "inner": None, "bases": ()},
         other=("gap", 4)),
    Case(Verdict, dict(status="fails", horizon=4, positive_evidence=False, witness={}),
         "Verdict(status='fails', horizon=4, positive_evidence=False, witness={})",
         defaults={"witness": {}}, other=("status", "holds"), hashable=False),
    Case(OperatorNormResult, dict(value=2.0, powered=4, is_sup_over_truncation=True,
                                  argmax=V, space=L2, truncation=Truncation(3, 2)),
         "OperatorNormResult(value=2.0, powered=4, is_sup_over_truncation=True, "
         f"argmax={V_REPR}, space={L2_REPR}, "
         "truncation=Truncation(depth=3, ancestry=2))",
         other=("value", 3.0)),
    Case(OrbitPoint, dict(n=2, vector=E, norm=1.0),
         f"OrbitPoint(n=2, vector={E_REPR}, norm=1.0)", other=("n", 3)),
    Case(BallSpec, dict(center=E, radius=0.5, space=L2),
         f"BallSpec(center={E_REPR}, radius=0.5, space={L2_REPR})", other=("radius", 0.25)),
    Case(ReturnSetReport, dict(horizon=3, certified={}, uncertified=set()),
         "ReturnSetReport(horizon=3, certified={}, uncertified=set())",
         defaults={"certified": {}, "uncertified": set()}, other=("horizon", 4),
         hashable=False),
    Case(SimplexInstance, dict(weights=(1, Fraction(1, 2)), space=L2),
         f"SimplexInstance(weights=(1, Fraction(1, 2)), space={L2_REPR})",
         other=("weights", (1,))),
    Case(InUnrootedResult, dict(vector=E, branch="kept", bound=0.5),
         f"InUnrootedResult(vector={E_REPR}, branch='kept', bound=0.5)",
         other=("branch", "cancelled")),
    Case(TailBudget, dict(schedule=abs), "TailBudget(schedule=<built-in function abs>)",
         defaults={"schedule": TailBudget().schedule}, other=("schedule", math.exp)),
    Case(RecurrentTerm, dict(j=1, n=4, g=E, g_norm=1.0, c=0.5, allowance=0.25),
         f"RecurrentTerm(j=1, n=4, g={E_REPR}, g_norm=1.0, c=0.5, allowance=0.25)",
         other=("n", 5)),
    Case(RecurrentCertificate, dict(j=1, n=4, residual=0.1, residual_bound=0.5,
                                    product_bound=0.2, verified=True),
         "RecurrentCertificate(j=1, n=4, residual=0.1, residual_bound=0.5, "
         "product_bound=0.2, verified=True)",
         other=("verified", False)),
    Case(RecurrentSynthesis, dict(vector=E, certificates=[], terms=[], skipped=[(2, 0.5, 0.25)],
                                  operator_norm_value=2.0),
         f"RecurrentSynthesis(vector={E_REPR}, certificates=[], terms=[], "
         "skipped=[(2, 0.5, 0.25)], operator_norm_value=2.0)",
         other=("operator_norm_value", 3.0), hashable=False),
    Case(DualExponent, dict(r=Fraction(3, 2)), "DualExponent(r=Fraction(3, 2))",
         other=("r", 3)),
    Case(SpaceSpec, dict(kind="lp", p=Fraction(3)), "SpaceSpec(kind='lp', p=Fraction(3, 1))",
         other=("p", Fraction(2))),
    Case(Truncation, dict(depth=16, ancestry=16), "Truncation(depth=16, ancestry=16)",
         defaults={"depth": 16, "ancestry": 16}, other=("ancestry", 2)),
    Case(EdgeData, dict(edges=EDGES.edges, weights=EDGES.weights, anchor="a", kind="rooted"),
         EDGES_REPR, defaults={"kind": "rooted"}, other=("anchor", "b"), hashable=False),
    Case(Violation, dict(code="arity", where="(0; )", detail="d"),
         "Violation(code='arity', where='(0; )', detail='d')", other=("detail", "e")),
    Case(ValidationReport, dict(ok=False, violations=[Violation("a", "b", "c")], checked=7),
         "ValidationReport(ok=False, violations=[Violation(code='a', where='b', detail='c')], "
         "checked=7)",
         other=("checked", 8), hashable=False),
    Case(TreeSpecDocument, dict(source=EDGES, truncation=Truncation(4, 0), name="mytree"),
         f"TreeSpecDocument(source={EDGES_REPR}, truncation=Truncation(depth=4, ancestry=0), "
         "name='mytree')",
         other=("name", "other"), hashable=False),
]

FROZEN = {Reproduction, Command, RungResult, SampleSetResult, GammaSpec, DecayObservation,
          FamilySpec, Verdict, OperatorNormResult, OrbitPoint, BallSpec, SimplexInstance,
          InUnrootedResult, TailBudget, RecurrentTerm, RecurrentCertificate, DualExponent,
          SpaceSpec, Truncation, EdgeData, Violation, TreeSpecDocument}


def _raises(error, call, *args):
    try:
        call(*args)
    except error as exc:
        return exc
    raise AssertionError(f"{call} did not raise {error.__name__}")


def each_record(test):
    if pytest is None:
        return test
    return pytest.mark.parametrize("case", CASES, ids=[c.cls.__name__ for c in CASES])(test)


def test_every_record_class_has_a_case():
    records = {c for name, module in sys.modules.items() if name.startswith("treeshift.")
               for c in vars(module).values() if isinstance(c, type)
               and c.__module__ == name and hasattr(c, "__match_args__")
               and not issubclass(c, tuple)}
    assert len(CASES) == len(records) == 28 and {c.cls for c in CASES} == records
    assert FROZEN <= records


@each_record
def test_construction_by_position_and_keyword(case):
    by_position = case.cls(*case.fields.values())
    by_keyword = case.cls(**case.fields)
    for record in (by_position, by_keyword):
        assert [getattr(record, k) for k in case.fields] == list(case.fields.values())
    assert by_position == by_keyword
    assert case.cls.__match_args__ == tuple(case.fields)
    _raises(TypeError, lambda: case.cls(*case.fields.values(), None))
    _raises(TypeError, lambda: case.cls(**case.fields, unknown=None))
    first = next(iter(case.fields))
    _raises(TypeError, lambda: case.cls(*case.fields.values(), **{first: None}))


@each_record
def test_defaults_and_fresh_containers(case):
    given = {k: v for k, v in case.fields.items() if k not in case.defaults}
    a, b = case.cls(*given.values()), case.cls(**given)
    for k, default in case.defaults.items():
        assert getattr(a, k) == getattr(b, k) == default
        if isinstance(default, (list, dict, set)):
            assert getattr(a, k) is not getattr(b, k)
    if given:
        _raises(TypeError, case.cls)


@each_record
def test_repr_eq_and_hash(case):
    record, same = case.cls(**case.fields), case.cls(**case.fields)
    assert repr(record) == case.repr
    key, value = case.other
    other = case.cls(**{**case.fields, key: value})
    assert record == same and not record != same
    assert record != other and not record == other
    assert record != case.fields and record != tuple(case.fields.values())
    assert record.__eq__(object()) is NotImplemented
    if case.cls in FROZEN and case.hashable:
        assert hash(record) == hash(same)
    else:
        _raises(TypeError, hash, record)


@each_record
def test_frozen_records_refuse_changes(case):
    record = case.cls(**case.fields)
    name = next(iter(case.fields))
    if case.cls not in FROZEN:
        setattr(record, name, None)
        assert getattr(record, name) is None
        return
    _raises(dataclasses.FrozenInstanceError, setattr, record, name, None)
    _raises(dataclasses.FrozenInstanceError, delattr, record, name)
    _raises(dataclasses.FrozenInstanceError, setattr, record, "extra", None)
    assert getattr(record, name) == case.fields[name]


@each_record
def test_pickle_round_trip(case):
    record = case.cls(**case.fields)
    copy = pickle.loads(pickle.dumps(record))
    assert copy == record and repr(copy) == repr(record)


def test_hash_works_or_raises_by_design():
    """A record whose field is a dict, or always holds a record that has one,
    declares ``__hash__ = None``: hash() raises TypeError even where the dict
    is empty.  A SampleSetResult and a TreeSpecDocument hash as their fields
    do: with rungs, or with an edge list as source, the RungResult or the
    EdgeData refuses; without, they hash."""
    for cls in (Verdict, RungResult, Command, EdgeData):
        assert cls.__hash__ is None
    rung = RungResult(2, (1, 3), VERDICT)
    report = treeshift.dynamics_report(treeshift.full_binary(), L2, horizon=4)
    edges = treeshift.parse_tree_spec("[tree]\nanchor = a\n[edges]\na -> b\n"
                                      "[edge_weights]\na = 1\nb = 1/2\n")
    binary = treeshift.full_binary()
    refused = [VERDICT, Verdict("fails", 4, False), rung, Command("h", ("--x",), ("a",), abs),
               EDGES, SampleSetResult((V,), (rung,), 0.5, None), report.entries[0], edges,
               TreeSpecDocument(EDGES, Truncation(4, 0), "e")]
    for record in refused:
        _raises(TypeError, hash, record)
    for make in (lambda: SampleSetResult((V,), (), 0.5, None),
                 lambda: TreeSpecDocument(binary, Truncation(), "full_binary")):
        assert hash(make()) == hash(make())


def test_construction_checks():
    _raises(ValueError, Truncation, -1)
    _raises(ValueError, BallSpec, E, 0, L2)
    _raises(EmptyIndexSetError, SimplexInstance, (), L2)
    _raises(ValueError, SimplexInstance, (1, 0), L2)
    _raises(ValueError, SpaceSpec, "lq")
    assert TailBudget().schedule(3) == 0.125


def test_resolved_exponents_and_cached_properties_survive_pickling():
    space = SpaceSpec.ell(Fraction(3, 2))
    dual = space.dual  # cached on the frozen instance
    assert dual == DualExponent(3) and dual.conjugate == DualExponent(Fraction(3, 2))
    for record in (space, dual, DualExponent(Fraction(4, 2)), DualExponent(math.inf)):
        copy = pickle.loads(pickle.dumps(record))
        assert copy == record and hash(copy) == hash(record)
        assert vars(copy) == vars(record)
    copy = pickle.loads(pickle.dumps(dual))
    assert (copy.r, copy.plain, copy.rational) == (3, False, True)
    assert copy.root(8) == 2.0 and copy.power(Fraction(1, 2)) == Fraction(1, 8)
    assert DualExponent(Fraction(4, 2)).r == 2 and type(DualExponent(Fraction(4, 2)).r) is int


def test_import_loads_neither_dataclasses_nor_inspect():
    code = ("import sys, treeshift, treeshift.cli; "
            "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))")
    src = os.path.dirname(os.path.dirname(treeshift.__file__))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, timeout=60, env={**os.environ, "PYTHONPATH": src})
    assert out.stdout.strip() == "[]"


if __name__ == "__main__":
    for name, test in list(globals().items()):
        if name.startswith("test_"):
            if test.__code__.co_argcount:
                for case in CASES:
                    test(case)
            else:
                test()
    print(f"{len(CASES)} record classes ok on Python {sys.version.split()[0]}")
