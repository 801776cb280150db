"""q and j rows read by chain runs, spine rows and one-pass conversions equal
the level-by-level references of `oracles`, entry by entry: the same value,
the same type and the same float bits, or the same error and message."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import treeshift as ts
from treeshift import VertexAddress as VA
from treeshift import criteria
from treeshift.presets import _block_exponents, _m_rule
from treeshift.treespec import parse_tree_spec

from conftest import spec_documents
from oracles import (
    block_exponent_by_scan,
    j_row_by_n,
    q_row_by_sweep,
    supercyclic_scan_by_vertex,
)
from test_vertex_types import _vertices

SPACES = [ts.SpaceSpec.parse(p) for p in ("1", "2", "4/3", "3", "c0")]
GAMMAS = [ts.gamma_constant(1), ts.gamma_constant(3), ts.gamma_powers(2),
          ts.gamma_powers(Fraction(1, 2))]


def _kind(x) -> tuple:
    """A mass as its type and exact value, a float by its bits."""
    return type(x), x.hex() if isinstance(x, float) else x


def _read(f):
    """f() as the `_kind` of each entry, or the type and message of the
    error it raises."""
    try:
        return [_kind(x) for x in f()]
    except Exception as exc:
        return type(exc), str(exc)


def _scan(f):
    """f() as ``(achieved, failed rung)``, or the type and message of the
    error it raises."""
    try:
        return f()
    except Exception as exc:
        return type(exc), str(exc)


def _by_depth(kind: str, weight, arity=lambda d: 1) -> ts.TreeModel:
    """A tree typed by signed depth, with the given weight and arity rules
    on depths; unrooted trees have spine child index 0."""
    types = ts.VertexTypes(lambda v: v.signed_depth, lambda d, i: d + 1)
    return ts.TreeModel(kind, arity, weight, (lambda k: 0) if kind == ts.UNROOTED else None,
                        name="by_depth", types=types)


def _typed(children: dict, weights: dict) -> ts.TreeModel:
    """A rooted tree on named types: ``children[t]`` lists the child types
    of t, the root has type "r"."""
    def type_of(v):
        t = "r"
        for i in v.path:
            t = children[t][i]
        return t

    types = ts.VertexTypes(type_of, lambda t, i: children[t][i])
    return ts.TreeModel(ts.ROOTED, lambda t: len(children[t]), weights.__getitem__,
                        name="typed", types=types)


_CHAINS = {  # two chains that merge two levels down, a chain that ends, one that branches
    "r": ("a", "b", "e"), "a": ("a2",), "b": ("b2",), "a2": ("m",), "b2": ("m",), "m": ("m",),
    "e": ("e2",), "e2": ("e3",), "e3": (), "x": ("x",)}
_CHAINS_WEIGHTS = {"r": 1, "a": Fraction(1, 2), "b": 3, "a2": Fraction(5, 4), "b2": 2,
                   "m": Fraction(2, 3), "e": 4, "e2": Fraction(1, 3), "e3": 5, "x": 1}
_BRANCHING = {"r": ("a",), "a": ("b",), "b": ("c", "d"), "c": ("c",), "d": ("d",)}


_HUGE = Fraction(2) ** (1 << 20)  # any exact power r >= 2 of it passes the budget


def _float(weights: dict) -> dict:
    return {t: float(w) for t, w in weights.items()}


TREES = {
    "full_binary": ts.full_binary,
    "unary_path": ts.unary_path,
    "example_4_1": ts.example_4_1,
    "example_4_1-exact": lambda: ts.example_4_1(exact=True),
    "example_4_1-m-list": lambda: ts.example_4_1(m=[2, 4, 8], exact=True),
    "example_4_1-exhausted": lambda: ts.example_4_1(m=[1, 2, 3]),
    "example_7_2": ts.example_7_2,
    "example_7_2-exact": lambda: ts.example_7_2(exact=True),
    "bi_infinite_path": ts.bi_infinite_path,
    "bi_infinite_path-float": lambda: ts.bi_infinite_path(lambda d: 2.0 ** -d),
    "bi_infinite_path-exact": lambda: ts.bi_infinite_path(lambda d: Fraction(2) ** -d),
    "chains": lambda: _typed(_CHAINS, _CHAINS_WEIGHTS),
    "chains-float": lambda: _typed(_CHAINS, _float(_CHAINS_WEIGHTS)),
    "branching": lambda: _typed(_BRANCHING, {"r": 1, "a": 2.0, "b": 0.5, "c": 3.0, "d": 0.25}),
    # a power past the exact budget, a float power that underflows or
    # overflows, each on a chain and (unrooted) on the spine
    "budget": lambda: _by_depth(ts.ROOTED, lambda d: _HUGE if d == 5 else Fraction(1, 2)),
    "budget-two-chains": lambda: _typed(  # both chains past the budget at depth 2 only
        {"r": ("a", "b"), "a": ("a2",), "b": ("b2",), "a2": ("c",), "b2": ("d",), "c": ("c",),
         "d": ("d",)},
        {"r": 1, "a": Fraction(2), "b": 1, "a2": _HUGE, "b2": 3 * _HUGE, "c": 3, "d": Fraction(1, 3)}),
    "underflow": lambda: _by_depth(ts.ROOTED, lambda d: 1e-200 if d == 4 else 0.5),
    "overflow": lambda: _by_depth(ts.ROOTED, lambda d: 1e200 if d == 4 else 2.0),
    "spine-budget": lambda: _by_depth(ts.UNROOTED, lambda d: _HUGE if d == -6 else Fraction(1, 2)),
    "spine-underflow": lambda: _by_depth(ts.UNROOTED, lambda d: 1e-200 if d in (-5, 7) else 0.5),
    "spine-overflow": lambda: _by_depth(ts.UNROOTED, lambda d: 1e200 if d in (-3, 9) else 2.0),
}


def _sample(tree: ts.TreeModel) -> list:
    verts = list(ts.enumerate_truncation(tree, ts.Truncation(3, 0 if tree.rooted else 3)))
    return verts[:12]


def _assert_rows_equal(make, verts, horizon: int) -> None:
    """q rows and (unrooted) j rows of ``verts``, read in turn from one
    tree, equal the references read from fresh trees."""
    for spec in SPACES:
        tree = make()
        for v in verts:
            want = _read(lambda: q_row_by_sweep(v, make(), spec, horizon))
            assert _read(lambda: criteria._q_row(v, tree, spec, horizon)) == want, (v, spec)
        if not tree.rooted:
            for v in verts:
                want = _read(lambda: j_row_by_n(v, make(), spec, horizon))
                assert _read(lambda: criteria._j_row(v, tree, spec, horizon)) == want, (v, spec)


@pytest.mark.parametrize("name", sorted(TREES))
def test_rows_equal_the_level_by_level_reads(name):
    make = TREES[name]
    _assert_rows_equal(make, _sample(make()), 40)


@given(st.data())
@settings(max_examples=20, deadline=None)
def test_rows_equal_the_level_by_level_reads_on_documents(data):
    """On generated documents, typed and as float copies on which every
    vertex is its own type."""
    doc = data.draw(spec_documents())
    typed = parse_tree_spec(doc).source
    verts = _vertices(data.draw, typed)

    def floats() -> ts.TreeModel:
        tree = parse_tree_spec(doc).source
        return tree.with_weight(lambda v: float(tree.weight(v)))

    _assert_rows_equal(lambda: parse_tree_spec(doc).source, verts, 10)
    _assert_rows_equal(floats, verts, 10)


def _assert_scans_equal(make, horizon: int) -> None:
    for spec in SPACES:
        for gamma in GAMMAS:
            sample = criteria._sample_vertices(None, make())
            want = _scan(lambda: supercyclic_scan_by_vertex(
                make(), spec, gamma, horizon, sample, criteria.DEFAULT_LADDER))
            got = _scan(lambda: (lambda r: (r.achieved, r.failed_rung))(
                ts.supercyclicity_report(make(), spec, gamma, horizon)))
            assert got == want, (spec, gamma.description)


@pytest.mark.parametrize("name", [n for n in sorted(TREES) if not TREES[n]().rooted])
def test_supercyclic_scan_equals_the_per_vertex_reads(name):
    _assert_scans_equal(TREES[name], 30)


@given(spec_documents(unrooted=True))
@settings(max_examples=25, deadline=None)
def test_supercyclic_scan_equals_the_per_vertex_reads_on_documents(doc):
    _assert_scans_equal(lambda: parse_tree_spec(doc).source, 8)


def test_chain_rows_take_no_level_reads(monkeypatch):
    """A run of single-child levels is massed without a level step or a
    level-mass read: example_4_1's root row steps once, to the two chains,
    and reads two levels, the root's and the first of the chains."""
    steps, reads = [], []
    step, level_mass = criteria._step, criteria._level_mass
    monkeypatch.setattr(criteria, "_step", lambda *a: steps.append(1) or step(*a))
    monkeypatch.setattr(criteria, "_level_mass", lambda *a: reads.append(1) or level_mass(*a))
    row = criteria._q_row(VA(0), ts.example_4_1(), ts.SpaceSpec.ell(2), 500)
    assert (len(row), len(steps), len(reads)) == (501, 1, 2)


@pytest.mark.parametrize("m", ["pow2", [2, 4, 8, 16, 32, 64, 128, 256] * 3, [1, 0, 5, 3] * 120,
                               [3, -1, 2] * 400, lambda j: 1 + j % 3])
def test_block_exponents_equal_the_scan_over_blocks(m):
    """The bisection over kept block ends gives the exponent the scan from
    block 1 gives, at every position up to 2,000, read in any order."""
    positions = list(range(1, 2001))
    exponent = _block_exponents(_m_rule(m))
    for k in positions[::-1][:50] + positions:
        assert exponent(k) == block_exponent_by_scan(k, _m_rule(m)), k


def test_block_exponents_raise_where_the_scan_does():
    """An exhausted m-list raises the scan's ValueError at the same block,
    and again on a later read; the weights stay equal to the scan's."""
    m = [2, 1, 3]
    exponent = _block_exponents(_m_rule(m))
    for k in (13, 5, 13):
        try:
            want = block_exponent_by_scan(k, _m_rule(m))
        except ValueError as exc:
            want = str(exc)
        try:
            got = exponent(k)
        except ValueError as exc:
            got = str(exc)
        assert got == want == ("m-sequence of length 3 exhausted at block 4" if k == 13 else got)
    for exact in (False, True):
        tree = ts.example_4_1(exact=exact)
        for k in range(1, 300):
            e = block_exponent_by_scan(k, _m_rule("pow2"))
            for branch, sign in ((0, -1), (1, 1)):
                want = Fraction(2) ** (sign * e) if exact else 2.0 ** (sign * e)
                assert _kind(tree.type_weight((branch, k))) == _kind(want)
