"""Vertex types: fiber masses swept by type, j rows built by the spine
recurrence and operator norms walked by type must equal the vertex-by-vertex
results on a type-free copy of the tree.  The level-wise `chi_n` must equal a
depth-first walk on the same generated trees."""

from __future__ import annotations

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import treeshift as ts
from treeshift import VertexAddress as VA
from treeshift import criteria
from treeshift.trees import _fiber_types, _spine_fiber
from treeshift.treespec import parse_tree_spec

from conftest import SPACES, assert_sweep_equals_enumeration, assert_type_contract, outcome
_WEIGHTS = st.sampled_from(["1", "1/2", "2/1", "3/2", "-2/3", "5/4"])


def _address(draw, unrooted: bool) -> str:
    up = draw(st.integers(0, 2)) if unrooted else 0
    path = draw(st.lists(st.integers(0, 2), max_size=3))
    return f"({up}; {'.'.join(map(str, path))})"


@st.composite
def spec_documents(draw, unrooted=None) -> str:
    """Rooted or unrooted tree-spec documents with `default` or `by_level`
    arity, constant or geometric Fraction weights and 0-4 overrides.  The
    spine child index may be out of range for the spine's arity."""
    if unrooted is None:
        unrooted = draw(st.booleans())
    arity = ["[arity]"]
    if draw(st.booleans()):
        levels = draw(st.lists(st.integers(0, 3), max_size=3)) + [draw(st.integers(0, 2))]
        arity.append("by_level = " + ",".join(map(str, levels)))
    if len(arity) == 1 or draw(st.booleans()):
        arity.append(f"default = {draw(st.integers(0, 2))}")
    weights = ["[weights]"]
    if draw(st.booleans()):
        weights.append(f"default = {draw(_WEIGHTS)}")
    else:
        weights += [f"coef = {draw(_WEIGHTS)}", f"ratio = {draw(_WEIGHTS)}"]
    overrides = draw(st.lists(st.tuples(st.booleans(), st.integers(0, 3), _WEIGHTS),
                              max_size=4))
    arity_keys, weight_keys = set(), set()
    for is_arity, count, w in overrides:
        addr = _address(draw, unrooted)
        if is_arity and addr not in arity_keys:
            arity_keys.add(addr)
            arity.append(f"{addr} = {count}")
        elif not is_arity and addr not in weight_keys:
            weight_keys.add(addr)
            weights.append(f"{addr} = {w}")
    lines = ["[tree]", f"kind = {'unrooted' if unrooted else 'rooted'}", *arity, *weights]
    if unrooted:
        lines += ["[spine]", f"child_index = {draw(st.integers(0, 2))}"]
    return "\n".join(lines) + "\n"


def _vertices(draw, tree: ts.TreeModel) -> list:
    """The anchor, spine vertices and a few vertices below them, reached
    through child indices the arity allows (no children are generated)."""
    starts = [VA(k) for k in range(3 if tree.kind == ts.UNROOTED else 1)]
    verts = list(starts)
    for start in starts:
        v = start
        for _ in range(draw(st.integers(0, 3))):
            allowed = [i for i in range(tree.arity(v))
                       if not (v.up and not v.path and i == tree.spine_child_index(v.up - 1))]
            if not allowed:
                break
            v = VA(v.up, v.path + (draw(st.sampled_from(allowed)),))
            verts.append(v)
    return verts


def _norm_outcome(spec, tree, trunc):
    r = outcome(lambda: ts.operator_norm(spec, tree, trunc))
    if isinstance(r, type):
        return r
    return r.value, r.powered, r.argmax, r.is_sup_over_truncation


@given(st.data())
@settings(max_examples=80, deadline=None)
def test_type_sweep_and_walk_equal_enumeration(data):
    tree = parse_tree_spec(data.draw(spec_documents())).source
    verts = _vertices(data.draw, tree)
    plain = assert_sweep_equals_enumeration(tree, verts)
    tree.fiber_masses.clear()  # n below the swept level: the sweep restarts
    for v in verts:
        got = outcome(lambda: ts.fiber_mass(tree, v, 3, SPACES[1]))
        assert got == outcome(lambda: ts.fiber_mass(plain, v, 3, SPACES[1]))

    trunc = ts.Truncation(data.draw(st.integers(0, 6)), data.draw(st.integers(0, 3)))
    for spec in SPACES:
        assert _norm_outcome(spec, tree, trunc) == _norm_outcome(spec, plain, trunc)

    assert_type_contract(tree)


@pytest.mark.parametrize("name", ["full_binary", "unary_path"])
def test_uniform_presets_walk_by_type(name):
    tree = ts.make_preset(name)
    plain = tree.with_weight(tree.weight)
    assert_type_contract(tree)
    for depth in range(9):
        trunc = ts.Truncation(depth, 0)
        for spec in SPACES:
            assert _norm_outcome(spec, tree, trunc) == _norm_outcome(spec, plain, trunc)


def _j_reference(v, n: int, plain: ts.TreeModel, spec) -> object:
    """j(v, n) in the scale of thresholds, from the enumerated fiber of
    p^n(v) on a tree without vertex types."""
    s = ts.p_n(v, n, plain)
    dual = spec.dual
    return dual.combine((1 / dual.power(plain.weight(s)), ts.fiber_mass(plain, s, n, spec)[1]))


def _assert_spine_recurrence(tree: ts.TreeModel, verts, horizon: int = 10) -> None:
    """The j rows built by the spine recurrence equal the per-n j masses of
    the type-free copy, and each recurrence level lists the types of a fresh
    sweep below p^n(v), in the same order with the same counts, also when
    the recurrence restarts below the step it reached."""
    plain = tree.with_weight(tree.weight)
    for v in verts:
        levels = outcome(lambda: [
            list(_spine_fiber(v, n, tree)[1].items()) for n in range(horizon + 1)
        ])
        if not isinstance(levels, type):
            for n, items in enumerate(levels):
                tree.fiber_levels.clear()  # a fresh sweep, not the recurrence's level
                fresh = _fiber_types(ts.p_n(v, n, tree), n, tree)
                assert items == list(fresh.items()), (v, n)
            assert list(_spine_fiber(v, 3, tree)[1].items()) == levels[3]
        for spec in SPACES:
            want = outcome(lambda: [_j_reference(v, n, plain, spec) for n in range(horizon + 1)])
            got = outcome(lambda: criteria._j_row(v, tree, spec, horizon))
            assert _masses_match(got, want), (v, spec)
            if not isinstance(want, type):
                jv = ts.j_value(v, horizon, tree, spec)
                assert _masses_match([jv], [ts.j_value(v, horizon, plain, spec)])


def _masses_match(got, want) -> bool:
    """Equal, except that float masses may differ by the rounding of their
    sums: enumeration adds 1/|w|^r once per vertex, the sweep count/|w|^r
    once per type.  (An integer ``ratio`` gives float weights above the
    anchor, 1 ** -1 being 1.0.)"""
    if isinstance(got, type) or isinstance(want, type) or len(got) != len(want):
        return got == want
    return all(math.isclose(g, w, rel_tol=1e-12) if isinstance(w, float) else g == w
               for g, w in zip(got, want))


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_spine_recurrence_equals_per_n_j_masses(data):
    tree = parse_tree_spec(data.draw(spec_documents(unrooted=True))).source
    _assert_spine_recurrence(tree, _vertices(data.draw, tree))


@pytest.mark.parametrize("make", [
    ts.example_7_2,
    lambda: ts.example_7_2(exact=True),
    ts.bi_infinite_path,
    lambda: ts.bi_infinite_path(lambda d: 2.0 ** -d),
    lambda: ts.bi_infinite_path(lambda d: Fraction(2) ** -d),
], ids=["example_7_2", "example_7_2-exact", "bi_infinite_path", "bi_infinite_path-float",
        "bi_infinite_path-exact"])
def test_spine_recurrence_on_unrooted_presets(make):
    tree = make()
    verts = [VA(0), VA(1), VA(3), *ts.chi_n(VA(0), 1, tree), *ts.chi_n(VA(0), 3, tree)]
    _assert_spine_recurrence(tree, verts)


def test_chi_n_reads_the_arity_rule_once_per_type():
    calls = []
    tree = ts.TreeModel(ts.ROOTED, arity=lambda t: calls.append(t) or 2, weight=lambda t: 1,
                        types=ts.VertexTypes(type_of=lambda v: 0, child_type=lambda t, i: 0))
    assert list(ts.chi_n(VA(0), 12, tree)) == list(ts.chi_n(VA(0), 12, ts.full_binary()))
    assert calls == [0]
    assert tree.arity.cache_info().misses == 0


def test_derived_keys():
    doc = """
[tree]
kind = unrooted
[arity]
default = 2
(1; 0.1) = 3
[spine]
child_index = 1
[weights]
(0; 1) = 1/2
"""
    key = parse_tree_spec(doc).source.type_of
    # ancestors-or-self of an override, and spine vertices, are keyed by address
    for v in (VA(1, (0, 1)), VA(1, (0,)), VA(0, (1,)), VA(0), VA(1), VA(2)):
        assert key(v) == v
    # every other vertex by its signed depth
    assert key(VA(0, (0,))) == key(VA(1, (0, 0))) == 1
    assert key(VA(0, (1, 0))) == key(VA(0, (0, 1))) == 2
    assert key(VA(2, (0,))) == -1


def test_spine_vertices_keep_the_spine_rule_error():
    """(1; ) has arity 1 but spine child index 2.  Its off-spine cousins at the
    same depth come first among the children of (2; ), so a sweep that keyed
    (1; ) by depth would never expand it and would miss the error."""
    doc = "[tree]\nkind = unrooted\n[arity]\ndefault = 1\n(2; ) = 3\n[spine]\nchild_index = 2\n"
    tree = parse_tree_spec(doc).source
    assert ts.q_value(VA(2), 1, tree, SPACES[1]) == pytest.approx(3 ** 0.5)
    with pytest.raises(ts.InvalidAddressError, match="spine child index 2"):
        ts.q_value(VA(2), 2, tree, SPACES[1])


def _dfs_fiber(v, n: int, tree: ts.TreeModel) -> list:
    """Chi^n(v) by depth-first recursion over `children`: the reference for
    the level-wise `chi_n`."""
    if n == 0:
        return [v]
    return [u for c in ts.children(v, tree) for u in _dfs_fiber(c, n - 1, tree)]


def _sequence_or_error(f):
    """f() or, when it raises InvalidAddressError, its type and message."""
    try:
        return f()
    except ts.InvalidAddressError as exc:
        return type(exc), str(exc)


def _assert_chi_n_is_depth_first(tree: ts.TreeModel, verts, depths) -> None:
    for v in verts:
        for n in depths:
            got = _sequence_or_error(lambda: list(ts.chi_n(v, n, tree)))
            assert got == _sequence_or_error(lambda: _dfs_fiber(v, n, tree)), (v, n)


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_level_wise_chi_n_equals_depth_first_walk(data):
    tree = parse_tree_spec(data.draw(spec_documents())).source
    _assert_chi_n_is_depth_first(tree, _vertices(data.draw, tree), range(7))


def test_level_wise_chi_n_on_spine_starts_and_edge_lists():
    ex72 = ts.example_7_2()
    _assert_chi_n_is_depth_first(ex72, [ts.spine_vertex(k) for k in range(5)], range(8))
    edges = ts.EdgeData(
        edges=(("r", "a"), ("r", "b"), ("a", "c"), ("a", "d"), ("a", "e"), ("d", "f")),
        weights={lab: 1 for lab in "rabcdef"},
        anchor="r",
    )
    tree = ts.tree_from_edge_data(edges)
    _assert_chi_n_is_depth_first(tree, list(ts.enumerate_truncation(tree, ts.Truncation(3))),
                                 range(5))


def test_chi_n_errors():
    bad_spine = ts.TreeModel(ts.UNROOTED, arity=lambda v: 2, weight=lambda v: 1,
                             spine_child_index=lambda k: 5)
    with pytest.raises(ts.InvalidAddressError) as got:
        list(ts.chi_n(VA(2), 3, bad_spine))
    with pytest.raises(ts.InvalidAddressError) as ref:
        _dfs_fiber(VA(2), 3, bad_spine)
    want = "spine child index 5 out of range at (2; ) (arity 2)"
    assert str(got.value) == str(ref.value) == want
    binary = ts.full_binary()
    lazy = ts.chi_n(VA(0), -1, binary)  # nothing is raised before iteration
    with pytest.raises(ValueError):
        next(lazy)
    lazy = ts.chi_n(VA(0, (2,)), 1, binary)
    with pytest.raises(ts.InvalidAddressError):
        next(lazy)
