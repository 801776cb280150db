"""Vertex types: fiber masses and q rows swept by type and j rows built by
the spine recurrence must equal the vertex-by-vertex results of a
depth-first walk (`oracles`), and operator norms walked by type must equal
those of a copy of the tree where every vertex is its own type.  The
level-wise `chi_n` must equal a depth-first walk on the same generated
trees, and so must the right inverses S_n and the maps I_n, which read the
fiber's weights once per type."""

from __future__ import annotations

import math
import re
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import treeshift as ts
from treeshift import VertexAddress as VA
from treeshift import criteria, trees
from treeshift.shifts import _apply_B_pow
from treeshift.spaces import _norm, to_float
from treeshift.trees import _spine_fiber, _step, _typed_fiber
from treeshift.treespec import parse_tree_spec

from conftest import (
    SPACES,
    assert_sweep_equals_enumeration,
    assert_type_contract,
    outcome,
    spec_documents,
)
from oracles import build_In_by_walk, build_Sn_by_walk, dfs_fiber, fiber_mass_by_walk


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
    for spec in SPACES:  # a q row is one sweep over the type levels below v
        for v in verts:
            want = outcome(lambda: [fiber_mass_by_walk(tree, v, n, spec)[1] for n in range(11)])
            assert outcome(lambda: criteria._q_row(v, tree, spec, 10)) == want, (v, spec)
    tree.fiber_masses.clear()  # n below the swept level: the sweep restarts
    for v in verts:
        got = outcome(lambda: ts.fiber_mass(tree, v, 3, SPACES[1]))
        assert got == outcome(lambda: fiber_mass_by_walk(tree, v, 3, SPACES[1]))

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


def _j_reference(v, n: int, tree: ts.TreeModel, spec) -> object:
    """j(v, n) in the scale of thresholds, from the fiber of p^n(v) massed
    vertex by vertex along a depth-first walk."""
    s = ts.p_n(v, n, tree)
    dual = spec.dual
    return dual.combine((1 / dual.power(tree.weight(s)), fiber_mass_by_walk(tree, s, n, spec)[1]))


def _swept(t, n: int, tree: ts.TreeModel) -> dict:
    """The level n generations below a vertex of type t, from a fresh sweep."""
    level = {t: 1}
    for _ in range(n):
        level = _step(level, tree)
    return level


def _assert_spine_recurrence(tree: ts.TreeModel, verts, horizon: int = 10) -> None:
    """The j rows built by the spine recurrence equal the per-n j masses of
    the depth-first walk, and each recurrence level lists the types of a
    fresh sweep below p^n(v), in the same order with the same counts, also
    when the recurrence is read cold, with no level memoised."""
    for v in verts:
        levels = outcome(lambda: [
            list(_spine_fiber(v, n, tree)[1].items()) for n in range(horizon + 1)
        ])
        if not isinstance(levels, type):
            for n, items in enumerate(levels):
                fresh = _swept(tree.type_of(ts.p_n(v, n, tree)), n, tree)
                assert items == list(fresh.items()), (v, n)
            tree.levels.clear()
            assert list(_spine_fiber(v, 3, tree)[1].items()) == levels[3]
        for spec in SPACES:
            want = outcome(lambda: [_j_reference(v, n, tree, spec) for n in range(horizon + 1)])
            got = outcome(lambda: criteria._j_row(v, tree, spec, horizon))
            assert _masses_match(got, want), (v, spec)
            if not isinstance(want, type):
                jv = ts.j_value(v, horizon, tree, spec)
                assert _masses_match([jv], [criteria._value(want[horizon], spec)])


def _masses_match(got, want) -> bool:
    """Equal, except that float masses may differ by the rounding of their
    sums: the walk adds 1/|w|^r once per vertex, the sweep count/|w|^r once
    per type.  (An integer ``ratio`` gives float weights above the
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


def _read(kind: str, v, n: int, spec):
    """The read ``kind`` of the fibers at (v, n), as a function of the tree."""
    return {
        "fiber_mass": lambda tree: ts.fiber_mass(tree, v, n, spec),
        "q_row": lambda tree: criteria._q_row(v, tree, spec, n),
        "j_parts": lambda tree: [criteria._j_term(*criteria._j_parts(v, n, tree, spec), spec)],
        "j_row": lambda tree: criteria._j_row(v, tree, spec, n),
    }[kind]


def _message(f):
    """The message of the InvalidAddressError that f() raises, or None."""
    try:
        f()
    except ts.InvalidAddressError as exc:
        return str(exc)
    return None


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_level_memo_stays_coherent(data):
    """Interleaved fiber masses, q rows and (unrooted) j parts and j rows,
    with the memos so small that they are cleared in the middle of a merge,
    give the masses of the depth-first walk, or the error of the same read
    (a j read: of its row) on a fresh tree, and leave in ``tree.levels`` only levels that equal a fresh sweep, in
    items and order; also on a copy where every vertex is its own type."""
    doc, own = data.draw(spec_documents()), data.draw(st.booleans())

    def build() -> ts.TreeModel:
        tree = parse_tree_spec(doc).source
        return tree.with_weight(tree.weight) if own else tree

    tree = build()
    verts = _vertices(data.draw, tree)
    kinds = ["fiber_mass", "q_row"] + ([] if tree.rooted else ["j_parts", "j_row"])
    with mock.patch.object(trees, "MEMO_SIZE", data.draw(st.integers(1, 12))):
        for _ in range(data.draw(st.integers(1, 10))):
            kind, v = data.draw(st.sampled_from(kinds)), data.draw(st.sampled_from(verts))
            n, spec = data.draw(st.integers(0, 7)), data.draw(st.sampled_from(SPACES))
            f = _read(kind, v, n, spec)
            error = _message(lambda: f(tree))
            if error is not None:  # as on a fresh tree, a j read failing where its row does
                fresh = _read("j_row" if kind == "j_parts" else kind, v, n, spec)
                assert _message(lambda: fresh(build())) == error, (kind, v, n)
            elif kind == "fiber_mass":
                assert f(tree) == fiber_mass_by_walk(tree, v, n, spec), (v, n)
            elif kind == "q_row":
                assert f(tree) == [fiber_mass_by_walk(tree, v, k, spec)[1]
                                   for k in range(n + 1)], (v, n)
            else:
                want = [_j_reference(v, k, tree, spec) for k in range(n + 1)]
                assert _masses_match(f(tree), want if kind == "j_row" else want[-1:]), (kind, v, n)
            for (t, k), level in list(tree.levels.items()):
                assert list(level.items()) == list(_swept(t, k, tree).items()), (t, k)


def test_j_rows_read_child_types_in_proportion_to_the_horizon():
    """A j row reads each level below p^n(v) as a merge of the levels one
    generation up, so doubling the horizon of a report at most doubles its
    reads of the child-type rule (2.1 leaves room for its fixed part)."""
    doc = "[tree]\nkind = unrooted\n[arity]\ndefault = 2\n(0; ) = 3\n" \
          "[spine]\nchild_index = 1\n[weights]\nratio = 2\n"
    counts = []
    for horizon in (50, 100):
        tree = parse_tree_spec(doc).source
        read, calls = tree.child_types, []
        tree.child_types = lambda t: calls.append(t) or read(t)
        ts.dynamics_report(tree, ts.SpaceSpec.ell(2), ts.infinite_family(), horizon=horizon)
        counts.append(len(calls))
    assert counts[1] <= 2.1 * counts[0], counts


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


def test_a_cold_j_read_fails_where_its_row_fails():
    """Every spine vertex has arity 1 but spine child index 1.  The j row of
    (1; 0) fails at n = 1, on its first step onto the spine, (1; ); a cold
    `j_value` further on names that vertex too, not the higher (n; ) whose
    children it reads first."""
    doc = "[tree]\nkind = unrooted\n[arity]\ndefault = 1\n[spine]\nchild_index = 1\n"
    for n in (1, 2, 5):
        tree = parse_tree_spec(doc).source
        with pytest.raises(ts.InvalidAddressError, match=r"at \(1; \) \(arity 1\)$"):
            ts.j_value(VA(1, (0,)), n, tree, SPACES[1])


def _sequence_or_error(f):
    """f() or, when it raises InvalidAddressError, its type and message."""
    try:
        return f()
    except ts.InvalidAddressError as exc:
        return type(exc), str(exc)


def _assert_chi_n_is_depth_first(tree: ts.TreeModel, verts, depths) -> None:
    """`chi_n` lists the depth-first walk, and the types that `_typed_fiber`
    gives with it (which `build_Sn` reads) are the types of that walk's
    vertices."""
    for v in verts:
        for n in depths:
            reference = _sequence_or_error(lambda: dfs_fiber(v, n, tree))
            assert _sequence_or_error(lambda: list(ts.chi_n(v, n, tree))) == reference, (v, n)
            if isinstance(reference, list):
                kinds = _typed_fiber(v, n, tree)[1]
                assert kinds == [tree.type_of(u) for u in reference], (v, n)


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


def test_edge_list_fiber_masses_equal_the_walk():
    """An edge-list tree, where every vertex is its own type, masses its
    fibers by the one sweep, equal to the vertex-by-vertex walk."""
    edges = ts.EdgeData(
        edges=(("r", "a"), ("r", "b"), ("a", "c"), ("a", "d"), ("a", "e"), ("d", "f")),
        weights={"r": 1, "a": Fraction(1, 2), "b": 2, "c": 0.75, "d": 5, "e": Fraction(1, 3),
                 "f": 3.5},
        anchor="r",
    )
    tree = ts.tree_from_edge_data(edges)
    verts = list(ts.enumerate_truncation(tree, ts.Truncation(3)))
    assert all(tree.type_of(v) == v for v in verts)
    assert_sweep_equals_enumeration(tree, verts, range(5))


def test_chi_n_errors():
    bad_spine = ts.TreeModel(ts.UNROOTED, arity=lambda v: 2, weight=lambda v: 1,
                             spine_child_index=lambda k: 5)
    with pytest.raises(ts.InvalidAddressError) as got:
        list(ts.chi_n(VA(2), 3, bad_spine))
    with pytest.raises(ts.InvalidAddressError) as ref:
        dfs_fiber(VA(2), 3, bad_spine)
    want = "spine child index 5 out of range at (2; ) (arity 2)"
    assert str(got.value) == str(ref.value) == want
    binary = ts.full_binary()
    lazy = ts.chi_n(VA(0), -1, binary)  # nothing is raised before iteration
    with pytest.raises(ValueError):
        next(lazy)
    lazy = ts.chi_n(VA(0, (2,)), 1, binary)
    with pytest.raises(ts.InvalidAddressError):
        next(lazy)


def _exact(doc: str) -> str:
    """The document with Fraction weights only: the weight literal 1 becomes
    1/1.  An integer weight gives float simplex coefficients (1 / 1 ** 2 is
    1.0), and an integer ratio float weights above the anchor."""
    head, weights = doc.split("[weights]\n")
    weights, spine = (weights.split("[spine]") + [None])[:2]
    weights = weights.replace("= 1\n", "= 1/1\n")
    return head + "[weights]\n" + weights + ("" if spine is None else "[spine]" + spine)


def _floats(doc: str) -> str:
    """The document with every Fraction literal written as a float."""
    return re.sub(r"-?\d+/\d+", lambda m: repr(float(Fraction(m.group()))), doc)


@given(st.data())
@settings(max_examples=40, deadline=None)
def test_right_inverse_is_exact_on_generated_trees(data):
    """S_n e_v, with its coefficients computed once per vertex type, is a
    right inverse exactly (B^n S_n e_v = e_v in Fractions), and its norm is
    the fiber's simplex infimum within the default delta."""
    tree = parse_tree_spec(_exact(data.draw(spec_documents()))).source
    for v in _vertices(data.draw, tree):
        for n in range(5):
            for spec in SPACES:
                try:
                    g = ts.build_Sn(v, n, tree, spec)
                except (ts.EmptyFiberError, ts.InvalidAddressError):
                    continue
                assert ts.apply_B_pow(g, n, tree) == ts.basis(v), (v, n, spec)
                inf = ts.fiber_simplex_inf(tree, v, n, spec)
                assert abs(float(ts.norm(g, spec, tree)) - inf) <= 2.0 ** -n * 1e-3, (v, n, spec)


def _shown(f):
    """The repr and the typed entries, in order, of f() or of its vector, or
    the type of the error it raises on a malformed or leafy tree."""
    try:
        x = f()
    except (ts.InvalidAddressError, ts.EmptyFiberError) as exc:
        return type(exc)
    vector = x.vector if isinstance(x, ts.InUnrootedResult) else x
    return repr(x), [(u, y, type(y)) for u, y in vector.items()]


@given(st.data())
@settings(max_examples=25, deadline=None)
def test_minimiser_by_type_equals_the_vertex_walk(data):
    """`build_Sn` and `build_In_unrooted`, which read the fiber's weights by
    type, equal the references weighed vertex by vertex, by repr: with exact
    and float weights, and on copies where every vertex is its own type, so
    equal weights of different types tie (l^1 puts the mass on the lowest
    address)."""
    doc = data.draw(spec_documents())
    typed = [parse_tree_spec(doc).source, parse_tree_spec(_floats(doc)).source]
    trees = typed + [t.with_weight(t.weight) for t in typed]
    verts = _vertices(data.draw, typed[0])
    delta = data.draw(st.sampled_from([None, 0.5]))
    for tree in trees:
        for v in verts:
            n = data.draw(st.integers(0, 5))
            for spec in [*SPACES, ts.SpaceSpec.ell("3/2")]:
                want = _shown(lambda: build_Sn_by_walk(v, n, tree, spec, delta))
                assert _shown(lambda: ts.build_Sn(v, n, tree, spec, delta)) == want, (v, n)
                if not tree.rooted:
                    want = _shown(lambda: build_In_by_walk(v, n, tree, spec))
                    assert _shown(lambda: ts.build_In_unrooted(v, n, tree, spec)) == want


_GENEROUS = ts.TailBudget(lambda j: 1e9)  # every nonempty fiber is retained


@given(st.data(), st.booleans())
@settings(max_examples=40, deadline=None)
def test_typed_certificates_equal_the_materialised_kernel(data, exact):
    """Term norms and residual certificates read per (level, type) equal,
    bit for bit, the norms of the materialised g_j and of B^(n_j) f - e_root,
    and the whole synthesis equals the one on a type-free copy."""
    doc = data.draw(spec_documents(unrooted=False))
    tree = parse_tree_spec(_exact(doc) if exact else _floats(doc)).source
    plain = tree.with_weight(tree.weight)
    e_root = ts.basis(VA(0))
    for spec in [*SPACES, ts.SpaceSpec.ell(3), ts.SpaceSpec.ell("3/2")]:
        def build(t):
            return ts.build_recurrent_vector(range(6), t, spec, _GENEROUS, terms=4,
                                             trunc=ts.Truncation(4, 0))
        try:
            syn = build(tree)
        except ts.CriterionTooWeakError:
            continue
        for term in syn.terms:
            assert term.g_norm == to_float(_norm(term.g, spec, tree)), (term.n, spec)
        for cert in syn.certificates:
            direct = _apply_B_pow(syn.vector, cert.n, tree) - e_root
            assert cert.residual == to_float(_norm(direct, spec, tree)), (cert.n, spec)
        assert repr(syn) == repr(build(plain)), spec


def test_identity_typed_masses_are_keyed_by_vertex_and_depth():
    """Where every vertex is its own type, a fiber mass is memoised under
    (dual, v, n): a repeat read neither reads the level nor hashes a key as
    long as the fiber, q rows and j parts share those entries, and typed
    trees keep the level key."""
    spec = SPACES[1]
    tree = ts.full_binary().with_weight(lambda v: 1)
    first = ts.fiber_mass(tree, VA(0), 10, spec)
    assert first == (2 ** 10, 2 ** 10)
    assert set(tree.fiber_masses) == {(spec.dual, VA(0), 10)}
    tree.levels.clear()
    assert ts.fiber_mass(tree, VA(0), 10, spec) is first
    assert not tree.levels  # the repeat read did not read the level
    row = criteria._q_row(VA(0, (1,)), tree, spec, 4)
    assert row == [2 ** n for n in range(5)]
    assert (spec.dual, VA(0, (1,)), 4) in tree.fiber_masses
    chain = ts.bi_infinite_path().with_weight(lambda v: 2)
    parts = criteria._j_parts(VA(0), 3, chain, spec)
    assert parts == (2, Fraction(1, 4)) and (spec.dual, VA(3), 3) in chain.fiber_masses
    typed = ts.full_binary()
    ts.fiber_mass(typed, VA(0), 3, spec)
    assert set(typed.fiber_masses) == {(spec.dual, ((0, 8),))}
