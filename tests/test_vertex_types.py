"""Vertex types: fiber masses swept by type and operator norms walked by type
must equal the vertex-by-vertex results on a type-free copy of the tree.  The
level-wise `chi_n` must equal a depth-first walk on the same generated trees."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import treeshift as ts
from treeshift import VertexAddress as VA
from treeshift.treespec import parse_tree_spec

SPACES = [ts.SpaceSpec.ell(1), ts.SpaceSpec.ell(2), ts.SpaceSpec.ell("4/3"), ts.SpaceSpec.c_zero()]
_WEIGHTS = st.sampled_from(["1", "1/2", "2/1", "3/2", "-2/3", "5/4"])


def _address(draw, unrooted: bool) -> str:
    up = draw(st.integers(0, 2)) if unrooted else 0
    path = draw(st.lists(st.integers(0, 2), max_size=3))
    return f"({up}; {'.'.join(map(str, path))})"


@st.composite
def spec_documents(draw) -> str:
    """Rooted or unrooted tree-spec documents with `default` or `by_level`
    arity, constant or geometric Fraction weights and 0-4 overrides.  The
    spine child index may be out of range for the spine's arity."""
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


def _outcome(f):
    """f() or, when the tree is malformed there, the type of the error."""
    try:
        return f()
    except ts.InvalidAddressError as exc:
        return type(exc)


def _norm_outcome(spec, tree, trunc):
    r = _outcome(lambda: ts.operator_norm(spec, tree, trunc))
    if isinstance(r, type):
        return r
    return r.value, r.powered, r.argmax, r.is_sup_over_truncation


@given(st.data())
@settings(max_examples=80, deadline=None)
def test_type_sweep_and_walk_equal_enumeration(data):
    tree = parse_tree_spec(data.draw(spec_documents())).source
    plain = tree.with_weight(tree.weight)
    assert tree.vertex_type is not None and plain.vertex_type is None
    verts = _vertices(data.draw, tree)
    for spec in SPACES:
        for v in verts:
            for n in range(11):
                got = _outcome(lambda: ts.fiber_mass(tree, v, n, spec))
                assert got == _outcome(lambda: ts.fiber_mass(plain, v, n, spec)), (v, n, spec)
    tree.fiber_masses.clear()  # n below the swept level: the sweep restarts
    for v in verts:
        got = _outcome(lambda: ts.fiber_mass(tree, v, 3, SPACES[1]))
        assert got == _outcome(lambda: ts.fiber_mass(plain, v, 3, SPACES[1]))

    trunc = ts.Truncation(data.draw(st.integers(0, 6)), data.draw(st.integers(0, 3)))
    for spec in SPACES:
        assert _norm_outcome(spec, tree, trunc) == _norm_outcome(spec, plain, trunc)

    _assert_type_contract(tree)


def _assert_type_contract(tree: ts.TreeModel, trunc=ts.Truncation(4, 2)) -> None:
    """Vertices with equal keys have equal arity, weight and child keys."""
    try:
        verts = list(ts.enumerate_truncation(tree, trunc))
    except ts.InvalidAddressError:  # a spine vertex breaks the spine rule
        verts = list(ts.enumerate_truncation(tree, ts.Truncation(trunc.depth, 0)))
    signatures = {}
    for v in verts:
        kids = _outcome(lambda: tuple(tree.vertex_type(c) for c in ts.children(v, tree)))
        sig = (tree.arity(v), tree.weight(v), kids)
        assert signatures.setdefault(tree.vertex_type(v), sig) == sig, v


@pytest.mark.parametrize("name", ["full_binary", "unary_path"])
def test_uniform_presets_walk_by_type(name):
    tree = ts.make_preset(name)
    plain = tree.with_weight(tree.weight)
    _assert_type_contract(tree)
    for depth in range(9):
        trunc = ts.Truncation(depth, 0)
        for spec in SPACES:
            assert _norm_outcome(spec, tree, trunc) == _norm_outcome(spec, plain, trunc)


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
    key = parse_tree_spec(doc).source.vertex_type
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
