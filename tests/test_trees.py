"""Tree structure, addressing, navigation and validation."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import treeshift as ts
from treeshift import VertexAddress as VA
from treeshift.presets import chain_vertex, spine_vertex

from conftest import assert_sweep_equals_enumeration, assert_type_contract


def test_address_text_round_trip():
    for addr in [VA(0), VA(0, (1, 0)), VA(2), VA(3, (4, 0, 1))]:
        assert ts.parse_address(ts.format_address(addr)) == addr
    assert ts.format_address(VA(0)) == "(0; )"
    with pytest.raises(ts.InvalidAddressError):
        ts.parse_address("0; 1.2")


def test_canonicalize_already_canonical(binary):
    a = VA(0, (1, 0))
    assert ts.canonicalize(a, binary) == a
    assert ts.canonicalize(VA(0), binary) == VA(0)


def test_canonicalize_reduces_spine_detour(ex72):
    # two steps up, then back down the spine child of o_2: one net step up
    assert ts.canonicalize(VA(2, (0,)), ex72) == VA(1)
    # fully reducible detour lands back on the anchor
    assert ts.canonicalize(VA(1, (0,)), ex72) == VA(0)


def test_canonicalize_keeps_non_spine_steps():
    bushy = ts.TreeModel(
        ts.UNROOTED,
        arity=lambda v: 2,
        weight=lambda v: 1,
        spine_child_index=lambda k: 0,
    )
    # stepping down away from the spine is already canonical
    assert ts.canonicalize(VA(1, (1,)), bushy) == VA(1, (1,))
    assert ts.canonicalize(VA(2, (0, 1)), bushy) == VA(1, (1,))


def test_canonicalize_rejects_bad_addresses(binary, ex72):
    with pytest.raises(ts.InvalidAddressError):
        ts.canonicalize(VA(1), binary)  # rooted trees never step up
    with pytest.raises(ts.InvalidAddressError):
        ts.canonicalize(VA(0, (2,)), binary)  # arity bound
    with pytest.raises(ts.InvalidAddressError):
        ts.canonicalize(VA(0, (1, 1)), ex72)  # chains are unary


@pytest.mark.parametrize("name, ua", [("full_binary", 2), ("unary_path", 1)])
def test_uniform_arity_check_messages(name, ua):
    tree = ts.make_preset(name)
    assert tree.check(VA(0)) is None
    assert tree.check(VA(0, (ua - 1,) * 5)) is None
    for path, bad, shown in [((ua,), ua, f"{ua}"), ((0, ua), ua, f"0.{ua}"),
                             ((0, -1), -1, "0.-1"), ((ua + 3, -1), ua + 3, f"{ua + 3}.-1")]:
        with pytest.raises(ts.InvalidAddressError) as exc:
            tree.check(VA(0, path))
        assert str(exc.value) == f"child index {bad} out of range 0..{ua - 1} in (0; {shown})"


def test_children_examples(binary, ex72):
    assert ts.children(VA(0), binary) == [VA(0, (0,)), VA(0, (1,))]
    # o_0 has exactly the two chain heads u_1, v_1
    assert ts.children(VA(0), ex72) == [chain_vertex(0, 1), chain_vertex(1, 1)]
    # a spine vertex's single child is the next spine vertex down
    assert ts.children(spine_vertex(2), ex72) == [spine_vertex(1)]


def test_leaf_has_no_children():
    leafy = ts.TreeModel(ts.ROOTED, arity=lambda v: 0, weight=lambda v: 1)
    assert ts.children(VA(0), leafy) == []


def test_parent_examples(binary, ex72):
    assert ts.parent(VA(0), binary) is None
    assert ts.parent(VA(0), ex72) == spine_vertex(1)
    assert ts.parent(chain_vertex(0, 3), ex72) == chain_vertex(0, 2)
    assert ts.parent(chain_vertex(0, 1), ex72) == VA(0)


def test_chi_n_examples(binary, ex72):
    assert len(list(ts.chi_n(VA(0), 3, binary))) == 8
    assert list(ts.chi_n(spine_vertex(1), 2, ex72)) == [
        chain_vertex(0, 1),
        chain_vertex(1, 1),
    ]
    assert list(ts.chi_n(VA(0, (1,)), 0, binary)) == [VA(0, (1,))]


def test_p_n_examples(binary, ex72):
    assert ts.p_n(chain_vertex(0, 1), 3, ex72) == spine_vertex(2)
    assert ts.p_n(VA(0, (1, 0)), 0, binary) == VA(0, (1, 0))
    assert ts.p_n(VA(0, (1,)), 2, binary) is None


def test_truncation_bounds():
    with pytest.raises(ValueError):
        ts.Truncation(depth=-1)
    t = ts.Truncation(depth=2, ancestry=0)
    assert t.depth == 2


def test_enumerate_truncation_rooted(binary):
    verts = list(ts.enumerate_truncation(binary, ts.Truncation(depth=3)))
    assert len(verts) == 1 + 2 + 4 + 8
    assert len(set(verts)) == len(verts)


def test_enumerate_truncation_unrooted(ex72):
    verts = set(ts.enumerate_truncation(ex72, ts.Truncation(depth=2, ancestry=2)))
    expected = {
        VA(0), spine_vertex(1), spine_vertex(2),
        chain_vertex(0, 1), chain_vertex(0, 2),
        chain_vertex(1, 1), chain_vertex(1, 2),
    }
    assert expected <= verts
    # no duplicates, nothing deeper than the bounds
    verts_list = list(ts.enumerate_truncation(ex72, ts.Truncation(depth=2, ancestry=2)))
    assert len(verts_list) == len(verts)
    assert all(v.up <= 2 and len(v.path) <= 2 for v in verts)


@pytest.mark.parametrize(
    "preset,depth",
    [("full_binary", 10), ("unary_path", 50), ("example_4_1", 20), ("example_7_2", 20)],
)
def test_validate_presets_clean(preset, depth):
    tree = ts.make_preset(preset)
    report = ts.validate(tree, ts.Truncation(depth=depth, ancestry=5))
    assert report.ok, report.violations


def test_validate_flags_double_parent():
    data = ts.EdgeData(
        edges=(("a", "b"), ("a", "c"), ("c", "b")),
        weights={"a": 1, "b": 1, "c": 1},
        anchor="a",
    )
    report = ts.validate(data)
    assert "UniqueParentViolation" in report.codes()
    with pytest.raises(ts.TreeSpecError):
        ts.tree_from_edge_data(data)


def test_validate_flags_circuit_and_disconnection():
    data = ts.EdgeData(
        edges=(("a", "b"), ("b", "c"), ("c", "b"), ("x", "y")),
        weights={"a": 1, "b": 1, "c": 1, "x": 1, "y": 1},
        anchor="a",
    )
    report = ts.validate(data)
    assert "UniqueParentViolation" in report.codes()  # b gets two parents
    assert "DisconnectedViolation" in report.codes()


def test_validate_flags_zero_weight():
    tree = ts.TreeModel(
        ts.ROOTED,
        arity=lambda v: 1,
        weight=lambda v: 0 if len(v.path) == 2 else 1,
    )
    report = ts.validate(tree, ts.Truncation(depth=4))
    assert "ZeroWeight" in report.codes()
    assert not report.ok


def test_edge_list_round_trip():
    data = ts.EdgeData(
        edges=(("a", "b"), ("a", "c"), ("b", "d")),
        weights={"a": 1, "b": 2, "c": 3, "d": 4},
        anchor="a",
    )
    tree = ts.tree_from_edge_data(data)
    assert tree.arity(VA(0)) == 2
    # children sorted by label: b before c
    assert tree.weight(VA(0, (0,))) == 2
    assert tree.weight(VA(0, (1,))) == 3
    assert tree.weight(VA(0, (0, 0))) == 4
    report = ts.validate(tree, ts.Truncation(depth=5))
    assert report.ok


# --- property tests ----------------------------------------------------------

_TREES = {}


def _tree(name):
    if not _TREES:
        _TREES.update(
            binary=ts.full_binary(),
            unary=ts.unary_path(),
            ex41=ts.example_4_1(),
            ex72=ts.example_7_2(),
            bipath=ts.bi_infinite_path(),
        )
    return _TREES[name]


_tree_names = st.sampled_from(["binary", "unary", "ex41", "ex72", "bipath"])


@st.composite
def _tree_and_vertex(draw, max_up=3, max_down=5):
    tree = _tree(draw(_tree_names))
    up = draw(st.integers(0, max_up)) if tree.kind == ts.UNROOTED else 0
    v = VA(up)
    for _ in range(draw(st.integers(0, max_down))):
        kids = ts.children(v, tree)
        if not kids:
            break
        v = kids[draw(st.integers(0, len(kids) - 1))]
    return tree, v


@given(_tree_and_vertex())
def test_canonicalize_idempotent(tv):
    tree, v = tv
    once = ts.canonicalize(v, tree)
    assert ts.canonicalize(once, tree) == once


@given(_tree_and_vertex())
def test_parent_of_children(tv):
    tree, v = tv
    for c in ts.children(v, tree):
        assert ts.parent(c, tree) == v


@given(_tree_and_vertex(), st.integers(0, 4))
@settings(max_examples=60)
def test_chi_recursion(tv, n):
    tree, v = tv
    direct = sorted(ts.chi_n(v, n + 1, tree))
    via_children = sorted(
        u for c in ts.children(v, tree) for u in ts.chi_n(c, n, tree)
    )
    assert direct == via_children


@given(_tree_and_vertex(), st.integers(0, 5))
@settings(max_examples=60)
def test_p_n_inverts_chi_n(tv, n):
    tree, v = tv
    fiber = list(ts.chi_n(v, n, tree))
    assert len(fiber) == len(set(fiber))
    for u in fiber:
        assert ts.p_n(u, n, tree) == v


def test_rooted_truncation_is_union_of_fibers(binary):
    depth = 5
    from_enum = set(ts.enumerate_truncation(binary, ts.Truncation(depth=depth)))
    from_fibers = set()
    for n in range(depth + 1):
        fiber = list(ts.chi_n(VA(0), n, binary))
        assert len(fiber) == 2 ** n
        from_fibers.update(fiber)
    assert from_enum == from_fibers


_VARIANTS = {
    "full_binary": [ts.full_binary],
    "unary_path": [ts.unary_path],
    "example_4_1": [ts.example_4_1, lambda: ts.example_4_1(exact=True)],
    "example_7_2": [ts.example_7_2, lambda: ts.example_7_2(exact=True)],
    "bi_infinite_path": [
        ts.bi_infinite_path,
        lambda: ts.bi_infinite_path(lambda d: 2.0 ** -d),
        lambda: ts.bi_infinite_path(lambda d: Fraction(2) ** -d),
    ],
}


@pytest.mark.parametrize(
    "name", ["full_binary", "unary_path", "example_4_1", "example_7_2", "bi_infinite_path"]
)
def test_fiber_profile_matches_enumeration(name):
    """The presets' fiber masses, swept by type, equal enumeration (float and
    exact), and the presets keep the type contract."""
    for make in _VARIANTS[name]:
        tree = make()
        rng = random.Random(7)
        verts = [VA(0)]
        for _ in range(6):
            up = rng.randint(0, 3) if tree.kind == ts.UNROOTED else 0
            v = VA(up)
            for _ in range(rng.randint(0, 3)):
                kids = ts.children(v, tree)
                if not kids:
                    break
                v = rng.choice(kids)
            verts.append(v)
        assert_sweep_equals_enumeration(tree, verts)
        assert_type_contract(tree)
