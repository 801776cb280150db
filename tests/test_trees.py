"""Tree structure, addressing, navigation and validation."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import treeshift as ts
from treeshift import VertexAddress as VA
from treeshift.presets import chain_vertex, spine_vertex
from treeshift.treespec import parse_tree_spec

from conftest import assert_sweep_equals_enumeration, assert_type_contract, spec_documents
from oracles import validate_by_walk


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


def test_check_steps_down_by_type_without_the_address_memo():
    """Off the one-arity shortcut, `check` steps down through the child types
    of (up; ): it reads no address memo (which missed on every new prefix),
    and the type rules once per type: the arity and the child types of the
    depths 0..15 for paths up to 16 long.  Messages are unchanged,
    and a spine vertex whose arity leaves out its spine child still passes."""
    tree = parse_tree_spec("[tree]\nkind = rooted\n[arity]\nby_level = 2\n"
                           "[weights]\ncoef = 1\nratio = 1/2\n").source
    rng = random.Random(7)
    vector = ts.SparseVector({VA(0, tuple(rng.randrange(2) for _ in range(rng.randint(10, 16)))): 1
                              for _ in range(3000)})
    ts.norm(vector, ts.SpaceSpec.ell(2), tree)
    assert tree.arity.cache_info().hits + tree.arity.cache_info().misses == 0
    assert tree.type_arity.cache_info().misses == tree.child_types.cache_info().misses == 16
    for path, message in [((2,), "child index 2 at step 0 exceeds arity 2"),
                          ((0, 1, -1), "child index -1 at step 2 exceeds arity 2")]:
        with pytest.raises(ts.InvalidAddressError) as exc:
            tree.check(VA(0, path))
        assert str(exc.value) == f"{message} in {ts.format_address(VA(0, path))}"
    kids = {"root": ("full", "leaf"), "full": ("full", "full"), "leaf": ()}
    shaped = ts.TreeModel(ts.ROOTED, arity=lambda t: len(kids[t]), weight=lambda t: 1,
                          types=ts.VertexTypes(lambda v: "root", lambda t, i: kids[t][i]))
    assert shaped.check(VA(0, (0, 1, 0))) is None
    with pytest.raises(ts.InvalidAddressError, match="child index 0 at step 1 exceeds arity 0"):
        shaped.check(VA(0, (1, 0)))
    spine = parse_tree_spec("[tree]\nkind = unrooted\n[arity]\ndefault = 2\n"
                            "[weights]\ndefault = 1\n[spine]\nchild_index = 5\n").source
    assert spine.check(VA(2, (0, 1))) is None
    with pytest.raises(ts.InvalidAddressError, match="spine child index 5 out of range"):
        ts.children(VA(2), spine)


def test_children_examples(binary, ex72):
    assert ts.children(VA(0), binary) == [VA(0, (0,)), VA(0, (1,))]
    # o_0 has exactly the two chain heads u_1, v_1
    assert ts.children(VA(0), ex72) == [chain_vertex(0, 1), chain_vertex(1, 1)]
    # a spine vertex's single child is the next spine vertex down
    assert ts.children(spine_vertex(2), ex72) == [spine_vertex(1)]


def test_leaf_has_no_children():
    leafy = ts.TreeModel(ts.ROOTED, arity=lambda v: 0, weight=lambda v: 1)
    assert ts.children(VA(0), leafy) == []


def test_type_free_tree_has_one_weight_memo(binary):
    """Where every vertex is its own type, an address is its type: its weight
    has one memo entry, read through `weight` and `type_weight` alike."""
    plain = binary.with_weight(binary.weight)
    for v in ts.chi_n(VA(0), 3, plain):
        assert plain.weight(v) == plain.type_weight(v) == 1
    assert plain.weight is plain.type_weight
    assert plain.weight.cache_info().currsize == 8
    assert binary.weight is not binary.type_weight


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


_BARE_SPINE = "[tree]\nkind = unrooted\n[arity]\ndefault = 0\n[spine]\nchild_index = 0\n"


def test_parent_is_not_a_spine_vertex_without_its_spine_child():
    """(1; ) of arity 0 has no child (0; ): `parent` raises as `children`
    does at (1; ) instead of returning it."""
    tree = parse_tree_spec(_BARE_SPINE).source
    missing = r"^spine child index 0 out of range at \(1; \) \(arity 0\)$"
    with pytest.raises(ts.InvalidAddressError, match=missing):
        ts.children(VA(1), tree)
    with pytest.raises(ts.InvalidAddressError, match=missing):
        ts.parent(VA(0), tree)


def test_p_n_names_the_lowest_spine_vertex_without_its_spine_child():
    """The climb raises at the first spine vertex it enters that lacks its
    spine child, as a j row, which reads the fibers below p^n(v) for
    n = 0, 1, ..., does; a cold `j_value` names the same vertex."""
    tree = parse_tree_spec(_BARE_SPINE).source
    assert ts.p_n(VA(0), 0, tree) == VA(0)
    for n in (1, 3):
        with pytest.raises(ts.InvalidAddressError, match=r"at \(1; \) \(arity 0\)$"):
            ts.p_n(VA(0), n, tree)
    with pytest.raises(ts.InvalidAddressError, match=r"at \(1; \) \(arity 0\)$"):
        ts.j_value(VA(0), 5, tree, ts.SpaceSpec.ell(2))
    # (1; ) holds its spine child, (2; ) and (3; ) do not
    tree = parse_tree_spec(_BARE_SPINE.replace("default = 0\n", "default = 0\n(1; ) = 1\n")).source
    assert ts.p_n(VA(0), 1, tree) == VA(1)
    assert ts.p_n(VA(1), 0, tree) == VA(1)
    for f in (lambda: ts.p_n(VA(0), 3, tree), lambda: ts.parent(VA(1), tree),
              lambda: ts.j_value(VA(0), 3, tree, ts.SpaceSpec.ell(2))):
        with pytest.raises(ts.InvalidAddressError, match=r"at \(2; \) \(arity 0\)$"):
            f()


def test_spine_climbs_are_checked_once_per_tree(monkeypatch):
    """Climbing n = 0..600 from the anchor checks each spine vertex once
    per tree, in `p_n` and in `apply_B_pow`, not once per call; a spine
    vertex that fails is named again by every call that climbs onto it."""
    calls = []
    children = ts.trees._children
    monkeypatch.setattr(ts.trees, "_children", lambda v, tree: calls.append(v) or children(v, tree))
    tree = ts.example_7_2()
    assert [ts.p_n(VA(0), n, tree) for n in range(601)] == [VA(n) for n in range(601)]
    assert len(calls) <= 601
    calls.clear()
    tree, e = ts.example_7_2(), ts.basis(VA(0))
    assert [ts.apply_B_pow(e, n, tree) for n in range(601)] == [ts.basis(VA(n)) for n in range(601)]
    assert len(calls) <= 601
    tree = parse_tree_spec(_BARE_SPINE).source
    for _ in range(2):
        for call in (lambda: ts.p_n(VA(0), 2, tree), lambda: ts.apply_B_pow(e, 2, tree)):
            with pytest.raises(ts.InvalidAddressError, match=r"at \(1; \) \(arity 0\)$"):
                call()


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


def test_validate_reports_a_spine_child_index_out_of_range():
    """The spine child index 2 exceeds the arity 1 of (1; ), (3; ) and (4; ):
    each is a report entry, and the walk below the spine goes on."""
    doc = "[tree]\nkind = unrooted\n[arity]\ndefault = 1\n(2; ) = 3\n[spine]\nchild_index = 2\n"
    tree = parse_tree_spec(doc).source
    report = ts.validate(tree, ts.Truncation(depth=3, ancestry=4))
    assert not report.ok
    assert report.codes() == {"SpineIndexOutOfRange"}
    assert [v.where for v in report.violations] == ["(1; )", "(3; )", "(4; )"]
    # the five starts, and three generations below each of their six off-spine children
    assert report.checked == 23


def test_a_spine_vertex_without_its_spine_child_raises():
    """A spine vertex (k; ) of arity 0 lacks its spine child (k - 1; ), as one
    whose arity is not above the spine child index does: its children, the
    fibers above the anchor and the operator norm raise InvalidAddressError
    instead of treating it as a leaf, while `validate` reports it."""
    doc = "[tree]\nkind = unrooted\n[arity]\ndefault = 0\n[spine]\nchild_index = 0\n"
    tree = parse_tree_spec(doc).source
    assert ts.children(VA(0), tree) == []
    missing = r"spine child index 0 out of range at \(1; \) \(arity 0\)"
    with pytest.raises(ts.InvalidAddressError, match=missing):
        ts.children(VA(1), tree)
    with pytest.raises(ts.InvalidAddressError, match=missing):
        list(ts.chi_n(VA(1), 1, tree))
    with pytest.raises(ts.InvalidAddressError, match=missing):
        ts.operator_norm(ts.SpaceSpec.ell(2), tree)
    report = ts.validate(tree, ts.Truncation(depth=2, ancestry=3))
    assert [v.where for v in report.violations] == ["(1; )", "(2; )", "(3; )"]


def _with_bad_types(tree: ts.TreeModel, negative, zero) -> ts.TreeModel:
    """``tree`` with its vertex types, where the types in ``negative`` have
    arity -1 and those in ``zero`` weight 0; every other type keeps the
    rules it has at the address that ``tree.type_of`` maps to it."""
    def arity(t):
        return -1 if t in negative else tree.arity(address_of[t])

    def weight(t):
        return 0 if t in zero else tree.type_weight(t)

    address_of = {}
    for v in ts.enumerate_truncation(tree, ts.Truncation(7, 4)):
        address_of.setdefault(tree.type_of(v), v)
    return ts.TreeModel(tree.kind, arity, weight, tree.spine_child_index, types=tree.types)


@given(st.data())
@settings(max_examples=80, deadline=None)
def test_validate_equals_the_vertex_walk(data):
    """`validate`, which counts repeated (type, remaining depth) subtrees
    without violations instead of walking them, gives the report of the
    vertex-by-vertex walk: the same ``ok``, violations in the same order and
    the same ``checked``, also with negative arities, zero weights and spine
    child indices out of range."""
    tree = parse_tree_spec(data.draw(spec_documents())).source
    trunc = ts.Truncation(data.draw(st.integers(0, 6)), data.draw(st.integers(0, 3)))
    present = sorted({tree.type_of(v) for v in ts.enumerate_truncation(tree, trunc)}, key=repr)
    negative = set(data.draw(st.lists(st.sampled_from(present), max_size=2)))
    zero = set(data.draw(st.lists(st.sampled_from(present), max_size=2)))
    for t in (tree, _with_bad_types(tree, negative, zero)):
        assert ts.validate(t, trunc) == validate_by_walk(t, trunc)


def test_validate_stops_at_the_violation_cap_like_the_vertex_walk():
    """Zero weights and negative arities, below and above the cap of 100
    violations: the report holds the first violations of the walk, in its
    order, and counts the vertices checked before the cap.  On an unrooted
    tree of one type every start has the same type and remaining depth, yet
    each walks its own subtree."""
    depth_types = ts.VertexTypes(type_of=lambda v: v.signed_depth, child_type=lambda d, i: d + 1)
    for arity, weight, found in [(lambda d: 2, lambda d: 0 if d >= 3 else 1, 100),
                                 (lambda d: -1 if d == 6 else 2, lambda d: 1, 64),
                                 (lambda d: -1 if d == 6 else 2, lambda d: 0 if d == 4 else 1, 80)]:
        tree = ts.TreeModel(ts.ROOTED, arity, weight, types=depth_types)
        for depth in (7, 9):
            report = ts.validate(tree, ts.Truncation(depth))
            assert report == validate_by_walk(tree, ts.Truncation(depth))
            assert len(report.violations) == found
    one_type = ts.TreeModel(ts.UNROOTED, arity=lambda t: 2, weight=lambda t: 1,
                            spine_child_index=lambda k: 0,
                            types=ts.VertexTypes(lambda v: 0, lambda t, i: 0))
    report = ts.validate(one_type, ts.Truncation(5, 3))
    assert report == validate_by_walk(one_type, ts.Truncation(5, 3))
    assert report.checked == 63 + 3 * 32


def test_validate_reads_the_arity_rule_o_depth_times():
    """On a full binary tree of one type, `validate` walks one subtree per
    remaining depth and counts the rest: the arity rule runs about once per
    level of the truncation, not once per vertex."""
    for depth in (8, 16):
        calls = []
        tree = ts.TreeModel(ts.ROOTED, arity=lambda t: calls.append(t) or 2, weight=lambda t: 1,
                            types=ts.VertexTypes(type_of=lambda v: 0, child_type=lambda t, i: 0))
        report = ts.validate(tree, ts.Truncation(depth))
        assert (report.ok, report.violations, report.checked) == (True, [], 2 ** (depth + 1) - 1)
        assert len(calls) <= depth + 2


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
