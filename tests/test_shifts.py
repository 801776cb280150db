"""Backward/forward shift action, powers, operator norms, orbits, witnesses."""

import copy
import gc
import math
import pickle
import random
import weakref
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import treeshift as ts
from treeshift import VertexAddress as VA
from treeshift.presets import chain_vertex, spine_vertex

from conftest import SPACES, random_sparse_vector, spec_documents

L1 = ts.SpaceSpec.ell(1)
L2 = ts.SpaceSpec.ell(2)
C0 = ts.SpaceSpec.c_zero()


def test_apply_B_merges_siblings(ex72):
    f = ts.basis(chain_vertex(0, 1)) + ts.basis(chain_vertex(1, 1))
    assert ts.apply_B(f, ex72) == 2 * ts.basis(VA(0))


def test_apply_B_kills_root(binary):
    assert ts.apply_B(ts.basis(VA(0)), binary) == 0


def test_apply_B_chain_step(ex72):
    assert ts.apply_B(ts.basis(chain_vertex(0, 3)), ex72) == ts.basis(chain_vertex(0, 2))


def test_apply_B_climbs_spine(ex72):
    assert ts.apply_B(ts.basis(spine_vertex(1)), ex72) == ts.basis(spine_vertex(2))


def test_apply_S_spreads_over_children(binary, unary):
    assert ts.apply_S(ts.basis(VA(0)), binary) == ts.basis(VA(0, (0,))) + ts.basis(VA(0, (1,)))
    assert ts.apply_S(ts.basis(VA(0, (0,))), unary) == ts.basis(VA(0, (0, 0)))


def test_apply_S_on_leaf_is_zero():
    leafy = ts.TreeModel(ts.ROOTED, arity=lambda v: 0, weight=lambda v: 1)
    assert ts.apply_S(ts.basis(VA(0)), leafy) == 0


def test_apply_B_pow_moves_to_ancestor(binary, ex72):
    v = VA(0, (1, 0, 1))
    assert ts.apply_B_pow(ts.basis(v), 2, binary) == ts.basis(VA(0, (1,)))
    assert ts.apply_B_pow(ts.basis(v), 4, binary) == 0
    assert ts.apply_B_pow(ts.basis(chain_vertex(0, 1)), 3, ex72) == ts.basis(spine_vertex(2))


# A spine that breaks at (2; ): its arity 0 leaves out its spine child (1; ).
_BROKEN_SPINE = ("[tree]\nkind = unrooted\n[arity]\ndefault = 1\n(2; ) = 0\n"
                 "[spine]\nchild_index = 0\n")


@pytest.mark.parametrize("call, start, reaches", [
    pytest.param(lambda f, tree: ts.apply_B(f, tree), 0, 1, id="apply_B"),
    pytest.param(lambda f, tree: ts.apply_B(f, tree), 1, 2, id="apply_B-onto-(2;)"),
    pytest.param(lambda f, tree: ts.apply_B_pow(f, 3, tree), -2, 1, id="apply_B_pow"),
    pytest.param(lambda f, tree: ts.apply_B_pow(f, 3, tree), 0, 3, id="apply_B_pow-past-(2;)"),
    pytest.param(lambda f, tree: ts.orbit(f, 1, tree, L2), 0, 1, id="orbit"),
    pytest.param(lambda f, tree: ts.orbit(f, 4, tree, L2), 0, 4, id="orbit-past-(2;)"),
])
def test_moving_onto_a_spine_vertex_without_its_spine_child_raises(call, start, reaches):
    """B, B^n and orbits check each spine vertex an entry moves onto: one
    whose arity leaves out its spine child raises `_children`'s error."""
    tree = ts.parse_tree_spec(_BROKEN_SPINE).source
    # start < 0 is an off-spine vertex -start levels below the anchor
    f = ts.basis(VA(start) if start >= 0 else VA(0, (0,) * -start))
    if reaches < 2:
        call(f, tree)
        return
    with pytest.raises(ts.InvalidAddressError) as exc:
        call(f, tree)
    assert str(exc.value) == "spine child index 0 out of range at (2; ) (arity 0)"


def test_apply_B_pow_sums_under_vertex_address_keys(binary, ex72):
    """Entries that meet at a target are summed under one key, and every key
    is a `VertexAddress`: B^n equals the sum over the n-fold parents."""
    for tree, anchor in ((binary, VA(0)), (ex72, VA(2))):
        vertices = [v for d in range(6) for v in ts.chi_n(anchor, d, tree)]
        f = ts.SparseVector({v: Fraction(i % 7 - 3, 1 + i % 4) for i, v in enumerate(vertices)})
        for n in range(7):
            want = {}
            for v, x in f.items():
                if (t := ts.p_n(v, n, tree)) is not None:
                    want[t] = want.get(t, 0) + x
            got = ts.apply_B_pow(f, n, tree)
            assert dict(got.items()) == {t: x for t, x in want.items() if x}
            assert all(type(t) is VA for t, _ in got.items())


def test_apply_B_pow_identity_and_composition(binary):
    rng = random.Random(3)
    f = random_sparse_vector(rng, binary)
    assert ts.apply_B_pow(f, 0, binary) == f
    for m, n in [(1, 2), (2, 3), (0, 4)]:
        assert ts.apply_B_pow(f, m + n, binary) == ts.apply_B_pow(
            ts.apply_B_pow(f, m, binary), n, binary
        )


def test_library_built_vectors_store_no_zeros(binary):
    cancelled = ts.apply_B(ts.basis(VA(0, (0,))) - ts.basis(VA(0, (1,))), binary)
    assert len(cancelled) == 0 and list(cancelled.items()) == []
    g = ts.build_Sn(VA(0), 3, binary, L1)  # the l^1 minimiser is one vertex
    assert len(g) == 1 and list(g.items()) == [(VA(0, (0, 0, 0)), 1)]
    f = random_sparse_vector(random.Random(5), binary)
    copy = ts.apply_B_pow(f, 0, binary)
    assert copy is not f and copy == f and list(copy.items()) == list(f.items())
    points = ts.orbit(f, 3, binary, L2)
    assert points[0].vector is not f and list(points[0].vector.items()) == list(f.items())
    for p in points:
        assert all(x != 0 for _, x in p.vector.items())


def test_signed_indicator_orbit_value_at_u1(ex72):
    # (B^(2^k - 1) f)(u_1) = f(u_(2^k)) = 1
    f = ts.example_7_2_vector()
    for k in (1, 2, 3):
        iterate = ts.apply_B_pow(f, 2 ** k - 1, ex72)
        assert iterate[chain_vertex(0, 1)] == 1
        assert iterate[chain_vertex(1, 1)] == -1


def test_rooted_orbits_die(binary):
    rng = random.Random(5)
    f = random_sparse_vector(rng, binary)
    depth = max((len(v.path) for v in f.support()), default=0)
    assert ts.apply_B_pow(f, depth + 1, binary) == 0


def test_duality_pairing(binary, ex72):
    rng = random.Random(17)
    for tree in (binary, ex72):
        for _ in range(100):
            f = random_sparse_vector(rng, tree)
            g = random_sparse_vector(rng, tree)
            lhs = ts.pairing(ts.apply_B(f, tree), g)
            rhs = ts.pairing(f, ts.apply_S(g, tree))
            assert abs(lhs - rhs) <= 1e-9 * (1 + abs(lhs))


def test_duality_exact_in_rational_mode(ex72_exact):
    rng = random.Random(23)
    for _ in range(50):
        f = ts.SparseVector(
            {chain_vertex(rng.randint(0, 1), rng.randint(1, 6)): Fraction(rng.randint(-8, 8), 2 ** rng.randint(0, 4))
             for _ in range(rng.randint(0, 5))}
        )
        g = ts.SparseVector(
            {spine_vertex(rng.randint(0, 4)): Fraction(rng.randint(-8, 8), 2 ** rng.randint(0, 4))
             for _ in range(rng.randint(0, 3))}
        )
        assert ts.pairing(ts.apply_B(f, ex72_exact), g) == ts.pairing(
            f, ts.apply_S(g, ex72_exact)
        )


def test_contractivity_under_operator_norm(ex41):
    spec = L2
    bound = ts.operator_norm(spec, ex41, ts.Truncation(depth=12)).value
    rng = random.Random(29)
    for _ in range(50):
        f = random_sparse_vector(rng, ex41, max_down=8)
        assert ts.norm(ts.apply_B(f, ex41), spec, ex41) <= bound * ts.norm(f, spec, ex41) + 1e-9


def test_operator_norm_example_4_1(ex41, ex41_exact):
    result = ts.operator_norm(L2, ex41, ts.Truncation(depth=8))
    assert result.value == pytest.approx(math.sqrt(4.25), rel=1e-12)
    assert result.is_sup_over_truncation
    exact = ts.operator_norm(L2, ex41_exact, ts.Truncation(depth=8))
    assert exact.powered == Fraction(17, 4)


def test_operator_norm_example_7_2(ex72):
    for p in (1, 2, 4):
        got = ts.operator_norm(ts.SpaceSpec.ell(p), ex72, ts.Truncation(4, 4)).value
        assert got == pytest.approx(2 ** (2 - 1 / p), rel=1e-12)
    assert ts.operator_norm(C0, ex72, ts.Truncation(4, 4)).value == pytest.approx(4.0)


def test_operator_norm_unary(unary):
    for spec in (L1, L2, C0):
        assert ts.operator_norm(spec, unary).value == pytest.approx(1.0)


def test_operator_norm_monotone_in_truncation(ex41):
    values = [
        ts.operator_norm(L2, ex41, ts.Truncation(depth=d)).value for d in (1, 2, 4, 8, 16)
    ]
    assert all(a <= b + 1e-15 for a, b in zip(values, values[1:]))


def test_operator_norm_finite_tree_flag():
    data = ts.EdgeData(
        edges=(("a", "b"), ("a", "c")), weights={"a": 1, "b": 2, "c": 1}, anchor="a"
    )
    tree = ts.tree_from_edge_data(data)
    result = ts.operator_norm(L2, tree, ts.Truncation(depth=5))
    assert not result.is_sup_over_truncation
    assert result.value == pytest.approx(math.sqrt(0.25 + 1.0))


def test_orbit_of_basis_vector(ex72):
    u3 = chain_vertex(0, 3)
    points = ts.orbit(ts.basis(u3), 6, ex72, L2)
    # weights up the chain: 1/4, 1/2, then 1 forever on the spine
    assert [p.norm for p in points[:4]] == pytest.approx([0.125, 0.25, 0.5, 1.0])
    assert all(p.norm == pytest.approx(1.0) for p in points[4:])


def test_orbit_dies_at_root(binary):
    points = ts.orbit(ts.basis(VA(0, (0, 1))), 10, binary, L2)
    assert [p.norm for p in points] == pytest.approx([1.0, 1.0, 1.0, 0.0])
    assert len(points) == 4  # early stop after the zero iterate


def test_orbit_of_zero():
    tree = ts.full_binary()
    points = ts.orbit(ts.SparseVector(), 5, tree, L2)
    assert len(points) == 1 and points[0].norm == 0


def test_orbit_example_7_2_approaches_limit(ex72):
    f = ts.example_7_2_vector()
    limit = ts.basis(chain_vertex(0, 1)) - ts.basis(chain_vertex(1, 1))
    target = ts.norm(limit, L2, ex72)
    residuals = []
    for k in (1, 2, 3, 4):
        n = 2 ** k - 1
        iterate = ts.apply_B_pow(f, n, ex72)
        assert ts.norm(iterate, L2, ex72) == pytest.approx(target, rel=0.3)
        residuals.append(ts.norm(iterate - limit, L2, ex72))
    assert residuals == sorted(residuals, reverse=True)


def test_witness_return_binary_certifies_n3(binary):
    ball = ts.BallSpec(ts.basis(VA(0)), 0.5, L2)
    w = ts.witness_return(3, ball, ball, binary)
    assert w is not None
    # f = e_root + g_(root,3), g uniform 1/8 over the 8 depth-3 vertices
    assert ts.norm(w - ball.center, L2, binary) == pytest.approx(2 ** -1.5, rel=1e-9)
    assert ts.apply_B_pow(w, 3, binary) == ts.basis(VA(0))


def test_witness_return_binary_fails_n1(binary):
    ball = ts.BallSpec(ts.basis(VA(0)), 0.5, L2)
    assert ts.witness_return(1, ball, ball, binary) is None


def test_witness_return_n0_trivial(binary):
    ball = ts.BallSpec(ts.basis(VA(0)), 0.1, L2)
    assert ts.witness_return(0, ball, ball, binary) == ball.center


def test_witness_return_unrooted(ex72):
    u1 = chain_vertex(0, 1)
    ball = ts.BallSpec(ts.basis(u1), 0.9, L2)
    w = ts.witness_return(4, ball, ball, ex72)
    assert w is not None
    assert ts.norm(ts.apply_B_pow(w, 4, ex72) - ball.center, L2, ex72) < 0.9


def test_return_set_report(binary):
    ball = ts.BallSpec(ts.basis(VA(0)), 0.5, L2)
    report = ts.return_set_report(ball, ball, 6, binary)
    assert report.certified_in | report.uncertified == set(range(7))
    assert 0 in report.certified_in
    assert 1 in report.uncertified
    # large powers spread g thin: all certified from n = 3 on
    assert {3, 4, 5, 6} <= report.certified_in
    for n, w in report.certified.items():
        assert ts.norm(w - ball.center, L2, binary) < 0.5
        assert ts.norm(ts.apply_B_pow(w, n, binary) - ball.center, L2, binary) < 0.5


@pytest.mark.parametrize("slack", [-1, -1e-9, 1, 1.5, math.nan])
def test_return_slack_outside_unit_interval_is_rejected(binary, slack):
    """The radii are shrunk by 1 - slack: a slack below 0 would widen them
    and certify times the balls do not support, one of 1 or more leaves no
    ball at all."""
    ball = ts.BallSpec(ts.basis(VA(0)), 0.5, L2)
    with pytest.raises(ValueError, match="slack"):
        ts.witness_return(3, ball, ball, binary, slack)
    with pytest.raises(ValueError, match="slack"):
        ts.return_set_report(ball, ball, 4, binary, slack)


# --- a vector is checked once per tree -------------------------------------


def _count_checks(monkeypatch) -> list:
    """Record every address `TreeModel.check` is called with from now on."""
    calls = []
    check = ts.TreeModel.check
    monkeypatch.setattr(ts.TreeModel, "check", lambda tree, v: calls.append(v) or check(tree, v))
    return calls


def _assert_marked_and_valid(vectors, tree):
    """Each vector carries the tree's token, and every address of it passes
    `tree.check`: the token never marks an address the tree rejects."""
    for g in vectors:
        assert g._checked is tree.token
        for v in g.support():
            tree.check(v)


@given(st.data())
@settings(max_examples=80, deadline=None)
def test_the_mark_never_lies(data):
    """B^n, S, S_n, I_n, orbit points and return-set witnesses carry the
    tree's token, and so do their sums, differences and scalar multiples;
    every address of each is valid on the tree.  On tree-spec documents,
    rooted and unrooted (their spines may break the spine rule), and on the
    presets."""
    name = data.draw(st.sampled_from(["rooted", "unrooted", *sorted(ts.PRESETS)]))
    if name in ("rooted", "unrooted"):
        tree = ts.parse_tree_spec(data.draw(spec_documents(unrooted=name == "unrooted"))).source
    else:
        tree = ts.make_preset(name)
    verts = list(ts.enumerate_truncation(tree, ts.Truncation(4, 2)))
    picks = data.draw(st.lists(st.sampled_from(verts), min_size=1, max_size=5, unique=True))
    values = st.sampled_from([1, -2, Fraction(1, 3), 0.5])
    f = ts.SparseVector({v: data.draw(values) for v in picks})
    n, spec = data.draw(st.integers(0, 3)), data.draw(st.sampled_from(SPACES))
    built = []

    def keep(call):
        try:
            built.extend(call())
        except (ts.InvalidAddressError, ts.EmptyFiberError):  # a broken spine, an empty fiber
            pass

    keep(lambda: [ts.apply_B_pow(f, n, tree), ts.apply_S(f, tree), f])
    keep(lambda: [p.vector for p in ts.orbit(f, n, tree, spec)])
    for v in picks[:2]:
        keep(lambda: [ts.build_Sn(v, n, tree, spec)])
        if not tree.rooted:
            keep(lambda: [ts.build_In_unrooted(v, n, tree, spec).vector])
    U, V = (ts.BallSpec(ts.basis(v), 1.0, spec) for v in (picks[0], picks[-1]))
    keep(lambda: ts.return_set_report(U, V, n, tree).certified.values())
    for a, b in zip(built, built[1:] + built[:1]):
        built += [a + b, a - b, 3 * a, -b, 0 * a]
    _assert_marked_and_valid(built, tree)


def test_a_vector_checked_on_one_tree_is_checked_again_on_another(binary, unary):
    f = ts.SparseVector({VA(0, (1,)): 1, VA(0, (0,)): 2})
    s = ts.apply_S(f, binary)
    assert f._checked is s._checked is binary.token
    for g in (f, s, 2 * s, s + s, -s):
        with pytest.raises(ts.InvalidAddressError):
            ts.apply_B(g, unary)  # (0; 1) and below are not on the unary path
        assert g._checked is binary.token
    assert ts.norm(ts.basis(VA(0, (0,))), L2, unary) == 1.0
    off = ts.basis(VA(0, (2,)))  # not on the binary tree: no sum with it is checked
    for g in (s + off, off + s, s - off, off - s):
        assert g._checked is None
        with pytest.raises(ts.InvalidAddressError):
            ts.norm(g, L2, binary)


@pytest.mark.parametrize("round_trip", [lambda g: pickle.loads(pickle.dumps(g)), copy.deepcopy],
                         ids=["pickle", "deepcopy"])
def test_a_copied_vector_is_checked_again_once(binary, monkeypatch, round_trip):
    g = ts.apply_S(ts.SparseVector({VA(0, (1,)): 1, VA(0, (0, 1)): Fraction(1, 2)}), binary)
    assert g._checked is binary.token
    twin = round_trip(g)
    assert twin == g and list(twin.items()) == list(g.items())
    assert twin._checked is not binary.token
    calls = _count_checks(monkeypatch)
    for _ in range(3):
        assert ts.norm(twin, L2, binary) == ts.norm(g, L2, binary)
    assert sorted(calls) == sorted(twin.support())


def test_a_vector_does_not_keep_its_tree_alive():
    """The token names the tree without referring to it."""
    tree = ts.example_7_2()
    token = tree.token
    g = ts.apply_S(ts.SparseVector({chain_vertex(0, 1): 1, spine_vertex(2): -1}), tree)
    assert g._checked is token
    ref = weakref.ref(tree)
    del tree
    gc.collect()
    assert ref() is None
    assert g._checked is token and len(g) == 2


def test_a_user_vector_is_checked_once_per_tree(monkeypatch):
    """apply_B, orbit and norm on one user vector of m entries check m
    addresses in all: the first call checks each one, the others read the
    tree's token on the vector."""
    tree = ts.full_binary()
    f = ts.SparseVector({VA(0, tuple(map(int, format(k, "b")))): k for k in range(1, 40)})
    calls = _count_checks(monkeypatch)
    ts.apply_B(f, tree)
    ts.orbit(f, 3, tree, L2)
    ts.norm(f, L2, tree)
    assert sorted(calls) == sorted(f.support())


def test_library_built_vectors_are_born_checked(monkeypatch):
    """B^n and the norm of S_n e_v check nothing after build_Sn checks v."""
    for tree, v in ((ts.full_binary(), VA(0, (1,))), (ts.example_7_2(), spine_vertex(2))):
        calls = _count_checks(monkeypatch)
        g = ts.build_Sn(v, 5, tree, L2)
        assert calls == [v]
        assert ts.apply_B_pow(g, 5, tree) == ts.basis(v)
        ts.norm(g, L2, tree)
        assert calls == [v]
