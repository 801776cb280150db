"""Weight criteria: q/j quantities, I/J time sets, and the three reports."""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import treeshift as ts
from treeshift import VertexAddress as VA
from treeshift import criteria
from treeshift.presets import chain_vertex
from treeshift.treespec import parse_tree_spec

from conftest import SPACES, outcome, spec_documents
from oracles import rung_times_by_threshold, supercyclic_scan_linear

L1 = ts.SpaceSpec.ell(1)
L2 = ts.SpaceSpec.ell(2)
C0 = ts.SpaceSpec.c_zero()


def test_q_value_full_binary(binary):
    for n in range(0, 8):
        assert ts.q_value(VA(0), n, binary, L2) == pytest.approx(2 ** (n / 2))
    assert ts.q_value(VA(0), 3, binary, L2) == pytest.approx(2.8284271, rel=1e-7)


def test_q_value_unary_constant(unary):
    assert all(ts.q_value(VA(0), n, unary, L2) == 1.0 for n in range(10))


def test_q_value_example_4_1_block(ex41):
    # deepest point of block 1 with m_1 = 2: mu_v2 = 1/4 -> sqrt(16 + 1/16)
    assert ts.q_value(VA(0), 2, ex41, L2) == pytest.approx(math.sqrt(16.0625))
    assert ts.q_value(VA(0), 2, ex41, L2) == pytest.approx(4.0078, rel=1e-4)


def test_q_value_empty_fiber_is_zero():
    leafy = ts.TreeModel(
        ts.ROOTED, arity=lambda v: 0 if len(v.path) >= 1 else 1, weight=lambda v: 1
    )
    assert ts.q_value(VA(0), 3, leafy, L2) == 0.0


def test_q_value_l1_and_c0(ex72):
    u1 = chain_vertex(0, 1)
    # fiber of u1 at n is the single vertex u_(1+n) with weight 2^-(1+n)
    assert ts.q_value(u1, 3, ex72, L1) == pytest.approx(16.0)
    assert ts.q_value(u1, 3, ex72, C0) == pytest.approx(16.0)
    # at the anchor the two chains double the c0 sum but not the l1 sup
    assert ts.q_value(VA(0), 3, ex72, C0) == pytest.approx(16.0)
    assert ts.q_value(VA(0), 3, ex72, L1) == pytest.approx(8.0)


def test_j_value_example_7_2(ex72):
    u1 = chain_vertex(0, 1)
    assert ts.j_value(u1, 0, ex72, L2) == pytest.approx(math.sqrt(8))
    for n in range(1, 30):
        assert ts.j_value(u1, n, ex72, L2) == pytest.approx(3.0, rel=1e-12)
    for n in range(1, 10):
        assert ts.j_value(u1, n, ex72, L1) == pytest.approx(2.0)


def test_j_value_needs_unrooted(binary):
    with pytest.raises(ts.RootedTreeError):
        ts.j_value(VA(0), 1, binary, L2)
    with pytest.raises(ts.RootedTreeError):
        ts.J_set([VA(0)], 1, binary, L2, 5)


def test_I_set_example_4_1_block_window(ex41):
    got = ts.I_set([chain_vertex(0, 1)], 2, ex41, L2, 12)
    assert got == {5, 6, 7, 8, 9}


def test_I_set_disjoint_branches(ex41):
    for k in (1, 2, 3):
        for N in (1, 2, 4):
            u = ts.I_set([chain_vertex(0, k)], N, ex41, L2, 200)
            v = ts.I_set([chain_vertex(1, k)], N, ex41, L2, 200)
            assert not (u & v)
            assert ts.I_set([chain_vertex(0, k), chain_vertex(1, k)], N, ex41, L2, 200) == set()


def test_I_set_full_binary(binary):
    assert ts.I_set([VA(0)], 2, binary, L2, 10) == set(range(3, 11))


def test_I_sets_give_each_rung_its_I_set(ex41):
    """A whole ladder, unsorted and with a repeated rung, in ladder order."""
    ladder = (4, 1, 2, 2, Fraction(1, 2))
    for F in ([chain_vertex(0, 1)], [chain_vertex(0, 2), chain_vertex(1, 2)], []):
        got = ts.I_sets(F, ladder, ex41, L2, 12)
        assert got == [ts.I_set(F, N, ex41, L2, 12) for N in ladder]
    assert ts.I_sets([chain_vertex(0, 1)], ladder, ex41, L2, 12)[2] == {5, 6, 7, 8, 9}


def test_J_set_example_7_2(ex72):
    u1 = chain_vertex(0, 1)
    assert ts.J_set([u1], 2, ex72, L2, 50) == set(range(51))
    assert ts.J_set([u1], 4, ex72, L2, 50) == set()
    assert ts.J_set([u1], 0, ex72, L2, 20) == set(range(21))


@given(st.integers(0, 10 ** 6), st.integers(1, 6), st.integers(1, 6))
@settings(max_examples=30)
def test_I_set_algebra(seed, N1, N2):
    tree = ts.example_4_1()
    rng = random.Random(seed)
    verts = sorted(ts.enumerate_truncation(tree, ts.Truncation(depth=3)))
    F1 = frozenset(rng.sample(verts, rng.randint(1, 3)))
    F2 = frozenset(rng.sample(verts, rng.randint(1, 3)))
    horizon = 40
    assert ts.I_set(F1 | F2, N1, tree, L2, horizon) == ts.I_set(
        F1, N1, tree, L2, horizon
    ) & ts.I_set(F2, N1, tree, L2, horizon)
    lo, hi = min(N1, N2), max(N1, N2)
    assert ts.I_set(F1, hi, tree, L2, horizon) <= ts.I_set(F1, lo, tree, L2, horizon)


_SCALARS = st.one_of(
    st.integers(-3, 5000),
    st.fractions(-3, 5000, max_denominator=64),
    st.floats(-3, 5000),
    st.sampled_from([math.inf, 0, 1, 2, 2.0, Fraction(2), Fraction(3, 2), 4096]),
)


@given(
    floor=st.one_of(st.none(), st.lists(_SCALARS, min_size=1, max_size=40),
                    st.lists(st.fractions(-3, 80, max_denominator=4), min_size=1, max_size=40)),
    ladder=st.one_of(st.lists(st.integers(-3, 8), max_size=10),
                     st.lists(st.one_of(_SCALARS, st.just(math.nan)), max_size=10)),
    spec=st.sampled_from(SPACES),
)
@settings(max_examples=300, deadline=None)
def test_rung_times_equal_per_rung_thresholds(floor, ladder, spec):
    """One rank per floor entry gives every rung exactly the ascending times
    of its own threshold test, for unsorted ladders with repeated (or NaN)
    rungs, all-int ladders (where a Fraction entry is ranked by its
    ceiling) and floors mixing ints, Fractions, floats and inf; the floor of
    an empty set is None."""
    horizon = 12 if floor is None else len(floor) - 1
    want = rung_times_by_threshold(floor, ladder, spec, horizon)
    got = criteria._rung_times(floor, ladder, spec, horizon)
    assert got == want
    assert len({id(times) for times in got}) == len(got)  # no list is shared


@given(st.data())
@settings(max_examples=100, deadline=None)
def test_furstenberg_monotonicity_on_generated_trees(data):
    """A larger family accepts what a smaller one accepts, on the same time
    sets: syndetic:g is inside syndetic:g' for g <= g', and thick:L inside
    thick:L' for L' <= L.  The horizon is at least g', so every syndetic
    verdict is decided, and thick verdicts always are.  Checked on every
    rung of every sample set and on the report, on generated documents."""
    tree = parse_tree_spec(data.draw(spec_documents())).source
    spec = data.draw(st.sampled_from(SPACES))
    horizon = 12
    g = data.draw(st.integers(1, 6))
    length = data.draw(st.integers(1, 6))
    shorter = data.draw(st.one_of(st.just(1), st.integers(1, length)))
    pairs = [(ts.syndetic_family(g), ts.syndetic_family(data.draw(st.integers(g, horizon)))),
             (ts.thick_family(length), ts.thick_family(shorter))]
    for narrow, wide in pairs:
        small, large = (outcome(lambda: ts.dynamics_report(
            tree, spec, fam, horizon=horizon, ladder=(1, 2, 4, 8), sample_depth=2))
            for fam in (narrow, wide))
        if isinstance(small, type):  # a spine vertex breaks the spine rule
            assert large is small
            continue
        assert large.satisfied or not small.satisfied
        for entry, wider in zip(small.entries, large.entries, strict=True):
            for rung, wide_rung in zip(entry.rungs, wider.rungs, strict=True):
                assert rung.times == wide_rung.times
                assert wide_rung.verdict.acceptable or not rung.verdict.acceptable


# Fraction(2 ** 53 + 3, 3) rounds differently when its numerator is rounded to a float first
_RATIONAL_MASSES = st.one_of(
    st.integers(0, 2 ** 2000), st.fractions(min_value=0),
    st.builds(Fraction, st.integers(2 ** 53, 2 ** 80), st.integers(3, 2 ** 60)),
    st.sampled_from([0, Fraction(2 ** 53 + 3, 3), Fraction(10) ** 400, Fraction(1, 10 ** 400)]))
_MASSES = st.one_of(_RATIONAL_MASSES, st.floats(0, 1e308),
                    st.sampled_from([0.0, math.inf, 5e-324]))


def _float_bits(values: list) -> list:
    return [(type(x), x.hex()) for x in values]


_ROWS = st.one_of(st.lists(_MASSES, max_size=12), st.lists(_RATIONAL_MASSES, max_size=12),
                  st.lists(_RATIONAL_MASSES.map(Fraction), max_size=12))


@given(_ROWS, st.sampled_from(["1", "2", "3", "4/3", "c0"]))
@example([Fraction(2 ** 53 + 3, 3), 7], "c0")
@example([Fraction(2 ** 53 + 3, 3), Fraction(10) ** 400], "2")
@settings(max_examples=300)
def test_row_values_equal_the_value_of_each_mass(row, space):
    """`_values` converts a whole row in one float pass and one pow pass; it
    equals `_value` of each mass to the bit, for rows of floats, ints and
    Fractions, rows of ints and Fractions and rows of Fractions alone (one
    truediv pass over numerators and denominators), plain (l^1, c0) and
    powered duals, and masses past float range, which `_value` clamps to
    inf."""
    spec = ts.SpaceSpec.parse(space)
    assert _float_bits(criteria._values(row, spec)) == _float_bits(
        [criteria._value(m, spec) for m in row])


def test_floors_never_share_a_kept_row():
    """The floor of one row is a copy of it and the floor of several a new
    list: a report reads the tree's kept q rows and leaves them as they
    were."""
    tree = ts.example_4_1()
    row = criteria._q_row(chain_vertex(1, 1), tree, L2, 30)
    floor = criteria._floor([row])
    assert floor == row and floor is not row
    assert criteria._floor([row, row]) == row and criteria._floor([]) is None
    kept = {key: list(entry[0]) for key, entry in tree.q_rows.items()}
    report = ts.dynamics_report(tree, L2, horizon=30)
    ts.I_sets([chain_vertex(1, 1)], [1, 2], tree, L2, 30)
    ts.transitivity_filter_base(tree, L2, [[chain_vertex(1, 1)]], [1, 2], 30)
    for key, entry in tree.q_rows.items():
        assert entry[0][:len(kept.get(key, []))] == kept.get(key, [])
    floors = [criteria._floors(e.vertices, report.q_rows, report.j_rows)[2] for e in report.entries]
    assert all(f is not kept_row for f in floors for kept_row, _ in tree.q_rows.values())


def test_dynamics_report_full_binary_satisfied(binary):
    report = ts.dynamics_report(binary, L2, horizon=40)
    assert report.satisfied
    assert report.witness_vertex == VA(0)
    assert report.witness_sequence == list(range(41))
    # an empty sample set has no q_sup: a typed error, not a bare ValueError;
    # the time sets of the empty set stay vacuously every time
    with pytest.raises(ts.EmptyIndexSetError, match="sample set 1 is empty"):
        ts.dynamics_report(binary, L2, sample=[[VA(0)], []], horizon=5)
    assert ts.I_set([], 2, binary, L2, 5) == set(range(6))
    assert ts.J_set([], 2, ts.example_7_2(), L2, 5) == set(range(6))
    fam = ts.transitivity_filter_base(binary, L2, sets=[[]], thresholds=[2], horizon=5)
    assert fam.bases == (("I({},2)", frozenset(range(6))),)


def test_dynamics_report_unary_fails_at_two(unary):
    report = ts.dynamics_report(unary, L2, horizon=40)
    assert not report.satisfied
    entry = next(e for e in report.entries if e.vertices == (VA(0),))
    rung = next(r for r in entry.rungs if r.N == 2)
    assert rung.verdict.status == "fails"
    assert not rung.times


def test_dynamics_report_example_7_2_fails_with_ceiling(ex72):
    report = ts.dynamics_report(ex72, L2, horizon=50)
    assert not report.satisfied
    entry = next(e for e in report.entries if e.vertices == (chain_vertex(0, 1),))
    assert entry.j_sup == pytest.approx(3.0)
    rung = next(r for r in entry.rungs if r.N == 4)
    assert not rung.times and rung.verdict.status == "fails"


def test_dynamics_report_hypercyclic_bilateral_weighted():
    # weights decaying in both directions: a hypercyclic bilateral shift
    # (one-sided decay 2^-d conjugates to twice the bilateral shift, which is
    # invertible with contractive inverse, hence NOT hypercyclic)
    tree = ts.bi_infinite_path(lambda d: 2.0 ** -abs(d))
    report = ts.dynamics_report(tree, L2, horizon=40)
    assert report.satisfied
    one_sided = ts.bi_infinite_path(lambda d: 2.0 ** -d)
    assert not ts.dynamics_report(one_sided, L2, horizon=40).satisfied


def test_dynamics_report_respects_family_choice(binary):
    # the binary tree's I sets are tails, hence syndetic with any gap
    report = ts.dynamics_report(binary, L2, fam=ts.syndetic_family(3), horizon=40)
    assert report.satisfied is False  # tails start late; early windows miss
    # with a thick family the tail contains long intervals: holds
    report = ts.dynamics_report(binary, L2, fam=ts.thick_family(4), horizon=40)
    assert report.satisfied


def test_dynamics_csv_rows(ex72):
    report = ts.dynamics_report(ex72, L2, horizon=10)
    rows = report.csv_rows()
    assert all(len(r) == 4 for r in rows)
    u1_rows = [r for r in rows if r[0] == "(0; 0)"]
    assert len(u1_rows) == 11
    assert u1_rows[5][2] == pytest.approx(2.0 ** 6)


def test_supercyclicity_example_7_2_gamma_fails(ex72):
    report = ts.supercyclicity_report(ex72, L2, ts.gamma_powers(4), horizon=50)
    assert report.mode == "unrooted-criterion"
    assert not report.satisfied
    assert report.failed_rung is not None and report.failed_rung <= 4


def test_supercyclicity_constant_gamma_matches_dynamics(ex72):
    tree = ts.bi_infinite_path(lambda d: 2.0 ** -abs(d))
    sup = ts.supercyclicity_report(tree, L2, ts.gamma_constant(1), horizon=40)
    dyn = ts.dynamics_report(tree, L2, horizon=40)
    assert sup.satisfied and dyn.satisfied

    sup72 = ts.supercyclicity_report(ex72, L2, ts.gamma_constant(1), horizon=40)
    dyn72 = ts.dynamics_report(ex72, L2, horizon=40)
    assert (not sup72.satisfied) and (not dyn72.satisfied)


def test_supercyclicity_spine_with_growing_scalars():
    # weights 1 below the anchor, decaying above: not hypercyclic, but the
    # scaled displays diverge along lambda_k = 2^k
    tree = ts.bi_infinite_path(lambda d: 2.0 ** min(d, 0))
    assert not ts.dynamics_report(tree, L2, horizon=64).satisfied
    report = ts.supercyclicity_report(tree, L2, ts.gamma_powers(2), horizon=64)
    assert report.satisfied
    ns = [n for _, n, _, _ in report.achieved]
    assert ns == sorted(ns) and len(set(ns)) == len(ns)


def test_supercyclicity_reads_each_scalar_once_and_only_where_reached():
    """lambda_k is read once per k the scan reaches; a Gamma that is 0 past
    them (which `GammaSpec.at` refuses) still runs."""
    tree = ts.bi_infinite_path(lambda d: 2.0 ** -abs(d))
    reads = []

    def powers(k):
        reads.append(k)
        return 16 ** k if k <= 1 else 0

    gamma = ts.GammaSpec(powers, "16^k, then 0", bounded=False)
    report = ts.supercyclicity_report(tree, L2, gamma, horizon=40, ladder=(1,))
    assert report.satisfied and report.achieved == [(1, 1, 1, 16)]
    assert reads == [0, 1]

    reads.clear()
    gamma = ts.GammaSpec(lambda k: reads.append(k) or 16 ** k, "16^k", bounded=False)
    report = ts.supercyclicity_report(tree, L2, gamma, horizon=40)
    assert report.achieved == ts.supercyclicity_report(
        tree, L2, ts.gamma_powers(16), horizon=40).achieved
    assert reads == list(range(41))


_DYADIC = [sign * Fraction(2) ** e for sign in (1, -1) for e in range(-2, 5)]


@st.composite
def _supercyclic_cases(draw):
    """An unrooted dyadic tree in float or exact mode, a space, a Gamma (a
    constant, powers of a ratio, or a list of scalars repeated with period
    its length: non-monotone, with repeats and sign changes), an unsorted
    ladder with repeats and a horizon."""
    exact = draw(st.booleans())
    two = Fraction(2) if exact else 2.0
    if draw(st.booleans()):
        tree = ts.example_7_2(exact=exact)
    else:
        # mostly decaying above the anchor, where the spine display can pass
        up, down = draw(st.integers(-1, 2)), draw(st.integers(-2, 2))
        tree = ts.bi_infinite_path(lambda d: two ** (down * d if d > 0 else up * d))
    spec = ts.SpaceSpec.parse(draw(st.sampled_from(["1", "2", "3", "4/3", "c0"])))
    cast = float if not exact and draw(st.booleans()) else Fraction
    kind = draw(st.sampled_from(["const", "powers", "list"]))
    if kind == "const":
        gamma = ts.gamma_constant(cast(draw(st.sampled_from(_DYADIC))))
    elif kind == "powers":
        gamma = ts.gamma_powers(cast(draw(st.sampled_from([2, -2, 4, Fraction(1, 2), 1]))))
    else:
        values = [cast(x) for x in draw(st.lists(st.sampled_from(_DYADIC), min_size=1, max_size=8))]
        gamma = ts.GammaSpec(lambda k: values[k % len(values)], f"list {values}", bounded=True)
    ladder = draw(st.lists(st.sampled_from([Fraction(1, 2), 1, 2, 3, 4, 8, 16]),
                           min_size=1, max_size=6))
    return tree, spec, gamma, ladder, draw(st.integers(0, 16))


@given(_supercyclic_cases())
@example((ts.bi_infinite_path(lambda d: 2.0 ** min(d, 0)), L2, ts.gamma_powers(2),
          criteria.DEFAULT_LADDER, 16))
@settings(max_examples=200, deadline=None)
def test_supercyclic_scan_matches_the_linear_scan(case):
    """Skipping the scales a display has already ruled out reaches the same
    rungs at the same (n, k, lambda_k), fails at the same rung and reads the
    same lambda_k in the same order as testing every k at every n."""
    tree, spec, gamma, ladder, horizon = case
    reads, linear_reads = [], []

    def recorded(log):
        return ts.GammaSpec(lambda k: log.append(k) or gamma.lambdas(k), gamma.description,
                            gamma.bounded)

    report = ts.supercyclicity_report(tree, spec, recorded(reads), horizon=horizon, ladder=ladder)
    achieved, failed_rung = supercyclic_scan_linear(
        tree, spec, recorded(linear_reads), horizon, report.sample, ladder)
    assert (report.achieved, report.failed_rung, reads) == (achieved, failed_rung, linear_reads)


def test_supercyclicity_unweighted_spine_fails():
    # the plain bilateral shift: normal, hence not even Gamma-supercyclic
    tree = ts.bi_infinite_path()
    report = ts.supercyclicity_report(tree, L2, ts.gamma_powers(2), horizon=64)
    assert not report.satisfied


def test_supercyclicity_rooted_bounded_gamma(binary, ex72):
    report = ts.supercyclicity_report(binary, L2, ts.gamma_constant(1), horizon=40)
    assert report.mode == "rooted-bounded-gamma"
    assert report.satisfied
    assert report.hypercyclicity is not None


def test_supercyclicity_rooted_unbounded_gamma(binary, unary):
    report = ts.supercyclicity_report(binary, L2, ts.gamma_powers(2), horizon=20)
    assert report.mode == "rooted-unbounded-gamma"
    assert report.satisfied  # no leaves: dense range
    # even the non-hypercyclic unary path is Gamma-supercyclic for unbounded Gamma
    assert ts.supercyclicity_report(unary, L2, ts.gamma_powers(2)).satisfied


def test_supercyclicity_rooted_leafy_tree_fails():
    leafy = ts.TreeModel(
        ts.ROOTED,
        arity=lambda v: 2 if len(v.path) < 2 else 0,
        weight=lambda v: 1,
    )
    report = ts.supercyclicity_report(leafy, L2, ts.gamma_powers(2), trunc=ts.Truncation(depth=4))
    assert not report.satisfied
    assert report.leaf_witness is not None


def _first_leaf_of_the_walk(tree, trunc):
    return next((v for v in ts.enumerate_truncation(tree, trunc) if tree.arity(v) == 0), None)


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_leaf_search_finds_the_first_leaf_of_the_walk(data):
    """The rooted unbounded-Gamma report searches leaves over distinct
    (type, remaining depth) subtrees; it finds the leaf that the full
    preorder walk meets first, or none when the walk meets none."""
    tree = parse_tree_spec(data.draw(spec_documents(unrooted=False))).source
    trunc = ts.Truncation(data.draw(st.integers(0, 6)))
    report = ts.supercyclicity_report(tree, L2, ts.gamma_powers(2), trunc=trunc)
    assert report.leaf_witness == _first_leaf_of_the_walk(tree, trunc)
    assert report.satisfied == (report.leaf_witness is None)


def test_leaf_search_reads_the_arity_rule_o_depth_times():
    """On full-binary-shaped typed trees, one without leaves and one whose
    only leaf is the root's last child, the leaf search reads the arity rule
    O(depth) times; the full walk would read it 2^depth times."""
    kids = {"root": ("full", "leaf"), "full": ("full", "full"), "leaf": ()}
    shapes = [(lambda v: "full", None),
              (lambda v: "root" if not v.path else ("leaf" if v.path[0] == 1 else "full"), VA(0, (1,)))]
    for depth in (8, 16):
        for type_of, leaf in shapes:
            calls = []
            tree = ts.TreeModel(ts.ROOTED, arity=lambda t: calls.append(t) or len(kids[t]),
                                weight=lambda t: 1,
                                types=ts.VertexTypes(type_of, lambda t, i: kids[t][i]))
            trunc = ts.Truncation(depth)
            report = ts.supercyclicity_report(tree, L2, ts.gamma_powers(2), trunc=trunc)
            assert (report.satisfied, report.leaf_witness) == (leaf is None, leaf)
            assert len(calls) <= depth + 20  # the default sample reads 15 vertices
            assert report.leaf_witness == _first_leaf_of_the_walk(tree, trunc)


def _chain_type(v):
    """Types of `test_leaf_search_keys_subtrees_by_remaining_depth`: the
    root, "c" at (0; 0), and below it and at (0; 1) the index in the chain."""
    if not v.path:
        return "root"
    if v.path[0] == 0:
        return "c" if len(v.path) == 1 else len(v.path) - 2
    return len(v.path) - 1


def test_leaf_search_keys_subtrees_by_remaining_depth():
    """Type 0 heads a chain that ends in a leaf depth - 1 generations down.
    Met first at depth 2, it cannot reach that leaf inside the truncation;
    met again at depth 1, it can, so the search must walk it again."""
    depth = 6
    kids = {"root": ("c", 0), "c": (0,), **{i: (i + 1,) for i in range(depth - 1)}, depth - 1: ()}
    tree = ts.TreeModel(ts.ROOTED, arity=lambda t: len(kids[t]), weight=lambda t: 1,
                        types=ts.VertexTypes(_chain_type, lambda t, i: kids[t][i]))
    trunc = ts.Truncation(depth)
    report = ts.supercyclicity_report(tree, L2, ts.gamma_powers(2), trunc=trunc)
    assert report.leaf_witness == VA(0, (1,) + (0,) * (depth - 1))
    assert report.leaf_witness == _first_leaf_of_the_walk(tree, trunc)


def test_spine_display_underflow_is_a_float_range_error():
    """A float spine weight scaled by lambda_k = 10^-400 rounds to 0.0, so
    the spine display has no float value: FloatRangeError names k and
    lambda_k.  Fraction weights answer."""
    gamma = ts.gamma_constant(Fraction(1, 10 ** 400))
    floats = ts.bi_infinite_path(lambda d: 2.0 ** min(d, 0))
    message = r"^lambda_0 = 1/10+ scales a spine weight to 0.0 in floats$"
    with pytest.raises(ts.FloatRangeError, match=message):
        ts.supercyclicity_report(floats, C0, gamma, horizon=20, ladder=(Fraction(-1),))
    exact = ts.bi_infinite_path(lambda d: Fraction(2) ** min(d, 0))
    report = ts.supercyclicity_report(exact, C0, gamma, horizon=20, ladder=(Fraction(-1),))
    assert report.satisfied and report.achieved == [(Fraction(-1), 1, 0, gamma.at(0))]


def test_gamma_spec_validation():
    with pytest.raises(ValueError):
        ts.gamma_constant(0)
    with pytest.raises(ValueError):
        ts.gamma_powers(0)
    assert ts.gamma_powers(Fraction(1, 2)).bounded
    assert not ts.gamma_powers(2).bounded


def test_limit_point_example_4_1_holds(ex41):
    report = ts.limit_point_report(ex41, L2, horizon=64)
    assert report.status == "holds"
    assert report.diverging_vertex == VA(0)
    assert report.root_diverging
    assert report.shifted_ok == {1: True, 2: True, 3: True, 4: True}
    # records strictly increase through the deep blocks
    vals = report.record_values
    assert vals == sorted(vals) and vals[-1] > 2 ** 12


def test_limit_point_example_7_2_spine_decay_fails(ex72):
    report = ts.limit_point_report(ex72, L2, horizon=64)
    # the fiber quantity does diverge (the rooted-style condition holds) ...
    assert report.diverging_vertex is not None
    # ... but every spine weight is 1, so the decay requirement fails
    assert report.status == "fails"
    assert report.decay, "expected decay observations"
    for obs in report.decay:
        assert not obs.decayed
        assert obs.last == pytest.approx(1.0)
        assert obs.tail_min == pytest.approx(1.0)


def test_limit_point_unary_fails(unary):
    report = ts.limit_point_report(unary, L2, horizon=64)
    assert report.status == "fails"
    assert report.diverging_vertex is None


def test_limit_point_agrees_with_dynamics_witness(binary):
    # on the binary tree the root q-sequence is monotone: the dynamics witness
    # and the limit-point records coincide
    dyn = ts.dynamics_report(binary, L2, horizon=30)
    lim = ts.limit_point_report(binary, L2, horizon=30)
    assert lim.status == "holds"
    assert dyn.witness_vertex == lim.diverging_vertex
    assert dyn.witness_sequence == lim.records


def _records(vals):
    records, best = [], None
    for n, x in enumerate(vals):
        if best is None or x > best:
            records.append(n)
            best = x
    return records


def _diverges(vals):
    records = _records(vals)
    return bool(records) and vals[records[-1]] > 2 ** 12


_ROOTED_HALVING_DOC = """
[tree]
kind = rooted
[arity]
default = 2
[weights]
coef = 1
ratio = 1/2
"""


@pytest.mark.parametrize(
    "tree, spec, fam, horizon",
    [
        (ts.example_4_1(exact=True), L1, ts.syndetic_family(4), 200),
        (ts.example_7_2(), C0, ts.infinite_family(), 40),
        (ts.example_7_2(), ts.SpaceSpec.ell(Fraction(4, 3)), ts.infinite_family(), 40),
        (ts.resolve_model(ts.parse_tree_spec(_ROOTED_HALVING_DOC)), L2,
         ts.syndetic_family(2), 9),
    ],
    ids=["example_4_1-l1-syndetic4", "example_7_2-c0", "example_7_2-l4_3", "doc-l2"],
)
def test_report_assembly_matches_pointwise_oracles(tree, spec, fam, horizon):
    # every report value equals its definition through the public pointwise
    # quantities: rung times, sups, witness records and shifted divergence
    ns = range(horizon + 1)
    report = ts.dynamics_report(tree, spec, fam, horizon=horizon)
    for entry in report.entries:
        F = entry.vertices
        for rung in entry.rungs:
            times = ts.I_set(F, rung.N, tree, spec, horizon)
            if not tree.rooted:
                times &= ts.J_set(F, rung.N, tree, spec, horizon)
            assert rung.times == tuple(sorted(times)), (F, rung.N)
        assert entry.q_sup == max(min(ts.q_value(v, n, tree, spec) for v in F) for n in ns)
        if tree.rooted:
            assert entry.j_sup is None
        else:
            assert entry.j_sup == max(
                min(ts.j_value(v, n, tree, spec) for v in F) for n in ns
            )
    q_rows = {v: [ts.q_value(v, n, tree, spec) for n in ns] for v in report.csv_vertices}
    witness = next((v for v, row in q_rows.items() if _diverges(row)), None)
    assert report.witness_vertex == witness
    assert report.witness_sequence == (_records(q_rows[witness]) if witness else [])

    lim = ts.limit_point_report(tree, spec, horizon=horizon)
    if lim.diverging_vertex is not None:
        row = [ts.q_value(lim.diverging_vertex, n, tree, spec) for n in ns]
        assert lim.records == _records(row)
    if tree.rooted and lim.diverging_vertex is not None:
        assert lim.shifted_ok == {
            l: _diverges([ts.q_value(lim.diverging_vertex, n + l, tree, spec)
                          for n in range(horizon + 1 - l)])
            for l in range(1, 5)
        }


def test_transitivity_filter_base(ex72):
    fam = ts.transitivity_filter_base(
        ex72, L2, sets=[[chain_vertex(0, 1)]], thresholds=[1, 2], horizon=30
    )
    times = ts.I_set([chain_vertex(0, 1)], 2, ex72, L2, 30) & ts.J_set(
        [chain_vertex(0, 1)], 2, ex72, L2, 30
    )
    v = ts.family_verdict(times | {100}, fam, 30)
    assert v.status == "holds"
    v_empty = ts.family_verdict(set(), fam, 30)
    assert v_empty.status == "inconclusive"


def test_transitivity_filter_base_reads_thresholds_once(binary):
    fam = ts.transitivity_filter_base(
        binary, L2, sets=[[VA(0)], [VA(0, (1,))]], thresholds=(N for N in [1, 2]), horizon=5
    )
    assert len(fam.bases) == 4


def test_reports_render_text(ex72, binary):
    assert "criterion satisfied" in ts.dynamics_report(binary, L2, horizon=10).to_text()
    assert "verdict at horizon" in ts.limit_point_report(ex72, L2, horizon=10).to_text()
    assert "Gamma" in ts.supercyclicity_report(
        ex72, L2, ts.gamma_constant(1), horizon=10
    ).to_text()


def test_concurrent_evaluation_matches_serial(ex72):
    # TreeModel and its memo caches are shareable across threads
    from concurrent.futures import ThreadPoolExecutor

    tree = ts.example_7_2()
    jobs = [(v, n) for v in ts.enumerate_truncation(tree, ts.Truncation(2, 2)) for n in range(12)]
    serial = [ts.q_value(v, n, tree, L2) for v, n in jobs]
    with ThreadPoolExecutor(max_workers=4) as pool:
        parallel = list(pool.map(lambda vn: ts.q_value(vn[0], vn[1], tree, L2), jobs))
    assert serial == parallel


def test_fiber_masses_do_not_outlive_the_tree():
    # fiber masses are memoised on the tree itself, not in a module-level cache
    import gc
    import weakref

    tree = ts.example_7_2()
    ts.q_value(chain_vertex(0, 1), 5, tree, L2)
    ref = weakref.ref(tree)
    del tree
    gc.collect()
    assert ref() is None


def test_q_value_saturates_instead_of_overflowing(binary):
    # profile counts grow as big integers; far past float range the value
    # saturates to inf and threshold tests still decide exactly
    assert ts.q_value(VA(0), 1100, binary, L2) == math.inf
    times = ts.I_set([VA(0)], 4096, binary, L2, 1100)
    assert 1100 in times and min(times) == 25
