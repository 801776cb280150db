"""Simplex infima, optimizers, and the constructive maps built on them."""

import random
import time
from fractions import Fraction

import numpy as np
import pytest

import treeshift as ts
from treeshift import VertexAddress as VA
from treeshift.presets import chain_vertex

from oracles import grid_min_dp, grid_min_enum

L1 = ts.SpaceSpec.ell(1)
L2 = ts.SpaceSpec.ell(2)
C0 = ts.SpaceSpec.c_zero()


def test_simplex_inf_closed_forms():
    # value confirmed by the brute-force grid oracle below before freezing
    inst = ts.SimplexInstance((1.0, 2.0), L2)
    assert ts.simplex_inf(inst) == pytest.approx((1 + 0.25) ** -0.5, rel=1e-12)
    assert ts.simplex_inf(ts.SimplexInstance((3.0, 5.0), L1)) == 3.0
    assert ts.simplex_inf(ts.SimplexInstance((1.0, 1.0), C0)) == pytest.approx(0.5)


def test_simplex_inf_empty_index_set():
    with pytest.raises(ts.EmptyIndexSetError):
        ts.SimplexInstance((), L2)


def test_simplex_inf_matches_grid_oracle():
    inst = ts.SimplexInstance((1.0, 2.0), L2)
    grid = grid_min_enum((1.0, 2.0), 2.0, mesh=64)
    assert grid >= ts.simplex_inf(inst) - 1e-9
    assert grid <= ts.simplex_inf(inst) + 0.05  # the grid is 1/64-dense


def test_grid_oracles_agree():
    rng = random.Random(1)
    for _ in range(10):
        ws = tuple(2.0 ** rng.uniform(-3, 3) for _ in range(rng.randint(1, 4)))
        for p in (1.0, 2.0, "sup"):
            assert grid_min_enum(ws, p, 16) == pytest.approx(grid_min_dp(ws, p, 16), rel=1e-12)


@pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 3.0, "sup"])
def test_inf_below_random_points_and_grid(p):
    spec = C0 if p == "sup" else ts.SpaceSpec.ell(Fraction(p))
    rng = np.random.default_rng(42)
    for _ in range(25):
        J = rng.integers(1, 5)
        ws = 2.0 ** rng.uniform(-8, 8, size=J)
        inst = ts.SimplexInstance(tuple(ws), spec)
        inf = float(ts.simplex_inf(inst))
        # 10^4 random simplex points never beat the infimum
        xs = rng.dirichlet(np.ones(J), size=10_000)
        scaled = np.abs(xs * ws)
        vals = scaled.max(axis=1) if p == "sup" else (scaled ** p).sum(axis=1) ** (1 / p)
        assert vals.min() >= inf - 1e-9 * (1 + inf)
        # deterministic mesh-1/32 grid for |J| <= 4
        assert grid_min_enum(tuple(ws), p, 32) >= inf - 1e-9 * (1 + inf)


def test_optimizer_symmetric_pair():
    x = ts.simplex_optimizer(ts.SimplexInstance((1.0, 1.0), L2))
    assert x == pytest.approx([0.5, 0.5])


def test_optimizer_lagrange_closed_form():
    inst = ts.SimplexInstance((1.0, 2.0), L2)
    x = ts.simplex_optimizer(inst)
    assert x == pytest.approx([0.8, 0.2])
    achieved = (sum((xi * w) ** 2 for xi, w in zip(x, (1.0, 2.0)))) ** 0.5
    assert achieved == pytest.approx((4 / 5) ** 0.5, rel=1e-12)
    assert achieved <= ts.simplex_inf(inst) + 1e-9


def test_optimizer_l1_concentrates():
    x = ts.simplex_optimizer(ts.SimplexInstance((3.0, 5.0), L1), delta=0.1)
    assert x == [1, 0]


def test_optimizer_exact_fractions():
    inst = ts.SimplexInstance((Fraction(1), Fraction(2)), L2)
    x = ts.simplex_optimizer(inst)
    assert x == [Fraction(4, 5), Fraction(1, 5)]
    assert sum(x) == 1
    # equal weights of different types keep their own powers: 1/1**2 is a float
    x = ts.simplex_optimizer(ts.SimplexInstance((Fraction(1), 1, Fraction(1)), L2))
    assert [type(xi) for xi in x] == [float] * 3


def test_optimizer_achieves_within_delta_random():
    rng = random.Random(9)
    for _ in range(40):
        J = rng.randint(1, 6)
        ws = tuple(2.0 ** rng.uniform(-8, 8) for _ in range(J))
        for spec in (L1, ts.SpaceSpec.ell(Fraction(3, 2)), L2, C0):
            inst = ts.SimplexInstance(ws, spec)
            x = ts.simplex_optimizer(inst, delta=1e-9)
            assert all(xi >= 0 for xi in x)
            assert sum(x) == pytest.approx(1.0, abs=1e-12)
            if spec.kind == "c0":
                achieved = max(xi * abs(w) for xi, w in zip(x, ws))
            else:
                p = float(spec.p)
                achieved = sum((xi * abs(w)) ** p for xi, w in zip(x, ws)) ** (1 / p)
            assert achieved <= float(ts.simplex_inf(inst)) + 1e-9


def test_reciprocal_relation_with_q_value(binary, ex72):
    # q(v, n) * simplex_inf(fiber) = 1 in every space
    for tree, v in ((binary, VA(0)), (ex72, chain_vertex(0, 1))):
        for spec in (L1, L2, ts.SpaceSpec.ell(3), C0):
            for n in range(0, 5):
                fiber = list(ts.chi_n(v, n, tree))
                inst = ts.SimplexInstance(tuple(tree.weight(u) for u in fiber), spec)
                q = ts.q_value(v, n, tree, spec)
                assert q * float(ts.simplex_inf(inst)) == pytest.approx(1.0, rel=1e-9)


def test_reciprocal_relation_exact(ex72_exact):
    # the exact fiber mass from the closed-form profile equals the mass of the
    # enumerated chi_n weights, both through fiber_mass on a profile-free copy
    # of the tree and through the simplex instance of those weights
    enumerated = ex72_exact.with_weight(ex72_exact.weight)
    u1 = chain_vertex(0, 1)
    for spec in (L1, L2, C0):
        for n in range(0, 6):
            fiber = list(ts.chi_n(u1, n, ex72_exact))
            inst = ts.SimplexInstance(tuple(ex72_exact.weight(u) for u in fiber), spec)
            mass, combined = ts.fiber_mass(ex72_exact, u1, n, spec)
            assert isinstance(mass, Fraction)
            assert (mass, combined) == ts.fiber_mass(enumerated, u1, n, spec)
            assert mass == ts.simplex_inf_powered(inst)
            assert combined == (1 / mass if spec == L1 else mass)


def test_build_Sn_binary_uniform(binary):
    g = ts.build_Sn(VA(0), 1, binary, L2)
    assert g == ts.SparseVector({VA(0, (0,)): 0.5, VA(0, (1,)): 0.5})
    assert ts.norm(g, L2, binary) == pytest.approx(2 ** -0.5)


def test_build_Sn_example_7_2(ex72):
    g = ts.build_Sn(VA(0), 1, ex72, L2)
    assert set(g.support()) == {chain_vertex(0, 1), chain_vertex(1, 1)}
    assert ts.apply_B(g, ex72) == ts.basis(VA(0))


def test_build_Sn_unary_singleton(unary):
    g = ts.build_Sn(VA(0), 4, unary, L2)
    assert g == ts.basis(VA(0, (0, 0, 0, 0)))
    assert ts.norm(g, L2, unary) == pytest.approx(1.0)


def test_build_Sn_right_inverse_exact(ex41_exact, ex72_exact):
    for tree in (ex41_exact, ex72_exact):
        verts = sorted(ts.enumerate_truncation(tree, ts.Truncation(2, 2)))
        for v in verts:
            for n in (1, 2, 4):
                g = ts.build_Sn(v, n, tree, L2)
                assert ts.apply_B_pow(g, n, tree) == ts.basis(v), (v, n)
                assert sum(x for _, x in g.items()) == 1


def test_minimiser_reads_fiber_weights_by_type():
    """The l^1 right inverse reads no weight by address, and I_n only the
    spine weight mu(p^n v): the fiber's weights are read once per type."""
    binary = ts.full_binary()
    assert ts.build_Sn(VA(0), 12, binary, L1) == ts.basis(VA(0, (0,) * 12))
    info = binary.weight.cache_info()
    assert info.hits + info.misses == 0
    ex72 = ts.example_7_2()
    for spec in (L1, L2):
        assert ts.build_In_unrooted(chain_vertex(0, 1), 6, ex72, spec).branch == "cancelled"
    info = ex72.weight.cache_info()
    assert (info.hits, info.misses) == (1, 1)


def test_l1_ties_go_to_the_lowest_address():
    """Depth-first order is not address order on an unrooted fiber: below
    spine child index 1, Chi^2((2; )) starts at (2; 0.0), and its lowest
    address is (0; ).  All its weights tie, and l^1 picks (0; )."""
    tree = ts.parse_tree_spec("[tree]\nkind = unrooted\n[arity]\ndefault = 3\n"
                              "[spine]\nchild_index = 1\n[weights]\ncoef = 1\nratio = 1/2\n").source
    assert next(ts.chi_n(VA(2), 2, tree)) == VA(2, (0, 0))
    assert ts.build_Sn(VA(2), 2, tree, L1) == ts.basis(VA(0))
    result = ts.build_In_unrooted(VA(2, (0, 0)), 2, tree, L1)
    assert (result.branch, result.bound) == ("cancelled", 1.0)
    assert result.vector == ts.basis(VA(2, (0, 0))) - ts.basis(VA(0))


def test_build_Sn_empty_fiber_raises():
    leafy = ts.TreeModel(
        ts.ROOTED, arity=lambda v: 0 if len(v.path) >= 1 else 1, weight=lambda v: 1
    )
    with pytest.raises(ts.EmptyFiberError):
        ts.build_Sn(VA(0), 2, leafy, L2)


def test_build_In_example_7_2_cancelled(ex72):
    # M = 1/mu(o_1)^2 + 1/mu(u_1)^2 + 1/mu(v_1)^2 = 1 + 4 + 4 = 9;
    # the spine term 1 is below M/2, so the fiber side cancels B^n
    u1 = chain_vertex(0, 1)
    result = ts.build_In_unrooted(u1, 2, ex72, L2)
    assert result.branch == "cancelled"
    assert result.bound == pytest.approx((2 / 9) ** 0.5, rel=1e-12)
    h = ts.basis(u1) - result.vector
    assert set(h.support()) == {chain_vertex(0, 1), chain_vertex(1, 1)}
    assert ts.apply_B_pow(result.vector, 2, ex72) == 0
    assert ts.norm(h, L2, ex72) <= result.bound + 1e-12


def test_build_In_kept_branch_on_light_spine():
    # spine weights shrink upward so 1/|mu_spine|^2 dominates the fiber mass
    tree = ts.bi_infinite_path(lambda d: 2.0 ** d)
    result = ts.build_In_unrooted(VA(0), 3, tree, L2)
    assert result.branch == "kept"
    assert result.vector == ts.basis(VA(0))
    # ||B^n e_v|| = |mu(p^n(v))| = 2^-3 <= bound
    assert 2.0 ** -3 <= result.bound + 1e-12


def test_build_In_n0_is_identity(ex72):
    result = ts.build_In_unrooted(chain_vertex(0, 1), 0, ex72, L2)
    assert result.branch == "kept"
    assert result.vector == ts.basis(chain_vertex(0, 1))


@pytest.mark.parametrize("spec", [L1, ts.SpaceSpec.ell(Fraction(3, 2)), L2, C0])
def test_build_In_bounds_hold(spec, ex72):
    rng = random.Random(31)
    verts = sorted(ts.enumerate_truncation(ex72, ts.Truncation(3, 3)))
    for _ in range(25):
        v = rng.choice(verts)
        n = rng.randint(0, 6)
        result = ts.build_In_unrooted(v, n, ex72, spec)
        if result.branch == "kept":
            moved = ts.apply_B_pow(result.vector, n, ex72)
            assert ts.norm(moved, spec, ex72) <= result.bound + 1e-9
        else:
            assert ts.apply_B_pow(result.vector, n, ex72) == 0
            diff = ts.basis(v) - result.vector
            assert ts.norm(diff, spec, ex72) <= result.bound + 1e-9


def test_tail_budget_default():
    b = ts.TailBudget()
    assert b.schedule(3) == 0.125
    assert b.tail(1, 4) == pytest.approx(2 ** -2 + 2 ** -3 + 2 ** -4)


def test_recurrent_vector_example_4_1(ex41):
    syn = ts.build_recurrent_vector(range(1, 64), ex41, L2, terms=3)
    assert [t.n for t in syn.terms] == [1, 8, 40]
    assert all(c.verified for c in syn.certificates)
    for c in syn.certificates:
        assert c.residual <= c.residual_bound + 1e-9
    # the chosen powers sit where the block weights are extreme
    assert len(syn.vector) == 6  # three two-point fibers


def test_recurrent_vector_rejects_unary(unary):
    with pytest.raises(ts.CriterionTooWeakError):
        ts.build_recurrent_vector(range(1, 32), unary, L2, terms=2)


def test_recurrent_vector_term_over_budget_is_a_typed_error():
    # l^4/3 keeps n = 4 and 12, and its third step needs n >= 24: a fiber
    # of 2^24 vertices, counted from its (type, count) level before it is built
    start = time.perf_counter()
    with pytest.raises(ts.WorkBudgetError, match=r"n = 24 would have 16,777,216 entries"):
        ts.build_recurrent_vector(range(1, 64), ts.full_binary(), ts.SpaceSpec.ell(Fraction(4, 3)),
                                  terms=3)
    assert time.perf_counter() - start < 1.0
    assert ts.simplex.MAX_TERM_ENTRIES >= 2 ** 21  # acceptance 10 builds a 2^20 fiber


def test_recurrent_vector_needs_rooted(ex72):
    with pytest.raises(ts.RootedTreeError):
        ts.build_recurrent_vector(range(1, 8), ex72, L2)


def test_recurrent_vector_small_binary(binary):
    syn = ts.build_recurrent_vector(range(1, 8), binary, L2, terms=2)
    assert [t.n for t in syn.terms] == [2, 6]
    for c in syn.certificates:
        assert c.verified
        direct = ts.norm(
            ts.apply_B_pow(syn.vector, c.n, binary) - ts.basis(VA(0)), L2, binary
        )
        assert direct == pytest.approx(c.residual, rel=1e-12)
