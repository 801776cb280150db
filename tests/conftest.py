"""Shared helpers: preset instances and random generators for property tests."""

from __future__ import annotations

import random

import pytest
from hypothesis import strategies as st

import treeshift as ts
from oracles import fiber_mass_by_walk


@pytest.fixture(scope="session")
def binary():
    return ts.full_binary()


@pytest.fixture(scope="session")
def unary():
    return ts.unary_path()


@pytest.fixture(scope="session")
def ex41():
    return ts.example_4_1()


@pytest.fixture(scope="session")
def ex41_exact():
    return ts.example_4_1(exact=True)


@pytest.fixture(scope="session")
def ex72():
    return ts.example_7_2()


@pytest.fixture(scope="session")
def ex72_exact():
    return ts.example_7_2(exact=True)


@pytest.fixture(scope="session")
def bipath():
    return ts.bi_infinite_path()


def random_vertex(rng: random.Random, tree: ts.TreeModel, max_up: int = 4, max_down: int = 6):
    """A uniform-ish random canonical vertex within small bounds."""
    up = rng.randint(0, max_up) if tree.kind == ts.UNROOTED else 0
    v = ts.VertexAddress(up)
    for _ in range(rng.randint(0, max_down)):
        kids = ts.children(v, tree)
        if not kids:
            break
        v = rng.choice(kids)
    return v


def random_sparse_vector(
    rng: random.Random,
    tree: ts.TreeModel,
    size: int = 6,
    scale: float = 2.0,
    max_up: int = 3,
    max_down: int = 6,
) -> ts.SparseVector:
    entries = {}
    for _ in range(rng.randint(0, size)):
        v = random_vertex(rng, tree, max_up, max_down)
        entries[v] = rng.uniform(-scale, scale)
    return ts.SparseVector(entries)


SPACES = [ts.SpaceSpec.ell(1), ts.SpaceSpec.ell(2), ts.SpaceSpec.ell("4/3"), ts.SpaceSpec.c_zero()]


def outcome(f):
    """f() or, when the tree is malformed there, the type of the error."""
    try:
        return f()
    except ts.InvalidAddressError as exc:
        return type(exc)


def assert_sweep_equals_enumeration(tree: ts.TreeModel, verts, depths=range(11)):
    """`fiber_mass` swept by vertex type equals, exactly, the fiber massed
    vertex by vertex along a depth-first walk (`oracles.fiber_mass_by_walk`),
    on the tree and, up to n = 6, on its `with_weight` copy, where every
    vertex is its own type.  Returns the copy."""
    plain = tree.with_weight(tree.weight)
    assert all(plain.type_of(v) == v for v in verts)
    for spec in SPACES:
        for v in verts:
            for n in depths:
                want = outcome(lambda: fiber_mass_by_walk(tree, v, n, spec))
                assert outcome(lambda: ts.fiber_mass(tree, v, n, spec)) == want, (v, n, spec)
                if n <= 6:
                    assert outcome(lambda: ts.fiber_mass(plain, v, n, spec)) == want, (v, n)
    return plain


def assert_type_contract(tree: ts.TreeModel, trunc=ts.Truncation(4, 2)) -> None:
    """Vertices with equal types have equal arity, weight and child types,
    and the type rule gives the types of a vertex's children in order."""
    try:
        verts = list(ts.enumerate_truncation(tree, trunc))
    except ts.InvalidAddressError:  # a spine vertex breaks the spine rule
        verts = list(ts.enumerate_truncation(tree, ts.Truncation(trunc.depth, 0)))
    signatures = {}
    for v in verts:
        t = tree.type_of(v)
        kids = outcome(lambda: tuple(map(tree.type_of, ts.children(v, tree))))
        assert outcome(lambda: tree.child_types(t)) == kids, v
        sig = (tree.arity(v), tree.weight(v), kids)
        assert signatures.setdefault(t, sig) == sig, v


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
