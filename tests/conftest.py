"""Shared helpers: preset instances and random generators for property tests."""

from __future__ import annotations

import random

import pytest

import treeshift as ts


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
    """`fiber_mass` swept by vertex type equals, exactly, `fiber_mass`
    enumerated on the type-free `with_weight` copy, which it returns."""
    plain = tree.with_weight(tree.weight)
    assert tree.types is not None and plain.types is None
    for spec in SPACES:
        for v in verts:
            for n in depths:
                got = outcome(lambda: ts.fiber_mass(tree, v, n, spec))
                assert got == outcome(lambda: ts.fiber_mass(plain, v, n, spec)), (v, n, spec)
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
