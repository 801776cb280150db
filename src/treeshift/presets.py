"""Catalog of named tree presets.

All dyadic weights are powers of two; with ``exact=True`` the weight rules
return `fractions.Fraction` values so downstream arithmetic stays exact, and
with the default ``exact=False`` they return floats (still exact dyadics for
the magnitudes that occur here).
"""

from __future__ import annotations

from fractions import Fraction
from typing import Callable, Sequence, Union

from .errors import UnknownPresetError
from .spaces import SparseVector
from .trees import ROOTED, UNROOTED, TreeModel, VertexAddress, VertexTypes

MSequence = Union[str, Sequence[int], Callable[[int], int]]


def _pow2(e: int, exact: bool):
    if exact:
        return Fraction(2) ** e
    return 2.0 ** e


def _m_rule(m: MSequence) -> Callable[[int], int]:
    if callable(m):
        return m
    if isinstance(m, str):
        if m == "pow2":
            return lambda j: 2 ** j
        raise UnknownPresetError(f"unknown m-sequence rule {m!r}")
    values = list(m)

    def from_list(j: int) -> int:
        if 1 <= j <= len(values):
            return values[j - 1]
        raise ValueError(f"m-sequence of length {len(values)} exhausted at block {j}")

    return from_list


def chain_vertex(branch: int, k: int) -> VertexAddress:
    """k-th vertex (k >= 1) of the branch-`branch` chain below the anchor."""
    if k < 1:
        raise ValueError("chain vertices are numbered from 1")
    return VertexAddress(0, (branch,) + (0,) * (k - 1))


def spine_vertex(k: int) -> VertexAddress:
    """k-th vertex above the anchor (k = 0 is the anchor itself)."""
    return VertexAddress(k)


# every vertex of full_binary and unary_path has one type
_ONE_TYPE = VertexTypes(type_of=lambda v: 0, child_type=lambda t, i: 0)
# a vertex of example_7_2 or bi_infinite_path is typed by its signed depth
_SIGNED_DEPTH = VertexTypes(type_of=lambda v: v.signed_depth, child_type=lambda d, i: d + 1)


def full_binary() -> TreeModel:
    """Rooted tree where every vertex has two children and weight 1."""
    return TreeModel(ROOTED, arity=lambda t: 2, weight=lambda t: 1, name="full_binary",
                     types=_ONE_TYPE)


def unary_path() -> TreeModel:
    """Rooted path 0 -> 1 -> 2 -> ... with weight 1 (the classical
    non-hypercyclic unilateral backward shift)."""
    return TreeModel(ROOTED, arity=lambda t: 1, weight=lambda t: 1, name="unary_path",
                     types=_ONE_TYPE)


def _block_exponent(k: int, m: Callable[[int], int]) -> int:
    """Exponent e with weight 2^e at position k >= 1 of the two-sided block
    pattern: odd blocks dip to 2^-m_j and climb back to 1, even blocks rise
    to 2^m_j and come back down."""
    j = 1
    cum = 0
    while True:
        length = 2 * m(j)
        if k <= cum + length:
            i = k - cum
            e = min(i, length - i)
            return -e if j % 2 == 1 else e
        cum += length
        j += 1


def example_4_1(m: MSequence = "pow2", exact: bool = False) -> TreeModel:
    """Rooted tree with two infinite chains under the root.

    Branch 1 carries the block-patterned weights mu_v and branch 0 their
    reciprocals, so the two branches are never simultaneously small.  A
    vertex is typed "root" or by (branch, position in its chain).
    """
    rule = _m_rule(m)

    def weight(t):
        if t == "root":
            return 1
        branch, k = t
        e = _block_exponent(k, rule)
        return _pow2(e if branch == 1 else -e, exact)

    types = VertexTypes(
        type_of=lambda v: (v.path[0], len(v.path)) if v.path else "root",
        child_type=lambda t, i: (i, 1) if t == "root" else (t[0], t[1] + 1),
    )
    return TreeModel(ROOTED, lambda t: 2 if t == "root" else 1, weight,
                     name="example_4_1", types=types)


def example_7_2(exact: bool = False) -> TreeModel:
    """Unrooted tree: an upward spine o_0 <- o_1 <- ... of weight 1 whose end
    vertex o_0 feeds two infinite chains u_k, v_k of weight 2^-k."""
    return TreeModel(
        UNROOTED,
        arity=lambda d: 2 if d == 0 else 1,
        weight=lambda d: 1 if d <= 0 else _pow2(-d, exact),
        spine_child_index=lambda k: 0,
        name="example_7_2",
        types=_SIGNED_DEPTH,
    )


def example_7_2_vector(k_max: int = 7, exact: bool = False) -> SparseVector:
    """The signed indicator vector whose orbit converges to e_u1 - e_v1:
    +1 at u_(2^j), -1 at v_(2^j) for j = 0..k_max."""
    one = Fraction(1) if exact else 1.0
    entries = {}
    for j in range(k_max + 1):
        entries[chain_vertex(0, 2 ** j)] = one
        entries[chain_vertex(1, 2 ** j)] = -one
    return SparseVector(entries)


def bi_infinite_path(weight_by_depth: Callable[[int], object] | None = None) -> TreeModel:
    """Unrooted two-sided path (a copy of the integers).  ``weight_by_depth``
    maps the signed depth below the anchor to the weight; default 1."""
    return TreeModel(
        UNROOTED,
        arity=lambda d: 1,
        weight=weight_by_depth or (lambda d: 1),
        spine_child_index=lambda k: 0,
        name="bi_infinite_path",
        types=_SIGNED_DEPTH,
    )


PRESETS: dict[str, Callable[..., TreeModel]] = {
    "full_binary": full_binary,
    "unary_path": unary_path,
    "example_4_1": example_4_1,
    "example_7_2": example_7_2,
    "bi_infinite_path": bi_infinite_path,
}

# The presets whose weight rules take ``exact``.
EXACT_PRESETS = frozenset({"example_4_1", "example_7_2"})


def make_preset(name: str, **params) -> TreeModel:
    try:
        builder = PRESETS[name]
    except KeyError:
        raise UnknownPresetError(
            f"unknown preset {name!r}; available: {sorted(PRESETS)}"
        ) from None
    return builder(**params)
