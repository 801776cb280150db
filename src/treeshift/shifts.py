"""The backward shift B, its transpose S, powers, operator norms and orbits.

B sums a function over the children of each vertex (B e_v = e_parent(v), with
the root absorbed to 0); S is the formal transpose (S e_v = sum of e_u over
children u).  Operator norms follow the per-vertex ratio formulas of the
weighted-shift boundedness criterion, a p*-mass of weight ratios combined by
`spaces.DualExponent`, evaluated as a supremum over a finite truncation; on
infinite trees that value is a certified lower bound.

Public functions check the addresses of the vectors they are given once per
tree (`spaces`); B^n and S results, orbit copies and witnesses are born
checked.  On unrooted trees `apply_B`, `apply_B_pow` and `orbit` also check
each spine vertex an entry moves onto for its spine child, which raises
InvalidAddressError on a spine whose arity rule leaves that child out.  B^n
and S results and orbit copies hold no zeros by construction, so they are
wrapped without the `SparseVector` constructor's zero filter.
"""

from __future__ import annotations

from typing import Optional

from ._record import field, record
from .spaces import SpaceSpec, SparseVector, _check_support, _norm, _vector, to_float
from .trees import (
    TreeModel,
    Truncation,
    VertexAddress,
    _check_climbs,
    _children,
    enumerate_distinct_subtrees,
)


def apply_B(f: SparseVector, tree: TreeModel) -> SparseVector:
    """(Bf)(v) = sum of f over the children of v; empty sums are zero."""
    return apply_B_pow(f, 1, tree)


def apply_S(f: SparseVector, tree: TreeModel) -> SparseVector:
    """(Sf)(v) = f(parent(v)); on basis vectors S e_v spreads over Chi(v)."""
    _check_support(f, tree)
    # the children of distinct vertices are distinct: each value is stored as it is
    new, type_arity, type_of = tuple.__new__, tree.type_arity, tree.type_of
    out = {}
    for v, x in f.items():
        up, path = v
        if up and not path:  # a spine vertex: one child is (up - 1; )
            out.update(dict.fromkeys(_children(v, tree), x))
        else:
            for i in range(type_arity(type_of(v))):
                out[new(VertexAddress, (up, path + (i,)))] = x
    return _vector(out, tree.token)


def apply_B_pow(f: SparseVector, n: int, tree: TreeModel) -> SparseVector:
    """B^n f in one pass: every entry moves to its n-fold parent."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    _check_support(f, tree)
    _check_climbs(f, n, tree)
    return _apply_B_pow(f, n, tree)


def _apply_B_pow(f: SparseVector, n: int, tree: TreeModel) -> SparseVector:
    """``apply_B_pow`` of a vector whose support is already known to be valid.

    One pass in the order of f: the first value that reaches a target is
    stored as it is, each later one is added to it, and a sum that cancels
    to zero is dropped on the spot.  Targets are looked up as plain
    ``(up, path)`` tuples; a `VertexAddress` is built only when one is stored."""
    if n == 0:
        return _vector(f._entries.copy(), tree.token)
    rooted = tree.rooted
    acc: dict[VertexAddress, object] = {}
    get = acc.get
    for v, x in f.items():
        up, path = v
        depth = len(path)
        if n <= depth:
            target = (up, path[: depth - n])
        elif rooted:
            continue
        else:
            target = (up + (n - depth), ())
        y = get(target)
        if y is None:
            acc[tuple.__new__(VertexAddress, target)] = x
        elif (y := y + x) == 0:
            del acc[target]
        else:
            acc[target] = y
    return _vector(acc, tree.token)


@record(frozen=True)
class OperatorNormResult:
    """Supremum of the per-vertex boundedness quantity over a truncation."""

    value: float
    powered: object  # the p*-powered supremum for l^p (p > 1), else the value
    is_sup_over_truncation: bool  # True: lower bound for the true norm
    argmax: Optional[VertexAddress]
    space: SpaceSpec
    truncation: Truncation


def operator_norm(
    spec: SpaceSpec, tree: TreeModel, trunc: Truncation = Truncation()
) -> OperatorNormResult:
    """Norm of B per the boundedness criterion: sup over enumerated vertices of
    the p*-mass of the ratios |mu_v/mu_u| over the children u of v, its p*-th
    root for l^p (p > 1).  Monotone nondecreasing in the truncation.

    The walk skips subtrees that repeat an earlier one by vertex type
    (`enumerate_distinct_subtrees`): their ratios repeat values already met,
    so the value, the argmax (the first strict maximum) and the frontier flag
    are those of the full walk."""
    dual = spec.dual
    best = None
    best_at = None
    frontier_open = tree.kind == "unrooted"
    for v in enumerate_distinct_subtrees(tree, trunc):
        kids = _children(v, tree)  # raises at a spine vertex without its spine child
        if not kids:
            continue
        if len(v.path) == trunc.depth:
            frontier_open = True
        wv = tree.weight(v)
        cand = dual.combine(dual.power(wv / tree.weight(u)) for u in kids)
        if best is None or cand > best:
            best, best_at = cand, v
    if best is None:  # single isolated root
        best = 0
    return OperatorNormResult(
        value=to_float(dual.root(best)),
        powered=best,
        is_sup_over_truncation=frontier_open,
        argmax=best_at,
        space=spec,
        truncation=trunc,
    )


@record(frozen=True)
class OrbitPoint:
    n: int
    vector: SparseVector
    norm: float


def orbit(f: SparseVector, n_max: int, tree: TreeModel, spec: SpaceSpec) -> list[OrbitPoint]:
    """Iterates (n, B^n f, ||B^n f||) for n = 0..n_max, stopping after the
    first zero iterate (rooted orbits of finite vectors die in finite time)."""
    _check_support(f, tree)
    out = []
    cur = _vector(f._entries.copy(), tree.token)
    for n in range(n_max + 1):
        out.append(OrbitPoint(n, cur, to_float(_norm(cur, spec, tree))))
        if not cur:
            break
        if n < n_max:
            _check_climbs(cur, 1, tree)
            cur = _apply_B_pow(cur, 1, tree)
    return out


@record(frozen=True)
class BallSpec:
    """Open norm ball used as a return-set endpoint."""

    center: SparseVector
    radius: float
    space: SpaceSpec

    def __post_init__(self):
        if self.radius <= 0:
            raise ValueError("radius must be positive")


def witness_return(
    n: int,
    U: BallSpec,
    V: BallSpec,
    tree: TreeModel,
    slack: float = 1e-6,
) -> Optional[SparseVector]:
    """Try to certify n in N(U, V) with the constructive witness
    f = I_n(center_U) + S_n(center_V).

    Returns the witness vector when both norm checks pass (radii shrunk by the
    relative ``slack``, which must satisfy 0 <= slack < 1), else None.
    Failure only means this witness family did not certify n, never that n is
    outside the return set.
    """
    _check_slack(slack)
    _check_support(U.center, tree)
    _check_support(V.center, tree)
    from .simplex import build_In_unrooted, build_Sn
    from .errors import EmptyFiberError

    r_u = U.radius * (1.0 - slack)
    r_v = V.radius * (1.0 - slack)
    if n == 0:
        f = U.center
        if to_float(_norm(f - V.center, V.space, tree)) < r_v:
            return f
        return None

    if tree.rooted:
        i_part = U.center
    else:
        i_part = _vector({}, tree.token)
        for v, x in U.center.items():
            i_part = i_part + x * build_In_unrooted(v, n, tree, U.space).vector
    s_part = _vector({}, tree.token)
    try:
        for v, x in V.center.items():
            s_part = s_part + x * build_Sn(v, n, tree, V.space)
    except EmptyFiberError:
        return None
    f = i_part + s_part
    if to_float(_norm(f - U.center, U.space, tree)) >= r_u:
        return None
    if to_float(_norm(_apply_B_pow(f, n, tree) - V.center, V.space, tree)) >= r_v:
        return None
    return f


def _check_slack(slack: float) -> None:
    """ValueError unless the radii that ``slack`` shrinks by ``1 - slack``
    stay positive and no larger."""
    if not 0 <= slack < 1:
        raise ValueError("slack must satisfy 0 <= slack < 1")


@record
class ReturnSetReport:
    """Horizon-bounded constructive picture of the return set N(U, V):
    times with a stored, norm-checked witness versus times the witness family
    failed to certify (which refutes nothing)."""

    horizon: int
    certified: dict[int, SparseVector] = field(default_factory=dict)
    uncertified: set[int] = field(default_factory=set)

    @property
    def certified_in(self) -> set[int]:
        return set(self.certified)


def return_set_report(
    U: BallSpec,
    V: BallSpec,
    horizon: int,
    tree: TreeModel,
    slack: float = 1e-6,
) -> ReturnSetReport:
    """`witness_return` for n = 0..horizon, sorted into certified and
    uncertified times."""
    _check_slack(slack)
    _check_support(U.center, tree)
    _check_support(V.center, tree)
    report = ReturnSetReport(horizon=horizon)
    for n in range(horizon + 1):
        w = witness_return(n, U, V, tree, slack)
        if w is None:
            report.uncertified.add(n)
        else:
            report.certified[n] = w
    return report
