"""Closed-form minimisation over the l^1 simplex and the constructive maps
built from it.

For nonzero weights (mu_j) the infimum of the weighted norm over the simplex
{x >= 0, sum x = 1} is `spaces.DualExponent.infimum` of the p*-mass of the
weights; the minimiser spreads mass proportionally to 1/|mu_j|^p*, or, for
l^1 (p* = inf), concentrates on a near-argmin.  `_minimiser` is that rule,
written once: it powers `simplex_optimizer`, the right inverses S_n of B^n,
the approximate-kernel maps I_n on unrooted trees, and the synthesis of
vectors whose orbit keeps returning to e_root.

On a fiber the minimiser reads the weights once per vertex type in every
space: for p > 1 and c0 a vertex's coefficient depends on its weight alone,
and in l^1 the mass goes to the lowest address among the vertices of the
near-minimal types.  B only sums over children, so B^m of a vector that is
constant per type is again constant per type, one level up: the synthesis
computes its term norms and residual certificates per (level, type),
bit-identical to evaluating the materialised vectors, which it still
returns.  In l^1 the certificates are evaluated on those vectors.  Every
vector built here is born checked on its tree (`spaces`).
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction
from functools import partial, reduce
from itertools import chain
from typing import Callable, Iterable, Optional

from . import shifts
from ._record import record
from .errors import (
    CriterionTooWeakError,
    EmptyFiberError,
    EmptyIndexSetError,
    RootedTreeError,
    WorkBudgetError,
)
from .spaces import (
    DualExponent,
    SpaceSpec,
    SparseVector,
    _norm,
    _vector,
    basis,
    fiber_mass,
    to_float,
)
from .trees import (
    ANCHOR,
    TreeModel,
    Truncation,
    VertexAddress,
    _fiber_types,
    _p_n,
    _typed_fiber,
)

# The most entries one term of `build_recurrent_vector` may have (a fiber
# of 2^22 vertices): each entry is a materialised address and value.
MAX_TERM_ENTRIES = 1 << 22


@record(frozen=True)
class SimplexInstance:
    """Finite family of nonzero weights plus the space whose norm is minimised
    over the probability simplex."""

    weights: tuple
    space: SpaceSpec

    def __post_init__(self):
        if not self.weights:
            raise EmptyIndexSetError("simplex instance needs at least one weight")
        if any(w == 0 for w in self.weights):
            raise ValueError("simplex weights must be nonzero")


def simplex_inf_powered(inst: SimplexInstance):
    """The mass whose root gives the infimum: ``DualExponent.mass`` of the
    weights, with plain division so float weights give float masses."""
    return inst.space.dual.mass(((w, 1) for w in inst.weights), div=operator.truediv)


def simplex_inf(inst: SimplexInstance):
    """inf over {x >= 0, sum |x_j| = 1} of the norm of (x_j mu_j)_j."""
    return inst.space.dual.infimum(simplex_inf_powered(inst))


def simplex_optimizer(inst: SimplexInstance, delta: float = 1e-9) -> list:
    """A simplex point achieving the infimum within ``delta``.

    For p > 1 and the sup norm the exact minimiser is returned (x_j
    proportional to |mu_j|^-p*, resp. 1/|mu_j|); for l^1, all mass sits on the
    first index whose weight is within ``delta`` of the minimum.
    """
    if delta <= 0:
        raise ValueError("delta must be positive")
    indices = range(len(inst.weights))
    x, _ = _minimiser(indices, indices, inst.weights.__getitem__, inst.space.dual, delta)
    return [x.get(i, 0) for i in indices]


def _minimiser(labels, kinds, weight, dual: DualExponent, delta):
    """The simplex minimiser on the members with paired ``labels`` and
    types ``kinds``, reading ``weight`` once per type, and its mass.  In l^1
    all mass goes to the lowest label among the members whose |weight| is
    within ``delta`` of the least: ``({label: 1}, least |weight|)``.
    Otherwise a member of type k gets 1/|w_k|^p* over the sum of those terms,
    taken one per member in order: ``({k: coefficient}, that sum)``."""
    weights = {k: weight(k) for k in dict.fromkeys(kinds)}
    if 0 in weights.values():
        raise ValueError("simplex weights must be nonzero")
    if dual.is_max:
        least = min(map(abs, weights.values()))
        near = {k for k, w in weights.items() if abs(w) <= least + delta}
        return {min(u for u, k in zip(labels, kinds) if k in near): 1}, least
    inverse = {k: 1 / dual.power(w) for k, w in weights.items()}
    total = sum(map(inverse.__getitem__, kinds))
    return {k: x / total for k, x in inverse.items()}, total


def build_Sn(
    v,
    n: int,
    tree: TreeModel,
    spec: SpaceSpec,
    delta: Optional[float] = None,
) -> SparseVector:
    """The right inverse applied to e_v: a nonnegative vector g on Chi^n(v)
    with total mass 1 (so B^n g = e_v exactly) and norm within delta of the
    simplex infimum of the fiber weights.

    The minimiser is computed once per vertex type.  For l^1 the mass
    concentrates on one vertex whose |weight| is within delta of the least,
    the lowest canonical address among them; otherwise the coefficient of a
    vertex depends on its weight alone."""
    if delta is not None and delta <= 0:
        raise ValueError("delta must be positive")
    return _right_inverse(v, n, tree, spec, delta)[0]


def _right_inverse(v, n: int, tree: TreeModel, spec: SpaceSpec, delta=None):
    """``build_Sn``, its description and the minimiser's mass (`_minimiser`):
    the fiber's types in depth-first order and the nonzero coefficient of
    each type, or None for l^1, where the vector has one entry."""
    fiber, kinds = _typed_fiber(v, n, tree)
    if not fiber:
        raise EmptyFiberError(f"Chi^{n}({v}) is empty")
    if delta is None:
        delta = (2.0 ** -n) * 1e-3
    coef, mass = _minimiser(fiber, kinds, tree.type_weight, spec.dual, delta)
    if spec.dual.is_max:
        return _vector(coef, tree.token), None, mass
    if 0 in coef.values():  # an underflowed coefficient, dropped like any zero
        coef = {k: x for k, x in coef.items() if x != 0}
        g = _vector({u: coef[k] for u, k in zip(fiber, kinds) if k in coef}, tree.token)
    else:
        g = _vector(dict(zip(fiber, map(coef.__getitem__, kinds))), tree.token)
    return g, (kinds, coef), mass


def _along(values: dict, kinds):
    """The values of ``kinds`` in their order, skipping kinds without one."""
    return filter(partial(operator.is_not, None), map(values.get, kinds))


@record(frozen=True)
class InUnrootedResult:
    """I_n e_v with the case split of the unrooted transitivity construction.

    branch "kept": the vector is e_v itself and ||B^n e_v|| = |mu_{p^n(v)}| is
    small; branch "cancelled": the vector is e_v - h with h a unit-mass
    nonnegative function on Chi^n(p^n(v)), so B^n(e_v - h) = 0 and the
    correction h has small norm.  ``bound`` dominates the relevant norm in
    either branch."""

    vector: SparseVector
    branch: str  # "kept" | "cancelled"
    bound: float


def build_In_unrooted(v, n: int, tree: TreeModel, spec: SpaceSpec) -> InUnrootedResult:
    """I_n e_v on an unrooted tree: e_v - h, with h the simplex minimiser on
    Chi^n(p^n v) (exact in l^1), or e_v when the spine weight is the smaller
    side.  With M the mass of h and s = 1/|mu(p^n v)|^p*, e_v is kept when
    2s >= s + M, with bound (2 / (s + M))^(1/p*); in l^1 when |mu(p^n v)| <= M,
    with bound min(|mu(p^n v)|, M)."""
    if tree.rooted:
        raise RootedTreeError("I_n with spine cancellation needs an unrooted tree")
    tree.check(v)  # a spine without its spine child fails in `_right_inverse`
    s = _p_n(v, n, tree)
    spine = abs(tree.weight(s))
    h, _, mass = _right_inverse(s, n, tree, spec, 0)
    dual = spec.dual
    if dual.is_max:
        kept, bound = spine <= mass, min(spine, mass)
    else:
        spine_term = 1 / dual.power(spine)
        total = spine_term + mass
        kept, bound = 2 * spine_term >= total, dual.root(2 / total)
    e_v = _vector({VertexAddress(v[0], tuple(v[1])): 1}, tree.token)
    if kept:
        return InUnrootedResult(e_v, "kept", to_float(bound))
    return InUnrootedResult(e_v - h, "cancelled", to_float(bound))


@record(frozen=True)
class TailBudget:
    """Summable error allowance b_j per synthesis step; default b_j = 2^-j."""

    schedule: Callable[[int], float] = lambda j: 2.0 ** -j

    def tail(self, after: int, upto: int) -> float:
        return sum(self.schedule(l) for l in range(after + 1, upto + 1))


@record(frozen=True)
class RecurrentTerm:
    j: int
    n: int
    g: SparseVector
    g_norm: float
    c: float
    allowance: float


@record(frozen=True)
class RecurrentCertificate:
    """Re-verified residual inequality for one retained synthesis step."""

    j: int
    n: int
    residual: float
    residual_bound: float  # sum of the remaining budget entries
    product_bound: float  # sum over later terms of ||B^n||_est * ||g_l||
    verified: bool


@record
class RecurrentSynthesis:
    vector: SparseVector
    certificates: list[RecurrentCertificate]
    terms: list[RecurrentTerm]
    skipped: list[tuple[int, float, float]]  # (n, fiber inf, allowance)
    operator_norm_value: float


def fiber_simplex_inf(tree: TreeModel, v, n: int, spec: SpaceSpec) -> Optional[float]:
    """Simplex infimum of the weights of Chi^n(v) (1/q(v, n)); None when the
    fiber is empty."""
    tree.check(v)
    mass, _ = fiber_mass(tree, VertexAddress(v[0], tuple(v[1])), n, spec)
    return None if mass is None else to_float(spec.dual.infimum(mass))


def _meets_allowance(mass, b: float, opn_powered, prior_ns, dual: DualExponent) -> bool:
    """Exact test of ``simplex_inf <= b / c`` where c majorises the operator
    norms of the prior steps.

    In the scale of masses (p*-powered for l^p with integer p*, plain for
    c0 and l^1) every finite float is an exact binary rational, so the
    comparison is done in Fractions and boundary cases do not wobble with
    rounding.  Non-integer conjugate exponents fall back to a float comparison
    with a tiny relative slack.
    """
    inf_n = dual.infimum(mass)
    if to_float(inf_n) == 0.0:
        return True
    if not dual.rational:
        opn = dual.root(opn_powered)
        c = max([1.0] + [opn ** n for n in prior_ns])
        return inf_n <= (b / c) * (1.0 + 1e-12)
    C = max([Fraction(1)] + [Fraction(opn_powered) ** n for n in prior_ns])
    return C <= dual.threshold(Fraction(b)) * dual.combined(Fraction(mass))


def build_recurrent_vector(
    seq: Iterable[int],
    tree: TreeModel,
    spec: SpaceSpec,
    budget: Optional[TailBudget] = None,
    terms: int = 4,
    trunc: Truncation = Truncation(),
) -> RecurrentSynthesis:
    """Synthesise f = sum_j g_j with disjoint root fibers so that B^(n_j) f
    returns to e_root within the budgeted residual at every retained step.

    Candidate powers are taken from ``seq`` (strictly increasing); a candidate
    is retained as step j when the fiber's simplex infimum fits under
    b_j / c_j, where c_j majorises the operator-norm growth of the earlier
    steps.  Because c_j comes from a truncation (a lower bound on infinite
    trees), every certificate re-verifies its residual by direct evaluation.

    The vector and the terms' g_j are materialised `SparseVector`s.  A term
    whose fiber has more than ``MAX_TERM_ENTRIES`` vertices raises
    `WorkBudgetError` before it is built; the count comes from the fiber's
    (type, count) level.  For p > 1 or c0, the term norms and residuals are
    computed per (level, type) (`_typed_residuals`), with the sums and order
    of evaluating B^(n_j) f - e_root entry by entry.  In l^1, where each g_j
    is one basis vector, they are evaluated on the materialised vector.
    """
    if not tree.rooted:
        raise RootedTreeError("recurrent-vector synthesis is the rooted construction")
    budget = budget or TailBudget()

    dual = spec.dual
    opn_result = shifts.operator_norm(spec, tree, trunc)
    opn = opn_result.value
    retained: list[RecurrentTerm] = []
    described: list = []  # the description of each retained g, or None
    skipped: list[tuple[int, float, float]] = []
    prev = -1
    for n in seq:
        if n <= prev:
            raise ValueError("seq must be strictly increasing")
        prev = n
        if len(retained) == terms:
            break
        j = len(retained) + 1
        prior_ns = [t.n for t in retained]
        c = max([1.0] + [opn ** m for m in prior_ns])
        allowance = budget.schedule(j) / c
        mass, _ = fiber_mass(tree, ANCHOR, n, spec)
        if mass is None or not _meets_allowance(
            mass, budget.schedule(j), opn_result.powered, prior_ns, dual
        ):
            inf_n = math.inf if mass is None else to_float(dual.infimum(mass))
            skipped.append((n, inf_n, allowance))
            continue
        size = sum(_fiber_types(tree.type_of(ANCHOR), n, tree).values())  # from the level
        if size > MAX_TERM_ENTRIES:
            raise WorkBudgetError(
                f"the term for n = {n} would have {size:,} entries, "
                f"above the budget of {MAX_TERM_ENTRIES:,}"
            )
        g, description, _ = _right_inverse(ANCHOR, n, tree, spec)
        if description is None:
            g_norm = _norm(g, spec, tree)
        else:
            g_norm = _typed_norm([_typed_terms(*description, tree, spec)], spec)
        retained.append(RecurrentTerm(j, n, g, to_float(g_norm), c, allowance))
        described.append(description)
    if not retained:
        raise CriterionTooWeakError(
            f"no candidate power met its budget at truncation {trunc}"
        )

    merged: dict[VertexAddress, object] = {}
    for t in retained:
        merged.update(t.g._entries)
    f = _vector(merged, tree.token)

    if None in described:
        e_root = basis(ANCHOR)
        residuals = [
            to_float(_norm(shifts._apply_B_pow(f, t.n, tree) - e_root, spec, tree))
            for t in retained
        ]
    else:
        residuals = _typed_residuals(retained, described, tree, spec)
    total = len(retained)
    certificates = []
    for t, residual in zip(retained, residuals):
        bound = budget.tail(t.j, total)
        product = sum(opn ** t.n * later.g_norm for later in retained if later.j > t.j)
        verified = residual <= bound + 1e-12 * (1.0 + bound)
        certificates.append(
            RecurrentCertificate(t.j, t.n, residual, bound, product, verified)
        )
    return RecurrentSynthesis(f, certificates, retained, skipped, opn)


def _typed_terms(kinds, values: dict, tree: TreeModel, spec: SpaceSpec):
    """The powered norm terms |x mu|^p of a vector that takes the value
    ``values[k]`` on each vertex of type k, in the order of ``kinds``; types
    without a value have no entry.  One power per type."""
    exponent = spec.dual.conjugate
    power, weight = exponent.power, tree.type_weight
    return _along({k: power(x * weight(k)) for k, x in values.items()}, kinds)


def _typed_norm(parts, spec: SpaceSpec):
    """The norm of the concatenated ``parts`` of powered terms: one
    ``combine``, as `spaces._norm` takes it over the entries in order."""
    exponent = spec.dual.conjugate
    return exponent.root(exponent.combine(chain.from_iterable(parts)))


def _typed_residuals(terms, described, tree: TreeModel, spec: SpaceSpec) -> list:
    """``||B^(n_t) f - e_root||`` for each retained step t, where f is the sum
    of the described terms, without building B^(n_t) f.

    On a rooted tree B^(n_t) sends the earlier terms to 0, term t to its
    total mass at the root and a later term l to level n_l - n_t, where a
    vertex of type s receives the sum of term l's values along the types of
    Chi^(n_t)(s).  Each sum is the fold that `shifts.apply_B_pow`
    accumulates: the first value as it is, then ``+`` each later one, left
    to right (its drop of a sum that cancels to 0 and re-insert of the next
    value gives the same result, as 0 + x is x).  It is computed once per
    (s, n_t), and the entries are listed as B^(n_t) f - e_root lists them:
    the root (dropped when its value is 0), then each later term's level
    depth-first."""
    child_types = tree.child_types
    below: dict = {}  # (s, n) -> the types of Chi^n(s), depth-first

    def types_below(s, n: int) -> list:
        k = n
        while k and (s, k) not in below:
            k -= 1
        got = below.get((s, k), [s])
        for k in range(k + 1, n + 1):
            got = below[(s, k)] = [c for u in got for c in child_types(u)]
        return got

    def fold(values: dict, kinds):
        terms = _along(values, kinds)
        return reduce(operator.add, terms, next(terms, 0))

    top = tree.type_of(ANCHOR)
    residuals = []
    for i, (t, (kinds, values)) in enumerate(zip(terms, described)):
        root = fold(values, kinds) - 1  # B^(n_t) g_t - e_root, at the root
        parts = [_typed_terms([top], {top: root} if root != 0 else {}, tree, spec)]
        for later, (_, later_values) in zip(terms[i + 1:], described[i + 1:]):
            level = types_below(top, later.n - t.n)
            sums = {s: fold(later_values, types_below(s, t.n)) for s in dict.fromkeys(level)}
            parts.append(_typed_terms(level, {s: y for s, y in sums.items() if y != 0},
                                      tree, spec))
        residuals.append(to_float(_typed_norm(parts, spec)))
    return residuals
