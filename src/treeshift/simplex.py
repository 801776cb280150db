"""Closed-form minimisation over the l^1 simplex and the constructive maps
built from it.

For nonzero weights (mu_j) the infimum of the weighted norm over the simplex
{x >= 0, sum x = 1} is `spaces.DualExponent.infimum` of the p*-mass of the
weights; the minimiser spreads mass proportionally to 1/|mu_j|^p*, or, for
l^1 (p* = inf), concentrates on an argmin.  These minimisers power the right
inverses S_n of B^n, the approximate-kernel maps I_n on unrooted trees, and
the synthesis of vectors whose orbit keeps returning to e_root.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, Optional

from .errors import (
    CriterionTooWeakError,
    EmptyFiberError,
    EmptyIndexSetError,
    RootedTreeError,
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
from .trees import ANCHOR, TreeModel, Truncation, VertexAddress, chi_n, p_n


@dataclass(frozen=True)
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
    dual = inst.space.dual
    ws = inst.weights
    if dual.is_max:
        m = simplex_inf(inst)
        idx = next(i for i, w in enumerate(ws) if abs(w) <= m + delta)
        return [1 if i == idx else 0 for i in range(len(ws))]
    keys = list(zip(map(type, ws), ws))  # 1, 1.0 and Fraction(1) power differently
    inverse = {key: 1 / dual.power(key[1]) for key in dict.fromkeys(keys)}
    inv = [inverse[key] for key in keys]
    total = sum(inv)
    return [x / total for x in inv]


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

    For l^1 the mass concentrates on one near-minimal weight; the fiber is
    sorted so ties break toward the lowest canonical address."""
    fiber = list(chi_n(v, n, tree))
    if not fiber:
        raise EmptyFiberError(f"Chi^{n}({v}) is empty")
    if spec.dual.is_max:
        fiber.sort()
    weights = tuple(map(tree.weight, fiber))
    if delta is None:
        delta = (2.0 ** -n) * 1e-3
    x = simplex_optimizer(SimplexInstance(weights, spec), delta)
    return _vector({u: xi for u, xi in zip(fiber, x) if xi != 0})


@dataclass(frozen=True)
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
    if tree.rooted:
        raise RootedTreeError("I_n with spine cancellation needs an unrooted tree")
    s = p_n(v, n, tree)
    ws = tree.weight(s)
    fiber = list(chi_n(s, n, tree))
    weights = tuple(tree.weight(u) for u in fiber)
    dual = spec.dual

    if dual.is_max:
        fiber_min = min(abs(w) for w in weights)
        m = min(abs(ws), fiber_min)
        if abs(ws) <= fiber_min:
            return InUnrootedResult(basis(v), "kept", to_float(m))
        idx = min(range(len(fiber)), key=lambda i: (abs(weights[i]), fiber[i]))
        h = SparseVector({fiber[idx]: 1})
        return InUnrootedResult(basis(v) - h, "cancelled", to_float(m))

    spine_term = 1 / dual.power(ws)
    inv = [1 / dual.power(w) for w in weights]
    mass = sum(inv)
    total = spine_term + mass
    bound = to_float(dual.root(2 / total))
    if 2 * spine_term >= total:
        return InUnrootedResult(basis(v), "kept", bound)
    h = SparseVector({u: x / mass for u, x in zip(fiber, inv)})
    return InUnrootedResult(basis(v) - h, "cancelled", bound)


@dataclass(frozen=True)
class TailBudget:
    """Summable error allowance b_j per synthesis step; default b_j = 2^-j."""

    schedule: Callable[[int], float] = lambda j: 2.0 ** -j

    def tail(self, after: int, upto: int) -> float:
        return sum(self.schedule(l) for l in range(after + 1, upto + 1))


@dataclass(frozen=True)
class RecurrentTerm:
    j: int
    n: int
    g: SparseVector
    g_norm: float
    c: float
    allowance: float


@dataclass(frozen=True)
class RecurrentCertificate:
    """Re-verified residual inequality for one retained synthesis step."""

    j: int
    n: int
    residual: float
    residual_bound: float  # sum of the remaining budget entries
    product_bound: float  # sum over later terms of ||B^n||_est * ||g_l||
    verified: bool


@dataclass
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
    """
    if not tree.rooted:
        raise RootedTreeError("recurrent-vector synthesis is the rooted construction")
    budget = budget or TailBudget()
    from .shifts import _apply_B_pow, operator_norm

    dual = spec.dual
    opn_result = operator_norm(spec, tree, trunc)
    opn = opn_result.value
    retained: list[RecurrentTerm] = []
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
        g = build_Sn(ANCHOR, n, tree, spec)
        retained.append(
            RecurrentTerm(j, n, g, to_float(_norm(g, spec, tree)), c, allowance)
        )
    if not retained:
        raise CriterionTooWeakError(
            f"no candidate power met its budget at truncation {trunc}"
        )

    merged: dict[VertexAddress, object] = {}
    for t in retained:
        merged.update(t.g.items())
    f = _vector(merged)

    e_root = basis(ANCHOR)
    total = len(retained)
    certificates = []
    for t in retained:
        residual = to_float(_norm(_apply_B_pow(f, t.n, tree) - e_root, spec, tree))
        bound = budget.tail(t.j, total)
        product = sum(opn ** t.n * later.g_norm for later in retained if later.j > t.j)
        verified = residual <= bound + 1e-12 * (1.0 + bound)
        certificates.append(
            RecurrentCertificate(t.j, t.n, residual, bound, product, verified)
        )
    return RecurrentSynthesis(f, certificates, retained, skipped, opn)
