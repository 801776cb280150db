"""Weight-based dynamical criteria evaluated at a finite horizon.

Everything here reduces to two per-vertex quantities: the fiber quantity
q(v, n), the p*-th root of the reciprocal weight mass of Chi^n(v)
(`spaces.fiber_mass` combined by `spaces.DualExponent`), and (on unrooted
trees) the spine-augmented quantity j(v, n) that adds the reciprocal weight
of the n-fold parent p^n(v) to the mass of Chi^n(p^n(v)).  The
transitivity/recurrence criteria ask the time sets where these exceed every
threshold N to belong to a Furstenberg family; divergence "to infinity" is
always evidenced by exceeding a ladder capped at 2^12 within the horizon, and
every verdict is horizon-stamped rather than asserted as a true limit.

Public functions check the vertices they are given.  The reports read each
sampled vertex's q-mass row (and its j-mass row on unrooted trees) once for
n = 0..horizon; the floor of a sample set is the elementwise min of its rows.
A tree keeps one q row per (space, vertex type), a sweep of the levels below
the type (`trees._step`); a type first met below a chain of single children
reads the row of the chain's head from its offset (`_q_row`).  A j row is
one merge of memoised levels per n (`trees._spine_fiber`), and each level
is massed once per tree (`spaces._level_mass`).  All the rungs of a ladder
are thresholded in one pass over a floor (`_rung_times`): each entry is
ranked once among the sorted thresholds, and every rung's times come out
ascending, so that the families judge them by their runs without sorting
them again.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right, insort
from fractions import Fraction
from functools import partial
from itertools import compress, repeat
from operator import attrgetter, itemgetter
from typing import Callable, Iterable, Optional, Sequence

from ._record import field, record
from .errors import EmptyIndexSetError, FloatRangeError, RootedTreeError
from .families import FamilySpec, Verdict, family_verdict, generated_filter, infinite_family
from .spaces import SpaceSpec, _level_mass, fiber_mass, to_float
from .trees import (
    ANCHOR,
    TreeModel,
    Truncation,
    VertexAddress,
    _check_climbs,
    _p_n,
    _remember,
    _spine_fiber,
    _step,
    enumerate_distinct_subtrees,
    enumerate_truncation,
    format_address,
)

LADDER_MAX = 2 ** 12
DEFAULT_LADDER = tuple(2 ** k for k in range(13))


def _checked(vertices: Iterable, tree: TreeModel) -> list[VertexAddress]:
    """The given vertices as VertexAddresses, each checked against the tree."""
    verts = [VertexAddress(v[0], tuple(v[1])) for v in vertices]
    for v in verts:
        tree.check(v)
    return verts


def _j_parts(v: VertexAddress, n: int, tree: TreeModel, spec: SpaceSpec) -> tuple:
    """The parts of j(v, n) on an unrooted tree: ``(mu(p^n v), q-mass of
    Chi^n(p^n v))``, the fiber's level read by `trees._spine_fiber`."""
    s, level = _spine_fiber(v, n, tree)
    return tree.weight(s), _level_mass(tree, level, spec.dual, (tree.type_of(s), n))[1]


def _j_term(spine_weight, fiber, spec: SpaceSpec, lam=1, k=None):
    """j in the scale of thresholds from its parts, the spine weight scaled
    by lam = lambda_k (the supercyclicity display; lam = 1 recovers j).  A
    float scaled spine term whose power is 0.0 has no reciprocal there:
    FloatRangeError names k and lambda_k."""
    dual = spec.dual
    scaled = dual.power(spine_weight * lam)
    if k is not None and scaled == 0 and isinstance(scaled, float):
        raise FloatRangeError(f"lambda_{k} = {lam} scales a spine weight to 0.0 in floats")
    return dual.combine((1 / scaled, fiber))


def _j_row(v: VertexAddress, tree: TreeModel, spec: SpaceSpec, horizon: int) -> list:
    """j(v, n) in the scale of thresholds for n = 0..horizon."""
    return [_j_term(*_j_parts(v, n, tree, spec), spec) for n in range(horizon + 1)]


def _value(mass, spec: SpaceSpec) -> float:
    """The q or j value a mass stands for: its p*-th root, as a float."""
    return to_float(spec.dual.root(mass))


def _values(row: Sequence, spec: SpaceSpec) -> list[float]:
    """`_value` of each mass of ``row`` by one ``float`` pass and one ``pow``
    pass; a mass past float range sends the row to `_value`, which clamps it."""
    try:
        floats = map(float, row)
        return list(floats if spec.dual.plain else map(pow, floats, repeat(spec.dual._inverse)))
    except OverflowError:
        return [_value(m, spec) for m in row]


def q_value(v, n: int, tree: TreeModel, spec: SpaceSpec) -> float:
    """The fiber quantity compared against N in the transitivity criteria:
    the p*-th root of the p*-mass of 1/|mu_u| over u in Chi^n(v)."""
    (v,) = _checked([v], tree)
    return _value(fiber_mass(tree, v, n, spec)[1], spec)


def j_value(v, n: int, tree: TreeModel, spec: SpaceSpec) -> float:
    """Spine quantity on the same "compare with N" scale as q_value, with
    1/|mu_{p^n(v)}| added to the fiber's p*-mass (the max of the two for
    l^1)."""
    if tree.rooted:
        raise RootedTreeError("j_value needs the n-fold parent of every vertex")
    (v,) = _checked([v], tree)
    return _value(_j_term(*_j_parts(v, n, tree, spec), spec), spec)


def _q_row(v: VertexAddress, tree: TreeModel, spec: SpaceSpec, horizon: int) -> list:
    """q(v, n) in the scale of thresholds, n = 0..horizon: `fiber_mass`'s
    ``combined`` terms.  A tree keeps one row per (dual, vertex type) in
    ``tree.q_rows``, with the last level it swept, and a vertex reads the row
    of its type.  A type without a row reads the row of the nearest ancestor
    on its path whose descendants down to v are single children: that row
    reached v's type, as the level {type: 1}, at the offset of their
    distance, and the levels below are the same dicts, so the masses are the
    same objects.  Levels past a kept row are swept from its last level."""
    dual, t = spec.dual, tree.type_of(v)
    row, level = tree.q_rows.get((dual, t)) or _chain_row(v, tree, dual) or ([], None)
    if len(row) <= horizon:
        row = list(row)
        for n in range(len(row), horizon + 1):
            level = {t: 1} if n == 0 else _step(level, tree)
            row.append(_level_mass(tree, level, dual, (t, n))[1])
        _remember(tree.q_rows, (dual, t), (row, level))
    return row[:horizon + 1]


def _chain_row(v: VertexAddress, tree: TreeModel, dual) -> Optional[tuple]:
    """``(row, last level)`` of v's type from the kept row of the nearest
    a = p^k(v) on v's path, or one spine step above it, where a and the
    vertices below it down to p(v) have one child each: that row from n = k
    on.  None if no such a has a row longer than k."""
    up, path = v
    for k in range(1, len(path) + 1 + (not tree.rooted)):
        a = tree.type_of(_p_n(v, k, tree))
        if tree.type_arity(a) != 1 or (k > len(path) and tree.spine_child_index(up) != 0):
            return None
        entry = tree.q_rows.get((dual, a))
        if entry is not None and len(entry[0]) > k:
            return entry[0][k:], entry[1]
    return None


def _floor(rows: Sequence[list]) -> Optional[list]:
    """Elementwise min of mass rows: its n-th entry exceeds a threshold iff
    every row's does.  None, which no threshold constrains, for no rows; a
    copy of one row, so that no floor is a kept row; one ``min`` per column."""
    if len(rows) < 2:
        return list(rows[0]) if rows else None
    return list(map(min, *rows))


def _rung_times(floor: Optional[list], ladder: Sequence, spec: SpaceSpec,
                horizon: int) -> list[list[int]]:
    """The times of every rung N of ``ladder``, in ladder order, each list
    ascending: the n <= horizon where the floor exceeds N (every such n for
    the floor of an empty set).  Each floor entry is ranked once, by
    bisection among the distinct thresholds, sorted: its rank is the number
    of thresholds it exceeds.  When every threshold is an int, an exact
    Fraction entry m is ranked by its ceiling, an int, since m > N iff
    ceil(m) > N.  A rung's times are the n ranked above its threshold's
    index, picked in order.  A NaN threshold, which nothing exceeds, is
    left out of the sort."""
    thresholds = [spec.dual.threshold(N) for N in ladder]
    if floor is None:
        return [list(range(horizon + 1)) for _ in thresholds]
    ranks = sorted({t for t in thresholds if t == t})
    if Fraction in set(map(type, floor)) and all(type(t) is int for t in ranks):
        floor = [-(-m.numerator // m.denominator) if type(m) is Fraction else m for m in floor]
    placed = list(map(partial(bisect_left, ranks), floor))
    index = {t: i for i, t in enumerate(ranks)}
    times = list(range(len(placed)))  # one int object per time, shared by the rungs
    return [list(compress(times, map(index[t].__lt__, placed))) if t in index else []
            for t in thresholds]


def I_set(F, N, tree: TreeModel, spec: SpaceSpec, horizon: int) -> set[int]:
    """Times n <= horizon with q(v, n) > N for every v in the finite set F."""
    return I_sets(F, [N], tree, spec, horizon)[0]


def I_sets(F, ladder: Sequence, tree: TreeModel, spec: SpaceSpec,
           horizon: int) -> list[set[int]]:
    """`I_set` of F for every rung N of ``ladder``, in ladder order, from one
    read of each q row of F."""
    rows = [_q_row(v, tree, spec, horizon) for v in _checked(F, tree)]
    return [set(times) for times in _rung_times(_floor(rows), ladder, spec, horizon)]


def J_set(F, N, tree: TreeModel, spec: SpaceSpec, horizon: int) -> set[int]:
    """Times n <= horizon with j(v, n) > N for every v in F (unrooted only)."""
    if tree.rooted:
        raise RootedTreeError("J_set is defined on unrooted trees")
    rows = [_j_row(v, tree, spec, horizon) for v in _checked(F, tree)]
    return set(_rung_times(_floor(rows), [N], spec, horizon)[0])


def _mass_rows(vertices: Iterable, tree: TreeModel, spec: SpaceSpec, horizon: int):
    """Each vertex's q-mass row and, on unrooted trees, its j-mass row (None
    on rooted ones): every value a report thresholds, read once.  The q rows
    are read top-down, once the spine below them is checked bottom-up."""
    _check_climbs([ANCHOR], max((v.up for v in vertices if not v.path), default=0), tree)
    rows = {v: _q_row(v, tree, spec, horizon) for v in sorted(vertices, key=attrgetter("signed_depth"))}
    q_rows = {v: rows[v] for v in vertices}
    if tree.rooted:
        return q_rows, None
    return q_rows, {v: _j_row(v, tree, spec, horizon) for v in q_rows}


def _floors(verts, q_rows: dict, j_rows: Optional[dict]):
    """The q floor of the set ``verts``, its j floor (None on rooted trees)
    and the floor its time sets threshold: on unrooted trees the min of the
    two, whose time sets are those of I intersect J."""
    q_floor = _floor([q_rows[v] for v in verts])
    if j_rows is None or q_floor is None:
        return q_floor, None, q_floor
    j_floor = _floor([j_rows[v] for v in verts])
    return q_floor, j_floor, _floor([q_floor, j_floor])


def default_sample_sets(
    tree: TreeModel, sample_depth: int = 3, extra: Iterable = ()
) -> list[frozenset]:
    """Singletons for every vertex within depth/ancestry ``sample_depth`` plus
    one combined set of the depth-1 vertices: the desk-scale surrogate for the
    criteria's quantification over all finite vertex sets."""
    near = sorted(enumerate_truncation(tree, Truncation(sample_depth, sample_depth)))
    sets = [frozenset({v}) for v in near]
    combined = frozenset(
        v for v in enumerate_truncation(tree, Truncation(1, 1))
    )
    if combined:
        sets.append(combined)
    for F in extra:
        sets.append(frozenset(VertexAddress(v[0], tuple(v[1])) for v in F))
    return sets


def _sample_vertices(sample: Optional[Iterable], tree: TreeModel) -> list[VertexAddress]:
    """A report's sample: the given vertices, checked, or else the vertices
    of the default sample sets."""
    if sample is None:
        return sorted({v for F in default_sample_sets(tree) for v in F})
    return sorted(_checked(sample, tree))


def _diverging_records(vals: Sequence[float]) -> list[int]:
    """Indices where the sequence attains a strictly new maximum, provided
    the last of them exceeds the ladder cap; [] otherwise."""
    records, best = [], None
    for n, x in enumerate(vals):
        if best is None or x > best:
            records.append(n)
            best = x
    return records if records and vals[records[-1]] > LADDER_MAX else []


def _diverging_vertex(q_rows: Iterable[tuple], spec: SpaceSpec):
    """``(v, q values, records)`` for the first of the (vertex, q-mass row)
    pairs whose q values diverge; ``(None, [], [])`` if none does.  Records
    are taken on the floats, since distinct exact masses can round to one."""
    for v, masses in q_rows:
        vals = _values(masses, spec)
        records = _diverging_records(vals)
        if records:
            return v, vals, records
    return None, [], []


@record(frozen=True)
class RungResult:
    N: object
    times: tuple[int, ...]
    verdict: Verdict

    __hash__ = None  # by design: a Verdict is unhashable


@record(frozen=True)
class SampleSetResult:
    vertices: tuple[VertexAddress, ...]
    rungs: tuple[RungResult, ...]
    q_sup: float  # max over n of min over F of q(v, n)
    j_sup: Optional[float]  # same for j on unrooted trees

    @property
    def acceptable(self) -> bool:
        return all(r.verdict.acceptable for r in self.rungs)


@record
class DynamicsReport:
    tree_name: str
    space: str
    family: str
    horizon: int
    entries: list[SampleSetResult]
    satisfied: bool
    witness_vertex: Optional[VertexAddress]
    witness_sequence: list[int]
    q_rows: dict[VertexAddress, list]
    j_rows: Optional[dict[VertexAddress, list]]
    spec: SpaceSpec

    @property
    def csv_vertices(self) -> list[VertexAddress]:
        """The vertices of the CSV rows, in row order."""
        return list(self.q_rows)

    def to_text(self) -> str:
        lines = [
            f"transitivity criterion on {self.tree_name} ({self.space}), "
            f"family {self.family}, horizon {self.horizon}",
            f"criterion satisfied at horizon: {self.satisfied}",
        ]
        if self.witness_vertex is not None:
            seq = self.witness_sequence
            shown = ", ".join(map(str, seq[:10])) + (", ..." if len(seq) > 10 else "")
            lines.append(
                f"diverging fiber quantity at {format_address(self.witness_vertex)}; "
                f"witness n_k: {shown}"
            )
        for entry in self.entries:
            label = "{" + ", ".join(format_address(v) for v in entry.vertices) + "}"
            lines.append(f"F = {label}  (q_sup={entry.q_sup:.6g}"
                         + (f", j_sup={entry.j_sup:.6g}" if entry.j_sup is not None else "")
                         + ")")
            for rung in entry.rungs:
                v = rung.verdict
                lines.append(
                    f"  N={rung.N}: |times|={len(rung.times)} -> {v.status}"
                    f"{' (+)' if v.positive_evidence else ''} {v.witness}"
                )
        return "\n".join(lines)

    def csv_rows(self):
        """(vertex, n, q_value, j_value) rows for plotting, from the mass rows
        the report thresholded."""
        rows, spec = [], self.spec
        for v, row in self.q_rows.items():
            j = repeat("") if self.j_rows is None else _values(self.j_rows[v], spec)
            rows.extend(zip(repeat(format_address(v)), range(len(row)), _values(row, spec), j))
        return rows


def dynamics_report(
    tree: TreeModel,
    spec: SpaceSpec,
    fam: Optional[FamilySpec] = None,
    sample: Optional[Iterable] = None,
    horizon: int = 64,
    ladder: Sequence = DEFAULT_LADDER,
    sample_depth: int = 3,
) -> DynamicsReport:
    """Evaluate the F-transitivity weight criterion over sampled vertex sets.

    For each sampled finite set F and threshold N in the ladder, the relevant
    time set (I on rooted trees, I intersect J on unrooted ones) receives a
    family-membership verdict; the criterion counts as satisfied at this
    horizon iff every verdict is holds or inconclusive-with-positive-evidence.
    """
    fam = fam or infinite_family()
    if sample is None:
        sample_sets = default_sample_sets(tree, sample_depth)
    else:
        sample_sets = [frozenset(_checked(F, tree)) for F in sample]
    for i, F in enumerate(sample_sets):
        if not F:
            raise EmptyIndexSetError(f"sample set {i} is empty; each needs a vertex")
    singles = sorted({v for F in sample_sets for v in F})
    q_rows, j_rows = _mass_rows(singles, tree, spec, horizon)

    entries = []
    for F in sample_sets:
        verts = tuple(sorted(F))
        q_floor, j_floor, floor = _floors(verts, q_rows, j_rows)
        rungs = [
            RungResult(N, tuple(times), family_verdict(times, fam, horizon))
            for N, times in zip(ladder, _rung_times(floor, ladder, spec, horizon))
        ]
        q_sup = _value(max(q_floor), spec)
        j_sup = None if j_floor is None else _value(max(j_floor), spec)
        entries.append(SampleSetResult(verts, tuple(rungs), q_sup, j_sup))

    satisfied = all(e.acceptable for e in entries)
    witness_vertex, _, witness_sequence = _diverging_vertex(q_rows.items(), spec)

    return DynamicsReport(
        tree_name=tree.name,
        space=spec.label,
        family=fam.describe(),
        horizon=horizon,
        entries=entries,
        satisfied=satisfied,
        witness_vertex=witness_vertex,
        witness_sequence=witness_sequence,
        q_rows=q_rows,
        j_rows=j_rows,
        spec=spec,
    )


@record(frozen=True)
class GammaSpec:
    """Scalar family Gamma indexed by k: lambda_k = lambdas(k), all nonzero."""

    lambdas: Callable[[int], object]
    description: str
    bounded: bool

    def at(self, k: int):
        lam = self.lambdas(k)
        if lam == 0:
            raise ValueError(f"lambda_{k} = 0 is not allowed")
        return lam


def _scale(gamma: GammaSpec, k: int, dual, spine: list, fibers: list) -> tuple:
    """``(lambda_k, |lambda_k|^p*, |lambda_k|)`` for the displays at the
    current n, whose (spine weight, j-mass) parts are ``spine`` and whose
    fiber masses are ``fibers``.  Where a spine weight, a fiber mass or
    |lambda_k|^p* is a float, the displays carry lambda_k and its power as
    floats, so both must be finite floats; exact displays take any
    lambda_k."""
    lam = gamma.at(k)
    try:
        lam_pow = dual.power(lam)
        floats = isinstance(lam_pow, float) or any(
            isinstance(x, float) for x in fibers + [w for w, _ in spine])
        in_range = not floats or (math.isfinite(lam) and math.isfinite(lam_pow))
    except OverflowError:
        in_range = False
    if not in_range:
        raise FloatRangeError(f"lambda_{k} = {lam} is beyond float range")
    s = abs(lam)
    if isinstance(s, Fraction) and s.denominator == 1:
        s = s.numerator  # equal, and an int compares far faster than a Fraction
    return lam, lam_pow, s


def gamma_constant(value=1) -> GammaSpec:
    if value == 0:
        raise ValueError("constant scalar must be nonzero")
    return GammaSpec(lambda k: value, f"constant {value}", bounded=True)


def gamma_powers(ratio) -> GammaSpec:
    if ratio == 0:
        raise ValueError("ratio must be nonzero")
    return GammaSpec(
        lambda k: ratio ** k, f"powers {ratio}^k", bounded=abs(ratio) <= 1
    )


@record
class SupercyclicityReport:
    tree_name: str
    space: str
    gamma: str
    horizon: int
    mode: str  # "unrooted-criterion" | "rooted-bounded-gamma" | "rooted-unbounded-gamma"
    satisfied: bool
    achieved: list[tuple]  # (R, n, k, lambda_k) per ladder rung reached
    failed_rung: Optional[object]
    sample: list[VertexAddress]
    notes: list[str] = field(default_factory=list)
    hypercyclicity: Optional[DynamicsReport] = None
    leaf_witness: Optional[VertexAddress] = None

    def to_text(self) -> str:
        lines = [
            f"Gamma-supercyclicity on {self.tree_name} ({self.space}), "
            f"Gamma = {self.gamma}, horizon {self.horizon} [{self.mode}]",
            f"satisfied at horizon: {self.satisfied}",
        ]
        lines.extend(f"note: {n}" for n in self.notes)
        if self.failed_rung is not None:
            lines.append(f"first unreachable threshold: {self.failed_rung}")
        for R, n, k, lam in self.achieved:
            lines.append(f"  threshold {R}: n={n}, lambda_{k}={lam}")
        return "\n".join(lines)

    def csv_rows(self):
        return [(R, n, k, to_float(abs(lam))) for R, n, k, lam in self.achieved]


def supercyclicity_report(
    tree: TreeModel,
    spec: SpaceSpec,
    gamma: GammaSpec,
    horizon: int = 64,
    sample: Optional[Iterable] = None,
    ladder: Sequence = DEFAULT_LADDER,
    trunc: Truncation = Truncation(),
) -> SupercyclicityReport:
    """Search for (n_k, lambda_k) making both scaled displays of the
    Gamma-supercyclicity criterion exceed an increasing ladder at every
    sampled vertex (unrooted trees).

    Rooted trees are handled by the structural reductions: for bounded Gamma,
    Gamma-supercyclicity is equivalent to hypercyclicity, so the transitivity
    report decides; for unbounded Gamma it is equivalent to dense range, which
    for a backward shift means the tree has no leaves (the generalized kernel
    is automatically dense on rooted trees).

    On unrooted trees each rung R is reached by the first n, and within it
    the first k, where at every sampled vertex v both displays exceed R: the
    fiber display |lambda_k|^p* times the q-mass of Chi^n(v), and the spine
    display, j's mass with the spine weight mu(p^n v) scaled by lambda_k.
    Both depend on lambda_k only through s = |lambda_k|: the fiber display
    grows with s and the spine display shrinks with it, the spine term
    1/|mu lambda|^p* (1/|mu lambda| for l^1) being decreasing in s.  So
    within one n, once the fiber display fails at some s it fails at every
    smaller s, and once the spine display fails at some s it fails at every
    larger one.  The scan keeps the largest s where the fiber display failed
    (lo) and the smallest where the fiber display passed but the spine one
    failed (hi), and skips a k with s <= lo or s >= hi without evaluating
    either display: it finds the same (n, k) as testing every k in order.
    A skip bisects the scales read, sorted by s, for those in (lo, hi) and
    scans them for the least k (no k before the current one is among them:
    (lo, hi) only shrinks), or else goes on to the first k not read.
    The spine display is evaluated only where the fiber display passes at
    every sampled vertex.

    lambda_k is read once, when the scan first reaches k, whether or not k
    is then skipped; a lambda_k that the displays would have to carry as a
    float beyond float range raises FloatRangeError there.
    """
    sample_verts = _sample_vertices(sample, tree)

    if tree.rooted:
        if gamma.bounded:
            sub = dynamics_report(tree, spec, infinite_family(), horizon=horizon)
            return SupercyclicityReport(
                tree.name, spec.label, gamma.description, horizon,
                mode="rooted-bounded-gamma",
                satisfied=sub.satisfied,
                achieved=[],
                failed_rung=None,
                sample=sample_verts,
                notes=[
                    "bounded Gamma on a rooted tree: Gamma-supercyclicity is "
                    "equivalent to hypercyclicity; deferring to the "
                    "transitivity report"
                ],
                hypercyclicity=sub,
            )
        # arity is a type property, and a skipped subtree repeats one walked
        # before it: the first leaf of the distinct walk is the first leaf
        leaf = next((v for v in enumerate_distinct_subtrees(tree, trunc)
                     if tree.arity(v) == 0), None)
        return SupercyclicityReport(
            tree.name, spec.label, gamma.description, horizon,
            mode="rooted-unbounded-gamma",
            satisfied=leaf is None,
            achieved=[],
            failed_rung=None,
            sample=sample_verts,
            notes=[
                "unbounded Gamma on a rooted tree: equivalent to dense range "
                "(dense generalized kernel is automatic); dense range holds "
                "iff the tree has no leaves"
                + ("" if leaf is None else f"; leaf found at {format_address(leaf)}"),
                "derived from the generalized-kernel reduction, not a direct "
                "criterion evaluation",
            ],
            leaf_witness=leaf,
        )

    # The first (n, k) that reaches each rung in turn (see the docstring).
    dual = spec.dual
    achieved = []
    rungs = ((R, dual.threshold(R)) for R in ladder)
    R, R_pow = next(rungs, (None, None))
    scales, index = [], []  # (lambda_k, |lambda_k|^p*, |lambda_k|), and (|lambda_k|, k) sorted
    for n in range(1, horizon + 1):
        if R is None:
            break
        spine = [_j_parts(v, n, tree, spec) for v in sample_verts]
        fibers = [fiber_mass(tree, v, n, spec)[1] for v in sample_verts]
        lo, hi, k = 0, math.inf, 0  # the fiber display fails at |lambda| <= lo, the spine at >= hi
        while k <= horizon:
            if k == len(scales):
                scales.append(_scale(gamma, k, dual, spine, fibers))
                insort(index, (scales[k][2], k))
            lam, lam_pow, s = scales[k]
            if not lo < s < hi:  # on to the first k read with lo < s < hi, else the first unread
                found = index[bisect_right(index, (lo, math.inf)):bisect_left(index, (hi, -1))]
                k = min(map(itemgetter(1), found), default=len(scales))
                continue
            if not all(lam_pow * fiber > R_pow for fiber in fibers):
                lo = s
            elif not all(_j_term(*parts, spec, lam, k) > R_pow for parts in spine):
                hi = s
            else:
                achieved.append((R, n, k, lam))
                R, R_pow = next(rungs, (None, None))
                break
            k += 1
    failed_rung = R

    return SupercyclicityReport(
        tree.name, spec.label, gamma.description, horizon,
        mode="unrooted-criterion",
        satisfied=failed_rung is None,
        achieved=achieved,
        failed_rung=failed_rung,
        sample=sample_verts,
    )


DECAY_EPS = 2.0 ** -12


@record(frozen=True)
class DecayObservation:
    i: int
    last: float
    tail_min: float
    decayed: bool


@record
class LimitPointReport:
    tree_name: str
    space: str
    horizon: int
    status: str  # "holds" | "fails"
    diverging_vertex: Optional[VertexAddress]
    records: list[int]
    record_values: list[float]
    root_diverging: Optional[bool]  # rooted trees: divergence at the root
    shifted_ok: Optional[dict]  # rooted: l -> diverging of q(v, n+l)
    decay: Optional[list[DecayObservation]]  # unrooted spine-decay evidence
    sample: list[VertexAddress]
    q_rows: dict[VertexAddress, list]  # the q-mass rows the report read
    tree: TreeModel
    spec: SpaceSpec

    def to_text(self) -> str:
        lines = [
            f"orbital limit point criterion on {self.tree_name} ({self.space}), "
            f"horizon {self.horizon}",
            f"verdict at horizon: {self.status}",
        ]
        if self.diverging_vertex is not None:
            lines.append(
                f"diverging fiber quantity at {format_address(self.diverging_vertex)}; "
                f"records n_k = {self.records[:8]}{'...' if len(self.records) > 8 else ''}"
            )
        else:
            lines.append("no sampled vertex shows a diverging fiber quantity")
        if self.root_diverging is not None:
            lines.append(f"divergence at the root: {self.root_diverging}")
        if self.shifted_ok is not None:
            lines.append(f"shifted divergence (l -> ok): {self.shifted_ok}")
        if self.decay is not None:
            for obs in self.decay:
                lines.append(
                    f"spine decay i={obs.i}: last={obs.last:.6g}, "
                    f"tail_min={obs.tail_min:.6g}, decayed={obs.decayed}"
                )
        return "\n".join(lines)

    def csv_rows(self):
        """(vertex, n, q_value) rows for plotting; only the rows the report
        did not read are read here."""
        rows = []
        for v in self.sample:
            row = self.q_rows.get(v)
            if row is None:
                row = _q_row(v, self.tree, self.spec, self.horizon)
            rows.extend(zip(repeat(format_address(v)), range(len(row)), _values(row, self.spec)))
        return rows


def limit_point_report(
    tree: TreeModel,
    spec: SpaceSpec,
    sample: Optional[Iterable] = None,
    horizon: int = 64,
    shifts: int = 4,
    decay_indices: int = 4,
) -> LimitPointReport:
    """Evidence for an orbit with a nonzero limit point.

    Rooted trees: search sampled vertices for q(v, n_k) exceeding the ladder
    cap along an increasing sequence; also reports the root version and the
    l-shifted versions (all equivalent in the limit).  Unrooted trees ask in
    addition that the spine weights mu(p^(n_k - n_i)(v)) decay to 0 - this is
    the criterion for a *non-negative* vector's orbit to have a nonzero limit
    point, and its failure is reported with the observed limiting value.
    """
    sample_verts = _sample_vertices(sample, tree)
    q_rows = {}
    found, vals, found_records = _diverging_vertex(
        ((v, q_rows.setdefault(v, _q_row(v, tree, spec, horizon))) for v in sample_verts), spec
    )
    found_values = [vals[n] for n in found_records]

    root_div = shifted = decay = None
    status = "fails"
    if tree.rooted:
        if ANCHOR not in q_rows:
            q_rows[ANCHOR] = _q_row(ANCHOR, tree, spec, horizon)
        root_div = bool(_diverging_records(_values(q_rows[ANCHOR], spec)))
        if found is not None:
            status = "holds"
            shifted = {
                l: bool(_diverging_records(vals[l:])) for l in range(1, shifts + 1)
            }
    elif found is not None:
        decay = []
        usable = [n for n in found_records if n >= 1]
        for i in range(1, min(decay_indices, max(0, len(usable) - 1)) + 1):
            n_i = usable[i - 1]
            values = [
                to_float(abs(tree.weight(_p_n(found, nk - n_i, tree))))
                for nk in usable[i:]
            ]
            tail = values[len(values) // 2:]
            obs = DecayObservation(
                i=i,
                last=values[-1],
                tail_min=min(tail),
                decayed=min(tail) <= DECAY_EPS,
            )
            decay.append(obs)
        if decay and all(o.decayed for o in decay):
            status = "holds"
    return LimitPointReport(
        tree.name, spec.label, horizon,
        status=status,
        diverging_vertex=found,
        records=found_records,
        record_values=found_values,
        root_diverging=root_div,
        shifted_ok=shifted,
        decay=decay,
        sample=sample_verts,
        q_rows=q_rows,
        tree=tree,
        spec=spec,
    )


def transitivity_filter_base(
    tree: TreeModel,
    spec: SpaceSpec,
    sets: Iterable,
    thresholds: Iterable,
    horizon: int,
) -> FamilySpec:
    """The filter base of I(F, N) (intersected with J(F, N) on unrooted trees)
    time sets, packaged as a generated-filter family."""
    sets = [tuple(sorted(_checked(F, tree))) for F in sets]
    thresholds = list(thresholds)
    q_rows, j_rows = _mass_rows({v for F in sets for v in F}, tree, spec, horizon)
    bases = []
    for verts in sets:
        floor = _floors(verts, q_rows, j_rows)[2]
        label_f = "{" + ",".join(format_address(v) for v in verts) + "}"
        for N, times in zip(thresholds, _rung_times(floor, thresholds, spec, horizon)):
            bases.append((f"I({label_f},{N})", frozenset(times)))
    return generated_filter(bases)
