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
n = 0..horizon; the floor of a sample set is the elementwise min of its rows,
and every rung's time set is one threshold of that floor.  On a tree with
vertex types a j row follows the spine: the fiber below p^(n+1)(v) is the one
below p^n(v) merged with the fibers below its siblings.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterable, Optional, Sequence

from .errors import EmptyIndexSetError, RootedTreeError
from .families import FamilySpec, Verdict, family_verdict, generated_filter, infinite_family
from .spaces import SpaceSpec, fiber_mass, to_float
from .trees import (
    ANCHOR,
    TreeModel,
    Truncation,
    VertexAddress,
    _p_n,
    _spine_fiber,
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
    Chi^n(p^n v))``.  The mass is `fiber_mass`'s, so vertices whose spines
    meet share it.  On a tree with vertex types a new one is read from the
    level that the spine recurrence (`trees._spine_fiber`) leaves in the
    sweep memo."""
    s = _p_n(v, n, tree)
    if tree.types is not None and (s, n, spec.dual) not in tree.fiber_masses:
        _spine_fiber(v, n, tree)
    return tree.weight(s), fiber_mass(tree, s, n, spec)[1]


def _j_term(spine_weight, fiber, spec: SpaceSpec, lam=1):
    """j in the scale of thresholds from its parts, the spine weight scaled
    by lam (the supercyclicity display; lam = 1 recovers j)."""
    dual = spec.dual
    return dual.combine((1 / dual.power(spine_weight * lam), fiber))


def _j_row(v: VertexAddress, tree: TreeModel, spec: SpaceSpec, horizon: int) -> list:
    """j(v, n) in the scale of thresholds for n = 0..horizon."""
    return [_j_term(*_j_parts(v, n, tree, spec), spec) for n in range(horizon + 1)]


def _value(mass, spec: SpaceSpec) -> float:
    """The q or j value a mass stands for: its p*-th root, as a float."""
    return to_float(spec.dual.root(mass))


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
    """q(v, n) in the scale of thresholds (before the p*-th root) for
    n = 0..horizon: the ``combined`` terms of `fiber_mass`, one read per n."""
    return [fiber_mass(tree, v, n, spec)[1] for n in range(horizon + 1)]


def _floor(rows: Sequence[list]) -> Optional[list]:
    """Elementwise min of mass rows: its n-th entry exceeds a threshold iff
    every row's does.  None, which no threshold constrains, for no rows."""
    return [min(col) for col in zip(*rows)] if rows else None


def _times(floor: Optional[list], N, spec: SpaceSpec, horizon: int) -> set[int]:
    """The time set of one rung: the n <= horizon where the floor exceeds N
    (every such n for the floor of an empty set)."""
    N_pow = spec.dual.threshold(N)
    if floor is None:
        return set(range(horizon + 1))
    return {n for n, m in enumerate(floor) if m > N_pow}


def I_set(F, N, tree: TreeModel, spec: SpaceSpec, horizon: int) -> set[int]:
    """Times n <= horizon with q(v, n) > N for every v in the finite set F."""
    rows = [_q_row(v, tree, spec, horizon) for v in _checked(F, tree)]
    return _times(_floor(rows), N, spec, horizon)


def J_set(F, N, tree: TreeModel, spec: SpaceSpec, horizon: int) -> set[int]:
    """Times n <= horizon with j(v, n) > N for every v in F (unrooted only)."""
    if tree.rooted:
        raise RootedTreeError("J_set is defined on unrooted trees")
    rows = [_j_row(v, tree, spec, horizon) for v in _checked(F, tree)]
    return _times(_floor(rows), N, spec, horizon)


def _mass_rows(vertices: Iterable, tree: TreeModel, spec: SpaceSpec, horizon: int):
    """Each vertex's q-mass row and, on unrooted trees, its j-mass row (None
    on rooted ones): every value a report thresholds, read once."""
    q_rows = {v: _q_row(v, tree, spec, horizon) for v in vertices}
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
        vals = [_value(m, spec) for m in masses]
        records = _diverging_records(vals)
        if records:
            return v, vals, records
    return None, [], []


@dataclass(frozen=True)
class RungResult:
    N: object
    times: tuple[int, ...]
    verdict: Verdict


@dataclass(frozen=True)
class SampleSetResult:
    vertices: tuple[VertexAddress, ...]
    rungs: tuple[RungResult, ...]
    q_sup: float  # max over n of min over F of q(v, n)
    j_sup: Optional[float]  # same for j on unrooted trees

    @property
    def acceptable(self) -> bool:
        return all(r.verdict.acceptable for r in self.rungs)


@dataclass
class DynamicsReport:
    tree_name: str
    space: str
    family: str
    horizon: int
    entries: list[SampleSetResult]
    satisfied: bool
    witness_vertex: Optional[VertexAddress]
    witness_sequence: list[int]
    csv_vertices: list[VertexAddress]
    tree: TreeModel
    spec: SpaceSpec

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
        """(vertex, n, q_value, j_value) rows for plotting."""
        q_rows, j_rows = _mass_rows(self.csv_vertices, self.tree, self.spec, self.horizon)
        rows = []
        for v, row in q_rows.items():
            for n, m in enumerate(row):
                j = "" if j_rows is None else _value(j_rows[v][n], self.spec)
                rows.append((format_address(v), n, _value(m, self.spec), j))
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
        rungs = []
        for N in ladder:
            times = _times(floor, N, spec, horizon)
            verdict = family_verdict(times, fam, horizon)
            rungs.append(RungResult(N, tuple(sorted(times)), verdict))
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
        csv_vertices=singles,
        tree=tree,
        spec=spec,
    )


@dataclass(frozen=True)
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


def _gamma_fiber_exceeds(v, n, lam, R, tree, spec) -> bool:
    """Scaled fiber display: the p*-mass of |lam|/|mu_u| over Chi^n(v),
    compared with R."""
    dual = spec.dual
    return dual.power(lam) * fiber_mass(tree, v, n, spec)[1] > dual.threshold(R)


@dataclass
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
        leaf = None
        for v in enumerate_truncation(tree, trunc):
            if tree.arity(v) == 0:
                leaf = v
                break
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

    # the first (n, k) that reaches each rung in turn
    achieved = []
    rungs = iter(ladder)
    R = next(rungs, None)
    for n in range(1, horizon + 1):
        if R is None:
            break
        spine = [_j_parts(v, n, tree, spec) for v in sample_verts]
        for k in range(horizon + 1):
            lam = gamma.at(k)
            if all(
                _gamma_fiber_exceeds(v, n, lam, R, tree, spec)
                and _j_term(*parts, spec, lam) > spec.dual.threshold(R)
                for v, parts in zip(sample_verts, spine)
            ):
                achieved.append((R, n, k, lam))
                R = next(rungs, None)
                break
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


@dataclass(frozen=True)
class DecayObservation:
    i: int
    last: float
    tail_min: float
    decayed: bool


@dataclass
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
        rows = []
        for v in self.sample:
            for n, m in enumerate(_q_row(v, self.tree, self.spec, self.horizon)):
                rows.append((format_address(v), n, _value(m, self.spec)))
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
    found, vals, found_records = _diverging_vertex(
        ((v, _q_row(v, tree, spec, horizon)) for v in sample_verts), spec
    )
    found_values = [vals[n] for n in found_records]

    root_div = shifted = decay = None
    status = "fails"
    if tree.rooted:
        root_vals = [_value(m, spec) for m in _q_row(ANCHOR, tree, spec, horizon)]
        root_div = bool(_diverging_records(root_vals))
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
        for N in thresholds:
            times = _times(floor, N, spec, horizon)
            bases.append((f"I({label_f},{N})", frozenset(times)))
    return generated_filter(bases)
