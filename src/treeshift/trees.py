"""Directed trees with lazy, rule-backed structure and canonical addressing.

A tree is described by rules (child count and weight per vertex) that are
evaluated on demand, so infinite trees are first-class objects.  A vertex is
named by how it is reached from a designated *anchor* vertex: ``up`` parent
steps, then a ``path`` of 0-based child indices downward.  Rooted trees are
anchored at the root and never step up.

An address is *canonical* when the first downward step after the up-steps does
not immediately re-enter the spine vertex it came from; `canonicalize` reduces
such detours.  All other operations expect canonical addresses.

Public functions check the addresses they are given.  Addresses the library
generates itself (children, parents, fibers) are built with `tuple.__new__`
and are not checked again.  `chi_n` builds a fiber level by level, which at a
fixed depth gives the depth-first order.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Hashable, Iterator, NamedTuple, Optional, Sequence

from .errors import InvalidAddressError, TreeSpecError

ROOTED = "rooted"
UNROOTED = "unrooted"

_ADDRESS_RE = re.compile(r"^\(\s*(\d+)\s*;\s*([0-9. ]*)\)$")


class VertexAddress(NamedTuple):
    """Coordinate of a vertex: ``up`` parent steps from the anchor, then a
    downward ``path`` of child indices (0-based, in rule-declared order)."""

    up: int
    path: tuple[int, ...] = ()

    def __str__(self) -> str:
        return f"({self.up}; {'.'.join(map(str, self.path))})"

    @property
    def signed_depth(self) -> int:
        """Generations below the anchor (negative above it)."""
        return len(self.path) - self.up


ANCHOR = VertexAddress(0, ())

MEMO_SIZE = 1 << 16  # the most entries any per-tree memo holds


def format_address(v: VertexAddress) -> str:
    return str(VertexAddress(v[0], tuple(v[1])))


def parse_address(text: str) -> VertexAddress:
    """Parse the textual form ``(up; i1.i2.…)``, e.g. ``(2; 0.1)`` or ``(0; )``."""
    m = _ADDRESS_RE.match(text.strip())
    if not m:
        raise InvalidAddressError(f"cannot parse address {text!r}")
    up = int(m.group(1))
    body = m.group(2).strip()
    path = tuple(int(part) for part in body.split(".")) if body else ()
    return VertexAddress(up, path)


@dataclass(frozen=True)
class Truncation:
    """Finite window of an infinite tree: at most ``depth`` generations below
    the anchor-level vertices and ``ancestry`` parent steps above the anchor."""

    depth: int = 16
    ancestry: int = 16

    def __post_init__(self):
        if self.depth < 0 or self.ancestry < 0:
            raise ValueError("truncation bounds must be nonnegative")


@dataclass(frozen=True)
class EdgeData:
    """Explicit finite tree given as labelled edges, prior to rule backing."""

    edges: tuple[tuple[str, str], ...]
    weights: dict[str, object]
    anchor: str
    kind: str = ROOTED


class TreeModel:
    """Immutable, lazily generated directed tree.

    ``arity`` and ``weight`` are rules on canonical addresses; lookups are
    memoised, and instances are safe to share across threads.  ``fiber_profile``
    optionally gives a closed form for the weight multiset of ``Chi^n(v)`` as
    ``[(weight, count), ...]`` so that criteria over exponentially growing
    fibers stay cheap; it must agree with enumeration wherever both apply.

    ``vertex_type`` optionally maps each vertex to a hashable key with one
    contract: two vertices with equal keys have equal arity, equal weight, and
    children whose keys are equal, in order.  Their subtrees are then copies
    of each other, so fibers are swept one representative per key and level
    (`spaces.fiber_mass`) and operator norms skip repeated subtrees.  Keying a
    vertex by its own address always satisfies the contract.

    ``fiber_masses`` and ``fiber_levels`` memoise what is derived from these
    rules: fiber masses, and the last type level swept below each vertex.
    """

    def __init__(
        self,
        kind: str,
        arity: Callable[[VertexAddress], int],
        weight: Callable[[VertexAddress], object],
        spine_child_index: Optional[Callable[[int], int]] = None,
        *,
        name: str = "custom",
        fiber_profile: Optional[Callable[[VertexAddress, int], Sequence[tuple]]] = None,
        uniform_arity: Optional[int] = None,
        edge_data: Optional[EdgeData] = None,
        vertex_type: Optional[Callable[[VertexAddress], Hashable]] = None,
    ):
        if kind not in (ROOTED, UNROOTED):
            raise ValueError(f"kind must be {ROOTED!r} or {UNROOTED!r}, got {kind!r}")
        if kind == UNROOTED and spine_child_index is None:
            raise ValueError("unrooted trees need a spine_child_index rule")
        self.kind = kind
        self.name = name
        self.uniform_arity = uniform_arity
        # the valid child indices of a uniform-arity tree, for `check`
        self._child_indices = frozenset(range(uniform_arity or 0))
        self.fiber_profile = fiber_profile
        self.edge_data = edge_data
        self.vertex_type = vertex_type
        self.fiber_masses: dict = {}
        self.fiber_levels: dict = {}
        self._arity_rule = arity
        self._weight_rule = weight
        self._spine_rule = spine_child_index
        self.arity = lru_cache(maxsize=MEMO_SIZE)(arity)
        self.weight = lru_cache(maxsize=MEMO_SIZE)(weight)
        self.spine_child_index = (
            lru_cache(maxsize=1 << 12)(spine_child_index) if spine_child_index else None
        )

    @property
    def rooted(self) -> bool:
        return self.kind == ROOTED

    def with_weight(self, weight, *, name=None, fiber_profile=None) -> "TreeModel":
        """Same tree structure with a different weight rule.  The fiber profile
        is dropped unless a matching one is supplied, and so is the vertex
        type, whose keys promise equal weights."""
        return TreeModel(
            self.kind,
            self._arity_rule,
            weight,
            self._spine_rule,
            name=name or f"{self.name}-reweighted",
            fiber_profile=fiber_profile,
            uniform_arity=self.uniform_arity,
            edge_data=self.edge_data,
        )

    def check(self, v: VertexAddress) -> None:
        """Raise InvalidAddressError unless ``v`` is a valid canonical address."""
        up, path = v[0], v[1]
        if up < 0:
            raise InvalidAddressError(f"negative up count in {format_address(v)}")
        if self.rooted and up:
            raise InvalidAddressError("rooted trees have no upward steps")
        if up and path and path[0] == self.spine_child_index(up - 1):
            raise InvalidAddressError(
                f"{format_address(v)} is reducible (re-enters the spine); canonicalize first"
            )
        ua = self.uniform_arity
        if ua is not None:
            if self._child_indices.issuperset(path):  # one C-level scan
                return
            for i in path:
                if not 0 <= i < ua:
                    raise InvalidAddressError(
                        f"child index {i} out of range 0..{ua - 1} in {format_address(v)}"
                    )
            return
        for d, i in enumerate(path):
            a = self.arity(VertexAddress(up, path[:d]))
            if not 0 <= i < a:
                raise InvalidAddressError(
                    f"child index {i} at step {d} exceeds arity {a} in {format_address(v)}"
                )


def canonicalize(addr, tree: TreeModel) -> VertexAddress:
    """Reduce an address to the unique canonical form of the same vertex."""
    up, path = addr[0], tuple(addr[1])
    if up < 0 or any(i < 0 for i in path):
        raise InvalidAddressError(f"negative component in ({up}; {path})")
    if tree.rooted:
        if up:
            raise InvalidAddressError("rooted trees have no upward steps")
    else:
        while up > 0 and path and path[0] == tree.spine_child_index(up - 1):
            up -= 1
            path = path[1:]
    out = VertexAddress(up, path)
    tree.check(out)
    return out


def _children(v: VertexAddress, tree: TreeModel) -> list[VertexAddress]:
    a = tree.arity(v)
    if a <= 0:
        return []
    up, base = v
    if up > 0 and not base:
        s = tree.spine_child_index(up - 1)
        if not 0 <= s < a:
            raise InvalidAddressError(
                f"spine child index {s} out of range at {format_address(v)} (arity {a})"
            )
        return [
            tuple.__new__(VertexAddress, (up - 1, ()) if i == s else (up, (i,))) for i in range(a)
        ]
    return [tuple.__new__(VertexAddress, (up, base + (i,))) for i in range(a)]


def children(v, tree: TreeModel) -> list[VertexAddress]:
    """Canonical addresses of the children of ``v``, in rule-declared order."""
    tree.check(v)
    return _children(v, tree)


def parent(v, tree: TreeModel) -> Optional[VertexAddress]:
    """The unique parent of ``v``; None exactly for the root of a rooted tree."""
    tree.check(v)
    if v.path:
        return VertexAddress(v.up, v.path[:-1])
    if tree.rooted:
        return None
    return VertexAddress(v.up + 1)


def p_n(v, n: int, tree: TreeModel) -> Optional[VertexAddress]:
    """The n-fold parent; None when a rooted tree runs out above the root."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    tree.check(v)
    return _p_n(v, n, tree)


def _p_n(v: VertexAddress, n: int, tree: TreeModel) -> Optional[VertexAddress]:
    up, path = v
    depth = len(path)
    if n <= depth:
        return tuple.__new__(VertexAddress, (up, path[: depth - n]))
    if tree.rooted:
        return None
    return tuple.__new__(VertexAddress, (up + (n - depth), ()))


def chi_n(v, n: int, tree: TreeModel) -> Iterator[VertexAddress]:
    """All descendants exactly ``n`` generations below ``v``, depth-first in
    child-index order.  ``chi_n(v, 0)`` yields ``v`` itself.

    The fiber is built one level at a time, each level the children of the
    previous one in order, which at a fixed depth is the depth-first order.
    Errors are raised on the first ``next()``, before anything is yielded."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    tree.check(v)
    level = [VertexAddress(v[0], tuple(v[1]))]
    spine_levels = level[0].up if not level[0].path else 0
    arity = tree.arity
    for k in range(n):
        if k < spine_levels:  # the level holds the spine vertex (up - k; )
            level = [c for w in level for c in _children(w, tree)]
        else:
            level = [
                tuple.__new__(VertexAddress, (w[0], w[1] + (i,)))
                for w in level
                for i in range(arity(w))
            ]
    yield from level


def _fiber_types(v: VertexAddress, n: int, tree: TreeModel) -> list[tuple[VertexAddress, int]]:
    """``[(representative, count), ...]``: one pair per vertex type in
    Chi^n(v), on a tree with a ``vertex_type``; ``v`` must be checked.

    The sweep goes level by level, expanding only each type's representative,
    and resumes from the level it last reached below ``v`` (memoised in
    ``tree.fiber_levels``) when that level is not below ``n``.  So a row
    n = 0..H costs H levels.
    """
    key_of = tree.vertex_type
    memo = tree.fiber_levels
    last = memo.get(v)
    if last is not None and last[0] <= n:
        k, level = last
    else:
        k, level = 0, {key_of(v): (v, 1)}
    while k < n:
        below = {}
        for rep, count in level.values():
            for c in _children(rep, tree):
                t = key_of(c)
                seen = below.get(t)
                below[t] = (c, count) if seen is None else (seen[0], seen[1] + count)
        k, level = k + 1, below
    if len(memo) >= MEMO_SIZE:
        memo.clear()
    memo[v] = (n, level)
    return list(level.values())


def enumerate_truncation(tree: TreeModel, trunc: Truncation) -> Iterator[VertexAddress]:
    """All canonical addresses with ``up <= ancestry`` and ``len(path) <= depth``.

    Each vertex appears exactly once; rooted trees ignore the ancestry bound.
    """
    yield from _preorder(tree, trunc, None)


def enumerate_distinct_subtrees(tree: TreeModel, trunc: Truncation) -> Iterator[VertexAddress]:
    """`enumerate_truncation` in the same depth-first order, except that the
    subtree below a vertex is skipped when a vertex of the same
    ``vertex_type`` at the same remaining depth was yielded before it.  Such a
    subtree repeats the walked one vertex for vertex, so a quantity computed
    from each vertex's rules takes no value on it that the walk has not met
    already.  Trees without a ``vertex_type`` yield every vertex.
    """
    yield from _preorder(tree, trunc, tree.vertex_type)


def _preorder(tree: TreeModel, trunc: Truncation, key_of) -> Iterator[VertexAddress]:
    """The walk of both enumerations, one anchor-level start at a time;
    ``key_of`` skips repeated (type, remaining depth) subtrees.  Starts are
    never skipped: above the anchor, a start's walked subtree leaves out its
    spine child, which is the next start."""
    top = trunc.ancestry if tree.kind == UNROOTED else 0
    seen = set()
    for a in range(top + 1):
        start = VertexAddress(a)
        yield start
        if trunc.depth <= 0:
            continue
        firsts = _children(start, tree)
        if a > 0:
            firsts = [c for c in firsts if c.up == a]
        stack = [(c, trunc.depth - 1) for c in reversed(firsts)]
        while stack:
            w, r = stack.pop()
            if key_of is not None:
                key = (key_of(w), r)
                if key in seen:
                    continue
                seen.add(key)
            yield w
            if r > 0:
                stack.extend((c, r - 1) for c in reversed(_children(w, tree)))


@dataclass(frozen=True)
class Violation:
    code: str
    where: str
    detail: str


@dataclass
class ValidationReport:
    ok: bool
    violations: list[Violation]
    checked: int

    def codes(self) -> set[str]:
        return {v.code for v in self.violations}


_MAX_VIOLATIONS = 100


def validate(tree, trunc: Truncation = Truncation()) -> ValidationReport:
    """Check the tree axioms on the finite truncation.

    Accepts a TreeModel or raw EdgeData.  Rule-backed trees are checked for
    nonzero weights, nonnegative arity, spine consistency and parent/child
    coherence; edge-backed data additionally for unique parents, circuits and
    connectedness to the anchor.  Violations are report entries, never raises.
    """
    if isinstance(tree, EdgeData):
        return validate_edge_data(tree)
    violations: list[Violation] = []
    checked = 0
    if tree.edge_data is not None:
        edge_report = validate_edge_data(tree.edge_data)
        violations.extend(edge_report.violations)
        checked += edge_report.checked
    if tree.kind == UNROOTED:
        for k in range(trunc.ancestry):
            s = tree.spine_child_index(k)
            a = tree.arity(VertexAddress(k + 1))
            if not 0 <= s < a:
                violations.append(
                    Violation(
                        "SpineIndexOutOfRange",
                        str(VertexAddress(k + 1)),
                        f"spine child index {s} not below arity {a}",
                    )
                )
    for v in enumerate_truncation(tree, trunc):
        if len(violations) >= _MAX_VIOLATIONS:
            break
        checked += 1
        a = tree.arity(v)
        if a < 0:
            violations.append(Violation("NegativeArity", str(v), f"arity {a}"))
            continue
        w = tree.weight(v)
        if w == 0:
            violations.append(Violation("ZeroWeight", str(v), "weight must be nonzero"))
        try:
            for c in _children(v, tree):
                if _p_n(c, 1, tree) != v:
                    violations.append(
                        Violation("ParentChildMismatch", str(c), f"parent is not {v}")
                    )
        except InvalidAddressError as exc:
            violations.append(Violation("SpineIndexOutOfRange", str(v), str(exc)))
    return ValidationReport(ok=not violations, violations=violations, checked=checked)


def validate_edge_data(data: EdgeData) -> ValidationReport:
    violations: list[Violation] = []
    labels = {data.anchor}
    for u, v in data.edges:
        labels.update((u, v))
    labels.update(data.weights)

    parents: dict[str, list[str]] = {}
    for u, v in data.edges:
        if u == v:
            violations.append(Violation("CircuitViolation", u, "self-loop edge"))
            continue
        parents.setdefault(v, []).append(u)
    for v, ps in parents.items():
        if len(ps) > 1:
            violations.append(
                Violation("UniqueParentViolation", v, f"parents {sorted(ps)}")
            )

    # circuit detection by walking parent chains (after unique-parent issues
    # are already reported, follow the first parent of each vertex)
    state: dict[str, int] = {}
    for start in sorted(labels):
        if state.get(start):
            continue
        chain = []
        cur = start
        while cur is not None and state.get(cur) is None:
            state[cur] = 1
            chain.append(cur)
            ps = parents.get(cur)
            cur = ps[0] if ps else None
        if cur is not None and state[cur] == 1:
            violations.append(
                Violation("CircuitViolation", cur, "parent chain returns to itself")
            )
        for c in chain:
            state[c] = 2

    # undirected connectedness to the anchor
    adjacency: dict[str, set[str]] = {lab: set() for lab in labels}
    for u, v in data.edges:
        if u != v:
            adjacency[u].add(v)
            adjacency[v].add(u)
    seen = {data.anchor}
    frontier = [data.anchor]
    while frontier:
        cur = frontier.pop()
        for nxt in adjacency.get(cur, ()):
            if nxt not in seen:
                seen.add(nxt)
                frontier.append(nxt)
    for lab in sorted(labels - seen):
        violations.append(Violation("DisconnectedViolation", lab, "not reachable from anchor"))

    if data.kind == ROOTED:
        roots = sorted(lab for lab in labels if lab not in parents)
        if data.anchor in parents:
            violations.append(
                Violation("AnchorNotRoot", data.anchor, f"anchor has parents {parents[data.anchor]}")
            )
        extra = [r for r in roots if r != data.anchor]
        if extra:
            violations.append(
                Violation("MultipleRoots", ",".join(extra), "parentless vertices besides the anchor")
            )
    else:
        violations.append(
            Violation("UnrootedEdgeList", data.anchor, "finite edge lists cannot be unrooted")
        )

    for lab in sorted(labels):
        if lab not in data.weights:
            violations.append(Violation("MissingWeight", lab, "no weight assigned"))
        elif data.weights[lab] == 0:
            violations.append(Violation("ZeroWeight", lab, "weight must be nonzero"))

    return ValidationReport(ok=not violations, violations=violations, checked=len(labels))


def tree_from_edge_data(data: EdgeData) -> TreeModel:
    """Back a finite edge list by a TreeModel.  Children are ordered by label."""
    report = validate_edge_data(data)
    if not report.ok:
        raise TreeSpecError(
            "invalid edge list: " + "; ".join(f"{v.code} at {v.where}" for v in report.violations)
        )
    kids: dict[str, list[str]] = {}
    for u, v in data.edges:
        kids.setdefault(u, []).append(v)
    for u in kids:
        kids[u].sort()

    addr_to_label: dict[VertexAddress, str] = {}
    stack = [(data.anchor, ANCHOR)]
    while stack:
        label, addr = stack.pop()
        addr_to_label[addr] = label
        for i, c in enumerate(kids.get(label, ())):
            stack.append((c, VertexAddress(addr.up, addr.path + (i,))))

    def arity(v: VertexAddress) -> int:
        lab = addr_to_label.get(v)
        if lab is None:
            raise InvalidAddressError(f"{format_address(v)} is outside the edge-list tree")
        return len(kids.get(lab, ()))

    def weight(v: VertexAddress):
        lab = addr_to_label.get(v)
        if lab is None:
            raise InvalidAddressError(f"{format_address(v)} is outside the edge-list tree")
        return data.weights[lab]

    return TreeModel(ROOTED, arity, weight, name="edge-list", edge_data=data)
