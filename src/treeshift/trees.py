"""Directed trees with lazy, rule-backed structure and canonical addressing.

A tree is described by rules (child count and weight per vertex) that are
evaluated on demand, so infinite trees are first-class objects.  A vertex is
named by how it is reached from a designated *anchor* vertex: ``up`` parent
steps, then a ``path`` of 0-based child indices downward.  Rooted trees are
anchored at the root and never step up.

An address is *canonical* when the first downward step after the up-steps does
not immediately re-enter the spine vertex it came from; `canonicalize` reduces
such detours.  All other operations expect canonical addresses.

A tree may state its rules on vertex types (`VertexTypes`).  Fibers are then
swept as (type, count) levels without building an address (`_fiber_types`),
and the fibers below the n-fold parents p^n(v) follow the spine recurrence
(`_spine_fiber`).

Public functions check the addresses they are given.  Addresses the library
generates itself (children, parents, fibers) are built with `tuple.__new__`
and are not checked again.  `chi_n` builds a fiber level by level, which at a
fixed depth gives the depth-first order.
"""

from __future__ import annotations

import re
import weakref
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Hashable, Iterator, NamedTuple, Optional

from .errors import InvalidAddressError, TreeSpecError

ROOTED = "rooted"
UNROOTED = "unrooted"

# (up; i1.i2...): an up count, then zero or more child indices joined by dots
_ADDRESS_RE = re.compile(r"^\(\s*(\d+)\s*;\s*(\d+(?:\s*\.\s*\d+)*)?\s*\)$")


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
    body = m.group(2)
    path = tuple(int(part) for part in body.split(".")) if body else ()
    return VertexAddress(int(m.group(1)), path)


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


class VertexTypes(NamedTuple):
    """``type_of(v)``, the type of the vertex at an address (used only where
    an address enters), and ``child_type(t, i)``, the type of the i-th child
    of a vertex of type ``t``.  Vertices of one type have equal arity, weight
    and child types, in order, so their subtrees are copies of each other.  A
    type that is a `VertexAddress` stands for that vertex alone: its children
    are the vertex's own, typed by ``type_of``, not by ``child_type``."""

    type_of: Callable[[VertexAddress], Hashable]
    child_type: Callable[[Hashable, int], Hashable]


class TreeModel:
    """Immutable, lazily generated directed tree.

    ``arity`` and ``weight`` are rules on the vertex types of ``types``, or
    without them on canonical addresses, each vertex being its own type.
    ``tree.arity(v)`` and ``tree.weight(v)`` take addresses either way; they
    and the rules on types (``type_weight``, ``child_types``) are memoised,
    and instances are safe to share across threads.
    ``fiber_masses``, ``fiber_levels`` and ``spine_levels`` memoise fiber
    masses, the last level swept below each type, and the last step of the
    spine recurrence from each vertex.
    """

    fiber_profile = None  # read by perfbench/tracer.py, which wraps it when set

    def __init__(
        self,
        kind: str,
        arity: Callable[[Hashable], int],
        weight: Callable[[Hashable], object],
        spine_child_index: Optional[Callable[[int], int]] = None,
        *,
        name: str = "custom",
        edge_data: Optional[EdgeData] = None,
        types: Optional[VertexTypes] = None,
    ):
        if kind not in (ROOTED, UNROOTED):
            raise ValueError(f"kind must be {ROOTED!r} or {UNROOTED!r}, got {kind!r}")
        if kind == UNROOTED and spine_child_index is None:
            raise ValueError("unrooted trees need a spine_child_index rule")
        self.kind = kind
        self.name = name
        self.edge_data = edge_data
        self.types = types
        self.fiber_masses: dict = {}
        self.fiber_levels: dict = {}
        self.spine_levels: dict = {}
        self.spine_child_index = (
            lru_cache(maxsize=1 << 12)(spine_child_index) if spine_child_index else None
        )
        type_weight = self.type_weight = lru_cache(maxsize=MEMO_SIZE)(weight)
        if types is None:
            type_of = self.type_of = lambda v: v
            self.arity, self.weight = lru_cache(maxsize=MEMO_SIZE)(arity), type_weight
        else:
            type_of = self.type_of = types.type_of
            self.arity = lru_cache(maxsize=MEMO_SIZE)(lambda v: arity(type_of(v)))
            self.weight = lru_cache(maxsize=MEMO_SIZE)(lambda v: type_weight(type_of(v)))
        tree = weakref.ref(self)  # the memo must not keep the tree alive
        child_type = None if types is None else types.child_type

        def child_types(t) -> tuple:
            """The types of the children of a vertex of type ``t``, in order."""
            if isinstance(t, VertexAddress):  # a vertex that is its own type
                return tuple(map(type_of, _children(t, tree())))
            return tuple([child_type(t, i) for i in range(arity(t))])

        self.child_types = lru_cache(maxsize=MEMO_SIZE)(child_types)
        # A rooted tree whose anchor type is its own only child type has one
        # arity: `check` then tests a path against the valid child indices.
        self._child_indices = None
        if types is not None and kind == ROOTED:
            t = type_of(ANCHOR)
            kids = self.child_types(t)
            if kids and set(kids) == {t}:
                self._child_indices = frozenset(range(len(kids)))

    @property
    def rooted(self) -> bool:
        return self.kind == ROOTED

    def with_weight(self, weight, *, name=None) -> "TreeModel":
        """Same tree structure with a different weight rule on addresses, and
        without the vertex types, whose contract promises equal weights."""
        return TreeModel(
            self.kind,
            self.arity,
            weight,
            self.spine_child_index,
            name=name or f"{self.name}-reweighted",
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
        indices = self._child_indices
        if indices is not None:
            if indices.issuperset(path):  # one C-level scan
                return
            for i in path:
                if not 0 <= i < len(indices):
                    raise InvalidAddressError(f"child index {i} out of range "
                                              f"0..{len(indices) - 1} in {format_address(v)}")
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
    On a tree with vertex types each level carries its vertices' types, so
    the child counts come from ``tree.child_types``, read once per type;
    levels that hold a spine vertex go vertex by vertex.
    Errors are raised on the first ``next()``, before anything is yielded."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    tree.check(v)
    level = [VertexAddress(v[0], tuple(v[1]))]
    spine_levels = level[0].up if not level[0].path else 0
    typed = tree.types is not None
    type_of, child_types = tree.type_of, tree.child_types
    kinds = list(map(type_of, level))
    for k in range(n):
        if k < spine_levels:  # the level holds the spine vertex (up - k; )
            level = [c for w in level for c in _children(w, tree)]
            kinds = list(map(type_of, level))
            continue
        if typed:
            kids = list(map(child_types, kinds))
            kinds = [c for ks in kids for c in ks]
            counts = map(len, kids)
        else:
            counts = map(tree.arity, level)
        level = [
            tuple.__new__(VertexAddress, (w[0], w[1] + (i,)))
            for w, a in zip(level, counts)
            for i in range(a)
        ]
    yield from level


def _remember(memo: dict, key, value) -> None:
    """``memo[key] = value``, clearing the memo first when it is full."""
    if len(memo) >= MEMO_SIZE:
        memo.clear()
    memo[key] = value


def _fiber_types(v: VertexAddress, n: int, tree: TreeModel) -> dict:
    """``{type: count}`` of Chi^n(v), in the order of the types' first
    vertices in the depth-first fiber; ``v`` must be checked.  The sweep goes
    level by level over types, and resumes from the level last reached below
    ``v`` (memoised in ``tree.fiber_levels``) when that is not below ``n``,
    so a row n = 0..H costs H levels.  The result is the memo's own dict:
    read it only."""
    memo = tree.fiber_levels
    last = memo.get(v)
    k, level = last if last is not None and last[0] <= n else (0, {tree.type_of(v): 1})
    child_types = tree.child_types
    while k < n:
        below = {}
        get = below.get
        for u, m in level.items():
            for c in child_types(u):
                below[c] = get(c, 0) + m
        k, level = k + 1, below
    _remember(memo, v, (n, level))
    return level


def _spine_fiber(v: VertexAddress, n: int, tree: TreeModel) -> tuple[VertexAddress, dict]:
    """``(p^n v, {type: count} of Chi^n(p^n v))`` on an unrooted tree; ``v``
    must be checked.  By the spine recurrence, Chi^(k+1)(p^(k+1) v) is
    Chi^k(p^k v) with Chi^k(c) for each sibling c of p^k v; merged in child
    order, the types come in the order of a fresh `_fiber_types` sweep.  Each
    step sweeps only the siblings, and the recurrence resumes from the last
    step reached for ``v`` (memoised in ``tree.spine_levels``) when that is
    not past ``n``.  The level is the memo's own dict: read it only."""
    memo = tree.spine_levels
    last = memo.get(v)
    k, s, level = last if last is not None and last[0] <= n else (0, v, {tree.type_of(v): 1})
    while k < n:
        p = _p_n(s, 1, tree)
        merged = {}
        get = merged.get
        for c in _children(p, tree):
            below = level if c == s else _fiber_types(c, k, tree)
            for t, m in below.items():
                merged[t] = get(t, 0) + m
        k, s, level = k + 1, p, merged
    _remember(memo, v, (n, s, level))
    _remember(tree.fiber_levels, s, (n, level))  # as a sweep below p^n v would
    return s, level


def enumerate_truncation(tree: TreeModel, trunc: Truncation) -> Iterator[VertexAddress]:
    """All canonical addresses with ``up <= ancestry`` and ``len(path) <= depth``.

    Each vertex appears exactly once; rooted trees ignore the ancestry bound.
    """
    yield from _preorder(tree, trunc, None)


def enumerate_distinct_subtrees(tree: TreeModel, trunc: Truncation) -> Iterator[VertexAddress]:
    """`enumerate_truncation` in the same depth-first order, except that the
    subtree below a vertex is skipped when a vertex of the same type at the
    same remaining depth was yielded before it.  Such a subtree repeats the
    walked one vertex for vertex, so a quantity computed from each vertex's
    rules takes no value on it that the walk has not met already.  Trees
    without vertex types yield every vertex.
    """
    yield from _preorder(tree, trunc, None if tree.types is None else tree.type_of)


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
