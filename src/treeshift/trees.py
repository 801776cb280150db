"""Directed trees with lazy, rule-backed structure and canonical addressing.

A tree is described by rules (child count and weight per vertex) that are
evaluated on demand, so infinite trees are first-class objects.  A vertex is
named by how it is reached from a designated *anchor* vertex: ``up`` parent
steps, then a ``path`` of 0-based child indices downward.  Rooted trees are
anchored at the root and never step up.

An address is *canonical* when the first downward step after the up-steps does
not immediately re-enter the spine vertex it came from; `canonicalize` reduces
such detours.  All other operations expect canonical addresses.

A tree states its rules on vertex types (`VertexTypes`); a tree built without
them has every vertex as its own type.  Fibers are (type, count) levels,
memoised by (type, depth) and merged from the levels below the child types
(`_fiber_types`), so the fiber below p^n(v) is a merge per n (`_spine_fiber`).

Public functions check the addresses they are given.  Addresses the library
generates itself (children, parents, fibers) are built with `tuple.__new__`
and are not checked again.  `chi_n` builds a fiber level by level, which at a
fixed depth gives the depth-first order: it sweeps child-index suffixes by
type and builds each address once, at the fiber's level (`_typed_fiber`).
"""

from __future__ import annotations

import re
import weakref
from functools import lru_cache
from typing import Callable, Hashable, Iterator, NamedTuple, Optional

from ._record import record
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


@record(frozen=True)
class Truncation:
    """Finite window of an infinite tree: at most ``depth`` generations below
    the anchor-level vertices and ``ancestry`` parent steps above the anchor."""

    depth: int = 16
    ancestry: int = 16

    def __post_init__(self):
        if self.depth < 0 or self.ancestry < 0:
            raise ValueError("truncation bounds must be nonnegative")


@record(frozen=True)
class EdgeData:
    """Explicit finite tree given as labelled edges, prior to rule backing."""

    edges: tuple[tuple[str, str], ...]
    weights: dict[str, object]
    anchor: str
    kind: str = ROOTED

    __hash__ = None  # by design: the weights are a mapping


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

    ``arity`` and ``weight`` are rules on the vertex types of ``types``;
    without ``types`` every vertex is its own type (``type_of(v)`` is ``v``).
    ``tree.arity(v)`` and ``tree.weight(v)`` take addresses; they and the
    rules on types (``type_arity``, ``type_weight``, ``child_types``) are
    memoised, and instances are safe to share across threads.  ``token``, a
    plain ``object()``, marks the vectors checked on the tree (`spaces`).
    ``fiber_masses`` memoises fiber masses (`spaces.fiber_mass`) under
    ``(dual, tuple(level.items()))``, the (type, count) pairs of a level in
    sweep order, so that equal levels are massed once, or, where
    ``own_types`` says that every vertex is its own type, under
    ``(dual, v, n)``; ``levels`` holds read-only fiber levels
    (`_fiber_types`) and ``q_rows`` one q-mass row per (dual, type), with the
    last level it swept (`criteria._q_row`).
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
        tree = weakref.ref(self)  # the memo must not keep the tree alive
        own = types is None  # every vertex is its own type: weight is type_weight
        if own:
            types = VertexTypes(lambda v: v, lambda v, i: _children(v, tree())[i])
        self.kind = kind
        self.name = name
        self.edge_data = edge_data
        self.types = types
        self.token = object()
        self.own_types = own
        self.fiber_masses: dict = {}
        self.levels: dict = {}
        self.q_rows: dict = {}
        self.spine_checked = 0  # the spine height `_check_climbs` has checked
        self.spine_child_index = (
            lru_cache(maxsize=1 << 12)(spine_child_index) if spine_child_index else None
        )
        type_of = self.type_of = types.type_of
        type_arity = self.type_arity = lru_cache(maxsize=MEMO_SIZE)(arity)
        type_weight = self.type_weight = lru_cache(maxsize=MEMO_SIZE)(weight)
        self.arity = type_arity if own else lru_cache(maxsize=MEMO_SIZE)(
            lambda v: type_arity(type_of(v)))
        self.weight = type_weight if own else lru_cache(maxsize=MEMO_SIZE)(
            lambda v: type_weight(type_of(v)))

        def child_types(t) -> tuple:
            """The types of the children of a vertex of type ``t``, in order."""
            if isinstance(t, VertexAddress):  # a vertex that is its own type
                return tuple(map(type_of, _children(t, tree())))
            return tuple([types.child_type(t, i) for i in range(type_arity(t))])

        self.child_types = lru_cache(maxsize=MEMO_SIZE)(child_types)
        # A rooted tree whose anchor type is its own only child type has one
        # arity: `check` then tests a path against the valid child indices.
        self._child_indices = None
        if kind == ROOTED and not isinstance(t := type_of(ANCHOR), VertexAddress):
            kids = self.child_types(t)
            if kids and set(kids) == {t}:
                self._child_indices = frozenset(range(len(kids)))

    @property
    def rooted(self) -> bool:
        return self.kind == ROOTED

    def with_weight(self, weight, *, name=None) -> "TreeModel":
        """Same tree structure with a different weight rule on addresses, on
        which every vertex is its own type: types promise equal weights."""
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
        # down from (up; ) by type: an address memo would miss on every new
        # prefix.  A type that is an address types its children from their
        # addresses, so a spine vertex never lists its children here.
        type_of, type_arity, child_types = self.type_of, self.type_arity, self.child_types
        t = type_of(VertexAddress(up, ()))
        for d, i in enumerate(path):
            a = type_arity(t)
            if not 0 <= i < a:
                raise InvalidAddressError(
                    f"child index {i} at step {d} exceeds arity {a} in {format_address(v)}"
                )
            t = (type_of(VertexAddress(up, path[:d + 1])) if type(t) is VertexAddress
                 else child_types(t)[i])


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
    """The children of ``v``, unchecked.  A spine vertex (k; ), k > 0, has at
    least its spine child (k - 1; ): an arity that does not cover the spine
    child index, 0 included, raises InvalidAddressError.  The arity is read
    by type: a memo on addresses would miss on every new vertex."""
    a = tree.type_arity(tree.type_of(v))
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
    """The unique parent of ``v`` (`p_n`); None for the root of a rooted tree."""
    return p_n(v, 1, tree)


def p_n(v, n: int, tree: TreeModel) -> Optional[VertexAddress]:
    """The n-fold parent; None when a rooted tree runs out above the root.
    Raises, as `children` does, where the climb leaves out a spine child."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    tree.check(v)
    _check_climbs([v], n, tree)
    return _p_n(v, n, tree)


def _p_n(v: VertexAddress, n: int, tree: TreeModel) -> Optional[VertexAddress]:
    up, path = v
    depth = len(path)
    if n <= depth:
        return tuple.__new__(VertexAddress, (up, path[: depth - n]))
    if tree.rooted:
        return None
    return tuple.__new__(VertexAddress, (up + (n - depth), ()))


def _check_climbs(vertices, n: int, tree: TreeModel) -> None:
    """Raise InvalidAddressError, as `_children` does, at the lowest spine
    vertex that n parent steps from ``vertices`` climb onto without its spine
    child; `_p_n` and `_apply_B_pow` do not check.  Each spine vertex is
    checked once per tree; one that fails raises again on every call."""
    if tree.rooted:
        return
    tops: dict[int, int] = {}  # the spine levels k in low < k <= top are reached
    for up, path in vertices:
        top = up + n - len(path)
        if top > tops.get(up, up):
            tops[up] = top
    checked = tree.spine_checked  # the spine levels 1..checked hold their spine child
    for low in sorted(tops):
        for k in range(max(low, checked) + 1, tops[low] + 1):
            _children(VertexAddress(k, ()), tree)
        if low <= checked == tree.spine_checked:  # no level below is left unchecked
            tree.spine_checked = max(checked, tops[low])
        checked = max(checked, tops[low])


def chi_n(v, n: int, tree: TreeModel) -> Iterator[VertexAddress]:
    """All descendants exactly ``n`` generations below ``v``, depth-first in
    child-index order.  ``chi_n(v, 0)`` yields ``v`` itself.
    Errors are raised on the first ``next()``, before anything is yielded."""
    yield from _typed_fiber(v, n, tree)[0]


def _typed_fiber(v, n: int, tree: TreeModel) -> tuple[list, list]:
    """``(addresses, types)`` of Chi^n(v), both in depth-first order.

    Levels that hold a spine vertex go vertex by vertex, each level the
    children of the previous one in order, which at a fixed depth is the
    depth-first order.  The remaining depth is split in two: the top part is
    swept from each start vertex and the bottom part from each distinct type
    on the split level, as child-index suffixes with their types
    (`_suffixes`).  Each fiber address is then built once, as a top path
    joined to a bottom suffix."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    tree.check(v)
    new = tuple.__new__
    level = [VertexAddress(v[0], tuple(v[1]))]
    spine_levels = min(n, 0 if level[0].path else level[0].up)
    for _ in range(spine_levels):  # the level holds the spine vertex (up - k; )
        level = [c for w in level for c in _children(w, tree)]
    n -= spine_levels
    h = n // 2
    top = [(w[0], w[1] + s, t) for w in level
           for s, t in zip(*_suffixes(tree.type_of(w), n - h, tree))]
    bottom = {t: _suffixes(t, h, tree) for t in dict.fromkeys(t for _, _, t in top)}
    fiber = [new(VertexAddress, (up, path + s)) for up, path, t in top for s in bottom[t][0]]
    return fiber, [k for _, _, t in top for k in bottom[t][1]]


def _suffixes(t, n: int, tree: TreeModel) -> tuple[list, list]:
    """``(suffixes, types)`` of the fiber n levels below a vertex of type
    ``t``: the child-index paths from that vertex and the types at their
    ends, in depth-first order, swept level by level over types."""
    child_types = tree.child_types
    suffixes, kinds = [()], [t]
    for _ in range(n):
        kids = list(map(child_types, kinds))
        suffixes = [s + (i,) for s, ks in zip(suffixes, kids) for i in range(len(ks))]
        kinds = [c for ks in kids for c in ks]
    return suffixes, kinds


def _remember(memo: dict, key, value) -> None:
    """``memo[key] = value``, clearing the memo first when it is full."""
    if len(memo) >= MEMO_SIZE:
        memo.clear()
    memo[key] = value


def _step(level: dict, tree: TreeModel) -> dict:
    """The ``{type: count}`` level one generation below ``level``, its types
    in the order of their first vertices in the depth-first fiber."""
    below = {}
    get = below.get
    for u, m in level.items():
        for c in tree.child_types(u):
            below[c] = get(c, 0) + m
    return below


def _fiber_types(t, n: int, tree: TreeModel) -> dict:
    """``{type: count}`` of the fiber n generations below a vertex of type
    ``t``, in `_step` order, memoised in ``tree.levels`` under ``(t, n)``: the
    merge of its child types' levels at n - 1 if memoised (the fiber is theirs
    in turn), else a sweep from the deepest memoised level of ``t``."""
    memo = tree.levels
    if (level := memo.get((t, n))) is not None:
        return level
    parts = [memo.get((c, n - 1)) for c in tree.child_types(t)] if n > 0 else [None]
    if len(parts) == 1 and parts[0] is not None:  # one child type: its level, shared
        level = parts[0]
    elif None not in parts:
        level = {}
        for part in parts:
            for u, m in part.items():
                level[u] = level.get(u, 0) + m
    else:
        for k in range(n - 1, 0, -1):
            if (level := memo.get((t, k))) is not None:
                break
        else:
            k, level = 0, {t: 1}
        for _ in range(k, n):
            level = _step(level, tree)
    _remember(memo, (t, n), level)
    return level


def _spine_fiber(v: VertexAddress, n: int, tree: TreeModel) -> tuple[VertexAddress, dict]:
    """``(p^n v, {type: count} of Chi^n(p^n v))``; ``v`` must be checked.  The
    children's levels at n - 1 are read and merged; in a j row the read at
    n - 1 left the one below p^(n-1) v, and a cold read reads the row first."""
    s = _p_n(v, n, tree)
    if n > 0:
        if (tree.type_of(_p_n(v, n - 1, tree)), n - 1) not in tree.levels:
            for k in range(n):  # fails where the row fails, at its lowest step
                _spine_fiber(v, k, tree)
        for c in tree.child_types(tree.type_of(s)):
            _fiber_types(c, n - 1, tree)
    return s, _fiber_types(tree.type_of(s), n, tree)


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
    rules takes no value on it that the walk has not met already.  Where
    every vertex is its own type, every vertex is yielded.
    """
    yield from _preorder(tree, trunc, tree.type_of)


def _preorder(tree: TreeModel, trunc: Truncation, key_of) -> Iterator[VertexAddress]:
    """The walk of both enumerations, one anchor-level start at a time;
    ``key_of`` skips repeated (type, remaining depth) subtrees.  Starts are
    never skipped: above the anchor, a start's walked subtree leaves out its
    spine child, which is the next start (`_walk_children`)."""
    seen = set()
    for start in _starts(tree, trunc):
        stack = [(start, trunc.depth)]
        while stack:
            w, r = stack.pop()
            if key_of is not None and w is not start:
                key = (key_of(w), r)
                if key in seen:
                    continue
                seen.add(key)
            yield w
            if r > 0:
                stack.extend((c, r - 1) for c in reversed(_walk_children(w, tree)))


def _starts(tree: TreeModel, trunc: Truncation) -> list[VertexAddress]:
    """The anchor and, on an unrooted tree, the spine up to ``ancestry``."""
    return [VertexAddress(a) for a in range((trunc.ancestry if tree.kind == UNROOTED else 0) + 1)]


def _walk_children(w: VertexAddress, tree: TreeModel) -> list[VertexAddress]:
    """The children of ``w`` that a truncation walk enters: all of them, but
    a spine vertex (a; ) leaves out its spine child (a - 1; ), a start of its
    own.  A spine child index out of range is not an error here: the
    children are then all off the spine, and `validate` reports the index."""
    up, path = w
    if up and not path:
        s = tree.spine_child_index(up - 1)
        return [VertexAddress(up, (i,)) for i in range(tree.arity(w)) if i != s]
    return _children(w, tree)


@record(frozen=True)
class Violation:
    code: str
    where: str
    detail: str


@record
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
    nonzero weights, nonnegative arity and spine child indices below the
    arity; edge-backed data additionally for unique parents, circuits and
    connectedness to the anchor.  Parent/child coherence needs no check:
    children are built from their parent's address, and the parent map
    inverts both forms.  Violations are report entries, never raises.

    The vertices are checked in the order of `enumerate_truncation`, up to
    `_MAX_VIOLATIONS` violations.  Vertices of one type have equal rules and
    subtrees, so a subtree whose (type, remaining depth) heads a walked
    subtree without violations has none either: it is counted, not walked.
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
    clean: dict = {}  # (type, remaining depth) -> size, for subtrees without violations
    for start in _starts(tree, trunc):  # a start's walked subtree leaves out the spine: no key
        stack = [(start, trunc.depth, None)]
        while stack:
            v, r, key = stack.pop()
            if v is None:  # leaving the subtree of key, entered at the counts r
                if r[1] == len(violations):
                    clean[key] = checked - r[0]
                continue
            if len(violations) >= _MAX_VIOLATIONS:
                break
            if key in clean:
                checked += clean[key]
                continue
            if key is not None:
                stack.append((None, (checked, len(violations)), key))
            checked += 1
            a = tree.arity(v)
            if a < 0:
                violations.append(Violation("NegativeArity", str(v), f"arity {a}"))
                continue
            if tree.weight(v) == 0:
                violations.append(Violation("ZeroWeight", str(v), "weight must be nonzero"))
            if r > 0:
                stack.extend((c, r - 1, (tree.type_of(c), r - 1))
                             for c in reversed(_walk_children(v, tree)))
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
    return _index_edge_data(data)[1]()


def _index_edge_data(data: EdgeData) -> tuple[ValidationReport, Callable[[], TreeModel]]:
    """``validate_edge_data(data)`` and a builder of new TreeModels of the
    edge list, which raises TreeSpecError unless the report is ok.  The
    builders share the child lists and the address-to-label map made here."""
    report = validate_edge_data(data)
    kids: dict[str, list[str]] = {}
    for u, v in data.edges:
        kids.setdefault(u, []).append(v)
    for u in kids:
        kids[u].sort()
    addr_to_label: dict[VertexAddress, str] = {}
    stack = [(data.anchor, ANCHOR)] if report.ok else []  # a walk needs a tree
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

    def build() -> TreeModel:
        if not report.ok:
            raise TreeSpecError("invalid edge list: " + "; ".join(
                f"{v.code} at {v.where}" for v in report.violations))
        return TreeModel(ROOTED, arity, weight, name="edge-list", edge_data=data)

    return report, build
