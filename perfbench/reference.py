"""Independent reference values for the `enum` workload's tree-spec documents.

Nothing here imports treeshift.  A rule tree as the benchmark generates it has
no arity overrides, so every vertex at a given signed depth has the same arity
and, off the override set, the same weight.  Fiber counts are then products of
per-level arities and the fiber quantities have a closed form: the generic
vertices of the level plus a correction for each weight override inside the
fiber.  Edge-list trees are small and are enumerated directly.

All masses are exact `Fraction`s; the callers compare floats printed with
12 significant digits against them with a relative tolerance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional

Address = tuple  # (up, path-tuple), canonical


def signed_depth(v: Address) -> int:
    return len(v[1]) - v[0]


def parse_address(text: str) -> Address:
    up, _, body = text.strip()[1:-1].partition(";")
    body = body.strip()
    return (int(up), tuple(int(x) for x in body.split(".")) if body else ())


def ancestor(v: Address, n: int, rooted: bool) -> Optional[Address]:
    """The n-fold parent by address arithmetic; None above a rooted tree's root."""
    up, path = v
    if n <= len(path):
        return (up, path[: len(path) - n])
    return None if rooted else (up + n - len(path), ())


def format_address(v: Address) -> str:
    return f"({v[0]}; {'.'.join(map(str, v[1]))})"


@dataclass
class Space:
    """kind is 'lp' or 'c0'; dual is p* (an int or Fraction), None for p = 1."""

    kind: str
    p: Optional[Fraction] = None

    @staticmethod
    def parse(text: str) -> "Space":
        return Space("c0") if text == "c0" else Space("lp", Fraction(text))

    @property
    def sup(self) -> bool:
        return self.kind == "lp" and self.p == 1

    @property
    def dual(self):
        q = self.p / (self.p - 1)
        return q.numerator if q.denominator == 1 else q

    def term(self, w):
        """The per-vertex summand 1/|w|^p* (l^p, p > 1) or 1/|w| (l^1, c0)."""
        if self.kind == "lp" and not self.sup:
            return _pow(Fraction(1) / abs(w), self.dual)
        return Fraction(1) / abs(w)

    def finish(self, mass) -> float:
        """The 'compare with N' scale used by q_value and j_value."""
        m = float(mass)
        if self.kind == "lp" and not self.sup and m not in (0.0, math.inf):
            return m ** (1.0 / float(self.dual))
        return m

    def bound_term(self, w_parent, child_weights):
        """A vertex's operator-norm quantity: max |w_v/w_u| (l^1),
        sum |w_v/w_u|^p* (l^p), sum |w_v/w_u| (c0) over its children u."""
        ratios = [abs(Fraction(w_parent) / w) for w in child_weights]
        if self.sup:
            return max(ratios)
        if self.kind == "lp":
            return sum(_pow(r, self.dual) for r in ratios)
        return sum(ratios)


def _pow(x: Fraction, e):
    if isinstance(e, int):
        return x ** e
    return Fraction(float(x) ** float(e))


@dataclass
class RuleTree:
    """A custom tree-spec tree: generic arity/weight per level plus weight
    overrides at canonical addresses."""

    kind: str  # "rooted" | "unrooted"
    arity_default: int = 0
    by_level: Optional[list] = None
    spine_index: int = 0
    weight_default: Fraction = Fraction(1)
    coef: Optional[Fraction] = None
    ratio: Optional[Fraction] = None
    overrides: dict = field(default_factory=dict)

    @property
    def rooted(self) -> bool:
        return self.kind == "rooted"

    def arity(self, d: int) -> int:
        if self.by_level is not None and d >= 0:
            return self.by_level[min(d, len(self.by_level) - 1)]
        return self.arity_default

    def generic_weight(self, d: int) -> Fraction:
        if self.ratio is not None:
            return self.coef * self.ratio ** d
        return self.weight_default

    def weight(self, v: Address) -> Fraction:
        w = self.overrides.get(v)
        return self.generic_weight(signed_depth(v)) if w is None else w

    def count(self, d: int, n: int) -> int:
        """|Chi^n(v)| for any vertex v at signed depth d."""
        return math.prod(self.arity(d + i) for i in range(n))

    def ancestor(self, v: Address, n: int) -> Optional[Address]:
        return ancestor(v, n, self.rooted)

    def children(self, v: Address) -> list:
        up, path = v
        a = self.arity(signed_depth(v))
        if up > 0 and not path:
            return [(up - 1, ()) if i == self.spine_index else (up, (i,)) for i in range(a)]
        return [(up, path + (i,)) for i in range(a)]

    def parent(self, v: Address) -> Optional[Address]:
        return self.ancestor(v, 1)

    # -- fiber quantities ---------------------------------------------------

    def fiber_mass(self, v: Address, n: int, space: Space):
        d = signed_depth(v) + n
        inside = [w for o, w in self.overrides.items()
                  if signed_depth(o) == d and self.ancestor(o, n) == v]
        generic = self.count(signed_depth(v), n) - len(inside)
        terms = [space.term(w) for w in inside]
        g = space.term(self.generic_weight(d))
        if space.sup:
            return max(terms + ([g] if generic else []), default=Fraction(0))
        return generic * g + sum(terms, Fraction(0))

    def q(self, v: Address, n: int, space: Space) -> float:
        return space.finish(self.fiber_mass(v, n, space))

    def j(self, v: Address, n: int, space: Space) -> float:
        s = self.ancestor(v, n)
        spine = space.term(self.weight(s))
        fiber = self.fiber_mass(s, n, space)
        return space.finish(max(spine, fiber) if space.sup else spine + fiber)

    # -- truncation window --------------------------------------------------

    def level_size(self, d: int, depth: int, ancestry: int) -> int:
        """Vertices at signed depth d inside the truncation window."""
        total = self.count(0, d) if 0 <= d <= depth else 0
        if not self.rooted:
            for a in range(1, ancestry + 1):
                g = d + a
                if g == 0:
                    total += 1
                elif 1 <= g <= depth:
                    total += self.count(-a, g) - self.count(-a + 1, g - 1)
        return total

    def in_window(self, v: Address, depth: int, ancestry: int) -> bool:
        return len(v[1]) <= depth and (v[0] == 0 or (not self.rooted and v[0] <= ancestry))

    def window_size(self, depth: int, ancestry: int) -> int:
        top = 0 if self.rooted else ancestry
        return sum(self.level_size(d, depth, ancestry) for d in range(-top, depth + 1))

    def operator_norm(self, space: Space, depth: int, ancestry: int) -> float:
        """Supremum over the window of the per-vertex boundedness quantity."""
        affected = set()
        for o in self.overrides:
            for v in (o, self.parent(o)):
                if v is not None and self.in_window(v, depth, ancestry):
                    affected.add(v)
        top = 0 if self.rooted else ancestry
        best = Fraction(0)
        for d in range(-top, depth + 1):
            at_level = sum(1 for v in affected if signed_depth(v) == d)
            if self.arity(d) > 0 and self.level_size(d, depth, ancestry) > at_level:
                best = max(best, space.bound_term(self.generic_weight(d),
                                                  [self.generic_weight(d + 1)] * self.arity(d)))
        for v in affected:
            kids = self.children(v)
            if kids:
                best = max(best, space.bound_term(self.weight(v), [self.weight(u) for u in kids]))
        return space.finish(best)


@dataclass
class EdgeTree:
    """A finite rooted edge-list tree; children are ordered by label."""

    anchor: str
    kids: dict  # label -> sorted child labels
    weights: dict  # label -> Fraction

    def label(self, v: Address) -> str:
        lab = self.anchor
        for i in v[1]:
            lab = self.kids[lab][i]
        return lab

    def fiber(self, lab: str, n: int) -> list:
        level = [lab]
        for _ in range(n):
            level = [c for u in level for c in self.kids.get(u, ())]
        return level

    def q(self, v: Address, n: int, space: Space) -> float:
        terms = [space.term(self.weights[u]) for u in self.fiber(self.label(v), n)]
        if space.sup:
            return space.finish(max(terms, default=Fraction(0)))
        return space.finish(sum(terms, Fraction(0)))

    def window_size(self, depth: int) -> int:
        return sum(len(self.fiber(self.anchor, d)) for d in range(depth + 1))

    def operator_norm(self, space: Space, depth: int) -> float:
        best = Fraction(0)
        for d in range(depth + 1):
            for u in self.fiber(self.anchor, d):
                kids = self.kids.get(u, ())
                if kids:
                    best = max(best, space.bound_term(
                        self.weights[u], [self.weights[c] for c in kids]))
        return space.finish(best)
