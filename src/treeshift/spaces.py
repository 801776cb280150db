"""Weighted sequence-space structure on finitely supported vectors.

Arithmetic is polymorphic over the scalar types that flow in: with Fraction
weights and entries (and an integer exponent) sums stay exact rationals; with
floats everything degrades gracefully to double precision.  Only the final
p-th root forces a float.

`DualExponent` resolves its exponent once, when it is built, so that the
per-entry ``power`` of a norm or a fiber is one ``**``.  A `SparseVector`
never stores a zero: its constructor filters them out of whatever it is given,
while vectors the library builds from dicts that already hold none (sums,
scalar multiples, ``simplex.build_Sn`` and the merged recurrent vector, B^n
results and orbit copies in ``shifts``) are wrapped by `_vector` without the
copy and the filter.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from fractions import Fraction
from typing import IO, Iterator, Optional

from .errors import InvalidAddressError
from .trees import (
    TreeModel,
    VertexAddress,
    _fiber_types,
    _remember,
    chi_n,
    format_address,
    parse_address,
)


def to_float(x) -> float:
    """float(x) with huge exact rationals clamped to inf instead of raising."""
    try:
        return float(x)
    except OverflowError:
        return math.inf if x > 0 else -math.inf


def safe_div(num, denom):
    """num / denom that never raises on magnitude: exact Fractions for
    rational inputs (big integer counts stay exact), inf past float range."""
    if isinstance(num, (int, Fraction)) and isinstance(denom, (int, Fraction)):
        return Fraction(num) / denom
    try:
        return num / denom
    except OverflowError:
        return math.inf


@dataclass(frozen=True)
class DualExponent:
    """An exponent r in [1, inf] and the arithmetic built on it.
    ``SpaceSpec.dual`` is the conjugate exponent p* of a space, and its
    ``conjugate`` the space's own exponent, the one of its norm.

    Conventions: l^p (1 < p < inf) has p* = p/(p-1), c0 has p* = 1 and l^1
    has p* = inf.  Powered terms |x|^r combine by sum, or by max when r = inf
    (r = 1 and r = inf leave |x| unpowered); quantities compared with a
    threshold N are r-th roots of such masses, so N is raised to r instead.
    Masses stay exact for rational inputs and integer r; roots are floats.
    This class is the only code that knows these conventions.
    """

    r: object  # int, Fraction (non-integer) or math.inf
    plain: bool = field(init=False, repr=False, compare=False)
    # Resolved once: the exponent of ``power`` (an int keeps rationals exact,
    # a float goes through to_float), 1/r for ``root``, and the hash.
    _exponent: object = field(init=False, repr=False, compare=False)
    _exact: bool = field(init=False, repr=False, compare=False)
    _inverse: float = field(init=False, repr=False, compare=False)
    _hash: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        r = self.r
        if isinstance(r, Fraction) and r.denominator == 1:
            r = r.numerator
        e = float(r) if isinstance(r, Fraction) else r
        if isinstance(e, float) and e.is_integer():
            e = int(e)
        vars(self).update(
            r=r,
            plain=r == 1 or r == math.inf,
            _exponent=e,
            _exact=isinstance(e, int),
            _inverse=1.0 / float(r),
            _hash=hash((r,)),
        )

    def __hash__(self):
        return self._hash

    @property
    def is_max(self) -> bool:
        """r = inf (l^1): terms combine by max, simplex minimisers concentrate."""
        return self.r == math.inf

    @property
    def rational(self) -> bool:
        """Whether powers of rationals stay rational (r an integer or inf)."""
        return not isinstance(self.r, Fraction)

    @cached_property
    def conjugate(self) -> "DualExponent":
        """The exponent r' with 1/r + 1/r' = 1."""
        if self.r == 1:
            return DualExponent(math.inf)
        if self.is_max:
            return DualExponent(1)
        return DualExponent(Fraction(self.r) / (self.r - 1))

    def power(self, x):
        """|x|^r, exact for rational x and integer r; |x| for r = 1 or inf."""
        if self.plain:
            return abs(x)
        if self._exact:
            return abs(x) ** self._exponent
        return to_float(abs(x)) ** self._exponent

    def combine(self, terms):
        """Sum of the powered terms, or their max for r = inf (0 if none)."""
        return max(terms, default=0) if self.is_max else sum(terms)

    def root(self, mass):
        """The r-th root of a mass as a float; the mass itself for r = 1, inf."""
        return mass if self.plain else to_float(mass) ** self._inverse

    def threshold(self, N):
        """A threshold N in the scale of masses: N^r, or N for r = 1, inf."""
        return N if self.plain else self.power(N)

    def mass(self, pairs, div=safe_div):
        """The mass of (weight, count) pairs: sum count/|w|^r, with ``div``
        as the division.  For r = inf, where the terms 1/|w| combine by max,
        the mass is min |w| instead, so that the l^1 simplex infimum is that
        weight itself and not a rounded 1/fl(1/w)."""
        if self.is_max:
            return min(abs(w) for w, _ in pairs)
        return sum(div(count, self.power(w)) for w, count in pairs)

    def combined(self, mass):
        """The combined terms 1/|w|^r a ``mass`` stands for, in the scale of
        ``threshold``: the mass itself, or 1/min |w| = max 1/|w| for r = inf."""
        return safe_div(1, mass) if self.is_max else mass

    def infimum(self, mass):
        """Infimum over the probability simplex of the norm of (x_j mu_j)_j,
        given the mass of the weights mu_j: min |mu_j| for r = inf, 1/mass for
        r = 1, mass^(-1/r) (a float) otherwise."""
        if self.is_max:
            return mass
        if self.r == 1:
            return 1 / mass
        return to_float(mass) ** (-1.0 / float(self.r))


@dataclass(frozen=True)
class SpaceSpec:
    """Which Banach space the vectors live in: l^p (1 <= p < inf) or c_0."""

    kind: str  # "lp" | "c0"
    p: Optional[Fraction] = None

    @staticmethod
    def ell(p) -> "SpaceSpec":
        p = Fraction(p)
        if p < 1:
            raise ValueError(f"p must satisfy 1 <= p < inf, got {p}")
        return SpaceSpec("lp", p)

    @staticmethod
    def c_zero() -> "SpaceSpec":
        return SpaceSpec("c0", None)

    @staticmethod
    def parse(text: str) -> "SpaceSpec":
        text = text.strip().lower()
        if text in ("c0", "c_0"):
            return SpaceSpec.c_zero()
        return SpaceSpec.ell(Fraction(text))

    def __post_init__(self):
        if self.kind not in ("lp", "c0"):
            raise ValueError(f"unknown space kind {self.kind!r}")
        if self.kind == "lp" and (self.p is None or self.p < 1):
            raise ValueError("l^p spaces need p >= 1")

    @property
    def conjugate(self):
        """p* = p/(p-1); math.inf for p = 1; undefined (None) for c0."""
        return self.dual.r if self.kind == "lp" else None

    @cached_property
    def dual(self) -> DualExponent:
        """The conjugate exponent p* of the space: 1 for c0, inf for l^1."""
        return DualExponent(math.inf if self.kind == "c0" else self.p).conjugate

    @property
    def label(self) -> str:
        if self.kind == "c0":
            return "c0"
        p = self.p
        return f"l^{p.numerator}" if p.denominator == 1 else f"l^{p}"


class SparseVector:
    """Finitely supported function from vertex addresses to scalars.

    Zero values are never stored; off-support lookups return 0.  Instances are
    immutable by convention: all arithmetic returns new vectors.
    """

    __slots__ = ("_entries",)

    def __init__(self, entries=None):
        d = {}
        if entries:
            items = entries.items() if hasattr(entries, "items") else entries
            for v, x in items:
                if x != 0:
                    d[v] = x
        self._entries = d

    def items(self):
        return self._entries.items()

    def support(self):
        return self._entries.keys()

    def __getitem__(self, v):
        return self._entries.get(v, 0)

    def __contains__(self, v) -> bool:
        return v in self._entries

    def __len__(self) -> int:
        return len(self._entries)

    def __iter__(self) -> Iterator[VertexAddress]:
        return iter(self._entries)

    def __bool__(self) -> bool:
        return bool(self._entries)

    def __eq__(self, other) -> bool:
        if isinstance(other, SparseVector):
            return self._entries == other._entries
        if other == 0:
            return not self._entries
        return NotImplemented

    def __hash__(self):
        return hash(frozenset(self._entries.items()))

    def __add__(self, other: "SparseVector") -> "SparseVector":
        d = dict(self._entries)
        for v, x in other.items():
            y = d.get(v, 0) + x
            if y == 0:
                d.pop(v, None)
            else:
                d[v] = y
        return _vector(d)

    def __sub__(self, other: "SparseVector") -> "SparseVector":
        return self + (-1) * other

    def __neg__(self) -> "SparseVector":
        return (-1) * self

    def __rmul__(self, scalar) -> "SparseVector":
        if scalar == 0:
            return SparseVector()
        # a float product can underflow to 0, which is dropped like any zero
        return _vector({v: y for v, x in self._entries.items() if (y := scalar * x) != 0})

    def __mul__(self, scalar) -> "SparseVector":
        return self.__rmul__(scalar)

    def __repr__(self) -> str:
        parts = ", ".join(
            f"{format_address(v)}: {x}" for v, x in sorted(self._entries.items())
        )
        return f"SparseVector({{{parts}}})"


def _vector(entries: dict) -> SparseVector:
    """A SparseVector that takes ``entries`` as they are, without the copy and
    zero filter of the constructor; for dicts the library built itself and
    owns, which hold no zero values."""
    out = SparseVector.__new__(SparseVector)
    out._entries = entries
    return out


def basis(v) -> SparseVector:
    """The characteristic vector e_v."""
    return SparseVector({VertexAddress(v[0], tuple(v[1])): 1})


def pairing(f: SparseVector, g: SparseVector):
    """Bilinear duality pairing sum_v f(v) g(v) (no conjugation)."""
    if len(g) < len(f):
        f, g = g, f
    total = 0
    for v, x in f.items():
        y = g[v]
        if y != 0:
            total += x * y
    return total


def _check_support(f: SparseVector, tree: TreeModel) -> None:
    for v in f.support():
        tree.check(v)


def _norm_mass(f: SparseVector, exponent: DualExponent, tree: TreeModel):
    """The mass of the weighted entries |f(v) mu_v| for the norm's exponent."""
    power, weight = exponent.power, tree.weight
    return exponent.combine(power(x * weight(v)) for v, x in f.items())


def norm_powered(f: SparseVector, spec: SpaceSpec, tree: TreeModel):
    """sum_v |f(v) mu_v|^p for an l^p space; exact when the inputs are."""
    if spec.kind != "lp":
        raise ValueError("norm_powered is only defined for l^p spaces")
    _check_support(f, tree)
    return _norm_mass(f, spec.dual.conjugate, tree)


def norm(f: SparseVector, spec: SpaceSpec, tree: TreeModel):
    """The space norm of a finitely supported vector.

    c0 uses the weighted sup norm, p = 1 the weighted absolute sum (both exact
    for exact inputs); for p > 1 the final root is taken in floats.
    """
    _check_support(f, tree)
    return _norm(f, spec, tree)


def _norm(f: SparseVector, spec: SpaceSpec, tree: TreeModel):
    """``norm`` of a vector whose support is already known to be valid."""
    if not f:
        return 0
    exponent = spec.dual.conjugate
    return exponent.root(_norm_mass(f, exponent, tree))


def fiber_mass(tree: TreeModel, v: VertexAddress, n: int, spec: SpaceSpec):
    """``(mass, combined)`` of the fiber Chi^n(v): ``spec.dual.mass`` of its
    weights (None for an empty fiber) and the ``combined`` terms that mass
    stands for (0 for an empty fiber).  ``v`` must be a checked VertexAddress.
    On a tree with vertex types the fiber is swept as (type, count) pairs
    (`trees._fiber_types`); without them it is enumerated.

    Every fiber quantity reads this one mass: q(v, n) is the p*-th root of
    ``combined`` and the fiber's simplex infimum is the mass's ``infimum``.
    Both are memoised on the tree (the memo is cleared when full), so they
    live as long as the tree; keeping ``combined`` spares the criteria a
    Fraction division per threshold comparison for l^1.
    """
    dual = spec.dual
    key = (v, n, dual)
    try:
        return tree.fiber_masses[key]
    except KeyError:
        pass
    if tree.types is None:
        level = [(u, 1) for u in chi_n(v, n, tree)]
    else:
        level = _fiber_types(v, n, tree).items()
    weight = tree.type_weight
    pairs = [(weight(t), count) for t, count in level]
    mass = dual.mass(pairs) if pairs else None
    entry = (mass, 0 if mass is None else dual.combined(mass))
    _remember(tree.fiber_masses, key, entry)
    return entry


def dump_vector(f: SparseVector, fp: IO[str]) -> None:
    """Write one `address<TAB>value` line per support vertex, sorted."""
    for v, x in sorted(f.items()):
        fp.write(f"{format_address(v)}\t{_format_scalar(x)}\n")


def load_vector(fp: IO[str]) -> SparseVector:
    """Read `address<TAB>value` lines; blank lines and ``#`` comments are
    skipped.  A malformed line raises InvalidAddressError naming it."""
    entries = {}
    for lineno, raw in enumerate(fp, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        try:
            addr_text, value_text = line.split("\t")
            entries[parse_address(addr_text)] = parse_scalar(value_text)
        except (ValueError, ZeroDivisionError, InvalidAddressError) as exc:
            raise InvalidAddressError(
                f"line {lineno}: expected 'address<TAB>value', got {line!r} ({exc})"
            ) from None
    return SparseVector(entries)


def _format_scalar(x) -> str:
    if isinstance(x, Fraction):
        return f"{x.numerator}/{x.denominator}"
    return repr(x)


def parse_scalar(text: str):
    """Parse int, Fraction ('3/4'), float, or complex scalar text."""
    text = text.strip()
    try:
        return int(text)
    except ValueError:
        pass
    if "/" in text:
        return Fraction(text)
    try:
        return float(text)
    except ValueError:
        pass
    try:
        return complex(text)
    except ValueError:
        raise ValueError(f"cannot parse scalar {text!r}") from None
