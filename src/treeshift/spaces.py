"""Weighted sequence-space structure on finitely supported vectors.

Arithmetic is polymorphic over the scalar types that flow in: with Fraction
weights and entries (and an integer exponent) sums stay exact rationals; with
floats everything degrades gracefully to double precision.  Only the final
p-th root forces a float.

`DualExponent` resolves its exponent once, when it is built, so that the
per-entry ``power`` of a norm or a fiber is one ``**``.  Its two masses, of
a norm (`DualExponent.weighted_mass`) and of a fiber (`DualExponent.mass`),
decide once whether they are exact: for an exponent of 1 or an integer and
inputs that are all ints or Fractions, the one accumulator `_rational_sum`
adds the terms as Python ints over one common denominator and one Fraction
is built at the end; any other input is summed term by term, left to right,
as ``sum`` does.

A `SparseVector` never stores a zero: its constructor filters them out of
whatever it is given, while vectors the library builds from dicts that
already hold none (sums, differences, scalar multiples, ``simplex.build_Sn``
and the merged recurrent vector, B^n and S results and orbit copies in
``shifts``) are wrapped by `_vector` without the copy and the filter.  Sums
store the first value that reaches an address as it is and add only when a
second one reaches it, so an entry is built once per addition, not per
address.

A vector's addresses are checked once per tree: `_check_support` records
the tree's ``token`` (a plain ``object()``, which does not keep the tree
alive) on the vector and returns at once for a vector that carries it.
Vectors the library builds on a tree are born with its token; sums and
differences keep the token their operands share, scalar multiples their
operand's.  A pickled or copied vector has a new token: it is checked again.
"""

from __future__ import annotations

import math
import operator
from functools import cached_property
from fractions import Fraction
from itertools import repeat
from typing import IO, Iterator, Optional

from ._record import record
from .errors import InvalidAddressError, WorkBudgetError
from .trees import (
    TreeModel,
    VertexAddress,
    _fiber_types,
    _remember,
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


@record(frozen=True)
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

    def __post_init__(self):
        # Resolved once, outside the fields but set as they are, so that they
        # stay inline: ``plain``, the exponent of ``power`` (an int keeps
        # rationals exact), 1/r for ``root``, and the hash.
        r = self.r
        if isinstance(r, Fraction) and r.denominator == 1:
            r = r.numerator
        e = float(r) if isinstance(r, Fraction) else r
        if isinstance(e, float) and e.is_integer():
            e = int(e)
        # ``_max_bits``: the longest int whose exact power stays within
        # MAX_POWER_BITS (no bound where nothing is powered), worked out here
        # once instead of per term.
        for name, value in (("r", r), ("plain", r == 1 or r == math.inf), ("_exponent", e),
                            ("_exact", isinstance(e, int)), ("_inverse", 1.0 / float(r)),
                            ("_max_bits", MAX_POWER_BITS // e if isinstance(e, int) and e > 1 else math.inf),
                            ("_hash", hash((r,)))):
            object.__setattr__(self, name, value)

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

    @property
    def conjugate(self) -> "DualExponent":
        """The exponent r' with 1/r + 1/r' = 1."""
        if self.r == 1:
            return DualExponent(math.inf)
        if self.is_max:
            return DualExponent(1)
        return DualExponent(Fraction(self.r) / (self.r - 1))

    def power(self, x):
        """|x|^r, exact for rational x and integer r; |x| for r = 1 or inf.
        An exact power past the size budget raises WorkBudgetError."""
        if self.plain:
            return abs(x)
        if self._exact:
            if type(x) in _RATIONAL and (x.numerator.bit_length() > self._max_bits
                                         or x.denominator.bit_length() > self._max_bits):
                self._budget((x.numerator, x.denominator))
            return abs(x) ** self._exponent
        return to_float(abs(x)) ** self._exponent

    def combine(self, terms):
        """Sum of the powered terms, or their max for r = inf (0 if none)."""
        return max(terms, default=0) if self.is_max else sum(terms)

    def weighted_mass(self, values, weights):
        """``combine`` of the powered terms |x w|^r of the paired ``values``
        and ``weights`` (two sequences): the mass of a norm.  The terms are
        added by `_rational_sum` or by ``combine`` as in ``mass``; an exact
        norm mass is an int when every input is an int."""
        if self._exact:
            types = {*map(type, values), *map(type, weights)}
            if types <= _RATIONAL:
                e = repeat(self._exponent)
                nums = [abs(x.numerator * w.numerator) for x, w in zip(values, weights)]
                dens = [x.denominator * w.denominator for x, w in zip(values, weights)]
                self._budget(nums + dens)
                num, den = _rational_sum(zip(map(pow, nums, e), map(pow, dens, e)))
                return Fraction(num, den) if Fraction in types else num
        return self.combine(map(self.power, map(operator.mul, values, weights)))

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
        weight itself and not a rounded 1/fl(1/w).

        With the default ``div``, r = 1 or an integer r, int or Fraction
        weights and int counts, the terms are added by `_rational_sum`: a
        Fraction (0 for no pairs) equal to the ``sum`` of the ``safe_div``
        terms.  Any other mass is that ``sum``, left to right, bit for bit;
        with the default ``div``, one pair's mass is its one term (0 + x = x)."""
        if self.is_max:
            return min(abs(w) for w, _ in pairs)
        if div is safe_div:
            pairs = list(pairs)  # read twice: the type check, then the sum
            if len(pairs) == 1:
                (w, count), = pairs
                if not (self._exact and type(w) in _RATIONAL and type(count) is int):
                    return safe_div(count, self.power(w))
                num, den, e = abs(w.numerator), w.denominator, self._exponent
                self._budget((num, den))
                return Fraction(count * den ** e, num ** e)
            if self._exact and all(type(w) in _RATIONAL and type(c) is int for w, c in pairs):
                e = repeat(self._exponent)
                nums = [abs(w.numerator) for w, _ in pairs]
                dens = [w.denominator for w, _ in pairs]
                self._budget(nums + dens)
                counts = [count for _, count in pairs]
                num, den = _rational_sum(zip(map(operator.mul, counts, map(pow, dens, e)),
                                             map(pow, nums, e)))
                return Fraction(num, den) if pairs else 0
        return sum(div(count, self.power(w)) for w, count in pairs)

    def _budget(self, ints) -> None:
        """Raise WorkBudgetError if the exact r-th power of one of ``ints``
        would pass MAX_POWER_BITS: |x|^r has about r * bit_length(x) bits."""
        bits = max(map(int.bit_length, ints), default=0)
        if bits > self._max_bits:
            raise WorkBudgetError(
                f"an exact power |x|^{self._exponent} would have about {bits * self._exponent} "
                f"bits, past the budget of {MAX_POWER_BITS} bits")

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


_RATIONAL = {int, Fraction}

# The most bits an exact power |x|^r may have: 2^20 bits, 128 KiB.
MAX_POWER_BITS = 1 << 20


def _rational_sum(terms):
    """The sum of the fractions a/b given as int pairs ``(a, b)``, b > 0, as
    an int pair ``(num, den)``: the one exact accumulator of norm and fiber
    masses.  The terms are added as Python ints over one common denominator,
    which grows by the part of a term's denominator it lacks, so the caller
    builds one Fraction at the end instead of one per term."""
    num, den = 0, 1
    gcd = math.gcd
    for a, b in terms:
        if den % b:
            scale = b // gcd(den, b)
            num, den = num * scale, den * scale
        num += a * (den // b)
    return num, den


@record(frozen=True)
class SpaceSpec:
    """Which Banach space the vectors live in: l^p (1 <= p < inf) or c_0."""

    kind: str  # "lp" | "c0"
    p: Optional[Fraction] = None

    @staticmethod
    def ell(p) -> "SpaceSpec":
        return SpaceSpec("lp", Fraction(p))

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
        p = self.p
        if self.kind not in ("lp", "c0"):
            raise ValueError(f"unknown space kind {self.kind!r}")
        if self.kind == "lp" and (p is None or p < 1):
            raise ValueError(f"p must satisfy 1 <= p < inf, got {p}")
        if self.kind == "lp" and p > 1 and to_float(max(p, p / (p - 1))) == math.inf:
            raise ValueError("l^p needs p and p* = p/(p-1) within float range")

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

    __slots__ = ("_entries", "_checked")  # _checked: a tree's token, or None

    def __init__(self, entries=None):
        items = () if not entries else entries.items() if hasattr(entries, "items") else entries
        self._entries = {v: x for v, x in items if x != 0}
        self._checked = None

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
        get = d.get
        for v, x in other.items():
            y = get(v)
            if y is None:  # the first value at v is stored as it is
                d[v] = x
            elif (y := y + x) == 0:
                del d[v]
            else:
                d[v] = y
        return _vector(d, self._checked if self._checked is other._checked else None)

    def __sub__(self, other: "SparseVector") -> "SparseVector":
        d = dict(self._entries)
        get = d.get
        for v, x in other.items():
            y = get(v)
            if y is None:
                d[v] = -x
            elif (y := y - x) == 0:
                del d[v]
            else:
                d[v] = y
        return _vector(d, self._checked if self._checked is other._checked else None)

    def __neg__(self) -> "SparseVector":
        return (-1) * self

    def __rmul__(self, scalar) -> "SparseVector":
        if scalar == 0:
            return _vector({}, self._checked)
        # a float product can underflow to 0, which is dropped like any zero
        return _vector({v: y for v, x in self._entries.items() if (y := scalar * x) != 0},
                       self._checked)

    def __mul__(self, scalar) -> "SparseVector":
        return self.__rmul__(scalar)

    def __repr__(self) -> str:
        parts = ", ".join(
            f"{format_address(v)}: {x}" for v, x in sorted(self._entries.items())
        )
        return f"SparseVector({{{parts}}})"


def _vector(entries: dict, checked=None) -> SparseVector:
    """A SparseVector that takes ``entries`` as they are, without the copy and
    zero filter of the constructor; for dicts the library built itself and
    owns, which hold no zero values, with the tree token ``checked``."""
    out = SparseVector.__new__(SparseVector)
    out._entries = entries
    out._checked = checked
    return out


def basis(v) -> SparseVector:
    """The characteristic vector e_v."""
    return SparseVector({VertexAddress(v[0], tuple(v[1])): 1})


def pairing(f: SparseVector, g: SparseVector):
    """Bilinear duality pairing sum_v f(v) g(v) (no conjugation)."""
    if len(g) < len(f):
        f, g = g, f
    get = g._entries.get
    total = 0
    for v, x in f.items():
        y = get(v)
        if y is not None:  # stored values are nonzero
            total += x * y
    return total


def _check_support(f: SparseVector, tree: TreeModel) -> None:
    """Check the addresses of ``f`` unless it carries the tree's token; then mark it."""
    if f._checked is not tree.token:
        for v in f._entries:
            tree.check(v)
        f._checked = tree.token


def _norm_mass(f: SparseVector, exponent: DualExponent, tree: TreeModel):
    """The mass of the weighted entries |f(v) mu_v| for the norm's exponent.
    Each weight is read by vertex type: the addresses of a vector are
    distinct, so a memo on addresses would only miss."""
    entries = f._entries
    weights = list(map(tree.type_weight, map(tree.type_of, entries)))
    return exponent.weighted_mass(entries.values(), weights)


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
    The fiber is the (type, count) level n generations below the type of
    ``v`` (`trees._fiber_types`), massed by `_level_mass`.

    Every fiber quantity reads this one mass: q(v, n) is the p*-th root of
    ``combined`` and the fiber's simplex infimum is the mass's ``infimum``.
    Both are memoised in ``tree.fiber_masses`` (cleared when full), so they
    live as long as the tree; keeping ``combined`` spares the criteria a
    Fraction division per threshold comparison for l^1.
    """
    return _level_mass(tree, None, spec.dual, (tree.type_of(v), n))


def _level_mass(tree: TreeModel, level: Optional[dict], dual: DualExponent, below: tuple):
    """`fiber_mass` of a fiber level given as ``{type: count}``, the level n
    generations below a vertex of type t, ``below`` = ``(t, n)``; a
    ``level`` of None is read from there (`trees._fiber_types`) when needed.
    The mass depends on the (type, count) pairs alone, so it is memoised in
    ``tree.fiber_masses`` under ``(dual, tuple(level.items()))`` and equal
    levels below different vertices are massed once; the order is part of
    the key because a float sum depends on it.

    On a tree where every vertex is its own type (``tree.own_types``),
    distinct vertices never share a non-empty level, and the key of a level
    as long as its fiber would cost as much as the fiber.  There the key is
    ``(dual, t, n)``, and the level is read only on a miss, so that a repeat
    read costs O(1)."""
    if tree.own_types:
        key = (dual, *below)
    else:
        if level is None:
            level = _fiber_types(*below, tree)
        key = (dual, tuple(level.items()))
    entry = tree.fiber_masses.get(key)
    if entry is None:
        if level is None:
            level = _fiber_types(*below, tree)
        pairs = [(tree.type_weight(t), count) for t, count in level.items()]
        mass = dual.mass(pairs) if pairs else None
        entry = mass, 0 if mass is None else dual.combined(mass)
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
