"""Norms, pairing, basis vectors and vector text I/O."""

import io
import math
import pickle
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import treeshift as ts
from treeshift import VertexAddress as VA
from treeshift.presets import chain_vertex

from conftest import outcome, random_sparse_vector, spec_documents

L1 = ts.SpaceSpec.ell(1)
L2 = ts.SpaceSpec.ell(2)
L3 = ts.SpaceSpec.ell(3)
C0 = ts.SpaceSpec.c_zero()


def test_space_spec_parsing():
    assert ts.SpaceSpec.parse("2") == L2
    assert ts.SpaceSpec.parse("c0") == C0
    assert ts.SpaceSpec.parse("4/3").p == Fraction(4, 3)
    for text in ("0.5", "1e400", "1." + "0" * 399 + "1"):  # p < 1, p and p* past float range
        with pytest.raises(ValueError):
            ts.SpaceSpec.parse(text)


def test_conjugate_exponent():
    assert L2.conjugate == 2
    assert L1.conjugate == math.inf
    assert ts.SpaceSpec.ell(Fraction(4, 3)).conjugate == 4
    assert ts.SpaceSpec.ell(4).conjugate == Fraction(4, 3)
    assert C0.conjugate is None


def test_norm_of_basis_vector_is_weight(ex72):
    u2 = chain_vertex(0, 2)
    assert ts.norm(ts.basis(u2), L2, ex72) == pytest.approx(0.25)
    assert ts.norm(ts.basis(u2), L1, ex72) == pytest.approx(0.25)
    assert ts.norm(ts.basis(u2), C0, ex72) == pytest.approx(0.25)


def test_norm_example_7_2_difference(ex72):
    f = ts.basis(chain_vertex(0, 1)) - ts.basis(chain_vertex(1, 1))
    assert ts.norm(f, L2, ex72) == pytest.approx(2 ** -0.5, rel=1e-12)


def test_norm_zero_vector(binary):
    assert ts.norm(ts.SparseVector(), L2, binary) == 0


_BAD = VA(0, (0, 5))  # example_7_2: u_1 has one child


@pytest.mark.parametrize(
    "call",
    [
        pytest.param(lambda f, tree: ts.norm(f, L2, tree), id="norm"),
        pytest.param(lambda f, tree: ts.norm_powered(f, L2, tree), id="norm_powered"),
        pytest.param(lambda f, tree: ts.apply_B(f, tree), id="apply_B"),
        pytest.param(lambda f, tree: ts.apply_B_pow(f, 3, tree), id="apply_B_pow"),
        pytest.param(lambda f, tree: ts.apply_S(f, tree), id="apply_S"),
        pytest.param(lambda f, tree: ts.orbit(f, 3, tree, L2), id="orbit"),
        pytest.param(
            lambda f, tree: ts.return_set_report(
                ts.BallSpec(ts.basis(VA(0)), 0.5, L2), ts.BallSpec(f, 0.5, L2), 3, tree
            ),
            id="return_set_report",
        ),
        pytest.param(lambda f, tree: ts.q_value(_BAD, 2, tree, L2), id="q_value"),
        pytest.param(lambda f, tree: ts.j_value(_BAD, 2, tree, L2), id="j_value"),
        pytest.param(lambda f, tree: ts.I_set([_BAD], 1, tree, L2, 4), id="I_set"),
    ],
)
def test_norm_rejects_unresolvable_support(call, ex72):
    # user-built vectors and vertices are checked where they enter the library
    f = ts.SparseVector({_BAD: 1.0})
    with pytest.raises(ts.InvalidAddressError):
        call(f, ex72)


def test_norm_exact_mode(ex72_exact):
    f = ts.basis(chain_vertex(0, 1)) - ts.basis(chain_vertex(1, 1))
    powered = ts.norm_powered(f, L2, ex72_exact)
    assert powered == Fraction(1, 2)
    assert ts.norm(f, L1, ex72_exact) == Fraction(1, 1)


def test_pairing_examples():
    a, b = VA(0, (0,)), VA(0, (1,))
    assert ts.pairing(ts.basis(a), ts.basis(a)) == 1
    assert ts.pairing(ts.basis(a), ts.basis(b)) == 0
    f = 2 * ts.basis(a) + 3 * ts.basis(b)
    assert ts.pairing(f, ts.basis(b)) == 3


def test_basis_support(binary):
    e = ts.basis(VA(0))
    assert set(e.support()) == {VA(0)}
    assert e[VA(0)] == 1
    assert e[VA(0, (1,))] == 0


def test_sparse_vector_algebra():
    a, b = VA(0, (0,)), VA(0, (1,))
    f = 2 * ts.basis(a) + 3 * ts.basis(b)
    g = f - 2 * ts.basis(a)
    assert set(g.support()) == {b}
    assert (f - f) == 0
    assert len(-f) == 2


def test_scalar_multiples_store_no_zeros():
    f = ts.SparseVector({VA(0, (0,)): 1e-200, VA(0, (1,)): 1.0})
    g = 1e-200 * f  # the first entry underflows to 0.0
    assert list(g.items()) == [(VA(0, (1,)), 1e-200)]


def _old_powed(x, e):
    """Reference for ``DualExponent.power``: |x| ** e, with the exponent
    resolved on every call."""
    if isinstance(e, Fraction):
        e = e.numerator if e.denominator == 1 else float(e)
    if isinstance(e, float) and e.is_integer():
        e = int(e)
    base = abs(x)
    if isinstance(e, int):
        return base ** e
    return ts.spaces.to_float(base) ** e


def _old_formulas(r):
    """Reference power, root, threshold and mass built on ``_old_powed``."""
    plain = r == 1 or r == math.inf
    to_float, safe_div = ts.spaces.to_float, ts.spaces.safe_div

    def power(x):
        return abs(x) if plain else _old_powed(x, r)

    def mass(pairs):
        if r == math.inf:
            return min(abs(w) for w, _ in pairs)
        return sum(safe_div(count, power(w)) for w, count in pairs)

    return {
        "power": power,
        "root": lambda m: m if plain else to_float(m) ** (1.0 / float(r)),
        "threshold": lambda N: N if plain else _old_powed(N, r),
        "mass": mass,
    }


def _bits(f):
    """repr and type of f(), or the type of the error it raises."""
    try:
        y = f()
    except (ArithmeticError, ValueError) as exc:
        return type(exc)
    return repr(y), type(y)


_DUAL_INPUTS = [1, 2, -3, 7, 0.5, -1.25, 3.0, 1e-200, 1e200, Fraction(1, 3), Fraction(-7, 2),
                Fraction(10 ** 400), Fraction(-(10 ** 400), 3), Fraction(1, 10 ** 400)]


@pytest.mark.parametrize("r", [1, 2, 3, 4, Fraction(3, 2), Fraction(4, 3), math.inf])
def test_dual_exponent_arithmetic_is_unchanged(r):
    dual, old = ts.DualExponent(r), _old_formulas(r)
    for x in _DUAL_INPUTS:
        for name in ("power", "root", "threshold"):
            assert _bits(lambda: getattr(dual, name)(x)) == _bits(lambda: old[name](x)), (name, x)
        pairs = [(x, 2), (Fraction(1, 2), 1), (0.75, 3)]
        assert _bits(lambda: dual.mass(pairs)) == _bits(lambda: old["mass"](pairs)), x


_EXACT_WEIGHTS = st.one_of(st.integers(-10 ** 6, 10 ** 6).filter(bool),
                           st.fractions(max_denominator=10 ** 6).filter(bool))
_FLOAT_WEIGHTS = st.builds(lambda sign, x: sign * x, st.sampled_from([-1, 1]),
                           st.floats(1e-3, 1e3))


def _fraction_term(count, w, r):
    """count/|w|^r as the sum of safe_div terms has it: a Fraction for an
    exact weight and an integer r, a float otherwise."""
    if isinstance(w, (int, Fraction)) and isinstance(r, int):
        return Fraction(count) / abs(w) ** r
    return count / float(abs(w)) ** float(r)


@given(st.sampled_from([1, 2, 3, 4, Fraction(4, 3), Fraction(3, 2), math.inf]),
       st.sampled_from([_EXACT_WEIGHTS, _FLOAT_WEIGHTS, st.one_of(_EXACT_WEIGHTS, _FLOAT_WEIGHTS)]),
       st.data())
@settings(max_examples=300)
def test_fiber_mass_is_the_left_to_right_sum_of_its_terms(r, weights, data):
    """``mass`` of (weight, count) pairs equals the sum of the terms
    count/|w|^r written out here: exact masses in value and type (a
    Fraction), float and mixed ones by repr; min |w| for r = inf.  The
    pairs come as a list and as a generator, which can be read only once."""
    pairs = data.draw(st.lists(st.tuples(weights, st.integers(1, 2 ** 64)),
                               min_size=1 if r == math.inf else 0, max_size=8))
    if r == math.inf:
        want = min(abs(w) for w, _ in pairs)
    else:
        want = sum(_fraction_term(count, w, r) for w, count in pairs)
    for given_pairs in (pairs, (pair for pair in pairs)):
        got = ts.DualExponent(r).mass(given_pairs)
        assert (type(got), repr(got)) == (type(want), repr(want))


_HUGE_WEIGHTS = st.sampled_from([Fraction(1, 2 ** 600000), Fraction(3 ** 400000, 7), 2 ** 600000,
                                 1e300, 5e-324, -1e-300])


@given(st.sampled_from([1, 2, 3, 4, Fraction(4, 3), Fraction(3, 2)]),
       st.one_of(_EXACT_WEIGHTS, _FLOAT_WEIGHTS, _HUGE_WEIGHTS),
       st.one_of(st.integers(0, 2 ** 64), st.sampled_from([Fraction(3, 2), 2.5, 2 ** 2000])))
@settings(max_examples=300)
def test_one_pair_mass_is_its_one_term(r, w, count):
    """`mass` of one pair takes a path of its own: it equals the mass of the
    general path, the left-to-right ``sum`` of the terms (taken with a
    ``div`` that is not ``safe_div`` itself), in type and value, a float's
    to the bit, and a power past the size budget raises WorkBudgetError on
    both paths."""
    dual = ts.DualExponent(r)

    def outcome(div):
        try:
            m = dual.mass([(w, count)], div)
        except (ArithmeticError, ts.WorkBudgetError) as exc:
            return type(exc)
        return type(m), m.hex() if type(m) is float else m

    assert outcome(ts.spaces.safe_div) == outcome(lambda a, b: ts.spaces.safe_div(a, b))


def test_equal_dual_exponents_share_a_memo_key():
    parsed, built = ts.SpaceSpec.parse("3").dual, ts.DualExponent(Fraction(3, 2))
    assert parsed == built and hash(parsed) == hash(built)
    assert {(VA(0), 4, parsed): "mass"}[(VA(0), 4, built)] == "mass"
    assert repr(built) == "DualExponent(r=Fraction(3, 2))"
    assert ts.DualExponent(Fraction(4, 2)).r == 2
    assert pickle.loads(pickle.dumps(built)) == built


@given(st.integers(0, 10 ** 6))
@settings(max_examples=40)
def test_norm_triangle_and_homogeneity(seed):
    tree = ts.full_binary()
    rng = random.Random(seed)
    f = random_sparse_vector(rng, tree)
    g = random_sparse_vector(rng, tree)
    c = rng.uniform(-3, 3)
    for spec in (L1, L2, C0, ts.SpaceSpec.ell(3)):
        nf, ng = ts.norm(f, spec, tree), ts.norm(g, spec, tree)
        assert ts.norm(f + g, spec, tree) <= nf + ng + 1e-9
        assert ts.norm(c * f, spec, tree) == pytest.approx(abs(c) * nf, rel=1e-9, abs=1e-12)


def test_l1_is_weighted_sum_c0_is_weighted_max(ex72):
    f = ts.SparseVector({chain_vertex(0, 1): 2.0, chain_vertex(1, 3): -4.0})
    assert ts.norm(f, L1, ex72) == pytest.approx(2 * 0.5 + 4 * 0.125)
    assert ts.norm(f, C0, ex72) == pytest.approx(max(2 * 0.5, 4 * 0.125))


def _dual_spec(spec):
    if spec.kind == "c0":
        return L1
    p = spec.p
    if p == 1:
        return None  # dual is l^inf; covered by the c0 pairing below
    return ts.SpaceSpec.ell(p / (p - 1))


@pytest.mark.parametrize("p", [Fraction(3, 2), Fraction(2), Fraction(3)])
def test_hoelder_inequality(p, ex72):
    spec = ts.SpaceSpec.ell(p)
    dual = _dual_spec(spec)
    inverted = ex72.with_weight(lambda v: 1 / ex72.weight(v))
    rng = random.Random(int(p * 100))
    for _ in range(50):
        f = random_sparse_vector(rng, ex72)
        g = random_sparse_vector(rng, ex72)
        lhs = abs(ts.pairing(f, g))
        rhs = ts.norm(f, spec, ex72) * ts.norm(g, dual, inverted)
        assert lhs <= rhs + 1e-9 * (1 + rhs)


@pytest.mark.parametrize("p", [Fraction(3, 2), Fraction(2), Fraction(4)])
def test_reverse_hoelder_on_fibers(p, ex41):
    # (sum |f(u) mu_u|^p)^(1/p) >= (sum |f(u)|) * (sum |mu_u|^-p*)^(-1/p*)
    spec = ts.SpaceSpec.ell(p)
    q = float(spec.conjugate)
    rng = random.Random(11)
    for _ in range(50):
        fiber = list(ts.chi_n(VA(0), rng.randint(1, 6), ex41))
        f = ts.SparseVector({u: rng.uniform(-2, 2) for u in fiber})
        lhs = ts.norm(f, spec, ex41)
        mass = sum(abs(x) for _, x in f.items())
        dual_mass = sum(float(ex41.weight(u)) ** -q for u in fiber)
        assert lhs >= mass * dual_mass ** (-1.0 / q) - 1e-9


def test_vector_io_round_trip():
    f = ts.SparseVector(
        {
            VA(0): Fraction(1, 3),
            VA(2): -2,
            VA(0, (1, 0)): 0.125,
        }
    )
    buf = io.StringIO()
    ts.dump_vector(f, buf)
    text = buf.getvalue()
    assert "(0; 1.0)\t0.125" in text
    back = ts.load_vector(io.StringIO(text))
    assert back == f


def test_vector_io_rejects_garbage():
    with pytest.raises(ts.InvalidAddressError):
        ts.load_vector(io.StringIO("not an address\n"))


# The vector kernels against the accumulation they replaced, which added
# every value to a 0 (``get(t, 0) + x``) and summed norm terms with ``sum``.

_NONZERO = st.integers(-6, 6).filter(bool)
_RATIONALS = st.one_of(_NONZERO, st.builds(Fraction, _NONZERO,
                                           st.sampled_from([1, 3, 5, 7, 15, 21, 35])))
_FLOATS = st.one_of(st.sampled_from([0.5, -0.5, 0.1, -0.1, 1.0, -1.0]),
                    st.floats(-8, 8).filter(bool))


def _accumulated(start: dict, pairs) -> dict:
    acc = dict(start)
    for t, x in pairs:
        y = acc.get(t, 0) + x
        if y == 0:
            acc.pop(t, None)
        else:
            acc[t] = y
    return acc


def _climbed(v, n, tree):
    """p^n(v), one parent at a time; a spine vertex climbed onto must have
    the vertex below it among its children, or `ts.children` raises."""
    for _ in range(n):
        if (v := ts.parent(v, tree)) is None:
            return None
        if v.up and not v.path:
            ts.children(v, tree)
    return v


def _reference_kernels(f, g, tree) -> dict:
    out = {
        "f + g": _accumulated(f._entries, g.items()),
        "f - g": _accumulated(f._entries, ((v, (-1) * x) for v, x in g.items())),
        "S f": outcome(lambda: _accumulated({}, ((c, x) for v, x in f.items()
                                                 for c in ts.children(v, tree)))),
    }
    for n in range(4):
        out[f"B^{n} f"] = outcome(lambda: _accumulated({}, (
            (t, x) for v, x in f.items() if (t := _climbed(v, n, tree)) is not None)))
    for spec in (L1, L2, L3, C0):
        e = spec.dual.conjugate
        mass = e.combine(e.power(x * tree.weight(v)) for v, x in f.items())
        out[spec.label] = e.root(mass) if f else 0
        if spec.kind == "lp":
            out[f"{spec.label} powered"] = mass
    return out


def _kernels(f, g, tree) -> dict:
    out = {"f + g": f + g, "f - g": f - g, "S f": outcome(lambda: ts.apply_S(f, tree))}
    for n in range(4):
        out[f"B^{n} f"] = outcome(lambda: ts.apply_B_pow(f, n, tree))
    for spec in (L1, L2, L3, C0):
        out[spec.label] = ts.norm(f, spec, tree)
        if spec.kind == "lp":
            out[f"{spec.label} powered"] = ts.norm_powered(f, spec, tree)
    return out


def _exactly(value):
    """Entries in order, each value with its type and repr (a float's repr
    gives its bits), for vectors; type and repr for scalars."""
    if isinstance(value, (dict, ts.SparseVector)):
        return [(v, type(x), repr(x)) for v, x in value.items()]
    return value if isinstance(value, type) else (type(value), repr(value))


@st.composite
def _vectors(draw, tree, values, near=()):
    """Up to 10 entries at vertices reached by child steps from the anchor
    or a spine vertex, and at some of the vertices ``near``."""
    entries = {v: draw(values) for v in draw(st.lists(st.sampled_from(near), max_size=6))
               } if near else {}
    for _ in range(draw(st.integers(0, 10))):
        v = VA(draw(st.integers(0, 2)) if tree.kind == ts.UNROOTED else 0)
        for _ in range(draw(st.integers(0, 4))):
            kids = outcome(lambda: ts.children(v, tree))
            if isinstance(kids, type) or not kids:
                break
            v = draw(st.sampled_from(kids))
        entries[v] = draw(values)
    return ts.SparseVector(entries)


@given(st.data())
@settings(max_examples=120, deadline=None)
def test_vector_kernels_equal_the_accumulation_from_zero(data):
    """norm, norm_powered, apply_B_pow, apply_S, + and - give the values of
    the accumulation from 0 with ``sum`` for norms: rational values equal in
    value and type, floats bit for bit, entries in the same order."""
    name = data.draw(st.sampled_from(["full_binary", "example_4_1", "document"]))
    if name == "document":
        tree = ts.parse_tree_spec(data.draw(spec_documents())).source
    else:
        tree = ts.full_binary() if name == "full_binary" else ts.example_4_1(exact=True)
    values = data.draw(st.sampled_from([_RATIONALS, _NONZERO, _FLOATS,
                                        st.one_of(_RATIONALS, _FLOATS)]))
    f = data.draw(_vectors(tree, values))
    g = data.draw(_vectors(tree, st.one_of(values, st.sampled_from(
        [x for _, x in f.items()] + [-x for _, x in f.items()] or [1])), list(f.support())))
    got, want = _kernels(f, g, tree), _reference_kernels(f, g, tree)
    for key in want:
        assert _exactly(got[key]) == _exactly(want[key]), key
    if values is _NONZERO and name == "full_binary" and f:  # int weights
        assert all(type(got[f"{spec.label} powered"]) is int for spec in (L1, L2, L3))


def test_cancelled_float_sums_are_reinserted_last(binary):
    """A B^2 sum that cancels to 0 is dropped, and the next value to reach
    its target is stored after the targets met since, as it is."""
    f = ts.SparseVector({VA(0, (0, 0, 0)): 0.1, VA(0, (0, 0, 1)): -0.1,
                         VA(0, (1, 0, 0)): 0.3, VA(0, (0, 1, 0)): 0.7, VA(0, (0, 1, 1)): 0.2})
    got = ts.apply_B_pow(f, 2, binary)
    assert _exactly(got) == _exactly(_accumulated({}, ((ts.p_n(v, 2, binary), x)
                                                      for v, x in f.items())))
    assert list(got.items()) == [(VA(0, (1,)), 0.3), (VA(0, (0,)), 0.7 + 0.2)]
    h = ts.SparseVector({VA(0, (0,)): 0.7}) - ts.SparseVector({VA(0, (0,)): 0.7,
                                                              VA(0, (1,)): 0.1})
    assert list(h.items()) == [(VA(0, (1,)), -0.1)]



def test_exact_powers_past_the_size_budget_raise():
    """An exact |x|^r whose size r * bit_length(x) passes MAX_POWER_BITS
    raises WorkBudgetError before it is computed, in `power`, in a fiber
    `mass` and in a norm's `weighted_mass`; the bound per base is worked out
    once per exponent.  Powers within the budget, floats and r = 1 are
    untouched."""
    from treeshift.spaces import MAX_POWER_BITS, DualExponent

    big = DualExponent(100000)
    assert big._max_bits == MAX_POWER_BITS // 100000
    tiny = Fraction(1, 2 ** 128)
    for attempt in (lambda: big.power(tiny), lambda: big.threshold(2 ** 20),
                    lambda: big.mass([(Fraction(1, 2), 1), (tiny, 3)]),
                    lambda: big.weighted_mass([1, -1], [Fraction(1, 2), tiny])):
        with pytest.raises(ts.WorkBudgetError, match=r"\|x\|\^100000 would have about \d+ bits"):
            attempt()
    assert big.power(Fraction(1, 2)) == Fraction(1, 2 ** 100000)
    assert big.power(0.5) == 0.0
    assert DualExponent(1).weighted_mass([2 ** MAX_POWER_BITS], [1]) == 2 ** MAX_POWER_BITS
    assert DualExponent(2).mass([(tiny, 1)]) == 2 ** 256
