"""Furstenberg family membership verdicts at finite horizon."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import treeshift as ts
from treeshift.families import family_verdict

from oracles import family_verdict_by_scan


def test_syndetic_evens_holds():
    A = set(range(0, 101, 2))
    v = family_verdict(A, ts.syndetic_family(2), 100)
    assert v.status == "holds"
    assert v.positive_evidence
    assert v.witness["max_gap"] == 2


def test_syndetic_fails_on_long_absence():
    A = set(range(0, 50)) | set(range(60, 101))
    v = family_verdict(A, ts.syndetic_family(5), 100)
    assert v.status == "fails"
    assert v.witness["missing_window"] == (50, 59)


def test_thick_evens_fails():
    A = set(range(0, 101, 2))
    v = family_verdict(A, ts.thick_family(3), 100)
    assert v.status == "fails"
    assert v.witness["longest_run"] == 1


def test_thick_power_blocks_holds():
    # blocks [2^k, 2^k + k): the k = 4 block is the first with 4 consecutive
    A = {n for k in range(1, 7) for n in range(2 ** k, 2 ** k + k)}
    v = family_verdict(A, ts.thick_family(4), 100)
    assert v.status == "holds"
    assert v.witness["interval"] == (16, 19)


def test_cofinite_verdicts():
    tail = set(range(40, 101))
    v = family_verdict(tail, ts.cofinite_family(), 100)
    assert v.status == "inconclusive" and v.positive_evidence
    assert v.witness["tail_start"] == 40

    stopped = set(range(0, 80))
    v = family_verdict(stopped, ts.cofinite_family(), 100)
    assert v.status == "fails"
    assert v.witness["terminal_gap"] == (80, 100)


def test_infinite_verdicts():
    thirds = set(range(0, 101, 3))
    v = family_verdict(thirds, ts.infinite_family(), 100)
    assert v.status == "inconclusive" and v.positive_evidence
    assert v.witness["density"] == pytest.approx(34 / 101)

    died = set(range(0, 40))
    v = family_verdict(died, ts.infinite_family(), 100)
    assert v.status == "fails" and not v.positive_evidence

    v = family_verdict(set(), ts.infinite_family(), 100)
    assert v.status == "fails"


def test_tilde_containment():
    # A contains [20, 80]; its N=3 core is [23, 77], still syndetic evidence
    A = set(range(20, 81))
    fam = ts.tilde_family(ts.thick_family(10), 3)
    v = family_verdict(A, fam, 100)
    assert v.status == "holds"
    assert v.witness["effective_horizon"] == 97

    sparse = set(range(0, 101, 2))  # isolated points have empty cores
    v = family_verdict(sparse, ts.tilde_family(ts.thick_family(1), 1), 100)
    assert v.status == "fails"
    assert v.witness["core_size"] == 0


def test_generated_filter_membership():
    fam = ts.generated_filter([("evens", frozenset(range(0, 50, 2)))])
    v = family_verdict(set(range(0, 100)), fam, 100)
    assert v.status == "holds" and v.witness["base"] == "evens"

    v = family_verdict(set(range(1, 100, 2)), fam, 100)
    assert v.status == "inconclusive"
    assert not v.positive_evidence


def test_verdict_acceptable_flag():
    assert ts.Verdict("holds", 10, True).acceptable
    assert ts.Verdict("inconclusive", 10, True).acceptable
    assert not ts.Verdict("inconclusive", 10, False).acceptable
    assert not ts.Verdict("fails", 10, False).acceptable


# brute-force window scans as the independent oracle

def _brute_syndetic(A, gap, horizon):
    return all(
        any(m in A for m in range(start, start + gap + 1))
        for start in range(0, horizon - gap + 1)
    )


def _brute_thick(A, length, horizon):
    return any(
        all(m in A for m in range(start, start + length))
        for start in range(0, horizon - length + 2)
    )


@given(st.sets(st.integers(0, 200), max_size=120), st.integers(1, 8))
@settings(max_examples=150)
def test_syndetic_matches_brute_force(A, gap):
    horizon = 200
    v = family_verdict(A, ts.syndetic_family(gap), horizon)
    assert v.status == ("holds" if _brute_syndetic(A, gap, horizon) else "fails")


@given(st.sets(st.integers(0, 200), max_size=120), st.integers(1, 8))
@settings(max_examples=150)
def test_thick_matches_brute_force(A, length):
    horizon = 200
    v = family_verdict(A, ts.thick_family(length), horizon)
    assert v.status == ("holds" if _brute_thick(A, length, horizon) else "fails")


def test_window_scan_agreement_large_random():
    rng = random.Random(123)
    horizon = 1000
    for _ in range(20):
        A = {n for n in range(horizon + 1) if rng.random() < rng.choice((0.2, 0.6, 0.9))}
        g, L = rng.randint(1, 10), rng.randint(1, 10)
        assert (
            family_verdict(A, ts.syndetic_family(g), horizon).status == "holds"
        ) == _brute_syndetic(A, g, horizon)
        assert (
            family_verdict(A, ts.thick_family(L), horizon).status == "holds"
        ) == _brute_thick(A, L, horizon)


# run-based judging against the time-by-time oracle

_HORIZON = st.integers(0, 60)
_TIMES = st.integers(-5, 70)  # times outside [0, horizon] too


@st.composite
def _time_sets(draw) -> set:
    """Scattered times, unions of intervals (long runs), or both."""
    times = draw(st.sets(_TIMES, max_size=40))
    starts = st.one_of(st.just(0), st.integers(-5, 2), _TIMES)  # runs from 0 are shrunk apart
    for start, length in draw(st.lists(st.tuples(starts, st.integers(0, 30)), max_size=4)):
        times.update(range(start, start + length))
    return times


_BASE_FAMILIES = st.one_of(
    st.just(ts.infinite_family()),
    st.just(ts.cofinite_family()),
    st.integers(1, 8).map(ts.syndetic_family),
    st.integers(1, 8).map(ts.thick_family),
    st.lists(st.tuples(st.text("ab", max_size=2), st.frozensets(_TIMES, max_size=6)),
             max_size=3).map(ts.generated_filter),
)
_TILDE = st.builds(ts.tilde_family, _BASE_FAMILIES, st.integers(0, 5))
_FAMILIES = st.one_of(_BASE_FAMILIES, _TILDE, st.builds(ts.tilde_family, _TILDE, st.integers(0, 3)))


@given(_time_sets(), _FAMILIES, _HORIZON)
@settings(max_examples=600, deadline=None)
def test_run_verdicts_equal_the_time_by_time_scan(A, fam, horizon):
    """Judged from the sorted runs of A, every verdict equals the oracle's
    in status, positive evidence and witness, for every family, nested tilde
    families and generated filters included, whether A is a set or a
    sorted list."""
    want = family_verdict_by_scan(A, fam, horizon)
    assert family_verdict(A, fam, horizon) == want
    assert family_verdict(sorted(A), fam, horizon) == want
