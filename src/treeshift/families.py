"""Furstenberg families of time sets and horizon-bounded membership verdicts.

A verdict is three-valued: membership can be affirmed (holds), refuted on the
evidence window (fails), or left open (inconclusive).  Whatever the status,
``positive_evidence`` records whether the window data leans toward membership;
reports aggregate on that flag.  All verdicts carry the horizon they were
computed at; nothing here claims a true limit.

A time set is judged by its maximal runs of consecutive times in the window
(`_runs`), so a verdict costs one sort of the set and then work per run, not
per time: syndetic gaps are the gaps between runs, thick intervals the run
lengths, and the tilde core shrinks each run by N at both ends.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from operator import sub
from typing import Optional, Sequence

from ._record import field, record

INFINITE = "infinite"
COFINITE = "cofinite"
SYNDETIC = "syndetic"
THICK = "thick"
TILDE = "tilde"
GENERATED_FILTER = "generated_filter"


@record(frozen=True)
class FamilySpec:
    kind: str
    gap: Optional[int] = None
    length: Optional[int] = None
    shift: Optional[int] = None
    inner: Optional["FamilySpec"] = None
    bases: tuple = ()  # (label, frozenset) pairs for generated filters

    def describe(self) -> str:
        if self.kind == SYNDETIC:
            return f"syndetic(gap={self.gap})"
        if self.kind == THICK:
            return f"thick(length={self.length})"
        if self.kind == TILDE:
            return f"tilde(N={self.shift}, inner={self.inner.describe()})"
        if self.kind == GENERATED_FILTER:
            return f"filter({len(self.bases)} base sets)"
        return self.kind


def infinite_family() -> FamilySpec:
    return FamilySpec(INFINITE)


def cofinite_family() -> FamilySpec:
    return FamilySpec(COFINITE)


def syndetic_family(gap: int) -> FamilySpec:
    if gap < 1:
        raise ValueError("gap must be >= 1")
    return FamilySpec(SYNDETIC, gap=gap)


def thick_family(length: int) -> FamilySpec:
    if length < 1:
        raise ValueError("length must be >= 1")
    return FamilySpec(THICK, length=length)


def tilde_family(inner: FamilySpec, shift: int) -> FamilySpec:
    """Sets containing a member of ``inner`` thickened by [-N, N]."""
    if shift < 0:
        raise ValueError("shift must be >= 0")
    return FamilySpec(TILDE, shift=shift, inner=inner)


def generated_filter(bases: Sequence[tuple[str, frozenset]]) -> FamilySpec:
    return FamilySpec(GENERATED_FILTER, bases=tuple((str(k), frozenset(b)) for k, b in bases))


@record(frozen=True)
class Verdict:
    status: str  # "holds" | "fails" | "inconclusive"
    horizon: int
    positive_evidence: bool
    witness: dict = field(default_factory=dict)

    __hash__ = None  # by design: the witness is a dict

    @property
    def acceptable(self) -> bool:
        """holds, or inconclusive with the evidence pointing at membership."""
        return self.status == "holds" or (
            self.status == "inconclusive" and self.positive_evidence
        )


def _runs(A, horizon: int) -> list[tuple[int, int]]:
    """The maximal runs [a, b] of consecutive times of A (a set of ints) in
    [0, horizon], ascending.  The times are sorted once; within a run the
    i-th sorted time minus i is constant, so the runs are the distinct values
    of that difference, each found by bisection: the work per time is done in
    C, and the Python work is per run."""
    s = sorted(set(A))
    s = s[bisect_left(s, 0):bisect_right(s, horizon)]
    offsets = list(map(sub, s, range(len(s))))  # non-decreasing: the times are distinct
    keys = list(dict.fromkeys(offsets))
    starts = [bisect_left(offsets, k) for k in keys] + [len(s)]
    return [(k + i, k + j - 1) for k, i, j in zip(keys, starts, starts[1:])]


def family_verdict(A, fam: FamilySpec, horizon: int) -> Verdict:
    """Judge membership of A (a set of int times; those outside [0, horizon]
    are ignored) in the family, from the sorted runs of A in the window.

    Semantics on the window [0, horizon]:

    * syndetic(g): holds iff every g+1 consecutive times meet A; a longer
      absence refutes it outright.  The absences are the gaps between runs,
      and the first longest one is the witness.
    * thick(L): holds iff A contains L consecutive times, i.e. a run of
      length L; otherwise it fails at this horizon (a run may still appear
      beyond it).
    * cofinite: never decidable positively; inconclusive with positive
      evidence when A fills a whole tail [m, horizon], fails when the window
      ends with times missing from A.
    * infinite: inconclusive with density statistics; fails at the horizon
      when A misses the entire last quarter of the window.
    * tilde(N, inner): tests the inner family on the core of times whose full
      [-N, N] neighbourhood (clipped at 0) lies in A: each run [a, b] shrinks
      to [a + N, b - N] ([0, b - N] when a = 0), within [0, horizon - N].
    * generated filter: holds iff some listed base set is contained in A.
    """
    if horizon < 0:
        raise ValueError("horizon must be >= 0")
    return _judge(_runs(A, horizon), fam, horizon)


def _judge(runs: list[tuple[int, int]], fam: FamilySpec, horizon: int) -> Verdict:
    """`family_verdict` of the set whose runs in [0, horizon] are ``runs``."""
    if fam.kind == SYNDETIC:
        g = fam.gap
        if horizon < g:
            return Verdict("inconclusive", horizon, bool(runs), {"reason": "window shorter than gap"})
        # the first longest stretch of absent times: before, between and after the runs
        longest, at, prev = 0, None, -1
        for a, b in runs + [(horizon + 1, None)]:
            if a - prev - 1 > longest:
                longest, at = a - prev - 1, prev + 1
            prev = b
        if longest <= g:
            return Verdict(
                "holds", horizon, True,
                {"max_gap": longest + 1, "max_absent_run": longest},
            )
        return Verdict(
            "fails", horizon, False,
            {"missing_window": (at, at + longest - 1)},
        )

    if fam.kind == THICK:
        need = fam.length
        for a, b in runs:
            if b - a + 1 >= need:
                return Verdict("holds", horizon, True, {"interval": (a, a + need - 1)})
        longest = max((b - a + 1 for a, b in runs), default=0)
        return Verdict("fails", horizon, False, {"longest_run": longest})

    last = runs[-1][1] if runs else None
    if fam.kind == COFINITE:
        if last == horizon:
            return Verdict(
                "inconclusive", horizon, True, {"tail_start": runs[-1][0]}
            )
        return Verdict(
            "fails", horizon, False,
            {"terminal_gap": (last + 1 if last is not None else 0, horizon)},
        )

    if fam.kind == INFINITE:
        window_len = max(1, (horizon + 1) // 4)
        window_start = horizon + 1 - window_len
        count = sum(b - a + 1 for a, b in runs)
        stats = {
            "count": count,
            "density": count / (horizon + 1),
            "last": last,
            "tail_window": (window_start, horizon),
        }
        if last is None or last < window_start:
            return Verdict("fails", horizon, False, stats)
        return Verdict("inconclusive", horizon, True, stats)

    if fam.kind == TILDE:
        N = fam.shift
        effective = horizon - N
        if effective < 0:
            return Verdict("inconclusive", horizon, False, {"reason": "horizon below N"})
        # b <= horizon, so b - N <= effective; the cores of two runs stay apart
        core = [(a + N if a else 0, b - N) for a, b in runs if (a + N if a else 0) <= b - N]
        inner = _judge(core, fam.inner, effective)
        witness = dict(inner.witness)
        witness.update({"core_size": sum(b - a + 1 for a, b in core),
                        "effective_horizon": effective})
        return Verdict(inner.status, horizon, inner.positive_evidence, witness)

    if fam.kind == GENERATED_FILTER:
        occupied = {t for a, b in runs for t in range(a, b + 1)}
        best_label, best_missing = None, None
        for label, base in fam.bases:
            missing = len(base - occupied)
            if missing == 0:
                return Verdict("holds", horizon, True, {"base": label})
            if best_missing is None or missing < best_missing:
                best_label, best_missing = label, missing
        return Verdict(
            "inconclusive", horizon, False,
            {"closest_base": best_label, "missing": best_missing},
        )

    raise ValueError(f"unknown family kind {fam.kind!r}")
