"""Furstenberg families of time sets and horizon-bounded membership verdicts.

A verdict is three-valued: membership can be affirmed (holds), refuted on the
evidence window (fails), or left open (inconclusive).  Whatever the status,
``positive_evidence`` records whether the window data leans toward membership;
reports aggregate on that flag.  All verdicts carry the horizon they were
computed at; nothing here claims a true limit.
"""

from __future__ import annotations

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


def _runs(elements: list[int]) -> list[tuple[int, int]]:
    """Maximal runs of consecutive integers as (start, end) pairs."""
    runs = []
    for x in elements:
        if runs and x == runs[-1][1] + 1:
            runs[-1][1] = x
        else:
            runs.append([x, x])
    return [(a, b) for a, b in runs]


def family_verdict(A, fam: FamilySpec, horizon: int) -> Verdict:
    """Judge membership of A (a set of times <= horizon) in the family.

    Semantics on the window [0, horizon]:

    * syndetic(g): holds iff every g+1 consecutive times meet A; a longer
      absence refutes it outright.
    * thick(L): holds iff A contains L consecutive times; otherwise it fails
      at this horizon (a run may still appear beyond it).
    * cofinite: never decidable positively; inconclusive with positive
      evidence when A fills a whole tail [m, horizon], fails when the window
      ends with times missing from A.
    * infinite: inconclusive with density statistics; fails at the horizon
      when A misses the entire last quarter of the window.
    * tilde(N, inner): tests the inner family on the core of times whose full
      [-N, N] neighbourhood (clipped at 0) lies in A.
    * generated filter: holds iff some listed base set is contained in A.
    """
    if horizon < 0:
        raise ValueError("horizon must be >= 0")
    elements = sorted(x for x in A if 0 <= x <= horizon)
    occupied = set(elements)

    if fam.kind == SYNDETIC:
        g = fam.gap
        if horizon < g:
            return Verdict("inconclusive", horizon, bool(elements), {"reason": "window shorter than gap"})
        # longest run of absent times inside the window
        longest_absent, cur, at = 0, 0, None
        start = None
        for t in range(horizon + 1):
            if t in occupied:
                cur, start = 0, None
            else:
                if start is None:
                    start = t
                cur += 1
                if cur > longest_absent:
                    longest_absent, at = cur, start
        if longest_absent <= g:
            return Verdict(
                "holds", horizon, True,
                {"max_gap": longest_absent + 1, "max_absent_run": longest_absent},
            )
        return Verdict(
            "fails", horizon, False,
            {"missing_window": (at, at + longest_absent - 1)},
        )

    if fam.kind == THICK:
        runs = _runs(elements)
        best = max(runs, key=lambda r: r[1] - r[0], default=None)
        need = fam.length
        for a, b in runs:
            if b - a + 1 >= need:
                return Verdict("holds", horizon, True, {"interval": (a, a + need - 1)})
        longest = 0 if best is None else best[1] - best[0] + 1
        return Verdict("fails", horizon, False, {"longest_run": longest})

    if fam.kind == COFINITE:
        if elements and elements[-1] == horizon:
            runs = _runs(elements)
            tail_start = runs[-1][0]
            return Verdict(
                "inconclusive", horizon, True, {"tail_start": tail_start}
            )
        last = elements[-1] if elements else None
        return Verdict(
            "fails", horizon, False,
            {"terminal_gap": (last + 1 if last is not None else 0, horizon)},
        )

    if fam.kind == INFINITE:
        window_len = max(1, (horizon + 1) // 4)
        window_start = horizon + 1 - window_len
        in_tail = [x for x in elements if x >= window_start]
        stats = {
            "count": len(elements),
            "density": len(elements) / (horizon + 1),
            "last": elements[-1] if elements else None,
            "tail_window": (window_start, horizon),
        }
        if not in_tail:
            return Verdict("fails", horizon, False, stats)
        return Verdict("inconclusive", horizon, True, stats)

    if fam.kind == TILDE:
        N = fam.shift
        effective = horizon - N
        if effective < 0:
            return Verdict("inconclusive", horizon, False, {"reason": "horizon below N"})
        core = {
            t
            for t in range(effective + 1)
            if all(m in occupied for m in range(max(0, t - N), t + N + 1))
        }
        inner = family_verdict(core, fam.inner, effective)
        witness = dict(inner.witness)
        witness.update({"core_size": len(core), "effective_horizon": effective})
        return Verdict(inner.status, horizon, inner.positive_evidence, witness)

    if fam.kind == GENERATED_FILTER:
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
