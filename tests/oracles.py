"""Independent brute-force oracles used to pin expected values in tests.

Nothing here consults the library's closed forms: grid minima come from
exhaustive enumeration of mesh compositions (directly for tiny instances,
via dynamic programming over partial sums for larger ones - an implicit but
still exhaustive enumeration), and analytic tail sums are spelled out from
first principles.  Fibers, their masses and the tree-axiom checks come from
depth-first walks over `children` and `enumerate_truncation`, vertex by
vertex, with no vertex type read, and so do the right inverses S_n and the
maps I_n, whose simplex minimiser weighs the fiber vertex by vertex.  The
one exception is the Gamma-supercyclicity scan, which reads the library's
displays but tests every k at every n: it is the reference for the order
in which `supercyclicity_report` skips scales.  Family verdicts and rung
times are judged time by time, as sets: `family_verdict_by_scan` tests
every time of the window and the full neighbourhood of each, and
`rung_times_by_threshold` tests every floor entry against each threshold.
`write_csv_by_cell` writes a CSV one cell and one row at a time: the
reference for the column blocks of `cli._write_csv`.
"""

from __future__ import annotations

import csv
import math
import weakref

import treeshift as ts
from treeshift.cli import _fmt
from treeshift.criteria import _j_parts, _j_term
from treeshift.families import (
    COFINITE,
    GENERATED_FILTER,
    INFINITE,
    SYNDETIC,
    THICK,
    TILDE,
    FamilySpec,
    Verdict,
)
from treeshift.spaces import fiber_mass, to_float
from treeshift.trees import ValidationReport, Violation


def compositions(total: int, parts: int):
    """All tuples of `parts` nonnegative ints summing to `total`."""
    if parts == 1:
        yield (total,)
        return
    for head in range(total + 1):
        for rest in compositions(total - head, parts - 1):
            yield (head,) + rest


def _cost(c: int, mesh: int, w: float, p: float) -> float:
    return (c / mesh * abs(w)) ** p


def grid_min_enum(weights, p, mesh: int = 32) -> float:
    """Minimum norm of (x_j w_j) over the mesh-grid simplex by direct
    enumeration.  p is a float exponent or the string "sup"."""
    best = math.inf
    J = len(weights)
    for comp in compositions(mesh, J):
        if p == "sup":
            val = max(c / mesh * abs(w) for c, w in zip(comp, weights))
        else:
            val = sum(_cost(c, mesh, w, p) for c, w in zip(comp, weights)) ** (1.0 / p)
        if val < best:
            best = val
    return best


def grid_min_dp(weights, p, mesh: int = 64) -> float:
    """Same minimum via dynamic programming over (coordinate, partial sum):
    exhaustive over all compositions without materialising them."""
    inf = math.inf
    state = [0.0] + [inf] * mesh  # state[s]: best value using coords so far summing to s
    for w in weights:
        new = [inf] * (mesh + 1)
        for s in range(mesh + 1):
            if state[s] is inf:
                continue
            for c in range(mesh - s + 1):
                if p == "sup":
                    cand = max(state[s], c / mesh * abs(w))
                else:
                    cand = state[s] + _cost(c, mesh, w, p)
                if cand < new[s + c]:
                    new[s + c] = cand
        state = new
    return state[mesh] if p == "sup" else state[mesh] ** (1.0 / p)


def orbit_residual_tail(p: float, k: int, k_max: int = 7) -> float:
    """Analytic p-th power of the residual ||B^(2^k - 1) f - e_u1 + e_v1||
    for the signed indicator vector supported on generations 2^j, j <= k_max:
    the two surviving chains contribute (2/2^p) * sum_(l=k+1..k_max)
    2^(-p (2^l - 2^k))."""
    return (2.0 / 2.0 ** p) * sum(
        2.0 ** (-p * (2 ** l - 2 ** k)) for l in range(k + 1, k_max + 1)
    )


def supercyclic_scan_linear(tree, spec, gamma, horizon, sample_verts, ladder):
    """``(achieved, failed_rung)`` of the Gamma-supercyclicity scan on an
    unrooted tree, testing both displays at every k = 0..horizon for each n
    until a rung is reached: the scan `supercyclicity_report` ran before it
    skipped the scales a display has already ruled out."""
    dual = spec.dual
    achieved = []
    rungs = ((R, dual.threshold(R)) for R in ladder)
    R, R_pow = next(rungs, (None, None))
    scales = []  # (lambda_k, |lambda_k|^p*) for k < len(scales)
    for n in range(1, horizon + 1):
        if R is None:
            break
        spine = [_j_parts(v, n, tree, spec) for v in sample_verts]
        fibers = [fiber_mass(tree, v, n, spec)[1] for v in sample_verts]
        for k in range(horizon + 1):
            if k == len(scales):
                lam = gamma.at(k)
                scales.append((lam, dual.power(lam)))
            lam, lam_pow = scales[k]
            if all(
                lam_pow * fiber > R_pow and _j_term(*parts, spec, lam) > R_pow
                for fiber, parts in zip(fibers, spine)
            ):
                achieved.append((R, n, k, lam))
                R, R_pow = next(rungs, (None, None))
                break
    return achieved, R


_WALKED = weakref.WeakKeyDictionary()  # tree -> {(v, n) or (v, n, dual): fiber or mass}


def dfs_fiber(v, n: int, tree) -> list:
    """Chi^n(v) by depth-first recursion over `children`, memoised per tree."""
    memo = _WALKED.setdefault(tree, {})
    if (v, n) not in memo:
        memo[v, n] = [v] if n == 0 else [
            u for c in ts.children(v, tree) for u in dfs_fiber(c, n - 1, tree)]
    return memo[v, n]


def fiber_mass_by_walk(tree, v, n: int, spec) -> tuple:
    """``(mass, combined)`` of Chi^n(v) as `fiber_mass` gives it, from the
    depth-first fiber massed vertex by vertex: one (weight, 1) pair per
    fiber vertex, in walk order."""
    dual = spec.dual
    memo = _WALKED.setdefault(tree, {})
    if (v, n, dual) not in memo:
        pairs = [(tree.weight(u), 1) for u in dfs_fiber(v, n, tree)]
        mass = dual.mass(pairs) if pairs else None
        memo[v, n, dual] = mass, 0 if mass is None else dual.combined(mass)
    return memo[v, n, dual]


def build_Sn_by_walk(v, n: int, tree, spec, delta=None) -> ts.SparseVector:
    """`build_Sn` from the depth-first fiber, weighed vertex by vertex.  In
    l^1 the fiber is sorted and all mass goes to the first vertex whose
    |weight| is within ``delta`` of the least; otherwise a vertex u gets
    1/|mu_u|^p* over the sum of those terms, in walk order."""
    fiber = dfs_fiber(v, n, tree)
    if not fiber:
        raise ts.EmptyFiberError(f"Chi^{n}({v}) is empty")
    if delta is None:
        delta = (2.0 ** -n) * 1e-3
    weights = [tree.weight(u) for u in fiber]
    if 0 in weights:
        raise ValueError("simplex weights must be nonzero")
    dual = spec.dual
    if dual.is_max:
        fiber, weights = zip(*sorted(zip(fiber, weights)))
        least = min(abs(w) for w in weights)
        return ts.SparseVector({next(u for u, w in zip(fiber, weights)
                                     if abs(w) <= least + delta): 1})
    inv = [1 / dual.power(w) for w in weights]
    total = sum(inv)
    return ts.SparseVector({u: x / total for u, x in zip(fiber, inv)})


def build_In_by_walk(v, n: int, tree, spec) -> ts.InUnrootedResult:
    """`build_In_unrooted` from the depth-first fiber below p^n(v), weighed
    vertex by vertex: in l^1 the correction sits on the lowest address of
    least |weight|, otherwise it is spread as 1/|mu_u|^p*.  The fiber holds
    v unless a spine vertex above v has no children, which the spine rule
    forbids: that fiber is empty, and an error."""
    if tree.rooted:
        raise ts.RootedTreeError("I_n with spine cancellation needs an unrooted tree")
    s = ts.p_n(v, n, tree)
    ws = tree.weight(s)
    fiber = dfs_fiber(s, n, tree)
    if not fiber:
        raise ts.EmptyFiberError(f"Chi^{n}({s}) is empty")
    weights = tuple(tree.weight(u) for u in fiber)
    dual = spec.dual
    if dual.is_max:
        fiber_min = min(abs(w) for w in weights)
        m = to_float(min(abs(ws), fiber_min))
        if abs(ws) <= fiber_min:
            return ts.InUnrootedResult(ts.basis(v), "kept", m)
        idx = min(range(len(fiber)), key=lambda i: (abs(weights[i]), fiber[i]))
        return ts.InUnrootedResult(ts.basis(v) - ts.basis(fiber[idx]), "cancelled", m)
    spine_term = 1 / dual.power(ws)
    inv = [1 / dual.power(w) for w in weights]
    mass = sum(inv)
    total = spine_term + mass
    bound = to_float(dual.root(2 / total))
    if 2 * spine_term >= total:
        return ts.InUnrootedResult(ts.basis(v), "kept", bound)
    h = ts.SparseVector({u: x / mass for u, x in zip(fiber, inv)})
    return ts.InUnrootedResult(ts.basis(v) - h, "cancelled", bound)


def validate_by_walk(tree, trunc) -> ValidationReport:
    """`validate` of a rule-backed tree without edge data: the spine indices,
    then arity and weight at every vertex of `enumerate_truncation`, in its
    order, until 100 violations are held."""
    violations = []
    if not tree.rooted:
        for k in range(trunc.ancestry):
            s, a = tree.spine_child_index(k), tree.arity(ts.VertexAddress(k + 1))
            if not 0 <= s < a:
                violations.append(Violation("SpineIndexOutOfRange", str(ts.VertexAddress(k + 1)),
                                            f"spine child index {s} not below arity {a}"))
    checked = 0
    for v in ts.enumerate_truncation(tree, trunc):
        if len(violations) >= 100:
            break
        checked += 1
        a = tree.arity(v)
        if a < 0:
            violations.append(Violation("NegativeArity", str(v), f"arity {a}"))
        elif tree.weight(v) == 0:
            violations.append(Violation("ZeroWeight", str(v), "weight must be nonzero"))
    return ValidationReport(ok=not violations, violations=violations, checked=checked)


def rung_times_by_threshold(floor, ladder, spec, horizon: int) -> list:
    """The times of each rung N, ascending: every n <= horizon where the
    floor entry exceeds N's threshold, each entry tested against each
    threshold; every n for the floor of an empty set (None)."""
    if floor is None:
        return [list(range(horizon + 1)) for _ in ladder]
    return [sorted(n for n, m in enumerate(floor) if m > spec.dual.threshold(N))
            for N in ladder]


def _scan_runs(elements: list) -> list:
    """Maximal runs of consecutive integers as (start, end) pairs."""
    runs = []
    for x in elements:
        if runs and x == runs[-1][1] + 1:
            runs[-1][1] = x
        else:
            runs.append([x, x])
    return [(a, b) for a, b in runs]


def family_verdict_by_scan(A, fam: FamilySpec, horizon: int) -> Verdict:
    """`family_verdict` judged time by time on the set of A's times in
    [0, horizon]: the syndetic gap by a scan of every time, the tilde core
    by testing the whole neighbourhood of every time, a filter base by set
    difference."""
    if horizon < 0:
        raise ValueError("horizon must be >= 0")
    elements = sorted(x for x in A if 0 <= x <= horizon)
    occupied = set(elements)

    if fam.kind == SYNDETIC:
        g = fam.gap
        if horizon < g:
            return Verdict("inconclusive", horizon, bool(elements), {"reason": "window shorter than gap"})
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
            return Verdict("holds", horizon, True,
                           {"max_gap": longest_absent + 1, "max_absent_run": longest_absent})
        return Verdict("fails", horizon, False, {"missing_window": (at, at + longest_absent - 1)})

    if fam.kind == THICK:
        runs = _scan_runs(elements)
        best = max(runs, key=lambda r: r[1] - r[0], default=None)
        need = fam.length
        for a, b in runs:
            if b - a + 1 >= need:
                return Verdict("holds", horizon, True, {"interval": (a, a + need - 1)})
        longest = 0 if best is None else best[1] - best[0] + 1
        return Verdict("fails", horizon, False, {"longest_run": longest})

    if fam.kind == COFINITE:
        if elements and elements[-1] == horizon:
            return Verdict("inconclusive", horizon, True,
                           {"tail_start": _scan_runs(elements)[-1][0]})
        last = elements[-1] if elements else None
        return Verdict("fails", horizon, False,
                       {"terminal_gap": (last + 1 if last is not None else 0, horizon)})

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
        inner = family_verdict_by_scan(core, fam.inner, effective)
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
        return Verdict("inconclusive", horizon, False,
                       {"closest_base": best_label, "missing": best_missing})

    raise ValueError(f"unknown family kind {fam.kind!r}")


def write_csv_by_cell(path, command: str, seed, header, rows) -> None:
    """The CSV `cli._write_csv` writes for ``rows``, one `cli._fmt` call per
    cell and one ``writerow`` per row."""
    with open(path, "w", encoding="utf-8", newline="") as fp:
        fp.write(f"# treeshift {command}; seed={seed}\n")
        writer = csv.writer(fp, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(x) for x in row])
