"""The benchmark's three workloads: fixed job lists whose inputs come from a seed.

The seed picks override addresses and dyadic override values, sample vertices,
ball centers and random vectors.  It never changes how much work a job does:
tree shapes, horizons, depths and vector sizes are constants here.

Every job has an oracle that runs after the timed call and returns a list of
problems (empty when the output is correct).  Reference values are computed
inside the oracle, so neither `setup_s` nor the timed jobs include them.
Oracles use closed forms, `reference.py` (which does not import treeshift),
exact identities, and sha256 digests of CLI CSVs recorded in `golden.json`
from the commit that introduced the benchmark.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import math
import os
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import reference as ref

REL_TOL = 1e-9


@dataclass
class Job:
    name: str
    run: Callable[[], object]  # the timed call; builds its own TreeModel
    check: Callable[[object], list]  # untimed oracle: list of problems


@dataclass
class CliResult:
    rc: int
    out: str
    err: str


class Context:
    """What the jobs share: the imported package, a scratch directory for
    documents and CSVs, and the golden CSV digests."""

    def __init__(self, ts, workdir: str, golden: dict):
        self.ts = ts
        self.workdir = workdir
        self.golden = golden

    def path(self, name: str) -> str:
        return os.path.join(self.workdir, name)

    def write(self, name: str, text: str) -> str:
        path = self.path(name)
        with open(path, "w", encoding="utf-8") as fp:
            fp.write(text)
        return path

    def run_cli(self, argv: list) -> CliResult:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = self.ts.cli.main(argv)
        return CliResult(rc, out.getvalue(), err.getvalue())


def expected(value):
    """An oracle's expected value: a number, or a function that computes it
    when the oracle runs."""
    return value() if callable(value) else value


def close(a: float, b: float, tol: float = REL_TOL) -> bool:
    if a == b:
        return True
    return abs(a - b) <= tol * max(abs(a), abs(b))


def cli_job(ctx: Context, name: str, argv: list, check=None, golden=False) -> Job:
    """A `treeshift.cli.main` call that writes a CSV.  Exit code 0 is
    expected; ``check(result, rows)`` sees the CSV rows after the header."""
    csv_path = ctx.path(f"{name}.csv")
    full = list(argv) + ["--csv", csv_path]

    def run():
        return ctx.run_cli(full)

    def verify(res: CliResult) -> list:
        if res.rc != 0:
            return [f"exit {res.rc}: {res.err.strip()[-300:]}"]
        with open(csv_path, encoding="utf-8") as fp:
            csv_text = fp.read()
        problems = []
        if golden:
            digest = hashlib.sha256(csv_text.encode()).hexdigest()
            want = ctx.golden.get(name)
            if want != digest:
                problems.append(f"csv sha256 {digest} != golden.json {want}")
        if check is not None:
            rows = list(csv.reader(csv_text.splitlines()[2:]))
            problems += check(res, rows)
        return problems

    return Job(name, run, verify)


def _frac_text(x: Fraction) -> str:
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def _dyadic(rng: random.Random, exps=(-2, -1, 1, 2)) -> Fraction:
    return Fraction(2) ** rng.choice(exps)


# ---------------------------------------------------------------------------
# enum: tree-spec documents without closed-form fiber profiles
# ---------------------------------------------------------------------------

def _rows_check(tree, space: "ref.Space", horizon: int, sample_size,
                with_j: bool, verdict: bool = False):
    """Check every (vertex, n, q[, j]) row of a criteria or limit-point CSV
    against the reference, the row count, and (rooted limit-point) the
    verdict line."""

    def check(res: CliResult, rows: list) -> list:
        problems = []
        size = expected(sample_size)
        vertices = sorted({r[0] for r in rows})
        if len(vertices) != size or len(rows) != size * (horizon + 1):
            problems.append(f"{len(vertices)} sample vertices / {len(rows)} rows, "
                            f"expected {size} / {size * (horizon + 1)}")
        peak = {}
        for row in rows:
            v, n = ref.parse_address(row[0]), int(row[1])
            want = tree.q(v, n, space)
            peak[row[0]] = max(peak.get(row[0], 0.0), want)
            if not close(float(row[2]), want):
                problems.append(f"q{row[0]},{n} = {row[2]}, reference {want!r}")
            if with_j and not close(float(row[3]), tree.j(v, n, space)):
                problems.append(f"j{row[0]},{n} = {row[3]}, reference {tree.j(v, n, space)!r}")
            if len(problems) > 5:
                break
        if verdict:
            want = "holds" if max(peak.values(), default=0.0) > 2 ** 12 else "fails"
            if f"verdict at horizon: {want}" not in res.out:
                problems.append(f"limit-point verdict is not {want}")
        return problems

    return check


def _validate_check(count):
    def check(res: CliResult, rows: list) -> list:
        want = f"validated {expected(count)} vertices: OK"
        return [] if want in res.out and not rows else [f"expected {want!r}, got {res.out[:80]!r}"]
    return check


def _norm_check(value: float, open_frontier=None):
    """The `norm` CSV row: the value, and the frontier flag unless None."""

    def check(res: CliResult, rows: list) -> list:
        got, flag = float(rows[0][1]), rows[0][2]
        want = expected(value)
        problems = []
        if not close(got, want):
            problems.append(f"operator norm {got!r}, expected {want!r}")
        if open_frontier is not None and flag != ("1" if open_frontier else "0"):
            problems.append(f"is_sup_over_truncation = {flag}")
        return problems
    return check


def _rule_doc(tree: "ref.RuleTree", weight_lines: list, override_text: dict,
              depth: int, ancestry: int) -> str:
    lines = ["[tree]", f"kind = {tree.kind}", "", "[arity]"]
    if tree.by_level is not None:
        lines.append("by_level = " + ",".join(map(str, tree.by_level)))
    else:
        lines.append(f"default = {tree.arity_default}")
    if not tree.rooted:
        lines += ["", "[spine]", f"child_index = {tree.spine_index}"]
    lines += ["", "[weights]"] + weight_lines
    lines += [f"{ref.format_address(a)} = {text}" for a, text in override_text.items()]
    lines += ["", "[truncation]", f"depth = {depth}", f"ancestry = {ancestry}", ""]
    return "\n".join(lines)


def _pick_overrides(rng, tree, k, depths, values, as_text, up_range=(0, 0)):
    """Set k distinct canonical addresses with seed-chosen values as the
    tree's weight overrides; returns their document text."""
    chosen = {}
    while len(chosen) < k:
        up = rng.randint(*up_range)
        depth = rng.randint(*depths)
        path = []
        for i in range(depth):
            a = tree.arity(i - up)
            choices = [c for c in range(a) if not (i == 0 and up and c == tree.spine_index)]
            path.append(rng.choice(choices))
        chosen[(up, tuple(path))] = values(rng)
    tree.overrides = {a: Fraction(w) for a, w in chosen.items()}
    return {a: as_text(w) for a, w in chosen.items()}


def _simplex_inf_job(ctx, name, doc, tree, p, n_max):
    """Simplex infima of the root fibers of a document's tree: the library
    enumerates Chi^n(root); the reference gives 1/q(root, n)."""
    ts = ctx.ts
    spec = ts.SpaceSpec.parse(p)

    def run():
        model = ts.treespec.load_tree_spec(doc).source
        return [ts.simplex.fiber_simplex_inf(model, ts.trees.ANCHOR, n, spec)
                for n in range(n_max + 1)]

    def check(infs) -> list:
        return [f"simplex infimum of Chi^{n}(root) is {inf}, not 1/q"
                for n, inf in enumerate(infs)
                if not close(inf * tree.q((0, ()), n, ref.Space.parse(p)), 1.0)]

    return Job(name, run, check)


def enum_jobs(ctx: Context, rng: random.Random) -> list:
    S = ref.Space.parse
    jobs = []

    # A: the custom rooted binary tree; exact Fraction weights.
    binary = ref.RuleTree("rooted", arity_default=2)
    texts = _pick_overrides(rng, binary, 4, (2, 9), _dyadic, _frac_text)
    a_doc = ctx.write("binary.ini", _rule_doc(binary, ["default = 1"], texts, 11, 0))
    jobs += [
        cli_job(ctx, "binary_criteria_l2_h11",
                ["criteria", "--tree", a_doc, "--space", "2", "--horizon", "11"],
                _rows_check(binary, S("2"), 11, lambda: binary.window_size(3, 3), False)),
        cli_job(ctx, "binary_limit_point_c0_h11",
                ["limit-point", "--tree", a_doc, "--space", "c0", "--horizon", "11"],
                _rows_check(binary, S("c0"), 11, lambda: binary.window_size(3, 3), False,
                            verdict=True)),
        cli_job(ctx, "binary_norm_l4_3_depth15",
                ["norm", "--tree", a_doc, "--space", "4/3", "--depth", "15"],
                _norm_check(lambda: binary.operator_norm(S("4/3"), 15, 0), True)),
        cli_job(ctx, "binary_validate_depth11", ["validate", "--tree", a_doc],
                _validate_check(lambda: binary.window_size(11, 0)), golden=True),
        _simplex_inf_job(ctx, "binary_simplex_inf_l2_n12", a_doc, binary, "2", 12),
    ]

    # The README's `norm --preset full_binary` walks its truncation vertex by
    # vertex although the preset has a fiber profile.
    jobs.append(cli_job(ctx, "preset_binary_norm_depth12",
                        ["norm", "--preset", "full_binary", "--depth", "12"],
                        _norm_check(math.sqrt(2)), golden=True))

    # B: a by_level rooted tree with float geometric weights.
    levels = ref.RuleTree("rooted", by_level=[2, 3, 1, 2, 1, 2], coef=Fraction(1),
                          ratio=Fraction(1, 2))
    texts = _pick_overrides(rng, levels, 3, (1, 7), lambda r: _dyadic(r, (-3, -1, 1, 3)),
                            lambda w: repr(float(w)))
    b_doc = ctx.write("levels.ini", _rule_doc(levels, ["coef = 1", "ratio = 0.5"], texts, 10, 0))
    jobs += [
        cli_job(ctx, "levels_criteria_l4_3_h11",
                ["criteria", "--tree", b_doc, "--space", "4/3", "--horizon", "11"],
                _rows_check(levels, S("4/3"), 11, lambda: levels.window_size(3, 3), False)),
        cli_job(ctx, "levels_norm_l1", ["norm", "--tree", b_doc, "--space", "1"],
                _norm_check(lambda: levels.operator_norm(S("1"), 10, 0), True)),
    ]

    # C: an unrooted tree whose spine vertices branch; geometric weights 2^d.
    spine = ref.RuleTree("unrooted", arity_default=2, spine_index=1, coef=Fraction(1),
                         ratio=Fraction(2))
    texts = _pick_overrides(rng, spine, 3, (1, 5), _dyadic, _frac_text, up_range=(0, 3))
    c_doc = ctx.write("spine.ini", _rule_doc(spine, ["coef = 1", "ratio = 2"], texts, 8, 5))
    jobs += [
        cli_job(ctx, "spine_criteria_l2_h7",
                ["criteria", "--tree", c_doc, "--space", "2", "--horizon", "7"],
                _rows_check(spine, S("2"), 7, lambda: spine.window_size(3, 3), True)),
        cli_job(ctx, "spine_limit_point_l1_h8",
                ["limit-point", "--tree", c_doc, "--space", "1", "--horizon", "8"],
                _rows_check(spine, S("1"), 8, lambda: spine.window_size(3, 3), False)),
        cli_job(ctx, "spine_validate", ["validate", "--tree", c_doc],
                _validate_check(lambda: spine.window_size(8, 5)), golden=True),
        cli_job(ctx, "spine_norm_c0", ["norm", "--tree", c_doc, "--space", "c0"],
                _norm_check(lambda: spine.operator_norm(S("c0"), 8, 5), True)),
    ]

    # D: a finite edge-list tree; the seed shuffles labels (and with them the
    # child order) and draws the weights, the shape is fixed.
    branching = [3, 2, 2, 2, 2, 2, 2, 2]
    labels = set()
    while len(labels) < 1 + sum(math.prod(branching[:d + 1]) for d in range(len(branching))):
        labels.add("n%06x" % rng.getrandbits(24))
    labels = sorted(labels)
    rng.shuffle(labels)
    anchor, pool = labels[0], iter(labels[1:])
    kids, level = {}, [anchor]
    for b in branching:
        nxt = []
        for u in level:
            kids[u] = sorted(next(pool) for _ in range(b))
            nxt += kids[u]
        level = nxt
    weights = {lab: Fraction(2) ** rng.randint(-3, 3) for lab in labels}
    edges = [(u, c) for u in kids for c in kids[u]]
    rng.shuffle(edges)
    edge_tree = ref.EdgeTree(anchor, kids, weights)
    d_doc = ctx.write("edges.ini", "\n".join(
        ["[tree]", "kind = rooted", f"anchor = {anchor}", "", "[edges]"]
        + [f"{u} -> {c}" for u, c in edges] + ["", "[edge_weights]"]
        + [f"{lab} = {_frac_text(w)}" for lab, w in weights.items()]
        + ["", "[truncation]", "depth = 16", "ancestry = 0", ""]))
    jobs += [
        cli_job(ctx, "edges_criteria_l2_h9",
                ["criteria", "--tree", d_doc, "--space", "2", "--horizon", "9"],
                _rows_check(edge_tree, S("2"), 9, lambda: edge_tree.window_size(3), False)),
        cli_job(ctx, "edges_validate", ["validate", "--tree", d_doc],
                _validate_check(len(labels)), golden=True),
        cli_job(ctx, "edges_norm_l2", ["norm", "--tree", d_doc, "--space", "2"],
                _norm_check(lambda: edge_tree.operator_norm(S("2"), 16), False)),
    ]
    return jobs


def setup_documents(ctx: Context) -> None:
    """Parse every tree-spec document once, as a user's set-up would."""
    for name in sorted(os.listdir(ctx.workdir)):
        if name.endswith(".ini"):
            ctx.ts.treespec.load_tree_spec(ctx.path(name))


# ---------------------------------------------------------------------------
# closed_form: presets with fiber profiles, float and --exact
# ---------------------------------------------------------------------------

def _contains(*needles):
    def check(res: CliResult, rows: list) -> list:
        return [f"output lacks {n!r}" for n in needles if n not in res.out]
    return check


def _binary_root_q(dual):
    """q(root, n) on full_binary: (2^n)^(1/p*), 1 for l^1, 2^n for c0."""

    def check(res: CliResult, rows: list) -> list:
        problems = []
        for row in rows:
            if row[0] != "(0; )":
                continue
            n = int(row[1])
            want = 1.0 if dual == math.inf else 2.0 ** (n / dual)
            if not close(float(row[2]), want):
                problems.append(f"q(root, {n}) = {row[2]}, closed form {want!r}")
        return problems or ([] if rows else ["no rows"])
    return check


CLOSED_FORM_CLI = [
    # (job name, argv, extra check)
    ("reproduce_4_1_disjoint", ["reproduce", "example_4_1_disjoint_sets"], _contains("PASS")),
    ("reproduce_4_1_disjoint_exact", ["reproduce", "example_4_1_disjoint_sets", "--exact",
                                      "--space", "1"], _contains("PASS")),
    ("reproduce_7_1_exact", ["reproduce", "example_7_1_limit_point_not_hc", "--exact",
                             "--horizon", "200"], _contains("PASS")),
    ("reproduce_7_2_orbit", ["reproduce", "example_7_2_orbit", "--space", "3"], _contains("PASS")),
    ("reproduce_7_2_not_hc", ["reproduce", "example_7_2_not_hc", "--horizon", "60"],
     _contains("ceiling at u_1 is 3 (expected 3)", "PASS")),
    ("reproduce_7_2_not_hc_exact", ["reproduce", "example_7_2_not_hc", "--exact",
                                    "--horizon", "60"],
     _contains("ceiling at u_1 is 3 (expected 3)", "PASS")),
    ("norm_4_1", ["norm", "--preset", "example_4_1"], _norm_check(math.sqrt(4.25))),
    ("norm_4_1_exact", ["norm", "--preset", "example_4_1", "--exact"], _norm_check(math.sqrt(4.25))),
    ("norm_7_2", ["norm", "--preset", "example_7_2"], _norm_check(2 ** 1.5)),
    ("norm_7_2_exact", ["norm", "--preset", "example_7_2", "--exact"], _norm_check(2 ** 1.5)),
    ("criteria_4_1_l2_infinite", ["criteria", "--preset", "example_4_1", "--horizon", "1000"], None),
    ("criteria_4_1_l1_syndetic_exact", ["criteria", "--preset", "example_4_1", "--space", "1",
                                        "--family", "syndetic:4", "--horizon", "800",
                                        "--exact"], None),
    ("criteria_4_1_l4_3_thick", ["criteria", "--preset", "example_4_1", "--space", "4/3",
                                 "--family", "thick:3", "--horizon", "600"], None),
    ("criteria_7_2_c0_tilde_exact", ["criteria", "--preset", "example_7_2", "--space", "c0",
                                     "--family", "tilde:1:infinite", "--horizon", "100",
                                     "--exact"], None),
    ("criteria_7_2_l4_3_syndetic", ["criteria", "--preset", "example_7_2", "--space", "4/3",
                                    "--family", "syndetic:2", "--horizon", "100"], None),
    ("criteria_binary_l2", ["criteria", "--preset", "full_binary", "--horizon", "40"],
     _binary_root_q(2)),
    ("criteria_binary_c0_thick", ["criteria", "--preset", "full_binary", "--space", "c0",
                                  "--family", "thick:4", "--horizon", "40"], _binary_root_q(1)),
    ("criteria_binary_l1", ["criteria", "--preset", "full_binary", "--space", "1",
                            "--horizon", "40"], _binary_root_q(math.inf)),
    ("criteria_binary_l4_3_tilde", ["criteria", "--preset", "full_binary", "--space", "4/3",
                                    "--family", "tilde:2:syndetic:3", "--horizon", "40"],
     _binary_root_q(4)),
    ("criteria_unary_l4_3", ["criteria", "--preset", "unary_path", "--space", "4/3",
                             "--horizon", "200"], None),
    ("criteria_bipath_l2_thick", ["criteria", "--preset", "bi_infinite_path",
                                  "--family", "thick:3", "--horizon", "100"], None),
    ("supercyclic_7_2_const_exact", ["supercyclic", "--preset", "example_7_2", "--gamma",
                                     "const:1", "--horizon", "60", "--exact"], None),
    ("supercyclic_7_2_powers_l4_3", ["supercyclic", "--preset", "example_7_2", "--space", "4/3",
                                     "--gamma", "powers:4", "--horizon", "60"], None),
    ("supercyclic_bipath_powers_c0", ["supercyclic", "--preset", "bi_infinite_path",
                                      "--space", "c0", "--gamma", "powers:2",
                                      "--horizon", "60"], None),
    ("supercyclic_binary_const", ["supercyclic", "--preset", "full_binary", "--gamma", "const:1",
                                  "--horizon", "30"], None),
    ("supercyclic_unary_powers", ["supercyclic", "--preset", "unary_path", "--gamma", "powers:2",
                                  "--horizon", "30"], None),
    ("limit_point_4_1_l4_3", ["limit-point", "--preset", "example_4_1", "--space", "4/3",
                              "--horizon", "600"], _contains("verdict at horizon: holds")),
    ("limit_point_4_1_c0_exact", ["limit-point", "--preset", "example_4_1", "--space", "c0",
                                  "--horizon", "1000", "--exact"],
     _contains("verdict at horizon: holds")),
    ("limit_point_7_2_l2_exact", ["limit-point", "--preset", "example_7_2", "--horizon", "200",
                                  "--exact"], None),
    ("limit_point_bipath_l1", ["limit-point", "--preset", "bi_infinite_path", "--space", "1",
                               "--horizon", "200"], None),
    ("limit_point_binary_l2", ["limit-point", "--preset", "full_binary", "--horizon", "40"],
     _contains("verdict at horizon: holds")),
    ("limit_point_unary_c0", ["limit-point", "--preset", "unary_path", "--space", "c0",
                              "--horizon", "200"], _contains("verdict at horizon: fails")),
]


def closed_form_jobs(ctx: Context, rng: random.Random) -> list:
    # The presets take no seed-drawn input: these outputs are fixed, which is
    # what lets every CSV be compared with its golden digest.
    jobs = [cli_job(ctx, name, argv, check, golden=True) for name, argv, check in CLOSED_FORM_CLI]
    doc = ctx.write("example_4_1.ini", "[tree]\npreset = example_4_1\n"
                    "m = 2,4,8,16,32,64,128,256\nexact = true\n")
    jobs.append(cli_job(ctx, "criteria_4_1_document_exact",
                        ["criteria", "--tree", doc, "--horizon", "300"], None, golden=True))
    for exact, p, norm in ((False, "2", math.sqrt(4.25)), (True, "4/3", None)):
        jobs.append(_profile_synthesis_job(ctx, exact, p, norm))
    return jobs


def _profile_synthesis_job(ctx, exact, p, norm):
    """build_recurrent_vector on example_4_1, whose fiber masses come from the
    preset's closed-form profile."""
    ts = ctx.ts
    spec = ts.SpaceSpec.parse(p)

    def run():
        return ts.simplex.build_recurrent_vector(
            range(1, 64), ts.presets.example_4_1(exact=exact), spec, terms=3)

    def check(res) -> list:
        problems = []
        if [t.n for t in res.terms] != [1, 8, 40]:
            problems.append(f"retained n = {[t.n for t in res.terms]}, expected [1, 8, 40]")
        if not all(c.verified for c in res.certificates):
            problems.append("a certificate is not verified")
        if norm is not None and not close(res.operator_norm_value, norm):
            problems.append(f"operator norm {res.operator_norm_value!r}, closed form {norm!r}")
        return problems

    return Job(f"recurrent_4_1_{'exact_' if exact else ''}l{p.replace('/', '_')}", run, check)


def closed_form_probes(ctx: Context) -> list:
    """ROADMAP item-4 inputs that failed when the benchmark was written.

    They run after the timed jobs and are reported apart: a probe is healthy
    when it returns an answer or a typed TreeShiftError (CLI exit 2), and a
    defect on any other exception or CLI exit 3."""
    ts = ctx.ts
    L2 = ts.SpaceSpec.ell(2)

    def q_probe(branch):
        return lambda: ts.criteria.q_value(ts.presets.chain_vertex(branch, 1), 3066,
                                           ts.presets.example_4_1(), L2)

    def cli_probe(argv):
        def run():
            res = ctx.run_cli(argv)
            if res.rc == 3:
                raise RuntimeError(res.err.strip().splitlines()[-1])
            return res.rc
        return run

    return [
        ("q_value_u1_3066", q_probe(0)),
        ("q_value_v1_3066", q_probe(1)),
        ("reproduce_4_1_disjoint_h4000",
         cli_probe(["reproduce", "example_4_1_disjoint_sets", "--horizon", "4000"])),
        ("dynamics_bipath_h1100",
         lambda: ts.criteria.dynamics_report(
             ts.presets.bi_infinite_path(lambda d: 2.0 ** -d), L2, horizon=1100).satisfied),
        ("criteria_4_1_l4_3_h1000",
         cli_probe(["criteria", "--preset", "example_4_1", "--space", "4/3", "--horizon", "1000"])),
    ]


# ---------------------------------------------------------------------------
# synthesis: library-built vectors through simplex, shifts and spaces
# ---------------------------------------------------------------------------

def _shift_reference(entries: dict, n: int, rooted: bool) -> dict:
    """B^n by address arithmetic alone: each entry moves to its n-fold parent."""
    out = {}
    for v, x in entries.items():
        a = ref.ancestor((v[0], tuple(v[1])), n, rooted)
        if a is not None:
            out[a] = out.get(a, 0) + x
    return {a: x for a, x in out.items() if x != 0}


def _as_plain(vec) -> dict:
    return {(v[0], tuple(v[1])): x for v, x in vec.items()}


def _recurrent_job(ctx, name, p, seq, terms, trunc, want_ns):
    ts = ctx.ts
    spec = ts.SpaceSpec.parse(p)

    def run():
        return ts.simplex.build_recurrent_vector(
            seq, ts.presets.full_binary(), spec, terms=terms, trunc=ts.trees.Truncation(*trunc))

    def check(res) -> list:
        problems = []
        ns = [t.n for t in res.terms]
        if ns != want_ns:
            problems.append(f"retained n = {ns}, expected {want_ns}")
        size = sum(2 ** n for n in want_ns)
        if len(res.vector) != size:
            problems.append(f"vector has {len(res.vector)} entries, expected {size}")
        if not all(c.verified for c in res.certificates):
            problems.append("a certificate is not verified")
        want = 2.0 if p == "c0" else 2.0 ** (1 - 1 / float(Fraction(p)))
        if not close(res.operator_norm_value, want):
            problems.append(f"operator norm {res.operator_norm_value!r}, closed form {want!r}")
        for t in res.terms:  # B^n g = e_root: the fiber mass is exactly 1
            if sum(x for _, x in t.g.items()) != 1:
                problems.append(f"S_{t.n} e_root does not have unit mass")
        return problems

    return Job(name, run, check)


def _sn_job(ctx, name, make_tree, spec_text, picks):
    """B^n S_n e_v == e_v exactly, ||S_n e_v|| equals the fiber's simplex
    infimum, and that infimum is 1/q(v, n), at seed-chosen (v, n)."""
    ts = ctx.ts
    spec = ts.SpaceSpec.parse(spec_text)

    def run():
        tree = make_tree()
        out = []
        for v, n in picks:
            v = ts.trees.VertexAddress(*v)
            g = ts.simplex.build_Sn(v, n, tree, spec)
            back = ts.shifts.apply_B_pow(g, n, tree)
            out.append((v, n, back, ts.spaces.norm(g, spec, tree),
                        ts.simplex.fiber_simplex_inf(tree, v, n, spec),
                        ts.criteria.q_value(v, n, tree, spec)))
        return out

    def check(res) -> list:
        problems = []
        for v, n, back, g_norm, inf, q in res:
            if _as_plain(back) != {(v[0], tuple(v[1])): 1}:
                problems.append(f"B^{n} S_{n} e_{v} != e_{v}")
            if not close(float(g_norm), float(inf)):
                problems.append(f"||S_{n} e_{v}|| = {g_norm}, simplex infimum {inf}")
            if not close(float(inf) * q, 1.0):
                problems.append(f"simplex infimum {inf} is not 1/q = 1/{q}")
        return problems

    return Job(name, run, check)


def _random_vector(rng, count, max_depth, exact):
    entries = {}
    while len(entries) < count:
        depth = rng.randint(max_depth - 6, max_depth)
        path = tuple(map(int, format(rng.getrandbits(depth), f"0{depth}b")))
        sign, k = rng.choice((-1, 1)), rng.randint(0, 6)
        entries[(0, path)] = Fraction(sign, 2 ** k) if exact else math.ldexp(sign, -k)
    return entries


def _duality_job(ctx, name, f_entries, g_entries, steps):
    """<Bf, g> == <f, Sg>, and the orbit of f against B^n by address
    arithmetic, on full_binary (all weights 1)."""
    ts = ctx.ts
    L2 = ts.SpaceSpec.ell(2)

    def run():
        tree = ts.presets.full_binary()
        f = ts.spaces.SparseVector({ts.trees.VertexAddress(*v): x for v, x in f_entries.items()})
        g = ts.spaces.SparseVector({ts.trees.VertexAddress(*v): x for v, x in g_entries.items()})
        lhs = ts.spaces.pairing(ts.shifts.apply_B(f, tree), g)
        rhs = ts.spaces.pairing(f, ts.shifts.apply_S(g, tree))
        points = ts.shifts.orbit(f, steps, tree, L2)
        return lhs, rhs, points

    def check(res) -> list:
        lhs, rhs, points = res
        problems = [] if lhs == rhs else [f"<Bf, g> = {lhs} but <f, Sg> = {rhs}"]
        last = points[-1]
        want = _shift_reference(f_entries, last.n, True)
        if _as_plain(last.vector) != want:
            problems.append(f"orbit point {last.n} differs from B^{last.n} f by address arithmetic")
        want_norm = math.sqrt(float(sum(x * x for x in want.values())))
        if not close(last.norm, want_norm):
            problems.append(f"||B^{last.n} f|| = {last.norm}, reference {want_norm}")
        return problems

    return Job(name, run, check)


def _return_set_job(ctx, name, u_center, v_center, horizon, exact):
    """Return-set certificates on example_7_2 (build_In_unrooted witnesses);
    every certified witness is re-checked with reference norms, and the
    certified times are judged against the syndetic family."""
    gap = 3
    ts = ctx.ts
    L2 = ts.SpaceSpec.ell(2)

    def run():
        tree = ts.presets.example_7_2(exact=exact)
        U = ts.shifts.BallSpec(ts.spaces.basis(u_center), 0.5, L2)
        V = ts.shifts.BallSpec(ts.spaces.basis(v_center), 0.5, L2)
        report = ts.shifts.return_set_report(U, V, horizon, tree)
        verdict = ts.families.family_verdict(
            set(report.certified), ts.families.syndetic_family(gap), horizon)
        return report, verdict

    def weight(v):
        return 1.0 if not v[1] else 2.0 ** -len(v[1])

    def l2(entries):
        return math.sqrt(sum(float(x * weight(v)) ** 2 for v, x in entries.items()))

    def minus(entries, center):
        out = dict(entries)
        out[center] = out.get(center, 0) - 1
        return out

    def check(out) -> list:
        res, verdict = out
        problems = []
        absent = longest = 0
        for t in range(horizon + 1):
            absent = 0 if t in res.certified else absent + 1
            longest = max(longest, absent)
        if verdict.status != ("holds" if longest <= gap else "fails"):
            problems.append(f"syndetic({gap}) verdict {verdict.status} with gaps of {longest}")
        if not res.certified:
            problems.append("no certified return time")
        for n, w in res.certified.items():
            plain = _as_plain(w)
            if not l2(minus(plain, u_center)) < 0.5:
                problems.append(f"witness {n} is not in U")
            if not l2(minus(_shift_reference(plain, n, False), v_center)) < 0.5:
                problems.append(f"B^{n} of witness {n} is not in V")
        if set(res.certified) | res.uncertified != set(range(horizon + 1)):
            problems.append("certified and uncertified times do not cover the horizon")
        return problems

    return Job(name, run, check)


def synthesis_jobs(ctx: Context, rng: random.Random) -> list:
    jobs = [
        _recurrent_job(ctx, "recurrent_l3", "3", range(1, 21), 4, (12, 0), [2, 5, 10, 16]),
        _recurrent_job(ctx, "recurrent_l4", "4", range(1, 21), 3, (10, 0), [2, 5, 9]),
        _recurrent_job(ctx, "recurrent_c0", "c0", range(1, 21), 4, (14, 0), [1, 3, 6, 10]),
    ]

    def binary_vertex(max_depth):
        return (0, tuple(rng.getrandbits(1) for _ in range(rng.randint(0, max_depth))))

    def chain(max_k):
        return (0, (rng.getrandbits(1),) + (0,) * (rng.randint(1, max_k) - 1))

    ts = ctx.ts
    doc = ctx.write("example_7_2.ini", "[tree]\npreset = example_7_2\nexact = true\n")
    jobs += [
        _sn_job(ctx, "sn_binary_l2", ts.presets.full_binary, "2",
                [(binary_vertex(5), rng.randint(9, 11)) for _ in range(6)]),
        _sn_job(ctx, "sn_4_1_exact_l4_3", lambda: ts.presets.example_4_1(exact=True), "4/3",
                [((0, ()), 1)] + [(chain(30), rng.randint(20, 60)) for _ in range(5)]),
        _sn_job(ctx, "sn_7_2_document_exact_l2",
                lambda: ts.treespec.load_tree_spec(doc).source, "2",
                [((rng.randint(0, 4), ()), rng.randint(6, 12)) for _ in range(4)]),
        cli_job(ctx, "return_set_binary_cli",
                ["return-set", "--preset", "full_binary", "--horizon", "12"],
                _contains("certified times: [0, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12]"), golden=True),
    ]

    # U sits on a chain: a spine-centred U ball has no In witnesses at radius 1/2
    for exact in (False, True):
        u, v = chain(3), rng.choice([(rng.randint(1, 3), ()), chain(3)])
        jobs.append(_return_set_job(ctx, f"return_set_7_2{'_exact' if exact else ''}",
                                    u, v, 60, exact))

    for exact, count in ((False, 15000), (True, 4000)):
        f = _random_vector(rng, count, 16, exact)
        g = _random_vector(rng, count, 16, exact)
        jobs.append(_duality_job(ctx, f"duality_orbit{'_exact' if exact else ''}", f, g, 12))
    return jobs


BUILDERS = {"enum": enum_jobs, "closed_form": closed_form_jobs, "synthesis": synthesis_jobs}
WORKLOADS = tuple(BUILDERS)
