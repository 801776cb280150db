"""Command-line front end.

Subcommands and the flags each takes, besides --out, --csv and --seed, which
every subcommand takes:

  validate     --tree | --preset, --exact, --depth, --ancestry
  norm         --tree | --preset, --exact, --space, --depth, --ancestry
  orbit        --tree | --preset, --exact, --space, --vector, --vector-preset,
               --steps
  criteria     --tree | --preset, --exact, --space, --horizon, --family
  supercyclic  --tree | --preset, --exact, --space, --horizon, --depth,
               --ancestry, --gamma
  limit-point  --tree | --preset, --exact, --space, --horizon
  return-set   --tree | --preset, --exact, --space, --horizon, --u-center,
               --v-center, --u-radius, --v-radius, --slack
  reproduce    <name>, --exact, --space, --horizon (not example_7_2_orbit,
               whose times are fixed)

Exit codes: 0 success / reproduction PASS, 1 reproduction FAIL, 2 spec or
usage error, 3 internal error.  A malformed flag value exits 2 before any
command runs.

Every CSV schema is fixed per command (see each subcommand's --help); floats
are printed with 12 significant digits and output is byte-deterministic for a
given config and seed.

The argument parser is built once per process, on the first call of `main`
(`build_parser` is cached): argparse keeps no state between parses, and every
flag default is immutable, so in-process calls share it.  A --tree document
is read on every call, but its text is parsed once per process
(`treespec.parse_tree_spec` keeps the parse, not the tree): each command
still builds its own TreeModel.
"""

from __future__ import annotations

import argparse
import csv
import functools
import sys
import traceback
from fractions import Fraction
from itertools import islice, repeat
from typing import Callable, Iterable, Optional, Union

from . import criteria as crit
from ._record import field, record
from .errors import TreeShiftError, TreeSpecError
from .families import (
    FamilySpec,
    cofinite_family,
    infinite_family,
    syndetic_family,
    thick_family,
    tilde_family,
)
from .presets import (
    EXACT_PRESETS,
    PRESETS,
    chain_vertex,
    example_7_2_vector,
    make_preset,
)
from .shifts import BallSpec, apply_B_pow, operator_norm, orbit, return_set_report
from .spaces import SpaceSpec, basis, load_vector, norm, to_float
from .trees import ANCHOR, Truncation
from .treespec import TreeSpecDocument, load_tree_spec, resolve_model, validate_document

_BLOCK = 1024  # CSV rows formatted at a time: one pass per column, memory flat


def _fmt(x) -> str:
    if isinstance(x, bool):
        return "1" if x else "0"
    if isinstance(x, int):
        return str(x)
    if isinstance(x, str):
        return x
    return f"{to_float(x):.12g}"


def _column(cells: tuple) -> Iterable[str]:
    """`_fmt` of each of ``cells``: one C-level pass for a column of floats
    alone, ints alone or strs alone, `_fmt` per cell for any other."""
    kinds = set(map(type, cells))
    if kinds == {float}:
        return map(format, cells, repeat(".12g"))
    return map(str, cells) if kinds == {int} else cells if kinds == {str} else map(_fmt, cells)


def _load_document(args: argparse.Namespace) -> TreeSpecDocument:
    """The --tree document or the --preset tree."""
    if args.tree:
        return load_tree_spec(args.tree)
    if args.preset:
        params = {"exact": args.exact} if args.preset in EXACT_PRESETS else {}
        return TreeSpecDocument(make_preset(args.preset, **params), Truncation(), args.preset)
    raise TreeSpecError("give either --tree <path> or --preset <name>")


def _truncation(args: argparse.Namespace, doc: TreeSpecDocument) -> Truncation:
    """The document's truncation with the --depth and --ancestry overrides."""
    trunc = doc.truncation
    return Truncation(
        trunc.depth if args.depth is None else args.depth,
        trunc.ancestry if args.ancestry is None else args.ancestry,
    )


def _emit(text: str, out_path: Optional[str]) -> None:
    print(text)
    if out_path:
        with open(out_path, "w", encoding="utf-8", newline="\n") as fp:
            fp.write(text + "\n")


def _write_csv(args: argparse.Namespace, header: tuple[str, ...],
               rows: Callable[[], Iterable]) -> None:
    """Write the rows ``rows()`` returns, each of the header's length, to the
    --csv path; without --csv they are never built.  Each block of `_BLOCK`
    rows is formatted by column (`_column`) and written by one ``writerows``."""
    if not args.csv:
        return
    with open(args.csv, "w", encoding="utf-8", newline="") as fp:
        fp.write(f"# treeshift {args.command}; seed={args.seed}\n")
        writer = csv.writer(fp, lineterminator="\n")
        writer.writerow(header)
        it = iter(rows())
        while block := list(islice(it, _BLOCK)):
            writer.writerows(zip(*map(_column, zip(*block))))


def _parse_family(text: str) -> FamilySpec:
    kind, *params = text.split(":")
    if kind == "infinite":
        return infinite_family()
    if kind == "cofinite":
        return cofinite_family()
    if kind == "syndetic" and params:
        return syndetic_family(int(params[0]))
    if kind == "thick" and params:
        return thick_family(int(params[0]))
    if kind == "tilde" and params:
        return tilde_family(_parse_family(":".join(params[1:])), int(params[0]))
    raise TreeSpecError(
        f"unknown family {text!r}; use infinite | cofinite | syndetic:g | "
        f"thick:L | tilde:N:<family>"
    )


def _parse_gamma(text: str) -> crit.GammaSpec:
    kind, *params = text.split(":")
    if kind == "const":
        return crit.gamma_constant(Fraction(params[0]) if params else 1)
    if kind == "powers" and params:
        return crit.gamma_powers(Fraction(params[0]))
    raise TreeSpecError(f"unknown gamma {text!r}; use const:c | powers:r")


def _count(value: int) -> int:
    if value < 0:
        raise ValueError("must be >= 0")
    return value


def _radius(value: float) -> float:
    if not value > 0:
        raise ValueError("radius must be positive")
    return value


def _slack(value: float) -> float:
    if not 0 <= value < 1:
        raise ValueError("slack must satisfy 0 <= slack < 1")
    return value


def _load_ball(path: Optional[str], radius: float, space: SpaceSpec) -> BallSpec:
    if path:
        with open(path, "r", encoding="utf-8") as fp:
            center = load_vector(fp)
    else:
        center = basis(ANCHOR)
    return BallSpec(center, radius, space)


# A runner reads the parsed arguments and returns (exit code, text, CSV rows).


def _validate(args):
    doc = _load_document(args)
    report = validate_document(doc, _truncation(args, doc))
    lines = [f"validated {report.checked} vertices: {'OK' if report.ok else 'INVALID'}"]
    for v in report.violations:
        lines.append(f"  {v.code} at {v.where}: {v.detail}")
    return (0 if report.ok else 2, "\n".join(lines),
            lambda: [(v.code, v.where, v.detail) for v in report.violations])


def _norm(args):
    doc = _load_document(args)
    tree, trunc = resolve_model(doc), _truncation(args, doc)
    result = operator_norm(args.space, tree, trunc)
    flag = "sup over truncation (lower bound)" if result.is_sup_over_truncation else "exact (finite tree)"
    text = (
        f"operator norm of B on {tree.name} ({args.space.label}): "
        f"{result.value:.10f}\n{flag}; attained near "
        f"{result.argmax}; truncation depth={trunc.depth} ancestry={trunc.ancestry}"
    )
    return 0, text, lambda: [(args.space.label, result.value, result.is_sup_over_truncation)]


def _orbit(args):
    tree = resolve_model(_load_document(args))
    if args.vector:
        with open(args.vector, "r", encoding="utf-8") as fp:
            f = load_vector(fp)
    elif args.vector_preset == "example_7_2_f":
        f = example_7_2_vector(exact=args.exact)
    else:
        f = basis(ANCHOR)
    points = orbit(f, args.steps, tree, args.space)
    lines = [f"orbit of a {len(f)}-point vector on {tree.name} ({args.space.label})"]
    lines.extend(f"  n={p.n}: ||B^n f|| = {_fmt(p.norm)}" for p in points)
    return 0, "\n".join(lines), lambda: [(p.n, p.norm) for p in points]


def _criteria(args):
    tree = resolve_model(_load_document(args))
    report = crit.dynamics_report(tree, args.space, args.family, horizon=args.horizon)
    return 0, report.to_text(), report.csv_rows


def _supercyclic(args):
    doc = _load_document(args)
    report = crit.supercyclicity_report(
        resolve_model(doc), args.space, args.gamma, horizon=args.horizon,
        trunc=_truncation(args, doc),
    )
    return 0, report.to_text(), report.csv_rows


def _limit_point(args):
    tree = resolve_model(_load_document(args))
    report = crit.limit_point_report(tree, args.space, horizon=args.horizon)
    return 0, report.to_text(), report.csv_rows


def _return_set(args):
    tree = resolve_model(_load_document(args))
    space = args.space
    U = _load_ball(args.u_center, args.u_radius, space)
    V = _load_ball(args.v_center, args.v_radius, space)
    report = return_set_report(U, V, args.horizon, tree, args.slack)
    text = (
        f"return set N(U, V) on {tree.name} ({space.label}), horizon {args.horizon}\n"
        f"certified times: {sorted(report.certified)}\n"
        f"uncertified (not refuted): {sorted(report.uncertified)}"
    )

    def rows():
        for n in range(args.horizon + 1):
            w = report.certified.get(n)
            yield n, w is not None, "" if w is None else norm(w, space, tree)

    return 0, text, rows


def _example_4_1_disjoint_sets(space, horizon, exact):
    tree = make_preset("example_4_1", exact=exact)
    ladder = (1, 2, 4)
    rows = []
    ok = True
    for k in range(1, 6):
        u_times, v_times = (
            crit.I_sets([chain_vertex(branch, k)], ladder, tree, space, horizon)
            for branch in (0, 1)
        )
        for N, u, v in zip(ladder, u_times, v_times):
            inter = u & v
            rows.append((k, N, len(inter)))
            ok = ok and not inter
    text = (
        f"I(u_k, N) and I(v_k, N) are disjoint for k=1..5, N in {{1,2,4}}, "
        f"horizon {horizon}: {'PASS' if ok else 'FAIL'}"
    )
    return ok, text, rows


def _example_7_1_limit_point_not_hc(space, horizon, exact):
    tree = make_preset("example_4_1", exact=exact)
    dyn = crit.dynamics_report(tree, space, horizon=horizon)
    lim = crit.limit_point_report(tree, space, horizon=horizon)
    ok = (not dyn.satisfied) and lim.status == "holds"
    text = (
        f"not hypercyclic at horizon: {not dyn.satisfied}; orbit with nonzero "
        f"limit point: {lim.status}: {'PASS' if ok else 'FAIL'}"
    )
    rows = [(n, crit.q_value(ANCHOR, n, tree, space)) for n in range(horizon + 1)]
    return ok, text, rows


def _example_7_2_orbit(space, horizon, exact):
    tree = make_preset("example_7_2", exact=exact)
    f = example_7_2_vector(k_max=7, exact=exact)
    target = basis(chain_vertex(0, 1)) - basis(chain_vertex(1, 1))
    p = float(space.p) if space.kind == "lp" else None
    if p is None:
        raise TreeSpecError("example_7_2_orbit needs an l^p space")
    rows = []
    ok = True
    last = None
    for k in range(1, 7):
        n = 2 ** k - 1
        residual = to_float(norm(apply_B_pow(f, n, tree) - target, space, tree))
        analytic = (
            2.0 / 2.0 ** p
            * sum(2.0 ** (-p * (2 ** l - 2 ** k)) for l in range(k + 1, 8))
        ) ** (1.0 / p)
        rows.append((k, n, residual, analytic))
        ok = ok and abs(residual - analytic) <= 1e-9 * (1 + analytic)
        if last is not None:
            ok = ok and residual < last
        last = residual
    text = f"orbit residuals match the analytic tail sums: {'PASS' if ok else 'FAIL'}"
    return ok, text, rows


def _example_7_2_not_hc(space, horizon, exact):
    tree = make_preset("example_7_2", exact=exact)
    u1 = chain_vertex(0, 1)
    ceiling = max(crit.j_value(u1, n, tree, space) for n in range(horizon + 1))
    inter = crit.I_set([u1], 4, tree, space, horizon) & crit.J_set(
        [u1], 4, tree, space, horizon
    )
    dyn = crit.dynamics_report(tree, space, horizon=horizon)
    ok = abs(ceiling - 3.0) <= 1e-9 and not inter and not dyn.satisfied
    text = (
        f"j-quantity ceiling at u_1 is {ceiling:.6g} (expected 3); I&J empty at "
        f"N=4: {not inter}; criterion fails at horizon: {not dyn.satisfied}: "
        f"{'PASS' if ok else 'FAIL'}"
    )
    rows = [
        (n, crit.q_value(u1, n, tree, space), crit.j_value(u1, n, tree, space))
        for n in range(horizon + 1)
    ]
    return ok, text, rows


@record(frozen=True)
class Reproduction:
    """A scripted reproduction: its CSV columns, its default --horizon (None
    for one at fixed times, which takes no --horizon), and its function of
    (space, horizon, exact) to (passed, text, CSV rows)."""

    header: tuple[str, ...]
    horizon: Optional[int]
    run: Callable


REPRODUCTIONS = {
    "example_4_1_disjoint_sets": Reproduction(
        ("k", "N", "intersection_size"), 1000, _example_4_1_disjoint_sets),
    "example_7_1_limit_point_not_hc": Reproduction(
        ("n", "q_root"), 64, _example_7_1_limit_point_not_hc),
    "example_7_2_orbit": Reproduction(
        ("k", "n", "residual", "analytic"), None, _example_7_2_orbit),
    "example_7_2_not_hc": Reproduction(("n", "q_u1", "j_u1"), 64, _example_7_2_not_hc),
}


def _reproduce(args):
    repro = REPRODUCTIONS[args.name]
    if repro.horizon is None and args.horizon is not None:
        raise TreeSpecError(f"reproduce {args.name} takes no --horizon: its times are fixed")
    horizon = repro.horizon if args.horizon is None else args.horizon
    ok, text, rows = repro.run(args.space, horizon, args.exact)
    return 0 if ok else 1, text, lambda: rows


# Every flag a subcommand can take, with its argparse keywords.
_FLAGS = {
    "--tree": dict(help="tree-spec document path"),
    "--preset": dict(choices=sorted(PRESETS), help="named preset tree"),
    "--exact": dict(
        action="store_true",
        help="exact dyadic weights (--preset trees; documents set their own 'exact')",
    ),
    "--space": dict(default="2", help="p for l^p (e.g. 2, 1, 4/3) or c0"),
    "--horizon": dict(type=int, default=64),
    "--depth": dict(type=int, help="truncation depth override"),
    "--ancestry": dict(type=int, help="truncation ancestry override"),
    "--vector": dict(help="vector file (address<TAB>value lines)"),
    "--vector-preset": dict(choices=["example_7_2_f"], help="a named vector preset"),
    "--steps": dict(type=int, default=64, help="number of orbit steps (default 64)"),
    "--family": dict(
        default="infinite", help="infinite | cofinite | syndetic:g | thick:L | tilde:N:<family>"
    ),
    "--gamma": dict(default="const:1", help="const:c | powers:r"),
    "--u-center": dict(help="vector file for the U ball center (default e_anchor)"),
    "--v-center": dict(help="vector file for the V ball center (default e_anchor)"),
    "--u-radius": dict(type=float, default=0.5),
    "--v-radius": dict(type=float, default=0.5),
    "--slack": dict(type=float, default=1e-6),
    "name": dict(choices=tuple(REPRODUCTIONS)),
    "--out": dict(help="write the text report here as well"),
    "--csv": dict(help="write CSV data here"),
    "--seed": dict(type=int, default=0, help="seed recorded in outputs"),
}

# The flags whose values `main` turns into library objects, or checks, before
# any command runs.
_CONVERT = {
    "--space": SpaceSpec.parse,
    "--family": _parse_family,
    "--gamma": _parse_gamma,
    "--horizon": _count,
    "--steps": _count,
    "--depth": _count,
    "--ancestry": _count,
    "--u-radius": _radius,
    "--v-radius": _radius,
    "--slack": _slack,
}


@record(frozen=True)
class Command:
    """A subcommand: its help line, the flags it takes besides --out, --csv
    and --seed, its CSV columns, its runner and any argparse defaults that
    differ from the flag's own."""

    help: str
    flags: tuple[str, ...]
    header: Union[tuple[str, ...], dict[str, tuple[str, ...]]]
    run: Callable
    defaults: dict = field(default_factory=dict)

    __hash__ = None  # by design: the defaults are a dict


_TREE = ("--tree", "--preset", "--exact")
_TRUNCATION = ("--depth", "--ancestry")

_COMMANDS = {
    "validate": Command("check the tree axioms on a truncation", _TREE + _TRUNCATION,
                        ("code", "where", "detail"), _validate),
    "norm": Command("operator norm of the backward shift", _TREE + ("--space",) + _TRUNCATION,
                    ("space", "value", "is_sup_over_truncation"), _norm),
    "orbit": Command("orbit norms of a finitely supported vector",
                     _TREE + ("--space", "--vector", "--vector-preset", "--steps"),
                     ("n", "norm"), _orbit),
    "criteria": Command("transitivity/recurrence weight criteria",
                        _TREE + ("--space", "--horizon", "--family"),
                        ("vertex", "n", "q_value", "j_value"), _criteria),
    "supercyclic": Command("scaled-orbit (Gamma) criteria",
                           _TREE + ("--space", "--horizon") + _TRUNCATION + ("--gamma",),
                           ("threshold", "n", "k", "abs_lambda"), _supercyclic),
    "limit-point": Command("orbital limit point criteria", _TREE + ("--space", "--horizon"),
                           ("vertex", "n", "q_value"), _limit_point),
    "return-set": Command("constructive return-set certification",
                          _TREE + ("--space", "--horizon", "--u-center", "--v-center",
                                   "--u-radius", "--v-radius", "--slack"),
                          ("n", "certified", "witness_norm"), _return_set),
    # each reproduction has its own header and default horizon
    "reproduce": Command("scripted reproductions with PASS/FAIL",
                         ("name", "--exact", "--space", "--horizon"),
                         {name: repro.header for name, repro in REPRODUCTIONS.items()},
                         _reproduce, defaults={"horizon": None}),
}


def _epilog(header) -> str:
    if isinstance(header, dict):
        return "CSV: " + "; ".join(f"{name}: {','.join(h)}" for name, h in header.items())
    return "CSV: " + ",".join(header)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="treeshift",
        description="Weighted backward shifts on directed trees: norms, orbits, "
        "and horizon-bounded dynamical criteria.",
    )
    subs = parser.add_subparsers(dest="command", required=True)
    for name, command in _COMMANDS.items():
        sub = subs.add_parser(name, help=command.help, epilog=_epilog(command.header))
        for flag in command.flags + ("--out", "--csv", "--seed"):
            sub.add_argument(flag, **_FLAGS[flag])
        sub.set_defaults(**command.defaults)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    for flag, convert in _CONVERT.items():
        dest = flag[2:].replace("-", "_")
        value = vars(args).get(dest)
        if value is None:
            continue
        try:
            setattr(args, dest, convert(value))
        except (ArithmeticError, ValueError, TreeShiftError) as exc:
            reason = "zero denominator" if isinstance(exc, ZeroDivisionError) else exc
            print(f"error: {flag} {value}: {reason}", file=sys.stderr)
            return 2
    command = _COMMANDS[args.command]
    header = command.header
    if isinstance(header, dict):
        header = header[args.name]
    try:
        code, text, rows = command.run(args)
        _emit(text, args.out)
        _write_csv(args, header, rows)
    except (TreeShiftError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception:
        traceback.print_exc()
        return 3
    return code


if __name__ == "__main__":
    sys.exit(main())
