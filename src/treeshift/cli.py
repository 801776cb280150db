"""Command-line front end.

Subcommands: validate, norm, orbit, criteria, supercyclic, limit-point,
return-set, reproduce.  Exit codes: 0 success / reproduction PASS,
1 reproduction FAIL, 2 spec or usage error, 3 internal error.

Every CSV schema is fixed per command (see each subcommand's --help); floats
are printed with 12 significant digits and output is byte-deterministic for a
given config and seed.
"""

from __future__ import annotations

import argparse
import csv
import sys
import traceback
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Iterable, Optional

from . import criteria as crit
from .errors import TreeShiftError, TreeSpecError, UnknownPresetError
from .families import (
    FamilySpec,
    cofinite_family,
    infinite_family,
    syndetic_family,
    thick_family,
    tilde_family,
)
from .presets import (
    PRESETS,
    chain_vertex,
    example_7_2_vector,
    make_preset,
)
from .shifts import BallSpec, apply_B_pow, operator_norm, orbit, return_set_report
from .spaces import SpaceSpec, basis, load_vector, norm, to_float
from .trees import ANCHOR, TreeModel, Truncation, validate
from .treespec import TreeSpecDocument, load_tree_spec, resolve_model


def _fmt(x) -> str:
    if isinstance(x, bool):
        return "1" if x else "0"
    if isinstance(x, int):
        return str(x)
    if isinstance(x, str):
        return x
    return f"{to_float(x):.12g}"


@dataclass
class RunConfig:
    command: str
    tree_path: Optional[str] = None
    preset: Optional[str] = None
    space: SpaceSpec = SpaceSpec.ell(2)
    horizon: int = 64
    depth: Optional[int] = None
    ancestry: Optional[int] = None
    out: Optional[str] = None
    csv_path: Optional[str] = None
    exact: bool = False
    seed: int = 0
    options: dict = field(default_factory=dict)


def _config_from_args(args: argparse.Namespace) -> RunConfig:
    space = SpaceSpec.parse(getattr(args, "space", "2"))
    options = {
        k: v
        for k, v in vars(args).items()
        if k
        not in {
            "command", "tree", "preset", "space", "horizon", "depth",
            "ancestry", "out", "csv", "exact", "seed", "func",
        }
    }
    return RunConfig(
        command=args.command,
        tree_path=getattr(args, "tree", None),
        preset=getattr(args, "preset", None),
        space=space,
        horizon=getattr(args, "horizon", 64),
        depth=getattr(args, "depth", None),
        ancestry=getattr(args, "ancestry", None),
        out=getattr(args, "out", None),
        csv_path=getattr(args, "csv", None),
        exact=getattr(args, "exact", False),
        seed=getattr(args, "seed", 0),
        options=options,
    )


def _load_document(config: RunConfig) -> TreeSpecDocument:
    """The --tree document or a --preset, with the truncation overrides."""
    if config.tree_path:
        doc = load_tree_spec(config.tree_path)
    elif config.preset:
        params = {}
        if config.preset in ("example_4_1", "example_7_2"):
            params["exact"] = config.exact
        doc = TreeSpecDocument(make_preset(config.preset, **params), Truncation(), config.preset)
    else:
        raise TreeSpecError("give either --tree <path> or --preset <name>")
    trunc = doc.truncation
    depth = trunc.depth if config.depth is None else config.depth
    ancestry = trunc.ancestry if config.ancestry is None else config.ancestry
    doc.truncation = Truncation(depth, ancestry)
    return doc


def _load_model(config: RunConfig) -> tuple[TreeModel, Truncation]:
    doc = _load_document(config)
    return resolve_model(doc), doc.truncation


def _emit(text: str, out_path: Optional[str]) -> None:
    print(text)
    if out_path:
        with open(out_path, "w", encoding="utf-8", newline="\n") as fp:
            fp.write(text + "\n")


def _write_csv(config: RunConfig, header: list[str], rows: Callable[[], Iterable]) -> None:
    """Write the rows ``rows()`` returns to the --csv path; without --csv
    they are never built."""
    if not config.csv_path:
        return
    with open(config.csv_path, "w", encoding="utf-8", newline="") as fp:
        fp.write(f"# treeshift {config.command}; seed={config.seed}\n")
        writer = csv.writer(fp, lineterminator="\n")
        writer.writerow(header)
        for row in rows():
            writer.writerow([_fmt(x) for x in row])


def _parse_family(text: str) -> FamilySpec:
    parts = text.split(":")
    kind = parts[0]
    if kind == "infinite":
        return infinite_family()
    if kind == "cofinite":
        return cofinite_family()
    if kind == "syndetic":
        return syndetic_family(int(parts[1]))
    if kind == "thick":
        return thick_family(int(parts[1]))
    if kind == "tilde":
        return tilde_family(_parse_family(":".join(parts[2:])), int(parts[1]))
    raise TreeSpecError(
        f"unknown family {text!r}; use infinite | cofinite | syndetic:g | "
        f"thick:L | tilde:N:<family>"
    )


def _parse_gamma(text: str) -> crit.GammaSpec:
    parts = text.split(":")
    if parts[0] == "const":
        value = Fraction(parts[1]) if len(parts) > 1 else 1
        return crit.gamma_constant(value)
    if parts[0] == "powers":
        return crit.gamma_powers(Fraction(parts[1]))
    raise TreeSpecError(f"unknown gamma {text!r}; use const:c | powers:r")


def _load_ball(path: Optional[str], radius: float, space: SpaceSpec) -> BallSpec:
    if path:
        with open(path, "r", encoding="utf-8") as fp:
            center = load_vector(fp)
    else:
        center = basis(ANCHOR)
    return BallSpec(center, radius, space)


def _cmd_validate(config: RunConfig) -> int:
    doc = _load_document(config)
    report = validate(doc.source, doc.truncation)
    lines = [f"validated {report.checked} vertices: {'OK' if report.ok else 'INVALID'}"]
    for v in report.violations:
        lines.append(f"  {v.code} at {v.where}: {v.detail}")
    _emit("\n".join(lines), config.out)
    _write_csv(config, ["code", "where", "detail"],
               lambda: [(v.code, v.where, v.detail) for v in report.violations])
    return 0 if report.ok else 2


def _cmd_norm(config: RunConfig) -> int:
    tree, trunc = _load_model(config)
    result = operator_norm(config.space, tree, trunc)
    flag = "sup over truncation (lower bound)" if result.is_sup_over_truncation else "exact (finite tree)"
    _emit(
        f"operator norm of B on {tree.name} ({config.space.label}): "
        f"{result.value:.10f}\n{flag}; attained near "
        f"{result.argmax}; truncation depth={trunc.depth} ancestry={trunc.ancestry}",
        config.out,
    )
    _write_csv(
        config,
        ["space", "value", "is_sup_over_truncation"],
        lambda: [(config.space.label, result.value, result.is_sup_over_truncation)],
    )
    return 0


def _cmd_orbit(config: RunConfig) -> int:
    tree, trunc = _load_model(config)
    vec_path = config.options.get("vector")
    vec_preset = config.options.get("vector_preset")
    if vec_path:
        with open(vec_path, "r", encoding="utf-8") as fp:
            f = load_vector(fp)
    elif vec_preset == "example_7_2_f":
        f = example_7_2_vector(exact=config.exact)
    else:
        f = basis(ANCHOR)
    steps = config.options.get("steps") or config.horizon
    points = orbit(f, steps, tree, config.space)
    lines = [f"orbit of a {len(f)}-point vector on {tree.name} ({config.space.label})"]
    lines.extend(f"  n={p.n}: ||B^n f|| = {_fmt(p.norm)}" for p in points)
    _emit("\n".join(lines), config.out)
    _write_csv(config, ["n", "norm"], lambda: [(p.n, p.norm) for p in points])
    return 0


def _cmd_criteria(config: RunConfig) -> int:
    tree, _ = _load_model(config)
    fam = _parse_family(config.options.get("family") or "infinite")
    report = crit.dynamics_report(tree, config.space, fam, horizon=config.horizon)
    _emit(report.to_text(), config.out)
    _write_csv(config, ["vertex", "n", "q_value", "j_value"], report.csv_rows)
    return 0


def _cmd_supercyclic(config: RunConfig) -> int:
    tree, trunc = _load_model(config)
    gamma = _parse_gamma(config.options.get("gamma") or "const:1")
    report = crit.supercyclicity_report(
        tree, config.space, gamma, horizon=config.horizon, trunc=trunc
    )
    _emit(report.to_text(), config.out)
    _write_csv(config, ["threshold", "n", "k", "abs_lambda"], report.csv_rows)
    return 0


def _cmd_limit_point(config: RunConfig) -> int:
    tree, _ = _load_model(config)
    report = crit.limit_point_report(tree, config.space, horizon=config.horizon)
    _emit(report.to_text(), config.out)
    _write_csv(config, ["vertex", "n", "q_value"], report.csv_rows)
    return 0


def _cmd_return_set(config: RunConfig) -> int:
    tree, _ = _load_model(config)
    space = config.space
    U = _load_ball(config.options.get("u_center"), config.options.get("u_radius") or 0.5, space)
    V = _load_ball(config.options.get("v_center"), config.options.get("v_radius") or 0.5, space)
    slack = config.options.get("slack") or 1e-6
    report = return_set_report(U, V, config.horizon, tree, slack)
    certified = sorted(report.certified)
    _emit(
        f"return set N(U, V) on {tree.name} ({space.label}), horizon {config.horizon}\n"
        f"certified times: {certified}\n"
        f"uncertified (not refuted): {sorted(report.uncertified)}",
        config.out,
    )

    def rows():
        for n in range(config.horizon + 1):
            w = report.certified.get(n)
            yield n, w is not None, "" if w is None else norm(w, space, tree)

    _write_csv(config, ["n", "certified", "witness_norm"], rows)
    return 0


REPRODUCE_PRESETS = (
    "example_4_1_disjoint_sets",
    "example_7_1_limit_point_not_hc",
    "example_7_2_orbit",
    "example_7_2_not_hc",
)


def reproduce(name: str, config: RunConfig) -> tuple[bool, str, list[str], list[tuple]]:
    """Run a scripted reproduction; returns (passed, text, csv_header, rows)."""
    space = config.space
    if name == "example_4_1_disjoint_sets":
        tree = make_preset("example_4_1", exact=config.exact)
        horizon = config.horizon if config.horizon != 64 else 1000
        rows = []
        ok = True
        for k in range(1, 6):
            for N in (1, 2, 4):
                inter = crit.I_set(
                    [chain_vertex(0, k)], N, tree, space, horizon
                ) & crit.I_set([chain_vertex(1, k)], N, tree, space, horizon)
                rows.append((k, N, len(inter)))
                ok = ok and not inter
        text = (
            f"I(u_k, N) and I(v_k, N) are disjoint for k=1..5, N in {{1,2,4}}, "
            f"horizon {horizon}: {'PASS' if ok else 'FAIL'}"
        )
        return ok, text, ["k", "N", "intersection_size"], rows

    if name == "example_7_1_limit_point_not_hc":
        tree = make_preset("example_4_1", exact=config.exact)
        dyn = crit.dynamics_report(tree, space, horizon=config.horizon)
        lim = crit.limit_point_report(tree, space, horizon=config.horizon)
        ok = (not dyn.satisfied) and lim.status == "holds"
        text = (
            f"not hypercyclic at horizon: {not dyn.satisfied}; orbit with nonzero "
            f"limit point: {lim.status}: {'PASS' if ok else 'FAIL'}"
        )
        rows = [
            (n, crit.q_value(ANCHOR, n, tree, space)) for n in range(config.horizon + 1)
        ]
        return ok, text, ["n", "q_root"], rows

    if name == "example_7_2_orbit":
        tree = make_preset("example_7_2", exact=config.exact)
        f = example_7_2_vector(k_max=7, exact=config.exact)
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
        return ok, text, ["k", "n", "residual", "analytic"], rows

    if name == "example_7_2_not_hc":
        tree = make_preset("example_7_2", exact=config.exact)
        u1 = chain_vertex(0, 1)
        horizon = config.horizon
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
        return ok, text, ["n", "q_u1", "j_u1"], rows

    raise UnknownPresetError(
        f"unknown reproduction {name!r}; available: {REPRODUCE_PRESETS}"
    )


def _cmd_reproduce(config: RunConfig) -> int:
    name = config.options["name"]
    ok, text, header, rows = reproduce(name, config)
    _emit(text, config.out)
    _write_csv(config, header, lambda: rows)
    return 0 if ok else 1


_COMMANDS = {
    "validate": _cmd_validate,
    "norm": _cmd_norm,
    "orbit": _cmd_orbit,
    "criteria": _cmd_criteria,
    "supercyclic": _cmd_supercyclic,
    "limit-point": _cmd_limit_point,
    "return-set": _cmd_return_set,
    "reproduce": _cmd_reproduce,
}


def run(config: RunConfig) -> int:
    """Execute the configured pipeline; exceptions map to exit codes 2/3."""
    try:
        return _COMMANDS[config.command](config)
    except (TreeShiftError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception:
        traceback.print_exc()
        return 3


def _add_common(sub: argparse.ArgumentParser, horizon_default: int = 64) -> None:
    sub.add_argument("--tree", help="tree-spec document path")
    sub.add_argument("--preset", choices=sorted(PRESETS), help="named preset tree")
    sub.add_argument("--space", default="2", help="p for l^p (e.g. 2, 1, 4/3) or c0")
    sub.add_argument("--horizon", type=int, default=horizon_default)
    sub.add_argument("--depth", type=int, help="truncation depth override")
    sub.add_argument("--ancestry", type=int, help="truncation ancestry override")
    sub.add_argument("--out", help="write the text report here as well")
    sub.add_argument("--csv", help="write CSV data here")
    sub.add_argument(
        "--exact", action="store_true",
        help="exact dyadic weights (--preset trees; documents set their own 'exact')",
    )
    sub.add_argument("--seed", type=int, default=0, help="seed recorded in outputs")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="treeshift",
        description="Weighted backward shifts on directed trees: norms, orbits, "
        "and horizon-bounded dynamical criteria.",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    sub = subs.add_parser("validate", help="check the tree axioms on a truncation",
                          epilog="CSV: code,where,detail")
    _add_common(sub)

    sub = subs.add_parser("norm", help="operator norm of the backward shift",
                          epilog="CSV: space,value,is_sup_over_truncation")
    _add_common(sub)

    sub = subs.add_parser("orbit", help="orbit norms of a finitely supported vector",
                          epilog="CSV: n,norm")
    _add_common(sub)
    sub.add_argument("--vector", help="vector file (address<TAB>value lines)")
    sub.add_argument("--vector-preset", choices=["example_7_2_f"],
                     help="a named vector preset")
    sub.add_argument("--steps", type=int, help="number of orbit steps (default: horizon)")

    sub = subs.add_parser("criteria", help="transitivity/recurrence weight criteria",
                          epilog="CSV: vertex,n,q_value,j_value")
    _add_common(sub)
    sub.add_argument("--family", default="infinite",
                     help="infinite | cofinite | syndetic:g | thick:L | tilde:N:<family>")

    sub = subs.add_parser("supercyclic", help="scaled-orbit (Gamma) criteria",
                          epilog="CSV: threshold,n,k,abs_lambda")
    _add_common(sub)
    sub.add_argument("--gamma", default="const:1", help="const:c | powers:r")

    sub = subs.add_parser("limit-point", help="orbital limit point criteria",
                          epilog="CSV: vertex,n,q_value")
    _add_common(sub)

    sub = subs.add_parser("return-set", help="constructive return-set certification",
                          epilog="CSV: n,certified,witness_norm")
    _add_common(sub)
    sub.add_argument("--u-center", help="vector file for the U ball center (default e_anchor)")
    sub.add_argument("--v-center", help="vector file for the V ball center (default e_anchor)")
    sub.add_argument("--u-radius", type=float, default=0.5)
    sub.add_argument("--v-radius", type=float, default=0.5)
    sub.add_argument("--slack", type=float, default=1e-6)

    sub = subs.add_parser("reproduce", help="scripted reproductions with PASS/FAIL",
                          epilog="CSV schema depends on the preset; see README")
    _add_common(sub)
    sub.add_argument("name", choices=REPRODUCE_PRESETS)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        config = _config_from_args(args)
    except (ValueError, TreeShiftError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return run(config)


if __name__ == "__main__":
    sys.exit(main())
