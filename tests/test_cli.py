"""Command-line interface: subcommands, exit codes, CSV determinism."""

import argparse
import csv
import math
import re
import shlex
from collections import Counter
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import treeshift as ts
from treeshift import cli, criteria, treespec
from treeshift.cli import main
from treeshift.shifts import return_set_report
from treeshift.spaces import DualExponent, to_float

from oracles import write_csv_by_cell


def run_cli(*argv, capsys=None):
    code = main(list(argv))
    return code


def test_norm_prints_example_7_2_value(capsys):
    code = main(["norm", "--preset", "example_7_2", "--space", "2"])
    out = capsys.readouterr().out
    assert code == 0
    assert "2.8284271247" in out
    assert "sup over truncation" in out


def test_norm_on_tree_spec_file(tmp_path, capsys):
    spec = tmp_path / "tree.ini"
    spec.write_text("[tree]\npreset = example_4_1\n\n[truncation]\ndepth = 10\nancestry = 0\n")
    code = main(["norm", "--tree", str(spec), "--space", "2"])
    assert code == 0
    assert "2.0615528128" in capsys.readouterr().out


def test_validate_zero_weight_exits_2(tmp_path, capsys):
    spec = tmp_path / "bad.ini"
    spec.write_text(
        "[tree]\nkind = rooted\nanchor = a\n\n[edges]\na -> b\n\n"
        "[edge_weights]\na = 1\nb = 0\n"
    )
    code = main(["validate", "--tree", str(spec)])
    out = capsys.readouterr().out
    assert code == 2
    assert "ZeroWeight" in out


def test_validate_bad_spine_child_index_exits_2(tmp_path, capsys):
    spec = tmp_path / "bad.ini"
    spec.write_text("[tree]\nkind = unrooted\n[arity]\ndefault = 1\n(2; ) = 3\n"
                    "[spine]\nchild_index = 2\n")
    code = main(["validate", "--tree", str(spec)])
    captured = capsys.readouterr()
    assert code == 2
    assert "INVALID" in captured.out
    assert "SpineIndexOutOfRange at (1; ): spine child index 2 not below arity 1" in captured.out
    assert "error" not in captured.err


def test_validate_preset_ok(capsys):
    assert main(["validate", "--preset", "example_7_2", "--depth", "10"]) == 0
    assert "OK" in capsys.readouterr().out


def test_validate_full_binary_counts_every_vertex(capsys):
    """The default truncation of full_binary holds 2^17 - 1 vertices; all
    are counted, though only one subtree per remaining depth is walked."""
    assert main(["validate", "--preset", "full_binary"]) == 0
    assert capsys.readouterr().out == "validated 131071 vertices: OK\n"


def test_missing_tree_is_usage_error(capsys):
    assert main(["norm", "--space", "2"]) == 2


def test_unknown_space_is_error():
    assert main(["norm", "--preset", "full_binary", "--space", "0.5"]) == 2
    with pytest.raises(ValueError):
        ts.SpaceSpec.parse("0.5")


def test_orbit_csv(tmp_path, capsys):
    csv_path = tmp_path / "orbit.csv"
    code = main(
        [
            "orbit", "--preset", "example_7_2", "--vector-preset", "example_7_2_f",
            "--steps", "7", "--csv", str(csv_path),
        ]
    )
    assert code == 0
    lines = csv_path.read_text().splitlines()
    assert lines[0].startswith("# treeshift orbit; seed=0")
    assert lines[1] == "n,norm"
    assert len(lines) == 2 + 8


def test_criteria_command(tmp_path, capsys):
    csv_path = tmp_path / "crit.csv"
    code = main(
        [
            "criteria", "--preset", "unary_path", "--space", "2",
            "--horizon", "20", "--csv", str(csv_path),
        ]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "criterion satisfied at horizon: False" in out
    assert csv_path.read_text().splitlines()[1] == "vertex,n,q_value,j_value"


def test_supercyclic_command(capsys):
    code = main(
        ["supercyclic", "--preset", "example_7_2", "--gamma", "powers:4", "--horizon", "30"]
    )
    assert code == 0
    assert "satisfied at horizon: False" in capsys.readouterr().out


def test_limit_point_command(capsys):
    code = main(["limit-point", "--preset", "example_4_1", "--horizon", "64"])
    assert code == 0
    assert "verdict at horizon: holds" in capsys.readouterr().out


def test_return_set_command(tmp_path, capsys):
    csv_path = tmp_path / "ret.csv"
    code = main(
        [
            "return-set", "--preset", "full_binary", "--horizon", "5",
            "--u-radius", "0.5", "--v-radius", "0.5", "--csv", str(csv_path),
        ]
    )
    assert code == 0
    lines = csv_path.read_text().splitlines()
    assert lines[1] == "n,certified,witness_norm"
    assert len(lines) == 2 + 6


def test_reproduce_pass_and_exit_codes(tmp_path, capsys):
    for name in (
        "example_4_1_disjoint_sets",
        "example_7_1_limit_point_not_hc",
        "example_7_2_orbit",
        "example_7_2_not_hc",
    ):
        code = main(["reproduce", name, "--csv", str(tmp_path / f"{name}.csv")])
        out = capsys.readouterr().out
        assert code == 0, (name, out)
        assert "PASS" in out


def test_reproduce_unknown_name_rejected(capsys):
    with pytest.raises(SystemExit):
        main(["reproduce", "no_such_thing"])


def test_reproduce_csv_deterministic(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(["reproduce", "example_7_2_orbit", "--csv", str(a), "--seed", "7"]) == 0
    assert main(["reproduce", "example_7_2_orbit", "--csv", str(b), "--seed", "7"]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_vector_file_round_trip_through_cli(tmp_path, capsys):
    vec = tmp_path / "vec.tsv"
    f = 2 * ts.basis(ts.VertexAddress(0, (0,)))
    with open(vec, "w") as fp:
        ts.dump_vector(f, fp)
    code = main(
        ["orbit", "--preset", "full_binary", "--vector", str(vec), "--steps", "3"]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "n=0" in out and "n=1" in out


def test_criteria_csv_deterministic(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    args = ["criteria", "--preset", "example_7_2", "--horizon", "25", "--seed", "5"]
    assert main(args + ["--csv", str(a)]) == 0
    assert main(args + ["--csv", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def _count_calls(monkeypatch, owner, *names) -> Counter:
    """Count the calls of ``owner.<name>`` for each name, by first argument."""
    calls = Counter()
    for name in names:
        def counted(*args, _original=getattr(owner, name)):
            calls[args[0]] += 1
            return _original(*args)

        monkeypatch.setattr(owner, name, counted)
    return calls


def test_criteria_builds_csv_rows_only_for_csv(tmp_path, monkeypatch, capsys):
    """The report reads one q row per vertex type, and a chain vertex the row
    of its parent from n = 1: 3,007 fiber-mass reads, counting memo hits
    (7,007 when each of the 7 sampled vertices swept its own row), one per
    distinct fiber level: 1001 levels below the root and 1003 along each
    chain.  The CSV writes the rows the report read and reads no mass again,
    and labels each of its 7 vertices once (7,007 labels when every row was
    labelled)."""
    reads = _count_calls(monkeypatch, criteria, "fiber_mass", "_level_mass")
    masses = _count_calls(monkeypatch, DualExponent, "mass")
    labels = _count_calls(monkeypatch, criteria, "format_address")
    args = ["criteria", "--preset", "example_4_1", "--horizon", "1000"]
    assert main(args) == 0
    assert (reads.total(), masses.total()) == (3007, 3007)
    text_labels = labels.copy()
    reads.clear()
    masses.clear()
    labels.clear()
    csv_path = tmp_path / "q.csv"
    assert main(args + ["--csv", str(csv_path)]) == 0
    assert (reads.total(), masses.total()) == (3007, 3007)
    with open(csv_path, newline="") as fp:
        csv_vertices = {row[0] for row in list(csv.reader(fp))[2:]}
    assert len(csv_vertices) == 7
    assert sorted(map(ts.format_address, (labels - text_labels).elements())) == sorted(csv_vertices)


def test_limit_point_csv_reads_only_rows_the_report_did_not(tmp_path, monkeypatch, capsys):
    """The report stops at the diverging root; the CSV reads each other
    sampled vertex's row once and none twice.  A chain vertex below the
    first of its chain reads its parent's row and one level more: with the
    report's root, 3 x 1001 + 4 x 1 reads (7 x 1001 when every vertex swept
    its own row)."""
    rows = _count_calls(monkeypatch, criteria, "_q_row")
    reads = _count_calls(monkeypatch, criteria, "fiber_mass", "_level_mass")
    args = ["limit-point", "--preset", "example_4_1", "--horizon", "1000"]
    assert main(args) == 0
    assert (rows, reads.total()) == ({ts.ANCHOR: 1}, 1001)
    rows.clear()
    reads.clear()
    assert main(args + ["--csv", str(tmp_path / "q.csv")]) == 0
    assert (rows.total(), len(rows), reads.total()) == (7, 7, 3007)


@pytest.mark.parametrize("argv", [
    "supercyclic --preset example_7_2 --gamma const:1 --horizon 60 --exact",
    "supercyclic --preset example_7_2 --space 4/3 --gamma powers:4 --horizon 60",
    "supercyclic --preset bi_infinite_path --space c0 --gamma powers:2 --horizon 60",
])
def test_supercyclic_scan_skips_ruled_out_scales(monkeypatch, capsys, argv):
    """The scan evaluates the spine display at most 2 x horizon times; testing
    every k at every n took 4,890, 3,616 and 3,488."""
    calls = _count_calls(monkeypatch, criteria, "_j_term")
    assert main(argv.split()) == 0
    assert 0 < calls.total() <= 2 * 60


class _ComparedScale(int):
    """|lambda_k| as an int that counts the order comparisons made on it."""

    compared = 0

    def __lt__(self, other):
        _ComparedScale.compared += 1
        return int.__lt__(self, other)

    def __gt__(self, other):
        _ComparedScale.compared += 1
        return int.__gt__(self, other)


def test_supercyclic_scan_compares_scales_o_h_log_h_times(monkeypatch, capsys):
    """A skipped k costs one bisection among the scales read and a scan of
    the slice of them inside (lo, hi), not a test of every later k: the
    bi_infinite_path scan at horizon 1100 compares |lambda_k| 56,496 times
    (2,420,002 when it tested k = 0..H at every n, about 1.2 M skip tests),
    within 6 H log2 H, and every slice it scans is empty, since each skip
    goes on to the first k not read; the CLI output is that of the linear
    scan (`test_supercyclic_scan_matches_the_linear_scan`)."""
    scale, itemgetter = criteria._scale, criteria.itemgetter
    scanned = Counter()

    def counted(*args):
        lam, lam_pow, s = scale(*args)
        return lam, lam_pow, _ComparedScale(s)

    def counted_getter(i):  # the k of each (|lambda_k|, k) of a scanned slice
        get = itemgetter(i)
        return lambda entry: scanned.update(["k"]) or get(entry)

    monkeypatch.setattr(criteria, "_scale", counted)
    monkeypatch.setattr(criteria, "itemgetter", counted_getter)
    monkeypatch.setattr(_ComparedScale, "compared", 0)
    horizon = 1100
    argv = f"supercyclic --preset bi_infinite_path --space c0 --gamma powers:2 --horizon {horizon}"
    assert main(argv.split()) == 0
    assert "threshold 1: n=1, lambda_1=2" in capsys.readouterr().out
    assert 0 < _ComparedScale.compared <= 6 * horizon * math.log2(horizon)
    assert scanned.total() == 0


def test_spine_rows_are_read_top_down(monkeypatch, capsys):
    """The sampled spine vertices (3; ) down to (0; ) read their q rows top
    down: (3; ) sweeps 101 levels, and each one below reads the row above
    it from offset 1 and one level more, 814 fiber-mass reads in all
    (1,114 when each of the four swept its own 101 levels)."""
    reads = _count_calls(monkeypatch, criteria, "fiber_mass", "_level_mass")
    argv = "criteria --preset bi_infinite_path --family thick:3 --horizon 100"
    assert main(argv.split()) == 0
    assert reads.total() == 814


@pytest.mark.parametrize("gamma, k", [("const:1e400", 0), ("powers:1e300 --space 3", 1)])
def test_gamma_beyond_float_range_is_a_usage_error(capsys, gamma, k):
    """A lambda_k that float displays would carry past float range exits 2
    with one error line naming k and lambda_k; exact displays take it."""
    argv = ["supercyclic", "--preset", "example_7_2", "--horizon", "20", "--gamma", *gamma.split()]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: lambda_{k} = 1000") and err.count("\n") == 1
    assert err.endswith(" is beyond float range\n")
    if gamma == "const:1e400":
        assert main(argv + ["--exact"]) == 0
        assert "satisfied at horizon: False" in capsys.readouterr().out


def _fmt_chain(x) -> str:
    """The CSV cell formatter as an isinstance chain: the reference for
    `cli._fmt`, which tests for a plain float first."""
    if isinstance(x, bool):
        return "1" if x else "0"
    if isinstance(x, int):
        return str(x)
    if isinstance(x, str):
        return x
    return f"{to_float(x):.12g}"


@given(st.one_of(
    st.floats(),
    st.sampled_from([-0.0, math.inf, -math.inf, math.nan, 5e-324, 2.5e-310, 1e16,
                     Fraction(10) ** 400, -Fraction(10) ** 400, Fraction(1, 3)]),
    st.booleans(), st.integers(), st.fractions(), st.text(),
))
def test_csv_formatter_matches_the_isinstance_chain(x):
    assert cli._fmt(x) == _fmt_chain(x)


_CELLS = {
    "float": st.one_of(st.floats(), st.sampled_from([-0.0, math.inf, -math.inf, math.nan])),
    "int": st.integers(),
    "str": st.text(st.characters(blacklist_categories=("Cs",)), max_size=6),
    "bool": st.booleans(),
    "fraction": st.one_of(st.fractions(), st.just(Fraction(10) ** 400)),
    "blank or float": st.one_of(st.just(""), st.floats()),
    "numpy": st.one_of(st.floats(allow_nan=False).map(np.float64), st.integers(-9, 9).map(np.int64)),
}
_CELLS["any"] = st.one_of(*_CELLS.values())


@st.composite
def _csv_tables(draw):
    """A header and rows with one kind of cell per column: a pattern of
    rows repeated past one or two block boundaries, with some rows
    replaced by rows of any cells (a column of one kind in one block and
    mixed in the next)."""
    kinds = draw(st.lists(st.sampled_from(sorted(_CELLS)), min_size=1, max_size=4))
    pattern = draw(st.lists(st.tuples(*(_CELLS[k] for k in kinds)), min_size=1, max_size=5))
    count = draw(st.sampled_from([0, 1, cli._BLOCK - 1, cli._BLOCK, cli._BLOCK + 1,
                                  2 * cli._BLOCK + 3]))
    rows = [pattern[i % len(pattern)] for i in range(count)]
    if rows:
        for i in draw(st.lists(st.integers(0, count - 1), max_size=3)):
            rows[i] = draw(st.tuples(*(_CELLS["any"] for _ in kinds)))
    return tuple(f"c{i}" for i in range(len(kinds))), rows


@given(_csv_tables())
@settings(max_examples=150, deadline=None)
def test_csv_columns_write_the_bytes_of_the_cell_by_cell_writer(tmp_path_factory, table):
    """`_write_csv` formats blocks of rows by column and writes the bytes of
    `_fmt` on every cell, one row at a time."""
    header, rows = table
    path = tmp_path_factory.mktemp("csv")
    args = argparse.Namespace(csv=str(path / "columns.csv"), command="criteria", seed=3)
    cli._write_csv(args, header, lambda: rows)
    write_csv_by_cell(path / "cells.csv", "criteria", 3, header, rows)
    assert (path / "columns.csv").read_bytes() == (path / "cells.csv").read_bytes()


def test_csv_columns_of_one_type_call_no_per_cell_formatter(tmp_path, monkeypatch, capsys):
    """A CSV whose columns are all floats, ints or strs calls no per-cell
    formatter; the criteria CSV of the closed-form example_4_1 command
    calls none on its 7,007 rows."""
    calls = _count_calls(monkeypatch, cli, "_fmt")
    argv = ["criteria", "--preset", "example_4_1", "--horizon", "1000"]
    assert main(argv + ["--csv", str(tmp_path / "q.csv")]) == 0
    assert len((tmp_path / "q.csv").read_text().splitlines()) == 2 + 7 * 1001
    assert calls.total() == 0


def test_custom_binary_spec_criteria_at_default_horizon(tmp_path, capsys):
    """2^64 fiber vertices at the root: only a sweep by vertex type finishes."""
    spec = tmp_path / "binary.ini"
    spec.write_text("[tree]\nkind = rooted\n\n[arity]\ndefault = 2\n")
    csv_path = tmp_path / "q.csv"
    assert main(["criteria", "--tree", str(spec), "--csv", str(csv_path)]) == 0
    assert "horizon 64" in capsys.readouterr().out
    root = [row.split(",") for row in csv_path.read_text().splitlines()[2:]
            if row.startswith("(0; ),")]
    assert [int(n) for _, n, _, _ in root] == list(range(65))
    for _, n, q, _ in root:
        assert float(q) == pytest.approx(2 ** (int(n) / 2), rel=1e-11)


_CUSTOM = "[tree]\nkind = rooted\n[arity]\n"


def test_exact_power_past_the_budget_exits_2(capsys):
    """A large exact norm exponent stops with a typed error naming the size
    before raising any term to it; within the budget the output stands."""
    argv = "orbit --preset example_7_2 --exact --vector-preset example_7_2_f --steps 1 --space"
    assert main(argv.split() + ["100000"]) == 2
    assert capsys.readouterr().err == (
        "error: an exact power |x|^100000 would have about 12900000 bits, "
        "past the budget of 1048576 bits\n")
    assert main(argv.split() + ["1000"]) == 0
    assert "n=1: ||B^n f|| = 0.500346693731" in capsys.readouterr().out


@pytest.mark.parametrize("command, kind, text", [
    pytest.param("orbit", "vector", "(0; 1..2)\t1\n", id="address-empty-index"),
    pytest.param("orbit", "vector", "(0; .)\t1\n", id="address-dot-only"),
    pytest.param("orbit", "vector", "(0; 1.)\t1\n", id="address-trailing-dot"),
    pytest.param("orbit", "vector", "(0; 1 2)\t1\n", id="address-space-separated"),
    pytest.param("orbit", "vector", "(0; 1..0)\t1\n", id="vector-bad-address"),
    pytest.param("orbit", "vector", "(0; 1)\tzz\n", id="vector-bad-value"),
    pytest.param("validate", "tree", _CUSTOM + "default = 1\n(0; 1..0) = 3\n",
                 id="spec-bad-override-key"),
    pytest.param("validate", "tree", _CUSTOM + "default = x\n", id="spec-bad-arity"),
    pytest.param("validate", "tree", _CUSTOM + "default = 1\n[weights]\ndefault = abc\n",
                 id="spec-bad-weight"),
    pytest.param("criteria", "tree", _CUSTOM + "default = -1\n", id="spec-negative-arity"),
    *(pytest.param(command, "tree", _CUSTOM + "default = 2\n[weights]\n" + weights,
                   id=f"{command}-spec-zero-weight")
      for command, weights in [
          ("validate", "default = 1\n(0; 1) = 0\n"), ("criteria", "default = 0\n"),
          ("norm", "coef = 0\nratio = 2\n"), ("return-set", "ratio = 0\n"),
      ]),
    pytest.param("criteria", "argv", "--family syndetic:x", id="family-bad-gap"),
    pytest.param("criteria", "argv", "--family syndetic:0", id="family-zero-gap"),
    pytest.param("supercyclic", "argv", "--gamma powers:x", id="gamma-bad-ratio"),
    pytest.param("supercyclic", "argv", "--gamma const:0", id="gamma-zero-constant"),
    pytest.param("criteria", "argv", "--horizon -1", id="negative-horizon"),
    pytest.param("validate", "argv", "--depth -1", id="negative-depth"),
    pytest.param("return-set", "argv", "--u-radius -1", id="negative-radius"),
    pytest.param("return-set", "argv", "--u-radius 0", id="zero-u-radius"),
    pytest.param("return-set", "argv", "--v-radius 0", id="zero-v-radius"),
    pytest.param("return-set", "argv", "--slack -1", id="negative-slack"),
    pytest.param("return-set", "argv", "--slack 1", id="slack-one"),
    pytest.param("criteria", "argv", "--space 1/0", id="space-zero-denominator"),
    pytest.param("norm", "argv", "--space 1e400", id="space-beyond-float-range"),
    pytest.param("criteria", "argv", f"--space 1.{'0' * 399}1", id="dual-beyond-float-range"),
    pytest.param("supercyclic", "argv", "--gamma powers:1/0", id="gamma-zero-denominator"),
    pytest.param("reproduce", "argv", "--horizon 5", id="reproduce-fixed-times-horizon"),
    *(pytest.param(command, "removed", text, id=f"{command}-takes-no-{text.split()[0][2:]}")
      for command, text in [
          ("validate", "--space 2"), ("validate", "--horizon 5"), ("norm", "--horizon 5"),
          ("orbit", "--depth 3"), ("orbit", "--ancestry 3"), ("orbit", "--horizon 5"),
          ("criteria", "--depth 3"), ("criteria", "--ancestry 3"),
          ("limit-point", "--depth 3"), ("limit-point", "--ancestry 3"),
          ("return-set", "--depth 3"), ("return-set", "--ancestry 3"),
          ("reproduce", "--tree t.ini"), ("reproduce", "--preset full_binary"),
          ("reproduce", "--depth 3"), ("reproduce", "--ancestry 3"),
      ]),
])
def test_malformed_input_is_a_usage_error(tmp_path, capsys, command, kind, text):
    """Malformed addresses, counts, scalars and flag values exit 2 with one
    error line (so does --horizon on example_7_2_orbit, which runs at the
    fixed times n = 2^k - 1, k = 1..6), and an address that does not parse
    raises InvalidAddressError.  A flag the subcommand does not take exits 2
    through argparse."""
    path = tmp_path / "input.txt"
    path.write_text(text)
    if kind == "vector":
        argv = [command, "--preset", "full_binary", "--vector", str(path)]
        address = text.split("\t")[0]
        if address != "(0; 1)":
            with pytest.raises(ts.InvalidAddressError):
                ts.parse_address(address)
    elif kind == "tree":
        argv = [command, "--tree", str(path)]
    else:
        base = ["example_7_2_orbit"] if command == "reproduce" else ["--preset", "unary_path"]
        argv = [command, *base, *text.split()]
    if kind == "removed":
        with pytest.raises(SystemExit) as exit_:
            main(argv)
        assert exit_.value.code == 2
        assert f"unrecognized arguments: {text}" in capsys.readouterr().err
        return
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    if "/0" in text:
        assert err == f"error: {text}: zero denominator\n"


@pytest.mark.parametrize("argv, line", [
    (["orbit", "--preset", "full_binary", "--steps", "0"], "  n=0: ||B^n f|| = 1"),
    (["reproduce", "example_4_1_disjoint_sets", "--horizon", "64"],
     "I(u_k, N) and I(v_k, N) are disjoint for k=1..5, N in {1,2,4}, horizon 64: PASS"),
    (["reproduce", "example_4_1_disjoint_sets"],
     "I(u_k, N) and I(v_k, N) are disjoint for k=1..5, N in {1,2,4}, horizon 1000: PASS"),
], ids=["orbit-steps-0", "reproduce-horizon-64", "reproduce-default-horizon"])
def test_explicit_flag_values_are_not_replaced(capsys, argv, line):
    """A value equal to 0 or to another command's default is run as given."""
    assert main(argv) == 0
    assert capsys.readouterr().out.splitlines()[-1] == line


def test_return_set_runs_with_slack_zero(monkeypatch, capsys):
    slacks = []

    def recorded(U, V, horizon, tree, slack):
        slacks.append(slack)
        return return_set_report(U, V, horizon, tree, slack)

    monkeypatch.setattr(cli, "return_set_report", recorded)
    assert main(["return-set", "--preset", "full_binary", "--horizon", "3", "--slack", "0"]) == 0
    assert slacks == [0.0]


def test_readme_cli_commands_run(tmp_path, monkeypatch, capsys):
    """Every `treeshift` line of the README's CLI block exits 0, with
    mytree.ini written from the README's custom-rules example."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = re.search(r"## CLI\n\n```bash\n(.*?)```", readme, re.S).group(1)
    custom = next(b for b in re.findall(r"```ini\n(.*?)```", readme, re.S) if "[spine]" in b)
    monkeypatch.chdir(tmp_path)
    (tmp_path / "mytree.ini").write_text(custom)
    lines = block.strip().splitlines()
    assert lines and all(line.startswith("treeshift ") for line in lines)
    for line in lines:
        assert main(shlex.split(line)[1:]) == 0, line


def test_spine_vertex_of_arity_0_is_a_usage_error_outside_validate(tmp_path, capsys):
    """Spine vertices without children cannot hold their spine child:
    `validate` reports each, and the commands that read children exit 2
    with one line instead of answering."""
    spec = tmp_path / "bare_spine.ini"
    spec.write_text("[tree]\nkind = unrooted\n[arity]\ndefault = 0\n[spine]\nchild_index = 0\n")
    assert main(["validate", "--tree", str(spec)]) == 2
    assert capsys.readouterr().out == "validated 17 vertices: INVALID\n" + "".join(
        f"  SpineIndexOutOfRange at ({k}; ): spine child index 0 not below arity 0\n"
        for k in range(1, 17))
    for command in ("norm", "orbit", "criteria", "supercyclic", "limit-point", "return-set"):
        assert main([command, "--tree", str(spec)]) == 2, command
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: spine child index 0 out of range at (1; ) (arity 0)\n"


def test_in_process_calls_share_one_parser_and_carry_no_state(tmp_path, capsys):
    """`main` parses with one parser per process.  A mixed sequence of calls
    (a flag given then left out, a command whose default differs from the
    flag's own, a malformed value) gives each call the stdout, stderr, exit
    code and CSV bytes of the same call on a freshly built parser."""
    assert cli.build_parser() is cli.build_parser()
    calls = [
        ["criteria", "--preset", "example_7_2", "--exact", "--horizon", "12"],
        ["criteria", "--preset", "example_7_2", "--horizon", "12"],
        ["reproduce", "example_7_2_orbit"],
        ["criteria", "--preset", "unary_path"],
        ["criteria", "--preset", "unary_path", "--horizon", "x"],
        ["criteria", "--preset", "unary_path", "--horizon", "-1"],
        ["limit-point", "--preset", "example_7_2", "--horizon", "12"],
    ]

    def run(folder, fresh):
        outcomes = []
        for i, argv in enumerate(calls):
            if fresh:
                cli.build_parser.cache_clear()
            csv_path = tmp_path / folder / f"{i}.csv"
            csv_path.parent.mkdir(exist_ok=True)
            try:
                code = main([*argv, "--csv", str(csv_path)])
            except SystemExit as exc:
                code = exc.code
            captured = capsys.readouterr()
            data = csv_path.read_bytes() if csv_path.exists() else None
            outcomes.append((code, captured.out, captured.err, data))
        return outcomes

    shared = run("shared", fresh=False)
    assert shared == run("fresh", fresh=True)
    assert [code for code, *_ in shared] == [0, 0, 0, 0, 2, 2, 0]
    assert "horizon 64" in shared[3][1]
    assert cli.build_parser() is cli.build_parser()


def test_tree_documents_parsed_once_give_the_outputs_of_fresh_parses(tmp_path, capsys):
    """Commands on one --tree file read its kept parse: each call gives the
    stdout, exit code and CSV bytes of the same call after the memo of
    parsed texts is cleared."""
    spec = tmp_path / "tree.ini"
    spec.write_text("[tree]\nkind = unrooted\n[arity]\ndefault = 2\n(1; 0) = 3\n"
                    "[spine]\nchild_index = 1\n[weights]\ncoef = 1\nratio = 1/2\n(0; 1) = 1/8\n"
                    "[truncation]\ndepth = 6\nancestry = 4\n")
    calls = [
        ["validate"],
        ["criteria", "--horizon", "12"],
        ["norm", "--space", "4/3"],
        ["limit-point", "--horizon", "12", "--space", "c0"],
        ["criteria", "--horizon", "12", "--space", "1"],
        ["validate", "--depth", "3"],
    ]

    def run(folder, fresh):
        outcomes = []
        for i, argv in enumerate(calls):
            if fresh:
                treespec._parse_text.cache_clear()
            csv_path = tmp_path / folder / f"{i}.csv"
            csv_path.parent.mkdir(exist_ok=True)
            code = main([*argv, "--tree", str(spec), "--csv", str(csv_path)])
            outcomes.append((code, capsys.readouterr().out, csv_path.read_bytes()))
        return outcomes

    treespec._parse_text.cache_clear()
    shared = run("shared", fresh=False)
    assert treespec._parse_text.cache_info()[:2] == (len(calls) - 1, 1)  # hits, misses
    assert shared == run("fresh", fresh=True)
    assert [code for code, *_ in shared] == [0] * len(calls)
