"""Command-line interface: subcommands, exit codes, CSV determinism."""

import pytest

import treeshift as ts
from treeshift import criteria
from treeshift.cli import main


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


def test_validate_preset_ok(capsys):
    assert main(["validate", "--preset", "example_7_2", "--depth", "10"]) == 0
    assert "OK" in capsys.readouterr().out


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
            "--steps", "7", "--csv", str(csv_path), "--depth", "130",
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


def test_criteria_builds_csv_rows_only_for_csv(tmp_path, monkeypatch, capsys):
    reads = []
    fiber_mass = criteria.fiber_mass

    def counted(*args):
        reads.append(args)
        return fiber_mass(*args)

    monkeypatch.setattr(criteria, "fiber_mass", counted)
    args = ["criteria", "--preset", "example_4_1", "--horizon", "1000"]
    assert main(args) == 0
    assert len(reads) == 7007
    reads.clear()
    assert main(args + ["--csv", str(tmp_path / "q.csv")]) == 0
    assert len(reads) == 14014


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
])
def test_malformed_input_is_a_usage_error(tmp_path, capsys, command, kind, text):
    """Malformed addresses, counts and scalars exit 2 with one error line,
    and an address that does not parse raises InvalidAddressError."""
    path = tmp_path / "input.txt"
    path.write_text(text)
    if kind == "vector":
        argv = [command, "--preset", "full_binary", "--vector", str(path)]
        address = text.split("\t")[0]
        if address != "(0; 1)":
            with pytest.raises(ts.InvalidAddressError):
                ts.parse_address(address)
    else:
        argv = [command, "--tree", str(path)]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err
