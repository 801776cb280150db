"""Tree-spec document parsing and model resolution."""

import configparser
import dataclasses
import re
import textwrap
from fractions import Fraction
from pathlib import Path

import pytest

import treeshift as ts
from treeshift import VertexAddress as VA
from treeshift import treespec
from treeshift.cli import main
from treeshift.treespec import TreeSpecDocument, load_tree_spec, parse_tree_spec, resolve_model

L2 = ts.SpaceSpec.ell(2)


def test_preset_document():
    doc = parse_tree_spec(
        """
        [tree]
        preset = example_7_2

        [truncation]
        depth = 8
        ancestry = 4
        """
    )
    tree = resolve_model(doc)
    assert tree.name == "example_7_2"
    assert doc.truncation == ts.Truncation(8, 4)
    assert ts.operator_norm(L2, tree, doc.truncation).value == pytest.approx(2 ** 1.5)


def test_preset_with_m_list_and_exact():
    doc = parse_tree_spec(
        """
        [tree]
        preset = example_4_1
        m = 1,3,5
        exact = true
        """
    )
    tree = resolve_model(doc)
    # first block has 2*m_1 = 2 entries: weights 1/2 then 1
    assert tree.weight(VA(0, (1,))) == Fraction(1, 2)
    assert tree.weight(VA(0, (1, 0))) == Fraction(1)


def test_unknown_preset_rejected():
    with pytest.raises(ts.TreeSpecError):
        parse_tree_spec("[tree]\npreset = nope\n")


def test_custom_rooted_tree_with_by_level():
    doc = parse_tree_spec(
        """
        [tree]
        kind = rooted

        [arity]
        by_level = 2,1

        [weights]
        coef = 1
        ratio = 1/2
        """
    )
    tree = resolve_model(doc)
    assert tree.arity(VA(0)) == 2
    assert tree.arity(VA(0, (0,))) == 1
    assert tree.weight(VA(0, (1, 0))) == Fraction(1, 4)
    report = ts.validate(tree, ts.Truncation(depth=6))
    assert report.ok


def test_custom_tree_per_address_overrides():
    doc = parse_tree_spec(
        """
        [tree]
        kind = rooted

        [arity]
        default = 1
        (0; ) = 2

        [weights]
        default = 1
        (0; 1) = 1/8
        """
    )
    tree = resolve_model(doc)
    assert tree.arity(VA(0)) == 2
    assert tree.weight(VA(0, (1,))) == Fraction(1, 8)
    assert tree.weight(VA(0, (0,))) == 1


def test_custom_unrooted_tree_with_spine():
    doc = parse_tree_spec(
        """
        [tree]
        kind = unrooted

        [arity]
        default = 1

        [spine]
        child_index = 0

        [weights]
        default = 1
        """
    )
    tree = resolve_model(doc)
    assert tree.kind == ts.UNROOTED
    assert ts.parent(VA(0), tree) == VA(1)
    assert ts.validate(tree, ts.Truncation(4, 4)).ok


def test_edge_list_document():
    doc = parse_tree_spec(
        """
        [tree]
        kind = rooted
        anchor = a

        [edges]
        a -> b
        a -> c
        b -> d

        [edge_weights]
        a = 1
        b = 1/2
        c = 2
        d = 1
        """
    )
    assert isinstance(doc.source, ts.EdgeData)
    tree = resolve_model(doc)
    assert tree.arity(VA(0)) == 2
    assert tree.weight(VA(0, (0,))) == Fraction(1, 2)

    report = ts.validate(doc.source)
    assert report.ok


def test_edge_list_zero_weight_flagged():
    doc = parse_tree_spec(
        """
        [tree]
        kind = rooted
        anchor = a

        [edges]
        a -> b

        [edge_weights]
        a = 1
        b = 0
        """
    )
    report = ts.validate(doc.source)
    assert "ZeroWeight" in report.codes()
    with pytest.raises(ts.TreeSpecError):
        resolve_model(doc)


def test_malformed_documents_rejected():
    with pytest.raises(ts.TreeSpecError):
        parse_tree_spec("[tree]\nkind = sideways\n[arity]\ndefault = 1\n")
    with pytest.raises(ts.TreeSpecError):
        parse_tree_spec("[tree]\nkind = rooted\n[edges]\na b\n[tree]\n")  # bad edge + dup section
    with pytest.raises(ts.TreeSpecError):
        parse_tree_spec(
            "[tree]\nkind = rooted\nanchor = a\n[edges]\na b\n[edge_weights]\na = 1\nb = 1\n"
        )
    with pytest.raises(ts.TreeSpecError):
        parse_tree_spec(
            "[tree]\nkind = rooted\n[weights]\ndefault = 1\nratio = 2\n"
        )


@pytest.mark.parametrize("weights", [
    "default = 0", "default = 0.0", "(0; 1) = 0", "coef = 0\nratio = 2", "ratio = 0/3",
])
def test_zero_weights_rejected(weights):
    """A zero weight in a custom document is a parse error, as a negative
    child count is; edge lists keep their ZeroWeight report."""
    with pytest.raises(ts.TreeSpecError, match="weights are nonzero"):
        parse_tree_spec(f"[tree]\nkind = rooted\n[arity]\ndefault = 2\n[weights]\n{weights}\n")


def test_geometric_weights_above_anchor():
    doc = parse_tree_spec(
        """
        [tree]
        kind = unrooted

        [arity]
        default = 1

        [weights]
        ratio = 1/2
        """
    )
    tree = resolve_model(doc)
    # above the anchor the signed depth is negative: weights grow
    assert tree.weight(VA(2)) == Fraction(4)
    assert tree.weight(VA(0, (0, 0, 0))) == Fraction(1, 8)


def test_readme_tree_spec_examples_load_and_validate(tmp_path):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"```ini\n(.*?)```", readme, re.S)
    assert blocks
    for i, block in enumerate(blocks):
        path = tmp_path / f"readme_{i}.ini"
        path.write_text(block, encoding="utf-8")
        doc = load_tree_spec(path)
        report = ts.validate(doc.source, doc.truncation)
        assert report.ok, (block, report.violations)


@pytest.mark.parametrize("doc, error", [
    ("[tree]\nkind = rooted\n[arity]\ndefault = 2\n[weights]\ndefault = 1%\n",
     "error: bad default weight '1%'\n"),
    ("[tree]\nkind = rooted\nanchor = a\n[edges]\na -> b\n[edge_weights]\na = 1\nb = %(x)s\n",
     "error: bad weight of b '%(x)s'\n"),
], ids=["percent-default-weight", "interpolation-edge-weight"])
def test_values_with_percent_are_read_literally(tmp_path, capsys, doc, error):
    """A `%` in a value is an ordinary character, as in a key: a weight
    holding one is a malformed scalar, a usage error with one line."""
    path = tmp_path / "percent.ini"
    path.write_text(doc)
    assert main(["validate", "--tree", str(path)]) == 2
    assert capsys.readouterr().err == error


def test_percent_in_a_label_matches_in_keys_and_values(tmp_path, capsys):
    """The anchor value `a%%b` names the same vertex as the edge key
    `a%%b -> c`: neither is interpolated."""
    path = tmp_path / "labels.ini"
    path.write_text("[tree]\nkind = rooted\nanchor = a%%b\n[edges]\na%%b -> c\n"
                    "[edge_weights]\na%%b = 1\nc = 1/2\n")
    assert load_tree_spec(path).source.anchor == "a%%b"
    assert main(["validate", "--tree", str(path)]) == 0
    assert capsys.readouterr().out == "validated 2 vertices: OK\n"


_CUSTOM = "[tree]\nkind = unrooted\n[arity]\ndefault = 2\n[spine]\nchild_index = 1\n" \
          "[weights]\ncoef = 1\nratio = 1/2\n(0; 1) = 1/8\n"
_EDGES = "[tree]\nkind = rooted\nanchor = a\n[edges]\na -> b\n[edge_weights]\na = 1\nb = 1/2\n"
_PRESET = "[tree]\npreset = example_4_1\nm = 1,3,5\nexact = true\n"


@pytest.mark.parametrize("text", [_CUSTOM, _PRESET], ids=["custom", "preset"])
def test_each_load_of_a_text_builds_its_own_tree(tmp_path, text):
    """The parse of a text is kept, but every load builds a new TreeModel
    with memos of its own, equal in its rules to the first."""
    path = tmp_path / "tree.ini"
    path.write_text(text)
    first, second = load_tree_spec(path), load_tree_spec(path)
    assert isinstance(first.source, ts.TreeModel) and isinstance(second.source, ts.TreeModel)
    assert first.source is not second.source
    assert first.source.fiber_masses is not second.source.fiber_masses
    assert first == TreeSpecDocument(first.source, second.truncation, second.name)
    v = VA(0, (1, 0, 0))
    assert first.source.weight(v) == second.source.weight(v)
    assert ts.q_value(v, 5, first.source, L2) == ts.q_value(v, 5, second.source, L2)


def test_edge_lists_are_shared_read_only():
    """An edge-list document's EdgeData is the text's own, shared between
    parses, so neither it nor its weights can be changed."""
    first, second = parse_tree_spec(_EDGES), parse_tree_spec(_EDGES)
    assert first.source is second.source
    with pytest.raises(TypeError):
        first.source.weights["b"] = 2
    with pytest.raises(dataclasses.FrozenInstanceError):
        first.source = None
    assert resolve_model(first) is not resolve_model(second)


def test_an_edge_list_is_validated_once_per_process(tmp_path, monkeypatch, capsys):
    """criteria, validate and norm on one edge-list document, and further
    loads of it, validate the edge list once; the parse itself does not.  An
    invalid list keeps its report, and a document built by hand, which has
    no parse entry, is validated on every call."""
    calls = []
    validate_edge_data = ts.trees.validate_edge_data
    monkeypatch.setattr(ts.trees, "validate_edge_data",
                        lambda data: calls.append(data) or validate_edge_data(data))
    path = tmp_path / "edges.ini"
    path.write_text(_EDGES.replace("a = 1", "a = 1\n# validated once"))
    doc = load_tree_spec(path)
    assert calls == []
    for argv in (["criteria", "--horizon", "4"], ["validate"], ["norm", "--space", "2"]):
        assert main([argv[0], "--tree", str(path), *argv[1:]]) == 0
    assert "validated 2 vertices: OK" in capsys.readouterr().out
    assert calls == [doc.source]
    assert treespec.validate_document(doc, doc.truncation) == ts.validate(doc.source)
    assert resolve_model(doc).weight(VA(0, (0,))) == Fraction(1, 2)
    assert len(calls) == 2  # the direct `ts.validate` above
    bad = parse_tree_spec(_EDGES.replace("b = 1/2", "b = 0"))
    for _ in range(2):
        with pytest.raises(ts.TreeSpecError, match="ZeroWeight"):
            resolve_model(bad)
        assert treespec.validate_document(bad, bad.truncation).codes() == {"ZeroWeight"}
    assert len(calls) == 3
    by_hand = TreeSpecDocument(doc.source, doc.truncation, doc.name)
    assert by_hand == doc
    resolve_model(by_hand)
    treespec.validate_document(by_hand, by_hand.truncation)
    assert len(calls) == 5


def test_a_rewritten_file_is_parsed_again(tmp_path):
    path = tmp_path / "tree.ini"
    path.write_text("[tree]\npreset = example_7_2\n")
    assert load_tree_spec(path).name == "example_7_2"
    path.write_text(_EDGES)
    assert load_tree_spec(path).source.weights["b"] == Fraction(1, 2)
    path.write_text(_EDGES.replace("1/2", "1/4"))
    assert load_tree_spec(path).source.weights["b"] == Fraction(1, 4)


def test_a_malformed_text_raises_on_every_call():
    text = "[tree]\nkind = rooted\n[arity]\ndefault = -1\n"
    treespec._parse_text.cache_clear()
    for _ in range(3):
        with pytest.raises(ts.TreeSpecError, match="child counts are nonnegative"):
            parse_tree_spec(text)
    assert treespec._parse_text.cache_info().currsize == 0


def test_each_text_is_parsed_once_and_the_memo_is_bounded(monkeypatch):
    """configparser reads a text once however often it is parsed, and the
    memo keeps at most `_PARSED_TEXTS` texts."""
    reads = []
    read_string = configparser.ConfigParser.read_string
    monkeypatch.setattr(configparser.ConfigParser, "read_string",
                        lambda self, text, *a: reads.append(text) or read_string(self, text, *a))
    treespec._parse_text.cache_clear()
    for _ in range(3):
        for text in (_CUSTOM, _EDGES, _PRESET):
            parse_tree_spec(text)
    assert reads == [_CUSTOM, _EDGES, _PRESET]
    info = treespec._parse_text.cache_info()
    assert (info.hits, info.misses, info.maxsize) == (6, 3, treespec._PARSED_TEXTS)
    for depth in range(2 * treespec._PARSED_TEXTS):
        parse_tree_spec(f"{_PRESET}[truncation]\ndepth = {depth}\n")
        assert treespec._parse_text.cache_info().currsize <= treespec._PARSED_TEXTS
    parse_tree_spec(_CUSTOM)  # pushed out by the newer texts: read again
    assert reads.count(_CUSTOM) == 2


def test_module_docstring_example_parses():
    """The format example in the `treespec` docstring is one document per
    kind: as given, a preset; without its preset line, an edge list; without
    its edge sections too, custom rules."""
    example = textwrap.dedent(treespec.__doc__.split("\n\n    [tree]", 1)[1].split(
        "\n\nCustom rule-backed", 1)[0])
    example = "[tree]" + example
    preset = parse_tree_spec(example)
    assert preset.name == "example_4_1" and preset.truncation == ts.Truncation(16, 16)
    no_preset = re.sub(r"\npreset = .*\n", "\n", example)
    edges = parse_tree_spec(no_preset)
    assert edges.source.edges == (("a", "b"), ("a", "c"))
    assert dict(edges.source.weights) == {"a": 1, "b": Fraction(1, 2)}
    custom = parse_tree_spec(re.sub(r"\[edges\].*?\[arity\]", "[arity]", no_preset, flags=re.S))
    tree = custom.source
    assert tree.kind == ts.ROOTED
    assert [tree.arity(VA(0)), tree.arity(VA(0, (1,))), tree.arity(VA(0, (0,)))] == [2, 3, 1]
    assert tree.weight(VA(0, (0,))) == Fraction(1, 4)
    assert tree.weight(VA(0, (1,))) == Fraction(1, 2)
