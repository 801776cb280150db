"""Structured text documents describing trees.

The format is INI-style (configparser).  A document names either a preset, an
explicit finite edge list, or custom arity/weight rules:

    [tree]
    kind = rooted            ; rooted | unrooted
    preset = example_4_1     ; optional: full_binary, unary_path, example_4_1,
                             ;           example_7_2, bi_infinite_path
    m = pow2                 ; example_4_1 block parameter: pow2 or 2,4,8,...
    exact = false            ; Fraction weights instead of floats
    anchor = a               ; edge-list trees: the anchor label

    [edges]                  ; explicit finite edge list (rooted only)
    a -> b
    a -> c

    [edge_weights]           ; weights by label for edge-list trees
    a = 1
    b = 1/2

    [arity]                  ; custom rule-backed trees
    default = 1
    by_level = 2,1           ; child counts by depth below the anchor
    (0; 1) = 3               ; per-address overrides

    [spine]                  ; unrooted custom trees
    child_index = 0

    [weights]
    default = 1              ; constant weight, or a geometric closed form:
    coef = 1                 ; mu(v) = coef * ratio ** signed_depth(v)
    ratio = 1/2
    (0; 0) = 1/4             ; per-address overrides

    [truncation]
    depth = 16
    ancestry = 16

Custom rule-backed trees get vertex types (`trees.VertexTypes`) derived from
their rules: a vertex's type is its ``signed_depth`` and a child's is one
deeper, since off the overrides both rules depend on the depth alone.  Every
ancestor-or-self of an override address, and on unrooted trees every spine
vertex above the anchor (its children follow the spine rule, which reports an
out-of-range spine child index), is its own type instead; the parent of such
a vertex is one too, so depth-typed vertices have depth-typed children.  An
override address that is not canonical only marks vertices needlessly.
Malformed counts and scalars, and negative child counts, raise
`TreeSpecError`.
"""

from __future__ import annotations

import configparser
from dataclasses import dataclass
from typing import Union

from .errors import TreeSpecError
from .presets import PRESETS, make_preset
from .spaces import parse_scalar
from .trees import (
    ROOTED,
    UNROOTED,
    EdgeData,
    TreeModel,
    Truncation,
    VertexAddress,
    VertexTypes,
    parse_address,
    tree_from_edge_data,
)


@dataclass
class TreeSpecDocument:
    source: Union[TreeModel, EdgeData]
    truncation: Truncation
    name: str


def _read(parser: configparser.ConfigParser, section: str) -> dict:
    if not parser.has_section(section):
        return {}
    return dict(parser.items(section))


def parse_tree_spec(text: str) -> TreeSpecDocument:
    parser = configparser.ConfigParser(
        delimiters=("=",), allow_no_value=True, strict=True
    )
    parser.optionxform = str
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        raise TreeSpecError(f"malformed tree spec: {exc}") from None

    tree_section = _read(parser, "tree")
    trunc_section = _read(parser, "truncation")
    try:
        trunc = Truncation(
            depth=int(trunc_section.get("depth", 16)),
            ancestry=int(trunc_section.get("ancestry", 16)),
        )
    except ValueError as exc:
        raise TreeSpecError(f"bad truncation: {exc}") from None

    preset = tree_section.get("preset")
    if preset is not None:
        return TreeSpecDocument(_build_preset(preset, tree_section), trunc, preset)

    if parser.has_section("edges"):
        return TreeSpecDocument(
            _build_edge_data(parser, tree_section), trunc, "edge-list"
        )

    return TreeSpecDocument(_build_custom(parser, tree_section), trunc, "custom")


def load_tree_spec(path) -> TreeSpecDocument:
    with open(path, "r", encoding="utf-8") as fp:
        return parse_tree_spec(fp.read())


def resolve_model(doc: TreeSpecDocument) -> TreeModel:
    """The TreeModel of a document; edge lists are validated on the way."""
    if isinstance(doc.source, TreeModel):
        return doc.source
    return tree_from_edge_data(doc.source)


def _build_preset(preset: str, tree_section: dict) -> TreeModel:
    if preset not in PRESETS:
        raise TreeSpecError(f"unknown preset {preset!r}; available: {sorted(PRESETS)}")
    params = {}
    if preset in ("example_4_1", "example_7_2"):
        params["exact"] = _parse_bool(tree_section.get("exact", "false"))
    if preset == "example_4_1" and "m" in tree_section:
        m_text = tree_section["m"]
        if m_text == "pow2":
            params["m"] = "pow2"
        else:
            params["m"] = _parsed(lambda t: [int(x) for x in t.split(",")], m_text, "m-sequence")
    return make_preset(preset, **params)


def _parse_bool(text: str) -> bool:
    low = text.strip().lower()
    if low in ("1", "true", "yes", "on"):
        return True
    if low in ("0", "false", "no", "off"):
        return False
    raise TreeSpecError(f"bad boolean {text!r}")


def _parsed(parse, text: str, what: str):
    """``parse(text)``, or TreeSpecError naming ``what`` when it fails."""
    try:
        return parse(text)
    except (ValueError, ZeroDivisionError):
        raise TreeSpecError(f"bad {what} {text!r}") from None


def _child_count(text: str, what: str) -> int:
    count = _parsed(int, text, what)
    if count < 0:
        raise TreeSpecError(f"bad {what} {text!r}: child counts are nonnegative")
    return count


def _build_edge_data(parser: configparser.ConfigParser, tree_section: dict) -> EdgeData:
    kind = tree_section.get("kind", ROOTED)
    anchor = tree_section.get("anchor")
    if anchor is None:
        raise TreeSpecError("edge-list trees need an anchor label")
    edges = []
    for key, value in parser.items("edges"):
        text = key if not value else f"{key}={value}"
        if "->" not in text:
            raise TreeSpecError(f"bad edge line {text!r}; expected 'parent -> child'")
        left, right = (part.strip() for part in text.split("->", 1))
        if not left or not right:
            raise TreeSpecError(f"bad edge line {text!r}")
        edges.append((left, right))
    weights = {
        label: _parsed(parse_scalar, value, f"weight of {label}")
        for label, value in _read(parser, "edge_weights").items()
    }
    return EdgeData(tuple(edges), weights, anchor, kind)


def _split_rules(section: dict, reserved: set[str]):
    """Separate reserved keys from per-address override entries."""
    table = {}
    plain = {}
    for key, value in section.items():
        if key in reserved:
            plain[key] = value
        else:
            table[parse_address(key)] = value
    return plain, table


def _build_custom(parser: configparser.ConfigParser, tree_section: dict) -> TreeModel:
    kind = tree_section.get("kind")
    if kind not in (ROOTED, UNROOTED):
        raise TreeSpecError("custom trees need kind = rooted | unrooted")

    arity_section = _read(parser, "arity")
    plain, arity_table = _split_rules(arity_section, {"default", "by_level"})
    default_arity = _child_count(plain.get("default", "0"), "default arity")
    by_level = None
    if "by_level" in plain:
        by_level = [_child_count(x, "by_level arity") for x in plain["by_level"].split(",")]
    arity_overrides = {
        addr: _child_count(v, f"arity at {addr}") for addr, v in arity_table.items()
    }

    weights_section = _read(parser, "weights")
    plain, weight_table = _split_rules(weights_section, {"default", "coef", "ratio"})
    weight_overrides = {
        addr: _parsed(parse_scalar, v, f"weight at {addr}") for addr, v in weight_table.items()
    }
    ratio = _parsed(parse_scalar, plain["ratio"], "ratio") if "ratio" in plain else None
    coef = _parsed(parse_scalar, plain.get("coef", "1"), "coef")
    default_weight = _parsed(parse_scalar, plain.get("default", "1"), "default weight")
    if ratio is not None and "default" in plain:
        raise TreeSpecError("give either a constant default weight or coef/ratio")

    def depth(t) -> int:
        return t.signed_depth if isinstance(t, VertexAddress) else t

    def arity(t) -> int:
        if t in arity_overrides:
            return arity_overrides[t]
        d = depth(t)
        if by_level is not None and d >= 0:
            return by_level[min(d, len(by_level) - 1)]
        return default_arity

    def weight(t):
        if t in weight_overrides:
            return weight_overrides[t]
        if ratio is not None:
            return coef * ratio ** depth(t)
        return default_weight

    spine_rule = None
    if kind == UNROOTED:
        spine_section = _read(parser, "spine")
        idx = _parsed(int, spine_section.get("child_index", "0"), "spine child_index")
        spine_rule = lambda k: idx

    marked = {
        VertexAddress(a.up, a.path[:i])
        for a in (*arity_overrides, *weight_overrides)
        for i in range(len(a.path) + 1)
    }

    def type_of(v: VertexAddress):
        if v in marked or (v.up and not v.path):
            return v
        return v.signed_depth

    types = VertexTypes(type_of, child_type=lambda d, i: d + 1)
    return TreeModel(kind, arity, weight, spine_rule, name="custom", types=types)
