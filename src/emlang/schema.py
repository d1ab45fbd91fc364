"""Attribute schemas, derived properties, and their evaluation.

A schema declares *attributes* (named, finite, ordered value domains) and
*hyperattributes* (properties derived from attributes or from earlier
hyperattributes).  A hyperattribute body is either a boolean expression over
property values, with domain ``(F, T)``, or an explicit value map that
relabels one property's values.

Expression grammar (whitespace-insensitive around operators)::

    expr     := or_expr
    or_expr  := and_expr ('or' and_expr)*
    and_expr := not_expr ('and' not_expr)*
    not_expr := 'not' not_expr | atom
    atom     := '(' expr ')'
              | name '==' value
              | name 'in' '{' value (',' value)* '}'
              | name                # boolean property, shorthand for name == T

Identifiers and values are arbitrary UTF-8 words not containing whitespace
or the reserved characters ``( ) { } , =``.  An expression may nest at most
``MAX_EXPRESSION_DEPTH`` levels deep.

Construction compiles the schema once: one walk over each hyperattribute,
in declaration order, validates its body and builds its column evaluator (a
lookup table for a value map or an expression leaf, composed column
functions for ``not``, ``and`` and ``or``).
Evaluation works on whole columns of domain indices: :func:`code_attributes`
codes attribute dicts, and is the one check that they conform to the schema;
:func:`extend_codes` derives the hyperattribute columns from attribute codes.
A property's value on a sample is its domain entry at the sample's code in
the property's column, ``schema.domain(prop)[codes[row, schema.column(prop)]]``;
grouping those columns is left to :mod:`emlang.kernels` and its callers.

Schemas are immutable after construction; evaluation is pure, so all
operations here are safe to call concurrently.
"""

from __future__ import annotations

import json
from collections.abc import Mapping
from dataclasses import dataclass, field
from functools import cached_property, partial

import numpy as np

from .errors import (
    AttributeMismatch,
    CycleError,
    DocumentSyntaxError,
    DomainError,
    UnknownReference,
    parse_json,
)

BOOL_DOMAIN = ("F", "T")

_RESERVED = set("(){},=")
_KEYWORDS = {"and", "or", "not", "in"}

# Deepest accepted expression, counting operator levels and open parentheses
# alike.  Every walk over an expression tree recurses once per level, so the
# bound keeps them all far below the interpreter's recursion limit.
MAX_EXPRESSION_DEPTH = 100


# ---------------------------------------------------------------------------
# Expression trees
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Ref:
    """Bare reference to a boolean property; true iff the property is T."""

    name: str


@dataclass(frozen=True)
class Equals:
    prop: str
    value: str


@dataclass(frozen=True)
class Member:
    prop: str
    values: tuple[str, ...]


@dataclass(frozen=True)
class Not:
    operand: "Expr"


@dataclass(frozen=True)
class And:
    left: "Expr"
    right: "Expr"


@dataclass(frozen=True)
class Or:
    left: "Expr"
    right: "Expr"


Expr = Ref | Equals | Member | Not | And | Or


def _tokenize(text: str) -> list[str]:
    tokens: list[str] = []
    i = 0
    while i < len(text):
        ch = text[i]
        if ch.isspace():
            i += 1
        elif ch == "=":
            if text[i : i + 2] != "==":
                raise DocumentSyntaxError(f"expected '==' at position {i} in expression {text!r}")
            tokens.append("==")
            i += 2
        elif ch in _RESERVED:
            tokens.append(ch)
            i += 1
        else:
            j = i
            while j < len(text) and not text[j].isspace() and text[j] not in _RESERVED:
                j += 1
            tokens.append(text[i:j])
            i = j
    return tokens


class _ExprParser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.pos = 0
        self.open = 0  # parentheses and 'not's enclosing the current token

    def peek(self) -> str | None:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def take(self) -> str:
        tok = self.peek()
        if tok is None:
            raise DocumentSyntaxError(f"unexpected end of expression {self.text!r}")
        self.pos += 1
        return tok

    def expect(self, tok: str) -> None:
        got = self.take()
        if got != tok:
            raise DocumentSyntaxError(f"expected {tok!r} but found {got!r} in expression {self.text!r}")

    def take_word(self) -> str:
        tok = self.take()
        if tok in _KEYWORDS or tok in _RESERVED or tok == "==":
            raise DocumentSyntaxError(
                f"expected an identifier but found {tok!r} in expression {self.text!r}"
            )
        return tok

    def bounded(self, depth: int) -> int:
        if depth > MAX_EXPRESSION_DEPTH:
            raise DocumentSyntaxError(
                f"expression nests deeper than {MAX_EXPRESSION_DEPTH} levels: {self.text!r}"
            )
        return depth

    def parse(self) -> Expr:
        expr, _ = self.or_expr()
        if self.peek() is not None:
            raise DocumentSyntaxError(f"trailing tokens after expression {self.text!r}")
        return expr

    def or_expr(self) -> tuple[Expr, int]:
        return self.chain("or", self.and_expr, Or)

    def and_expr(self) -> tuple[Expr, int]:
        return self.chain("and", self.not_expr, And)

    def chain(self, keyword: str, operand, node_type) -> tuple[Expr, int]:
        """Left-associative ``operand (keyword operand)*``."""
        node, height = operand()
        while self.peek() == keyword:
            self.take()
            right, right_height = operand()
            node, height = node_type(node, right), self.bounded(max(height, right_height) + 1)
        return node, height

    def not_expr(self) -> tuple[Expr, int]:
        if self.peek() == "not":
            self.take()
            self.open = self.bounded(self.open + 1)
            operand, height = self.not_expr()
            self.open -= 1
            return Not(operand), self.bounded(height + 1)
        return self.atom()

    def atom(self) -> tuple[Expr, int]:
        tok = self.take()
        if tok == "(":
            self.open = self.bounded(self.open + 1)
            node = self.or_expr()
            self.open -= 1
            self.expect(")")
            return node
        if tok in _KEYWORDS or tok in _RESERVED or tok == "==":
            raise DocumentSyntaxError(f"unexpected token {tok!r} in expression {self.text!r}")
        name = tok
        nxt = self.peek()
        if nxt == "==":
            self.take()
            return Equals(name, self.take_word()), 0
        if nxt == "in":
            self.take()
            self.expect("{")
            values = [self.take_word()]
            while self.peek() == ",":
                self.take()
                values.append(self.take_word())
            self.expect("}")
            return Member(name, tuple(values)), 0
        return Ref(name), 0


def parse_expression(text: str) -> Expr:
    """Parse an expression string; raises DocumentSyntaxError on bad syntax
    and on nesting deeper than ``MAX_EXPRESSION_DEPTH``."""
    return _ExprParser(text).parse()


def render_expression(expr: Expr) -> str:
    """Canonical text form; ``parse_expression(render_expression(e)) == e``."""

    def render(node: Expr, parent: str) -> str:
        if isinstance(node, Ref):
            return node.name
        if isinstance(node, Equals):
            return f"{node.prop} == {node.value}"
        if isinstance(node, Member):
            return f"{node.prop} in {{{', '.join(node.values)}}}"
        if isinstance(node, Not):
            inner = render(node.operand, "not")
            return f"not {inner}"
        if isinstance(node, And):
            text = f"{render(node.left, 'and')} and {render(node.right, 'and_rhs')}"
            return f"({text})" if parent in ("not", "and_rhs") else text
        text = f"{render(node.left, 'or')} or {render(node.right, 'or_rhs')}"
        return f"({text})" if parent in ("not", "and", "and_rhs", "or_rhs") else text

    return render(expr, "top")


# ---------------------------------------------------------------------------
# Schema types
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Attribute:
    name: str
    domain: tuple[str, ...]


@dataclass(frozen=True)
class ValueMap:
    """Relabels each value of ``source`` via ``cases`` (a total, ordered map)."""

    source: str
    cases: tuple[tuple[str, str], ...]


@dataclass(frozen=True)
class HyperattributeDef:
    name: str
    body: Expr | ValueMap


@dataclass(frozen=True)
class AttributeSchema:
    """Validated, immutable property declarations.

    Hyperattributes may reference attributes and earlier hyperattributes
    only; construction rejects unknown names, forward references, and value
    maps that do not cover their source domain exactly once.
    """

    attributes: tuple[Attribute, ...]
    hyperattributes: tuple[HyperattributeDef, ...] = ()
    _domains: dict = field(default_factory=dict, init=False, repr=False, compare=False)
    _indices: dict = field(default_factory=dict, init=False, repr=False, compare=False)
    _columns: dict = field(default_factory=dict, init=False, repr=False, compare=False)
    _evaluators: list = field(default_factory=list, init=False, repr=False, compare=False)

    def __post_init__(self):
        if not self.attributes:
            raise DocumentSyntaxError("schema declares no attributes")
        hyper_names = {h.name for h in self.hyperattributes}
        for prop in (*self.attributes, *self.hyperattributes):
            if prop.name in self._columns:
                raise DomainError(f"duplicate property name {prop.name!r}")
            if isinstance(prop, Attribute):
                if not prop.domain:
                    raise DomainError(f"attribute {prop.name!r} has an empty domain")
                if len(set(prop.domain)) != len(prop.domain):
                    raise DomainError(f"attribute {prop.name!r} has duplicate values")
                domain = tuple(prop.domain)
            else:
                domain, evaluate = self._compile(prop, hyper_names)
                self._evaluators.append(evaluate)
            self._domains[prop.name] = domain
            # value -> domain index, so lookups cost O(1) at any domain size
            self._indices[prop.name] = {value: i for i, value in enumerate(domain)}
            self._columns[prop.name] = len(self._columns)

    def _compile(self, hyper: HyperattributeDef, hyper_names: set[str]):
        """Validate one hyperattribute body and build its evaluator, in one walk.

        Names resolve against the properties defined so far, so any other
        name in ``hyper_names`` is this hyperattribute or a later one.
        Returns the domain and a function from the code matrix to the column.
        """

        def resolve(name: str) -> int:
            if name in self._columns:
                return self._columns[name]
            if name in hyper_names:
                raise CycleError(f"{hyper.name!r} references {name!r} before it is defined")
            raise UnknownReference(f"{hyper.name!r} references undefined property {name!r}")

        body = hyper.body
        if isinstance(body, ValueMap):
            source = resolve(body.source)
            source_domain = self._domains[body.source]
            if sorted(value for value, _ in body.cases) != sorted(source_domain):
                raise DomainError(
                    f"value map for {hyper.name!r} must cover every value of "
                    f"{body.source!r} exactly once"
                )
            label = dict(body.cases)
            labels = {value: i for i, value in enumerate(dict.fromkeys(label.values()))}
            table = np.array([labels[label[value]] for value in source_domain], dtype=np.int64)
            return tuple(labels), partial(_lookup, source, table)

        def build(expr: Expr):
            if isinstance(expr, Not):
                return partial(_apply, np.logical_not, (build(expr.operand),))
            if isinstance(expr, (And, Or)):
                op = np.logical_and if isinstance(expr, And) else np.logical_or
                return partial(_apply, op, (build(expr.left), build(expr.right)))
            # a leaf is true on some values of one property: a lookup table
            if isinstance(expr, Ref):
                name, values = expr.name, ("T",)
            else:
                name, values = expr.prop, expr.values if isinstance(expr, Member) else (expr.value,)
            column = resolve(name)
            if isinstance(expr, Ref) and self._domains[name] != BOOL_DOMAIN:
                raise DomainError(f"bare reference to {name!r} requires a boolean property")
            table = np.zeros(len(self._domains[name]), dtype=bool)
            table[[self.domain_index(name, value) for value in values]] = True
            return partial(_lookup, column, table)

        return BOOL_DOMAIN, build(body)

    # -- lookups ----------------------------------------------------------

    @cached_property
    def attribute_names(self) -> tuple[str, ...]:
        return tuple(a.name for a in self.attributes)

    @cached_property
    def property_names(self) -> tuple[str, ...]:
        """Attributes then hyperattributes, in declaration order."""
        return self.attribute_names + tuple(h.name for h in self.hyperattributes)

    def domain(self, prop: str) -> tuple[str, ...]:
        """Ordered value list: declared domain, ``(F, T)``, or value-map labels."""
        try:
            return self._domains[prop]
        except KeyError:
            raise UnknownReference(f"unknown property {prop!r}") from None

    def column(self, prop: str) -> int:
        """Index of ``prop`` in ``property_names``: its column of :func:`extend_codes`."""
        try:
            return self._columns[prop]
        except KeyError:
            raise UnknownReference(f"unknown property {prop!r}") from None

    def domain_index(self, prop: str, value: str) -> int:
        index = self._indices.get(prop)
        if index is None:
            raise UnknownReference(f"unknown property {prop!r}")
        try:
            return index[value]
        except (KeyError, TypeError):  # TypeError: an unhashable value, such as a JSON list
            raise DomainError(f"value {value!r} not in domain of {prop!r}") from None


# Evaluators: each maps the code matrix to one column.  They are partials of
# module-level functions, so a compiled schema pickles.

def _lookup(column: int, table: np.ndarray, codes: np.ndarray) -> np.ndarray:
    return table[codes[:, column]]


def _apply(op, operands, codes: np.ndarray) -> np.ndarray:
    return op(*(operand(codes) for operand in operands))


# ---------------------------------------------------------------------------
# Evaluation
# ---------------------------------------------------------------------------

def code_attributes(schema: AttributeSchema, ids, values) -> np.ndarray:
    """Domain index of every attribute in each attribute dict of ``values``:
    ``int64[len(values) x attributes]``, columns in ``attribute_names`` order.
    The one conformance check: only a failed lookup or attribute count calls
    :func:`_check_attributes`, whose error names the sample by its entry of ``ids``."""
    codes = np.empty((len(values), len(schema.attributes)), dtype=np.int64)
    try:
        if any(len(assigned) != len(schema.attributes) for assigned in values):
            raise KeyError("an attribute outside the schema")
        for i, name in enumerate(schema.attribute_names):  # one dict lookup per value
            index = schema._indices[name]
            codes[:, i] = [index[assigned[name]] for assigned in values]
    except (KeyError, TypeError):  # TypeError: an unhashable value, such as a JSON list
        for sample_id, assigned in zip(ids, values):
            _check_attributes(schema, sample_id, assigned)
    return codes


def _check_attributes(schema: AttributeSchema, sample_id, values) -> None:
    """AttributeMismatch, naming ``sample_id``, unless ``values`` is a mapping
    that assigns each attribute, and nothing else, a value of its domain."""
    expected = schema.attribute_names
    if not isinstance(values, Mapping) or values.keys() != set(expected):
        raise AttributeMismatch(
            f"sample {sample_id!r} must assign exactly the attributes {list(expected)}"
        )
    for name in expected:
        try:
            schema.domain_index(name, values[name])
        except DomainError:
            raise AttributeMismatch(
                f"sample {sample_id!r}: value {values[name]!r} not in domain of {name!r}"
            ) from None


def extend_codes(schema: AttributeSchema, attribute_codes: np.ndarray) -> np.ndarray:
    """Valid attribute codes, then each hyperattribute's column, in a fresh matrix."""
    codes = np.empty((len(attribute_codes), len(schema.property_names)), dtype=np.int64)
    codes[:, : len(schema.attributes)] = attribute_codes
    for i, evaluate in enumerate(schema._evaluators, start=len(schema.attributes)):
        codes[:, i] = evaluate(codes)
    return codes


# ---------------------------------------------------------------------------
# Document parsing and rendering
# ---------------------------------------------------------------------------

def parse_schema(text: str) -> AttributeSchema:
    """Parse a schema document (one JSON object, UTF-8).

    Top-level keys: ``attributes`` (list of ``{"name", "values"}``) and
    optional ``hyperattributes`` (list of ``{"name", "expr"}`` or
    ``{"name", "map": {"source", "cases"}}``).
    """
    doc = parse_json(text, "schema document is not valid JSON: {}")
    if not isinstance(doc, dict) or "attributes" not in doc:
        raise DocumentSyntaxError("schema document must be an object with an 'attributes' key")

    attributes = []
    for item in _expect_list(doc["attributes"], "attributes"):
        name = _expect_str(item, "name", "attribute")
        values = _expect_list(item.get("values"), f"values of attribute {name!r}")
        if not all(isinstance(v, str) for v in values):
            raise DocumentSyntaxError(f"attribute {name!r} values must be strings")
        attributes.append(Attribute(name=name, domain=tuple(values)))

    hyperattributes = []
    for item in _expect_list(doc.get("hyperattributes", []), "hyperattributes"):
        name = _expect_str(item, "name", "hyperattribute")
        if "expr" in item and "map" in item:
            raise DocumentSyntaxError(f"hyperattribute {name!r} has both 'expr' and 'map'")
        if "expr" in item:
            if not isinstance(item["expr"], str):
                raise DocumentSyntaxError(f"hyperattribute {name!r} 'expr' must be a string")
            body: Expr | ValueMap = parse_expression(item["expr"])
        elif "map" in item:
            mapping = item["map"]
            if not isinstance(mapping, dict) or "source" not in mapping or "cases" not in mapping:
                raise DocumentSyntaxError(f"hyperattribute {name!r} 'map' needs 'source' and 'cases'")
            if not isinstance(mapping["source"], str):
                raise DocumentSyntaxError(f"hyperattribute {name!r} 'source' must be a string")
            cases = mapping["cases"]
            if not isinstance(cases, dict) or not all(
                isinstance(k, str) and isinstance(v, str) for k, v in cases.items()
            ):
                raise DocumentSyntaxError(f"hyperattribute {name!r} 'cases' must map strings to strings")
            body = ValueMap(source=mapping["source"], cases=tuple(cases.items()))
        else:
            raise DocumentSyntaxError(f"hyperattribute {name!r} needs 'expr' or 'map'")
        hyperattributes.append(HyperattributeDef(name=name, body=body))

    return AttributeSchema(attributes=tuple(attributes), hyperattributes=tuple(hyperattributes))


def _expect_list(value, what: str) -> list:
    if not isinstance(value, list):
        raise DocumentSyntaxError(f"{what} must be a list")
    return value


def _expect_str(item, key: str, what: str) -> str:
    if not isinstance(item, dict) or not isinstance(item.get(key), str):
        raise DocumentSyntaxError(f"each {what} must be an object with a string {key!r}")
    return item[key]


def render_schema(schema: AttributeSchema) -> str:
    """Canonical serialization; ``parse_schema(render_schema(s)) == s``."""
    doc = {
        "attributes": [
            {"name": a.name, "values": list(a.domain)} for a in schema.attributes
        ],
        "hyperattributes": [
            {"name": h.name, "map": {"source": h.body.source, "cases": dict(h.body.cases)}}
            if isinstance(h.body, ValueMap)
            else {"name": h.name, "expr": render_expression(h.body)}
            for h in schema.hyperattributes
        ],
    }
    return json.dumps(doc, ensure_ascii=False, indent=2) + "\n"


MOPRD_SCHEMA_DOCUMENT = """\
{
  "attributes": [
    {"name": "shape1", "values": ["□", "○", "■", "●", "×"]},
    {"name": "shape2", "values": ["□", "○", "■", "●", "×"]},
    {"name": "relationship", "values": ["→", "↗", "↑", "↖"]}
  ],
  "hyperattributes": [
    {"name": "fill1", "expr": "shape1 in {■, ●}"},
    {"name": "fill2", "expr": "shape2 in {■, ●}"},
    {"name": "all_fill", "expr": "fill1 and fill2"},
    {"name": "all_empty", "expr": "not fill1 and not fill2"},
    {"name": "aligned", "expr": "relationship in {→, ↑}"}
  ]
}
"""


def moprd_schema() -> AttributeSchema:
    """Two-shapes-plus-relationship schema (5 x 5 x 4 = 100 combinations)."""
    return parse_schema(MOPRD_SCHEMA_DOCUMENT)
