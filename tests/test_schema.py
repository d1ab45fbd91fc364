from __future__ import annotations

import json
import pickle
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from emlang.errors import (
    AttributeMismatch,
    CycleError,
    DocumentSyntaxError,
    DomainError,
    UnknownReference,
    parse_json,
)
from emlang.schema import (
    BOOL_DOMAIN,
    MAX_EXPRESSION_DEPTH,
    And,
    Attribute,
    AttributeSchema,
    Equals,
    HyperattributeDef,
    Member,
    Not,
    Or,
    Ref,
    ValueMap,
    code_attributes,
    extend_codes,
    parse_expression,
    parse_schema,
    render_expression,
    render_schema,
)
from emlang.rules import observed_by_group
from emlang.synth import combination_codes, gen_holistic

from oracles import attribute_product, naive_eval

GROUPED_ENTITIES = """
{
  "attributes": [
    {"name": "entity", "values": ["man", "woman", "person", "bear", "cat",
                                   "giraffe", "pizza", "plate", "wheel"]}
  ],
  "hyperattributes": [
    {"name": "group_entity",
     "map": {"source": "entity",
             "cases": {"man": "human", "woman": "human", "person": "human",
                       "bear": "animal", "cat": "animal", "giraffe": "animal",
                       "pizza": "circular", "plate": "circular", "wheel": "circular"}}}
  ]
}
"""


def extended_codes(schema, rows):
    """The ``extend_codes`` columns of the ``code_attributes`` codes of the
    attribute dicts ``rows``, sample ids counting from 0."""
    return extend_codes(schema, code_attributes(schema, list(map(str, range(len(rows)))), rows))


def evaluate(schema, values) -> dict[str, str]:
    """Each property's value on one attribute dict, read from its code."""
    (row,) = extended_codes(schema, [values]).tolist()
    return {prop: schema.domain(prop)[code] for prop, code in zip(schema.property_names, row)}


def test_moprd_document_shape(moprd):
    assert len(moprd.attributes) == 3
    assert len(moprd.hyperattributes) == 5
    assert moprd.property_names == (
        "shape1", "shape2", "relationship",
        "fill1", "fill2", "all_fill", "all_empty", "aligned",
    )


def test_minimal_document():
    schema = parse_schema('{"attributes": [{"name": "shape", "values": ["a"]}]}')
    assert len(schema.attributes) == 1
    assert schema.hyperattributes == ()


def test_undefined_reference_rejected():
    doc = """
    {"attributes": [{"name": "shape1", "values": ["■", "○"]}],
     "hyperattributes": [
        {"name": "fill1", "expr": "shape1 == ■"},
        {"name": "h", "expr": "g and fill1"}]}
    """
    with pytest.raises(UnknownReference, match="^'h' references undefined property 'g'$"):
        parse_schema(doc)


def test_forward_reference_is_a_cycle():
    doc = """
    {"attributes": [{"name": "a", "values": ["x", "y"]}],
     "hyperattributes": [
        {"name": "p", "expr": "q or a == x"},
        {"name": "q", "expr": "a == y"}]}
    """
    with pytest.raises(CycleError, match="^'p' references 'q' before it is defined$"):
        parse_schema(doc)


def test_self_reference_is_a_cycle():
    doc = """
    {"attributes": [{"name": "a", "values": ["x", "y"]}],
     "hyperattributes": [{"name": "p", "expr": "p"}]}
    """
    with pytest.raises(CycleError):
        parse_schema(doc)


def test_long_hyperattribute_chain():
    """h0 = a and h_i = h_{i-1} for 10,000 links: every link reads the value of a."""
    links = [{"name": "h0", "expr": "a"}] + [
        {"name": f"h{i}", "expr": f"h{i - 1}"} for i in range(1, 10_000)
    ]
    schema = parse_schema(
        json.dumps({"attributes": [{"name": "a", "values": ["F", "T"]}], "hyperattributes": links})
    )
    codes = extended_codes(schema, [{"a": "F"}, {"a": "T"}])
    assert codes.shape == (2, 10_001)
    assert (codes == codes[:, :1]).all()
    assert codes[:, 0].tolist() == [0, 1]


@pytest.mark.parametrize(
    "prop,expected",
    [("fill1", "T"), ("aligned", "T"), ("all_fill", "F")],
)
def test_eval_on_filled_circle_cross_top(moprd, prop, expected):
    values = evaluate(moprd, {"shape1": "●", "shape2": "×", "relationship": "↑"})
    assert values[prop] == expected


def test_property_domains(moprd):
    assert moprd.domain("relationship") == ("→", "↗", "↑", "↖")
    assert moprd.domain("all_empty") == ("F", "T")
    grouped = parse_schema(GROUPED_ENTITIES)
    assert grouped.domain("group_entity") == ("human", "animal", "circular")


def test_value_map_evaluation():
    grouped = parse_schema(GROUPED_ENTITIES)
    assert evaluate(grouped, {"entity": "giraffe"})["group_entity"] == "animal"


def test_compiled_schema_pickles_with_its_corpus():
    """A value map and an expression over it survive a pickle round trip."""
    schema = AttributeSchema(
        attributes=(Attribute("a", ("x", "y", "z")),),
        hyperattributes=(
            HyperattributeDef("m", ValueMap("a", (("x", "p"), ("y", "p"), ("z", "q")))),
            HyperattributeDef("e", parse_expression("m == p and not a in {y}")),
        ),
    )
    corpus = gen_holistic(schema, 4, 8, seed=1)
    copy = pickle.loads(pickle.dumps(corpus))
    assert copy == corpus
    expected = [[0, 0, 1], [1, 0, 0], [2, 1, 0]]
    assert extended_codes(copy.schema, attribute_product(schema)).tolist() == expected
    assert extend_codes(copy.schema, combination_codes(schema)).tolist() == expected


def test_value_map_must_cover_source():
    doc = """
    {"attributes": [{"name": "a", "values": ["x", "y"]}],
     "hyperattributes": [{"name": "m", "map": {"source": "a", "cases": {"x": "one"}}}]}
    """
    with pytest.raises(DomainError):
        parse_schema(doc)
    doc_extra = doc.replace('{"x": "one"}', '{"x": "one", "y": "two", "z": "three"}')
    with pytest.raises(DomainError):
        parse_schema(doc_extra)


@pytest.mark.parametrize("source", ["null", "5", "true", '["None"]'])
def test_value_map_source_must_be_a_string(source):
    """A non-string source is refused, not spelt as the attribute its str() names."""
    doc = f"""
    {{"attributes": [{{"name": "None", "values": ["x"]}}, {{"name": "5", "values": ["x"]}},
                    {{"name": "True", "values": ["x"]}}, {{"name": "['None']", "values": ["x"]}}],
     "hyperattributes": [{{"name": "m", "map": {{"source": {source}, "cases": {{"x": "one"}}}}}}]}}
    """
    with pytest.raises(DocumentSyntaxError, match="'source' must be a string"):
        parse_schema(doc)
    parse_schema(doc.replace(f'"source": {source}', '"source": "None"'))


def test_moprd_hyperattribute_identities(moprd):
    """Boolean identities hold on every one of the 100 combinations."""
    combos = attribute_product(moprd)
    codes = extended_codes(moprd, combos)
    T = BOOL_DOMAIN.index("T")
    fill1, fill2, all_fill, all_empty, aligned = (
        codes[:, moprd.column(prop)] == T
        for prop in ("fill1", "fill2", "all_fill", "all_empty", "aligned")
    )
    assert len(codes) == 100
    assert (all_fill == (fill1 & fill2)).all()
    assert (all_empty == (~fill1 & ~fill2)).all()
    assert aligned.tolist() == [combo["relationship"] in ("→", "↑") for combo in combos]


def test_evaluation_total_and_in_domain(moprd):
    """Every column of the extended codes holds domain indices of its property."""
    codes = extend_codes(moprd, combination_codes(moprd))
    assert codes.shape == (100, len(moprd.property_names))
    for prop in moprd.property_names:
        column = codes[:, moprd.column(prop)]
        assert 0 <= column.min() and column.max() < len(moprd.domain(prop))


def test_parse_render_round_trip(moprd):
    assert parse_schema(render_schema(moprd)) == moprd
    grouped = parse_schema(GROUPED_ENTITIES)
    assert parse_schema(render_schema(grouped)) == grouped


def test_expression_round_trip():
    texts = [
        "a == x",
        "a in {x, y}",
        "not p",
        "p and q or r",
        "p and (q or r)",
        "not (p or q) and r",
    ]
    for text in texts:
        expr = parse_expression(text)
        assert parse_expression(render_expression(expr)) == expr


def test_expression_syntax_errors():
    """Each refusal of the expression parser, with its exact text."""
    for bad, text in [
        ("a = x", "expected '==' at position 2 in expression 'a = x'"),
        ("a ==  =", "expected '==' at position 6 in expression 'a ==  ='"),
        ("a ==", "unexpected end of expression 'a =='"),
        ("a in {x", "unexpected end of expression 'a in {x'"),
        ("(a == x", "unexpected end of expression '(a == x'"),
        ("not", "unexpected end of expression 'not'"),
        ("", "unexpected end of expression ''"),
        ("a in x", "expected '{' but found 'x' in expression 'a in x'"),
        ("a in {x y}", "expected '}' but found 'y' in expression 'a in {x y}'"),
        ("a == and", "expected an identifier but found 'and' in expression 'a == and'"),
        ("a in {x,}", "expected an identifier but found '}' in expression 'a in {x,}'"),
        ("a == )", "expected an identifier but found ')' in expression 'a == )'"),
        ("and a", "unexpected token 'and' in expression 'and a'"),
        (")", "unexpected token ')' in expression ')'"),
        ("a b", "trailing tokens after expression 'a b'"),
    ]:
        with pytest.raises(DocumentSyntaxError) as caught:
            parse_expression(bad)
        assert str(caught.value) == text


def test_expression_nesting_bound():
    limit = MAX_EXPRESSION_DEPTH
    deepest = [
        "not " * limit + "a",
        "(" * limit + "a" + ")" * limit,
        " or ".join(["a"] * (limit + 1)),
    ]
    for text in deepest:
        expr = parse_expression(text)
        assert parse_expression(render_expression(expr)) == expr
    too_deep = [
        "not " * (limit + 1) + "a",
        "(" * (limit + 1) + "a" + ")" * (limit + 1),
        " or ".join(["a"] * (limit + 2)),
        "(" + " or ".join(["a"] * (limit // 2 + 10)) + ")" + " and a" * (limit // 2),
    ]
    for text in too_deep:
        with pytest.raises(DocumentSyntaxError) as caught:
            parse_expression(text)
        assert str(caught.value) == f"expression nests deeper than {limit} levels: {text!r}"


def test_expression_nesting_bound_mixes_parentheses_and_not():
    """Open parentheses and enclosing 'not's count against one bound."""
    limit = MAX_EXPRESSION_DEPTH
    for parens in (0, 1, limit // 2, limit - 1, limit):
        nots = limit - parens
        text = "(" * parens + "not " * nots + "a" + ")" * parens
        expr = parse_expression(text)
        assert parse_expression(render_expression(expr)) == expr
        text = "(" * parens + "not " * (nots + 1) + "a" + ")" * parens
        with pytest.raises(DocumentSyntaxError, match="nests deeper than"):
            parse_expression(text)


@pytest.mark.parametrize(("body", "reason"), [
    ('"expr": "a == x", "map": {"source": "a", "cases": {"x": "x", "y": "y"}}',
     "hyperattribute 'p' has both 'expr' and 'map'"),
    ('"expr": ["a == x"]', "hyperattribute 'p' 'expr' must be a string"),
    ('"map": {"source": "a"}', "hyperattribute 'p' 'map' needs 'source' and 'cases'"),
    ('"map": {"cases": {"x": "x", "y": "y"}}', "hyperattribute 'p' 'map' needs 'source' and 'cases'"),
    ('"map": ["a"]', "hyperattribute 'p' 'map' needs 'source' and 'cases'"),
    ('"map": {"source": "a", "cases": {"x": 1, "y": "y"}}',
     "hyperattribute 'p' 'cases' must map strings to strings"),
    ('"map": {"source": "a", "cases": ["x", "y"]}',
     "hyperattribute 'p' 'cases' must map strings to strings"),
    ('"value": "a == x"', "hyperattribute 'p' needs 'expr' or 'map'"),
])
def test_hyperattribute_shape_errors(body, reason):
    doc = (
        '{"attributes": [{"name": "a", "values": ["x", "y"]}],'
        ' "hyperattributes": [{"name": "p", ' + body + "}]}"
    )
    with pytest.raises(DocumentSyntaxError) as caught:
        parse_schema(doc)
    assert str(caught.value) == reason


def test_bare_reference_requires_boolean():
    doc = """
    {"attributes": [{"name": "a", "values": ["x", "y"]}],
     "hyperattributes": [{"name": "p", "expr": "a"}]}
    """
    with pytest.raises(DomainError, match="^bare reference to 'a' requires a boolean property$"):
        parse_schema(doc)


def test_literal_outside_domain_rejected():
    doc = """
    {"attributes": [{"name": "a", "values": ["x", "y"]}],
     "hyperattributes": [{"name": "p", "expr": "a == z"}]}
    """
    with pytest.raises(DomainError):
        parse_schema(doc)


def test_structural_rejections():
    with pytest.raises(DocumentSyntaxError, match="^schema document is not valid JSON: "):
        parse_schema("not json")
    cover = '{"name": "p", "map": {"source": "a", "cases": {"x": "u"}}}'
    for text, error, reason in [
        ("[]", DocumentSyntaxError, "schema document must be an object with an 'attributes' key"),
        ('{"attributes": []}', DocumentSyntaxError, "schema declares no attributes"),
        ('{"attributes": [{"values": ["x"]}]}', DocumentSyntaxError,
         "each attribute must be an object with a string 'name'"),
        ('{"attributes": [{"name": "a", "values": ["x", 1]}]}', DocumentSyntaxError,
         "attribute 'a' values must be strings"),
        ('{"attributes": [{"name": "a", "values": []}]}', DomainError,
         "attribute 'a' has an empty domain"),
        ('{"attributes": [{"name": "a", "values": ["x", "x"]}]}', DomainError,
         "attribute 'a' has duplicate values"),
        ('{"attributes": [{"name": "a", "values": ["x"]}, {"name": "a", "values": ["y"]}]}',
         DomainError, "duplicate property name 'a'"),
        ('{"attributes": [{"name": "a", "values": ["x", "y"]}], "hyperattributes": [' + cover + "]}",
         DomainError, "value map for 'p' must cover every value of 'a' exactly once"),
    ]:
        with pytest.raises(error) as caught:
            parse_schema(text)
        assert str(caught.value) == reason


def test_sample_validation(moprd):
    """code_attributes names the first bad sample by its id, and a property
    outside the schema has no column."""
    good = {"shape1": "□", "shape2": "□", "relationship": "→"}
    for values, reason in [
        ({"shape1": "□", "shape2": "□"}, "must assign exactly the attributes"),
        ({**good, "colour": "red"}, "must assign exactly the attributes"),
        (["shape1", "shape2", "relationship"], "must assign exactly the attributes"),
        (None, "must assign exactly the attributes"),
        ({**good, "shape1": "pentagon"}, "value 'pentagon' not in domain of 'shape1'"),
        ({**good, "shape1": ["□"]}, "value ['□'] not in domain of 'shape1'"),
    ]:
        expected = re.escape("sample 'b'") + ".*" + re.escape(reason)
        with pytest.raises(AttributeMismatch, match=expected):
            code_attributes(moprd, ["a", "b"], [good, values])
    with pytest.raises(UnknownReference):
        moprd.column("colour")
    with pytest.raises(UnknownReference):
        moprd.domain("colour")


def expressions(domains: dict[str, tuple[str, ...]]):
    """Random expression trees over the given properties."""
    props = sorted(domains)
    leaves = st.sampled_from(props).flatmap(
        lambda p: st.one_of(
            st.sampled_from(domains[p]).map(lambda v: Equals(p, v)),
            st.lists(st.sampled_from(domains[p]), min_size=1, unique=True).map(
                lambda vs: Member(p, tuple(vs))
            ),
        )
    )
    booleans = [p for p in props if domains[p] == BOOL_DOMAIN]
    if booleans:
        leaves = leaves | st.sampled_from(booleans).map(Ref)
    return st.recursive(
        leaves,
        lambda inner: st.one_of(
            inner.map(Not),
            st.tuples(inner, inner).map(lambda lr: And(*lr)),
            st.tuples(inner, inner).map(lambda lr: Or(*lr)),
        ),
        max_leaves=6,
    )


@st.composite
def chained_schemas(draw):
    """Attributes, then value maps and expressions over earlier properties,
    hyperattributes included."""
    attributes = tuple(
        Attribute(name=f"a{i}", domain=tuple(f"v{i}{k}" for k in range(draw(st.integers(1, 3)))))
        for i in range(draw(st.integers(1, 3)))
    )
    domains = {a.name: a.domain for a in attributes}
    hypers = []
    for h in range(draw(st.integers(0, 6))):
        name = f"h{h}"
        if draw(st.booleans()):
            source = draw(st.sampled_from(sorted(domains)))
            labels = [draw(st.sampled_from(["F", "T", "x"])) for _ in domains[source]]
            body = ValueMap(source=source, cases=tuple(zip(domains[source], labels)))
            domains[name] = tuple(dict.fromkeys(labels))
        else:
            body = draw(expressions(domains))
            domains[name] = BOOL_DOMAIN
        hypers.append(HyperattributeDef(name=name, body=body))
    return AttributeSchema(attributes=attributes, hyperattributes=tuple(hypers))


@settings(max_examples=200, deadline=None)
@given(chained_schemas())
def test_property_codes_match_definitional_evaluation(schema):
    """The extended codes of every attribute dict equal the domain indices of
    the values the schema's definitions give, from dicts and from
    ``combination_codes`` alike."""
    rows = attribute_product(schema)
    expected = [
        [schema.domain(prop).index(naive_eval(schema, row, prop)) for prop in schema.property_names]
        for row in rows
    ]
    assert extended_codes(schema, rows).tolist() == expected
    assert extend_codes(schema, combination_codes(schema)).tolist() == expected


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_observed_values_are_the_present_values_in_domain_order(data):
    """Against a set per column, with no rows, 300-value attributes and
    hyperattributes of both kinds."""
    sizes = data.draw(st.lists(st.sampled_from([1, 2, 3, 300]), min_size=1, max_size=3), label="sizes")
    attributes = tuple(
        Attribute(f"a{i}", tuple(f"v{k}" for k in range(size))) for i, size in enumerate(sizes)
    )
    source = data.draw(st.sampled_from(attributes), label="source")
    labels = data.draw(st.lists(st.sampled_from("pqr"), min_size=len(source.domain),
                                max_size=len(source.domain)), label="labels")
    members = data.draw(st.sets(st.sampled_from(source.domain), min_size=1), label="members")
    schema = AttributeSchema(
        attributes=attributes,
        hyperattributes=(
            HyperattributeDef("m", ValueMap(source.name, tuple(zip(source.domain, labels)))),
            HyperattributeDef("e", Member(source.name, tuple(sorted(members)))),
            HyperattributeDef("n", Not(Ref("e"))),
        ),
    )
    rows = data.draw(st.lists(st.tuples(*(st.integers(0, size - 1) for size in sizes)), max_size=20),
                     label="rows")
    codes = extend_codes(schema, np.array(rows, dtype=np.int64).reshape(len(rows), len(sizes)))
    everything = np.arange(len(rows))
    (observed,) = observed_by_group(schema, codes.T, everything, np.zeros_like(everything), count=1)
    assert observed == tuple(
        tuple(v for k, v in enumerate(schema.domain(prop)) if k in set(codes[:, i].tolist()))
        for i, prop in enumerate(schema.property_names)
    )


@pytest.mark.parametrize("text", [
    '["\\\\ud800"]',  # an escaped backslash, then the letters ud800
    '{"\\\\uDFFF": "\\\\\\\\uD8"}',
])
def test_text_that_only_looks_like_a_surrogate_escape_loads(text):
    """The screen for escaped surrogates hits these, and the exact walk over
    the decoded strings then finds none."""
    assert "\\ud800" in text.lower() or "\\udfff" in text.lower()
    assert parse_json(text, "bad: {}") == json.loads(text)


@pytest.mark.parametrize("text", [
    '["\\ud800"]', '{"a": {"\\uDC00": 1}}', '["\\ud83d\\u0041"]', '["\\ude00\\ud83d"]', '["\ud800"]',
])
def test_lone_surrogate_is_refused_with_its_text(text):
    """An escaped or raw lone surrogate, in a value or a key, unpaired or in
    the wrong order, is still refused with the same text."""
    with pytest.raises(DocumentSyntaxError) as error:
        parse_json(text, "bad: {}")
    assert str(error.value) == "bad: a string holds a lone surrogate"
