from __future__ import annotations

import json
import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from emlang.errors import (
    AttributeMismatch,
    CycleError,
    DocumentSyntaxError,
    DomainError,
    UnknownReference,
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
    Sample,
    ValueMap,
    eval_property,
    parse_expression,
    parse_schema,
    property_codes,
    render_expression,
    render_schema,
    validate_sample,
)
from emlang.synth import all_combinations, gen_holistic

from oracles import naive_eval

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


def sample_of(schema, s1, s2, rel):
    return validate_sample(
        schema, "s", {"shape1": s1, "shape2": s2, "relationship": rel}
    )


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
    with pytest.raises(UnknownReference):
        parse_schema(doc)


def test_forward_reference_is_a_cycle():
    doc = """
    {"attributes": [{"name": "a", "values": ["x", "y"]}],
     "hyperattributes": [
        {"name": "p", "expr": "q or a == x"},
        {"name": "q", "expr": "a == y"}]}
    """
    with pytest.raises(CycleError):
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
    codes = property_codes(schema, [Sample("f", {"a": "F"}), Sample("t", {"a": "T"})])
    assert codes.shape == (2, 10_001)
    assert (codes == codes[:, :1]).all()
    assert codes[:, 0].tolist() == [0, 1]


@pytest.mark.parametrize(
    "prop,expected",
    [("fill1", "T"), ("aligned", "T"), ("all_fill", "F")],
)
def test_eval_on_filled_circle_cross_top(moprd, prop, expected):
    sample = sample_of(moprd, "●", "×", "↑")
    assert eval_property(moprd, sample, prop) == expected


def test_property_domains(moprd):
    assert moprd.domain("relationship") == ("→", "↗", "↑", "↖")
    assert moprd.domain("all_empty") == ("F", "T")
    grouped = parse_schema(GROUPED_ENTITIES)
    assert grouped.domain("group_entity") == ("human", "animal", "circular")


def test_value_map_evaluation():
    grouped = parse_schema(GROUPED_ENTITIES)
    sample = validate_sample(grouped, "img", {"entity": "giraffe"})
    assert eval_property(grouped, sample, "group_entity") == "animal"


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
    rows = all_combinations(schema)
    samples = [Sample(str(i), row) for i, row in enumerate(rows)]
    assert property_codes(copy.schema, samples).tolist() == [[0, 0, 1], [1, 0, 0], [2, 1, 0]]


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


def test_moprd_hyperattribute_identities(moprd):
    """Boolean identities hold on every one of the 100 combinations."""
    for index, combo in enumerate(all_combinations(moprd)):
        sample = validate_sample(moprd, str(index), combo)
        fill1 = eval_property(moprd, sample, "fill1")
        fill2 = eval_property(moprd, sample, "fill2")
        assert eval_property(moprd, sample, "all_fill") == (
            "T" if fill1 == "T" and fill2 == "T" else "F"
        )
        assert eval_property(moprd, sample, "all_empty") == (
            "T" if fill1 == "F" and fill2 == "F" else "F"
        )
        assert eval_property(moprd, sample, "aligned") == (
            "T" if combo["relationship"] in ("→", "↑") else "F"
        )


def test_evaluation_total_and_in_domain(moprd):
    for index, combo in enumerate(all_combinations(moprd)):
        sample = validate_sample(moprd, str(index), combo)
        for prop in moprd.property_names:
            assert eval_property(moprd, sample, prop) in moprd.domain(prop)


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
    for bad in ["a ==", "a in {x", "and a", "a b", "(a == x", "a = x"]:
        with pytest.raises(DocumentSyntaxError):
            parse_expression(bad)


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
        with pytest.raises(DocumentSyntaxError):
            parse_expression(text)


def test_bare_reference_requires_boolean():
    doc = """
    {"attributes": [{"name": "a", "values": ["x", "y"]}],
     "hyperattributes": [{"name": "p", "expr": "a"}]}
    """
    with pytest.raises(DomainError):
        parse_schema(doc)


def test_literal_outside_domain_rejected():
    doc = """
    {"attributes": [{"name": "a", "values": ["x", "y"]}],
     "hyperattributes": [{"name": "p", "expr": "a == z"}]}
    """
    with pytest.raises(DomainError):
        parse_schema(doc)


def test_structural_rejections():
    with pytest.raises(DocumentSyntaxError):
        parse_schema("not json")
    with pytest.raises(DocumentSyntaxError):
        parse_schema('{"attributes": []}')
    with pytest.raises(DomainError):
        parse_schema('{"attributes": [{"name": "a", "values": []}]}')
    with pytest.raises(DomainError):
        parse_schema('{"attributes": [{"name": "a", "values": ["x", "x"]}]}')
    with pytest.raises(DomainError):
        parse_schema(
            '{"attributes": [{"name": "a", "values": ["x"]},'
            ' {"name": "a", "values": ["y"]}]}'
        )


def test_sample_validation(moprd):
    with pytest.raises(AttributeMismatch):
        validate_sample(moprd, "s", {"shape1": "□", "shape2": "□"})
    with pytest.raises(AttributeMismatch):
        validate_sample(
            moprd, "s", {"shape1": "pentagon", "shape2": "□", "relationship": "→"}
        )
    with pytest.raises(UnknownReference):
        eval_property(moprd, sample_of(moprd, "□", "□", "→"), "colour")
    # eval_property codes its sample through the same check
    with pytest.raises(AttributeMismatch, match="must assign exactly the attributes"):
        eval_property(moprd, Sample("s", {"shape1": "□", "shape2": "□"}), "fill1")


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
    rows = all_combinations(schema)
    expected = [
        [schema.domain(prop).index(naive_eval(schema, row, prop)) for prop in schema.property_names]
        for row in rows
    ]
    samples = [Sample(str(i), row) for i, row in enumerate(rows)]
    assert property_codes(schema, samples).tolist() == expected
