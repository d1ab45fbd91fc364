"""
Schemas and derived properties
==============================

A schema lists attributes with finite value domains, plus hyperattributes:
properties derived from the attributes through small boolean expressions or
explicit value maps.  Here we build the two-shapes-plus-relationship schema
and watch the derived properties react to samples.
"""

from emlang import moprd_schema, parse_schema
from emlang.schema import code_attributes, extend_codes


def properties(schema, sample_id, values):
    """Every property's value on one sample: its attributes are coded as domain
    indices, the hyperattribute columns derived from them, and each code
    spelt back through the property's domain."""
    codes = extend_codes(schema, code_attributes(schema, [sample_id], [values]))
    return {
        prop: schema.domain(prop)[code]
        for prop, code in zip(schema.property_names, codes[0].tolist())
    }


schema = moprd_schema()
print("properties:", ", ".join(schema.property_names))
print("relationship domain:", schema.domain("relationship"))
print("all_empty domain:", schema.domain("all_empty"))
print()

# A filled circle next to a cross, stacked vertically.
sample = properties(schema, "demo", {"shape1": "●", "shape2": "×", "relationship": "↑"})
for prop, value in sample.items():
    print(f"  {prop:>12} = {value}")
print()

# Value maps relabel a single property; the label set becomes the domain.
grouped = parse_schema(
    """
    {
      "attributes": [
        {"name": "entity", "values": ["man", "cat", "pizza", "wheel"]}
      ],
      "hyperattributes": [
        {"name": "group_entity",
         "map": {"source": "entity",
                 "cases": {"man": "human", "cat": "animal",
                           "pizza": "circular", "wheel": "circular"}}}
      ]
    }
    """
)
print("group_entity domain:", grouped.domain("group_entity"))
wheel = properties(grouped, "img", {"entity": "wheel"})
print("wheel is grouped as:", wheel["group_entity"])
