"""
Schemas and derived properties
==============================

A schema lists attributes with finite value domains, plus hyperattributes:
properties derived from the attributes through small boolean expressions or
explicit value maps.  Here we build the two-shapes-plus-relationship schema
and watch the derived properties react to samples.
"""

from emlang import eval_property, moprd_schema, parse_schema, validate_sample

schema = moprd_schema()
print("properties:", ", ".join(schema.property_names))
print("relationship domain:", schema.domain("relationship"))
print("all_empty domain:", schema.domain("all_empty"))
print()

# A filled circle next to a cross, stacked vertically.
sample = validate_sample(
    schema, "demo", {"shape1": "●", "shape2": "×", "relationship": "↑"}
)
for prop in schema.property_names:
    print(f"  {prop:>12} = {eval_property(schema, sample, prop)}")
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
wheel = validate_sample(grouped, "img", {"entity": "wheel"})
print("wheel is grouped as:", eval_property(grouped, wheel, "group_entity"))
