"""Building blocks: multisets, membrane trees, and the model language.

Run with:  python3 demos/01_membranes_and_rules.py
"""

from mmsim import (
    Configuration,
    InvalidConfigurationError,
    Membrane,
    Multiset,
    build_configuration,
    parse_model,
    render_tree,
    rule_text,
    serialize_model,
)

# Multisets are immutable counted mappings of symbols; split entries add up.
stock = Multiset([("c", 4), ("m", 2), ("c", 6)])
print("stock:", stock)
print()

# A configuration is a labelled tree; ids are assigned in pre-order.
config = build_configuration(
    ("skin", {}, [
        ("T", {"c": 10}, []),
        ("T", {"c": 4}, []),
        ("CU", {}, [("V", {"p0": 1}, [])]),
    ]))
print(render_tree(config.skin))

# Every Configuration is a valid tree: one membrane object in two places
# is refused when the configuration is built.
patch = Membrane(1, "T", stock)
try:
    Configuration(Membrane(0, "skin", children=(patch, patch)))
except InvalidConfigurationError as exc:
    print("refused:", exc)
print()

# The same structures parse from text; serialization is canonical, so
# models survive a parse/serialize round trip byte for byte.
model = parse_model("""
# two tissue patches and a parked carrier
[skin:
  [T: c*10]
  [T: c*4]
  [CU: [V: p0]]
]
rule leave: exo V from CU: p0 -> p1
rule visit: endo V into T: p1 -> p2
rule sip: send-in V: c -> cv if p2
""")
print(serialize_model(model), end="")
print()
for rule in model.rules:
    print("parsed:", rule_text(rule))
