"""Walk through shrinking a model with strong bisimilarity.

One model holds two disjoint islands describing the same situation twice,
plus a redundant successor.  Quotienting by strong bisimilarity folds all
of that away; pruning first drops whatever no named individual can reach.
The quotient validates exactly the graded axioms the original does.

Run:  python demos/minimization_walkthrough.py
"""

import json
from fractions import Fraction as F

from fdl import (
    FeatureSet,
    Interpretation,
    dump_interpretation,
    load_kb,
    prune_unreachable,
    quotient,
    strong_partition,
    validates,
)

model = Interpretation(
    ["u", "v1", "v2", "v3", "u'", "v1'", "v2'"],
    individuals={"a": "u"},
    concepts={
        "A": {
            "v1": F(7, 10), "v2": F(4, 5), "v3": F(4, 5),
            "v1'": F(7, 10), "v2'": F(4, 5),
        }
    },
    roles={
        "r": [
            ("u", "v1", F(1, 2)), ("u", "v2", F(3, 5)), ("u", "v3", F(3, 10)),
            ("u'", "v1'", F(1, 2)), ("u'", "v2'", F(3, 5)),
        ]
    },
)

for flags in ("", "O", "I"):
    features = FeatureSet.parse(flags)
    partition = strong_partition(model, features)
    print(f"features [{flags or 'none'}]: blocks =",
          " | ".join(",".join(block) for block in partition.blocks))

features = FeatureSet.none()
small = quotient(prune_unreachable(model, features), features)
print("\npruned + quotiented model:")
print(json.dumps(dump_interpretation(small), indent=2))

reduced = strong_partition(small, features).is_identity()
print("no two elements are strongly bisimilar anymore:", reduced)

box = load_kb(
    {
        "tbox": [{"lhs": "A", "rhs": "0.8", "rel": ">=", "p": "1"}],
        "abox": [{"kind": "concept", "c": "exists r . A", "a": "a", "cmp": ">=", "p": "0.6"}],
    }
)
print(
    "original and quotient agree on the box:",
    validates(model, box.items()).valid == validates(small, box.items()).valid,
)
