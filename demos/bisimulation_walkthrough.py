"""Walk through computing and probing a greatest fuzzy bisimulation.

Two small models each have a hub with two graded successors; the successor
degrees are interchanged between the models.  We compute the greatest fuzzy
bisimulation, confirm it with the enumeration oracle, watch the logical
indistinguishability matrix descend onto it, and see what a crisp analysis
says instead.

Run:  python demos/bisimulation_walkthrough.py
"""

from fractions import Fraction as F

from fdl import (
    FeatureSet,
    Interpretation,
    brute_force_greatest,
    check_bisim,
    format_degree,
    greatest_bisim,
    hm_matrix,
    to_text,
)

left = Interpretation(
    ["u", "v", "w"],
    individuals={"a": "u"},
    concepts={"A": {"v": F(4, 5), "w": F(9, 10)}},
    roles={"r": [("u", "v", F(7, 10)), ("u", "w", F(1))]},
)
right = Interpretation(
    ["u'", "v'", "w'"],
    individuals={"a": "u'"},
    concepts={"A": {"v'": F(4, 5), "w'": F(9, 10)}},
    roles={"r": [("u'", "v'", F(1)), ("u'", "w'", F(9, 10))]},
)
features = FeatureSet.none()


def show(relation):
    width = max(len(x) for x in relation.rows)
    header = " " * (width + 2) + "  ".join(y.ljust(4) for y in relation.cols)
    print(header)
    for x in relation.rows:
        cells = "  ".join(format_degree(relation.at(x, y)).ljust(4) for y in relation.cols)
        print(f"{x.ljust(width)}  {cells}")


print("greatest fuzzy bisimulation (nested partition refinement):")
greatest = greatest_bisim(left, right, features, "fuzzy")
show(greatest)

oracle = brute_force_greatest(left, right, features, "fuzzy")
print("\nenumeration oracle agrees:", oracle == greatest)
print("passes every condition:", check_bisim(left, right, greatest, features).satisfied)

print("\nindistinguishability matrices by concept height:")
for depth in range(3):
    hm = hm_matrix(left, right, features, "fuzzy", depth)
    hub_entry = format_degree(hm.matrix.at("u", "u'"))
    print(f"  height <= {depth}: (u,u') = {hub_entry}"
          f"   equals the greatest: {hm.matrix == greatest}")
    if hm.matrix == greatest:
        separator = hm.separators[("u", "u'")]
        print("  separating concept for (u,u'):", to_text(separator))
        break

print("\ncrisp analysis: only exact agreement counts, so the hubs separate:")
crisp = greatest_bisim(left, right, features, "crisp")
show(crisp)
