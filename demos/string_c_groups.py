#!/usr/bin/env python3
"""Which string groups generated by involutions are polytopal?

A regular polytope is the same thing as a string C-group: the parabolic
subgroups have to intersect exactly where the generator sets do.  Most
natural examples pass; the script ends with one that fails and shows
the witness pair.
"""

from polyflag.presentation import Word, make_presentation, REFLECTION
from polyflag.stringc import (build_string_group, is_string_c_group,
                              intersection_condition_exhaustive, dual)
from polyflag.constructions import coxeter, torus_map, hemi_icosahedron

for group, label in [
        (coxeter(3, 3), "[3,3] tetrahedron"),
        (coxeter(4, 3, 3), "[4,3,3] 4-cube"),
        (torus_map("44", 2, 2), "{4,4}_(2,2)"),
        (hemi_icosahedron(), "hemi-icosahedron")]:
    verdict = is_string_c_group(group)
    print(f"{label}: order {group.order}, symbol "
          f"{group.schlafli_symbol()}, C-group {bool(verdict)}")

# parabolic subgroup orders, straight from orbits of the regular action
cube = coxeter(4, 3)
for subset in [(), (0,), (0, 1), (1, 2), (0, 1, 2)]:
    print(f"  <{subset}> has order {cube.parabolic_order(subset)},"
          f" index {cube.order // cube.parabolic_order(subset)}")

print("dual of [4,3]:", dual(cube).schlafli_symbol())

# force r0 = r2 in [2,2]: still an sggi, no longer a C-group
collapsed = make_presentation(
    REFLECTION, 3, (2, 2), extra_relators=[Word.gen(0) * Word.gen(2)])
group = build_string_group(collapsed)
verdict = is_string_c_group(group)
print("collapsed [2,2]: order", group.order, "C-group", bool(verdict))
w = verdict.witness
print(f"  witness: <{set(w.left)}> meets <{set(w.right)}> in order"
      f" {w.intersection_order}, expected {w.expected_order}")
print("  exhaustive check agrees:",
      bool(intersection_condition_exhaustive(group)) == bool(verdict))
