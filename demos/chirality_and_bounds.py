#!/usr/bin/env python3
# Chiral polytopes: all rotations, no reflections.  Torus maps give the
# rank-3 examples; one extra relator on {3,3,8} gives the smallest
# rank-4 one with regular facets; lower bounds on flag counts by rank.

from polyflag.presentation import Word, make_presentation
from polyflag.analysis import f_vector
from polyflag.chiral import (build_rotation_group, rotation_torus_map,
                             is_chiral, enantiomorph, mix_order,
                             mixed_regular_cover_flags, chiral_lower_bound,
                             weakest_chiral_bound, chiral_report)

# {4,4}_(b,c) is chiral exactly when b, c, b-c are all nonzero
for b, c in [(2, 0), (2, 2), (1, 2), (1, 3)]:
    group = rotation_torus_map("44", b, c)
    print(f"{{4,4}}_({b},{c}): order {group.order},"
          f" chiral {is_chiral(group)}")

skew = rotation_torus_map("44", 1, 2)
mirror = enantiomorph(skew)
print("enantiomorph order:", mirror.order, " chiral:", is_chiral(mirror))
print("mix with mirror:", mix_order(skew, mirror),
      "-> smallest regular cover has",
      mixed_regular_cover_flags(skew), "flags")
faces = f_vector(skew)
print("vertices/facets:", (faces[0], faces[-1]))

# the {3,3,8} rotation group with one extra relator: 192 elements,
# 384 flags, which meets the rank-4 bound exactly
s1, s2, s3 = Word.gen(0), Word.gen(1), Word.gen(2)
extra = s3.inverse() * s1 * s3 * s2.inverse() * s1 * s3 ** -2 * s2
pres = make_presentation("rotation", 4, [3, 3, 8], extra_relators=[extra])
report = chiral_report(build_rotation_group(pres))
for key in ("order", "flags", "is_chiral", "vertices", "facets",
            "mixed_cover_flags", "bound_check"):
    print(f"  {key}: {report[key]}")

# minimum flag counts for chiral n-polytopes by section type
print("rank  reg/reg   chiral/reg   chiral/chiral   weakest")
for rank in range(4, 9):
    cells = [chiral_lower_bound(rank, fk, vk)
             for fk, vk in (("regular", "regular"),
                            ("chiral", "regular"),
                            ("chiral", "chiral"))]
    tags = [f"{b.value}{'' if b.exact else '+'}" for b in cells]
    print(f"{rank:>4}  " + "  ".join(f"{t:>10}" for t in tags)
          + f"  {weakest_chiral_bound(rank):>8}")
