#!/usr/bin/env python3
# Flatness: every k-face incident with every m-face.  Tightness: the
# flag count hits its floor 2 p1 ... p_{n-1}.  The two meet in the
# local-flatness characterization, visible already on torus maps.

from polyflag.analysis import analyze, is_flat_km, flatness_spectrum
from polyflag.constructions import coxeter, torus_map, universal_amalgam

for b, c in [(2, 0), (2, 2), (3, 0)]:
    report = analyze(torus_map("44", b, c))
    print(f"{{4,4}}_({b},{c}): {report.flag_count} flags,"
          f" f-vector {report.f_vector},"
          f" flat pairs {report.flat_pairs},"
          f" tight {report.is_tight}")

# {3,6}_(1,1) is the smallest tight polyhedron of its type: 36 flags,
# every vertex on every face
small = analyze(torus_map("36", 1, 1))
print("{3,6}_(1,1):", small.flag_count, "flags, flat", small.is_flat,
      "tight", small.is_tight)

# the octahedron is neither flat nor tight
print("octahedron tight:", analyze(coxeter(3, 4)).is_tight)

# gluing the cube onto {3,6}_(1,1) vertex figures gives a flat
# 4-polytope: 288 flags against the 9216 of a free amalgam bound
glued = universal_amalgam(coxeter(4, 3), torus_map("36", 1, 1))
report = analyze(glued)
print("cube/{3,6}_(1,1) amalgam:", report.order, "elements,",
      "f-vector", report.f_vector)
print("  flat pairs:", report.flat_pairs, " flat:", report.is_flat)

# flatness passes to sections: the vertex figures inherit (0,2)
print("  vertex-figure flat pairs:", flatness_spectrum(glued.section(1, 3)))
print("  (1,3)-flat:", is_flat_km(glued, 1, 3),
      " (0,3)-flat:", is_flat_km(glued, 0, 3))

# degenerate symbols (some p = 2) are always flat
digon_prism = analyze(coxeter(2, 3))
print("{2,3}: degenerate", digon_prism.is_degenerate,
      "flat", digon_prism.is_flat, "tight", digon_prism.is_tight)
