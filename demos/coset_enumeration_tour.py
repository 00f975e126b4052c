#!/usr/bin/env python3
# Enumerate cosets for a few string Coxeter groups and poke at the
# resulting tables: orders, subgroup indices, word traces.

from polyflag.presentation import (Word, make_presentation,
                                   parse_presentation, REFLECTION)
from polyflag.coset_enum import enumerate_cosets, group_order, relators_close

for periods in [(3, 3), (3, 4), (3, 5), (4, 3, 3)]:
    pres = make_presentation(REFLECTION, len(periods) + 1, periods)
    table = enumerate_cosets(pres)
    print(f"[{','.join(map(str, periods))}]: "
          f"{table.num_cosets} elements, relators close:",
          relators_close(pres, table))

# the octahedron again, but on the cosets of the face stabilizers
pres = make_presentation(REFLECTION, 3, (3, 4))
vertex = [Word.gen(1), Word.gen(2)]
table = enumerate_cosets(pres, vertex)
print("octahedron vertices:", table.num_cosets)

edge = [Word.gen(0), Word.gen(2)]
print("octahedron edges:", enumerate_cosets(pres, edge).num_cosets)
face = [Word.gen(0), Word.gen(1)]
print("octahedron faces:", enumerate_cosets(pres, face).num_cosets)

# tracing words through the regular representation
table = enumerate_cosets(pres)
w = Word.gen(0) * Word.gen(1) * Word.gen(2)
c = table.trace(0, w)
print("coset of r0 r1 r2:", c)
print("   ... traced back:", table.trace(c, w.inverse()))

# the same group from its text form
text = """
rank 3
kind reflection
schlafli 3 4
"""
print("parsed order:", group_order(parse_presentation(text)))

# a deliberately infinite group stopped by the coset limit
from polyflag.coset_enum import CosetLimitExceeded

plane = make_presentation(REFLECTION, 3, (4, 4))
try:
    enumerate_cosets(plane, max_cosets=5000)
except CosetLimitExceeded as exc:
    print("{4,4} plane group:", exc)
