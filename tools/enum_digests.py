#!/usr/bin/env python3
"""Print digests of the coset tables a checkout's enumerator produces.

Usage: python3 tools/enum_digests.py CHECKOUT

Imports ``polyflag`` from ``CHECKOUT/src`` and enumerates a fixed set of
presentations over the trivial subgroup.  Each line gives the label, the
coset cap, and either the coset count with the first 16 hex digits of
``sha256(json.dumps(table.action))`` or the high-water mark of the
``CosetLimitExceeded`` it raised.  Then it digests the tables of groups
reached other ways: rotation torus maps (through the pair orbit of
``pair_orbit_table``, the dual of a {3,6} map, or the plain enumeration
a degenerate torus falls back to) and the ``dual`` of corpus groups.
Run it on two checkouts (say, a clone of the parent commit and the
working tree) and diff the output: a change that keeps coset numbering
leaves it unchanged.  The digests in ``tests/test_coset_enum.py`` were
recorded this way and are kept by hand; do not regenerate them from a
changed enumerator.
"""

import hashlib
import json
import sys
from pathlib import Path


def _coxeter_text(symbol, rel=None):
    text = (f"rank {len(symbol) + 1}\nkind reflection\n"
            f"schlafli {' '.join(map(str, symbol))}\n")
    return text + (f"rel {rel}\n" if rel else "")


# (label, presentation text or "corpus:<name>", coset cap)
CASES = (
    ("coxeter [3,3,5]", _coxeter_text((3, 3, 5)), 2_000_000),
    ("coxeter [4,3,3,3,3]", _coxeter_text((4, 3, 3, 3, 3)), 2_000_000),
    ("corpus cube-5", "corpus:cube-5", 2_000_000),
    ("corpus lambda-6-3-3-3", "corpus:lambda-6-3-3-3", 2_000_000),
    ("corpus lambda-6-6-3-3", "corpus:lambda-6-6-3-3", 2_000_000),
    ("sweep 5 4 | (r0 r1 r2)^8", _coxeter_text((5, 4), "(r0 r1 r2)^8"),
     2000),
    ("sweep 5 4 | (r0 r1 r2)^8", _coxeter_text((5, 4), "(r0 r1 r2)^8"),
     300),
    ("sweep 3 6 3", _coxeter_text((3, 6, 3)), 2000),
    ("sweep 3 6 3", _coxeter_text((3, 6, 3)), 300),
    # these finish only because lookahead collapses the table at the cap
    ("sweep 6 3 4 | (r0 r1 r2 r3)^6",
     _coxeter_text((6, 3, 4), "(r0 r1 r2 r3)^6"), 2000),
    ("sweep 4 5 3 | (r0 r1 r2)^7", _coxeter_text((4, 5, 3), "(r0 r1 r2)^7"),
     2000),
    ("sweep 8 3 | (r0 r1 r2 r1)^4", _coxeter_text((8, 3), "(r0 r1 r2 r1)^4"),
     60),
)

# (label, route, arguments): a torus map is rotation_torus_map(*arguments),
# a dual is dual() of the corpus group of that name
GROUP_CASES = (
    ("torus 44 1 2", "torus", ("44", 1, 2)),
    ("torus 36 8 11", "torus", ("36", 8, 11)),
    ("torus 63 2 1", "torus", ("63", 2, 1)),  # the dual of {3,6}_(2,1)
    ("torus 44 2 0", "torus", ("44", 2, 0)),  # enumeration fallback
    ("dual corpus cube-5", "dual", ("cube-5",)),
    ("dual corpus rotation-338", "dual", ("rotation-338",)),
)


def digest(action):
    return hashlib.sha256(json.dumps(action).encode()).hexdigest()[:16]


def main(argv):
    if len(argv) != 2:
        print("usage: python3 tools/enum_digests.py CHECKOUT",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(Path(argv[1]).resolve() / "src"))
    from polyflag.corpus import load_entry
    from polyflag.coset_enum import CosetLimitExceeded, enumerate_cosets
    from polyflag.chiral import build_rotation_group, rotation_torus_map
    from polyflag.presentation import REFLECTION, parse_presentation
    from polyflag.stringc import build_string_group, dual

    for label, text, cap in CASES:
        if text.startswith("corpus:"):
            pres = load_entry(text[len("corpus:"):])[0]
        else:
            pres = parse_presentation(text)
        try:
            table = enumerate_cosets(pres, (), max_cosets=cap)
        except CosetLimitExceeded as exc:
            outcome = f"limit high_water={exc.high_water}"
        else:
            outcome = f"{table.num_cosets} {digest(table.action)}"
        print(f"{label}\tcap {cap}\t{outcome}")

    def corpus_dual(name):
        pres = load_entry(name)[0]
        build = (build_string_group if pres.kind == REFLECTION
                 else build_rotation_group)
        return dual(build(pres))

    routes = {"torus": rotation_torus_map, "dual": corpus_dual}
    for label, route, arguments in GROUP_CASES:
        table = routes[route](*arguments).table
        print(f"{label}\t{table.num_cosets} {digest(table.action)}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
