#!/usr/bin/env python3
"""Print digests of the coset tables a checkout's enumerator produces.

Usage: python3 tools/enum_digests.py CHECKOUT

Imports ``polyflag`` from ``CHECKOUT/src`` and enumerates a fixed set of
presentations over the trivial subgroup.  Each line gives the label, the
coset cap, and either the coset count with the first 16 hex digits of
``sha256(json.dumps(table.action))`` or the high-water mark of the
``CosetLimitExceeded`` it raised.  Run it on two checkouts (say, a clone
of the parent commit and the working tree) and diff the output: a change
to the enumerator that keeps coset numbering leaves it unchanged.  The
digests in ``tests/test_coset_enum.py`` were recorded this way and are
kept by hand; do not regenerate them from a changed enumerator.
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
    from polyflag.presentation import parse_presentation

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
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
