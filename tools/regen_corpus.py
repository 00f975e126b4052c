#!/usr/bin/env python3
"""Regenerate the bundled corpus from the family builders.

Every entry is written twice: the presentation text and a JSON sidecar
of expected analysis values.  The sidecar values are computed here, but
they are not free-floating: the builders certify their orders and
attained symbols against closed-form formulas, and the test suite
re-derives everything independently.  Run from the repository root after
changing a builder or adding an entry.
"""

import json
import sys
from collections import Counter
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from polyflag.presentation import (Word, make_presentation,
                                   parse_presentation,
                                   serialize_presentation, REFLECTION)
from polyflag.stringc import build_string_group, is_string_c_group
from polyflag.analysis import analyze
from polyflag.chiral import build_rotation_group, chiral_report, \
    rotation_torus_map
from polyflag import constructions as cs

OUT = Path(__file__).resolve().parent.parent / "src" / "polyflag" / "corpus"


def write(name, pres, expected):
    text = serialize_presentation(pres)
    reparsed = parse_presentation(text)
    if (Counter(reparsed.relators) != Counter(pres.relators)
            or parse_presentation(serialize_presentation(reparsed))
            != reparsed):
        raise RuntimeError(f"{name}: presentation fails its round trip")
    (OUT / f"{name}.txt").write_text(text)
    (OUT / f"{name}.json").write_text(json.dumps(expected, indent=1) + "\n")
    print(f"{name}: order {expected['order']}")


def reflection_entry(name, group, note, table2_cell=None):
    expected = analyze(group).to_json()
    expected["kind"] = "reflection"
    expected["note"] = note
    if table2_cell is not None:
        expected["table2_cell"] = table2_cell
    write(name, group.pres, expected)


def rotation_entry(name, group, note, facet_kind, vf_kind):
    report = chiral_report(group)
    expected = {
        "kind": "rotation",
        "rank": group.rank,
        "order": group.order,
        "flags": report["flags"],
        "schlafli": list(group.schlafli_symbol()),
        "is_chiral": report["is_chiral"],
        "vertices": report["vertices"],
        "facets": report["facets"],
        "mixed_cover_flags": report["mixed_cover_flags"],
        "c_group": report["c_group"],
        "facet_kind": facet_kind,
        "vf_kind": vf_kind,
        "note": note,
    }
    write(name, group.pres, expected)


def main():
    OUT.mkdir(exist_ok=True)
    for stale in OUT.glob("*.txt"):
        stale.unlink()
    for stale in OUT.glob("*.json"):
        stale.unlink()

    reflection_entry("coxeter-3-3", cs.coxeter(3, 3),
                     "tetrahedron", table2_cell=[3, 1])
    reflection_entry("coxeter-3-4", cs.coxeter(3, 4), "octahedron")
    reflection_entry("coxeter-3-5", cs.coxeter(3, 5), "icosahedron")
    reflection_entry("coxeter-3-3-3", cs.coxeter(3, 3, 3),
                     "4-simplex", table2_cell=[4, 1])
    reflection_entry("coxeter-3-3-3-3", cs.coxeter(3, 3, 3, 3),
                     "5-simplex", table2_cell=[5, 1])
    reflection_entry("digon", cs.coxeter(2), "digon")
    reflection_entry("cube-4", cs.coxeter(4, 3, 3),
                     "4-cube", table2_cell=[4, 3])
    reflection_entry("cube-5", cs.coxeter(4, 3, 3, 3),
                     "5-cube", table2_cell=[5, 4])

    reflection_entry("lambda-6-3", cs.simplex_extension(6, 3),
                     "hexagonal extension of the triangle",
                     table2_cell=[3, 2])
    reflection_entry("lambda-6-3-3", cs.simplex_extension(6, 3, 3),
                     "hexagonal extension of the tetrahedron",
                     table2_cell=[4, 2])
    reflection_entry("lambda-6-6-3", cs.simplex_extension(6, 6, 3),
                     "doubly hexagonal extension of the tetrahedron",
                     table2_cell=[4, 4])
    reflection_entry("lambda-6-3-3-3", cs.simplex_extension(6, 3, 3, 3),
                     "hexagonal extension of the 4-simplex",
                     table2_cell=[5, 2])
    reflection_entry("lambda-6-6-3-3", cs.simplex_extension(6, 6, 3, 3),
                     "doubly hexagonal extension of the 4-simplex",
                     table2_cell=[5, 3])

    reflection_entry("torus-44-2-0", cs.torus_map("44", 2, 0),
                     "{4,4}_(2,0) torus map")
    reflection_entry("torus-44-2-2", cs.torus_map("44", 2, 2),
                     "{4,4}_(2,2) torus map", table2_cell=[3, 4])
    reflection_entry("torus-36-1-1", cs.torus_map("36", 1, 1),
                     "{3,6}_(1,1) torus map")
    reflection_entry("hemi-icosahedron", cs.hemi_icosahedron(),
                     "hemi-icosahedron", table2_cell=[3, 3])
    reflection_entry(
        "amalgam-43-36",
        cs.universal_amalgam(cs.coxeter(4, 3), cs.torus_map("36", 1, 1)),
        "universal cube / {3,6}_(1,1) amalgam")

    # deliberate failure case: forcing r0 = r2 keeps the sggi shape but
    # breaks the intersection condition with minimal witness ({0},{2})
    collapsed = make_presentation(
        REFLECTION, 3, [2, 2],
        extra_relators=[Word.gen(0) * Word.gen(2)])
    group = build_string_group(collapsed)
    verdict = is_string_c_group(group)
    if verdict.ok:
        raise RuntimeError("p2-collapsed passes the intersection condition")
    write("p2-collapsed", collapsed, {
        "kind": "reflection",
        "rank": 3,
        "order": group.order,
        "c_group": False,
        "witness": [sorted(verdict.witness.left),
                    sorted(verdict.witness.right)],
        "note": "r0 = r2 collapse; sggi but not a string C-group",
    })

    rotation_entry("rotation-44-1-2", rotation_torus_map("44", 1, 2),
                   "{4,4}_(1,2) chiral torus map",
                   facet_kind="regular", vf_kind="regular")
    rotation_entry("rotation-44-2-0", rotation_torus_map("44", 2, 0),
                   "{4,4}_(2,0) as a rotation group",
                   facet_kind="regular", vf_kind="regular")

    s1, s2, s3 = Word.gen(0), Word.gen(1), Word.gen(2)
    extra = (s3.inverse() * s1 * s3 * s2.inverse() * s1
             * s3 ** -2 * s2)
    pres338 = make_presentation("rotation", 4, [3, 3, 8],
                                extra_relators=[extra])
    rotation_entry("rotation-338", build_rotation_group(pres338),
                   "smallest chiral 4-polytope with regular facets and "
                   "vertex-figures; meets the flag bound exactly",
                   facet_kind="regular", vf_kind="regular")


if __name__ == "__main__":
    main()
