#!/usr/bin/env python3
"""Record the expected outcome of every sweep candidate in sweep_expected.json.

For each presentation in the sweep pool this runs ``polyflag --json
--max-cosets SWEEP_CAP analyze`` once and records the exit code, the order
and the C-group verdict.  Every finite order is cross-checked against
sympy's coset enumeration, and bare Coxeter symbols against their closed
form; any disagreement aborts without writing the file.

Run from the repository root after changing the pool or the cap:

    python3 perfbench/make_sweep_expected.py
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

from sympy.combinatorics.coset_table import coset_enumeration_r  # noqa: E402
from sympy.combinatorics.fp_groups import FpGroup  # noqa: E402
from sympy.combinatorics.free_groups import free_group  # noqa: E402

from polyflag import cli  # noqa: E402

import inputs  # noqa: E402

SYMPY_MAX_COSETS = 1_000_000


def sympy_order(sym, rel):
    """Order of the presented group by sympy's HLT enumeration."""
    rank = len(sym) + 1
    _, *r = free_group(" ".join(f"r{i}" for i in range(rank)))
    rels = [g ** 2 for g in r]
    rels += [(r[i] * r[i + 1]) ** p for i, p in enumerate(sym)]
    rels += [(r[i] * r[j]) ** 2
             for i in range(rank) for j in range(i + 2, rank)]
    if rel:
        body, k = rel.split("^")
        word = r[0] ** 0
        for tok in body.strip("()").split():
            word *= r[int(tok[1:])]
        rels.append(word ** int(k))
    table = coset_enumeration_r(FpGroup(r[0].group, rels), [],
                                max_cosets=SYMPY_MAX_COSETS)
    table.compress()
    return len(table.table)


def run_cli(path):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(["--json", "--max-cosets", str(inputs.SWEEP_CAP),
                         "analyze", str(path)])
    text = out.getvalue()
    return code, (json.loads(text) if text.lstrip().startswith("{") else None)


def main():
    scratch = ROOT / ".perfbench-out"
    scratch.mkdir(exist_ok=True)
    path = scratch / "candidate.txt"
    expected = {}
    pool = inputs.sweep_pool()
    for n, (sym, rel) in enumerate(pool):
        key = inputs.sweep_key(sym, rel)
        path.write_text(inputs.sweep_text(sym, rel))
        code, payload = run_cli(path)
        entry = {"exit": code, "order": None, "c_group": None}
        if rel is None:
            entry["order"] = inputs.coxeter_order(sym)
            entry["infinite"] = entry["order"] is None
        if payload is not None:
            entry["c_group"] = payload["c_group"]
        if code in (0, 1):
            truth = sympy_order(sym, rel)
            got = payload["order"] if payload is not None else truth
            if got != truth or entry["order"] not in (None, truth):
                sys.exit(f"{key}: polyflag {got}, sympy {truth},"
                         f" closed form {entry['order']}")
            entry["order"] = truth
        expected[key] = entry
        if n % 100 == 0:
            print(f"{n}/{len(pool)} {key}: {entry}", flush=True)
    lines = (f"{json.dumps(key)}: {json.dumps(expected[key], sort_keys=True)}"
             for key in sorted(expected))
    inputs.SWEEP_EXPECTED.write_text("{\n" + ",\n".join(lines) + "\n}\n")
    print(f"wrote {len(expected)} entries to {inputs.SWEEP_EXPECTED}")


if __name__ == "__main__":
    main()
