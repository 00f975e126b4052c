"""The jobs of each workload, and the checks of their outputs.

A workload turns a seed into a list of jobs, runs one job through the
public functions of polyflag (the timed part), and checks the result
against oracles that do not come from the code under test.  Checks run
outside the timed region and raise CheckFailed on a wrong answer.
"""

from __future__ import annotations

import contextlib
import io
import json
from pathlib import Path

import numpy as np

from polyflag import analysis, chiral, cli, corpus, presentation, stringc

import inputs


class CheckFailed(Exception):
    """The program returned a wrong answer."""


def _expect(ok, message):
    if not ok:
        raise CheckFailed(message)


def check_table(pres, table):
    """The coset table is a transitive permutation action, mirror
    consistent, in which every relator traces back to its start.

    Traces all cosets at once, one numpy gather per letter.
    """
    action = np.asarray(table.action, dtype=np.int64)
    n = table.num_cosets
    _expect(action.shape == (n, 2 * pres.num_generators), "table shape")
    ident = np.arange(n)
    for x in range(action.shape[1]):
        column = action[:, x]
        _expect(np.array_equal(np.sort(column), ident),
                f"column {x} is not a permutation")
        _expect(np.array_equal(action[column, x ^ 1], ident),
                f"column {x} is not inverted by column {x ^ 1}")
    for word in pres.relators:
        cosets = ident
        for g, e in word.letters:
            cosets = action[cosets, 2 * g if e > 0 else 2 * g + 1]
        _expect(np.array_equal(cosets, ident),
                f"relator {word.spell()} does not close")
    seen = np.zeros(n, dtype=bool)
    seen[0] = True
    frontier = np.array([0])
    while frontier.size:
        nxt = np.unique(action[frontier].ravel())
        frontier = nxt[~seen[nxt]]
        seen[frontier] = True
    _expect(seen.all(), "action is not transitive")


class Ladder:
    """reflection-ladder: build_string_group then analyze, on large groups."""

    name = "reflection-ladder"

    def jobs(self, seed, workdir):
        out = []
        for label, source, symbol, family in inputs.ladder_inputs(seed):
            if source.startswith("corpus:"):
                pres, _ = corpus.load_entry(source[len("corpus:"):])
            else:
                pres = presentation.parse_presentation(source)
            order_of = (inputs.coxeter_order if family == "coxeter"
                        else inputs.extension_order)
            out.append({"label": label, "pres": pres,
                        "order": order_of(symbol),
                        "f_vector": inputs.f_vector_closed(symbol, order_of)})
        return out

    def run(self, job):
        group = stringc.build_string_group(job["pres"])
        return group, analysis.analyze(group)

    def check(self, job, result, first):
        group, report = result
        label = job["label"]
        _expect(report.order == job["order"],
                f"{label}: order {report.order}, closed form {job['order']}")
        _expect(report.f_vector == job["f_vector"],
                f"{label}: f-vector {report.f_vector},"
                f" closed form {job['f_vector']}")
        _expect(report.c_group, f"{label}: not a string C-group")
        _expect(not report.audit_violations,
                f"{label}: audit {report.audit_violations}")
        if first:
            check_table(group.pres, group.table)
        return "exit_0"


class ChiralCover:
    """chiral-cover: rotation_torus_map then chiral_report."""

    name = "chiral-cover"

    def jobs(self, seed, workdir):
        out = [{"label": f"{{{kind[0]},{kind[1]}}}_({b},{c})",
                "torus": (kind, b, c),
                "facts": inputs.torus_facts(kind, b, c)}
               for kind, b, c in inputs.chiral_inputs(seed)]
        pres, _ = corpus.load_entry("rotation-338")
        out.append({"label": "rotation-338", "pres": pres,
                    "facts": inputs.ROTATION_338})
        return out

    def run(self, job):
        if "torus" in job:
            group = chiral.rotation_torus_map(*job["torus"])
        else:
            group = chiral.build_rotation_group(job["pres"])
        return group, chiral.chiral_report(group)

    def check(self, job, result, first):
        group, report = result
        label, facts = job["label"], job["facts"]
        for key, want in facts.items():
            _expect(report[key] == want,
                    f"{label}: {key} {report[key]}, closed form {want}")
        _expect(report["flags"] == 2 * facts["order"], f"{label}: flags")
        _expect(report["is_chiral"] is True, f"{label}: not chiral")
        _expect(report["bound_check"] is not None
                and report["bound_check"]["ok"], f"{label}: flag bound")
        if first:
            check_table(group.pres, group.table)
        return "exit_0"


class Sweep:
    """sweep: the CLI in process on many small candidates."""

    name = "sweep"

    def __init__(self):
        self.expected = json.loads(inputs.SWEEP_EXPECTED.read_text())

    def jobs(self, seed, workdir):
        folder = Path(workdir) / f"sweep-{seed}"
        folder.mkdir(parents=True, exist_ok=True)
        out = []
        for n, (key, text, malformed) in enumerate(
                inputs.sweep_inputs(seed, self.expected)):
            path = folder / f"{n:03d}.txt"
            path.write_text(text)
            out.append({"label": key, "path": str(path),
                        "malformed": malformed,
                        "expected": self.expected.get(key)})
        return out

    def run(self, job):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(["--json", "--max-cosets", str(inputs.SWEEP_CAP),
                             "analyze", job["path"]])
        return code, out.getvalue(), err.getvalue()

    def check(self, job, result, first):
        code, out, err = result
        label = job["label"]
        if job["malformed"]:
            _expect(code == 3 and err.startswith("parse error:"),
                    f"{label}: malformed input gave exit {code}")
            return "exit_3"
        want = job["expected"]
        _expect(code in (0, 1, 2), f"{label}: exit {code}: {err.strip()}")
        if code == 2:
            # a limit hit is an outcome, not a failure
            _expect(err.startswith("enumeration limit:"),
                    f"{label}: exit 2 without a limit message")
            return "exit_2"
        _expect(not want.get("infinite"),
                f"{label}: infinite group reported finite")
        if not out.lstrip().startswith("{"):
            _expect(code == 1 and err.startswith("error:"),
                    f"{label}: exit {code} without a report")
            _expect(want["exit"] in (1, 2) and want["c_group"] is None,
                    f"{label}: domain error where a report was expected")
            return "exit_1"
        payload = json.loads(out)
        order = payload["order"]
        _expect(order == payload["flag_count"], f"{label}: order != flags")
        _expect(all(order % f == 0 for f in payload["f_vector"]),
                f"{label}: f-vector {payload['f_vector']} does not divide"
                f" {order}")
        _expect(not (payload["c_group"] and payload["audit_violations"]),
                f"{label}: audit {payload['audit_violations']}")
        _expect(code == (0 if payload["c_group"]
                         and not payload["audit_violations"] else 1),
                f"{label}: exit {code} disagrees with the report")
        if want["order"] is not None:
            _expect(order == want["order"],
                    f"{label}: order {order}, expected {want['order']}")
        if want["exit"] != 2:
            _expect(code == want["exit"]
                    and payload["c_group"] == want["c_group"],
                    f"{label}: exit {code}, expected {want['exit']}")
        return f"exit_{code}"


WORKLOADS = {w.name: w for w in (Ladder, ChiralCover, Sweep)}
