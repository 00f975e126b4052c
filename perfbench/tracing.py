"""Spans around the public functions of each polyflag module.

The tracer replaces a function at each of its import sites with a wrapper
that records a span (name, parent span, job, start, end) in memory, plus a
few counts taken at the same boundary.  ``install`` returns the list of
replaced attributes so that ``uninstall`` can put the originals back;
untraced passes run the unmodified program.
"""

from __future__ import annotations

import functools
import json
import time
import weakref
from collections import Counter, defaultdict

from polyflag import (analysis, chiral, cli, constructions, corpus, coset_enum,
                      permgroup, presentation, stringc)

# span name -> the import sites it is installed at
SITES = {
    "coset_enum.enumerate_cosets": (coset_enum, stringc, chiral),
    "coset_enum.coset_action": (coset_enum, stringc, chiral),
    "permgroup.build_chain": (permgroup, chiral),
    "presentation.parse_presentation": (presentation, cli, corpus),
    "stringc.build_string_group": (stringc, cli, constructions),
    "stringc.is_string_c_group": (stringc, analysis, constructions),
    "stringc.StringGroup.parabolic_orbit": (stringc.StringGroup,),
    "analysis.analyze": (analysis, cli),
    "analysis.f_vector": (analysis,),
    "analysis.flatness_spectrum": (analysis,),
    "chiral.build_rotation_group": (chiral, cli),
    "chiral.rotation_torus_map": (chiral, cli),
    "chiral.chiral_report": (chiral, cli),
    "chiral.is_chiral": (chiral,),
    "chiral.enantiomorph": (chiral,),
    "chiral.mix_order": (chiral,),
    "chiral.RotationGroup.word_orbit": (chiral.RotationGroup,),
    "cli.main": (cli,),
}


class Tracer:
    """In-memory spans and counts for one traced pass."""

    def __init__(self):
        self.spans = []  # [id, name, parent id, job, start, end]
        self.stack = []
        self.counts = Counter()
        self.maxima = Counter()
        self.job = None
        self.chain_depth = 0
        self._orbit_keys = weakref.WeakKeyDictionary()

    def wrap(self, name, fn, hook=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            record = [len(self.spans), name,
                      self.stack[-1] if self.stack else -1, self.job,
                      time.perf_counter(), 0.0]
            self.spans.append(record)
            self.stack.append(record[0])
            result = error = None
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                error = exc
                raise
            finally:
                record[5] = time.perf_counter()
                self.stack.pop()
                if hook is not None:
                    hook(args, result, error, record[5] - record[4])
            return result
        return wrapper

    # -- hooks: counts taken where the work happens -------------------------

    def _enumerated(self, args, table, error, seconds):
        if isinstance(error, coset_enum.CosetLimitExceeded):
            self.counts["limit_hits"] += 1
            self.counts["limit_s"] += seconds
            self.maxima["limit_high_water"] = max(
                self.maxima["limit_high_water"], error.high_water)
        elif table is not None:
            self.counts["cosets_out"] += table.num_cosets
            self.maxima["table_entries"] = max(
                self.maxima["table_entries"],
                table.num_cosets * 2 * table.num_generators)

    def _orbit(self, prefix):
        def hook(args, result, error, seconds):
            group, key = args[0], frozenset(args[1])
            seen = self._orbit_keys.setdefault(group, set())
            self.counts[f"{prefix}_calls"] += 1
            if key not in seen:
                seen.add(key)
                self.counts[f"{prefix}_distinct"] += 1
        return hook

    def _built(self, args, result, error, seconds):
        if isinstance(error, stringc.SggiViolation):
            self.counts["sggi_violations"] += 1

    def _exited(self, args, code, error, seconds):
        if error is None:
            self.counts[f"exit_{code}"] += 1

    def _parsed(self, args, result, error, seconds):
        self.counts["parse_calls"] += 1

    def _chain(self, fn):
        """build_chain with the chain degree and the permutation products
        made inside it counted."""
        @functools.wraps(fn)
        def counted(gens):
            gens = list(gens)
            self.counts["chain_degree_sum"] += gens[0].degree if gens else 0
            self.chain_depth += 1
            try:
                return fn(gens)
            finally:
                self.chain_depth -= 1
        return counted

    def install(self):
        """Wrap every site; returns (owner, attribute, original) triples."""
        hooks = {
            "coset_enum.enumerate_cosets": self._enumerated,
            "stringc.StringGroup.parabolic_orbit":
                self._orbit("parabolic_orbit"),
            "chiral.RotationGroup.word_orbit": self._orbit("word_orbit"),
            "stringc.build_string_group": self._built,
            "presentation.parse_presentation": self._parsed,
            "cli.main": self._exited,
        }
        patched = []
        for name, owners in SITES.items():
            attr = name.rsplit(".", 1)[1]
            for owner in owners:
                original = getattr(owner, attr)
                fn = original
                if name == "permgroup.build_chain":
                    fn = self._chain(fn)
                fn = self.wrap(name, fn, hooks.get(name))
                if attr in ("parabolic_orbit", "word_orbit"):
                    fn = _materialized(fn)
                setattr(owner, attr, fn)
                patched.append((owner, attr, original))
        original_mul = permgroup.Perm.__mul__

        def mul(perm, other):
            if self.chain_depth:
                self.counts["perm_mul_calls"] += 1
            return original_mul(perm, other)

        permgroup.Perm.__mul__ = mul
        patched.append((permgroup.Perm, "__mul__", original_mul))
        return patched

    def write_spans(self, path):
        with open(path, "w") as fh:
            for sid, name, parent, job, start, end in self.spans:
                fh.write(json.dumps({"id": sid, "name": name,
                                     "parent": parent, "job": job,
                                     "start": start, "end": end}) + "\n")


def _materialized(method):
    """Pass a one-shot iterable of generator indices on as a tuple, so the
    hook can read the subset the method saw."""
    @functools.wraps(method)
    def call(group, subset):
        return method(group, tuple(subset))
    return call


def uninstall(patched):
    for owner, attr, original in reversed(patched):
        setattr(owner, attr, original)


def layer_metrics(tracer):
    """Per-layer metrics of one traced pass."""
    incl = defaultdict(float)
    child = defaultdict(float)
    calls = Counter()
    for sid, name, parent, _, start, end in tracer.spans:
        incl[name] += end - start
        calls[name] += 1
        if parent >= 0:
            child[parent] += end - start
    self_time = defaultdict(float)
    for sid, name, _, _, start, end in tracer.spans:
        self_time[name] += end - start - child[sid]
    c = tracer.counts
    enum_s = incl["coset_enum.enumerate_cosets"]
    done_s = enum_s - c["limit_s"]
    return {
        "coset_enum.enumerate_s": enum_s,
        "coset_enum.enumerate_calls": calls["coset_enum.enumerate_cosets"],
        "coset_enum.cosets_out": c["cosets_out"],
        "coset_enum.cosets_per_s": c["cosets_out"] / done_s if done_s else 0.0,
        "coset_enum.coset_action_s": incl["coset_enum.coset_action"],
        "coset_enum.table_entries_max": tracer.maxima["table_entries"],
        "coset_enum.limit_hits": c["limit_hits"],
        "coset_enum.limit_s": c["limit_s"],
        "coset_enum.limit_high_water": tracer.maxima["limit_high_water"],
        "permgroup.build_chain_s": incl["permgroup.build_chain"],
        "permgroup.build_chain_calls": calls["permgroup.build_chain"],
        "permgroup.chain_degree_sum": c["chain_degree_sum"],
        "permgroup.perm_mul_calls": c["perm_mul_calls"],
        "chiral.rotation_torus_map_self_s":
            self_time["chiral.rotation_torus_map"],
        "chiral.build_rotation_group_self_s":
            self_time["chiral.build_rotation_group"],
        "chiral.chiral_report_self_s": self_time["chiral.chiral_report"],
        "chiral.mix_order_self_s": self_time["chiral.mix_order"],
        "chiral.enantiomorph_self_s": self_time["chiral.enantiomorph"],
        "chiral.is_chiral_s": incl["chiral.is_chiral"],
        "chiral.word_orbit_s": incl["chiral.RotationGroup.word_orbit"],
        "chiral.word_orbit_calls": c["word_orbit_calls"],
        "chiral.word_orbit_distinct": c["word_orbit_distinct"],
        "stringc.build_string_group_self_s":
            self_time["stringc.build_string_group"],
        "stringc.is_string_c_group_s": incl["stringc.is_string_c_group"],
        "stringc.parabolic_orbit_s":
            incl["stringc.StringGroup.parabolic_orbit"],
        "stringc.parabolic_orbit_calls": c["parabolic_orbit_calls"],
        "stringc.parabolic_orbit_distinct": c["parabolic_orbit_distinct"],
        "stringc.sggi_violations": c["sggi_violations"],
        "analysis.analyze_self_s": self_time["analysis.analyze"],
        "analysis.f_vector_s": incl["analysis.f_vector"],
        "analysis.flatness_spectrum_s": incl["analysis.flatness_spectrum"],
        "presentation.parse_s": incl["presentation.parse_presentation"],
        "presentation.parse_calls": c["parse_calls"],
        "cli.main_self_s": self_time["cli.main"],
        **{f"cli.exit_{code}": c[f"exit_{code}"] for code in range(4)},
        "trace.spans": len(tracer.spans),
    }
