"""Command-line front end.

Three commands: ``analyze`` runs the full pipeline on a presentation
file, ``construct`` builds a named family and analyzes the result, and
``verify`` re-checks the flag-count tables and the structural theorems
over the bundled corpus.

Exit codes: 0 clean; 1 for any domain-level failure (a string or a
rotation group fails the intersection condition, audit violations,
certificate mismatch, amalgam collapse) or bad arguments, and 1 with an
``internal error:`` message when a result fails one of the library's own
runtime proofs; 2 when the coset limit is hit or a bare Coxeter symbol's
closed-form order is infinite or over it; 3 when the input does not parse
or would expand past the presentation module's size bounds.

The coset cap is read once per call, in ``main`` after parsing:
``--max-cosets`` if given (the last one, if repeated), else the
``POLYFLAG_MAX_COSETS`` environment variable, else
``DEFAULT_MAX_COSETS``; a value that is not an integer of at least 1 is
an error naming its source.  A bad argument is reported before a bad
cap, and ``--help`` never reads the cap.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from pathlib import Path

from .presentation import parse_presentation, PresentationError, REFLECTION
from .coset_enum import CosetLimitExceeded, InternalError, DEFAULT_MAX_COSETS
from .stringc import (build_string_group, SggiViolation,
                      intersection_condition_exhaustive)
from .analysis import analyze, min_nonflat_flags
from .constructions import (FamilySpec, build_family, table2_witness,
                            CertificateMismatch, AmalgamCollapse,
                            FAMILIES, TORUS_FAMILIES, is_regular_torus)
from .chiral import (build_rotation_group, rotation_torus_map, chiral_report,
                     RotationViolation, chiral_lower_bound)
from . import corpus

ENV_MAX_COSETS = "POLYFLAG_MAX_COSETS"


def _verdict_lines(payload, name):
    """The intersection-condition verdict, and its witness on failure."""
    lines = [f"{name}: {'yes' if payload['c_group'] else 'NO'}"]
    if "c_group_witness" in payload:
        left, right = payload["c_group_witness"]
        lines.append(f"  witness: <{left}> meets <{right}> too large")
    return lines


def _reflection_lines(payload):
    lines = [
        f"rank {payload['rank']}  order {payload['order']}"
        f"  flags {payload['flag_count']}",
        "schlafli " + " ".join(str(p) for p in payload["schlafli"]),
        "f-vector " + " ".join(str(f) for f in payload["f_vector"]),
        *_verdict_lines(payload, "string C-group"),
    ]
    flats = payload["flat_pairs"]
    lines.append("flat pairs " + (
        " ".join(f"({k},{m})" for k, m in flats) if flats else "none"))
    lines.append(
        f"flat {payload['is_flat']}  tight {payload['is_tight']}"
        f"  degenerate {payload['is_degenerate']}")
    return lines


def _rotation_lines(payload, rank):
    lines = [
        f"rotation group, order {payload['order']}"
        f"  flags {payload['flags']}",
        f"chiral: {'yes' if payload['is_chiral'] else 'no (regular)'}",
        f"vertices {payload['vertices']}  facets {payload['facets']}",
        f"smallest regular cover: {payload['mixed_cover_flags']} flags",
    ]
    if (b := payload["bound_check"]) is not None:
        lines.append(
            f"flag bound for rank {rank} {payload['facet_kind']}/"
            f"{payload['vf_kind']}: {b['minimum_flags']}"
            f" <= {b['flags']}: {'ok' if b['ok'] else 'VIOLATED'}")
    lines.extend(_verdict_lines(payload, "string C+-group"))
    return lines


def _build(pres, max_cosets):
    """A string group or a rotation group, by the presentation's kind."""
    build = (build_string_group if pres.kind == REFLECTION
             else build_rotation_group)
    return build(pres, max_cosets)


def _report(group):
    """The payload and text lines of ``analyze``, for either class."""
    if group.kind == REFLECTION:
        payload = analyze(group).to_json()
        lines = _reflection_lines(payload)
    else:
        payload = chiral_report(group)
        lines = _rotation_lines(payload, group.rank)
    if payload["audit_violations"]:
        lines.append("AUDIT: " + ", ".join(payload["audit_violations"]))
    return payload, lines


def _answer(args, payload, lines):
    """Print the report, as JSON or as lines, and return the exit code:
    0 when it is clean (no audit violation; the intersection condition,
    string C-group or C+-group for rotation input, and the flag bound
    hold), else 1."""
    if args.json:
        print(json.dumps(payload, indent=2))
    else:
        print("\n".join(lines))
    bound = payload.get("bound_check")
    clean = (payload["c_group"] and not payload["audit_violations"]
             and (bound is None or bound["ok"]))
    return 0 if clean else 1


def cmd_analyze(args):
    try:
        text = Path(args.file).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise PresentationError(
            f"not UTF-8: byte {exc.object[exc.start]:#04x}"
            f" at offset {exc.start}") from None
    pres = parse_presentation(text)
    return _answer(args, *_report(_build(pres, args.max_cosets)))


def _parse_param(token):
    if token == "inf":
        return None
    try:
        return int(token)
    except ValueError:
        return token


def _parse_section(token):
    family, _, rest = token.partition(":")
    params = tuple(_parse_param(t) for t in rest.split(",") if t)
    return FamilySpec(family, params)


def _parse_family(family, raw_params):
    if family == "amalgam":
        return FamilySpec("amalgam",
                          sections=tuple(_parse_section(t)
                                         for t in raw_params))
    return FamilySpec(family, tuple(_parse_param(t) for t in raw_params))


def cmd_construct(args):
    """Build and report a family member.  Every builder but the amalgam's
    raises unless its order meets its closed form, so one that returns
    has passed that certificate and the order is printed as both."""
    spec = _parse_family(args.family, args.params)
    kind = TORUS_FAMILIES.get(spec.family)
    if kind is not None and not is_regular_torus(*spec.params):
        # chiral parameters: the rotation group, with half the flags
        group = rotation_torus_map(kind, *spec.params, args.max_cosets)
    else:
        group = build_family(spec, args.max_cosets)
    payload, lines = _report(group)
    payload["family"] = spec.to_json()
    order = group.order
    if spec.family == "amalgam":
        lines.insert(0, f"order {order} (no closed form)")
    else:
        payload["certificate"] = {"expected_order": order, "order": order,
                                  "ok": True}
        lines.insert(0, f"order certificate: expected {order},"
                        f" computed {order}, ok")
    return _answer(args, payload, lines)


def _parse_rank_range(text, default):
    if text is None:
        return default
    lo, sep, hi = text.partition("..")
    try:
        lo, hi = int(lo), int(hi if sep else lo)
    except ValueError:
        raise ValueError(f"bad rank range {text!r}; use N or A..B") from None
    if lo > hi:
        raise ValueError(f"reversed rank range {text!r}; use A..B with"
                         " A <= B")
    return lo, hi


def _verify_table2(args, results):
    lo, hi = _parse_rank_range(args.rank, (3, 6))
    for rank in range(lo, hi + 1):
        for which in (1, 2, 3, 4):
            bound = min_nonflat_flags(rank, which)
            witness = table2_witness(rank, which, args.max_cosets)
            label = f"table2 rank {rank} #{which}"
            ok, order = True, None
            if witness is None:
                tag = "exact" if bound.exact else "lower bound"
                print(f"{label}: {'' if bound.exact else '>= '}"
                      f"{bound.value} ({tag}, value-only) ok")
            else:
                report, order = analyze(witness), witness.order
                good_count = (order == bound.value if bound.exact
                              else order >= bound.value)
                ok = bool(report.c_group and not report.is_flat
                          and good_count)
                print(f"{label}: {bound.value} witness order {order}"
                      f" non-flat {not report.is_flat}"
                      f" {'ok' if ok else 'FAIL'}")
            results.append({"cell": [rank, which], "flags": bound.value,
                            "exact": bound.exact, "witness": order,
                            "ok": ok})


# numeric flag-count cells: (rank, facet kind, vertex-figure kind,
# value, attained)
_TABLE3_CELLS = (
    (3, "regular", "regular", 40, True),
    (4, "chiral", "chiral", 240, True),
    (4, "chiral", "regular", 240, True),
    (4, "regular", "regular", 384, True),
    (5, "chiral", "chiral", 1440, True),
    (5, "chiral", "regular", 4004, False),
    (5, "regular", "regular", 4004, False),
    (6, "chiral", "chiral", 18432, True),
    (6, "chiral", "regular", 18432, False),
    (6, "regular", "regular", 23040, False),
    (7, "chiral", "chiral", 55296, False),
    (7, "chiral", "regular", 69120, False),
    (7, "regular", "regular", 188160, False),
    (8, "chiral", "chiral", 207360, False),
    (8, "chiral", "regular", 564480, False),
    (8, "regular", "regular", 1720320, False),
)


def _corpus_reports(args, wanted):
    """Each corpus entry whose presentation ``wanted`` accepts, built and
    reported: (name, group, payload, sidecar)."""
    for name in corpus.corpus_names():
        pres, expected = corpus.load_entry(name)
        if wanted(pres):
            group = _build(pres, args.max_cosets)
            yield name, group, _report(group)[0], expected


def _verify_table3(args, results):
    lo, hi = _parse_rank_range(args.rank, (3, 16))
    for rank, fk, vk, value, attained in _TABLE3_CELLS:
        if not lo <= rank <= hi:
            continue
        bound = chiral_lower_bound(rank, fk, vk)
        ok = bound.value == value and bound.exact == attained
        results.append({"rank": rank, "facet": fk, "vertex_figure": vk,
                        "flags": value, "exact": attained, "ok": ok})
        print(f"table3 rank {rank} {fk[0]}{vk[0]}:"
              f" {'' if attained else '>= '}{value}"
              f" {'ok' if ok else 'FAIL'}")
    chain = range(max(8, lo), min(16, hi) + 1)  # the closed forms' ranks
    for n in chain:
        cc = chiral_lower_bound(n, "chiral", "chiral").value
        cr = chiral_lower_bound(n, "chiral", "regular").value
        rr = chiral_lower_bound(n, "regular", "regular").value
        results.append({"rank": n, "chain": [cc, cr, rr],
                        "ok": cc < cr < rr})
    if chain:
        held = all(r["ok"] for r in results[-len(chain):])
        print(f"table3 bound ordering cc < cr < rr for ranks"
              f" {chain[0]}..{chain[-1]}: {'ok' if held else 'FAIL'}")
    for name, _, payload, expected in _corpus_reports(
            args, lambda p: p.kind != REFLECTION and lo <= p.rank <= hi):
        check = payload["bound_check"]
        if check is None:  # a regular rotation group has no chiral bound
            continue
        flags, bound = check["flags"], check["minimum_flags"]
        ok = check["ok"] and not _sidecar_disagreements(payload, expected)
        results.append({"witness": name, "flags": flags,
                        "bound": bound, "ok": ok})
        print(f"table3 witness {name}: {flags} flags"
              f" >= bound {bound} {'ok' if ok else 'FAIL'}")


def _sidecar_disagreements(payload, expected):
    """The verdict and section kinds where the computed report and the
    corpus sidecar differ; the sidecar is an oracle, never an input."""
    return [f"sidecar_{key}_disagrees"
            for key in ("c_group", "facet_kind", "vf_kind")
            if key in payload and payload[key] != expected[key]]


def _verify_props(args, results):
    lo, hi = _parse_rank_range(args.rank, (0, sys.maxsize))
    for name, group, payload, expected in _corpus_reports(
            args, lambda p: lo <= p.rank <= hi):
        violations = payload["audit_violations"]
        # equal witnesses mean equal verdicts: a failure always has one
        oracle = intersection_condition_exhaustive(group).witness
        if payload.get("c_group_witness") != (oracle and oracle.rank_sets()):
            violations.append("exhaustive_oracle_disagrees")
        violations += _sidecar_disagreements(payload, expected)
        ok = not violations
        results.append({"entry": name, "violations": violations, "ok": ok})
        print(f"props {name}: "
              + ("ok" if ok else "VIOLATIONS " + ", ".join(violations)))


def cmd_verify(args):
    results = []
    runner = {"table2": _verify_table2, "table3": _verify_table3,
              "props": _verify_props}[args.suite]
    runner(args, results)
    failures = sum(not r["ok"] for r in results)
    print(f"{args.suite}: {len(results)} checks, {failures} failures")
    if args.json:
        print(json.dumps({"suite": args.suite, "results": results,
                          "failures": failures}, indent=2))
    if not results:
        print(f"error: {args.suite} --rank {args.rank} selects no checks",
              file=sys.stderr)
        return 1
    return 1 if failures else 0


def _coset_cap(raw, source):
    """The coset cap written as raw in source (the flag or the
    environment variable): an integer of at least 1."""
    try:
        cap = int(raw)
    except ValueError:
        raise ValueError(f"{source} is not an integer: {raw!r}") from None
    if cap < 1:
        raise ValueError(f"{source} must be at least 1, got {cap}")
    return cap


class _Parser(argparse.ArgumentParser):
    """Bad arguments raise ValueError, so main reports them with exit 1
    like any other usage error; subparsers inherit the class."""

    def error(self, message):
        raise ValueError(message)


@functools.cache
def build_parser():
    """The command-line parser, built once and never changed: its
    --max-cosets default is None, and main resolves the cap."""
    parser = _Parser(
        prog="polyflag",
        description="regular and chiral polytope analysis from group "
                    "presentations")
    parser.add_argument("--max-cosets",
                        help=f"enumeration size limit (env {ENV_MAX_COSETS})")
    parser.add_argument("--json", action="store_true",
                        help="emit a JSON report")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="analyze a presentation file")
    p.add_argument("file")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("construct", help="build and analyze a family "
                       "member")
    p.add_argument("family", help=" | ".join(FAMILIES))
    p.add_argument("params", nargs="*",
                   help="periods, (b,c), a name, or two family:p,q "
                        "section specs")
    p.set_defaults(func=cmd_construct)

    p = sub.add_parser("verify", help="run a verification suite")
    p.add_argument("suite", choices=("table2", "table3", "props"))
    p.add_argument("--rank", help="N or A..B")
    p.set_defaults(func=cmd_verify)
    return parser


def main(argv=None):
    try:
        args = build_parser().parse_args(argv)
        if args.max_cosets is None:
            raw = os.environ.get(ENV_MAX_COSETS, DEFAULT_MAX_COSETS)
            args.max_cosets = _coset_cap(raw, ENV_MAX_COSETS)
        else:
            args.max_cosets = _coset_cap(args.max_cosets, "--max-cosets")
        return args.func(args)
    except PresentationError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 3
    except CosetLimitExceeded as exc:
        print(f"enumeration limit: {exc}", file=sys.stderr)
        return 2
    except (SggiViolation, CertificateMismatch, AmalgamCollapse,
            RotationViolation, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except InternalError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
