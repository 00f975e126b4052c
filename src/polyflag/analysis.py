"""Flag-level analytics on string C-groups and rotation groups.

Face counts, flatness, tightness and the related counting bounds all
reduce to subgroup index computations, because the i-faces of a regular
or chiral polytope correspond to cosets of the stabilizer of the base
i-face: for a string group the parabolic omitting the i-th generator.
Counts, flatness and tightness take either group class.  A polytope is
(k,m)-flat when every k-face is incident to every m-face, which in group
terms says the face stabilizers satisfy Gamma_m Gamma_k = Gamma; we
decide that with the product formula
|A B| = |A||B| / |A cap B| on cached element sets rather than by
touching any coset table.

The counting bounds at the bottom of the module are theorems about
non-flat regular polytopes.  Auditing them against a computed report can
never fire on a correct implementation, which is exactly what makes them
useful as test oracles.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace

from .stringc import is_string_c_group


@dataclass(frozen=True)
class FlagBound:
    """A flag-count bound; exact means attained, not just a lower bound.
    upper, when known, is the flag count of the smallest known example
    above a non-exact bound."""

    value: int
    exact: bool
    upper: int | None = None


@dataclass(frozen=True)
class AnalysisReport:
    rank: int
    order: int
    flag_count: int
    schlafli: tuple
    f_vector: tuple
    c_group: bool
    c_group_witness: object
    flat_pairs: tuple
    is_flat: bool
    is_tight: bool
    is_degenerate: bool
    audit_violations: tuple

    def to_json(self):
        """Every field, tuples as lists, in field order; the witness
        comes last, as rank sets, and only when the verdict fails."""
        out = {f.name: _listed(getattr(self, f.name)) for f in fields(self)
               if f.name != "c_group_witness"}
        if not self.c_group:
            out["c_group_witness"] = self.c_group_witness.rank_sets()
        return out


def _listed(value):
    return [_listed(v) for v in value] if isinstance(value, tuple) else value


def f_vector(group):
    """Face counts by rank: entry i is the index of the stabilizer of the
    base i-face."""
    return tuple(group.order // len(group.face_stabilizer(i))
                 for i in range(group.rank))


def is_flat_km(group, k, m):
    """Every k-face incident to every m-face?  The product formula on
    the two face stabilizers, for a string or a rotation group."""
    n = group.rank
    if not 0 <= k < m <= n - 1:
        raise ValueError(f"need 0 <= k < m <= {n - 1}, got ({k}, {m})")
    a, b = group.face_stabilizer(m), group.face_stabilizer(k)
    return len(a) * len(b) == group.order * len(a & b)


def flatness_spectrum(group):
    n = group.rank
    return tuple((k, m) for k in range(n - 1) for m in range(k + 1, n)
                 if is_flat_km(group, k, m))


def is_flat(group):
    """Flat means every vertex is incident to every facet; any other
    flat pair implies this one."""
    if group.rank < 2:
        return False
    return is_flat_km(group, 0, group.rank - 1)


def is_tight(group):
    """As few flags as the Schlafli symbol allows: 2 p_1 ... p_{n-1}."""
    return group.flag_count() == 2 * math.prod(group.schlafli_symbol())


def is_degenerate(group):
    return 2 in group.schlafli_symbol()


def covering_exists(cover_pres, target):
    """Does sending generators to generators define a homomorphism onto
    the target group?  True exactly when every relator of the proposed
    cover is trivial in the target; for string C-groups this witnesses
    a covering of the corresponding polytopes.  Presentations of another
    kind than the target's class, or of another rank, never qualify; the
    target needs no presentation of its own, so a section works too.
    """
    if cover_pres.kind != target.kind or cover_pres.rank != target.rank:
        return False
    return all(target.is_trivial(w) for w in cover_pres.relators)


def audit_counting_propositions(report):
    """Check the non-flat counting theorems against a computed report.

    Returns the names of any violated bounds.  On a verified string
    C-group the result is provably empty, so a non-empty result flags an
    implementation bug, not a mathematical discovery.
    """
    violations = []
    n = report.rank
    if n < 2:
        return violations
    sym = report.schlafli
    vertices = report.f_vector[0]
    facets = report.f_vector[-1]
    flats = set(report.flat_pairs)
    if not report.is_flat:
        if n >= 3 and vertices < sym[0] + n - 2:
            violations.append("nonflat_vertex_bound")
        if n >= 3 and facets < sym[-1] + n - 2:
            violations.append("nonflat_facet_bound")
        if vertices < n + 1 or facets < n + 1:
            violations.append("nonflat_min_counts")
        if report.flag_count < math.factorial(n + 1):
            violations.append("nonflat_min_flags")
    if n >= 3 and vertices <= sym[0] + n - 3:
        m = vertices + 2 - sym[0]
        if 1 <= m <= n - 1 and (0, m) not in flats:
            violations.append("few_vertices_flat")
    if 2 <= vertices <= n and (0, vertices - 1) not in flats:
        violations.append("very_few_vertices_flat")
    return violations


def analyze(group):
    """Full report on a string or a rotation group: counts,
    intersection-condition verdict, flatness spectrum, tightness, and
    the counting-proposition audit."""
    verdict = is_string_c_group(group)
    flats = flatness_spectrum(group)
    report = AnalysisReport(
        rank=group.rank,
        order=group.order,
        flag_count=group.flag_count(),
        schlafli=group.schlafli_symbol(),
        f_vector=f_vector(group),
        c_group=verdict.ok,
        c_group_witness=verdict.witness,
        flat_pairs=flats,
        is_flat=(0, group.rank - 1) in flats,
        is_tight=is_tight(group),
        is_degenerate=is_degenerate(group),
        audit_violations=(),
    )
    if verdict.ok:
        report = replace(
            report,
            audit_violations=tuple(audit_counting_propositions(report)))
    return report


_THIRD_SMALLEST = {3: 60, 4: 384}
_FOURTH_SMALLEST = {3: 64, 4: 480, 5: 3840}


def min_nonflat_flags(n, which):
    """Flag count of the which-th smallest non-flat regular n-polytope.

    The first is the simplex with (n+1)! flags, the second has 2(n+1)!.
    The third and fourth have sporadic small-rank values; the fourth is
    only bounded below when n >= 6, which the result records as
    exact=False.
    """
    if n < 3:
        raise ValueError(f"rank must be at least 3, got {n}")
    if which == 1:
        return FlagBound(math.factorial(n + 1), True)
    if which == 2:
        return FlagBound(2 * math.factorial(n + 1), True)
    if which == 3:
        if n in _THIRD_SMALLEST:
            return FlagBound(_THIRD_SMALLEST[n], True)
        return FlagBound(4 * math.factorial(n + 1), True)
    if which == 4:
        if n in _FOURTH_SMALLEST:
            return FlagBound(_FOURTH_SMALLEST[n], True)
        return FlagBound(16 * math.factorial(n + 1) // 3, False)
    raise ValueError(f"which must be 1..4, got {which}")
