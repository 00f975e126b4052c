"""Test-side helpers that the library itself does not need."""


def standardize(table):
    """The table's columns renumbered in standard form: a breadth-first
    walk from coset 0 that reads each coset's images column by column,
    numbering cosets as first seen (sympy's ``CosetTable.standardize``).
    Two complete tables of the same action standardize equally exactly
    when they differ by a renumbering that keeps coset 0."""
    cols = table.columns
    new = [-1] * len(cols[0])
    new[0] = 0
    seen = [0]
    for c in seen:  # the list grows while it is walked
        for col in cols:
            d = col[c]
            if new[d] < 0:
                new[d] = len(seen)
                seen.append(d)
    return tuple(tuple(new[col[c]] for c in seen) for col in cols)
