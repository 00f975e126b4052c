"""Seeded inputs for the three workloads, and the closed forms that check them.

Nothing here imports polyflag: the inputs and the oracles are independent of
the code under test.  The same seed always yields the same inputs.
"""

from __future__ import annotations

import itertools
import math
import random
from pathlib import Path

HERE = Path(__file__).resolve().parent
SWEEP_EXPECTED = HERE / "sweep_expected.json"

# Coset limit handed to the CLI on the sweep.  Small, so that divergent
# candidates fail fast; they still take most of the time of a pass.
SWEEP_CAP = 2000


# ---------------------------------------------------------------------------
# closed forms

def coxeter_order(symbol):
    """Order of the string Coxeter group [p1,...,pk], or None if infinite.

    The finite string types are A_n, B_n, F_4, H_3, H_4 and I_2(p); every
    other string symbol is infinite.
    """
    s = tuple(symbol)
    rank = len(s) + 1
    if rank == 1:
        return 2
    if rank == 2:
        return 2 * s[0]
    if all(p == 3 for p in s):
        return math.factorial(rank + 1)
    threes = (3,) * (rank - 2)
    if s in ((4,) + threes, threes + (4,)):
        return 2 ** rank * math.factorial(rank)
    return {(3, 4, 3): 1152, (3, 5): 120, (5, 3): 120,
            (3, 3, 5): 14400, (5, 3, 3): 14400}.get(s)


def extension_order(symbol):
    """Order of the central simplex extension with entries in {3, 6}:
    (p1...pk / 3^k) (k+2)!."""
    k = len(symbol)
    return math.prod(symbol) * math.factorial(k + 2) // 3 ** k


def f_vector_closed(symbol, order_of):
    """Face counts of a regular polytope from the orders of its parabolics.

    The i-face stabilizer is the direct product of the parabolics on
    r0..r(i-1) and r(i+1)..r(n-1), which commute and meet trivially in a
    string C-group, so f_i = |G| / (|G_<i| |G_>i|).
    """
    n = len(symbol) + 1

    def order(rank, sym):
        return 1 if rank == 0 else order_of(sym)

    whole = order_of(symbol)
    return tuple(
        whole // (order(i, symbol[:max(i - 1, 0)])
                  * order(n - 1 - i, symbol[i + 1:]))
        for i in range(n))


def torus_facts(kind, b, c):
    """Closed forms for the chiral torus map {4,4}_(b,c) or {3,6}_(b,c):
    rotation order, vertices, faces and mixed regular cover flags.  The
    cover formula holds for coprime (b, c) with N odd ({4,4}) or 3 not
    dividing N ({3,6})."""
    if kind == "44":
        n = b * b + c * c
        return {"order": 4 * n, "vertices": n, "facets": n,
                "mixed_cover_flags": 8 * n * n}
    n = b * b + b * c + c * c
    return {"order": 6 * n, "vertices": n, "facets": 2 * n,
            "mixed_cover_flags": 12 * n * n}


# rotation-338, the smallest chiral 4-polytope with regular facets and
# vertex-figures: it meets the rank-4 regular/regular flag bound of 384.
ROTATION_338 = {"order": 192, "vertices": 4, "facets": 16,
                "mixed_cover_flags": 768}


# ---------------------------------------------------------------------------
# reflection-ladder

def _coxeter_text(symbol):
    return (f"rank {len(symbol) + 1}\nkind reflection\n"
            f"schlafli {' '.join(map(str, symbol))}\n")


# (label, presentation text or corpus entry name, symbol, family)
LADDER = (
    ("coxeter-3-3-5", _coxeter_text((3, 3, 5)), (3, 3, 5), "coxeter"),
    ("coxeter-4-3-3-3-3", _coxeter_text((4, 3, 3, 3, 3)), (4, 3, 3, 3, 3),
     "coxeter"),
    ("cube-5", "corpus:cube-5", (4, 3, 3, 3), "coxeter"),
    ("lambda-6-3-3-3", "corpus:lambda-6-3-3-3", (6, 3, 3, 3), "extension"),
    ("lambda-6-6-3-3", "corpus:lambda-6-6-3-3", (6, 6, 3, 3), "extension"),
)


def ladder_inputs(seed):
    """The fixed ladder in a seeded order."""
    jobs = list(LADDER)
    random.Random(seed).shuffle(jobs)
    return jobs


# ---------------------------------------------------------------------------
# chiral-cover

# Geometric ladder of target rotation orders.  Each target gets one {4,4}
# and one {3,6} torus whose order lies within 2.5% of it.  The seed picks
# the handedness of each torus and, where several sizes or tori fit, which
# one; the narrow window keeps the cost of a pass nearly the same.
CHIRAL_TARGETS = (114, 260, 394, 580, 884, 1300, 1800)
CHIRAL_WINDOW = 0.025


def chiral_candidates():
    """Chiral tori whose mixed-cover formula holds, with their orders."""
    out = []
    for b in range(1, 40):
        for c in range(1, 40):
            if b == c or math.gcd(b, c) != 1:
                continue
            n44 = b * b + c * c
            if n44 % 2:
                out.append(("44", b, c, 4 * n44))
            n36 = b * b + b * c + c * c
            if n36 % 3:
                out.append(("36", b, c, 6 * n36))
    return out


def chiral_inputs(seed):
    rng = random.Random(seed)
    candidates = chiral_candidates()
    jobs = []
    for target in CHIRAL_TARGETS:
        for kind in ("44", "36"):
            near = [(k, b, c) for k, b, c, order in candidates
                    if k == kind
                    and abs(order - target) <= CHIRAL_WINDOW * target]
            if not near:
                raise ValueError(f"no {kind} torus within reach of {target}")
            jobs.append(rng.choice(sorted(near)))
    rng.shuffle(jobs)
    return jobs


# ---------------------------------------------------------------------------
# sweep

def sweep_pool():
    """The candidate family a classification sweep draws from: string
    reflection presentations of rank 3 and 4 with entries in 3..8, bare or
    with one extra relator (Petrie polygon or hole length)."""
    pool = []
    for sym in itertools.product(range(3, 9), repeat=2):
        pool.append((sym, None))
        pool.extend((sym, f"(r0 r1 r2)^{k}") for k in range(3, 9))
        pool.extend((sym, f"(r0 r1 r2 r1)^{k}") for k in range(2, 7))
    for sym in itertools.product(range(3, 9), repeat=3):
        pool.append((sym, None))
        pool.extend((sym, f"(r0 r1 r2 r3)^{k}") for k in (4, 6, 8))
        pool.extend((sym, f"(r0 r1 r2)^{k}") for k in (3, 5, 7))
    return pool


def sweep_key(sym, rel):
    return " ".join(map(str, sym)) + (f" | {rel}" if rel else "")


def sweep_text(sym, rel):
    text = _coxeter_text(sym)
    return text + (f"rel {rel}\n" if rel else "")


# Per-pass draw from each stratum of (rank, relator kind, outcome class),
# where the class is the recorded one: "fin" finished under the cap when
# sweep_expected.json was written, "lim" hit the cap.  Fixed counts per
# stratum keep the cost of a pass nearly the same from seed to seed, and
# drawing most of each "fin" stratum keeps the median job inside the dense
# part of the fast jobs rather than at the edge of their tail.
SWEEP_PER_STRATUM = {"fin": 80, "lim": 20}

# Malformed presentation files; each must exit 3 with a parse error.
MALFORMED = (
    "rank 3\nkind reflection\nschlafli {p} x\n",
    "rank 3\nkind reflection\nschlafli {p} {q}\nrel (r0 r1 r2^{p}\n",
    "rank 3\nkind reflection\nschlafli {p} {q}\nrel r0 r{p}\n",
    "kind reflection\nschlafli {p} {q}\n",
    "rank 3\nkind reflexion\nschlafli {p} {q}\n",
    "rank 3\nkind reflection\nschlafli {p} 1\n",
    "rank 3\nkind reflection\nschlafli {p} {q}\nrel r0 r0-\n",
    "rank 4\nkind reflection\nschlafli {p} {q}\n",
    "rank 3\nkind reflection\nschlafli {p} {q}\nrel (r0 r1)^0\n",
    "rank 3\nkind reflection\nmirror r{p}\n",
)
MALFORMED_PER_PASS = 6


def sweep_inputs(seed, expected):
    """Seeded jobs: (key, text, malformed) triples in run order."""
    rng = random.Random(seed)
    strata = {}
    for sym, rel in sweep_pool():
        key = sweep_key(sym, rel)
        kind = rel.split("^")[0] if rel else "none"
        cls = "lim" if expected[key]["exit"] == 2 else "fin"
        strata.setdefault((len(sym) + 1, kind, cls), []).append(
            (key, sweep_text(sym, rel), False))
    jobs = []
    for (_, _, cls), members in sorted(strata.items()):
        jobs.extend(rng.sample(members,
                               min(len(members), SWEEP_PER_STRATUM[cls])))
    for i, template in enumerate(rng.sample(MALFORMED, MALFORMED_PER_PASS)):
        text = template.format(p=rng.randint(3, 8), q=rng.randint(3, 8))
        jobs.append((f"malformed-{i}", text, True))
    rng.shuffle(jobs)
    return jobs
