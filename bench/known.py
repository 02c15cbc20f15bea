"""Known answers for every verdict the benchmark checks.

Nothing here calls into ``itermem``: counts are literal tables or closed
formulas, and the remaining answers (Euler characteristic of a base
complex, set-cover optimum) are computed by this file's own brute force,
so a wrong library result can never agree with itself.
"""

from __future__ import annotations

from itertools import combinations
from math import factorial

# Facets one round of each read discipline produces per input facet, keyed
# by (pattern, number of colors): ordered Bell numbers for iis (the
# chromatic subdivision), comparable chains for ias, acyclic misses
# digraphs for ic.  An r-round complex on F facets has F * k**r facets.
ROUND_FACETS = {
    ("iis", 3): 13,
    ("iis", 4): 75,
    ("ias", 3): 19,
    ("ias", 4): 207,
    ("ic", 3): 25,
    ("ic", 4): 543,
}

# f-vectors the README CLI tour prints.  The README labels
# ``gen simplex --n 3`` "2-simplex, 3 colors" and promises 12,24,13 from the
# export, but --n is the dimension: --n 3 builds the 3-simplex, whose
# subdivision exports 32,132,176,75.  One tour job checks the README's
# figures with --n 2, another pins what --n 3 really builds.
TOUR_CH_D2_FVECTOR = "12,24,13"
TOUR_CH_D3_FVECTOR = "32,132,176,75"

# Exit codes of the ``itermem`` CLI (README: 0 success/verified).
EXIT_OK = 0


def expected_facets(pattern: str, n_colors: int, base_facets: int, rounds: int) -> int:
    return base_facets * ROUND_FACETS[(pattern, n_colors)] ** rounds


def euler_characteristic(facets) -> int:
    """Alternating face count of the complex generated by ``facets``."""
    faces = set()
    for f in facets:
        vids = sorted(f)
        for k in range(1, len(vids) + 1):
            faces.update(combinations(vids, k))
    return sum((-1) ** (len(s) - 1) for s in faces)


def set_cover_optimum(universe, subsets) -> int:
    """Fewest subsets whose union is the universe (instances are feasible)."""
    universe = frozenset(universe)
    for k in range(1, len(subsets) + 1):
        for combo in combinations(subsets, k):
            if frozenset().union(*combo) >= universe:
                return k
    raise ValueError("instance has no cover")


def formula_lower_bound(n: int, r: int, b: int) -> float:
    """Counting bound (n!)^(r-1) * 2^(n-b); r itself for two processes."""
    if n == 2:
        return float(r)
    return float(factorial(n)) ** (r - 1) * 2.0 ** (n - b)


class WrongVerdict(Exception):
    """A job's result differs from its known answer; the message is the witness."""


def expect(job_id: str, what: str, expected, actual) -> None:
    if expected != actual:
        raise WrongVerdict(f"{job_id}: {what}: expected {expected!r}, got {actual!r}")

