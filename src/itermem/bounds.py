"""Round-complexity bounds for emulating r full-information iterations.

For n processes, 2^n - 1 distinct process states per color per iteration
must flow through b-bit registers; the paper's counting bound
(n!)^(r-1) * 2^(n-b) multiplies across iterations.  Two processes are
special: the rounds per iteration are a constant, 1 or 3, read from the
register model of `encoding` (`bounds_table` gives the proof).

The counting bound is reported as "paper counting bound", not as a lower
bound: compiles this library verifies isomorphic to full-information
collect use fewer rounds.  `iterate_pipeline(gen_simplex(2), 3, 3)` takes
10 rounds over all three iterations, where the formula gives 36.
Which assumption differs here is open; one candidate is the model, since
`decode` resolves a code against the reader's whole neighborhood in the
current complex.  The proven lower bound is the degree bound
(`lower_bound_rounds`), and `degree_growth_table` gives the exact
max-degree that bound reads on Ch^r of a simplex, r = 1, 2, ...
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import factorial, lgamma, log, log10
from sys import float_info

from .complexes import ChromaticComplex
from .encoding import _code_count, lower_bound_rounds
from .errors import InvalidParameters, ResourceLimit
from .generators import gen_simplex
from .protocols import iterate_subdivide


@dataclass(frozen=True)
class BoundsReport:
    """Formula bounds, plus the degree lower bound when a complex is given."""

    n: int
    r: int
    b: int
    lower_formula: float | int | Fraction
    degree_lower: int | None = None
    measured_rounds: int | None = None

    def rows(self) -> list[tuple[str, object]]:
        out: list[tuple[str, object]] = [
            ("processes", self.n),
            ("iterations", self.r),
            ("bits", self.b),
            ("paper counting bound", _shown(self.lower_formula)),
        ]
        if self.n == 2:
            one_round = self.r == 1 or _code_count(self.b, 2) >= 2
            out.append(("two-process round complexity", 1 if one_round else 3))
        if self.degree_lower is not None:
            out.append(("degree lower bound", self.degree_lower))
        if self.measured_rounds is not None:
            out.append(("measured rounds", self.measured_rounds))
        return out


def _shown(x: float | int | Fraction) -> float | str:
    """A float as it is; an exact value as 17 significant digits (truncated)."""
    if isinstance(x, float):
        return x
    num, den = x.numerator, x.denominator
    e = int((num.bit_length() - den.bit_length()) * log10(2)) - 18
    digits = str(num * 10 ** max(-e, 0) // (den * 10 ** max(e, 0)))
    return f"{digits[0]}.{digits[1:17]}e{e + len(digits) - 1:+d}"


def bounds_table(
    n: int,
    r: int,
    b: int,
    c: ChromaticComplex | None = None,
    measured_rounds: int | None = None,
) -> BoundsReport:
    """Counting bound for (n, r, b); the degree lower bound when c is supplied.

    n = 2 short-circuits: the formula bound is the iteration count itself,
    and `rows` adds the rounds per iteration, exact under `verify_cover`
    and the register model of `encoding` (`_code_count(b, 2)` codes).
    Iteration k > 1 compiles IC^(k-1) of an edge, a path of 3^(k-1) >= 3
    edges e_0, e_1, ... whose vertices alternate colors.  With one code, a
    coded path vertex whose two neighbors are coded reads two rivals
    coded alike, so one round codes only edges whose indices differ by at
    least 3: e_0, e_1, e_2 need three rounds, and the three rounds of the
    edges e_i with i = j (mod 3) pass `verify_cover`.  Two codes cover a
    path in one round as 1, 1, 2, 2, 1, 1, ...  The first iteration codes
    the one input edge in one round.  So the row is 1 when r = 1 or a
    register holds two codes, and 3 otherwise.

    For n > 2 the bound is computed exactly (ResourceLimit over 2^22 bits)
    and reported as the float nearest to it when that is a normal float.
    Past the normal floats (far above them, or below them when b is far
    above n) it stays exact, a Fraction when b > n, and `rows` shows it in
    scientific notation.  A negative `measured_rounds` raises
    InvalidParameters.
    """
    if n < 2:
        raise InvalidParameters("need at least two processes")
    if r < 1 or b < 1:
        raise InvalidParameters("need r >= 1 and b >= 1")
    if measured_rounds is not None and measured_rounds < 0:
        raise InvalidParameters("need measured rounds >= 0")
    if n == 2:
        lower = float(r)
    else:
        if (r - 1) * lgamma(n + 1) / log(2) + abs(n - b) > 1 << 22:
            raise ResourceLimit(f"counting bound for n={n}, r={r}, b={b} has over 2^22 bits")
        top = factorial(n) ** (r - 1)
        lower = top * 2 ** (n - b) if b <= n else Fraction(top, 2 ** (b - n))
        if float_info.min <= lower <= float_info.max:
            lower = float(lower)  # rounded once, to nearest
    degree_lower = lower_bound_rounds(c, b) if c is not None else None
    return BoundsReport(
        n=n,
        r=r,
        b=b,
        lower_formula=lower,
        degree_lower=degree_lower,
        measured_rounds=measured_rounds,
    )


@dataclass(frozen=True)
class GrowthRow:
    r: int
    max_degree: int
    ratio: float  # max_degree divided by the previous row's (r=1 row: vs the base simplex)


def degree_growth_table(n: int, r_max: int) -> list[GrowthRow]:
    """Exact max-degree of Ch^r of the n-simplex for r = 1..r_max."""
    if n < 1 or r_max < 2:
        raise InvalidParameters("need n >= 1 and r_max >= 2")
    cur = gen_simplex(n)
    prev = cur.max_degree()
    rows: list[GrowthRow] = []
    for r in range(1, r_max + 1):
        cur = iterate_subdivide(cur, 1)
        deg = cur.max_degree()
        rows.append(GrowthRow(r, deg, deg / prev))
        prev = deg
    return rows
