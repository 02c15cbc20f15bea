"""Round-complexity bounds for emulating r full-information iterations.

For n processes, 2^n - 1 distinct process states per color per iteration
must flow through b-bit registers; the paper's counting bound
(n!)^(r-1) * 2^(n-b) multiplies across iterations.  Two processes are
special: one bit distinguishes the two states a neighbor can hold, so the
per-iteration cost is constant.

The counting bound is reported as "paper counting bound", not as a lower
bound: compiles this library verifies isomorphic to full-information
collect use fewer rounds.  `iterate_pipeline(gen_simplex(2), 3, 3)` takes
10 rounds over all three iterations, where the formula gives 36.
Which assumption differs here is open; one candidate is the model, since
`decode` resolves a code against the reader's whole neighborhood in the
current complex.  The proven lower bound is the degree bound
(`lower_bound_rounds`).
"""

from __future__ import annotations

from dataclasses import dataclass
from math import factorial

from .complexes import ChromaticComplex
from .encoding import lower_bound_rounds
from .errors import InvalidParameters


@dataclass(frozen=True)
class BoundsReport:
    """Formula bounds, plus the degree lower bound when a complex is given."""

    n: int
    r: int
    b: int
    lower_formula: float
    two_process: bool
    degree_lower: int | None = None
    measured_rounds: int | None = None

    def rows(self) -> list[tuple[str, object]]:
        out: list[tuple[str, object]] = [
            ("processes", self.n),
            ("iterations", self.r),
            ("bits", self.b),
            ("paper counting bound", self.lower_formula),
        ]
        if self.two_process:
            out.append(("two-process round complexity", 1))
        if self.degree_lower is not None:
            out.append(("degree lower bound", self.degree_lower))
        if self.measured_rounds is not None:
            out.append(("measured rounds", self.measured_rounds))
        return out


def bounds_table(
    n: int,
    r: int,
    b: int,
    c: ChromaticComplex | None = None,
    measured_rounds: int | None = None,
) -> BoundsReport:
    """Counting bound for (n, r, b); the degree lower bound when c is supplied.

    n = 2 short-circuits: each iteration costs one round regardless of b,
    so the formula bound is reported as the iteration count itself.
    """
    if n < 2:
        raise InvalidParameters("need at least two processes")
    if r < 1 or b < 1:
        raise InvalidParameters("need r >= 1 and b >= 1")
    if n == 2:
        lower = float(r)
    else:
        lower = float(factorial(n)) ** (r - 1) * 2.0 ** (n - b)
    degree_lower = lower_bound_rounds(c, b) if c is not None else None
    return BoundsReport(
        n=n,
        r=r,
        b=b,
        lower_formula=lower,
        two_process=(n == 2),
        degree_lower=degree_lower,
        measured_rounds=measured_rounds,
    )
