"""Small families of input complexes used throughout tests and the CLI."""

from __future__ import annotations

import random

from .complexes import ChromaticComplex, Simplex, Vertex, build_complex
from .errors import InvalidParameters


def gen_simplex(n: int) -> ChromaticComplex:
    """The n-simplex: one facet on n+1 vertices, vertex i colored i."""
    if n < 0:
        raise InvalidParameters("dimension must be >= 0")
    return build_complex([[(i, f"s{i}") for i in range(n + 1)]])


def gen_glued(k: int) -> ChromaticComplex:
    """k triangles sharing the edge {p1, p2}.

    Apexes carry color 0; p1 (color 1) and p2 (color 2) are shared.  Vids
    run first-seen: a1=0, p1=1, p2=2, then a2=3, a3=4, ...  k = 2 is the
    standard two-triangles-on-an-edge complex.
    """
    if k < 1:
        raise InvalidParameters("need at least one triangle")
    return build_complex(
        [[(0, f"a{i + 1}"), (1, "p1"), (2, "p2")] for i in range(k)]
    )


def gen_path(m: int) -> ChromaticComplex:
    """A strip of m triangles; triangle j uses vertices j, j+1, j+2, vertex i colored i mod 3."""
    if m < 1:
        raise InvalidParameters("need at least one triangle")
    return build_complex(
        [[((j + t) % 3, f"v{j + t}") for t in range(3)] for j in range(m)]
    )


def gen_random(seed: int, n_colors: int, n_facets: int) -> ChromaticComplex:
    """A random pure chromatic complex on n_colors colors with ~n_facets facets.

    Facets are rainbow on colors 0..n_colors-1 (dimension n_colors-1).  Each
    new facet reuses each color's vertex from a previously built facet with
    probability 1/2, otherwise introduces a fresh vertex, so the result is
    connected by construction.
    """
    if n_colors < 1 or n_facets < 1:
        raise InvalidParameters("need n_colors >= 1 and n_facets >= 1")
    rng = random.Random(seed)
    vertices: dict[int, Vertex] = {}
    by_color: dict[int, list[int]] = {c: [] for c in range(n_colors)}
    facets: list[Simplex] = []

    def fresh(color: int) -> int:
        vid = len(vertices)
        vertices[vid] = Vertex(vid, color, f"r{vid}")
        by_color[color].append(vid)
        return vid

    for _ in range(n_facets):
        vids = []
        for color in range(n_colors):
            if by_color[color] and rng.random() < 0.5:
                vids.append(rng.choice(by_color[color]))
            else:
                vids.append(fresh(color))
        facets.append(Simplex(vids))
    return ChromaticComplex(vertices, facets)
