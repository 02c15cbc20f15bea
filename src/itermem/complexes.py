"""Chromatic simplicial complexes with facet-based storage.

A complex is stored as a vertex table (vid -> Vertex) plus its set of
facets (maximal simplices).  Faces are derived lazily and cached.  Every
vertex carries a color; a facet may not repeat a color.  Instances are
treated as immutable: all operations return new complexes.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Hashable, Iterable, Iterator, NamedTuple

from .errors import (
    DanglingVertexReference,
    DuplicateColorInFacet,
    FacetContainment,
    IncompatibleVertexSpaces,
    NotAFacet,
    NotASubcomplex,
    SimplexNotInComplex,
    VertexNotInComplex,
)

Simplex = frozenset  # frozenset[int] of vids

DEFAULT_MAX_FACETS = 10**6


@dataclass(frozen=True)
class Vertex:
    """An abstract vertex: identity, color, and an arbitrary hashable label."""

    vid: int
    color: int
    label: Hashable = None


def _maximal(simplices: Iterable[Simplex]) -> frozenset[Simplex]:
    """Drop empty simplices and every simplex contained in another one.

    Distinct simplices of one size are never nested, so a family of one
    size comes back as it is.  Otherwise simplices are kept largest first,
    each compared only with the kept simplices through one of its vertices:
    a superset passes through all of them.
    """
    family = frozenset(s for s in simplices if s)
    if len({len(s) for s in family}) <= 1:
        return family
    through: dict[int, list[Simplex]] = {}
    out: list[Simplex] = []
    for s in sorted(family, key=len, reverse=True):
        if not any(s < t for t in through.get(next(iter(s)), ())):
            out.append(s)
            for v in s:
                through.setdefault(v, []).append(s)
    return frozenset(out)


class Rivals(NamedTuple):
    """Same-color two-hop rivals: ``of[v]`` and the vertices with none."""

    of: dict[int, tuple[int, ...]]
    lonely: frozenset[int]


class ChromaticComplex:
    """A finite chromatic simplicial complex.

    ``vertices`` maps vid -> Vertex for every vid referenced by a facet.
    ``facets`` is the set of maximal simplices.  The empty complex (no
    vertices, no facets) is allowed.
    """

    __slots__ = ("vertices", "facets", "_faces", "_adjacency", "_rivals")

    def __init__(self, vertices: dict[int, Vertex], facets: Iterable[Simplex]):
        facet_set = frozenset(Simplex(f) for f in facets if f)
        used: set[int] = set()
        for f in facet_set:
            used |= f
        for vid in used:
            if vid not in vertices:
                raise DanglingVertexReference(f"facet references unknown vid {vid}")
        # keep only referenced vertices so equality is structural
        table = {vid: vertices[vid] for vid in used}
        for vid, v in table.items():
            if v.vid != vid:
                raise DanglingVertexReference(f"vertex table key {vid} != vid {v.vid}")
        for f in facet_set:
            colors = [table[vid].color for vid in f]
            if len(set(colors)) != len(colors):
                raise DuplicateColorInFacet(f"facet {sorted(f)} repeats a color")
        nested = facet_set - _maximal(facet_set)
        if nested:
            least = sorted(min(nested, key=lambda s: (len(s), sorted(s))))
            raise FacetContainment(f"facet {least} is contained in another facet")
        self.vertices: dict[int, Vertex] = table
        self.facets: frozenset[Simplex] = facet_set
        self._faces: frozenset[Simplex] | None = None
        self._adjacency: dict[int, frozenset[int]] | None = None
        self._rivals: Rivals | None = None

    # -- basic queries ---------------------------------------------------

    @property
    def n_colors(self) -> int:
        return len({v.color for v in self.vertices.values()})

    @property
    def dimension(self) -> int:
        """Dimension of the largest facet; -1 for the empty complex."""
        return max((len(f) for f in self.facets), default=0) - 1

    def colors(self) -> frozenset[int]:
        return frozenset(v.color for v in self.vertices.values())

    def faces(self) -> frozenset[Simplex]:
        """All nonempty faces, computed from the facets and cached."""
        if self._faces is None:
            out: set[Simplex] = set()
            for f in self.facets:
                vids = sorted(f)
                for k in range(1, len(vids) + 1):
                    out.update(Simplex(c) for c in itertools.combinations(vids, k))
            self._faces = frozenset(out)
        return self._faces

    def has_face(self, s: Iterable[int]) -> bool:
        s = Simplex(s)
        return any(s <= f for f in self.facets)

    def adjacency(self) -> dict[int, frozenset[int]]:
        """vid -> set of neighbor vids in the 1-skeleton (cached)."""
        if self._adjacency is None:
            adj: dict[int, set[int]] = {vid: set() for vid in self.vertices}
            for f in self.facets:
                for a, b in itertools.combinations(f, 2):
                    adj[a].add(b)
                    adj[b].add(a)
            self._adjacency = {vid: frozenset(s) for vid, s in adj.items()}
        return self._adjacency

    def rivals(self) -> Rivals:
        """Same-color two-hop rivals of every vertex (cached).

        The rivals of v are the vertices x != v of v's color that are
        adjacent to a neighbor of v.  The relation is symmetric.
        """
        if self._rivals is None:
            adj = self.adjacency()
            color = {vid: v.color for vid, v in self.vertices.items()}
            of: dict[int, tuple[int, ...]] = {}
            for v, nbrs in adj.items():
                col = color[v]
                found = {x for u in nbrs for x in adj[u] if color[x] == col}
                found.discard(v)
                of[v] = tuple(sorted(found))
            lonely = frozenset(v for v, found in of.items() if not found)
            self._rivals = Rivals(of, lonely)
        return self._rivals

    def degree(self, vid: int) -> int:
        """Number of distinct neighbors of vid in the 1-skeleton."""
        if vid not in self.vertices:
            raise VertexNotInComplex(f"vid {vid}")
        return len(self.adjacency()[vid])

    def max_degree(self) -> int:
        return max((len(s) for s in self.adjacency().values()), default=0)

    def f_vector(self) -> tuple[int, ...]:
        """(f_0, f_1, ..., f_dim); empty tuple for the empty complex."""
        if not self.facets:
            return ()
        counts = [0] * (self.dimension + 1)
        for s in self.faces():
            counts[len(s) - 1] += 1
        return tuple(counts)

    def euler_characteristic(self) -> int:
        return sum((-1) ** i * f for i, f in enumerate(self.f_vector()))

    # -- subcomplex operations -------------------------------------------

    def star(self, s: Iterable[int]) -> "ChromaticComplex":
        """Closed star: the complex generated by all facets containing s."""
        s = Simplex(s)
        carrying = [f for f in self.facets if s <= f]
        if not carrying:
            raise SimplexNotInComplex(f"simplex {sorted(s)}")
        return ChromaticComplex(self.vertices, carrying)

    def link(self, vid: int) -> "ChromaticComplex":
        """Link of a vertex: delete vid from every facet of its star."""
        if vid not in self.vertices:
            raise VertexNotInComplex(f"vid {vid}")
        # facets of the star minus vid stay maximal among themselves:
        # F\{v} < G\{v} with v in both would force F < G.
        residues = [f - {vid} for f in self.facets if vid in f]
        return ChromaticComplex(self.vertices, [r for r in residues if r])

    def subcomplex(self, faces: Iterable[Iterable[int]]) -> "ChromaticComplex":
        """Complex generated by the given faces (each must be a face here)."""
        gen = [Simplex(s) for s in faces]
        for s in gen:
            if not self.has_face(s):
                raise SimplexNotInComplex(f"simplex {sorted(s)}")
        return ChromaticComplex(self.vertices, _maximal(gen))

    def is_subcomplex_of(self, ambient: "ChromaticComplex") -> bool:
        """True when every facet here is a face of ambient with matching vertex data."""
        for vid, v in self.vertices.items():
            if ambient.vertices.get(vid) != v:
                return False
        return all(ambient.has_face(f) for f in self.facets)

    def intersect(self, other: "ChromaticComplex") -> "ChromaticComplex":
        """Intersection of two complexes over a shared vid space."""
        for vid in self.vertices.keys() & other.vertices.keys():
            if self.vertices[vid] != other.vertices[vid]:
                raise IncompatibleVertexSpaces(f"vid {vid} has conflicting vertex data")
        common = (f & g for f in self.facets for g in other.facets)
        merged = dict(self.vertices)
        merged.update(other.vertices)
        return ChromaticComplex(merged, _maximal(common))

    # -- dunder ----------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ChromaticComplex):
            return NotImplemented
        return self.facets == other.facets and self.vertices == other.vertices

    def __hash__(self) -> int:
        return hash((self.facets, frozenset(self.vertices.items())))

    def __contains__(self, s: Iterable[int]) -> bool:
        return self.has_face(s)

    def __iter__(self) -> Iterator[Simplex]:
        return iter(self.facets)

    def __repr__(self) -> str:
        return (
            f"ChromaticComplex({len(self.vertices)} vertices, "
            f"{len(self.facets)} facets, dim {self.dimension})"
        )


def build_complex(facet_specs: Iterable[Iterable[tuple[int, Hashable]]]) -> ChromaticComplex:
    """Build a complex from facets given as (color, label) pairs.

    Vertices are identified across facets by their (color, label) pair and
    assigned dense vids in first-seen order.
    """
    ids: dict[tuple[int, Hashable], int] = {}
    vertices: dict[int, Vertex] = {}
    facets: list[Simplex] = []
    for spec in facet_specs:
        vids = []
        for color, label in spec:
            key = (color, label)
            if key not in ids:
                vid = len(ids)
                ids[key] = vid
                vertices[vid] = Vertex(vid, color, label)
            vids.append(ids[key])
        facets.append(Simplex(vids))
    # constructor rejects contained facets rather than silently reducing
    return ChromaticComplex(vertices, facets)


def assert_facet(c: ChromaticComplex, s: Iterable[int]) -> Simplex:
    """Return s as a Simplex if it is a facet of c, else raise."""
    s = Simplex(s)
    if s in c.facets:
        return s
    if c.has_face(s):
        raise NotAFacet(f"simplex {sorted(s)} is a proper face")
    raise SimplexNotInComplex(f"simplex {sorted(s)}")


def assert_subcomplex(sub: ChromaticComplex, ambient: ChromaticComplex) -> None:
    if not sub.is_subcomplex_of(ambient):
        raise NotASubcomplex("complex is not a subcomplex of the ambient complex")
