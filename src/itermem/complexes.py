"""Chromatic simplicial complexes with facet-based storage.

A complex is stored as a vertex table (vid -> Vertex) plus its set of
facets (maximal simplices).  Faces are derived on demand.  Every
vertex carries a color; a facet may not repeat a color.  Instances are
treated as immutable: all operations return new complexes.

`StateRegistry` only keys process states, one vid per distinct (color,
payload) state over a base complex.  Rounds are built from it in one
place, `protocols._emit_round`.

A complex sorts its facets at most once: `ChromaticComplex.rows` lists
each facet as an ascending vid tuple, the tuples ascending, and is cached
beside the adjacency and rival caches, at about 70-80 bytes per facet once
built.  JSON export formats it; the round emitter, the packer
(`greedy._first_fit`) and the exact set-cover search walk it; `f_vector`
counts from it when it is cached, and otherwise sorts each facet on its
own without building it; and an import whose rows are already in this
order keeps them as the table (`io.complex_from_dict`).

The public calls that allocate per facet or per state run with CPython's
cyclic garbage collector paused (`gc_paused`): `protocol_complex`,
`one_round` (so also `iterate_subdivide`), `check_intersection_preserving`
(whose registries are built inside the pause), `bounded_protocol_complex`, `iterate_pipeline`, `import_complex`,
`export_complex`, `ChromaticComplex.f_vector`, `is_isomorphic`,
`schedule_oracle` and `cli.main`.  Their frozensets, tuples and `Vertex`es form no reference
cycles, so the collector, which would otherwise rescan them by the
hundred thousand, finds nothing to free: reference counting already frees
all they drop, and the pause changes no result and leaks nothing.  (The
JSON documents `cli.main` writes are laid out by `cli._json_text`, not by
the standard library's indenting encoder, whose closures would leave a
cycle per call.)  The pause is process-wide, so cyclic collections that
other threads would trigger wait until the call returns.
"""

from __future__ import annotations

import functools
import gc
import itertools
from dataclasses import dataclass
from itertools import chain, combinations, repeat
from operator import attrgetter
from typing import Callable, Hashable, Iterable, TypeVar

from .errors import (
    DanglingVertexReference,
    DuplicateColorInFacet,
    FacetContainment,
    IncompatibleVertexSpaces,
    NotAFacet,
    SimplexNotInComplex,
    VertexNotInComplex,
)

Simplex = frozenset  # frozenset[int] of vids

DEFAULT_MAX_FACETS = 10**6

_F = TypeVar("_F", bound=Callable)


def gc_paused(fn: _F) -> _F:
    """`fn`, run with the cyclic garbage collector paused (module docstring).

    The wrapper disables an enabled collector and enables it again when `fn`
    returns or raises.  A collector the caller disabled is left alone, so
    nested paused calls re-enable it only at the outermost one.
    """

    @functools.wraps(fn)
    def paused(*args, **kwargs):
        if not gc.isenabled():
            return fn(*args, **kwargs)
        gc.disable()
        try:
            return fn(*args, **kwargs)
        finally:
            gc.enable()

    return paused


@dataclass(frozen=True)
class Vertex:
    """An abstract vertex: identity, color, and an arbitrary hashable label."""

    vid: int
    color: int
    label: Hashable = None


class StateRegistry:
    """One vid per distinct (color, payload) process state over a base complex.

    The state with payload ``frozenset({v})`` for a base vid v (the view of
    a process that saw only itself) is v, with v's vertex; every other state
    gets a fresh vid above the base's largest, labelled (color, sorted
    payload) for set payloads.  Share one registry between calls to build
    several subcomplexes of the base into one vid space.

    The registry only keys states: fresh vids follow the order of first
    requests, and `protocols._emit_round`, the one round emitter, is the
    one place that requests them and builds a round from them (see its
    docstring for the order and for why the result needs no check).  A
    subclass may key states differently by overriding `get`:
    `simulator._Observations` keys each view by what it observes.
    """

    def __init__(self, base: "ChromaticComplex"):
        self._next = max(base.vertices, default=-1) + 1
        self._ids: dict[tuple[int, Hashable], int] = {
            (v.color, frozenset({vid})): vid for vid, v in base.vertices.items()
        }
        self.vertices: dict[int, Vertex] = dict(base.vertices)

    def get(self, color: int, payload: Hashable) -> int:
        key = (color, payload)
        vid = self._ids.get(key)
        if vid is None:
            vid = self._ids[key] = self._next
            self._next += 1
            if isinstance(payload, frozenset):
                payload = tuple(sorted(payload))
            self.vertices[vid] = Vertex(vid, color, (color, payload))
        return vid


_vid = attrgetter("vid")
_color = attrgetter("color")


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


class ChromaticComplex:
    """A finite chromatic simplicial complex.

    ``vertices`` maps vid -> Vertex for every vid referenced by a facet.
    ``facets`` is the set of maximal simplices.  The empty complex (no
    vertices, no facets) is allowed.
    """

    __slots__ = ("vertices", "facets", "_adjacency", "_rivals", "_rows")

    def __init__(self, vertices: dict[int, Vertex], facets: Iterable[Simplex]):
        # every check runs in C-level loops (map, set.union); a Python loop
        # runs only to name the first offender once a check has failed
        facet_set = frozenset(filter(None, map(Simplex, facets)))
        used: set[int] = set().union(*facet_set)
        if not vertices.keys() >= used:
            for vid in used:
                if vid not in vertices:
                    raise DanglingVertexReference(f"facet references unknown vid {vid}")
        # keep only referenced vertices so equality is structural
        table = dict(zip(used, map(vertices.__getitem__, used)))
        if list(map(_vid, table.values())) != list(table):
            for vid, v in table.items():
                if v.vid != vid:
                    raise DanglingVertexReference(f"vertex table key {vid} != vid {v.vid}")
        color = dict(zip(table, map(_color, table.values())))
        sizes = list(map(len, facet_set))
        if list(map(len, map(set, map(map, repeat(color.__getitem__), facet_set)))) != sizes:
            for f in facet_set:
                if len(set(map(color.__getitem__, f))) != len(f):
                    raise DuplicateColorInFacet(f"facet {sorted(f)} repeats a color")
        # facets of one size are never nested
        if len(set(sizes)) > 1:
            nested = facet_set - _maximal(facet_set)
            if nested:
                least = sorted(min(nested, key=lambda s: (len(s), sorted(s))))
                raise FacetContainment(f"facet {least} is contained in another facet")
        self.vertices: dict[int, Vertex] = table
        self.facets: frozenset[Simplex] = facet_set
        self._adjacency: dict[int, tuple[int, ...]] | None = None
        self._rivals: dict[int, tuple[int, ...]] | None = None
        self._rows: tuple[tuple[int, ...], ...] | None = None

    @classmethod
    def _unchecked(
        cls, vertices: dict[int, Vertex], facets: frozenset[Simplex]
    ) -> "ChromaticComplex":
        """A complex of nonempty maximal chromatic `facets` and exactly the
        vertices they reference, taken as given (`protocols._emit_round`)."""
        c = cls.__new__(cls)
        c.vertices, c.facets = vertices, facets
        c._adjacency = c._rivals = c._rows = None
        return c

    # -- basic queries ---------------------------------------------------

    @property
    def dimension(self) -> int:
        """Dimension of the largest facet; -1 for the empty complex."""
        return max(map(len, self.facets), default=0) - 1

    def colors(self) -> frozenset[int]:
        return frozenset(v.color for v in self.vertices.values())

    def faces(self) -> frozenset[Simplex]:
        """All nonempty faces, computed from the facets on each call."""
        out: set[Simplex] = set()
        for f in self.facets:
            vids = sorted(f)
            for k in range(1, len(vids) + 1):
                out.update(Simplex(c) for c in itertools.combinations(vids, k))
        return frozenset(out)

    def has_face(self, s: Iterable[int]) -> bool:
        s = Simplex(s)
        return any(s <= f for f in self.facets)

    def rows(self) -> tuple[tuple[int, ...], ...]:
        """The facets as ascending vid tuples, the tuples ascending (cached).

        The one canonical facet order, sorted at most once per complex:
        export writes it, `f_vector` counts faces from it once it exists,
        and the round emitter and the packers walk facets in it.  Tuples
        order as the lists ``sorted(c.facets, key=sorted)`` orders, so it
        is the order that numbers fresh vids.
        """
        if self._rows is None:
            self._rows = tuple(sorted(map(tuple, map(sorted, self.facets))))
        return self._rows

    def adjacency(self) -> dict[int, tuple[int, ...]]:
        """vid -> ascending neighbor vids in the 1-skeleton (cached).

        Tuples, not sets: the cache lives as long as the complex, and a
        tuple of a handful of vids takes about a quarter of a frozenset's
        memory.
        """
        if self._adjacency is None:
            adj: dict[int, set[int]] = {vid: set() for vid in self.vertices}
            for f in self.facets:
                for a, b in itertools.combinations(f, 2):
                    adj[a].add(b)
                    adj[b].add(a)
            self._adjacency = {vid: tuple(sorted(s)) for vid, s in adj.items()}
        return self._adjacency

    def rivals(self) -> dict[int, tuple[int, ...]]:
        """vid -> ascending same-color two-hop rivals (cached).

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
            self._rivals = of
        return self._rivals

    def degree(self, vid: int) -> int:
        """Number of distinct neighbors of vid in the 1-skeleton."""
        if vid not in self.vertices:
            raise VertexNotInComplex(f"vid {vid}")
        return len(self.adjacency()[vid])

    def max_degree(self) -> int:
        return max((len(s) for s in self.adjacency().values()), default=0)

    @gc_paused
    def f_vector(self) -> tuple[int, ...]:
        """(f_0, f_1, ..., f_dim); empty tuple for the empty complex.

        The ends need no enumeration: every vertex lies in a facet, so f_0
        is the vertex count, and a face of the largest size is a facet.
        Faces of each size in between are counted as the k-subsets of the
        facets' ascending vid lists, one size at a time in one C-level pass,
        so each face is an ascending vid tuple; no face is built as a
        Simplex, and `faces()` is not called.  Counting needs each facet
        ascending, not the facets in order, so the row table is read when
        it is cached and not built for the count: a complex is often
        counted and dropped.
        """
        if not self.facets:
            return ()
        sizes = list(map(len, self.facets))
        top = max(sizes)
        counts = [len(self.vertices)]
        rows = (self._rows or list(map(sorted, self.facets))) if top > 2 else ()
        for k in range(2, top):
            counts.append(len(set(chain.from_iterable(map(combinations, rows, repeat(k))))))
        if top > 1:
            counts.append(sizes.count(top))
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
        """Intersection of two complexes over a shared vid space.

        Its facets are the maximal nonempty f & g over facets f here and g
        of other.  Other's facets are indexed by vertex, so each f meets
        only the g that share a vertex with it: a disjoint pair gives the
        empty simplex, which `_maximal` drops anyway.
        """
        for vid in self.vertices.keys() & other.vertices.keys():
            if self.vertices[vid] != other.vertices[vid]:
                raise IncompatibleVertexSpaces(f"vid {vid} has conflicting vertex data")
        through: dict[int, list[Simplex]] = {}
        for g in other.facets:
            for v in g:
                through.setdefault(v, []).append(g)
        # a pair that shares k vertices is met k times; _maximal keeps one
        common = (f & g for f in self.facets for v in f for g in through.get(v, ()))
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
