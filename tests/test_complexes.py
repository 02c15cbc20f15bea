"""
Unit tests for the chromatic complex core.

Core claims:
    - Facet-generated closure: faces, f-vector, Euler characteristic; the
      f-vector counts faces() by size, also on complexes that are not pure
    - Validation rejects duplicate colors, contained facets, dangling vids
    - _maximal agrees with the pairwise antichain definition, and the
      constructor rejects exactly the families it would reduce
    - Star and link are correct on the two-triangle complex
    - |faces(closed star)| = 2 |faces(link)| + 1 (cone duality)
    - intersect works on a shared vid space and rejects conflicting spaces,
      also two rounds whose registries give one vid two states
    - intersect, which meets each facet only with the facets sharing one of
      its vertices, equals the pairwise definition (every facet pair met,
      maximal results kept) on sampled subcomplexes and their rounds over
      one registry, disjoint and one-vertex pairs included
    - build_complex identifies vertices by (color, label)
    - Degree, adjacency, containment, equality behave on small fixtures
    - Cached rivals are the same-color vertices two hops away; a vertex
      without any maps to an empty tuple
    - gc_paused runs its call with the cyclic collector off and turns it
      back on when the call returns or raises (ResourceLimit, AmbiguousDecode),
      leaves a collector the caller disabled off, and re-enables nested calls
      only at the outermost; no collection runs inside any paused entry
      point, and each leaves no cyclic garbage, so the pause loses nothing
    - Every module of the package imports alone in a fresh interpreter
    - The cached row table is each facet as an ascending vid tuple, the
      tuples ascending, on complexes from the constructor, build_complex,
      star, link, subcomplex, intersect, every protocol pattern,
      iterate_subdivide, bounded_protocol_complex and imports of canonical
      and shuffled documents; on each, f_vector equals the faces() count
      before and after the table exists, and export equals the stdlib
      layout of complex_to_dict
"""

import gc
import inspect
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import itermem
from itermem import (
    PATTERNS,
    AmbiguousDecode,
    ChromaticComplex,
    DanglingVertexReference,
    DuplicateColorInFacet,
    FacetContainment,
    IncompatibleVertexSpaces,
    InvalidParameters,
    NotAFacet,
    ResourceLimit,
    Simplex,
    SimplexNotInComplex,
    Vertex,
    VertexNotInComplex,
    assert_facet,
    bounded_protocol_complex,
    build_complex,
    check_intersection_preserving,
    cli,
    code_collision_counterexample,
    export_complex,
    gen_glued,
    gen_path,
    gen_random,
    gen_simplex,
    greedy_star,
    import_complex,
    is_isomorphic,
    iterate_pipeline,
    iterate_subdivide,
    protocol_complex,
    split_to_budget,
)
from itermem.complexes import StateRegistry, _maximal, gc_paused
from itermem.io import complex_to_dict
from itermem.protocols import one_round, schedule_oracle, subcomplex_sample

# vids in gen_glued(2): a1=0, p1=1, p2=2, a2=3
A1, P1, P2, A2 = 0, 1, 2, 3


def _triangle():
    return gen_simplex(2)


def _glued():
    return gen_glued(2)


class TestConstruction:
    def test_triangle_counts(self):
        c = _triangle()
        assert len(c.vertices) == 3
        assert len(c.facets) == 1
        assert c.dimension == 2
        assert c.f_vector() == (3, 3, 1)
        assert len(c.faces()) == 7

    def test_edge_f_vector(self):
        assert gen_simplex(1).f_vector() == (2, 1)

    def test_empty_complex(self):
        c = ChromaticComplex({}, [])
        assert c.f_vector() == ()
        assert c.dimension == -1
        assert c.faces() == frozenset()

    def test_duplicate_color_rejected(self):
        vs = {0: Vertex(0, 0), 1: Vertex(1, 0)}
        with pytest.raises(DuplicateColorInFacet):
            ChromaticComplex(vs, [Simplex({0, 1})])

    def test_contained_facet_rejected(self):
        vs = {0: Vertex(0, 0), 1: Vertex(1, 1), 2: Vertex(2, 2)}
        with pytest.raises(FacetContainment):
            ChromaticComplex(vs, [Simplex({0, 1, 2}), Simplex({0, 1})])

    @given(
        st.lists(st.frozensets(st.integers(0, 7), max_size=4), max_size=12)
    )
    def test_maximal_matches_pairwise_definition(self, fam):
        # the pairwise definition of an antichain, as the reference
        reference = {s for s in fam if s and not any(s < t for t in fam)}
        assert _maximal(fam) == reference
        vs = {v: Vertex(v, v) for v in range(8)}
        if reference == {s for s in fam if s}:
            assert ChromaticComplex(vs, fam).facets == reference
        else:
            with pytest.raises(FacetContainment):
                ChromaticComplex(vs, fam)

    @given(
        st.lists(st.frozensets(st.integers(0, 7), max_size=5), max_size=10)
    )
    def test_f_vector_counts_faces(self, fam):
        c = ChromaticComplex({v: Vertex(v, v) for v in range(8)}, _maximal(fam))
        sizes = [len(s) for s in c.faces()]
        assert c.f_vector() == tuple(sizes.count(k) for k in range(1, c.dimension + 2))

    def test_dangling_vid_rejected(self):
        with pytest.raises(DanglingVertexReference):
            ChromaticComplex({0: Vertex(0, 0)}, [Simplex({0, 7})])

    def test_vertex_table_key_must_be_its_vid(self):
        vs = {0: Vertex(0, 0), 1: Vertex(5, 1)}
        with pytest.raises(DanglingVertexReference, match="vertex table key 1 != vid 5"):
            ChromaticComplex(vs, [Simplex({0, 1})])

    @pytest.mark.parametrize(
        "make, message",
        [
            (lambda: gen_simplex(-1), "dimension must be >= 0"),
            (lambda: gen_glued(0), "need at least one triangle"),
            (lambda: gen_path(0), "need at least one triangle"),
            (lambda: gen_random(0, 0, 1), "need n_colors >= 1 and n_facets >= 1"),
        ],
        ids=["simplex", "glued", "path", "random"],
    )
    def test_generators_refuse_empty_sizes(self, make, message):
        with pytest.raises(InvalidParameters, match=message):
            make()

    def test_unreferenced_vertices_trimmed(self):
        vs = {0: Vertex(0, 0), 1: Vertex(1, 1), 9: Vertex(9, 2)}
        c = ChromaticComplex(vs, [Simplex({0, 1})])
        assert set(c.vertices) == {0, 1}

    def test_build_complex_identifies_by_color_label(self):
        c = build_complex([[(0, "x"), (1, "y")], [(0, "x"), (1, "z")]])
        assert len(c.vertices) == 3  # (0,"x") shared
        assert len(c.facets) == 2


class TestQueries:
    def test_glued_shape(self):
        c = _glued()
        assert len(c.vertices) == 4
        assert len(c.facets) == 2
        assert len(c.faces()) == 11
        assert c.f_vector() == (4, 5, 2)

    def test_degrees(self):
        c = _glued()
        assert c.degree(P1) == 3
        assert c.degree(A1) == 2
        assert c.max_degree() == 3
        with pytest.raises(VertexNotInComplex):
            c.degree(99)

    def test_adjacency_symmetric(self):
        c = gen_path(4)
        adj = c.adjacency()
        for v, nbrs in adj.items():
            assert all(v in adj[w] for w in nbrs)

    def test_rivals(self):
        c = _glued()
        rivals = c.rivals()
        assert rivals == {A1: (A2,), A2: (A1,), P1: (), P2: ()}
        assert c.rivals() is rivals  # cached with the complex

    def test_rivals_match_two_hop_definition(self):
        c = gen_path(6)
        adj = c.adjacency()
        for v, rivals in c.rivals().items():
            assert set(rivals) == {
                x
                for x in c.vertices
                if x != v
                and c.vertices[x].color == c.vertices[v].color
                and any(x in adj[u] for u in adj[v])
            }

    def test_has_face(self):
        c = _glued()
        assert c.has_face({A1, P1})
        assert not c.has_face({A1, A2})

    def test_euler_of_disk(self):
        assert _glued().euler_characteristic() == 1

    def test_colors(self):
        assert _glued().colors() == frozenset({0, 1, 2})


class TestStarLink:
    def test_star_of_shared_edge(self):
        c = _glued()
        st = c.star({P1, P2})
        assert st.facets == c.facets  # both triangles contain the edge

    def test_star_of_apex(self):
        c = _glued()
        st = c.star({A1})
        assert st.facets == frozenset({Simplex({A1, P1, P2})})

    def test_star_missing_simplex(self):
        with pytest.raises(SimplexNotInComplex):
            _glued().star({A1, A2})

    def test_link_of_shared_vertex_is_path(self):
        lk = _glued().link(P1)
        assert set(lk.vertices) == {A1, P2, A2}
        assert lk.facets == frozenset({Simplex({A1, P2}), Simplex({A2, P2})})

    def test_link_of_apex_is_edge(self):
        lk = _glued().link(A1)
        assert lk.facets == frozenset({Simplex({P1, P2})})

    def test_link_of_unknown_vid(self):
        with pytest.raises(VertexNotInComplex, match="vid 99"):
            _glued().link(99)

    def test_cone_duality(self):
        # closed star = vertex * link, so faces split as: link faces,
        # link faces joined with the vertex, and the vertex itself
        c = _glued()
        for v in c.vertices:
            st, lk = c.star({v}), c.link(v)
            assert len(st.faces()) == 2 * len(lk.faces()) + 1


class TestSubcomplexes:
    def test_subcomplex_and_containment(self):
        c = _glued()
        sub = c.subcomplex([[A1, P1, P2]])
        assert sub.is_subcomplex_of(c)
        assert not c.is_subcomplex_of(sub)

    def test_subcomplex_ignores_empty_face(self):
        sub = _glued().subcomplex([[], [A1, P1]])
        assert sub.facets == frozenset({Simplex({A1, P1})})

    def test_subcomplex_foreign_face_rejected(self):
        with pytest.raises(SimplexNotInComplex):
            _glued().subcomplex([[A1, A2]])

    def test_intersect_glued_triangles(self):
        c = _glued()
        a = c.subcomplex([[A1, P1, P2]])
        b = c.subcomplex([[A2, P1, P2]])
        inter = a.intersect(b)
        assert inter.facets == frozenset({Simplex({P1, P2})})

    def test_intersect_conflicting_spaces(self):
        x = build_complex([[(0, "x"), (1, "y")]])
        y = build_complex([[(2, "z"), (1, "w")]])  # vid 0 has color 2 here
        with pytest.raises(IncompatibleVertexSpaces):
            x.intersect(y)

    def test_intersect_rounds_over_two_registries_conflict(self):
        # each registry numbers the states of its own round from vid 4 on,
        # so vid 4 stands for two different states
        c = _glued()
        a, b = c.subcomplex([[A1, P1, P2]]), c.subcomplex([[A2, P1, P2]])
        xa = one_round(a, "ic", StateRegistry(c))
        xb = one_round(b, "ic", StateRegistry(c))
        assert xa.vertices[4] != xb.vertices[4]
        with pytest.raises(IncompatibleVertexSpaces, match="vid 4"):
            xa.intersect(xb)

    def test_assert_facet(self):
        c = _glued()
        assert assert_facet(c, {A1, P1, P2}) == Simplex({A1, P1, P2})
        with pytest.raises(NotAFacet):
            assert_facet(c, {P1, P2})  # a face but not maximal
        with pytest.raises(SimplexNotInComplex):
            assert_facet(c, {A1, A2})

    def test_equality_and_hash(self):
        a, b = _glued(), _glued()
        assert a == b
        assert hash(a) == hash(b)
        assert a != _triangle()
        assert (a == a.facets) is False


# -- the row table ----------------------------------------------------------------


def _built(c, how: str, draw):
    """c put through one of the ways the library builds a complex."""
    if how == "constructor":
        return ChromaticComplex(dict(c.vertices), draw(st.permutations(list(c.facets))))
    if how == "build_complex":
        specs = [[(c.vertices[v].color, v) for v in f] for f in c.facets]
        return build_complex(draw(st.permutations(specs)))
    if how == "star":
        return c.star([draw(st.sampled_from(sorted(c.vertices)))])
    if how == "link":
        return c.link(draw(st.sampled_from(sorted(c.vertices))))
    if how == "subcomplex":
        faces = sorted(map(sorted, c.faces()))
        return c.subcomplex(draw(st.lists(st.sampled_from(faces), min_size=1, max_size=4)))
    if how == "intersect":
        registry = StateRegistry(c)
        ends = (min(c.vertices), max(c.vertices))
        a, b = (one_round(c.star([v]), "ic", registry) for v in ends)
        return a.intersect(b)
    if how in PATTERNS:
        # two rounds only on a few triangles: IC² of a tetrahedron has 294,849 facets
        small = c.dimension < 3 and len(c.facets) < 4
        return protocol_complex(c, how, draw(st.integers(1, 2)) if small else 1)
    if how == "iterate_subdivide":
        return iterate_subdivide(c, 1)
    if how == "bounded_protocol_complex":
        seq = split_to_budget(greedy_star(c)[0], c, draw(st.integers(1, 3)))
        return bounded_protocol_complex(c, seq)
    canonical = json.loads(export_complex(c, "json"))
    if how == "import":
        return import_complex(json.dumps(canonical))
    # a valid document that export would not write: rows shuffled, and
    # each row's vids too
    rows = draw(st.permutations(canonical["facets"]))
    canonical["facets"] = [draw(st.permutations(row)) for row in rows]
    return import_complex(json.dumps(canonical))


_BUILDS = (
    "constructor",
    "build_complex",
    "star",
    "link",
    "subcomplex",
    "intersect",
    *sorted(PATTERNS),
    "iterate_subdivide",
    "bounded_protocol_complex",
    "import",
    "import_shuffled",
)


class TestRowTable:
    """`rows` is each facet as an ascending vid tuple, the tuples ascending,
    however the complex was built; export and `f_vector` agree with their
    definitions whether the table was read from a cache or not."""

    @settings(max_examples=120, deadline=None)
    @given(st.data(), st.sampled_from(_BUILDS))
    def test_rows_equal_reference_on_every_build(self, data, how):
        base = data.draw(
            st.builds(gen_random, st.integers(0, 10**6), st.integers(1, 4), st.integers(1, 5))
            | st.sampled_from([gen_glued(2), gen_path(3), gen_simplex(3)])
        )
        c = _built(base, how, data.draw)
        fresh = c.f_vector()  # counted before any row table exists, for most builds
        rows = c.rows()
        assert rows == tuple(sorted(tuple(sorted(f)) for f in c.facets))
        assert c.rows() is rows  # sorted once per complex
        sizes = [len(s) for s in c.faces()]
        assert c.f_vector() == fresh == tuple(sizes.count(k) for k in range(1, c.dimension + 2))
        reference = json.dumps(complex_to_dict(c), indent=2, sort_keys=True) + "\n"
        assert export_complex(c, "json") == reference.encode()

    def test_empty_complex(self):
        c = ChromaticComplex({}, [])
        assert c.rows() == ()
        assert import_complex(export_complex(c, "json")).rows() == ()


# -- intersect through its vertex index -----------------------------------------


def _pairwise_meet(a, b):
    """intersect's facets by definition: every facet of a met with every
    facet of b, maximal nonempty results kept."""
    return _maximal(f & g for f in a.facets for g in b.facets)


# strip 0 = {0,1,2}, 2 = {2,3,4} and 3 = {3,4,5} of gen_path(4): 0 and 2
# share only vertex 2, and 0 and 3 share nothing
_PATH = gen_path(4)
_MEET_BASES = [_glued(), gen_glued(3), _PATH, gen_random(5, 3, 5), gen_random(8, 4, 3)]


def _assert_meets_as_pairwise(a, b):
    got = a.intersect(b)
    assert got.facets == _pairwise_meet(a, b)
    assert got == b.intersect(a)
    used = set().union(*got.facets)
    assert got.vertices == {v: a.vertices.get(v, b.vertices.get(v)) for v in used}
    return got


class TestIntersectIndex:
    # builds rounds: this example took 352 ms on a 2-core machine
    @settings(deadline=None)
    @example(which=4, pattern="ic", seed=693)
    @given(
        st.sampled_from(range(len(_MEET_BASES))),
        st.sampled_from(sorted(itermem.PATTERNS)),
        st.integers(0, 2**32 - 1),
    )
    def test_equals_pairwise_definition(self, which, pattern, seed):
        # sampled subcomplexes and their rounds, all over one registry
        c = _MEET_BASES[which]
        rng = random.Random(seed)
        reg = StateRegistry(c)
        a, b = subcomplex_sample(c, rng), subcomplex_sample(c, rng)
        _assert_meets_as_pairwise(a, b)
        xa, xb = one_round(a, pattern, reg), one_round(b, pattern, reg)
        _assert_meets_as_pairwise(xa, xb)

    @pytest.mark.parametrize("pattern", sorted(itermem.PATTERNS))
    @pytest.mark.parametrize(
        "faces, meet",
        [
            (([[0, 1, 2]], [[3, 4, 5]]), set()),
            (([[0, 1, 2]], [[2, 3, 4]]), {frozenset({2})}),
            (([[0, 1, 2], [3, 4, 5]], [[2, 3, 4]]), {frozenset({2}), frozenset({3, 4})}),
        ],
        ids=["disjoint", "one-vertex", "vertex-and-edge"],
    )
    def test_disjoint_and_one_vertex_pairs(self, pattern, faces, meet):
        reg = StateRegistry(_PATH)
        a, b = (_PATH.subcomplex(f) for f in faces)
        assert _assert_meets_as_pairwise(a, b).facets == meet
        xa, xb = one_round(a, pattern, reg), one_round(b, pattern, reg)
        # a shared input vertex stays the vid of its solo view in both rounds
        got = _assert_meets_as_pairwise(xa, xb)
        assert got == one_round(a.intersect(b), pattern, reg)


# -- the paused collector ------------------------------------------------


@pytest.fixture
def collector_on():
    """The collector on, as an unconfigured process has it, then as it was."""
    was = gc.isenabled()
    gc.enable()
    yield
    if not was:
        gc.disable()


@gc_paused
def _probe(inner=None):
    """gc.isenabled() inside a paused call, after an optional nested call."""
    if inner is not None:
        inner()
    return gc.isenabled()


class TestGcPaused:
    def test_paused_inside_and_on_again_after(self, collector_on):
        assert _probe() is False
        assert gc.isenabled()

    def test_on_again_after_a_raise(self, collector_on):
        with pytest.raises(ResourceLimit):
            protocol_complex(gen_simplex(3), "ic", 1, max_facets=10)
        assert gc.isenabled()
        c, seq, _evidence = code_collision_counterexample()
        with pytest.raises(AmbiguousDecode):
            bounded_protocol_complex(c, seq)
        assert gc.isenabled()

    def test_a_collector_the_caller_disabled_stays_off(self, collector_on):
        gc.disable()
        assert _probe() is False
        protocol_complex(gen_simplex(2), "iis", 1)
        assert not gc.isenabled()

    def test_nested_calls_re_enable_only_at_the_outermost(self, collector_on):
        inner = []
        assert _probe(lambda: inner.append(_probe())) is False
        assert inner == [False]
        assert gc.isenabled()


def _entry_points(tmp_path):
    """One small call per paused entry point, by name."""
    d2 = gen_simplex(2)
    ic = protocol_complex(d2, "ic", 1)
    seq = split_to_budget(greedy_star(ic)[0], ic, 2)
    data = export_complex(ic, "json")
    facet = next(iter(d2.facets))
    src = tmp_path / "d2.json"
    src.write_bytes(export_complex(d2, "json"))
    argv = ["subdivide", "--in", str(src), "--rounds", "2", "--out", str(tmp_path / "o.json"),
            "--json-out", str(tmp_path / "s.json")]
    return {
        "protocol_complex": lambda: protocol_complex(d2, "iis", 2),
        "one_round": lambda: one_round(d2, "ic", StateRegistry(d2)),
        "iterate_subdivide": lambda: iterate_subdivide(d2, 2),
        "check_intersection_preserving": lambda: check_intersection_preserving(
            gen_glued(2), "ic", 2
        ),
        "bounded_protocol_complex": lambda: bounded_protocol_complex(ic, seq),
        "iterate_pipeline": lambda: iterate_pipeline(d2, 2, 2),
        "import_complex": lambda: import_complex(data),
        "export_complex": lambda: export_complex(ic, "json"),
        "f_vector": import_complex(data).f_vector,
        "is_isomorphic": lambda: is_isomorphic(ic, import_complex(data)),
        "schedule_oracle-ic": lambda: schedule_oracle(d2, facet, "ic"),
        "schedule_oracle-ias": lambda: schedule_oracle(d2, facet, "ias"),
        "schedule_oracle-iis": lambda: schedule_oracle(d2, facet, "iis"),
        "cli.main": lambda: cli.main(argv),
    }


# the function whose frames a collection must not interrupt, per entry point
_BODIES = {
    "protocol_complex": protocol_complex,
    "one_round": one_round,
    "iterate_subdivide": protocol_complex,
    "check_intersection_preserving": check_intersection_preserving,
    "bounded_protocol_complex": bounded_protocol_complex,
    "iterate_pipeline": iterate_pipeline,
    "import_complex": import_complex,
    "export_complex": export_complex,
    "f_vector": ChromaticComplex.f_vector,
    "is_isomorphic": is_isomorphic,
    "schedule_oracle-ic": schedule_oracle,
    "schedule_oracle-ias": schedule_oracle,
    "schedule_oracle-iis": schedule_oracle,
    "cli.main": cli.main,
}


@pytest.mark.parametrize("name", sorted(_BODIES))
def test_no_collection_inside_an_entry_point(name, tmp_path, collector_on):
    call = _entry_points(tmp_path)[name]
    body = inspect.unwrap(_BODIES[name]).__code__
    inside = []

    def record(phase, _info):
        frame = sys._getframe()
        while frame is not None and frame.f_code is not body:
            frame = frame.f_back
        inside.append(frame is not None)

    threshold = gc.get_threshold()
    gc.set_threshold(1)  # a collection at nearly every allocation, unless paused
    gc.callbacks.append(record)
    try:
        call()
    finally:
        gc.callbacks.remove(record)
        gc.set_threshold(*threshold)
    assert not any(inside)
    assert gc.isenabled()


@pytest.mark.parametrize("name", sorted(_BODIES))
def test_an_entry_point_leaves_no_cyclic_garbage(name, tmp_path, collector_on):
    call = _entry_points(tmp_path)[name]
    call()  # fill the module-level caches first
    gc.collect()
    gc.disable()
    call()
    assert gc.collect() == 0


_PACKAGE = Path(itermem.__file__).parent


@pytest.mark.parametrize("module", sorted(p.stem for p in _PACKAGE.glob("*.py")))
def test_each_module_imports_alone(module):
    # a fresh interpreter per module, so no module this session imported
    # earlier can hide an import cycle or a missing name
    name = "itermem" if module == "__init__" else f"itermem.{module}"
    env = {**os.environ, "PYTHONPATH": str(_PACKAGE.parent)}
    done = subprocess.run(
        [sys.executable, "-c", f"import {name}"],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 0, done.stderr
