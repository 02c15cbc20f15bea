"""
Unit tests for serialization and the command-line interface.

Core claims:
    - JSON export is byte-stable through import/export round-trips
    - JSON export is, byte for byte, json.dumps(complex_to_dict(c),
      indent=2, sort_keys=True) + "\n": on random complexes with arbitrary
      labels (text of the characters JSON escapes, such as quote,
      backslash, control characters and a lone surrogate, and non-ASCII
      text, inside tuples and frozensets), on registry-labelled
      Ch/Ch²/IIS/IC/IAS outputs (IC of Ch, imported Ch², Ch²Δ³ and ICΔ³
      too), on one-vertex and empty complexes; the layout of the edge's
      export is pinned literally
    - Registry labels (color, (vid, ...)) render by the general label rule
    - Exported documents carry n, vids, colors, string labels, facets
    - DOT export: one node per vertex with a color attribute, one edge per
      1-skeleton edge; a label stays one DOT string (quote and backslash
      escaped, a lone surrogate written as its \\u escape) on the random
      labels above and through the CLI; csv-fvector matches the frozen
      subdivision value
    - Unknown formats and malformed documents are rejected, including
      encoding keys that are not the digits str(vid) writes, a vid listed
      by two vertex rows and a facet row that repeats a vid
    - Import refuses documents export never writes: a repeated object key,
      a label that is not a string, an empty facet row, a vertex row no
      facet uses, n not above every color (the message names the color)
    - Stars, links and faces, whose colors need not be 0..k-1, export n as
      the largest color + 1 and import back to the same bytes
    - Encoding sequences round-trip, including block metadata
    - CLI: gen/subdivide/protocol/greedy-star/simulate/verify/bounds/
      reduce-setcover/exact-min/export/counterexample wire together
    - bounds keeps the float counting bound while it is finite and is exact
      past float range (40 processes and 40 iterations, 300 and 300),
      shown to 17 digits; an exact bound over 2^22 bits exits 3
    - Vid numbering follows the facet set, not the order the facets were
      listed in: equal complexes export equal bytes after subdivision,
      protocol rounds (ic, ias, iis) and greedy + 1-bit packing + bounded
      simulation
    - Exit codes: 0 success, 1 failed verification, 2 usage (including
      non-integer set-cover items, on the command line or in an instance
      file, where strings, bools and floats are named; input files that are not UTF-8 for
      export, simulate, verify and reduce-setcover, and options a
      subcommand does not read: --seed outside gen, --max-facets outside
      gen/subdivide/protocol/simulate, repeated vids in a complex
      document, a negative bounds --measured or --max-facets, verify given
      both its isomorphism and its cover arguments, --bits in isomorphism
      mode or below 1), 3 resources (also an isomorphism search past its
      node budget, while a file against itself is decided at the first
      node), 4 any other exception
    - verify --in/--encodings and simulate with --bits B exit 1 on the
      first (round, ascending vid) whose code is outside 1..2^B - 1, print
      it and write it to --json-out: a 2-bit packing of glued(4) fits 2
      bits (and 1,100) but not 1; code 0 never fits
    - protocol notes a facet past the schedule oracle's cap for its
      pattern, and only then: not ic on 4-color triangles, but iis on Δ⁵
    - subdivide and protocol --pattern iis write the same bytes; verify
      decides Ch^2 of the 3-simplex ~= a vid-shuffled IIS^2 (1,124
      vertices a side)
    - simulate on a non-distinguishing encoding (AmbiguousDecode) exits 1
    - One decode rule: on the glued pair, apexes coded alike with their
      common neighbors uncoded pass verify and simulate to IC(c) (both
      exit 0); a coded common neighbor makes both exit 1
    - verify in cover mode prints its first witness and mirrors it to
      --json-out: the round, reader, source color, code and two vids of
      the first ambiguous read, or else the least sorted facet no round
      codes whole
    - A repeated key in a complex, encoding or set-cover file exits 2
    - simulate --verify-against compares with == first and searches for an
      isomorphism only when the complexes differ
    - simulate --verify-against ic on IC(Δ³) with a 3-bit cover exits 0 at
      the default --max-facets and 3 one below its 294,849 facets
    - main reuses one parser, and each call still gets its own defaults;
      gen and subdivide count the f-vector only for --json-out
    - gen compares the facet count it will build with --max-facets before
      generating anything
    - --json-out mirrors a machine-readable summary
    - JSON documents the CLI writes (a summary, a sequence, a trace) are
      byte for byte json.dumps(doc, indent=2, sort_keys=True,
      default=repr) + "\n"
    - A document whose n exceeds its largest color + 1 imports to the same
      complex, and re-export writes n as the largest color + 1
    - An import keeps its facet rows as the row table exactly when they are
      in export's order (the order check equals its definition); rows out
      of order, vids unsorted inside a row and rows of mixed sizes leave it
      empty, and every valid order re-exports the canonical bytes
"""

import json
import os
import re
import subprocess
import sys
from fractions import Fraction
from math import factorial
from pathlib import Path

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import itermem
from itermem import (
    PATTERNS,
    ChromaticComplex,
    Encoding,
    InvalidParameters,
    ResourceLimit,
    UnsupportedFormat,
    Vertex,
    bounded_protocol_complex,
    bounds_table,
    code_collision_counterexample,
    export_complex,
    gen_glued,
    gen_path,
    gen_random,
    gen_simplex,
    greedy_star,
    import_complex,
    is_isomorphic,
    iterate_subdivide,
    protocol_complex,
    schedule_oracle,
    split_to_budget,
)
from itermem.cli import _write_json, build_parser, main
from itermem.io import (
    _canonical,
    _canonical_label,
    _loads,
    complex_to_dict,
    encoding_from_dict,
    encoding_to_dict,
    sequence_from_list,
    sequence_to_list,
    trace_to_dict,
)
from test_iso import _permuted


def _stdlib_json(c):
    """The export's reference: the stdlib's own indent=2, sort_keys layout."""
    return (json.dumps(complex_to_dict(c), indent=2, sort_keys=True) + "\n").encode()


def _label_reference(label) -> str:
    """The canonical label rule, without the fast path for registry labels."""
    if label is None:
        return ""
    if isinstance(label, str):
        return label
    if isinstance(label, (tuple, list)):
        return "(" + ",".join(map(_label_reference, label)) + ")"
    if isinstance(label, (set, frozenset)):
        return "{" + ",".join(sorted(map(_label_reference, label))) + "}"
    return str(label)



odd_labels = [
    'quote " and backslash \\',
    "caf\u00e9 \u2203\U0001f600",
    "new\nline\ttab\r\x00\x1f\x7f",
    None,
    -3,
    (0, (4, 5)),
    (1, ()),
    ("a", (None, 2)),
    frozenset({"b", "a", (1, 2)}),
    "",
]


# text made of the characters JSON escapes (quote, backslash, control
# characters, a lone surrogate) and of non-ASCII ones, which an ASCII
# document writes as \u escapes
escaped_text = st.text(
    st.sampled_from('"\\/\x00\x08\x1f\n\r\t\x7f a\u00e9\u2028\u2203\ud800\U0001f600'),
    max_size=8,
)
labels = st.recursive(
    st.none() | st.integers() | st.text() | escaped_text,
    lambda inner: st.lists(inner, max_size=3).map(tuple)
    | st.frozensets(inner, max_size=3),
    max_leaves=6,
)


@st.composite
def relabelled_complexes(draw):
    c = gen_random(
        draw(st.integers(0, 10**6)), draw(st.integers(1, 4)), draw(st.integers(1, 6))
    )
    vertices = {vid: Vertex(vid, v.color, draw(labels)) for vid, v in c.vertices.items()}
    return ChromaticComplex(vertices, c.facets)


def _ch2(c):
    return iterate_subdivide(c, 2)


def _ic(c):
    return protocol_complex(c, "ic", 1)


registry_builds = [
    lambda c: iterate_subdivide(c, 1),
    _ch2,
    _ic,
    lambda c: protocol_complex(c, "ias", 1),
    lambda c: _ic(iterate_subdivide(c, 1)),
    lambda c: import_complex(export_complex(_ch2(c), "json")),
]


class TestJsonLayout:
    @given(relabelled_complexes())
    @example(ChromaticComplex({}, []))
    @example(ChromaticComplex({0: Vertex(0, 0, "solo")}, [[0]]))
    @example(
        ChromaticComplex(
            {i: Vertex(i, i, label) for i, label in enumerate(odd_labels)},
            [[i] for i in range(len(odd_labels))],
        )
    )
    def test_equals_stdlib_layout(self, c):
        # labels go through the C escaper json.dumps(str) itself calls
        data = export_complex(c, "json")
        assert data == _stdlib_json(c)
        assert data.isascii()
        assert export_complex(import_complex(data), "json") == data

    @given(
        st.builds(gen_random, st.integers(0, 10**6), st.integers(1, 3), st.integers(1, 3)),
        st.sampled_from(registry_builds),
    )
    @example(gen_simplex(3), _ch2)
    @example(gen_simplex(3), _ic)
    def test_equals_stdlib_layout_on_registry_labels(self, base, build):
        c = build(base)
        assert export_complex(c, "json") == _stdlib_json(c)

    @given(labels)
    @example((2, (3, 11)))
    @example((1, ()))
    @example((0, (None, "a")))
    @example((None, (1, 2)))
    @example((True, (1,)))
    def test_label_rule(self, label):
        assert _canonical_label(label) == _label_reference(label)

    def test_edge_pinned(self):
        assert export_complex(gen_simplex(1), "json") == (
            b"{\n"
            b'  "facets": [\n'
            b"    [\n"
            b"      0,\n"
            b"      1\n"
            b"    ]\n"
            b"  ],\n"
            b'  "n": 2,\n'
            b'  "vertices": [\n'
            b"    {\n"
            b'      "color": 0,\n'
            b'      "label": "s0",\n'
            b'      "vid": 0\n'
            b"    },\n"
            b"    {\n"
            b'      "color": 1,\n'
            b'      "label": "s1",\n'
            b'      "vid": 1\n'
            b"    }\n"
            b"  ]\n"
            b"}\n"
        )


class TestComplexJson:
    def test_round_trip_stable(self):
        for c in (gen_simplex(2), gen_glued(2), iterate_subdivide(gen_simplex(2), 1)):
            blob = export_complex(c, "json")
            again = export_complex(import_complex(blob), "json")
            assert blob == again

    def test_export_ignores_facet_listing_order(self):
        builds = (
            lambda c: iterate_subdivide(c, 1),
            lambda c: protocol_complex(c, "ic", 1),
            lambda c: protocol_complex(c, "ias", 1),
            lambda c: protocol_complex(c, "iis", 2),
            lambda c: bounded_protocol_complex(
                c, split_to_budget(greedy_star(c)[0], c, 1)
            ),
        )
        for seed in range(60):
            c = gen_random(seed, 3, 2 + seed % 5)
            up = ChromaticComplex(c.vertices, sorted(c.facets, key=sorted))
            down = ChromaticComplex(
                c.vertices, sorted(c.facets, key=sorted, reverse=True)
            )
            for build in builds:
                assert export_complex(build(up), "json") == export_complex(
                    build(down), "json"
                )

    def test_document_shape(self):
        d = complex_to_dict(gen_glued(2))
        assert d["n"] == 3
        assert {v["vid"] for v in d["vertices"]} == {0, 1, 2, 3}
        assert all(isinstance(v["label"], str) for v in d["vertices"])
        assert sorted(d["facets"]) == [[0, 1, 2], [1, 2, 3]]

    def test_tuple_labels_become_strings(self):
        ch = iterate_subdivide(gen_simplex(2), 1)
        d = complex_to_dict(ch)
        assert all(isinstance(v["label"], str) for v in d["vertices"])

    def test_import_rejects_garbage(self):
        with pytest.raises(UnsupportedFormat):
            import_complex(b"not json at all {")
        with pytest.raises(UnsupportedFormat):
            import_complex({"vertices": []})  # missing keys
        with pytest.raises(UnsupportedFormat):
            import_complex(
                {"n": 1, "vertices": [{"vid": 0, "color": 5, "label": ""}],
                 "facets": [[0]]}
            )  # n below the colors present

    @pytest.mark.parametrize(
        "path, bad",
        [
            (("vertices", 0, "color"), 1.9),
            (("vertices", 0, "color"), True),
            (("vertices", 0, "vid"), "0"),
            (("vertices", 0, "vid"), 0.0),
            (("facets", 0, 1), 1.7),
            (("facets", 0, 0), False),
            (("n",), 3.0),
            (("n",), "3"),
        ],
    )
    def test_import_rejects_non_integers(self, path, bad):
        doc = complex_to_dict(gen_simplex(2))
        *head, last = path
        target = doc
        for key in head:
            target = target[key]
        target[last] = bad
        with pytest.raises(UnsupportedFormat):
            import_complex(json.dumps(doc))

    def test_import_rejects_repeated_vids(self):
        # read silently, vid 0 would come back with color 1, and [0, 1, 1]
        # as {0, 1}
        doc = complex_to_dict(gen_simplex(2))
        twice = {**doc, "vertices": doc["vertices"] + [{"vid": 0, "color": 1, "label": ""}]}
        with pytest.raises(UnsupportedFormat, match="share a vid"):
            import_complex(twice)
        for facets in ([[0, 1, 1]], [[0, 1, 2], [2, 2]]):
            with pytest.raises(UnsupportedFormat, match="repeats a vid"):
                import_complex(json.dumps({**doc, "facets": facets}))

    def test_unknown_format(self):
        with pytest.raises(UnsupportedFormat):
            export_complex(gen_simplex(1), "yaml")

    def test_subcomplexes_round_trip(self):
        # a link or star can miss color 0, so n is the largest color + 1
        assert complex_to_dict(gen_simplex(2).link(0))["n"] == 3
        for c in (gen_simplex(2), gen_simplex(3), gen_glued(3), iterate_subdivide(gen_simplex(2), 1)):
            parts = [c.link(v) for v in c.vertices] + [c.star([v]) for v in c.vertices]
            parts += [c.subcomplex([sorted(f)[1:]]) for f in c.facets]
            for part in parts:
                blob = export_complex(part, "json")
                assert export_complex(import_complex(blob), "json") == blob

    def test_n_above_the_largest_color_reads_back(self):
        # a hand-written file may give the process count of a smaller
        # complex: it imports to the same complex, and export writes n as
        # the largest color + 1
        doc = {**complex_to_dict(gen_simplex(2)), "n": 5}
        c = import_complex(json.dumps(doc))
        assert c == import_complex(export_complex(gen_simplex(2), "json"))
        assert json.loads(export_complex(c, "json"))["n"] == 3
        assert export_complex(c, "json") == export_complex(gen_simplex(2), "json")

    def test_n_below_a_color_names_it(self):
        doc = {"n": 2, "vertices": [{"vid": 0, "color": 2, "label": ""}], "facets": [[0]]}
        with pytest.raises(UnsupportedFormat, match="color 2"):
            import_complex(doc)

    @pytest.mark.parametrize(
        "edit, match",
        [
            (lambda d: d["vertices"][0].update(label=[1, 2]), "label must be a string"),
            (lambda d: d["vertices"][0].update(label={"a": 1}), "label must be a string"),
            (lambda d: d["vertices"][0].update(label=None), "label must be a string"),
            (lambda d: d["vertices"][0].update(label=7), "label must be a string"),
            (lambda d: d["facets"].append([]), "empty"),
            (lambda d: d["vertices"].append({"vid": 9, "color": 0, "label": ""}), "vid 9 is in no facet"),
        ],
        ids=["list-label", "object-label", "null-label", "int-label", "empty-facet", "unused-vertex"],
    )
    def test_import_refuses_what_export_never_writes(self, edit, match):
        doc = complex_to_dict(gen_simplex(2))
        edit(doc)
        with pytest.raises(UnsupportedFormat, match=match):
            import_complex(json.dumps(doc))

    def test_import_refuses_repeated_keys(self):
        blob = export_complex(gen_simplex(2), "json").decode()
        with pytest.raises(UnsupportedFormat, match="repeats key 'n'"):
            import_complex(blob.replace('"n": 3', '"n": 3, "n": 1'))
        with pytest.raises(UnsupportedFormat, match="repeats key 'label'"):
            import_complex(blob.replace('"label": "s0"', '"label": "s0", "label": "x"', 1))
        with pytest.raises(UnsupportedFormat, match="repeats key '0'"):
            _loads('[{"assignment": {"0": 1, "0": 2}}]')
        assert _loads('{"a": {"b": 1}, "b": [{"a": 2}]}') == {"a": {"b": 1}, "b": [{"a": 2}]}


def _canonical_reference(rows) -> bool:
    """Rows in export's order, by definition: each row strictly ascending,
    and the rows strictly ascending."""
    return all(list(r) == sorted(set(r)) for r in rows) and list(rows) == sorted(set(rows))


# a triangle and an edge that meets it in vertex 0: facets of two sizes
_MIXED = ChromaticComplex(
    {0: Vertex(0, 0, "a"), 1: Vertex(1, 1, "b"), 2: Vertex(2, 2, "c"), 3: Vertex(3, 2, "d")},
    [[0, 1, 2], [0, 3]],
)


class TestImportRowTable:
    """An import keeps its facet rows as the complex's row table exactly
    when they are in export's order; either way it re-exports the
    canonical bytes."""

    @pytest.mark.parametrize(
        "c", [gen_simplex(2), gen_glued(3), iterate_subdivide(gen_simplex(3), 2), _MIXED],
        ids=["D2", "glued3", "Ch2D3", "mixed"],
    )
    def test_canonical_document_fills_the_table(self, c):
        data = export_complex(c, "json")
        back = import_complex(data)
        assert back._rows is not None
        assert back.rows() == tuple(sorted(tuple(sorted(f)) for f in c.facets))
        assert export_complex(back, "json") == data

    @pytest.mark.parametrize(
        "edit",
        [
            lambda rows: rows.reverse(),  # rows out of order
            lambda rows: rows[0].reverse(),  # vids unsorted inside a row
            lambda rows: rows[-1].reverse(),
            lambda rows: rows.insert(0, rows.pop()),
        ],
        ids=["rows-reversed", "first-row-reversed", "last-row-reversed", "last-row-first"],
    )
    @pytest.mark.parametrize("c", [gen_glued(3), _MIXED], ids=["glued3", "mixed"])
    def test_other_documents_leave_it_empty(self, c, edit):
        data = export_complex(c, "json")
        doc = json.loads(data)
        edit(doc["facets"])
        back = import_complex(json.dumps(doc))
        assert back._rows is None
        assert back.facets == c.facets
        assert export_complex(back, "json") == data == _stdlib_json(back)

    @given(st.data(), st.sampled_from([gen_glued(3), gen_path(3), _MIXED, _ch2(gen_simplex(2))]))
    def test_table_only_from_canonical_rows(self, data, c):
        doc = complex_to_dict(c)
        doc["facets"] = [
            data.draw(st.permutations(row)) for row in data.draw(st.permutations(doc["facets"]))
        ]
        back = import_complex(json.dumps(doc))
        assert (back._rows is not None) == _canonical_reference(list(map(tuple, doc["facets"])))
        assert back.rows() == tuple(sorted(tuple(sorted(f)) for f in c.facets))
        assert export_complex(back, "json") == _stdlib_json(c)

    @given(st.lists(st.lists(st.integers(0, 5), min_size=1, max_size=4).map(tuple), max_size=6))
    @example([(0, 1), (0, 2, 3), (1, 2)])
    @example([(0, 1), (0, 3, 2)])
    @example([(0, 2), (0, 1)])
    @example([(0, 1), (0, 1)])
    @example([(1, 1)])
    def test_order_check_equals_definition(self, rows):
        assert _canonical(tuple(rows)) == _canonical_reference(rows)


class TestOtherFormats:
    def test_dot_triangle(self):
        dot = export_complex(gen_simplex(2), "dot").decode()
        assert dot.count("[color=") == 3
        assert dot.count(" -- ") == 3
        assert dot.startswith("graph")

    def test_dot_glued_pinned(self):
        # the parent's facet-pair edge set gave these bytes too
        assert export_complex(gen_glued(2), "dot").decode() == (
            "graph complex {\n"
            '  v0 [color=0, label="a1"];\n'
            '  v1 [color=1, label="p1"];\n'
            '  v2 [color=2, label="p2"];\n'
            '  v3 [color=0, label="a2"];\n'
            "  v0 -- v1;\n"
            "  v0 -- v2;\n"
            "  v1 -- v2;\n"
            "  v1 -- v3;\n"
            "  v2 -- v3;\n"
            "}\n"
        )

    @given(relabelled_complexes())
    def test_dot_labels_stay_one_string(self, c):
        # a quote or backslash is escaped, a lone surrogate written as its
        # \u escape; unescaping gives the canonical label back
        dot = export_complex(c, "dot").decode()
        found = re.findall(r'label=("(?:[^"\\]|\\.)*")\];\n', dot)
        assert len(found) == len(c.vertices)
        assert re.fullmatch(
            r'graph complex \{\n(  v\d+ \[color=\d+, label="(?:[^"\\]|\\.)*"\];\n)*'
            r"(  v\d+ -- v\d+;\n)*\}\n",
            dot,
        )
        for (vid, v), text in zip(sorted(c.vertices.items()), found):
            want = _canonical_label(v.label).encode("utf-8", "backslashreplace").decode()
            assert re.sub(r'\\(["\\])', r"\1", text[1:-1]) == want, vid

    def test_dot_odd_labels_exit_0(self, tmp_path, capsys):
        # JSON import accepts these labels; DOT export writes each as one string
        path = tmp_path / "odd.json"
        path.write_text(
            '{"n": 3, "facets": [[0, 1, 2]], "vertices": ['
            '{"vid": 0, "color": 0, "label": "a\\"b"}, '
            '{"vid": 1, "color": 1, "label": "c\\\\d"}, '
            '{"vid": 2, "color": 2, "label": "a\\ud800"}]}'
        )
        assert main(["export", "--in", str(path), "--format", "dot"]) == 0
        out = capsys.readouterr().out
        assert 'label="a\\"b"' in out
        assert 'label="c\\\\d"' in out
        assert 'label="a\\ud800"' in out

    def test_csv_fvector(self):
        ch = iterate_subdivide(gen_simplex(2), 1)
        assert export_complex(ch, "csv-fvector") == b"12,24,13"


class TestEncodingJson:
    def test_round_trip(self):
        e = Encoding({0: 1, 3: 2})
        d = encoding_to_dict(e)
        assert d == {"assignment": {"0": 1, "3": 2}}
        assert encoding_from_dict(d) == e
        # files from earlier versions carry block metadata; it is ignored
        assert encoding_from_dict({**d, "groups": [[0, 1], [3]]}) == e

    def test_bottom_round_trip(self):
        d = {"assignment": {"0": 1, "1": None}}
        e = encoding_from_dict(d)
        assert e.value(1) is None

    def test_sequence_round_trip(self):
        c = gen_glued(2)
        seq, _ = greedy_star(c)
        doc = sequence_to_list(seq)
        assert sequence_from_list(doc) == seq

    def test_malformed(self):
        with pytest.raises(UnsupportedFormat):
            encoding_from_dict({"codes": {}})
        with pytest.raises(UnsupportedFormat):
            sequence_from_list({"assignment": {}})

    @pytest.mark.parametrize(
        "assignment",
        [
            {" +1_0 ": 1, "١": 2},  # int() reads these as 10 and 1
            {"1": 1, "01": 2},  # int() merges these into one vid
            {"+3": 1},
            {"-0": 1},
            {"3 ": 1},
            {"x": 1},
        ],
    )
    def test_non_canonical_keys_rejected(self, assignment):
        with pytest.raises(UnsupportedFormat, match="not a canonical vid"):
            encoding_from_dict({"assignment": assignment})


class TestCli:
    def _gen(self, tmp_path, name="c.json", kind="glued", extra=()):
        path = tmp_path / name
        assert main(["gen", kind, "--k", "2", "--out", str(path), *extra]) == 0
        return path

    def test_gen_and_export(self, tmp_path, capsys):
        path = self._gen(tmp_path)
        assert main(["export", "--in", str(path), "--format", "csv-fvector"]) == 0
        assert capsys.readouterr().out.strip().splitlines()[-1] == "4,5,2"

    def test_subdivide_and_protocol_agree(self, tmp_path):
        src = self._gen(tmp_path)
        ch, xi = tmp_path / "ch.json", tmp_path / "xi.json"
        assert main(["subdivide", "--in", str(src), "--rounds", "1",
                     "--out", str(ch)]) == 0
        assert main(["protocol", "--in", str(src), "--pattern", "iis",
                     "--rounds", "1", "--out", str(xi)]) == 0
        assert ch.read_bytes() == xi.read_bytes()
        assert main(["verify", "--a", str(ch), "--b", str(xi)]) == 0

    def test_verify_ch2_of_3_simplex(self, tmp_path):
        # 1,124 vertices a side: deep enough to overflow a search that
        # recursed once per vertex
        src = tmp_path / "d3.json"
        assert main(["gen", "simplex", "--n", "3", "--out", str(src)]) == 0
        ch, xi = tmp_path / "ch2d3.json", tmp_path / "iis2d3.json"
        assert main(["subdivide", "--in", str(src), "--rounds", "2",
                     "--out", str(ch)]) == 0
        assert main(["protocol", "--in", str(src), "--pattern", "iis",
                     "--rounds", "2", "--out", str(xi)]) == 0
        # the two files are equal, so search against a vid-shuffled copy
        xi.write_bytes(export_complex(_permuted(import_complex(xi.read_bytes()), 2), "json"))
        assert main(["verify", "--a", str(ch), "--b", str(xi)]) == 0

    def test_verify_detects_difference(self, tmp_path):
        a = self._gen(tmp_path, "a.json")
        b = tmp_path / "b.json"
        assert main(["gen", "simplex", "--n", "2", "--out", str(b)]) == 0
        assert main(["verify", "--a", str(a), "--b", str(b)]) == 1

    def test_greedy_simulate_pipeline(self, tmp_path):
        src = self._gen(tmp_path)
        enc = tmp_path / "e.json"
        trace = tmp_path / "t.json"
        assert main(["greedy-star", "--in", str(src), "--bits", "1",
                     "--out", str(enc), "--trace", str(trace)]) == 0
        assert json.loads(trace.read_text())["rounds"]
        assert main(["simulate", "--in", str(src), "--encodings", str(enc),
                     "--verify-against", "ic"]) == 0
        assert main(["verify", "--in", str(src), "--encodings", str(enc)]) == 0

    def test_simulate_without_a_reference(self, tmp_path, capsys):
        src = self._gen(tmp_path)
        enc = tmp_path / "e.json"
        assert main(["greedy-star", "--in", str(src), "--bits", "1", "--out", str(enc)]) == 0
        capsys.readouterr()
        rounds = len(json.loads(enc.read_text()))
        # a covering sequence simulates to 1-round ic of the glued pair
        ref = protocol_complex(gen_glued(2), "ic", 1)
        assert main(["simulate", "--in", str(src), "--encodings", str(enc)]) == 0
        assert capsys.readouterr().out == (
            f"simulated {rounds} rounds: {len(ref.vertices)} vertices, {len(ref.facets)} facets\n"
        )

    def test_simulate_flags_broken_sequence(self, tmp_path, capsys):
        src = self._gen(tmp_path)
        enc = tmp_path / "broken.json"
        enc.write_text(json.dumps(
            [{"assignment": {"0": 1, "1": 1, "2": 1, "3": 1}}]
        ))
        assert main(["simulate", "--in", str(src), "--encodings", str(enc),
                     "--verify-against", "ic"]) == 1
        # the counterexample's shared apex code: decoding alone fails
        _, broken, _ = code_collision_counterexample()
        enc.write_text(json.dumps(sequence_to_list(broken)))
        capsys.readouterr()
        assert main(["simulate", "--in", str(src), "--encodings", str(enc)]) == 1
        assert "verification failed" in capsys.readouterr().err

    def test_verify_and_simulate_agree_on_the_coded_reader(self, tmp_path, capsys):
        # apexes 0 and 3 coded alike: only their common neighbors 1 and 2
        # read both, and they are uncoded in that round
        src = self._gen(tmp_path)
        enc = tmp_path / "e.json"
        rounds = [{"0": 1, "3": 1}, {"0": 1, "1": 2, "2": 3}, {"3": 1, "1": 2, "2": 3}]
        enc.write_text(json.dumps([{"assignment": r} for r in rounds]))
        assert main(["verify", "--in", str(src), "--encodings", str(enc)]) == 0
        assert main(["simulate", "--in", str(src), "--encodings", str(enc),
                     "--verify-against", "ic"]) == 0
        rounds[0]["1"] = 2
        enc.write_text(json.dumps([{"assignment": r} for r in rounds]))
        assert main(["verify", "--in", str(src), "--encodings", str(enc)]) == 1
        capsys.readouterr()
        assert main(["simulate", "--in", str(src), "--encodings", str(enc)]) == 1
        assert "matches vids [0, 3]" in capsys.readouterr().err

    def test_verify_names_its_witness(self, tmp_path, capsys):
        src = self._gen(tmp_path)  # the glued pair: triangles 0,1,2 and 1,2,3
        enc, summary = tmp_path / "e.json", tmp_path / "s.json"
        cases = [
            # vid 1 is coded and reads apexes 0 and 3 coded alike, in round 1
            ([{"0": 1, "1": 2, "2": 3}, {"0": 1, "1": 2, "3": 1}],
             {"round": 1, "reader": 1, "color": 0, "code": 1, "vids": [0, 3]},
             "in round 1, value 1 from color 0 matches vids [0, 3] near vid 1"),
            # that read comes before the triangle no round codes whole
            ([{"0": 1, "1": 2, "3": 1}],
             {"round": 0, "reader": 1, "color": 0, "code": 1, "vids": [0, 3]},
             "in round 0, value 1 from color 0 matches vids [0, 3] near vid 1"),
            ([{"3": 1, "1": 2}, {"0": 1, "1": 2, "2": 3}],
             {"facet": [1, 2, 3]}, "no round codes facet [1, 2, 3] whole"),
            ([], {"facet": [0, 1, 2]}, "no round codes facet [0, 1, 2] whole"),
        ]
        for rounds, witness, line in cases:
            enc.write_text(json.dumps([{"assignment": r} for r in rounds]))
            capsys.readouterr()
            assert main(["verify", "--in", str(src), "--encodings", str(enc),
                         "--json-out", str(summary)]) == 1
            assert f"witness: {line}\n" in capsys.readouterr().out
            assert json.loads(summary.read_text()) == {
                "cover_verified": False, "witness": witness}
        enc.write_text(json.dumps([{"assignment": {"0": 1, "1": 2, "2": 3, "3": 2}}]))
        assert main(["verify", "--in", str(src), "--encodings", str(enc),
                     "--json-out", str(summary)]) == 0
        assert json.loads(summary.read_text()) == {"cover_verified": True}
        assert "witness" not in capsys.readouterr().out

    def test_bits_refuses_codes_outside_the_register(self, tmp_path, capsys):
        glued4, enc, summary = tmp_path / "g4.json", tmp_path / "e.json", tmp_path / "s.json"
        assert main(["gen", "glued", "--k", "4", "--out", str(glued4)]) == 0
        assert main(["greedy-star", "--in", str(glued4), "--bits", "2", "--out", str(enc)]) == 0
        cover = ["--in", str(glued4), "--encodings", str(enc), "--json-out", str(summary)]
        for bits in ("2", "1100"):
            assert main(["verify", *cover, "--bits", bits]) == 0
            assert json.loads(summary.read_text()) == {"cover_verified": True, "fits_bits": True}
            assert main(["simulate", *cover, "--bits", bits, "--verify-against", "ic"]) == 0
        # the first (round, ascending vid) whose code needs a second bit
        rounds = [{int(v): k for v, k in r["assignment"].items()}
                  for r in json.loads(enc.read_text())]
        r, v, k = next((r, v, k) for r, codes in enumerate(rounds)
                       for v, k in sorted(codes.items()) if k >= 2)
        witness = {"round": r, "vid": v, "code": k}
        capsys.readouterr()
        for cmd, rest in (("verify", {}), ("simulate", {"rounds": len(rounds)})):
            assert main([cmd, *cover, "--bits", "1"]) == 1
            out = capsys.readouterr().out
            assert out == ("codes fit a 1-bit register: False\n"
                           f"witness: round {r} codes vid {v} as {k}, outside 1..2^1 - 1\n")
            assert json.loads(summary.read_text()) == {
                **rest, "fits_bits": False, "witness": witness}
        # code 0 is an ordinary code without --bits, and no register holds it
        enc.write_text(json.dumps([{"assignment": {"0": 2, "1": 0, "2": 3, "3": 1}}]))
        cover[1] = str(self._gen(tmp_path))  # the glued pair
        assert main(["verify", *cover]) == 0
        assert main(["verify", *cover, "--bits", "2"]) == 1
        assert json.loads(summary.read_text())["witness"] == {"round": 0, "vid": 1, "code": 0}
        assert main(["simulate", *cover, "--bits", "2"]) == 1

    def test_bits_usage_errors_exit_2(self, tmp_path, capsys):
        src = self._gen(tmp_path)
        enc = tmp_path / "e.json"
        enc.write_text("[]")
        assert main(["verify", "--a", str(src), "--b", str(src), "--bits", "1"]) == 2
        assert "cover mode only" in capsys.readouterr().err
        for cmd in ("verify", "simulate"):
            for bits in ("0", "-1", "x"):
                assert main([cmd, "--in", str(src), "--encodings", str(enc),
                             "--bits", bits]) == 2
                assert "need an integer >= 1" in capsys.readouterr().err

    def test_repeated_keys_exit_2(self, tmp_path, capsys):
        src = self._gen(tmp_path)
        bad = tmp_path / "bad.json"
        bad.write_text('[{"assignment": {"0": 1, "0": 2}}]')
        for cmd in ("simulate", "verify"):
            assert main([cmd, "--in", str(src), "--encodings", str(bad)]) == 2
            assert "repeats key '0'" in capsys.readouterr().err
        bad.write_text('{"universe": [1, 2], "subsets": [[1]], "subsets": [[1, 2]]}')
        assert main(["reduce-setcover", "--in", str(bad)]) == 2
        assert "repeats key 'subsets'" in capsys.readouterr().err
        bad.write_text(src.read_text().replace('"n": 3', '"n": 3, "n": 1'))
        assert main(["export", "--in", str(bad)]) == 2
        assert "repeats key 'n'" in capsys.readouterr().err

    def test_documents_export_never_writes_exit_2(self, tmp_path):
        src = self._gen(tmp_path)
        doc = json.loads(src.read_text())
        bad = tmp_path / "bad.json"
        for edit in (
            lambda d: d["vertices"][0].update(label=None),
            lambda d: d["facets"].append([]),
            lambda d: d["vertices"].append({"vid": 9, "color": 0, "label": ""}),
        ):
            d = json.loads(json.dumps(doc))
            edit(d)
            bad.write_text(json.dumps(d))
            assert main(["export", "--in", str(bad)]) == 2

    def test_link_exports_and_reads_back(self, tmp_path):
        link = tmp_path / "link.json"
        link.write_bytes(export_complex(gen_simplex(2).link(0), "json"))
        out = tmp_path / "again.json"
        assert main(["export", "--in", str(link), "--out", str(out)]) == 0
        assert out.read_bytes() == link.read_bytes()

    def test_simulate_checks_equality_before_search(self, tmp_path, monkeypatch):
        src = self._gen(tmp_path)
        enc, summary = tmp_path / "e.json", tmp_path / "s.json"
        assert main(["greedy-star", "--in", str(src), "--out", str(enc)]) == 0
        searched = []

        def search(a, b):
            searched.append(1)
            return is_isomorphic(a, b)

        monkeypatch.setattr("itermem.cli.is_isomorphic", search)
        args = ["simulate", "--in", str(src), "--encodings", str(enc),
                "--verify-against", "ic", "--json-out", str(summary)]
        assert main(args) == 0
        assert not searched
        doc = json.loads(summary.read_text())
        assert doc["equal"] is True and doc["isomorphic"] is True
        # greedy's first round alone leaves the apex 3 uncoded
        c = gen_glued(2)
        enc.write_text(json.dumps(sequence_to_list(greedy_star(c)[0][:1])))
        assert main(args) == 1
        assert searched
        doc = json.loads(summary.read_text())
        assert doc["equal"] is False and doc["isomorphic"] is False

    def test_parser_reused_with_fresh_defaults(self, tmp_path, capsys):
        src = self._gen(tmp_path)
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        assert main(["subdivide", "--in", str(src), "--rounds", "2",
                     "--json-out", str(a)]) == 0
        assert main(["subdivide", "--in", str(src), "--json-out", str(b)]) == 0
        assert json.loads(a.read_text())["rounds"] == 2
        assert json.loads(b.read_text())["rounds"] == 1
        assert main(["gen", "simplex", "--n", "3", "--json-out", str(a)]) == 0
        assert main(["gen", "simplex", "--json-out", str(b)]) == 0
        assert json.loads(a.read_text())["f_vector"] == [4, 6, 4, 1]
        assert json.loads(b.read_text())["f_vector"] == [3, 3, 1]
        assert main(["--help"]) == 0
        assert main(["subdivide", "--help"]) == 0
        assert build_parser() is build_parser()

    def test_f_vector_counted_only_for_json_out(self, tmp_path, monkeypatch):
        src = self._gen(tmp_path)

        def counted(self):
            raise AssertionError("f-vector computed but not written")

        monkeypatch.setattr(ChromaticComplex, "f_vector", counted)
        assert main(["subdivide", "--in", str(src)]) == 0
        assert main(["gen", "glued", "--k", "3"]) == 0
        monkeypatch.undo()
        summary = tmp_path / "s.json"
        assert main(["subdivide", "--in", str(src), "--json-out", str(summary)]) == 0
        # two copies of Ch(triangle) (12, 24, 13) sharing a subdivided
        # edge of 4 vertices and 3 edges
        assert json.loads(summary.read_text())["f_vector"] == [20, 45, 26]

    def test_bounds_table(self, capsys):
        assert main(["bounds", "--n", "3", "--r", "1", "--b", "1"]) == 0
        out = capsys.readouterr().out
        assert "paper counting bound: 4.0" in out
        assert "lower bound: 4.0" not in out
        # the row was n x the counting bound, which verified compiles go below
        assert "snapshot upper bound" not in out

    def test_bounds_of_a_complex(self, tmp_path, capsys):
        # --in adds the degree lower bound row and --measured its own, in
        # stdout and in --json-out alike
        tri = self._gen(tmp_path, "tri.json", kind="simplex")
        summary = tmp_path / "s.json"
        assert main(["bounds", "--n", "3", "--r", "1", "--b", "1", "--in", str(tri),
                     "--measured", "7", "--json-out", str(summary)]) == 0
        out = capsys.readouterr().out
        assert "degree lower bound: 1\n" in out
        assert "measured rounds: 7\n" in out
        doc = json.loads(summary.read_text())
        assert (doc["degree lower bound"], doc["measured rounds"]) == (1, 7)

    def test_degree_bound_past_float_range(self, tmp_path, capsys):
        # the float quotient underflowed to 0.0 from b = 1075 on
        tri = self._gen(tmp_path, "tri.json", kind="simplex")
        assert main(["bounds", "--n", "3", "--r", "1", "--b", "1100", "--in", str(tri)]) == 0
        assert "degree lower bound: 1\n" in capsys.readouterr().out
        summary = tmp_path / "g.json"
        assert main(["greedy-star", "--in", str(tri), "--bits", "1100",
                     "--json-out", str(summary)]) == 0
        assert json.loads(summary.read_text())["degree_lower"] == 1

    def test_bounds_past_float_range(self, tmp_path, capsys):
        # the float formula overflowed here (exit 4); the bound is now exact
        summary = tmp_path / "s.json"
        assert main(["bounds", "--n", "40", "--r", "40", "--b", "1",
                     "--json-out", str(summary)]) == 0
        assert "paper counting bound: 1.9693707757759014e+1880\n" in capsys.readouterr().out
        shown = json.loads(summary.read_text())["paper counting bound"]
        assert shown == "1.9693707757759014e+1880"
        assert main(["bounds", "--n", "300", "--r", "300", "--b", "1"]) == 0
        assert "paper counting bound: 1.8326468798482744e+183821\n" in capsys.readouterr().out
        assert bounds_table(40, 40, 1).lower_formula == factorial(40) ** 39 * 2 ** 39
        assert bounds_table(300, 2, 400).lower_formula == Fraction(factorial(300), 2 ** 100)
        # an exact bound too large to hold is a resource limit, at once
        assert main(["bounds", "--n", "100000", "--r", "100000", "--b", "1"]) == 3

    def test_bounds_below_float_range(self, capsys):
        # 2^-4997 underflowed to 0.0; below the normal floats it is exact too
        assert main(["bounds", "--n", "3", "--r", "1", "--b", "5000"]) == 0
        assert "paper counting bound: 5.6638490088385383e-1505\n" in capsys.readouterr().out
        assert bounds_table(3, 1, 5000).lower_formula == Fraction(1, 2 ** 4997)
        # the smallest normal float keeps the float formula
        assert bounds_table(3, 1, 1025).lower_formula == 2.0 ** -1022

    def test_bounds_keep_the_float_formula_where_finite(self):
        # equal to the float formula, rounding included (25! is inexact)
        for n, r, b in [(3, 1, 1), (3, 2, 2), (4, 3, 1), (25, 3, 1), (100, 2, 200)]:
            lower = bounds_table(n, r, b).lower_formula
            assert lower == float(factorial(n)) ** (r - 1) * 2.0 ** (n - b)
            assert isinstance(lower, float)

    def test_bounds_round_once(self):
        # 6^34 * 4 is inexact in a float; the float formula rounded twice
        lower = bounds_table(3, 35, 1).lower_formula
        assert float(factorial(3)) ** 34 * 2.0 ** 2 == 1.1460471998322818e27
        assert lower == float(factorial(3) ** 34 * 2 ** 2) == 1.1460471998322817e27
        assert isinstance(lower, float)

    def test_bounds_refuse_zero_iterations(self):
        with pytest.raises(InvalidParameters, match="need r >= 1 and b >= 1"):
            bounds_table(3, 0, 1)

    def test_bounds_refuse_negative_measured_rounds(self, capsys):
        with pytest.raises(InvalidParameters):
            bounds_table(3, 1, 1, measured_rounds=-5)
        assert bounds_table(3, 1, 1, measured_rounds=0).measured_rounds == 0
        assert main(["bounds", "--n", "3", "--r", "1", "--b", "1", "--measured", "-5"]) == 2
        assert "measured rounds" not in capsys.readouterr().out

    def test_bounds_two_process_row(self, capsys):
        # one code per register needs 3 rounds on the paths of iterations
        # 2, 3, ...; two codes need 1; the first iteration's edge needs 1
        for r, b, rounds in [(5, 1, 3), (5, 2, 1), (5, 3, 1), (1, 1, 1)]:
            assert main(["bounds", "--n", "2", "--r", str(r), "--b", str(b)]) == 0
            assert f"two-process round complexity: {rounds}\n" in capsys.readouterr().out

    def test_reduce_and_exact_min(self, tmp_path, capsys):
        out = tmp_path / "r.json"
        assert main(["reduce-setcover", "--universe", "1,2", "--subsets",
                     "1;2", "--out", str(out), "--explain"]) == 0
        capsys.readouterr()
        assert main(["exact-min", "--in", str(out)]) == 0
        assert "minimum rounds: 2" in capsys.readouterr().out

    def test_reduce_setcover_from_a_file(self, tmp_path, capsys):
        inst, bad = tmp_path / "inst.json", tmp_path / "bad.json"
        inst.write_text('{"universe": [1, 2, 3], "subsets": [[1, 2], [2, 3]]}')
        bad.write_text('{"universe": [1, 2, 3]}')
        out = tmp_path / "r.json"
        assert main(["reduce-setcover", "--in", str(inst), "--out", str(out)]) == 0
        assert main(["exact-min", "--in", str(out)]) == 0
        assert "minimum rounds: 2" in capsys.readouterr().out
        assert main(["reduce-setcover", "--in", str(bad)]) == 2
        assert "malformed instance" in capsys.readouterr().err
        assert main(["reduce-setcover"]) == 2
        assert "need --in or both --universe and --subsets" in capsys.readouterr().err

    def test_gen_path(self, tmp_path, capsys):
        summary = tmp_path / "s.json"
        assert main(["gen", "path", "--m", "3", "--json-out", str(summary)]) == 0
        doc = json.loads(summary.read_text())
        assert (doc["kind"], doc["facets"], doc["f_vector"]) == ("path", 3, [5, 7, 3])

    def test_counterexample(self, tmp_path):
        summary = tmp_path / "s.json"
        assert main(["counterexample", "--json-out", str(summary)]) == 0
        doc = json.loads(summary.read_text())
        assert doc["intersection_preserved"] is False
        assert doc["repaired_isomorphic_to_full_information"] is True

    def test_counterexample_encodings_out(self, tmp_path):
        out, enc = tmp_path / "c.json", tmp_path / "e.json"
        assert main(["counterexample", "--out", str(out), "--encodings-out", str(enc)]) == 0
        c, seq, _ = code_collision_counterexample()
        assert sequence_from_list(json.loads(enc.read_text())) == seq
        assert import_complex(out.read_bytes()) == c

    def test_json_documents_match_the_stdlib_encoder(self, tmp_path):
        # _write_json lays out containers itself, to leave no reference
        # cycle, with the bytes of the stdlib's indenting encoder
        c = gen_glued(2)
        seq, centers = greedy_star(c)
        docs = {
            "summary": code_collision_counterexample()[2],
            "sequence": sequence_to_list(split_to_budget(seq, c, 1)),
            "trace": trace_to_dict(c, seq, centers),
            "scalars": {"t": (1, 2.5, None, True, "é\n"), "e": {}, "l": [], "o": {3: {1, 2}}},
        }
        for name, doc in docs.items():
            _write_json(str(tmp_path / name), doc)
            want = json.dumps(doc, indent=2, sort_keys=True, default=repr) + "\n"
            assert (tmp_path / name).read_bytes() == want.encode(), name

    def test_json_out_summary(self, tmp_path):
        path = self._gen(tmp_path, extra=["--json-out", str(tmp_path / "s.json")])
        doc = json.loads((tmp_path / "s.json").read_text())
        assert doc["facets"] == 2

    def test_usage_errors_exit_2(self, tmp_path):
        assert main(["gen", "nonsense"]) == 2  # argparse choice
        assert main(["subdivide", "--in", str(tmp_path / "missing.json")]) == 2
        assert main(["verify", "--a", "x"]) == 2  # incomplete mode
        assert main(["verify"]) == 2  # no mode at all
        assert main(["bounds", "--n", "1", "--r", "1", "--b", "1"]) == 2

    def test_module_without_arguments_exits_2(self):
        # `python -m itermem.cli` runs main under its __main__ guard
        src = Path(itermem.__file__).resolve().parents[1]
        env = {**os.environ, "PYTHONPATH": str(src)}
        done = subprocess.run(
            [sys.executable, "-m", "itermem.cli"], env=env, capture_output=True, timeout=60
        )
        assert done.returncode == 2
        assert b"required: command" in done.stderr

    def test_verify_modes_exclude_each_other(self, tmp_path, capsys):
        # Δ² with one vertex coded is no cover; given the isomorphism
        # arguments as well, verify answered only those and exited 0
        tri, bad = tmp_path / "t.json", tmp_path / "bad.json"
        assert main(["gen", "simplex", "--n", "2", "--out", str(tri)]) == 0
        bad.write_text('[{"assignment": {"0": 1}}]')
        iso = ["--a", str(tri), "--b", str(tri)]
        cover = ["--in", str(tri), "--encodings", str(bad)]
        capsys.readouterr()
        assert main(["verify", *iso]) == 0
        assert "isomorphic: True" in capsys.readouterr().out
        assert main(["verify", *cover]) == 1
        assert "cover verified: False" in capsys.readouterr().out
        for mixed in ([*iso, *cover], [*cover, *iso], [*iso, "--in", str(tri)]):
            assert main(["verify", *mixed]) == 2
            err = capsys.readouterr().err
            assert "isomorphism (--a/--b)" in err and "cover (--in/--encodings)" in err

    def test_negative_max_facets_exit_2(self, capsys):
        for cmd in (["gen", "simplex", "--n", "2"], ["protocol", "--in", "x.json",
                                                     "--pattern", "ic"]):
            assert main([*cmd, "--max-facets", "-1"]) == 2
            assert "--max-facets: need an integer >= 0, got '-1'" in capsys.readouterr().err
        assert main(["gen", "simplex", "--n", "2", "--max-facets", "x"]) == 2
        # a budget of 0 is a budget: one facet exceeds it
        assert main(["gen", "simplex", "--n", "2", "--max-facets", "0"]) == 3
        assert "1 facets exceed --max-facets" in capsys.readouterr().err

    def test_options_offered_only_where_read(self, tmp_path, capsys):
        src = self._gen(tmp_path)
        assert main(["subdivide", "--in", str(src), "--seed", "3"]) == 2
        assert main(["export", "--in", str(src), "--max-facets", "9"]) == 2
        assert main(["subdivide", "--in", str(src), "--max-facets", "99"]) == 0

    def test_repeated_vid_documents_exit_2(self, tmp_path, capsys):
        src = self._gen(tmp_path)
        doc = json.loads(src.read_text())
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({**doc, "vertices": doc["vertices"] + doc["vertices"][:1]}))
        assert main(["export", "--in", str(bad)]) == 2
        assert "share a vid" in capsys.readouterr().err
        bad.write_text(json.dumps({**doc, "facets": [[0, 1, 1], *doc["facets"]]}))
        assert main(["subdivide", "--in", str(bad)]) == 2
        assert "repeats a vid" in capsys.readouterr().err

    def test_non_integer_documents_exit_2(self, tmp_path, capsys):
        src = self._gen(tmp_path)
        doc = json.loads(src.read_text())
        doc["vertices"][0]["color"] = 1.9
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        assert main(["export", "--in", str(bad)]) == 2
        assert "color must be an integer" in capsys.readouterr().err
        enc = tmp_path / "enc.json"
        enc.write_text('[{"assignment": {"0": true}}]')
        assert main(["simulate", "--in", str(src), "--encodings", str(enc)]) == 2
        assert "must be None or an int" in capsys.readouterr().err
        enc.write_text('[{"assignment": {"1": 1, "01": 2}}]')
        assert main(["verify", "--in", str(src), "--encodings", str(enc)]) == 2
        assert "'01' is not a canonical vid" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [
            ["export", "--in", "{bad}"],
            ["simulate", "--in", "{src}", "--encodings", "{bad}"],
            ["verify", "--in", "{src}", "--encodings", "{bad}"],
            ["reduce-setcover", "--in", "{bad}"],
        ],
        ids=["export", "simulate", "verify", "reduce-setcover"],
    )
    def test_invalid_utf8_exits_2(self, tmp_path, capsys, argv):
        # this crashed as "internal error: UnicodeDecodeError", exit 4
        src = self._gen(tmp_path)
        bad = tmp_path / "bad.json"
        bad.write_bytes(b'{"n": \xff}')
        argv = [a.format(src=src, bad=bad) for a in argv]
        assert main(argv) == 2
        assert "not JSON" in capsys.readouterr().err

    def test_oracle_note_follows_the_cap(self, tmp_path, capsys):
        # ic on two 4-color triangles is within the 3-process ic oracle
        verts = {v: Vertex(v, v) for v in range(4)}
        pair = tmp_path / "pair.json"
        pair.write_bytes(export_complex(ChromaticComplex(verts, [{0, 1, 2}, {1, 2, 3}]), "json"))
        summary = tmp_path / "s.json"
        assert main(["protocol", "--in", str(pair), "--pattern", "ic",
                     "--json-out", str(summary)]) == 0
        assert "note" not in capsys.readouterr().out
        assert "note" not in json.loads(summary.read_text())
        # iis on the 5-simplex is past the 5-process snapshot oracle
        d5 = tmp_path / "d5.json"
        assert main(["gen", "simplex", "--n", "5", "--out", str(d5)]) == 0
        capsys.readouterr()
        assert main(["protocol", "--in", str(d5), "--pattern", "iis",
                     "--json-out", str(summary)]) == 0
        out = capsys.readouterr().out
        assert "note: iis view families on facets of more than 5 processes" in out
        assert "oracle-validated range" in json.loads(summary.read_text())["note"]
        # on Δ² and Δ³, the note shows iff the schedule oracle refuses the facet
        for n in (2, 3):
            path = tmp_path / f"d{n}.json"
            assert main(["gen", "simplex", "--n", str(n), "--out", str(path)]) == 0
            c = gen_simplex(n)
            for pattern in PATTERNS:
                try:
                    schedule_oracle(c, next(iter(c.facets)), pattern)
                    refused = False
                except ResourceLimit:
                    refused = True
                capsys.readouterr()
                assert main(["protocol", "--in", str(path), "--pattern", pattern]) == 0
                assert ("note" in capsys.readouterr().out) == refused

    def test_non_integer_instance_exits_2(self, capsys):
        assert main(["reduce-setcover", "--universe", "a,b", "--subsets", "1"]) == 2
        assert main(["reduce-setcover", "--universe", "1", "--subsets", "x"]) == 2
        assert "need integers" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "doc, bad",
        [
            ('{"universe": [1, "a"], "subsets": [[1], ["a"]]}', "universe entry must be an integer, got 'a'"),
            ('{"universe": "ab", "subsets": [["a"]]}', "universe entry must be an integer, got 'a'"),
            ('{"universe": [true, 2], "subsets": [[2]]}', "universe entry must be an integer, got True"),
            ('{"universe": [1.5, 2], "subsets": [[2]]}', "universe entry must be an integer, got 1.5"),
            ('{"universe": [1, 2], "subsets": [[1], [2, false]]}', "subset entry must be an integer, got False"),
        ],
        ids=["string", "string-universe", "bool", "float", "bool-subset"],
    )
    def test_non_integer_instance_file_exits_2(self, tmp_path, capsys, doc, bad):
        # an instance file takes the integers --universe/--subsets take; a
        # valid file still reduces (test_reduce_setcover_from_a_file)
        path = tmp_path / "inst.json"
        path.write_text(doc)
        assert main(["reduce-setcover", "--in", str(path)]) == 2
        assert bad in capsys.readouterr().err

    def test_crash_exits_4_not_a_verdict(self, tmp_path, monkeypatch, capsys):
        src = self._gen(tmp_path)

        def crash(a, b):
            raise RecursionError("maximum recursion depth exceeded")

        monkeypatch.setattr("itermem.cli.is_isomorphic", crash)
        assert main(["verify", "--a", str(src), "--b", str(src)]) == 4
        assert "RecursionError" in capsys.readouterr().err

    def test_resource_limit_exit_3(self, tmp_path):
        src = self._gen(tmp_path)
        assert main(["subdivide", "--in", str(src), "--rounds", "4",
                     "--max-facets", "100"]) == 3

    def test_simulate_ic_of_the_3_simplex_at_the_default_budget(self, tmp_path):
        # IC(Δ³) simulates to IC²(Δ³), 294,849 facets, which the exact
        # facet count admits at the default budget and refuses one below
        d3, ic, enc = (tmp_path / f for f in ("d3.json", "ic.json", "enc.json"))
        assert main(["gen", "simplex", "--n", "3", "--out", str(d3)]) == 0
        assert main(["protocol", "--in", str(d3), "--pattern", "ic",
                     "--out", str(ic)]) == 0
        assert main(["greedy-star", "--in", str(ic), "--bits", "3",
                     "--out", str(enc)]) == 0
        args = ["simulate", "--in", str(ic), "--encodings", str(enc),
                "--verify-against", "ic"]
        assert main(args) == 0
        assert main([*args, "--max-facets", "294848"]) == 3
        # without the reference round, the simulation's own count refuses it
        assert main([*args[:-2], "--max-facets", "294848"]) == 3

    def test_iso_search_budget_exit_3(self, tmp_path, monkeypatch):
        # IC(glued(3)) against a vid-shuffled copy needs a second node
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        ic = protocol_complex(gen_glued(3), "ic", 1)
        a.write_bytes(export_complex(ic, "json"))
        b.write_bytes(export_complex(_permuted(ic, 5), "json"))
        monkeypatch.setattr("itermem.iso._NODE_BUDGET", 1)
        assert main(["verify", "--a", str(a), "--b", str(b)]) == 3
        # a file against itself is decided at the first node
        src = self._gen(tmp_path)
        assert main(["verify", "--a", str(src), "--b", str(src)]) == 0

    def test_gen_budget_checked_before_generating(self, monkeypatch):
        def generated(*args):
            raise AssertionError("generated past the budget")

        monkeypatch.setattr("itermem.cli.gen_random", generated)
        assert main(["gen", "random", "--n", "3", "--facets", "100000",
                     "--max-facets", "10"]) == 3
        monkeypatch.setattr("itermem.cli.gen_glued", generated)
        assert main(["gen", "glued", "--k", "11", "--max-facets", "10"]) == 3

    def test_seeded_gen_reproducible(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        assert main(["gen", "random", "--n", "3", "--facets", "5",
                     "--seed", "9", "--out", str(a)]) == 0
        assert main(["gen", "random", "--n", "3", "--facets", "5",
                     "--seed", "9", "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()
