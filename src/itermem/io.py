"""Serialization: JSON round-trips, DOT 1-skeletons, f-vector CSV.

Vertex labels are canonicalized to strings on export (None becomes "",
tuples and frozensets render sorted), so byte-level round-trip stability
is export(import_complex(export(c))) == export(c).  Encoding files hold
one "assignment" map; a "groups" key, written by earlier versions, is
accepted and ignored.  A star-cover trace is written from the complex, the
star sequence and each round's centers, which determine the rest.  In DOT,
each label is one quoted string: a quote and a backslash are escaped, and
a lone surrogate, which UTF-8 cannot encode, is written as its \\u escape.

A complex's JSON is, byte for byte, what
``json.dumps(complex_to_dict(c), indent=2, sort_keys=True) + "\n"``
writes: `complex_to_dict` is the byte specification, and `_to_json` is
the one writer.  The writer formats the complex's row table
(`ChromaticComplex.rows`, sorted at most once per complex) and its vertex
table, with no intermediate document: with any ``indent`` the stdlib runs
its pure-Python encoder, which was most of the cost of an export.  Labels
are escaped by ``json.encoder.encode_basestring_ascii``, the C function
that ``json.dumps(label)`` itself calls, so the bytes are the same.  An
import whose facet rows are already in that order keeps them as the
imported complex's row table, so exporting it again sorts nothing.
"""

from __future__ import annotations

import json
from functools import lru_cache
from itertools import chain, compress, islice
from json.encoder import encode_basestring_ascii
from operator import itemgetter, lt

from .complexes import ChromaticComplex, Simplex, Vertex, gc_paused
from .encoding import Encoding
from .errors import UnsupportedFormat

FORMATS = ("json", "dot", "csv-fvector")
_INT = frozenset({int})


def _canonical_label(label) -> str:
    if type(label) is tuple and len(label) == 2:
        # the (color, (vid, ...)) labels StateRegistry writes, rendered as
        # the general rule below would render them
        color, vids = label
        if type(color) is int and type(vids) is tuple and _INT.issuperset(map(type, vids)):
            return f"({color},({','.join(map(str, vids))}))"
    if label is None:
        return ""
    if isinstance(label, str):
        return label
    if isinstance(label, (tuple, list)):
        return "(" + ",".join(_canonical_label(x) for x in label) + ")"
    if isinstance(label, (set, frozenset)):
        return "{" + ",".join(sorted(_canonical_label(x) for x in label)) + "}"
    return str(label)


# -- complexes ------------------------------------------------------------------


def complex_to_dict(c: ChromaticComplex) -> dict:
    return {
        "n": max(c.colors(), default=-1) + 1,
        "vertices": [
            {
                "vid": v.vid,
                "color": v.color,
                "label": _canonical_label(v.label),
            }
            for v in sorted(c.vertices.values(), key=lambda v: v.vid)
        ],
        "facets": sorted(sorted(f) for f in c.facets),
    }


def _typed(rows, kind: type, what: str):
    """rows, once every entry of every row has type `kind`, int or str (one
    C-level pass, so bools and floats are not ints); else UnsupportedFormat
    naming the first entry that has not."""
    if not set(map(type, chain.from_iterable(rows))) <= {kind}:
        bad = next(x for row in rows for x in row if type(x) is not kind)
        must = "an integer" if kind is int else "a string"
        raise UnsupportedFormat(f"{what} must be {must}, got {bad!r}")
    return rows


def complex_from_dict(d: dict) -> ChromaticComplex:
    """The complex a `complex_to_dict` document describes.

    A document export never writes raises UnsupportedFormat rather than
    read as some other complex: a vid listed twice, a facet row that is
    empty or repeats a vid, a label that is not a string, a vertex row no
    facet uses, or n not above every color.  Every check is a C-level pass
    over the rows; a Python loop runs only to name the first offender.
    An n above the largest color + 1 is accepted, since a hand-written file
    may give the process count of a smaller complex; the complex does not
    keep it, so a re-export writes n as the largest color + 1.

    When the facet rows are already in the order export writes them
    (`_canonical`), they become the complex's row table, so a re-export
    sorts nothing.
    """
    try:
        [[n]] = _typed([[d["n"]]], int, "n")
        rows = d["vertices"]
        [vids] = _typed([list(map(itemgetter("vid"), rows))], int, "vid")
        [colors] = _typed([list(map(itemgetter("color"), rows))], int, "color")
        [labels] = _typed([list(map(itemgetter("label"), rows))], str, "label")
        table = tuple(map(tuple, _typed(d["facets"], int, "facet entry")))
        facets = list(map(Simplex, table))
    except (KeyError, TypeError) as exc:
        raise UnsupportedFormat(f"malformed complex document: {exc}") from exc
    vertices = dict(zip(vids, map(Vertex, vids, colors, labels)))
    if len(vertices) != len(vids):
        raise UnsupportedFormat("two vertex rows share a vid")
    if sum(map(len, table)) != sum(map(len, facets)):
        bad = next(row for row, f in zip(d["facets"], facets) if len(row) != len(f))
        raise UnsupportedFormat(f"facet row {bad} repeats a vid")
    if not all(facets):
        raise UnsupportedFormat("a facet row is empty")
    if colors and n <= max(colors):
        raise UnsupportedFormat(f"n={n} does not exceed color {max(colors)}")
    c = ChromaticComplex(vertices, facets)
    if len(c.vertices) != len(vertices):  # the constructor drops unused vertices
        raise UnsupportedFormat(f"vid {min(vertices.keys() - c.vertices)} is in no facet")
    if _canonical(table):
        c._rows = table
    return c


def _canonical(rows: tuple[tuple[int, ...], ...]) -> bool:
    """Whether the rows are strictly ascending and each row is strictly
    ascending: the order of `ChromaticComplex.rows`.

    C-level passes only: consecutive rows are compared once, and the rows
    of each size are checked column against column in one flat list, which
    costs less than sorting every row.
    """
    if not all(map(lt, rows, islice(rows, 1, None))):
        return False
    sizes = set(map(len, rows))
    for size in sizes:
        same = rows if len(sizes) == 1 else compress(rows, map(size.__eq__, map(len, rows)))
        flat = list(chain.from_iterable(same))
        if not all(all(map(lt, flat[i - 1 :: size], flat[i::size])) for i in range(1, size)):
            return False
    return True


@gc_paused
def export_complex(c: ChromaticComplex, fmt: str) -> bytes:
    """Deterministic byte stream in one of json | dot | csv-fvector."""
    if fmt == "json":
        return _to_json(c).encode()
    if fmt == "dot":
        # a lone surrogate, which a JSON label may hold, is written as its
        # \u escape, inside the DOT string like any escape
        return _to_dot(c).encode("utf-8", "backslashreplace")
    if fmt == "csv-fvector":
        return ",".join(str(k) for k in c.f_vector()).encode()
    raise UnsupportedFormat(f"unknown export format {fmt!r}")


def _json_list(rows: str) -> str:
    """A JSON array, in the indent=2 layout, of rows already joined by a
    comma and a newline."""
    return "[\n" + rows + "\n  ]" if rows else "[]"


@lru_cache(maxsize=None)
def _facet_row(size: int) -> str:
    """The %-template of a facet row with `size` vids."""
    return "    [\n      " + ",\n      ".join(["%d"] * size) + "\n    ]"


_VERTEX_ROW = '    {\n      "color": %s,\n      "label": %s,\n      "vid": %s\n    }'


def _to_json(c: ChromaticComplex) -> str:
    """`complex_to_dict(c)` in the indent=2, sort_keys=True layout, written
    straight from the row table (`ChromaticComplex.rows`) and the vertex
    table."""
    # one %-format over every facet row's template, in place of a str per
    # entry and three joins
    rows = c.rows()
    facets = ",\n".join(map(_facet_row, map(len, rows))) % tuple(chain.from_iterable(rows))
    vertices = ",\n".join(
        [
            _VERTEX_ROW % (v.color, encode_basestring_ascii(_canonical_label(v.label)), vid)
            for vid, v in sorted(c.vertices.items())
        ]
    )
    return (
        f'{{\n  "facets": {_json_list(facets)},\n'
        f'  "n": {max(c.colors(), default=-1) + 1},\n'
        f'  "vertices": {_json_list(vertices)}\n}}\n'
    )


def _unique_keys(pairs: list[tuple[str, object]]) -> dict:
    """A JSON object as a dict; a repeated key, which the dict would keep
    only the last of, raises UnsupportedFormat (`_loads`' object hook)."""
    obj = dict(pairs)
    if len(obj) != len(pairs):
        keys = [k for k, _v in pairs]
        key = next(k for k in keys if keys.count(k) > 1)
        raise UnsupportedFormat(f"JSON object repeats key {key!r}")
    return obj


def _loads(data: bytes | str):
    """JSON text as Python values, refusing repeated object keys; text that
    is not UTF-8 JSON raises UnsupportedFormat."""
    try:
        return json.loads(data, object_pairs_hook=_unique_keys)
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise UnsupportedFormat(f"not JSON: {exc}") from exc


@gc_paused
def import_complex(data: bytes | str | dict) -> ChromaticComplex:
    # any other JSON value is refused by complex_from_dict's lookups
    return complex_from_dict(data if isinstance(data, dict) else _loads(data))


def _to_dot(c: ChromaticComplex) -> str:
    lines = ["graph complex {"]
    for v in sorted(c.vertices.values(), key=lambda v: v.vid):
        label = _canonical_label(v.label).replace("\\", "\\\\").replace('"', '\\"')
        lines.append(f'  v{v.vid} [color={v.color}, label="{label}"];')
    adj = c.adjacency()
    for a in sorted(adj):
        lines += [f"  v{a} -- v{b};" for b in adj[a] if a < b]
    lines.append("}")
    return "\n".join(lines) + "\n"


# -- encodings ------------------------------------------------------------------


def encoding_to_dict(e: Encoding) -> dict:
    """Assignment over the coded vids; bottom entries are left out."""
    return {"assignment": {str(v): k for v, k in sorted(e.items())}}


def _vid_key(key: str) -> int:
    """An assignment key as a vid; only the digits `str(vid)` writes are read."""
    try:
        vid = int(key)
    except (TypeError, ValueError):
        vid = None
    if vid is None or str(vid) != key:
        raise UnsupportedFormat(f"assignment key {key!r} is not a canonical vid")
    return vid


def encoding_from_dict(d: dict) -> Encoding:
    try:
        codes = {_vid_key(v): x for v, x in d["assignment"].items()}
    except (KeyError, TypeError, AttributeError) as exc:
        raise UnsupportedFormat(f"malformed encoding document: {exc}") from exc
    return Encoding(codes)


def sequence_to_list(seq: list[Encoding]) -> list[dict]:
    return [encoding_to_dict(e) for e in seq]


def sequence_from_list(doc) -> list[Encoding]:
    if not isinstance(doc, list):
        raise UnsupportedFormat("encoding sequence must be a JSON array")
    return [encoding_from_dict(d) for d in doc]


# -- traces ---------------------------------------------------------------------


def trace_to_dict(
    c: ChromaticComplex, seq: list[Encoding], centers: list[tuple[int, ...]]
) -> dict:
    """The star cover's trace: per round of `greedy.greedy_star`'s
    (seq, centers), its centers, the facets of c it covers (those that hold
    one of its centers, all coded whole by its encoding) and its assignment.

    The facets are read from one vid -> facets index, so the trace takes
    one pass over c, not one per round."""
    through: dict[int, list[Simplex]] = {}
    for f in c.facets:
        for v in f:
            through.setdefault(v, []).append(f)
    return {
        "rounds": [
            {
                "centers": sorted(chosen),
                "covered_facets": sorted(
                    sorted(f) for f in {f for v in chosen for f in through.get(v, ())}
                ),
                "assignment": encoding_to_dict(enc)["assignment"],
            }
            for enc, chosen in zip(seq, centers)
        ]
    }
