"""Serialization: JSON round-trips, DOT 1-skeletons, f-vector CSV.

Vertex labels are canonicalized to strings on export (None becomes "",
tuples and frozensets render sorted), so byte-level round-trip stability
is export(import_complex(export(c))) == export(c).  Encoding files hold
one "assignment" map; a "groups" key, written by earlier versions, is
accepted and ignored.

A complex's JSON is, byte for byte, what
``json.dumps(complex_to_dict(c), indent=2, sort_keys=True) + "\n"``
writes, but it is built from rows by `str.join`: with any ``indent`` the
stdlib runs its pure-Python encoder, which was most of the cost of an
export.  Labels are escaped by the C-backed ``json.dumps(label)``.
"""

from __future__ import annotations

import json
from functools import lru_cache
from itertools import chain, combinations

from .complexes import ChromaticComplex, Simplex, Vertex, gc_paused
from .encoding import Encoding
from .errors import UnsupportedFormat
from .greedy import StarCoverTrace

FORMATS = ("json", "dot", "csv-fvector")


def _canonical_label(label) -> str:
    if type(label) is tuple and len(label) == 2:
        # the (color, (vid, ...)) labels StateRegistry writes, rendered as
        # the general rule below would render them
        color, vids = label
        if (
            type(color) is int
            and type(vids) is tuple
            and all(type(v) is int for v in vids)
        ):
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
        "n": len(c.colors()),
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


def _json_int(x, what: str) -> int:
    """x if it is a JSON integer; bools, floats and strings are rejected."""
    if type(x) is not int:
        raise UnsupportedFormat(f"{what} must be an integer, got {x!r}")
    return x


def _all_ints(rows) -> bool:
    """Whether every entry of every row is a JSON integer, in one C-level pass."""
    try:
        return set(map(type, chain.from_iterable(rows))) <= {int}
    except TypeError:  # a row that is not iterable
        return False


def complex_from_dict(d: dict) -> ChromaticComplex:
    try:
        n = _json_int(d["n"], "n")
        vertices = {}
        for row in d["vertices"]:
            vid = _json_int(row["vid"], "vid")
            vertices[vid] = Vertex(vid, _json_int(row["color"], "color"), row["label"])
        rows = d["facets"]
        if _all_ints(rows):
            facets = list(map(Simplex, rows))
        else:  # name the first offending entry
            facets = [Simplex(_json_int(v, "facet entry") for v in f) for f in rows]
    except (KeyError, TypeError) as exc:
        raise UnsupportedFormat(f"malformed complex document: {exc}") from exc
    # repeats would be dropped by the dict and the frozensets; the lengths
    # compare in C
    if len(vertices) != len(d["vertices"]):
        raise UnsupportedFormat("two vertex rows share a vid")
    if sum(map(len, rows)) != sum(map(len, facets)):
        bad = next(row for row, f in zip(rows, facets) if len(row) != len(f))
        raise UnsupportedFormat(f"facet row {bad} repeats a vid")
    colors = {v.color for v in vertices.values()}
    if colors and n < max(colors) + 1:
        raise UnsupportedFormat(f"n={n} below the {len(colors)} colors present")
    return ChromaticComplex(vertices, facets)


@gc_paused
def export_complex(c: ChromaticComplex, fmt: str) -> bytes:
    """Deterministic byte stream in one of json | dot | csv-fvector."""
    if fmt == "json":
        return _json_document(complex_to_dict(c)).encode()
    if fmt == "dot":
        return _to_dot(c).encode()
    if fmt == "csv-fvector":
        return ",".join(str(k) for k in c.f_vector()).encode()
    raise UnsupportedFormat(f"unknown export format {fmt!r}")


def _json_list(rows: list[str]) -> str:
    return "[\n" + ",\n".join(rows) + "\n  ]" if rows else "[]"


@lru_cache(maxsize=None)
def _facet_row(size: int) -> str:
    """The %-template of a facet row with `size` vids."""
    return "    [\n      " + ",\n      ".join(["%d"] * size) + "\n    ]"


def _json_document(doc: dict) -> str:
    """A `complex_to_dict` document in the indent=2, sort_keys=True layout."""
    # one %-format per facet row, in place of a str per vid and three joins
    facets = [_facet_row(len(f)) % tuple(f) for f in doc["facets"]]
    vertices = [
        f'    {{\n      "color": {v["color"]},\n'
        f'      "label": {json.dumps(v["label"])},\n'
        f'      "vid": {v["vid"]}\n    }}'
        for v in doc["vertices"]
    ]
    return (
        f'{{\n  "facets": {_json_list(facets)},\n  "n": {doc["n"]},\n'
        f'  "vertices": {_json_list(vertices)}\n}}\n'
    )


@gc_paused
def import_complex(data: bytes | str | dict) -> ChromaticComplex:
    if isinstance(data, dict):
        return complex_from_dict(data)
    try:
        doc = json.loads(data)
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise UnsupportedFormat(f"not JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise UnsupportedFormat("complex document must be a JSON object")
    return complex_from_dict(doc)


def _to_dot(c: ChromaticComplex) -> str:
    lines = ["graph complex {"]
    for v in sorted(c.vertices.values(), key=lambda v: v.vid):
        lines.append(
            f'  v{v.vid} [color={v.color}, label="{_canonical_label(v.label)}"];'
        )
    edges = set()
    for f in c.facets:
        edges.update(tuple(sorted(e)) for e in combinations(f, 2))
    for a, b in sorted(edges):
        lines.append(f"  v{a} -- v{b};")
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


def trace_to_dict(trace: StarCoverTrace) -> dict:
    return {
        "rounds": [
            {
                "centers": sorted(r.centers),
                "covered_facets": sorted(sorted(f) for f in r.covered),
                "assignment": encoding_to_dict(r.encoding)["assignment"],
            }
            for r in trace.rounds
        ]
    }
