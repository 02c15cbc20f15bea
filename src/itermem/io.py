"""Serialization: JSON round-trips, DOT 1-skeletons, f-vector CSV.

Vertex labels are canonicalized to strings on export (None becomes "",
tuples and frozensets render sorted), so byte-level round-trip stability
is export(import_complex(export(c))) == export(c).  Encoding files add an
optional "groups" key preserving block metadata; readers that ignore it
still see the plain assignment schema.
"""

from __future__ import annotations

import json
from itertools import combinations

from .complexes import ChromaticComplex, Simplex, Vertex
from .encoding import Encoding
from .errors import UnsupportedFormat
from .greedy import StarCoverTrace

FORMATS = ("json", "dot", "csv-fvector")


def _canonical_label(label) -> str:
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


def complex_from_dict(d: dict) -> ChromaticComplex:
    try:
        n = d["n"]
        vertices = {
            int(row["vid"]): Vertex(int(row["vid"]), int(row["color"]), row["label"])
            for row in d["vertices"]
        }
        facets = [Simplex(int(v) for v in f) for f in d["facets"]]
    except (KeyError, TypeError, ValueError) as exc:
        raise UnsupportedFormat(f"malformed complex document: {exc}") from exc
    colors = {v.color for v in vertices.values()}
    if colors and n < max(colors) + 1:
        raise UnsupportedFormat(f"n={n} below the {len(colors)} colors present")
    return ChromaticComplex(vertices, facets)


def export_complex(c: ChromaticComplex, fmt: str) -> bytes:
    """Deterministic byte stream in one of json | dot | csv-fvector."""
    if fmt == "json":
        return (
            json.dumps(complex_to_dict(c), indent=2, sort_keys=True) + "\n"
        ).encode()
    if fmt == "dot":
        return _to_dot(c).encode()
    if fmt == "csv-fvector":
        return ",".join(str(k) for k in c.f_vector()).encode()
    raise UnsupportedFormat(f"unknown export format {fmt!r}")


def import_complex(data: bytes | str | dict) -> ChromaticComplex:
    if isinstance(data, dict):
        return complex_from_dict(data)
    try:
        doc = json.loads(data)
    except json.JSONDecodeError as exc:
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


def encoding_to_dict(e: Encoding, vids=None) -> dict:
    """Assignment over vids (default: coded vids only), null for bottom."""
    scope = sorted(vids) if vids is not None else sorted(e.coded_vids())
    doc: dict = {"assignment": {str(v): e.value(v) for v in scope}}
    if e.groups is not None:
        doc["groups"] = [sorted(g) for g in e.groups]
    return doc


def encoding_from_dict(d: dict) -> Encoding:
    try:
        codes = {int(v): x for v, x in d["assignment"].items()}
        groups = (
            tuple(tuple(sorted(int(v) for v in g)) for g in d["groups"])
            if "groups" in d
            else None
        )
    except (KeyError, TypeError, ValueError, AttributeError) as exc:
        raise UnsupportedFormat(f"malformed encoding document: {exc}") from exc
    return Encoding(codes, groups=groups)


def sequence_to_list(seq: list[Encoding], vids=None) -> list[dict]:
    return [encoding_to_dict(e, vids) for e in seq]


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
                "covered_facets": sorted(sorted(f) for f in r.covered.facets),
                "assignment": encoding_to_dict(r.encoding)["assignment"],
            }
            for r in trace.rounds
        ]
    }
