"""Command-line front end.

Every subcommand prints a short human summary to stdout and can mirror a
machine-readable summary to --json-out.  Exit codes: 0 success/verified,
1 verification failed, 2 usage error, 3 resource limit, 4 any other
exception (its type is printed, so a crash never reads as a verdict).
"""

from __future__ import annotations

import argparse
import json
import sys
from functools import cache
from pathlib import Path

from .bounds import bounds_table
from .complexes import DEFAULT_MAX_FACETS, ChromaticComplex, gc_paused
from .encoding import _cover_witness, _width_witness, lower_bound_rounds, verify_cover
from .errors import (
    AmbiguousDecode,
    InvalidParameters,
    ItermemError,
    ResourceLimit,
    UnsupportedFormat,
)
from .generators import gen_glued, gen_path, gen_random, gen_simplex
from .greedy import greedy_star, split_to_budget
from .io import (
    FORMATS,
    _loads,
    _typed,
    export_complex,
    import_complex,
    sequence_from_list,
    sequence_to_list,
    trace_to_dict,
)
from .iso import is_isomorphic
from .protocols import ORACLE_CAP, PATTERNS, iterate_subdivide, protocol_complex
from .setcover import (
    SetCoverInstance,
    exact_min_sequence,
    explain_reduction,
    set_cover_reduce,
)
from .simulator import bounded_protocol_complex, code_collision_counterexample


def _read_complex(path: str) -> ChromaticComplex:
    return import_complex(Path(path).read_bytes())


def _write(path: str, data: bytes) -> None:
    if path == "-":
        sys.stdout.buffer.write(data)
    else:
        Path(path).write_bytes(data)


def _write_json(path: str, doc) -> None:
    _write(path, (_json_text(doc) + "\n").encode())


# one scalar or empty container, by the C encoder, which leaves no cycle
_leaf = json.JSONEncoder(default=repr).encode


def _json_text(doc, indent: str = "\n") -> str:
    """``json.dumps(doc, indent=2, sort_keys=True, default=repr)``.

    The standard library indents with a pure-Python encoder whose closures
    form a reference cycle on every call, so containers are laid out here
    and only their leaves go through `_leaf`.
    """
    inner = indent + "  "
    if isinstance(doc, dict) and doc:
        items = [
            f"{inner}{_leaf(k if isinstance(k, str) else _leaf(k))}: {_json_text(v, inner)}"
            for k, v in sorted(doc.items())
        ]
        return "{" + ",".join(items) + indent + "}"
    if isinstance(doc, (list, tuple)) and doc:
        return "[" + ",".join(inner + _json_text(v, inner) for v in doc) + indent + "]"
    return _leaf(doc)


def _read_sequence(path: str) -> list:
    return sequence_from_list(_loads(Path(path).read_bytes()))


def _emit(args, summary: dict) -> None:
    if getattr(args, "json_out", None):
        _write_json(args.json_out, summary)


def _save_complex(args, c: ChromaticComplex) -> None:
    if getattr(args, "out", None):
        _write(args.out, export_complex(c, "json"))


def _too_wide(args, seq: list, summary: dict) -> bool:
    """Under --bits, whether some code of seq does not fit the register; the
    first such code is printed and emitted with the summary."""
    if args.bits is None:
        return False
    w = _width_witness(seq, args.bits)
    summary["fits_bits"] = w is None
    if w is not None:
        summary["witness"] = w
        print(f"codes fit a {args.bits}-bit register: False")
        print(
            f"witness: round {w['round']} codes vid {w['vid']} as {w['code']}, "
            f"outside 1..2^{args.bits} - 1"
        )
        _emit(args, summary)
    return w is not None


# -- subcommand bodies ----------------------------------------------------------


def _cmd_gen(args) -> int:
    # facet counts are known before building: 1, k, m, and at most --facets
    projected = {"simplex": 1, "glued": args.k, "path": args.m, "random": args.facets}
    if projected[args.kind] > args.max_facets:
        raise ResourceLimit(f"{projected[args.kind]} facets exceed --max-facets")
    if args.kind == "simplex":
        c = gen_simplex(args.n)
    elif args.kind == "glued":
        c = gen_glued(args.k)
    elif args.kind == "path":
        c = gen_path(args.m)
    else:
        c = gen_random(args.seed, args.n, args.facets)
    _save_complex(args, c)
    summary = {
        "kind": args.kind,
        "vertices": len(c.vertices),
        "facets": len(c.facets),
    }
    if args.json_out:  # the f-vector is printed nowhere else
        summary["f_vector"] = list(c.f_vector())
    print(
        f"generated {args.kind}: {summary['vertices']} vertices, "
        f"{summary['facets']} facets"
    )
    _emit(args, summary)
    return 0


def _cmd_subdivide(args) -> int:
    c = _read_complex(args.infile)
    out = iterate_subdivide(c, args.rounds, max_facets=args.max_facets)
    _save_complex(args, out)
    print(
        f"subdivided {args.rounds}x: {len(out.vertices)} vertices, "
        f"{len(out.facets)} facets"
    )
    if args.json_out:  # counting faces can cost more than subdividing
        _emit(args, {"rounds": args.rounds, "f_vector": list(out.f_vector())})
    return 0


def _cmd_protocol(args) -> int:
    c = _read_complex(args.infile)
    out = protocol_complex(c, args.pattern, args.rounds, max_facets=args.max_facets)
    _save_complex(args, out)
    summary = {
        "pattern": args.pattern,
        "rounds": args.rounds,
        "vertices": len(out.vertices),
        "facets": len(out.facets),
    }
    cap = ORACLE_CAP[args.pattern]
    if max(map(len, c.facets), default=0) > cap:
        summary["note"] = (
            f"{args.pattern} view families on facets of more than {cap} processes"
            " are produced by the closed form but exceed the oracle-validated range"
        )
    print(
        f"{args.pattern} x{args.rounds}: {summary['vertices']} vertices, "
        f"{summary['facets']} facets"
    )
    if "note" in summary:
        print(f"note: {summary['note']}")
    _emit(args, summary)
    return 0


def _cmd_greedy_star(args) -> int:
    c = _read_complex(args.infile)
    star, centers = greedy_star(c)
    seq = star if args.bits is None else split_to_budget(star, c, args.bits)
    covered = verify_cover(c, seq)
    if args.out:
        _write_json(args.out, sequence_to_list(seq))
    if args.trace:  # the star cover's rounds, not the packed ones
        _write_json(args.trace, trace_to_dict(c, star, centers))
    summary = {
        "outer_rounds": len(star),
        "rounds": len(seq),
        "bits": args.bits,
        "cover_verified": covered,
        "degree_lower": lower_bound_rounds(c, args.bits) if args.bits else None,
    }
    print(
        f"star cover: {len(star)} outer rounds, {len(seq)} rounds after packing, "
        f"cover {'verified' if covered else 'FAILED'}"
    )
    _emit(args, summary)
    return 0 if covered else 1


def _cmd_simulate(args) -> int:
    c = _read_complex(args.infile)
    seq = _read_sequence(args.encodings)
    summary: dict = {"rounds": len(seq)}
    if _too_wide(args, seq, summary):
        return 1
    out = bounded_protocol_complex(c, seq, max_facets=args.max_facets)
    _save_complex(args, out)
    summary["vertices"] = len(out.vertices)
    summary["facets"] = len(out.facets)
    code = 0
    if args.verify_against:
        ref = protocol_complex(c, args.verify_against, 1, max_facets=args.max_facets)
        # a covering sequence simulates to the reference itself, so equality
        # decides the common case; the search runs only when it fails
        equal = out == ref
        ok = equal or is_isomorphic(out, ref)[0]
        summary["equal"] = equal
        summary["isomorphic"] = ok
        code = 0 if ok else 1
        print(
            f"simulated {len(seq)} rounds: isomorphism to 1-round "
            f"{args.verify_against} {'verified' if ok else 'FAILED'}"
        )
    else:
        print(
            f"simulated {len(seq)} rounds: {summary['vertices']} vertices, "
            f"{summary['facets']} facets"
        )
    _emit(args, summary)
    return code


def _cmd_verify(args) -> int:
    if (args.a or args.b) and (args.infile or args.encodings):
        raise InvalidParameters(
            "give one mode: isomorphism (--a/--b) or cover (--in/--encodings)"
        )
    if args.a or args.b:
        if not (args.a and args.b):
            raise InvalidParameters("--a and --b go together")
        if args.bits is not None:
            raise InvalidParameters("--bits checks encodings, in cover mode only")
        ok, _ = is_isomorphic(_read_complex(args.a), _read_complex(args.b))
        print(f"isomorphic: {ok}")
        _emit(args, {"isomorphic": ok})
        return 0 if ok else 1
    if not (args.infile and args.encodings):
        raise InvalidParameters("need --a/--b or --in/--encodings")
    c = _read_complex(args.infile)
    seq = _read_sequence(args.encodings)
    summary: dict = {}
    if _too_wide(args, seq, summary):
        return 1
    w = _cover_witness(c, seq)
    print(f"cover verified: {w is None}")
    summary["cover_verified"] = w is None
    if w is not None:
        summary["witness"] = w
        print("witness: " + (
            f"no round codes facet {w['facet']} whole" if "facet" in w else
            f"in round {w['round']}, value {w['code']} from color {w['color']} "
            f"matches vids {w['vids']} near vid {w['reader']}"
        ))
    _emit(args, summary)
    return 0 if w is None else 1


def _cmd_bounds(args) -> int:
    c = _read_complex(args.infile) if args.infile else None
    report = bounds_table(args.n, args.r, args.b, c=c, measured_rounds=args.measured)
    for key, val in report.rows():
        print(f"{key}: {val}")
    _emit(args, {k: v for k, v in report.rows()})
    return 0


def _parse_instance(args) -> SetCoverInstance:
    if args.infile:
        doc = _loads(Path(args.infile).read_bytes())
        try:
            # the integers --universe/--subsets take, as complex documents check them
            [universe] = _typed([doc["universe"]], int, "universe entry")
            subsets = _typed(doc["subsets"], int, "subset entry")
            return SetCoverInstance(universe, subsets)
        except (KeyError, TypeError) as exc:
            raise UnsupportedFormat(f"malformed instance: {exc}") from exc
    if not args.universe or not args.subsets:
        raise InvalidParameters("need --in or both --universe and --subsets")
    try:
        universe = [int(x) for x in args.universe.split(",") if x]
        subsets = [
            [int(x) for x in grp.split(",") if x]
            for grp in args.subsets.split(";")
            if grp
        ]
    except ValueError as exc:
        raise InvalidParameters(f"--universe/--subsets need integers: {exc}") from exc
    return SetCoverInstance(universe, subsets)


def _cmd_reduce_setcover(args) -> int:
    inst = _parse_instance(args)
    c = set_cover_reduce(inst)
    _save_complex(args, c)
    if args.explain:
        print(explain_reduction(inst))
    print(f"reduced: {len(c.vertices)} vertices, {len(c.facets)} facets")
    _emit(
        args,
        {
            "vertices": len(c.vertices),
            "facets": len(c.facets),
            "uncovered": sorted(inst.uncovered()),
        },
    )
    return 0


def _cmd_exact_min(args) -> int:
    c = _read_complex(args.infile)
    length, seq = exact_min_sequence(c)
    print(f"minimum rounds: {length}")
    _emit(args, {"length": length, "sequence": sequence_to_list(seq)})
    return 0


def _cmd_export(args) -> int:
    c = _read_complex(args.infile)
    data = export_complex(c, args.format)
    _write(args.out, data)
    if args.out != "-":
        print(f"wrote {len(data)} bytes of {args.format}")
    _emit(args, {"format": args.format, "bytes": len(data)})
    return 0


def _cmd_counterexample(args) -> int:
    c, seq, evidence = code_collision_counterexample()
    _save_complex(args, c)
    if args.encodings_out:
        _write_json(args.encodings_out, sequence_to_list(seq))
    print(
        "single shared-code round on the two-triangle complex: "
        f"{len(evidence['merged_states'])} merged states, intersection "
        f"preserved: {evidence['intersection_preserved']}, repaired encoding "
        f"isomorphic to full information: "
        f"{evidence['repaired_isomorphic_to_full_information']}"
    )
    _emit(args, evidence)
    return 0


# -- parser ---------------------------------------------------------------------


def _int_from(low: int):
    """An option type: an integer >= low, so anything else is a usage error."""

    def parse(text: str) -> int:
        try:
            n = int(text)
        except ValueError:
            n = low - 1
        if n < low:
            raise argparse.ArgumentTypeError(f"need an integer >= {low}, got {text!r}")
        return n

    return parse


@cache
def build_parser() -> argparse.ArgumentParser:
    """The parser for every subcommand, built once per process.

    Parsing does not change a parser (each call fills a new namespace), so
    `main` reuses this one; building it costs more than most commands.
    Every caller gets the same parser, so none may add to it.
    """
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json-out", help="write a JSON summary to this path")
    budget = argparse.ArgumentParser(add_help=False)
    budget.add_argument(
        "--max-facets",
        type=_int_from(0),
        default=DEFAULT_MAX_FACETS,
        help="facet budget for enumerations",
    )

    p = argparse.ArgumentParser(
        prog="itermem",
        description="chromatic complexes, iterated protocols, bounded encodings",
    )
    sub = p.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen", parents=[common, budget], help="generate a complex")
    g.add_argument("kind", choices=("simplex", "glued", "path", "random"))
    g.add_argument("--n", type=int, default=2, help="simplex dimension / colors")
    g.add_argument("--k", type=int, default=2, help="glued triangle count")
    g.add_argument("--m", type=int, default=3, help="path triangle count")
    g.add_argument("--facets", type=int, default=5, help="random facet count")
    g.add_argument("--seed", type=int, default=0, help="random complex seed")
    g.add_argument("--out", help="write the complex JSON here")
    g.set_defaults(func=_cmd_gen)

    s = sub.add_parser(
        "subdivide", parents=[common, budget], help="chromatic subdivision"
    )
    s.add_argument("--in", dest="infile", required=True)
    s.add_argument("--rounds", type=int, default=1)
    s.add_argument("--out")
    s.set_defaults(func=_cmd_subdivide)

    pr = sub.add_parser(
        "protocol", parents=[common, budget], help="full-information complex"
    )
    pr.add_argument("--in", dest="infile", required=True)
    pr.add_argument("--pattern", choices=PATTERNS, required=True)
    pr.add_argument("--rounds", type=int, default=1)
    pr.add_argument("--out")
    pr.set_defaults(func=_cmd_protocol)

    gs = sub.add_parser("greedy-star", parents=[common], help="star-cover encodings")
    gs.add_argument("--in", dest="infile", required=True)
    gs.add_argument("--bits", type=int, help="pack into rounds of this register width")
    gs.add_argument("--out", help="write the encoding sequence here")
    gs.add_argument("--trace", help="write the round trace here")
    gs.set_defaults(func=_cmd_greedy_star)

    si = sub.add_parser(
        "simulate", parents=[common, budget], help="bounded-register runs"
    )
    si.add_argument("--in", dest="infile", required=True)
    si.add_argument("--encodings", required=True)
    si.add_argument("--out")
    si.add_argument("--verify-against", choices=("ic",))
    si.add_argument("--bits", type=_int_from(1), help="refuse codes outside 1..2^bits - 1")
    si.set_defaults(func=_cmd_simulate)

    v = sub.add_parser("verify", parents=[common], help="isomorphism or cover check")
    v.add_argument("--a", help="first complex (isomorphism mode)")
    v.add_argument("--b", help="second complex (isomorphism mode)")
    v.add_argument("--in", dest="infile", help="complex (cover mode)")
    v.add_argument("--encodings", help="sequence (cover mode)")
    v.add_argument(
        "--bits", type=_int_from(1), help="refuse codes outside 1..2^bits - 1 (cover mode)"
    )
    v.set_defaults(func=_cmd_verify)

    b = sub.add_parser("bounds", parents=[common], help="round-complexity table")
    b.add_argument("--n", type=int, required=True)
    b.add_argument("--r", type=int, required=True)
    b.add_argument("--b", type=int, required=True)
    b.add_argument("--in", dest="infile", help="complex for the degree lower bound")
    b.add_argument("--measured", type=int, help="measured rounds to report")
    b.set_defaults(func=_cmd_bounds)

    rs = sub.add_parser(
        "reduce-setcover", parents=[common], help="set cover to complex"
    )
    rs.add_argument("--in", dest="infile", help="instance JSON")
    rs.add_argument("--universe", help="comma-separated elements")
    rs.add_argument("--subsets", help="semicolon-separated comma lists")
    rs.add_argument("--out")
    rs.add_argument("--explain", action="store_true")
    rs.set_defaults(func=_cmd_reduce_setcover)

    em = sub.add_parser("exact-min", parents=[common], help="optimal round count")
    em.add_argument("--in", dest="infile", required=True)
    em.set_defaults(func=_cmd_exact_min)

    ex = sub.add_parser("export", parents=[common], help="serialize a complex")
    ex.add_argument("--in", dest="infile", required=True)
    ex.add_argument("--format", choices=FORMATS, default="json")
    ex.add_argument("--out", default="-")
    ex.set_defaults(func=_cmd_export)

    ce = sub.add_parser(
        "counterexample", parents=[common], help="shared-code failure artifact"
    )
    ce.add_argument("--out", help="write the complex here")
    ce.add_argument("--encodings-out", help="write the broken sequence here")
    ce.set_defaults(func=_cmd_counterexample)
    return p


# first matching entry wins; any other exception exits 4
_EXIT_CODES = (
    (AmbiguousDecode, "verification failed", 1),
    (ResourceLimit, "resource limit", 3),
    ((ItermemError, OSError), "error", 2),
)


@gc_paused
def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse exits 2 on usage, 0 on --help
        return int(exc.code or 0)
    try:
        return args.func(args)
    except Exception as exc:
        for kind, prefix, code in _EXIT_CODES:
            if isinstance(exc, kind):
                print(f"{prefix}: {exc}", file=sys.stderr)
                return code
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    raise SystemExit(main())
