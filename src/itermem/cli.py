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
from pathlib import Path

from .bounds import bounds_table
from .complexes import DEFAULT_MAX_FACETS, ChromaticComplex
from .encoding import lower_bound_rounds
from .errors import (
    AmbiguousDecode,
    InvalidParameters,
    ItermemError,
    ResourceLimit,
    UnsupportedFormat,
)
from .generators import gen_glued, gen_path, gen_random, gen_simplex
from .greedy import greedy_star, split_to_budget, upper_bound_rounds, verify_cover
from .io import (
    FORMATS,
    export_complex,
    import_complex,
    sequence_from_list,
    sequence_to_list,
    trace_to_dict,
)
from .iso import is_isomorphic
from .protocols import PATTERNS, protocol_complex
from .setcover import (
    SetCoverInstance,
    exact_min_sequence,
    explain_reduction,
    set_cover_reduce,
)
from .simulator import bounded_protocol_complex, code_collision_counterexample
from .subdivision import iterate_subdivide


def _read_complex(path: str) -> ChromaticComplex:
    return import_complex(Path(path).read_bytes())


def _write(path: str, data: bytes) -> None:
    if path == "-":
        sys.stdout.buffer.write(data)
    else:
        Path(path).write_bytes(data)


def _emit(args, summary: dict) -> None:
    if getattr(args, "json_out", None):
        text = json.dumps(summary, indent=2, sort_keys=True, default=repr) + "\n"
        _write(args.json_out, text.encode())


def _save_complex(args, c: ChromaticComplex) -> None:
    if getattr(args, "out", None):
        _write(args.out, export_complex(c, "json"))


# -- subcommand bodies ----------------------------------------------------------


def _cmd_gen(args) -> int:
    if args.kind == "simplex":
        c = gen_simplex(args.n)
    elif args.kind == "glued":
        c = gen_glued(args.k)
    elif args.kind == "path":
        c = gen_path(args.m)
    else:
        c = gen_random(args.seed, args.n, args.facets)
    if len(c.facets) > args.max_facets:
        raise ResourceLimit(f"{len(c.facets)} facets exceed --max-facets")
    _save_complex(args, c)
    summary = {
        "kind": args.kind,
        "vertices": len(c.vertices),
        "facets": len(c.facets),
        "f_vector": list(c.f_vector()),
    }
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
    if args.pattern == "ic" and len(c.colors()) > 3:
        summary["note"] = (
            "collect view families for more than 3 colors are produced by the"
            " closed form but exceed the oracle-validated range"
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
    seq, trace = greedy_star(c)
    outer = len(seq)
    if args.bits is not None:
        seq = split_to_budget(seq, c, args.bits)
    covered = verify_cover(c, seq)
    if args.out:
        doc = json.dumps(sequence_to_list(seq), indent=2, sort_keys=True) + "\n"
        _write(args.out, doc.encode())
    if args.trace:
        doc = json.dumps(trace_to_dict(trace), indent=2, sort_keys=True) + "\n"
        _write(args.trace, doc.encode())
    summary = {
        "outer_rounds": outer,
        "rounds": len(seq),
        "bits": args.bits,
        "cover_verified": covered,
        "degree_lower": lower_bound_rounds(c, args.bits) if args.bits else None,
        "degree_upper": upper_bound_rounds(c, args.bits) if args.bits else None,
    }
    print(
        f"star cover: {outer} outer rounds, {len(seq)} rounds after split, "
        f"cover {'verified' if covered else 'FAILED'}"
    )
    _emit(args, summary)
    return 0 if covered else 1


def _cmd_simulate(args) -> int:
    c = _read_complex(args.infile)
    seq = sequence_from_list(json.loads(Path(args.encodings).read_text()))
    out = bounded_protocol_complex(c, seq, max_facets=args.max_facets)
    _save_complex(args, out)
    summary = {
        "rounds": len(seq),
        "vertices": len(out.vertices),
        "facets": len(out.facets),
    }
    code = 0
    if args.verify_against:
        ref = protocol_complex(c, args.verify_against, 1, max_facets=args.max_facets)
        ok, _ = is_isomorphic(out, ref)
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
    if args.a or args.b:
        if not (args.a and args.b):
            raise InvalidParameters("--a and --b go together")
        ok, _ = is_isomorphic(_read_complex(args.a), _read_complex(args.b))
        print(f"isomorphic: {ok}")
        _emit(args, {"isomorphic": ok})
        return 0 if ok else 1
    if not (args.infile and args.encodings):
        raise InvalidParameters("need --a/--b or --in/--encodings")
    c = _read_complex(args.infile)
    seq = sequence_from_list(json.loads(Path(args.encodings).read_text()))
    ok = verify_cover(c, seq)
    print(f"cover verified: {ok}")
    _emit(args, {"cover_verified": ok})
    return 0 if ok else 1


def _cmd_bounds(args) -> int:
    c = _read_complex(args.infile) if args.infile else None
    report = bounds_table(args.n, args.r, args.b, c=c, measured_rounds=args.measured)
    for key, val in report.rows():
        print(f"{key}: {val}")
    _emit(args, {k: v for k, v in report.rows()})
    return 0


def _parse_instance(args) -> SetCoverInstance:
    if args.infile:
        doc = json.loads(Path(args.infile).read_text())
        try:
            return SetCoverInstance(doc["universe"], doc["subsets"])
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
        doc = json.dumps(sequence_to_list(seq), indent=2, sort_keys=True) + "\n"
        _write(args.encodings_out, doc.encode())
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


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, default=0, help="generator seed")
    common.add_argument(
        "--max-facets",
        type=int,
        default=DEFAULT_MAX_FACETS,
        help="facet budget for enumerations",
    )
    common.add_argument("--json-out", help="write a JSON summary to this path")

    p = argparse.ArgumentParser(
        prog="itermem",
        description="chromatic complexes, iterated protocols, bounded encodings",
    )
    sub = p.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen", parents=[common], help="generate a complex")
    g.add_argument("kind", choices=("simplex", "glued", "path", "random"))
    g.add_argument("--n", type=int, default=2, help="simplex dimension / colors")
    g.add_argument("--k", type=int, default=2, help="glued triangle count")
    g.add_argument("--m", type=int, default=3, help="path triangle count")
    g.add_argument("--facets", type=int, default=5, help="random facet count")
    g.add_argument("--out", help="write the complex JSON here")
    g.set_defaults(func=_cmd_gen)

    s = sub.add_parser("subdivide", parents=[common], help="chromatic subdivision")
    s.add_argument("--in", dest="infile", required=True)
    s.add_argument("--rounds", type=int, default=1)
    s.add_argument("--out")
    s.set_defaults(func=_cmd_subdivide)

    pr = sub.add_parser("protocol", parents=[common], help="full-information complex")
    pr.add_argument("--in", dest="infile", required=True)
    pr.add_argument("--pattern", choices=PATTERNS, required=True)
    pr.add_argument("--rounds", type=int, default=1)
    pr.add_argument("--out")
    pr.set_defaults(func=_cmd_protocol)

    gs = sub.add_parser("greedy-star", parents=[common], help="star-cover encodings")
    gs.add_argument("--in", dest="infile", required=True)
    gs.add_argument("--bits", type=int, help="split to this register width")
    gs.add_argument("--out", help="write the encoding sequence here")
    gs.add_argument("--trace", help="write the round trace here")
    gs.set_defaults(func=_cmd_greedy_star)

    si = sub.add_parser("simulate", parents=[common], help="bounded-register runs")
    si.add_argument("--in", dest="infile", required=True)
    si.add_argument("--encodings", required=True)
    si.add_argument("--out")
    si.add_argument("--verify-against", choices=("ic",))
    si.set_defaults(func=_cmd_simulate)

    v = sub.add_parser("verify", parents=[common], help="isomorphism or cover check")
    v.add_argument("--a", help="first complex (isomorphism mode)")
    v.add_argument("--b", help="second complex (isomorphism mode)")
    v.add_argument("--in", dest="infile", help="complex (cover mode)")
    v.add_argument("--encodings", help="sequence (cover mode)")
    v.set_defaults(func=_cmd_verify)

    b = sub.add_parser("bounds", parents=[common], help="round-complexity table")
    b.add_argument("--n", type=int, required=True)
    b.add_argument("--r", type=int, required=True)
    b.add_argument("--b", type=int, required=True)
    b.add_argument("--in", dest="infile", help="complex for degree bounds")
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
    ((ItermemError, OSError, json.JSONDecodeError), "error", 2),
)


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
