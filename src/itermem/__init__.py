"""Iterated shared-memory protocols over chromatic simplicial complexes.

Builds protocol complexes for the collect / atomic-snapshot / immediate-
snapshot read patterns, the standard chromatic subdivision, greedy star
covers (a report) and the packing into bounded registers, a bounded-run
simulator, and the set-cover embedding for minimum-length sequences.
"""

from .bounds import BoundsReport, GrowthRow, bounds_table, degree_growth_table
from .complexes import (
    ChromaticComplex,
    Simplex,
    StateRegistry,
    Vertex,
    assert_facet,
    build_complex,
)
from .encoding import (
    Encoding,
    is_vertex_distinguishable,
    lower_bound_rounds,
    verify_cover,
)
from .errors import (
    AmbiguousDecode,
    DanglingVertexReference,
    DuplicateColorInFacet,
    FacetContainment,
    IncompatibleVertexSpaces,
    InvalidParameters,
    ItermemError,
    NotAFacet,
    ResourceLimit,
    SimplexNotInComplex,
    UnsupportedFormat,
    VertexNotInComplex,
)
from .generators import gen_glued, gen_path, gen_random, gen_simplex
from .greedy import greedy_star, split_to_budget
from .io import export_complex, import_complex
from .iso import brute_force_isomorphic, is_isomorphic
from .protocols import (
    IAS,
    IC,
    IIS,
    PATTERNS,
    check_intersection_preserving,
    check_no_input_edges,
    iterate_subdivide,
    one_round,
    ordered_bell,
    ordered_set_partitions,
    protocol_complex,
    raw_interleaving_views,
    round_views,
    schedule_oracle,
)
from .setcover import (
    SetCoverInstance,
    exact_min_sequence,
    explain_reduction,
    set_cover_optimum,
    set_cover_reduce,
)
from .simulator import (
    bounded_protocol_complex,
    decode,
    iterate_pipeline,
    run_bounded,
    code_collision_counterexample,
)

__all__ = [
    "AmbiguousDecode",
    "BoundsReport",
    "ChromaticComplex",
    "DanglingVertexReference",
    "DuplicateColorInFacet",
    "Encoding",
    "FacetContainment",
    "GrowthRow",
    "IAS",
    "IC",
    "IIS",
    "IncompatibleVertexSpaces",
    "InvalidParameters",
    "ItermemError",
    "NotAFacet",
    "PATTERNS",
    "ResourceLimit",
    "SetCoverInstance",
    "Simplex",
    "SimplexNotInComplex",
    "StateRegistry",
    "UnsupportedFormat",
    "Vertex",
    "VertexNotInComplex",
    "assert_facet",
    "bounded_protocol_complex",
    "bounds_table",
    "brute_force_isomorphic",
    "build_complex",
    "check_intersection_preserving",
    "check_no_input_edges",
    "decode",
    "degree_growth_table",
    "exact_min_sequence",
    "explain_reduction",
    "export_complex",
    "gen_glued",
    "gen_path",
    "gen_random",
    "gen_simplex",
    "greedy_star",
    "import_complex",
    "is_isomorphic",
    "is_vertex_distinguishable",
    "iterate_pipeline",
    "iterate_subdivide",
    "lower_bound_rounds",
    "one_round",
    "ordered_bell",
    "ordered_set_partitions",
    "protocol_complex",
    "raw_interleaving_views",
    "round_views",
    "run_bounded",
    "schedule_oracle",
    "set_cover_optimum",
    "set_cover_reduce",
    "split_to_budget",
    "code_collision_counterexample",
    "verify_cover",
]
