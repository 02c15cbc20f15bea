"""Color-preserving isomorphism of chromatic complexes.

Two complexes are isomorphic when a bijection of vertices preserves colors
and maps the facet set of one exactly onto the facet set of the other.
``is_isomorphic`` refines vertex classes by structural invariants and then
backtracks inside classes; ``brute_force_isomorphic`` tries every
color-respecting bijection and is usable as an oracle on small inputs.
"""

from __future__ import annotations

import itertools
from collections import Counter

from .complexes import ChromaticComplex, Simplex
from .errors import InvalidParameters

_BRUTE_LIMIT = 8


def _signatures(c: ChromaticComplex) -> dict[int, tuple]:
    """Refined per-vertex invariants, stable under isomorphism."""
    adj = c.adjacency()
    facet_dims = {vid: Counter() for vid in c.vertices}
    for f in c.facets:
        for vid in f:
            facet_dims[vid][len(f)] += 1
    sig = {
        vid: (c.vertices[vid].color, len(adj[vid]), tuple(sorted(facet_dims[vid].items())))
        for vid in c.vertices
    }
    # one round of neighbor refinement: append sorted multiset of neighbor sigs
    return {
        vid: sig[vid] + (tuple(sorted(sig[u] for u in adj[vid])),) for vid in c.vertices
    }


def is_isomorphic(
    a: ChromaticComplex, b: ChromaticComplex
) -> tuple[bool, dict[int, int] | None]:
    """Decide color-preserving isomorphism; return (answer, vid witness map).

    The witness maps vids of ``a`` to vids of ``b`` and is None on failure.
    """
    if len(a.vertices) != len(b.vertices) or len(a.facets) != len(b.facets):
        return False, None
    if a.f_vector() != b.f_vector():
        return False, None
    sig_a, sig_b = _signatures(a), _signatures(b)
    if Counter(sig_a.values()) != Counter(sig_b.values()):
        return False, None
    if not a.vertices:  # both empty
        return True, {}

    classes: dict[tuple, list[int]] = {}
    for vid, s in sig_b.items():
        classes.setdefault(s, []).append(vid)
    # assign rarest classes first to fail fast
    order = sorted(a.vertices, key=lambda vid: (len(classes[sig_a[vid]]), vid))
    adj_a, adj_b = a.adjacency(), b.adjacency()

    mapping: dict[int, int] = {}
    used: set[int] = set()

    def extend(i: int) -> bool:
        if i == len(order):
            image = frozenset(Simplex(mapping[v] for v in f) for f in a.facets)
            return image == b.facets
        va = order[i]
        for vb in classes[sig_a[va]]:
            if vb in used:
                continue
            # adjacency with already-placed vertices must match both ways
            ok = all(
                (u in adj_a[va]) == (mapping[u] in adj_b[vb]) for u in mapping
            )
            if not ok:
                continue
            mapping[va] = vb
            used.add(vb)
            if extend(i + 1):
                return True
            del mapping[va]
            used.remove(vb)
        return False

    try:
        found = extend(0)
    finally:
        # extend reaches itself through its closure: unbroken, that cycle
        # keeps both complexes alive until the next full collection
        del extend
    return (True, dict(mapping)) if found else (False, None)


def brute_force_isomorphic(
    a: ChromaticComplex, b: ChromaticComplex
) -> tuple[bool, dict[int, int] | None]:
    """Try every color-respecting bijection.  Only for tiny complexes."""
    if len(a.vertices) > _BRUTE_LIMIT or len(b.vertices) > _BRUTE_LIMIT:
        raise InvalidParameters(f"brute force capped at {_BRUTE_LIMIT} vertices")
    if len(a.vertices) != len(b.vertices):
        return False, None
    per_color_a: dict[int, list[int]] = {}
    per_color_b: dict[int, list[int]] = {}
    for vid, v in a.vertices.items():
        per_color_a.setdefault(v.color, []).append(vid)
    for vid, v in b.vertices.items():
        per_color_b.setdefault(v.color, []).append(vid)
    if set(per_color_a) != set(per_color_b):
        return False, None
    if any(len(per_color_a[c]) != len(per_color_b[c]) for c in per_color_a):
        return False, None
    colors = sorted(per_color_a)
    for perm_parts in itertools.product(
        *(itertools.permutations(per_color_b[c]) for c in colors)
    ):
        mapping: dict[int, int] = {}
        for c, part in zip(colors, perm_parts):
            mapping.update(zip(per_color_a[c], part))
        image = frozenset(Simplex(mapping[v] for v in f) for f in a.facets)
        if image == b.facets:
            return True, mapping
    return False, None
