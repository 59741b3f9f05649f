"""Shared fixtures: named complexes, random generators, small oracles."""

from __future__ import annotations

import random

from zeemac import AffineSemigroup, SimplicialComplex, cone_of_simplicial, face_lattice
from zeemac.complexes import Cover, Face, FaceComplex, subcomplex


def hollow_triangle() -> SimplicialComplex:
    return SimplicialComplex.from_facets(3, [{1, 2}, {1, 3}, {2, 3}])


def bowtie() -> SimplicialComplex:
    return SimplicialComplex.from_facets(5, [{1, 2, 3}, {3, 4, 5}])


RP2_FACETS = [
    (1, 2, 3), (1, 3, 4), (1, 4, 5), (1, 5, 6), (1, 2, 6),
    (2, 3, 5), (2, 4, 5), (2, 4, 6), (3, 4, 6), (3, 5, 6),
]


def rp2() -> SimplicialComplex:
    return SimplicialComplex.from_facets(6, RP2_FACETS)


def d2_witness() -> SimplicialComplex:
    """A complex whose page-2 differential is nonzero and is read modulo a
    nonzero image of d1 (the reduction changes its coefficients)."""
    return SimplicialComplex.from_facets(6, [{1, 3}, {1, 6}, {2, 3}, {2, 5, 6}, {3, 4, 5}])


def square_cone() -> AffineSemigroup:
    # cone over the unit square at height one
    return AffineSemigroup(3, [(1, 0, 0), (0, 1, 0), (-1, 0, 1), (0, -1, 1)])


def hexagon_cone() -> AffineSemigroup:
    return AffineSemigroup(
        3,
        [(-1, -1, 1), (0, -1, 1), (1, 0, 1), (1, 1, 1), (0, 1, 1), (-1, 0, 1)],
    )


def cube_cone() -> AffineSemigroup:
    return AffineSemigroup(
        4,
        [
            (1, 0, 0, 0), (-1, 0, 0, 1),
            (0, 1, 0, 0), (0, -1, 0, 1),
            (0, 0, 1, 0), (0, 0, -1, 1),
        ],
    )


def square_cone_two_facets():
    """The subcomplex of the square cone generated by the two maximal faces
    adjacent along the ray (0,0,1)."""
    q = square_cone()
    full = face_lattice(q)
    f1 = q.face_with_vanishing([0])
    f2 = q.face_with_vanishing([1])
    ids = [i for i, cf in full.cone_faces.items() if cf in (f1, f2)]
    return subcomplex(full, ids), q


def four_rays_under_one_face() -> FaceComplex:
    """A face poset that is no cone's face lattice: an apex, four rays and
    one 2-face over all four, the signs into the 2-face alternating so that
    the covers square to zero.  Near the apex H^1 has dimension 2, so the
    total complex has cohomology in degree 1 and the terminal page has
    classes off the diagonal, at (1, 0).  The lower interval of the 2-face
    is not acyclic, so ``validate`` refuses the poset as not cone-like."""
    faces = [Face(0, 0, "o", key=("p", 0))] + [Face(i, 1, f"r{i}", key=("p", i)) for i in range(1, 5)]
    faces.append(Face(5, 2, "top", key=("p", 5)))
    covers = [Cover(0, i, 1) for i in range(1, 5)] + [Cover(i, 5, (-1) ** (i + 1)) for i in range(1, 5)]
    return FaceComplex(faces, covers, 2)


# the 7-vertex torus: the triangles {i, i+1, i+3} and {i, i+2, i+3} mod 7
TORUS7_FACETS = [tuple(sorted((i + j) % 7 + 1 for j in t)) for i in range(7) for t in ((0, 1, 3), (0, 2, 3))]


def torus_with_top_face_text() -> str:
    """A polyhedral file that passes every structural check but is no
    polyhedral complex: the cone over the 7-vertex torus (43 faces, with the
    simplicial signs) and one face "top" of dimension 4 over its 14
    triangles, signed by an orientation so that the incidence axiom holds.
    The lower interval of "top" is a cone over a torus, not a ball: its
    homology is k^2 in dimension 2 (the torus's H_1)."""
    fc = cone_of_simplicial(SimplicialComplex.from_facets(7, TORUS7_FACETS))
    triangles = [f.id for f in fc.faces if f.dim == 3]
    orient = {triangles[0]: 1}  # across each edge the two triangles induce opposite signs
    stack = [triangles[0]]
    while stack:
        t = stack.pop()
        for e, s in fc.covers_below(t):
            for u, s2 in fc.covers_above(e):
                if u not in orient:
                    orient[u] = -orient[t] * s * s2
                    stack.append(u)
    top = len(fc.faces)
    lines = ["polyhedral", f"ambient {fc.ambient_dim}"]
    lines += [f"face {f.id} {f.dim} {f.label}" for f in fc.faces] + [f"face {top} 4 top"]
    lines += [f"cover {c.lower} {c.upper} {c.sign:+d}" for c in fc.covers]
    lines += [f"cover {t} {top} {orient[t]:+d}" for t in triangles]
    return "".join(line + "\n" for line in lines)


def random_simplicial(rng: random.Random) -> SimplicialComplex:
    d = rng.randint(2, 6)
    roll = rng.random()
    if roll < 0.04:
        return SimplicialComplex.from_facets(d, [frozenset()])
    if roll < 0.08:
        return SimplicialComplex.from_facets(d, [frozenset(range(1, d + 1))])
    nf = rng.randint(1, 2 * d if roll < 0.2 else d)
    cand = []
    for _ in range(nf):
        size = rng.randint(1, min(d, 5))
        cand.append(frozenset(rng.sample(range(1, d + 1), size)))
    maximal = [s for s in set(cand) if not any(s < t for t in set(cand))]
    return SimplicialComplex.from_facets(d, maximal)


def random_sweep(n: int, seed: int) -> list[SimplicialComplex]:
    rng = random.Random(seed)
    return [random_simplicial(rng) for _ in range(n)]


def link_family(sc: SimplicialComplex, s) -> set[frozenset]:
    """The link of a simplicial face as a downward-closed family with the
    empty face; assumes s is a face of sc."""
    s = frozenset(s)
    return {f - s for f in sc.faces() if s <= f}


def face_id_of_vertices(fc, verts) -> int:
    key = ("s", tuple(sorted(verts)))
    for f in fc.faces:
        if f.key == key:
            return f.id
    raise KeyError(verts)


def cone_with_ids(sc: SimplicialComplex):
    fc = cone_of_simplicial(sc)
    return fc, {tuple(sorted(v for v in f.key[1])): f.id for f in fc.faces}


def densify(v: dict, n: int) -> tuple:
    """The sparse vector ``v`` as a dense tuple of length ``n``."""
    return tuple(v.get(i, 0) for i in range(n))


def sparsify(v, field) -> dict:
    """The dense vector ``v`` as a sparse one: nonzero reduced scalars."""
    return {i: y for i, x in enumerate(v) if (y := field.reduce(x))}


def canonical(x, field):
    """A dense oracle's output with every scalar in ``field``'s canonical
    form (over QQ an ``int`` when integral), lists, tuples and None kept."""
    if x is None:
        return None
    if isinstance(x, (tuple, list)):
        return type(x)(canonical(y, field) for y in x)
    return field.reduce(x)


def assert_same(got, want):
    """Equal, with the same scalar types throughout."""
    assert got == want
    if isinstance(want, (tuple, list)):
        assert type(got) is type(want) and len(got) == len(want)
        for a, b in zip(got, want):
            assert_same(a, b)
    else:
        assert type(got) is type(want)
