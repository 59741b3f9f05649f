"""The per-pair face enumeration and cover search, a reference for
``AffineSemigroup._enumerate_faces`` and ``semigroup.face_lattice``.

``pairwise_faces`` is the enumeration that found the faces of a cone
before they were found by vanishing set: it restricts every face found so
far to every functional, evaluating the functional on each ray, and ranks
the ray matrix of every such (face, functional) pair.  ``pairwise_covers``
tests every pair of faces for a cover and signs it with the dense
orientation determinant of ``dense_orientation``, so neither shares code
with the library's enumeration or its relation signs.
"""

from __future__ import annotations

from itertools import combinations

from zeemac.linalg import Mat, QQ

from .chain_ranks import rank
from .dense_orientation import _echelon_basis, _orientation_sign


def pairwise_faces(q) -> tuple[list[tuple[frozenset, int, tuple]], dict]:
    """``(faces, rays_of)``: every face as ``(vanishing, dim, interior
    point)`` in the library's order (by dimension, then sorted vanishing
    set), and the sorted rays of each face keyed by its vanishing set."""
    n, d = len(q.functionals), q.d
    all_idx = frozenset(range(n))

    def evaluate(i, a):
        return sum(c * x for c, x in zip(q.functionals[i], a))

    ray_vanish = {r: frozenset(i for i in range(n) if evaluate(i, r) == 0) for r in q.rays}

    def face_from_rays(rays):
        vanishing = all_idx
        for r in rays:
            vanishing &= ray_vanish[r]
        interior = tuple(sum(r[j] for r in rays) for j in range(d))
        dim = rank(Mat.from_rows([list(r) for r in rays], QQ))
        return (frozenset(vanishing), dim, interior), tuple(sorted(rays))

    faces = {}
    top, top_rays = face_from_rays(list(q.rays))
    faces[top[0]] = (top, top_rays)
    frontier = [top_rays]
    while frontier:
        new_frontier = []
        for rays in frontier:
            for i in range(n):
                sub = tuple(r for r in rays if evaluate(i, r) == 0)
                if not sub or len(sub) == len(rays):
                    continue
                cf, rr = face_from_rays(list(sub))
                if cf[0] not in faces:
                    faces[cf[0]] = (cf, rr)
                    new_frontier.append(rr)
        frontier = new_frontier
    minimal = (all_idx, 0, (0,) * d)
    out = [minimal] + [cf for cf, _ in faces.values()]
    out.sort(key=lambda f: (f[1], sorted(f[0]), f[2]))
    rays_of = {cf[0]: rr for cf, rr in faces.values()}
    rays_of[all_idx] = ()
    return out, rays_of


def pairwise_covers(faces, rays_of) -> list[tuple[int, int, int]]:
    """``(lower, upper, sign)`` for every cover among the faces of
    ``pairwise_faces``, testing every pair of faces, in (lower, upper)
    order."""
    bases = [_echelon_basis(rays_of[v]) for v, _, _ in faces]
    covers = []
    for (gi, g), (fi, f) in combinations(enumerate(faces), 2):
        # faces are sorted by dimension, so the upper one comes second
        if f[1] == g[1] + 1 and g[0] > f[0]:
            covers.append((gi, fi, _orientation_sign(bases[gi], f[2], bases[fi])))
    return covers
