"""The subset ray enumeration, a reference for the double description
method of ``AffineSemigroup._enumerate_rays``.

``subset_rays`` is the enumeration that found the rays of a cone before
the double description method: a candidate line is the kernel of d - 1
functionals when that kernel is one-dimensional, read off one tagged
reduction (``_raw_relations``) of the subset, and it is a ray when one of
its two primitive generators is nonnegative on every functional.  It
checks the rank of all the functionals first and the rank of the rays
last, each with its own reduction, and raises ``DegenerateConeError`` with
the message, functionals and rank that the library gives.  It shares no
code with the library's enumeration.
"""

from __future__ import annotations

from itertools import combinations
from math import gcd

from zeemac.linalg import Mat, QQ, _raw_relations
from zeemac.semigroup import DegenerateConeError

from .chain_ranks import rank


def subset_rays(d: int, functionals) -> tuple[tuple[int, ...], ...]:
    """The sorted primitive ray generators of the pointed, full-dimensional
    cone cut out by the primitive ``functionals``; ``DegenerateConeError``
    for any other cone."""
    functionals = [tuple(t) for t in functionals]
    n = len(functionals)

    def evaluate(i, a):
        return sum(c * x for c, x in zip(functionals[i], a))

    r = rank(Mat.from_rows(functionals, QQ, cols=d))
    if r != d:
        raise DegenerateConeError(f"cone is not pointed: the functionals have rank {r}, not {d}", range(n), r)
    found = set()
    for subset in combinations(range(n), d - 1) if d > 1 else [()]:
        if subset:
            columns = [{i: functionals[s][j] for i, s in enumerate(subset) if functionals[s][j]} for j in range(d)]
            relations = _raw_relations(columns, QQ)[0]
            if len(relations) != 1:
                continue
            (rel,) = relations.values()
            g = tuple(rel.get(j, 0) for j in range(d))
            content = gcd(*g)
            g = tuple(x // content for x in g)
        else:
            g = (1,)  # d == 1: the candidate line is the whole lattice
        for cand in (g, tuple(-x for x in g)):
            if all(evaluate(i, cand) >= 0 for i in range(n)):
                found.add(cand)
                break
    rays = tuple(sorted(found))
    if not rays:
        raise DegenerateConeError(
            f"cone is not full-dimensional: it is the apex alone, of rank 0, not {d}", range(n), 0
        )
    top = rank(Mat.from_rows(rays, QQ))
    if top != d:
        vanishing = [i for i in range(n) if all(evaluate(i, ray) == 0 for ray in rays)]
        raise DegenerateConeError(
            f"cone is not full-dimensional: its rays have rank {top}, not {d}, "
            f"and these functionals vanish on all of it",
            vanishing,
            top,
        )
    return rays
