"""Normal affine semigroups cut out by primitive integer functionals.

A semigroup Q is the set of lattice points where every functional is
nonnegative; the cone must be pointed and full-dimensional, so Q has
trivial unit group and generates the ambient lattice.  Faces are the loci
where a closed set of functionals vanishes; each face knows a lattice
point in its relative interior (the sum of its primitive ray generators).

The orthant N^d, over which every simplicial input lives, keeps only its
unit functionals and rays and its face count 2^d; its per-face tables come
from the generic enumeration on first request.  Membership, the complexes
over it and the exactness certificate need none of them.

The generic enumeration takes its rays from the double description
method and finds faces by vanishing set, from the apex up through the
covers, which are the inclusion-minimal joins with one ray.  A face's
column relations, kept for the cover signs, come from one lower cover's
by one rank-one update with its interior point: no face's ray matrix is
reduced.

Lattice membership goes through one evaluator: ``zero_set(a)`` evaluates
each functional once and returns the functionals that vanish at ``a``
(``None`` when ``a`` lies outside Q).  Then ``a`` lies on a face exactly
when the face's vanishing set is contained in that zero set, and in its
relative interior exactly when the two are equal.

The enumeration keeps the covers, and incidence signs come from
orientations: the sign of a cover (G, F) is the determinant sign of [rref
basis of the span of G, interior point of F] expressed in the rref basis
of the span of F.  It is read off the kept column relations of G and F
(``face_lattice``), with no further elimination.  This satisfies the
diamond axiom, which ``complexes.validate`` re-checks in the test suite.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import product
from math import gcd
from typing import NamedTuple

from .complexes import Cover, Face, FaceComplex
from .linalg import _relations_with_row


@dataclass(frozen=True)
class ConeFace:
    """A face of the cone: its vanishing set (0-based functional indices),
    its dimension, and a lattice point in its relative interior."""

    vanishing: frozenset
    dim: int
    interior_point: tuple

    def label(self) -> str:
        if not self.vanishing:
            return "Q"
        return "F[" + ",".join(str(i + 1) for i in sorted(self.vanishing)) + "]"

    def order_key(self) -> tuple:
        """The order of ``AffineSemigroup.faces``: by dimension, then sorted vanishing set."""
        return self.dim, sorted(self.vanishing)


def _primitive(vec) -> tuple[int, ...]:
    if (g := gcd(*vec)) == 0:
        raise ValueError("zero vector has no primitive representative")
    return tuple(x // g for x in vec)


class DegenerateConeError(ValueError):
    """The functionals cut out a cone that is not pointed or not
    full-dimensional.  ``functionals`` holds the 0-based indices of the
    functionals at fault and ``rank`` the rank found: of all the
    functionals when the cone is not pointed, of the cone's rays when it is
    not full-dimensional, where the named functionals vanish on the whole
    cone."""

    def __init__(self, message: str, functionals, rank: int):
        super().__init__(message)
        self.functionals = tuple(functionals)
        self.rank = rank


class _FaceTables(NamedTuple):
    """The faces in ambient order; each face, its rays and its column
    relations by vanishing set; and the covers as ``(lower, upper)``
    positions in ``faces``, by lower face, then upper face."""

    faces: tuple
    by_vanishing: dict
    rays_of: dict
    relations: dict
    covers: tuple


class AffineSemigroup:
    """Lattice points of a pointed, full-dimensional rational cone;
    ``face_count`` is the number of its faces."""

    def __init__(self, d: int, functionals):
        self.d = d
        self.functionals = tuple(self.primitive_functional(t, d) for t in functionals)
        self._ray_vanishing = self._enumerate_rays()
        self.rays = tuple(self._ray_vanishing)
        self.face_count = len(self._tables.faces)  # enumerated now: a degenerate cone raises here

    @staticmethod
    def primitive_functional(t, d: int) -> tuple[int, ...]:
        """``t`` as a tuple of ints; ValueError unless it has length ``d``
        and its entries have gcd 1."""
        t = tuple(int(x) for x in t)
        if len(t) != d:
            raise ValueError(f"functional {t} does not have length {d}")
        if (g := gcd(*t)) != 1:
            raise ValueError(f"functional {t} is not primitive (gcd {g})")
        return t

    @classmethod
    def orthant(cls, d: int) -> "AffineSemigroup":
        """N^d, cut out by the unit functionals, with its faces left implicit.

        Equal to ``AffineSemigroup(d, unit functionals)`` in functionals,
        rays, face count and every per-face table, but built in O(d): the
        rays are the unit vectors, e_j vanishes on every functional but the
        j-th, and there are 2^d faces, one per coordinate support.  The
        tables behind ``faces``, ``rays_of``, ``relations_of`` and
        ``face_with_vanishing`` are enumerated on first request.
        """
        if d < 1:
            raise ValueError(f"cone is not full-dimensional: the orthant needs d >= 1, got {d}")
        q = cls.__new__(cls)
        q.d = d
        q.functionals = tuple(tuple(1 if j == i else 0 for j in range(d)) for i in range(d))
        q.rays = tuple(reversed(q.functionals))  # sorted: e_{d-1} < ... < e_0
        q._ray_vanishing = {q.functionals[i]: frozenset(range(d)) - {i} for i in range(d)}
        q.face_count = 2**d
        return q

    # -- construction internals -------------------------------------------

    def evaluate(self, i: int, a) -> int:
        return sum(c * x for c, x in zip(self.functionals[i], a))

    def _enumerate_rays(self) -> dict:
        """The primitive ray generators, sorted, each with the functionals
        (0-based) that vanish on it, by the double description method
        (Fukuda and Prodon 1996).

        The first pass adds the functionals as rows of a matrix whose column
        relations (``_relations_with_row``) span the cone's lineality space.
        A row that raises the rank makes its pivot relation a ray and moves
        every earlier ray along it onto the row's zero set.  These rows are
        the first d independent functionals, and their count is the rank
        that a cone which is not pointed reports.  Each other functional t
        then drops the rays where t is negative and adds, for each adjacent
        pair with t positive on one and negative on the other, the ray where
        t vanishes on their 2-face.  Adjacency is combinatorial: the pair
        shares at least d - 2 of the functionals added so far, and no third
        ray vanishes on all of them.  A cone with no ray is the apex alone.
        """
        n, d = len(self.functionals), self.d
        relations = {j: {j: 1} for j in range(d)}  # no row yet: every column is zero
        zero, added = {}, 0  # each ray, with the functionals added so far that vanish on it as a bit mask
        for i, t in enumerate(self.functionals):
            pivot, relations = _relations_with_row(relations, t)
            if pivot is not None:
                line = tuple(pivot.get(k, 0) for k in range(d))
                s = self.evaluate(i, line)
                zero = {
                    _primitive([s * x - self.evaluate(i, r) * y for x, y in zip(r, line)]): z | 1 << i
                    for r, z in zero.items()
                }
                zero[line] = added  # primitive, as every relation is
                added |= 1 << i
        if relations:  # the kernel is not zero: the cone holds a line
            rank = d - len(relations)
            raise DegenerateConeError(f"cone is not pointed: the functionals have rank {rank}, not {d}", range(n), rank)
        for i in (i for i in range(n) if not added >> i & 1):
            value = {r: self.evaluate(i, r) for r in zero}
            kept = {r: z | 1 << i if not value[r] else z for r, z in zero.items() if value[r] >= 0}
            above = [(p, zp) for p, zp in zero.items() if value[p] > 0]
            below = [(m, zm) for m, zm in zero.items() if value[m] < 0]
            for (p, zp), (m, zm) in product(above, below):
                common = zp & zm
                if common.bit_count() >= d - 2 and not any(
                    z & common == common for r, z in zero.items() if r != p and r != m
                ):
                    kept[_primitive([value[p] * x - value[m] * y for x, y in zip(m, p)])] = common | 1 << i
            zero = kept
        if not zero:
            raise DegenerateConeError(f"cone is not full-dimensional: it is the apex alone, of rank 0, not {d}", range(n), 0)
        return {r: frozenset(i for i in range(n) if z >> i & 1) for r, z in sorted(zero.items())}

    def _enumerate_faces(self) -> _FaceTables:
        """Every face and its covers, from the apex up by vanishing set.

        The join of a face G with a ray off G is the face whose vanishing
        set is the intersection of theirs.  The covers of G are its
        inclusion-minimal joins, and a cover's rays are G's and those whose
        join with G it is.  The breadth-first pass up the covers gives each
        face its dimension, and its column relations come from those of the
        face it is first reached from by one rank-one update with its
        interior point.
        """
        n, d = len(self.functionals), self.d
        masks = [(sum(1 << i for i in v), r) for r, v in self._ray_vanishing.items()]
        apex = (1 << n) - 1
        # each face by vanishing bit mask: its dimension, sorted rays, interior point and column relations
        found = {apex: (0, (), (0,) * d, {j: {j: 1} for j in range(d)})}  # no rays: every column is zero
        covers, level = {}, [apex]
        while level:
            last, level = level, []
            for g in last:
                dim, rays, point, relations = found[g]
                joins: dict = {}
                for m, r in masks:
                    if m & g != g:  # r is off G
                        joins.setdefault(g & m, []).append(r)
                covers[g] = [f for f in joins if not any(h != f and h & f == f for h in joins)]
                for f in covers[g]:
                    if f not in found:
                        w = tuple(map(sum, zip(point, *joins[f])))
                        found[f] = (dim + 1, tuple(sorted(rays + tuple(joins[f]))), w, _relations_with_row(relations, w)[1])
                        level.append(f)
        vanishing = {f: frozenset(i for i in range(n) if f >> i & 1) for f in found}
        (top,) = last
        if (dim := found[top][0]) != d:
            raise DegenerateConeError(
                f"cone is not full-dimensional: its rays have rank {dim}, not {d}, "
                f"and these functionals vanish on all of it",
                sorted(vanishing[top]),
                dim,
            )
        faces = sorted((ConeFace(vanishing[f], k, w) for f, (k, _, w, _) in found.items()), key=ConeFace.order_key)
        index = {cf.vanishing: i for i, cf in enumerate(faces)}
        return _FaceTables(
            tuple(faces),
            {cf.vanishing: cf for cf in faces},
            {vanishing[f]: rays for f, (_, rays, _, _) in found.items()},
            {vanishing[f]: relations for f, (*_, relations) in found.items()},
            tuple(sorted((index[vanishing[g]], index[vanishing[f]]) for g, ups in covers.items() for f in ups)),
        )

    _tables = cached_property(_enumerate_faces)  # enumerated on first request

    # -- public queries -----------------------------------------------------

    def faces(self) -> tuple[ConeFace, ...]:
        """Every face in ambient order (``ConeFace.order_key``)."""
        return self._tables.faces

    def face_with_vanishing(self, indices) -> ConeFace:
        """The face on which the given functionals (0-based) vanish; the
        vanishing set is closed up automatically."""
        given = frozenset(indices)
        on = [v for v in self._ray_vanishing.values() if given <= v]
        if not on:
            return self._tables.faces[0]
        return self._tables.by_vanishing[frozenset.intersection(*on)]

    def rays_of(self, face: ConeFace) -> tuple:
        return self._tables.rays_of[face.vanishing]

    def relations_of(self, face: ConeFace) -> dict:
        """The column relations of the face's ray matrix (rays as rows), as
        ``linalg._relations`` gives them up to a positive factor:
        ``{j: relation}`` for each of the d - dim columns in the span of the
        columns before it, a primitive integer vector positive at j.  The
        cover signs read only the sign of a pairing with a relation, which
        the factor keeps."""
        return self._tables.relations[face.vanishing]

    def zero_set(self, a) -> frozenset | None:
        """The functionals (0-based) that vanish at ``a``, or ``None`` when
        some functional is negative there (``a`` is not in Q).  Each
        functional is evaluated once."""
        a = tuple(a)
        if len(a) != self.d:
            raise ValueError(f"degree vector has length {len(a)}, expected {self.d}")
        zero = []
        for i in range(len(self.functionals)):
            v = self.evaluate(i, a)
            if v < 0:
                return None
            if v == 0:
                zero.append(i)
        return frozenset(zero)

    def membership(self, face: ConeFace, a) -> bool:
        """Whether ``a`` lies on the face: zero on its vanishing set and
        nonnegative on every functional."""
        zero = self.zero_set(a)
        return zero is not None and face.vanishing <= zero

    def relint_membership(self, face: ConeFace, a) -> bool:
        """Whether ``a`` lies in the relative interior of the face: zero on
        the vanishing set, strictly positive elsewhere."""
        return self.zero_set(a) == face.vanishing


def face_lattice(q: AffineSemigroup) -> FaceComplex:
    """The full face lattice of the cone as a validated FaceComplex.

    The covers are the ones the enumeration keeps (the inclusion-minimal
    joins of each face with one ray off it), listed by lower face, then
    upper face; this only signs them.

    Signs come from the column relations that ``relations_of`` keeps for
    each face's ray matrix (rays as rows); the pivot columns P are the
    columns without a relation.  For a cover G < F, P_F is P_G and one
    more column e, G's relation r at e is positive at e and otherwise
    nonzero only on P_G, and the sign is
    ``(-1)^#{p in P_G : p > e} * sign(sum(r[k] * w[k]))`` with w the
    interior point of F: the determinant sign of [rref basis of G; w] in
    the rref basis of F.  The minimal face has no rays, so every column
    has the relation {j: 1} and P is empty.
    """
    tables = q._tables
    cone_faces = tables.faces
    faces = [Face(i, cf.dim, cf.label(), key=("v", tuple(sorted(cf.vanishing)))) for i, cf in enumerate(cone_faces)]
    relations = [tables.relations[cf.vanishing] for cf in cone_faces]
    covers = [
        Cover(gi, fi, _cover_sign(relations[gi], relations[fi], cone_faces[fi].interior_point))
        for gi, fi in tables.covers
    ]
    return FaceComplex(faces, covers, q.d, cone_faces=dict(enumerate(cone_faces)), semigroup=q)


def _cover_sign(relations_g: dict, relations_f: dict, w) -> int:
    """The incidence sign of a cover G < F from the column relations of
    the two ray matrices and the interior point ``w`` of F."""
    extra = relations_g.keys() - relations_f.keys()  # P_F minus P_G
    pairing = 0
    if len(extra) == 1:
        (e,) = extra
        pairing = sum(c * w[k] for k, c in relations_g[e].items())
    if not pairing:
        raise ValueError("degenerate orientation data on a cover pair")
    flips = sum(p not in relations_g for p in range(e + 1, len(w)))
    return (-1) ** flips * (1 if pairing > 0 else -1)
