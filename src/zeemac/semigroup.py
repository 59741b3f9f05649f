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

The generic enumeration finds faces by vanishing set.  Each ray's
vanishing set is computed once; restricting a face to a functional keeps
the face's rays on which it vanishes, and the intersection of their
vanishing sets names the candidate face.  A candidate already found costs
nothing more.  A new face's ray matrix is reduced once: its dimension is
d minus the number of column relations, and the relations are kept for
the cover signs.

Lattice membership goes through one evaluator: ``zero_set(a)`` evaluates
each functional once and returns the functionals that vanish at ``a``
(``None`` when ``a`` lies outside Q).  Then ``a`` lies on a face exactly
when the face's vanishing set is contained in that zero set, and in its
relative interior exactly when the two are equal.

Covers on the face lattice come from rays: the faces covering G are among
the joins of G with one ray off G, whose vanishing set is the
intersection of the two.  Incidence signs come from orientations: the
sign of a cover (G, F) is the determinant sign of [rref basis of the span
of G, interior point of F] expressed in the rref basis of the span of F.
It is read off the kept column relations of G and F (``face_lattice``),
with no further elimination.  This satisfies the diamond axiom, which
``complexes.validate`` re-checks in the test suite.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import combinations
from math import gcd
from typing import NamedTuple

from .complexes import Cover, Face, FaceComplex
from .linalg import Mat, QQ, _raw_relations, rank


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
    g = 0
    for x in vec:
        g = gcd(g, x)
    if g == 0:
        raise ValueError("zero vector has no primitive representative")
    return tuple(x // g for x in vec)


def _columns(rows, width: int) -> list[dict]:
    """The sparse columns of the integer matrix with these rows; integer
    entries are QQ scalars already, so they go in as they are."""
    return [{i: r[j] for i, r in enumerate(rows) if r[j]} for j in range(width)]


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
    """The faces in ambient order, and each face, its rays and its column relations by vanishing set."""

    faces: tuple
    by_vanishing: dict
    rays_of: dict
    relations: dict


class AffineSemigroup:
    """Lattice points of a pointed, full-dimensional rational cone;
    ``face_count`` is the number of its faces."""

    def __init__(self, d: int, functionals):
        self.d = d
        self.functionals = tuple(self.primitive_functional(t, d) for t in functionals)
        n = len(self.functionals)
        r = rank(Mat.from_rows(list(self.functionals), QQ))
        if r != d:
            raise DegenerateConeError(f"cone is not pointed: the functionals have rank {r}, not {d}", range(n), r)
        self.rays = self._enumerate_rays()
        if not self.rays:
            raise DegenerateConeError(
                f"cone is not full-dimensional: it is the apex alone, of rank 0, not {d}", range(n), 0
            )
        self._ray_vanishing = {r: frozenset(i for i in range(n) if self.evaluate(i, r) == 0) for r in self.rays}
        self.face_count = len(self._tables.faces)  # enumerated now: a degenerate cone raises here

    @staticmethod
    def primitive_functional(t, d: int) -> tuple[int, ...]:
        """``t`` as a tuple of ints; ValueError unless it has length ``d``
        and its entries have gcd 1."""
        t = tuple(int(x) for x in t)
        if len(t) != d:
            raise ValueError(f"functional {t} does not have length {d}")
        g = 0
        for x in t:
            g = gcd(g, x)
        if g != 1:
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

    def _enumerate_rays(self) -> tuple[tuple[int, ...], ...]:
        """The primitive ray generators, sorted.  A candidate line is the
        kernel of d - 1 functionals when it is one-dimensional: their one
        column relation, an integer vector, made primitive."""
        n = len(self.functionals)
        found = set()
        for subset in combinations(range(n), self.d - 1) if self.d > 1 else [()]:
            if subset:
                relations = _raw_relations(_columns([self.functionals[i] for i in subset], self.d), QQ)[0]
                if len(relations) != 1:
                    continue
                (rel,) = relations.values()
                g = _primitive([rel.get(i, 0) for i in range(self.d)])
            else:
                # d == 1: the candidate line is the whole lattice
                g = (1,)
            for cand in (g, tuple(-x for x in g)):
                if all(self.evaluate(i, cand) >= 0 for i in range(n)):
                    found.add(cand)
                    break
        return tuple(sorted(found))

    def _enumerate_faces(self) -> _FaceTables:
        """Every face, from the top face down by vanishing set.

        Restricting a face to a functional that does not vanish on it keeps
        the face's rays on which the functional vanishes; the intersection
        of their vanishing sets is the candidate face's.  A new face's ray
        matrix is reduced once: its dimension is d minus its number of
        column relations.  The rays span exactly when the top face has
        dimension d.
        """
        ray_vanishing = self._ray_vanishing
        rays_of, relations = {}, {}

        def add(vanishing, rays) -> ConeFace:
            columns = _columns(rays, self.d)
            rays_of[vanishing] = rays
            relations[vanishing] = _raw_relations(columns, QQ)[0]
            return ConeFace(vanishing, len(columns) - len(relations[vanishing]), tuple(map(sum, zip(*rays))))

        top = add(frozenset.intersection(*ray_vanishing.values()), self.rays)
        if top.dim != self.d:
            raise DegenerateConeError(
                f"cone is not full-dimensional: its rays have rank {top.dim}, not {self.d}, "
                f"and these functionals vanish on all of it",
                sorted(top.vanishing),
                top.dim,
            )
        faces = [top]
        for face in faces:  # appended to while read: breadth first from the top
            rays = rays_of[face.vanishing]
            for i in range(len(self.functionals)):
                if i in face.vanishing:
                    continue
                sub = tuple(r for r in rays if i in ray_vanishing[r])
                if sub:
                    vanishing = frozenset.intersection(*(ray_vanishing[r] for r in sub))
                    if vanishing not in rays_of:
                        faces.append(add(vanishing, sub))
        minimal = ConeFace(frozenset(range(len(self.functionals))), 0, (0,) * self.d)
        rays_of[minimal.vanishing] = ()
        relations[minimal.vanishing] = {j: {j: 1} for j in range(self.d)}  # every column is zero
        faces.append(minimal)
        faces.sort(key=ConeFace.order_key)
        return _FaceTables(tuple(faces), {f.vanishing: f for f in faces}, rays_of, relations)

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
        columns before it, an integer vector positive at j.  The cover
        signs read only the sign of a pairing with a relation, which the
        factor keeps."""
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

    Covers come from rays: the join of a face G with a ray r off G is the
    face whose vanishing set is the intersection of theirs, and every
    cover of G is such a join of dimension dim G + 1, so the covers take
    O(faces x rays) set intersections.  They are listed by lower face,
    then upper face.

    Signs come from the column relations that ``relations_of`` keeps from
    the one reduction of each face's ray matrix (rays as rows); the pivot
    columns P are the columns without a relation.  For a cover G < F, P_F
    is P_G and one more column e, G's relation r at e is positive at e
    and otherwise nonzero only on P_G, and the sign is
    ``(-1)^#{p in P_G : p > e} * sign(sum(r[k] * w[k]))`` with w the
    interior point of F: the determinant sign of [rref basis of G; w] in
    the rref basis of F.  The minimal face has no rays, so every column
    has the relation {j: 1} and P is empty.
    """
    cone_faces = list(q.faces())
    faces = [Face(i, cf.dim, cf.label(), key=("v", tuple(sorted(cf.vanishing)))) for i, cf in enumerate(cone_faces)]
    index = {cf.vanishing: i for i, cf in enumerate(cone_faces)}
    relations = [q.relations_of(cf) for cf in cone_faces]
    ray_vanishing = q._ray_vanishing.values()
    covers = []
    for gi, g in enumerate(cone_faces):
        joins = {index[g.vanishing & v] for v in ray_vanishing}
        for fi in sorted(fi for fi in joins if cone_faces[fi].dim == g.dim + 1):
            covers.append(Cover(gi, fi, _cover_sign(relations[gi], relations[fi], cone_faces[fi].interior_point)))
    return FaceComplex(
        faces,
        covers,
        q.d,
        cone_faces={i: cf for i, cf in enumerate(cone_faces)},
        semigroup=q,
    )


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
