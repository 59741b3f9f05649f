"""Normal affine semigroups cut out by primitive integer functionals.

A semigroup Q is the set of lattice points where every functional is
nonnegative; the cone must be pointed and full-dimensional, so Q has
trivial unit group and generates the ambient lattice.  Faces are the loci
where a closed set of functionals vanishes; each face knows a lattice
point in its relative interior (the sum of its primitive ray generators).

The orthant N^d, over which every simplicial input lives, is built in
closed form: its faces are the coordinate supports S, with vanishing set
the complement of S, dimension |S|, interior point the 0/1 indicator of S
and the unit vectors of S as rays.  The generic ray and face enumeration
runs only for cones given by their functionals.

Lattice membership goes through one evaluator: ``zero_set(a)`` evaluates
each functional once and returns the functionals that vanish at ``a``
(``None`` when ``a`` lies outside Q).  Then ``a`` lies on a face exactly
when the face's vanishing set is contained in that zero set, and in its
relative interior exactly when the two are equal.

Incidence signs on the face lattice come from orientations: the sign of a
cover (G, F) is the determinant sign of [rref basis of the span of G,
interior point of F] expressed in the rref basis of the span of F.  It is
read off the column relations of one sparse reduction of each face's ray
matrix (``face_lattice``), with no dense elimination.  This satisfies the
diamond axiom, which ``complexes.validate`` re-checks in the test suite.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from math import gcd

from .complexes import Cover, Face, FaceComplex
from .linalg import Mat, QQ, _relations, kernel_basis, rank


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


def _primitive(vec) -> tuple[int, ...]:
    g = 0
    for x in vec:
        g = gcd(g, x)
    if g == 0:
        raise ValueError("zero vector has no primitive representative")
    return tuple(x // g for x in vec)


def _fraction_vector_to_primitive_int(v) -> tuple[int, ...]:
    mult = 1
    for x in v:
        d = x.denominator
        mult = mult * d // gcd(mult, d)
    ints = [int(x * mult) for x in v]
    return _primitive(ints)


class AffineSemigroup:
    """Lattice points of a pointed, full-dimensional rational cone."""

    def __init__(self, d: int, functionals):
        self.d = d
        self.functionals = tuple(self.primitive_functional(t, d) for t in functionals)
        tau = Mat.from_rows(list(self.functionals), QQ)
        if rank(tau) != d:
            raise ValueError("cone is not pointed: the functionals do not have full rank")
        self.rays = self._enumerate_rays()
        if not self.rays:
            raise ValueError("cone is not full-dimensional: no extreme rays found")
        if rank(Mat.from_rows([list(r) for r in self.rays], QQ)) != d:
            raise ValueError("cone is not full-dimensional: rays do not span")
        self._faces = self._enumerate_faces()
        self._faces_by_vanishing = {f.vanishing: f for f in self._faces}

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
        """N^d, cut out by the unit functionals, built in closed form.

        Equal to ``AffineSemigroup(d, unit functionals)`` in functionals,
        rays, face order and rays per face, without the generic
        enumeration: the face with coordinate support S vanishes on the
        complement of S, has dimension |S|, interior point the indicator
        of S and the unit vectors of S as rays.
        """
        if d < 1:
            raise ValueError(f"cone is not full-dimensional: the orthant needs d >= 1, got {d}")
        q = cls.__new__(cls)
        q.d = d
        q.functionals = tuple(tuple(1 if j == i else 0 for j in range(d)) for i in range(d))
        q.rays = tuple(reversed(q.functionals))  # sorted: e_{d-1} < ... < e_0
        faces = []
        q._rays_of = {}
        for k in range(d + 1):  # the generic order: by dim, then sorted vanishing set
            for vanishing in combinations(range(d), d - k):
                vanishing = frozenset(vanishing)
                faces.append(ConeFace(vanishing, k, tuple(0 if i in vanishing else 1 for i in range(d))))
                q._rays_of[vanishing] = tuple(q.functionals[i] for i in reversed(range(d)) if i not in vanishing)
        q._faces = tuple(faces)
        q._faces_by_vanishing = {f.vanishing: f for f in faces}
        return q

    # -- construction internals -------------------------------------------

    def evaluate(self, i: int, a) -> int:
        return sum(c * x for c, x in zip(self.functionals[i], a))

    def _enumerate_rays(self) -> tuple[tuple[int, ...], ...]:
        n = len(self.functionals)
        found = set()
        for subset in combinations(range(n), self.d - 1) if self.d > 1 else [()]:
            m = Mat.from_rows([list(self.functionals[i]) for i in subset], QQ) if subset else Mat.zeros(0, self.d, QQ)
            ker = kernel_basis(m) if subset else None
            if subset:
                if len(ker) != 1:
                    continue
                g = _fraction_vector_to_primitive_int([ker[0].get(i, 0) for i in range(self.d)])
            else:
                # d == 1: the candidate line is the whole lattice
                g = (1,)
            for cand in (g, tuple(-x for x in g)):
                if all(self.evaluate(i, cand) >= 0 for i in range(n)):
                    found.add(cand)
                    break
        return tuple(sorted(found))

    def _ray_vanishing(self, ray) -> frozenset:
        return frozenset(i for i in range(len(self.functionals)) if self.evaluate(i, ray) == 0)

    def _enumerate_faces(self) -> tuple[ConeFace, ...]:
        n = len(self.functionals)
        all_idx = frozenset(range(n))
        ray_vanish = {r: self._ray_vanishing(r) for r in self.rays}

        def face_from_rays(rays):
            vanishing = all_idx
            for r in rays:
                vanishing &= ray_vanish[r]
            interior = tuple(sum(r[j] for r in rays) for j in range(self.d))
            dim = rank(Mat.from_rows([list(r) for r in rays], QQ))
            return ConeFace(frozenset(vanishing), dim, interior), tuple(sorted(rays))

        faces: dict[frozenset, tuple[ConeFace, tuple]] = {}
        top, top_rays = face_from_rays(list(self.rays))
        faces[top.vanishing] = (top, top_rays)
        frontier = [top_rays]
        while frontier:
            new_frontier = []
            for rays in frontier:
                for i in range(n):
                    sub = tuple(r for r in rays if self.evaluate(i, r) == 0)
                    if not sub or len(sub) == len(rays):
                        continue
                    cf, rr = face_from_rays(list(sub))
                    if cf.vanishing not in faces:
                        faces[cf.vanishing] = (cf, rr)
                        new_frontier.append(rr)
            frontier = new_frontier
        minimal = ConeFace(all_idx, 0, (0,) * self.d)
        out = [minimal] + [cf for cf, _ in faces.values()]
        out.sort(key=lambda f: (f.dim, sorted(f.vanishing), f.interior_point))
        self._rays_of = {cf.vanishing: rr for cf, rr in faces.values()}
        self._rays_of[minimal.vanishing] = ()
        return tuple(out)

    # -- public queries -----------------------------------------------------

    def faces(self) -> tuple[ConeFace, ...]:
        return self._faces

    def face_with_vanishing(self, indices) -> ConeFace:
        """The face on which the given functionals (0-based) vanish; the
        vanishing set is closed up automatically."""
        given = frozenset(indices)
        rays = [r for r in self.rays if all(self.evaluate(i, r) == 0 for i in given)]
        if not rays:
            return self._faces[0]
        vanishing = frozenset(
            i for i in range(len(self.functionals)) if all(self.evaluate(i, r) == 0 for r in rays)
        )
        return self._faces_by_vanishing[vanishing]

    def rays_of(self, face: ConeFace) -> tuple:
        return self._rays_of[face.vanishing]

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

    Each face's ray matrix (rays as rows) is reduced once; its pivot
    columns P are the columns without a relation.  For a cover G < F, P_F
    is P_G and one more column e, G's relation r at e is 1 at e and
    otherwise nonzero only on P_G, and the sign is
    ``(-1)^#{p in P_G : p > e} * sign(sum(r[k] * w[k]))`` with w the
    interior point of F: the determinant sign of [rref basis of G; w] in
    the rref basis of F.  The minimal face has no rays, so every column
    has the relation {j: 1} and P is empty.
    """
    cone_faces = list(q.faces())
    faces = [Face(i, cf.dim, cf.label(), key=("v", tuple(sorted(cf.vanishing)))) for i, cf in enumerate(cone_faces)]
    relations = [_relations(Mat.from_rows(q.rays_of(cf), QQ, q.d).columns, QQ)[0] for cf in cone_faces]
    covers = []
    for gi, g in enumerate(cone_faces):
        for fi, f in enumerate(cone_faces):
            # vanishing sets are closed, so this is the cover relation
            if f.dim == g.dim + 1 and g.vanishing > f.vanishing:
                covers.append(Cover(gi, fi, _cover_sign(relations[gi], relations[fi], f.interior_point)))
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
