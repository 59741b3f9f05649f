"""Input file parsing and machine-readable resolution documents.

Three line-oriented input formats, distinguished by their first keyword
(``#`` comments and blank lines are ignored everywhere; all integers are
arbitrary precision):

simplicial            polyhedral              semigroup
  vertices 3            ambient 2               ambient 3
  facet 1 2             face 0 0 origin         functional 1 0 0
  facet 1 3             face 1 1 ray            functional 0 1 0
  facet 2 3             cover 0 1 +1            functional -1 0 1
                                                functional 0 -1 1
                                                delta 1        # optional

A simplicial file carries the complex itself over the orthant.  A
polyhedral file lists faces (id, dimension, optional label) and signed
covers explicitly; it carries no lattice geometry, so only degree-zero
computations apply.  A semigroup file cuts the cone out by primitive
functionals; optional ``delta`` lines select the subcomplex generated by
the faces on which the named functionals (1-based) vanish, defaulting to
the whole face lattice.  A bare ``facet`` line is the empty facet: alone
it gives the complex {empty face}, whose quotient k[Q]/m = k is
Cohen-Macaulay of dimension 0.  A malformed line (a word after the input
kind, a missing or non-integer value, a ``vertices`` count outside
``1..MAX_VERTICES`` (16), a semigroup ``ambient`` dimension below 1, a
``functional`` line past ``MAX_FUNCTIONALS`` (13), a second ``vertices``
or ``ambient`` line, a
facet that repeats a vertex or leaves ``1..vertices``, a ``cover`` with
other than three integers, a ``face`` with more than an id, a dimension
and one label, a cover that names an unknown face, a ``delta`` index
outside ``1..#functionals``, bytes that are not UTF-8) raises
``InputFormatError`` naming the line, and a facet contained in or equal
to another raises it naming both lines (``facets[k]`` in a JSON document);
a polyhedral input with no face and a semigroup input with no functional
raise it without a line to name.  A cone that is not pointed or not
full-dimensional raises it naming the ``functional`` lines at fault (all
of them when their rank falls short, else those that vanish on the whole
cone) and the rank found.

Resolutions serialize to JSON documents that embed the input complex, the
terms (face keys per copy), the scalar block matrices, the augmentation
and the certificates; ``resolution_from_doc`` re-ingests such a document
so emitted resolutions can be re-verified.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction

from .complexes import (
    Cover,
    Face,
    FaceComplex,
    FacetPairError,
    SimplicialComplex,
    cone_of_simplicial,
    subcomplex,
)
from .linalg import Field, Mat, parse_field
from .resolutions import FaceModuleComplex, FaceModule
from .semigroup import AffineSemigroup, DegenerateConeError, face_lattice


MAX_VERTICES = 16  # betti enumerates about 2^d vertex subsets; dual and the orthant's 2^d faces do not
MAX_FUNCTIONALS = 13  # a cone cut out by n functionals can have 2^n faces, each enumerated


class InputFormatError(ValueError):
    """Malformed input file; the message carries the offending line."""


@dataclass
class InputBundle:
    kind: str  # simplicial | polyhedral | semigroup
    fc: FaceComplex
    sc: SimplicialComplex | None = None
    delta_selectors: tuple | None = None  # for semigroup inputs


def _lines(text: str):
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            yield lineno, line.split()


def parse_input_text(text: str) -> InputBundle:
    rows = list(_lines(text))
    if not rows:
        raise InputFormatError("empty input file")
    lineno, head = rows[0]
    parse = {"simplicial": _parse_simplicial, "polyhedral": _parse_polyhedral, "semigroup": _parse_semigroup}.get(
        head[0].lower()
    )
    if parse is None:
        raise InputFormatError(
            f"line {lineno}: unknown input kind {head[0]!r}; expected simplicial, polyhedral or semigroup"
        )
    if len(head) > 1:
        raise InputFormatError(f"line {lineno}: unexpected {' '.join(head[1:])!r} after the input kind {head[0]!r}")
    return parse(rows[1:])


def load_input(path: str) -> InputBundle:
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        lineno = data.count(b"\n", 0, exc.start) + 1
        raise InputFormatError(f"line {lineno}: not UTF-8 text (byte {data[exc.start]:#04x})") from None
    return parse_input_text(text)


def _ints(toks, lineno: int, count: int, exact: bool = False) -> list[int]:
    """The ``count`` integers after the keyword ``toks[0]``; an input error
    naming the line if there are fewer (or, with ``exact``, more) or one is
    not an integer."""
    given = len(toks) - 1
    if given < count or (exact and given > count):
        raise InputFormatError(f"line {lineno}: expected {count} integer(s) after {toks[0]!r}, got {given}")
    out = []
    for t in toks[1 : count + 1]:
        try:
            out.append(int(t))
        except ValueError:
            raise InputFormatError(f"line {lineno}: expected an integer after {toks[0]!r}, got {t!r}") from None
    return out


def _vertex_count(where: str, d: int) -> int:
    if not 1 <= d <= MAX_VERTICES:
        raise InputFormatError(f"{where}: 'vertices' must lie in 1..{MAX_VERTICES}, got {d}")
    return d


def _ambient_dim(where: str, d) -> int:
    if not isinstance(d, int) or d < 1:
        raise InputFormatError(f"{where}: 'ambient' must be an integer >= 1, got {d!r}")
    return d


def simplicial_bundle(vertices, facets) -> InputBundle:
    """The simplicial input: ``vertices`` and ``facets`` are ``(where,
    value)`` pairs, ``where`` naming the item (``line N`` or a JSON path)
    in every input error.  The vertex count is checked before any face is
    built."""
    d = _vertex_count(*vertices)
    first: dict = {}  # facet -> the item it first appears in
    for where, facet in facets:
        if len(set(facet)) != len(facet):
            raise InputFormatError(f"{where}: facet {list(facet)} names a vertex twice")
        if not all(1 <= v <= d for v in facet):
            raise InputFormatError(f"{where}: facet {sorted(facet)} leaves the vertex range 1..{d}")
        if (seen := first.setdefault(frozenset(facet), where)) != where:
            raise InputFormatError(f"{seen}, {where}: duplicate facet {sorted(facet)}")
    try:
        sc = SimplicialComplex.from_facets(d, list(first))
    except FacetPairError as exc:  # name the pair's items in input order
        raise InputFormatError(f"{', '.join(w for f, w in first.items() if f in exc.facets)}: {exc}") from None
    except ValueError as exc:
        raise InputFormatError(str(exc)) from exc
    fc = cone_of_simplicial(sc)
    return InputBundle("simplicial", fc, sc=sc)


def polyhedral_bundle(ambient: int, faces, covers) -> InputBundle:
    """The polyhedral input from ``(where, id, dim, label)`` faces and
    ``(where, lower, upper, sign)`` covers."""
    if not faces:
        raise InputFormatError("no faces: a polyhedral complex needs at least its minimal face")
    faces = sorted(faces, key=lambda f: f[1:])
    for k, (where, fid, _, _) in enumerate(faces):
        if fid != k:
            raise InputFormatError(f"{where}: face id {fid} breaks the numbering; face ids must be exactly 0..{len(faces) - 1}")
    for where, lo, hi, sign in covers:
        if not (0 <= lo < len(faces) and 0 <= hi < len(faces)):
            raise InputFormatError(f"{where}: cover {lo} {hi} names a face that is not among the ids 0..{len(faces) - 1}")
        if sign not in (1, -1):
            raise InputFormatError(f"{where}: cover sign must be +1 or -1, got {sign}")
    try:
        fc = FaceComplex(
            [Face(fid, dim, label, key=("p", fid)) for _, fid, dim, label in faces],
            [Cover(lo, hi, sign) for _, lo, hi, sign in covers],
            ambient,
        )
    except ValueError as exc:
        raise InputFormatError(str(exc)) from exc
    return InputBundle("polyhedral", fc)


def semigroup_bundle(ambient, functionals, selectors) -> InputBundle:
    """The semigroup input from the ``(where, dimension)`` pair
    ``ambient`` and ``(where, functional)`` and ``(where, delta indices)``
    pairs; with no selectors, the whole face lattice.  The dimension and
    the functional count are checked before any face is enumerated."""
    ambient = _ambient_dim(*ambient)
    if not functionals:
        raise InputFormatError(f"no functionals: a semigroup input takes 1..{MAX_FUNCTIONALS}")
    if len(functionals) > MAX_FUNCTIONALS:
        where = functionals[MAX_FUNCTIONALS][0]
        raise InputFormatError(f"{where}: more than {MAX_FUNCTIONALS} functionals; a semigroup input takes 1..{MAX_FUNCTIONALS}")
    for where, t in functionals:
        try:
            AffineSemigroup.primitive_functional(t, ambient)
        except ValueError as exc:
            raise InputFormatError(f"{where}: {exc}") from None
    try:
        q = AffineSemigroup(ambient, [t for _, t in functionals])
    except DegenerateConeError as exc:
        raise InputFormatError(f"{', '.join(functionals[i][0] for i in exc.functionals)}: {exc}") from None
    except ValueError as exc:
        raise InputFormatError(str(exc)) from exc
    full = face_lattice(q)
    if not selectors:
        return InputBundle("semigroup", full)
    ids, index = [], {c.vanishing: i for i, c in full.cone_faces.items()}
    for where, sel in selectors:
        if not all(1 <= i <= len(functionals) for i in sel):
            raise InputFormatError(f"{where}: delta indices must lie in 1..{len(functionals)}, got {sel}")
        ids.append(index[q.face_with_vanishing([i - 1 for i in sel]).vanishing])
    chosen = tuple(sel for _, sel in selectors)
    return InputBundle("semigroup", subcomplex(full, ids), delta_selectors=chosen)


def _first_header(seen, lineno: int, keyword: str) -> None:
    """A header line (``vertices``, ``ambient``) may appear only once."""
    if seen is not None:
        raise InputFormatError(f"line {lineno}: a second {keyword!r} line; give it once")


def _parse_simplicial(body) -> InputBundle:
    vertices = None
    facets = []
    for lineno, toks in body:
        if toks[0] == "vertices":
            _first_header(vertices, lineno, "vertices")
            vertices = (f"line {lineno}", *_ints(toks, lineno, 1, exact=True))
            _vertex_count(*vertices)
        elif toks[0] == "facet":
            facets.append((f"line {lineno}", tuple(_ints(toks, lineno, len(toks) - 1))))
        else:
            raise InputFormatError(f"line {lineno}: unexpected {toks[0]!r} in a simplicial file")
    if vertices is None:
        raise InputFormatError("missing 'vertices' line")
    return simplicial_bundle(vertices, facets)


def _parse_polyhedral(body) -> InputBundle:
    ambient = None
    faces = []
    covers = []
    for lineno, toks in body:
        if toks[0] == "ambient":
            _first_header(ambient, lineno, "ambient")
            (ambient,) = _ints(toks, lineno, 1, exact=True)
        elif toks[0] == "face":
            fid, dim = _ints(toks, lineno, 2)
            if len(toks) > 4:
                raise InputFormatError(f"line {lineno}: unexpected {' '.join(toks[4:])!r} after the face label {toks[3]!r}")
            faces.append((f"line {lineno}", fid, dim, toks[3] if len(toks) > 3 else f"f{fid}"))
        elif toks[0] == "cover":
            covers.append((f"line {lineno}", *_ints(toks, lineno, 3, exact=True)))
        else:
            raise InputFormatError(f"line {lineno}: unexpected {toks[0]!r} in a polyhedral file")
    if ambient is None:
        raise InputFormatError("missing 'ambient' line")
    return polyhedral_bundle(ambient, faces, covers)


def _parse_semigroup(body) -> InputBundle:
    ambient = None
    functionals = []
    selectors = []
    for lineno, toks in body:
        if toks[0] == "ambient":
            _first_header(ambient, lineno, "ambient")
            ambient = (f"line {lineno}", *_ints(toks, lineno, 1, exact=True))
            _ambient_dim(*ambient)
        elif toks[0] == "functional":
            functionals.append((f"line {lineno}", tuple(_ints(toks, lineno, len(toks) - 1))))
        elif toks[0] == "delta":
            selectors.append((f"line {lineno}", tuple(_ints(toks, lineno, len(toks) - 1))))
        else:
            raise InputFormatError(f"line {lineno}: unexpected {toks[0]!r} in a semigroup file")
    if ambient is None:
        raise InputFormatError("missing 'ambient' line")
    return semigroup_bundle(ambient, functionals, selectors)


# -- JSON documents ---------------------------------------------------------


def _mat_to_doc(m: Mat) -> dict:
    return {"rows": m.rows, "cols": m.cols, "entries": [str(x) for x in m.entries]}


def _scalar_from_doc(s, field: Field):
    """A document entry reduced into ``field``.  A string is read by
    ``int`` first; what ``int`` rejects (``"-7/4"``, ``"1.5"``) and a JSON
    number go to ``Fraction``, which raises for a bad entry.  A string with
    a decimal exponent is refused: ``Fraction`` would expand it in full."""
    try:
        x = int(s) if isinstance(s, str) else Fraction(s)
    except ValueError:
        if isinstance(s, str) and "e" in s.lower():
            raise ValueError(f"decimal exponent in {s!r}") from None
        x = Fraction(s)
    return field.reduce(x)


def _mat_from_doc(doc: dict, field: Field) -> Mat:
    """The matrix of a ``_mat_to_doc`` document; its nonzero entries go
    straight into the sparse columns."""
    rows, cols = doc["rows"], doc["cols"]
    entries = doc["entries"]
    if len(entries) != rows * cols:
        raise ValueError("entry count does not match rows*cols")
    columns = [{} for _ in range(cols)]
    for k, s in enumerate(entries):
        if s != "0" and (x := _scalar_from_doc(s, field)):
            columns[k % cols][k // cols] = x
    return Mat(rows, cols, columns, field)


def complex_to_doc(bundle: InputBundle) -> dict:
    if bundle.kind == "simplicial":
        return {
            "type": "simplicial",
            "vertices": bundle.sc.d,
            "facets": [sorted(f) for f in bundle.sc.facets],
        }
    if bundle.kind == "semigroup":
        return {
            "type": "semigroup",
            "ambient": bundle.fc.semigroup.d,
            "functionals": [list(t) for t in bundle.fc.semigroup.functionals],
            "delta": [list(s) for s in bundle.delta_selectors] if bundle.delta_selectors else None,
        }
    fc = bundle.fc
    return {
        "type": "polyhedral",
        "ambient": fc.ambient_dim,
        "faces": [[f.id, f.dim, f.label] for f in fc.faces],
        "covers": [[c.lower, c.upper, c.sign] for c in fc.covers],
    }


def bundle_from_doc(doc: dict) -> InputBundle:
    """The input a ``complex_to_doc`` document describes; an input error
    names the JSON path of a bad item."""
    return _bundle_at(doc, "")


def _bundle_at(doc, pre: str) -> InputBundle:
    """``bundle_from_doc`` of the document whose members have the JSON paths ``pre + key``."""
    t = _member(doc, "type", pre)
    if t == "simplicial":
        return simplicial_bundle((pre + "vertices", _member(doc, "vertices", pre, int)), _items(doc, "facets", pre))
    if t == "semigroup":
        ambient = (pre + "ambient", _member(doc, "ambient", pre))
        return semigroup_bundle(ambient, _items(doc, "functionals", pre), _items(doc, "delta", pre))
    if t == "polyhedral":
        faces = [(where, *f) for where, f in _items(doc, "faces", pre, (int, int, str))]
        covers = [(where, *c) for where, c in _items(doc, "covers", pre, (int, int, int))]
        return polyhedral_bundle(_member(doc, "ambient", pre), faces, covers)
    raise InputFormatError(f"{pre}type: unknown complex type {t!r}")


def _typed(value, where: str, kind: type):
    """``value``, the JSON value at the path ``where``, if it is a ``kind``; else an input error."""
    if not isinstance(value, kind):
        raise InputFormatError(f"{where}: expected {kind.__name__}, got {type(value).__name__}")
    return value


def _member(doc, key: str, pre: str = "", kind: type = object):
    """``doc[key]``, a ``kind`` at the JSON path ``pre + key``; an input
    error names the path where ``doc`` is no object or lacks ``key``."""
    if key not in _typed(doc, pre[:-1] or "document", dict):
        raise InputFormatError(f"{pre}{key}: missing")
    return _typed(doc[key], pre + key, kind)


def _items(doc: dict, key: str, pre: str, shape: tuple | None = None) -> list:
    """``(path, tuple(item))`` for each item of the list ``doc[key]`` (none if absent
    or null): a list of integers, or of one value of each type in ``shape``."""
    items = [(f"{pre}{key}[{k}]", item) for k, item in enumerate(_typed(doc.get(key) or [], pre + key, list))]
    for where, item in items:
        if list(map(type, _typed(item, where, list))) != list(shape or (int,) * len(item)):
            raise InputFormatError(f"{where}: expected {[t.__name__ for t in shape] if shape else 'integers'}, got {item!r}")
    return [(where, tuple(item)) for where, item in items]


def _face_key_str(fc: FaceComplex, fid: int) -> str:
    key = fc.face(fid).key
    if key is None:
        return f"id:{fid}"
    tag, payload = key[0], key[1]
    if tag == "p":
        return f"id:{payload}"
    return tag + ":" + ",".join(str(v) for v in payload)


def resolution_to_doc(res: FaceModuleComplex, bundle: InputBundle, certificates: dict) -> dict:
    field = res.field
    return {
        "kind": "irreducible-resolution",
        "variant": res.variant,
        "field": "q" if field.is_rationals else f"p:{field.p}",
        "complex": complex_to_doc(bundle),
        "terms": [[_face_key_str(res.fc, g) for g in term.faces] for term in res.terms],
        "maps": [_mat_to_doc(m) for m in res.maps],
        "augmentation": [str(x) for x in res.augmentation] if res.augmentation is not None else None,
        "certificates": certificates,
    }


def resolution_from_doc(doc: dict):
    """Rebuild (resolution, bundle, field) from an emitted document; a
    malformed one raises ``InputFormatError`` naming the JSON path of the
    bad item."""
    if not isinstance(doc, dict) or doc.get("kind") != "irreducible-resolution":
        raise InputFormatError("not an irreducible-resolution document")
    field = _naming("field", parse_field, _member(doc, "field", kind=str))
    bundle = _bundle_at(_member(doc, "complex"), "complex.")
    fc = bundle.fc
    ids = {_face_key_str(fc, f.id): f.id for f in fc.faces}
    terms = []
    for i, term in enumerate(_member(doc, "terms", kind=list)):
        for j, key in enumerate(_typed(term, f"terms[{i}]", list)):
            if not isinstance(key, str) or key not in ids:
                raise InputFormatError(f"terms[{i}][{j}]: no face with key {key!r} in the complex")
        terms.append(FaceModule(tuple(ids[key] for key in term)))
    maps = _member(doc, "maps", kind=list)
    if len(maps) != max(len(terms) - 1, 0):
        raise InputFormatError(f"maps: {len(maps)} map(s) for {len(terms)} term(s); need one per consecutive pair")
    for i, m in enumerate(maps):  # each shape is checked before any column is made
        for key, want in (("rows", len(terms[i + 1])), ("cols", len(terms[i]))):
            if (got := _member(m, key, f"maps[{i}].", int)) != want:
                raise InputFormatError(f"maps[{i}].{key}: the terms give {want}, got {got!r}")
        _member(m, "entries", f"maps[{i}].", list)
    maps = [_naming(f"maps[{i}].entries", _mat_from_doc, m, field) for i, m in enumerate(maps)]
    if (aug := doc.get("augmentation")) is not None:
        aug = _naming("augmentation", tuple, (_scalar_from_doc(s, field) for s in _typed(aug, "augmentation", list)))
    # the maps fit the terms, so only the augmentation can be at fault
    res = _naming("augmentation", FaceModuleComplex, fc, field, terms, maps, aug, doc.get("variant", ""))
    return res, bundle, field


def _naming(where: str, fn, *args):
    """``fn(*args)``, its errors raised as input errors naming the JSON path ``where``."""
    try:
        return fn(*args)
    except (ArithmeticError, TypeError, ValueError) as exc:
        raise InputFormatError(f"{where}: {exc}") from None


def dump_json(doc: dict) -> str:
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"
