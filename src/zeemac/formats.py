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
``1..MAX_VERTICES`` (16), an ``ambient`` dimension below 1 (polyhedral or
semigroup), a ``functional`` line past ``MAX_FUNCTIONALS`` (13), a second
``vertices`` or ``ambient`` line, a facet that repeats a vertex or leaves
``1..vertices``, a ``cover`` with other than three integers, a ``face``
with more than an id, a dimension and one label, a cover that names an
unknown face, a ``delta`` index outside ``1..#functionals``, bytes that
are not UTF-8) raises ``InputFormatError`` naming the line, and a facet
contained in or equal to another raises it naming both lines
(``facets[k]`` in a JSON document, whose header and items obey the same
rules, a boolean being no integer); a polyhedral input with no face and
a semigroup input with no functional raise it without a line to name.  A
cone that is not pointed or not full-dimensional raises it naming the
``functional`` lines at fault (all of them when their rank falls short,
else those that vanish on the whole cone) and the rank found.

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
    kind = head[0].lower()
    if kind not in _KINDS:
        raise InputFormatError(f"line {lineno}: unknown input kind {head[0]!r}; expected simplicial, polyhedral or semigroup")
    if len(head) > 1:
        raise InputFormatError(f"line {lineno}: unexpected {' '.join(head[1:])!r} after the input kind {head[0]!r}")
    keyword, rule, build, items = _KINDS[kind]
    shapes = {line: shape for line, _, shape in items}
    header, found = None, {line: [] for line in shapes}
    for lineno, toks in rows[1:]:
        where = f"line {lineno}"
        if toks[0] == keyword:
            if header is not None:
                raise InputFormatError(f"{where}: a second {keyword!r} line; give it once")
            header = (where, rule(where, *_values(toks, lineno, (int,))))
        elif toks[0] in shapes:
            found[toks[0]].append((where, _values(toks, lineno, shapes[toks[0]])))
        else:
            raise InputFormatError(f"{where}: unexpected {toks[0]!r} in a {kind} file")
    if header is None:
        raise InputFormatError(f"missing {keyword!r} line")
    return build(header, *found.values())


def load_input(path: str) -> InputBundle:
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        lineno = data.count(b"\n", 0, exc.start) + 1
        raise InputFormatError(f"line {lineno}: not UTF-8 text (byte {data[exc.start]:#04x})") from None
    return parse_input_text(text)


def _values(toks, lineno: int, shape) -> tuple:
    """The values after the keyword ``toks[0]``: any number of integers for
    no ``shape``; else one integer per ``int`` of ``shape`` and, where it
    ends in ``str``, an optional label (``f`` followed by the first value
    when none is given).  An input error names the line if a value is
    missing, not an integer or one too many."""
    given = len(toks) - 1
    n = given if shape is None else shape.count(int)
    labelled = shape is not None and str in shape
    if given < n or (given > n and not labelled):
        raise InputFormatError(f"line {lineno}: expected {n} integer(s) after {toks[0]!r}, got {given}")
    values = []
    for t in toks[1 : n + 1]:
        try:
            values.append(int(t))
        except ValueError:
            raise InputFormatError(f"line {lineno}: expected an integer after {toks[0]!r}, got {t!r}") from None
    if labelled:
        if given > n + 1:
            raise InputFormatError(f"line {lineno}: unexpected {' '.join(toks[n + 2:])!r} after the {toks[0]} label {toks[n + 1]!r}")
        values.append(toks[n + 1] if given > n else f"f{values[0]}")
    return tuple(values)


def _vertex_count(where: str, d) -> int:
    """The header rule of ``vertices``: an integer (a JSON boolean is none) in 1..MAX_VERTICES."""
    if type(d) is not int:
        raise InputFormatError(f"{where}: expected int, got {type(d).__name__}")
    if not 1 <= d <= MAX_VERTICES:
        raise InputFormatError(f"{where}: 'vertices' must lie in 1..{MAX_VERTICES}, got {d}")
    return d


def _ambient_dim(where: str, d) -> int:
    """The header rule of ``ambient``: an integer (a JSON boolean is none) of at least 1."""
    if type(d) is not int or d < 1:
        raise InputFormatError(f"{where}: 'ambient' must be an integer >= 1, got {d!r}")
    return d


def simplicial_bundle(vertices, facets) -> InputBundle:
    """The simplicial input from the ``(where, vertex count)`` pair
    ``vertices`` and ``(where, facet)`` pairs, ``where`` naming the item
    (``line N`` or a JSON path) in every input error."""
    d = vertices[1]
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


def polyhedral_bundle(ambient, faces, covers) -> InputBundle:
    """The polyhedral input from the ``(where, dimension)`` pair
    ``ambient``, ``(where, (id, dim, label))`` faces and ``(where, (lower,
    upper, sign))`` covers."""
    if not faces:
        raise InputFormatError("no faces: a polyhedral complex needs at least its minimal face")
    faces = sorted(faces, key=lambda f: f[1])
    for k, (where, (fid, _, _)) in enumerate(faces):
        if fid != k:
            raise InputFormatError(f"{where}: face id {fid} breaks the numbering; face ids must be exactly 0..{len(faces) - 1}")
    for where, (lo, hi, sign) in covers:
        if not (0 <= lo < len(faces) and 0 <= hi < len(faces)):
            raise InputFormatError(f"{where}: cover {lo} {hi} names a face that is not among the ids 0..{len(faces) - 1}")
        if sign not in (1, -1):
            raise InputFormatError(f"{where}: cover sign must be +1 or -1, got {sign}")
    try:
        built = [Face(fid, dim, label, key=("p", fid)) for _, (fid, dim, label) in faces]
        fc = FaceComplex(built, [Cover(*cover) for _, cover in covers], ambient[1])
    except ValueError as exc:
        raise InputFormatError(str(exc)) from exc
    return InputBundle("polyhedral", fc)


def semigroup_bundle(ambient, functionals, selectors) -> InputBundle:
    """The semigroup input from the ``(where, dimension)`` pair
    ``ambient`` and ``(where, functional)`` and ``(where, delta indices)``
    pairs; with no selectors, the whole face lattice.  The functional
    count is checked before any face is enumerated."""
    ambient = ambient[1]
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


# Each input kind: its header keyword, the rule that checks the header's
# value as soon as it is read, the builder, and for each item its line
# keyword, its JSON key and its shape (``None`` for any number of integers,
# else one type per value).  The line parser and the JSON reader both read
# this table and hand the builder the checked ``(where, value)`` header and
# lists of ``(where, tuple)`` items, ``where`` naming the line or JSON path.
_KINDS = {
    "simplicial": ("vertices", _vertex_count, simplicial_bundle, (("facet", "facets", None),)),
    "polyhedral": ("ambient", _ambient_dim, polyhedral_bundle,
                   (("face", "faces", (int, int, str)), ("cover", "covers", (int, int, int)))),
    "semigroup": ("ambient", _ambient_dim, semigroup_bundle, (("functional", "functionals", None), ("delta", "delta", None))),
}


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
    if not isinstance(t, str) or t not in _KINDS:
        raise InputFormatError(f"{pre}type: unknown complex type {t!r}")
    keyword, rule, build, items = _KINDS[t]
    header = (pre + keyword, rule(pre + keyword, _member(doc, keyword, pre)))
    return build(header, *(_items(doc, key, pre, shape) for _, key, shape in items))


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
