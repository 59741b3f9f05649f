"""The three benchmark workloads: ``sweep``, ``spheres`` and ``cli``.

Each workload turns a seed into passes of items.  An item is one unit of
closed-loop work: it runs, its time is taken, and only then is its output
checked (``check`` is never inside the timed region).  Library functions
are looked up on the module at call time (``Z.build``, not a name bound at
import), so the tracer's wrappers are seen when they are installed.

Per-task stage buckets, filled inside the timed call:

* ``cm_check``: ``is_cohen_macaulay`` (CLI: ``cm-check``)
* ``page1``: ``build`` + ``concentration_check`` (CLI: ``zeeman --page 1``)
* ``pageinf``: ``page(z, inf)`` (CLI: ``zeeman --page inf``)
* ``minres``: ``minimal_linear_resolution`` or its refusal (CLI: ``irres``)
* ``certify``: ``verify_exactness`` + ``minimality_scan`` (CLI: re-ingest of
  an emitted resolution and ``verify_exactness`` on it)
* ``hochster``: ``betti_hochster(alexander_dual(...))`` (CLI: ``betti``)
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import math
import os
import random
from time import perf_counter

STAGES = ("cm_check", "page1", "pageinf", "minres", "certify", "hochster")


class Item:
    def __init__(self, label: str, run, check, probe: bool = False):
        self.label = label
        self.run = run  # (Z, stages) -> outcome
        self.check = check  # (Z, outcome) -> problem string or None
        self.probe = probe  # malformed input: its failure is a known input-boundary defect


def _timed(stages: dict, key: str, fn, *args):
    t0 = perf_counter()
    try:
        return fn(*args)
    finally:
        stages[key] = stages.get(key, 0.0) + perf_counter() - t0


# -- the library pipeline shared by sweep and spheres -------------------------


def pipeline(Z, sc, field, stages: dict) -> dict:
    fc = Z.cone_of_simplicial(sc)
    cm = _timed(stages, "cm_check", Z.is_cohen_macaulay, fc, field)
    t0 = perf_counter()
    z = Z.build(fc, None, field)
    conc = Z.concentration_check(z)
    stages["page1"] = stages.get("page1", 0.0) + perf_counter() - t0
    p2 = Z.page(z, 2)
    pinf = _timed(stages, "pageinf", Z.page, z, math.inf)
    tot = Z.total_complex(z)
    out = {"fc": fc, "z": z, "cm": cm, "conc": conc, "p2": p2, "pinf": pinf, "tot": tot}
    try:
        res = _timed(stages, "minres", Z.minimal_linear_resolution, fc, field)
    except Z.NotCohenMacaulayError as exc:
        out["refusal"] = exc.witness
    else:
        out["res"] = res
        out["exact"] = _timed(stages, "certify", Z.verify_exactness, res)
        out["scan"] = _timed(stages, "certify", Z.minimality_scan, res)
    out["betti"] = _timed(stages, "hochster", lambda: Z.betti_hochster(Z.alexander_dual(sc), field))
    return out


def check_pipeline(Z, out: dict, field) -> str | None:
    """The four Cohen-Macaulay tests agree; E-infinity is k in total degree
    0; the Euler characteristic is the same on every page."""
    cm = out["cm"].ok
    if out["conc"].ok != cm:
        return f"CM={cm} but page-1 concentration={out['conc'].ok}"
    if cm:
        res = out.get("res")
        if res is None:
            return "CM but the minimal resolution was refused"
        if not (out["exact"].exact and Z.is_linear(res) and not out["scan"].pairs):
            return "CM but the minimal resolution is not exact, linear and split-free"
    elif "refusal" not in out:
        return "not CM but the minimal resolution was built"
    if Z.is_linear_table(out["betti"]) != cm:
        return f"Hochster-table linearity disagrees with CM={cm}"
    if out["pinf"].total_by_degree() != {0: 1}:
        return f"E-infinity is {out['pinf'].total_by_degree()}, not k in total degree 0"
    vs = out["tot"].complex
    total_euler = sum((-1) ** n * vs.dim(n) for n in range(vs.lo, vs.hi + 1))
    eulers = {total_euler, Z.page(out["z"], 1).euler(), out["p2"].euler(), out["pinf"].euler()}
    if len(eulers) != 1:
        return f"Euler characteristic varies across pages: {sorted(eulers)}"
    return None


def _pipeline_item(label: str, sc, field, extra_check=None) -> Item:
    def run(Z, stages):
        return pipeline(Z, sc, field, stages)

    def check(Z, out):
        problem = check_pipeline(Z, out, field)
        if problem is None and extra_check is not None:
            problem = extra_check(Z, out)
        return problem

    return Item(label, run, check)


# -- sweep --------------------------------------------------------------------


def random_simplicial(rng: random.Random, Z):
    """One complex from the distribution of the acceptance sweep: 2-6
    vertices, 4% the empty complex {{}}, 4% the full simplex, otherwise the
    maximal sets among up to d (or 2d) random faces of 1-5 vertices."""
    d = rng.randint(2, 6)
    roll = rng.random()
    if roll < 0.04:
        return Z.SimplicialComplex.from_facets(d, [frozenset()])
    if roll < 0.08:
        return Z.SimplicialComplex.from_facets(d, [frozenset(range(1, d + 1))])
    nf = rng.randint(1, 2 * d if roll < 0.2 else d)
    cand = []
    for _ in range(nf):
        size = rng.randint(1, min(d, 5))
        cand.append(frozenset(rng.sample(range(1, d + 1), size)))
    maximal = [s for s in set(cand) if not any(s < t for t in set(cand))]
    return Z.SimplicialComplex.from_facets(d, maximal)


class Sweep:
    """Seeded random complexes over QQ, GF(2) and GF(3), one block per seed.

    Item cost grows steeply with the number of faces, so a free draw of a
    few dozen complexes would make a run's totals depend mostly on how many
    of the largest ones its seed happened to draw.  The block is therefore
    a stratified sample of the acceptance sweep itself: its 220 complexes
    (seed ``REFERENCE_SEED``) sorted by vertex count and face count, and
    every ``STEP``-th of them taken, so each (vertices, faces) stratum gets
    its share of the 220 to within one complex.  For each complex so taken
    the block holds the next complex of this seed's stream in the same
    stratum, which keeps the generator's own distribution within the
    stratum (its Cohen-Macaulay share, its shapes).  Every pass is the same
    block, so a seed always gives the same work and the same counts.
    """

    REFERENCE = 220
    REFERENCE_SEED = 20250811
    STEP = 4  # a block of 55 complexes, 165 items

    def __init__(self, Z, seed: int, workdir: str):
        self.field_objs = (Z.QQ, Z.GF(2), Z.GF(3))
        self.fields = [f.label() for f in self.field_objs]
        ref = random.Random(self.REFERENCE_SEED)
        acceptance = sorted(_stratum(random_simplicial(ref, Z)) for _ in range(self.REFERENCE))
        profile = acceptance[self.STEP // 2 :: self.STEP]
        need = {k: profile.count(k) for k in profile}
        pools: dict = {k: [] for k in need}
        rng = random.Random(seed)
        missing = len(profile)
        while missing:
            sc = random_simplicial(rng, Z)
            pool = pools.get(_stratum(sc))
            if pool is not None and len(pool) < need[_stratum(sc)]:
                pool.append(sc)
                missing -= 1
        draws = {k: iter(v) for k, v in pools.items()}
        self.block = [next(draws[k]) for k in profile]
        self.pass_items = []
        for sc in self.block:
            tag = f"{sorted(map(sorted, sc.facets))}"
            for field in self.field_objs:
                self.pass_items.append(_pipeline_item(f"sweep {tag} over {field.label()}", sc, field))

    def passes(self):
        while True:
            yield self.pass_items

    def warmup(self):
        return self.pass_items[0]  # over QQ, a complex of the smallest stratum


def _stratum(sc) -> tuple:
    """Vertex count and face count."""
    return sc.d, len(sc.faces())


# -- spheres ------------------------------------------------------------------


def _relabel(Z, d: int, facets, perm):
    return Z.SimplicialComplex.from_facets(d, [frozenset(perm[v] for v in f) for f in facets])


RP2_FACETS = [
    (1, 2, 3), (1, 3, 4), (1, 4, 5), (1, 5, 6), (1, 2, 6),
    (2, 3, 5), (2, 4, 5), (2, 4, 6), (3, 4, 6), (3, 5, 6),
]
BD_SIMPLEX7 = [tuple(c) for c in itertools.combinations(range(1, 8), 6)]
# boundary of the 4-dimensional cross-polytope: antipodal vertex pairs (i, i+4)
CROSS4 = [tuple(c) for c in itertools.product((1, 5), (2, 6), (3, 7), (4, 8))]

# name, vertices, facets, Cohen-Macaulay over GF(2)
SPHERES = (
    ("bd_simplex7", 7, BD_SIMPLEX7, True),  # a 5-sphere
    ("bd_cross4", 8, CROSS4, True),  # a 3-sphere
    ("rp2", 6, RP2_FACETS, False),  # H^1(RP^2; GF(2)) != 0
    ("bd_simplex7_whisker", 8, BD_SIMPLEX7 + [(1, 8)], False),  # not pure
)


class Spheres:
    """A few large complexes over GF(2), vertices relabelled by the seed."""

    def __init__(self, Z, seed: int, workdir: str):
        rng = random.Random(seed)
        field = Z.GF(2)
        self.fields = [field.label()]
        self.expected_p1 = {}
        self.pass_items = []
        for name, d, facets, cm in SPHERES:
            perm = dict(zip(range(1, d + 1), rng.sample(range(1, d + 1), d)))
            sc = _relabel(Z, d, facets, perm)
            self.pass_items.append(
                _pipeline_item(f"spheres {name}", sc, field, self._extra_check(name, cm, field))
            )

    def _extra_check(self, name, cm, field):
        def check(Z, out):
            if out["cm"].ok != cm:
                return f"{name}: CM verdict {out['cm'].ok}, expected {cm}"
            fc = out["fc"]
            expected = self.expected_p1.get(name)
            if expected is None:  # summed local cohomology, computed once per complex
                expected = {}
                for f in fc.faces:
                    summary = Z.local_cohomology(fc, f.id, field)
                    for p in range(summary.lo, summary.hi + 1):
                        if summary.dim(p):
                            key = (p, -f.dim)
                            expected[key] = expected.get(key, 0) + summary.dim(p)
                self.expected_p1[name] = expected
            if Z.page(out["z"], 1).dims != expected:
                return f"{name}: page-1 dims disagree with summed local cohomology"
            return None

        return check

    def passes(self):
        while True:
            yield self.pass_items

    def warmup(self):
        return self.pass_items[2]  # the smallest complex


# -- cli ----------------------------------------------------------------------


def _facet_lines(facets) -> str:
    return "".join("facet " + " ".join(str(v) for v in sorted(f)) + "\n" for f in facets)


SQUARE = "semigroup\nambient 3\nfunctional 1 0 0\nfunctional 0 1 0\nfunctional -1 0 1\nfunctional 0 -1 1\n"
HEXAGON = (
    "semigroup\nambient 3\nfunctional -1 -1 1\nfunctional 0 -1 1\nfunctional 1 0 1\n"
    "functional 1 1 1\nfunctional 0 1 1\nfunctional -1 0 1\n"
)
CUBE = (
    "semigroup\nambient 4\nfunctional 1 0 0 0\nfunctional -1 0 0 1\nfunctional 0 1 0 0\n"
    "functional 0 -1 0 1\nfunctional 0 0 1 0\nfunctional 0 0 -1 1\n"
)
# the cone over the hollow triangle, face by face, with the simplicial signs
POLY_HOLLOW = (
    "polyhedral\nambient 3\n"
    "face 0 0 o\nface 1 1 a\nface 2 1 b\nface 3 1 c\nface 4 2 ab\nface 5 2 ac\nface 6 2 bc\n"
    "cover 0 1 +1\ncover 0 2 +1\ncover 0 3 +1\ncover 1 4 -1\ncover 2 4 +1\n"
    "cover 1 5 -1\ncover 3 5 +1\ncover 2 6 -1\ncover 3 6 +1\n"
)

# name, vertices, facets, Cohen-Macaulay over (QQ, GF(2))
CLI_SIMPLICIAL = (
    ("hollow", 3, [(1, 2), (1, 3), (2, 3)], (True, True)),  # a circle
    ("bowtie", 5, [(1, 2, 3), (3, 4, 5)], (False, False)),  # two triangles at a vertex
    ("rp2", 6, RP2_FACETS, (True, False)),
    ("octahedron", 6, [(a, b, c) for a in (1, 4) for b in (2, 5) for c in (3, 6)], (True, True)),
)
# name, text, Cohen-Macaulay over both fields
CLI_CONES = (
    ("poly_hollow", POLY_HOLLOW, True),  # a circle
    ("square", SQUARE, True),  # a whole cone is Cohen-Macaulay
    ("square_delta", SQUARE + "delta 1\ndelta 2\n", True),  # two adjacent facets: a ball
    ("hexagon", HEXAGON, True),
    ("hexagon_delta", HEXAGON + "".join(f"delta {i}\n" for i in range(1, 7)), True),  # a circle
    ("cube", CUBE, True),
    ("cube_delta", CUBE + "delta 1\ndelta 2\n", False),  # two opposite facets: disconnected
)
# the malformed inputs of the input-boundary table; each must exit 2 without a traceback
CLI_PROBES = (
    ("vertices_missing", b"simplicial\nvertices\nfacet 1 2\n"),
    ("vertices_not_int", b"simplicial\nvertices x\nfacet 1 2\n"),
    ("cover_unknown_face", b"polyhedral\nambient 1\nface 0 0 apex\nface 1 1 ray\ncover 0 1 +1\ncover 0 5 1\n"),
    ("delta_out_of_range", SQUARE.encode() + b"delta 9\n"),
    ("not_utf8", b"simplicial\nvertices 3\nfacet 1 2\xff\xfe\n"),
)
FIELD_ARGS = ("q", "p:2")


class CliRun:
    """In-process ``zeemac.cli.run`` with stdout and stderr captured."""

    def __init__(self, code, out: str, err: str, exc: BaseException | None):
        self.code, self.out, self.err, self.exc = code, out, err, exc


def _invoke(Z, argv) -> CliRun:
    out, err = io.StringIO(), io.StringIO()
    exc = None
    code = None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = Z.cli.run(argv)
        except Exception as e:  # an uncaught exception is a traceback for a real caller
            exc = e
    return CliRun(code, out.getvalue(), err.getvalue(), exc)


def _lines_check(r: CliRun, code: int, lines) -> str | None:
    if r.exc is not None:
        return f"uncaught {type(r.exc).__name__}: {r.exc}"
    if r.code != code:
        return f"exit {r.code}, expected {code}"
    text = r.out.splitlines()
    for want in lines:
        if want not in text:
            return f"missing line {want!r}"
    return None


class Cli:
    """Text inputs written at set-up, the commands of the CLI over them."""

    def __init__(self, Z, seed: int, workdir: str):
        rng = random.Random(seed)
        self.fields = list(FIELD_ARGS)
        os.makedirs(workdir, exist_ok=True)
        items: list[Item] = []

        def write(name: str, data: bytes) -> str:
            path = os.path.join(workdir, name + ".txt")
            with open(path, "wb") as fh:
                fh.write(data)
            return path

        for name, d, facets, cms in CLI_SIMPLICIAL:
            perm = dict(zip(range(1, d + 1), rng.sample(range(1, d + 1), d)))
            text = f"simplicial\nvertices {d}\n" + _facet_lines([[perm[v] for v in f] for f in facets])
            path = write(name, text.encode())
            items += self._commands(name, path, dict(zip(FIELD_ARGS, cms)), simplicial=True, geometry=True)
        for name, text, cm in CLI_CONES:
            path = write(name, text.encode())
            items += self._commands(
                name, path, {f: cm for f in FIELD_ARGS}, simplicial=False, geometry=not text.startswith("polyhedral")
            )
        for name, data in CLI_PROBES:
            items.append(self._probe(name, write(name, data)))
        rng.shuffle(items)
        self.pass_items = items

    def _commands(self, name, path, cm_by_field, simplicial: bool, geometry: bool):
        items = [self._text(f"{name} validate", ["validate", path], None, 0, ["verdict: valid"])]
        if simplicial:
            items.append(self._text(f"{name} dual", ["dual", path], None, 0, []))
        for fa in FIELD_ARGS:
            cm = cm_by_field[fa]
            fl = ["--field", fa]
            agree = "verdicts agree: yes"
            verdict = "local-cohomology verdict: " + ("Cohen-Macaulay" if cm else "not Cohen-Macaulay")
            items.append(self._text(f"{name} cm-check {fa}", ["cm-check", path] + fl, "cm_check", 0 if cm else 1, [verdict, agree]))
            for pg, bucket in (("1", "page1"), ("2", None), ("inf", "pageinf")):
                items.append(
                    self._text(
                        f"{name} zeeman --page {pg} {fa}",
                        ["zeeman", path, "--page", pg] + fl,
                        bucket,
                        0,
                        ["euler characteristic: 1"],
                        concentration=cm,
                    )
                )
            items.append(self._resolution(f"{name} irres {fa}", ["irres", path, "--format", "json"] + fl, "minres", cm, geometry, minimal=True))
            items.append(self._resolution(f"{name} total-irres {fa}", ["total-irres", path, "--format", "json"] + fl, None, True, geometry, minimal=False))
            if simplicial:
                items.append(self._text(f"{name} hilbert {fa}", ["hilbert", path, "--check-resolution"] + fl, None, 0, []))
                lines = ["linear resolution: " + ("yes" if cm else "no")]
                if cm:
                    lines.append("cross-check against the dualized minimal resolution: agrees")
                items.append(self._text(f"{name} betti {fa}", ["betti", path, "--multigraded"] + fl, "hochster", 0 if cm else 1, lines))
        return items

    @staticmethod
    def _text(label, argv, bucket, code, lines, concentration=None) -> Item:
        def run(Z, stages):
            if bucket is None:
                return _invoke(Z, argv)
            return _timed(stages, bucket, _invoke, Z, argv)

        def check(Z, r):
            problem = _lines_check(r, code, lines)
            if problem is not None:
                return problem
            text = r.out.splitlines()
            if concentration is not None:
                want = ": yes" if concentration else ": no"
                conc = [ln for ln in text if ln.startswith("page-1 concentration in column ")]
                if len(conc) != 1 or not conc[0].endswith(want):
                    return f"concentration line {conc}, expected one ending {want!r}"
            if argv[0] == "hilbert" and not any(ln.endswith("(matches)") for ln in text):
                return "resolution-side numerator does not match"
            if argv[0] == "dual" and not any(ln.startswith("alexander dual") for ln in text):
                return "no alexander dual line"
            return None

        return Item(label, run, check)

    @staticmethod
    def _resolution(label, argv, bucket, cm: bool, geometry: bool, minimal: bool) -> Item:
        """Emit a resolution as JSON, re-ingest it and certify it again."""

        def run(Z, stages):
            r = _timed(stages, bucket, _invoke, Z, argv) if bucket else _invoke(Z, argv)
            if r.exc is None and r.code == 0:
                t0 = perf_counter()
                doc = json.loads(r.out)
                res, _, _ = Z.formats.resolution_from_doc(doc)
                r.doc = doc
                r.recheck = Z.verify_exactness(res).exact if geometry else res.check_composition()
                stages["certify"] = stages.get("certify", 0.0) + perf_counter() - t0
            return r

        def check(Z, r):
            if r.exc is not None:
                return f"uncaught {type(r.exc).__name__}: {r.exc}"
            if not cm:
                if r.code != 1 or json.loads(r.out).get("refused") is not True:
                    return f"exit {r.code}: expected a refusal with exit 1"
                return None
            if r.code != 0:
                return f"exit {r.code}, expected 0"
            certs = r.doc["certificates"]
            if certs.get("composition-zero") is not True or certs.get("block-support") is not True:
                return f"emitted certificates fail: {certs}"
            if geometry and certs.get("exact") is not True:
                return f"emitted exactness certificate fails: {certs}"
            if minimal and (certs.get("linear") is not True or certs.get("split-pairs") != 0):
                return f"minimal resolution not linear and split-free: {certs}"
            if r.recheck is not True:
                return "the re-ingested resolution does not certify"
            return None

        return Item(label, run, check)

    @staticmethod
    def _probe(name, path) -> Item:
        argv = ["cm-check", path]

        def run(Z, stages):
            return _invoke(Z, argv)

        def check(Z, r):
            if r.exc is not None:
                return f"malformed input {name}: uncaught {type(r.exc).__name__} (a traceback), expected exit 2"
            if r.code != 2 or "Traceback" in r.err:
                return f"malformed input {name}: exit {r.code}, expected 2 with a diagnostic"
            return None

        return Item(f"probe {name}", run, check, probe=True)

    def passes(self):
        while True:
            yield self.pass_items

    def warmup(self):
        return next(it for it in self.pass_items if it.label.startswith("hollow cm-check"))
