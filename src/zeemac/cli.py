"""Command-line front end.

Commands: validate, cm-check, zeeman, irres, total-irres, dual, betti,
hilbert.  Exit codes: 0 on success with a true verdict, 1 when the checked
verdict is false (not valid / not Cohen-Macaulay / not linear), 2 on input
errors.  Every command but validate checks the complex first and treats an
invalid one (a bad diamond, say) as an input error.  Reports are
deterministic byte for byte; ``--format json`` emits machine-readable
documents (resolutions re-ingest via formats).
"""

from __future__ import annotations

import argparse
import functools
import math
import sys

from . import formats
from .cohomology import is_cohen_macaulay
from .complexes import SimplicialComplex, VoidComplex, alexander_dual, validate
from .eagon_reiner import betti_from_dual, betti_hochster, dualize, is_linear_table
from .linalg import QQ, parse_field
from .resolutions import (
    NotCohenMacaulayError,
    coarse_hilbert_numerator,
    coarse_resolution_numerator,
    is_linear,
    minimal_linear_resolution,
    minimality_scan,
    total_resolution,
    total_resolution_terms,
    verify_exactness,
)
from .zeeman import build, concentration_check, page


def _parse_degree(text: str, d: int) -> tuple | None:
    """The ``--degree`` vector ``text``: comma-separated integers, none of them empty."""
    parts = text.split(",")
    if empty := [k for k, p in enumerate(parts, 1) if not p.strip()]:
        raise formats.InputFormatError(f"bad --degree {text!r}: field {empty[0]} is empty")
    try:
        vals = [int(p) for p in parts]
    except ValueError as exc:
        raise formats.InputFormatError(f"bad degree vector {text!r}: {exc}") from exc
    if vals == [0]:
        return None  # the ordinary degree
    if len(vals) != d:
        raise formats.InputFormatError(
            f"degree vector {text!r} has length {len(vals)}, expected {d} (or the single 0)"
        )
    return tuple(vals)


def _describe(bundle: formats.InputBundle, path: str) -> str:
    fc = bundle.fc
    return (
        f"input: {path} ({bundle.kind}, ambient dimension {fc.ambient_dim}, "
        f"{len(fc.faces)} faces, top dimension {fc.dim})"
    )


def _bad_diamond(fc, g: int, f: int) -> str:
    return f"bad diamond: {fc.face(g).label} < {fc.face(f).label} has nonzero sign sum"


def _first_problem(fc) -> str | None:
    """The first bad diamond, else the first other problem, of an invalid
    complex; None for a valid one."""
    rep = validate(fc)
    if rep.bad_diamonds:
        return _bad_diamond(fc, *rep.bad_diamonds[0])
    return rep.problems[0] if rep.problems else None


def _cmd_validate(bundle, args, out, doc) -> int:
    rep = validate(bundle.fc)
    out.append(f"faces: {len(bundle.fc.faces)}  covers: {len(bundle.fc.covers)}")
    doc["valid"] = rep.ok
    doc["problems"] = list(rep.problems)
    doc["bad-diamonds"] = [
        [bundle.fc.face(g).label, bundle.fc.face(f).label] for g, f in rep.bad_diamonds
    ]
    if rep.ok:
        out.append("verdict: valid")
        return 0
    out.append("verdict: invalid")
    for p in rep.problems:
        out.append(f"problem: {p}")
    for g, f in rep.bad_diamonds:
        out.append(_bad_diamond(bundle.fc, g, f))
    return 1


def _witness(fc, witness, out, doc) -> None:
    """The ``witness:`` line and the JSON ``witness`` member of a (face, degree, dimension) witness."""
    g, p, dim = witness
    out.append(f"witness: face {fc.face(g).label}, cohomological degree {p}, dimension {dim}")
    doc["witness"] = {"face": fc.face(g).label, "degree": p, "dimension": dim}


def _cmd_cm_check(bundle, args, out, doc) -> int:
    field = args.field
    fc = bundle.fc
    verdict = is_cohen_macaulay(fc, field)
    out.append(f"field: {field.label()}")
    out.append(f"top dimension: {fc.dim}")
    doc["field"] = field.label()
    doc["top-dimension"] = fc.dim
    doc["cohen-macaulay"] = verdict.ok
    if verdict.ok:
        out.append("local-cohomology verdict: Cohen-Macaulay")
    else:
        out.append("local-cohomology verdict: not Cohen-Macaulay")
        _witness(fc, verdict.witness, out, doc)
    conc = concentration_check(build(fc, None, field))
    doc["concentration"] = conc.ok
    doc["concentration-violations"] = [list(v) for v in conc.violations]
    out.append(f"spectral concentration in column {conc.column}: {'yes' if conc.ok else 'no'}")
    for p, q, d in conc.violations:
        out.append(f"  nonzero page-1 entry outside the top column: (p={p}, q={q}) dim {d}")
    out.append(f"verdicts agree: {'yes' if conc.ok == verdict.ok else 'NO (bug)'}")
    return 0 if verdict.ok else 1


def _render_page_table(fc, pg, out) -> None:
    n = fc.dim
    cols = list(range(n + 1))
    out.append("rows: dim G (so the bidegree is (p, -dimG)); columns: p")
    header = "dimG\\p " + " ".join(f"{p:>4}" for p in cols)
    out.append(header)
    for gdim in range(n + 1):
        row = [f"{gdim:>6} "]
        for p in cols:
            d = pg.dim(p, -gdim)
            row.append(f"{d if d else '.':>4}")
        out.append(" ".join(row))


def _cmd_zeeman(bundle, args, out, doc) -> int:
    field = args.field
    fc = bundle.fc
    degree = _parse_degree(args.degree, fc.ambient_dim)
    z = build(fc, degree, field)
    r = args.page
    pg = page(z, math.inf if r == "inf" else int(r))
    shown = "inf" if r == "inf" else r
    out.append(f"field: {field.label()}  degree: {args.degree}  page: {shown}")
    _render_page_table(fc, pg, out)
    out.append(f"euler characteristic: {pg.euler()}")
    doc["field"] = field.label()
    doc["degree"] = args.degree
    doc["page"] = shown
    doc["dims"] = {f"{p},{q}": d for (p, q), d in sorted(pg.dims.items()) if d}
    doc["euler"] = pg.euler()
    if degree is None:
        conc = concentration_check(z)
        doc["concentration"] = conc.ok
        out.append(
            f"page-1 concentration in column {conc.column}: {'yes' if conc.ok else 'no'}"
        )
    return 0


def _emit_resolution(res, bundle, out, args, certificates, doc) -> None:
    if args.format == "json":
        doc.clear()
        doc.update(formats.resolution_to_doc(res, bundle, certificates))
        return
    out.append(f"field: {res.field.label()}  variant: {res.variant}")
    out.append(f"term sizes: {list(res.term_sizes())}")
    fc = res.fc
    for i, term in enumerate(res.terms):
        parts = [f"{fc.face(g).label}^{m}" if m > 1 else fc.face(g).label for g, m in term.summands]
        out.append(f"W^{i} = " + (" + ".join(parts) if parts else "0"))
    for i, m in enumerate(res.maps):
        out.append(f"map W^{i} -> W^{i+1} ({m.rows}x{m.cols}):")
        for r in range(m.rows):
            out.append("  [" + " ".join(str(x) for x in m.row(r)) + "]")
    if res.augmentation is not None:
        out.append("augmentation: [" + " ".join(str(x) for x in res.augmentation) + "]")
    for key, val in sorted(certificates.items()):
        out.append(f"certificate {key}: {val}")


def _resolution_certificates(res) -> dict:
    """All three certificates a resolution needs (composition, block
    support, exactness; exactness presumes the other two), plus linearity
    and the split pairs of the minimality scan."""
    certs = {
        "composition-zero": res.check_composition(),
        "block-support": res.check_block_support(),
        "linear": is_linear(res),
        "split-pairs": len(minimality_scan(res).pairs),
    }
    if res.fc.has_geometry:
        report = verify_exactness(res)
        certs["exact"] = report.exact
        certs["checked-degrees"] = report.checked_degrees
        if not report.exact:
            certs["failing-degree"] = list(report.failing_degree)
    else:
        certs["exact"] = "not checked (no lattice geometry attached)"
    return certs


def _cmd_irres(bundle, args, out, doc) -> int:
    field = args.field
    fc = bundle.fc
    try:
        res = minimal_linear_resolution(fc, field)
    except NotCohenMacaulayError as exc:
        out.append(f"field: {field.label()}")
        out.append("refused: the complex is not Cohen-Macaulay over this field")
        doc["refused"] = True
        _witness(fc, exc.witness, out, doc)
        return 1
    _emit_resolution(res, bundle, out, args, _resolution_certificates(res), doc)
    return 0


def _cmd_total_irres(bundle, args, out, doc) -> int:
    res = total_resolution(bundle.fc, args.field)
    _emit_resolution(res, bundle, out, args, _resolution_certificates(res), doc)
    return 0


def _require_simplicial(bundle) -> SimplicialComplex:
    if bundle.sc is None:
        raise formats.InputFormatError(
            f"this command needs a simplicial input, got {bundle.kind}"
        )
    return bundle.sc


def _cmd_dual(bundle, args, out, doc) -> int:
    sc = _require_simplicial(bundle)
    dual = alexander_dual(sc)
    if isinstance(dual, VoidComplex):
        out.append("alexander dual: VOID (the input contains the full vertex set)")
        doc["void"] = True
        return 0
    doc["void"] = False
    doc["vertices"] = dual.d
    doc["facets"] = [sorted(f) for f in dual.facets]
    out.append(f"alexander dual on {dual.d} vertices; facets:")
    for f in dual.facets:
        out.append("  {" + ",".join(str(v) for v in sorted(f)) + "}")
    return 0


def _render_betti(bt, out, multigraded: bool) -> None:
    if bt.void_dual:
        out.append("betti table: empty (void dual; the dual ideal is the unit ideal)")
        return
    coarse = bt.coarse()
    if not coarse:
        out.append("betti table: empty (zero ideal)")
        return
    imax = max(i for i, _ in coarse)
    jmax = max(j for _, j in coarse)
    out.append("betti table (rows i, columns j = total degree):")
    header = "  i\\j " + " ".join(f"{j:>4}" for j in range(jmax + 1))
    out.append(header)
    for i in range(imax + 1):
        row = [f"{i:>5} "]
        for j in range(jmax + 1):
            v = coarse.get((i, j), 0)
            row.append(f"{v if v else '.':>4}")
        out.append(" ".join(row))
    if multigraded:
        out.append("multigraded entries:")
        for (i, s), v in sorted(bt.normalized().items(), key=lambda kv: (kv[0][0], sorted(kv[0][1]))):
            out.append(f"  beta_{i},{{{','.join(str(x) for x in sorted(s))}}} = {v}")


def _cmd_betti(bundle, args, out, doc) -> int:
    field = args.field
    sc = _require_simplicial(bundle)
    dual = alexander_dual(sc)
    bt = betti_hochster(dual, field)
    out.append(f"field: {field.label()}")
    out.append("ideal: the radical monomial ideal of the alexander dual")
    _render_betti(bt, out, args.multigraded)
    linear = is_linear_table(bt)
    out.append(f"linear resolution: {'yes' if linear else 'no'}")
    doc["field"] = field.label()
    doc["void-dual"] = bt.void_dual
    doc["entries"] = [
        {"i": i, "sigma": sorted(s), "mult": v}
        for (i, s), v in sorted(bt.normalized().items(), key=lambda kv: (kv[0][0], sorted(kv[0][1])))
    ]
    doc["linear"] = linear
    verdict = is_cohen_macaulay(bundle.fc, field)
    if verdict.ok and not bt.void_dual:
        res = minimal_linear_resolution(bundle.fc, field)
        agrees = betti_from_dual(dualize(res)).same_entries(bt)
        doc["cross-check"] = agrees
        out.append(f"cross-check against the dualized minimal resolution: {'agrees' if agrees else 'DISAGREES (escalate)'}")
    return 0 if linear else 1


def _poly_str(coeffs) -> str:
    parts = []
    for e, c in enumerate(coeffs):
        if c == 0:
            continue
        term = "t" if e == 1 else f"t^{e}" if e else "1"
        if c == 1 and e:
            parts.append(f"+ {term}")
        elif c == -1 and e:
            parts.append(f"- {term}")
        elif c < 0:
            parts.append(f"- {-c}*{term}" if e else f"- {-c}")
        else:
            parts.append(f"+ {c}*{term}" if e else f"+ {c}")
    s = " ".join(parts) if parts else "0"
    return s[2:] if s.startswith("+ ") else s


def _cmd_hilbert(bundle, args, out, doc) -> int:
    fc = bundle.fc
    if args.degree is not None:
        a = _parse_degree(args.degree, fc.ambient_dim)
        if a is None:
            a = (0,) * fc.ambient_dim
        fc.require_geometry("degreewise evaluation needs lattice geometry")
        containing = fc.faces_containing(a)
        on = sorted(containing)
        quotient = 1 if on else 0
        out.append(f"degree: ({','.join(str(x) for x in a)})")
        out.append(f"quotient component dimension: {quotient}")
        out.append("faces containing the degree: " + (", ".join(fc.face(i).label for i in on) if on else "none"))
        relint = [i for i in on if fc.relint_contains(i, a)]
        out.append(
            "relative interior (canonical-module indicator 1): "
            + (", ".join(fc.face(i).label for i in relint) if relint else "none")
        )
        doc["degree"] = list(a)
        doc["quotient-dimension"] = quotient
        doc["faces-containing"] = [fc.face(i).label for i in on]
        doc["relative-interior-of"] = [fc.face(i).label for i in relint]
        if args.check_resolution:
            terms = total_resolution_terms(fc)
            alt = sum((-1) ** i * sum(g in containing for g in term.faces) for i, term in enumerate(terms))
            doc["resolution-alternating-sum"] = alt
            out.append(
                f"alternating sum over the total resolution: {alt} "
                f"({'matches' if alt == quotient else 'MISMATCH'})"
            )
        return 0
    num = coarse_hilbert_numerator(fc)
    doc["numerator-coefficients"] = num
    doc["denominator"] = f"(1-t)^{fc.ambient_dim}"
    out.append(f"coarse hilbert series of the quotient: ({_poly_str(num)}) / (1-t)^{fc.ambient_dim}")
    if args.check_resolution:
        num2 = coarse_resolution_numerator(fc, total_resolution_terms(fc))
        doc["resolution-numerator-coefficients"] = num2
        out.append(
            "resolution-side numerator: "
            + f"({_poly_str(num2)}) "
            + ("(matches)" if num2 == num else "(MISMATCH)")
        )
    return 0


_COMMANDS = {
    "validate": _cmd_validate,
    "cm-check": _cmd_cm_check,
    "zeeman": _cmd_zeeman,
    "irres": _cmd_irres,
    "total-irres": _cmd_total_irres,
    "dual": _cmd_dual,
    "betti": _cmd_betti,
    "hilbert": _cmd_hilbert,
}


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The argument parser, built by the first ``run`` and reused by the
    rest: parsing arguments leaves it as it was."""
    ap = argparse.ArgumentParser(
        prog="zeemac",
        description="face complexes: validation, Cohen-Macaulay checks, double-complex pages, irreducible resolutions, dual Betti tables",
    )
    sub = ap.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("input", help="input file (simplicial / polyhedral / semigroup)")
        p.add_argument("--field", type=parse_field, default=QQ, help="q or p:<prime> (default q)")
        p.add_argument("--format", choices=("text", "json"), default="text")
        if name == "zeeman":
            p.add_argument("--page", choices=("0", "1", "2", "inf"), default="1")
            p.add_argument("--degree", default="0", help="comma-separated integers; 0 means the ordinary degree")
        if name == "hilbert":
            p.add_argument("--degree", default=None, help="comma-separated integers; omit for the coarse series")
            p.add_argument("--check-resolution", action="store_true")
        if name == "betti":
            p.add_argument("--multigraded", action="store_true")
    return ap


def run(argv) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        bundle = formats.load_input(args.input)
    except FileNotFoundError:
        print(f"error: no such input file: {args.input}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: cannot read input file {args.input}: {exc.strerror or exc}", file=sys.stderr)
        return 2
    except formats.InputFormatError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.command != "validate":
        problem = _first_problem(bundle.fc)
        if problem is not None:
            print(f"error: {args.input} is not a valid face complex: {problem}", file=sys.stderr)
            return 2
    out: list[str] = []
    out.append(_describe(bundle, args.input))
    doc: dict = {"command": args.command, "input": args.input}
    try:
        code = _COMMANDS[args.command](bundle, args, out, doc)
    except ValueError as exc:  # input errors and missing geometry included
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.format == "json":
        if doc.get("kind") != "irreducible-resolution":  # keep those docs re-ingestable as-is
            doc["exit"] = code
        print(formats.dump_json(doc), end="")
    else:
        print("\n".join(out))
    return code


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
