import contextlib
import io
import json
import re
import time
from fractions import Fraction

import pytest

from zeemac import FieldMismatchError, GF, QQ, FaceModuleComplex, Mat, SimplicialComplex, minimal_linear_resolution, verify_exactness
from zeemac import cli, formats
from zeemac.cli import _COMMANDS, run
from zeemac.formats import (
    InputFormatError,
    _mat_from_doc,
    bundle_from_doc,
    complex_to_doc,
    load_input,
    parse_input_text,
    resolution_from_doc,
    resolution_to_doc,
)
from zeemac.cohomology import CMResult
from zeemac.complexes import subcomplex

from . import test_golden_cli as golden

HOLLOW = "simplicial\nvertices 3\nfacet 1 2\nfacet 1 3\nfacet 2 3\n"
BOWTIE = "simplicial\nvertices 5\nfacet 1 2 3\nfacet 3 4 5\n"
RP2 = (
    "simplicial\nvertices 6\n"
    + "\n".join(
        "facet " + " ".join(str(v) for v in f)
        for f in [
            (1, 2, 3), (1, 3, 4), (1, 4, 5), (1, 5, 6), (1, 2, 6),
            (2, 3, 5), (2, 4, 5), (2, 4, 6), (3, 4, 6), (3, 5, 6),
        ]
    )
    + "\n"
)
SQUARE = (
    "semigroup\nambient 3\n"
    "functional 1 0 0\nfunctional 0 1 0\nfunctional -1 0 1\nfunctional 0 -1 1\n"
    "delta 1\ndelta 2\n"
)
POLY_EDGE = "polyhedral\nambient 1\nface 0 0 apex\nface 1 1 ray\ncover 0 1 +1\n"
POLY_BAD_SIGN = (
    "polyhedral\nambient 2\n"
    "face 0 0 o\nface 1 1 a\nface 2 1 b\nface 3 2 top\n"
    "cover 0 1 +1\ncover 0 2 +1\ncover 1 3 +1\ncover 2 3 +1\n"
)


def write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


def test_parse_simplicial():
    b = parse_input_text(HOLLOW)
    assert b.kind == "simplicial" and len(b.fc.faces) == 7
    assert b.fc.has_geometry


def test_parse_polyhedral():
    b = parse_input_text(POLY_EDGE)
    assert b.kind == "polyhedral" and len(b.fc.faces) == 2
    assert not b.fc.has_geometry


def test_parse_semigroup_with_delta():
    b = parse_input_text(SQUARE)
    assert b.kind == "semigroup"
    assert len(b.fc.faces) == 6
    assert b.delta_selectors == ((1,), (2,))


def test_delta_faces_are_found_by_vanishing_set():
    # each 'delta' face is looked up by its vanishing set; the subcomplex is
    # the one that scanning every face for an equal ConeFace selects
    square, hexagon, cube = golden.SQUARE, golden.HEXAGON, golden.CUBE
    for text in (
        square + "delta 1\ndelta 2\n",
        hexagon + "".join(f"delta {i}\n" for i in range(1, 7)),
        hexagon + "delta 1\ndelta 2\n",
        cube + "delta 1\ndelta 2\n",
        cube + "delta 1\ndelta 3\ndelta 5\n",
    ):
        b = parse_input_text(text)
        full = parse_input_text(text.split("delta")[0]).fc
        q = full.semigroup
        selected = [q.face_with_vanishing([i - 1 for i in sel]) for sel in b.delta_selectors]
        want = subcomplex(full, [next(i for i, c in full.cone_faces.items() if c == cf) for cf in selected])
        assert [(f.id, f.dim, f.label, f.key) for f in b.fc.faces] == [(f.id, f.dim, f.label, f.key) for f in want.faces]
        assert b.fc.covers == want.covers and b.fc.cone_faces == want.cone_faces


def test_parse_semigroup_whole_lattice():
    b = parse_input_text(SQUARE.replace("delta 1\ndelta 2\n", ""))
    assert len(b.fc.faces) == 10


def test_parse_errors_carry_line_numbers():
    with pytest.raises(InputFormatError) as exc:
        parse_input_text("simplicial\nvertices 3\nfacetz 1 2\n")
    assert "line 3" in str(exc.value)
    with pytest.raises(InputFormatError):
        parse_input_text("geodesic\n")
    with pytest.raises(InputFormatError):
        parse_input_text("")


def _bundle_parts(b) -> tuple:
    """Everything a bundle holds: its kind, complex, faces (labels and keys
    included), covers, cone faces, cone and delta selectors."""
    fc, q = b.fc, b.fc.semigroup
    cone = (q.d, q.functionals) if q is not None else None
    return b.kind, b.sc, fc.ambient_dim, fc.faces, fc.covers, fc.cone_faces, cone, b.delta_selectors


def test_bundle_doc_roundtrip():
    # every example input, polyhedral ones with labels and semigroup ones with delta lines among them
    texts = [text for text, _ in golden.INPUTS.values()]
    texts += [HOLLOW, BOWTIE, RP2, SQUARE, POLY_EDGE, POLY_BAD_SIGN, POLY_HOLLOW_FLIPPED, "simplicial\nvertices 3\nfacet\n"]
    kinds = set()
    for text in texts:
        b = parse_input_text(text)
        doc = complex_to_doc(b)
        b2 = bundle_from_doc(json.loads(json.dumps(doc)))
        assert _bundle_parts(b2) == _bundle_parts(b), text
        assert complex_to_doc(b2) == doc
        kinds.add((b.kind, bool(b.delta_selectors), any(f.label != f"f{f.id}" for f in b.fc.faces)))
    assert {("simplicial", False, True), ("polyhedral", False, True), ("semigroup", True, True)} <= kinds


def test_bundle_from_doc_names_the_bad_item():
    # the JSON reader goes through the same constructors as the text parser
    cases = [
        ({"type": "simplicial", "vertices": 3, "facets": [[1, 2], [1, 4]]}, "facets[1]: "),
        ({"type": "simplicial", "vertices": 3, "facets": [[1, 2], [1]]}, "facets[0], facets[1]: facets must be incomparable"),
        ({"type": "simplicial", "vertices": 3, "facets": [[2, 3], [1], [1, 3]]}, "facets[1], facets[2]: facets must be incomparable"),
        ({"type": "simplicial", "vertices": 3, "facets": [[2, 3], [1, 2], [2, 1]]}, "facets[1], facets[2]: duplicate facet [1, 2]"),
        ({"type": "simplicial", "vertices": 17, "facets": [[1, 2]]}, "vertices: "),
        ({"type": "semigroup", "ambient": 2, "functionals": [[1, 0], [0, 2]], "delta": None}, "functionals[1]: "),
        ({"type": "semigroup", "ambient": 2, "functionals": [[1, 0], [0, 1]], "delta": [[1], [3]]}, "delta[1]: "),
        ({"type": "polyhedral", "ambient": 1, "faces": [[0, 0, "o"], [2, 1, "r"]], "covers": []}, "faces[1]: "),
        ({"type": "polyhedral", "ambient": 1, "faces": [[0, 0, "o"], [1, 1, "r"]], "covers": [[0, 1, 2]]}, "covers[0]: "),
        # one rule per header, a JSON boolean being no integer
        ({"type": "simplicial", "vertices": True, "facets": [[1]]}, "vertices: expected int, got bool"),
        ({"type": "semigroup", "ambient": True, "functionals": [[1]]}, "ambient: 'ambient' must be an integer >= 1, got True"),
        ({"type": "polyhedral", "ambient": True, "faces": [[0, 0, "o"]], "covers": []}, "ambient: 'ambient' must be an integer >= 1, got True"),
        ({"type": "polyhedral", "ambient": "x", "faces": [[0, 0, "o"]], "covers": []}, "ambient: 'ambient' must be an integer >= 1, got 'x'"),
        ({"type": "polyhedral", "ambient": 0, "faces": [[0, 0, "o"]], "covers": []}, "ambient: 'ambient' must be an integer >= 1, got 0"),
        # a type that is no known kind, a string or not
        ({"type": "Simplicial", "vertices": 3, "facets": [[1]]}, "type: unknown complex type 'Simplicial'"),
        ({"type": ["simplicial"], "vertices": 3, "facets": [[1]]}, "type: unknown complex type ['simplicial']"),
        ({"type": {"kind": 1}, "vertices": 3, "facets": [[1]]}, "type: unknown complex type {'kind': 1}"),
    ]
    for doc, prefix in cases:
        with pytest.raises(InputFormatError) as exc:
            bundle_from_doc(doc)
        assert str(exc.value).startswith(prefix)


def test_polyhedral_input_without_faces_is_an_input_error(tmp_path, capsys):
    # no 'face' line: every command exits 2 at the reader, text and JSON alike
    path = write(tmp_path, "no_faces.txt", "polyhedral\nambient 2\n")
    for command in _COMMANDS:
        for fmt in ("text", "json"):
            assert run([command, path, "--format", fmt]) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err.startswith("error: no faces")
            assert "Traceback" not in captured.err
    with pytest.raises(InputFormatError, match="^no faces"):
        bundle_from_doc({"type": "polyhedral", "ambient": 2, "faces": [], "covers": []})


def test_cli_cm_check_exit_codes(tmp_path, capsys):
    ht = write(tmp_path, "ht.txt", HOLLOW)
    assert run(["cm-check", ht, "--field", "q"]) == 0
    out = capsys.readouterr().out
    assert "Cohen-Macaulay" in out and "verdicts agree: yes" in out

    rp2 = write(tmp_path, "rp2.txt", RP2)
    assert run(["cm-check", rp2, "--field", "p:2"]) == 1
    out = capsys.readouterr().out
    assert "not Cohen-Macaulay" in out and "witness" in out
    assert run(["cm-check", rp2, "--field", "p:3"]) == 0
    capsys.readouterr()


@pytest.mark.parametrize("side", ["local-cohomology", "concentration"])
def test_cli_cm_check_reports_verdicts_that_disagree(tmp_path, capsys, monkeypatch, side):
    # one side of the cross-check flipped: the agreement line must compare the two
    if side == "local-cohomology":
        path = write(tmp_path, "rp2.txt", RP2)  # not Cohen-Macaulay over GF(2)
        monkeypatch.setattr(cli, "is_cohen_macaulay", lambda fc, field: CMResult(True, None))
    else:
        path = write(tmp_path, "ht.txt", HOLLOW)
        real = cli.concentration_check

        def flipped(z):
            conc = real(z)
            conc.ok = not conc.ok
            return conc

        monkeypatch.setattr(cli, "concentration_check", flipped)
    run(["cm-check", path, "--field", "p:2"])
    lines = capsys.readouterr().out.splitlines()
    assert "verdicts agree: NO (bug)" in lines and "verdicts agree: yes" not in lines


def test_cli_zeeman_page_table(tmp_path, capsys):
    bow = write(tmp_path, "bow.txt", BOWTIE)
    assert run(["zeeman", bow, "--page", "1"]) == 0
    out = capsys.readouterr().out
    assert "concentration in column 3: no" in out


def test_cli_irres_refusal(tmp_path, capsys):
    bow = write(tmp_path, "bow.txt", BOWTIE)
    assert run(["irres", bow]) == 1
    out = capsys.readouterr().out
    assert "refused" in out and "witness: face {3}" in out


def test_cli_input_errors(tmp_path, capsys):
    assert run(["cm-check", str(tmp_path / "missing.txt")]) == 2
    bad = write(tmp_path, "bad.txt", "simplicial\nvertices 3\nfacet 1 2\nwhat 9\n")
    assert run(["cm-check", bad]) == 2
    err = capsys.readouterr().err
    assert "line 4" in err


MALFORMED = {  # each must exit 2 with a diagnostic naming the line, never a traceback
    "vertices_missing": (b"simplicial\nvertices\nfacet 1 2\n", "line 2"),
    "vertices_not_int": (b"simplicial\nvertices x\nfacet 1 2\n", "line 2"),
    "cover_unknown_face": (
        b"polyhedral\nambient 1\nface 0 0 apex\nface 1 1 ray\ncover 0 1 +1\ncover 0 5 1\n",
        "line 6",
    ),
    "delta_out_of_range": (SQUARE.encode() + b"delta 9\n", "line 9"),
    "not_utf8": (b"simplicial\nvertices 3\nfacet 1 2\xff\xfe\n", "line 3"),
    "vertices_zero": (b"simplicial\nvertices 0\nfacet\n", "line 2"),
    "vertices_out_of_range_then_repeated": (b"simplicial\nvertices 40\nvertices 3\nfacet 1 2\n", "line 2"),
    "vertices_repeated": (b"simplicial\nvertices 3\nvertices 4\nfacet 1 2\n", "line 3"),
    "ambient_repeated_polyhedral": (b"polyhedral\nambient 1\nface 0 0 apex\nambient 2\n", "line 4"),
    "ambient_repeated_semigroup": (b"semigroup\nambient 2\nfunctional 1 0\nambient 2\nfunctional 0 1\n", "line 4"),
    "ambient_zero_polyhedral": (b"polyhedral\nambient 0\nface 0 0 apex\nface 1 1 ray\ncover 0 1 +1\n", "line 2"),
    "ambient_negative_polyhedral": (b"polyhedral\nambient -3\nface 0 0 apex\nface 1 1 ray\ncover 0 1 +1\n", "line 2"),
    "ambient_negative_after_the_faces": (b"polyhedral\nface 0 0 apex\n# late\nambient -1\n", "line 4"),
    "facet_out_of_range": (b"simplicial\nvertices 3\nfacet 1 2\nfacet 1 4\n", "line 4"),
    "facet_repeats_a_vertex": (b"simplicial\nvertices 3\nfacet 1 1 2\n", "line 3"),
    "facet_inside_an_earlier_one": (b"simplicial\nvertices 3\nfacet 1 2\nfacet 1\n", "line 3, line 4"),
    "facet_containing_an_earlier_one": (b"simplicial\nvertices 3\nfacet 1\nfacet 2 3\nfacet 1 2\n", "line 3, line 5"),
    "facet_repeated_in_another_order": (b"simplicial\nvertices 3\nfacet 1 2\nfacet 2 3\nfacet 2 1\n", "line 3, line 5"),
    "empty_facet_repeated": (b"simplicial\nvertices 3\nfacet\nfacet\n", "line 3, line 4"),
    "functional_zero": (b"semigroup\nambient 2\nfunctional 1 0\nfunctional 0 0\n", "line 4"),
    "functional_not_primitive": (b"semigroup\nambient 2\nfunctional 2 0\nfunctional 0 1\n", "line 3"),
    "functional_wrong_length": (b"semigroup\nambient 2\nfunctional 1 0\nfunctional 0 1 1\n", "line 4"),
    "cover_extra_words": (b"polyhedral\nambient 1\nface 0 0 apex\nface 1 1 ray\ncover 0 1 +1 7 simplicial\n", "line 5"),
    "face_extra_words": (b"polyhedral\nambient 1\nface 0 0 apex junk\nface 1 1 ray\ncover 0 1 +1\n", "line 3"),
    "face_ids_skip_one": (b"polyhedral\nambient 1\nface 0 0 apex\nface 2 1 ray\ncover 0 2 +1\n", "line 4"),
    "kind_unknown_after_comments": (b"# comment\n\nbogus\n", "line 3"),
    "kind_then_a_count": (b"simplicial 3\nvertices 3\nfacet 1 2\n", "line 1"),
    "kind_then_a_word_after_a_comment": (b"# c\npolyhedral junk\nambient 1\nface 0 0 apex\n", "line 2"),
    "kind_then_two_words": (b"semigroup x y\nambient 1\nfunctional 1\n", "line 1"),
}


@pytest.mark.parametrize("value", ["0", "-3"])
def test_cli_polyhedral_ambient_obeys_the_semigroup_rule(tmp_path, capsys, value):
    # checked as the line is read: validate used to print the dimension and hilbert to expect it
    path = write(tmp_path, "edge.txt", POLY_EDGE.replace("ambient 1", f"ambient {value}"))
    for command in (["validate"], ["hilbert", "--degree", "1"], ["cm-check", "--format", "json"]):
        assert run([command[0], path, *command[1:]]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: line 2: 'ambient' must be an integer >= 1, got {value}\n"


@pytest.mark.parametrize("name", sorted(MALFORMED))
def test_cli_malformed_input_exits_2_naming_the_line(tmp_path, capsys, name):
    data, line = MALFORMED[name]
    path = tmp_path / f"{name}.txt"
    path.write_bytes(data)
    assert run(["cm-check", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: {line}:")
    assert "Traceback" not in captured.err


def test_cli_bare_facet_is_the_complex_of_the_empty_face(tmp_path, capsys):
    # k[Q]/m = k: one face, Cohen-Macaulay of dimension 0
    path = write(tmp_path, "empty_face.txt", "simplicial\nvertices 3\nfacet\n")
    assert run(["cm-check", path]) == 0
    out = capsys.readouterr().out
    assert "(simplicial, ambient dimension 3, 1 faces, top dimension 0)" in out
    assert "local-cohomology verdict: Cohen-Macaulay" in out


def test_cli_rejects_too_many_vertices_without_building_faces(tmp_path, capsys, monkeypatch):
    def refuse(*args):
        raise AssertionError("faces were built for an input over the vertex limit")

    monkeypatch.setattr(formats, "cone_of_simplicial", refuse)
    monkeypatch.setattr(SimplicialComplex, "faces", refuse)
    assert formats.MAX_VERTICES == 16
    for count in (formats.MAX_VERTICES + 1, 40):
        path = write(tmp_path, f"v{count}.txt", f"simplicial\nvertices {count}\nfacet 1 2\n")
        assert run(["cm-check", path]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: line 2:")
        assert f"1..{formats.MAX_VERTICES}" in captured.err


def _moment_cone(count: int) -> str:
    """The cone in ambient 3 cut out by (1, t, t^2) for t = 1..count: every
    functional is a facet, and the face lattice has 2 * count + 2 faces."""
    return "semigroup\nambient 3\n" + "".join(f"functional 1 {t} {t * t}\n" for t in range(1, count + 1))


def test_cli_rejects_too_many_functionals_without_building_faces(tmp_path, capsys, monkeypatch):
    limit = formats.MAX_FUNCTIONALS
    assert limit == 13
    at_limit = write(tmp_path, "at_limit.txt", _moment_cone(limit))
    assert run(["validate", at_limit]) == 0
    assert f"{2 * limit + 2} faces" in capsys.readouterr().out

    def refuse(*args):
        raise AssertionError("faces were built for an input over the functional limit")

    monkeypatch.setattr(formats, "AffineSemigroup", refuse)
    monkeypatch.setattr(formats, "face_lattice", refuse)
    for count in (limit + 1, 40):
        path = write(tmp_path, f"f{count}.txt", _moment_cone(count))
        assert run(["validate", path]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        # line 1 is the kind, line 2 the ambient dimension
        assert captured.err.startswith(f"error: line {limit + 3}: more than {limit} functionals")
    doc = {"type": "semigroup", "ambient": 3, "functionals": [[1, t, t * t] for t in range(1, limit + 2)]}
    with pytest.raises(InputFormatError, match=re.escape(f"functionals[{limit}]: more than {limit}")):
        bundle_from_doc(doc)


def test_cli_validate(tmp_path, capsys):
    good = write(tmp_path, "edge.txt", POLY_EDGE)
    assert run(["validate", good]) == 0
    bad = write(tmp_path, "badsq.txt", POLY_BAD_SIGN)
    assert run(["validate", bad]) == 1
    out = capsys.readouterr().out
    assert "bad diamond" in out


POLY_HOLLOW_FLIPPED = (  # the cone over the hollow triangle with the sign of cover 1 4 flipped
    "polyhedral\nambient 3\n"
    "face 0 0 o\nface 1 1 a\nface 2 1 b\nface 3 1 c\nface 4 2 ab\nface 5 2 ac\nface 6 2 bc\n"
    "cover 0 1 +1\ncover 0 2 +1\ncover 0 3 +1\ncover 1 4 +1\ncover 2 4 +1\n"
    "cover 1 5 -1\ncover 3 5 +1\ncover 2 6 -1\ncover 3 6 +1\n"
)


def test_cli_rejects_invalid_complex_before_any_command(tmp_path, capsys):
    bad = write(tmp_path, "flipped.txt", POLY_HOLLOW_FLIPPED)
    assert run(["validate", bad]) == 1
    assert "bad diamond: o < ab has nonzero sign sum" in capsys.readouterr().out
    for argv in (["cm-check"], ["zeeman", "--page", "inf"], ["irres"], ["total-irres"], ["hilbert"]):
        for fmt in ("text", "json"):
            assert run([argv[0], bad, *argv[1:], "--format", fmt]) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert "bad diamond: o < ab has nonzero sign sum" in captured.err
            assert "Traceback" not in captured.err
    good = write(tmp_path, "hollow.txt", POLY_HOLLOW_FLIPPED.replace("cover 1 4 +1", "cover 1 4 -1"))
    assert run(["cm-check", good]) == 0
    assert "verdicts agree: yes" in capsys.readouterr().out


def test_cli_reports_deterministic(tmp_path, capsys):
    ht = write(tmp_path, "ht.txt", HOLLOW)
    run(["cm-check", ht])
    first = capsys.readouterr().out
    run(["cm-check", ht])
    second = capsys.readouterr().out
    assert first == second
    run(["irres", ht, "--format", "json"])
    j1 = capsys.readouterr().out
    run(["irres", ht, "--format", "json"])
    j2 = capsys.readouterr().out
    assert j1 == j2


def _captured_run(argv) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run(argv)
    return code, out.getvalue(), err.getvalue()


def test_cli_reuses_one_parser_and_each_run_prints_what_it_prints_first(tmp_path):
    path = write(tmp_path, "rp2.txt", RP2)
    runs = [
        ["betti", path, "--multigraded"],
        ["betti", path],
        ["validate", path, "--no-such-flag"],
        ["zeeman", path, "--page", "inf"],
        ["zeeman", path],
        ["cm-check", path, "--field", "p:2"],
        ["cm-check", path, "--page", "2"],
        ["cm-check", path],
        ["zeeman", path, "--field", "p:2", "--degree", "1,1,1,1,1,1"],
        ["zeeman", path],
    ]
    first = []
    for argv in runs:
        cli._parser.cache_clear()
        first.append(_captured_run(argv))
    cli._parser.cache_clear()
    again = [_captured_run(argv) for argv in runs]
    assert cli._parser.cache_info().misses == 1  # one parser served every run
    assert again == first
    codes = [code for code, _, _ in first]
    assert codes == [0, 0, 2, 0, 0, 1, 2, 0, 0, 0]  # RP2 is Cohen-Macaulay over QQ only
    assert "multigraded entries:" in first[0][1] and "multigraded entries:" not in first[1][1]
    assert "page: inf" in first[3][1] and "page: 1" in first[4][1]
    assert "field: GF(2)" in first[5][1] and "field: QQ" in first[7][1]
    assert "unrecognized arguments: --no-such-flag" in first[2][2] and first[2][1] == ""


def test_cli_parse_error_goes_to_the_redirected_stderr(tmp_path, capsys):
    path = write(tmp_path, "ht.txt", HOLLOW)
    run(["validate", path])  # the parser exists before stderr is redirected
    capsys.readouterr()
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        assert run(["zeeman", path, "--page", "7"]) == 2
    assert "invalid choice: '7'" in err.getvalue()
    assert capsys.readouterr().err == ""


def _outcome(build):
    try:
        m = build()
    except ValueError as exc:
        return type(exc), str(exc)
    return m, [type(x) for x in m.entries]


@pytest.mark.parametrize("field", [QQ, GF(2), GF(3)], ids=str)
def test_mat_from_doc_reads_every_entry_as_fraction_does(field):
    # the value, its type and the error of each entry, alone and in a row
    entries = ["0", "-3", "4/2", "-7/4", "1.5", 5, -2.5, 4.0, "-0", "1"]
    for row in [[s] for s in entries] + [entries, entries[:3] + entries[7:]]:
        doc = {"rows": 1, "cols": len(row), "entries": row}
        want = _outcome(lambda: Mat.from_rows([[Fraction(s) for s in row]], field))
        assert _outcome(lambda: _mat_from_doc(doc, field)) == want, row
    column = {"rows": 3, "cols": 1, "entries": ["-3", "0", "4/2"]}
    assert _mat_from_doc(column, field) == Mat.from_rows([[-3], [0], [2]], field)
    assert _mat_from_doc({"rows": 0, "cols": 2, "entries": []}, field) == Mat.zeros(0, 2, field)


def test_mat_from_doc_errors():
    with pytest.raises(FieldMismatchError):
        _mat_from_doc({"rows": 1, "cols": 2, "entries": ["1", "1/2"]}, GF(2))
    with pytest.raises(ValueError, match="entry count does not match rows\\*cols"):
        _mat_from_doc({"rows": 2, "cols": 2, "entries": ["1", "0", "1"]}, QQ)
    for bad in ("x", "1/0", "", "1 2"):
        with pytest.raises((ValueError, ZeroDivisionError)) as want:
            Fraction(bad)
        with pytest.raises(want.type, match=re.escape(str(want.value))):
            _mat_from_doc({"rows": 1, "cols": 1, "entries": [bad]}, QQ)
    with pytest.raises(TypeError):
        _mat_from_doc({"rows": 1, "cols": 1, "entries": [None]}, QQ)


def test_cli_dual_and_betti(tmp_path, capsys):
    ht = write(tmp_path, "ht.txt", HOLLOW)
    assert run(["dual", ht]) == 0
    out = capsys.readouterr().out
    assert "facets" in out

    assert run(["betti", ht, "--multigraded"]) == 0
    out = capsys.readouterr().out
    assert "linear resolution: yes" in out and "agrees" in out

    bow = write(tmp_path, "bow.txt", BOWTIE)
    assert run(["betti", bow]) == 1
    out = capsys.readouterr().out
    assert "linear resolution: no" in out


def test_cli_betti_reports_tables_that_disagree(tmp_path, capsys, monkeypatch):
    # the dualized side loses an entry: the cross-check line must compare the two tables
    ht = write(tmp_path, "ht.txt", HOLLOW)
    real = cli.betti_from_dual

    def short(dc):
        bt = real(dc)
        return type(bt)(dict(list(bt.normalized().items())[1:]))

    monkeypatch.setattr(cli, "betti_from_dual", short)
    assert run(["betti", ht]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert "cross-check against the dualized minimal resolution: DISAGREES (escalate)" in lines
    assert run(["betti", ht, "--format", "json"]) == 0
    assert json.loads(capsys.readouterr().out)["cross-check"] is False


@pytest.mark.parametrize("degree", ["1,,1,0", "1,1,0,", ",1,1", "1, ,0", ""])
@pytest.mark.parametrize("command", ["zeeman", "hilbert"])
def test_cli_degree_with_an_empty_field_is_an_input_error(tmp_path, capsys, command, degree):
    # an empty field is no integer: it is not dropped, so "1,,1,0" is not read as (1, 1, 0)
    ht = write(tmp_path, "ht.txt", HOLLOW)
    assert run([command, ht, "--degree", degree]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: bad --degree {degree!r}: field ") and "is empty" in captured.err


def test_cli_hilbert(tmp_path, capsys):
    ht = write(tmp_path, "ht.txt", HOLLOW)
    assert run(["hilbert", ht, "--check-resolution"]) == 0
    out = capsys.readouterr().out
    assert "1 - t^3" in out and "matches" in out
    assert run(["hilbert", ht, "--degree", "1,1,0"]) == 0
    out = capsys.readouterr().out
    assert "quotient component dimension: 1" in out


def test_cli_total_irres_on_semigroup_input(tmp_path, capsys):
    sq = write(tmp_path, "sq.txt", SQUARE)
    assert run(["total-irres", sq]) == 0
    out = capsys.readouterr().out
    assert "certificate exact: True" in out


def test_resolution_json_roundtrip(tmp_path, capsys):
    ht = write(tmp_path, "ht.txt", HOLLOW)
    assert run(["irres", ht, "--format", "json"]) == 0
    out = capsys.readouterr().out
    doc = json.loads(out[out.index("{") :])
    res, bundle, field = resolution_from_doc(doc)
    assert field == QQ
    assert res.term_sizes() == (3, 3, 1)
    assert res.check_composition()
    assert verify_exactness(res).exact
    # the emitted certificates describe what we re-derive
    assert doc["certificates"]["exact"] is True
    assert doc["certificates"]["linear"] is True


@pytest.mark.parametrize("key", ["id:99", "id:x", ["id", 1]])
def test_resolution_term_key_naming_no_face_is_an_input_error(tmp_path, capsys, key):
    hollow = write(tmp_path, "hollow.txt", POLY_HOLLOW_FLIPPED.replace("cover 1 4 +1", "cover 1 4 -1"))
    assert run(["irres", hollow, "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert resolution_from_doc(doc)[0].term_sizes() == (3, 3, 1)
    doc["terms"][0][0] = key
    with pytest.raises(InputFormatError, match=re.escape(f"terms[0][0]: no face with key {key!r}")):
        resolution_from_doc(doc)


def _set(path, value):
    """A change of the document: the value at ``path`` (keys and indices) set,
    or removed when ``value`` is ``DELETE``."""

    def change(doc):
        *head, last = path
        for key in head:
            doc = doc[key]
        if value is DELETE:
            del doc[last]
        else:
            doc[last] = value

    return change


DELETE = object()

# (change of the hollow triangle's resolution document, JSON path named by the error)
MALFORMED_DOCS = [
    (_set(["maps"], DELETE), "maps"),
    (_set(["field"], DELETE), "field"),
    (_set(["complex", "type"], DELETE), "complex.type"),
    (_set(["complex", "vertices"], DELETE), "complex.vertices"),
    (_set(["maps", 0, "entries"], DELETE), "maps[0].entries"),
    (_set(["maps", 0, "rows"], -1), "maps[0].rows"),
    (_set(["maps", 1, "cols"], -3), "maps[1].cols"),
    (_set(["maps", 0, "entries"], "1 -1 0"), "maps[0].entries"),
    (_set(["maps", 0, "entries", 2], "1/0"), "maps[0].entries"),
    (_set(["maps", 0], 7), "maps[0]"),
    (_set(["maps"], {}), "maps"),
    (_set(["maps"], []), "maps"),
    (_set(["terms"], "id:0"), "terms"),
    (_set(["terms", 1], 5), "terms[1]"),
    (_set(["field"], 2), "field"),
    (_set(["field"], "p:4"), "field"),
    (_set(["complex"], []), "complex"),
    (_set(["complex", "type"], "cubical"), "complex.type"),
    (_set(["complex", "vertices"], "3"), "complex.vertices"),
    (_set(["complex", "vertices"], True), "complex.vertices"),
    (_set(["complex", "facets", 0], [1, "2"]), "complex.facets[0]"),
    (_set(["augmentation"], "111"), "augmentation"),
    (_set(["augmentation", 0], "x"), "augmentation"),
    (_set(["augmentation"], ["1"]), "augmentation"),
    (lambda doc: doc.update(terms=[], maps=[], augmentation=["1"]), "augmentation"),
]


@pytest.mark.parametrize("change,path", MALFORMED_DOCS, ids=[f"{k}-{p}" for k, (_, p) in enumerate(MALFORMED_DOCS)])
def test_malformed_resolution_document_names_its_json_path(change, path):
    bundle = parse_input_text(HOLLOW)
    doc = json.loads(json.dumps(resolution_to_doc(minimal_linear_resolution(bundle.fc, QQ), bundle, {})))
    assert resolution_from_doc(json.loads(json.dumps(doc)))[0].term_sizes() == (3, 3, 1)
    change(doc)
    with pytest.raises(InputFormatError) as exc:
        resolution_from_doc(doc)
    assert str(exc.value).startswith(f"{path}: "), str(exc.value)


@pytest.mark.parametrize("field", ["q", "p:2"])
@pytest.mark.parametrize("where,path", [(["maps", 0, "entries", 0], "maps[0].entries"), (["augmentation", 1], "augmentation")])
def test_decimal_exponent_is_refused_at_once(field, where, path):
    # Fraction would expand "1e999999999" to a billion digits
    bundle = parse_input_text(HOLLOW)
    doc = json.loads(json.dumps(resolution_to_doc(minimal_linear_resolution(bundle.fc, QQ), bundle, {})))
    doc["field"] = field
    for entry in ("1e999999999", "1E999999999", "-2.5e-999999999"):
        _set(where, entry)(doc)
        t0 = time.perf_counter()
        with pytest.raises(InputFormatError, match="^" + re.escape(f"{path}: decimal exponent in {entry!r}")):
            resolution_from_doc(doc)
        assert time.perf_counter() - t0 < 1.0


def test_face_module_complex_rejects_an_augmentation_without_terms():
    fc = parse_input_text(HOLLOW).fc
    with pytest.raises(ValueError, match="no terms"):
        FaceModuleComplex(fc, QQ, [], [], augmentation=[1])


def test_semigroup_json_roundtrip(tmp_path, capsys):
    sq = write(tmp_path, "sq.txt", SQUARE)
    assert run(["irres", sq, "--format", "json"]) == 0
    out = capsys.readouterr().out
    doc = json.loads(out[out.index("{") :])
    res, bundle, field = resolution_from_doc(doc)
    assert res.term_sizes() == (2, 1)
    assert verify_exactness(res).exact


def test_load_input_from_file(tmp_path):
    p = write(tmp_path, "ht.txt", HOLLOW)
    b = load_input(p)
    assert b.kind == "simplicial"


def test_cli_json_for_verdict_commands(tmp_path, capsys):
    rp2 = write(tmp_path, "rp2.txt", RP2)
    assert run(["cm-check", rp2, "--field", "p:2", "--format", "json"]) == 1
    doc = json.loads(capsys.readouterr().out)
    assert doc["cohen-macaulay"] is False and doc["exit"] == 1
    assert doc["witness"]["degree"] == 2

    ht = write(tmp_path, "ht.txt", HOLLOW)
    assert run(["zeeman", ht, "--page", "1", "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["dims"] == {"2,0": 1, "2,-1": 3, "2,-2": 3}
    assert doc["euler"] == 1 and doc["concentration"] is True

    assert run(["dual", ht, "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["void"] is False and doc["facets"] == [[]]

    assert run(["betti", ht, "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["linear"] is True and doc["cross-check"] is True
    assert sum(e["mult"] for e in doc["entries"]) == 7

    assert run(["hilbert", ht, "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["numerator-coefficients"] == [1, 0, 0, -1]


DEGENERATE_CONES = {  # each exits 2 naming the functional lines at fault and the rank found
    "half_plane": ("semigroup\nambient 2\nfunctional 1 0\n", "line 3: cone is not pointed: the functionals have rank 1, not 2"),
    "two_lines_in_space": (
        "semigroup\nambient 3\nfunctional 1 0 0\n# a comment\nfunctional 0 1 0\n",
        "line 3, line 5: cone is not pointed: the functionals have rank 2, not 3",
    ),
    "ray_in_the_plane": (
        "semigroup\nambient 2\nfunctional 0 1\nfunctional 1 0\nfunctional -1 0\n",
        "line 4, line 5: cone is not full-dimensional: its rays have rank 1, not 2",
    ),
    "apex_alone": (
        "semigroup\nambient 1\nfunctional 1\nfunctional -1\n",
        "line 3, line 4: cone is not full-dimensional: it is the apex alone, of rank 0, not 1",
    ),
}


@pytest.mark.parametrize("name", sorted(DEGENERATE_CONES))
def test_cli_degenerate_cone_names_the_functional_lines_and_the_rank(tmp_path, capsys, name):
    text, message = DEGENERATE_CONES[name]
    assert run(["validate", write(tmp_path, f"{name}.txt", text)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: {message}")
    assert "Traceback" not in captured.err


def test_semigroup_doc_with_a_degenerate_cone_names_the_functional_items():
    doc = {"type": "semigroup", "ambient": 2, "functionals": [[0, 1], [1, 0], [-1, 0]]}
    with pytest.raises(InputFormatError, match=re.escape("functionals[1], functionals[2]: cone is not full-dimensional")):
        bundle_from_doc(doc)


DEGENERATE_HEADERS = {  # each exits 2 with its own message, before any face is built
    "ambient_zero": ("semigroup\nambient 0\nfunctional 1\n", "line 2: 'ambient' must be an integer >= 1, got 0"),
    "ambient_zero_alone": ("semigroup\nambient 0\n", "line 2: 'ambient' must be an integer >= 1, got 0"),
    "ambient_negative": ("semigroup\n# d\nambient -1\nfunctional 1\n", "line 3: 'ambient' must be an integer >= 1, got -1"),
    "no_functionals": ("semigroup\nambient 2\ndelta 1\n", f"no functionals: a semigroup input takes 1..{formats.MAX_FUNCTIONALS}"),
}


@pytest.mark.parametrize("name", sorted(DEGENERATE_HEADERS))
def test_cli_degenerate_semigroup_header_has_its_own_message(tmp_path, capsys, name):
    text, message = DEGENERATE_HEADERS[name]
    assert run(["validate", write(tmp_path, f"{name}.txt", text)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


@pytest.mark.parametrize(
    "doc,message",
    [
        ({"type": "semigroup", "ambient": 0, "functionals": [[1]]}, "ambient: 'ambient' must be an integer >= 1, got 0"),
        ({"type": "semigroup", "ambient": -2, "functionals": []}, "ambient: 'ambient' must be an integer >= 1, got -2"),
        ({"type": "semigroup", "ambient": "2", "functionals": [[1, 0], [0, 1]]}, "ambient: 'ambient' must be an integer >= 1, got '2'"),
        ({"type": "semigroup", "ambient": 2, "functionals": []}, "no functionals: a semigroup input takes 1.."),
        ({"type": "semigroup", "ambient": 2}, "no functionals: a semigroup input takes 1.."),
    ],
)
def test_semigroup_doc_with_a_degenerate_header_names_it(doc, message):
    with pytest.raises(InputFormatError, match="^" + re.escape(message)):
        bundle_from_doc(doc)
