"""Fuzz the CLI with mutated input files.

The three example formats of ``formats`` are mutated by tokens, by lines
and by bytes, and every command runs on the result in process.  Whatever
the input, ``cli.run`` must return an exit code in {0, 1, 2} without an
escaping exception or a traceback on stderr, and an exit of 1 (a false
verdict) must come with the command's verdict line.  Mutated files stay
small: at most 6 vertices, and for semigroup inputs, whose guard still
admits 12 functionals, an ambient dimension of at most 3 and at most 6
functionals.

A polyhedral input that passes every structural check but is not
cone-like, the cone over the 7-vertex torus under one more face, is
refused the same way: ``validate`` exits 1 naming the face and the
degree, and every other command exits 2.
"""

import contextlib
import io
import json

import pytest

pytest.importorskip("hypothesis")
from hypothesis import assume, given, settings, strategies as st  # noqa: E402

from zeemac.cli import run  # noqa: E402

from .helpers import torus_with_top_face_text  # noqa: E402

EXAMPLES = (
    "simplicial\nvertices 3\nfacet 1 2\nfacet 1 3\nfacet 2 3\n",
    "polyhedral\nambient 2\nface 0 0 o\nface 1 1 a\nface 2 1 b\nface 3 2 top\n"
    "cover 0 1 +1\ncover 0 2 +1\ncover 1 3 -1\ncover 2 3 +1\n",
    "semigroup\nambient 3\nfunctional 1 0 0\nfunctional 0 1 0\nfunctional -1 0 1\nfunctional 0 -1 1\n"
    "delta 1\ndelta 2\n",
)
EXAMPLE_LINES = sorted({line for text in EXAMPLES for line in text.splitlines()})
KEYWORDS = ("simplicial", "polyhedral", "semigroup", "vertices", "facet", "ambient", "face", "cover", "functional", "delta")
NUMBERS = st.integers(-2, 7).map(str)
TOKENS = st.one_of(  # mostly numbers, so that many mutants still parse
    NUMBERS,
    NUMBERS,
    NUMBERS,
    st.sampled_from(KEYWORDS),
    st.sampled_from(("+1", "-1", "+", "-", "x", "1.5", "#", "0x1", "00", "1e3", "é")),
)
BYTES = st.one_of(st.sampled_from(b"0123456789 \n-+#"), st.integers(0, 255))

# exit 1 must come with this line (text) or this key and value (JSON)
VERDICTS = {
    "validate": ("verdict: invalid", "valid", False),
    "cm-check": ("local-cohomology verdict: not Cohen-Macaulay", "cohen-macaulay", False),
    "irres": ("refused: the complex is not Cohen-Macaulay over this field", "refused", True),
    "betti": ("linear resolution: no", "linear", False),
}
COMMANDS = (
    ["validate"],
    ["cm-check"],
    ["zeeman", "--page", "0"],
    ["zeeman", "--page", "1"],
    ["zeeman", "--page", "2"],
    ["zeeman", "--page", "inf"],
    ["zeeman", "--page", "1", "--degree", "0,0,1"],
    ["irres"],
    ["total-irres"],
    ["dual"],
    ["betti", "--multigraded"],
    ["hilbert", "--check-resolution"],
    ["hilbert", "--degree", "1,0,1"],
)
FUZZ = settings(derandomize=True, deadline=None, database=None, max_examples=40)


def _small_enough(data: bytes) -> bool:
    """At most 6 vertices, ambient dimension 3 and 6 functionals."""
    text = data.decode("utf-8", errors="replace")
    functionals = 0
    for raw in text.splitlines():
        toks = raw.split("#", 1)[0].split()
        if not toks:
            continue
        key = toks[0]
        functionals += key == "functional"
        for t in toks[1:] if key in ("vertices", "ambient") else ():
            try:
                value = int(t)
            except ValueError:
                continue
            if value > (6 if key == "vertices" else 3):
                return False
    return functionals <= 6


def _mutate_tokens(draw, text: str) -> str:
    lines = [line.split() for line in text.splitlines()]
    for _ in range(draw(st.integers(1, 3))):
        row = lines[draw(st.integers(0, len(lines) - 1))]
        at = draw(st.integers(0, len(row)))
        op = draw(st.sampled_from(("replace", "insert", "delete")))
        if op == "insert" or not row or at == len(row):
            row.insert(at, draw(TOKENS))
        elif op == "replace":
            row[at] = draw(TOKENS)
        else:
            del row[at]
    return "".join(" ".join(row) + "\n" for row in lines)


def _mutate_lines(draw, text: str) -> str:
    lines = text.splitlines()
    for _ in range(draw(st.integers(1, 3))):
        at = draw(st.integers(0, len(lines)))
        op = draw(st.sampled_from(("insert", "delete", "duplicate", "swap")))
        if op == "insert" or not lines or at == len(lines):
            lines.insert(at, draw(st.sampled_from(EXAMPLE_LINES + ["", "# note"])))
        elif op == "delete":
            del lines[at]
        elif op == "duplicate":
            lines.insert(at, lines[at])
        else:
            other = draw(st.integers(0, len(lines) - 1))
            lines[at], lines[other] = lines[other], lines[at]
    return "".join(line + "\n" for line in lines)


def _mutate_bytes(draw, data: bytes) -> bytes:
    data = bytearray(data)
    for _ in range(draw(st.integers(1, 4))):
        # half the time at a digit, space or newline, so that many mutants still parse
        values = [i for i, b in enumerate(data) if b in b"0123456789 \n"]
        at = draw(st.one_of(st.sampled_from(values), st.integers(0, len(data))) if values else st.integers(0, len(data)))
        op = draw(st.sampled_from(("replace", "insert", "delete")))
        byte = draw(BYTES)
        if op == "insert" or at == len(data):
            data.insert(at, byte)
        elif op == "replace":
            data[at] = byte
        else:
            del data[at]
    return bytes(data)


@st.composite
def mutated_inputs(draw, kind: str) -> bytes:
    text = draw(st.sampled_from(EXAMPLES))
    if kind == "tokens":
        return _mutate_tokens(draw, text).encode()
    if kind == "lines":
        return _mutate_lines(draw, text).encode()
    return _mutate_bytes(draw, text.encode())


def assert_cli_contract(path, data: bytes, command, field: str, fmt: str):
    assume(_small_enough(data))
    path.write_bytes(data)
    argv = [command[0], str(path), *command[1:], "--field", field, "--format", fmt]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run(argv)  # an exception escaping here fails the test
    assert code in (0, 1, 2), (argv, data)
    assert "Traceback" not in err.getvalue(), (argv, data)
    if code == 1:
        line, key, value = VERDICTS[command[0]]
        if fmt == "json":
            assert json.loads(out.getvalue())[key] is value, (argv, data)
        else:
            assert line in out.getvalue().splitlines(), (argv, data)


@pytest.mark.parametrize("command", COMMANDS, ids=" ".join)
@pytest.mark.parametrize("kind", ("tokens", "lines", "bytes"))
def test_cli_contract_holds_on_mutated_inputs(tmp_path_factory, kind, command):
    path = tmp_path_factory.mktemp("fuzz") / "input.txt"

    @FUZZ
    @given(data=mutated_inputs(kind), field=st.sampled_from(("q", "p:2", "p:3")), fmt=st.sampled_from(("text", "json")))
    def check(data, field, fmt):
        assert_cli_contract(path, data, command, field, fmt)

    check()


def test_cli_directory_as_input_is_an_input_error(tmp_path):
    for command in COMMANDS:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = run([command[0], str(tmp_path), *command[1:]])  # an exception escaping here fails the test
        assert code == 2, command
        assert out.getvalue() == "", command
        assert str(tmp_path) in err.getvalue() and "Traceback" not in err.getvalue(), command


def test_a_complex_that_is_not_cone_like_is_an_input_error(tmp_path):
    path = tmp_path / "torus.txt"
    path.write_text(torus_with_top_face_text())
    problem = "the lower interval of face top (dim 4) is not acyclic"
    where = "nonzero in dimension 2, at (p, q) = (4, -2)"
    for command in COMMANDS:
        for fmt in ("text", "json"):
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = run([command[0], str(path), *command[1:], "--format", fmt])
            assert "Traceback" not in err.getvalue(), command
            if command[0] == "validate":
                assert code == 1, fmt
                report = out.getvalue() if fmt == "text" else json.loads(out.getvalue())["problems"][0]
                assert problem in report and where in report, fmt
            else:
                assert (code, out.getvalue()) == (2, ""), command
                assert problem in err.getvalue() and where in err.getvalue(), command
