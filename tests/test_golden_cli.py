"""Byte identity of the CLI against committed digests.

Every command line below runs in process on every input below, over the
three fields and in both output formats.  Each run is recorded as the
sha256 of its exit code, stdout and stderr, and the digests must equal
those in ``tests/golden_cli.json``.  Reports echo the input path, so the
inputs are written under bare file names into a scratch directory that is
the working directory for the run.

Regenerate the digests (all of them, or only the keys starting with a
given prefix, such as ``"poly_out_of_order.txt total-irres"``) with

    PYTHONPATH=src python tests/test_golden_cli.py --write [PREFIX]

and say in the change log which keys changed and why.
"""

import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile
from pathlib import Path

from zeemac.cli import run

GOLDEN = Path(__file__).with_name("golden_cli.json")

OCTAHEDRON = [(a, b, c) for a in (1, 2) for b in (3, 4) for c in (5, 6)]
RP2 = [
    (1, 2, 3), (1, 3, 4), (1, 4, 5), (1, 5, 6), (1, 2, 6),
    (2, 3, 5), (2, 4, 5), (2, 4, 6), (3, 4, 6), (3, 5, 6),
]
SQUARE = "semigroup\nambient 3\nfunctional 1 0 0\nfunctional 0 1 0\nfunctional -1 0 1\nfunctional 0 -1 1\n"
HEXAGON = (
    "semigroup\nambient 3\nfunctional -1 -1 1\nfunctional 0 -1 1\nfunctional 1 0 1\n"
    "functional 1 1 1\nfunctional 0 1 1\nfunctional -1 0 1\n"
)
CUBE = (
    "semigroup\nambient 4\nfunctional 1 0 0 0\nfunctional -1 0 0 1\nfunctional 0 1 0 0\n"
    "functional 0 -1 0 1\nfunctional 0 0 1 0\nfunctional 0 0 -1 1\n"
)


def _simplicial(d: int, facets) -> str:
    return f"simplicial\nvertices {d}\n" + "".join("facet " + " ".join(map(str, f)) + "\n" for f in facets)


# file name -> (contents, a degree vector for --degree)
INPUTS = {
    "hollow.txt": (_simplicial(3, [(1, 2), (1, 3), (2, 3)]), "1,1,0"),
    "bowtie.txt": (_simplicial(5, [(1, 2, 3), (3, 4, 5)]), "1,1,0,0,0"),
    "rp2.txt": (_simplicial(6, RP2), "1,1,0,0,0,0"),
    "octahedron.txt": (_simplicial(6, OCTAHEDRON), "1,0,1,0,0,0"),
    "square.txt": (SQUARE, "0,0,1"),
    "square_delta.txt": (SQUARE + "delta 1\ndelta 2\n", "0,1,1"),
    "hexagon.txt": (HEXAGON, "0,0,1"),
    "hexagon_delta.txt": (HEXAGON + "delta 1\ndelta 2\n", "0,1,1"),
    "cube.txt": (CUBE, "0,0,0,1"),
    "cube_delta.txt": (CUBE + "delta 1\ndelta 3\ndelta 5\n", "0,0,1,1"),
    "poly_edge.txt": ("polyhedral\nambient 1\nface 0 0 apex\nface 1 1 ray\ncover 0 1 +1\n", "1"),
    "poly_bad_sign.txt": (
        "polyhedral\nambient 2\nface 0 0 o\nface 1 1 a\nface 2 1 b\nface 3 2 top\n"
        "cover 0 1 +1\ncover 0 2 +1\ncover 1 3 +1\ncover 2 3 +1\n",
        "1,0",
    ),
    "poly_hollow_flipped.txt": (
        "polyhedral\nambient 3\n"
        "face 0 0 o\nface 1 1 a\nface 2 1 b\nface 3 1 c\nface 4 2 ab\nface 5 2 ac\nface 6 2 bc\n"
        "cover 0 1 +1\ncover 0 2 +1\ncover 0 3 +1\ncover 1 4 +1\ncover 2 4 +1\n"
        "cover 1 5 -1\ncover 3 5 +1\ncover 2 6 -1\ncover 3 6 +1\n",
        "1,1,0",
    ),
    # face ids out of dimension order: the apex o is face 1, not face 0
    "poly_out_of_order.txt": (
        "polyhedral\nambient 2\nface 0 1 a\nface 1 0 o\nface 2 1 b\nface 3 2 top\n"
        "cover 1 0 +1\ncover 1 2 +1\ncover 0 3 -1\ncover 2 3 +1\n",
        "1,0",
    ),
}

COMMANDS = (
    ["validate"],
    ["cm-check"],
    ["zeeman", "--page", "0"],
    ["zeeman", "--page", "1"],
    ["zeeman", "--page", "2"],
    ["zeeman", "--page", "inf"],
    ["zeeman", "--page", "2", "--degree", None],
    ["irres"],
    ["total-irres"],
    ["dual"],
    ["betti", "--multigraded"],
    ["hilbert", "--check-resolution"],
    ["hilbert", "--degree", None, "--check-resolution"],
)
FIELDS = ("q", "p:2", "p:3")
FORMATS = ("text", "json")


def invocations():
    """(key, argv) for every input, command line, field and format; the
    key is the file name, then the argv with the degree shown as DEGREE."""
    for name, (_, degree) in INPUTS.items():
        for command in COMMANDS:
            for field in FIELDS:
                for fmt in FORMATS:
                    rest = [*command[1:], "--field", field, "--format", fmt]
                    key = " ".join([name, command[0], *(a or "DEGREE" for a in rest)])
                    yield key, [command[0], name, *(a or degree for a in rest)]


def digests() -> dict:
    """Run every invocation in the current directory, writing the inputs first."""
    for name, (text, _) in INPUTS.items():
        Path(name).write_text(text)
    out = {}
    for key, argv in invocations():
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = run(argv)
        record = json.dumps([code, stdout.getvalue(), stderr.getvalue()])
        out[key] = hashlib.sha256(record.encode()).hexdigest()
    return out


def test_cli_output_matches_the_golden_digests(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    golden = json.loads(GOLDEN.read_text())
    got = digests()
    assert sorted(got) == sorted(golden)
    changed = sorted(k for k in got if got[k] != golden[k])
    assert not changed, f"{len(changed)} invocation(s) changed output, e.g. {changed[:5]}"


def _write(prefix: str) -> None:
    golden = json.loads(GOLDEN.read_text()) if GOLDEN.exists() else {}
    here = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            got = digests()
        finally:
            os.chdir(here)
    golden.update({k: v for k, v in got.items() if k.startswith(prefix)})
    GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    if sys.argv[1:2] != ["--write"]:
        sys.exit(__doc__)
    _write(sys.argv[2] if len(sys.argv) > 2 else "")
