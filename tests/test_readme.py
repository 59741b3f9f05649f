"""The README's library example, run as written."""

from itertools import combinations
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_library_example_gives_its_commented_values():
    section = README.read_text().split("## Library example", 1)[1]
    block = section.split("```python\n", 1)[1].split("```", 1)[0]
    ns: dict = {}
    value_of = {}  # comment -> the value of the expression on its line (None for a statement)
    for line in block.splitlines():
        code, _, comment = line.partition("#")
        try:
            value = eval(code, ns)
        except SyntaxError:
            exec(code, ns)
            value = None
        value_of[comment.strip()] = value
    assert value_of["True"] is True
    assert ns["res"].term_sizes() == (3, 3, 1) and "term sizes (3, 3, 1)" in value_of
    assert value_of["True; checked_degrees counts the 8 ambient faces"] is True
    assert ns["verify_exactness"](ns["res"]).checked_degrees == 8
    koszul = {(k - 1, frozenset(s)): 1 for k in (1, 2, 3) for s in combinations((1, 2, 3), k)}
    betti = value_of["the Koszul table of (x, y, z)"]
    assert betti.normalized() == koszul and not betti.void_dual
