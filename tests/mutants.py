"""Source mutants that the cross-checks must kill.

Run from the repository root (standard library and pytest only):

    python tests/mutants.py            # every mutant in the table
    python tests/mutants.py NAME ...   # the named ones

Each entry of ``MUTANTS`` gives a file under ``src/zeemac``, the exact old
text (which must occur there once), the new text, the claim it attacks
and the test files that must kill it.  The mutant is applied to a
temporary copy of ``src/`` (with ``tests/`` and ``pyproject.toml`` beside
it, so that pytest's ``pythonpath`` points at the copy), and each named
test file runs on its own with ``-x``: every one of them must fail, or
the mutant survives and the run fails.  An equivalent mutant changes no
result by design; it carries the reason, its test files must all pass
on it, and the run fails if one of them does not (then the reason is
wrong).

The harness presumes that the named test files pass on the unmutated
source, as the tier-1 run shows; it is not collected by pytest.  Later
changes that add a kernel or a cross-check add its mutant here.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@dataclass(frozen=True)
class Mutant:
    name: str
    file: str  # under src/zeemac
    old: str  # occurs exactly once in the file
    new: str
    claim: str  # what the mutant breaks
    tests: tuple  # test files under tests/, each of which must kill it
    equivalent: str = ""  # for an equivalent mutant: why it survives


MUTANTS = (
    Mutant(
        "einf-top-from-fc-dim",
        "zeeman.py",
        "m = max(z.fc.faces[g].dim for g in z.runs)",
        "m = z.fc.dim",
        "the terminal page is k at (m, -m) with m the largest dimension of a face containing the degree, "
        "which on a complex that is not pure can lie below the top dimension",
        ("test_terminal_page.py",),
    ),
    Mutant(
        "einf-skips-premise",
        "zeeman.py",
        "    if problem is not None:\n        raise DegenerateComplexError(problem)",
        "    if False:\n        raise DegenerateComplexError(problem)",
        "the closed form holds only on a cone-like complex; on one that is not, the terminal page "
        "has classes off total degree 0, and the closed form must refuse it",
        ("test_terminal_page.py", "test_clearing.py"),
    ),
    Mutant(
        "validate-skips-lower-intervals",
        "complexes.py",
        "if not problems and (problem := lower_interval_problem(fc)) is not None:",
        "if False:",
        "a complex whose lower interval [0, F] is not acyclic is no cone's face poset, and validate names F",
        ("test_terminal_page.py", "test_cli_fuzz.py"),
    ),
    Mutant(
        "check-composition-always-true",
        "resolutions.py",
        '"""Consecutive maps compose to zero; augmentation lands in the kernel."""',
        '"""Consecutive maps compose to zero; augmentation lands in the kernel."""\n        return True',
        "a sequence whose maps do not compose to zero, or whose first map does not kill the augmentation, "
        "is no complex: the certificate must say so",
        ("test_resolutions.py",),
    ),
    Mutant(
        "reduce-chain-clears-extra-column",
        "eagon_reiner.py",
        "{} if i in pivots else",
        "{} if i in pivots or (pivots and i == block[0]) else",
        "the Hochster coboundary leaves unwritten only the columns at the pivot rows of the block before",
        ("test_clearing.py",),
    ),
    Mutant(
        "column-drops-row-twist",
        "zeeman.py",
        "cosign = twisted[fc.faces[g].dim % 2]",
        "cosign = signs",
        "the horizontal differential carries the row twist (-1)^q, so the total differential squares to zero",
        ("test_zeeman.py", "test_sparse_ranks.py"),
    ),
    Mutant(
        "writer-run-offset-off-by-one",
        "zeeman.py",
        "count(offsets[h][n + 1] - row0)",
        "count(offsets[h][n + 1] - row0 + 1)",
        "a pair's row is the offset of its run in the target degree plus its index in the run",
        ("test_run_writer.py", "test_zeeman.py"),
    ),
    Mutant(
        "writer-skips-an-admitted-facet",
        "zeeman.py",
        "for g2, sign in fc._down[g] if g2 in index]",
        "for g2, sign in fc._down[g] if g2 in index and g2 != min(index)]",
        "the vertical part goes to every facet of G that is admitted, and only those have runs",
        ("test_run_writer.py", "test_zeeman.py"),
    ),
    Mutant(
        "writer-clears-the-next-column",
        "zeeman.py",
        "enumerate(runs[g][n], offsets[g][n] - col0)",
        "enumerate(runs[g][n], offsets[g][n] - col0 + 1)",
        "the run writer leaves unwritten exactly the columns at the pivot rows of the map before",
        ("test_run_writer.py", "test_clearing.py"),
    ),
    Mutant(
        "restriction-drops-cover-sign",
        "cohomology.py",
        "out_cols.append({rep_at[r]: field.reduce(sign * c) for r, c in coords.items() if r in rep_at})",
        "out_cols.append({rep_at[r]: c for r, c in coords.items() if r in rep_at})",
        "each restriction block is weighted by its cover sign",
        ("test_cleared_representatives.py", "test_page1_engine.py", "test_resolutions.py"),
    ),
    Mutant(
        "store-clears-by-position",
        "linalg.py",
        "enumerate(pairs) if label not in pivots]",
        "enumerate(pairs) if j not in pivots]",
        "a pivot row of the differential before names, by face id, the column it clears; "
        "the store's columns are labelled by face id, not by their position in the basis",
        ("test_store_by_face_id.py", "test_cleared_representatives.py"),
    ),
    Mutant(
        "restriction-reads-the-cocycle-in-positions",
        "cohomology.py",
        "echelon_coordinates({basis[i]: x for i, x in rep.items()}, cocycles, field)",
        "echelon_coordinates(rep, cocycles, field)",
        "a cover's cocycle is read in face ids, as the representatives and coboundaries near the facet are",
        ("test_cleared_representatives.py", "test_page1_engine.py", "test_resolutions.py"),
    ),
    Mutant(
        "doc-reader-raises-bare-key-error",
        "formats.py",
        'raise InputFormatError(f"{pre}{key}: missing")',
        "raise KeyError(key)",
        "a malformed resolution document raises InputFormatError naming its JSON path",
        ("test_formats_cli.py",),
    ),
    Mutant(
        "upper-set-table-drops-a-face",
        "complexes.py",
        "levels = self._upper[fid] = tuple(out)",
        "levels = self._upper[fid] = tuple(out) if fid else ((), *out[1:])",
        "a face's row in the upper-set table starts with the face itself; the store and the double complex "
        "read the same row, so the Cohen-Macaulay verdict and page-1 concentration still agree without it",
        ("test_complexes.py", "test_zeeman.py"),
    ),
    Mutant(
        "certificate-reads-the-lower-set",
        "resolutions.py",
        "chain.from_iterable(fc.upper_levels(g))",
        "fc.below(g)",
        "at the interior point of a face of the complex the live copies are those over its upper set",
        ("test_resolutions.py",),
    ),
    Mutant(
        "certificate-drops-the-augmentation-check",
        "resolutions.py",
        "if c.augmentation is not None and not any(c.augmentation[k] for k in active[0]):",
        "if False:",
        "the augmentation is nonzero on the copies live at each degree the quotient reaches",
        ("test_resolutions.py",),
    ),
    Mutant(
        "certificate-walks-in-face-id-order",
        "resolutions.py",
        "sorted(fc.cone_faces.items(), key=lambda item: item[1].order_key())",
        "fc.cone_faces.items()",
        "the failing degree is the first in ambient face order, by dimension and then sorted vanishing set",
        ("test_resolutions.py",),
    ),
    Mutant(
        "certificate-counts-the-complex-faces",
        "resolutions.py",
        "count = fc.semigroup.face_count",
        "count = len(fc.cone_faces)",
        "the certificate counts every ambient face, the ones outside the complex vacuously",
        ("test_resolutions.py",),
    ),
    Mutant(
        "cone-point-ignores-the-vertex",
        "eagon_reiner.py",
        "if trace | b not in self.index:",
        "if trace not in self.index:",
        "a cone point v of s has F+{v} a face for every face F inside s",
        ("test_eagon_reiner.py", "test_acceptance.py"),
    ),
    Mutant(
        "simplicial-parser-raises-bare-key-error",
        "formats.py",
        'raise InputFormatError(f"line {lineno}: unexpected {toks[0]!r} in a simplicial file")',
        "raise KeyError(toks[0])",
        "an unexpected keyword in a simplicial file is an input error naming its line",
        ("test_cli_fuzz.py",),
    ),
    Mutant(
        "double-description-drops-the-adjacency-test",
        "semigroup.py",
        "if common.bit_count() >= d - 2 and not any(",
        "if True or not any(",
        "a new ray comes only from an adjacent pair of rays on either side of the functional; "
        "any other pair gives a point inside a face of dimension at least 3, not a ray",
        ("test_semigroup.py",),
    ),
    Mutant(
        "relation-update-takes-the-last-column",
        "linalg.py",
        "e = next((j for j, s in pairings.items() if s), None)",
        "e = next((j for j, s in reversed(pairings.items()) if s), None)",
        "a row makes the first column whose relation pairs nonzero with it a pivot column, "
        "so each relation stays nonzero only on earlier pivot columns and matches the tagged reduction's",
        ("test_linalg.py", "test_semigroup.py"),
    ),
    Mutant(
        "face-covers-keep-every-join",
        "semigroup.py",
        "covers[g] = [f for f in joins if not any(h != f and h & f == f for h in joins)]",
        "covers[g] = list(joins)",
        "the covers of a face are the inclusion-minimal joins with one ray off it, not every join",
        ("test_semigroup.py",),
    ),
    Mutant(
        "dual-admits-nonminimal-nonface",
        "complexes.py",
        "if not rest:",
        "if True:",
        "a nonface F+{v} is minimal, and its complement a facet of the Alexander dual, "
        "only when every facet of F+{v} is a face",
        ("test_complexes.py", "test_alexander_dual.py"),
    ),
    Mutant(
        "hochster-reads-the-wrong-degree",
        "eagon_reiner.py",
        "dims.get(size - i - 2, 0)",
        "dims.get(size - i - 1, 0)",
        "beta_{i,sigma} is the dimension of the reduced cohomology of the dual restricted to sigma "
        "in degree |sigma| - i - 2",
        ("test_eagon_reiner.py",),
    ),
    Mutant(
        "betti-exits-0-on-a-nonlinear-table",
        "cli.py",
        "return 0 if linear else 1",
        "return 0",
        "betti exits 1 when the Betti table is not linear, so the exit code carries the verdict",
        ("test_golden_cli.py",),
    ),
    Mutant(
        "cone-matching-trusts-the-euler-sum",
        "cohomology.py",
        "    if euler:\n        return False",
        "    return not euler",
        "an upper set whose level sizes have alternating sum 0 need not be acyclic: the apex of RP^2 "
        "over GF(2) is one, and the 7-vertex input and the posets of the test are others",
        ("test_cone_matching.py",),
    ),
    Mutant(
        "cone-matching-allows-two-covers",
        "cohomology.py",
        "if len(hits) != 1 or hits[0] in matched:",
        "if not hits or hits[0] in matched:",
        "each face off U(a) has exactly one cover in U(a); a second one would close a cycle of the matching",
        ("test_cone_matching.py",),
    ),
    Mutant(
        "cm-check-exits-0-on-a-false-verdict",
        "cli.py",
        "return 0 if verdict.ok else 1",
        "return 0",
        "cm-check exits 1 when the complex is not Cohen-Macaulay, so the exit code carries the verdict",
        ("test_golden_cli.py",),
    ),
    Mutant(
        "irres-exits-0-on-a-refusal",
        "cli.py",
        '"dimension": dim}\n        return 1',
        '"dimension": dim}\n        return 0',
        "irres exits 1 when it refuses a complex that is not Cohen-Macaulay",
        ("test_golden_cli.py",),
    ),
    Mutant(
        "reduce-chain-keeps-first-pivot-column",
        "eagon_reiner.py",
        "{} if i in pivots else",
        "{} if i in pivots and i != min(pivots) else",
        "the Hochster coboundary leaves unwritten the columns at the pivot rows of the block before",
        ("test_clearing.py", "test_eagon_reiner.py"),
        equivalent="clearing is only an optimization: a column at a pivot row of the "
        "block before lies in the span of the columns before it, so reducing it "
        "gives zero and leaves every prefix rank and pivot as they were",
    ),
)


def _copy_tree(tmp: str) -> None:
    skip = shutil.ignore_patterns("__pycache__", "*.pyc")
    for name in ("src", "tests"):
        shutil.copytree(os.path.join(ROOT, name), os.path.join(tmp, name), ignore=skip)
    shutil.copy(os.path.join(ROOT, "pyproject.toml"), tmp)


def _apply(m: Mutant, tmp: str) -> None:
    path = os.path.join(tmp, "src", "zeemac", m.file)
    with open(path) as fh:
        text = fh.read()
    if (count := text.count(m.old)) != 1:
        raise SystemExit(f"{m.name}: the old text occurs {count} times in {m.file}, not once")
    with open(path, "w") as fh:
        fh.write(text.replace(m.old, m.new))


def _fails(tmp: str, test_file: str) -> bool:
    env = dict(os.environ, PYTHONPATH=os.path.join(tmp, "src"), PYTHONDONTWRITEBYTECODE="1")
    cmd = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", os.path.join("tests", test_file)]
    return subprocess.run(cmd, cwd=tmp, env=env, capture_output=True).returncode != 0


def check(m: Mutant) -> list[str]:
    """The test files that did not do what the entry says: survived the
    mutant, or, for an equivalent mutant, failed on it."""
    with tempfile.TemporaryDirectory() as tmp:
        _copy_tree(tmp)
        _apply(m, tmp)
        return [t for t in m.tests if _fails(tmp, t) == bool(m.equivalent)]


def main(names) -> int:
    table = {m.name: m for m in MUTANTS}
    unknown = [n for n in names if n not in table]
    if unknown:
        print(f"unknown mutant(s): {', '.join(unknown)}", file=sys.stderr)
        return 2
    bad = 0
    for m in [table[n] for n in names] or MUTANTS:
        t0 = time.perf_counter()
        wrong = check(m)
        if not wrong:
            verdict = "survived as equivalent" if m.equivalent else "killed"
        elif m.equivalent:
            verdict = f"killed by {', '.join(wrong)}, so it is not equivalent"
        else:
            verdict = f"SURVIVED {', '.join(wrong)}"
        print(f"{m.name}: {verdict} ({time.perf_counter() - t0:.1f} s) -- {m.claim}", flush=True)
        bad += bool(wrong)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
