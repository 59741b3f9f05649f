"""The terminal page by reduction, the oracle for its closed form.

``zeeman.page(z, math.inf)`` reads the terminal page off the admitted
faces.  This module computes it from the total complex instead: every
total differential is reduced, with clearing, and the essential columns
are counted, each at the bidegree of its pair.  It presumes nothing about
the complex, so on a complex that is not cone-like it still gives the
terminal page, where the closed form raises.
"""

from __future__ import annotations

from collections import Counter

from zeemac.linalg import reduce_columns
from zeemac.zeeman import ZeemanComplex


def reduced_infinity_dims(z: ZeemanComplex) -> dict:
    """Terminal-page dimensions: the essential columns of the total
    complex reduced with clearing, each at the bidegree of its block.
    Column j of degree n is essential when its prefix rank does not rise
    and j is no pivot row of D_{n-1}.  The run writer streams each
    differential into ``reduce_columns`` and leaves the columns at the
    pivot rows of D_{n-1} unwritten, so only ranks and pivots are kept: no
    matrix, and ``total_complex`` stays unfilled.

    A filtration step F (q >= s) is a prefix of each basis, and E-infinity
    at (n - s, s) is the drop in dim(Z^n in F) - dim(B^n in F) from s to
    s + 1.  Proof that this is the number of essential columns in F: the
    non-rising columns in F count Z^n in F; the pivot rows of D_{n-1} are
    distinct, so those in F count B^n in F; and clearing puts every pivot
    row among the non-rising columns.
    """
    dims: Counter = Counter()
    into: dict = {}  # the pivot rows of the differential into the degree
    for n in range(len(z.sizes)):  # out of the top degree, every column is empty
        ranks, pivots = reduce_columns(z._columns(n, z._faces(n), z._faces(n + 1), cleared=into), z.field)
        before = [0, *ranks]  # before[j]: the rank of the columns before j
        for (p, q), (start, size, _) in z._layout.items():
            if p + q == n:
                for j in range(start, start + size):
                    if ranks[j] == before[j] and j not in into:
                        dims[(p, q)] += 1
        into = pivots
    return dict(dims)
