"""Saturated integer kernels by column Hermite reduction.

Matrices are sequences of equal-length rows of integers.  Row by row,
Euclid's algorithm on the columns that are not yet pivots leaves one
nonzero entry in that row; its column becomes a pivot.  Every step is a
unimodular column operation E_t (Kannan & Bachem, SIAM J. Comput. 1979),
so with U = E_1 ... E_T the columns rank..n-1 of U are a basis of the
full kernel lattice.  The pivots and quotients read only the matrix, so
the loop reduces the matrix alone and logs its operations: a swap of
columns k and p as (k, p, 0), c_k -= q * c_p as (k, p, q).  ``_replay``
then builds just the d = n - rank kernel columns of U: since
U e_j = E_1 (E_2 (... E_T e_j)), each vector starts at e_j and takes the
log from last to first, (k, p, q) mapping v_p -= q * v_k and a swap
exchanging entries k and p.  These are the very vectors that carrying U
beside the columns would give.

The loop runs on packed columns, written by ``_pack``, the codec
(with ``_slot_width`` and ``_unpack``) that ``series`` multiplies with.
Each column that is not yet a pivot is one Python int: its entry j sits
in a signed ``width``-bit slot at bit ``width * j``, counted from the
current row, so a pivot entry reads as ``((P & mask) ^ half) - half``, a
column operation is one big-integer ``P_k -= q * P_p``, and once a row
is done the remaining columns shift right by one slot (their slot-0
entries are zero by then).  A bound b_k >= max |entry| grows as b_k +
|q| b_p with each operation and keeps every slot below ``half =
2**(width - 1)`` in magnitude, so the packed sum decodes slot by slot.
When an operation would break that, the pivot's bound is reset to its
true maximum; if that is not enough, every column is repacked at its
true maxima, in slots as wide as the new bound needs but never narrower.
Slots have ``HEADROOM_BITS`` to spare.

Cost model: the loop pays one interpreter step per column operation
plus big-integer work linear in the column's bits, and the replay one
step per operation and kernel vector.  Measured with Python 3.11 on a
2-vCPU machine: the verify sweep's 6 x 3 stacked Gram takes 20 us.  On
entries in [-9, 9], near-full-rank matrices of size 18-26 take 1-3 ms,
and 12 x 30 and 16 x 40 take 2 and 5-7 ms.  Of size 60 with entries in
[-50, 50] and deficiency 5 they take 0.07-0.11 s, with kernel entries
of 274-307 bits over five seeds; of size 80 with entries in [-9, 9]
and deficiency 4 0.14-0.19 s, with 287-331 bits.  With 1,000-bit
entries the time is in big-integer products: 18 x 20 takes 1.6-1.9 s.
"""

from __future__ import annotations

from collections.abc import Sequence
from operator import index

from .errors import ValidationError
from .series import _pack, _slot_width, _unpack

# spare bits per slot: more make the bound check fail less often but
# the columns longer; at sizes 18-26 and 60, 64-256 time alike and 32
# and 384 slower
HEADROOM_BITS = 128


def _copy(mat) -> list[list[int]]:
    rows = []
    for i, row in enumerate(mat):
        if not isinstance(row, Sequence):
            raise ValidationError(f"matrix row {i} is not a sequence")
        try:
            rows.append(list(map(index, row)))
        except TypeError as err:
            raise ValidationError(f"matrix row {i}: {err}") from None
    if rows and any(len(r) != len(rows[0]) for r in rows):
        raise ValidationError("ragged matrix")
    return rows


def integer_kernel(mat) -> list[list[int]]:
    """Basis of the lattice {x in Z^n : mat @ x = 0}.

    The vectors are columns of a unimodular matrix, so they span the full
    (saturated) kernel lattice, not merely a finite-index sublattice.
    Entries must be integers (``int``, ``bool`` or any ``__index__``
    type); anything else, or rows of unequal length, raise
    ``ValidationError``.
    """
    rows = _copy(mat)
    slots = len(rows)
    n = len(rows[0]) if slots else 0
    if not n:
        return []
    bound = [max(map(abs, col)) for col in zip(*rows)]
    width = _slot_width(max(bound).bit_length() + HEADROOM_BITS)
    packed = [_pack(col, width) for col in zip(*rows)]
    log = []
    rank = 0
    while slots:
        half = 1 << (width - 1)
        mask = 2 * half - 1
        lead = [0] * rank + [((P & mask) ^ half) - half for P in packed[rank:]]
        while True:
            # the first live column of least |entry| is the pivot
            mags = list(map(abs, lead[rank:]))
            live = n - rank - mags.count(0)
            if not live:
                break
            p = rank + mags.index(min(filter(None, mags)))
            if p != rank:
                packed[rank], packed[p] = packed[p], packed[rank]
                bound[rank], bound[p] = bound[p], bound[rank]
                lead[rank], lead[p] = lead[p], lead[rank]
                log.append((rank, p, 0))
            if live == 1:
                rank += 1
                break
            pivot, b_p, lead_p = packed[rank], bound[rank], lead[rank]
            for k in range(rank + 1, n):
                q = lead[k] // lead_p
                if not q:
                    continue
                b = bound[k] + abs(q) * b_p
                if b >= half:
                    # reset the pivot's bound to its true maximum
                    b_p = bound[rank] = max(map(abs, _unpack(pivot, slots, width)))
                    b = bound[k] + abs(q) * b_p
                    if b >= half:
                        # repack every column at its true maxima; a slot never narrows
                        cols = [_unpack(P, slots, width) for P in packed[rank:]]
                        bound[rank:] = [max(map(abs, col)) for col in cols]
                        b = bound[k] + abs(q) * b_p
                        width = max(width, _slot_width(b.bit_length() + HEADROOM_BITS))
                        half = 1 << (width - 1)
                        packed[rank:] = [_pack(col, width) for col in cols]
                        pivot = packed[rank]
                packed[k] -= q * pivot
                bound[k] = b
                lead[k] -= q * lead_p
                log.append((k, rank, q))
        for k in range(rank, n):
            packed[k] >>= width
        slots -= 1
    return _replay(log, rank, n)


def _replay(log: list[tuple[int, int, int]], rank: int, n: int) -> list[list[int]]:
    """Columns rank..n-1 of U = E_1 ... E_T, the product of the logged operations."""
    basis = []
    for j in range(rank, n):
        v = [0] * n
        v[j] = 1
        for k, p, q in reversed(log):
            if not q:
                v[k], v[p] = v[p], v[k]
            else:
                v[p] -= q * v[k]
        basis.append(v)
    return basis
