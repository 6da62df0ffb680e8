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

Matrices of at least ``PACKED_MIN_COLUMNS`` columns run the same pivots
and quotients on packed columns.  Each column that is not yet a pivot is
one Python int: its entry j sits in a signed ``width``-bit slot at bit
``width * j``, counted from the current row, so the current row is slot
0 and a pivot entry reads as ``((P & mask) ^ half) - half``.  A column
operation is then one big-integer ``P_k -= q * P_p`` instead of a Python
loop over its entries, and once a row is done the remaining columns
shift right by one slot, which is exact because their slot-0 entries
are zero by then.  A bound b_k >= max |entry| is kept for each column
and grows as b_k + |q| b_p with each operation, which keeps every slot
below ``half = 2**(width - 1)`` in magnitude so the packed sum decodes
slot by slot.  When an operation would break that, the two columns it
involves are decoded and their bounds reset to their true maxima; only
if the true entries need it are all columns decoded and repacked in
wider slots.  Slots are whole bytes with ``HEADROOM_BITS`` to spare, so
packing and decoding are one ``to_bytes``/``from_bytes`` pass after an
offset of ``half`` in every slot makes the digits nonnegative.

Cost model: the list loop pays one interpreter step per entry of each
column operation; the packed path pays one step per operation plus
big-integer work linear in the column's bits, and a pass over every
entry to pack and to decode.  Narrow matrices have short columns and
few operations, so packing costs more than it saves.  Measured with
Python 3.11 on matrices with entries in [-9, 9], the packed path runs
at 0.7x the list loop's speed at 3 columns, breaks even at about 6
(``PACKED_MIN_COLUMNS``), and is 2x faster at 18-26 columns; on the
60 x 60 and 80 x 80 matrices above it is 2.7x faster.  With entries of
1,000 bits both paths spend their time in big-integer products, and
the packed one gains nothing (about 10% slower at 20 columns).
"""

from __future__ import annotations

# fewer columns than this run the list loop: the measured crossover
PACKED_MIN_COLUMNS = 6
# spare bits per slot: more make the bound check fail less often but
# the columns longer; 128 timed best of 32-256 at 18-80 columns
HEADROOM_BITS = 128


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
    if n >= PACKED_MIN_COLUMNS:
        return _packed_kernel(rows, n)
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


def _slot_width(bits: int) -> int:
    """Whole-byte slot width for magnitudes of ``bits`` bits plus headroom."""
    return -(-(bits + 1 + HEADROOM_BITS) // 8) * 8


def _offset(slots: int, width: int) -> int:
    """``half`` in each of ``slots`` slots: added, it makes every digit nonnegative."""
    return int.from_bytes((bytes(width // 8 - 1) + b"\x80") * slots, "little")


def _pack(entries: list[int], width: int) -> int:
    """sum entries[j] * 2^(width*j), for whole-byte ``width`` and entries in [-2^(width-1), 2^(width-1))."""
    half = 1 << (width - 1)
    data = b"".join((x + half).to_bytes(width // 8, "little") for x in entries)
    return int.from_bytes(data, "little") - _offset(len(entries), width)


def _unpack(packed: int, slots: int, width: int) -> list[int]:
    """The entries of ``_pack``, also of a sum or product of packings whose slots all stay in range."""
    half, w = 1 << (width - 1), width // 8
    data = (packed + _offset(slots, width)).to_bytes(slots * w, "little")
    return [int.from_bytes(data[j : j + w], "little") - half for j in range(0, slots * w, w)]


def _packed_kernel(rows: list[list[int]], n: int) -> list[list[int]]:
    """``integer_kernel``'s loop on packed columns: the same pivots and quotients."""
    m = len(rows)
    slots = m + n
    cols = [[row[j] for row in rows] for j in range(n)]
    # the transform's identity column j is a 1 in slot m + j
    bound = [max([1, *map(abs, col)]) for col in cols]
    width = _slot_width(max(bound).bit_length())
    packed = [_pack(col, width) + (1 << width * (m + j)) for j, col in enumerate(cols)]
    rank = 0
    for _ in range(m):
        half = 1 << (width - 1)
        mask = 2 * half - 1
        lead = [0] * rank + [((P & mask) ^ half) - half for P in packed[rank:]]
        while True:
            live = [k for k in range(rank, n) if lead[k]]
            if not live:
                break
            p = min(live, key=lambda k: abs(lead[k]))
            for arr in (packed, bound, lead):
                arr[rank], arr[p] = arr[p], arr[rank]
            if len(live) == 1:
                rank += 1
                break
            pivot, b_p, lead_p = packed[rank], bound[rank], lead[rank]
            for k in range(rank + 1, n):
                q = lead[k] // lead_p
                if not q:
                    continue
                b = bound[k] + abs(q) * b_p
                if b >= half:
                    b_p = bound[rank] = max(map(abs, _unpack(pivot, slots, width)))
                    bound[k] = max(map(abs, _unpack(packed[k], slots, width)))
                    b = bound[k] + abs(q) * b_p
                    if b >= half:
                        cols = [_unpack(P, slots, width) for P in packed[rank:]]
                        bound[rank:] = [max(map(abs, col)) for col in cols]
                        width = _slot_width(b.bit_length())
                        half = 1 << (width - 1)
                        packed[rank:] = [_pack(col, width) for col in cols]
                        pivot = packed[rank]
                packed[k] -= q * pivot
                bound[k] = b
                lead[k] -= q * lead_p
        for k in range(rank, n):
            packed[k] >>= width
        slots -= 1
    return [_unpack(P, n, width) for P in packed[rank:]]
