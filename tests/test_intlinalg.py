"""Integer kernels, checked against rational and sympy oracles."""

import random
import time
from decimal import Decimal
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from sympy import ZZ, Integer, Matrix
from sympy.matrices.normalforms import smith_normal_form
from sympy.polys.matrices import DomainMatrix

from kzero import ValidationError, integer_kernel, intlinalg, series
from reference import integer_kernel_reference, rational_rank


def random_matrix(rng, m, n, bound=9):
    return [[rng.randint(-bound, bound) for _ in range(n)] for _ in range(m)]


def near_full_rank(rng, n, deficiency, bound):
    rows = random_matrix(rng, n - deficiency, n, bound)
    for _ in range(deficiency):
        mix = [rng.randint(-2, 2) for _ in rows]
        rows.append([sum(c * row[j] for c, row in zip(mix, rows)) for j in range(n)])
    rng.shuffle(rows)
    return rows


def sympy_rank(mat):
    return DomainMatrix.from_list(mat, ZZ).rank()


def sympy_is_saturated(basis):
    # the rows span a saturated lattice iff every invariant factor is a unit
    d = smith_normal_form(Matrix(basis), domain=ZZ)
    return all(abs(d[i, i]) == 1 for i in range(len(basis)))


def annihilates(mat, vec):
    return all(sum(r * x for r, x in zip(row, vec)) == 0 for row in mat)


def test_kernel_vectors_annihilate():
    rng = random.Random(17)
    for _ in range(40):
        m, n = rng.randint(1, 4), rng.randint(1, 5)
        a = random_matrix(rng, m, n, 6)
        kernel = integer_kernel(a)
        assert len(kernel) == n - rational_rank(a)
        for vec in kernel:
            assert all(sum(r * x for r, x in zip(row, vec)) == 0 for row in a)


def test_kernel_is_saturated():
    # every small integer solution must be an integer combination of the basis
    a = [[2, 4]]
    kernel = integer_kernel(a)
    assert len(kernel) == 1
    v = kernel[0]
    assert gcd(v[0], v[1]) == 1
    for x in range(-6, 7):
        for y in range(-6, 7):
            if 2 * x + 4 * y == 0:
                k = x // v[0] if v[0] else y // v[1]
                assert [k * v[0], k * v[1]] == [x, y]


def test_kernel_of_zero_and_identity():
    assert integer_kernel([[0, 0], [0, 0]]) == [[1, 0], [0, 1]]
    assert integer_kernel([[1, 0], [0, 1]]) == []


def test_kernel_of_empty_and_ragged_matrices():
    assert integer_kernel([]) == []
    assert integer_kernel([[]]) == []
    assert integer_kernel([[], []]) == []
    assert integer_kernel([[]] * 3) == []
    with pytest.raises(ValueError, match="ragged"):
        integer_kernel([[1, 2], [3]])


@st.composite
def matrices(draw):
    m, n = draw(st.integers(1, 7)), draw(st.integers(1, 7))
    row = st.lists(st.integers(-30, 30), min_size=n, max_size=n)
    return draw(st.lists(row, min_size=m, max_size=m))


@settings(max_examples=200, deadline=None)
@given(matrices())
def test_kernel_matches_sympy(a):
    kernel = integer_kernel(a)
    assert len(kernel) == len(a[0]) - sympy_rank(a)
    assert all(annihilates(a, vec) for vec in kernel)
    if kernel:
        assert sympy_is_saturated(kernel)


def test_kernel_of_a_near_full_rank_60_by_60_matrix_stays_small():
    a = near_full_rank(random.Random(60), 60, 5, 50)
    start = time.perf_counter()
    kernel = integer_kernel(a)
    elapsed = time.perf_counter() - start
    assert len(kernel) == 60 - sympy_rank(a) == 5
    assert all(annihilates(a, vec) for vec in kernel)
    assert sympy_is_saturated(kernel)
    assert max(abs(x).bit_length() for vec in kernel for x in vec) < 1000
    assert elapsed < 10


# The packed loop must take the very pivots and quotients of
# ``integer_kernel_reference``, a plain list loop, so the tests below ask
# for equal vectors, not only a saturated basis of the same lattice.


def test_kernel_matches_integer_kernel_reference_from_1_to_20_columns():
    rng = random.Random(2024)
    for n in (1, 2, 5, 6, 7, 12, 20):
        for m in sorted({1, max(1, n // 2), n, 2 * n}):
            for bound in (1, 9, 50):
                a = random_matrix(rng, m, n, bound)
                assert integer_kernel(a) == integer_kernel_reference(a)
        for deficiency in range(min(n, 4)):
            a = near_full_rank(rng, n, deficiency, 9)
            assert integer_kernel(a) == integer_kernel_reference(a)


@pytest.mark.parametrize("bits", [64, 200, 1000])
def test_packed_slots_widen_at_the_start_and_mid_run(bits, monkeypatch):
    widths = []
    slot_width = intlinalg._slot_width

    def recording(needed):
        widths.append(slot_width(needed))
        return widths[-1]

    monkeypatch.setattr(intlinalg, "_slot_width", recording)
    rng = random.Random(bits)
    n = 8

    def big():
        return rng.choice((-1, 1)) * rng.getrandbits(bits)

    # a unit pivot with huge quotients makes the entries grow past the
    # slots sized for the input
    a = [[1, 1 << bits, -(1 << bits)] + [big() for _ in range(n - 3)]]
    a += [[big() for _ in range(n)] for _ in range(n - 2)]
    assert integer_kernel(a) == integer_kernel_reference(a)
    assert widths[0] > bits
    assert len(widths) > 1


@pytest.mark.parametrize("headroom", [0, 1, 4])
def test_tight_slots_reset_the_pivot_bound_and_repack_and_still_match_the_reference(headroom, monkeypatch):
    # with little headroom both overflow steps fire often: a pivot reset
    # unpacks the pivot ("U"), and a repack that follows it unpacks every
    # live column, then packs them all ("U...UP...P") in slots that must
    # never narrow; each kernel's trace opens with the first packing, one
    # _pack per column
    events, widths = [], []
    pack, unpack = intlinalg._pack, intlinalg._unpack

    def counted_pack(entries, width):
        events.append("P")
        widths.append(width)
        return pack(entries, width)

    def counted_unpack(*args):
        events.append("U")
        return unpack(*args)

    monkeypatch.setattr(intlinalg, "HEADROOM_BITS", headroom)
    monkeypatch.setattr(intlinalg, "_pack", counted_pack)
    monkeypatch.setattr(intlinalg, "_unpack", counted_unpack)
    rng = random.Random(f"headroom {headroom}")
    repacks = resets = 0
    for k in range(400):
        if k % 2:
            a = random_matrix(rng, rng.randint(1, 8), rng.randint(2, 9), rng.choice((1, 9, 1000, 2**40)))
        else:
            n = rng.randint(6, 14)
            a = random_matrix(rng, n - rng.randint(0, 3), n, 50)
        events.clear()
        widths.clear()
        assert integer_kernel(a) == integer_kernel_reference(a)
        assert widths == sorted(widths)
        # after the opening packs, each repack shows one "UP" and unpacks
        # as many columns as it packs, so the unpacks beyond the packs are
        # the pivot resets
        trace = "".join(events)
        columns = len(a[0])
        assert trace[:columns] == "P" * columns and not trace[columns:].startswith("P")
        trace = trace[columns:]
        repacks += trace.count("UP")
        resets += trace.count("U") - trace.count("P")
    # more resets than repacks means some resets were enough on their own
    assert repacks > 0 and resets > repacks


def test_packed_slots_decode_negative_entries_below_positive_ones():
    width = series._slot_width(8)
    half = 1 << (width - 1)
    for entries in ([-1, 1], [-3, -2, 5, -1, 7], [-half, half - 1, -half, 0, half - 1, -1]):
        packed = series._pack(entries, width)
        assert series._unpack(packed, len(entries), width) == entries
    n = 7
    a = [[(-1) ** (i + 1) * (i * n + j + 1) for j in range(n)] for i in range(n)]
    a += [[-x for x in row] for row in a]
    assert integer_kernel(a) == integer_kernel_reference(a)


@st.composite
def slot_lists(draw):
    """A whole-byte slot width and entries up to +-(2^(width-1) - 1), the edges drawn often."""
    width = 8 * draw(st.integers(1, 6))
    top = (1 << (width - 1)) - 1
    entry = st.one_of(st.integers(-top, top), st.sampled_from((top, -top, top - 1, 1 - top, 0, 1, -1)))
    return width, draw(st.lists(entry, max_size=12))


@settings(max_examples=300, deadline=None)
@given(slot_lists())
def test_packed_slots_round_trip_up_to_the_slot_edge(case):
    width, entries = case
    assert series._unpack(series._pack(entries, width), len(entries), width) == entries


def test_packed_path_on_zero_repeated_and_degenerate_matrices():
    n = 6
    row = list(range(1, n + 1))
    zero = [0] * n
    for a in ([], [[]], [zero], [zero] * 3, [row] * 3, [row, zero, row], [zero, row], [[1] * n] * (n + 2)):
        assert integer_kernel(a) == integer_kernel_reference(a)
    assert integer_kernel([zero]) == [[int(i == j) for i in range(n)] for j in range(n)]
    for ragged in ([row, row[1:]], [row[1:], row]):
        with pytest.raises(ValueError, match="ragged"):
            integer_kernel(ragged)


@st.composite
def mixed_matrices(draw):
    n = draw(st.integers(4, 10))
    entry = st.one_of(st.integers(-30, 30), st.integers(-(2**80), 2**80))
    rows = draw(st.lists(st.lists(entry, min_size=n, max_size=n), min_size=1, max_size=9))
    rows += [list(rows[i]) for i in draw(st.lists(st.integers(0, len(rows) - 1), max_size=3))]
    if draw(st.booleans()):
        rows.insert(draw(st.integers(0, len(rows))), [0] * n)
    return rows


@settings(max_examples=150, deadline=None)
@given(mixed_matrices())
def test_kernel_matches_integer_kernel_reference_on_mixed_entries(a):
    assert integer_kernel(a) == integer_kernel_reference(a)


# The kernel vectors are replayed from the log of column operations, not
# carried beside the columns; the reference carries the whole transform,
# so equal vectors check the replay as well as the pivots.


@pytest.mark.parametrize(
    "entry",
    [2.5, 2.0, "3", Fraction(1, 2), Fraction(4, 1), Decimal("7"), None, [1]],
    ids=["float", "integral-float", "str", "Fraction", "integral-Fraction", "Decimal", "None", "list"],
)
def test_non_integer_entries_are_refused(entry):
    for a in ([[entry, 1]], [[1, 2], [3, entry]], [[1] * 6, [entry] + [1] * 5]):
        with pytest.raises(ValidationError, match="row"):
            integer_kernel(a)


def test_rows_that_are_not_sequences_are_refused():
    for a in ([5], [[1, 2], 3], [{1, 2}], [iter([1, 2])], [{0: 1, 1: 2}], [(1, 2), iter([1, 2])], [(1, 2), {0: 1}]):
        with pytest.raises(ValidationError, match="not a sequence"):
            integer_kernel(a)


def test_tuple_list_and_mixed_rows_give_the_same_kernel():
    rng = random.Random(22)
    for m, n in [(6, 3), (2, 5), (3, 6), (4, 8)]:
        rows = random_matrix(rng, m, n, bound=3)
        kernel = integer_kernel(rows)
        assert integer_kernel([tuple(r) for r in rows]) == kernel
        assert integer_kernel([tuple(r) if i % 2 else r for i, r in enumerate(rows)]) == kernel


def test_ragged_matrices_are_validation_errors():
    for a in ([[1, 2], [3]], [[1], [2, 3]], [[], [1]], [[1] * 6, [1] * 7]):
        with pytest.raises(ValidationError, match="ragged"):
            integer_kernel(a)


def test_integer_types_are_read_as_their_index():
    a = [[True, False, 2], (Integer(3), -1, 5)]
    assert integer_kernel(a) == integer_kernel([[1, 0, 2], [3, -1, 5]])
    assert all(type(x) is int for vec in integer_kernel(a) for x in vec)
    # the row that used to be truncated: 2.5 * 1 + 1 * (-2) != 0
    with pytest.raises(ValidationError):
        integer_kernel([[2.5, 1]])


@st.composite
def replay_matrices(draw):
    """Up to 9 x 14, entries small or +-2^80, with zero rows; short wide ones leave many kernel vectors."""
    m, n = draw(st.integers(0, 9)), draw(st.integers(0, 14))
    entry = st.one_of(st.integers(-9, 9), st.sampled_from((2**80, -(2**80), 2**80 - 1)), st.integers(-(2**80), 2**80))
    rows = draw(st.lists(st.lists(entry, min_size=n, max_size=n), min_size=m, max_size=m))
    if rows and draw(st.booleans()):
        rows.insert(draw(st.integers(0, len(rows))), [0] * n)
    return rows


@settings(max_examples=100, deadline=None)
@given(replay_matrices())
@example([[1, 2**80] + [0] * 12])
@example([[int(i == j) for j in range(9)] for i in range(9)])
@example([[0] * 14, [3] * 14])
@example([[(i * j) % 7 - 3 for j in range(14)] for i in range(6)])
def test_replay_matches_the_transform_carrying_reference(a):
    assert integer_kernel(a) == integer_kernel_reference(a)


def test_kernels_of_benchmark_shaped_matrices_match_the_reference():
    rng = random.Random("near full rank 18-26")
    for n in range(18, 27):
        for deficiency in (1, 2, 3):
            a = near_full_rank(rng, n, deficiency, 9)
            kernel = integer_kernel(a)
            assert kernel == integer_kernel_reference(a)
            assert len(kernel) == deficiency
