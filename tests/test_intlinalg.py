"""Integer kernels, checked against rational and sympy oracles."""

import random
import time
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from sympy import ZZ, Matrix
from sympy.matrices.normalforms import smith_normal_form
from sympy.polys.matrices import DomainMatrix

from kzero import integer_kernel


def rational_rank(mat):
    a = [[Fraction(x) for x in row] for row in mat]
    rank = 0
    cols = len(a[0]) if a else 0
    for col in range(cols):
        piv = next((r for r in range(rank, len(a)) if a[r][col]), None)
        if piv is None:
            continue
        a[rank], a[piv] = a[piv], a[rank]
        inv = 1 / a[rank][col]
        for r in range(len(a)):
            if r != rank and a[r][col]:
                f = a[r][col] * inv
                a[r] = [x - f * y for x, y in zip(a[r], a[rank])]
        rank += 1
    return rank


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
