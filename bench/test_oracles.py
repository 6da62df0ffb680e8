"""Tests of the benchmark's oracles against classical values and identities.

Run with ``python3 -m pytest bench``; they need only the standard library.
"""

import math
import random

import oracles as o


def _random_poly(rng, lo, hi, point=False):
    return o.poly_clean(
        {e: (rng.randint(-4, 4), 0 if point else rng.randint(-4, 4)) for e in range(lo, hi + 1)}
    )


def test_hirzebruch_f1_structure_sheaf_values():
    # chi(O(n)) on F_1 = P(O + O(-1)) over P^1: 1, 0, -2, -5, -9 for n = 0..-4
    one = {0: o.ONE}
    got = [o.rr_pairing(0, -1, one, {-n: o.ONE}) for n in range(0, -5, -1)]
    assert got == [1, 0, -2, -5, -9]


def test_pairing_on_p1_times_curve_is_riemann_roch_on_the_product():
    # deg E = 0: chi(O, O(n)) = (n+1)(1-g) on P^1 x C
    for g in range(4):
        for n in range(-6, 7):
            assert o.rr_pairing(g, 0, {0: o.ONE}, {-n: o.ONE}) == (n + 1) * (1 - g)


def test_pairing_vanishes_on_the_relation_ideal():
    rng = random.Random(7)
    for _ in range(40):
        g, e = rng.randint(0, 4), rng.randint(-5, 5)
        rel = o.ruled_relation(e, e)
        x = _random_poly(rng, -3, 3)
        ideal = o.poly_mul(rel, _random_poly(rng, -4, 4))
        assert o.rr_pairing(g, e, x, ideal) == 0
        assert o.rr_pairing(g, e, ideal, x) == 0


def test_pairing_is_invariant_under_a_common_twist():
    rng = random.Random(8)
    a, b = _random_poly(rng, -3, 5), _random_poly(rng, -2, 6)
    shift = lambda p, k: {e + k: c for e, c in p.items()}
    assert o.rr_pairing(2, 3, a, b) == o.rr_pairing(2, 3, shift(a, 4), shift(b, 4))


def test_ruled_identities_match_the_pairing_on_commutative_surfaces():
    # fiber = (0,1) T^0, H = T^0 - T^1; intersection is minus the Euler form
    fiber, h = {0: (0, 1)}, {0: o.ONE, 1: (-1, 0)}
    for g in range(3):
        for e in range(-4, 5):
            table = o.ruled_identities(e)["intersection_table"]
            assert -o.rr_pairing(g, e, fiber, fiber) == table["fiber.fiber"]
            assert -o.rr_pairing(g, e, fiber, h) == table["fiber.H"]
            assert -o.rr_pairing(g, e, h, fiber) == table["H.fiber"]
            assert -o.rr_pairing(g, e, h, h) == table["H.H"]


def test_rank_law():
    assert o.rank_law(1, 5) == [1, 2, 3, 4, 5, 6]
    assert o.rank_law(3, 3) == [1, 4, 10, 20]


def test_inverse_defects_accepts_geometric_series_and_rejects_a_typo():
    # 1/(1 - 2T) = sum 2^n T^n
    good = [2**n for n in range(20)]
    assert o.int_inverse_defects([1, -2], good) == []
    bad = list(good)
    bad[7] += 1
    assert o.int_inverse_defects([1, -2], bad) == [7, 8]


def test_inverse_defects_over_a_curve():
    # (1 + eps T)^-1 = 1 - eps T since eps^2 = 0
    p = {0: o.ONE, 1: (0, 1)}
    assert o.inverse_defects(p, [o.ONE, (0, -1), o.ZERO]) == []
    assert o.inverse_defects(p, [o.ONE, (0, 1), o.ZERO]) == [1]


def test_poly_mul_matches_pair_arithmetic():
    p = {0: (1, 2), 1: (3, -1)}
    q = {-1: (2, 0), 0: (-1, 5)}
    assert o.poly_mul(p, q) == {-1: (2, 4), 0: (5, 1), 1: (-3, 16)}


def test_exact_quotient_recovers_the_cofactor():
    rng = random.Random(3)
    rel = o.ruled_relation(3, -2)
    q = _random_poly(rng, -5, 7)
    assert o.exact_quotient(o.poly_mul(q, rel), rel) == q
    f = o.poly_mul(q, rel)
    f[2] = (f.get(2, o.ZERO)[0] + 1, f.get(2, o.ZERO)[1])
    assert o.exact_quotient(f, rel) is None


def test_normal_form_oracle_on_p1_over_a_point():
    # modulo (1 - T)^2, T^k = k T - (k - 1)
    rel = o.pn_point_relation(1)
    for k in range(-3, 8):
        assert o.is_normal_form_of({k: o.ONE}, {0: (1 - k, 0), 1: (k, 0)}, rel, 1)
        assert not o.is_normal_form_of({k: o.ONE}, {0: (-k, 0), 1: (k, 0)}, rel, 1)


def test_rational_rank_and_determinant():
    m = [[1, 2, 3], [2, 4, 6], [1, 0, 1]]
    assert o.rational_rank(m) == 2
    assert o._det([[2, 1], [7, 4]]) == 1
    assert o._det([[0, 1, 0], [1, 0, 0], [0, 0, 3]]) == -3
    rng = random.Random(5)
    for _ in range(20):
        a = [[rng.randint(-9, 9) for _ in range(3)] for _ in range(3)]
        expect = sum(
            math.prod(a[i][s[i]] for i in range(3)) * sign
            for s, sign in (
                ((0, 1, 2), 1), ((1, 2, 0), 1), ((2, 0, 1), 1),
                ((0, 2, 1), -1), ((2, 1, 0), -1), ((1, 0, 2), -1),
            )
        )
        assert o._det(a) == expect


def test_kernel_defects():
    m = [[1, 1, 0], [0, 0, 0]]
    assert o.kernel_defects(m, [[1, -1, 0], [0, 0, 1]]) == []
    assert o.kernel_defects(m, [[2, -2, 0], [0, 0, 1]]) == ["basis does not span a saturated lattice"]
    assert o.kernel_defects(m, [[1, -1, 0]]) == ["kernel rank 1 != 2"]
    assert "a basis vector is not in the kernel" in o.kernel_defects(m, [[1, 1, 0], [0, 0, 1]])


def test_rational_rank_uses_exact_arithmetic():
    # a float elimination would call this rank 1
    m = [[1, 10**20], [1, 10**20 + 1]]
    assert o.rational_rank(m) == 2


def test_verify_check_counts_at_the_default_grid():
    assert o.verify_check_counts() == {
        "intersection identities": 2904,
        "hilbert rank law": 242,
        "series inversion identity": 200,
        "radical and Neron-Severi lattice": 1452,
    }
