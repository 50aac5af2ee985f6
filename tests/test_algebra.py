"""Exact arithmetic: field/ring axioms, CRT, orders, linear solving and
constant-term interpolation."""

import itertools
import random

import pytest

from pirlab.algebra import (
    BinaryField,
    CyclicGroupRing,
    SparsePoly,
    crt_combine,
    find_order_element,
    kernel_mod_prime,
    squarefree_factors,
    try_solve_mod_prime,
)
from pirlab.engine import PrimeField, is_prime
from pirlab.errors import (
    NonUnit,
    NoSuchElement,
    ParamError,
)


class TestPrimeField:
    def test_rejects_composite(self):
        with pytest.raises(ParamError):
            PrimeField(6)

    def test_inverse_f7(self):
        assert PrimeField(7).inv(3) == 5

    def test_inverse_of_zero(self):
        with pytest.raises(NonUnit):
            PrimeField(7).inv(0)

    @pytest.mark.parametrize("p", [2, 3, 5, 7, 11, 13])
    def test_axioms_exhaustive(self, p):
        f = PrimeField(p)
        for a, b, c in itertools.product(range(p), repeat=3):
            assert f.add(f.add(a, b), c) == f.add(a, f.add(b, c))
            assert f.mul(f.mul(a, b), c) == f.mul(a, f.mul(b, c))
            assert f.mul(a, f.add(b, c)) == f.add(f.mul(a, b), f.mul(a, c))
        for a in range(1, p):
            assert f.mul(a, f.inv(a)) == 1

    @pytest.mark.parametrize("p", [17, 31, 61, 97])
    def test_axioms_sampled(self, p):
        f = PrimeField(p)
        rng = random.Random(p)
        for _ in range(200):
            a, b, c = (rng.randrange(p) for _ in range(3))
            assert f.mul(a, f.add(b, c)) == f.add(f.mul(a, b), f.mul(a, c))
            if a:
                assert f.mul(a, f.inv(a)) == 1


def _schoolbook_mul2(a, b, modulus):
    """Independent F_2[x]/(f) product on coefficient lists: multiply out
    term by term, then cancel the top terms with shifted copies of f."""
    r = len(modulus) - 1
    prod = [0] * (2 * r - 1)
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            prod[i + j] ^= ai & bj
    for d in range(2 * r - 2, r - 1, -1):
        if prod[d]:
            for j, fj in enumerate(modulus):
                prod[d - r + j] ^= fj
    return prod[:r]


def _bits(value, width):
    return [value >> j & 1 for j in range(width)]


class TestExtField:
    """F_(2^r) as BinaryField: elements are ints, bit j the coefficient of
    x^j."""

    # The moduli in force; each enters gamma and so the Mersenne digests.
    PINNED_MODULI = {
        2: 0b111,  # x^2 + x + 1
        3: 0b1011,  # x^3 + x + 1
        5: 0b101001,  # x^5 + x^3 + 1
        7: 0b11000001,  # x^7 + x^6 + 1
        13: 0b11011000000001,  # x^13 + x^12 + x^10 + x^9 + 1
    }

    def test_f8_uses_shipped_modulus(self):
        assert BinaryField(3).modulus == 0b1011  # x^3 + x + 1

    def test_f8_reduction(self):
        # x * x^2 = x^3 = x + 1 under x^3 + x + 1
        f8 = BinaryField(3)
        x = f8.gen
        x2 = f8.mul(x, x)
        assert x2 == 0b100
        assert f8.mul(x, x2) == 0b011

    def test_pinned_moduli_are_irreducible(self):
        # Independent check, for prime r: f divides x^(2^r) - x, so its
        # irreducible factors have degree 1 or r, and f(0) = f(1) = 1 rules
        # out degree 1.
        for r, f in self.PINNED_MODULI.items():
            assert BinaryField(r).modulus == f
            coeffs = _bits(f, r + 1)
            assert coeffs[0] == 1 and sum(coeffs) % 2 == 1  # f(0), f(1)
            power = _bits(0b10, r)  # x
            for _ in range(r):
                power = _schoolbook_mul2(power, power, coeffs)
            assert power == _bits(0b10, r), r  # x^(2^r) = x mod f

    @pytest.mark.parametrize("r", [2, 3, 5])
    def test_mul_matches_schoolbook(self, r):
        field = BinaryField(r)
        coeffs = _bits(field.modulus, r + 1)
        for a, b in itertools.product(range(2**r), repeat=2):
            expected = _schoolbook_mul2(_bits(a, r), _bits(b, r), coeffs)
            assert _bits(field.mul(a, b), r) == expected

    def test_f4_inverse_roundtrip(self):
        f4 = BinaryField(2)
        for el in range(1, 4):
            assert f4.mul(el, f4.inv(el)) == f4.one

    def test_generator_order(self):
        f8 = BinaryField(3)
        powers = {f8.pow(f8.gen, k) for k in range(7)}
        assert len(powers) == 7


def _fold_dot(ring, a, b):
    acc = ring.zero
    for x, y in zip(a, b, strict=True):
        acc = ring.add(acc, ring.mul(x, y))
    return acc


def _random_element(ring, rng):
    if isinstance(ring.zero, int):
        return rng.randrange(ring.component_modulus)
    return tuple(rng.randrange(ring.component_modulus) for _ in ring.zero)


class TestDot:
    """Each ring's ``dot`` equals the fold of its own add and mul."""

    @pytest.mark.parametrize(
        "ring",
        [PrimeField(2), PrimeField(7), BinaryField(3), BinaryField(5), CyclicGroupRing(6)],
        ids=repr,
    )
    def test_dot_is_fold(self, ring):
        rng = random.Random(0)
        for length in (0, 1, 2, 5, 17):
            for _ in range(5):
                a = [_random_element(ring, rng) for _ in range(length)]
                b = [_random_element(ring, rng) for _ in range(length)]
                assert ring.dot(a, b) == _fold_dot(ring, a, b)


class TestIntRing:
    """The squarefree modulus m of the Z_m coefficients in Z_m[g]/(g^m - 1)."""

    def test_rejects_non_squarefree(self):
        with pytest.raises(ParamError):
            squarefree_factors(12)
        with pytest.raises(ParamError):
            CyclicGroupRing(12)

    def test_factors(self):
        assert squarefree_factors(42) == (2, 3, 7)
        assert CyclicGroupRing(42).factors == (2, 3, 7)
        assert squarefree_factors(6) == (2, 3)


class TestCrt:
    def test_split_examples(self):
        assert crt_combine((0, 1), (2, 3)) == 4
        assert crt_combine((0, 0), (2, 3)) == 0

    def test_combine_all_ones(self):
        assert crt_combine((1, 1), (2, 3)) == 1

    @pytest.mark.parametrize("m", [6, 15, 42])
    def test_roundtrip_exhaustive(self, m):
        factors = squarefree_factors(m)
        for x in range(m):
            assert crt_combine([x % q for q in factors], factors) == x


class TestGroupRing:
    def test_basis_multiplication_exhaustive(self):
        ring = CyclicGroupRing(6)
        for a in range(6):
            for b in range(6):
                assert ring.mul(ring.basis(a), ring.basis(b)) == ring.basis(a + b)

    def test_commutative(self):
        ring = CyclicGroupRing(6)
        rng = random.Random(0)
        for _ in range(50):
            a = tuple(rng.randrange(6) for _ in range(6))
            b = tuple(rng.randrange(6) for _ in range(6))
            assert ring.mul(a, b) == ring.mul(b, a)

    def test_shift_matches_basis_mul(self):
        ring = CyclicGroupRing(6)
        el = (1, 2, 3, 4, 5, 0)
        for e in range(6):
            assert ring.shift(el, e) == ring.mul(el, ring.basis(e))


class TestOrderElement:
    def test_f7_order_6(self):
        f7 = PrimeField(7)
        g = find_order_element(f7, 6)
        assert g == 3
        assert sorted(pow(g, k, 7) for k in range(1, 7)) == [1, 2, 3, 4, 5, 6]

    def test_order_1(self):
        assert find_order_element(PrimeField(7), 1) == 1

    def test_f3067_order_511(self):
        g = find_order_element(PrimeField(3067), 511)
        assert pow(g, 511, 3067) == 1
        assert pow(g, 511 // 7, 3067) != 1
        assert pow(g, 511 // 73, 3067) != 1

    def test_no_such_order(self):
        with pytest.raises(NoSuchElement):
            find_order_element(PrimeField(7), 5)


class TestPolyEval:
    def test_vanishes_at_x_over_f8(self):
        f8 = BinaryField(3)
        poly = SparsePoly(f8, ((0, f8.one), (1, f8.one), (3, f8.one)))
        assert poly.evaluate(f8.gen) == f8.zero

    def test_value_one_at_one(self):
        f8 = BinaryField(3)
        poly = SparsePoly(f8, ((0, f8.one), (1, f8.one), (3, f8.one)))
        assert poly.evaluate(f8.one) == f8.one

    def test_constant_poly(self):
        f7 = PrimeField(7)
        poly = SparsePoly(f7, ((0, 5),))
        for theta in range(7):
            assert poly.evaluate(theta) == 5

    def test_rejects_unsorted_exponents(self):
        f7 = PrimeField(7)
        with pytest.raises(ParamError):
            SparsePoly(f7, ((3, 1), (1, 1)))


class TestLinearSolve:
    def test_identity(self):
        assert try_solve_mod_prime([[1, 0], [0, 1]], [3, 4], 5) == [3, 4]

    def test_f5_example(self):
        x = try_solve_mod_prime([[1, 1], [1, 2]], [0, 1], 5)
        assert x == [4, 1]

    def test_underdetermined_returns_some_solution(self):
        x = try_solve_mod_prime([[1, 1]], [3], 7)
        assert sum(x) % 7 == 3

    def test_try_solve_reports_none(self):
        assert try_solve_mod_prime([[0]], [1], 5) is None

    def test_kernel_basis(self):
        basis = kernel_mod_prime([[1, 1, 0], [0, 0, 1]], 5)
        assert len(basis) == 1
        (vec,) = basis
        assert (vec[0] + vec[1]) % 5 == 0 and vec[2] == 0 and any(vec)


class TestPrimality:
    @pytest.mark.parametrize("n", [2, 3, 7, 127, 3067, 2**31 - 1])
    def test_primes(self, n):
        assert is_prime(n)

    @pytest.mark.parametrize("n", [0, 1, 4, 511, 3066, 2**32 - 1])
    def test_composites(self, n):
        assert not is_prime(n)
