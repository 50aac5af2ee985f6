"""Exact arithmetic over the structures the matching-vector schemes and
the verifier need.

Everything here is pure and exact: the binary fields F_(2^r), the cyclic
group ring Z_m[g]/(g^m - 1) for squarefree m, and sparse univariate
polynomials.  The prime field F_p and its primality test live in
:mod:`pirlab.engine`, since the cgks, curve and toy schemes need only that
field: their servers and clients never load this module.  Elements of
F_(2^r) are plain Python ints (bit vectors of polynomial coefficients);
group-ring elements are tuples of ints.  The structure objects carry the
operations, and each has one ``dot``, the inner product of two element
sequences.  All values are immutable, so everything in this module is
safe to share across threads.

Linear algebra is Gaussian elimination over a prime field.  On top of it,
``interpolation_vector`` computes the weights that recover a polynomial's
constant term from its values (and first derivatives) at any points: the
reconstruction vector of gks, and the reference that the closed-form
weights of the curve schemes are tested against.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from functools import reduce
from typing import Sequence

from .engine import PrimeField
from .errors import (
    DimensionMismatch,
    InterpolationSetInvalid,
    NonUnit,
    NoSuchElement,
    ParamError,
)

Matrix = Sequence[Sequence[int]]
Vector = Sequence[int]


def factorize(n: int) -> tuple[int, ...]:
    """Prime factors of n with multiplicity, by trial division."""
    if n < 2:
        raise ParamError(f"cannot factor {n}")
    factors = []
    d = 2
    while d * d <= n:
        while n % d == 0:
            factors.append(d)
            n //= d
        d += 1 if d == 2 else 2
    if n > 1:
        factors.append(n)
    return tuple(factors)


def squarefree_factors(m: int) -> tuple[int, ...]:
    """Distinct prime factors of a squarefree m; rejects repeated factors."""
    factors = factorize(m)
    if len(set(factors)) != len(factors):
        raise ParamError(f"{m} is not squarefree")
    return factors


def crt_combine(residues: Sequence[int], factors: Sequence[int]) -> int:
    """The x mod prod(factors) with x = residues[j] mod factors[j], for
    pairwise coprime factors."""
    if len(residues) != len(factors):
        raise DimensionMismatch("residue/factor count mismatch")
    m = reduce(lambda a, b: a * b, factors, 1)
    x = 0
    for r, p in zip(residues, factors):
        q = m // p
        x += r * q * pow(q, -1, p)
    return x % m


def _poly2_mod(a: int, b: int) -> int:
    """a mod b for polynomials over F_2 held as ints (bit j: coefficient of
    x^j), by shift-and-XOR."""
    while a.bit_length() >= b.bit_length():
        a ^= b << (a.bit_length() - b.bit_length())
    return a


def _binary_modulus(r: int) -> int:
    """x^3 + x + 1 for r = 3; otherwise the first irreducible monic f of
    degree r over F_2 in lexicographic order of its lower coefficients
    (c_0, ..., c_(r-1)).  f is irreducible iff no polynomial of degree 1 ..
    r // 2 divides it."""
    if r == 3:
        return 0b1011
    # Reversing k's r-bit string puts c_0 in k's top bit, so counting k up
    # walks the coefficient tuples in lexicographic order.
    candidates = ((1 << r) | int(f"{k:0{r}b}"[::-1], 2) for k in range(1 << r))
    return next(
        f
        for f in candidates
        if all(_poly2_mod(f, d) for d in range(2, 2 << r // 2))
    )


class BinaryField:
    """The field F_(2^r) = F_2[x]/(f) for the fixed irreducible f of
    ``_binary_modulus``.

    Elements are ints below 2^r: bit j is the coefficient of x^j, so
    addition is XOR and multiplication is a shift-and-XOR product reduced
    by f.  The int is also the element's wire value.
    """

    def __init__(self, r: int):
        if r < 2:
            raise ParamError("extension degree must be >= 2")
        self.r = r
        self.modulus = _binary_modulus(r)
        self.order = 1 << r
        self.component_modulus = self.order
        self.zero = 0
        self.one = 1
        # x itself; it generates the multiplicative group when 2^r - 1 is
        # prime.
        self.gen = 0b10

    def __repr__(self):
        return f"BinaryField({self.r})"

    def __eq__(self, other):
        return isinstance(other, BinaryField) and other.r == self.r

    def __hash__(self):
        return hash(("F2", self.r))

    def add(self, a: int, b: int) -> int:
        return a ^ b

    def mul(self, a: int, b: int) -> int:
        product = 0
        while b:
            if b & 1:
                product ^= a
            a <<= 1
            b >>= 1
        return _poly2_mod(product, self.modulus)

    def dot(self, a: Sequence[int], b: Sequence[int]) -> int:
        return reduce(operator.xor, map(self.mul, a, b), 0)

    def pow(self, a: int, n: int) -> int:
        if n < 0:
            return self.pow(self.inv(a), -n)
        result = 1
        while n:
            if n & 1:
                result = self.mul(result, a)
            a = self.mul(a, a)
            n >>= 1
        return result

    def inv(self, a: int) -> int:
        if a == 0:
            raise NonUnit(f"0 has no inverse in {self!r}")
        return self.pow(a, self.order - 2)

    def dlog(self, base: int, value: int) -> int:
        """Discrete log by enumeration; only sensible for tiny fields."""
        acc = 1
        for k in range(self.order - 1):
            if acc == value:
                return k
            acc = self.mul(acc, base)
        raise NoSuchElement(f"{value} is not a power of {base}")


class CyclicGroupRing:
    """The group ring Z_m[g]/(g^m - 1) for squarefree m.

    Elements are length-m coefficient tuples indexed by the powers
    g^0 .. g^{m-1}; multiplication is cyclic convolution modulo m.
    """

    def __init__(self, m: int):
        self.m = m
        self.component_modulus = m
        self.factors = squarefree_factors(m)
        self.zero = (0,) * m
        self.one = (1,) + (0,) * (m - 1)

    def __repr__(self):
        return f"CyclicGroupRing({self.m})"

    def __eq__(self, other):
        return isinstance(other, CyclicGroupRing) and other.m == self.m

    def __hash__(self):
        return hash(("GR", self.m))

    def basis(self, exponent: int) -> tuple[int, ...]:
        """The element g^exponent."""
        coeffs = [0] * self.m
        coeffs[exponent % self.m] = 1
        return tuple(coeffs)

    def add(self, a, b):
        return tuple((x + y) % self.m for x, y in zip(a, b))

    def mul(self, a, b):
        m = self.m
        out = [0] * m
        for i, ai in enumerate(a):
            if ai:
                for j, bj in enumerate(b):
                    if bj:
                        k = i + j
                        if k >= m:
                            k -= m
                        out[k] = (out[k] + ai * bj) % m
        return tuple(out)

    def dot(self, a, b):
        return reduce(self.add, map(self.mul, a, b), self.zero)

    def scalar_mul(self, c: int, a):
        return tuple(c * x % self.m for x in a)

    def shift(self, a, exponent: int):
        """Multiply by g^exponent (a cyclic rotation of the coefficients)."""
        s = exponent % self.m
        return tuple(a[(i - s) % self.m] for i in range(self.m))


@dataclass(frozen=True)
class SparsePoly:
    """A sparse univariate polynomial: (exponent, coefficient) terms.

    Exponents are strictly increasing and zero coefficients are never
    stored.  Coefficients live in `ring` (any structure from this module).
    """

    ring: object
    terms: tuple[tuple[int, object], ...]

    def __post_init__(self):
        exps = [e for e, _ in self.terms]
        if exps != sorted(set(exps)):
            raise ParamError("exponents must be strictly increasing")
        if any(c == self.ring.zero for _, c in self.terms):
            raise ParamError("zero coefficients must not be stored")

    def evaluate(self, theta):
        """Evaluate by square-and-multiply per term."""
        ring = self.ring
        acc = ring.zero
        for exponent, coeff in self.terms:
            acc = ring.add(acc, ring.mul(coeff, ring.pow(theta, exponent)))
        return acc


def find_order_element(field: PrimeField, m: int) -> int:
    """An element of F_p^* with multiplicative order exactly m.

    Candidates h^((p-1)/m) for h = 2, 3, ... are tested until one has no
    proper-divisor order.  Requires m | p - 1.
    """
    p = field.p
    if m == 1:
        return 1
    if (p - 1) % m != 0:
        raise NoSuchElement(f"{m} does not divide {p - 1}")
    prime_divisors = sorted(set(factorize(m)))
    for h in range(2, p):
        g = pow(h, (p - 1) // m, p)
        if g == 1:
            continue
        if all(pow(g, m // q, p) != 1 for q in prime_divisors):
            return g
    raise NoSuchElement(f"no element of order {m} found in F_{p}")


def _eliminate(A: Matrix, b: Vector, p: int):
    """Row-reduce the augmented system; returns (rows, pivots) or None."""
    rows = [[x % p for x in row] + [rhs % p] for row, rhs in zip(A, b)]
    ncols = len(rows[0]) - 1 if rows else 0
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        pivot = next((k for k in range(r, len(rows)) if rows[k][c]), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        inv = pow(rows[r][c], p - 2, p)
        rows[r] = [x * inv % p for x in rows[r]]
        for k in range(len(rows)):
            if k != r and rows[k][c]:
                f = rows[k][c]
                rows[k] = [(x - f * y) % p for x, y in zip(rows[k], rows[r])]
        pivots.append(c)
        r += 1
    for k in range(r, len(rows)):
        if rows[k][-1]:
            return None
    return rows, pivots


def try_solve_mod_prime(A: Matrix, b: Vector, p: int) -> list[int] | None:
    """Any solution of A x = b over F_p, or None if inconsistent.

    Free variables are set to zero, so the result is deterministic.
    """
    if not A:
        return []
    if len(A) != len(b):
        raise DimensionMismatch("matrix/vector size mismatch")
    reduced = _eliminate(A, b, p)
    if reduced is None:
        return None
    rows, pivots = reduced
    x = [0] * len(A[0])
    for r, c in enumerate(pivots):
        x[c] = rows[r][-1]
    return x


def kernel_mod_prime(A: Matrix, p: int) -> list[list[int]]:
    """A basis for the nullspace of A over F_p (deterministic order)."""
    if not A:
        return []
    ncols = len(A[0])
    reduced = _eliminate(A, [0] * len(A), p)
    rows, pivots = reduced  # homogeneous systems are always consistent
    pivot_set = set(pivots)
    basis = []
    for free in range(ncols):
        if free in pivot_set:
            continue
        vec = [0] * ncols
        vec[free] = 1
        for r, c in enumerate(pivots):
            vec[c] = -rows[r][free] % p
        basis.append(vec)
    return basis


def interpolation_matrix(
    p: int, points: Sequence[int], support: Sequence[int], multiplicity: int
) -> list[list[int]]:
    """Evaluation matrix over F_p of the polynomials supported on ``support``.

    Row delta holds theta^delta at each point b and, at multiplicity 2, its
    first Hasse derivative delta * b^(delta - 1) right after the value, so a
    coefficient vector c maps to (phi(b_1), phi'(b_1), ..., phi(b_k),
    phi'(b_k)) as sum_delta c_delta * row_delta.
    """
    if multiplicity not in (1, 2):
        raise ParamError("only multiplicities 1 and 2 are supported")
    rows = []
    for delta in support:
        row = []
        for b in points:
            row.append(pow(b, delta, p))
            if multiplicity == 2:
                row.append(delta * pow(b, delta - 1, p) % p if delta else 0)
        rows.append(row)
    return rows


def interpolation_vector(
    p: int, points: Sequence[int], support: Sequence[int], multiplicity: int
) -> list[int]:
    """mu recovering the constant coefficient of any polynomial supported on
    ``support`` from values (and Hasse derivatives up to order
    < multiplicity) at ``points``, all over F_p: M mu = e_0 for the
    ``interpolation_matrix`` M.  Free variables are zero when several mu
    qualify."""
    rows = interpolation_matrix(p, points, support, multiplicity)
    rhs = [1 if delta == 0 else 0 for delta in support]
    mu = try_solve_mod_prime(rows, rhs, p)
    if mu is None:
        raise InterpolationSetInvalid(
            f"points {tuple(points)} cannot recover the constant term "
            f"on support {tuple(support)} at multiplicity {multiplicity}"
        )
    return mu

