"""Exact arithmetic over the structures the retrieval protocols need.

Everything here is pure and exact: prime fields F_p, small extension fields
F_{p^e}, integer rings Z_m for squarefree m, the cyclic group ring
Z_m[g]/(g^m - 1), sparse univariate polynomials, and Hasse derivatives of
monomials.  Elements are plain Python ints (canonical residues) or tuples of
ints (coefficient vectors); the structure objects carry the operations.  All
values are immutable, so everything in this module is safe to share across
threads.

Linear algebra is Gaussian elimination over a prime field; systems over Z_m
are solved per prime factor and recombined with the Chinese remainder
theorem, which is why m is restricted to squarefree moduli.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import reduce
from typing import Iterator, Sequence

from .errors import (
    DimensionMismatch,
    NoSolution,
    NonUnit,
    NoSuchElement,
    ParamError,
)

Matrix = Sequence[Sequence[int]]
Vector = Sequence[int]

# Witnesses making Miller-Rabin deterministic for every n < 3.3 * 10^24,
# far beyond the u64 range this library promises.
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin primality test for n < 2^64."""
    if n < 2:
        return False
    for small in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n == small:
            return True
        if n % small == 0:
            return False
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_WITNESSES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


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


class PrimeField:
    """The field F_p of integers modulo a prime p.

    Elements are canonical residues in [0, p).
    """

    def __init__(self, p: int):
        if not is_prime(p):
            raise ParamError(f"{p} is not prime")
        self.p = p
        self.zero = 0
        self.one = 1

    def __repr__(self):
        return f"PrimeField({self.p})"

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("F", self.p))

    def add(self, a: int, b: int) -> int:
        return (a + b) % self.p

    def mul(self, a: int, b: int) -> int:
        return a * b % self.p

    def inv(self, a: int) -> int:
        if a % self.p == 0:
            raise NonUnit(f"0 has no inverse in F_{self.p}")
        return pow(a, self.p - 2, self.p)

    def pow(self, a: int, e: int) -> int:
        if e < 0:
            return pow(self.inv(a), -e, self.p)
        return pow(a, e, self.p)

    def elements(self) -> Iterator[int]:
        return iter(range(self.p))

    # One scalar per element; used by the wire codecs.
    def to_ints(self, a: int) -> tuple[int, ...]:
        return (a,)

    def from_ints(self, scalars: Sequence[int]) -> int:
        return scalars[0] % self.p

    @property
    def component_moduli(self) -> tuple[int, ...]:
        return (self.p,)


class IntRing:
    """The ring Z_m for squarefree composite (or prime) m."""

    def __init__(self, m: int):
        if m < 2:
            raise ParamError("modulus must be >= 2")
        self.m = m
        self.factors = squarefree_factors(m)
        self.zero = 0
        self.one = 1

    def __repr__(self):
        return f"IntRing({self.m})"

    def __eq__(self, other):
        return isinstance(other, IntRing) and other.m == self.m

    def __hash__(self):
        return hash(("Z", self.m))

    def add(self, a: int, b: int) -> int:
        return (a + b) % self.m

    def mul(self, a: int, b: int) -> int:
        return a * b % self.m

    def inv(self, a: int) -> int:
        a %= self.m
        if math.gcd(a, self.m) != 1:
            raise NonUnit(f"{a} is not a unit mod {self.m}")
        return pow(a, -1, self.m)

    def pow(self, a: int, e: int) -> int:
        if e < 0:
            return pow(self.inv(a), -e, self.m)
        return pow(a, e, self.m)

    def elements(self) -> Iterator[int]:
        return iter(range(self.m))

    def to_ints(self, a: int) -> tuple[int, ...]:
        return (a,)

    def from_ints(self, scalars: Sequence[int]) -> int:
        return scalars[0] % self.m

    @property
    def component_moduli(self) -> tuple[int, ...]:
        return (self.m,)


def crt_split(x: int, factors: Sequence[int]) -> tuple[int, ...]:
    """Residues of x modulo each prime factor."""
    return tuple(x % p for p in factors)


def crt_combine(residues: Sequence[int], factors: Sequence[int]) -> int:
    """Inverse of crt_split for pairwise coprime factors."""
    if len(residues) != len(factors):
        raise DimensionMismatch("residue/factor count mismatch")
    m = reduce(lambda a, b: a * b, factors, 1)
    x = 0
    for r, p in zip(residues, factors):
        q = m // p
        x += r * q * pow(q, -1, p)
    return x % m


def _poly_mod_mul(a: Sequence[int], b: Sequence[int], modulus: Sequence[int], p: int) -> tuple[int, ...]:
    """Multiply coefficient vectors mod (monic modulus, p)."""
    e = len(modulus)
    prod = [0] * (2 * e - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                prod[i + j] = (prod[i + j] + ai * bj) % p
    for d in range(2 * e - 2, e - 1, -1):
        c = prod[d]
        if c:
            prod[d] = 0
            for j, mj in enumerate(modulus):
                prod[d - e + j] = (prod[d - e + j] - c * mj) % p
    return tuple(prod[:e])


# Fixed representations for the small binary fields the protocols use:
# x^2 + x + 1 for F_4 and x^3 + x + 1 for F_8 (lower coefficients only).
SHIPPED_MODULI = {
    (2, 2): (1, 1),
    (2, 3): (1, 1, 0),
}


class ExtField:
    """The extension field F_{p^e} = F_p[x]/(modulus).

    Elements are length-e coefficient tuples, lowest degree first.  The
    modulus is a monic degree-e polynomial given by its e lower coefficients;
    F_4 and F_8 use the shipped constants above, anything else is found by
    exhaustive search.  Irreducibility is verified at construction by
    checking for roots and by trial division with every monic factor of
    degree up to e // 2.
    """

    def __init__(self, p: int, e: int, modulus: Sequence[int] | None = None):
        if not is_prime(p):
            raise ParamError(f"{p} is not prime")
        if e < 2:
            raise ParamError("extension degree must be >= 2")
        self.p = p
        self.e = e
        base = PrimeField(p)
        if modulus is None:
            modulus = SHIPPED_MODULI.get((p, e)) or _find_irreducible(base, e)
        self.modulus = tuple(c % p for c in modulus)
        if len(self.modulus) != e:
            raise ParamError("modulus must supply exactly e lower coefficients")
        if not _is_irreducible(base, self.modulus):
            raise ParamError(f"x^{e} + {list(self.modulus)} is reducible over F_{p}")
        self.order = p**e
        self.zero = (0,) * e
        self.one = (1,) + (0,) * (e - 1)
        # x itself; for F_{2^r} with 2^r - 1 prime this generates the
        # multiplicative group.
        self.gen = (0, 1) + (0,) * (e - 2)

    def __repr__(self):
        return f"ExtField({self.p}^{self.e})"

    def __eq__(self, other):
        return (
            isinstance(other, ExtField)
            and (other.p, other.e, other.modulus) == (self.p, self.e, self.modulus)
        )

    def __hash__(self):
        return hash(("EF", self.p, self.e, self.modulus))

    def add(self, a, b):
        return tuple((x + y) % self.p for x, y in zip(a, b))

    def mul(self, a, b):
        return _poly_mod_mul(a, b, self.modulus, self.p)

    def pow(self, a, n: int):
        if n < 0:
            return self.pow(self.inv(a), -n)
        result = self.one
        base = a
        while n:
            if n & 1:
                result = self.mul(result, base)
            base = self.mul(base, base)
            n >>= 1
        return result

    def inv(self, a):
        if a == self.zero:
            raise NonUnit(f"0 has no inverse in {self!r}")
        return self.pow(a, self.order - 2)

    def elements(self) -> Iterator[tuple[int, ...]]:
        def rec(prefix):
            if len(prefix) == self.e:
                yield tuple(prefix)
                return
            for c in range(self.p):
                yield from rec(prefix + [c])

        return rec([])

    def dlog(self, base, value) -> int:
        """Discrete log by enumeration; only sensible for tiny fields."""
        acc = self.one
        for k in range(self.order - 1):
            if acc == value:
                return k
            acc = self.mul(acc, base)
        raise NoSuchElement(f"{value} is not a power of {base}")

    def to_ints(self, a) -> tuple[int, ...]:
        return tuple(a)

    def from_ints(self, scalars: Sequence[int]):
        return tuple(c % self.p for c in scalars)

    @property
    def component_moduli(self) -> tuple[int, ...]:
        return (self.p,) * self.e


def _eval_monic(base: PrimeField, lower: Sequence[int], x: int) -> int:
    acc = 1  # leading coefficient
    for c in reversed(lower):
        acc = (acc * x + c) % base.p
    return acc


def _is_irreducible(base: PrimeField, lower: Sequence[int]) -> bool:
    e = len(lower)
    for x in range(base.p):
        if _eval_monic(base, lower, x) == 0:
            return False
    # No roots rules out linear factors; exhaustive trial division rules out
    # factors of degree 2 .. e // 2.
    for d in range(2, e // 2 + 1):
        for divisor in _monic_polys(base, d):
            if _poly_divides(base, divisor, lower, e):
                return False
    return True


def _monic_polys(base: PrimeField, d: int) -> Iterator[tuple[int, ...]]:
    def rec(prefix):
        if len(prefix) == d:
            yield tuple(prefix)
            return
        for c in range(base.p):
            yield from rec(prefix + [c])

    return rec([])


def _poly_divides(base: PrimeField, div_lower: Sequence[int], lower: Sequence[int], e: int) -> bool:
    p = base.p
    d = len(div_lower)
    rem = list(lower) + [1]  # degree-e monic
    for k in range(e, d - 1, -1):
        c = rem[k]
        if c:
            rem[k] = 0
            for j, mj in enumerate(div_lower):
                rem[k - d + j] = (rem[k - d + j] - c * mj) % p
    return all(c == 0 for c in rem[:d])


def _find_irreducible(base: PrimeField, e: int) -> tuple[int, ...]:
    for lower in _monic_polys(base, e):
        if _is_irreducible(base, lower):
            return lower
    raise NoSuchElement(f"no irreducible degree-{e} polynomial over F_{base.p}")


class CyclicGroupRing:
    """The group ring Z_m[g]/(g^m - 1) for squarefree m.

    Elements are length-m coefficient tuples indexed by the powers
    g^0 .. g^{m-1}; multiplication is cyclic convolution modulo m.
    """

    def __init__(self, m: int):
        self.m = m
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

    def scalar_mul(self, c: int, a):
        return tuple(c * x % self.m for x in a)

    def shift(self, a, exponent: int):
        """Multiply by g^exponent (a cyclic rotation of the coefficients)."""
        s = exponent % self.m
        return tuple(a[(i - s) % self.m] for i in range(self.m))

    def to_ints(self, a) -> tuple[int, ...]:
        return tuple(a)

    def from_ints(self, scalars: Sequence[int]):
        return tuple(c % self.m for c in scalars)

    @property
    def component_moduli(self) -> tuple[int, ...]:
        return (self.m,) * self.m


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


def hasse_of_monomial(
    field: PrimeField,
    u: Sequence[int],
    i: Sequence[int],
    z: Sequence[int],
) -> int:
    """The i-th Hasse derivative of z -> z^u evaluated at z.

    Equals prod_j C(u_j, i_j) * z^(u - i) with the binomial coefficients
    computed over the integers and reduced mod p; zero whenever any
    i_j > u_j.
    """
    if len(u) != len(i) or len(u) != len(z):
        raise DimensionMismatch("u, i, z must have equal length")
    coeff = 1
    value = 1
    p = field.p
    for uj, ij, zj in zip(u, i, z):
        if ij > uj:
            return 0
        coeff = coeff * math.comb(uj, ij) % p
        value = value * pow(zj % p, uj - ij, p) % p
    return coeff * value % p


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


def linear_solve(A: Matrix, b: Vector, structure) -> list[int]:
    """Any x with A x = b over a PrimeField or (via CRT) a squarefree IntRing.

    Raises NoSolution when the system is inconsistent in any prime
    component.
    """
    if isinstance(structure, PrimeField):
        x = try_solve_mod_prime(A, b, structure.p)
        if x is None:
            raise NoSolution(f"inconsistent system over F_{structure.p}")
        return x
    if isinstance(structure, IntRing):
        per_prime = []
        for q in structure.factors:
            x = try_solve_mod_prime(A, b, q)
            if x is None:
                raise NoSolution(f"inconsistent system mod {q}")
            per_prime.append(x)
        ncols = len(per_prime[0])
        return [
            crt_combine([sol[c] for sol in per_prime], structure.factors)
            for c in range(ncols)
        ]
    raise ParamError(f"unsupported structure {structure!r}")


def mat_vec(A: Matrix, x: Vector, structure) -> list:
    """A @ x with the structure's arithmetic."""
    out = []
    for row in A:
        acc = structure.zero
        for a, v in zip(row, x):
            acc = structure.add(acc, structure.mul(a, v))
        out.append(acc)
    return out
