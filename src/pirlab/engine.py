"""The generic three-algorithm retrieval engine.

A ``Scheme`` packages everything one protocol needs: a family of n query
arrays (one per retrievable index, given by a row callback over a structured
randomness space), the n alpha maps that encode the database as a function
F_x(z) = sum_tau x_tau * alpha_tau(z), and a reconstruction-coefficient
callback returning (lambda, omega) with

    alpha(row(i, ell)) . lambda = omega * e_n^(i).

The engine then provides the querying / answering / reconstructing
algorithms, the codecs and exact communication accounting; the checks that
a scheme is valid live in :mod:`pirlab.verify`, which no server loads.

Answers live in R^D for a base ring R and a per-protocol dimension D; the
client pairs the k lambda blocks with the k answers in one ``ring.dot``
over R, which degenerates to ring multiplication for scalar protocols
(D = 1).

``PrimeField`` (with its primality test) lives here rather than in
:mod:`pirlab.algebra`: it is the only ring of cgks, the curve schemes and
toy, so their servers and clients load no other arithmetic.
"""

from __future__ import annotations

import itertools
import math
import operator
import random
from dataclasses import dataclass, field
from typing import Callable, NamedTuple, Sequence

from .errors import (
    CapExceeded,
    DimensionMismatch,
    InconsistentAnswer,
    MalformedQuery,
    NonUnit,
    ParamError,
)

LevelPoint = tuple[int, ...]
Answer = tuple  # D ring elements
# The most rows, level points or Z_m^h vectors that any enumeration lists.
ROW_CAP = 10**6


# Witnesses making Miller-Rabin deterministic for every n < 3.3 * 10^24,
# far beyond the u64 range this library promises.
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin primality test for n < 2^64."""
    if n < 2:
        return False
    for small in _MR_WITNESSES:
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


class PrimeField:
    """The field F_p of integers modulo a prime p.

    Elements are canonical residues in [0, p).
    """

    def __init__(self, p: int):
        if not is_prime(p):
            raise ParamError(f"{p} is not prime")
        self.p = p
        # Every wire component of an element is a residue below this.
        self.component_modulus = p
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

    def dot(self, a: Sequence[int], b: Sequence[int]) -> int:
        return sum(map(operator.mul, a, b)) % self.p

    def inv(self, a: int) -> int:
        if a % self.p == 0:
            raise NonUnit(f"0 has no inverse in F_{self.p}")
        return pow(a, self.p - 2, self.p)

    def pow(self, a: int, e: int) -> int:
        if e < 0:
            return pow(self.inv(a), -e, self.p)
        return pow(a, e, self.p)


class Aux(NamedTuple):
    """Client-side reconstruction state: the retrieval index and the
    randomness draw that produced the queries."""

    i: int
    ell: tuple[int, ...]


class Codec:
    """Fixed-width byte codec for ``count`` residues below one ``radix``.

    A bit is a value of radix 2.  The tuple is sent as one integer
    sum_j v_j * radix^j, written little-endian in
    ceil(bitlen(radix^count - 1) / 8) bytes.  So the width is rounded up to
    whole bytes once per message, not once per value, and it is less than
    8 bits above ``raw_bits``, the information-theoretic width
    count * log2(radix) (a float).  The map is a bijection onto the
    integers below radix^count, so decode accepts exactly the canonical
    byte strings.

    The integer is built and split through a product tree, one level at a
    time: at level l neighbours pair up as low + high * radix^(2^l), and an
    odd node out is carried up unchanged.  The carried node is always the
    last, so every low node is full and each level has one base.  That is
    O(log count) list-wide passes instead of count steps on a growing
    integer.
    """

    def __init__(self, radix: int, count: int):
        if radix < 2 or count < 1:
            raise ParamError("a codec needs a radix >= 2 and at least one value")
        self.radix = radix
        self.count = count
        self.raw_bits = count * math.log2(radix)
        self.size = radix**count
        self.nbytes = ((self.size - 1).bit_length() + 7) // 8
        # One (pairs, base) per tree level, leaves first.
        levels = []
        base, nodes = radix, count
        while nodes > 1:
            levels.append((nodes // 2, base))
            base *= base
            nodes -= nodes // 2
        self._levels = tuple(levels)

    @property
    def size_text(self) -> str:
        """``size`` as "radix^count": printed in full, the randomness space
        of a deployment runs to hundreds of digits."""
        return f"{self.radix}^{self.count}"

    def validate(self, values: Sequence[int]) -> None:
        if len(values) != self.count:
            raise MalformedQuery(
                f"expected {self.count} values, got {len(values)}"
            )
        # One C-level pass: a sum of ints (bools included) is an int, and
        # any float, str or other value makes it something else or fails.
        try:
            integral = type(sum(values)) is int
        except TypeError:
            integral = False
        if not integral:
            raise MalformedQuery("every value must be an integer")
        low, high = min(values), max(values)
        if low < 0 or high >= self.radix:
            v = low if low < 0 else high
            raise MalformedQuery(f"value {v} out of range [0, {self.radix})")

    def encode(self, values: Sequence[int]) -> bytes:
        self.validate(values)
        nums = values
        for pairs, base in self._levels:
            merged = [lo + hi * base for lo, hi in zip(nums[0::2], nums[1::2])]
            merged += nums[2 * pairs :]
            nums = merged
        return nums[0].to_bytes(self.nbytes, "little")

    def decode(self, data: bytes) -> tuple[int, ...]:
        if len(data) != self.nbytes:
            raise MalformedQuery(
                f"expected {self.nbytes} bytes, got {len(data)}"
            )
        number = int.from_bytes(data, "little")
        if number >= self.size:
            raise MalformedQuery(
                f"encoded value exceeds the space of {self.count} values"
            )
        return self.unrank(number)

    def unrank(self, number: int) -> tuple[int, ...]:
        """The value tuple whose integer is ``number``, which must lie in
        [0, size): the inverse of encode before its bytes."""
        # One level's nodes, last first: divmod yields (high, low), so each
        # split pair lands in place and the carried node stays in front.
        # No tuple of unknown length is built: CPython parks each such tuple
        # it frees in a free list (up to 2000 per size below 20) until a
        # full collection, 0.9 MB after 2000 decodes of 64 values.
        nums = [number]
        for pairs, base in reversed(self._levels):
            carried = len(nums) - pairs
            nums[carried:] = itertools.chain.from_iterable(
                map(divmod, nums[carried:], itertools.repeat(base))
            )
        return tuple(reversed(nums))

    def enumerate_values(self):
        """All value tuples of this codec, in lexicographic order; refused
        past ``ROW_CAP``, before any is built."""
        if self.size > ROW_CAP:
            raise CapExceeded(
                f"codec space of {self.size_text} values exceeds cap {ROW_CAP}"
            )
        return itertools.product(range(self.radix), repeat=self.count)


@dataclass(frozen=True)
class Scheme:
    """One complete protocol instantiation.

    ``row(i, ell)`` returns the k queries for index i under randomness ell,
    a value of the codec ``randomness``; a draw of ell is one uniform rank
    in [0, N), split by ``randomness.unrank``.  Where ell ranges over the
    level set itself (cgks, the matching-vector schemes, curves at t = 1),
    the builder passes its level codec as ``randomness``.  ``alpha(tau,
    z)`` evaluates the tau-th encoding map at a level point, returning a
    D-tuple over ``ring``.  ``recon(i, ell)`` returns (lambda, omega):
    lambda is k blocks of D ring elements and omega is a nonzero ring
    element (1 for every protocol except the group-ring one).

    ``report`` holds the builder's public parameters for ``pirlab params``
    and ``param_digest``.  It always starts with ``protocol``, ``n``, ``k``
    and ``t``, written here from the fields above; a builder passes only
    its own keys, and a value it gives for one of these four is replaced.

    ``answer_kernel(db, q)``, when set, computes the same answer as the
    alpha sum over the set bits of x, faster; ``answer`` calls it after
    validating q.  ``db`` is the engine's ``prepare`` of x: the checked
    bytes, one 0 or 1 per entry, laid out once for the kernel by the
    scheme's ``prepare`` when it has one.  ``alpha_sum`` stays the
    reference that every kernel is tested against.

    Instances are immutable and safe to share across threads.
    """

    name: str
    n: int
    k: int
    t: int
    ring: object
    answer_dim: int
    level_codec: Codec
    randomness: Codec
    row: Callable[[int, tuple[int, ...]], tuple[LevelPoint, ...]]
    alpha: Callable[[int, LevelPoint], Answer]
    recon: Callable[[int, tuple[int, ...]], tuple[tuple[Answer, ...], object]]
    report: dict = field(default_factory=dict, compare=False)
    # Derived from ring and answer_dim when None; an init field so that
    # dataclasses.replace can swap in a wrapped codec.
    answer_codec: Codec | None = None
    answer_kernel: Callable[[object, LevelPoint], Answer] | None = None
    prepare: Callable[[bytes], object] | None = None

    def __post_init__(self):
        if self.n < 1:
            raise ParamError("n must be >= 1")
        if self.prepare is not None and self.answer_kernel is None:
            raise ParamError("a prepared database needs an answer kernel")
        if not 1 <= self.t < self.k:
            raise ParamError("privacy threshold must satisfy 1 <= t < k")
        header = {"protocol": self.name, "n": self.n, "k": self.k, "t": self.t}
        # The first **header fixes the key order, the last one the values.
        object.__setattr__(self, "report", {**header, **self.report, **header})
        if self.answer_codec is None:
            # Field elements are ints; group-ring elements are tuples.
            zero = self.ring.zero
            width = 1 if isinstance(zero, int) else len(zero)
            codec = Codec(self.ring.component_modulus, width * self.answer_dim)
            object.__setattr__(self, "answer_codec", codec)

    @property
    def num_rows(self) -> int:
        """N, the number of rows of each query array."""
        return self.randomness.size

    def enumerate_randomness(self):
        return self.randomness.enumerate_values()

    def sample_randomness(self, rng: random.Random) -> tuple[int, ...]:
        # One unbiased randrange over [0, N); unrank is a bijection onto the
        # space, so ell is uniform.
        return self.randomness.unrank(rng.randrange(self.num_rows))

    def encode_answer(self, answer: Answer) -> bytes:
        """One codec message holding the D elements' components in order.
        Field elements are ints; group-ring elements are component tuples."""
        if not isinstance(self.ring.zero, int):
            answer = [c for element in answer for c in element]
        return self.answer_codec.encode(answer)

    def decode_answer(self, data: bytes) -> Answer:
        values = self.answer_codec.decode(data)
        if isinstance(self.ring.zero, int):
            return values
        width = len(self.ring.zero)
        return tuple(
            values[j : j + width] for j in range(0, len(values), width)
        )


def query_gen(
    scheme: Scheme, i: int, seed: int | None
) -> tuple[tuple[LevelPoint, ...], Aux]:
    """The querying algorithm: draw ell uniformly, emit row(i, ell) and aux.
    ParamError unless i is an int in [0, n).

    ell is one rank drawn below ``num_rows``.  Deterministic for an int
    seed, which only verification, benchmarks and tests should pass.  With
    seed None, that rank comes from one call to the operating system's
    randomness: a seeded generator has far less entropy than the
    randomness space, so servers without a computational bound could
    recompute ell and read off i.
    """
    if not isinstance(i, int):  # a bool counts, as in bit_string
        raise ParamError(f"index must be an int, got {i!r}")
    if not 0 <= i < scheme.n:
        raise ParamError(f"index {i} out of range [0, {scheme.n})")
    rng = random.SystemRandom() if seed is None else random.Random(seed)
    ell = scheme.sample_randomness(rng)
    return scheme.row(i, ell), Aux(i, ell)


def bit_string(x: Sequence[int]) -> bytes:
    """x as bytes holding one 0 or 1 per entry; ParamError unless every
    entry is 0 or 1 (False and True count)."""
    try:
        bits = bytes(x)
    except (TypeError, ValueError):
        raise ParamError("database entries must be bits") from None
    # A buffer of wider integers copies to more bytes than it has entries.
    if len(bits) != len(x) or bits.translate(None, b"\x00\x01"):
        raise ParamError("database entries must be bits")
    return bits


_BITS_TO_ASCII = bytes.maketrans(b"\x00\x01", b"01")
_ASCII_TO_BITS = bytes.maketrans(b"01", b"\x00\x01")


def pack_bits(bits: bytes) -> int:
    """The integer whose bit j is bits[j], for bytes holding one 0 or 1 per
    entry; empty bytes give 0.  This and ``unpack_bits`` are the one
    statement of the bit order, for database files and layouts."""
    # int() reads the most significant digit first, so the digits go in
    # reversed.
    return int(bits.translate(_BITS_TO_ASCII)[::-1] or b"0", 2)


def unpack_bits(value: int, n: int) -> bytes:
    """The inverse of ``pack_bits`` for 0 <= value < 2^n: n bytes, byte j
    holding bit j of value."""
    if n == 0:
        return b""
    return format(value, f"0{n}b")[::-1].encode().translate(_ASCII_TO_BITS)


@dataclass(frozen=True, slots=True)
class Prepared:
    """A database of n bits in the form the answer of scheme ``protocol``
    reads: what ``prepare`` returns."""

    protocol: str
    n: int
    data: object


def prepare(scheme: Scheme, x: Sequence[int] | Prepared) -> Prepared:
    """The one database check, for every scheme: n entries, each a bit,
    turned into ``bit_string`` bytes and laid out by ``scheme.prepare``
    when the scheme has one.  A ``Prepared`` passes through if it is for
    this scheme's (protocol, n).  A server prepares once, at start."""
    if isinstance(x, Prepared):
        if (x.protocol, x.n) != (scheme.name, scheme.n):
            raise ParamError(
                f"database prepared for {x.protocol} n = {x.n}, "
                f"not {scheme.name} n = {scheme.n}"
            )
        return x
    if len(x) != scheme.n:
        raise ParamError(f"database length {len(x)} != n = {scheme.n}")
    bits = bit_string(x)
    data = bits if scheme.prepare is None else scheme.prepare(bits)
    return Prepared(scheme.name, scheme.n, data)


def answer(scheme: Scheme, x: Sequence[int] | Prepared, q: LevelPoint) -> Answer:
    """The answering algorithm: F_x(q) = sum over set bits of alpha(tau, q).

    x is anything ``prepare`` takes, and goes through it.  The query is
    validated against the level codec first.  The scheme's
    ``answer_kernel`` computes F_x(q) when it has one; otherwise
    ``alpha_sum``, the reference, does.
    """
    db = prepare(scheme, x)
    scheme.level_codec.validate(q)
    if scheme.answer_kernel is not None:
        return scheme.answer_kernel(db.data, q)
    return alpha_sum(scheme, db.data, q)


def alpha_sum(scheme: Scheme, x: Sequence[int], q: LevelPoint) -> Answer:
    """F_x(q) as one alpha call per set bit: the reference answer.

    Touches every set database entry, Omega(n) work in the worst case, and
    checks neither x nor q.
    """
    ring = scheme.ring
    acc = [ring.zero] * scheme.answer_dim
    for tau, bit in enumerate(x):
        if bit:
            vec = scheme.alpha(tau, q)
            acc = [ring.add(a, v) for a, v in zip(acc, vec)]
    return tuple(acc)


def combine(ring, lam, answers: Sequence[Answer]):
    """y = sum_j <lambda_j, a_j>: one dot product over the chained blocks,
    once each block is known to be as wide as its answer."""
    if list(map(len, lam)) != list(map(len, answers)):
        raise DimensionMismatch("lambda blocks / answer widths mismatch")
    chain = itertools.chain.from_iterable
    return ring.dot(chain(lam), chain(answers))


def reconstruct(scheme: Scheme, aux: Aux, answers: Sequence[Answer]) -> int:
    """Combine the k answers: y = sum_j <lambda_j, a_j>, output 1 iff y = omega.

    An honest execution yields y = omega * x_i, so y is always 0 or omega;
    anything else signals a corrupted or mismatched answer.
    """
    if len(answers) != scheme.k:
        raise ParamError(f"expected {scheme.k} answers, got {len(answers)}")
    lam, omega = scheme.recon(aux.i, aux.ell)
    return decide(scheme, lam, omega, answers)


def decide(scheme: Scheme, lam, omega, answers: Sequence[Answer]) -> int:
    """The bit from y = sum_j <lambda_j, a_j>, given the recon output.

    Raises InconsistentAnswer when y is neither 0 nor omega.
    """
    y = combine(scheme.ring, lam, answers)
    if y == omega:
        return 1
    if y == scheme.ring.zero:
        return 0
    raise InconsistentAnswer(
        f"combined value {y!r} is neither 0 nor omega {omega!r}"
    )


@dataclass(frozen=True)
class CommCost:
    """Exact communication accounting for one scheme.

    raw bits follow the k * (log2|S| + log2|R|) formula with real-valued
    logs; payload bytes are what actually crosses the wire: each query and
    each answer is one integer of ceil(its raw bits / 8) bytes.
    """

    k: int
    level_raw_bits: float
    answer_raw_bits: float
    level_bytes: int
    answer_bytes: int

    @property
    def raw_bits(self) -> float:
        return self.k * (self.level_raw_bits + self.answer_raw_bits)

    @property
    def payload_bytes(self) -> int:
        return self.k * (self.level_bytes + self.answer_bytes)


def comm_cost(scheme: Scheme) -> CommCost:
    return CommCost(
        k=scheme.k,
        level_raw_bits=scheme.level_codec.raw_bits,
        answer_raw_bits=scheme.answer_codec.raw_bits,
        level_bytes=scheme.level_codec.nbytes,
        answer_bytes=scheme.answer_codec.nbytes,
    )

