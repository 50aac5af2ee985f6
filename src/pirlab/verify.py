"""Every check of a scheme, exhaustive and oracle-grade.

A valid scheme is a family of orthogonal arrays with span capability:
``span_check_all`` runs ``span_check`` over every (i, ell), and
``oa_family_check`` runs ``oa_strength_check`` on every index's array.
Correctness runs the full query/answer/reconstruct round trip for every
(database, index, randomness) triple, forcing the randomness
deterministically instead of sampling.  The answers come from
``engine.answer``, so a scheme's answer kernel is checked too.  Privacy
compares the projected query multisets of every index pair for every
size-t server coalition - an exact multiset identity, never a statistical
test.  The communication audit compares measured transcript bytes against
the codec widths.  ``run_suites`` runs them as ``pirlab verify`` does.

Reports are plain data with a deterministic line-oriented serialization;
repeated runs produce byte-identical output.
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass, field
from typing import Sequence

from .engine import Scheme, answer, combine, comm_cost, decide, prepare
from .errors import (
    BudgetExceeded,
    CheckFailure,
    InconsistentAnswer,
    Mismatch,
    OAFailure,
    ParamError,
    SpanFailure,
)

# The most (database, index, row) triples the correctness suite checks.
CORRECTNESS_BUDGET = 2**8 * 8 * 10**5
# The suites ``run_suites`` knows, in the order ``pirlab verify`` runs them.
SUITES = ("correctness", "privacy", "span", "oa", "comm")


def all_databases(n: int):
    """Every bit vector of length n, in numeric order."""
    for value in range(2**n):
        yield tuple((value >> j) & 1 for j in range(n))


def structured_databases(n: int):
    """Zero, all-ones, and every unit vector: the databases the correctness
    suite falls back to when all 2^n are out of budget.  Each unit vector
    puts one alpha map alone into the answers."""
    yield (0,) * n
    yield (1,) * n
    for tau in range(n):
        yield tuple(1 if j == tau else 0 for j in range(n))


@dataclass
class CorrectnessReport:
    protocol: str
    databases_tested: int = 0
    pairs_tested: int = 0
    failures: list = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return not self.failures

    def to_lines(self) -> list[str]:
        lines = [
            f"correctness {self.protocol}: "
            f"{'PASS' if self.passed else 'FAIL'} "
            f"({self.databases_tested} databases x {self.pairs_tested} (i, ell) pairs)"
        ]
        for item in self.failures[:10]:
            lines.append(f"  counterexample: {item}")
        return lines


@dataclass
class PrivacyReport:
    protocol: str
    t: int
    subset_verdicts: dict = field(default_factory=dict)
    counterexample: tuple | None = None

    @property
    def passed(self) -> bool:
        return all(self.subset_verdicts.values())

    def to_lines(self) -> list[str]:
        lines = [
            f"privacy {self.protocol} (t={self.t}): "
            f"{'PASS' if self.passed else 'FAIL'}"
        ]
        if self.counterexample is not None:
            coalition, i1, i2, row = self.counterexample
            lines.append(
                f"  counterexample: coalition {coalition} distinguishes "
                f"i={i1} from i={i2}, first differing projected row {row!r}"
            )
        return lines


def exhaustive_correctness(scheme: Scheme, databases=None) -> CorrectnessReport:
    """Full round trip for every (x, i, ell); ell is forced, not sampled.
    Refused past ``CORRECTNESS_BUDGET`` triples, before any database is
    built or any triple checked, and over an empty database list, which
    would pass having checked nothing."""
    n = scheme.n
    big_n = scheme.num_rows
    rows = scheme.randomness.size_text
    if databases is None:
        # From the budget's bit length on, 2^n alone exceeds the budget, so
        # the product is not built there.
        if (
            n >= CORRECTNESS_BUDGET.bit_length()
            or 2**n * n * big_n > CORRECTNESS_BUDGET
        ):
            raise BudgetExceeded(
                f"2^{n} databases x {n} indices x {rows} rows exceeds "
                f"budget {CORRECTNESS_BUDGET}; pass an explicit database list"
            )
        databases = list(all_databases(n))
    else:
        # One database past the limit is enough to exceed the budget, so a
        # long iterable is never built in full, and none is built when one
        # alone exceeds it.
        limit = CORRECTNESS_BUDGET // (n * big_n)
        count = 1
        if limit:
            databases = [tuple(x) for x in itertools.islice(databases, limit + 1)]
            count = len(databases)
        if count > limit:
            raise BudgetExceeded(
                f"{count} or more databases x {n} indices x {rows} "
                f"rows exceeds budget {CORRECTNESS_BUDGET}"
            )
        if not databases:
            raise ParamError("the correctness suite needs at least one database")

    report = CorrectnessReport(protocol=scheme.name)
    report.databases_tested = len(databases)
    ells = list(scheme.enumerate_randomness())
    prepared = [prepare(scheme, x) for x in databases]
    # tables[q] holds the answers to q on every database, in order.  They
    # come from engine.answer on each database prepared once, as a
    # server's do, so a scheme's prepare and answer kernel are what this
    # suite checks; each is computed once.  Equal answers are stored once:
    # most repeat (hermite n=4 has 7612 distinct answers among 38416),
    # which halves the tables' memory.
    tables: dict = {}
    interned: dict = {}
    for i in range(n):
        for ell in ells:
            queries = scheme.row(i, ell)
            lam, omega = scheme.recon(i, ell)
            for q in queries:
                if q not in tables:
                    column = (answer(scheme, db, q) for db in prepared)
                    tables[q] = [interned.setdefault(a, a) for a in column]
            for x, *answers in zip(databases, *(tables[q] for q in queries)):
                try:
                    got = decide(scheme, lam, omega, answers)
                except InconsistentAnswer as exc:
                    report.failures.append(
                        (x, i, ell, f"inconsistent answer: {exc}")
                    )
                    continue
                if got != x[i]:
                    report.failures.append((x, i, ell, f"got {got}, want {x[i]}"))
    report.pairs_tested = n * len(ells)
    return report


def exhaustive_privacy(scheme: Scheme) -> PrivacyReport:
    """Exact multiset equality of projected queries across all index pairs.

    This is the privacy definition itself: for every coalition of t
    servers, at the scheme's own threshold t, every index yields the same
    multiset of projected queries.  It does not ask that multiset to be
    uniform over S^t; that stronger orthogonal-array property is what
    ``oa_family_check`` verifies.
    """
    t = scheme.t
    ells = list(scheme.enumerate_randomness())
    coalitions = list(itertools.combinations(range(scheme.k), t))
    # Index 0's projected multiset is each coalition's reference; a
    # coalition keeps only the first index whose multiset differs.
    reference: dict = {}
    first_bad: dict = {}
    for i in range(scheme.n):
        multisets = {c: [] for c in coalitions if c not in first_bad}
        for ell in ells:
            row = scheme.row(i, ell)
            for coalition, multiset in multisets.items():
                multiset.append(tuple(row[j] for j in coalition))
        for coalition, multiset in multisets.items():
            multiset.sort()
            if i == 0:
                reference[coalition] = multiset
            elif multiset != reference[coalition]:
                first_bad[coalition] = (i, multiset)
    report = PrivacyReport(protocol=scheme.name, t=t)
    for coalition in coalitions:
        report.subset_verdicts[coalition] = coalition not in first_bad
        if coalition in first_bad and report.counterexample is None:
            bad, multiset = first_bad[coalition]
            diff = next(
                (a, b)
                for a, b in itertools.zip_longest(reference[coalition], multiset)
                if a != b
            )
            report.counterexample = (coalition, 0, bad, diff)
    return report


def span_check(scheme: Scheme, i: int, ell: tuple[int, ...]) -> None:
    """Verify alpha(row(i, ell)) . lambda = omega * e_n^(i) with omega != 0.

    Materializes all n alpha rows at the given queries; raises SpanFailure
    with the offending tau on the first mismatch.
    """
    queries = scheme.row(i, ell)
    lam, omega = scheme.recon(i, ell)
    ring = scheme.ring
    if omega == ring.zero:
        raise SpanFailure(f"{scheme.name}: omega is zero at (i={i}, ell={ell})")
    for tau in range(scheme.n):
        acc = combine(ring, lam, [scheme.alpha(tau, q) for q in queries])
        expected = omega if tau == i else ring.zero
        if acc != expected:
            raise SpanFailure(
                f"{scheme.name}: row tau={tau} pairs to {acc!r}, "
                f"expected {expected!r} at (i={i}, ell={ell})"
            )


def span_check_all(scheme: Scheme) -> int:
    """span_check over the full (i, ell) grid; returns the number checked."""
    count = 0
    for i in range(scheme.n):
        for ell in scheme.enumerate_randomness():
            span_check(scheme, i, ell)
            count += 1
    return count


def oa_strength_check(rows: Sequence[Sequence], levels: Sequence, t: int) -> int:
    """Return the index lambda of an orthogonal array of strength t.

    Every t-column subarray must contain every t-tuple of levels exactly
    N / s^t times; raises OAFailure naming the offending column set and
    tuple otherwise.  The rows are the caller's, already in memory, so no
    cap applies here: ``scheme_oa_index`` enumerates a scheme's under
    ``engine.ROW_CAP``.
    """
    n_rows = len(rows)
    if n_rows == 0:
        raise ParamError("array must have at least one row")
    n_cols = len(rows[0])
    if not 1 <= t <= n_cols:
        raise ParamError(f"strength {t} out of range [1, {n_cols}]")
    s = len(levels)
    level_set = set(levels)
    for r, row_vals in enumerate(rows):
        for v in row_vals:
            if v not in level_set:
                raise ParamError(f"row {r} contains {v!r} outside the level set")
    if n_rows % s**t != 0:
        raise OAFailure(
            f"{n_rows} rows cannot cover {s}^{t} tuples an equal number of times"
        )
    lam = n_rows // s**t
    for cols in itertools.combinations(range(n_cols), t):
        counts = Counter(tuple(row[c] for c in cols) for row in rows)
        if len(counts) != s**t:
            missing = next(
                tup
                for tup in itertools.product(sorted(level_set, key=repr), repeat=t)
                if tup not in counts
            )
            raise OAFailure(f"columns {cols}: tuple {missing!r} never appears")
        for tup, count in counts.items():
            if count != lam:
                raise OAFailure(
                    f"columns {cols}: tuple {tup!r} appears {count} times, "
                    f"expected {lam}"
                )
    return lam


def scheme_oa_index(scheme: Scheme, i: int) -> int:
    """Materialize Q^(i) and check it is an OA at the scheme's strength."""
    rows = [scheme.row(i, ell) for ell in scheme.enumerate_randomness()]
    levels = [tuple(v) for v in scheme.level_codec.enumerate_values()]
    return oa_strength_check(rows, levels, scheme.t)


def oa_family_check(scheme: Scheme) -> dict[int, int]:
    """Every query array of the family must be an OA at the scheme's t."""
    return {i: scheme_oa_index(scheme, i) for i in range(scheme.n)}


@dataclass
class CommAudit:
    protocol: str
    raw_bits: float
    expected_payload_bytes: int
    measured_payload_bytes: int
    framing_bytes: int

    @property
    def passed(self) -> bool:
        return self.expected_payload_bytes == self.measured_payload_bytes

    def to_lines(self) -> list[str]:
        return [
            f"comm {self.protocol}: {'PASS' if self.passed else 'FAIL'} "
            f"(raw {self.raw_bits:g} bits, payload "
            f"{self.measured_payload_bytes} bytes, expected "
            f"{self.expected_payload_bytes}, framing {self.framing_bytes} bytes)"
        ]


def comm_audit(scheme: Scheme, transcript) -> CommAudit:
    """Assert measured payload bytes match the codec widths exactly.

    Raises Mismatch naming the first differing server and direction.
    """
    cost = comm_cost(scheme)
    audit = CommAudit(
        protocol=scheme.name,
        raw_bits=cost.raw_bits,
        expected_payload_bytes=cost.payload_bytes,
        measured_payload_bytes=transcript.payload_bytes,
        framing_bytes=transcript.framing_bytes,
    )
    for entry in transcript.entries:
        if entry.query_payload_bytes != cost.level_bytes:
            raise Mismatch(
                f"server {entry.server}: query payload "
                f"{entry.query_payload_bytes} bytes != {cost.level_bytes}"
            )
        if entry.answer_payload_bytes != cost.answer_bytes:
            raise Mismatch(
                f"server {entry.server}: answer payload "
                f"{entry.answer_payload_bytes} bytes != {cost.answer_bytes}"
            )
    return audit


def _run_suite(scheme: Scheme, suite: str, seed: int) -> tuple[bool, list[str]]:
    if suite == "correctness":
        try:
            report = exhaustive_correctness(scheme)
        except BudgetExceeded:
            databases = structured_databases(scheme.n)
            report = exhaustive_correctness(scheme, databases=databases)
    elif suite == "privacy":
        report = exhaustive_privacy(scheme)
    elif suite == "span":
        count = span_check_all(scheme)
        return True, [f"span {scheme.name}: PASS ({count} (i, ell) pairs)"]
    elif suite == "oa":
        lams = sorted(set(oa_family_check(scheme).values()))
        return True, [f"oa {scheme.name}: PASS (lambda = {lams})"]
    else:
        from .sim import run_inprocess

        _, transcript = run_inprocess(scheme, (0,) * scheme.n, 0, seed, check=False)
        report = comm_audit(scheme, transcript)
    return report.passed, report.to_lines()


def run_suites(
    scheme: Scheme, suites: Sequence[str], seed: int
) -> tuple[bool, list[str]]:
    """Run the named suites in order: whether all passed, and the lines
    ``pirlab verify`` prints before its verdict.  A CheckFailure ends its
    suite in the line ``<suite> <name>: FAIL (<exc>)``; a name not in
    ``SUITES`` is a ParamError, raised before any suite runs."""
    unknown = [suite for suite in suites if suite not in SUITES]
    if unknown:
        raise ParamError(f"unknown suite {unknown[0]!r}; expected one of {SUITES}")
    ok, lines = True, []
    for suite in suites:
        try:
            passed, suite_lines = _run_suite(scheme, suite, seed)
        except CheckFailure as exc:
            passed, suite_lines = False, [f"{suite} {scheme.name}: FAIL ({exc})"]
        ok &= passed
        lines += suite_lines
    return ok, lines
