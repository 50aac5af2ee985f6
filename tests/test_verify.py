"""The verification suites themselves: negative controls, determinism,
budget/cap handling, and relabeling invariance."""

import dataclasses
import tracemalloc

import pytest

from pirlab import engine, verify
from pirlab.engine import answer, comm_cost
from pirlab.errors import (
    BudgetExceeded,
    CapExceeded,
    Mismatch,
    OAFailure,
    ParamError,
)
from pirlab.protocols.cube import build_cgks
from pirlab.protocols.curve import build_lagrange
from pirlab.protocols.toy import (
    broken_demo,
    broken_privacy_demo,
    broken_span_demo,
    toy_instance,
)
from pirlab.sim import run_inprocess
from pirlab.verify import (
    all_databases,
    comm_audit,
    exhaustive_correctness,
    exhaustive_privacy,
    oa_family_check,
    run_suites,
    span_check_all,
    structured_databases,
)


def check_answer_linearity(scheme, x, q) -> None:
    """answer(x, q) must equal the sum over set bits of the unit-vector
    answers: the database encoding is linear."""
    ring = scheme.ring
    total = [ring.zero] * scheme.answer_dim
    for tau, bit in enumerate(x):
        if bit:
            unit = tuple(1 if j == tau else 0 for j in range(scheme.n))
            vec = answer(scheme, unit, q)
            total = [ring.add(a, v) for a, v in zip(total, vec)]
    assert tuple(total) == answer(scheme, x, q), (scheme.name, x, q)


class TestNegativeControls:
    def test_broken_span_fails_correctness(self):
        report = exhaustive_correctness(broken_span_demo())
        assert not report.passed
        assert report.failures

    def test_broken_privacy_fails_privacy_only(self):
        scheme = broken_privacy_demo()
        assert exhaustive_correctness(scheme).passed
        report = exhaustive_privacy(scheme)
        assert not report.passed
        coalition, i1, i2, _ = report.counterexample
        assert i1 != i2

    def test_broken_demo_fails_everything(self):
        scheme = broken_demo()
        report = exhaustive_correctness(scheme)
        assert not report.passed
        assert len(report.failures) == 36
        assert not exhaustive_privacy(scheme).passed
        with pytest.raises(Exception):
            span_check_all(scheme)

    def test_kernel_that_drops_the_last_entry_fails_correctness(self):
        # The suite answers through engine.answer, so it runs the scheme's
        # answer kernel, not only the alpha sum that the kernel replaces.
        scheme = build_lagrange(3, 1, 3, 5)
        kernel = scheme.answer_kernel
        dropped = dataclasses.replace(
            scheme, answer_kernel=lambda x, q: kernel(tuple(x[:-1]) + (0,), q)
        )
        assert exhaustive_correctness(scheme).passed
        assert not exhaustive_correctness(dropped).passed

    def test_comm_audit_catches_doctored_transcript(self):
        scheme = toy_instance()
        _, transcript = run_inprocess(scheme, (1, 0), 0, seed=3)
        transcript.entries[0].answer_payload_bytes += 1
        with pytest.raises(Mismatch):
            comm_audit(scheme, transcript)

    def test_comm_audit_passes_honest_transcript(self):
        scheme = toy_instance()
        _, transcript = run_inprocess(scheme, (1, 0), 0, seed=3)
        audit = comm_audit(scheme, transcript)
        assert audit.passed
        assert audit.measured_payload_bytes == comm_cost(scheme).payload_bytes


class TestPrivacySemantics:
    def test_relabeling_randomness_does_not_change_verdict(self):
        scheme = toy_instance()
        base = exhaustive_privacy(scheme)

        # Shuffle the row order behind a fixed permutation of ell.
        perm = [4, 7, 1, 0, 8, 2, 6, 3, 5]
        orig_row = scheme.row
        shuffled = dataclasses.replace(
            scheme, row=lambda i, ell: orig_row(i, (perm[ell[0]],))
        )
        relabeled = exhaustive_privacy(shuffled)
        assert relabeled.passed == base.passed
        assert oa_family_check(shuffled) == oa_family_check(scheme)

    def test_cap(self, monkeypatch):
        # The cap is read when the suite runs: 64 rows pass at 64 and are
        # refused at 63.
        monkeypatch.setattr(engine, "ROW_CAP", 64)
        assert exhaustive_privacy(build_cgks(8)).passed
        monkeypatch.setattr(engine, "ROW_CAP", 63)
        with pytest.raises(CapExceeded, match="exceeds cap 63"):
            exhaustive_privacy(build_cgks(8))

    def test_leak_at_one_server_from_a_later_index(self):
        # Server 2 gets a fixed query for i >= 2 only: the verdict is per
        # coalition, and the counterexample names the first leaking index.
        scheme = build_lagrange(4, 1, 3, 5)
        honest = scheme.row

        def row(i, ell):
            q = honest(i, ell)
            return q if i < 2 else (q[0], q[1], (0,) * len(q[2]))

        report = exhaustive_privacy(dataclasses.replace(scheme, row=row))
        assert report.subset_verdicts == {(0,): True, (1,): True, (2,): False}
        coalition, i1, i2, (want, got) = report.counterexample
        assert (coalition, i1, i2) == ((2,), 0, 2)
        assert want != got

    def test_equal_but_nonuniform_projections_pass_privacy_fail_oa(self):
        # Every index sends the same queries, so no coalition learns i, but
        # the projections are not uniform over S^t: privacy holds while the
        # array is no orthogonal array.
        scheme = dataclasses.replace(
            toy_instance(), row=lambda i, ell: ((0, 0), (0, 0))
        )
        assert exhaustive_privacy(scheme).passed
        with pytest.raises(OAFailure):
            oa_family_check(scheme)


class TestCorrectnessSuite:
    def test_budget_guard(self):
        with pytest.raises(BudgetExceeded):
            exhaustive_correctness(build_cgks(27))

    def test_budget_guard_explicit_databases(self, monkeypatch):
        # The budget is read when the suite runs: one database of the toy
        # is 2 indices x 9 rows = 18 triples.
        scheme = toy_instance()
        monkeypatch.setattr(verify, "CORRECTNESS_BUDGET", 18)
        assert exhaustive_correctness(scheme, databases=[(0, 0)]).passed
        monkeypatch.setattr(verify, "CORRECTNESS_BUDGET", 17)
        with pytest.raises(BudgetExceeded, match="exceeds budget 17"):
            exhaustive_correctness(scheme, databases=[(0, 0)])

    def test_budget_guard_builds_no_power_of_two(self):
        # 2^n alone would be an 8 MB integer at n = 2^26.
        scheme = build_lagrange(2**26, 1, 3, 13)
        tracemalloc.start()
        try:
            with pytest.raises(BudgetExceeded, match=r"^2\^67108864 databases"):
                exhaustive_correctness(scheme)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    def test_structured_fallback_over_budget_builds_no_database(self):
        # n x N alone exceeds the budget, so the fallback is refused before
        # its first database, (0,) * 2^22 (33.6 MB), is built.
        scheme = build_lagrange(2**22, 1, 3, 13)
        tracemalloc.start()
        try:
            with pytest.raises(BudgetExceeded, match=r"^1 or more databases"):
                run_suites(scheme, ("correctness",), 0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    def test_empty_database_list_over_budget_is_refused_first(self):
        with pytest.raises(BudgetExceeded, match="1 or more databases"):
            exhaustive_correctness(build_lagrange(4096, 1, 3, 13), databases=[])

    def test_empty_database_list_is_a_param_error(self):
        # It would otherwise pass, having checked nothing.
        with pytest.raises(ParamError, match="at least one database"):
            exhaustive_correctness(build_cgks(8), databases=[])

    def test_structured_databases(self):
        dbs = list(structured_databases(3))
        assert (0, 0, 0) in dbs and (1, 1, 1) in dbs
        assert (1, 0, 0) in dbs and (0, 1, 0) in dbs and (0, 0, 1) in dbs
        assert len(dbs) == 5

    def test_all_databases(self):
        assert sorted(all_databases(2)) == [(0, 0), (0, 1), (1, 0), (1, 1)]

    def test_reports_are_deterministic(self):
        a = exhaustive_correctness(toy_instance())
        b = exhaustive_correctness(toy_instance())
        assert a == b
        assert a.to_lines() == b.to_lines()
        pa = exhaustive_privacy(toy_instance())
        pb = exhaustive_privacy(toy_instance())
        assert pa == pb


class TestStructuralChecks:
    def test_span_and_oa_on_toy(self):
        scheme = toy_instance()
        assert span_check_all(scheme) == 18
        assert oa_family_check(scheme) == {0: 1, 1: 1}

    def test_answer_linearity_helper(self):
        scheme = toy_instance()
        for q in [(0, 0), (2, 1)]:
            check_answer_linearity(scheme, (1, 1), q)


class TestRunSuites:
    def test_check_failures_become_fail_lines_and_the_suites_go_on(self):
        ok, lines = run_suites(broken_demo(), ("span", "oa", "comm"), 0)
        assert not ok
        assert lines[0].startswith("span broken-demo: FAIL (")
        assert lines[1].startswith("oa broken-demo: FAIL (")
        assert lines[2].startswith("comm broken-demo: PASS")
        assert len(lines) == 3

    def test_unknown_suite_is_a_param_error_before_any_suite_runs(self, monkeypatch):
        monkeypatch.setattr(verify, "exhaustive_correctness", None)
        with pytest.raises(ParamError, match="unknown suite 'speed'"):
            run_suites(toy_instance(), ("correctness", "speed"), 0)

    def test_lines_follow_the_order_asked(self):
        ok, lines = run_suites(toy_instance(), ("oa", "span"), 0)
        assert ok
        assert lines == ["oa toy: PASS (lambda = [1])",
                         "span toy: PASS (18 (i, ell) pairs)"]


@pytest.fixture(scope="module")
def schemes():
    from pirlab.protocols.registry import desk_schemes

    return desk_schemes()


class TestEverySchemeEndToEnd:
    """Cross-protocol invariants: answer linearity, codec round trips, and
    measured transcript sizes equal to the predicted codec widths."""

    def test_answer_linearity(self, schemes):
        for scheme in schemes:
            ell = next(iter(scheme.enumerate_randomness()))
            for q in scheme.row(0, ell):
                check_answer_linearity(scheme, (1,) * scheme.n, q)

    def test_transcripts_match_codecs(self, schemes):
        for scheme in schemes:
            x = tuple(j % 2 for j in range(scheme.n))
            for i in (0, scheme.n - 1):
                bit, transcript = run_inprocess(scheme, x, i, seed=11)
                assert bit == x[i], scheme.name
                audit = comm_audit(scheme, transcript)
                assert audit.passed, scheme.name

    def test_param_digests_distinct(self, schemes):
        from pirlab.sim import param_digest

        digests = [param_digest(s) for s in schemes]
        assert len(set(digests)) == len(digests)
