"""The verification suites themselves: negative controls, determinism,
budget/cap handling, and relabeling invariance."""

import dataclasses

import pytest

from pirlab.engine import answer, comm_cost
from pirlab.errors import BudgetExceeded, CapExceeded, Mismatch, ParamError
from pirlab.protocols.cube import build_cgks
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
        assert not exhaustive_correctness(scheme).passed
        assert not exhaustive_privacy(scheme).passed
        with pytest.raises(Exception):
            span_check_all(scheme)

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
        assert relabeled.uniform == base.uniform

    def test_t_must_be_below_k(self):
        with pytest.raises(ParamError):
            exhaustive_privacy(toy_instance(), t=2)

    def test_cap(self):
        with pytest.raises(CapExceeded):
            exhaustive_privacy(build_cgks(8), cap=10)

    def test_uniformity_reported_separately(self):
        report = exhaustive_privacy(toy_instance())
        assert set(report.uniform_verdicts) == set(report.subset_verdicts)


class TestCorrectnessSuite:
    def test_budget_guard(self):
        with pytest.raises(BudgetExceeded):
            exhaustive_correctness(build_cgks(27))

    def test_budget_guard_explicit_databases(self):
        scheme = toy_instance()
        with pytest.raises(BudgetExceeded):
            exhaustive_correctness(scheme, databases=[(0, 0)], budget=1)

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
