"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines and timings.  Everything here is exhaustive at desk scale: full
database/index/randomness grids, exact multiset privacy, exact byte
accounting.
"""

import itertools
import math
import time

import pytest

from pirlab.algebra import (
    BinaryField,
    SparsePoly,
    crt_combine,
    interpolation_matrix,
    interpolation_vector,
    kernel_mod_prime,
)
from pirlab.engine import (
    Aux,
    answer,
    comm_cost,
    is_prime,
    oa_strength_check,
    reconstruct,
    span_check,
)
from pirlab.errors import InconsistentAnswer, OAFailure
from pirlab.mv import (
    canonical_set,
    search_matching_family,
    sparse_decoding_poly_search,
    trivial_decoding_poly,
    two_subgroup,
    yekhanin_nice_sets,
)
from pirlab.protocols.cube import build_cgks
from pirlab.protocols.curve import build_lagrange, build_wy_hermite
from pirlab.protocols.mersenne import build_raghavendra, build_yekhanin
from pirlab.protocols.registry import desk_schemes
from pirlab.protocols.ring import build_dvir_gopi, build_efremenko, build_gks
from pirlab.protocols.toy import (
    broken_demo,
    broken_privacy_demo,
    broken_span_demo,
    toy_instance,
)
from pirlab.sim import PirServer, ServerNode, client_retrieve, run_inprocess
from pirlab.verify import (
    comm_audit,
    exhaustive_correctness,
    exhaustive_privacy,
    oa_family_check,
    span_check_all,
    structured_databases,
)

OA_8_4 = [
    (0, 0, 0, 0),
    (0, 0, 1, 1),
    (0, 1, 0, 1),
    (0, 1, 1, 0),
    (1, 0, 0, 1),
    (1, 0, 1, 0),
    (1, 1, 0, 0),
    (1, 1, 1, 1),
]


class _Clock:
    def __init__(self, number, name):
        self.number = number
        self.name = name

    def __enter__(self):
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        verdict = "PASS" if exc_type is None else "FAIL"
        elapsed = time.perf_counter() - self.t0
        print(f"[acceptance] criterion {self.number:02d} {self.name}: "
              f"{verdict} ({elapsed:.1f}s)")
        return False


def _full_suites(scheme, databases=None):
    correctness = exhaustive_correctness(scheme, databases=databases)
    assert correctness.passed, correctness.failures[:3]
    privacy = exhaustive_privacy(scheme)
    assert privacy.passed, privacy.counterexample
    assert set(oa_family_check(scheme).values()) == {1}


def test_criterion_01_strength3_array():
    with _Clock(1, "8x4 array is OA at strength 3, not 4"):
        assert oa_strength_check(OA_8_4, (0, 1), t=3) == 1
        with pytest.raises(OAFailure):
            oa_strength_check(OA_8_4, (0, 1), t=4)


def test_criterion_02_toy_pair_of_arrays():
    with _Clock(2, "hand-sized F_3^2 instance"):
        scheme = toy_instance()
        for i in range(2):
            for ell in scheme.enumerate_randomness():
                lam, omega = scheme.recon(i, ell)
                assert lam == ((2,), (2,)) and omega == 1
                span_check(scheme, i, ell)
        correctness = exhaustive_correctness(scheme)
        assert correctness.passed
        assert correctness.databases_tested == 4
        assert correctness.pairs_tested == 2 * 9
        privacy = exhaustive_privacy(scheme)
        assert privacy.passed
        assert set(oa_family_check(scheme).values()) == {1}


def test_criterion_03_cube_protocol():
    with _Clock(3, "two-server cube at n = 1, 8, 27"):
        for n, h in ((1, 1), (8, 2), (27, 3)):
            scheme = build_cgks(n)
            assert comm_cost(scheme).raw_bits == 12 * h + 2
            if n <= 8:
                _full_suites(scheme)
            else:
                assert scheme.num_rows == 512
                _full_suites(scheme, databases=list(structured_databases(n)))


def test_criterion_04_lagrange_desk():
    with _Clock(4, "Lagrange t=1 k=3 p=5 h=3 n=3"):
        scheme = build_lagrange(3, 1, 3, 5)
        assert scheme.report["h"] == 3
        assert scheme.num_rows == 125
        correctness = exhaustive_correctness(scheme)
        assert correctness.passed
        assert correctness.databases_tested == 8
        assert correctness.pairs_tested == 3 * 125
        privacy = exhaustive_privacy(scheme)
        assert privacy.passed
        assert set(oa_family_check(scheme).values()) == {1}
        assert comm_cost(scheme).raw_bits == pytest.approx(
            3 * (3 + 1) * math.log2(5), rel=1e-12
        )


def test_criterion_05_hermite_desk():
    with _Clock(5, "Hermite t=1 k=2 p=7 d=3 h=4 n=4"):
        matrix = interpolation_matrix(7, (1, 2), range(4), multiplicity=2)
        assert kernel_mod_prime(matrix, 7) == []  # nonsingular over F_7
        scheme = build_wy_hermite(4, 1, 2, 7)
        assert scheme.report["d"] == 3 and scheme.report["h"] == 4
        assert scheme.num_rows == 7**4
        correctness = exhaustive_correctness(scheme)
        assert correctness.passed
        assert correctness.databases_tested == 16
        assert correctness.pairs_tested == 4 * 7**4
        privacy = exhaustive_privacy(scheme)
        assert privacy.passed
        assert set(oa_family_check(scheme).values()) == {1}


def test_criterion_06_mersenne_pair():
    with _Clock(6, "Mersenne p=7 indicator and exponent variants"):
        nice = yekhanin_nice_sets(7)
        assert nice.gamma == 3

        f8 = BinaryField(3)
        g = f8.gen
        poly = SparsePoly(f8, ((0, f8.one), (1, f8.one), (3, f8.one)))
        for delta in (1, 2, 4):
            assert poly.evaluate(f8.pow(g, delta)) == f8.zero
        assert poly.evaluate(f8.one) == f8.one

        s0 = set(nice.s0)
        pairs_checked = 0
        for sigma in range(7):
            for delta in two_subgroup(7):
                hits = {(sigma + delta * s) % 7 for s in nice.s1}
                assert len(hits & s0) % 2 == 0
                pairs_checked += 1
        assert pairs_checked == 21

        family = search_matching_family(7, 3, two_subgroup(7), 3, side_constraint=True)
        assert family.n >= 3
        for scheme in (build_yekhanin(7, family, nice), build_raghavendra(7, family)):
            assert scheme.num_rows == 343
            _full_suites(scheme)


def test_criterion_07_efremenko_desk():
    with _Clock(7, "Efremenko m=6 p=7 four servers"):
        assert canonical_set(6) == (1, 3, 4)
        poly = trivial_decoding_poly(6, 7)
        assert poly.k <= 4
        poly.validate()
        family = search_matching_family(6, 3, canonical_set(6), 3)
        scheme = build_efremenko(6, 7, family, poly)
        assert scheme.k == 4 and scheme.num_rows == 216
        _full_suites(scheme)


def test_criterion_08_sparse_polynomial_511():
    with _Clock(8, "3-monomial decoding polynomial for m=511"):
        p = 3067
        assert is_prime(p) and p % 511 == 1
        poly = sparse_decoding_poly_search(511, p, k_target=3)
        assert poly.k == 3
        poly.validate()
        print(f"  found exponents {poly.exponents} coefficients "
              f"{poly.coefficients} over F_{p}")


def test_criterion_09_group_ring_two_servers():
    with _Clock(9, "group-ring scheme m=6, two servers"):
        family = search_matching_family(6, 3, canonical_set(6), 3)
        scheme = build_dvir_gopi(6, family)
        assert scheme.k == 2
        nu = scheme.report["nu"]
        assert any(c % 2 for c in nu) and any(c % 3 for c in nu)
        # omega departs from 1 on this scheme; make sure that path runs.
        ring = scheme.ring
        omegas = {scheme.recon(i, ell)[1]
                  for i in range(scheme.n)
                  for ell in list(scheme.enumerate_randomness())[:30]}
        assert any(om != ring.one for om in omegas)
        assert all(om != ring.zero for om in omegas)
        _full_suites(scheme)


def test_criterion_10_hasse_derivative_scheme():
    with _Clock(10, "Hasse-derivative scheme m=2 p=3 m'=6"):
        lift = {crt_combine((a, b), (2, 3)) for a in (0, 1) for b in (0, 1)}
        assert lift == {0} | set(canonical_set(6))

        assert interpolation_vector(3, (1, 2), (0, 1), multiplicity=1) == [2, 2]
        support = (0,) + canonical_set(6)
        mu = interpolation_vector(3, (1, 2), support, multiplicity=2)
        recovered = 0
        for coeffs in itertools.product(range(3), repeat=len(support)):
            evals = []
            for b in (1, 2):
                evals.append(
                    sum(c * pow(b, d, 3) for c, d in zip(coeffs, support)) % 3
                )
                evals.append(
                    sum(c * d * pow(b, d - 1, 3)
                        for c, d in zip(coeffs, support) if d) % 3
                )
            assert sum(e * m for e, m in zip(evals, mu)) % 3 == coeffs[0]
            recovered += 1
        assert recovered == 81

        family = search_matching_family(6, 3, canonical_set(6), 3)
        scheme = build_gks(2, 3, family)
        assert scheme.k == 2 and scheme.report["points"] == (1, 2)
        _full_suites(scheme)


def test_criterion_11_framework_span_and_transport():
    with _Clock(11, "span grids for all schemes; TCP = in-process bytes"):
        for scheme in desk_schemes():
            checked = span_check_all(scheme)
            assert checked == scheme.n * scheme.num_rows

        scheme = build_cgks(8)
        x = (1, 1, 0, 1, 0, 0, 1, 0)
        servers = [
            PirServer(ServerNode(server_id=j + 1, scheme=scheme, database=x)).start()
            for j in range(2)
        ]
        try:
            endpoints = [s.endpoint for s in servers]
            for i in (0, 5):
                bit_net, t_net = client_retrieve(endpoints, scheme, i, seed=i)
                bit_local, t_local = run_inprocess(scheme, x, i, seed=i)
                assert bit_net == bit_local == x[i]
                assert t_net.payload_bytes == t_local.payload_bytes
                audit = comm_audit(scheme, t_net)
                assert audit.passed
        finally:
            for s in servers:
                s.stop()


def test_criterion_12_negative_controls():
    with _Clock(12, "verifiers reject broken instances and faulty answers"):
        assert not exhaustive_correctness(broken_span_demo()).passed
        assert not exhaustive_privacy(broken_privacy_demo()).passed
        assert not exhaustive_correctness(broken_demo()).passed
        assert not exhaustive_privacy(broken_demo()).passed
        with pytest.raises(Exception):
            span_check_all(broken_demo())

        # Fault injection: a flipped answer is never silently absorbed.
        scheme = toy_instance()
        trials = visible = 0
        for x in [(0, 0), (0, 1), (1, 0), (1, 1)]:
            for i in range(2):
                for ell in scheme.enumerate_randomness():
                    queries = scheme.row(i, ell)
                    answers = [answer(scheme, x, q) for q in queries]
                    answers[1] = ((answers[1][0] + 1) % 3,)
                    trials += 1
                    try:
                        got = reconstruct(scheme, Aux(i, ell), answers)
                    except InconsistentAnswer:
                        visible += 1
                        continue
                    if got != x[i]:
                        visible += 1
        assert visible == trials
