"""Matching-vector schemes: Mersenne-prime pair, canonical-set schemes over
Z_m, their construction-time identities, and exhaustive desk suites."""

import math

import pytest

from pirlab.algebra import ExtField, SparsePoly, crt_combine, interpolation_vector
from pirlab.engine import comm_cost, span_check
from pirlab.errors import ParamError
from pirlab.mv import MatchingFamily, canonical_set, search_matching_family
from pirlab.protocols.mersenne import build_raghavendra, build_yekhanin
from pirlab.protocols.ring import build_dvir_gopi, build_efremenko, build_gks
from pirlab.protocols.registry import desk_schemes
from pirlab.protocols.ring import solve_group_ring_recovery
from pirlab.verify import (
    exhaustive_correctness,
    exhaustive_privacy,
    oa_family_check,
    span_check_all,
)


def _suites(scheme):
    assert exhaustive_correctness(scheme).passed
    report = exhaustive_privacy(scheme)
    assert report.passed and report.uniform
    assert set(oa_family_check(scheme).values()) == {1}


MV_SCHEMES = ("yekhanin", "raghavendra", "efremenko", "dvir-gopi", "gks")


def _offsets_and_modulus(scheme):
    """The offsets d_j and the row modulus, read back from the report."""
    rep = scheme.report
    if scheme.name in ("yekhanin", "raghavendra"):
        return rep["offsets"], rep["p"]
    if scheme.name == "efremenko":
        return rep["poly_exponents"], rep["m"]
    if scheme.name == "dvir-gopi":
        return rep["offsets"], rep["m"]
    # gks sends subgroup points g^beta as their exponents beta.
    m, p, g = rep["m"], rep["p"], rep["g"]
    return [next(b for b in range(m) if pow(g, b, p) == pt) for pt in rep["points"]], m


@pytest.fixture(scope="module")
def desk_by_name():
    return {s.name: s for s in desk_schemes()}


class TestShiftRow:
    @pytest.mark.parametrize("name", MV_SCHEMES)
    def test_rows_are_shifts_along_v(self, name, desk_by_name):
        scheme = desk_by_name[name]
        offsets, m = _offsets_and_modulus(scheme)
        for i, v in enumerate(scheme.report["family_v"]):
            for ell in scheme.enumerate_randomness():
                expected = tuple(
                    tuple((ell[c] + d * v[c]) % m for c in range(len(v)))
                    for d in offsets
                )
                assert scheme.row(i, ell) == expected


class TestYekhanin:
    def test_gamma_and_offsets(self, mersenne_family, nice_sets_7):
        scheme = build_yekhanin(7, mersenne_family, nice_sets_7)
        assert scheme.report["gamma"] == 3
        assert scheme.report["offsets"] == (0, 1, 3)

    def test_selector_exists_for_every_row(self, mersenne_family, nice_sets_7):
        scheme = build_yekhanin(7, mersenne_family, nice_sets_7)
        for i in range(scheme.n):
            for ell in scheme.enumerate_randomness():
                lam, omega = scheme.recon(i, ell)
                assert omega == 1
                assert all(sum(block) == 1 for block in lam)

    def test_desk_suites(self, mersenne_family, nice_sets_7):
        scheme = build_yekhanin(7, mersenne_family, nice_sets_7)
        assert scheme.num_rows == 343
        _suites(scheme)

    def test_rejects_family_without_side_condition(self, nice_sets_7):
        # <u_1, 1> = 1 + 6 = 0 mod 7, so the shift argument breaks down.
        fam = MatchingFamily(
            m=7, h=3, u=((1, 6, 0),), v=((1, 1, 0),), target_set=(1, 2, 4)
        )
        with pytest.raises(ParamError):
            build_yekhanin(7, fam, nice_sets_7)


class TestRaghavendra:
    def test_polynomial_identities(self):
        f8 = ExtField(2, 3)
        g = f8.gen
        poly = SparsePoly(f8, ((0, f8.one), (1, f8.one), (3, f8.one)))
        for delta in (1, 2, 4):
            assert poly.evaluate(f8.pow(g, delta)) == f8.zero
        assert poly.evaluate(f8.one) == f8.one

    def test_comm_bits(self, mersenne_family):
        scheme = build_raghavendra(7, mersenne_family)
        h = scheme.report["h"]
        assert comm_cost(scheme).raw_bits == pytest.approx(
            3 * (h * math.log2(7) + 3)
        )

    def test_desk_suites(self, mersenne_family):
        _suites(build_raghavendra(7, mersenne_family))


class TestEfremenko:
    def test_trivial_poly_gives_four_servers(self, canonical_family_6, poly_6_7):
        scheme = build_efremenko(6, 7, canonical_family_6, poly_6_7)
        assert scheme.k == 4
        assert scheme.report["canonical_set"] == (1, 3, 4)

    def test_desk_suites(self, canonical_family_6, poly_6_7):
        scheme = build_efremenko(6, 7, canonical_family_6, poly_6_7)
        assert scheme.num_rows == 216
        _suites(scheme)
        assert span_check_all(scheme) == 3 * 216

    def test_rejects_wrong_family_modulus(self, poly_6_7):
        fam = search_matching_family(15, 2, canonical_set(15), 2)
        with pytest.raises(ParamError):
            build_efremenko(6, 7, fam, poly_6_7)

    def test_rejects_target_outside_canonical_set(self, poly_6_7):
        # 2 is not in the canonical set (1, 3, 4) of Z_6.
        fam = search_matching_family(6, 2, (1, 2), 2)
        with pytest.raises(ParamError, match="target set"):
            build_efremenko(6, 7, fam, poly_6_7)

    def test_rejects_invalid_family(self, poly_6_7):
        bad = MatchingFamily(
            m=6, h=2, u=((1, 0), (2, 0)), v=((0, 1), (0, 1)), target_set=(1, 3, 4)
        )
        with pytest.raises(ParamError):
            build_efremenko(6, 7, bad, poly_6_7)

    def test_raw_bits(self, canonical_family_6, poly_6_7):
        scheme = build_efremenko(6, 7, canonical_family_6, poly_6_7)
        h = scheme.report["h"]
        assert comm_cost(scheme).raw_bits == pytest.approx(
            4 * (h * math.log2(6) + math.log2(7))
        )


class TestDvirGopi:
    def test_recovery_pair(self):
        matrix, nu, mu = solve_group_ring_recovery(6, 2, (0, 1))
        assert any(x % 2 for x in nu)
        assert any(x % 3 for x in nu)
        assert len(mu) == 4

    def test_no_recovery_for_prime_modulus(self, canonical_family_6):
        with pytest.raises(ParamError):
            build_dvir_gopi(7, canonical_family_6)

    def test_two_servers(self, canonical_family_6):
        scheme = build_dvir_gopi(6, canonical_family_6)
        assert scheme.k == 2

    def test_omega_is_not_one(self, canonical_family_6):
        scheme = build_dvir_gopi(6, canonical_family_6)
        ring = scheme.ring
        omegas = set()
        for ell in list(scheme.enumerate_randomness())[:20]:
            _, omega = scheme.recon(0, ell)
            assert omega != ring.zero
            omegas.add(omega)
        assert any(om != ring.one for om in omegas)

    def test_desk_suites(self, canonical_family_6):
        scheme = build_dvir_gopi(6, canonical_family_6)
        _suites(scheme)

    def test_answer_structure(self, canonical_family_6):
        scheme = build_dvir_gopi(6, canonical_family_6)
        vec = scheme.alpha(0, (1, 2, 3))
        assert len(vec) == scheme.report["h"] + 1
        # first component is a plain power of g
        assert sum(1 for c in vec[0] if c) == 1

    def test_raw_bits_match_group_ring_width(self, canonical_family_6):
        scheme = build_dvir_gopi(6, canonical_family_6)
        h = scheme.report["h"]
        assert comm_cost(scheme).raw_bits == pytest.approx(
            2 * (h * math.log2(6) + (h + 1) * 6 * math.log2(6))
        )


@pytest.fixture(scope="module")
def family_m6(canonical_family_6):
    return canonical_family_6


class TestGks:
    def test_canonical_lift(self):
        lifted = {
            crt_combine((a, b), (2, 3))
            for a in (0, 1)
            for b in (0, 1)
        }
        assert lifted == {0} | set(canonical_set(6))

    def test_interpolation_vectors(self):
        # Plain recovery on the base support from the two subgroup points.
        mu1 = interpolation_vector(3, (1, 2), (0, 1), multiplicity=1)
        assert mu1 == [2, 2]
        mu2 = interpolation_vector(3, (1, 2), (0, 1, 3, 4), multiplicity=2)
        assert len(mu2) == 4

    def test_multiplicity2_recovers_all_81(self):
        # Exhaustive oracle: every polynomial supported on {0,1,3,4} over
        # F_3 must have its constant term recovered from values and first
        # Hasse derivatives at {1, 2}.
        support = (0, 1, 3, 4)
        mu = interpolation_vector(3, (1, 2), support, multiplicity=2)
        import itertools

        for coeffs in itertools.product(range(3), repeat=4):
            evals = []
            for b in (1, 2):
                value = sum(c * pow(b, d, 3) for c, d in zip(coeffs, support)) % 3
                deriv = (
                    sum(
                        c * d * pow(b, d - 1, 3)
                        for c, d in zip(coeffs, support)
                        if d
                    )
                    % 3
                )
                evals.extend((value, deriv))
            got = sum(e * m for e, m in zip(evals, mu)) % 3
            assert got == coeffs[0]

    def test_rejects_bad_parameters(self, family_m6):
        with pytest.raises(ParamError):
            build_gks(3, 5, family_m6)  # 3 does not divide 5 - 1

    def test_desk_suites(self, family_m6):
        scheme = build_gks(2, 3, family_m6)
        assert scheme.k == 2
        assert scheme.report["points"] == (1, 2)
        assert scheme.num_rows == 8
        _suites(scheme)
        assert span_check_all(scheme) == 3 * 8

    def test_span_on_every_row(self, family_m6):
        scheme = build_gks(2, 3, family_m6)
        for i in range(scheme.n):
            for ell in scheme.enumerate_randomness():
                span_check(scheme, i, ell)

    def test_cost_report_flags_vector_answer(self, family_m6):
        scheme = build_gks(2, 3, family_m6)
        h = scheme.report["h"]
        measured = comm_cost(scheme).raw_bits
        scalar_form = scheme.report["scalar_answer_raw_bits"]
        assert measured == pytest.approx(
            2 * (h * 1 + (h + 1) * math.log2(3))
        )
        assert scalar_form == pytest.approx(2 * (h * 1 + math.log2(3)))
        assert measured > scalar_form
        assert "answer_width_note" in scheme.report
