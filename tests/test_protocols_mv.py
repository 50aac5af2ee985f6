"""Matching-vector schemes: Mersenne-prime pair, canonical-set schemes over
Z_m, their construction-time identities, and exhaustive desk suites."""

import math
import operator
import random

import pytest

import pirlab.mv
from pirlab.algebra import (
    BinaryField,
    CyclicGroupRing,
    SparsePoly,
    crt_combine,
    find_order_element,
    interpolation_matrix,
    interpolation_vector,
)
from pirlab.engine import PrimeField, comm_cost
from pirlab.errors import DecodingPolyInvalid, ParamError, PirError
from pirlab.mv import (
    DecodingPoly,
    MatchingFamily,
    canonical_set,
    power_table,
    search_matching_family,
    trivial_decoding_poly,
)
from pirlab.protocols.mersenne import build_raghavendra, build_yekhanin
from pirlab.protocols.ring import build_dvir_gopi, build_efremenko, build_gks
from pirlab.protocols.registry import desk_schemes
from pirlab.protocols.ring import solve_group_ring_recovery
from pirlab.verify import (
    exhaustive_correctness,
    exhaustive_privacy,
    oa_family_check,
    span_check,
    span_check_all,
)


def _suites(scheme):
    assert exhaustive_correctness(scheme).passed
    assert exhaustive_privacy(scheme).passed
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
        f8 = BinaryField(3)
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


# The monomials of the product decoding polynomial for m = 6 over F_7.
PRODUCT_6_7 = trivial_decoding_poly(6, 7).monomials


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

    @pytest.mark.parametrize(
        "poly,error",
        [
            (trivial_decoding_poly(6, 13), ParamError),  # 6 | 12: it exists
            (DecodingPoly(6, 7, 3, ((0, 1),)), ParamError),
            # the product polynomial with its constant coefficient changed
            (DecodingPoly(6, 7, 3, ((0, 2),) + PRODUCT_6_7[1:]), DecodingPolyInvalid),
            (DecodingPoly(6, 7, 2, PRODUCT_6_7), ParamError),  # 2 has order 3
        ],
        ids=["other-m-p", "one-monomial", "changed-coefficient", "g-of-order-3"],
    )
    def test_refuses_bad_polynomial(self, canonical_family_6, poly, error, monkeypatch):
        # Each is refused with its typed error before any scheme exists.
        def unreachable(*args, **kwargs):
            raise AssertionError("built a scheme from a bad polynomial")

        monkeypatch.setattr(pirlab.mv, "shift_scheme", unreachable)
        with pytest.raises(error) as info:
            build_efremenko(6, 7, canonical_family_6, poly)
        assert isinstance(info.value, PirError)

    def test_raw_bits(self, canonical_family_6, poly_6_7):
        scheme = build_efremenko(6, 7, canonical_family_6, poly_6_7)
        h = scheme.report["h"]
        assert comm_cost(scheme).raw_bits == pytest.approx(
            4 * (h * math.log2(6) + math.log2(7))
        )


def _prime_factors(m):
    return [q for q in range(2, m + 1) if m % q == 0 and all(q % d for d in range(2, q))]


# Every squarefree m <= 42 with at least two prime factors, and six more,
# up to 2310, the first with five primes (k = 16).
RECOVERY_MODULI = [
    m
    for m in range(2, 43)
    if len(_prime_factors(m)) >= 2 and math.prod(_prime_factors(m)) == m
] + [66, 105, 210, 330, 1155, 2310]


class TestDvirGopi:
    def test_recovery_pair(self):
        nu, mu = solve_group_ring_recovery(6)
        assert any(x % 2 for x in nu)
        assert any(x % 3 for x in nu)
        assert len(mu) == 4

    @pytest.mark.parametrize("m", RECOVERY_MODULI)
    def test_recovery_identity(self, m):
        # Rebuild M: row c holds g^(jc) and c * g^(jc) for j < k.
        primes = _prime_factors(m)
        k = 2 ** (len(primes) - 1)
        ring = CyclicGroupRing(m)
        nu, mu = solve_group_ring_recovery(m)
        assert len(mu) == 2 * k
        for c in (0,) + canonical_set(m):
            row = []
            for j in range(k):
                row += [ring.basis(j * c), ring.scalar_mul(c, ring.basis(j * c))]
            assert ring.dot(row, mu) == (nu if c == 0 else ring.zero)
        for q in primes:
            assert any(x % q for x in nu)

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

    def test_desk_suites_m10(self):
        scheme = build_dvir_gopi(10, search_matching_family(10, 3, canonical_set(10), 3))
        assert scheme.k == 2
        assert exhaustive_correctness(scheme).passed
        assert exhaustive_privacy(scheme).passed
        assert span_check_all(scheme) == 3 * 10**3

    def test_span_m30_sampled(self):
        scheme = build_dvir_gopi(30, search_matching_family(30, 3, canonical_set(30), 3))
        assert scheme.k == 4
        rng = random.Random(30)
        for _ in range(200):
            ell = scheme.sample_randomness(rng)
            span_check(scheme, rng.randrange(scheme.n), ell)

    def test_span_m210_sampled(self):
        # Four primes, so k = 8: the closed-form (mu, nu) through the build.
        family = search_matching_family(210, 2, canonical_set(210), 3)
        scheme = build_dvir_gopi(210, family)
        assert scheme.k == 8
        rng = random.Random(210)
        for _ in range(20):
            ell = scheme.sample_randomness(rng)
            span_check(scheme, rng.randrange(scheme.n), ell)

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


def _expand_and_read_coefficient(u, z, i, p):
    """Independent oracle: multiply out prod_j (z_j + y_j)^(u_j) term by
    term (no binomial shortcuts) and read the coefficient of y^i."""
    poly = {(0,) * len(u): 1}
    for j, uj in enumerate(u):
        for _ in range(uj):
            new = {}
            for mono, coeff in poly.items():
                # * z_j
                new[mono] = (new.get(mono, 0) + coeff * z[j]) % p
                # * y_j
                up = list(mono)
                up[j] += 1
                up = tuple(up)
                new[up] = (new.get(up, 0) + coeff) % p
            poly = new
    return poly.get(tuple(i), 0)


# (m, p) with m squarefree and m | p - 1, so p does not divide m.
GKS_PAIRS = [
    (2, 3), (2, 5), (3, 7), (5, 11), (6, 7), (6, 13), (10, 11), (15, 31), (30, 31)
]


class TestGks:
    def test_canonical_lift(self):
        # build_gks's support {0} union the canonical set of m * p is the CRT
        # image of ({0} union the canonical set of m) x {0, 1}.
        for m, p in GKS_PAIRS:
            lifted = {
                crt_combine((a, b), (m, p))
                for a in (0,) + canonical_set(m)
                for b in (0, 1)
            }
            assert lifted == {0} | set(canonical_set(m * p)), (m, p)

    @pytest.mark.parametrize("m, p", GKS_PAIRS)
    def test_subgroup_points_recover_constant_term(self, m, p):
        # The m points of H_m are distinct, so values alone recover the
        # constant term on the small support (a Vandermonde system), and
        # values with first Hasse derivatives do on the lifted support.
        field = PrimeField(p)
        points = power_table(field, find_order_element(field, m), m)
        for support, multiplicity in (
            ((0,) + canonical_set(m), 1),
            ((0,) + canonical_set(m * p), 2),
        ):
            mu = interpolation_vector(p, points, support, multiplicity)
            rows = interpolation_matrix(p, points, support, multiplicity)
            assert [sum(map(operator.mul, row, mu)) % p for row in rows] == [
                int(delta == 0) for delta in support
            ]

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
        with pytest.raises(ParamError, match=r"m \| p - 1; got m=3, p=5"):
            build_gks(3, 5, family_m6)  # 3 does not divide 5 - 1
        with pytest.raises(ParamError, match=r"m \| p - 1; got m=0, p=3"):
            build_gks(0, 3, family_m6)

    def test_alpha_is_value_and_first_hasse_derivatives(self, family_m6):
        # alpha_tau at the subgroup point b = g^z is b^u followed by the
        # h first-order Hasse derivatives of the monomial, read off the
        # expansion of (b + y)^u.
        scheme = build_gks(2, 3, family_m6)
        h, p, points = scheme.report["h"], 3, scheme.report["points"]
        units = [tuple(int(c == c0) for c in range(h)) for c0 in range(h)]
        for tau, u in enumerate(family_m6.u):
            for z in scheme.level_codec.enumerate_values():
                b = [points[a] for a in z]
                want = tuple(
                    _expand_and_read_coefficient(u, b, i, p)
                    for i in [(0,) * h] + units
                )
                assert scheme.alpha(tau, z) == want

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
