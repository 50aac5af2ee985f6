"""Ingredients: canonical sets, matching families, decoding polynomials,
parity sets, and the server-count table."""

import functools
import gc
import itertools
import tracemalloc

import pytest

import pirlab.mv
from pirlab.algebra import (
    BinaryField,
    SparsePoly,
    find_order_element,
    try_solve_mod_prime,
)
from pirlab.engine import PrimeField
from pirlab.errors import DecodingPolyInvalid, Exhausted, ParamError
from pirlab.mv import (
    DecodingPoly,
    MatchingFamily,
    canonical_set,
    check_matching_family,
    exponent_scheme,
    k_r_table,
    power_table,
    search_matching_family,
    sparse_decoding_poly_search,
    trivial_decoding_poly,
    two_subgroup,
)
from pirlab.protocols.registry import build_named
from pirlab.sim import param_digest


class TestCanonicalSet:
    def test_m6(self):
        assert canonical_set(6) == (1, 3, 4)

    def test_prime_modulus(self):
        assert canonical_set(7) == (1,)

    def test_m511(self):
        s = canonical_set(511)
        assert len(s) == 3
        assert s == (1, 147, 365)

    @pytest.mark.parametrize("m,factors", [(6, (2, 3)), (15, (3, 5)), (42, (2, 3, 7))])
    def test_crt_characterization(self, m, factors):
        s = canonical_set(m)
        assert len(s) == 2 ** len(factors) - 1
        for delta in s:
            assert all(delta % q in (0, 1) for q in factors)
            assert delta != 0


class TestMatchingFamilySearch:
    def test_size_one_trivial(self):
        fam = search_matching_family(6, 2, (1, 3, 4), 1)
        assert fam.n == 1
        assert check_matching_family(fam) == []

    def test_m6_h3(self, canonical_family_6):
        fam = canonical_family_6
        assert fam.n == 3
        assert check_matching_family(fam) == []

    def test_m6_h3_size_four(self):
        fam = search_matching_family(6, 3, canonical_set(6), 4)
        assert fam.n == 4
        assert check_matching_family(fam) == []

    def test_mersenne_with_side_constraint(self, mersenne_family):
        fam = mersenne_family
        assert check_matching_family(fam) == []
        for u in fam.u:
            assert sum(u) % 7 != 0

    def test_deterministic(self):
        a = search_matching_family(6, 3, (1, 3, 4), 3)
        b = search_matching_family(6, 3, (1, 3, 4), 3)
        assert a == b

    def test_exhausted(self):
        with pytest.raises(Exhausted):
            search_matching_family(2, 1, (1,), 3)

    def test_default_budget_exhaustion(self):
        # The whole default budget in well under a second.
        with pytest.raises(Exhausted) as info:
            search_matching_family(6, 3, canonical_set(6), 40)
        assert str(info.value) == (
            "no size-40 family found in Z_6^3 (5000007 nodes visited)"
        )

    def test_search_leaves_no_reference_cycle(self):
        # The m^h candidate list must go when the search returns, found or
        # exhausted, not when the cyclic collector next runs.
        search_matching_family(6, 3, canonical_set(6), 3)
        gc.collect()
        gc.disable()
        try:
            search_matching_family(6, 3, canonical_set(6), 3)
            assert gc.collect() == 0
            with pytest.raises(Exhausted):
                search_matching_family(3, 2, (1,), 4)
            assert gc.collect() == 0
        finally:
            gc.enable()

    @pytest.mark.parametrize("h", [0, -1])
    def test_rejects_nonpositive_h(self, h):
        with pytest.raises(ParamError, match="h must be >= 1"):
            search_matching_family(6, h, canonical_set(6), 3)

    @pytest.mark.parametrize("h, shown", [(3, "133432831"), (2000, "511^2000")])
    def test_space_over_the_cap_is_written_as_the_codec_writes_it(self, h, shown):
        # 511^2000 has 5415 digits, past what CPython turns into a string.
        with pytest.raises(ParamError) as info:
            search_matching_family(511, h, canonical_set(511), 3)
        assert str(info.value) == (
            f"Z_511^{h} has {shown} vectors, over the enumeration cap "
            "1000000; choose a smaller h"
        )

    def test_checker_catches_bad_family(self):
        bad = MatchingFamily(
            m=6, h=2, u=((1, 0), (2, 0)), v=((0, 1), (0, 1)), target_set=(1, 3, 4)
        )
        # diagonals are 0 as required but the cross products are 0 too
        assert check_matching_family(bad)

    def test_zero_not_allowed_in_target(self):
        with pytest.raises(ParamError):
            search_matching_family(6, 2, (0, 1), 2)


def _dot(a, b, m):
    return sum(x * y for x, y in zip(a, b)) % m


@functools.lru_cache(maxsize=None)
def _all_orthogonal_pairs(m, h):
    vectors = list(itertools.product(range(m), repeat=h))
    return [(u, v) for u in vectors for v in vectors if _dot(u, v, m) == 0]


@functools.lru_cache(maxsize=None)
def _candidate_pairs(m, h, drop_zero, side_constraint):
    zero = (0,) * h
    return [
        (u, v)
        for u, v in _all_orthogonal_pairs(m, h)
        if not (drop_zero and zero in (u, v))
        and not (side_constraint and sum(u) % m == 0)
    ]


def _eager_search(m, h, target_set, n_target, side_constraint, budget):
    """Reference: list every orthogonal pair first, then backtrack over the
    list in order, counting visited nodes the same way as the search."""
    target = {x % m for x in target_set}
    pairs = _candidate_pairs(m, h, n_target > 1, side_constraint)
    chosen = []
    visited = 0

    def extend(start):
        nonlocal visited
        if len(chosen) == n_target:
            return True
        for idx in range(start, len(pairs)):
            visited += 1
            if visited > budget:
                return False
            u, v = pairs[idx]
            if all(
                _dot(u, v2, m) in target and _dot(u2, v, m) in target
                for u2, v2 in chosen
            ):
                chosen.append((u, v))
                if extend(idx + 1):
                    return True
                chosen.pop()
        return False

    if not extend(0):
        return (
            f"no size-{n_target} family found in Z_{m}^{h} "
            f"({visited} nodes visited)"
        )
    return MatchingFamily(
        m=m,
        h=h,
        u=tuple(u for u, _ in chosen),
        v=tuple(v for _, v in chosen),
        target_set=tuple(sorted(target)),
    )


def _search_or_message(m, h, target_set, n_target, side_constraint, budget):
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(pirlab.mv, "SEARCH_BUDGET", budget)
        try:
            return search_matching_family(
                m, h, target_set, n_target, side_constraint
            )
        except Exhausted as exc:
            return str(exc)


def _target_sets(m):
    """The canonical set, <2> for Mersenne m, and all nonzero residues."""
    sets = {"nonzero": tuple(range(1, m))}
    if m != 4:
        sets["canonical"] = canonical_set(m)
    if m in (3, 7):
        sets["two_subgroup"] = two_subgroup(m)
    return sets


class TestSearchMatchesEagerReference:
    """The lazy search against the list-every-pair-first algorithm."""

    @pytest.mark.parametrize(
        "m,h",
        [(m, h) for m in (2, 3, 4, 5, 6, 7, 10) for h in (1, 2, 3) if m**h <= 1000],
    )
    def test_families_and_exhaustion_agree(self, m, h):
        for target in _target_sets(m).values():
            for n_target in (1, 2, 3, 4):
                for side in (False, True):
                    for budget in (1, 37, 2000):
                        args = (m, h, target, n_target, side, budget)
                        got = _search_or_message(*args)
                        want = _eager_search(*args)
                        assert got == want, (target, n_target, side, budget)

    @pytest.mark.parametrize("m", [2, 3])
    def test_four_dimensions_agree(self, m):
        for target in _target_sets(m).values():
            for n_target in range(1, 6):
                for side in (False, True):
                    for budget in (1, 37, 2000):
                        args = (m, 4, target, n_target, side, budget)
                        assert _search_or_message(*args) == _eager_search(*args)

    @pytest.mark.parametrize(
        "m,target,side,last",
        [(7, two_subgroup(7), True, 500), (6, canonical_set(6), False, 360)],
    )
    def test_every_budget_cut_agrees(self, m, target, side, last):
        # Cuts the budget at every node up to ``last``: inside u-blocks, at
        # their edges and within runs of skipped u.  The m=6 search succeeds
        # at 357 nodes; the m=7 one passes four u-block edges by 500.
        for budget in range(1, last + 1):
            args = (m, 3, target, 3, side, budget)
            assert _search_or_message(*args) == _eager_search(*args), budget

    def test_full_budget_exhaustion_agrees(self):
        # Runs the backtracking over the whole pair list without a hit.
        with pytest.raises(Exhausted) as info:
            search_matching_family(3, 2, (1,), 4)
        assert str(info.value) == _eager_search(3, 2, (1,), 4, False, 5_000_000)

    def test_builds_tables_only_as_far_as_it_reaches(self, monkeypatch):
        calls = []
        real = pirlab.mv._fit_masks

        def counting(u, m, target):
            calls.append(tuple(u))
            return real(u, m, target)

        monkeypatch.setattr(pirlab.mv, "_fit_masks", counting)
        fam = search_matching_family(7, 3, two_subgroup(7), 3, side_constraint=True)
        assert fam.n == 3
        # Listing every pair first takes masks for each of the 294 u with
        # <u, 1> != 0.  The search builds them for each u it does not skip
        # and each v it picks short of the last, and never twice for one
        # vector: a u it reaches again as a v, or a v picked twice, reuses
        # the masks of the first build.
        assert len(calls) == len(set(calls))
        assert 0 < len(calls) <= 12


def _definition_masks(u, m, target):
    """(zero, fit) from the definition: bit s is <u, v_s> = 0 mod m, resp.
    <u, v_s> mod m in ``target``, for the v_s of lexicographic rank s."""
    dots = [
        sum(a * b for a, b in zip(u, v)) % m
        for v in itertools.product(range(m), repeat=len(u))
    ]
    wanted = set(target)
    # The string puts bit 0 last, so int(..., 2) reads rank s as bit s.
    zero = "".join("1" if d == 0 else "0" for d in reversed(dots))
    fit = "".join("1" if d in wanted else "0" for d in reversed(dots))
    return int(zero, 2), int(fit, 2)


def _kernel_targets(m):
    """Every nonzero residue, the canonical set where m is squarefree,
    <2> at m = 7, and three edge sets: {1}, no residue and every residue."""
    sets = [tuple(range(1, m)), (1,), (), tuple(range(m))]
    if all(m % (q * q) for q in range(2, m)):
        sets.append(canonical_set(m))
    if m == 7:
        sets.append(two_subgroup(7))
    return list(dict.fromkeys(sets))


class TestResidueMasks:
    """The two residue masks of ``_fit_masks`` against their definition,
    bit for bit: bit s of ``zero`` is set iff <u, v_s> = 0 mod m, and bit
    s of ``fit`` iff <u, v_s> mod m lies in the target set; no bit lies
    past rank m^h - 1."""

    @pytest.mark.parametrize(
        "m,h",
        [(m, h) for m in range(2, 13) for h in (1, 2)]
        + [(m, 3) for m in range(2, 8)],
        ids=lambda value: str(value),
    )
    def test_every_u(self, m, h):
        targets = _kernel_targets(m)
        assert len(targets) >= 3
        for u in itertools.product(range(m), repeat=h):
            for target in targets:
                got = pirlab.mv._fit_masks(u, m, target)
                assert got == _definition_masks(u, m, target), (u, target)

    @pytest.mark.parametrize(
        "m,u",
        [(42, (0, 5, 0)), (42, (7, 0, 41)), (255, (0, 0)), (255, (85, 0)),
         (511, (0,)), (511, (73,))],
        ids=lambda value: str(value),
    )
    def test_u_with_zero_coordinates_in_large_spaces(self, m, u):
        for target in (tuple(range(1, m)), canonical_set(m), (1,)):
            got = pirlab.mv._fit_masks(u, m, target)
            assert got == _definition_masks(u, m, target), target


class TestLargeSearchPins:
    """Families, messages and digests of searches over large spaces, as
    the search that built every residue mask of every vector found them."""

    def test_m511_h2(self):
        fam = search_matching_family(511, 2, canonical_set(511), 2)
        assert fam.u == ((0, 1), (1, 0))
        assert fam.v == ((1, 0), (0, 1))
        assert fam.target_set == (1, 147, 365)

    def test_m210_h2_three_members(self):
        fam = search_matching_family(210, 2, canonical_set(210), 3)
        assert fam.u == ((0, 1), (1, 0), (1, 1))
        assert fam.v == ((1, 0), (0, 1), (105, 105))
        assert fam.target_set == canonical_set(210)

    def test_mersenne_four_dimensions(self):
        fam = search_matching_family(7, 4, two_subgroup(7), 5, side_constraint=True)
        assert fam.u == ((0, 0, 0, 1), (0, 0, 1, 0), (0, 1, 1, 1), (0, 1, 4, 4),
                         (1, 1, 1, 2))
        assert fam.v == ((0, 0, 1, 0), (0, 0, 0, 1), (0, 1, 2, 4), (0, 3, 4, 4),
                         (1, 0, 2, 2))
        assert fam.target_set == (1, 2, 4)

    @pytest.mark.parametrize(
        "name,config,digest",
        [("dvir-gopi", {"m": 42}, "1fd2954b5a91ac08"),
         ("gks", {"m": 6, "p": 7}, "dc6869a3f8d301b5")],
    )
    def test_digests(self, name, config, digest):
        assert param_digest(build_named(name, config)) == digest

    def test_m511_search_peak_memory(self):
        # Each mask has m^h = 261121 bits (32 KB); a list of every vector
        # or a mask per residue of the outer coordinate would pass 2 MB.
        tracemalloc.start()
        try:
            search_matching_family(511, 2, canonical_set(511), 2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2_000_000


class TestDecodingPolys:
    def test_trivial_m6_p7(self, poly_6_7):
        poly = poly_6_7
        assert poly.g == 3
        assert poly.k <= 4
        field = PrimeField(7)
        sp = SparsePoly(field, poly.monomials)
        for delta in (1, 3, 4):
            assert sp.evaluate(pow(3, delta, 7)) == 0
        assert sp.evaluate(1) == 1

    def test_trivial_prime_modulus_two_monomials(self):
        poly = trivial_decoding_poly(2, 7)
        assert poly.k == 2

    @pytest.mark.parametrize("m,p", [(6, 7), (15, 31), (21, 43)])
    def test_monomial_budget(self, m, p):
        poly = trivial_decoding_poly(m, p)
        r = len(canonical_set(m)).bit_length()  # |S_m| = 2^r - 1
        assert poly.k <= 2**r

    def test_validate_rejects_broken(self):
        poly = trivial_decoding_poly(6, 7)
        broken = DecodingPoly(
            m=6, p=7, g=3, monomials=((0, 2),) + poly.monomials[1:]
        )
        with pytest.raises(DecodingPolyInvalid):
            broken.validate()

    def test_validate_rejects_g_of_wrong_order(self):
        # 2 has order 3 in F_7, not 6: the identity is read at the wrong
        # points whatever the monomials are.
        poly = trivial_decoding_poly(6, 7)
        wrong = DecodingPoly(m=6, p=7, g=2, monomials=poly.monomials)
        with pytest.raises(ParamError, match="does not have order 6"):
            wrong.validate()

    def test_sparse_search_m6_terminates(self):
        # Exhaustive over the C(5,2) = 10 exponent sets containing 0; either
        # outcome is legitimate, a found polynomial just has to verify.
        try:
            poly = sparse_decoding_poly_search(6, 7, k_target=3)
        except Exhausted:
            return
        poly.validate()
        assert poly.k == 3

    # No 3-monomial polynomial exists at m=6 or m=15; m=35 has one.
    @pytest.mark.parametrize("m,p,k", [(6, 7, 3), (15, 31, 3), (35, 71, 3)])
    def test_sparse_search_matches_full_enumeration(self, m, p, k):
        # The search tries only the exponent sets containing 0; a plain
        # scan of all C(m, k) sets must find the same first polynomial.
        g = find_order_element(PrimeField(p), m)
        full = None
        for exps in itertools.combinations(range(m), k):
            rows = [[pow(g, delta * d, p) for d in exps] for delta in canonical_set(m)]
            coeffs = try_solve_mod_prime(rows + [[1] * k], [0] * len(rows) + [1], p)
            if coeffs is not None and all(coeffs):
                full = tuple(zip(exps, coeffs))
                break
        try:
            found = sparse_decoding_poly_search(m, p, k_target=k).monomials
        except Exhausted:
            found = None
        assert found == full

    def test_sparse_search_rejects_trivial_target(self):
        with pytest.raises(ParamError):
            sparse_decoding_poly_search(6, 7, k_target=4)

    def test_sparse_search_refuses_past_the_cap(self, monkeypatch):
        # The C(510, 1) = 510 exponent sets are counted before any field or
        # system is built, against the cap as it stands at the call.
        def unreachable(*args):
            raise AssertionError("built a field before the cap check")

        monkeypatch.setattr(pirlab.mv, "ROW_CAP", 509)
        monkeypatch.setattr(pirlab.mv, "find_order_element", unreachable)
        with pytest.raises(ParamError) as info:
            sparse_decoding_poly_search(511, 3067, k_target=2)
        assert str(info.value) == (
            "C(510,1) = 510 exponent sets, over the enumeration cap "
            "ROW_CAP = 509; choose a smaller sparse-k"
        )

    def test_sparse_search_exhaustion_counts_the_space(self):
        # No 3-monomial polynomial at m=15: all C(14, 2) = 91 sets fail.
        with pytest.raises(Exhausted) as info:
            sparse_decoding_poly_search(15, 31, k_target=3)
        assert str(info.value) == (
            "no 3-monomial decoding polynomial for m=15 over F_31 "
            "(91 exponent sets tried)"
        )


class TestPowerTable:
    @pytest.mark.parametrize(
        "ring,g,m", [(PrimeField(7), 3, 6), (BinaryField(3), 0b10, 7)]
    )
    def test_matches_pow(self, ring, g, m):
        assert power_table(ring, g, m) == tuple(ring.pow(g, j) for j in range(m))

    @pytest.mark.parametrize(
        "ring,g,m",
        [
            (PrimeField(7), 1, 6),  # g = 1 repeats at once
            (BinaryField(3), 1, 7),
            (PrimeField(7), 2, 6),  # order 3: the powers repeat
            (PrimeField(7), 3, 3),  # order 6: g^3 = 6 != 1
        ],
    )
    def test_refuses_wrong_order(self, ring, g, m):
        with pytest.raises(ParamError, match=f"does not have order {m}"):
            power_table(ring, g, m)


class TestExponentScheme:
    def test_refuses_a_polynomial_that_does_not_vanish(self, mersenne_family):
        # Raghavendra's P = 1 + theta + theta^3 over F_8 with its theta^3
        # coefficient changed from 1 to x: P(1) = x, not 1.
        f8 = BinaryField(3)
        with pytest.raises(DecodingPolyInvalid):
            exponent_scheme(
                "bad", f8, f8.gen, mersenne_family, two_subgroup(7),
                (0, 1, 3), (f8.one, f8.one, f8.gen), report={},
            )


class TestNiceSets:
    def test_gamma(self, nice_sets_7):
        assert nice_sets_7.gamma == 3
        assert nice_sets_7.s1 == (0, 1, 3)

    def test_s0_nonempty(self, nice_sets_7):
        assert len(nice_sets_7.s0) > 0

    def test_parity_invariant_exhaustive(self, nice_sets_7):
        s0 = set(nice_sets_7.s0)
        for sigma in range(7):
            for delta in two_subgroup(7):
                hits = {(sigma + delta * s) % 7 for s in nice_sets_7.s1}
                assert len(hits & s0) % 2 == 0

    def test_subgroup(self):
        assert two_subgroup(7) == (1, 2, 4)
        with pytest.raises(ParamError):
            two_subgroup(11)


class TestKrTable:
    @pytest.mark.parametrize("r,expected", [(2, 3), (3, 8), (4, 9), (5, 24), (103, 8 * 3**50)])
    def test_values(self, r, expected):
        assert k_r_table(r) == expected

    def test_large_r_branch(self):
        assert k_r_table(104) == 3**51 * 4
        assert k_r_table(110) == 3**51 * 2**8

    def test_rejects_small_r(self):
        with pytest.raises(ParamError):
            k_r_table(1)
