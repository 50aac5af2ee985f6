"""Cube and curve schemes: construction invariants, span identities,
exhaustive suites at small parameters, and the interpolation algebra."""

import dataclasses
import itertools
import math
import random
import tracemalloc

import pytest

from pirlab.algebra import interpolation_matrix, interpolation_vector
from pirlab.engine import (
    PrimeField,
    alpha_sum,
    answer,
    comm_cost,
    is_prime,
    prepare,
    reconstruct,
)
from pirlab.errors import MalformedQuery, ParamError
from pirlab.protocols.cube import build_cgks
from pirlab.protocols.curve import build_lagrange, build_wy_hermite
from pirlab.protocols.curve import balanced_h, binomial_tables, colex_unrank, minimal_h
from pirlab.protocols.curve import hermite_weights, lagrange_weights
from pirlab.protocols.registry import predicted_bits
from pirlab.sim import ServerNode, run_inprocess
from pirlab.verify import (
    SUITES,
    exhaustive_correctness,
    exhaustive_privacy,
    oa_family_check,
    run_suites,
    span_check_all,
)


class TestCgks:
    @pytest.mark.parametrize("n,h", [(1, 1), (8, 2), (27, 3), (5, 2)])
    def test_raw_bits(self, n, h):
        scheme = build_cgks(n)
        assert comm_cost(scheme).raw_bits == 12 * h + 2

    def test_rejects_empty_database(self):
        # The check is Scheme's own; the builder does not restate it.
        with pytest.raises(ParamError, match="^n must be >= 1$"):
            build_cgks(0)

    def test_n1_exhaustive(self):
        scheme = build_cgks(1)
        assert exhaustive_correctness(scheme).passed
        # n = 1 has no index pairs, so privacy holds vacuously.
        assert exhaustive_privacy(scheme).passed

    def test_n8_suites(self):
        scheme = build_cgks(8)
        assert exhaustive_correctness(scheme).passed
        assert exhaustive_privacy(scheme).passed
        assert set(oa_family_check(scheme).values()) == {1}

    def test_non_cube_n(self):
        scheme = build_cgks(5)
        assert exhaustive_correctness(scheme).passed
        assert exhaustive_privacy(scheme).passed

    def test_second_server_masks_differ_in_index_bits(self):
        scheme = build_cgks(8)
        q1, q2 = scheme.row(3, (0, 0, 0))  # index 3 -> cell (0, 1, 1)
        assert q1 == (0, 0, 0)
        assert q2 == (1 << 0, 1 << 1, 1 << 1)


def kernel_databases(n, rng):
    """All zeros, all ones, three units and two random databases of n bits."""
    yield (0,) * n
    yield (1,) * n
    for unit in sorted({0, n // 2, n - 1}):
        yield tuple(1 if j == unit else 0 for j in range(n))
    for _ in range(2):
        yield tuple(rng.randrange(2) for _ in range(n))


class TestCgksKernel:
    """The prepared slab kernel against the alpha sum, the reference."""

    # Full cubes (1, 8, 27) and partial ones, whose padding cells are 0.
    @pytest.mark.parametrize("n", [1, 7, 8, 27, 100, 1000, 8192])
    def test_kernel_equals_alpha_sum(self, n):
        scheme = build_cgks(n)
        h = scheme.report["h"]
        full = (1 << h) - 1
        rng = random.Random(n)
        for x in kernel_databases(n, rng):
            db = prepare(scheme, x)
            queries = [(0, 0, 0), (full, full, full)]
            queries += [tuple(rng.getrandbits(h) for _ in range(3)) for _ in range(3)]
            for q in queries:
                assert answer(scheme, db, q) == alpha_sum(scheme, x, q)
                assert answer(scheme, x, q) == answer(scheme, db, q)

    def test_bad_input_raises(self):
        scheme = build_cgks(100)
        q = (0, 0, 0)
        with pytest.raises(ParamError, match="database length"):
            answer(scheme, (0,) * 101, q)
        for entry in (2, -1, 0.5, None):
            with pytest.raises(ParamError, match="must be bits"):
                answer(scheme, (0,) * 99 + (entry,), q)
        with pytest.raises(MalformedQuery):
            answer(scheme, (0,) * 100, (1 << 5, 0, 0))
        # A Prepared for another n or another protocol is refused by every
        # entry point that takes a database.
        for other, label in (
            (build_cgks(27), "cgks n = 27"),
            (build_lagrange(100, 1, 3, 13), "lagrange n = 100"),
        ):
            db = prepare(other, (0,) * other.n)
            for call in (
                lambda: prepare(scheme, db),
                lambda: answer(scheme, db, q),
                lambda: ServerNode(1, scheme, db),
                lambda: run_inprocess(scheme, db, 0, seed=0, check=False),
            ):
                with pytest.raises(ParamError, match=f"prepared for {label}, not"):
                    call()

    @pytest.mark.parametrize("n", [1, 7, 8, 27, 100, 1000, 8192])
    def test_slab_a_holds_the_cells_from_a_h_squared(self, n):
        # Bit j of slab a is x[a*h^2 + j] below n, and 0 past it.
        scheme = build_cgks(n)
        h = scheme.report["h"]
        for x in kernel_databases(n, random.Random(n)):
            slabs = prepare(scheme, x).data
            assert len(slabs) == h
            for a, slab in enumerate(slabs):
                expected = 0
                for j in range(h * h):
                    if a * h * h + j < n and x[a * h * h + j]:
                        expected |= 1 << j
                assert slab == expected

    def test_prepare_needs_a_kernel(self):
        with pytest.raises(ParamError, match="needs an answer kernel"):
            dataclasses.replace(build_cgks(8), answer_kernel=None)


def _colex_reference(h, d):
    return sorted(itertools.combinations(range(h), d), key=lambda s: s[::-1])


def _dense_exponents(h, d, n):
    return [
        tuple(1 if c in subset else 0 for c in range(h))
        for subset in _colex_reference(h, d)[:n]
    ]


def _dense_row(u, ell, t, k, p):
    h = len(u)
    return tuple(
        tuple(
            (u[c] + sum(ell[c * t + b - 1] * pow(j, b, p) for b in range(1, t + 1)))
            % p
            for c in range(h)
        )
        for j in range(1, k + 1)
    )


def _dense_tangent(ell, h, t, j, p):
    # Row c of R is ell[c*t:(c+1)*t]; the tangent is R * (1, 2j, ..., t*j^(t-1)).
    return tuple(
        sum(ell[c * t + b] * (b + 1) * pow(j, b, p) for b in range(t)) % p
        for c in range(h)
    )


def _dense_monomial(u, z, p):
    value = 1
    for zc, uc in zip(z, u):
        value = value * pow(zc, uc, p) % p
    return value


def _dense_gradient(u, z, p):
    # d/dz_c of z^u is u_c * z_c^(u_c - 1) * prod_{c2 != c} z_c2^(u_c2).
    grad = []
    for c, uc in enumerate(u):
        if uc == 0:
            grad.append(0)
            continue
        rest = u[:c] + (0,) + u[c + 1 :]
        grad.append(uc * pow(z[c], uc - 1, p) * _dense_monomial(rest, z, p) % p)
    return tuple(grad)


class TestWeightVectors:
    def test_colex_order(self):
        for h in range(11):
            for d in range(6):
                tables = binomial_tables(h, d)
                unranked = [
                    colex_unrank(rank, d, tables) for rank in range(math.comb(h, d))
                ]
                assert unranked == _colex_reference(h, d)
        tables = binomial_tables(4, 2)
        assert [colex_unrank(r, 2, tables) for r in range(4)] == [
            (0, 1), (0, 2), (1, 2), (0, 3)
        ]

    def test_too_many(self):
        # d = 2 and C(3,2) = 3 < 4: a curve too short for the n records
        # widens to w = 2 columns of 2.  Hermite keeps one column and
        # refuses (d = 3, C(3,3) = 1 < 4).
        scheme = build_lagrange(4, 1, 3, 5, h=3)
        assert (scheme.report["h"], scheme.answer_dim) == (3, 2)
        assert exhaustive_correctness(scheme).passed
        with pytest.raises(ParamError, match=r"^C\(3,3\) = 1 < n = 4$"):
            build_wy_hermite(4, 1, 2, 7, h=3)

    @pytest.mark.parametrize("build,k,d", [(build_lagrange, 3, 2), (build_wy_hermite, 2, 3)])
    def test_h_below_d(self, build, k, d):
        with pytest.raises(ParamError, match=f"^h must be at least d = {d}, got h = 1$"):
            build(4, 1, k, 7, h=1)

    @pytest.mark.parametrize("build", [build_lagrange, build_wy_hermite])
    @pytest.mark.parametrize("h", [-1, 0])
    def test_nonpositive_h(self, build, h):
        with pytest.raises(ParamError, match="h must be >= 1"):
            build(3, 1, 2, 5, h=h)

    def test_minimal_h(self):
        assert minimal_h(2, 3) == 3
        assert minimal_h(3, 4) == 4
        assert minimal_h(1, 5) == 5
        for d in range(1, 8):
            # A linear scan, resumed from the last n's h since h grows with n.
            h = d
            for n in range(1, 3000):
                while math.comb(h, d) < n:
                    h += 1
                assert minimal_h(d, n) == h, (d, n)

    @pytest.mark.parametrize("n", [2**20, 2**24, 2**40])
    @pytest.mark.parametrize("d", range(1, 8))
    def test_minimal_h_is_least(self, d, n):
        h = minimal_h(d, n)
        assert math.comb(h, d) >= n > math.comb(h - 1, d)

    @pytest.mark.parametrize("d", [0, -1])
    def test_minimal_h_needs_positive_d(self, d):
        # C(h, 0) = 1 never reaches n = 2, so no h would be found.
        with pytest.raises(ParamError, match="need d >= 1"):
            minimal_h(d, 2)
        with pytest.raises(ParamError, match="need d >= 1"):
            balanced_h(d, 2)

    def test_balanced_h(self):
        # The least h >= d with d * ceil(n / C(h, d)) <= h, by a linear scan.
        assert balanced_h(2, 65536) == 65 and balanced_h(2, 3) == 3
        for d in range(1, 6):
            h = d
            for n in range(1, 3000):
                while d * -(-n // math.comb(h, d)) > h:
                    h += 1
                assert balanced_h(d, n) == h, (d, n)

    def test_binomial_tables_match_comb(self):
        for h in range(1, 65):
            for d in range(7):
                assert binomial_tables(h, d) == [
                    [math.comb(c, j) for c in range(h)] for j in range(d + 1)
                ], (h, d)

    @pytest.mark.parametrize(
        "build, args",
        [(build_lagrange, (2**24, 1, 3, 13)), (build_wy_hermite, (2**20, 1, 2, 7))],
    )
    def test_build_makes_few_comb_calls(self, monkeypatch, build, args):
        # Choosing h and filling the tables must not cost one math.comb per
        # coordinate: h is about 5800 for the first build here.
        calls = 0
        comb = math.comb

        def counting_comb(*a):
            nonlocal calls
            calls += 1
            return comb(*a)

        monkeypatch.setattr(math, "comb", counting_comb)
        build(*args)
        assert 0 < calls <= 64


class TestLagrange:
    def test_lambda_values_f5(self):
        scheme = build_lagrange(3, 1, 3, 5)
        assert scheme.report["lambda"] == (3, 2, 1)

    def test_alpha_at_exponent_vectors_is_indicator(self):
        # At theta = 0 the curve sits at u_i, where z^(u_tau) = 1_{tau = i}
        # for distinct weight-d binary vectors.
        scheme = build_lagrange(3, 1, 3, 5)
        vecs = _dense_exponents(scheme.report["h"], scheme.report["d"], 3)
        for i, u in enumerate(vecs):
            for tau in range(3):
                assert scheme.alpha(tau, u) == ((1,) if tau == i else (0,))

    def test_desk_suites(self):
        scheme = build_lagrange(3, 1, 3, 5)
        assert scheme.num_rows == 125
        assert exhaustive_correctness(scheme).passed
        assert exhaustive_privacy(scheme).passed
        assert set(oa_family_check(scheme).values()) == {1}
        assert span_check_all(scheme) == 3 * 125

    def test_every_suite_in_columns(self):
        # h = 4 and w = 2 columns of 4 records: the rows of index i and
        # i + 4 coincide, and only the answer coordinate tells them apart.
        scheme = build_lagrange(8, 1, 3, 5)
        assert (scheme.report["h"], scheme.answer_dim) == (4, 2)
        passed, lines = run_suites(scheme, SUITES, seed=0)
        assert passed, lines
        assert len(lines) == len(SUITES)

    def test_single_server_marginal_uniform_small(self):
        scheme = build_lagrange(2, 1, 2, 3)
        assert exhaustive_privacy(scheme).passed
        assert set(oa_family_check(scheme).values()) == {1}

    def test_two_private(self):
        scheme = build_lagrange(2, 2, 3, 5)
        assert scheme.t == 2
        assert exhaustive_correctness(scheme).passed
        assert exhaustive_privacy(scheme).passed
        assert set(oa_family_check(scheme).values()) == {1}

    def test_preconditions(self):
        with pytest.raises(ParamError):
            build_lagrange(3, 1, 3, 3)  # p must exceed k
        with pytest.raises(ParamError):
            build_lagrange(3, 3, 3, 7)  # t < k required
        # d = 1 and C(2,1) = 2 < 3: two columns, of 2 records and of 1.
        scheme = build_lagrange(3, 2, 3, 7, h=2)
        assert (scheme.report["h"], scheme.answer_dim) == (2, 2)


class TestHermiteAlgebra:
    @pytest.mark.parametrize("k", [2, 3])
    @pytest.mark.parametrize("p", [7, 11, 13])
    def test_basis_matrix_nonsingular(self, k, p):
        mu = interpolation_vector(p, range(1, k + 1), range(2 * k), multiplicity=2)
        assert len(mu) == 2 * k

    def test_k1_taylor(self):
        # Recovery from a single point theta_1: phi(0) = phi - theta_1 * phi'.
        for p in (7, 11):
            for theta in (1, 2, 3):
                mu = interpolation_vector(p, [theta], range(2), multiplicity=2)
                assert mu == [1, (-theta) % p]

    def test_recovers_constant_term(self):
        p, k = 7, 2
        points, support = range(1, k + 1), range(2 * k)
        matrix = interpolation_matrix(p, points, support, multiplicity=2)
        mu = interpolation_vector(p, points, support, multiplicity=2)
        # phi = 3 + theta + 4 theta^2 + 2 theta^3
        coeffs = [3, 1, 4, 2]
        evals = [
            sum(coeffs[c] * matrix[c][col] for c in range(2 * k)) % p
            for col in range(2 * k)
        ]
        assert sum(e * m for e, m in zip(evals, mu)) % p == coeffs[0]


class TestClosedFormWeights:
    """The curve schemes' closed-form reconstruction weights against the
    linear solve of ``interpolation_vector``, the reference."""

    GRID = [
        (k, p) for p in range(2, 200) if is_prime(p) for k in range(2, 12)
    ]

    def test_lagrange_weights_equal_the_solve(self):
        cases = [(k, p) for k, p in self.GRID if p > k]
        for k, p in cases:
            expected = interpolation_vector(
                p, range(1, k + 1), range(k), multiplicity=1
            )
            assert lagrange_weights(k, p) == expected, (k, p)
        assert len(cases) == 428

    def test_hermite_weights_equal_the_solve(self):
        cases = [(k, p) for k, p in self.GRID if p > 2 * k - 1]
        for k, p in cases:
            expected = interpolation_vector(
                p, range(1, k + 1), range(2 * k), multiplicity=2
            )
            assert hermite_weights(k, p) == expected, (k, p)
        assert len(cases) == 407

    def test_builders_report_the_weights(self):
        # One column: h = 15 is the least with C(h, 2) >= 100.
        lagrange = build_lagrange(100, 1, 3, 13, h=15)
        assert lagrange.report["lambda"] == tuple(lagrange_weights(3, 13))
        assert lagrange.recon(0, (0,) * lagrange.report["h"])[0] == tuple(
            (v,) for v in lagrange_weights(3, 13)
        )
        # The default h = 8 makes 4 columns of 25 records; index 60 is
        # record 10 of column 2.
        columns = build_lagrange(100, 1, 3, 13)
        assert columns.report["lambda"] == tuple(lagrange_weights(3, 13))
        assert columns.recon(60, (0,) * 8)[0] == tuple(
            (0, 0, v, 0) for v in lagrange_weights(3, 13)
        )
        hermite = build_wy_hermite(64, 1, 2, 7)
        assert hermite.report["mu"] == tuple(hermite_weights(2, 7))


class TestHermiteScheme:
    def test_field_too_small(self):
        with pytest.raises(ParamError):
            build_wy_hermite(2, 1, 2, 3)  # needs p > 2k - 1 = 3

    def test_alpha_carries_gradient(self):
        scheme = build_wy_hermite(4, 1, 2, 7)
        vec = scheme.alpha(0, (2, 3, 1, 5))
        assert len(vec) == scheme.report["h"] + 1

    def test_t2_sampled(self):
        # At t = 2 the randomness space is 7^6 rows, past what a routine
        # test can exhaust; check the span identity and round trips on a
        # deterministic sample instead (t = 1 is exhausted elsewhere).
        import random

        from pirlab.engine import Aux
        from pirlab.verify import span_check

        scheme = build_wy_hermite(2, 2, 3, 7)
        assert scheme.report["d"] == 2
        rng = random.Random(7)
        for _ in range(150):
            ell = scheme.sample_randomness(rng)
            for i in range(scheme.n):
                span_check(scheme, i, ell)
                queries = scheme.row(i, ell)
                for x in [(0, 1), (1, 0), (1, 1)]:
                    answers = [answer(scheme, x, q) for q in queries]
                    assert reconstruct(scheme, Aux(i, ell), answers) == x[i]

    def test_desk_span_sample(self):
        scheme = build_wy_hermite(4, 1, 2, 7)
        from pirlab.verify import span_check

        for ell in list(scheme.enumerate_randomness())[:50]:
            for i in range(4):
                span_check(scheme, i, ell)

    def test_answer_linearity(self):
        scheme = build_wy_hermite(4, 1, 2, 7)
        q = (1, 2, 3, 4)
        x = (1, 0, 1, 1)
        total = [0] * scheme.answer_dim
        for tau, bit in enumerate(x):
            if bit:
                unit = tuple(1 if j == tau else 0 for j in range(4))
                total = [
                    (a + b) % 7 for a, b in zip(total, answer(scheme, unit, q))
                ]
        assert tuple(total) == answer(scheme, x, q)


class TestSparseAgainstDense:
    """Row and alpha must equal a construction from the dense exponent
    vectors, index by index."""

    @pytest.mark.parametrize(
        "build,n,t,k,p",
        [
            (build_lagrange, 30, 1, 3, 13),
            (build_lagrange, 20, 2, 5, 7),
            (build_lagrange, 50, 1, 4, 11),
            (build_lagrange, 10, 3, 7, 11),
            (build_wy_hermite, 30, 1, 2, 7),
            (build_wy_hermite, 20, 2, 3, 7),
            (build_wy_hermite, 40, 1, 3, 11),
            (build_wy_hermite, 10, 3, 4, 11),
        ],
    )
    def test_row_and_alpha(self, build, n, t, k, p):
        # Index i is record i mod N of column i // N, with w columns of N
        # records for lagrange and one column for hermite.
        scheme = build(n, t, k, p)
        h, d = scheme.report["h"], scheme.report["d"]
        hermite = scheme.name == "hermite"
        w = 1 if hermite else scheme.answer_dim
        records = -(-n // w)
        vecs = _dense_exponents(h, d, records)
        rng = random.Random(n * 1000 + k)
        for _ in range(20):
            i = rng.randrange(n)
            ell = scheme.sample_randomness(rng)
            points = scheme.row(i, ell)
            assert points == _dense_row(vecs[i % records], ell, t, k, p)
            for z in points:
                for tau in range(n):
                    column, u = tau // records, vecs[tau % records]
                    value = _dense_monomial(u, z, p)
                    if hermite:
                        expected = (value, *_dense_gradient(u, z, p))
                    else:
                        expected = tuple(value if c == column else 0 for c in range(w))
                    assert scheme.alpha(tau, z) == expected

    @pytest.mark.parametrize(
        "n,t,k,p", [(30, 1, 2, 7), (20, 2, 3, 7), (40, 1, 3, 11), (10, 3, 4, 11)]
    )
    def test_hermite_recon(self, n, t, k, p):
        scheme = build_wy_hermite(n, t, k, p)
        h = scheme.report["h"]
        mu = interpolation_vector(p, range(1, k + 1), range(2 * k), multiplicity=2)
        rng = random.Random(n * 1000 + k)
        for _ in range(20):
            i = rng.randrange(n)
            ell = scheme.sample_randomness(rng)
            blocks = tuple(
                (mu[2 * j - 2],)
                + tuple(mu[2 * j - 1] * v % p for v in _dense_tangent(ell, h, t, j, p))
                for j in range(1, k + 1)
            )
            assert scheme.recon(i, ell) == (blocks, 1)

    def test_build_memory_is_sparse(self):
        # A dense u_tau per index costs ~190 MB here (h = 363).
        tracemalloc.start()
        try:
            build_lagrange(65536, 1, 3, 13)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20

    def test_build_memory_is_independent_of_n(self):
        # The builder keeps d + 1 binomial rows of h ints, not n supports.
        tracemalloc.start()
        try:
            build_lagrange(2**20, 1, 3, 13)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2**20


# (d, h, w, N) in the default columns: (2, 65, 32, 2048), (3, 17, 5, 600),
# (2, 8, 4, 25), (4, 16, 3, 1667), (1, 28, 28, 28), (1, 1, 1, 1),
# (2, 14, 6, 84), (2, 6, 3, 15) and (3, 8, 2, 56).  The last block is
# partial in the first, second, third, fourth and seventh, and full in the
# last two, where N = C(h, d); the last column is partial in 5000, 777,
# 500, 43 and 111.  p = 257 holds residues past one byte.
_KERNEL_CONFIGS = [
    (65536, 1, 3, 13),
    (3000, 2, 7, 11),
    (100, 3, 7, 11),
    (5000, 1, 5, 13),
    (777, 1, 2, 7),
    (1, 1, 2, 3),
    (500, 1, 3, 257),
    (43, 1, 3, 5),
    (111, 1, 4, 7),
]


class TestLagrangeKernel:
    """The bit-plane kernel against the alpha sum, the reference."""

    def test_configs_cover_each_degree_in_columns(self):
        degrees = set()
        for n, t, k, p in _KERNEL_CONFIGS:
            scheme = build_lagrange(n, t, k, p)
            if scheme.answer_dim > 1:
                degrees.add(scheme.report["d"])
        assert degrees == {1, 2, 3, 4}

    @pytest.mark.parametrize("n,t,k,p", _KERNEL_CONFIGS)
    def test_kernel_equals_alpha_sum(self, n, t, k, p):
        scheme = build_lagrange(n, t, k, p)
        assert scheme.answer_kernel is not None
        h = scheme.report["h"]
        rng = random.Random(n * 31 + k)
        for x in kernel_databases(n, rng):
            db = prepare(scheme, x)
            queries = [(0,) * h, (1,) * h, (p - 1,) * h]
            for _ in range(3):
                q = [rng.randrange(p) for _ in range(h)]
                queries.append(tuple(q))
                # A zero coordinate b zeroes the whole block of top element
                # b, and every record below it that holds b.
                queries.append(tuple(v if rng.randrange(2) else 0 for v in q))
            for q in queries:
                assert answer(scheme, db, q) == alpha_sum(scheme, x, q)

    def test_alpha_sum_adds_only_what_alpha_sets(self):
        # alpha sets one of the w = 32 coordinates, so the reference makes
        # one ring.add per set bit, not 32.
        adds = []

        class Counting(PrimeField):
            def add(self, a, b):
                adds.append(1)
                return super().add(a, b)

        scheme = build_lagrange(65536, 1, 3, 13)
        assert scheme.answer_dim == 32
        counted = dataclasses.replace(scheme, ring=Counting(13))
        rng = random.Random(3)
        x = bytes(rng.randrange(8) == 0 for _ in range(scheme.n))
        # No coordinate of q is 0, so no alpha value is.
        q = tuple(rng.randrange(1, 13) for _ in range(scheme.report["h"]))
        assert alpha_sum(counted, x, q) == answer(scheme, x, q)
        assert len(adds) == sum(x)

    # Deployments that share protocol and n with lagrange n=4096 t=1 k=3
    # p=13 (h = 26, w = 13) or hermite n=64 t=1 k=2 p=7, and differ in one
    # parameter and so in layout or answer.
    @pytest.mark.parametrize(
        "build, ours, theirs, said",
        [
            (build_lagrange, (4096, 1, 3, 13), (4096, 1, 3, 13, 92),
             "h = 92, not lagrange n = 4096 h = 26"),
            (build_lagrange, (4096, 1, 3, 13), (4096, 1, 3, 11),
             "p = 11, not lagrange n = 4096 p = 13"),
            (build_lagrange, (4096, 1, 3, 13), (4096, 1, 4, 13),
             "k = 4, not lagrange n = 4096 k = 3"),
            (build_lagrange, (4096, 1, 3, 13), (4096, 2, 3, 13),
             "t = 2, not lagrange n = 4096 t = 1"),
            (build_wy_hermite, (64, 1, 2, 7), (64, 1, 2, 11),
             "p = 11, not hermite n = 64 p = 7"),
        ],
        ids=["h92-into-default", "p11-into-p13", "k4-into-k3", "t2-into-t1",
             "hermite-p11-into-p7"],
    )
    def test_foreign_prepared_is_refused(self, build, ours, theirs, said):
        scheme, other = build(*ours), build(*theirs)
        rng = random.Random(1)
        db = prepare(other, bytes(rng.randrange(2) for _ in range(other.n)))
        q = (0,) * scheme.report["h"]
        message = f"^database prepared for {scheme.name} n = {scheme.n} {said}$"
        for call in (
            lambda: prepare(scheme, db),
            lambda: answer(scheme, db, q),
            lambda: ServerNode(1, scheme, db),
            lambda: run_inprocess(scheme, db, 0, seed=0, check=False),
        ):
            with pytest.raises(ParamError, match=message):
                call()
        # A rebuild of the deployment, or a copy of its scheme, is the same
        # parameters and takes the database as it is.
        own = prepare(scheme, bytes(scheme.n))
        for same in (build(*ours), dataclasses.replace(scheme)):
            assert same.report is not scheme.report
            assert prepare(same, own) is own
            assert answer(same, own, q) == answer(scheme, own, q)

    @pytest.mark.parametrize("n,t,k,p", _KERNEL_CONFIGS)
    def test_bad_input_raises_on_both_paths(self, n, t, k, p):
        scheme = build_lagrange(n, t, k, p)
        generic = dataclasses.replace(scheme, answer_kernel=None, prepare=None)
        h = scheme.report["h"]
        bad_calls = [
            (ParamError, (0,) * (n + 1), (0,) * h),
            (MalformedQuery, (0,) * n, (p,) + (0,) * (h - 1)),
            (MalformedQuery, (0,) * n, (0,) * (h + 1)),
        ]
        for error, x, q in bad_calls:
            messages = []
            for s in (scheme, generic):
                with pytest.raises(error) as info:
                    answer(s, x, q)
                messages.append(str(info.value))
            assert messages[0] == messages[1]


class TestCurveCosts:
    @pytest.mark.parametrize("t", [1, 2])
    def test_lagrange_cost_row_reads_the_columns(self, t):
        # k = 5 gives d = 4 at t = 1 and d = 2 at t = 2.  The row sums
        # h + w before it scales by log2 p, the codecs after: they round
        # apart by an ulp.
        d = 4 // t
        for n in (1, 3, 8, 100, 4096, 65536, 2**20):
            for h in (None, minimal_h(d, n)):
                scheme = build_lagrange(n, t, 5, 13, h=h)
                assert predicted_bits(scheme) == pytest.approx(
                    comm_cost(scheme).raw_bits, rel=1e-12
                ), (n, h)

    def test_lagrange_raw_bits(self):
        scheme = build_lagrange(3, 1, 3, 5)
        h = scheme.report["h"]
        assert comm_cost(scheme).raw_bits == pytest.approx(
            3 * (h + 1) * math.log2(5)
        )

    def test_hermite_raw_bits(self):
        scheme = build_wy_hermite(4, 1, 2, 7)
        h = scheme.report["h"]
        assert comm_cost(scheme).raw_bits == pytest.approx(
            2 * (h * math.log2(7) + (h + 1) * math.log2(7))
        )
