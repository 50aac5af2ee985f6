"""Engine-level behaviour: codecs, array checks, the three algorithms, and
communication accounting, mostly exercised on the hand-sized instance."""

import dataclasses
import gc
import math
import random
import sys
from array import array

import pytest
from hypothesis import given, settings, strategies as st

from pirlab import engine
from pirlab.engine import (
    Aux,
    Codec,
    CommCost,
    answer,
    comm_cost,
    least,
    pack_bits,
    query_gen,
    reconstruct,
    unpack_bits,
)
from pirlab.errors import (
    CapExceeded,
    DimensionMismatch,
    InconsistentAnswer,
    MalformedQuery,
    OAFailure,
    ParamError,
    SpanFailure,
)
from pirlab.protocols.curve import build_lagrange
from pirlab.protocols.toy import broken_span_demo, toy_instance
from pirlab.protocols.registry import build_named, desk_schemes
from pirlab.protocols.toy import TOY_ARRAYS
from pirlab.sim import run_inprocess
from pirlab.verify import oa_strength_check, scheme_oa_index, span_check

# The classic 8-row strength-3 binary array (rows = even-weight extensions).
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


class TestCodec:
    def test_cap_error_prints_the_space_as_a_power(self):
        codec = Codec(13, 92)
        with pytest.raises(CapExceeded) as info:
            codec.enumerate_values()
        assert str(info.value) == "codec space of 13^92 values exceeds cap 1000000"

    @pytest.mark.parametrize("radix, count, text", [
        (5, 3, "125"),
        (2, 63, "9223372036854775808"),
        (2, 64, "2^64"),
        (2**64, 2, "(2^64)^2"),
    ])
    def test_size_text(self, radix, count, text):
        # Exact below 2^64, a power from there on.
        assert Codec(radix, count).size_text == text

    def test_residue_roundtrip(self):
        codec = Codec(5, 3)
        values = (4, 0, 3)
        assert codec.decode(codec.encode(values)) == values
        assert codec.nbytes == 1  # 5^3 - 1 = 124 fits 7 bits
        assert codec.raw_bits == pytest.approx(3 * math.log2(5))

    def test_wide_residue(self):
        codec = Codec(3067, 1)
        assert codec.nbytes == 2
        assert codec.decode(codec.encode((3066,))) == (3066,)

    def test_bit_groups(self):
        codec = Codec(2, 7)
        values = (1, 0, 1, 1, 0, 0, 1)
        assert codec.decode(codec.encode(values)) == values
        assert codec.nbytes == 1
        assert codec.raw_bits == 7

    def test_out_of_range_value(self):
        with pytest.raises(MalformedQuery):
            Codec(5, 1).encode((5,))

    @pytest.mark.parametrize(
        "values", [(1.5,) * 5, ("1",) * 5, (1, 2, 3, 4, 2.0), (1, 2, None, 4, 0)],
        ids=["floats", "strings", "one-float", "one-none"],
    )
    def test_encode_rejects_values_that_are_not_integers(self, values):
        with pytest.raises(MalformedQuery, match="must be an integer"):
            Codec(5, 5).encode(values)

    def test_bools_are_integers(self):
        codec = Codec(2, 3)
        assert codec.encode((True, False, True)) == codec.encode((1, 0, 1))

    @pytest.mark.parametrize("radix, count", [(1, 3), (0, 1), (5, 0)])
    def test_rejects_degenerate_space(self, radix, count):
        with pytest.raises(ParamError):
            Codec(radix, count)

    def test_negative_value(self):
        with pytest.raises(MalformedQuery, match="value -1 out of range"):
            Codec(5, 3).encode((0, -1, 4))

    def test_decode_rejects_bad_length(self):
        with pytest.raises(MalformedQuery):
            Codec(5, 2).decode(b"\x00\x00")

    def test_decode_rejects_out_of_range_residue(self):
        with pytest.raises(MalformedQuery):
            Codec(5, 1).decode(b"\x07")

    def test_decode_rejects_padding_bits(self):
        with pytest.raises(MalformedQuery):
            Codec(2, 3).decode(b"\xff")

    @settings(max_examples=300, deadline=None)
    @given(
        st.sampled_from([2, 2**256]) | st.integers(2, 300),
        st.integers(1, 40),
        st.data(),
    )
    def test_decode_fuzz_is_canonical_or_malformed(self, radix, count, data):
        codec = Codec(radix, count)
        blob = data.draw(
            st.binary(min_size=codec.nbytes, max_size=codec.nbytes)
            | st.binary(max_size=codec.nbytes + 2)
        )
        try:
            values = codec.decode(blob)
        except MalformedQuery:
            return
        assert isinstance(values, tuple)
        assert codec.encode(values) == blob
        # The wire integer is sum_j v_j * radix^j.
        number = sum(v * radix**j for j, v in enumerate(values))
        assert number == int.from_bytes(blob, "little")

    @pytest.mark.parametrize(
        "radix, count", [(2, 1), (9, 1), (2, 5), (4, 3), (3, 7), (13, 3)]
    )
    def test_unrank_hits_every_tuple_once(self, radix, count):
        codec = Codec(radix, count)
        values = [codec.unrank(j) for j in range(codec.size)]
        assert sorted(values) == sorted(codec.enumerate_values())
        for j, v in enumerate(values):
            assert codec.encode(v) == j.to_bytes(codec.nbytes, "little")

    @pytest.mark.parametrize(
        "radix, count",
        [(2**256, 3), (13, 363), (2, 1000)],
        ids=["2^256-3", "13-363", "2-1000"],
    )
    def test_unrank_splits_large_spaces_into_digits(self, radix, count):
        # cgks at n = 2^24 sends 3 values below 2^256; lagrange t=1 k=3
        # p=13 at n = 65536 sends 363 values below 13.
        codec = Codec(radix, count)
        rng = random.Random(radix + count)
        numbers = [0, codec.size - 1] + [rng.randrange(codec.size) for _ in range(20)]
        for number in numbers:
            values = codec.unrank(number)
            assert values == tuple(number // radix**j % radix for j in range(count))
            assert codec.encode(values) == number.to_bytes(codec.nbytes, "little")

    def test_bits_encode_as_the_sum_of_their_powers_of_two(self):
        # Radix 2 goes through the product tree, as every radix does.
        rng = random.Random(2)
        for count in range(1, 801):
            codec = Codec(2, count)
            bits = tuple(rng.randrange(2) for _ in range(count))
            number = sum(v << j for j, v in enumerate(bits))
            assert codec.encode(bits) == number.to_bytes(codec.nbytes, "little")
            for edge in ((0,) * count, (1,) * count):
                number = sum(v << j for j, v in enumerate(edge))
                assert codec.encode(edge) == number.to_bytes(codec.nbytes, "little")

    def test_bits_decode_inverts_encode(self):
        rng = random.Random(3)
        for count in range(1, 801):
            codec = Codec(2, count)
            for number in (0, codec.size - 1, rng.randrange(codec.size)):
                values = codec.unrank(number)
                assert values == tuple(number >> j & 1 for j in range(count))
                blob = codec.encode(values)
                assert codec.decode(blob) == values
                assert int.from_bytes(blob, "little") == number

    def test_tree_decode_leaves_no_tuples_in_the_free_lists(self):
        # Building a tuple of unknown length per tree level parked one
        # tuple per level of under 20 pairs in CPython's free lists: about
        # 10,000 blocks after 2000 decodes of 64 values, held until a full
        # collection.
        codec = Codec(3, 64)
        blob = codec.encode((1, 2) * 32)
        gc.collect()
        enabled = gc.isenabled()
        gc.disable()
        try:
            before = sys.getallocatedblocks()
            for _ in range(2000):
                codec.decode(blob)
            grown = sys.getallocatedblocks() - before
        finally:
            if enabled:
                gc.enable()
        assert grown < 500

    def test_space_enumeration(self):
        codec = Codec(3, 2)
        assert sorted(codec.enumerate_values()) == [
            (a, b) for a in range(3) for b in range(3)
        ]

    def test_answer_roundtrip_every_desk_scheme(self):
        # Covers int elements (prime fields, and F_(2^r) for raghavendra)
        # and the component tuples of CyclicGroupRing (dvir-gopi).
        rng = random.Random(5)
        for scheme in desk_schemes():
            for trial in range(4):
                x = tuple(rng.randrange(2) for _ in range(scheme.n))
                queries, _ = query_gen(scheme, rng.randrange(scheme.n), seed=trial)
                for q in queries:
                    a = answer(scheme, x, q)
                    data = scheme.encode_answer(a)
                    assert len(data) == scheme.answer_codec.nbytes, scheme.name
                    assert scheme.decode_answer(data) == a, scheme.name


class TestLeast:
    @staticmethod
    def cube(h):
        return h**3

    @pytest.mark.parametrize("lo, d", [(1, None), (1, 1), (2, 2), (3, 3), (4, 4)])
    def test_equals_a_linear_scan(self, lo, d):
        size = self.cube if d is None else (lambda h: math.comb(h, d))
        # The scan resumes from the last n's h, since h grows with n.
        h = lo
        for n in range(1, 5001):
            while size(h) < n:
                h += 1
            assert least(lo, n, size) == h, n

    def test_every_cube_and_its_neighbours(self):
        # Every side below 2^14, then sides around each power of two and a
        # seeded sample up to 2^20, so cubes up to 2^60.
        rng = random.Random(5)
        sides = {*range(2, 2**14)}
        sides |= {2**j + e for j in range(14, 21) for e in (-2, -1, 0, 1, 2)}
        sides |= {rng.randrange(2**14, 2**20) for _ in range(2000)}
        for h in sorted(sides):
            c = h**3
            assert least(1, c - 1, self.cube) == h
            assert least(1, c, self.cube) == h
            assert least(1, c + 1, self.cube) == h + 1

    def test_cube_side_of_two_to_the_300(self):
        # A count from 1 would take 2^100 steps.
        assert least(1, 2**300, self.cube) == 2**100


def bit_vectors():
    """All zeros, all ones and a random vector at every n in 0..130 and at
    20 random n up to 4096."""
    rng = random.Random(7)
    for n in [*range(131), *(rng.randrange(131, 4097) for _ in range(20))]:
        yield bytes(n)
        yield b"\x01" * n
        yield bytes(rng.randrange(2) for _ in range(n))


class TestPackBits:
    def test_pack_is_the_sum_of_bits_times_powers_of_two(self):
        for bits in bit_vectors():
            assert pack_bits(bits) == sum(b << j for j, b in enumerate(bits))

    def test_unpack_inverts_pack(self):
        for bits in bit_vectors():
            value = sum(b << j for j, b in enumerate(bits))
            assert unpack_bits(value, len(bits)) == bits
            assert pack_bits(unpack_bits(value, len(bits))) == value


class TestOaStrengthCheck:
    def test_classic_array_strength_3(self):
        assert oa_strength_check(OA_8_4, (0, 1), t=3) == 1

    def test_classic_array_fails_strength_4(self):
        with pytest.raises(OAFailure):
            oa_strength_check(OA_8_4, (0, 1), t=4)

    def test_single_column_each_level_once(self):
        rows = [(lvl,) for lvl in "abc"]
        assert oa_strength_check(rows, tuple("abc"), t=1) == 1

    def test_unbalanced_counts_named(self):
        rows = [(0, 0), (0, 1), (1, 0), (0, 1)]
        with pytest.raises(OAFailure, match="appears"):
            oa_strength_check(rows, (0, 1), t=1)

    def test_entry_outside_levels(self):
        with pytest.raises(ParamError):
            oa_strength_check([(2,)], (0, 1), t=1)


class TestToyInstance:
    def test_span_all_rows(self):
        scheme = toy_instance()
        for i in range(2):
            for ell in scheme.enumerate_randomness():
                span_check(scheme, i, ell)

    def test_lambda_is_two_two(self):
        scheme = toy_instance()
        lam, omega = scheme.recon(0, (0,))
        assert lam == (((2,),) * 2)[:2] == ((2,), (2,))
        assert omega == 1

    def test_broken_lambda_fails_span(self):
        scheme = broken_span_demo()
        with pytest.raises(SpanFailure):
            span_check(scheme, 0, (0,))

    def test_oa_index(self):
        scheme = toy_instance()
        assert scheme_oa_index(scheme, 0) == 1
        assert scheme_oa_index(scheme, 1) == 1

    def test_forced_row_matches_array(self):
        scheme = toy_instance()
        assert scheme.row(1, (0,)) == TOY_ARRAYS[1][0] == ((0, 1), (0, 1))


class TestQueryGen:
    def test_deterministic(self):
        scheme = toy_instance()
        assert query_gen(scheme, 1, seed=99) == query_gen(scheme, 1, seed=99)

    def test_aux_carries_index_and_randomness(self):
        scheme = toy_instance()
        _, aux = query_gen(scheme, 1, seed=5)
        assert aux.i == 1
        assert len(aux.ell) == 1 and 0 <= aux.ell[0] < 9

    def test_index_range(self):
        with pytest.raises(ParamError):
            query_gen(toy_instance(), 2, seed=0)

    @pytest.mark.parametrize(
        "name, config, i",
        [("lagrange", {"n": 8, "t": 1, "k": 3, "p": 5}, 2.5), ("cgks", {"n": 8}, 1.0)],
        ids=["lagrange-2.5", "cgks-1.0"],
    )
    def test_index_that_is_not_an_int(self, name, config, i):
        # 2.5 would draw index 2's queries, and cgks would shift by 1.0.
        with pytest.raises(ParamError, match=f"index must be an int, got {i}"):
            query_gen(build_named(name, config), i, seed=1)

    def test_bool_index_counts_as_an_int(self):
        scheme = toy_instance()
        assert query_gen(scheme, True, seed=3) == query_gen(scheme, 1, seed=3)

    def test_no_seed_draws_from_the_operating_system(self, monkeypatch):
        draws = []

        class RecordingSystemRandom(random.SystemRandom):
            def randrange(self, *args):
                value = super().randrange(*args)
                draws.append(value)
                return value

        monkeypatch.setattr(engine.random, "SystemRandom", RecordingSystemRandom)
        scheme = build_lagrange(5, 1, 3, 7)
        x = (1, 0, 1, 1, 0)
        for i in range(scheme.n):
            draws.clear()
            queries, aux = query_gen(scheme, i, seed=None)
            assert len(draws) == 1
            assert 0 <= draws[0] < scheme.num_rows
            assert aux.ell == scheme.randomness.unrank(draws[0])
            assert queries == scheme.row(i, aux.ell)
            draws.clear()
            bit, _ = run_inprocess(scheme, x, i, seed=None)
            assert bit == x[i]
            assert len(draws) == 1

    @pytest.mark.parametrize(
        "radix, count", [(2, 1), (9, 1), (2, 5), (4, 3), (3, 7), (13, 3)]
    )
    def test_each_rank_emits_its_own_ell(self, monkeypatch, radix, count):
        scheme = dataclasses.replace(
            toy_instance(),
            randomness=Codec(radix, count),
            row=lambda i, ell: (ell, ell),
        )
        ranks = iter(range(scheme.num_rows))

        class RankByRank:
            def randrange(self, stop):
                assert stop == scheme.num_rows
                return next(ranks)

        monkeypatch.setattr(engine.random, "SystemRandom", RankByRank)
        ells = [
            query_gen(scheme, 0, seed=None)[1].ell for _ in range(scheme.num_rows)
        ]
        assert sorted(ells) == sorted(scheme.enumerate_randomness())

    def test_no_seed_ignores_the_global_random_state(self):
        # A fallback to the global or any seeded generator would repeat ell
        # here; the operating system's draws repeat with probability 1/N.
        scheme = build_lagrange(65536, 1, 3, 13)
        ells = []
        for _ in range(2):
            random.seed(2024)
            ells.append(query_gen(scheme, 0, seed=None)[1].ell)
        assert ells[0] != ells[1]


class TestAnswer:
    def test_zero_database(self):
        scheme = toy_instance()
        assert answer(scheme, (0, 0), (1, 2)) == (0,)

    def test_single_bit(self):
        scheme = toy_instance()
        # alpha_0 projects the first coordinate.
        assert answer(scheme, (1, 0), (1, 2)) == (1,)

    def test_linearity(self):
        scheme = toy_instance()
        for q in ((0, 0), (1, 2), (2, 1)):
            both = answer(scheme, (1, 1), q)
            first = answer(scheme, (1, 0), q)
            second = answer(scheme, (0, 1), q)
            assert both[0] == (first[0] + second[0]) % 3

    def test_malformed_query(self):
        with pytest.raises(MalformedQuery):
            answer(toy_instance(), (1, 0), (3, 0))

    @pytest.mark.parametrize(
        "scheme", [build_lagrange(10, 1, 3, 5), build_named("cgks", {"n": 8})],
        ids=["lagrange", "cgks"],
    )
    def test_float_query_is_malformed(self, scheme):
        # Neither a non-field answer nor a kernel's bare TypeError.
        query = (1.5,) * scheme.level_codec.count
        with pytest.raises(MalformedQuery, match="must be an integer"):
            answer(scheme, (1,) * scheme.n, query)

    @pytest.mark.parametrize("entry", [2, -1, 0.5, None])
    @pytest.mark.parametrize("scheme", desk_schemes(), ids=lambda s: s.name)
    def test_every_scheme_rejects_non_bit_entries(self, scheme, entry):
        # An entry of 2 must not read as a set bit on any answer path.
        x = (entry,) + (0,) * (scheme.n - 1)
        queries, _ = query_gen(scheme, 0, seed=1)
        with pytest.raises(ParamError, match="must be bits"):
            answer(scheme, x, queries[0])
        with pytest.raises(ParamError, match="must be bits"):
            run_inprocess(scheme, x, 0, seed=1, check=False)

    def test_rejects_a_buffer_of_wider_integers(self):
        # bytes() copies a buffer's memory: these two bits are 16 bytes.
        with pytest.raises(ParamError, match="must be bits"):
            answer(toy_instance(), array("q", (1, 0)), (1, 2))


class TestReconstruct:
    def test_full_round_trip_exhaustive(self):
        scheme = toy_instance()
        for x in [(0, 0), (0, 1), (1, 0), (1, 1)]:
            for i in range(2):
                for ell in scheme.enumerate_randomness():
                    queries = scheme.row(i, ell)
                    answers = [answer(scheme, x, q) for q in queries]
                    assert reconstruct(scheme, Aux(i, ell), answers) == x[i]

    def test_zero_database_returns_zero(self):
        scheme = toy_instance()
        queries, aux = query_gen(scheme, 0, seed=1)
        answers = [answer(scheme, (0, 0), q) for q in queries]
        assert reconstruct(scheme, aux, answers) == 0

    def test_perturbed_answer_detected(self):
        scheme = toy_instance()
        wrong = 0
        inconsistent = 0
        for x in [(0, 0), (1, 0), (0, 1), (1, 1)]:
            for i in range(2):
                for ell in scheme.enumerate_randomness():
                    queries = scheme.row(i, ell)
                    answers = [answer(scheme, x, q) for q in queries]
                    answers[0] = ((answers[0][0] + 1) % 3,)
                    try:
                        got = reconstruct(scheme, Aux(i, ell), answers)
                    except InconsistentAnswer:
                        inconsistent += 1
                        continue
                    if got != x[i]:
                        wrong += 1
        # Every perturbation must be visible one way or the other.
        assert wrong + inconsistent == 4 * 2 * 9

    def test_wrong_answer_count(self):
        with pytest.raises(ParamError):
            reconstruct(toy_instance(), Aux(0, (0,)), [(1,)])

    def test_combine_rejects_short_lambda_block(self):
        # A lambda block one element short of its answer must not be paired
        # as if the missing element were zero.
        for scheme in desk_schemes():
            queries, aux = query_gen(scheme, 0, seed=3)
            answers = [answer(scheme, (1,) * scheme.n, q) for q in queries]
            lam, omega = scheme.recon(aux.i, aux.ell)
            assert engine.combine(scheme.ring, lam, answers) == omega
            short = (lam[0][:-1], *lam[1:])
            with pytest.raises(DimensionMismatch):
                engine.combine(scheme.ring, short, answers)


class TestCommCost:
    def test_toy_cost(self):
        cost = comm_cost(toy_instance())
        assert cost.raw_bits == pytest.approx(2 * 3 * math.log2(3))
        assert cost.payload_bytes == 2 * (1 + 1)

    def test_degenerate_one_server_formula(self):
        cost = CommCost(
            k=1, level_raw_bits=1.0, answer_raw_bits=1.0, level_bytes=1, answer_bytes=1
        )
        assert cost.raw_bits == 2

    def test_wire_widths_round_up_once(self):
        # The deployments perfbench runs, with their payload per retrieval;
        # lagrange also in one column, through the least h with C(h, 2) >= n.
        deployments = [
            ("cgks", {"n": 8192}, 32),
            ("lagrange", {"n": 65536, "t": 1, "k": 3, "p": 13}, 138),
            ("lagrange", {"n": 65536, "t": 1, "k": 3, "p": 13, "h": 363}, 507),
            ("cgks", {"n": 64}, 8),
            ("hermite", {"n": 64, "t": 1, "k": 2, "p": 5}, 12),
            ("dvir-gopi", {"m": 6, "n": 3}, 18),
            ("gks", {"m": 2, "p": 3, "n": 3}, 4),
        ]
        schemes = [build_named(name, params) for name, params, _ in deployments]
        desk = desk_schemes()
        for scheme in schemes + desk:
            for codec in (scheme.level_codec, scheme.answer_codec):
                assert 0 <= 8 * codec.nbytes - codec.raw_bits < 8, scheme.name
        assert [comm_cost(s).payload_bytes for s in schemes] == [
            payload for _, _, payload in deployments
        ]
        desk_payloads = [comm_cost(s).payload_bytes for s in desk]
        assert desk_payloads == [4, 4, 6, 8, 9, 9, 8, 18, 4]
        assert sum(desk_payloads) == 70

    def test_scheme_requires_t_below_k(self):
        scheme = toy_instance()
        fields = {
            f.name: getattr(scheme, f.name)
            for f in dataclasses.fields(scheme)
            if f.init
        }
        with pytest.raises(ParamError):
            type(scheme)(**{**fields, "t": 2})
