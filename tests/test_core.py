"""Key expansion, the block loop, segmentation, and the MAC itself."""

import importlib
import io
import pickle
import random
from array import array

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import spec_model as model
from maa32 import blocks, core, vectors
from maa32.blocks import ConditioningResult
from maa32.core import (
    MAX_MESSAGE_BLOCKS,
    MAX_MESSAGE_BYTES,
    Key,
    LoopState,
    MessageTooLong,
    PreludeOutput,
    coda,
    mac,
    mac_bytes,
    main_loop_step,
    make_message,
    prelude,
    process_segment,
    segment,
)

u32 = st.integers(min_value=0, max_value=0xFFFFFFFF)
keys = st.builds(Key, u32, u32)


def block_lists(max_size):
    """Lists of blocks with a length drawn evenly from 0 to max_size.

    A plain list strategy rarely draws past a few dozen elements, so it
    would seldom reach a second segment or wrap the E table's period.
    """
    return st.integers(0, max_size).flatmap(lambda n: st.lists(u32, min_size=n, max_size=n))


# Keys with a 00 or FF byte take the conditioned prelude; clean keys do not.
_key_bytes = st.sampled_from([0x00, 0xFF]) | st.integers(1, 254)
dirty_keys = st.lists(_key_bytes, min_size=8, max_size=8).map(
    lambda raw: Key(int.from_bytes(bytes(raw[:4]), "big"), int.from_bytes(bytes(raw[4:]), "big"))
)
mixed_keys = keys | dirty_keys

# Byte lengths at and around the ends of the first segments (1024 bytes each).
EDGE_LENGTHS = [
    *range(0, 4),
    *range(1021, 1030),
    *range(2045, 2054),
    *range(4093, 4100),
]
edge_messages = st.sampled_from(EDGE_LENGTHS).flatmap(
    lambda n: st.binary(min_size=n, max_size=n)
)


def stepwise_mac(key, data):
    """The MAC by the spec's steps: pad, split, fold main_loop_step, coda, chain.

    The key is expanded afresh, so no cache is shared with the engine.
    """
    data = data + bytes(-len(data) % 4)
    message = [int.from_bytes(data[i : i + 4], "big") for i in range(0, len(data), 4)]
    pre = core._cached_prelude.__wrapped__(*key)
    z = None
    for start in range(0, max(len(message), 1), 256):
        unit = ([] if z is None else [z]) + message[start : start + 256]
        z = coda(fold(pre, unit), pre.w, pre.s, pre.t)
    return z


def unpack(data):
    """The engine's bytes-to-blocks packing, as a list."""
    return list(core._unpack_blocks(data))


def expansion(key):
    """H4..H9 as the engine forms them: BYT of the key, then Q = (1 + P)**2."""
    j, k, pattern = blocks.byt_pat(*key)
    return core._expand(j, k, (1 + pattern) ** 2)


def fold(pre, unit):
    """The loop state after main_loop_step over unit from the prelude seeds."""
    state = LoopState(pre.x0, pre.y0, pre.v0)
    for m in unit:
        state = main_loop_step(state, pre.w, m)
    return state


# The key the algorithm's published end-to-end test data uses.
STANDARD_KEY = Key(0xE6A12F07, 0x9D15C437)

# The standard's expansion test: conditioned key words J1 = 00000100 and
# K1 = 00000080 with the pattern P = 1, so Q = (1 + P)**2 = 4.
EXPANSION_TEST = (0x00000100, 0x00000080, 4)


class TestPadMessage:
    """Bytes to blocks with zero fill, as core._unpack_blocks packs them."""

    def test_empty(self):
        assert unpack(b"") == []

    def test_single_byte(self):
        assert unpack(b"A") == [0x41000000]

    def test_published_prefix(self):
        data = bytes.fromhex("42450A0A2020204361726566756C")
        assert unpack(data) == [0x42450A0A, 0x20202043, 0x61726566, 0x756C0000]

    @given(st.binary(max_size=64))
    def test_block_count_and_range(self, data):
        out = unpack(data)
        assert len(out) == (len(data) + 3) // 4
        assert all(0 <= b <= 0xFFFFFFFF for b in out)

    @given(st.binary(max_size=64))
    def test_padding_is_zero_fill(self, data):
        out = unpack(data)
        rendered = b"".join(b.to_bytes(4, "big") for b in out)
        assert rendered[: len(data)] == data
        assert all(c == 0 for c in rendered[len(data) :])


class TestMakeMessage:
    def test_examples(self):
        assert make_message(0) == []
        assert make_message(3) == [0x9E3779B9, 0x3C6EF372, 0xDAA66D2B]

    def test_deterministic_prefix_property(self):
        assert make_message(600)[:3] == make_message(3)

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            make_message(-1)


class TestPrelude:
    def test_published_expansion_of_degenerate_key(self):
        h = core._expand(*EXPANSION_TEST)
        assert h == (0x00000003, 0x00000060, 0x00030000, 0x00060000, 0x00000005, 0x80000002)

    def test_published_working_values_of_degenerate_key(self):
        h = core._expand(*EXPANSION_TEST)
        p = [w for i in (0, 2, 4) for w in blocks.byt_pat(h[i], h[i + 1])[:2]]
        assert p == [0x01030703, 0x1D3B7760, 0x0103050B, 0x17065DBB, 0x01030705, 0x80397302]

    @given(keys)
    def test_conditioning_identities(self, key):
        h4, h5, h6, h7, h8, h9 = expansion(key)
        p = prelude(key)
        assert (p.x0, p.y0) == blocks.byt_pat(h4, h5)[:2]
        assert (p.v0, p.w) == blocks.byt_pat(h6, h7)[:2]
        assert (p.s, p.t) == blocks.byt_pat(h8, h9)[:2]

    @given(keys)
    def test_pure(self, key):
        assert prelude(key) == prelude(key)

    @given(mixed_keys)
    @settings(max_examples=200)
    def test_power_combination_structure(self, key):
        # Rebuild the expansion from the primitives: BYT of the key gives
        # the conditioned words and the pattern P; even powers of the
        # first word, odd powers of the second, each under both moduli,
        # XOR-combined, with the fifth power multiplied by (1 + P)**2.
        j, k, pattern = blocks.byt_pat(*key)
        h = core._expand(j, k, (1 + pattern) ** 2)

        def chain(mul, base):
            p2 = mul(base, base)
            p4 = mul(p2, p2)
            p5 = mul(p4, base)
            p7 = mul(p5, p2)
            return {4: p4, 5: p5, 6: mul(p4, p2), 7: p7, 8: mul(p4, p4), 9: mul(p7, p2)}

        c1, c2 = chain(blocks.mul1, j), chain(blocks.mul2, j)
        d1, d2 = chain(blocks.mul1, k), chain(blocks.mul2, k)
        assert h == (
            c1[4] ^ c2[4],
            blocks.mul2(d1[5] ^ d2[5], (1 + pattern) ** 2),
            c1[6] ^ c2[6],
            d1[7] ^ d2[7],
            c1[8] ^ c2[8],
            d1[9] ^ d2[9],
        )

    def test_clean_key_takes_fifth_power_combination_unscaled(self):
        j, k = STANDARD_KEY
        assert blocks.byt_pat(j, k).pattern == 0  # no byte is 00 or FF
        k2_1 = blocks.mul1(k, k)
        k5_1 = blocks.mul1(blocks.mul1(k2_1, k2_1), k)
        k2_2 = blocks.mul2(k, k)
        k5_2 = blocks.mul2(blocks.mul2(k2_2, k2_2), k)
        assert expansion(STANDARD_KEY)[1] == k5_1 ^ k5_2

    def test_rejects_out_of_range_key(self):
        with pytest.raises(ValueError, match="key word"):
            prelude(Key(2**32, 0))

    @pytest.mark.parametrize(
        "bad", [Key(1.0, 2), Key(True, 2), Key(1, 2.0), Key(1, True), Key("1", 2)]
    )
    def test_rejects_non_int_key_words_even_when_an_equal_key_is_cached(self, bad):
        # 1.0 and True hash and compare equal to 1, so a cache keyed on
        # them could hand back Key(1, 2)'s prelude.
        prelude(Key(1, 2))
        with pytest.raises(ValueError, match="key word"):
            prelude(bad)
        with pytest.raises(ValueError, match="key word"):
            mac_bytes(bad, b"abcd")

    @pytest.mark.parametrize("bad", [Key([1], 2), Key(1, {2})])
    def test_rejects_unhashable_key_words(self, bad):
        # The cache cannot look such a word up; it is refused all the same.
        with pytest.raises(ValueError):
            prelude(bad)
        with pytest.raises(ValueError):
            mac_bytes(bad, b"abcd")

    @given(mixed_keys)
    def test_cached_result_equals_a_fresh_expansion(self, key):
        prelude(key)
        assert prelude(key) == core._cached_prelude.__wrapped__(*key)


def reference_expansion(j, k):
    """The key's expansion, its working values and its E table, rebuilt
    from the spec model and a cyc loop.

    Along the model's PRELUDE: BYT of the key, then Q = (1 + P)**2, then
    EXPANSION, which walks the standard's power chain one multiplication
    at a time, so this shares no code with the expansion a cache miss
    runs.
    """
    j1, k1, pattern = model.BYT(j, k)
    h = model.EXPANSION(j1, k1, (1 + pattern) ** 2)
    pre = tuple(w for i in (0, 2, 4) for w in model.BYT(h[i], h[i + 1])[:2])
    return h, pre, reference_e_table(pre[2], pre[3])


def reference_e_table(v0, w):
    """rot(V0, i) ^ W for i = 1..288, one cyc at a time."""
    table = []
    v = v0
    for _ in range(288):
        v = blocks.cyc(v)
        table.append(v ^ w)
    return tuple(table)


# Words at the edges of both moduli and of the 00/FF byte rule.
EDGE_WORDS = [
    0, 1, 2, 0x7FFFFFFF, 0x80000000, 0xFFFFFFFD, 0xFFFFFFFE, 0xFFFFFFFF, 0x00FF00FF, 0xFF00FF00,
]
# Keys whose bytes are often 00, 01, FE or FF.
_corner_key_bytes = st.sampled_from([0x00, 0x01, 0xFE, 0xFF]) | st.integers(0, 255)
corner_keys = st.lists(_corner_key_bytes, min_size=8, max_size=8).map(
    lambda raw: Key(int.from_bytes(bytes(raw[:4]), "big"), int.from_bytes(bytes(raw[4:]), "big"))
)


class TestKeyExpansionMiss:
    """What a cache miss builds, against reference_expansion."""

    @staticmethod
    def check(j, k):
        h, pre, table = reference_expansion(j, k)
        assert expansion(Key(j, k)) == h
        built = core._cached_prelude.__wrapped__(j, k)
        assert built == pre
        assert built.e_table == core._e_table(pre[2], pre[3]) == table
        # Raw words as V0 and W too, which conditioning never leaves.
        assert core._e_table(j, k) == reference_e_table(j, k)

    @pytest.mark.parametrize("j", EDGE_WORDS)
    @pytest.mark.parametrize("k", EDGE_WORDS)
    def test_edge_word_pairs(self, j, k):
        self.check(j, k)

    @given(corner_keys | keys)
    @settings(max_examples=300)
    def test_keys_with_corner_bytes(self, key):
        self.check(*key)


class TestMainLoop:
    def test_all_zero_state_is_fixed(self):
        assert main_loop_step(LoopState(0, 0, 0), 0, 0) == LoopState(0, 0, 0)

    def test_unit_x_picks_up_fix1_floor(self):
        # mul1(1, fix1(0)) is just the forced bit mask.
        out = main_loop_step(LoopState(1, 0, 0), 0, 0)
        assert out == LoopState(0x02040801, 0, 0)

    @given(u32, u32, u32, u32, u32)
    def test_both_updates_read_the_words_xored_with_m(self, x, y, v, w, m):
        # ISO 8731-2 XORs M into X and into Y first, then forms
        # F = E + (Y ^ M) and G = E + (X ^ M), both before either product:
        # the Y update never reads the new X.
        out = main_loop_step(LoopState(x, y, v), w, m)
        v2 = blocks.cyc(v)
        e = v2 ^ w
        x2 = blocks.mul1(x ^ m, blocks.fix1((e + (y ^ m)) & 0xFFFFFFFF))
        y2 = blocks.mul2a(y ^ m, blocks.fix2((e + (x ^ m)) & 0xFFFFFFFF))
        assert out == LoopState(x2, y2, v2)
        assert tuple(out) == model.MAIN_LOOP(x, y, v, w, m)

    @given(u32, u32, u32, u32, u32)
    def test_y_stays_congruent_despite_cheap_multiply(self, x, y, v, w, m):
        # The in-loop mul2a is only valid because fix2 bounds one operand:
        # G, formed from E and X ^ M.
        out = main_loop_step(LoopState(x, y, v), w, m)
        e = blocks.cyc(v) ^ w
        g = blocks.fix2((e + (x ^ m)) & 0xFFFFFFFF)
        assert g < 2**31
        assert out.y % (2**32 - 2) == (y ^ m) * g % (2**32 - 2)


class TestProcessSegment:
    # Up to a full chained unit, so the kernel's walk over the E table
    # wraps its 32-entry period (the coda takes two entries more).
    @given(keys, block_lists(257))
    @settings(max_examples=200)
    def test_equals_stepwise_fold(self, key, message_blocks):
        pre = prelude(key)
        state = LoopState(pre.x0, pre.y0, pre.v0)
        for m in message_blocks:
            state = main_loop_step(state, pre.w, m)
        assert process_segment(pre, message_blocks) == coda(state, pre.w, pre.s, pre.t)

    @pytest.mark.parametrize("key", [STANDARD_KEY, Key(0x80018001, 0x80018000)])
    @pytest.mark.parametrize("n", [31, 32, 33, 63, 64, 65, 256, 257])
    def test_equals_stepwise_fold_around_the_e_period(self, key, n):
        pre = prelude(key)
        rng = random.Random(n)
        unit = [rng.getrandbits(32) for _ in range(n)]
        assert process_segment(pre, unit) == coda(fold(pre, unit), pre.w, pre.s, pre.t)

    @given(keys)
    def test_empty_segment_is_coda_of_seeds(self, key):
        pre = prelude(key)
        assert process_segment(pre, []) == coda(
            LoopState(pre.x0, pre.y0, pre.v0), pre.w, pre.s, pre.t
        )

    def test_rejects_oversized_unit(self):
        pre = prelude(STANDARD_KEY)
        with pytest.raises(ValueError, match="^segment unit longer than 257 blocks$"):
            process_segment(pre, [0] * 258)
        process_segment(pre, [0] * 257)  # chaining block + full segment is fine


class TestKernelRepresentatives:
    """The kernel's folds where a product is 0 or a nonzero multiple of its modulus.

    The block at a chosen position of a unit is set so that X ^ M is 0
    (product 0, so X becomes 0) or 0xFFFFFFFF (product congruent to 0 but
    not 0, so X becomes 0xFFFFFFFF), or so that Y ^ M is 0 (Y becomes 0)
    or 0xFFFFFFFE (Y becomes 0xFFFFFFFE), at positions on both sides of
    the E table's 32-block period and at the ends of full and chained units.
    """

    KEYS = [STANDARD_KEY, Key(0x80018001, 0x80018000)]  # clean, and with a 00 byte
    SPOTS = [(256, p) for p in (1, 31, 32, 33, 256)] + [
        (257, p) for p in (1, 31, 32, 33, 256, 257)
    ]
    # (field, target); the X cases keep the ids they had before Y had any.
    TARGETS = [
        pytest.param("x", 0, id="0"),
        pytest.param("x", 0xFFFFFFFF, id="4294967295"),
        pytest.param("y", 0, id="y-0"),
        pytest.param("y", 0xFFFFFFFE, id="y-4294967294"),
    ]

    @staticmethod
    def hit(pre, unit, position, field, target):
        """Set block `position` (1-based) so that X ^ M or Y ^ M == target there."""
        unit[position - 1] = getattr(fold(pre, unit[: position - 1]), field) ^ target
        assert getattr(fold(pre, unit[:position]), field) == target  # the case is reached

    @pytest.mark.parametrize("key", KEYS)
    @pytest.mark.parametrize("length, position", SPOTS)
    @pytest.mark.parametrize("field, target", TARGETS)
    def test_segment_equals_stepwise_fold(self, key, length, position, field, target):
        pre = prelude(key)
        rng = random.Random(length * 1000 + position)
        unit = [rng.getrandbits(32) for _ in range(length)]
        self.hit(pre, unit, position, field, target)
        assert process_segment(pre, unit) == coda(fold(pre, unit), pre.w, pre.s, pre.t)

    @pytest.mark.parametrize("key", KEYS)
    @pytest.mark.parametrize("position", [2, 31, 32, 33, 256, 257])
    @pytest.mark.parametrize("field, target", TARGETS)
    def test_chained_unit_through_mac(self, key, position, field, target):
        # The second unit is the first segment's result followed by the
        # next 256 blocks, so its first block is not chosen here.
        pre = prelude(key)
        rng = random.Random(position)
        message = [rng.getrandbits(32) for _ in range(512)]
        unit = [coda(fold(pre, message[:256]), pre.w, pre.s, pre.t), *message[256:]]
        self.hit(pre, unit, position, field, target)
        message[256:] = unit[1:]
        data = b"".join(m.to_bytes(4, "big") for m in message)
        want = coda(fold(pre, unit), pre.w, pre.s, pre.t)
        assert stepwise_mac(key, data) == want
        assert mac(key, message) == want
        assert mac_bytes(key, data) == want

    @pytest.mark.parametrize("length", [0, 1, 2, 33, 256, 257])
    def test_y_product_of_residue_one(self, length):
        """Y ^ M is G's inverse modulo 2**32 - 2, so Y becomes 0xFFFFFFFF.

        A key reaches this only through a search over 2**32 values of M,
        so the prelude is built instead: y0 is set from G = fix2(E1 + (x0 ^ M))
        for the first block M, which for an empty unit is the coda's S.
        """
        rng = random.Random(length)
        x0, v0, w, m, s, t = (rng.getrandbits(32) for _ in range(6))
        g = blocks.fix2(((blocks.cyc(v0) ^ w) + (x0 ^ m)) & blocks.MASK)
        y0 = pow(g, -1, 2**32 - 2) ^ m
        unit = [m, *(rng.getrandbits(32) for _ in range(length - 1))] if length else []
        pre = PreludeOutput(x0, y0, v0, w, s if length else m, t)
        assert fold(pre, [m]).y == 0xFFFFFFFF  # the case is reached
        assert process_segment(pre, unit) == coda(fold(pre, unit), pre.w, pre.s, pre.t)

    def test_y_product_of_residue_two(self):
        """Y ^ M is twice G's inverse modulo 2**32 - 2, so Y becomes 2, not 2**32.

        2 is the least residue the fold keeps as it is.  The prelude is the
        standard key's with y0 set from G = fix2(E1 + x0) for the one block 0.
        """
        pre = prelude(STANDARD_KEY)
        g = blocks.fix2((pre.e_table[0] + pre.x0) & blocks.MASK)
        y0 = 2 * pow(g, -1, 2**32 - 2) % (2**32 - 2)
        assert y0 == 0x03574ECC
        pre = pre._replace(y0=y0)
        assert fold(pre, [0]).y == 2  # the case is reached
        assert process_segment(pre, [0]) == 0x95E5F05A
        assert coda(fold(pre, [0]), pre.w, pre.s, pre.t) == 0x95E5F05A
        assert model.MAC(0, 0, [0], prelude=tuple(pre)) == 0x95E5F05A


class TestKeyCaches:
    """One cache holds each key's schedule: its prelude and its E table."""

    def test_core_has_one_cache(self):
        cached = [name for name, value in vars(core).items() if hasattr(value, "cache_info")]
        assert cached == ["_cached_prelude"]
        assert core._cached_prelude.cache_parameters()["maxsize"] == core.PRELUDE_CACHE_SIZE

    def test_macs_stay_exact_when_keys_are_evicted_and_reused(self):
        # More distinct keys than the cache holds (one in four with a
        # 00 or FF byte), then the first key again, which was evicted.
        rng = random.Random(8)
        keys = [
            Key(rng.getrandbits(32) & (0xFFFFFFFF if i % 4 else 0xFFFF00FF), rng.getrandbits(32))
            for i in range(core.PRELUDE_CACHE_SIZE + 8)
        ]
        data = bytes(rng.getrandbits(8) for _ in range(1100))  # two segments
        first = prelude(keys[0])
        for key in keys:
            assert mac_bytes(key, data) == stepwise_mac(key, data)
        info = core._cached_prelude.cache_info()
        assert info.currsize == core.PRELUDE_CACHE_SIZE
        assert mac_bytes(keys[0], data) == stepwise_mac(keys[0], data)
        assert mac(keys[0], unpack(data)) == stepwise_mac(keys[0], data)
        assert core._cached_prelude.cache_info().misses == info.misses + 1
        rebuilt = prelude(keys[0])
        assert rebuilt == first and rebuilt is not first
        assert rebuilt.e_table == reference_e_table(rebuilt.v0, rebuilt.w)

    def test_e_table_is_an_immutable_tuple(self):
        pre = prelude(STANDARD_KEY)
        table = pre.e_table
        assert type(table) is tuple
        assert len(table) >= 257 + 2  # a chained unit and its coda
        v = pre.v0
        for e in table:
            v = blocks.cyc(v)
            assert e == v ^ pre.w


# Six working values with no 00 or FF byte and six with many.
SIX_WORDS = [
    (0x01234567, 0x89ABCDEF, 0x13579BDF, 0x2468ACE1, 0x0F1E2D3C, 0x4B5A6978),
    (0, 0xFFFFFFFF, 0x80000000, 0x7FFFFFFF, 0x00FF00FF, 0xFF00FF00),
]


class TestKeySchedule:
    """PreludeOutput carries its E table: stored by a cache miss, or built on first use."""

    @given(mixed_keys)
    def test_cached_prelude_keeps_one_table(self, key):
        assert prelude(key).e_table is prelude(key).e_table

    @pytest.mark.parametrize("six", SIX_WORDS)
    def test_hand_built_prelude_builds_its_table(self, six):
        pre = PreludeOutput(*six)
        assert pre.e_table == reference_e_table(pre.v0, pre.w)
        assert pre.e_table is pre.e_table

    @pytest.mark.parametrize("six", SIX_WORDS)
    def test_replace_builds_the_table_of_the_new_words(self, six):
        pre = prelude(STANDARD_KEY)
        moved = pre._replace(v0=six[2], w=six[3])
        assert moved.e_table == reference_e_table(six[2], six[3])
        assert pre.e_table == reference_e_table(pre.v0, pre.w)

    @given(st.tuples(u32, u32, u32, u32, u32, u32), block_lists(257))
    @settings(max_examples=50)
    def test_process_segment_on_a_hand_built_prelude(self, six, unit):
        pre = PreludeOutput(*six)
        assert process_segment(pre, unit) == coda(fold(pre, unit), pre.w, pre.s, pre.t)


# Each record type, its defining module, and the repr of the record 1, 2, ...
RECORDS = [
    (Key, "maa32.core", "Key(first=1, second=2)"),
    (LoopState, "maa32.core", "LoopState(x=1, y=2, v=3)"),
    (ConditioningResult, "maa32.blocks", "ConditioningResult(first=1, second=2, pattern=3)"),
    (PreludeOutput, "maa32.core", "PreludeOutput(x0=1, y0=2, v0=3, w=4, s=5, t=6)"),
    (vectors.InlineHex, "maa32.vectors", "InlineHex(data=1)"),
    (vectors.FileRef, "maa32.vectors", "FileRef(path=1)"),
    (vectors.Generated, "maa32.vectors", "Generated(n_blocks=1)"),
    (vectors.Repeated, "maa32.vectors", "Repeated(inner=1, count=2)"),
    (vectors.ExpectMac, "maa32.vectors", "ExpectMac(value=1)"),
    (vectors.ExpectPrelude, "maa32.vectors", "ExpectPrelude(values=1)"),
    (vectors.ExpectConditioning, "maa32.vectors", "ExpectConditioning(inputs=1, result=2)"),
    (vectors.ExpectTrace, "maa32.vectors", "ExpectTrace(text=1, path=2)"),
    (vectors.VectorCase, "maa32.vectors", "VectorCase(name=1, key=2, source=3, expect=4)"),
    (vectors.VectorResult, "maa32.vectors", "VectorResult(name=1, status=2, detail=3)"),
    (vectors.VectorReport, "maa32.vectors", "VectorReport(results=1)"),
    (vectors.MacTrace, "maa32.vectors", "MacTrace(text=1, mac=2)"),
]
records = pytest.mark.parametrize(
    "cls, module, text", RECORDS, ids=[cls.__name__ for cls, _, _ in RECORDS]
)


def numbered(cls):
    """The record 1, 2, ... of cls, and its values as a plain tuple."""
    values = tuple(range(1, len(cls._fields) + 1))
    return cls(*values), values


class TestPreludeOutputTuple:
    """PreludeOutput stays a six-field named tuple, compared with plain 6-tuples.

    Key, LoopState, ConditioningResult and the twelve vector records keep
    the same record contract.
    """

    @records
    def test_record_fields_and_repr(self, cls, module, text):
        record, values = numbered(cls)
        assert repr(record) == text
        fields = ", ".join("%s=%d" % pair for pair in zip(cls._fields, values))
        assert text == "%s(%s)" % (cls.__name__, fields)
        assert cls(**record._asdict()) == record

    @records
    def test_record_equals_and_hashes_as_a_plain_tuple(self, cls, module, text):
        record, values = numbered(cls)
        assert record == values and values == record
        assert hash(record) == hash(values)
        if len(values) > 1:  # a one-field record has no other order
            assert record != values[::-1]

    @records
    def test_record_replace(self, cls, module, text):
        record, values = numbered(cls)
        moved = record._replace(**{cls._fields[-1]: 0})
        assert type(moved) is cls
        assert moved == (*values[:-1], 0)
        assert record == values

    @records
    @pytest.mark.parametrize("protocol", range(pickle.HIGHEST_PROTOCOL + 1))
    def test_record_pickle_round_trip(self, cls, module, text, protocol):
        record, _ = numbered(cls)
        back = pickle.loads(pickle.dumps(record, protocol))
        assert type(back) is cls
        assert back == record

    @records
    def test_record_module(self, cls, module, text):
        assert cls.__module__ == module
        assert getattr(importlib.import_module(module), cls.__name__) is cls

    @pytest.mark.parametrize("key", [STANDARD_KEY, Key(0, 0xFFFFFFFF)])
    def test_equals_and_hashes_as_a_plain_tuple(self, key):
        pre = prelude(key)
        assert pre == tuple(pre) and tuple(pre) == pre
        assert hash(pre) == hash(tuple(pre))
        assert pre == PreludeOutput(*pre)

    @pytest.mark.parametrize("protocol", range(pickle.HIGHEST_PROTOCOL + 1))
    @pytest.mark.parametrize("cached", [True, False], ids=["cached", "hand-built"])
    def test_pickle_round_trip(self, protocol, cached):
        pre = prelude(STANDARD_KEY) if cached else PreludeOutput(*SIX_WORDS[1])
        back = pickle.loads(pickle.dumps(pre, protocol))
        assert type(back) is PreludeOutput
        assert back == pre
        assert back.e_table == reference_e_table(pre.v0, pre.w)


class TestSegment:
    def test_examples(self):
        assert segment([]) == [[]]
        assert [len(s) for s in segment(make_message(600))] == [256, 256, 88]
        assert [len(s) for s in segment(make_message(256))] == [256]
        assert [len(s) for s in segment(make_message(257))] == [256, 1]

    @given(block_lists(700))
    def test_partition(self, message_blocks):
        segs = segment(message_blocks)
        joined = [b for s in segs for b in s]
        assert joined == message_blocks
        assert all(len(s) <= 256 for s in segs)
        for s in segs[:-1]:
            assert len(s) == 256

    @pytest.mark.parametrize("n", [0, 1, 255, 256, 257, 511, 512, 513, 600])
    def test_every_segment_source_cuts_the_same_way(self, n):
        # Full segments, then the rest if any; no blocks is one empty segment.
        lengths = [256] * (n // 256) + ([n % 256] if n % 256 or not n else [])
        message = make_message(n)
        want = [tuple(s) for s in segment(message)]
        assert [len(s) for s in want] == lengths
        assert list(core._message_segments(n)) == want
        assert list(core._block_segments(message)) == want
        assert list(core._block_segments(iter(message))) == want
        data = b"".join(m.to_bytes(4, "big") for m in message)
        assert list(core._read_segments(io.BytesIO(data))) == want

    def test_generator_segments_check_the_count_at_the_call(self):
        with pytest.raises(ValueError):
            core._message_segments(-1)


class TestMac:
    @pytest.mark.parametrize("n", [0, 1, 4, 255, 256])
    def test_short_messages_are_single_segment(self, n):
        msg = make_message(n)
        assert mac(STANDARD_KEY, msg) == process_segment(prelude(STANDARD_KEY), msg)

    @pytest.mark.parametrize("n", [257, 300, 600])
    def test_long_messages_chain_segments(self, n):
        msg = make_message(n)
        pre = prelude(STANDARD_KEY)
        segs = segment(msg)
        z = process_segment(pre, segs[0])
        for s in segs[1:]:
            z = process_segment(pre, [z] + s)
        assert mac(STANDARD_KEY, msg) == z

    def test_recomputing_prelude_per_segment_changes_nothing(self):
        msg = make_message(600)
        segs = segment(msg)
        z = process_segment(prelude(STANDARD_KEY), segs[0])
        for s in segs[1:]:
            z = process_segment(prelude(STANDARD_KEY), [z] + s)
        assert z == mac(STANDARD_KEY, msg)

    def test_iterator_input_matches_list_input(self):
        msg = make_message(300)
        assert mac(STANDARD_KEY, iter(msg)) == mac(STANDARD_KEY, msg)

    @pytest.mark.parametrize("n", [1, 4, 255, 256, 257, 300, 600])
    def test_padding_collision(self, n):
        # Zero bytes added to reach the block boundary are invisible:
        # a message whose last block ends in zero bytes collides with
        # its truncation.
        msg = make_message(n)
        full = b"".join(b.to_bytes(4, "big") for b in msg[:-1])
        full += (msg[-1] & 0xFFFFFF00).to_bytes(4, "big")
        assert mac_bytes(STANDARD_KEY, full) == mac_bytes(STANDARD_KEY, full[:-1])

    def test_empty_message_accepted(self):
        assert 0 <= mac(STANDARD_KEY, []) <= 0xFFFFFFFF
        assert mac_bytes(STANDARD_KEY, b"") == mac(STANDARD_KEY, [])

    def test_exactly_one_million_blocks_rejected_fast(self):
        with pytest.raises(MessageTooLong):
            mac(STANDARD_KEY, make_message(1_000_000))

    def test_streaming_input_rejected_at_the_limit(self):
        def stream():
            for _ in range(1_000_000):
                yield 0

        with pytest.raises(MessageTooLong):
            mac(STANDARD_KEY, stream())

    def test_just_under_the_limit_is_legal_shape(self):
        # Not run at full size here (the bench covers speed); the limit
        # check itself is what matters.
        assert mac(STANDARD_KEY, make_message(999)) == mac(
            STANDARD_KEY, iter(make_message(999))
        )

    def test_rejects_out_of_range_blocks(self):
        for message in ([2**32], [0, 2**32]):  # exactly 2**32, alone and after a block
            with pytest.raises(ValueError, match="^block out of 32-bit range: 4294967296$"):
                mac(STANDARD_KEY, message)

    @pytest.mark.parametrize("bad", [1.0, True, -1, "1", None])
    def test_rejects_non_int_blocks(self, bad):
        for message in ([0, bad], iter([0, bad]), [0] * 300 + [bad]):
            with pytest.raises(ValueError):
                mac(STANDARD_KEY, message)

    def test_byte_cap_is_the_block_cap(self):
        # The longest accepted byte input pads to one block under the cap.
        assert (MAX_MESSAGE_BYTES + 3) // 4 == MAX_MESSAGE_BLOCKS - 1
        assert (MAX_MESSAGE_BYTES + 1 + 3) // 4 == MAX_MESSAGE_BLOCKS

    def test_bytes_over_the_cap_rejected_up_front(self):
        # The refusal comes before the key is expanded.
        with pytest.raises(MessageTooLong):
            mac_bytes(Key(1.0, 2), bytes(MAX_MESSAGE_BYTES + 1))
        # Counted in bytes, not items: 600,000 eight-byte items are 4,800,000 bytes.
        with pytest.raises(MessageTooLong, match="message has 4800000 bytes"):
            mac_bytes(Key(1.0, 2), array("Q", bytes(4_800_000)))

    def test_multibyte_items_are_authenticated_as_their_bytes(self):
        data = bytes(range(256)) * 5
        assert mac_bytes(STANDARD_KEY, memoryview(data).cast("Q")) == mac_bytes(STANDARD_KEY, data)

    @pytest.mark.parametrize("step", [2, -1])
    def test_a_strided_buffer_is_authenticated_as_its_bytes_in_c_order(self, step):
        view = memoryview(bytes(range(256)) * 5)[::step]
        assert not view.c_contiguous
        assert mac_bytes(STANDARD_KEY, view) == mac_bytes(STANDARD_KEY, view.tobytes())

    def test_key_sensitivity(self):
        msg = make_message(10)
        assert mac(STANDARD_KEY, msg) != mac(Key(0xE6A12F07, 0x9D15C436), msg)

    def test_mac_bytes_calls_prelude_and_kernel_through_module_globals(self, monkeypatch):
        # Tools that time the layers (the traced benchmark run among them)
        # wrap core.prelude and core.process_segment at these names.
        calls = {"prelude": 0, "process_segment": 0}

        def counting(name, fn):
            def wrapper(*args):
                calls[name] += 1
                return fn(*args)

            return wrapper

        for name in calls:
            monkeypatch.setattr(core, name, counting(name, getattr(core, name)))
        data = bytes(range(256)) * 5  # two segments
        assert mac_bytes(STANDARD_KEY, data) == stepwise_mac(STANDARD_KEY, data)
        assert calls == {"prelude": 1, "process_segment": 2}


class TestSegmentPaths:
    """mac_bytes, mac on a list and mac on a generator against the stepwise fold."""

    @given(mixed_keys, edge_messages)
    @settings(max_examples=150, deadline=None)
    def test_all_paths_equal_stepwise_fold(self, key, data):
        want = stepwise_mac(key, data)
        blocks_in = unpack(data)
        assert mac_bytes(key, data) == want
        assert mac_bytes(key, bytearray(data)) == want
        assert mac(key, blocks_in) == want
        assert mac(key, (m for m in blocks_in)) == want

    @pytest.mark.parametrize("n", EDGE_LENGTHS)
    def test_pad_message_matches_per_block_packing(self, n):
        data = bytes(range(256)) * 17
        data = data[:n]
        padded = data + bytes(-n % 4)
        assert unpack(data) == [
            int.from_bytes(padded[i : i + 4], "big") for i in range(0, len(padded), 4)
        ]
