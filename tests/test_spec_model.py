"""The spec model: pinned to the standard's published values, then set against the engine.

``spec_model`` is checked against published answers only, never against
outputs of this implementation.  It then serves as the reference for the
whole MAC: ``prelude`` must equal its PRELUDE, and ``mac``, ``mac_bytes``
and ``emit_trace`` its MAC, on clean keys (no 00 or FF byte), on keys
with 00 and FF bytes and on pairs of corner words, at lengths on both
sides of the segment boundaries, over messages of the edge blocks.
"""

import ast
import random
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import spec_model as model
from maa32.core import Key, mac, mac_bytes, prelude
from maa32.vectors import emit_trace
from test_blocks import CONDITIONING_VECTORS
from test_published import (
    BYT_TABLE,
    EXPANSION_RESULT,
    EXPANSION_TEST,
    MAIN_LOOP_KEY,
    MAIN_LOOP_ROWS,
    MAIN_LOOP_Z,
    MUL1_TABLE,
    MUL2_TABLE,
    MUL2A_TABLE,
    PRELUDES,
    ZERO_BLOCKS_KEY,
    ZERO_BLOCKS_MAC,
)

u32 = st.integers(min_value=0, max_value=0xFFFFFFFF)


def test_model_imports_nothing():
    tree = ast.parse(Path(model.__file__).read_text(encoding="utf-8"))
    assert not [node for node in ast.walk(tree) if isinstance(node, (ast.Import, ast.ImportFrom))]


class TestPublishedValues:
    @pytest.mark.parametrize(
        "function,table",
        [(model.MUL1, MUL1_TABLE), (model.MUL2, MUL2_TABLE), (model.MUL2A, MUL2A_TABLE)],
        ids=["MUL1", "MUL2", "MUL2A"],
    )
    def test_multiplication_tables(self, function, table):
        assert {pair: function(*pair) for pair in table} == table

    def test_byt_table_and_conditioning_triples(self):
        assert {pair: model.BYT(*pair) for pair in BYT_TABLE} == BYT_TABLE
        for pair, words, pattern in CONDITIONING_VECTORS:
            assert model.BYT(*pair) == (*words, pattern)

    def test_expansion_with_p_given(self):
        assert model.EXPANSION(*EXPANSION_TEST) == EXPANSION_RESULT

    @pytest.mark.parametrize("key", PRELUDES, ids="{0.first:08X}:{0.second:08X}".format)
    def test_prelude(self, key):
        assert model.PRELUDE(*key) == PRELUDES[key]

    def test_main_loop_rows(self):
        X, Y, V, W, _, _ = model.PRELUDE(*MAIN_LOOP_KEY)
        for M, x, y in MAIN_LOOP_ROWS:
            X, Y, V = model.MAIN_LOOP(X, Y, V, W, M)
            assert (X, Y) == (x, y), "block %08X" % M
        assert model.MAC(*MAIN_LOOP_KEY, [m for m, _, _ in MAIN_LOOP_ROWS[:2]]) == MAIN_LOOP_Z

    def test_mac_of_twenty_zero_blocks(self):
        assert model.MAC(*ZERO_BLOCKS_KEY, [0] * 20) == ZERO_BLOCKS_MAC


# A once-over of the model's arithmetic against plain integers.


def test_add_car_examples():
    assert model.ADD(0xFFFFFFFF, 0x00000001) == 0
    assert model.CAR(0xFFFFFFFF, 0x00000001) == 1
    assert model.ADD(0x7FFFFFFF, 0x00000001) == 0x80000000
    assert model.CAR(0x7FFFFFFF, 0x00000001) == 0


@given(u32, u32)
def test_add_car_recover_exact_sum(x, y):
    assert (model.CAR(x, y) << 32) + model.ADD(x, y) == x + y
    assert model.CAR(x, y) in (0, 1)


def test_product_halves_examples():
    for x, y, halves in [
        (0, 0, (0, 0)),
        (0xFFFFFFFF, 0xFFFFFFFF, (0xFFFFFFFE, 0x00000001)),
        (0x10000, 0x10000, (1, 0)),
    ]:
        assert (model.HIGH_MUL(x, y), model.LOW_MUL(x, y)) == halves


@given(u32, u32)
def test_product_halves_reconstruct_exact_product(x, y):
    high, low = model.HIGH_MUL(x, y), model.LOW_MUL(x, y)
    assert 0 <= high <= 0xFFFFFFFF and 0 <= low <= 0xFFFFFFFF
    assert (high << 32) | low == x * y


@given(u32, u32)
def test_multiplications_are_congruent_to_plain_remainders(x, y):
    assert model.MUL1(x, y) % (2**32 - 1) == x * y % (2**32 - 1)
    assert model.MUL2(x, y) % (2**32 - 2) == x * y % (2**32 - 2)
    assert 0 <= model.MUL1(x, y) <= 0xFFFFFFFF and 0 <= model.MUL2(x, y) <= 0xFFFFFFFF


# Model against engine.

CLEAN_KEYS = [Key(0xE6A12F07, 0x9D15C437), Key(0x55555555, 0x5A35D667), Key(0x7F80817E, 0x01FE0102)]
# Keys with 00 or FF bytes, which BYT conditions before the expansion.
DIRTY_KEYS = [
    MAIN_LOOP_KEY, ZERO_BLOCKS_KEY, Key(0x00000100, 0x00000080), Key(0xFF00FF00, 0x12FF3400),
]
# Words at the edges of both moduli and of the 00/FF byte rule.
CORNER_WORDS = [0, 1, 2, 0x7FFFFFFF, 0x80000000, 0xFFFFFFFE, 0xFFFFFFFF]
# Block counts on both sides of one and two whole segments.
LENGTHS = [0, 255, 256, 257, 511, 512, 513]
EDGE_BLOCKS = [0, 1, 0x80000000, 0xFFFFFFFE, 0xFFFFFFFF]

_clean_words = st.lists(st.integers(1, 254), min_size=4, max_size=4).map(
    lambda raw: int.from_bytes(bytes(raw), "big")
)
clean_keys = st.builds(Key, _clean_words, _clean_words)
_dirty_bytes = st.sampled_from([0x00, 0xFF]) | st.integers(0, 255)
_dirty_words = st.lists(_dirty_bytes, min_size=4, max_size=4).map(
    lambda raw: int.from_bytes(bytes(raw), "big")
)
dirty_keys = st.builds(Key, _dirty_words, _dirty_words)


def edge_message(n, seed):
    """n blocks, about half of them edge blocks and the rest random."""
    rng = random.Random(seed)
    return [rng.choice(EDGE_BLOCKS) if rng.random() < 0.5 else rng.getrandbits(32) for _ in range(n)]


def to_bytes(blocks):
    return b"".join(b.to_bytes(4, "big") for b in blocks)


def test_clean_keys_are_clean():
    assert all(model.PAT(*key) == 0 for key in CLEAN_KEYS)
    assert all(model.PAT(*key) != 0 for key in DIRTY_KEYS)


def assert_engine_equals_model(key, message):
    want = model.MAC(*key, message)
    assert mac(key, message) == want
    assert mac_bytes(key, to_bytes(message)) == want
    assert emit_trace(key, message).mac == want


class TestEngineEqualsModel:
    @pytest.mark.parametrize("key", CLEAN_KEYS, ids="{0.first:08X}:{0.second:08X}".format)
    @pytest.mark.parametrize("n", LENGTHS)
    def test_mac_mac_bytes_and_trace(self, key, n):
        assert_engine_equals_model(key, edge_message(n, seed=n))

    @pytest.mark.parametrize("key", DIRTY_KEYS, ids="{0.first:08X}:{0.second:08X}".format)
    @pytest.mark.parametrize("n", [0, 3, 257])
    def test_keys_with_00_or_ff_bytes(self, key, n):
        assert tuple(prelude(key)) == model.PRELUDE(*key)
        assert_engine_equals_model(key, edge_message(n, seed=n))

    @pytest.mark.parametrize("j", CORNER_WORDS, ids="{:08X}".format)
    @pytest.mark.parametrize("k", CORNER_WORDS, ids="{:08X}".format)
    def test_prelude_of_corner_word_pairs(self, j, k):
        assert tuple(prelude(Key(j, k))) == model.PRELUDE(j, k)

    def test_keys_of_degenerate_words_get_distinct_preludes(self):
        # The raw words 0, 1 and FFFFFFFF have degenerate powers under
        # both moduli; BYT's conditioned words and pattern set them apart.
        keys = [Key(0, 0), Key(0xFFFFFFFF, 0xFFFFFFFF), Key(0, 1)]
        preludes = [prelude(key) for key in keys]
        assert len(set(preludes)) == 3
        assert [tuple(p) for p in preludes] == [model.PRELUDE(*key) for key in keys]

    @given(dirty_keys, st.lists(st.sampled_from(EDGE_BLOCKS) | u32, max_size=12))
    @settings(max_examples=60, deadline=None)
    def test_random_keys_with_00_or_ff_bytes(self, key, message):
        assert tuple(prelude(key)) == model.PRELUDE(*key)
        assert_engine_equals_model(key, message)

    @pytest.mark.parametrize("block", EDGE_BLOCKS, ids="{:08X}".format)
    @pytest.mark.parametrize("n", LENGTHS)
    def test_messages_of_one_edge_block(self, block, n):
        assert_engine_equals_model(CLEAN_KEYS[0], [block] * n)

    @pytest.mark.parametrize("n", [1, 2, 3, 1021, 1023, 1025, 2047, 2049])
    def test_byte_lengths_that_pad(self, n):
        data = to_bytes(edge_message(n // 4 + 1, seed=n))[:n]
        for key in CLEAN_KEYS:
            assert mac_bytes(key, data) == model.MAC_BYTES(*key, data)

    @given(clean_keys, st.lists(st.sampled_from(EDGE_BLOCKS) | u32, max_size=40))
    @settings(max_examples=60, deadline=None)
    def test_random_clean_keys(self, key, message):
        assert_engine_equals_model(key, message)


class TestMainLoopOnEnginePrelude:
    """The main loop and the mode of operation alone, on keys of every kind.

    The model's MAC is fed the engine's prelude, so this checks the rest
    of the algorithm apart from the key expansion.
    """

    KEYS = [MAIN_LOOP_KEY, ZERO_BLOCKS_KEY, Key(0x00000100, 0x00000080), Key(0, 0)]

    @pytest.mark.parametrize("key", KEYS, ids="{0.first:08X}:{0.second:08X}".format)
    @pytest.mark.parametrize("n", [0, 3, 257, 513])
    def test_mac_equals_model_main_loop(self, key, n):
        message = edge_message(n, seed=n)
        assert mac(key, message) == model.MAC(*key, message, prelude=tuple(prelude(key)))
