"""Block primitives: known answers, then properties against the spec model.

``spec_model`` is ISO 8731-2 written out on plain integers; the
multiplications and the byte conditioning must return its representatives
exactly, and congruences are checked with plain ``%``.
"""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import spec_model as model
from maa32 import blocks
from maa32.blocks import (
    FIX1_KEEP,
    FIX1_SET,
    FIX2_KEEP,
    FIX2_SET,
    byt_pat,
    cyc,
    fix1,
    fix2,
    high_mul,
    low_mul,
    mul1,
    mul2,
    mul2a,
)

u32 = st.integers(min_value=0, max_value=0xFFFFFFFF)

# Corners every arithmetic routine has to survive.
EDGE = [0, 1, 2, 2**31, 2**32 - 2, 2**32 - 1]

# The two moduli the algorithm multiplies under.
ONES = 2**32 - 1
TWOS = 2**32 - 2


class TestLogicOps:
    def test_examples(self):
        assert cyc(0x80000001) == 0x00000003
        assert cyc(0x7FFFFFFF) == 0xFFFFFFFE

    @given(u32)
    def test_cyc_period_32(self, x):
        y = x
        for _ in range(32):
            y = cyc(y)
        assert y == x

    @given(u32)
    def test_cyc_preserves_popcount(self, x):
        assert bin(cyc(x)).count("1") == bin(x).count("1")


class TestProductHalves:
    @given(u32, u32)
    def test_matches_wide_product(self, x, y):
        assert (high_mul(x, y), low_mul(x, y)) == (model.HIGH_MUL(x, y), model.LOW_MUL(x, y))

    @pytest.mark.parametrize("x", EDGE)
    @pytest.mark.parametrize("y", EDGE)
    def test_edge_corners(self, x, y):
        assert (high_mul(x, y), low_mul(x, y)) == (model.HIGH_MUL(x, y), model.LOW_MUL(x, y))


class TestFixMasks:
    def test_examples(self):
        assert fix1(0) == FIX1_SET
        assert fix2(0) == FIX2_SET
        assert fix1(0xFFFFFFFF) == FIX1_KEEP
        assert fix2(0xFFFFFFFF) == FIX2_KEEP

    def test_set_bits_survive_keep_mask(self):
        assert FIX1_SET & FIX1_KEEP == FIX1_SET
        assert FIX2_SET & FIX2_KEEP == FIX2_SET

    @given(u32)
    def test_idempotent_and_bounded(self, x):
        for fn, set_bits, keep_bits in (
            (fix1, FIX1_SET, FIX1_KEEP),
            (fix2, FIX2_SET, FIX2_KEEP),
        ):
            y = fn(x)
            assert fn(y) == y
            assert y & set_bits == set_bits  # never zero
            assert y & ~keep_bits == 0  # never all ones
            assert 0 < y < 0xFFFFFFFF

    @given(u32)
    def test_fix2_clears_top_bit(self, x):
        # mul2a's safety bound: one operand below 2**31.
        assert fix2(x) < 2**31


class TestMul1:
    def test_examples(self):
        assert mul1(0x0000FFFF, 0x00010001) == 0xFFFFFFFF
        assert mul1(0xFFFFFFFF, 0xFFFFFFFF) == 0xFFFFFFFF
        assert mul1(0, 0) == 0
        assert mul1(1, 0xFFFFFFFE) == 0xFFFFFFFE

    @given(u32, u32)
    @settings(max_examples=300)
    def test_congruent_mod_ones(self, x, y):
        r = mul1(x, y)
        assert 0 <= r <= 0xFFFFFFFF
        assert r % ONES == x * y % ONES

    @given(u32, u32)
    def test_carry_is_single_bit(self, x, y):
        # mul1 is the sum of the product halves with its carry folded
        # back, and that carry is one bit, since both halves are words.
        u, l = model.HIGH_MUL(x, y), model.LOW_MUL(x, y)
        assert model.CAR(u, l) in (0, 1)
        assert mul1(x, y) == model.ADD(model.ADD(u, l), model.CAR(u, l))

    @given(u32, u32)
    def test_commutes(self, x, y):
        assert mul1(x, y) == mul1(y, x)


class TestMul2:
    def test_examples(self):
        assert mul2(0, 0) == 0
        assert mul2(1, 1) == 1
        # (2**32 - 1) is congruent to 1, so the fold may answer with the
        # large representative of small residues.
        assert mul2(0xFFFFFFFF, 0xFFFFFFFF) % TWOS == 1

    @given(u32, u32)
    @settings(max_examples=300)
    def test_congruent_mod_twos(self, x, y):
        r = mul2(x, y)
        assert 0 <= r <= 0xFFFFFFFF
        assert r % TWOS == x * y % TWOS

    @given(u32, u32)
    def test_commutes(self, x, y):
        assert mul2(x, y) == mul2(y, x)

    @pytest.mark.parametrize("x", EDGE)
    @pytest.mark.parametrize("y", EDGE)
    def test_edge_corners_both_muls(self, x, y):
        assert mul1(x, y) % ONES == x * y % ONES
        assert mul2(x, y) % TWOS == x * y % TWOS


# 0, 1, 2, the word ends, and multiples of 2**31 - 1 and of the factor 3
# of 2**32 - 1, so that products fall on 0 and 1 under both moduli.
CLOSED_FORM_EDGE = [0, 1, 2, 3, 0x55555555, 2**31 - 1, 2**32 - 2, 2**32 - 1]


class TestMul2a:
    """Where an operand is below 2**31, mul2a returns mul2's representative.

    The segment kernel folds Y by mul2's rule on that ground: its fix2
    operand is below 2**31.
    """

    @given(u32.map(fix2), u32)
    @settings(max_examples=300)
    def test_equals_mul2_on_conditioned_operand(self, x, y):
        # fix2 output is below 2**31, the range mul2a is valid in.
        assert mul2a(x, y) == mul2(x, y)

    @given(st.integers(min_value=0, max_value=2**31 - 1), u32)
    def test_equals_mul2_whenever_one_operand_small(self, x, y):
        assert mul2a(x, y) == mul2(x, y)

    @pytest.mark.parametrize(
        "x",
        sorted({*(h for h in CLOSED_FORM_EDGE if h < 2**31), *map(fix2, CLOSED_FORM_EDGE)}),
        ids="{:08X}".format,
    )
    @pytest.mark.parametrize("y", CLOSED_FORM_EDGE, ids="{:08X}".format)
    def test_equals_mul2_on_edge_pairs(self, x, y):
        assert mul2a(x, y) == mul2(x, y)

    @given(u32, u32)
    def test_total_and_in_range(self, x, y):
        assert 0 <= mul2a(x, y) <= 0xFFFFFFFF

    def test_diverges_from_mul2_when_high_half_is_large(self):
        # Not congruent out of range; pin one concrete divergence so a
        # future "simplification" to plain mul2 would be caught.
        x = y = 0xFFFFFFF0
        assert mul2a(x, y) != mul2(x, y)
        assert mul2(x, y) % TWOS == x * y % TWOS


@st.composite
def near_wrap_pairs(draw):
    """Pairs whose product lies within a few units of a multiple of 2**32."""
    x = draw(st.integers(min_value=1, max_value=0xFFFFFFFF))
    k = draw(st.integers(min_value=0, max_value=x - 1))
    y = (k << 32) // x + draw(st.integers(min_value=-2, max_value=2))
    return x, min(max(y, 0), 0xFFFFFFFF)


# Blocks whose bytes are often 00 or FF, so byt_pat rewrites some of them.
dirty_u32 = st.lists(
    st.sampled_from([0x00, 0xFF]) | st.integers(0, 255), min_size=4, max_size=4
).map(lambda raw: int.from_bytes(bytes(raw), "big"))

# The primitives fold in fewer steps than the standard's MUL1, MUL2 and
# MUL2A, which are composed of the word operations (product halves, ADD,
# CAR); they must return exactly the standard's representatives, not
# merely congruent ones, because the MAC depends on the representative.
MULS = [
    pytest.param(mul1, model.MUL1, id="mul1-composed_mul1"),
    pytest.param(mul2, model.MUL2, id="mul2-composed_mul2"),
    pytest.param(mul2a, model.MUL2A, id="mul2a-composed_mul2a"),
]


def mul1_closed(x, y):
    p = x * y
    return (p - 1) % ONES + 1 if p else 0


def mul2_closed(x, y):
    p = x * y
    return (p - 2) % TWOS + 2 if p > 1 else p


class TestClosedForms:
    """mul1 and mul2 return the fold's representative as a rule on the product.

    mul1 gives 0 for a zero product and otherwise the value in [1, 2**32 - 1]
    congruent to it; mul2 gives a product below 2 as it is and otherwise
    the value in [2, 2**32 - 1] congruent to it.  The key expansion takes
    its representatives from these rules.
    """

    @pytest.mark.parametrize("x", CLOSED_FORM_EDGE, ids="{:08X}".format)
    @pytest.mark.parametrize("y", CLOSED_FORM_EDGE, ids="{:08X}".format)
    def test_edge_pairs(self, x, y):
        assert mul1(x, y) == mul1_closed(x, y) == model.MUL1(x, y)
        assert mul2(x, y) == mul2_closed(x, y) == model.MUL2(x, y)

    @given(near_wrap_pairs())
    def test_products_near_a_wrap(self, pair):
        assert mul1(*pair) == mul1_closed(*pair) == model.MUL1(*pair)
        assert mul2(*pair) == mul2_closed(*pair) == model.MUL2(*pair)

    @pytest.mark.parametrize("h", sorted({*CLOSED_FORM_EDGE, *EDGE}), ids="{:08X}".format)
    def test_mul2_by_one_is_identity(self, h):
        # So H5 = MUL2(H0, Q) is H0 itself for a clean key, where Q = 1.
        assert mul2(h, 1) == model.MUL2(h, 1) == h


class TestExactRepresentatives:
    @pytest.mark.parametrize("fast,composed", MULS)
    @pytest.mark.parametrize("x", EDGE)
    @pytest.mark.parametrize("y", EDGE)
    def test_edge_corners(self, fast, composed, x, y):
        assert fast(x, y) == composed(x, y)

    @pytest.mark.parametrize("fast,composed", MULS)
    @given(pair=st.tuples(u32, u32) | near_wrap_pairs())
    @settings(max_examples=400)
    def test_multiplications(self, fast, composed, pair):
        assert fast(*pair) == composed(*pair)

    def test_mul1_keeps_the_all_ones_representative(self):
        # 0xFFFF * 0x10001 = 2**32 - 1: congruent to 0, returned as 0xFFFFFFFF.
        assert model.MUL1(0x0000FFFF, 0x00010001) == 0xFFFFFFFF
        assert mul1(0x0000FFFF, 0x00010001) == 0xFFFFFFFF
        assert mul1(0xFFFFFFFF, 1) == model.MUL1(0xFFFFFFFF, 1) == 0xFFFFFFFF

    @pytest.mark.parametrize("a", EDGE)
    @pytest.mark.parametrize("b", EDGE)
    def test_byt_pat_edge_corners(self, a, b):
        assert byt_pat(a, b) == model.BYT(a, b)

    @given(u32 | dirty_u32, u32 | dirty_u32)
    @settings(max_examples=400)
    def test_byt_pat(self, a, b):
        assert byt_pat(a, b) == model.BYT(a, b)


def width_model(w):
    """spec_model's MUL1, MUL2 and MUL2A with the word 2**32 replaced by 2**w.

    The standard's folds, ADD and CAR on the product's halves, are defined
    at any word width, so the closed forms can be checked on every pair of
    operands at a small width.
    """
    word = 2**w

    def ADD(x, y):
        return (x + y) % word

    def CAR(x, y):
        return (x + y) // word

    def MUL1(x, y):
        U, L = x * y // word, x * y % word
        S, C = ADD(U, L), CAR(U, L)
        return ADD(S, C)

    def MUL2(x, y):
        U, L = x * y // word, x * y % word
        D, E = ADD(U, U), CAR(U, U)
        F = ADD(D, 2 * E)
        S, C = ADD(F, L), CAR(F, L)
        return ADD(S, 2 * C)

    def MUL2A(x, y):
        U, L = x * y // word, x * y % word
        D = ADD(U, U)
        S, C = ADD(D, L), CAR(D, L)
        return ADD(S, 2 * C)

    return MUL1, MUL2, MUL2A


def width_closed_forms(w):
    """blocks.mul1's and blocks.mul2's closed forms, and the segment kernel's
    Y fold, with 2**32 - 1 and 2**32 - 2 replaced by 2**w - 1 and 2**w - 2."""
    ones, twos = 2**w - 1, 2**w - 2

    def mul1(x, y):
        p = x * y
        return p % ones or (p and ones)

    def mul2(x, y):
        p = x * y
        return (p - 2) % twos + 2 if p > 1 else p

    def kernel_y(x, y):
        q = x * y
        y = q % twos
        if y < 2 and q > 1:
            y += twos
        return y

    return mul1, mul2, kernel_y


def mismatches(w, f, g, where=lambda x, y: True):
    """The pairs x, y < 2**w, among those where allows, on which f and g differ."""
    pairs = itertools.product(range(2**w), repeat=2)
    return [(x, y) for x, y in pairs if where(x, y) and f(x, y) != g(x, y)]


SMALL_WIDTHS = range(4, 9)


class TestClosedFormsAtSmallWidths:
    """The closed forms against the standard's folds on every pair of operands.

    This does not prove them at 32 bits, but a rule that holds at every
    width from 4 to 8, and at 32 bits on the edge grid, rests on the
    algebra rather than on samples.
    """

    @pytest.mark.parametrize("w", SMALL_WIDTHS)
    def test_mul1(self, w):
        assert mismatches(w, width_closed_forms(w)[0], width_model(w)[0]) == []

    @pytest.mark.parametrize("w", SMALL_WIDTHS)
    def test_mul2(self, w):
        assert mismatches(w, width_closed_forms(w)[1], width_model(w)[1]) == []

    @pytest.mark.parametrize("w", SMALL_WIDTHS)
    def test_kernel_y_fold(self, w):
        assert mismatches(w, width_closed_forms(w)[2], width_model(w)[1]) == []

    @pytest.mark.parametrize("w", SMALL_WIDTHS)
    def test_mul2a_equals_mul2_below_half_a_word(self, w):
        _, MUL2, MUL2A = width_model(w)
        below = lambda x, y: min(x, y) < 2 ** (w - 1)
        assert mismatches(w, MUL2A, MUL2, below) == []

    @pytest.mark.parametrize("x", CLOSED_FORM_EDGE, ids="{:08X}".format)
    @pytest.mark.parametrize("y", CLOSED_FORM_EDGE, ids="{:08X}".format)
    def test_width_32_is_the_model_and_blocks(self, x, y):
        folds = [f(x, y) for f in width_model(32)]
        assert folds == [model.MUL1(x, y), model.MUL2(x, y), model.MUL2A(x, y)]
        assert [f(x, y) for f in width_closed_forms(32)] == [mul1(x, y), mul2(x, y), mul2(x, y)]

    def test_wrong_representatives_fail_at_width_4(self):
        MUL1, MUL2, _ = width_model(4)
        canonical_mul2 = lambda x, y: x * y % 14
        mul1_never_zero = lambda x, y: x * y % 15 or 15
        assert mismatches(4, canonical_mul2, MUL2)
        assert mismatches(4, mul1_never_zero, MUL1)


# The two byte values the 00/FF test looks for, their neighbours 01 and
# FE, and the 7F/80 pair in the middle of the byte range.
CORNER_BYTES = [0x00, 0x01, 0x7F, 0x80, 0xFE, 0xFF]
CLEAN_FILLS = [0x01, 0x7F, 0x80, 0xFE]
# A block pair, and the three pairs of combined key powers as one word.
WIDTHS = [8, 24]


def scanned_has_00_or_ff(x, n_bytes):
    return any(byte in (0x00, 0xFF) for byte in x.to_bytes(n_bytes, "big"))


class TestHas00OrFF:
    """The one 00/FF byte test, for a block pair and for six blocks at once."""

    @pytest.mark.parametrize("n_bytes", WIDTHS)
    def test_every_value_and_neighbour_at_every_position(self, n_bytes):
        # One or two adjacent bytes set, in a word of one clean byte value.
        for fill in CLEAN_FILLS:
            for i in range(n_bytes):
                for hi in CORNER_BYTES:
                    for lo in [None, *CORNER_BYTES] if i + 1 < n_bytes else [None]:
                        raw = bytearray([fill] * n_bytes)
                        raw[i] = hi
                        if lo is not None:
                            raw[i + 1] = lo
                        x = int.from_bytes(raw, "big")
                        assert blocks._has_00_or_ff(x, n_bytes) == scanned_has_00_or_ff(x, n_bytes)

    @pytest.mark.parametrize("n_bytes", WIDTHS)
    def test_adjacent_01_00_and_fe_ff_bytes(self, n_bytes):
        # A 00 byte under a 01 and an FF byte under an FE, at every
        # position in a word of 01 bytes, are found; a word of only 01
        # and FE bytes, in runs or alternating, is clean.
        for pair in (b"\x01\x00", b"\xfe\xff"):
            for i in range(n_bytes - 1):
                raw = bytearray(b"\x01" * n_bytes)
                raw[i : i + 2] = pair
                assert blocks._has_00_or_ff(int.from_bytes(raw, "big"), n_bytes)
        for raw in (b"\x01" * n_bytes, b"\xfe" * n_bytes, b"\x01\xfe" * (n_bytes // 2)):
            assert not blocks._has_00_or_ff(int.from_bytes(raw, "big"), n_bytes)

    @pytest.mark.parametrize("n_bytes", WIDTHS)
    @given(data=st.data())
    @settings(max_examples=200)
    def test_words_of_corner_bytes(self, n_bytes, data):
        values = st.sampled_from(CORNER_BYTES) | st.sampled_from(CLEAN_FILLS)
        raw = data.draw(st.lists(values, min_size=n_bytes, max_size=n_bytes))
        x = int.from_bytes(bytes(raw), "big")
        assert blocks._has_00_or_ff(x, n_bytes) == scanned_has_00_or_ff(x, n_bytes)


# Byte conditioning answers published with the algorithm's own test data.
CONDITIONING_VECTORS = [
    ((0x00000003, 0x00000060), (0x01030703, 0x1D3B7760), 0xEE),
    ((0x00030000, 0x00060000), (0x0103050B, 0x17065DBB), 0xBB),
    ((0x00000005, 0x80000002), (0x01030705, 0x80397302), 0xE6),
]


class TestBytPat:
    @pytest.mark.parametrize("pair,expected,pattern", CONDITIONING_VECTORS)
    def test_known_answers(self, pair, expected, pattern):
        got = byt_pat(*pair)
        assert (got.first, got.second) == expected
        assert got.pattern == pattern

    def test_clean_input_untouched(self):
        got = byt_pat(0x01020304, 0x05060708)
        assert got == (0x01020304, 0x05060708, 0)

    def test_all_ones_corner(self):
        # Forced by the scan rule: P walks 01,03,07,0F,1F,3F,7F,FF.
        got = byt_pat(0xFFFFFFFF, 0xFFFFFFFF)
        assert (got.first, got.second) == (0xFEFCF8F0, 0xE0C08000)
        assert got.pattern == 0xFF

    def test_all_zeros_corner(self):
        got = byt_pat(0, 0)
        assert (got.first, got.second) == (0x0103070F, 0x1F3F7FFF)
        assert got.pattern == 0xFF

    @given(u32, u32)
    def test_pattern_flags_exactly_the_offending_inputs(self, a, b):
        got = byt_pat(a, b)
        raw = a.to_bytes(4, "big") + b.to_bytes(4, "big")
        offending = any(byte in (0x00, 0xFF) for byte in raw)
        assert (got.pattern != 0) == offending
        if not offending:
            assert (got.first, got.second) == (a, b)

    @given(u32, u32)
    def test_untouched_positions_pass_through(self, a, b):
        got = byt_pat(a, b)
        raw = a.to_bytes(4, "big") + b.to_bytes(4, "big")
        out = got.first.to_bytes(4, "big") + got.second.to_bytes(4, "big")
        for i in range(8):
            if raw[i] not in (0x00, 0xFF):
                assert out[i] == raw[i]


def test_block_hex_rendering():
    assert blocks.block_hex(0) == "00000000"
    assert blocks.block_hex(0xC6E3D000) == "C6E3D000"
