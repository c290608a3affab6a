"""ISO 8731-2's published test values, checked on the engine.

Every value here is the standard's own answer, none an output of this
implementation.  test_spec_model.py pins the spec model to the same
tables.
"""

import pytest

from maa32.blocks import byt_pat, mul1, mul2, mul2a
from maa32.core import (
    Key,
    LoopState,
    PreludeOutput,
    mac,
    main_loop_step,
    prelude,
    process_segment,
)

# (x, y): the product's representative.
MUL1_TABLE = {
    (0x0000000F, 0x0000000E): 0x000000D2,
    (0xFFFFFFF0, 0x0000000E): 0xFFFFFF2D,
    (0xFFFFFFF0, 0xFFFFFFF1): 0x000000D2,
}
MUL2_TABLE = {
    (0x0000000F, 0x0000000E): 0x000000D2,
    (0xFFFFFFF0, 0x0000000E): 0xFFFFFF3A,
    (0xFFFFFFF0, 0xFFFFFFF1): 0x000000B6,
}
MUL2A_TABLE = {
    (0x0000000F, 0x0000000E): 0x000000D2,
    (0xFFFFFFF0, 0x0000000E): 0xFFFFFF3A,
    (0x7FFFFFF0, 0xFFFFFFF1): 0x800000C2,
    (0xFFFFFFF0, 0x7FFFFFF1): 0x000000C4,
}

# (x, y): the conditioned pair and its pattern.
BYT_TABLE = {
    (0x00000000, 0x00000000): (0x0103070F, 0x1F3F7FFF, 0xFF),
    (0xFFFF00FF, 0xFFFFFFFF): (0xFEFC07F0, 0xE0C08000, 0xFF),
    (0xAB00FFCD, 0xFFEF0001): (0xAB01FCCD, 0xF2EF3501, 0x6A),
}

# The expansion test, with the conditioned key and the pattern given:
# J1 = 00000100, K1 = 00000080 and P = 1, so Q = (1 + P)**2 = 4.  Its
# result, H4..H9.  BYT of its three pairs gives the conditioning triples.
EXPANSION_TEST = (0x00000100, 0x00000080, 4)
EXPANSION_RESULT = (0x00000003, 0x00000060, 0x00030000, 0x00060000, 0x00000005, 0x80000002)

# Key: X0 Y0 V0 W S T.  The first key has 00 and FF bytes, the second none.
PRELUDES = {
    Key(0x00FF00FF, 0x00000000): (
        0x4A645A01, 0x50DEC930, 0x5CCA3239, 0xFECCAA6E, 0x51EDE9C7, 0x24B66FB5,
    ),
    Key(0x55555555, 0x5A35D667): (
        0x34ACF886, 0x7397C9AE, 0x7201F4DC, 0x2829040B, 0x9E2E7B36, 0x13647149,
    ),
}

# The main loop from the prelude of MAIN_LOOP_KEY over the message
# 55555555 AAAAAAAA: each block, then X and Y after it.  The last two
# blocks are the key's S and T, absorbed by the coda.
MAIN_LOOP_KEY = Key(0x00FF00FF, 0x00000000)
MAIN_LOOP_ROWS = [
    (0x55555555, 0x48B204D6, 0x5834A585),
    (0xAAAAAAAA, 0x4F998E01, 0xBE9F0917),
    (0x51EDE9C7, 0x344925FC, 0xDB9102B0),
    (0x24B66FB5, 0x277B4B25, 0xD636250D),
]
MAIN_LOOP_Z = 0x277B4B25 ^ 0xD636250D  # 0xF14D6E28, the XOR of the last row

# The MAC of twenty zero blocks under this key.
ZERO_BLOCKS_KEY = Key(0x80018001, 0x80018000)
ZERO_BLOCKS_MAC = 0xDB79FBDC


def table_cases(function, table):
    return [
        pytest.param(function, x, y, want, id="%s-%08X-%08X" % (function.__name__, x, y))
        for (x, y), want in table.items()
    ]


MUL_CASES = (
    table_cases(mul1, MUL1_TABLE) + table_cases(mul2, MUL2_TABLE) + table_cases(mul2a, MUL2A_TABLE)
)


@pytest.mark.parametrize("function,x,y,want", MUL_CASES)
def test_multiplication_tables(function, x, y, want):
    assert function(x, y) == want


@pytest.mark.parametrize("pair,want", BYT_TABLE.items())
def test_byt_table(pair, want):
    assert tuple(byt_pat(*pair)) == want


def test_prelude_of_a_clean_key():
    key = Key(0x55555555, 0x5A35D667)
    assert tuple(prelude(key)) == PRELUDES[key]


def test_prelude_of_a_key_with_00_and_ff_bytes():
    key = Key(0x00FF00FF, 0x00000000)
    assert tuple(prelude(key)) == PRELUDES[key]


def test_mac_of_twenty_zero_blocks():
    assert mac(ZERO_BLOCKS_KEY, [0] * 20) == ZERO_BLOCKS_MAC


def test_main_loop_rows():
    pre = PreludeOutput(*PRELUDES[MAIN_LOOP_KEY])
    assert (pre.s, pre.t) == (MAIN_LOOP_ROWS[2][0], MAIN_LOOP_ROWS[3][0])
    state = LoopState(pre.x0, pre.y0, pre.v0)
    for m, x, y in MAIN_LOOP_ROWS:
        state = main_loop_step(state, pre.w, m)
        assert (state.x, state.y) == (x, y), "block %08X" % m


def test_segment_of_the_published_state():
    pre = PreludeOutput(*PRELUDES[MAIN_LOOP_KEY])
    blocks = [m for m, _, _ in MAIN_LOOP_ROWS[:2]]
    assert process_segment(pre, blocks) == MAIN_LOOP_Z == 0xF14D6E28
