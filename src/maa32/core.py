"""Whole-message authentication built on the block primitives.

A message is a sequence of 32-bit blocks (byte input is padded with zeros
to a block boundary).  Authentication runs in three phases:

* key expansion ("prelude"): the two 32-bit key words are byte-conditioned
  first (their 00 and FF bytes rewritten, with a pattern P recording
  where), and Q = (1 + P)**2.  The conditioned words are raised to small
  powers under both near-2**32 moduli, each power pair is XOR-combined,
  the fifth-power combination is multiplied by Q modulo 2**32 - 2, and
  the results are byte-conditioned into six working values: two
  multiplier accumulators X0 and Y0, a rotating word V0 with its XOR mask
  W, and two trailer blocks S and T.  This depends only on the key, so
  the results for the most recently used keys are cached: many messages
  under one key pay for the expansion once.
* main loop: per message block M, rotate V, derive E = V XOR W, XOR M
  into both X and Y, then
      X := mul1(X, fix1(E + Y))
      Y := mul2a(Y, fix2(E + X))
  where both right-hand sides read the XORed X and Y: ISO 8731-2 forms
  both operands before either product, so the Y update never reads the
  new X.  fix2 keeps its output below 2**31, which is what makes mul2a
  safe here.  V rotates one bit per block, so the i-th E is
  rot(V0, i) XOR W and repeats every 32 blocks; that table of E is built
  with the prelude, and cached and evicted with it.
* coda: two extra loop iterations with M = S and M = T, then the result
  is X XOR Y.

Messages longer than 256 blocks are processed in a mode of operation:
split into 256-block segments, authenticate the first, then prepend each
intermediate result to the next segment (a 257-block unit) and continue.
The last result is the MAC.  A message of exactly 256 blocks is a single
segment.  Messages of 1,000,000 blocks or more are rejected.

Every input reaches the segment kernel through one chaining loop, which
trace_lines repeats with main_loop_step, a trace line per step.  Bytes are
read and unpacked a segment at a time; blocks, from an iterable or the
test-message generator, are cut by _segments.  The byte and iterable
sources check and cap the input themselves, so the MAC and the tracer get
the same checks; the generator's blocks are unchecked and uncapped.
"""

import io
import struct
from collections import namedtuple
from collections.abc import Iterable, Iterator, Sequence, Sized
from functools import cached_property, lru_cache
from itertools import chain, count, islice

from .blocks import (
    FIX1_KEEP,
    FIX1_SET,
    FIX2_KEEP,
    FIX2_SET,
    MASK,
    _has_00_or_ff,
    byt_pat,
    cyc,
    fix1,
    fix2,
    mul1,
    mul2,
    mul2a,
)

SEGMENT_BLOCKS = 256
MAX_MESSAGE_BLOCKS = 1_000_000  # first rejected length
SEGMENT_BYTES = 4 * SEGMENT_BLOCKS
# Longest accepted byte input: one byte more pads to MAX_MESSAGE_BLOCKS.
MAX_MESSAGE_BYTES = 4 * (MAX_MESSAGE_BLOCKS - 1)

# Keys whose prelude and E table are kept.  Covers the keys in use at
# once in many-message traffic; a key beyond it costs one expansion per miss.
PRELUDE_CACHE_SIZE = 64


class MessageTooLong(ValueError):
    """Raised for messages of MAX_MESSAGE_BLOCKS blocks or more."""


Key = namedtuple("Key", "first second")
LoopState = namedtuple("LoopState", "x y v")

# The deterministic test message (block i, 1-based, is i * _GEN_STEP mod
# 2**32) and the key that the builtin corpus and bench use with it.
_GEN_STEP = 0x9E3779B9
_STANDARD_KEY = Key(0xE6A12F07, 0x9D15C437)


class PreludeOutput(namedtuple("PreludeOutput", "x0 y0 v0 w s t")):
    """The key's schedule: multiplier seeds x0 and y0, rotating word v0 and
    its XOR mask w, the coda's trailer blocks s and t, and e_table, which a
    cache miss stores and a prelude built by hand or by _replace builds."""

    e_table = cached_property(lambda pre: _e_table(pre.v0, pre.w))


def _unpack_blocks(data: bytes) -> tuple[int, ...]:
    """Big-endian blocks of data, zero-filling the last one."""
    data += bytes(-len(data) % 4)
    return struct.unpack(">%dI" % (len(data) // 4), data)


def make_message(n_blocks: int) -> list[int]:
    """Deterministic test message: block i (1-based) is i * 9E3779B9 mod 2**32."""
    return list(_message_blocks(n_blocks))


def _message_blocks(n_blocks: int) -> Iterator[int]:
    """make_message's blocks, made lazily; the count is checked at the call."""
    if n_blocks < 0:
        raise ValueError("block count must be nonnegative")
    return ((i * _GEN_STEP) & MASK for i in range(1, n_blocks + 1))


def _message_segments(n_blocks: int) -> Iterator[tuple[int, ...]]:
    """make_message's blocks cut by _segments, uncapped; a negative count raises at the call."""
    return _segments(_message_blocks(n_blocks))


def _segments(blocks: Iterator[int]) -> Iterator[tuple[int, ...]]:
    """The blocks in tuples of 256 until a take is empty; no blocks is one empty tuple."""
    takes = iter(lambda: tuple(islice(blocks, SEGMENT_BLOCKS)), ())
    yield next(takes, ())
    yield from takes


def _expand(j: int, k: int, q: int) -> tuple[int, int, int, int, int, int]:
    """H4..H9 of the conditioned key words j and k, and Q.

    Conditioning leaves no 00 byte, so both words are at least 01010101
    and every product on the standard's power chains is at least 4.  On
    such products mul1's and mul2's representatives depend only on the
    residue, so each power is the exact power, reduced once per modulus.
    """
    j2, k2 = j * j, k * k
    j4, k5 = j2 * j2, k2 * k2 * k
    k7 = k5 * k2
    return (
        _both(j4),
        mul2(_both(k5), q),
        _both(j4 * j2),
        _both(k7),
        _both(j4 * j4),
        _both(k7 * k2),
    )


def _both(p: int) -> int:
    """mul1's and mul2's representatives of p >= 2, XORed (see blocks)."""
    return ((p - 1) % MASK + 1) ^ ((p - 2) % (MASK - 1) + 2)


def prelude(key: Key) -> PreludeOutput:
    """Derive the six working values from the key.

    Pure: equal keys give equal output, so the results for the
    PRELUDE_CACHE_SIZE most recently used keys are cached.  The key words
    are checked on a miss: each must be an int in the 32-bit range.  The
    cache is typed, so a bool or a float never hits an equal int's entry.
    """
    j, k = key
    try:
        return _cached_prelude(j, k)
    except TypeError:  # an unhashable word, which the cache cannot look up
        raise ValueError("key word is not an int: %r" % (key,)) from None


@lru_cache(maxsize=PRELUDE_CACHE_SIZE, typed=True)
def _cached_prelude(j: int, k: int) -> PreludeOutput:
    _validate_block(j, "key word")
    _validate_block(k, "key word")
    j, k, p = byt_pat(j, k)
    h4, h5, h6, h7, h8, h9 = _expand(j, k, (1 + p) ** 2)
    # All 24 bytes are tested at once; byt_pat leaves a clean pair as it is.
    six = h4 << 160 | h5 << 128 | h6 << 96 | h7 << 64 | h8 << 32 | h9
    if _has_00_or_ff(six, 24):
        h4, h5, _ = byt_pat(h4, h5)
        h6, h7, _ = byt_pat(h6, h7)
        h8, h9, _ = byt_pat(h8, h9)
    pre = PreludeOutput(h4, h5, h6, h7, h8, h9)
    pre.e_table = _e_table(h6, h7)  # cheaper than a first cached_property access
    return pre


def main_loop_step(state: LoopState, w: int, m: int) -> LoopState:
    """One absorbing iteration; see the module docstring for the dataflow."""
    v = cyc(state.v)
    e = v ^ w
    x, y = state.x ^ m, state.y ^ m
    return LoopState(mul1(x, fix1((e + y) & MASK)), mul2a(y, fix2((e + x) & MASK)), v)


def coda(state: LoopState, w: int, s: int, t: int) -> int:
    """Absorb the two trailer blocks and collapse the state to the result."""
    state = main_loop_step(state, w, s)
    state = main_loop_step(state, w, t)
    return state.x ^ state.y


def process_segment(pre: PreludeOutput, blocks: Sequence[int]) -> int:
    """Authenticate one segment unit (at most 257 blocks: chaining + 256).

    Equivalent to folding main_loop_step over the blocks from the prelude
    seeds and finishing with the coda; written as one tight loop because
    this is the throughput path.
    """
    if len(blocks) > SEGMENT_BLOCKS + 1:
        raise ValueError("segment unit longer than %d blocks" % (SEGMENT_BLOCKS + 1))
    x, y = pre.x0, pre.y0
    mask, twos = MASK, MASK - 1
    a, c = FIX1_SET, FIX1_KEEP
    b, d = FIX2_SET, FIX2_KEEP
    # The key's E table; the coda's S and T take the two entries after the
    # last message block.
    for m, e in zip(chain(blocks, (pre.s, pre.t)), pre.e_table):
        # Inlined main_loop_step: both products take their operands from
        # the XORed X and Y.  The fix operands need no 32-bit mask,
        # since both keep masks clear the high bits.  X folds by mul1's
        # rule and Y by mul2's, which is mul2a's when the fix2 operand is
        # below 2**31, as it always is (see blocks).
        x ^= m
        y ^= m
        p = x * (((e + y) | a) & c)
        q = y * (((e + x) | b) & d)
        x = p % mask or (p and mask)
        y = q % twos
        if y < 2 and q > 1:
            y += twos
    return x ^ y


# _e_table's 32 lanes of 96 bits, first lane most significant.  Lane i
# (1..32) holds V0V0 << i, whose bits 32..63 are rot(V0, i), XORed with W.
_LANE_BITS = 96
_LANES = 32
_ROTATE_LANES = sum(1 << (_LANE_BITS * (_LANES - i) + i) for i in range(1, _LANES + 1))
_W_LANES = sum(1 << (_LANE_BITS * (_LANES - i) + 32) for i in range(1, _LANES + 1))
_UNPACK_LANES = struct.Struct(">" + "4xI4x" * _LANES)


def _e_table(v0: int, w: int) -> tuple[int, ...]:
    """E = rot(V0, i) ^ W for i = 1..288: period 32, 9 times, covers a unit and its coda.

    One multiplication shifts V0V0 into every lane at once; the lanes do
    not overlap, since V0V0 << 32 is below 2**96.
    """
    lanes = ((v0 << 32 | v0) * _ROTATE_LANES) ^ (w * _W_LANES)
    return _UNPACK_LANES.unpack(lanes.to_bytes(_UNPACK_LANES.size, "big")) * 9


def segment(message: list[int]) -> list[list[int]]:
    """Split a message into 256-block segments; empty input is one empty segment."""
    return [list(s) for s in _segments(iter(message))]


def mac(key: Key, message: Iterable[int]) -> int:
    """Authenticate a message given as an iterable of blocks.

    Single forward pass; buffers at most one segment at a time, so any
    iterator works (files, generators).  Every block must be an int in
    the 32-bit range.  Raises MessageTooLong up front for a sized message
    of MAX_MESSAGE_BLOCKS blocks or more, and for any other as soon as
    the millionth block is consumed.
    """
    return _chain_segments(prelude(key), _block_segments(message))


def mac_bytes(key: Key, data: bytes) -> int:
    """Authenticate bytes, zero-filled to a block boundary.

    Raises MessageTooLong before any other work for more than
    MAX_MESSAGE_BYTES bytes, however many items a bytes-like data holds.
    A buffer that is not C-contiguous is read, in a copy, in C order.
    """
    view = memoryview(data)
    _check_byte_count(view.nbytes)
    return _mac_stream(key, io.BytesIO(data if view.c_contiguous else view.tobytes()))


def _mac_stream(key: Key, stream: io.BufferedIOBase) -> int:
    """The MAC of the bytes read from a binary stream, a segment at a time.

    Raises MessageTooLong once more than MAX_MESSAGE_BYTES bytes are read.
    """
    return _chain_segments(prelude(key), _read_segments(stream))


def _read_segments(stream: io.BufferedIOBase) -> Iterator[tuple[int, ...]]:
    """The stream's blocks, one read per segment; no bytes is one empty segment.

    Cut by read size: flattening the reads for _segments costs 0.1 s more per 1M blocks.
    """
    total = 0
    while True:
        chunk = stream.read(SEGMENT_BYTES)  # a buffered read is short only at the end
        total += len(chunk)
        _check_byte_count(total)
        if chunk or not total:
            yield _unpack_blocks(chunk)
        if len(chunk) < SEGMENT_BYTES:
            return


def _chain_segments(pre: PreludeOutput, segments: Iterable[Sequence[int]]) -> int:
    """The segmentation engine, without the message-length policy.

    Takes the message as segments of 256 blocks, the last one shorter or
    (for an empty message only) empty, and prepends each intermediate
    result to the next segment; the throughput benchmark drives this
    directly, since the length cap belongs to the segment sources, not
    to the arithmetic.
    """
    it = iter(segments)
    unit = next(it)
    for seg in it:
        unit = (process_segment(pre, unit), *seg)
    return process_segment(pre, unit)


def trace_lines(pre: PreludeOutput, segments: Iterable[Sequence[int]]) -> Iterator[bytes]:
    """The chaining loop, stepped: the trace as ASCII bytes, a line at a time.

    Folds main_loop_step over each unit (the previous result prepended to
    the segment, then the two trailer blocks).  Yields an ``N=`` line per
    absorbed block, numbered straight through, a ``Z<i>=`` line per
    segment, then the ``MAC=`` line: the last segment's result.  Values
    are eight uppercase hex digits, and every line ends in ``\n``.
    """
    steps = count(1)
    z = None
    for i, seg in enumerate(segments, 1):
        unit = seg if z is None else (z, *seg)
        state = LoopState(pre.x0, pre.y0, pre.v0)
        for m in (*unit, pre.s, pre.t):
            state = main_loop_step(state, pre.w, m)
            yield b"N=%d M=%08X X=%08X Y=%08X V=%08X\n" % (next(steps), m, *state)
        z = state.x ^ state.y
        yield b"Z%d=%08X\n" % (i, z)
    yield b"MAC=%08X\n" % z


def _block_segments(message: Iterable[int]) -> Iterator[tuple[int, ...]]:
    """Checked blocks of message, cut by _segments; bytes-like input is refused.

    Raises MessageTooLong before the first segment for a sized message of
    MAX_MESSAGE_BLOCKS blocks or more, and for any other once the
    millionth block is consumed; no block past it is read.
    """
    if isinstance(message, (bytes, bytearray, memoryview)):
        raise ValueError("message is bytes-like; use mac_bytes to authenticate bytes")
    if isinstance(message, Sized):
        _check_block_count(len(message))
    count = 0
    for seg in _segments(islice(message, MAX_MESSAGE_BLOCKS)):
        if seg and (set(map(type, seg)) != {int} or min(seg) < 0 or max(seg) > MASK):
            for m in seg:
                _validate_block(m)
        count += len(seg)
        _check_block_count(count)
        yield seg


def _check_block_count(n_blocks: int) -> None:
    if n_blocks >= MAX_MESSAGE_BLOCKS:
        raise MessageTooLong(
            "message has %d blocks; limit is %d" % (n_blocks, MAX_MESSAGE_BLOCKS)
        )


def _check_byte_count(n_bytes: int) -> None:
    if n_bytes > MAX_MESSAGE_BYTES:
        raise MessageTooLong(
            "message has %d bytes; limit is %d" % (n_bytes, MAX_MESSAGE_BYTES)
        )


def _validate_block(value: int, noun: str = "block") -> None:
    if type(value) is not int:
        raise ValueError("%s is not an int: %r" % (noun, value))
    if not 0 <= value <= MASK:
        raise ValueError("%s out of 32-bit range: %r" % (noun, value))
