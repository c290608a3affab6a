"""Primitive operations on 32-bit blocks.

The authenticator mixes three flavours of arithmetic on unsigned 32-bit
words:

* plain bit logic: Python's own AND, OR and XOR, and a one-bit left
  rotation;
* modulo 2**32 addition;
* multiplication modulo 2**32 - 1 and modulo 2**32 - 2, which the
  standard defines by folding the high half of the 64-bit product back
  into the low half (an end-around carry for 2**32 - 1, a doubled carry
  for 2**32 - 2, since 2**32 leaves remainder 1 and 2 respectively).
  Which representative a fold returns is part of the algorithm; each
  multiplication here computes it in closed form from the product.

Two masking steps keep multiplier operands away from degenerate values:
``fix1``/``fix2`` force a few bits on and a few bits off, so the result is
never 0, never all-ones, and for ``fix2`` always below 2**31.  That last
guarantee is what licenses ``mul2a``, a cheaper variant of ``mul2`` that
skips one carry-folding stage.

Byte conditioning (``byt_pat``) rewrites the forbidden byte values 00 and
FF inside a pair of blocks and returns a pattern byte recording which of
the eight byte positions were touched.
"""

from __future__ import annotations

from collections import namedtuple

MASK = 0xFFFFFFFF

# fix1: set the FIX1_SET bits, then clear everything outside FIX1_KEEP.
# fix2 likewise.  FIX2_KEEP has bit 31 clear, which caps fix2 output below
# 2**31; that bound is load-bearing for mul2a (see below).
FIX1_SET = 0x02040801
FIX2_SET = 0x00804021
FIX1_KEEP = 0xBFEF7FDF
FIX2_KEEP = 0x7DFEFBFF

# The set bits must survive the keep mask, otherwise fix1/fix2 could not
# guarantee a nonzero result.  Checked at import because everything else
# leans on it.
if FIX1_SET & FIX1_KEEP != FIX1_SET or FIX2_SET & FIX2_KEEP != FIX2_SET:
    raise AssertionError("fix mask constants are inconsistent")


_HEX_DIGITS = frozenset("0123456789abcdefABCDEF")


# pattern: one bit per byte position, MSB examined first.
ConditioningResult = namedtuple("ConditioningResult", "first second pattern")


def cyc(x: int) -> int:
    """Rotate left by one bit."""
    return ((x << 1) | (x >> 31)) & MASK


def high_mul(x: int, y: int) -> int:
    """Upper 32 bits of the 64-bit product."""
    return (x * y) >> 32


def low_mul(x: int, y: int) -> int:
    """Lower 32 bits of the 64-bit product."""
    return (x * y) & MASK


def fix1(x: int) -> int:
    return (x | FIX1_SET) & FIX1_KEEP


def fix2(x: int) -> int:
    return (x | FIX2_SET) & FIX2_KEEP


# At any width w, the standard adds the halves of p = U * 2**w + L and feeds the carry back. As
# 2**w = 1 (mod 2**w - 1), that keeps p's residue, in [0, 2**w - 1], and is 0 only if p == 0.
def mul1(x: int, y: int) -> int:
    """Multiply modulo 2**32 - 1 by end-around carry.

    Returns the representative the end-around-carry fold produces: 0 for
    a zero product, and otherwise the one value in [1, 0xFFFFFFFF]
    congruent to it, so a nonzero product congruent to zero gives
    0xFFFFFFFF rather than 0.
    """
    p = x * y
    return p % MASK or (p and MASK)


# At any width w, 2**w = 2 (mod 2**w - 2), so each carry fed back as 2 keeps p's residue. No sum
# wraps (U <= 2**w - 2, and U + U folded is even); U = 0 leaves p, and U > 0 leaves at least 2.
def mul2(x: int, y: int) -> int:
    """Multiply modulo 2**32 - 2: carries fold back with weight two.

    Returns the representative the standard's two-stage fold gives: a
    product below 2 as it is, and otherwise the one value in
    [2, 0xFFFFFFFF] congruent to it, so a product of 2 or more congruent
    to 0 or 1 gives 0xFFFFFFFE or 0xFFFFFFFF.
    """
    p = x * y
    return (p - 2) % (MASK - 1) + 2 if p > 1 else p


# At any width w, an operand below 2**(w - 1) keeps p below 2**(2w - 1), so U < 2**(w - 1):
# U + U has no carry, so mul2's stage for that carry adds nothing: both folds take the same steps.
def mul2a(x: int, y: int) -> int:
    """Faster mul2 with one fewer folding stage.

    Drops the carry of the doubling step, so the result is only congruent
    to x*y modulo 2**32 - 2 when the high product half is below 2**31,
    which holds whenever either operand is below 2**31; there it is
    mul2's representative, which the segment kernel uses.  The main loop
    feeds it fix2 output, which satisfies that bound by construction.
    Total for all inputs; callers outside that range just get the cheaper
    fold's answer.
    """
    p = x * y
    s = ((p >> 31) & 0xFFFFFFFE) + (p & MASK)
    return (s & MASK) + ((s >> 32) << 1)


def byt_pat(a: int, b: int) -> ConditioningResult:
    """Rewrite 00/FF bytes in a block pair and report where they were.

    The eight bytes are examined most significant first.  A running byte
    register P doubles at every position and increments when the byte is
    00 or FF; an offending byte is then replaced by its XOR with the
    updated P.  The final P is returned as the pattern: nonzero exactly
    when some byte was rewritten, and it distinguishes most positional
    arrangements of rewritten bytes.  Eight doublings of a register that
    starts at 0 never carry past its eighth bit, so P needs no mask.
    """
    x = (a << 32) | b
    if not _has_00_or_ff(x):
        return ConditioningResult(a, b, 0)
    p = 0
    for shift in range(56, -8, -8):
        p <<= 1
        if ((x >> shift) + 1) & 0xFF < 2:  # byte 00 or FF
            p += 1
            x ^= p << shift
    return ConditioningResult(x >> 32, x & MASK, p)


def _has_00_or_ff(x: int, n_bytes: int = 8) -> bool:
    """True when some byte of the n_bytes-byte word x is 00 or FF."""
    raw = x.to_bytes(n_bytes, "big")
    return 0 in raw or 0xFF in raw


def block_hex(x: int) -> str:
    """Canonical rendering: exactly eight uppercase hex digits."""
    return "%08X" % x


def is_hex(text: str) -> bool:
    """True when text is ASCII hex digits only.

    Stricter than ``int(text, 16)``, which also takes a sign, underscores,
    a ``0x`` prefix, surrounding whitespace and digits of other scripts.
    """
    return all(c in _HEX_DIGITS for c in text)


def is_hex_word(text: str) -> bool:
    """True when text is exactly eight hex digits, the width of a block."""
    return len(text) == 8 and is_hex(text)
