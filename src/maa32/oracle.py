"""Reference arithmetic for cross-checking the fixed-width block operations.

Everything in this module works on unbounded Python integers and is written
without reusing any code from the rest of the package.  A bug in the
production routines therefore cannot hide by being present on both sides of
a comparison: the test suite computes every multiplication twice, once with
the carry-folding word arithmetic and once here with plain big integers,
and demands agreement.
"""

from __future__ import annotations

# The only two moduli the authenticator multiplies under.
MODULUS_ONES = 2**32 - 1
MODULUS_TWOS = 2**32 - 2

_WORD = 2**32


def wide_product(x: int, y: int) -> tuple[int, int]:
    """Return the exact 64-bit product of two 32-bit words as (high, low)."""
    _check_word(x)
    _check_word(y)
    return divmod(x * y, _WORD)


def mod_mul_ref(x: int, y: int, modulus: int) -> int:
    """Multiply two 32-bit words modulo 2**32 - 1 or 2**32 - 2.

    Any other modulus raises ValueError: this oracle answers exactly the
    questions the authenticator asks and nothing else.
    """
    if modulus not in (MODULUS_ONES, MODULUS_TWOS):
        raise ValueError("unsupported modulus: %r" % (modulus,))
    _check_word(x)
    _check_word(y)
    return (x * y) % modulus


def _check_word(value: int) -> None:
    if not isinstance(value, int) or isinstance(value, bool):
        raise ValueError("expected an int, got %r" % (value,))
    if not 0 <= value < _WORD:
        raise ValueError("value out of 32-bit range: %r" % (value,))
