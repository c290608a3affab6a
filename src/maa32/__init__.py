"""32-bit message authenticator (the ISO 8731-2 algorithm) with test vectors.

Typical use:

    >>> from maa32 import Key, mac_bytes
    >>> "%08X" % mac_bytes(Key(0xE6A12F07, 0x9D15C437), b"some message")

Messages longer than 256 blocks are chained through 256-block segments
automatically; inputs of a million blocks or more raise MessageTooLong.
"""

from .blocks import (
    ConditioningResult,
    block_hex,
    byt_pat,
    cyc,
    fix1,
    fix2,
    mul1,
    mul2,
    mul2a,
)
from .core import (
    Key,
    LoopState,
    MAX_MESSAGE_BLOCKS,
    MessageTooLong,
    PreludeOutput,
    SEGMENT_BLOCKS,
    coda,
    mac,
    mac_bytes,
    main_loop_step,
    make_message,
    prelude,
    process_segment,
    segment,
)


# The other names in __all__ come from vectors, loaded on first use (PEP 562),
# so that importing the package for mac or mac_bytes does not build the corpus.
def __getattr__(name: str):
    if name in __all__:
        from . import vectors

        return getattr(vectors, name)
    raise AttributeError("module %r has no attribute %r" % (__name__, name))


__version__ = "1.0.0"

__all__ = [
    "ConditioningResult",
    "Key",
    "LoopState",
    "MAX_MESSAGE_BLOCKS",
    "MacTrace",
    "MessageTooLong",
    "PreludeOutput",
    "SEGMENT_BLOCKS",
    "VectorCase",
    "VectorFormatError",
    "VectorReport",
    "block_hex",
    "builtin_corpus",
    "byt_pat",
    "coda",
    "cyc",
    "emit_trace",
    "fix1",
    "fix2",
    "mac",
    "mac_bytes",
    "main_loop_step",
    "make_message",
    "mul1",
    "mul2",
    "mul2a",
    "parse_vector_file",
    "parse_vector_text",
    "prelude",
    "process_segment",
    "run_vectors",
    "segment",
    "__version__",
]
