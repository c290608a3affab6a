"""Seeded inputs for the benchmark workloads, and the reference MAC.

Every input comes from ``random.Random`` seeded with a string naming the
workload, the seed and the part of the input, so the same seed gives the
same bytes on every Python version that the package supports.  The
composition of a round (message sizes, shapes, key classes, CLI commands)
is fixed; the seed chooses the bytes, the keys, the order and the small
shape offsets.  Metrics are medians over whole rounds, so they do not
depend on which seed is used.
"""

from __future__ import annotations

import random
from typing import NamedTuple

from maa32 import core

BLOCK_BYTES = 4
SEGMENT_BYTES = core.SEGMENT_BLOCKS * BLOCK_BYTES
CAP_BYTES = (core.MAX_MESSAGE_BLOCKS - 1) * BLOCK_BYTES  # 3,999,996: longest accepted
OVERCAP_BYTES = core.MAX_MESSAGE_BLOCKS * BLOCK_BYTES  # 4,000,000: refused, exit 3

# bulk: 54 sizes from 2 to 312 segments (ratio 1.1) plus one message at
# the cap.  Each size takes a seeded shape: an exact 256-block multiple,
# one block more (a 2-block last unit after chaining), or 1-3 bytes more
# (not a multiple of 4, zero-padded by the program).  Sizes this close
# put many calls near the median size, so that latency_p50_ms rests on
# more than a handful of calls.
BULK_SEGMENTS = tuple(round(2 * 1.1**i) for i in range(54))

# short-*: every length from 4 to 256 bytes, 8 times, in seeded order.
SHORT_LENGTHS = tuple(range(4, 257)) * 8

# short-many-keys: one key in CONDITIONED_EVERY contains a 00 or FF byte.
CONDITIONED_EVERY = 4

# cli-files: most files are at most SMALL_FILE_BYTES long, so start-up
# dominates their calls; medium files take about as long again to read.
SMALL_FILE_BYTES = 4096
MEDIUM_FILE_BYTES = 256 << 10

# A setup probe authenticates the first message cut to one segment.
SETUP_BYTES = SEGMENT_BYTES


def _rng(*parts) -> random.Random:
    return random.Random("/".join(str(p) for p in parts))


def _key(raw: bytes) -> core.Key:
    return core.Key(int.from_bytes(raw[:4], "big"), int.from_bytes(raw[4:], "big"))


def clean_key(rng: random.Random) -> core.Key:
    """A key with no 00 or FF byte."""
    return _key(bytes(rng.randrange(1, 255) for _ in range(8)))


def conditioned_key(rng: random.Random) -> core.Key:
    """A key with one to three 00 or FF bytes, so the prelude conditions it."""
    raw = bytearray(rng.randrange(1, 255) for _ in range(8))
    for _ in range(rng.randrange(1, 4)):
        raw[rng.randrange(8)] = rng.choice((0x00, 0xFF))
    return _key(raw)


def key_hex(key: core.Key) -> str:
    return "%08X:%08X" % key


# ---------------------------------------------------------------------------
# library workloads: (key, message) pairs for one round


def bulk_round(seed: int) -> tuple[core.Key, list[bytes]]:
    rng = _rng("bulk", seed)
    key = clean_key(rng)
    sizes = [CAP_BYTES]
    for k in BULK_SEGMENTS:
        shape = rng.randrange(3)
        extra = (0, BLOCK_BYTES, rng.randrange(1, BLOCK_BYTES))[shape]
        sizes.append(k * SEGMENT_BYTES + extra)
    rng.shuffle(sizes)
    return key, [rng.randbytes(n) for n in sizes]


def short_messages(workload: str, seed: int) -> list[bytes]:
    rng = _rng(workload, seed, "messages")
    lengths = list(SHORT_LENGTHS)
    rng.shuffle(lengths)
    return [rng.randbytes(n) for n in lengths]


def one_key(seed: int) -> core.Key:
    return clean_key(_rng("short-one-key", seed, "key"))


def round_keys(seed: int, round_index: int) -> list[core.Key]:
    """Fresh keys for one round of short-many-keys; no key repeats in a run."""
    rng = _rng("short-many-keys", seed, "keys", round_index)
    return [
        conditioned_key(rng) if i % CONDITIONED_EVERY == 0 else clean_key(rng)
        for i in range(len(SHORT_LENGTHS))
    ]


def library_round(workload: str, seed: int, round_index: int) -> tuple[list[core.Key], list[bytes]]:
    """Keys and messages of one round; only short-many-keys changes by round."""
    if workload == "bulk":
        key, messages = bulk_round(seed)
        return [key] * len(messages), messages
    messages = short_messages(workload, seed)
    if workload == "short-one-key":
        return [one_key(seed)] * len(messages), messages
    return round_keys(seed, round_index), messages


# ---------------------------------------------------------------------------
# cli-files: files on disk and the commands run on them


class CliFile(NamedTuple):
    name: str
    message: bytes  # what the program authenticates
    command: str  # "mac" or "verify"
    hex_input: bool
    wrong_mac: bool  # verify against a wrong MAC: exit 1
    overcap: bool  # refused: exit 3


def _hex_text(rng: random.Random, data: bytes) -> bytes:
    """Hex digits in groups split by seeded spaces and newlines."""
    digits = data.hex()
    parts, i = [], 0
    while i < len(digits):
        step = rng.randrange(2, 64)
        parts.append(digits[i : i + step])
        i += step
    return "".join(p + rng.choice((" ", "\n", "  ", "\t")) for p in parts).encode("ascii")


def cli_key(seed: int) -> core.Key:
    return clean_key(_rng("cli-files", seed, "key"))


def cli_files(seed: int) -> list[CliFile]:
    """One round of 50 calls: 41 small (start-up bound), 7 medium, one at the cap, one over it.

    Two rounds give 100 latencies; the 10 beyond the 90th percentile are the
    over-cap, cap and 6 of the 14 medium calls, so p90 falls among the
    medium calls rather than on the edge between two size classes.
    """
    rng = _rng("cli-files", seed)
    files = [CliFile("empty", b"", "mac", False, False, False)]

    def add(tag: str, count: int, size, **kind) -> None:
        for i in range(count):
            files.append(CliFile("%s-%d" % (tag, i), rng.randbytes(size(i, count)), **kind))

    def small(i: int, count: int) -> int:
        # log-spread sizes from 1 byte to SMALL_FILE_BYTES
        return max(1, round(SMALL_FILE_BYTES ** ((i + rng.random()) / count)))

    def medium(i: int, count: int) -> int:
        return MEDIUM_FILE_BYTES + rng.randrange(BLOCK_BYTES)

    plain = dict(hex_input=False, wrong_mac=False, overcap=False)
    add("mac", 19, small, command="mac", **plain)
    add("verify", 7, small, command="verify", **plain)
    add("verify-wrong", 5, small, command="verify", hex_input=False, wrong_mac=True, overcap=False)
    add("hex-mac", 5, small, command="mac", hex_input=True, wrong_mac=False, overcap=False)
    add("hex-verify", 4, small, command="verify", hex_input=True, wrong_mac=False, overcap=False)
    add("medium-mac", 5, medium, command="mac", **plain)
    add("medium-verify", 2, medium, command="verify", **plain)
    files.append(CliFile("cap", rng.randbytes(CAP_BYTES), "mac", False, False, False))
    files.append(CliFile("overcap", rng.randbytes(OVERCAP_BYTES), "mac", False, False, True))
    rng.shuffle(files)
    return files


def file_bytes(seed: int, spec: CliFile) -> bytes:
    """The bytes written to disk for one file: raw, or hex text for --hex."""
    if not spec.hex_input:
        return spec.message
    return _hex_text(_rng("cli-files", seed, "hex", spec.name), spec.message)


def wrong_mac(seed: int, spec: CliFile, right: int) -> int:
    return right ^ _rng("cli-files", seed, "wrong", spec.name).randrange(1, 1 << 32)


# ---------------------------------------------------------------------------
# reference


def reference_mac(key: core.Key, data: bytes) -> int:
    """The MAC by the stepwise fold: prelude, main_loop_step per block, coda.

    Segmentation is done here, not by the program: 256-block segments, each
    intermediate result prepended to the next one.
    """
    padded = data + b"\x00" * (-len(data) % BLOCK_BYTES)
    blocks = [int.from_bytes(padded[i : i + 4], "big") for i in range(0, len(padded), 4)]
    pre = core.prelude(key)
    step = core.main_loop_step
    z = None
    for start in range(0, max(len(blocks), 1), core.SEGMENT_BLOCKS):
        unit = blocks[start : start + core.SEGMENT_BLOCKS]
        if z is not None:
            unit.insert(0, z)
        state = core.LoopState(pre.x0, pre.y0, pre.v0)
        for m in unit:
            state = step(state, pre.w, m)
        z = core.coda(state, pre.w, pre.s, pre.t)
    return z


def reference_many(pairs: list[tuple[core.Key, bytes]]) -> list[int]:
    return [reference_mac(key, data) for key, data in pairs]
