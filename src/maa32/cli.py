"""Command line front end.

Commands: ``mac`` (print an authenticator), ``verify`` (compare against an
expected one), ``trace`` (per-block execution trace), ``selftest`` (builtin
corpus plus optional vector files), ``bench`` (throughput of generating and
chaining a test message) and ``gen`` (write deterministic test messages).

Exit codes: 0 success or verified match, 1 verify mismatch, 2 usage, parse
or I/O errors (a full, closed or text-only stdout or stdin included), 3
message too long, 4 selftest or vector failure.  ``main`` owns the
standard streams: before reading any input it refuses a closed stdout,
unless the command writes none, or a text-only one (no ``.buffer``) where
the command writes bytes, then a closed or text-only stdin if the input is
``-``; only ``_report`` writes stderr, and a closed or full stderr never
changes the exit code, argparse's exits included.

Binary input is consumed as a stream of 4-byte big-endian blocks, read a
256-block segment at a time, so arbitrarily large files run in constant
memory.  One size rule holds, named or redirected: input that can seek is
sized from where it stands and, over the length cap, refused unread; a
pipe or a terminal is counted as it is read.  ``trace`` holds the input,
reads at most one byte past the cap, refuses over-cap input before
writing anything, and writes each segment's lines as they are made.
With ``--hex`` the input is read as hex digits with all whitespace ignored,
and refused as soon as the bytes it decodes to pass the cap.  ``gen`` and
``bench`` make their message a segment at a time, so no command holds more
than the capped input.

The vector corpus (``vectors``) is imported only by ``selftest``, so that
the other commands start without building it.
"""

import argparse
import codecs
import io
import os
import struct
import sys
import time
from collections.abc import Iterator
from contextlib import AbstractContextManager, contextmanager, nullcontext, suppress
from itertools import chain

from . import core
from .blocks import block_hex, is_hex, is_hex_word
from .core import Key, MessageTooLong


def _key_argument(text: str) -> Key:
    parts = text.split(":")
    if len(parts) != 2 or not all(map(is_hex_word, parts)):
        raise argparse.ArgumentTypeError(
            "key must be JJJJJJJJ:KKKKKKKK (two 8-digit hex words)"
        )
    return Key(int(parts[0], 16), int(parts[1], 16))


def _mac_argument(text: str) -> int:
    if not is_hex_word(text):
        raise argparse.ArgumentTypeError("expected 8 hex digits")
    return int(text, 16)


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse's own sends the usage to stdout if stderr is None
        self.exit(_report("%s%s: error: %s" % (self.format_usage(), self.prog, message), 2))


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="maa32",
        description="32-bit message authenticator (ISO 8731-2 algorithm)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_input_options(p):
        p.add_argument("--key", type=_key_argument, required=True, metavar="J:K")
        p.add_argument(
            "--hex",
            action="store_true",
            help="treat input as hex digits (whitespace ignored)",
        )
        p.add_argument(
            "input",
            nargs="?",
            default="-",
            help="input file, or - for standard input (default)",
        )

    p_mac = sub.add_parser("mac", help="print the authenticator of the input")
    add_input_options(p_mac)

    p_verify = sub.add_parser("verify", help="check the input against an expected MAC")
    add_input_options(p_verify)
    p_verify.add_argument("--mac", type=_mac_argument, required=True, metavar="HEX8")

    p_trace = sub.add_parser("trace", help="print a per-block execution trace")
    add_input_options(p_trace)
    p_trace.add_argument("-o", "--output", help="write the trace here instead of stdout")

    p_self = sub.add_parser("selftest", help="run the builtin corpus and any vector files")
    p_self.add_argument(
        "--vectors",
        action="append",
        default=[],
        metavar="FILE",
        help="also run cases from this vector file (repeatable)",
    )
    p_self.add_argument(
        "--data-dir",
        default=".",
        help="where builtin cases look for optional external message files",
    )
    p_self.add_argument(
        "--inject-fault",
        action="store_true",
        help="corrupt one builtin expectation to prove failures are caught",
    )

    p_bench = sub.add_parser("bench", help="measure authentication throughput")
    p_bench.add_argument("--blocks", type=int, default=1_000_000)

    p_gen = sub.add_parser("gen", help="write a deterministic test message")
    p_gen.add_argument("--blocks", type=int, required=True)
    p_gen.add_argument("-o", "--output", help="write bytes here instead of stdout")

    return parser


def _hex_bytes(fh: io.BufferedIOBase) -> bytes:
    """The bytes of hex text, whitespace ignored, counted as they are decoded.

    The text is UTF-8 in any locale.  Each 64 KiB read is decoded at once;
    an odd trailing digit is carried into the next read.  The bytes decoded
    before a non-hex character count toward the length cap, so text over
    the cap is refused as too long even when non-hex text follows.
    """
    parts = []
    n_bytes = n_read = 0
    carry = ""
    decoder = codecs.getincrementaldecoder("utf-8")()
    for data in chain(iter(lambda: fh.read(1 << 16), b""), [b""]):  # b"" ends the text
        n_read += len(data)
        try:
            chunk = decoder.decode(data, final=not data)
        except UnicodeDecodeError as err:  # err.object: the bytes held back, then this read
            at = n_read - len(err.object) + err.start
            name = getattr(fh, "name", "<stdin>")
            raise ValueError("cannot read %s: byte %d is not UTF-8: %s" % (name, at, err.reason))
        if not parts:  # the first read: a leading byte order mark is dropped
            chunk = chunk.removeprefix("\ufeff")
        digits = carry + "".join(chunk.split())
        even = len(digits) & ~1
        carry = digits[even:]
        try:
            parts.append(bytes.fromhex(digits[:even]))
        except ValueError:
            bad = next(i for i, c in enumerate(digits) if not is_hex(c))
            core._check_byte_count(n_bytes + bad // 2)
            raise ValueError("input is not an even run of hex digits") from None
        n_bytes += len(parts[-1])
        core._check_byte_count(n_bytes)
    if carry:
        raise ValueError("input is not an even run of hex digits")
    return b"".join(parts)


@contextmanager
def _input_stream(args) -> Iterator[io.BufferedIOBase]:
    """The input as a binary stream, open for the duration of the block.

    Binary input that can seek is sized here and refused unread over the cap.
    """
    with nullcontext(sys.stdin.buffer) if args.input == "-" else open(args.input, "rb") as fh:
        if args.hex:
            fh = io.BytesIO(_hex_bytes(fh))
        elif fh.seekable():
            start = fh.tell()
            core._check_byte_count(fh.seek(0, io.SEEK_END) - start)
            fh.seek(start)
        yield fh


def _output(args) -> AbstractContextManager[io.BufferedIOBase]:
    """The ``-o`` file, opened for writing, or stdout's bytes."""
    return open(args.output, "wb") if args.output is not None else nullcontext(sys.stdout.buffer)


def _report(message: str, code: int) -> int:
    """Write message as a line on stderr and return code, which no stderr fault changes."""
    if sys.stderr is not None:
        with suppress(OSError):
            print(message, file=sys.stderr)
    return code


def _input_mac(args) -> int:
    with _input_stream(args) as stream:
        return core._mac_stream(args.key, stream)


def _cmd_mac(args) -> int:
    print(block_hex(_input_mac(args)))
    return 0


def _cmd_verify(args) -> int:
    computed = _input_mac(args)
    if computed == args.mac:
        return 0
    mismatch = "mismatch: computed=%s expected=%s" % (block_hex(computed), block_hex(args.mac))
    return _report(mismatch, 1)


def _cmd_trace(args) -> int:
    # Read one byte past the cap, so that over-cap input is refused
    # before anything is written.
    with _input_stream(args) as stream:
        data = stream.read(core.MAX_MESSAGE_BYTES + 1)
    core._check_byte_count(len(data))
    lines = core.trace_lines(core.prelude(args.key), core._read_segments(io.BytesIO(data)))
    with _output(args) as out:
        out.writelines(lines)
    return 0


def _cmd_selftest(args) -> int:
    from . import vectors

    builtin = vectors.builtin_corpus()
    if args.inject_fault:
        for i, case in enumerate(builtin):
            if isinstance(case.expect, vectors.ExpectMac):
                name = case.name + " (fault injected)"
                expect = vectors.ExpectMac(case.expect.value ^ 1)
                builtin[i] = case._replace(name=name, expect=expect)
                break
    groups = [(builtin, args.data_dir)]
    for path in args.vectors:
        try:
            parsed = vectors.parse_vector_file(path)
        except (OSError, UnicodeDecodeError) as err:
            return _report("cannot read %s: %s" % (path, err), 2)
        groups.append((parsed, os.path.dirname(path) or "."))

    results: list[vectors.VectorResult] = []
    for cases, base_dir in groups:
        results += vectors.run_vectors(cases, base_dir=base_dir).results
    report = vectors.VectorReport(tuple(results))
    for result in report.results:
        line = "%s %s" % (result.status, result.name)
        if result.detail:
            line += ": " + result.detail
        print(line)
    totals = (report.passed, report.failed, report.skipped)
    print("passed=%d failed=%d skipped=%d" % totals)
    return 0 if report.ok else 4


def _cmd_bench(args) -> int:
    # Times generating the message and the segmentation engine, a segment
    # at a time; the mac interface's checks and length cap do not apply to
    # a throughput measurement.
    segments = core._message_segments(args.blocks)
    pre = core.prelude(core._STANDARD_KEY)
    start = time.perf_counter()
    value = core._chain_segments(pre, segments)
    elapsed = time.perf_counter() - start
    rate = args.blocks / elapsed if elapsed > 0 else float("inf")
    print(
        "blocks=%d elapsed=%.3fs rate=%.0f blocks/s result=%s"
        % (args.blocks, elapsed, rate, block_hex(value))
    )
    return 0


def _cmd_gen(args) -> int:
    # A segment at a time, so any block count runs in constant memory.
    segments = core._message_segments(args.blocks)
    with _output(args) as out:
        for seg in segments:
            out.write(struct.pack(">%dI" % len(seg), *seg))
    return 0


_COMMANDS = {
    "mac": _cmd_mac,
    "verify": _cmd_verify,
    "trace": _cmd_trace,
    "selftest": _cmd_selftest,
    "bench": _cmd_bench,
    "gen": _cmd_gen,
}


def main(argv: list[str] | None = None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        writes_stdout = args.command != "verify" and getattr(args, "output", None) is None
        reads_stdin = getattr(args, "input", None) == "-"
        if writes_stdout and sys.stdout is None:
            return _report("standard output is closed", 2)
        if writes_stdout and args.command in ("trace", "gen") and not hasattr(sys.stdout, "buffer"):
            return _report("standard output is text only", 2)
        if reads_stdin and sys.stdin is None:
            return _report("standard input is closed", 2)
        if reads_stdin and not hasattr(sys.stdin, "buffer"):
            return _report("standard input is text only", 2)
        code = _COMMANDS[args.command](args)
        if sys.stdout is not None:  # a full or broken stdout fails here
            sys.stdout.flush()
        return code
    except MessageTooLong as err:
        return _report(str(err), 3)
    except (OSError, ValueError) as err:
        return _report(str(err), 2)
    finally:  # an unflushable process stream would fail the exit flush (code 120)
        for stream in filter(None, (sys.__stdout__, sys.__stderr__)):
            try:
                stream.flush()
            except OSError:
                devnull = os.open(os.devnull, os.O_WRONLY)
                os.dup2(devnull, stream.fileno())
                os.close(devnull)


if __name__ == "__main__":
    sys.exit(main())
