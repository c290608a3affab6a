"""Test vectors: a builtin corpus, a small file format, a runner, a tracer.

The vector file format is line oriented.  ``#`` starts a comment, blank
lines are ignored, and every other line is a directive:

    CASE <name>                      start a named case
    KEY <8 hex> <8 hex>              the two key words
    MSGHEX <hex>                     message bytes, repeatable, concatenates
    MSGFILE <path>                   message bytes from a file
    MSGGEN <n>                       n blocks from the deterministic generator
    REPEAT <count>                   repeat the accumulated blocks count times
    EXPECT-MAC <8 hex>               expected authenticator
    EXPECT-PRELUDE <six 8 hex>       expected key expansion
    EXPECT-TRACE <path>              expected per-block trace (golden file)

A case holds one expectation; a directive after the expectation opens the
next case.  Unknown directives and malformed values are errors carrying the
line number.  Relative paths resolve against the directory given to
``run_vectors``; a referenced file that does not exist makes the case
SKIPPED, not failed, which is how optional externally-supplied suites are
gated in.

Traces render one line per absorbed block (chaining and trailer blocks
included, numbered straight through), a ``Z<i>=`` line per segment, and a
final ``MAC=`` line, all values as eight uppercase hex digits.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence, Union

from .blocks import ConditioningResult, block_hex, byt_pat
from .core import (
    Key,
    LoopState,
    MessageTooLong,
    PreludeOutput,
    _block_segments,
    mac,
    main_loop_step,
    make_message,
    pad_message,
    prelude,
)

STATUS_PASS = "PASS"
STATUS_FAIL = "FAIL"
STATUS_SKIP = "SKIP"


class VectorFormatError(ValueError):
    """A vector file could not be parsed; carries the 1-based line number."""

    def __init__(self, message: str, line_number: int):
        super().__init__("line %d: %s" % (line_number, message))
        self.line_number = line_number


# ---------------------------------------------------------------------------
# message sources


@dataclass(frozen=True)
class InlineHex:
    data: bytes


@dataclass(frozen=True)
class FileRef:
    path: str


@dataclass(frozen=True)
class Generated:
    n_blocks: int


@dataclass(frozen=True)
class Repeated:
    inner: "MessageSource"
    count: int


MessageSource = Union[InlineHex, FileRef, Generated, Repeated]


class _MissingFile(Exception):
    def __init__(self, path: str):
        super().__init__(path)
        self.path = path


def _resolve_source(source: MessageSource, base_dir: str) -> list[int]:
    if isinstance(source, InlineHex):
        return pad_message(source.data)
    if isinstance(source, Generated):
        return make_message(source.n_blocks)
    if isinstance(source, Repeated):
        return _resolve_source(source.inner, base_dir) * source.count
    if isinstance(source, FileRef):
        path = source.path
        if not os.path.isabs(path):
            path = os.path.join(base_dir, path)
        if not os.path.exists(path):
            raise _MissingFile(source.path)
        with open(path, "rb") as fh:
            return pad_message(fh.read())
    raise TypeError("unknown message source: %r" % (source,))


# ---------------------------------------------------------------------------
# expectations


@dataclass(frozen=True)
class ExpectMac:
    value: int


@dataclass(frozen=True)
class ExpectPrelude:
    values: tuple[int, int, int, int, int, int]


@dataclass(frozen=True)
class ExpectConditioning:
    inputs: tuple[int, int]
    result: ConditioningResult


@dataclass(frozen=True)
class ExpectTrace:
    text: str | None = None
    path: str | None = None


Expectation = Union[ExpectMac, ExpectPrelude, ExpectConditioning, ExpectTrace]


@dataclass(frozen=True)
class VectorCase:
    name: str
    key: Key | None
    source: MessageSource | None
    expect: Expectation


@dataclass(frozen=True)
class VectorResult:
    name: str
    status: str
    detail: str = ""


@dataclass(frozen=True)
class VectorReport:
    results: tuple[VectorResult, ...]

    @property
    def passed(self) -> int:
        return sum(1 for r in self.results if r.status == STATUS_PASS)

    @property
    def failed(self) -> int:
        return sum(1 for r in self.results if r.status == STATUS_FAIL)

    @property
    def skipped(self) -> int:
        return sum(1 for r in self.results if r.status == STATUS_SKIP)

    @property
    def ok(self) -> bool:
        return self.failed == 0


# ---------------------------------------------------------------------------
# traces


@dataclass(frozen=True)
class TraceRecord:
    n: int  # 1-based over every absorbed block, straight through
    m: int
    x: int
    y: int
    v: int


@dataclass(frozen=True)
class SegmentTrace:
    records: tuple[TraceRecord, ...]
    z: int


@dataclass(frozen=True)
class MacTrace:
    segments: tuple[SegmentTrace, ...]
    mac: int

    def render(self) -> str:
        return "".join(trace_lines(self.segments))


def emit_trace(key: Key, message: Iterable[int]) -> MacTrace:
    """Authenticate while recording every loop iteration.

    Same segmentation, checks and limits as ``mac``: the whole message is
    checked before the first step is traced, and the result's ``mac``
    field always equals what ``mac`` returns for the same input.
    """
    pre = prelude(key)
    segments = tuple(trace_segments(pre, tuple(_block_segments(message))))
    return MacTrace(segments, segments[-1].z)


def trace_segments(
    pre: PreludeOutput, segments: Iterable[Sequence[int]]
) -> Iterator[SegmentTrace]:
    """The traced twin of the chaining loop: one SegmentTrace per segment.

    Folds main_loop_step over each unit (the previous result prepended to
    the segment, then the two trailer blocks), numbering the absorbed
    blocks straight through.
    """
    n = 0
    z = None
    for seg in segments:
        unit = seg if z is None else (z, *seg)
        state = LoopState(pre.x0, pre.y0, pre.v0)
        records = []
        for m in (*unit, pre.s, pre.t):
            state = main_loop_step(state, pre.w, m)
            n += 1
            records.append(TraceRecord(n, m, state.x, state.y, state.v))
        z = state.x ^ state.y
        yield SegmentTrace(tuple(records), z)


def trace_lines(segments: Iterable[SegmentTrace]) -> Iterator[str]:
    """The rendered trace, a newline-terminated line at a time.

    An ``N=`` line per absorbed block, a ``Z<i>=`` line per segment, then
    the ``MAC=`` line: the last segment's result.  Values are eight
    uppercase hex digits, as ``block_hex`` renders them.
    """
    z = None
    for i, seg in enumerate(segments, 1):
        for r in seg.records:
            yield "N=%d M=%08X X=%08X Y=%08X V=%08X\n" % (r.n, r.m, r.x, r.y, r.v)
        z = seg.z
        yield "Z%d=%08X\n" % (i, z)
    yield "MAC=%08X\n" % z


# ---------------------------------------------------------------------------
# builtin corpus

_STANDARD_KEY = Key(0xE6A12F07, 0x9D15C437)
_DEGENERATE_KEY = Key(0x00000100, 0x00000080)

# Conditioning answers published with the algorithm's test data.
_CONDITIONING = [
    ((0x00000003, 0x00000060), (0x01030703, 0x1D3B7760, 0xEE)),
    ((0x00030000, 0x00060000), (0x0103050B, 0x17065DBB, 0xBB)),
    ((0x00000005, 0x80000002), (0x01030705, 0x80397302, 0xE6)),
]

# Frozen outputs of this implementation, recorded once the published
# vectors and the arithmetic cross-checks all passed, and pinned since.
# Keys are generator block counts under the standard key.
_GENERATED_MACS = {
    0: 0x5A6E771C,
    1: 0x3A6E588F,
    4: 0x437102EA,
    8: 0x2128988B,
    255: 0xA1AB869D,
    256: 0x24C8FBC2,
    257: 0xBC345787,
    300: 0x66773F05,
    600: 0x6CFD7EC6,
}
_PREFIX_14_MAC = 0x4C1274E3  # bytes 42450A0A2020204361726566756C
_REVERSED_8_MAC = 0x08D84EC6  # the 8-block generator message, blocks reversed
_SWAPPED_600_MAC = 0x4FF0C1EC  # 600 blocks with segments 2 and 3 exchanged
_DEGENERATE_3_MAC = 0xD5D8652F  # 3 generator blocks under the degenerate key

# Golden trace of the 3-block generator message under the standard key;
# regenerated only by deliberate decision, never in CI.
_TRACE_GEN3 = """\
N=1 M=9E3779B9 X=4A686247 Y=6EA6ACDD V=89D635D7
N=2 M=3C6EF372 X=16DEB133 Y=CDBB1F4F V=13AC6BAF
N=3 M=DAA66D2B X=81444FE1 Y=125FBC78 V=2758D75E
N=4 M=6D67E884 X=4D678083 Y=2DAAED74 V=4EB1AEBC
N=5 M=A511987A X=5C686638 Y=30D83E74 V=9D635D78
Z1=6CB0584C
MAC=6CB0584C
"""

# The published 588-block end-to-end test: 7 repetitions of an 84-block
# text (ISO 8730 Annex E). The message bytes are not distributed with this
# package; drop the 336-byte file next to your vector files to enable it.
ISO_MESSAGE_FILENAME = "iso8730-e34-message.bin"
ISO_588_MAC = 0xC6E3D000


def builtin_corpus() -> list[VectorCase]:
    """Cases that ship with the package.

    Everything here runs offline except the final 588-block case, which
    references an external message file and reports SKIP until one is
    supplied.
    """
    cases: list[VectorCase] = []
    for i, (inputs, (first, second, pattern)) in enumerate(_CONDITIONING, 1):
        cases.append(
            VectorCase(
                name="conditioning-%d" % i,
                key=None,
                source=None,
                expect=ExpectConditioning(
                    inputs, ConditioningResult(first, second, pattern)
                ),
            )
        )
    for n, value in sorted(_GENERATED_MACS.items()):
        cases.append(
            VectorCase(
                name="gen-%04d" % n,
                key=_STANDARD_KEY,
                source=Generated(n),
                expect=ExpectMac(value),
            )
        )
    cases.append(
        VectorCase(
            name="prefix-14-bytes",
            key=_STANDARD_KEY,
            source=InlineHex(bytes.fromhex("42450A0A2020204361726566756C")),
            expect=ExpectMac(_PREFIX_14_MAC),
        )
    )
    cases.append(
        VectorCase(
            name="gen-0008-reversed",
            key=_STANDARD_KEY,
            source=_blocks_source(reversed(make_message(8))),
            expect=ExpectMac(_REVERSED_8_MAC),
        )
    )
    gen600 = make_message(600)
    cases.append(
        VectorCase(
            name="gen-0600-segments-swapped",
            key=_STANDARD_KEY,
            source=_blocks_source(gen600[:256] + gen600[512:] + gen600[256:512]),
            expect=ExpectMac(_SWAPPED_600_MAC),
        )
    )
    cases.append(
        VectorCase(
            name="degenerate-key-gen-0003",
            key=_DEGENERATE_KEY,
            source=Generated(3),
            expect=ExpectMac(_DEGENERATE_3_MAC),
        )
    )
    cases.append(
        VectorCase(
            name="trace-gen-0003",
            key=_STANDARD_KEY,
            source=Generated(3),
            expect=ExpectTrace(text=_TRACE_GEN3),
        )
    )
    cases.append(
        VectorCase(
            name="iso8730-588-block",
            key=_STANDARD_KEY,
            source=Repeated(FileRef(ISO_MESSAGE_FILENAME), 7),
            expect=ExpectMac(ISO_588_MAC),
        )
    )
    return cases


def _blocks_source(blocks: Iterable[int]) -> InlineHex:
    return InlineHex(b"".join(b.to_bytes(4, "big") for b in blocks))


# ---------------------------------------------------------------------------
# runner


def run_vectors(cases: Iterable[VectorCase], base_dir: str = ".") -> VectorReport:
    results = []
    for case in cases:
        results.append(_run_one(case, base_dir))
    return VectorReport(tuple(results))


def _run_one(case: VectorCase, base_dir: str) -> VectorResult:
    try:
        return _evaluate(case, base_dir)
    except _MissingFile as miss:
        return VectorResult(case.name, STATUS_SKIP, "missing file: %s" % miss.path)
    except MessageTooLong as err:
        return VectorResult(case.name, STATUS_FAIL, str(err))


def _evaluate(case: VectorCase, base_dir: str) -> VectorResult:
    expect = case.expect
    if isinstance(expect, ExpectConditioning):
        got = byt_pat(*expect.inputs)
        if got == expect.result:
            return VectorResult(case.name, STATUS_PASS)
        return VectorResult(
            case.name,
            STATUS_FAIL,
            "computed=%s %s %02X expected=%s %s %02X"
            % (
                block_hex(got.first),
                block_hex(got.second),
                got.pattern,
                block_hex(expect.result.first),
                block_hex(expect.result.second),
                expect.result.pattern,
            ),
        )
    if case.key is None:
        return VectorResult(case.name, STATUS_FAIL, "case has no key")
    if isinstance(expect, ExpectPrelude):
        got6 = tuple(prelude(case.key))
        if got6 == expect.values:
            return VectorResult(case.name, STATUS_PASS)
        return VectorResult(
            case.name,
            STATUS_FAIL,
            "computed=%s expected=%s"
            % (
                " ".join(block_hex(v) for v in got6),
                " ".join(block_hex(v) for v in expect.values),
            ),
        )
    if case.source is None:
        return VectorResult(case.name, STATUS_FAIL, "case has no message")
    blocks = _resolve_source(case.source, base_dir)
    if isinstance(expect, ExpectMac):
        got = mac(case.key, blocks)
        if got == expect.value:
            return VectorResult(case.name, STATUS_PASS)
        return VectorResult(
            case.name,
            STATUS_FAIL,
            "computed=%s expected=%s" % (block_hex(got), block_hex(expect.value)),
        )
    if isinstance(expect, ExpectTrace):
        golden = expect.text
        if golden is None:
            path = expect.path or ""
            if not os.path.isabs(path):
                path = os.path.join(base_dir, path)
            if not os.path.exists(path):
                raise _MissingFile(expect.path or "")
            with open(path, "r", encoding="ascii") as fh:
                golden = fh.read()
        rendered = emit_trace(case.key, blocks).render()
        if rendered == golden:
            return VectorResult(case.name, STATUS_PASS)
        return VectorResult(case.name, STATUS_FAIL, _first_divergence(rendered, golden))
    return VectorResult(case.name, STATUS_FAIL, "unknown expectation: %r" % (expect,))


def _first_divergence(rendered: str, golden: str) -> str:
    got_lines = rendered.splitlines()
    want_lines = golden.splitlines()
    for i, (g, w) in enumerate(zip(got_lines, want_lines), 1):
        if g != w:
            return "trace line %d: computed=%r expected=%r" % (i, g, w)
    return "trace length: computed=%d lines expected=%d lines" % (
        len(got_lines),
        len(want_lines),
    )


# ---------------------------------------------------------------------------
# parser


def parse_vector_text(text: str, source_name: str = "<string>") -> list[VectorCase]:
    parser = _Parser(source_name)
    for number, raw in enumerate(text.splitlines(), 1):
        parser.feed(number, raw)
    return parser.finish()


def parse_vector_file(path: str) -> list[VectorCase]:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_vector_text(fh.read(), source_name=path)


class _Parser:
    def __init__(self, source_name: str):
        self.source_name = source_name
        self.cases: list[VectorCase] = []
        self.last_line = 0
        self._reset()

    def _reset(self):
        self.started = False
        self.name: str | None = None
        self.key: Key | None = None
        self.hex_parts: list[str] = []
        self.file_ref: str | None = None
        self.gen: int | None = None
        self.repeat: int | None = None
        self.expect: Expectation | None = None
        self.start_line = 0

    def feed(self, number: int, raw: str):
        self.last_line = number
        line = raw.strip()
        if not line or line.startswith("#"):
            return
        fields = line.split()
        directive, args = fields[0], fields[1:]
        handler = {
            "CASE": self._on_case,
            "KEY": self._on_key,
            "MSGHEX": self._on_msghex,
            "MSGFILE": self._on_msgfile,
            "MSGGEN": self._on_msggen,
            "REPEAT": self._on_repeat,
            "EXPECT-MAC": self._on_expect_mac,
            "EXPECT-PRELUDE": self._on_expect_prelude,
            "EXPECT-TRACE": self._on_expect_trace,
        }.get(directive)
        if handler is None:
            raise VectorFormatError("unknown directive %r" % directive, number)
        handler(number, args)

    def _open(self, number: int, name: str | None = None, flush_done: bool = True):
        # A body directive after the case's expectation opens the next
        # case; an expectation directive never does (one per case).
        if flush_done and self.started and self.expect is not None:
            self._flush(number)
        if not self.started:
            self.started = True
            self.start_line = number
            if name is not None:
                self.name = name

    def _on_case(self, number: int, args: list[str]):
        if self.started:
            self._flush(number)
        if not args:
            raise VectorFormatError("CASE needs a name", number)
        self._open(number, " ".join(args))

    def _on_key(self, number: int, args: list[str]):
        self._open(number)
        if self.key is not None:
            raise VectorFormatError("duplicate KEY", number)
        if len(args) != 2:
            raise VectorFormatError("KEY needs two 8-digit hex words", number)
        self.key = Key(_word(args[0], number), _word(args[1], number))

    def _require_no_other_source(self, number: int, kind: str):
        sources = [
            bool(self.hex_parts) and kind != "MSGHEX",
            self.file_ref is not None and kind != "MSGFILE",
            self.gen is not None and kind != "MSGGEN",
        ]
        if any(sources):
            raise VectorFormatError("case already has a message source", number)

    def _on_msghex(self, number: int, args: list[str]):
        self._open(number)
        self._require_no_other_source(number, "MSGHEX")
        # a bare MSGHEX is legal: it denotes the empty message
        part = "".join(args)
        if not all(c in "0123456789abcdefABCDEF" for c in part):
            raise VectorFormatError("MSGHEX contains non-hex characters", number)
        self.hex_parts.append(part)

    def _on_msgfile(self, number: int, args: list[str]):
        self._open(number)
        self._require_no_other_source(number, "MSGFILE")
        if self.file_ref is not None:
            raise VectorFormatError("duplicate MSGFILE", number)
        if not args:
            raise VectorFormatError("MSGFILE needs a path", number)
        self.file_ref = " ".join(args)

    def _on_msggen(self, number: int, args: list[str]):
        self._open(number)
        self._require_no_other_source(number, "MSGGEN")
        if self.gen is not None:
            raise VectorFormatError("duplicate MSGGEN", number)
        if len(args) != 1 or not args[0].isdigit():
            raise VectorFormatError("MSGGEN needs a nonnegative block count", number)
        self.gen = int(args[0])

    def _on_repeat(self, number: int, args: list[str]):
        self._open(number)
        if self.repeat is not None:
            raise VectorFormatError("duplicate REPEAT", number)
        if len(args) != 1 or not args[0].isdigit() or int(args[0]) < 1:
            raise VectorFormatError("REPEAT needs a positive count", number)
        self.repeat = int(args[0])

    def _on_expect_mac(self, number: int, args: list[str]):
        self._open(number, flush_done=False)
        self._no_expect_yet(number)
        if len(args) != 1:
            raise VectorFormatError("EXPECT-MAC needs one 8-digit hex word", number)
        self.expect = ExpectMac(_word(args[0], number))

    def _on_expect_prelude(self, number: int, args: list[str]):
        self._open(number, flush_done=False)
        self._no_expect_yet(number)
        if len(args) != 6:
            raise VectorFormatError("EXPECT-PRELUDE needs six 8-digit hex words", number)
        self.expect = ExpectPrelude(tuple(_word(a, number) for a in args))

    def _on_expect_trace(self, number: int, args: list[str]):
        self._open(number, flush_done=False)
        self._no_expect_yet(number)
        if not args:
            raise VectorFormatError("EXPECT-TRACE needs a path", number)
        self.expect = ExpectTrace(path=" ".join(args))

    def _no_expect_yet(self, number: int):
        if self.expect is not None:
            raise VectorFormatError("case already has an expectation", number)

    def _flush(self, number: int):
        if self.expect is None:
            raise VectorFormatError(
                "case starting at line %d has no expectation" % self.start_line, number
            )
        source: MessageSource | None = None
        if self.hex_parts:
            combined = "".join(self.hex_parts)
            if len(combined) % 2:
                raise VectorFormatError(
                    "MSGHEX data has odd length in case starting at line %d"
                    % self.start_line,
                    number,
                )
            source = InlineHex(bytes.fromhex(combined))
        elif self.file_ref is not None:
            source = FileRef(self.file_ref)
        elif self.gen is not None:
            source = Generated(self.gen)
        if self.repeat is not None:
            if source is None:
                raise VectorFormatError(
                    "REPEAT without a message source in case starting at line %d"
                    % self.start_line,
                    number,
                )
            source = Repeated(source, self.repeat)
        needs_key = not isinstance(self.expect, ExpectConditioning)
        if needs_key and self.key is None:
            raise VectorFormatError(
                "case starting at line %d has no KEY" % self.start_line, number
            )
        if isinstance(self.expect, (ExpectMac, ExpectTrace)) and source is None:
            raise VectorFormatError(
                "case starting at line %d has no message" % self.start_line, number
            )
        if isinstance(self.expect, ExpectPrelude) and source is not None:
            raise VectorFormatError(
                "prelude case starting at line %d takes no message" % self.start_line,
                number,
            )
        name = self.name or "case-%d" % (len(self.cases) + 1)
        self.cases.append(VectorCase(name, self.key, source, self.expect))
        self._reset()

    def finish(self) -> list[VectorCase]:
        if self.started:
            self._flush(self.last_line)
        return self.cases


def _word(token: str, number: int) -> int:
    if len(token) != 8 or not all(c in "0123456789abcdefABCDEF" for c in token):
        raise VectorFormatError("expected an 8-digit hex word, got %r" % token, number)
    return int(token, 16)


def format_cases(cases: Iterable[VectorCase]) -> str:
    """Render cases back into the file format (inverse of parsing).

    Cases whose expectation has no file representation (conditioning
    answers, inline trace text) raise ValueError.
    """
    out = []
    for case in cases:
        out.append("CASE %s" % case.name)
        if case.key is not None:
            out.append(
                "KEY %s %s" % (block_hex(case.key.first), block_hex(case.key.second))
            )
        out.extend(_format_source(case.source))
        expect = case.expect
        if isinstance(expect, ExpectMac):
            out.append("EXPECT-MAC %s" % block_hex(expect.value))
        elif isinstance(expect, ExpectPrelude):
            out.append(
                "EXPECT-PRELUDE %s" % " ".join(block_hex(v) for v in expect.values)
            )
        elif isinstance(expect, ExpectTrace) and expect.path is not None:
            out.append("EXPECT-TRACE %s" % expect.path)
        else:
            raise ValueError("no file representation for %r" % (expect,))
        out.append("")
    return "\n".join(out)


def _format_source(source: MessageSource | None) -> list[str]:
    if source is None:
        return []
    if isinstance(source, InlineHex):
        hexstr = source.data.hex().upper()
        return ["MSGHEX %s" % hexstr] if hexstr else ["MSGHEX"]
    if isinstance(source, FileRef):
        return ["MSGFILE %s" % source.path]
    if isinstance(source, Generated):
        return ["MSGGEN %d" % source.n_blocks]
    if isinstance(source, Repeated):
        return _format_source(source.inner) + ["REPEAT %d" % source.count]
    raise ValueError("no file representation for %r" % (source,))
