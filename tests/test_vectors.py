"""Vector corpus, file format, runner, and tracer."""

import errno
import os
import textwrap
from functools import reduce
from pathlib import Path

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

import maa32
from maa32 import core, vectors
from maa32.blocks import ConditioningResult
from maa32.core import Key, mac, make_message
from maa32.vectors import (
    ExpectConditioning,
    ExpectMac,
    ExpectPrelude,
    ExpectTrace,
    FileRef,
    Generated,
    InlineHex,
    Repeated,
    VectorCase,
    VectorFormatError,
    VectorResult,
    builtin_corpus,
    emit_trace,
    parse_vector_file,
    parse_vector_text,
    run_vectors,
)

STANDARD_KEY = Key(0xE6A12F07, 0x9D15C437)
u32 = st.integers(min_value=0, max_value=0xFFFFFFFF)

# Generated .mvt texts: whole cases in file order, with parts left out,
# interleaved with single lines in any order (known directives with
# well-formed or junk arguments, unknown directives, blank and comment
# lines).  Tokens mix hex words and runs, ASCII and other-script digits,
# and paths.
hex_words = u32.map("%08X".__mod__) | st.sampled_from(["e6a12f07", "9d15c437"])
junk_tokens = st.sampled_from(
    ["", "0", "1", "7", "84", "-1", "00", "012", "DEAD", "XYZ", "0x000001",
     "+0000001", "1_000000", "²", "³", "١٢", "٣", "①", "a.bin", "sub dir/m.bin"]
)
counts = st.sampled_from(["0", "1", "7", "84", "256", "257", "²", "³", "①", "١٢"])
# A name or path is one argument, runs of blanks and tabs inside it kept.
names = st.sampled_from(["a", "b", "two words", "two  spaces", "tab\there", "x \t y"])
well_formed_args = {
    "CASE": names.map(lambda name: [name]),
    "KEY": st.lists(hex_words, min_size=2, max_size=2),
    "MSGHEX": st.lists(st.binary(max_size=6).map(bytes.hex), max_size=3),
    "MSGFILE": st.sampled_from(["m.bin", "two  spaces.bin", "tab\tname.bin"]).map(lambda p: [p]),
    "MSGGEN": counts.map(lambda c: [c]),
    "REPEAT": counts.map(lambda c: [c]),
    "EXPECT-MAC": st.lists(hex_words, min_size=1, max_size=1),
    "EXPECT-PRELUDE": st.lists(hex_words, min_size=6, max_size=6),
    "EXPECT-TRACE": st.sampled_from(["golden.trace", "two  spaces.trace"]).map(lambda p: [p]),
}


def mvt_line(directive, args):
    return args.map(lambda a: [" ".join([directive, *a])])


def well_formed(directive):
    return mvt_line(directive, well_formed_args[directive])


def any_line(directive):
    junk = st.lists(hex_words | junk_tokens, max_size=7)
    return mvt_line(directive, well_formed_args.get(directive, st.nothing()) | junk)


mvt_cases = st.tuples(
    st.just([]) | well_formed("CASE"),
    st.just([]) | well_formed("KEY"),
    st.just([]) | st.sampled_from(["MSGHEX", "MSGFILE", "MSGGEN"]).flatmap(well_formed),
    st.just([]) | well_formed("REPEAT"),
    st.sampled_from(["EXPECT-MAC", "EXPECT-PRELUDE", "EXPECT-TRACE"]).flatmap(well_formed),
).map(lambda parts: sum(parts, []))
# Characters that str.splitlines takes as line ends but the format does not.
OTHER_BREAKS = ["\v", "\f", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]
mvt_lines = st.sampled_from(
    [[""], ["  "], ["# note"], ["  # KEY 00000000 00000000"]]
    + [["# page break %s KEY 00000000 00000000" % c] for c in OTHER_BREAKS]
) | (
    st.sampled_from([*well_formed_args, "FROB", "0", "key", "EXPECT-FOO"]).flatmap(any_line)
)
mvt_texts = st.builds(
    lambda chunks, newline, last: newline.join(sum(chunks, [])) + last,
    st.lists(mvt_cases | mvt_lines, max_size=6),
    st.sampled_from(["\n", "\r\n"]),
    st.sampled_from(["", "\n", "\n# trailing\n\n"]),
)


# Well-formed cases for the round trip: names and paths hold blanks, tabs
# and "#", which is text past a line's first word.
round_trip_names = st.sampled_from(
    ["a", "two  words", "tab\there", "a # note", "#first", "x\t#\ty"]
)
round_trip_paths = st.sampled_from(["m.bin", "two  spaces.bin", "tab\tname.bin", "a#b.bin", "# c"])


@st.composite
def round_trip_cases(draw):
    """The lines of a well-formed case and the VectorCase they denote, named None if unnamed.

    The body rows come in any order, MSGHEX parts (empty ones included) in
    their own; the expectation comes last.
    """
    name = draw(st.none() | round_trip_names)
    key = Key(draw(u32), draw(u32))
    rows = ["KEY %08X %08x" % key]
    kind = draw(st.sampled_from(["EXPECT-MAC", "EXPECT-TRACE", "EXPECT-PRELUDE"]))
    source = None
    if kind != "EXPECT-PRELUDE":
        leaf = draw(st.sampled_from(["MSGHEX", "MSGFILE", "MSGGEN"]))
        if leaf == "MSGHEX":
            data = draw(st.binary(max_size=8))
            digits = draw(st.sampled_from([str.lower, str.upper]))(data.hex())
            cuts = sorted(draw(st.lists(st.integers(0, len(digits)), max_size=3)))
            rows += ["MSGHEX " + digits[i:j] for i, j in zip([0, *cuts], [*cuts, len(digits)])]
            source = InlineHex(data)
        elif leaf == "MSGFILE":
            path = draw(round_trip_paths)
            rows.append("MSGFILE " + path)
            source = FileRef(path)
        else:
            n_blocks = draw(st.integers(0, 600))
            rows.append("MSGGEN %d" % n_blocks)
            source = Generated(n_blocks)
        if draw(st.booleans()):
            count = draw(st.integers(1, 9))
            rows.append("REPEAT %d" % count)
            source = Repeated(source, count)
    if kind == "EXPECT-MAC":
        expect = ExpectMac(draw(u32))
        last = "EXPECT-MAC %08X" % expect.value
    elif kind == "EXPECT-TRACE":
        expect = ExpectTrace(path=draw(round_trip_paths))
        last = "EXPECT-TRACE " + expect.path
    else:
        expect = ExpectPrelude(tuple(draw(st.lists(u32, min_size=6, max_size=6))))
        last = "EXPECT-PRELUDE " + " ".join(map("%08X".__mod__, expect.values))
    parts = iter([row for row in rows if row.startswith("MSGHEX")])
    body = [next(parts) if row.startswith("MSGHEX") else row for row in draw(st.permutations(rows))]
    lines = ([] if name is None else ["CASE " + name]) + body + [last]
    return lines, VectorCase(name, key, source, expect)


# Message source trees: a leaf (0-9 inline bytes, so 0-3 pad bytes; 0-600
# generated blocks; or a file of FILE_SIZES) under up to three REPEATs.
FILE_SIZES = {"empty.bin": 0, "three.bin": 3, "segment.bin": 1024, "segment-plus-5.bin": 1029}
source_leaves = (
    st.binary(max_size=9).map(InlineHex)
    | st.integers(0, 600).map(Generated)
    | st.sampled_from(sorted(FILE_SIZES)).map(FileRef)
)
source_trees = st.builds(
    lambda leaf, counts: reduce(Repeated, counts, leaf),
    source_leaves,
    st.lists(st.integers(1, 3), max_size=3),
)


# Paths a case may reference beyond FILE_SIZES: a golden that passes
# (Generated(2) under STANDARD_KEY), goldens that are not ASCII, start with a
# byte order mark or end their lines in CRLF, a directory, a symlink to itself,
# a FIFO with no writer and a missing path.
GOOD_TRACE = emit_trace(STANDARD_KEY, make_message(2)).render().encode()
GOLDEN_FILES = {
    "good.trace": GOOD_TRACE,
    "latin1.trace": b"N=1 caf\xe9\n",
    "bom.trace": b"\xef\xbb\xbf" + GOOD_TRACE,
    "crlf.trace": GOOD_TRACE.replace(b"\n", b"\r\n"),
}
referenced_paths = st.sampled_from(
    [*FILE_SIZES, *GOLDEN_FILES, "sub", "loop", "fifo", "missing.bin"]
)
referencing_cases = st.builds(
    VectorCase,
    st.just(""),
    st.just(STANDARD_KEY),
    st.builds(
        lambda leaf, counts: reduce(Repeated, counts, leaf),
        source_leaves | st.just(Generated(2)) | referenced_paths.map(FileRef),
        st.lists(st.integers(1, 3), max_size=2),
    ),
    u32.map(ExpectMac) | referenced_paths.map(lambda path: ExpectTrace(path=path)),
)


def materialise(source, base_dir):
    """The whole message of a source, as lists: padded bytes, generated blocks, list * count."""
    if isinstance(source, InlineHex):
        return list(core._unpack_blocks(source.data))
    if isinstance(source, Generated):
        return make_message(source.n_blocks)
    if isinstance(source, FileRef):
        return list(core._unpack_blocks((Path(base_dir) / source.path).read_bytes()))
    return materialise(source.inner, base_dir) * source.count


@pytest.fixture
def source_reads(monkeypatch):
    """One entry per call the runner makes to a byte or block source."""
    calls = []

    def counted(real):
        def read(*args):
            calls.append(1)
            return real(*args)

        return read

    for name in "_read_segments", "_message_blocks":
        monkeypatch.setattr(vectors, name, counted(getattr(vectors, name)))
    return calls


@pytest.fixture
def opened(monkeypatch):
    """Every stream the runner opens, message or golden, in order."""
    streams = []
    real = vectors._open

    def recorded(*args):
        streams.append(real(*args))
        return streams[-1]

    monkeypatch.setattr(vectors, "_open", recorded)
    return streams


@pytest.fixture(scope="module")
def message_dir(tmp_path_factory):
    path = tmp_path_factory.mktemp("messages")
    for name, size in FILE_SIZES.items():
        (path / name).write_bytes(bytes((37 * i + 11) & 0xFF for i in range(size)))
    for name, data in GOLDEN_FILES.items():
        (path / name).write_bytes(data)
    (path / "sub").mkdir()
    (path / "loop").symlink_to("loop")
    os.mkfifo(path / "fifo")
    return str(path)


class TestBuiltinCorpus:
    def test_everything_passes_offline(self, tmp_path):
        report = run_vectors(builtin_corpus(), base_dir=str(tmp_path))
        assert report.failed == 0
        assert report.passed == len(builtin_corpus()) - 1
        assert report.skipped == 1

    def test_external_case_is_skipped_not_passed(self, tmp_path):
        report = run_vectors(builtin_corpus(), base_dir=str(tmp_path))
        by_name = {r.name: r for r in report.results}
        gated = by_name["iso8730-588-block"]
        assert gated.status == vectors.STATUS_SKIP
        assert "missing file" in gated.detail

    def test_corrupted_expectation_is_caught_with_both_values(self, tmp_path):
        cases = [
            c
            for c in builtin_corpus()
            if isinstance(c.expect, ExpectMac) and not isinstance(c.source, FileRef)
            and not isinstance(c.source, Repeated)
        ]
        case = cases[0]
        bad = VectorCase(case.name, case.key, case.source, ExpectMac(case.expect.value ^ 1))
        report = run_vectors([bad], base_dir=str(tmp_path))
        (result,) = report.results
        assert result.status == vectors.STATUS_FAIL
        assert "computed=" in result.detail and "expected=" in result.detail
        assert "%08X" % case.expect.value in result.detail
        assert "%08X" % (case.expect.value ^ 1) in result.detail

    def test_order_block_sensitivity_recorded_in_corpus(self):
        by_name = {c.name: c for c in builtin_corpus()}
        assert by_name["gen-0008"].expect.value != by_name["gen-0008-reversed"].expect.value
        assert (
            by_name["gen-0600"].expect.value
            != by_name["gen-0600-segments-swapped"].expect.value
        )

    def test_supplied_external_file_activates_the_gated_case(self, tmp_path):
        # A stand-in message shows the gating path end to end: resolution
        # works, and a wrong MAC is a FAIL, not a SKIP.
        blocks = make_message(84)
        payload = b"".join(b.to_bytes(4, "big") for b in blocks)
        (tmp_path / vectors.ISO_MESSAGE_FILENAME).write_bytes(payload)
        report = run_vectors(builtin_corpus(), base_dir=str(tmp_path))
        by_name = {r.name: r for r in report.results}
        gated = by_name["iso8730-588-block"]
        assert gated.status == vectors.STATUS_FAIL  # stand-in bytes, wrong MAC
        expected = mac(STANDARD_KEY, blocks * 7)
        assert "%08X" % expected in gated.detail

    def test_file_and_repeat_source_resolution(self, tmp_path):
        blocks = make_message(84)
        payload = b"".join(b.to_bytes(4, "big") for b in blocks)
        (tmp_path / "m.bin").write_bytes(payload)
        case = VectorCase(
            "local",
            STANDARD_KEY,
            Repeated(FileRef("m.bin"), 7),
            ExpectMac(mac(STANDARD_KEY, blocks * 7)),
        )
        report = run_vectors([case], base_dir=str(tmp_path))
        assert report.results[0].status == vectors.STATUS_PASS


class TestLazySources:
    """The runner makes each message as it is consumed; it must equal the whole list."""

    @given(source_trees, st.sampled_from([STANDARD_KEY, Key(0x80018001, 0x80018000)]))
    @settings(max_examples=60, deadline=None)
    def test_equal_the_materialised_message(self, message_dir, source, key):
        blocks = materialise(source, message_dir)
        cases = [
            VectorCase("mac", key, source, ExpectMac(mac(key, blocks))),
            VectorCase("trace", key, source, ExpectTrace(emit_trace(key, blocks).render())),
        ]
        report = run_vectors(cases, base_dir=message_dir)
        assert [r.status for r in report.results] == [vectors.STATUS_PASS] * 2, report

    @pytest.mark.parametrize(
        "inner,reads",
        [
            (InlineHex(b""), 0),
            (FileRef("empty.bin"), 0),
            (Generated(0), 0),
            (Generated(1), 1000),
            (InlineHex(b"\x01"), 1000),
        ],
    )
    def test_repeat_rereads_its_source_unless_it_is_empty(
        self, source_reads, message_dir, inner, reads
    ):
        source = Repeated(inner, 1000)
        want = mac(STANDARD_KEY, materialise(source, message_dir))
        case = VectorCase("repeat", STANDARD_KEY, source, ExpectMac(want))
        (result,) = run_vectors([case], base_dir=message_dir).results
        assert result.status == vectors.STATUS_PASS
        assert len(source_reads) == reads

    @pytest.mark.parametrize(
        "leaf,opens",
        [(FileRef("segment-plus-5.bin"), 1), (InlineHex(b"\x01\x02\x03"), 1), (Generated(2), 0)],
    )
    def test_nested_repeats_open_their_source_once(
        self, source_reads, opened, message_dir, leaf, opens
    ):
        # The counts multiply: one open, sized once, then one read per repetition.
        source = Repeated(Repeated(leaf, 3), 7)
        want = mac(STANDARD_KEY, materialise(source, message_dir))
        case = VectorCase("nested", STANDARD_KEY, source, ExpectMac(want))
        (result,) = run_vectors([case], base_dir=message_dir).results
        assert result.status == vectors.STATUS_PASS
        assert (len(opened), len(source_reads)) == (opens, 21)
        assert all(stream.closed for stream in opened)

    @given(source_trees)
    @settings(
        max_examples=100, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
    )
    def test_length_is_known_before_any_block(self, source_reads, message_dir, source):
        # Any tree under a REPEAT that takes it to the cap FAILs unread, its exact length given.
        n_blocks = len(materialise(source, message_dir))
        assume(n_blocks)
        count = -(-core.MAX_MESSAGE_BLOCKS // n_blocks)
        source_reads.clear()
        cases = [
            VectorCase("big", STANDARD_KEY, Repeated(source, count), expect)
            for expect in (ExpectMac(0), ExpectTrace("MAC=00000000\n"))
        ]
        report = run_vectors(cases, base_dir=message_dir)
        detail = "message has %d blocks; limit is 1000000" % (count * n_blocks)
        assert [(r.status, r.detail) for r in report.results] == [(vectors.STATUS_FAIL, detail)] * 2
        assert source_reads == []

    @pytest.mark.parametrize(
        "source,expect,n_blocks",
        [
            (Generated(4_000_000), ExpectMac(0), 4_000_000),
            (Repeated(Generated(1), 4_000_000), ExpectMac(0), 4_000_000),
            (FileRef("big.bin"), ExpectMac(0), 1_000_000),
            (Repeated(FileRef("big.bin"), 3), ExpectMac(0), 3_000_000),
            (Generated(4_000_000), ExpectTrace("MAC=00000000\n"), 4_000_000),
            (Generated(4_000_000), ExpectTrace(path="big.trace"), 4_000_000),
        ],
        ids=["msggen", "repeat", "msgfile", "repeat-msgfile", "trace", "trace-file"],
    )
    def test_over_cap_message_is_refused_before_any_block(
        self, tmp_path, source_reads, source, expect, n_blocks
    ):
        with open(tmp_path / "big.bin", "wb") as fh:
            fh.truncate(core.MAX_MESSAGE_BYTES + 1)  # one byte more pads to the cap
        (tmp_path / "big.trace").write_text("MAC=00000000\n", encoding="utf-8")
        case = VectorCase("big", STANDARD_KEY, source, expect)
        (result,) = run_vectors([case], base_dir=str(tmp_path)).results
        detail = "message has %d blocks; limit is 1000000" % n_blocks
        assert (result.status, result.detail) == (vectors.STATUS_FAIL, detail)
        assert source_reads == []


class TestTrace:
    def test_golden_three_block_trace(self):
        got = emit_trace(STANDARD_KEY, make_message(3)).render()
        assert got == vectors._TRACE_GEN3

    def test_matches_mac_and_counts_rows_across_segments(self):
        msg = make_message(600)
        trace = emit_trace(STANDARD_KEY, msg)
        assert trace.mac == mac(STANDARD_KEY, msg)
        fields = [dict(f.split("=") for f in line.split()) for line in trace.render().splitlines()]
        rows = [f for f in fields if "N" in f]
        results = [f for f in fields if "N" not in f]
        # 600 message blocks + 2 chaining blocks + 3 * 2 trailer blocks
        assert len(rows) == 608
        assert [int(r["N"]) for r in rows] == list(range(1, 609))
        assert [name for r in results for name in r] == ["Z1", "Z2", "Z3", "MAC"]
        # chaining rows carry the previous segment's result
        assert rows[258]["M"] == results[0]["Z1"]
        assert results[2]["Z3"] == results[3]["MAC"] == "%08X" % trace.mac

    def test_empty_message_trace(self):
        trace = emit_trace(STANDARD_KEY, [])
        lines = trace.render().splitlines()
        # the two trailer blocks, then the one segment's result and the MAC
        assert [line.split("=")[0] for line in lines] == ["N", "N", "Z1", "MAC"]
        assert lines[2][3:] == lines[3][4:] == "%08X" % trace.mac
        assert trace.mac == mac(STANDARD_KEY, [])

    def test_mac_comes_from_the_fold_not_the_kernel(self, monkeypatch):
        # test_spec_model sets emit_trace's MAC against the model, so that
        # MAC must come from main_loop_step, not from process_segment.
        want = mac(STANDARD_KEY, make_message(300))
        monkeypatch.setattr(core, "process_segment", None)
        assert emit_trace(STANDARD_KEY, make_message(300)).mac == want

    def test_deterministic_rendering(self):
        a = emit_trace(STANDARD_KEY, make_message(10)).render()
        b = emit_trace(STANDARD_KEY, make_message(10)).render()
        assert a == b

    def test_rendering_shape(self):
        text = emit_trace(STANDARD_KEY, make_message(1)).render()
        lines = text.splitlines()
        assert lines[0].startswith("N=1 M=9E3779B9 X=")
        assert lines[-2] == "Z1=" + lines[-1].split("=")[1]
        assert lines[-1].startswith("MAC=")
        assert text.endswith("\n")

    @given(st.lists(u32, max_size=20))
    @settings(max_examples=50)
    def test_always_agrees_with_mac(self, blocks):
        assert emit_trace(STANDARD_KEY, blocks).mac == mac(STANDARD_KEY, blocks)

    def test_rejects_overlong_messages(self):
        with pytest.raises(core.MessageTooLong):
            emit_trace(STANDARD_KEY, iter([0] * 1_000_000))

    @pytest.mark.parametrize("bad", [2**40, -1, True, 1.0])
    def test_rejects_bad_blocks_as_mac_does(self, bad):
        with pytest.raises(ValueError) as from_mac:
            mac(STANDARD_KEY, [bad])
        with pytest.raises(ValueError) as from_trace:
            emit_trace(STANDARD_KEY, [bad])
        assert type(from_trace.value) is type(from_mac.value)
        assert str(from_trace.value) == str(from_mac.value)

    @pytest.mark.parametrize("function", [mac, emit_trace])
    @pytest.mark.parametrize(
        "message",
        [b"hello", bytearray(b"hello"), memoryview(b"hello")],
        ids=["bytes", "bytearray", "memoryview"],
    )
    def test_refuses_a_bytes_like_message(self, function, message):
        # Iterating bytes gives ints, so these would pass as the blocks 0x68, 0x65, ...
        with pytest.raises(ValueError, match="use mac_bytes"):
            function(STANDARD_KEY, message)

    @pytest.mark.parametrize("as_iterator", [False, True])
    def test_overlong_message_refused_before_any_step(self, monkeypatch, as_iterator):
        steps = []
        step = core.main_loop_step

        def counted(*args):
            steps.append(1)
            return step(*args)

        monkeypatch.setattr(core, "main_loop_step", counted)
        message = [0] * core.MAX_MESSAGE_BLOCKS
        with pytest.raises(core.MessageTooLong):
            emit_trace(STANDARD_KEY, iter(message) if as_iterator else message)
        assert steps == []
        # the counter does see the steps of an accepted message
        emit_trace(STANDARD_KEY, [0])
        assert len(steps) == 3


class TestParser:
    def test_implicit_single_case(self):
        cases = parse_vector_text(
            textwrap.dedent(
                """\
                # a comment
                KEY E6A12F07 9D15C437
                MSGHEX 42450A0A
                EXPECT-MAC 00000000
                """
            )
        )
        assert len(cases) == 1
        case = cases[0]
        assert case.name == "case-1"
        assert case.key == STANDARD_KEY
        assert case.source == InlineHex(bytes.fromhex("42450A0A"))
        assert case.expect == ExpectMac(0)

    def test_named_cases_and_all_sources(self):
        cases = parse_vector_text(
            textwrap.dedent(
                """\
                CASE inline
                KEY 00000001 00000002
                MSGHEX DEAD BEEF
                MSGHEX 0102
                EXPECT-MAC 11111111

                CASE from-file
                KEY 00000001 00000002
                MSGFILE sub dir/message.bin
                REPEAT 7
                EXPECT-MAC 22222222

                CASE generated
                KEY 00000001 00000002
                MSGGEN 84
                EXPECT-TRACE golden.trace

                CASE expansion-only
                KEY e6a12f07 9d15c437
                EXPECT-PRELUDE 01030703 1D3B7760 0103050B 17065DBB 01030705 80397302
                """
            )
        )
        assert [c.name for c in cases] == ["inline", "from-file", "generated", "expansion-only"]
        assert cases[0].source == InlineHex(bytes.fromhex("DEADBEEF0102"))
        assert cases[1].source == Repeated(FileRef("sub dir/message.bin"), 7)
        assert cases[2].source == Generated(84)
        assert cases[2].expect == ExpectTrace(path="golden.trace")
        assert cases[3].source is None
        assert cases[3].key == STANDARD_KEY  # hex is case-insensitive
        assert cases[3].expect == ExpectPrelude(
            (0x01030703, 0x1D3B7760, 0x0103050B, 0x17065DBB, 0x01030705, 0x80397302)
        )

    def test_key_directive_opens_next_case_after_expectation(self):
        cases = parse_vector_text(
            "KEY 00000001 00000002\nMSGGEN 1\nEXPECT-MAC 00000001\n"
            "KEY 00000003 00000004\nMSGGEN 2\nEXPECT-MAC 00000002\n"
        )
        assert len(cases) == 2
        assert cases[1].key == Key(3, 4)

    @pytest.mark.parametrize("brk", OTHER_BREAKS)
    def test_other_breaks_do_not_end_a_line(self, brk):
        text = "KEY 00000001 00000002\n# page break %s here\nMSGGEN 1\nEXPECT-MAC 00000000\n"
        (case,) = parse_vector_text(text % brk)
        assert case.source == Generated(1)
        with pytest.raises(VectorFormatError) as err:
            parse_vector_text(text % brk + "BOGUS %s 1\n" % brk)
        assert err.value.line_number == 5

    @pytest.mark.parametrize("end", ["\n", "\r\n", "\r"])
    def test_line_ends(self, end):
        text = end.join(["# one", "KEY 00000001 00000002", "", "BOGUS", ""])
        with pytest.raises(VectorFormatError) as err:
            parse_vector_text(text)
        assert err.value.line_number == 4

    @given(
        well_formed_args["CASE"],
        well_formed_args["MSGFILE"],
        well_formed_args["EXPECT-TRACE"],
        st.sampled_from(["", " ", "\t", " \t  "]),
    )
    @settings(max_examples=50, deadline=None)
    def test_names_and_paths_are_the_rest_of_the_line_trimmed(self, name, path, golden, pad):
        # Rebuilt from their words, "two  spaces.bin" was "two spaces.bin".
        lines = [("CASE", *name), ("KEY", "00000001 00000002"), ("MSGFILE", *path),
                 ("EXPECT-TRACE", *golden)]
        text = "".join(pad + directive + " " + pad + rest + pad + "\n" for directive, rest in lines)
        (case,) = parse_vector_text(text)
        assert case == VectorCase(name[0], Key(1, 2), FileRef(path[0]), ExpectTrace(path=golden[0]))

    @given(
        st.lists(round_trip_cases(), max_size=4),
        st.sampled_from(["\n", "\r\n"]),
        st.booleans(),
    )
    @settings(max_examples=300, deadline=None)
    def test_well_formed_cases_round_trip(self, drawn, newline, final_newline):
        lines = [line for case_lines, _ in drawn for line in case_lines]
        text = newline.join(lines) + (newline if final_newline and lines else "")
        want = [
            case._replace(name=case.name or "case-%d" % i) for i, (_, case) in enumerate(drawn, 1)
        ]
        # Compared by repr, since namedtuples of different types can compare equal.
        assert repr(parse_vector_text(text)) == repr(want)

    def test_empty_input_yields_no_cases(self):
        assert parse_vector_text("") == []
        assert parse_vector_text("# only a comment\n\n") == []

    @pytest.mark.parametrize(
        "text,line,fragment",
        [
            ("FROBNICATE 1\n", 1, "unknown directive"),
            ("KEY 123 456\n", 1, "8-digit hex"),
            ("KEY 0000000G 00000000\n", 1, "8-digit hex"),
            ("KEY 00000001 00000002\nKEY 00000001 00000002\n", 2, "duplicate KEY"),
            ("MSGHEX XYZ\n", 1, "non-hex"),
            ("MSGGEN nope\n", 1, "MSGGEN"),
            ("REPEAT 0\n", 1, "REPEAT"),
            ("MSGGEN 1\nMSGHEX 00\n", 2, "already has a message source"),
            (
                "KEY 00000001 00000002\nMSGGEN 1\nEXPECT-MAC 00000000\nEXPECT-MAC 00000000\n",
                4,
                "already has an expectation",
            ),
            ("CASE\n", 1, "CASE needs a name"),
            ("EXPECT-PRELUDE 00000001\n", 1, "six 8-digit hex words"),
            ("MSGGEN ²\n", 1, "MSGGEN needs a nonnegative block count"),
            ("MSGGEN ١٢\n", 1, "MSGGEN needs a nonnegative block count"),
            ("KEY 00000001 00000002\nREPEAT ³\n", 2, "REPEAT needs a positive count"),
            ("EXPECT-MAC 00000001\n0\n", 2, "unknown directive"),
            ("KEY 00000001 00000002\nMSGGEN 1\n\n# end\n", 4, "no expectation"),
            ("KEY 00000001 00000002 # std key\n", 1, "KEY needs two 8-digit hex words"),
        ],
    )
    def test_errors_carry_line_numbers(self, text, line, fragment):
        with pytest.raises(VectorFormatError) as err:
            parse_vector_text(text)
        assert err.value.line_number == line
        assert fragment in str(err.value)

    @given(mvt_texts)
    @settings(max_examples=300, deadline=None)
    def test_only_format_errors_escape(self, text):
        try:
            parse_vector_text(text)
        except VectorFormatError as err:
            assert 1 <= err.line_number <= len(text.splitlines())

    def test_error_message_names_the_line(self):
        with pytest.raises(VectorFormatError) as err:
            parse_vector_text("# fine\nBOGUS\n")
        assert "line 2" in str(err.value)
        assert "BOGUS" in str(err.value)

    def test_file_errors_name_the_path(self, tmp_path):
        path = tmp_path / "bad.mvt"
        path.write_text("# fine\nBOGUS\n", encoding="utf-8")
        with pytest.raises(VectorFormatError) as err:
            parse_vector_file(str(path))
        assert (err.value.source, err.value.line_number) == (str(path), 2)
        assert str(err.value) == "%s: line 2: unknown directive 'BOGUS'" % path

    @pytest.mark.parametrize("first", ["CASE bom", "# a comment"])
    def test_file_may_start_with_a_byte_order_mark(self, tmp_path, first):
        path = tmp_path / "bom.mvt"
        body = "%s\nKEY E6A12F07 9D15C437\nMSGGEN 3\nEXPECT-MAC 00000000\n" % first
        path.write_bytes(b"\xef\xbb\xbf" + body.encode())
        assert parse_vector_file(str(path)) == parse_vector_text(body)

    @pytest.mark.parametrize("cut", [b"\xef", b"\xef\xbb"])
    def test_cut_byte_order_mark_is_not_utf8(self, tmp_path, cut):
        path = tmp_path / "cut.mvt"
        path.write_bytes(cut)
        with pytest.raises(UnicodeDecodeError, match="unexpected end of data"):
            parse_vector_file(str(path))

    def test_byte_order_mark_is_dropped_only_at_the_start(self, tmp_path):
        path = tmp_path / "bom.mvt"
        path.write_bytes(b"# fine\n\xef\xbb\xbfCASE bom\n")
        with pytest.raises(VectorFormatError) as err:
            parse_vector_file(str(path))
        assert str(err.value) == "%s: line 2: unknown directive '\\ufeffCASE'" % path

    def test_text_errors_name_the_source(self):
        with pytest.raises(VectorFormatError) as err:
            parse_vector_text("MSGGEN 1\nEXPECT-MAC 00000000\n", source_name="inline.mvt")
        assert str(err.value) == "inline.mvt: line 2: case starting at line 1 has no KEY"

    def test_case_without_expectation_rejected(self):
        with pytest.raises(VectorFormatError) as err:
            parse_vector_text("CASE a\nKEY 00000001 00000002\nMSGGEN 1\nCASE b\n")
        assert "no expectation" in str(err.value)
        with pytest.raises(VectorFormatError):
            parse_vector_text("KEY 00000001 00000002\nMSGGEN 1\n")  # EOF flush

    def test_repeat_without_source_rejected(self):
        with pytest.raises(VectorFormatError) as err:
            parse_vector_text("KEY 00000001 00000002\nREPEAT 7\nEXPECT-MAC 00000000\n")
        assert "REPEAT without a message source" in str(err.value)

    def test_mac_case_without_key_rejected(self):
        with pytest.raises(VectorFormatError) as err:
            parse_vector_text("MSGGEN 1\nEXPECT-MAC 00000000\n")
        assert "has no KEY" in str(err.value)

    def test_prelude_case_with_message_rejected(self):
        with pytest.raises(VectorFormatError) as err:
            parse_vector_text(
                "KEY 00000001 00000002\nMSGGEN 1\n"
                "EXPECT-PRELUDE 00000001 00000001 00000001 00000001 00000001 00000001\n"
            )
        assert "takes no message" in str(err.value)

    def test_odd_hex_rejected_at_case_end(self):
        with pytest.raises(VectorFormatError) as err:
            parse_vector_text("KEY 00000001 00000002\nMSGHEX 012\nEXPECT-MAC 00000000\n")
        assert "odd length" in str(err.value)


class TestRunner:
    def test_prelude_expectation_pass_and_fail(self, tmp_path):
        # The standard's published prelude of a key with 00 and FF bytes.
        good = VectorCase(
            "expansion",
            Key(0x00FF00FF, 0x00000000),
            None,
            ExpectPrelude((0x4A645A01, 0x50DEC930, 0x5CCA3239, 0xFECCAA6E, 0x51EDE9C7, 0x24B66FB5)),
        )
        bad = VectorCase(
            "expansion-bad",
            Key(0x00FF00FF, 0x00000000),
            None,
            ExpectPrelude((0, 0, 0, 0, 0, 0)),
        )
        report = run_vectors([good, bad], base_dir=str(tmp_path))
        assert [r.status for r in report.results] == [
            vectors.STATUS_PASS,
            vectors.STATUS_FAIL,
        ]
        assert "computed=" in report.results[1].detail

    def test_trace_expectation_from_golden_file(self, tmp_path):
        golden = emit_trace(STANDARD_KEY, make_message(2)).render()
        (tmp_path / "two.trace").write_text(golden, encoding="utf-8")
        good = VectorCase(
            "trace-file", STANDARD_KEY, Generated(2), ExpectTrace(path="two.trace")
        )
        corrupted = golden.replace("N=1", "N=9", 1)
        (tmp_path / "bad.trace").write_text(corrupted, encoding="utf-8")
        bad = VectorCase(
            "trace-file-bad", STANDARD_KEY, Generated(2), ExpectTrace(path="bad.trace")
        )
        missing = VectorCase(
            "trace-file-missing", STANDARD_KEY, Generated(2), ExpectTrace(path="nope.trace")
        )
        report = run_vectors([good, bad, missing], base_dir=str(tmp_path))
        statuses = [r.status for r in report.results]
        assert statuses == [vectors.STATUS_PASS, vectors.STATUS_FAIL, vectors.STATUS_SKIP]
        assert "trace line 1" in report.results[1].detail

    def test_trace_length_detail(self, tmp_path):
        golden = emit_trace(STANDARD_KEY, make_message(2)).render()
        short = golden[: golden.rindex("MAC=")]  # the last line left out
        (tmp_path / "long.trace").write_text(golden + "MAC=00000000\n", encoding="utf-8")
        cases = [
            VectorCase("short", STANDARD_KEY, Generated(2), ExpectTrace(short)),
            VectorCase("long", STANDARD_KEY, Generated(2), ExpectTrace(path="long.trace")),
            VectorCase("no-last-newline", STANDARD_KEY, Generated(2), ExpectTrace(golden[:-1])),
        ]
        report = run_vectors(cases, base_dir=str(tmp_path))
        n = golden.count("\n")
        length = "trace length: computed=%d lines expected=%d lines"
        assert [(r.status, r.detail) for r in report.results[:2]] == [
            (vectors.STATUS_FAIL, length % (n, n - 1)),
            (vectors.STATUS_FAIL, length % (n, n + 1)),
        ]
        assert report.results[2].status == vectors.STATUS_FAIL  # texts must be equal

    def test_crlf_golden_fails_at_line_1_inline_and_from_a_file(self, tmp_path):
        golden = emit_trace(STANDARD_KEY, make_message(2)).render().replace("\n", "\r\n")
        (tmp_path / "crlf.trace").write_bytes(golden.encode())
        cases = [
            VectorCase("inline", STANDARD_KEY, Generated(2), ExpectTrace(golden)),
            VectorCase("file", STANDARD_KEY, Generated(2), ExpectTrace(path="crlf.trace")),
        ]
        first = golden[: golden.index("\n") - 1]
        detail = "trace line 1: computed=%r expected=%r" % (first + "\n", first + "\r\n")
        assert "\\r\\n'" in detail
        report = run_vectors(cases, base_dir=str(tmp_path))
        assert [(r.status, r.detail) for r in report.results] == [
            (vectors.STATUS_FAIL, detail)
        ] * 2

    @pytest.mark.parametrize("as_file", [False, True])
    def test_missing_final_newline_shows_both_line_ends(self, tmp_path, as_file):
        golden = emit_trace(STANDARD_KEY, make_message(2)).render()
        (tmp_path / "g.trace").write_bytes(golden[:-1].encode())
        expect = ExpectTrace(path="g.trace") if as_file else ExpectTrace(golden[:-1])
        case = VectorCase("no-last-newline", STANDARD_KEY, Generated(2), expect)
        (result,) = run_vectors([case], base_dir=str(tmp_path)).results
        last = "MAC=%08X" % mac(STANDARD_KEY, make_message(2))
        n = golden.count("\n")
        detail = "trace line %d: computed='%s\\n' expected='%s'" % (n, last, last)
        assert (result.status, result.detail) == (vectors.STATUS_FAIL, detail)

    @pytest.mark.parametrize(
        "line,old,new,encoding,shown,as_file",
        [
            *(
                (line, "=", "\u00e9", "latin-1", "\\xe9", as_file)
                for line in (1, 4, 7)
                for as_file in (False, True)
            ),
            (1, "N", "\ufeffN", "utf-8", "\\xef\\xbb\\xbfN", True),
        ],
        ids=[*("line-%d-%s" % (n, f) for n in (1, 4, 7) for f in ("inline", "file")), "bom-file"],
    )
    def test_inline_golden_with_a_non_ascii_character_fails_at_its_line(
        self, tmp_path, line, old, new, encoding, shown, as_file
    ):
        # One rule inline and from a file: a golden line that is not ASCII FAILs at
        # that line, its non-ASCII bytes shown as \xNN.  Inline text is escaped per
        # character, so a file holds é as its one latin-1 byte, and the byte order
        # mark as its three UTF-8 bytes.
        lines = emit_trace(STANDARD_KEY, make_message(3)).render().splitlines(keepends=True)
        want = lines[line - 1].replace(old, new, 1)
        golden = "".join(lines[: line - 1] + [want] + lines[line:])
        (tmp_path / "g.trace").write_bytes(golden.encode(encoding))
        expect = ExpectTrace(path="g.trace") if as_file else ExpectTrace(golden)
        case = VectorCase("latin", STANDARD_KEY, Generated(3), expect)
        (result,) = run_vectors([case], base_dir=str(tmp_path)).results
        escaped = lines[line - 1].replace(old, shown, 1)
        detail = "trace line %d: computed=%r expected=%r" % (line, lines[line - 1], escaped)
        assert (result.status, result.detail) == (vectors.STATUS_FAIL, detail)

    @given(st.lists(referencing_cases, max_size=6))
    @settings(max_examples=100, deadline=None)
    def test_a_parsed_case_never_aborts_the_run(self, message_dir, cases):
        # Whatever its files hold, or whether they are files at all, each case
        # has one result, in order: only a vector file that cannot be read or
        # parsed stops selftest.
        cases = [case._replace(name="case-%d" % i) for i, case in enumerate(cases)]
        report = run_vectors(cases, base_dir=message_dir)
        assert [r.name for r in report.results] == [case.name for case in cases]
        statuses = {vectors.STATUS_PASS, vectors.STATUS_FAIL, vectors.STATUS_SKIP}
        assert {r.status for r in report.results} <= statuses

    @pytest.mark.parametrize(
        "source,expect",
        [
            (Generated(4_000_000), ExpectTrace(path="nope.trace")),
            (Repeated(FileRef("nope.bin"), 4_000_000), ExpectMac(0)),
            (Repeated(FileRef("nope.bin"), 4_000_000), ExpectTrace(path="nope.trace")),
        ],
    )
    def test_missing_file_skips_an_over_cap_case(self, tmp_path, source, expect):
        case = VectorCase("big", STANDARD_KEY, source, expect)
        (result,) = run_vectors([case], base_dir=str(tmp_path)).results
        assert result.status == vectors.STATUS_SKIP
        assert result.detail.startswith("missing file: nope.")

    @pytest.mark.parametrize("count", [1, 10**6])
    @pytest.mark.parametrize(
        "path,error",
        [("sub", errno.EISDIR), ("loop", errno.ELOOP), ("missing.bin", None), ("three.bin/x", None)],
    )
    def test_repeat_count_does_not_change_a_paths_outcome(self, message_dir, path, error, count):
        # A file that exists but cannot be opened FAILs with the system's error, and
        # one that does not exist SKIPs, before any REPEAT count sizes the message:
        # 10**6 puts any nonzero size over the cap.
        if error is None:
            want = (vectors.STATUS_SKIP, "missing file: %s" % path)
        else:
            full = os.path.join(message_dir, path)
            want = (vectors.STATUS_FAIL, str(OSError(error, os.strerror(error), full)))
        cases = [
            VectorCase("once", STANDARD_KEY, FileRef(path), ExpectMac(0)),
            VectorCase("repeated", STANDARD_KEY, Repeated(FileRef(path), count), ExpectMac(0)),
        ]
        report = run_vectors(cases, base_dir=message_dir)
        assert [(r.status, r.detail) for r in report.results] == [want, want]

    @pytest.mark.parametrize(
        "source,expect,path",
        [
            (FileRef("fifo"), ExpectMac(0), "fifo"),
            (Repeated(FileRef("fifo"), 10**6), ExpectMac(0), "fifo"),
            (Generated(1), ExpectTrace(path="fifo"), "fifo"),
            (FileRef("/dev/zero"), ExpectMac(0), "/dev/zero"),
        ],
        ids=["msgfile", "repeated-msgfile", "golden", "dev-zero"],
    )
    def test_a_fifo_or_a_device_fails_unread(self, message_dir, source_reads, source, expect, path):
        # A path is opened without blocking and must name a regular file: a FIFO
        # with no writer would block the open, and a device has no size to check.
        full = os.path.join(message_dir, path)
        if not os.path.exists(full):
            pytest.skip("no %s here" % full)
        key = Key(0x00FF00FF, 0x00000000)
        neighbour = VectorCase("before", key, None, ExpectPrelude(tuple(core.prelude(key))))
        special = VectorCase("special", key, source, expect)
        report = run_vectors([neighbour, special, neighbour._replace(name="after")], message_dir)
        assert [(r.name, r.status, r.detail) for r in report.results] == [
            ("before", vectors.STATUS_PASS, ""),
            ("special", vectors.STATUS_FAIL, "not a regular file: %s" % full),
            ("after", vectors.STATUS_PASS, ""),
        ]
        assert source_reads == []

    def test_a_case_stopped_early_closes_its_message_file(self, monkeypatch, opened, tmp_path):
        # mac()'s own cap stops reading a file that grows after it is sized, and a
        # trace that diverges at line 1 stops at its first block.
        (tmp_path / "one.bin").write_bytes(bytes(4))
        (tmp_path / "grows.bin").write_bytes(bytes(4))
        check = vectors._check_block_count

        def grow_after_sizing(n_blocks):
            check(n_blocks)
            with open(tmp_path / "grows.bin", "ab") as fh:
                fh.write(bytes(4))

        monkeypatch.setattr(core, "MAX_MESSAGE_BLOCKS", 600)
        monkeypatch.setattr(vectors, "_check_block_count", grow_after_sizing)
        cases = [
            VectorCase("mac", STANDARD_KEY, Repeated(FileRef("grows.bin"), 500), ExpectMac(0)),
            VectorCase("trace", STANDARD_KEY, FileRef("one.bin"), ExpectTrace("N=0\n")),
        ]
        first = next(core.trace_lines(core.prelude(STANDARD_KEY), [(0,)])).decode()
        report = run_vectors(cases, base_dir=str(tmp_path))
        assert [(r.status, r.detail) for r in report.results] == [
            (vectors.STATUS_FAIL, "message has 600 blocks; limit is 600"),
            (vectors.STATUS_FAIL, "trace line 1: computed=%r expected='N=0\\n'" % first),
        ]
        assert [stream.closed for stream in opened] == [True, True]

    @pytest.mark.parametrize(
        "key,source,expect,detail",
        [
            (None, Generated(1), ExpectMac(0), "case has no key"),
            (STANDARD_KEY, None, ExpectMac(0), "case has no message"),
            (STANDARD_KEY, None, ExpectTrace("MAC=00000000\n"), "case has no message"),
            (STANDARD_KEY, Generated(1), "EXPECT-MAC 0", "unknown expectation: 'EXPECT-MAC 0'"),
            (STANDARD_KEY, [0], ExpectMac(0), TypeError),
            (
                None,
                None,
                ExpectConditioning((0x3, 0x60), ConditioningResult(0x01030703, 0x1D3B7761, 0xEE)),
                "computed=01030703 1D3B7760 EE expected=01030703 1D3B7761 EE",
            ),
        ],
        ids=["no-key", "mac-no-message", "trace-no-message", "unknown-expect", "unknown-source",
             "conditioning-wrong-word"],
    )
    def test_hand_built_case_guards(self, key, source, expect, detail):
        # Cases the parser cannot produce: each FAILs, but a source of an unknown type raises.
        case = VectorCase("hand-built", key, source, expect)
        if detail is TypeError:
            with pytest.raises(TypeError, match=r"unknown message source: \[0\]"):
                run_vectors([case])
            return
        (result,) = run_vectors([case]).results
        assert (result.status, result.detail) == (vectors.STATUS_FAIL, detail)

    @pytest.mark.parametrize("name", ["two  spaces", "tab\tname"], ids=["two-spaces", "tab"])
    def test_names_and_paths_keep_their_inner_whitespace(self, tmp_path, name):
        # Rebuilt from their words, both cases SKIPped: "missing file: two spaces.bin".
        (tmp_path / (name + ".bin")).write_bytes(b"abcdefgh")
        (tmp_path / (name + ".trace")).write_text(
            emit_trace(STANDARD_KEY, [0x61626364, 0x65666768]).render(), encoding="utf-8"
        )
        text = textwrap.dedent(
            """\
            CASE {0} mac
            KEY E6A12F07 9D15C437
            MSGFILE {0}.bin
            EXPECT-MAC {1:08X}
            CASE {0} trace
            KEY E6A12F07 9D15C437
            MSGFILE {0}.bin
            EXPECT-TRACE {0}.trace
            """
        ).format(name, mac(STANDARD_KEY, [0x61626364, 0x65666768]))
        report = run_vectors(parse_vector_text(text), base_dir=str(tmp_path))
        assert report.results == (
            VectorResult(name + " mac", vectors.STATUS_PASS),
            VectorResult(name + " trace", vectors.STATUS_PASS),
        )

    def test_too_long_message_is_a_failure_not_a_crash(self, tmp_path):
        case = VectorCase(
            "huge", STANDARD_KEY, Generated(1_000_000), ExpectMac(0)
        )
        report = run_vectors([case], base_dir=str(tmp_path))
        assert report.results[0].status == vectors.STATUS_FAIL
        assert "limit" in report.results[0].detail

    def test_report_counts(self, tmp_path):
        report = run_vectors(builtin_corpus(), base_dir=str(tmp_path))
        assert report.passed + report.failed + report.skipped == len(report.results)
        assert report.ok


class TestPackageExports:
    def test_every_exported_name_resolves(self):
        assert [name for name in maa32.__all__ if not hasattr(maa32, name)] == []

    def test_lazy_names_are_exported_and_come_from_vectors(self):
        # Every exported name that the package does not import at load time.
        lazy = set(maa32.__all__) - set(vars(maa32))
        assert lazy
        for name in lazy:
            assert getattr(maa32, name) is getattr(vectors, name)
