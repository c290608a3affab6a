"""Command line contract, exercised through real subprocesses and in-process."""

import io
import json
import os
import pkgutil
import struct
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import maa32
from maa32 import cli
from maa32.core import MAX_MESSAGE_BYTES, Key, mac, mac_bytes, make_message, prelude, trace_lines
from test_core import edge_messages, mixed_keys, stepwise_mac

KEY = "E6A12F07:9D15C437"
KEY_OBJ = Key(0xE6A12F07, 0x9D15C437)
SRC_PACKAGE = Path(__file__).resolve().parent.parent / "src" / "maa32"
BOM = b"\xef\xbb\xbf"  # U+FEFF in UTF-8
# How a FAIL detail shows the first line of MSGGEN 1's trace under KEY.
TRACE_LINE_1 = "trace line 1: computed=%r" % (
    next(trace_lines(prelude(KEY_OBJ), [make_message(1)])).decode()
)


def run_cli(*args, stdin: bytes = b"", cwd=None, timeout=120):
    return subprocess.run(
        [sys.executable, "-m", "maa32", *args],
        input=stdin,
        capture_output=True,
        cwd=cwd,
        timeout=timeout,
    )


def blocks_to_bytes(blocks):
    return b"".join(b.to_bytes(4, "big") for b in blocks)


# Runs its arguments as its only child and prints, as JSON, the child's exit
# code, stdout and stderr and the peak RSS of its children in KiB.
PROBE = (
    "import json, resource, subprocess, sys; "
    "p = subprocess.run(sys.argv[1:], capture_output=True, text=True); "
    "rss = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss; "
    "print(json.dumps([p.returncode, p.stdout, p.stderr, rss]))"
)


def run_probed(*args):
    """Exit code, stdout, stderr and peak RSS in MiB of one CLI child.

    The child runs with ResourceWarning made an error, so an unclosed file
    shows on its stderr.
    """
    argv = [sys.executable, "-W", "error::ResourceWarning", "-m", "maa32", *args]
    proc = subprocess.run(
        [sys.executable, "-c", PROBE, *argv], capture_output=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    code, out, err, rss_kib = json.loads(proc.stdout)
    return code, out, err, rss_kib / 1024


def run_main(*argv, stdin: bytes = b""):
    """cli.main in this process: its exit code, stdout bytes and stderr text."""
    out = io.TextIOWrapper(io.BytesIO(), encoding="utf-8")
    err = io.StringIO()
    fake_stdin = io.TextIOWrapper(io.BytesIO(stdin), encoding="utf-8")
    with mock.patch.multiple(sys, stdin=fake_stdin, stdout=out, stderr=err):
        code = cli.main(list(argv))
        out.flush()
    return code, out.buffer.getvalue(), err.getvalue()


def test_subprocess_imports_the_checkout_from_any_cwd(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-c", "import maa32; print(maa32.__file__)"],
        capture_output=True,
        cwd=tmp_path,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    imported = Path(proc.stdout.decode().strip()).resolve()
    assert imported.is_relative_to(SRC_PACKAGE), imported


# Each prints an exit code, then whether the vector corpus, typing and
# dataclasses were imported: cli.main on its arguments, or mac_bytes as the
# benchmark's set-up probe calls it.
REPORT_IMPORTS = (
    "print(code, 'maa32.vectors' in sys.modules, 'typing' in sys.modules, "
    "'dataclasses' in sys.modules, file=sys.stderr)"
)
MAIN_IMPORTS = "import sys; from maa32 import cli; code = cli.main(sys.argv[1:]); " + REPORT_IMPORTS
MAC_BYTES_IMPORTS = (
    "import sys, maa32; maa32.mac_bytes(maa32.Key(1, 2), b'abc'); code = 0; " + REPORT_IMPORTS
)


def test_mac_commands_do_not_import_the_vector_corpus(tmp_path):
    # Every command but selftest: trace takes its engine from core too, from
    # a file and from standard input.  No runtime path imports typing or
    # dataclasses either, selftest's included.  The child runs under -S, so
    # that no site .pth file imports them before the package does.
    (tmp_path / "m.bin").write_bytes(b"abcdefgh")
    input_args = ["--key", KEY, "m.bin"]
    runs = [
        (MAIN_IMPORTS, ["mac", *input_args], b"", b"0 False False False"),
        (MAIN_IMPORTS, ["verify", "--mac", "00000000", *input_args], b"", b"1 False False False"),
        (MAIN_IMPORTS, ["trace", *input_args], b"", b"0 False False False"),
        (MAIN_IMPORTS, ["trace", "--key", KEY, "-"], blocks_to_bytes(make_message(3)),
         b"0 False False False"),
        (MAIN_IMPORTS, ["selftest"], b"", b"0 True False False"),
        (MAC_BYTES_IMPORTS, [], b"", b"0 False False False"),
    ]
    for snippet, argv, stdin, report in runs:
        proc = subprocess.run(
            [sys.executable, "-S", "-c", snippet, *argv],
            input=stdin,
            capture_output=True,
            cwd=tmp_path,
            timeout=60,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stderr.splitlines()[-1] == report, (argv, proc.stderr)


def test_cli_module_runs_main_as_a_script():
    # The second entry point: python -m maa32.cli runs main under its __main__ guard.
    argv = [sys.executable, "-m", "maa32.cli"]
    want = mac_bytes(KEY_OBJ, b"abcdefgh")
    proc = subprocess.run(
        argv + ["mac", "--key", KEY], input=b"abcdefgh", capture_output=True, timeout=60
    )
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, b"%08X\n" % want, b"")
    proc = subprocess.run(
        argv + ["verify", "--key", KEY, "--mac", "%08X" % (want ^ 1)],
        input=b"abcdefgh",
        capture_output=True,
        timeout=60,
    )
    assert proc.returncode == 1, proc.stderr
    assert proc.stderr.startswith(b"mismatch: computed=%08X" % want)


def test_package_ships_only_runtime_modules():
    # Test references live under tests/, not in the package.
    names = {m.name for m in pkgutil.iter_modules(maa32.__path__)}
    assert names == {"__main__", "blocks", "cli", "core", "vectors"}


def test_package_stays_under_its_line_ceiling():
    # ROADMAP.md's ceiling ("Standing constraints"), counted as `cat src/maa32/*.py | wc -l` does.
    lines = sum(path.read_bytes().count(b"\n") for path in SRC_PACKAGE.glob("*.py"))
    assert lines <= 1550


class TestMacCommand:
    def test_stdout_is_exactly_the_mac_line(self):
        data = b"abcdefgh"
        proc = run_cli("mac", "--key", KEY, "-", stdin=data)
        assert proc.returncode == 0
        assert proc.stdout == b"%08X\n" % mac_bytes(KEY_OBJ, data)
        assert proc.stderr == b""

    def test_file_and_stdin_agree(self, tmp_path):
        data = blocks_to_bytes(make_message(10))
        path = tmp_path / "m.bin"
        path.write_bytes(data)
        from_file = run_cli("mac", "--key", KEY, str(path))
        from_stdin = run_cli("mac", "--key", KEY, stdin=data)
        assert from_file.returncode == from_stdin.returncode == 0
        assert from_file.stdout == from_stdin.stdout

    def test_hex_mode_ignores_whitespace(self):
        binary = run_cli("mac", "--key", KEY, stdin=bytes.fromhex("42450A0A20202043"))
        spread = run_cli(
            "mac", "--key", KEY, "--hex", stdin=b"4245\n0A0A  2020\t2043\n"
        )
        assert binary.stdout == spread.stdout
        assert spread.returncode == 0

    def test_key_is_case_insensitive(self):
        a = run_cli("mac", "--key", KEY.lower(), stdin=b"x")
        b = run_cli("mac", "--key", KEY, stdin=b"x")
        assert a.stdout == b.stdout

    def test_empty_input_is_authenticated(self):
        proc = run_cli("mac", "--key", KEY, stdin=b"")
        assert proc.returncode == 0
        assert proc.stdout == b"%08X\n" % mac_bytes(KEY_OBJ, b"")

    @pytest.mark.parametrize(
        "bad", ["E6A12F07", "E6A12F07:9D15C43", "E6A12F07-9D15C437", "XXXXXXXX:YYYYYYYY"]
    )
    def test_malformed_key_is_usage_error(self, bad):
        proc = run_cli("mac", "--key", bad, stdin=b"")
        assert proc.returncode == 2

    @pytest.mark.parametrize(
        "argv",
        [
            ["mac", "--key", "0x000001:0x000002"],
            ["mac", "--key", "1_000000:00000000"],
            ["mac", "--key", "+0000001:00000000"],
            ["mac", "--key", " 0000001:00000000"],
            ["mac", "--key", "\u0660\u0660\u0660\u0660\u0660\u0660\u0660\u0661:00000000"],
            ["verify", "--key", KEY, "--mac", "0x212898"],
            ["verify", "--key", KEY, "--mac", "2128_98B"],
        ],
    )
    def test_words_other_than_eight_hex_digits_are_usage_errors(self, argv):
        proc = run_cli(*argv, stdin=b"x")
        assert proc.returncode == 2, proc.stderr
        assert proc.stdout == b""

    def test_missing_input_file_is_io_error(self):
        proc = run_cli("mac", "--key", KEY, "/nonexistent/path.bin")
        assert proc.returncode == 2
        assert proc.stderr

    def test_bad_hex_input_is_error(self):
        proc = run_cli("mac", "--key", KEY, "--hex", stdin=b"zz")
        assert proc.returncode == 2


class TestStreamReader:
    """The segment-at-a-time reader: files, pipes, hex and the length cap."""

    @given(mixed_keys, edge_messages)
    @settings(max_examples=8, deadline=None)
    def test_file_and_pipe_equal_stepwise_fold(self, tmp_path_factory, key, data):
        path = tmp_path_factory.mktemp("msg") / "m.bin"
        path.write_bytes(data)
        key_text = "%08X:%08X" % key
        want = b"%08X\n" % stepwise_mac(key, data)
        from_file = run_cli("mac", "--key", key_text, str(path))
        from_pipe = run_cli("mac", "--key", key_text, stdin=data)
        assert from_file.returncode == 0, from_file.stderr
        assert from_pipe.returncode == 0, from_pipe.stderr
        assert from_file.stdout == from_pipe.stdout == want

    def test_file_at_the_cap_is_accepted_one_byte_over_exits_3(self, tmp_path):
        data = bytes(range(256)) * (MAX_MESSAGE_BYTES // 256) + bytes(MAX_MESSAGE_BYTES % 256)
        at_cap = tmp_path / "at-cap.bin"
        at_cap.write_bytes(data)
        over = tmp_path / "over.bin"
        over.write_bytes(data + b"x")
        accepted = run_cli("mac", "--key", KEY, str(at_cap))
        assert accepted.returncode == 0, accepted.stderr
        assert accepted.stdout == b"%08X\n" % mac_bytes(KEY_OBJ, data)
        refused = run_cli("mac", "--key", KEY, str(over))
        assert refused.returncode == 3, refused.stderr
        assert refused.stdout == b""

    def test_pipe_over_the_cap_exits_3(self):
        proc = run_cli("mac", "--key", KEY, stdin=bytes(MAX_MESSAGE_BYTES + 1))
        assert proc.returncode == 3, proc.stderr
        assert proc.stdout == b""

    def test_directory_input_is_io_error(self, tmp_path):
        proc = run_cli("mac", "--key", KEY, str(tmp_path))
        assert proc.returncode == 2
        assert proc.stderr

    def test_hex_digits_are_joined_across_whitespace_and_read_chunks(self, tmp_path):
        # Pairs split by whitespace and text longer than one 64 KiB read.
        data = bytes(range(256)) * 200
        digits = data.hex()
        spaced = "\t".join(digits[i : i + 3] for i in range(0, len(digits), 3))
        path = tmp_path / "m.hex"
        path.write_text(spaced.replace("\t", "\n", 999), encoding="utf-8")
        with path.open("rb") as fh:
            assert cli._hex_bytes(fh) == data
        assert run_main("mac", "--key", KEY, "--hex", "-", stdin=spaced.encode()) == (
            0, b"%08X\n" % mac_bytes(KEY_OBJ, data), ""
        )

    def test_hex_at_the_cap_is_accepted_one_byte_over_exits_3(self, tmp_path):
        data = bytes(range(256)) * (MAX_MESSAGE_BYTES // 256) + bytes(MAX_MESSAGE_BYTES % 256)
        path = tmp_path / "at-cap.hex"
        path.write_text(data.hex(), encoding="utf-8")
        code, out, err = run_main("mac", "--key", KEY, "--hex", str(path))
        assert (code, out, err) == (0, b"%08X\n" % mac_bytes(KEY_OBJ, data), "")
        with path.open("a", encoding="utf-8") as fh:
            fh.write("00 and then no hex at all")
        code, out, err = run_main("mac", "--key", KEY, "--hex", str(path))
        assert (code, out) == (3, b"")
        assert err.endswith("; limit is %d\n" % MAX_MESSAGE_BYTES)

    @pytest.mark.parametrize(
        "text,at,reason",
        [
            (b"00" * 35000 + b"\xe9\n", 70000, "invalid continuation byte"),
            # U+00A0 split by the first 64 KiB read, then a bad byte.
            (b"0" * 65535 + b"\xc2\xa0\xe9\n", 65537, "invalid continuation byte"),
            (b"00" * 35000 + b"\xc2", 70000, "unexpected end of data"),
            (BOM + b"00" * 35000 + b"\xe9\n", 70003, "invalid continuation byte"),
            (BOM[:2], 0, "unexpected end of data"),
        ],
        ids=["second-read", "after-a-split-character", "at-the-end", "after-a-bom", "half-a-bom"],
    )
    def test_hex_byte_that_is_not_utf8_is_named_by_its_offset(self, tmp_path, text, at, reason):
        path = tmp_path / "h.hex"
        path.write_bytes(text)
        for source, stdin, name in (str(path), b"", str(path)), ("-", text, "<stdin>"):
            code, out, err = run_main("mac", "--key", KEY, "--hex", source, stdin=stdin)
            assert (code, out) == (2, b"")
            assert err == "cannot read %s: byte %d is not UTF-8: %s\n" % (name, at, reason)

    @pytest.mark.parametrize(
        "text,code,out,err",
        [
            (BOM + b"4245 0A0A\n", 0, b"92B79E27\n", ""),
            (b"4" + BOM + b"245 0A0A\n", 2, b"", "input is not an even run of hex digits\n"),
        ],
        ids=["at-the-start", "after-a-digit"],
    )
    def test_hex_byte_order_mark_is_dropped_only_at_the_start(self, tmp_path, text, code, out, err):
        path = tmp_path / "h.hex"
        path.write_bytes(text)
        for source, stdin in (str(path), b""), ("-", text):
            assert run_main("mac", "--key", KEY, "--hex", source, stdin=stdin) == (code, out, err)

    def test_hex_file_is_closed(self, tmp_path):
        path = tmp_path / "m.hex"
        path.write_text("4245 0A0A\n", encoding="utf-8")
        proc = subprocess.run(
            [sys.executable, "-W", "error::ResourceWarning", "-m", "maa32"]
            + ["mac", "--key", KEY, "--hex", str(path)],
            capture_output=True,
            timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == b"%08X\n" % mac_bytes(KEY_OBJ, bytes.fromhex("42450A0A"))
        assert proc.stderr == b""


class TestHexEncoding:
    """--hex text is UTF-8 in any locale, from a file and from standard input."""

    # A UTF-8 locale, and the C locale with neither locale coercion nor
    # UTF-8 mode, where the locale's encoding is ASCII.
    LOCALES = {
        "utf-8": {"LC_ALL": "C.UTF-8", "PYTHONUTF8": "0"},
        "c": {"LC_ALL": "C", "PYTHONCOERCECLOCALE": "0", "PYTHONUTF8": "0"},
    }

    @pytest.mark.parametrize("locale", sorted(LOCALES))
    def test_no_break_space_is_whitespace(self, tmp_path, locale):
        # Hex digits split by U+00A0, which is two bytes in UTF-8.  Standard
        # input is given a Latin-1 text encoding, which reads those bytes
        # as two characters that are neither hex nor whitespace.
        path = tmp_path / "m.hex"
        path.write_bytes(b"4245\xc2\xa00a0a")
        env = {**os.environ, **self.LOCALES[locale], "PYTHONIOENCODING": "latin-1"}
        argv = [sys.executable, "-X", "warn_default_encoding", "-W", "error::EncodingWarning"]
        argv += ["-m", "maa32", "mac", "--hex", "--key", KEY]
        for source, stdin in (str(path), b""), ("-", path.read_bytes()):
            proc = subprocess.run(
                argv + [source], input=stdin, env=env, capture_output=True, timeout=120
            )
            assert (proc.returncode, proc.stdout, proc.stderr) == (0, b"92B79E27\n", b"")


class TestVerifyCommand:
    def test_round_trip(self, tmp_path):
        data = blocks_to_bytes(make_message(300))
        path = tmp_path / "m.bin"
        path.write_bytes(data)
        computed = run_cli("mac", "--key", KEY, str(path)).stdout.decode().strip()
        good = run_cli("verify", "--key", KEY, "--mac", computed, str(path))
        assert good.returncode == 0
        assert good.stdout == b""

    def test_mismatch_exits_1_with_both_values(self):
        proc = run_cli("verify", "--key", KEY, "--mac", "00000000", stdin=b"data")
        assert proc.returncode == 1
        err = proc.stderr.decode()
        assert "computed=" in err and "expected=00000000" in err

    def test_malformed_mac_is_usage_error(self):
        proc = run_cli("verify", "--key", KEY, "--mac", "123", stdin=b"")
        assert proc.returncode == 2


class TestTraceCommand:
    def test_matches_library_rendering(self, tmp_path):
        from maa32.vectors import emit_trace

        data = blocks_to_bytes(make_message(3))
        want = emit_trace(KEY_OBJ, make_message(3)).render()
        to_stdout = run_cli("trace", "--key", KEY, stdin=data)
        assert to_stdout.returncode == 0
        assert to_stdout.stdout.decode() == want
        out = tmp_path / "t.trace"
        to_file = run_cli("trace", "--key", KEY, "-o", str(out), stdin=data)
        assert to_file.returncode == 0
        assert out.read_text(encoding="utf-8") == want

    @pytest.mark.parametrize("key", [KEY, "80018001:80018000"])
    @pytest.mark.parametrize("n", [0, 1, 255, 256, 257, 513, 600])
    def test_segment_edges_match_library_rendering(self, tmp_path, key, n):
        from maa32.vectors import emit_trace

        data = blocks_to_bytes(make_message(n))
        want = emit_trace(Key(*(int(w, 16) for w in key.split(":"))), make_message(n)).render()
        to_stdout = run_cli("trace", "--key", key, stdin=data)
        assert to_stdout.returncode == 0, to_stdout.stderr
        assert to_stdout.stdout.decode() == want
        out = tmp_path / "t.trace"
        to_file = run_cli("trace", "--key", key, "-o", str(out), stdin=data)
        assert to_file.returncode == 0, to_file.stderr
        assert out.read_text(encoding="utf-8") == want

    @pytest.mark.parametrize("n", [0, 1, 256, 257, 600])
    def test_output_is_the_rendering_in_ascii_bytes(self, tmp_path, n):
        from maa32.vectors import emit_trace

        data = blocks_to_bytes(make_message(n))
        want = emit_trace(KEY_OBJ, make_message(n)).render().encode("ascii")
        assert b"\r" not in want
        to_stdout = run_cli("trace", "--key", KEY, stdin=data)
        assert (to_stdout.returncode, to_stdout.stdout) == (0, want), to_stdout.stderr
        out = tmp_path / "t.trace"
        to_file = run_cli("trace", "--key", KEY, "-o", str(out), stdin=data)
        assert to_file.returncode == 0, to_file.stderr
        assert out.read_bytes() == want
        assert run_main("trace", "--key", KEY, stdin=data) == (0, want, "")

    def test_stdin_over_the_cap_exits_3_and_writes_nothing(self, tmp_path):
        data = bytes(MAX_MESSAGE_BYTES + 1)
        to_stdout = run_cli("trace", "--key", KEY, stdin=data)
        assert to_stdout.returncode == 3, to_stdout.stderr
        assert to_stdout.stdout == b""
        out = tmp_path / "t.trace"
        to_file = run_cli("trace", "--key", KEY, "-o", str(out), stdin=data)
        assert to_file.returncode == 3, to_file.stderr
        assert not out.exists()
        out.write_text("kept\n", encoding="utf-8")
        again = run_cli("trace", "--key", KEY, "-o", str(out), stdin=data)
        assert again.returncode == 3, again.stderr
        assert out.read_text(encoding="utf-8") == "kept\n"


# The builtin corpus report in full; --inject-fault breaks the iso-mac case.
SELFTEST_REPORT = """\
PASS conditioning-1
PASS conditioning-2
PASS conditioning-3
PASS iso-prelude-55555555
PASS iso-prelude-00ff00ff
%s
PASS gen-0000
PASS gen-0001
PASS gen-0004
PASS gen-0008
PASS gen-0255
PASS gen-0256
PASS gen-0257
PASS gen-0300
PASS gen-0600
PASS prefix-14-bytes
PASS gen-0008-reversed
PASS gen-0600-segments-swapped
PASS degenerate-key-gen-0003
PASS trace-gen-0003
SKIP iso8730-588-block: missing file: iso8730-e34-message.bin
%s
"""


class TestSelftestCommand:
    @pytest.mark.parametrize(
        "argv,code,iso_mac,totals",
        [
            ([], 0, "PASS iso-mac-db79fbdc", "passed=20 failed=0 skipped=1"),
            (
                ["--inject-fault"],
                4,
                "FAIL iso-mac-db79fbdc (fault injected): computed=DB79FBDC expected=DB79FBDD",
                "passed=19 failed=1 skipped=1",
            ),
        ],
        ids=["clean", "inject-fault"],
    )
    def test_builtin_report_is_pinned(self, tmp_path, argv, code, iso_mac, totals):
        proc = run_cli("selftest", *argv, cwd=tmp_path)
        report = (SELFTEST_REPORT % (iso_mac, totals)).encode()
        assert (proc.returncode, proc.stdout, proc.stderr) == (code, report, b"")

    def test_passes_and_reports_the_gated_skip(self, tmp_path):
        proc = run_cli("selftest", cwd=tmp_path)
        assert proc.returncode == 0, proc.stderr
        out = proc.stdout.decode()
        assert "SKIP iso8730-588-block" in out
        assert "FAIL" not in out.replace("failed=0", "")
        assert "passed=" in out

    def test_injected_fault_is_caught(self, tmp_path):
        proc = run_cli("selftest", "--inject-fault", cwd=tmp_path)
        assert proc.returncode == 4, proc.stderr
        out = proc.stdout.decode()
        assert "FAIL" in out
        assert "fault injected" in out

    def test_external_vector_file_pass(self, tmp_path):
        golden = "%08X" % mac_bytes(KEY_OBJ, bytes.fromhex("42450A0A"))
        (tmp_path / "good.mvt").write_text(
            "CASE local\nKEY %s %s\nMSGHEX 42450A0A\nEXPECT-MAC %s\n"
            % (KEY[:8], KEY[9:], golden),
            encoding="utf-8",
        )
        proc = run_cli("selftest", "--vectors", str(tmp_path / "good.mvt"), cwd=tmp_path)
        assert proc.returncode == 0, proc.stderr
        assert "PASS local" in proc.stdout.decode()

    def test_corrupted_vector_file_exits_4(self, tmp_path):
        (tmp_path / "bad.mvt").write_text(
            "CASE corrupt\nKEY %s %s\nMSGHEX 42450A0A\nEXPECT-MAC 00000000\n"
            % (KEY[:8], KEY[9:]),
            encoding="utf-8",
        )
        proc = run_cli("selftest", "--vectors", str(tmp_path / "bad.mvt"), cwd=tmp_path)
        assert proc.returncode == 4, proc.stderr
        out = proc.stdout.decode()
        assert "FAIL corrupt" in out
        assert "computed=" in out and "expected=00000000" in out

    def test_malformed_vector_file_exits_2_with_line(self, tmp_path):
        (tmp_path / "junk.mvt").write_text("KEY 1 2\n", encoding="utf-8")
        proc = run_cli("selftest", "--vectors", str(tmp_path / "junk.mvt"), cwd=tmp_path)
        assert proc.returncode == 2, proc.stderr
        assert "line 1" in proc.stderr.decode()

    def test_malformed_vector_file_is_named_once(self, tmp_path):
        path = tmp_path / "junk.mvt"
        path.write_text("KEY 1 2\n", encoding="utf-8")
        proc = run_cli("selftest", "--vectors", str(path), cwd=tmp_path)
        assert proc.returncode == 2, proc.stderr
        assert proc.stderr.decode() == (
            "%s: line 1: expected an 8-digit hex word, got '1'\n" % path
        )

    @pytest.mark.parametrize("count", ["\u00b2", "\u0661\u0662"])
    def test_non_ascii_count_exits_2_with_line(self, tmp_path, count):
        (tmp_path / "count.mvt").write_text(
            "KEY %s %s\nMSGGEN %s\nEXPECT-MAC 00000000\n" % (KEY[:8], KEY[9:], count),
            encoding="utf-8",
        )
        proc = run_cli("selftest", "--vectors", str(tmp_path / "count.mvt"), cwd=tmp_path)
        assert proc.returncode == 2, proc.stderr
        assert "line 2" in proc.stderr.decode()

    def test_vector_file_that_is_not_utf8_is_named(self, tmp_path):
        path = tmp_path / "latin1.mvt"
        path.write_bytes(b"# caf\xe9\n")
        code, out, err = run_main("selftest", "--vectors", str(path))
        assert (code, out) == (2, b"")
        assert err.startswith("cannot read %s: 'utf-8' codec can't decode byte 0xe9" % path)

    def test_vector_file_may_start_with_a_byte_order_mark(self, tmp_path):
        body = "KEY %s %s\nMSGGEN 3\nEXPECT-MAC 025A07AF\n" % (KEY[:8], KEY[9:])
        good, bad = tmp_path / "bom.mvt", tmp_path / "bom-latin1.mvt"
        good.write_bytes(b"\xef\xbb\xbfCASE bom\n" + body.encode())
        bad.write_bytes(b"\xef\xbb\xbf# caf\xe9\n" + body.encode())
        code, out, err = run_main("selftest", "--vectors", str(good))
        assert (code, err) == (0, "")
        assert b"PASS bom\n" in out
        code, out, err = run_main("selftest", "--vectors", str(bad))
        assert (code, out) == (2, b"")
        assert err.startswith("cannot read %s: 'utf-8' codec can't decode byte 0xe9" % bad)

    @pytest.mark.parametrize("cut", [BOM[:1], BOM[:2]])
    def test_vector_file_of_a_cut_byte_order_mark_is_not_utf8(self, tmp_path, cut):
        path = tmp_path / "cut.mvt"
        path.write_bytes(cut)
        code, out, err = run_main("selftest", "--vectors", str(path))
        assert (code, out) == (2, b"")
        assert err.startswith("cannot read %s: 'utf-8' codec can't decode" % path)
        assert err.endswith(": unexpected end of data\n")

    @pytest.mark.parametrize(
        "n_blocks,text,detail",
        [
            (1, b"N=1 caf\xe9\n", TRACE_LINE_1 + " expected='N=1 caf\\\\xe9\\n'"),
            (
                1,
                b"N=1 diverges here\n" + b"#" * 99999 + b"\ncaf\xe9\n",
                TRACE_LINE_1 + " expected='N=1 diverges here\\n'",
            ),
            (4000000, b"N=1 caf\xe9\n", "message has 4000000 blocks; limit is 1000000"),
            # The byte at offset 70,000, past the first 64 KiB.
            (1, b"N=1 x\n" + b"#" * 69994 + b"\xe9\n", TRACE_LINE_1 + " expected='N=1 x\\n'"),
        ],
        ids=["first-line", "after-divergence", "over-cap", "second-read"],
    )
    def test_golden_trace_that_is_not_ascii_is_named(self, tmp_path, n_blocks, text, detail):
        # A golden that is not ASCII FAILs its case like any other wrong golden,
        # and every other case is still reported.
        from maa32 import vectors

        (tmp_path / "latin1.trace").write_bytes(text)
        (tmp_path / "t.mvt").write_text(
            "KEY %s %s\nMSGGEN %d\nEXPECT-TRACE latin1.trace\n" % (KEY[:8], KEY[9:], n_blocks),
            encoding="utf-8",
        )
        code, out, err = run_main("selftest", "--vectors", str(tmp_path / "t.mvt"))
        assert (code, err) == (4, "")
        *builtin, case, totals = out.decode().splitlines()
        assert len(builtin) == len(vectors.builtin_corpus())
        assert case == "FAIL case-1: " + detail
        assert totals == "passed=%d failed=1 skipped=1" % (len(builtin) - 1)

    @pytest.mark.parametrize(
        "path,base_dir", [("/x.mvt", "/"), ("x.mvt", "."), ("a/b.mvt", "a")]
    )
    def test_vector_files_resolve_against_their_directory(self, monkeypatch, path, base_dir):
        from maa32 import vectors

        seen = []

        def run_vectors(cases, base_dir):
            seen.append((cases, base_dir))
            return vectors.VectorReport(())

        monkeypatch.setattr(vectors, "parse_vector_file", lambda p: [p])
        monkeypatch.setattr(vectors, "run_vectors", run_vectors)
        code, out, err = run_main("selftest", "--data-dir", "data", "--vectors", path)
        assert (code, err) == (0, "")
        assert seen[1:] == [([path], base_dir)]
        assert seen[0][1] == "data"

    @pytest.mark.parametrize(
        "body,path",
        [
            ("MSGFILE fifo\nEXPECT-MAC 00000000", "fifo"),
            ("MSGGEN 1\nEXPECT-TRACE fifo", "fifo"),
            ("MSGFILE /dev/zero\nEXPECT-MAC 00000000", "/dev/zero"),
        ],
        ids=["fifo-message", "fifo-golden", "dev-zero-message"],
    )
    def test_fifo_or_device_fails_its_case_at_once(self, tmp_path, body, path):
        # A FIFO with no writer once blocked the open for ever, and /dev/zero
        # was read to the cap; the timeout makes a regression fail in seconds.
        os.mkfifo(tmp_path / "fifo")
        full = os.path.join(tmp_path, path)
        if not os.path.exists(full):
            pytest.skip("no %s here" % full)
        (tmp_path / "s.mvt").write_text(
            "KEY %s %s\n%s\n" % (KEY[:8], KEY[9:], body), encoding="utf-8"
        )
        proc = run_cli("selftest", "--vectors", str(tmp_path / "s.mvt"), cwd=tmp_path, timeout=10)
        assert (proc.returncode, proc.stderr) == (4, b"")
        *builtin, case, totals = proc.stdout.decode().splitlines()
        assert case == "FAIL case-1: not a regular file: %s" % full
        assert totals == "passed=%d failed=1 skipped=1" % (len(builtin) - 1)

    def test_vector_file_relative_msgfile_resolves_next_to_it(self, tmp_path):
        sub = tmp_path / "vectors"
        sub.mkdir()
        payload = blocks_to_bytes(make_message(4))
        (sub / "msg.bin").write_bytes(payload)
        golden = "%08X" % mac_bytes(KEY_OBJ, payload)
        (sub / "file.mvt").write_text(
            "CASE file-case\nKEY %s %s\nMSGFILE msg.bin\nEXPECT-MAC %s\n"
            % (KEY[:8], KEY[9:], golden),
            encoding="utf-8",
        )
        proc = run_cli("selftest", "--vectors", str(sub / "file.mvt"), cwd=tmp_path)
        assert proc.returncode == 0, proc.stderr
        assert "PASS file-case" in proc.stdout.decode()


class TestBenchCommand:
    def test_reports_rate_and_mac(self):
        proc = run_cli("bench", "--blocks", "2000")
        assert proc.returncode == 0
        out = proc.stdout.decode()
        assert "blocks=2000" in out
        assert "blocks/s" in out
        assert "result=" in out

    @pytest.mark.parametrize("n", [0, 1, 255, 256, 257, 600])
    def test_result_is_the_mac_of_make_message(self, n):
        code, out, err = run_main("bench", "--blocks", str(n))
        assert (code, err) == (0, "")
        assert out.startswith(b"blocks=%d " % n)
        assert out.endswith(b" result=%08X\n" % mac(KEY_OBJ, make_message(n)))


class TestBoundedMemory:
    """Peak RSS of one CLI child: no command holds a whole over-cap message."""

    @pytest.mark.parametrize(
        "source,detail",
        [
            ("MSGGEN 4000000", "message has 4000000 blocks; limit is 1000000"),
            ("MSGGEN 1\nREPEAT 4000000", "message has 4000000 blocks; limit is 1000000"),
            ("MSGFILE big.bin", "message has 10485760 blocks; limit is 1000000"),
        ],
        ids=["msggen", "repeat", "msgfile"],
    )
    def test_over_cap_vector_case_fails_at_the_cap(self, tmp_path, source, detail):
        # Building the whole message first peaked at 46-537 MB.
        with open(tmp_path / "big.bin", "wb") as fh:
            for _ in range(40):
                fh.write(bytes(range(256)) * 4096)  # 40 MiB in all
        path = tmp_path / "big.mvt"
        path.write_text(
            "CASE big\nKEY %s %s\n%s\nEXPECT-MAC 00000000\n" % (KEY[:8], KEY[9:], source),
            encoding="utf-8",
        )
        code, out, err, rss_mib = run_probed("selftest", "--vectors", str(path))
        assert (code, err) == (4, "")
        assert "FAIL big: %s\n" % detail in out
        assert out.endswith("failed=1 skipped=1\n")
        assert rss_mib < 30

    def test_over_cap_trace_case_fails_at_the_cap(self, tmp_path):
        # Checking the whole message before tracing it peaked at 53.7 MiB.
        (tmp_path / "big.trace").write_text("MAC=00000000\n", encoding="utf-8")
        path = tmp_path / "big.mvt"
        path.write_text(
            "CASE big\nKEY %s %s\nMSGGEN 4000000\nEXPECT-TRACE big.trace\n" % (KEY[:8], KEY[9:]),
            encoding="utf-8",
        )
        code, out, err, rss_mib = run_probed("selftest", "--vectors", str(path))
        assert (code, err) == (4, "")
        assert "FAIL big: message has 4000000 blocks; limit is 1000000\n" in out
        assert out.endswith("failed=1 skipped=1\n")
        assert rss_mib < 30

    def test_accepted_trace_case_streams_against_its_golden(self, tmp_path):
        # Holding every record and the rendered trace peaked at 67.7 MiB.
        message, golden = tmp_path / "m.bin", tmp_path / "m.trace"
        assert run_cli("gen", "--blocks", "100000", "-o", str(message)).returncode == 0
        proc = run_cli("trace", "--key", KEY, str(message), "-o", str(golden))
        assert proc.returncode == 0, proc.stderr
        path = tmp_path / "m.mvt"
        path.write_text(
            "CASE big\nKEY %s %s\nMSGGEN 100000\nEXPECT-TRACE m.trace\n" % (KEY[:8], KEY[9:]),
            encoding="utf-8",
        )
        code, out, err, rss_mib = run_probed("selftest", "--vectors", str(path))
        assert (code, err) == (0, "")
        assert "PASS big\n" in out
        assert rss_mib < 30

    def test_bench_of_a_million_blocks(self):
        # Building the message first peaked at 60 MB.
        code, out, err, rss_mib = run_probed("bench", "--blocks", "1000000")
        assert (code, err) == (0, "")
        assert out.endswith(" result=9F6D6FDF\n")
        assert rss_mib < 30

    def test_hex_over_the_cap_exits_3(self, tmp_path):
        # Reading the whole text first peaked at 178 MB.
        path = tmp_path / "big.hex"
        path.write_text(("ab" * 32 + "\n") * (40 * 2**20 // 65), encoding="utf-8")
        code, out, err, rss_mib = run_probed("mac", "--key", KEY, "--hex", str(path))
        assert (code, out) == (3, "")
        assert err.endswith("; limit is 3999996\n")
        assert rss_mib < 40


class TestGenCommand:
    def test_emits_generator_blocks(self, tmp_path):
        proc = run_cli("gen", "--blocks", "3")
        assert proc.returncode == 0
        assert proc.stdout == blocks_to_bytes(make_message(3))
        out = tmp_path / "m.bin"
        run_cli("gen", "--blocks", "3", "-o", str(out))
        assert out.read_bytes() == proc.stdout

    def test_zero_blocks(self):
        proc = run_cli("gen", "--blocks", "0")
        assert proc.returncode == 0
        assert proc.stdout == b""

    @pytest.mark.parametrize("n", [1, 255, 256, 257, 600])
    def test_segment_edges_match_make_message(self, n):
        proc = run_cli("gen", "--blocks", str(n))
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == blocks_to_bytes(make_message(n))

    def test_streams_a_million_blocks_in_constant_memory(self, tmp_path):
        # Peak RSS of the gen child alone: the probe process starts no
        # other child.  Building the whole message first peaked at 150 MB.
        out = tmp_path / "m.bin"
        probe = (
            "import resource, subprocess, sys; "
            "subprocess.run(sys.argv[1:], check=True); "
            "print(resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)"
        )
        argv = [sys.executable, "-m", "maa32", "gen", "--blocks", "1000000", "-o", str(out)]
        proc = subprocess.run(
            [sys.executable, "-c", probe, *argv], capture_output=True, timeout=120
        )
        assert proc.returncode == 0, proc.stderr
        assert int(proc.stdout) < 50 * 1024  # KiB
        assert out.read_bytes() == struct.pack(">1000000I", *make_message(1_000_000))

    def test_gen_then_mac_matches_corpus_golden(self, tmp_path):
        # gen-0008 in the builtin corpus pins this exact value
        path = tmp_path / "m8.bin"
        run_cli("gen", "--blocks", "8", "-o", str(path))
        proc = run_cli("mac", "--key", KEY, str(path))
        assert proc.stdout == b"2D77E4B7\n"


def run_cli_redirected(redirect, *args, cwd):
    """The CLI with stdout redirected by the shell, and PYTHONUNBUFFERED unset.

    Unset, as in a user's shell, stdout is buffered, so the interpreter
    flushes it again at exit.
    """
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    return subprocess.run(
        ["sh", "-c", '"$0" "$@" ' + redirect, sys.executable, "-m", "maa32", *args],
        capture_output=True,
        cwd=cwd,
        env=env,
        timeout=120,
    )


class TestUnwritableStdout:
    """A full or closed stdout is one line on stderr and exit 2.

    Neither the interpreter's failed flush at exit (exit 120, "Exception
    ignored"), nor a traceback, nor a silent exit 0.
    """

    COMMANDS = [
        ["mac", "--key", KEY, "m.bin"],
        ["gen", "--blocks", "600"],
        ["trace", "--key", KEY, "m.bin"],
        ["selftest"],
        ["bench", "--blocks", "1000"],
    ]
    REDIRECTS = [
        pytest.param(
            ">/dev/full",
            b"No space left on device",
            marks=pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full"),
            id="full",
        ),
        pytest.param(">&-", b"standard output is closed", id="closed"),
    ]

    @pytest.mark.parametrize("redirect, message", REDIRECTS)
    @pytest.mark.parametrize("argv", COMMANDS, ids=lambda argv: argv[0])
    def test_exits_2_with_one_line(self, tmp_path, argv, redirect, message):
        (tmp_path / "m.bin").write_bytes(b"abcdefgh")
        proc = run_cli_redirected(redirect, *argv, cwd=tmp_path)
        assert proc.returncode == 2, proc.stderr
        assert proc.stderr.count(b"\n") == 1 and proc.stderr.endswith(b"\n"), proc.stderr
        assert message in proc.stderr

    @pytest.mark.parametrize("code", [0, 1])
    def test_verify_needs_no_stdout(self, tmp_path, code):
        # A match exits 0 in silence; a mismatch exits 1 with one stderr line.
        (tmp_path / "m.bin").write_bytes(b"abcdefgh")
        argv = ["verify", "--key", KEY, "--mac", "%08X" % (mac_bytes(KEY_OBJ, b"abcdefgh") ^ code)]
        proc = run_cli_redirected(">&-", *argv, "m.bin", cwd=tmp_path)
        assert proc.returncode == code, proc.stderr
        assert proc.stderr.count(b"\n") == code

    def test_output_file_needs_no_stdout(self, tmp_path):
        proc = run_cli_redirected(">&-", "gen", "--blocks", "3", "-o", "m.bin", cwd=tmp_path)
        assert proc.returncode == 0, proc.stderr
        assert (tmp_path / "m.bin").read_bytes() == blocks_to_bytes(make_message(3))


class TestUnwritableStderr:
    """A closed or full stderr never changes the exit code, and sends nothing to stdout.

    Only the codes and stdout are checked: what reaches such a stderr
    cannot be read back.  The interpreter flushes stderr again at exit, and a failed flush
    there would turn each code into 120.
    """

    CASES = [
        pytest.param(["mac", "m.bin"], 2, id="usage-error"),
        pytest.param(["mac", "--key", KEY, "missing.bin"], 2, id="missing-input"),
        pytest.param(["mac", "--key", KEY, "over.bin"], 3, id="over-cap"),
        pytest.param(["verify", "--key", KEY, "--mac", "00000000", "m.bin"], 1, id="mismatch"),
        pytest.param(["selftest", "--inject-fault"], 4, id="injected-fault"),
    ]
    REDIRECTS = [
        pytest.param("2>&-", id="closed"),
        pytest.param(
            "2>/dev/full",
            marks=pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full"),
            id="full",
        ),
        # Open for reading only, as a wrapper script can leave the descriptor.
        pytest.param("2</dev/null", id="read-only"),
    ]

    @pytest.mark.parametrize("redirect", REDIRECTS)
    @pytest.mark.parametrize("argv, code", CASES)
    def test_exit_code_is_kept(self, tmp_path, argv, code, redirect):
        (tmp_path / "m.bin").write_bytes(b"abcdefgh")
        (tmp_path / "over.bin").write_bytes(bytes(MAX_MESSAGE_BYTES + 4))
        proc = run_cli_redirected(">out.txt " + redirect, *argv, cwd=tmp_path)
        assert proc.returncode == code
        if argv[0] != "selftest":  # the one case that writes stdout
            assert (tmp_path / "out.txt").read_bytes() == b""

    def test_usage_error_writes_no_stdout_when_stderr_is_none(self):
        # argparse prints its usage line on stdout when sys.stderr is None,
        # as it is in an interpreter started with descriptor 2 closed.
        out = io.StringIO()
        with mock.patch.multiple(sys, stdout=out, stderr=None):
            with pytest.raises(SystemExit) as exit:
                cli.main(["mac", "m.bin"])
        assert exit.value.code == 2
        assert out.getvalue() == ""

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
    def test_help_to_a_full_stdout_exits_0(self, tmp_path):
        proc = run_cli_redirected(">/dev/full", "--help", cwd=tmp_path)
        assert proc.returncode == 0, proc.stderr


def test_closed_stdout_is_refused_before_the_input_is_read(tmp_path):
    proc = run_cli_redirected(">&-", "mac", "--key", KEY, "missing.bin", cwd=tmp_path)
    assert proc.returncode == 2
    assert proc.stderr == b"standard output is closed\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["mac", "--key", KEY],
        ["verify", "--key", KEY, "--mac", "00000000", "-"],
        ["trace", "--key", KEY],
        ["mac", "--key", KEY, "--hex", "-"],
    ],
    ids=["mac", "verify", "trace", "hex"],
)
def test_closed_stdin_exits_2_with_one_line(tmp_path, argv):
    proc = run_cli_redirected("<&-", *argv, cwd=tmp_path)
    assert proc.returncode == 2
    assert proc.stderr == b"standard input is closed\n"
    assert proc.stdout == b""


class TestTextOnlyStreams:
    """cli.main in this process with StringIO streams, which have no .buffer
    and no file descriptor, as the benchmark's traced run calls it."""

    def run(self, *argv):
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = cli.main(list(argv))
        return code, out.getvalue(), err.getvalue()

    def test_mac_prints_the_nine_character_line(self, tmp_path):
        (tmp_path / "m.bin").write_bytes(b"abcdefgh")
        assert self.run("mac", "--key", KEY, str(tmp_path / "m.bin")) == (
            0, "%08X\n" % mac_bytes(KEY_OBJ, b"abcdefgh"), ""
        )

    def test_verify_mismatch_is_one_stderr_line(self, tmp_path):
        path = tmp_path / "m.bin"
        path.write_bytes(b"abcdefgh")
        code, out, err = self.run("verify", "--key", KEY, "--mac", "00000000", str(path))
        assert (code, out) == (1, "")
        assert err.startswith("mismatch: ") and err.count("\n") == 1 and err.endswith("\n")

    def test_over_cap_file_exits_3(self, tmp_path):
        (tmp_path / "over.bin").write_bytes(bytes(MAX_MESSAGE_BYTES + 4))
        code, out, err = self.run("mac", "--key", KEY, str(tmp_path / "over.bin"))
        assert (code, out) == (3, "")
        assert err.count("\n") == 1


@pytest.mark.parametrize("argv", [["gen", "--blocks", "3"], ["trace", "--key", KEY, "m.bin"]])
def test_empty_output_path_exits_2_and_writes_nothing(tmp_path, argv):
    (tmp_path / "m.bin").write_bytes(b"abcdefgh")
    proc = run_cli(*argv, "-o", "", cwd=tmp_path)
    assert proc.returncode == 2, proc.stderr
    assert proc.stdout == b""
    assert [path.name for path in tmp_path.iterdir()] == ["m.bin"]


@pytest.mark.parametrize("argv", [["gen"], ["gen", "-o", "m.bin"], ["bench"]])
def test_negative_block_count_exits_2_and_writes_nothing(tmp_path, argv):
    proc = run_cli(*argv, "--blocks", "-1", cwd=tmp_path)
    assert proc.returncode == 2, proc.stderr
    assert proc.stdout == b""
    assert list(tmp_path.iterdir()) == []


# cli.main fuzzing: one of the six commands, then option pairs and junk
# tokens, run in a fresh directory holding every file a token names, a
# directory (sub) and a symlink to itself (loop).
FUZZ_FILES = {
    "m.bin": blocks_to_bytes(make_message(8)),
    "m.hex": b"4245 0A0A\n2020",
    "bad.hex": b"4245 zz\n",
    "odd.hex": b"424",
    "latin.bin": b"\xff\xfe",
    "good.mvt": (
        b"CASE file\nKEY %s %s\nMSGFILE m.bin\nEXPECT-MAC 2D77E4B7\n"
        b"CASE repeat\nKEY 80018001 80018000\nMSGGEN 3\nREPEAT 2\nEXPECT-MAC 00000000\n"
        b"CASE trace\nKEY 00000100 00000080\nMSGHEX 01\nEXPECT-TRACE missing.trace\n"
        b"CASE missing\nKEY 00000001 00000002\nMSGFILE nowhere.bin\nEXPECT-MAC 00000000\n"
        % (KEY[:8].encode(), KEY[9:].encode())
    ),
    "dir.mvt": b"KEY 00000001 00000002\nMSGFILE sub\nEXPECT-MAC 00000000\n",
    "dir-trace.mvt": b"KEY 00000001 00000002\nMSGGEN 1\nEXPECT-TRACE sub\n",
    "loop.mvt": b"KEY 00000001 00000002\nMSGFILE loop\nEXPECT-MAC 00000000\n",
    "latin-trace.mvt": b"KEY 00000001 00000002\nMSGGEN 1\nEXPECT-TRACE latin.trace\n",
    "latin.trace": b"N=1 caf\xe9\n",
    "bad.mvt": b"KEY 1 2\n",
    "count.mvt": "MSGGEN \u00b2\n".encode(),
    "latin.mvt": b"CASE \xff\n",
}
# The vector files among them that parse; selftest refuses any other.
PARSING_FUZZ_FILES = {"good.mvt", "dir.mvt", "dir-trace.mvt", "loop.mvt", "latin-trace.mvt"}
_INPUT_OPTIONS = [["--hex"], ["--key", "80018001:80018000"], ["--key", "zz"], ["-"],
                  *([name] for name in FUZZ_FILES), ["sub"], ["loop"], ["missing"]]
# command: (required options, other options); junk tokens may follow.
FUZZ_COMMANDS = {
    "mac": (["--key", KEY], _INPUT_OPTIONS),
    "verify": (["--key", KEY, "--mac", "2D77E4B7"], [*_INPUT_OPTIONS, ["--mac", "0"]]),
    "trace": (["--key", KEY], [*_INPUT_OPTIONS, ["-o", "out"], ["--output", "sub"]]),
    "selftest": (
        [],
        [*(["--vectors", name] for name in [*FUZZ_FILES, "missing.mvt", "sub"]),
         ["--data-dir", "sub"], ["--data-dir", "loop"], ["--inject-fault"]],
    ),
    "bench": ([], []),
    "gen": ([], [["-o", "out"], ["--output", "sub"]]),
}
fuzz_junk = st.sampled_from(
    ["", "x", "-1", "3", "--blocks", "-o", "--", "--frob", "--hex", "--vectors", "\u00b2"]
)
fuzz_argv = st.sampled_from(sorted(FUZZ_COMMANDS)).flatmap(
    lambda command: st.builds(
        lambda options, junk: [command, *FUZZ_COMMANDS[command][0], *sum(options, []), *junk],
        st.lists(st.sampled_from(FUZZ_COMMANDS[command][1] or [[]]), max_size=3),
        st.lists(fuzz_junk, max_size=1),
    )
)


class TestMainFuzz:
    @given(
        fuzz_argv,
        st.integers(-2, 600),
        st.sampled_from([b"", b"abcdefgh", b"4245 0A0A", b"zz", b"\xff\xfe"]),
    )
    @settings(max_examples=300, deadline=None)
    def test_only_exit_codes_come_out(self, tmp_path_factory, argv, n_blocks, stdin):
        work = tmp_path_factory.mktemp("main")
        for name, data in FUZZ_FILES.items():
            (work / name).write_bytes(data)
        (work / "sub").mkdir()
        (work / "loop").symlink_to("loop")
        if argv[0] in ("bench", "gen"):  # the last --blocks wins
            argv = [*argv, "--blocks", str(n_blocks)]
        cwd = os.getcwd()
        os.chdir(work)
        try:
            code, out, _ = run_main(*argv, stdin=stdin)
        except SystemExit as exit:  # argparse's usage error
            assert exit.code == 2
        else:
            if argv[0] != "selftest":
                assert code in {0, 1, 2, 3, 4}
            else:  # a whole report, exactly when every vector file parses
                named = {argv[i + 1] for i, arg in enumerate(argv[:-1]) if arg == "--vectors"}
                assert code in ({2} if named - PARSING_FUZZ_FILES else {0, 4})
                last = (out.splitlines() or [b""])[-1]
                assert last.startswith(b"passed=") == (code in {0, 4}), out
        finally:
            os.chdir(cwd)


def test_usage_error_without_command():
    proc = run_cli()
    assert proc.returncode == 2
