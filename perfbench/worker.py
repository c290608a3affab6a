"""The measured process: runs one workload's rounds in a closed loop.

Usage: python3 perfbench/worker.py CONFIG.json

One client on one thread sends each call only after the previous one
returned; between calls the process may move to a quieter CPU (quiet.py)
or time a set-up probe that is due, and a round's time is the sum of its
calls' times.  Rounds repeat until the configured seconds have passed and
at least MIN_CALLS calls were made; with tracing on, untraced and traced
rounds alternate, and the traced ones record spans for the per-layer
metrics.  Prints one JSON object with the outputs, latencies, round times
and set-up probes; checking them is up to the caller.
"""

from __future__ import annotations

import io
import json
import resource
import statistics
import subprocess
import sys
from array import array
from contextlib import redirect_stderr, redirect_stdout
from time import perf_counter

import maa32
from maa32 import cli

import tracing
import workloads
from quiet import QuietCpu

CLI_TIMEOUT_S = 120
SETUP_PROBES = 9
MIN_CALLS = 100  # latency_p90_ms then has at least 10 calls beyond it


class Pacer:
    """What happens between two calls: a set-up probe when one is due, then
    the choice of CPU for the next call.

    A set-up probe times a fresh interpreter from launch to exit.  The
    probes are spread evenly over the run instead of made back to back,
    so that their median does not hang on the machine's speed at one
    moment.  They fall between calls, outside every call's time.
    """

    def __init__(self, quiet: QuietCpu, setup_argv, seconds: float):
        self.quiet = quiet
        self.argv = setup_argv
        self.interval = seconds / SETUP_PROBES
        self.start = perf_counter()
        self.setup: list[list] = []  # [seconds, exit code, stdout] per probe

    def between_calls(self) -> None:
        due = len(self.setup) * self.interval
        if self.argv and len(self.setup) < SETUP_PROBES and perf_counter() - self.start >= due:
            self.probe()
        self.quiet.settle()

    def finish(self) -> None:
        while self.argv and len(self.setup) < SETUP_PROBES:
            self.probe()

    def probe(self) -> None:
        self.quiet.settle()
        t = perf_counter()
        try:
            done = subprocess.run(self.argv, capture_output=True, timeout=CLI_TIMEOUT_S)
            out = [done.returncode, done.stdout.decode("latin-1")]
        except subprocess.TimeoutExpired:
            out = ["timeout", ""]
        self.setup.append([perf_counter() - t, *out])


def library_round(keys, messages, base: int, tracer, pace):
    """MACs of one round; an exception is reported on stderr and recorded as -1.

    Records are packed arrays, so the worker's own memory grows by only 16
    bytes per call and peak_rss_mb stays the program's.
    """
    mac_bytes = maa32.mac_bytes
    latencies, outputs = array("d"), array("q")
    for i, (key, message) in enumerate(zip(keys, messages)):
        pace()
        if tracer:
            tracer.message = base + i
        t = perf_counter()
        try:
            out = mac_bytes(key, message)
        except Exception as err:  # counted as a failed operation
            print("call %d: %r" % (base + i, err), file=sys.stderr)
            out = -1
        latencies.append(perf_counter() - t)
        outputs.append(out)
    return sum(latencies), latencies, outputs


def cli_subprocess(calls: list[dict], pace):
    """One round of real ``maa32`` invocations; stdout is decoded byte for byte."""
    latencies, outputs = [], []
    for call in calls:
        pace()
        t = perf_counter()
        try:
            done = subprocess.run(
                [sys.executable, "-m", "maa32", *call["argv"]],
                capture_output=True,
                timeout=CLI_TIMEOUT_S,
            )
            out = [done.returncode, done.stdout.decode("latin-1")]
        except subprocess.TimeoutExpired:
            out = ["timeout", ""]
        latencies.append(perf_counter() - t)
        outputs.append(out)
    return sum(latencies), latencies, outputs


def cli_in_process(calls: list[dict], base: int, tracer, pace):
    """The same calls through ``cli.main`` in this process, for the trace."""
    main = cli.main
    latencies, outputs = [], []
    for i, call in enumerate(calls):
        pace()
        if tracer:
            tracer.message = base + i
        stdout = io.StringIO()
        with redirect_stdout(stdout), redirect_stderr(io.StringIO()):
            t = perf_counter()
            try:
                code = main(call["argv"])
            except SystemExit as err:
                code = err.code
            except Exception as err:  # counted as a failed operation
                code = repr(err)
            latencies.append(perf_counter() - t)
        outputs.append([code, stdout.getvalue()])
    return sum(latencies), latencies, outputs


def round_runner(cfg: dict, pace):
    """A function (round index, tracer or None) -> (seconds in calls, latencies, outputs)."""
    workload, seed = cfg["workload"], cfg["seed"]
    if workload == "cli-files":
        calls = cfg["calls"]
        if cfg["trace"]:
            # Spans cannot follow a child process, so the traced run
            # compares in-process rounds with in-process rounds.
            return lambda index, tracer: cli_in_process(calls, index * len(calls), tracer, pace)
        return lambda index, tracer: cli_subprocess(calls, pace)

    keys, messages = workloads.library_round(workload, seed, 0)

    def run(index, tracer):
        round_keys = keys
        if index and workload == "short-many-keys":
            round_keys = workloads.round_keys(seed, index)
        return library_round(round_keys, messages, index * len(messages), tracer, pace)

    return run


def measure(cfg: dict) -> dict:
    quiet = QuietCpu()
    trace = cfg["trace"]
    # The traced run reports per-layer metrics only, so it makes no set-up probes.
    pacer = Pacer(quiet, None if trace else cfg["setup_argv"], cfg["seconds"])
    run = round_runner(cfg, pacer.between_calls)
    tracer = tracing.Tracer()
    rounds = []
    calls = 0
    start = perf_counter()
    index = 0
    while perf_counter() - start < cfg["seconds"] or calls < MIN_CALLS or (trace and index < 2):
        traced = trace and index % 2 == 1
        if traced:
            tracer.install()
        try:
            elapsed, latencies, outputs = run(index, tracer if traced else None)
        finally:
            tracer.uninstall()
        rounds.append(
            {"traced": traced, "seconds": elapsed, "latencies": latencies, "outputs": outputs}
        )
        calls += len(outputs)
        index += 1
    pacer.finish()

    usage = resource.RUSAGE_CHILDREN if cfg["workload"] == "cli-files" else resource.RUSAGE_SELF
    rss_kb = resource.getrusage(usage).ru_maxrss
    for r in rounds:
        r["latencies"], r["outputs"] = list(r["latencies"]), list(r["outputs"])
    result = {"rounds": rounds, "rss_kb": rss_kb, "setup": pacer.setup}
    if trace:
        result["layers"] = layer_metrics(cfg, rounds, tracer)
        result["layers"].update(probe_layers(cfg, quiet))
        with open(cfg["spans_path"], "w", encoding="ascii") as fh:
            for span in tracer.spans:
                fh.write(json.dumps(span) + "\n")
    return result


def layer_metrics(cfg: dict, rounds: list[dict], tracer: tracing.Tracer) -> dict:
    """Per-layer totals per traced round, plus the trace's own overhead."""
    traced = [r["seconds"] for r in rounds if r["traced"]]
    untraced = [r["seconds"] for r in rounds if not r["traced"]]
    per_round = len(rounds[0]["outputs"])
    totals, root = tracing.layer_totals(tracer.spans)

    def total(name, field):
        return totals.get(name, {}).get(field, 0) / len(traced)

    kernel_s = total("core.process_segment", "s")
    kernel_blocks = total("core.process_segment", "count")
    layers = {
        "core.process_segment_s": kernel_s,
        "core.process_segment_calls": total("core.process_segment", "calls"),
        "core.process_segment_blocks": kernel_blocks,
        "core.kernel_blocks_per_s": kernel_blocks / kernel_s if kernel_s else 0.0,
        "core.pad_message_s": total("core.pad_message", "s"),
        "core.pad_message_bytes": total("core.pad_message", "count"),
        "core.prelude_s": total("core.prelude", "s"),
        "core.prelude_intermediate_s": total("core.prelude_intermediate", "s"),
        "core.prelude_calls": total("core.prelude", "calls"),
        "core.prelude_calls_per_message": total("core.prelude", "calls") / per_round,
        "core.mac_self_s": total("core.mac", "self_s"),
        "core.mac_bytes_self_s": total("core.mac_bytes", "self_s"),
        "trace.overhead_share": statistics.median(traced) / statistics.median(untraced) - 1,
        "trace.unaccounted_share": (sum(traced) - root) / sum(traced),
    }
    if cfg["workload"] == "cli-files":
        layers.update(cli_layers(tracer.spans, cfg["calls"], len(traced)))
    return layers


def probe_layers(cfg: dict, quiet: QuietCpu) -> dict:
    """Layers the workload's own calls never reach, timed on a fixed probe.

    Library workloads never run the CLI: they probe it with a small file and
    the over-cap file.  The CLI never calls mac_bytes: cli-files probes it
    with the round's small messages.
    """
    probe = tracing.Tracer()
    probe.install()
    try:
        if cfg["workload"] == "cli-files":
            keys = [maa32.Key(j, k) for j, k, _ in cfg["probe_messages"]]
            messages = [bytes.fromhex(h) for _, _, h in cfg["probe_messages"]]
            _, _, outputs = library_round(keys, messages, 0, probe, quiet.settle)
        else:
            _, _, outputs = cli_in_process(cfg["probe_calls"], 0, probe, quiet.settle)
    finally:
        probe.uninstall()
    if cfg["workload"] == "cli-files":
        totals, _ = tracing.layer_totals(probe.spans)
        layers = {"core.mac_bytes_self_s": totals.get("core.mac_bytes", {}).get("self_s", 0.0)}
    else:
        layers = cli_layers(probe.spans, cfg["probe_calls"], 1)
    layers["probe_outputs"] = list(outputs)
    return layers


def cli_layers(spans: list[list], calls: list[dict], runs: int) -> dict:
    """cli.main self time, blocks read through cli.mac and over-cap refusal time."""
    totals, _ = tracing.layer_totals(spans)
    overcap = {i for i, call in enumerate(calls) if call["overcap"]}
    read = refused = 0.0
    for s in spans:
        parent = spans[s[tracing.PARENT]] if s[tracing.PARENT] >= 0 else None
        if s[tracing.NAME] == "core.mac" and parent and parent[tracing.NAME] == "cli.main":
            read += s[tracing.COUNT]
        if s[tracing.NAME] == "cli.main" and s[tracing.MESSAGE] % len(calls) in overcap:
            refused += s[tracing.END] - s[tracing.START]
    return {
        "cli.main_self_s": totals.get("cli.main", {}).get("self_s", 0.0) / runs,
        "cli.read_blocks": read / runs,
        "cli.overcap_reject_s": refused / runs,
    }


def main() -> None:
    with open(sys.argv[1], encoding="utf-8") as fh:
        cfg = json.load(fh)
    print(json.dumps(measure(cfg)))


if __name__ == "__main__":
    main()
