"""The maa32 benchmark: one workload, one seed, one run.

Usage (from the repository root):

    python3 perfbench/run.py --workload bulk --seed 1 --seconds 15 --trace 0

Workloads, metrics, units and bounds are listed in BENCHMARK.json; how
each is made and measured is in perfbench/README.md.  A run

1. checks the builtin vector corpus (vectors.run_vectors must report no FAIL),
2. makes the inputs from --seed and, for cli-files, writes the files,
3. measures the workload in a worker process (perfbench/worker.py),
4. times set-up there too, between calls: fresh interpreters that import
   maa32 and make one MAC,
5. compares every output with the benchmark's own stepwise reference,
   computed outside every timed region, and
6. prints one line per metric, writes a run record under
   perfbench/_results/, and prints the result as one JSON line last.

With --trace 0 the metrics are the end-to-end ones; with --trace 1 the
per-layer ones.  Any failed operation makes the exit code 1.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
from dataclasses import dataclass, field
from time import perf_counter

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
STARTUP_PROBES = 5
STARTUP_KEY = "01234567:89ABCDEF"
WORKER_TIMEOUT_S = 170
SETUP_CODE = (
    "import sys, maa32; "
    "print('%08X' % maa32.mac_bytes(maa32.Key(int(sys.argv[1]), int(sys.argv[2])), "
    "bytes.fromhex(sys.argv[3])))"
)


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
    return env


def maa32_argv(*args: str) -> list[str]:
    return [sys.executable, "-m", "maa32", *args]


def run_child(argv, env, timeout: float) -> tuple[int, bytes, bytes]:
    """Run argv to its end in a process group of its own.

    On every way out (exit, timeout, an exception or a signal turned into
    SystemExit) whatever is left of the group is killed, and the child is
    waited for, so no process of the run outlives it.
    """
    with subprocess.Popen(
        argv,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=env,
        start_new_session=True,
    ) as proc:
        try:
            out, err = proc.communicate(timeout=timeout)
        finally:
            try:
                os.killpg(proc.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
    return proc.returncode, out, err


def timed_runs(argvs, env) -> list[tuple[float, int, bytes]]:
    """Each command in a fresh process on the quietest CPU, timed from launch to exit."""
    from quiet import QuietCpu

    quiet = QuietCpu()
    runs = []
    try:
        for argv in argvs:
            quiet.settle()
            t = perf_counter()
            code, out, _ = run_child(argv, env, timeout=60)
            runs.append((perf_counter() - t, code, out))
    finally:
        quiet.release()
    return runs


@dataclass
class Plan:
    """What a run executes and what each call must return."""

    payload: int  # message bytes authenticated per round
    setup_argv: list[str]
    setup_stdout: str
    calls: list[dict] = field(default_factory=list)  # cli-files: argv and over-cap flag
    expected: list = field(default_factory=list)  # cli-files: [exit code, stdout] per call
    # Layers the workload never reaches are timed on a probe after the trace:
    # CLI calls for library workloads, mac_bytes messages for cli-files.
    probe_calls: list[dict] = field(default_factory=list)
    probe_messages: list[list] = field(default_factory=list)  # [key word, key word, hex]
    probe_expected: list = field(default_factory=list)


def plan_cli(seed: int, scratch: str) -> Plan:
    import workloads

    cli_key = workloads.cli_key(seed)
    key = workloads.key_hex(cli_key)
    specs = workloads.cli_files(seed)
    accepted = [s for s in specs if not s.overcap]
    refs = workloads.reference_many([(cli_key, s.message) for s in accepted])
    macs = dict(zip((s.name for s in accepted), refs))
    plan = Plan(
        payload=sum(len(s.message) for s in accepted),
        setup_argv=maa32_argv("mac", "--key", key, os.path.join(scratch, "empty")),
        setup_stdout="%08X\n" % macs["empty"],
    )
    for spec in specs:
        path = os.path.join(scratch, spec.name)
        with open(path, "wb") as fh:
            fh.write(workloads.file_bytes(seed, spec))
        argv = [spec.command, "--key", key] + (["--hex"] if spec.hex_input else [])
        if spec.overcap:
            expected = [3, ""]
        elif spec.command == "mac":
            expected = [0, "%08X\n" % macs[spec.name]]
        else:
            claimed = macs[spec.name]
            if spec.wrong_mac:
                claimed = workloads.wrong_mac(seed, spec, claimed)
            argv += ["--mac", "%08X" % claimed]
            expected = [1 if spec.wrong_mac else 0, ""]
        plan.calls.append({"argv": argv + [path], "overcap": spec.overcap})
        plan.expected.append(expected)
    for spec in accepted:
        if len(spec.message) <= workloads.SMALL_FILE_BYTES:
            plan.probe_messages.append([*cli_key, spec.message.hex()])
            plan.probe_expected.append(macs[spec.name])
    return plan


def plan_library(workload: str, seed: int, scratch: str) -> Plan:
    import workloads

    keys, messages = workloads.library_round(workload, seed, 0)
    first = messages[0][: workloads.SETUP_BYTES]
    stdout = "%08X\n" % workloads.reference_mac(keys[0], first)
    plan = Plan(
        payload=sum(map(len, messages)),
        setup_argv=[sys.executable, "-c", SETUP_CODE, str(keys[0][0]), str(keys[0][1]), first.hex()],
        setup_stdout=stdout,
    )
    small, overcap = os.path.join(scratch, "probe-small"), os.path.join(scratch, "probe-overcap")
    with open(small, "wb") as fh:
        fh.write(first)
    with open(overcap, "wb") as fh:
        fh.write(b"\x5a" * workloads.OVERCAP_BYTES)
    key = ["--key", workloads.key_hex(keys[0])]
    plan.probe_calls = [
        {"argv": ["mac", *key, small], "overcap": False},
        {"argv": ["mac", *key, overcap], "overcap": True},
    ]
    plan.probe_expected = [[0, stdout], [3, ""]]
    return plan


def expected_rounds(workload: str, seed: int, plan: Plan, count: int) -> list[list]:
    """Expected outputs per round; only short-many-keys changes its keys by round."""
    import workloads

    if workload == "cli-files":
        return [plan.expected] * count
    distinct = count if workload == "short-many-keys" else 1
    pairs, sizes = [], []
    for index in range(distinct):
        keys, messages = workloads.library_round(workload, seed, index)
        pairs += zip(keys, messages)
        sizes.append(len(messages))
    macs = workloads.reference_many(pairs)
    rounds = []
    for size in sizes:
        rounds.append(macs[:size])
        macs = macs[size:]
    return rounds * (count // distinct)


def summary(samples) -> dict:
    if len(samples) == 1:
        q1 = q2 = q3 = samples[0]
    else:
        q1, q2, q3 = statistics.quantiles(samples, n=4, method="inclusive")
    return {"samples": len(samples), "median": q2, "q1": q1, "q3": q3}


def end_to_end(plan: Plan, rounds: list[dict], rss_kb: int, setup_s: list[float]):
    """Metric values, and the sample summaries behind them for the run record."""
    rates = [plan.payload / r["seconds"] / 1e6 for r in rounds]
    counts = [len(r["outputs"]) / r["seconds"] for r in rounds]
    latencies = [t * 1e3 for r in rounds for t in r["latencies"]]
    seconds = sum(r["seconds"] for r in rounds)
    # Totals over the run rather than a median of rounds: rounds fall in a
    # fast or a slow state of the machine, and a median jumps between them.
    values = {
        "mb_per_s": plan.payload * len(rounds) / seconds / 1e6,
        "messages_per_s": len(latencies) / seconds,
        "latency_p50_ms": statistics.median(latencies),
        "latency_p90_ms": statistics.quantiles(latencies, n=10, method="inclusive")[8],
        "setup_s": statistics.median(setup_s),
        "peak_rss_mb": rss_kb / 1024,
    }
    record = {
        "mb_per_s": summary(rates),
        "messages_per_s": summary(counts),
        "latency_ms": summary(latencies),
        "setup_s": summary(setup_s),
    }
    return values, record


def git_revision():
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="ascii") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        with open(os.path.join(git, head[5:]), encoding="ascii") as fh:
            return fh.read().strip()
    except OSError:
        return None


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    parser = argparse.ArgumentParser(description="Run one maa32 benchmark workload.")
    parser.add_argument("--workload", required=True, choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    # A terminated run unwinds like an exception, so run_child stops its children.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not os.path.isfile(os.path.join(SRC, "maa32", "__init__.py")):
        print("no maa32 sources under %s" % SRC, file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)

    scratch = os.path.join(BENCH_DIR, "_scratch", "%s-%d-%d" % (args.workload, args.seed, os.getpid()))
    results = os.path.join(BENCH_DIR, "_results")
    os.makedirs(scratch)
    os.makedirs(results, exist_ok=True)
    try:
        return run(args, spec, scratch, results)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


def run(args, spec: dict, scratch: str, results: str) -> int:
    from maa32 import vectors

    env = child_env()
    failures: list[str] = []
    attempted = 1
    gate = vectors.run_vectors(vectors.builtin_corpus())
    if not gate.ok:
        failures.append("vector corpus: %d FAIL" % gate.failed)

    if args.workload == "cli-files":
        plan = plan_cli(args.seed, scratch)
    else:
        plan = plan_library(args.workload, args.seed, scratch)

    config_path = os.path.join(scratch, "config.json")
    with open(config_path, "w", encoding="utf-8") as fh:
        json.dump(
            {
                "workload": args.workload,
                "seed": args.seed,
                "seconds": args.seconds,
                "trace": bool(args.trace),
                "calls": plan.calls,
                "setup_argv": plan.setup_argv,
                "probe_calls": plan.probe_calls,
                "probe_messages": plan.probe_messages,
                "spans_path": os.path.join(results, "spans-%s-seed%d.jsonl" % (args.workload, args.seed)),
            },
            fh,
        )
    code, out, err = run_child(
        [sys.executable, os.path.join(BENCH_DIR, "worker.py"), config_path],
        env,
        timeout=WORKER_TIMEOUT_S,
    )
    sys.stderr.write(err.decode(errors="replace")[-4000:])
    if code != 0:
        print("worker exited with %d" % code, file=sys.stderr)
        return 1
    measured = json.loads(out.decode().splitlines()[-1])

    setup = measured["setup"]
    attempted += len(setup)
    failures += [
        "setup probe: exit %s, stdout %r" % (status, stdout)
        for _, status, stdout in setup
        if [status, stdout] != [0, plan.setup_stdout]
    ]
    rounds = measured["rounds"]
    for index, (rnd, want) in enumerate(
        zip(rounds, expected_rounds(args.workload, args.seed, plan, len(rounds)))
    ):
        attempted += len(rnd["outputs"])
        failures += [
            "round %d call %d: got %r, expected %r" % (index, i, g, w)
            for i, (g, w) in enumerate(zip(rnd["outputs"], want))
            if g != w
        ]

    if args.trace:
        values, record = measured["layers"], {}
        probe = values.pop("probe_outputs", [])
        attempted += len(probe)
        failures += [
            "cli probe call %d: got %r, expected %r" % (i, g, w)
            for i, (g, w) in enumerate(zip(probe, plan.probe_expected))
            if g != w
        ]
        empty = os.path.join(scratch, "startup-empty")
        open(empty, "wb").close()
        startup = timed_runs([maa32_argv("mac", "--key", STARTUP_KEY, empty)] * STARTUP_PROBES, env)
        attempted += len(startup)
        failures += ["startup probe: exit %d" % code for _, code, _ in startup if code != 0]
        values["cli.startup_ms"] = statistics.median(t for t, _, _ in startup) * 1e3
        wanted = spec["per_layer"]
    else:
        values, record = end_to_end(plan, rounds, measured["rss_kb"], [t for t, _, _ in setup])
        wanted = spec["end_to_end"]

    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    failed = len(failures)
    calls = sum(len(r["outputs"]) for r in rounds)
    for line in failures[:20]:
        print("FAIL " + line, file=sys.stderr)
    for name, metric in metrics.items():
        print("%s %s %.6g %s" % (args.workload, name, metric["value"], metric["unit"]))
    print("%s error_rate %.6g (%d failed of %d attempted)" % (args.workload, failed / attempted, failed, attempted))
    print("%s samples %d calls in %d rounds" % (args.workload, calls, len(rounds)))

    run_record = {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "platform": platform.platform(),
        "git_revision": git_revision(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "rounds": len(rounds),
        "calls": calls,
        "attempted": attempted,
        "failed": failed,
        "error_rate": failed / attempted,
        "metrics": metrics,
        "samples": record,
    }
    record_path = os.path.join(results, "%s-seed%d-trace%d.json" % (args.workload, args.seed, args.trace))
    with open(record_path, "w", encoding="utf-8") as fh:
        json.dump(run_record, fh, indent=1)
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
