"""Closed-loop client: one process issuing CLI commands one after another.

Started by run.py in a fresh interpreter from the root of a checkout.  It
imports ``sqccqkd.cli`` from ``src/``, calls ``cli.main(argv)`` for each
command of the workload plan, checks each artifact after the command
returns, and writes a JSON summary to ``--out``.

Untraced runs draw one cycle from the seed and repeat it until the
commands have taken ``--seconds``, at least ``MIN_CYCLES`` cycles ran and
at least ``MIN_QUERIES`` queries were timed.  Traced
runs execute one cycle, each command first untraced and then traced, so
their counts repeat exactly and the difference in time is the tracing
overhead.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import shutil
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import env  # noqa: E402
import workloads  # noqa: E402

MAX_FAILURE_MESSAGES = 20
MIN_CYCLES = 5
WALL_LIMIT_S = 120.0


class Tally:
    """What a sequence of commands did, as seen from outside the program."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.cmd_s = 0.0
        self.query_ms: list[float] = []
        self.rows = 0
        self.bytes_written = 0
        self.shots = 0
        self.nonzero_exits = 0
        self.no_key = 0
        self.validate_pass_false = 0

    def fail(self, messages: list[str]) -> None:
        self.failed += 1
        room = MAX_FAILURE_MESSAGES - len(self.failures)
        self.failures += messages[:max(room, 0)]


def run_command(cli, cmd: workloads.Command, tally: Tally) -> float:
    """Run one command, check its artifact, and return its time in seconds."""
    for path in (cmd.output, cmd.dump):
        if path and os.path.exists(path):
            os.remove(path)
    sink = io.StringIO()
    tally.attempted += 1
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            rc = cli.main(list(cmd.argv))
    except SystemExit as exc:
        rc = exc.code if isinstance(exc.code, int) else 2
    except Exception:  # a traceback is a failure of this command, not of the run
        rc = "traceback"
        sink.write(traceback.format_exc())
    elapsed = time.perf_counter() - start
    tally.cmd_s += elapsed
    if cmd.query:
        tally.query_ms.append(elapsed * 1e3)

    if rc != 0:
        tally.nonzero_exits += 1
        tally.fail([f"{cmd.argv[0]} exited {rc}: {sink.getvalue()[-300:]}"])
        return elapsed
    rows = workloads.read_csv(cmd.output)
    tally.rows += len(rows)
    tally.bytes_written += os.path.getsize(cmd.output)
    tally.shots += cmd.shots
    failures = cmd.check(rows)
    if cmd.dump:
        tally.bytes_written += os.path.getsize(cmd.dump)
        failures += workloads.check_dump(cmd.dump, cmd.dump_rows)
    if cmd.query and rows and rows[0].get("k_star") == "0.0":
        tally.no_key += 1
    tally.validate_pass_false += sum(r.get("pass") == "false" for r in rows)
    if failures:
        tally.fail(failures)
    return elapsed


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(workloads.PLANS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true")
    parser.add_argument("--out", required=True)
    parser.add_argument("--spans", default="")
    args = parser.parse_args(argv)

    root = os.getcwd()
    sys.path.insert(0, os.path.join(root, "src"))
    import sqccqkd
    import sqccqkd.cli as cli

    if not os.path.abspath(sqccqkd.__file__).startswith(os.path.join(root, "src")):
        print(f"sqccqkd imported from {sqccqkd.__file__}, not from ./src", file=sys.stderr)
        return 2

    workdir = os.path.join(os.path.dirname(os.path.abspath(args.out)),
                           f"work-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    refs = workloads.References()
    plan = workloads.PLANS[args.workload](refs, args.seed, workdir, args.tiny)
    result = {"env": env.describe(root, args.seed), "workload": args.workload}
    try:
        if args.trace:
            result.update(traced(cli, plan, args.spans))
        else:
            result.update(untraced(cli, plan, args.seconds, args.tiny))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    with open(args.out, "w") as fh:
        json.dump(result, fh, indent=1)
    return 0


def slow_ms(times: list[float]) -> float:
    """A command's time in the machine's slow state: its second-slowest
    timing, so that a single stall does not count."""
    return sorted(times)[-2] if len(times) > 1 else times[0]


def untraced(cli, plan: workloads.Plan, seconds: float, tiny: bool) -> dict:
    # The same commands run in every cycle, so each command is timed once
    # per cycle and its slow-state time can be read from its own timings.
    cycle = plan.cycle()
    timings: list[list[float]] = [[] for _ in cycle]
    tally = Tally()
    wall = time.perf_counter()
    cycle_rows_per_s = []
    while True:
        rows, cmd_s = tally.rows, tally.cmd_s
        for cmd, times in zip(cycle, timings):
            times.append(run_command(cli, cmd, tally) * 1e3)
        cycle_rows_per_s.append((tally.rows - rows) / (tally.cmd_s - cmd_s))
        if tiny or time.perf_counter() - wall > WALL_LIMIT_S:
            break
        if (tally.cmd_s >= seconds and len(cycle_rows_per_s) >= MIN_CYCLES
                and len(tally.query_ms) >= workloads.MIN_QUERIES):
            break
    slow = [slow_ms(times) for times in timings]
    return {"cycles": len(cycle_rows_per_s), "cycle_rows_per_s": cycle_rows_per_s,
            "rows_per_cycle": tally.rows / len(cycle_rows_per_s),
            "cmd_slow_ms": slow,
            "query_slow_ms": [ms for ms, cmd in zip(slow, cycle) if cmd.query],
            **vars(tally)}


def traced(cli, plan: workloads.Plan, spans_path: str) -> dict:
    from tracing import Tracer, layer_metrics

    # Each command runs untraced and then traced, back to back, so both
    # timings see the same state of a machine whose speed drifts.
    plain, tally, tracer = Tally(), Tally(), Tracer()
    for i, cmd in enumerate(plan.cycle()):
        run_command(cli, cmd, plain)
        tracer.install()
        try:
            run_command(cli, cmd, tally)
        finally:
            tracer.uninstall()
        tracer.end_command(i)
    if spans_path:
        tracer.save(spans_path)
    per_layer = layer_metrics(tracer, tally.rows, tally.bytes_written,
                              tally.nonzero_exits)
    per_layer["trace.overhead_frac"] = (tally.cmd_s - plain.cmd_s) / plain.cmd_s
    out = dict(vars(tally))
    out["attempted"] += plain.attempted
    out["failed"] += plain.failed
    out["failures"] = (plain.failures + tally.failures)[:MAX_FAILURE_MESSAGES]
    return {"cycles": 1, **out, "untraced_cmd_s": plain.cmd_s,
            "per_layer": per_layer}


if __name__ == "__main__":
    sys.exit(main())
