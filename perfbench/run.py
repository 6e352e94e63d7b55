"""sqccqkd benchmark entry point.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout.  The package is imported from ./src in
fresh interpreters: several that only import ``sqccqkd.cli`` (set-up
time) and one closed-loop client that runs the workload (client.py).
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
holds the environment and the numbers behind the metrics.  Untraced runs
report the end-to-end metrics, traced runs the per-layer metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
CLIENT = os.path.join(HERE, "client.py")
OUT_DIR = ".perfbench-out"
SETUP_SAMPLES = 9
TIME_LIMIT_S = 170.0

END_TO_END_UNITS = {
    "setup_s": "s",
    "rows_per_s": "rows/s",
    "query_ms_p90": "ms",
    "peak_rss_mb": "MB",
}

_IMPORT = ("import sys; sys.path.insert(0, 'src'); import sqccqkd.cli; "
           "sys.stdout.write('ready\\n'); sys.stdout.flush()")


def per_layer_units() -> dict[str, str]:
    with open(os.path.join(HERE, "..", "BENCHMARK.json")) as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)["per_layer"]}


def setup_seconds(count: int) -> list[float]:
    """Times from a fresh interpreter until ``import sqccqkd.cli`` returns."""
    samples = []
    for _ in range(count):
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, "-I", "-c", _IMPORT],
                                stdout=subprocess.PIPE, text=True)
        try:
            line = proc.stdout.readline()
            samples.append(time.perf_counter() - start)
            proc.communicate(timeout=30)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        if line != "ready\n" or proc.returncode != 0:
            raise RuntimeError("importing sqccqkd.cli from ./src failed")
    return samples


def run_client(args, out: str, spans: str, timeout: float) -> dict:
    cmd = [sys.executable, "-I", CLIENT, "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--out", out, "--spans", spans]
    if args.tiny:
        cmd.append("--tiny")
    proc = subprocess.run(cmd, stdout=sys.stderr, timeout=timeout)
    if proc.returncode != 0:
        raise RuntimeError(f"workload client exited {proc.returncode}")
    with open(out) as fh:
        return json.load(fh)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=["asymptotic", "finite-key", "monte-carlo"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="one shrunken cycle, for the benchmark's own tests")
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join("src", "sqccqkd", "cli.py")):
        print("run from the root of an sqccqkd checkout: ./src/sqccqkd is missing",
              file=sys.stderr)
        return 2
    started = time.perf_counter()
    os.makedirs(OUT_DIR, exist_ok=True)
    stem = os.path.join(OUT_DIR, f"{args.workload}-seed{args.seed}-trace{args.trace}")

    try:
        # Set-up is sampled in two bursts, before and after the workload.
        first = SETUP_SAMPLES // 2 + 1
        setup = setup_seconds(first) if not args.trace else None
        remaining = TIME_LIMIT_S - (time.perf_counter() - started)
        client = run_client(args, stem + ".client.json",
                            stem + ".spans.npz" if args.trace else "", remaining)
        if setup is not None:
            setup += setup_seconds(SETUP_SAMPLES - first)
    except (RuntimeError, OSError, subprocess.TimeoutExpired) as exc:
        print(f"benchmark run failed: {exc}", file=sys.stderr)
        return 1

    if args.trace:
        units = per_layer_units()
        metrics = {name: {"value": client["per_layer"][name], "unit": unit}
                   for name, unit in units.items()}
    else:
        # The shared machine switches between a fast and a slow state every
        # few seconds, and the fast state drifts more from minute to minute.
        # Each metric therefore takes the slow state: each command at its
        # slow-state time, and set-up from the slower of the two bursts.
        values = {
            "setup_s": max(statistics.median(setup[:first]),
                           statistics.median(setup[first:])),
            "rows_per_s": client["rows_per_cycle"] / (sum(client["cmd_slow_ms"]) / 1e3),
            "query_ms_p90": statistics.quantiles(client["query_slow_ms"], n=10)[8],
            "peak_rss_mb": client["peak_rss_mb"],
        }
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}

    detail = {
        "workload": args.workload,
        "env": client["env"],
        "cycles": client["cycles"],
        "commands": client["attempted"],
        "failed_frac": client["failed"] / client["attempted"],
        "failures": client["failures"],
        "cmd_s": client["cmd_s"],
        "rows": client["rows"],
        "rows_per_s_overall": client["rows"] / client["cmd_s"],
        "cycle_rows_per_s": client.get("cycle_rows_per_s"),
        "queries": len(client["query_ms"]),
        "query_ms_p50": statistics.median(client["query_ms"]),
        "query_ms_mean": statistics.fmean(client["query_ms"]),
        "no_key_queries": client["no_key"],
        "shots": client["shots"],
        "shots_per_s": client["shots"] / client["cmd_s"],
        "bytes_written": client["bytes_written"],
        "validate_pass_false": client["validate_pass_false"],
        "setup_samples_s": setup,
        "untraced_cmd_s": client.get("untraced_cmd_s"),
    }
    result = {
        "correct": client["failed"] == 0,
        "attempted": client["attempted"],
        "failed": client["failed"],
        "metrics": metrics,
    }
    with open(stem + ".json", "w") as fh:
        json.dump({"detail": detail, "result": result}, fh, indent=1)
    print(json.dumps({"detail": detail}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
