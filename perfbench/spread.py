"""Repeat the benchmark over several seeds and summarise each metric.

    python3 perfbench/spread.py --seeds 1-10 [--traced-seeds 1-5]
                                [--workloads a,b] [--out FILE]

Run from the root of a checkout.  For every workload and end-to-end
metric it prints the median, the quartiles (``statistics.quantiles`` with
n=4) and the spread (q3 - q1) / median next to the metric's bound from
BENCHMARK.json.  Traced runs on ``--traced-seeds`` add the same summary
for every per-layer metric.  With ``--out`` it writes the summary as JSON,
in the format of ``perfbench/baseline.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from env import git_commit  # noqa: E402


def seed_list(text: str) -> list[int]:
    if not text:
        return []
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True, timeout=200)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} trace {trace} exited {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    return {"detail": json.loads(lines[-2])["detail"], "result": json.loads(lines[-1])}


def summarise(workload: str, why: str, metric: dict, runs: list[dict]) -> dict:
    values = [run["result"]["metrics"][metric["name"]]["value"] for run in runs]
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    entry = {"workload": workload, "metric": metric["name"], "unit": metric["unit"],
             "better": metric["better"], "why": why, "median": median,
             "q1": q1, "q3": q3, "values": values}
    if "bound" in metric:
        entry["bound"] = metric["bound"]
        entry["spread"] = (q3 - q1) / median
    return entry


def facts(runs: list[dict]) -> dict:
    """Workload properties behind the metrics, from the runs' detail lines."""
    details = [run["detail"] for run in runs]

    def median(key):
        return statistics.median(d[key] for d in details)

    return {
        "failed": sum(run["result"]["failed"] for run in runs),
        "attempted": sum(run["result"]["attempted"] for run in runs),
        "queries_per_run": [d["queries"] for d in details],
        "no_key_share": sum(d["no_key_queries"] for d in details)
        / max(sum(d["queries"] for d in details), 1),
        "rows_per_s_overall_median": median("rows_per_s_overall"),
        "query_ms_p50_median": median("query_ms_p50"),
        "query_ms_mean_median": median("query_ms_mean"),
        "shots_per_s_median": median("shots_per_s"),
        "validate_pass_false": sum(d["validate_pass_false"] for d in details),
        "env": details[0]["env"],
    }


def main() -> None:
    with open("BENCHMARK.json") as fh:
        bench = json.load(fh)
    parser = argparse.ArgumentParser()
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--traced-seeds", default="")
    parser.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    parser.add_argument("--out", default="")
    args = parser.parse_args()

    why = {w["name"]: w["why"] for w in bench["workloads"]}
    summary = {"commit": git_commit(os.getcwd()), "run_seconds": bench["run_seconds"],
               "seeds": seed_list(args.seeds), "traced_seeds": seed_list(args.traced_seeds),
               "entries": [], "workload_facts": {}}
    for workload in args.workloads.split(","):
        runs = []
        for seed in summary["seeds"]:
            runs.append(run_once(workload, seed, bench["run_seconds"], trace=0))
            r = runs[-1]["result"]
            print(f"{workload} seed {seed}: correct={r['correct']} "
                  f"failed={r['failed']}/{r['attempted']} "
                  + " ".join(f"{k}={v['value']:.4g}" for k, v in r["metrics"].items()),
                  flush=True)
        if len(runs) >= 2:
            for metric in bench["end_to_end"]:
                e = summarise(workload, why[workload], metric, runs)
                summary["entries"].append(e)
                flag = "" if e["spread"] < metric["bound"] / 3 else "  <-- above bound/3"
                print(f"  {workload:12s} {metric['name']:14s} median={e['median']:.5g} "
                      f"q1={e['q1']:.5g} q3={e['q3']:.5g} spread={e['spread']:.4f} "
                      f"bound={metric['bound']}{flag}", flush=True)
            summary["workload_facts"][workload] = facts(runs)

        traced = [run_once(workload, seed, bench["run_seconds"], trace=1)
                  for seed in summary["traced_seeds"]]
        if len(traced) >= 2:
            summary["entries"] += [summarise(workload, why[workload], metric, traced)
                                   for metric in bench["per_layer"]]
            print(f"  {workload}: {len(traced)} traced runs, failed="
                  f"{sum(r['result']['failed'] for r in traced)}, trace.overhead_frac="
                  + ", ".join(f"{r['result']['metrics']['trace.overhead_frac']['value']:.3f}"
                              for r in traced), flush=True)
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(summary, fh, indent=1)
            fh.write("\n")


if __name__ == "__main__":
    main()
