"""Compare a parent commit with a change on the benchmark's end-to-end metrics.

Collect paired runs, then print one verdict per (workload, metric):

    python3 perfbench/compare.py collect --parent ../parent --change . --out pairs.json
    python3 perfbench/compare.py verdict pairs.json

``collect`` runs this directory's ``run.py`` with each checkout as the
working directory, so both sides use the same benchmark code on their own
``src``.  It makes PAIRS pairs of runs of every workload in BENCHMARK.json,
each run lasting its ``run_seconds``; pair i runs seed ``SEED_BASE + i`` on
both sides and alternates which side goes first.

Verdicts:
  better      the change wins at least 9/10 of the pairs (ties count for
              neither), its median beats the parent's by more than the
              parent's interquartile range, and no more jobs failed
  worse       the change's median is worse than the parent's by more than
              the metric's bound in BENCHMARK.json
  unresolved  neither, and the parent's own spread is wider than the bound,
              unless every change run beats every parent run
  same        otherwise: within the bound
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
PAIRS = 10
SEED_BASE = 1000


def run_once(root: Path, workload: str, seed: int) -> dict:
    argv = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
            "--seconds", str(BENCHMARK["run_seconds"]), "--trace", "0"]
    proc = subprocess.run(argv, cwd=root, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        raise SystemExit(f"{root}: {workload} seed {seed} exited {proc.returncode}\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def collect(parent: Path, change: Path) -> dict:
    workloads = [w["name"] for w in BENCHMARK["workloads"]]
    results = {"parent": {w: [] for w in workloads}, "change": {w: [] for w in workloads}}
    for i in range(PAIRS):
        order = [("parent", parent), ("change", change)]
        if i % 2:
            order.reverse()
        for workload in workloads:
            for side, root in order:
                result = run_once(root, workload, SEED_BASE + i)
                results[side][workload].append(result)
                print(f"pair {i} {workload} {side}: {json.dumps(result['metrics'])}",
                      file=sys.stderr, flush=True)
    return results


def verdict(parent, change, better: str, bound: float, more_failures: bool) -> str:
    sign = 1 if better == "higher" else -1
    pairs = len(parent)
    wins = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
    mid_p, mid_c = statistics.median(parent), statistics.median(change)
    q1, _, q3 = statistics.quantiles(parent, n=4)
    gain = sign * (mid_c - mid_p)
    if not more_failures and 10 * wins >= 9 * pairs and gain > q3 - q1:
        return "better"
    if -gain > bound * abs(mid_p):
        return "worse"
    every = all(sign * (c - p) > 0 for c in change for p in parent)
    if q3 - q1 > bound * abs(mid_p) and not every:
        return "unresolved"
    return "same"


def report(results: dict) -> int:
    worse = 0
    print(f"{'workload':10} {'metric':14} {'parent median [q1, q3]':>32} "
          f"{'change median [q1, q3]':>32} {'wins':>6}  verdict")
    for workload, parent_runs in results["parent"].items():
        change_runs = results["change"][workload]
        failed_p = sum(r["failed"] for r in parent_runs)
        failed_c = sum(r["failed"] for r in change_runs)
        for metric in BENCHMARK["end_to_end"]:
            name = metric["name"]
            p = [r["metrics"][name]["value"] for r in parent_runs]
            c = [r["metrics"][name]["value"] for r in change_runs]
            sign = 1 if metric["better"] == "higher" else -1
            wins = sum(sign * (y - x) > 0 for x, y in zip(p, c))
            result = verdict(p, c, metric["better"], metric["bound"], failed_c > failed_p)
            worse += result == "worse"
            cols = []
            for values in (p, c):
                q1, _, q3 = statistics.quantiles(values, n=4)
                cols.append(f"{statistics.median(values):.4g} [{q1:.4g}, {q3:.4g}]")
            print(f"{workload:10} {name:14} {cols[0]:>32} {cols[1]:>32} "
                  f"{wins:>3}/{len(p):<2}  {result}")
        print(f"{workload:10} {'failed jobs':14} {failed_p:>32} {failed_c:>32}")
    return 1 if worse else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)
    p = sub.add_parser("collect", help="run paired parent/change runs and write them out")
    p.add_argument("--parent", type=Path, required=True, help="root of the parent checkout")
    p.add_argument("--change", type=Path, required=True, help="root of the changed checkout")
    p.add_argument("--out", type=Path, required=True)
    p = sub.add_parser("verdict", help="print verdicts for collected runs")
    p.add_argument("results", type=Path)
    args = parser.parse_args(argv)
    if args.command == "collect":
        results = collect(args.parent.resolve(), args.change.resolve())
        args.out.write_text(json.dumps(results, indent=1) + "\n", encoding="utf-8")
        return report(results)
    return report(json.loads(args.results.read_text(encoding="utf-8")))


if __name__ == "__main__":
    sys.exit(main())
