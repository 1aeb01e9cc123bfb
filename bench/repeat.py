#!/usr/bin/env python3
"""Repeat mode: run every workload several times and report the spread.

    python3 bench/repeat.py [--runs 10] [--seed0 1] [--save FILE] [--baseline FILE]

Runs ``bench/run.py`` once per seed and workload, one process at a time, for
the ``run_seconds`` of BENCHMARK.json.  For each end-to-end metric it prints
the median, the quartiles, and the quartile spread (q3 - q1) as a share of
the median next to the metric's bound from BENCHMARK.json.  A spread under a
third of the bound is marked ``steady``.
With ``--baseline`` (a file written by ``--save``) it also prints how far
each median moved against the bound.  Exits 1 if any run fails its checks.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--seed0", type=int, default=1)
    p.add_argument("--save", type=Path)
    p.add_argument("--baseline", type=Path)
    args = p.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    baseline = json.loads(args.baseline.read_text()) if args.baseline else {}
    results: dict = {}
    ok = True
    for workload in (w["name"] for w in spec["workloads"]):
        runs = []
        for k in range(args.runs):
            seed = args.seed0 + k
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
                   "--seconds", str(spec["run_seconds"]), "--trace", "0"]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
            last = proc.stdout.strip().splitlines()[-1:] if proc.returncode == 0 else []
            if not last:
                print(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
                ok = False
                continue
            result = json.loads(last[0])
            ok &= result["correct"]
            runs.append(result)
            print(f"{workload} seed {seed}: correct={result['correct']} attempted={result['attempted']} "
                  f"failed={result['failed']}", file=sys.stderr)
        if not runs:
            continue
        shares = sorted({r["failed"] / r["attempted"] for r in runs})
        print(f"\n{workload}: {len(runs)} runs, failed share {shares}")
        print(f"  {'metric':40s} {'median':>12s} {'q1':>12s} {'q3':>12s} {'spread':>8s} {'bound':>6s}")
        results[workload] = {"failed_share": shares, "metrics": {}}
        for m in spec["end_to_end"]:
            values = [r["metrics"][m["name"]]["value"] for r in runs]
            results[workload]["metrics"][m["name"]] = values
            med = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
            spread = (q3 - q1) / med if med else 0.0
            bound = m["bound"]
            line = f"  {m['name']:40s} {med:12.6g} {q1:12.6g} {q3:12.6g} {spread:8.3f}"
            line += f" {bound:6.2f} {'steady' if spread < bound / 3 else 'WIDE' if spread > bound else 'ok'}"
            old = baseline.get(workload, {}).get("metrics", {}).get(m["name"])
            if old:
                shift = med / statistics.median(old) - 1.0
                worse = shift if m["better"] == "lower" else -shift
                line += f"  median moved {shift:+.3f}"
                if worse > bound:
                    line += " BEYOND BOUND"
            print(line)
    if args.save:
        args.save.write_text(json.dumps(results, indent=1))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
