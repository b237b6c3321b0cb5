#!/usr/bin/env python3
"""Steadiness report: runs workloads N times, one seed each, and prints every
end-to-end metric's median, quartiles, IQR/median and min/max beside the
bound BENCHMARK.json fixes for it.  The spread must stay under the bound (and
should stay under a third of it); setup_s is exempt from the spread rule.

    python3 perfbench/steadiness.py --workload svc_flowlets_uniform --runs 10
    python3 perfbench/steadiness.py --workload all --runs 10 --first-seed 101
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload, seed, seconds):
    """One untraced run; returns its JSON result and its noise diagnostics."""
    p = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, stdout=subprocess.PIPE, universal_newlines=True)
    lines = p.stdout.strip().splitlines()
    if p.returncode != 0 or not lines:
        raise RuntimeError("%s seed %d failed (exit %d)" %
                           (workload, seed, p.returncode))
    diag = [l for l in lines if l.startswith("# untraced:")]
    return json.loads(lines[-1]), diag[0] if diag else ""


def report(workload, results, bench):
    print("\n%s: %d runs" % (workload, len(results)))
    print("%-18s %12s %12s %12s %8s %12s %12s %6s  %s" %
          ("metric", "median", "q1", "q3", "iqr/med", "min", "max",
           "bound", "verdict"))
    ok = True
    for m in bench["end_to_end"]:
        vals = [r["metrics"][m["name"]]["value"] for r in results]
        q1, med, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / med if med else float("inf")
        exempt = m["name"] == "setup_s"
        if exempt:
            verdict = "exempt"
        elif spread <= m["bound"] / 3:
            verdict = "steady"
        elif spread <= m["bound"]:
            verdict = "within bound"
        else:
            verdict = "TOO NOISY"
            ok = False
        print("%-18s %12.6g %12.6g %12.6g %8.4f %12.6g %12.6g %6.3f  %s" %
              (m["name"], med, q1, q3, spread, min(vals), max(vals),
               m["bound"], verdict))
    failed = sum(r["failed"] for r in results)
    if failed or not all(r["correct"] for r in results):
        print("INCORRECT: %d failed items" % failed)
        ok = False
    return ok


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    help="a workload name from BENCHMARK.json, or 'all'")
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--seconds", type=float,
                    help="default: BENCHMARK.json run_seconds")
    args = ap.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    names = [w["name"] for w in bench["workloads"]]
    if args.workload != "all" and args.workload not in names:
        ap.error("unknown workload %r (have: %s)" %
                 (args.workload, ", ".join(names)))
    seconds = args.seconds or bench["run_seconds"]
    ok = True
    for w in names if args.workload == "all" else [args.workload]:
        results = []
        for i in range(args.runs):
            seed = args.first_seed + i
            result, diag = run_once(w, seed, seconds)
            results.append(result)
            print("  %s seed %d: %s\n    %s" % (w, seed, json.dumps(
                {k: round(v["value"], 6)
                 for k, v in result["metrics"].items()}), diag), flush=True)
        ok = report(w, results, bench) and ok
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
