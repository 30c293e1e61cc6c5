"""Repeat benchmark runs over seeds; report each metric's median and spread.

Run from the root of an eppsim checkout:

    python3 perfbench/spread.py                             # every workload, seeds 1..10
    python3 perfbench/spread.py --workloads scan --seeds 1 2 3
    python3 perfbench/spread.py --baseline perfbench/baseline.json
    python3 perfbench/spread.py --compare perfbench/baseline.json

The spread of a metric is the distance between the first and third quartile
of its values (``statistics.quantiles(values, n=4)``) as a share of their
median.  A metric is steady when its spread is below a third of its bound in
BENCHMARK.json; a spread above the bound itself makes the metric unusable.
``--baseline`` writes the medians, labelled with the commit, to a file;
``--compare`` prints each median's change against such a file and flags a
change for the worse beyond the metric's bound.  Each run's result line is
appended to ``perfbench-out/runs.jsonl``.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

from run import OUT


def run_once(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict, dict]:
    """The result line, the environment line and the printed metrics of one run."""
    proc = subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, timeout=900,
    )
    if proc.returncode != 0:
        sys.exit(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    env = next(json.loads(x.split(" ", 1)[1]) for x in lines if x.startswith("environment "))
    # "metric <name> = <value> <unit or counts>": the workload's own metric names
    printed = {x.split()[1]: (float(x.split()[3]), x.split()[4])
               for x in lines if x.startswith("metric ")}
    return json.loads(lines[-1]), env, printed


def main():
    with open("BENCHMARK.json") as fh:
        bench = json.load(fh)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    better = {m["name"]: m["better"] for m in bench["end_to_end"]}
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", nargs="+", default=[w["name"] for w in bench["workloads"]])
    parser.add_argument("--seeds", nargs="+", type=int, default=list(range(1, 11)))
    parser.add_argument("--seconds", type=int, default=bench["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--baseline", help="write the medians to this file")
    parser.add_argument("--compare", help="compare the medians with this baseline file")
    args = parser.parse_args()
    reference = {}
    if args.compare:
        with open(args.compare) as fh:
            reference = json.load(fh)["medians"]

    os.makedirs(OUT, exist_ok=True)
    medians = {}
    for workload in args.workloads:
        results = []
        printed = []
        for seed in args.seeds:
            res, env, named = run_once(workload, seed, args.seconds, args.trace)
            with open(os.path.join(OUT, "runs.jsonl"), "a") as fh:
                fh.write(json.dumps({"workload": workload, "seed": seed, **res}) + "\n")
            results.append(res)
            printed.append(named)
        failed = sum(r["failed"] for r in results)
        attempted = sum(r["attempted"] for r in results)
        print(f"{workload}: {len(results)} runs, failed {failed}/{attempted}, "
              f"all correct: {all(r['correct'] for r in results)}")
        medians[workload] = {}
        for name in results[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in results]
            unit = results[0]["metrics"][name]["unit"]
            med = statistics.median(values)
            medians[workload][name] = med
            line = f"  {name:32s} median {med:.6g} {unit}"
            if len(values) > 1 and med:
                q1, _, q3 = statistics.quantiles(values, n=4)
                line += f"  spread {(q3 - q1) / abs(med):.4f}"
                if name in bounds:
                    line += f" (bound {bounds[name]}, a third {bounds[name] / 3:.4f})"
            ref = reference.get(workload, {}).get(name)
            if ref:
                worse = med / ref - 1 if better.get(name) == "lower" else ref / med - 1
                line += f"  worse by {worse:+.4f} than {args.compare}"
                if name in bounds and worse > bounds[name]:
                    line += " BEYOND BOUND"
            print(line)
        for name, (_, unit) in printed[0].items():
            if name not in medians[workload]:
                values = [p[name][0] for p in printed]
                med = statistics.median(values)
                line = f"  {name:32s} median {med:.6g} {unit}"
                if len(values) > 1 and med:
                    q1, _, q3 = statistics.quantiles(values, n=4)
                    line += f"  spread {(q3 - q1) / abs(med):.4f}"
                print(line)

    if args.baseline:
        commit = subprocess.run(["git", "rev-parse", "--short", "HEAD"],
                                capture_output=True, text=True).stdout.strip()
        with open(args.baseline, "w") as fh:
            json.dump({"label": commit or "not a git checkout", "environment": env,
                       "run_seconds": args.seconds, "seeds": args.seeds, "trace": args.trace, "medians": medians},
                      fh, indent=1)
            fh.write("\n")


if __name__ == "__main__":
    main()
