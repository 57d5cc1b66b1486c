"""Steadiness check: repeat one workload over several seeds.

    python3 perfbench/steady.py --workload tower --seeds 1-10

Runs perfbench/run.py once per seed, one run at a time, each for the
`run_seconds` that BENCHMARK.json gives, and prints for each
end-to-end metric the median, the quartiles (statistics.quantiles, n=4) and
the spread (q3 - q1) / median; raw per-operation wall time `op_ms` is
printed beside `op_ref` for reference.  The bounds in BENCHMARK.json are set
from this output.  A summary is written to
perfbench/out/steady-<workload>.json.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def spread(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "spread": (q3 - q1) / statistics.median(values)}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10")
    args = parser.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        seconds = json.load(fh)["run_seconds"]

    values = {}
    failed_shares = []
    for seed in parse_seeds(args.seeds):
        cmd = [sys.executable, os.path.join(HERE, "run.py"),
               "--workload", args.workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", "0"]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=180)
        if proc.returncode != 0:
            print("seed %d: exit %d\n%s" % (seed, proc.returncode,
                                            proc.stderr), file=sys.stderr)
            return 1
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        tag = "%s-seed%d-trace0" % (args.workload, seed)
        with open(os.path.join(HERE, "out", "result-%s.json" % tag)) as fh:
            summary = json.load(fh)["summary"]
        row = {k: v["value"] for k, v in result["metrics"].items()}
        row["op_ms"] = summary["op_ms"]
        for k, v in row.items():
            values.setdefault(k, []).append(v)
        failed_shares.append(result["failed"] / result["attempted"])
        print("seed %d: correct=%s attempted=%d failed=%d %s" % (
            seed, result["correct"], result["attempted"], result["failed"],
            " ".join("%s=%.5g" % kv for kv in sorted(row.items()))),
            flush=True)
    report = {k: spread(v) for k, v in sorted(values.items())}
    report["failed_share"] = sorted(set(failed_shares))
    for k, s in report.items():
        if k == "failed_share":
            print("failed share per run: %s" % (s,))
            continue
        print("%-12s median %.5g  q1 %.5g  q3 %.5g  spread %.4f"
              % (k, s["median"], s["q1"], s["q3"], s["spread"]))
    os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
    with open(os.path.join(HERE, "out", "steady-%s.json" % args.workload),
              "w") as fh:
        json.dump({"seeds": parse_seeds(args.seeds),
                   "seconds": seconds, "values": values,
                   "report": report}, fh, indent=1, sort_keys=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
