"""Run one workload over several seeds and report each metric's median and spread.

    python3 perfbench/spread.py --workload infer --seeds 1-10 [--seconds S] [--label set1]

``--seconds`` defaults to ``run_seconds`` of BENCHMARK.json.  Runs go one
after another, each in a fresh process, with ``--trace 0``.  For every metric
it prints the median, the first and third quartiles (``statistics.quantiles``
with n=4) and the spread, (q3 - q1) / median; it also prints the share of
failed operations.  The summary is written to
``perfbench/out/spread-<workload>-<label>.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _seeds(text: str) -> list[int]:
    lo, hi = (int(t) for t in text.split("-"))
    return list(range(lo, hi + 1))


def main(argv=None) -> int:
    run_seconds = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))["run_seconds"]
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-10", help="a range lo-hi")
    ap.add_argument("--seconds", type=int, default=run_seconds)
    ap.add_argument("--label", default="set")
    args = ap.parse_args(argv)

    runs = []
    for seed in _seeds(args.seeds):
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload, "--seed", str(seed),
               "--seconds", str(args.seconds), "--trace", "0"]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
        if proc.returncode != 0:
            print(proc.stderr, file=sys.stderr)
            return 1
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        runs.append({"seed": seed, **result})
        vals = " ".join(f"{k}={v['value']:.6g}" for k, v in result["metrics"].items())
        print(f"seed {seed}: correct={result['correct']} failed={result['failed']}/{result['attempted']} {vals}",
              flush=True)

    summary = {}
    for name in runs[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in runs]
        q1, _, q3 = statistics.quantiles(values, n=4)
        med = statistics.median(values)
        summary[name] = {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med, "values": values}
        print(f"{name:24s} median {med:.6g}  q1 {q1:.6g}  q3 {q3:.6g}  spread {(q3 - q1) / med:.4f}")
    shares = sorted({r["failed"] / r["attempted"] for r in runs})
    print(f"failed share: {shares}; all correct: {all(r['correct'] for r in runs)}")
    out = HERE / "out"
    out.mkdir(exist_ok=True)
    (out / f"spread-{args.workload}-{args.label}.json").write_text(
        json.dumps({"workload": args.workload, "seconds": args.seconds, "runs": runs, "summary": summary}, indent=1)
        + "\n",
        encoding="utf-8",
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
