"""Benchmark of the fnode trajectory model: train, select and infer workloads.

Usage, from the root of a checkout of the repository:

    python3 perfbench/run.py --workload {train,select,infer} --seed N --seconds S --trace {0,1}

One caller thread drives the workload in a closed loop: it sets the workload
up (several times; ``setup_s`` is the median), then runs whole rounds of a
fixed amount of work until ``--seconds`` have passed, checking each round's
outputs.  ``--trace 0`` reports the end-to-end metrics; ``--trace 1`` runs the
first half of the rounds untraced and the second half with probes on every
layer, and reports the per-layer metrics.  The last line of standard output
is one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
Results and traces are also written under ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import sys
import tempfile
from pathlib import Path
from time import perf_counter

import layers
import tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

# One BLAS thread: the caller is the only busy thread, so a run uses one of the
# machine's cores and runs on a shared machine disturb each other less.
BLAS_THREADS = "1"
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_REPEATS = {"train": 25, "select": 501, "infer": 3}


def _parse(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=("train", "select", "infer"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "smoke"), default="full",
                    help="smoke: tiny inputs that run every check in seconds")
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    return args


def _timed_phase(wl, state, seconds: float, tr, off) -> dict:
    """Whole rounds until ``seconds`` have passed; the traced run switches probes on halfway."""
    walls: dict[str, list[float]] = {"untraced": [], "traced": []}
    attempted = 0
    failures: list[str] = []
    problems: list[str] = []
    start = perf_counter()
    traced = False
    while True:
        if tr.enabled and not traced and walls["untraced"] and perf_counter() - start >= seconds / 2:
            layers.install(tr, state["spec_layers"])
            traced = True
        wl.prepare(state)
        t0 = perf_counter()
        if traced:
            root = tr.open("round")
            res = wl.run_round(state, tr)
            tr.close(root)
        else:
            res = wl.run_round(state, off)
        walls["traced" if traced else "untraced"].append(perf_counter() - t0)
        attempted += state["ops"]
        failures += res.failures
        # Checks cover the operations that did not fail.  The check phase keeps
        # the program calls that checks make out of the round's spans.
        tr.phase = "check"
        for p in wl.check(state, res):
            if p not in problems:
                problems.append(p)
        tr.phase = "round"
        if perf_counter() - start >= seconds and (traced or not tr.enabled):
            break
    tr.unpatch_all()
    return dict(walls=walls, attempted=attempted, failures=failures, problems=problems)


def main(argv=None) -> int:
    args = _parse(argv)
    src = ROOT / "src"
    if not (src / "fnode" / "__init__.py").is_file():
        print(f"perfbench: {src / 'fnode'} not found; run from the root of a checkout of the repository",
              file=sys.stderr)
        return 2
    for var in BLAS_VARS:
        os.environ[var] = BLAS_THREADS
    sys.path.insert(0, str(src))

    import fnode
    import workloads  # after the BLAS setting: it imports numpy

    if Path(fnode.__file__).resolve().parent != (src / "fnode").resolve():
        print(f"perfbench: imported fnode from {fnode.__file__}, not from {src}", file=sys.stderr)
        return 2

    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"work-{args.workload}-", dir=OUT))
    wl = workloads.WORKLOADS[args.workload]()
    tr = tracing.Tracer(enabled=bool(args.trace))
    off = tracing.Tracer(enabled=False)
    spec_layers: dict = {}
    try:
        if tr.enabled:
            layers.install(tr, spec_layers)
        setup_times = []
        for _ in range(1 if tr.enabled else SETUP_REPEATS[args.workload]):
            t0 = perf_counter()
            state = wl.setup(args.seed, args.size, workdir)
            setup_times.append(perf_counter() - t0)
        tr.unpatch_all()
        spec_layers.update(wl.spec_layers(state))
        state["spec_layers"] = spec_layers
        tr.phase = "round"
        phase = _timed_phase(wl, state, args.seconds, tr, off)
    finally:
        tr.unpatch_all()
        shutil.rmtree(workdir, ignore_errors=True)

    walls = phase["walls"]
    if tr.enabled:
        metrics = layers.per_layer_metrics(tr, len(walls["traced"]))
    else:
        metrics = {
            "setup_s": {"value": statistics.median(setup_times), "unit": "s"},
            "wall_s": {"value": statistics.median(walls["untraced"]), "unit": "s"},
            "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "unit": "MB"},
        }
    result = {
        "correct": not phase["problems"],
        "attempted": phase["attempted"],
        "failed": len(phase["failures"]),
        "metrics": metrics,
    }
    facts = {
        "workload": args.workload,
        "seed": args.seed,
        "size": args.size,
        "trace": args.trace,
        "blas_threads": {var: os.environ[var] for var in BLAS_VARS},
        "caller_threads": 1,
        "inputs": state["info"],
        "setup_s": setup_times,
        "round_s": walls,
    }
    tag = f"{args.workload}-{args.size}-s{args.seed}-t{args.trace}"
    if tr.enabled:
        overhead = statistics.median(walls["traced"]) - statistics.median(walls["untraced"])
        facts["trace_overhead_s"] = overhead
        facts["self_s"] = {ph: tr.self_times(ph) for ph in ("setup", "round", "check")}
        (OUT / f"trace-{tag}.json").write_text(json.dumps({**facts, **tr.dump()}) + "\n", encoding="utf-8")
        print(f"trace overhead: {overhead:.4f} s per round "
              f"({100.0 * overhead / statistics.median(walls['untraced']):.1f}% of untraced wall_s)")
    (OUT / f"result-{tag}.json").write_text(json.dumps({**facts, "result": result}, indent=1) + "\n", encoding="utf-8")
    for p in sorted(set(phase["failures"]))[:20]:
        print(f"perfbench: failed: {p}", file=sys.stderr)
    for p in phase["problems"][:20]:
        print(f"perfbench: check: {p}", file=sys.stderr)
    print(f"{args.workload}: {state['info']}; {len(walls['untraced']) + len(walls['traced'])} rounds; "
          f"BLAS threads {BLAS_THREADS}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
