#!/usr/bin/env python3
"""Steadiness probe: repeat workloads in fresh processes and judge the spread.

Usage, from the root of a checkout::

    python3 loadbench/steady.py --workload serve_single --seeds 1 2 3 4 5
    python3 loadbench/steady.py --workload sweep_build --seeds 1-10 --save a.json
    python3 loadbench/steady.py --workload sweep_build --seeds 11-20 --against a.json

Each run is ``run.py --workload W --seed S`` in its own interpreter.  For
every metric the probe prints the median, the quartiles, the
interquartile range and the max-min range as shares of the median, and
the metric's bound from ``BENCHMARK.json``.  A spread is ``steady`` when
the interquartile share stays below a third of the bound (``setup_s`` is
exempt: only its median is compared).  ``--against`` compares medians
with a saved set: ``worse`` marks a median that moved the wrong way by
more than the bound.  Each run's calibration loop and stolen CPU time
are listed too, so a run slowed by the host shows as such, and so is
each run's wall time (``run_s``) and its first set-up alone
(``setup_first``, against which the median of several is judged).
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

from stats import quartile_spread  # noqa: E402


def parse_seeds(tokens: list[str]) -> list[int]:
    seeds: list[int] = []
    for tok in tokens:
        if "-" in tok:
            lo, hi = (int(x) for x in tok.split("-"))
            seeds.extend(range(lo, hi + 1))
        else:
            seeds.append(int(tok))
    return seeds


def one_run(workload: str, seed: int, seconds: float, trace: int) -> dict:
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    t0 = time.monotonic()
    out = subprocess.run(cmd, capture_output=True, text=True, timeout=900, cwd=ROOT)
    elapsed = time.monotonic() - t0
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        raise SystemExit(f"{workload} seed {seed} failed ({out.returncode}):\n"
                         f"{out.stdout[-2000:]}\n{out.stderr[-2000:]}")
    result = json.loads(lines[-1])
    host = {}
    for line in lines:
        for key in ("host.calib_ms", "host.steal_s"):
            if line.startswith(f"{workload}/{key} "):
                host[key] = float(line.split()[1])
        if line.startswith(f"{workload}/setup_s ") and "median of " in line:
            # The run's first set-up alone, to compare with the median.
            host["setup_first"] = float(line.split("median of ")[1].split(",")[0])
    host["run_s"] = elapsed
    return {"seed": seed, "metrics": {k: v["value"] for k, v in result["metrics"].items()},
            "host": host}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", action="append", required=True)
    p.add_argument("--seeds", nargs="+", default=["1-5"])
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--save", help="write every run's metrics here as JSON")
    p.add_argument("--against", help="compare medians with a file written by --save")
    args = p.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: (m["bound"], m["better"]) for m in spec["end_to_end"]}
    seconds = spec["run_seconds"]
    saved = json.loads(Path(args.against).read_text()) if args.against else {}
    runs: dict[str, list[dict]] = {}
    ok = True
    for workload in args.workload:
        runs[workload] = []
        for seed in parse_seeds(args.seeds):
            r = one_run(workload, seed, seconds, args.trace)
            runs[workload].append(r)
            print(f"{workload} seed {seed}: "
                  + " ".join(f"{k}={v:.6g}" for k, v in r["metrics"].items())
                  + "  " + " ".join(f"{k}={v:.4g}" for k, v in r["host"].items()),
                  flush=True)
        print(f"\n{workload}: {len(runs[workload])} runs")
        print(f"  {'metric':<16} {'median':>12} {'q1':>12} {'q3':>12} "
              f"{'iqr/med':>8} {'range/med':>9} {'bound':>6}  verdict")
        for name in runs[workload][0]["metrics"]:
            vals = [r["metrics"][name] for r in runs[workload]]
            med, q1, q3, iqr = quartile_spread(vals)
            rng = (max(vals) - min(vals)) / med if med else float("inf")
            bound, better = bounds.get(name, (None, None))
            verdict = ""
            if bound is not None:
                if name != "setup_s":
                    verdict = "steady" if iqr < bound / 3 else "NOISY"
                    ok &= iqr <= bound
                prior = saved.get(workload)
                if prior:
                    old, *_ = quartile_spread(r["metrics"][name] for r in prior)
                    worse = (med - old) / old if better == "lower" else (old - med) / old
                    verdict += f" vs saved {worse:+.1%} {'WORSE' if worse > bound else 'ok'}"
                    ok &= worse <= bound
            print(f"  {name:<16} {med:12.6g} {q1:12.6g} {q3:12.6g} "
                  f"{iqr:8.1%} {rng:9.1%} {bound if bound is not None else '':>6}  {verdict}")
        print(flush=True)
    if args.save:
        Path(args.save).write_text(json.dumps(runs, indent=1))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
