#!/usr/bin/env python3
"""Committed digests of the checked outputs, and the script that writes them.

``golden.json`` maps size -> workload -> seed -> the digest of the
workload's reference execution: the sweep's result table, or the
replay's totals and latency-rounds histogram.  A run compares its ops
with the entry for its seed.  Every run also executes the canary, the
tiny size at ``CANARY_SEED``, and compares it too.  So a change to
``src/`` that alters a checked output fails a run whatever its seed,
even when it alters every path of the run the same way.

Rewrite the file only when a change to the outputs is intended, from
the root of a checkout::

    python3 loadbench/golden.py --size full --seeds 0-99
    python3 loadbench/golden.py --size tiny --seeds 0-9
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
GOLDEN = BENCH / "golden.json"

#: The tiny-size seed every run re-executes and checks.
CANARY_SEED = 0


def load() -> dict:
    return json.loads(GOLDEN.read_text()) if GOLDEN.exists() else {}


def lookup(workload: str, size: str, seed: int) -> str | None:
    return load().get(size, {}).get(workload, {}).get(str(seed))


def reference_digest(wl, size: str, seed: int, work: Path) -> tuple[str, list[str]]:
    """Set up ``wl`` afresh at ``size`` and ``seed`` in ``work``; its
    reference digest and the reference execution's check failures."""
    from workloads import Ctx

    work.mkdir(parents=True, exist_ok=True)
    try:
        ctx = Ctx(seed, size, work)
        wl.setup(ctx)
        return wl.reference(ctx)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def main(argv=None) -> int:
    sys.path.insert(0, str(BENCH))
    import run
    from steady import parse_seeds

    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--size", choices=("full", "tiny"), required=True)
    p.add_argument("--seeds", nargs="+", required=True)
    p.add_argument("--workload", action="append", help="default: every workload")
    args = p.parse_args(argv)

    work = run.BUILD / f"golden-{os.getpid()}"
    run.enter(work)
    from workloads import WORKLOADS

    golden = load()
    try:
        for name in args.workload or list(WORKLOADS):
            table = golden.setdefault(args.size, {}).setdefault(name, {})
            for seed in parse_seeds(args.seeds):
                digest, failures = reference_digest(WORKLOADS[name], args.size, seed, work)
                if failures:
                    print(f"{name} seed {seed}: " + "; ".join(failures), file=sys.stderr)
                    return 1
                table[str(seed)] = digest
                print(f"{name} {args.size} seed {seed} {digest}", flush=True)
            golden[args.size][name] = dict(sorted(table.items(), key=lambda kv: int(kv[0])))
            GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    finally:
        run.stop_all_children()
        shutil.rmtree(work, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
