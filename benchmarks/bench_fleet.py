"""Fleet scaling: driven replay throughput vs worker-process count.

Replays the same Poisson trace through the in-process driven load
generator at ``--workers`` ∈ {1, 2, 4} — worker 1 is the plain
single-process :class:`SaerService`, the rest shard the servers across
that many OS processes via :class:`FleetService` — and records
assignments/sec per point in ``BENCH_fleet.json``.  Every run gates on
assignment rate ≥ 0.99 *and* the fleet accounting-conservation
identity, so a speedup bought by losing balls can never pass.

Sharding only helps when the per-round kernel work dominates the pipe
round-trip, i.e. on multi-core machines at large n.  The report
records ``cpu_count`` (the *affinity-visible* count, not
``os.cpu_count()``); on a single-core runner the speedup gate is
skipped with a warning and an existing multi-core report is never
overwritten without ``--force``.

Entry points:

* ``pytest benchmarks/bench_fleet.py`` — small-scale smoke (parity +
  conservation at workers ∈ {1, 2});
* ``python benchmarks/bench_fleet.py [--smoke] [--require-speedup]``
  — the full sweep, writing ``BENCH_fleet.json`` at the repo root.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from repro.parallel.pool import available_cpus
from repro.serve.loadgen import main as loadgen_main

_ROOT = Path(__file__).resolve().parent.parent

WORKER_POINTS = (1, 2, 4)


def _run_point(out: str, *, workers: int, n: int, rounds: int, rate: float) -> int:
    argv = [
        "--mode", "inprocess",
        "--workers", str(workers),
        "--n", str(n),
        "--rounds", str(rounds),
        "--rate", str(rate),
        "--recovery", "8",
        "--seed", "11",
        "--trace-seed", "7",
        "--out", out,
        "--min-assign-rate", "0.99",
        "--check-conservation",
        "--quiet",
    ]
    return loadgen_main(argv)


def run_fleet_points(n: int, rounds: int, rate: float, tmp_dir: Path) -> list[dict]:
    """One report per worker point; raises if any gate fails."""
    points = []
    for workers in WORKER_POINTS:
        out = tmp_dir / f"fleet_w{workers}.json"
        rc = _run_point(str(out), workers=workers, n=n, rounds=rounds, rate=rate)
        report = json.loads(out.read_text())
        if rc != 0:
            raise SystemExit(
                f"workers={workers} failed gates: {report['gates']['failures']}"
            )
        points.append(
            {
                "workers": workers,
                "submitted": report["totals"]["submitted"],
                "assigned": report["totals"]["assigned"],
                "assignment_rate": report["assignment_rate"],
                "conserved": report["conservation"]["conserved"],
                "wall_s": report["throughput"]["wall_s"],
                "assigned_per_s": report["throughput"]["assigned_per_s"],
                "rounds_per_s": report["throughput"]["rounds_per_s"],
            }
        )
    return points


# ---------------------------------------------------------------------------
# pytest smoke
# ---------------------------------------------------------------------------


def test_fleet_parity_smoke(tmp_path):
    """workers=1 and workers=2 assign the same totals on the same trace
    (the routing decomposition is exact, not approximate)."""
    reports = {}
    for workers in (1, 2):
        out = tmp_path / f"w{workers}.json"
        rc = _run_point(str(out), workers=workers, n=512, rounds=40, rate=0.3)
        assert rc == 0, f"workers={workers} gate failed"
        reports[workers] = json.loads(out.read_text())
    t1, t2 = reports[1]["totals"], reports[2]["totals"]
    assert t1["submitted"] == t2["submitted"]
    assert t1["assigned"] == t2["assigned"]
    assert t1["dropped"] == t2["dropped"]
    assert reports[2]["conservation"]["conserved"]


def test_fleet_conservation_smoke(tmp_path):
    """The conservation gate itself passes on a 2-worker replay."""
    out = tmp_path / "w2.json"
    rc = _run_point(str(out), workers=2, n=512, rounds=40, rate=0.3)
    assert rc == 0
    report = json.loads(out.read_text())
    assert report["gates"]["check_conservation"]
    assert report["totals"]["unresolved"] == 0


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--smoke", action="store_true", help="small-scale quick run")
    parser.add_argument("--json", default=str(_ROOT / "BENCH_fleet.json"))
    parser.add_argument("--require-speedup", action="store_true",
                        help="fail unless some workers>1 point beats workers=1 "
                             "throughput (skipped with a warning on <2 cores)")
    parser.add_argument("--force", action="store_true",
                        help="overwrite a multi-core report from a single-core run")
    args = parser.parse_args(argv)

    cores = available_cpus()
    out_path = Path(args.json)
    if out_path.exists() and not args.force and cores < 2:
        try:
            prev = json.loads(out_path.read_text())
        except (OSError, json.JSONDecodeError):
            prev = {}
        if prev.get("cpu_count", 0) >= 2:
            print(
                f"refusing to overwrite {out_path} (recorded on "
                f"{prev['cpu_count']} cores) from a single-core run; "
                "pass --force to override",
                file=sys.stderr,
            )
            return 1

    if args.smoke:
        n, rounds, rate = 1024, 60, 0.3
    else:
        n, rounds, rate = 8192, 120, 0.4
    tmp_dir = out_path.parent / ".bench_fleet_tmp"
    tmp_dir.mkdir(parents=True, exist_ok=True)
    try:
        points = run_fleet_points(n, rounds, rate, tmp_dir)
    finally:
        for leftover in tmp_dir.glob("fleet_w*.json"):
            leftover.unlink()
        try:
            tmp_dir.rmdir()
        except OSError:
            pass

    base = points[0]["assigned_per_s"]
    best = max(p["assigned_per_s"] for p in points if p["workers"] > 1)
    speedup = round(best / base, 3) if base else float("nan")
    report = {
        "bench": "fleet",
        "cpu_count": cores,
        "config": {"n": n, "rounds": rounds, "rate": rate},
        "points": points,
        "best_multiworker_speedup": speedup,
    }
    out_path.write_text(json.dumps(report, indent=2) + "\n")
    for p in points:
        print(
            f"workers={p['workers']}: {p['assigned_per_s']:.0f} assigned/s "
            f"(rate {p['assignment_rate']}, conserved={p['conserved']})"
        )
    print(f"best multi-worker speedup: {speedup}x on {cores} cores -> {out_path}")

    if args.require_speedup:
        if cores < 2:
            print(
                "warning: <2 cpus visible — sharding cannot beat "
                "single-process here; speedup gate skipped",
                file=sys.stderr,
            )
        elif speedup <= 1.0:
            print(
                f"speedup gate failed: best multi-worker point is {speedup}x "
                f"on {cores} cores",
                file=sys.stderr,
            )
            return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
