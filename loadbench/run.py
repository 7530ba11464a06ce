#!/usr/bin/env python3
"""Run one benchmark workload and print its metrics.

Usage, from the root of a checkout::

    python3 loadbench/run.py --workload sweep_build --seed 1 --seconds 33 --trace 0

The run imports the library from ``src/`` of the checkout it sits in,
compiles the C round kernel into ``.bench_build/kernels`` on first use,
and keeps everything else it writes (spools, the graph cache, span
files) in a per-run work directory under ``.bench_build`` that is
removed at exit.  It prints ``<workload>/<metric> <value> <unit>``
lines, host metadata, and as its last line one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
A failed output check makes the exit code 1.  See ``README.md``.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import pickle
import resource
import shutil
import statistics
import subprocess
import sys
import threading
import time
import traceback
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
BUILD = ROOT / ".bench_build"

#: Set-up runs this many times per run (once here, the rest in fresh
#: interpreters) and ``setup_s`` is their median.
SETUP_REPEATS = 5

END_TO_END = {
    "ops_per_s": "1/s", "op_ms_p50": "ms", "op_ms_tail": "ms",
    "peak_rss_mb": "MB", "setup_s": "s", "lat_rounds_p99": "rounds",
}

PER_LAYER = {
    "graphs.build_s": "s", "graphs.edges_per_s": "1/s", "graphs.csr_s": "s",
    "graphs.cache_hits": "count", "graphs.cache_load_s": "s",
    "rng.fill_s": "s", "rng.fill_calls": "count", "rng.fill_mb": "MB",
    "batch.kernel_s": "s", "batch.kernel_calls": "count", "batch.engine_s": "s",
    "batch.trial_rounds": "count", "batch.trial_rounds_per_s": "1/s",
    "batch.fallbacks": "count",
    "plan.execute_s": "s", "dispatch.tasks": "count", "dispatch.worker_busy_s": "s",
    "dispatch.busy_frac": "ratio", "dispatch.wait_s": "s",
    "aggregate.assemble_s": "s",
    "durable.write_s": "s", "durable.blocks": "count", "durable.mb": "MB",
    "durable.fsyncs": "count", "durable.verify_s": "s", "durable.requeues": "count",
    "service.submit_s": "s", "service.submit_calls": "count", "service.round_self_s": "s",
    "state.route_s": "s", "state.admit_s": "s",
    "metrics.observe_s": "s", "metrics.observe_calls": "count",
    "fleet.round_s": "s", "fleet.submit_s": "s", "fleet.recv_wait_s": "s",
    "fleet.wait_frac": "ratio", "fleet.msgs": "count", "router.choose_s": "s",
    "fleet.worker_cpu_s": "s",
    "gc.pause_s": "s", "gc.gen2": "count",
    "host.steal_s": "s", "host.calib_ms": "ms", "trace.overhead": "ratio",
}


class OpError(RuntimeError):
    """An op process raised or died; carries its traceback."""


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=("full", "tiny"), default="full",
                   help="tiny inputs, for the smoke tests")
    p.add_argument("--setup-probe", action="store_true",
                   help="time one set-up, print it as JSON, exit")
    return p.parse_args(argv)


# ---------------------------------------------------------------------------
# Processes
# ---------------------------------------------------------------------------


def fork_call(fn, *args):
    """``fn(*args)`` in a child forked from this process; its pickled result.

    Every timed op starts from the same warmed heap: the parent collects
    garbage, forks, and the child reports back through a pipe.
    """
    sys.stdout.flush()
    sys.stderr.flush()
    gc.collect()
    r, w = os.pipe()
    pid = os.fork()
    if pid == 0:  # child
        os.close(r)
        try:
            payload = ("ok", fn(*args))
        except BaseException as exc:  # noqa: BLE001 - reported to the parent
            payload = ("error", f"{type(exc).__name__}: {exc}\n{traceback.format_exc()}")
        try:
            with os.fdopen(w, "wb") as fh:
                pickle.dump(payload, fh, protocol=pickle.HIGHEST_PROTOCOL)
        finally:
            reap_children()
            os._exit(0)
    os.close(w)
    with os.fdopen(r, "rb") as fh:
        data = fh.read()
    _pid, status = os.waitpid(pid, 0)
    if not data:
        raise OpError(f"op process exited with status {status} and no result")
    kind, value = pickle.loads(data)
    if kind == "error":
        raise OpError(value)
    return value


def reap_children() -> None:
    """Join every multiprocessing child and helper thread this process has."""
    import multiprocessing

    for proc in multiprocessing.active_children():
        proc.join(30)
    for thread in threading.enumerate():
        if thread is not threading.main_thread():
            thread.join(30)


def stop_all_children() -> None:
    """Reap everything, the shared-memory resource tracker included."""
    reap_children()
    from multiprocessing import resource_tracker

    tracker = resource_tracker._resource_tracker
    if getattr(tracker, "_pid", None) is not None:
        try:
            tracker._stop()
        except ChildProcessError:  # started by the process this one forked from
            pass
    deadline = time.monotonic() + 30
    while time.monotonic() < deadline:
        try:
            pid, _status = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            return
        if pid == 0:
            time.sleep(0.05)


# ---------------------------------------------------------------------------
# Host
# ---------------------------------------------------------------------------


def steal_seconds() -> float:
    """Cumulative CPU time stolen by the hypervisor, from ``/proc/stat``."""
    try:
        with open("/proc/stat") as fh:
            fields = fh.readline().split()
        return int(fields[8]) / os.sysconf("SC_CLK_TCK")
    except (OSError, IndexError, ValueError):
        return 0.0


def calibrate(reps: int = 7) -> float:
    """A fixed pure-Python loop's median milliseconds: the host's speed now."""
    times = []
    for _ in range(reps):
        t0 = perf_counter()
        acc = 0
        for i in range(200_000):
            acc += (i * i) & 0xFF
        times.append((perf_counter() - t0) * 1e3)
    return statistics.median(times)


def src_digest() -> str:
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*")):
        if path.is_file() and path.suffix in (".py", ".c"):
            h.update(str(path.relative_to(SRC)).encode())
            h.update(path.read_bytes())
    return h.hexdigest()


def git_sha() -> str | None:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return None


def host_metadata(src_sha: str) -> dict:
    import numpy

    cpu = None
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "cores": len(os.sched_getaffinity(0)), "cpu": cpu, "git_sha": git_sha(),
        "src_sha256": src_sha, "numpy": numpy.__version__,
        "python": sys.version.split()[0],
    }


# ---------------------------------------------------------------------------
# Build, set-up, probes
# ---------------------------------------------------------------------------


def ensure_kernels() -> None:
    """Compile the C round kernel once per checkout, outside any timing."""
    source = SRC / "repro" / "batch" / "_kernels.c"
    tag = hashlib.sha256(source.read_bytes()).hexdigest()[:16]
    if (BUILD / "kernels" / f"_repro_kernels_{tag}.so").exists():
        return
    code = ("import sys; sys.path.insert(0, sys.argv[1]); "
            "from repro.batch.kernels import resolve_kernel; "
            "sys.exit(0 if resolve_kernel('cext').available() else 1)")
    subprocess.run([sys.executable, "-c", code, str(SRC)], timeout=600, check=False)


def setup_probe(args) -> float:
    """One set-up in a fresh interpreter; its seconds."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--size", args.size, "--setup-probe"]
    out = subprocess.run(cmd, capture_output=True, text=True, timeout=300, check=True)
    return json.loads(out.stdout.strip().splitlines()[-1])["setup_s"]


def install_probes(work: Path) -> None:
    """Always-on probes: the kernel gate and seed lineage that executed.

    Each process appends a line to ``probe-<pid>.txt`` the first time it
    sees a value; the cost is one set lookup per engine call.
    """
    from repro.batch import engine
    from repro.serve import state

    def probe(kind, fn, value):
        seen = set()

        def wrapper(*args, **kwargs):
            out = fn(*args, **kwargs)
            key = (os.getpid(), value(out))
            if key not in seen:
                seen.add(key)
                with open(work / f"probe-{key[0]}.txt", "a") as fh:
                    fh.write(f"{kind} {key[1]}\n")
            return out

        return wrapper

    engine.resolve_kernel = probe("kernel", engine.resolve_kernel, lambda k: k.name)
    state.resolve_kernel = probe("kernel", state.resolve_kernel, lambda k: k.name)
    engine.resolve_seed_mode = probe("seed_mode", engine.resolve_seed_mode, str)
    state.make_rng = probe(
        "serve_rng", state.make_rng, lambda g: type(g.bit_generator).__name__
    )


def read_probes(work: Path) -> dict[str, set]:
    found: dict[str, set] = {}
    for path in work.glob("probe-*.txt"):
        for line in path.read_text().splitlines():
            kind, value = line.split(" ", 1)
            found.setdefault(kind, set()).add(value)
    return found


# ---------------------------------------------------------------------------
# Ops
# ---------------------------------------------------------------------------


def op_in_child(wl, ctx, index: int, traced: bool, run_id: str, method: str = "op") -> dict:
    """One op (or the workload's side pass, with ``method="side_op"``),
    optionally traced.

    Its latency and round samples go to a file in the work directory, so
    the parent's heap, which every later op forks from, does not grow.
    """
    import numpy as np

    from tracing import Tracer, summarize

    tracer = Tracer(run_id, ctx.work, wl.layers).install() if traced else None
    try:
        res = getattr(wl, method)(ctx, index)
    finally:
        if tracer is not None:
            tracer.uninstall()
    stop_all_children()
    # This process's peak already counts the pages it shares with the
    # parent it forked from; its children's (pool workers, shards) too.
    res["peak_kb"] = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                         resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    np.savez(ctx.work / f"samples-{index}.npz", ms=np.asarray(res.pop("ms"), dtype=np.float64),
             rounds=np.asarray(res.pop("rounds"), dtype=np.float64))
    if tracer is not None:
        spans = tracer.collect()
        res["trace"] = summarize(spans, os.getpid())
        if index == 0:
            write_spans(spans, BUILD / "trace" / f"{wl.name}.npz")
    return res


def write_spans(spans, path: Path) -> None:
    """The first traced op's spans, as columns, for offline reading."""
    import numpy as np

    path.parent.mkdir(parents=True, exist_ok=True)
    names = sorted({s.name for s in spans})
    code = {n: i for i, n in enumerate(names)}
    np.savez(
        path, names=np.array(names), name=np.array([code[s.name] for s in spans]),
        start=np.array([s.start for s in spans]), end=np.array([s.end for s in spans]),
        parent=np.array([s.parent for s in spans]), pid=np.array([s.pid for s in spans]),
        idx=np.array([s.idx for s in spans]), count=np.array([s.count for s in spans]),
        run=np.array([spans[0].run if spans else ""]),
    )


def run_ops(wl, ctx, seconds: float, trace: bool, run_id: str) -> list[dict]:
    """Ops until the next one would overrun ``seconds``.

    With tracing, ops alternate traced / untraced so the run measures
    its own tracing overhead.
    """
    results: list[dict] = []
    costs: list[float] = []
    t_begin = perf_counter()
    while True:
        elapsed = perf_counter() - t_begin
        if len(results) >= (2 if trace else 1) and elapsed + statistics.median(costs) > seconds:
            break
        traced = trace and len(results) % 2 == 0
        t0 = perf_counter()
        res = fork_call(op_in_child, wl, ctx, len(results), traced, run_id)
        costs.append(perf_counter() - t0)
        res["traced"] = traced
        res["index"] = len(results)
        results.append(res)
    return results


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------


def end_to_end(ops: list[dict], work: Path, setup_samples: list[float],
               peak_kb: int) -> tuple[dict, dict]:
    """The end-to-end metrics of untraced ops, plus notes for printing.

    Rates are totals over the run's timed wall; latencies and rounds are
    order statistics of every sample the run's ops produced.
    """
    import numpy as np

    from stats import nearest_rank, tail_percentile

    samples = [np.load(work / f"samples-{o['index']}.npz") for o in ops]
    ms = np.sort(np.concatenate([s["ms"] for s in samples]))
    rounds = np.sort(np.concatenate([s["rounds"] for s in samples]))
    wall = sum(o["wall"] for o in ops)
    done = sum(o["work"] for o in ops)
    rates = [o["work"] / o["wall"] for o in ops]
    q, tail, n = tail_percentile(ms)
    values = {
        "ops_per_s": done / wall,
        "op_ms_p50": nearest_rank(ms, 50),
        "op_ms_tail": tail,
        "peak_rss_mb": peak_kb / 1024,
        "setup_s": statistics.median(setup_samples),
        "lat_rounds_p99": nearest_rank(rounds, 99),
    }
    notes = {
        "ops_per_s": (f"({done} in {wall:.3f} s of timed wall over {len(ops)} ops; "
                      f"per op {min(rates):.6g}-{max(rates):.6g})"),
        "op_ms_p50": f"(n={n})",
        "op_ms_tail": f"({'p%d' % q if q else 'max'} of n={n})",
        "setup_s": "(median of " + ", ".join(f"{s:.4f}" for s in setup_samples) + ")",
        "lat_rounds_p99": f"(n={rounds.size})",
        "peak_rss_mb": "(largest of each untraced op's process tree)",
    }
    return values, notes


def per_layer(ops: list[dict], side: dict | None, steal_s: float, calib_ms: float) -> dict:
    """Per-layer metrics from the traced span summaries: per traced op,
    except the ``fleet.*`` and ``router.*`` ones, which come from the
    side pass (one per run; zero for workloads without one)."""
    from tracing import merge_summaries
    from workloads import PROCESSES

    traced = [o for o in ops if o["traced"]]
    plain = [o for o in ops if not o["traced"]]
    n = len(traced)
    tot = merge_summaries([o["trace"] for o in traced])
    fleet = merge_summaries([side["trace"]] if side is not None else [])
    home, worker = tot["home"], tot["worker"]

    def field(name, j, side=None):
        rows = [home, worker] if side is None else [side]
        return sum(r.get(name, (0, 0.0, 0.0, 0))[j] for r in rows)

    def fleet_dur(name):
        return fleet["home"].get(name, (0, 0.0))[1]

    def calls(name, side=None):
        return field(name, 0, side)

    def dur(name, side=None):
        return field(name, 1, side)

    def self_s(name, side=None):
        return field(name, 2, side)

    def count(name, side=None):
        return field(name, 3, side)

    def rate(a, b):
        return a / b if b else 0.0

    def traced_rate(group):
        return rate(sum(o["work"] for o in group), sum(o["wall"] for o in group))

    execute = dur("plan.execute")
    busy = dur("dispatch.worker")
    recv_wait = fleet_dur("fleet.poll") + fleet_dur("fleet.recv")
    totals = {
        "graphs.build_s": dur("graphs.build"),
        "graphs.csr_s": dur("graphs.csr"),
        "graphs.cache_hits": tot["cache_hits"],
        "graphs.cache_load_s": tot["cache_load_s"],
        "rng.fill_s": dur("rng.fill"),
        "rng.fill_calls": calls("rng.fill"),
        "rng.fill_mb": count("rng.fill") / 1e6,
        "batch.kernel_s": dur("batch.kernel"),
        "batch.kernel_calls": calls("batch.kernel"),
        "batch.engine_s": self_s("batch.engine"),
        "batch.trial_rounds": count("batch.engine"),
        "batch.fallbacks": tot["fallbacks"],
        "plan.execute_s": execute,
        "dispatch.tasks": count("dispatch.map", home),
        "dispatch.worker_busy_s": busy,
        "dispatch.wait_s": self_s("dispatch.map", home) + self_s("dispatch.supervise", home),
        "aggregate.assemble_s": dur("aggregate.assemble") + dur("aggregate.as_table"),
        "durable.write_s": dur("durable.write"),
        "durable.blocks": calls("durable.write"),
        "durable.mb": count("durable.write") / 1e6,
        "durable.fsyncs": calls("durable.fsync"),
        "durable.verify_s": dur("durable.verify"),
        "durable.requeues": max(
            0, calls("dispatch.submit", home) - count("dispatch.supervise", home)
        ),
        "service.submit_s": dur("service.submit"),
        "service.submit_calls": calls("service.submit"),
        "service.round_self_s": self_s("service.round"),
        "state.route_s": dur("state.route"),
        "state.admit_s": dur("state.admit"),
        "metrics.observe_s": tot["observe_top_s"],
        "metrics.observe_calls": calls("metrics.observe") + calls("metrics.observe_many"),
        "gc.pause_s": sum(o["gc_pause_s"] for o in traced),
        "gc.gen2": sum(o["gc_gen2"] for o in traced),
    }
    values = {k: v / n for k, v in totals.items()}
    values.update({
        "fleet.round_s": fleet_dur("fleet.round"),
        "fleet.submit_s": fleet_dur("fleet.submit"),
        "fleet.recv_wait_s": recv_wait,
        "fleet.msgs": fleet["home"].get("fleet.recv", (0,))[0],
        "router.choose_s": fleet_dur("router.choose"),
        "fleet.worker_cpu_s": side.get("worker_cpu_s", 0.0) if side is not None else 0.0,
        "graphs.edges_per_s": rate(count("graphs.build"), dur("graphs.build")),
        "batch.trial_rounds_per_s": rate(count("batch.engine"), dur("batch.engine")),
        "dispatch.busy_frac": rate(busy, PROCESSES * execute),
        "fleet.wait_frac": rate(recv_wait, fleet_dur("fleet.round")),
        "host.steal_s": steal_s,
        "host.calib_ms": calib_ms,
        "trace.overhead": rate(traced_rate(traced), traced_rate(plain)),
    })
    return values


def print_attribution(traced: list[dict], name: str, what: str = "op") -> None:
    from tracing import attribution, merge_summaries

    tot = merge_summaries([o["trace"] for o in traced])
    wall = sum(o["wall"] for o in traced)
    print(f"{name}: wall attribution of the {what} process, self time per {what} "
          f"({len(traced)} traced, {wall / len(traced):.4f} s each)")
    for layer, secs in attribution(tot, "home", wall):
        print(f"  {layer:<12} {secs / len(traced):10.4f} s  {secs / wall:6.1%}")
    busy = sum(r[1] for k, r in tot["worker"].items() if k == "dispatch.worker")
    if busy:
        print(f"{name}: pool-worker busy time by layer, self time per {what}")
        for layer, secs in attribution(tot, "worker", busy):
            print(f"  {layer:<12} {secs / len(traced):10.4f} s  {secs / busy:6.1%}")
    pauses = sum(o["gc_pause_s"] for o in traced)
    print(f"  (of which gc pauses: {pauses / len(traced):.4f} s per {what})")


# ---------------------------------------------------------------------------
# Checks
# ---------------------------------------------------------------------------


def run_checks(wl, ctx, ops: list[dict], side: dict | None, probes: dict,
               record: Path) -> list[str]:
    """Checks across ops and runs: digests, the side pass, and the gate
    that executed.

    Every op's digest must equal the prepared reference, the committed
    golden digest for this seed (``golden.json``), and the one an
    earlier passing run at this seed wrote to ``record``.  The canary
    (tiny size, fixed seed) is re-executed and must equal its golden
    digest, so a seed without an entry is still checked against
    committed outputs.
    """
    from golden import CANARY_SEED, lookup, reference_digest

    failures = []
    if side is not None:
        failures += [f"{wl.side_name} pass: {f}" for f in side["failures"]]
        differ = sum(1 for o in ops if o["tally"] != side["tally"])
        if differ:
            failures.append(f"{differ} ops' totals differ from the {wl.side_name} pass's "
                            f"{side['tally']} on the same trace")
    digests = {o["digest"] for o in ops}
    if ctx.reference is not None:
        digests.add(ctx.reference)
    if len(digests) != 1:
        failures.append(f"ops disagree: {len(digests)} distinct output digests")
    golden = lookup(wl.name, ctx.size, ctx.seed)
    if golden is not None and {golden} != digests:
        failures.append(f"output digest differs from the committed golden for seed {ctx.seed}")
    if record.exists() and {record.read_text().strip()} != digests:
        failures.append(f"output digest differs from an earlier run at seed {ctx.seed}")
    canary, canary_failures = reference_digest(wl, "tiny", CANARY_SEED, ctx.work / "canary")
    failures += [f"canary: {f}" for f in canary_failures]
    if canary != lookup(wl.name, "tiny", CANARY_SEED):
        failures.append(f"canary (tiny, seed {CANARY_SEED}) digest differs from the committed golden")
    if probes.get("kernel") != {"cext"}:
        failures.append(f"kernel gates executed: {sorted(probes.get('kernel', []))}, requested cext")
    print(f"golden: seed {ctx.seed} "
          + ("checked" if golden else "has no entry (checked against earlier runs)")
          + f"; canary seed {CANARY_SEED} checked")
    return failures


# ---------------------------------------------------------------------------
# Main
# ---------------------------------------------------------------------------


def enter(work: Path) -> None:
    """Import paths, the environment every run pins, the compiled kernel."""
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(BENCH))
    work.mkdir(parents=True, exist_ok=True)
    os.environ["REPRO_KERNEL_CACHE"] = str(BUILD / "kernels")
    os.environ["REPRO_KERNEL_THREADS"] = "1"
    os.environ["TMPDIR"] = str(work)
    # numpy asks for transparent huge pages for large arrays; whether the
    # kernel grants them depends on the host's memory fragmentation, and
    # they change both RSS (2 MB steps) and speed.
    os.environ["NUMPY_MADVISE_HUGEPAGE"] = "0"
    for var in ("REPRO_KERNELS", "REPRO_SEED_MODE"):
        os.environ.pop(var, None)
    ensure_kernels()


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: library source not found at {SRC}", file=sys.stderr)
        return 2
    work = BUILD / f"work-{os.getpid()}"
    try:
        enter(work)
        from workloads import WORKLOADS, Ctx

        if args.workload not in WORKLOADS:
            print(f"error: unknown workload {args.workload!r}; known: {sorted(WORKLOADS)}",
                  file=sys.stderr)
            return 2
        wl = WORKLOADS[args.workload]
        ctx = Ctx(args.seed, args.size, work)
        t0 = perf_counter()
        wl.setup(ctx)
        setup_s = perf_counter() - t0
        if args.setup_probe:
            print(json.dumps({"setup_s": setup_s}))
            return 0
        return measure(args, wl, ctx, setup_s)
    finally:
        stop_all_children()
        shutil.rmtree(work, ignore_errors=True)


def measure(args, wl, ctx, setup_s: float) -> int:
    src_sha = src_digest()
    host = host_metadata(src_sha)
    setup_samples = [setup_s] + [setup_probe(args) for _ in range(SETUP_REPEATS - 1)]
    install_probes(ctx.work)
    prepare_failures = wl.prepare(ctx)
    reap_children()

    run_id = f"{wl.name}-seed{args.seed}-{os.getpid()}"
    steal0, calib0 = steal_seconds(), calibrate()
    ops = run_ops(wl, ctx, args.seconds, bool(args.trace), run_id)
    steal_s, calib_ms = steal_seconds() - steal0, statistics.median([calib0, calibrate()])
    side = None
    if hasattr(wl, "side_op"):
        side = fork_call(op_in_child, wl, ctx, -2, bool(args.trace), run_id, "side_op")

    probes = read_probes(ctx.work)
    # Keyed by the inputs only, not by src/: a change to the library
    # that alters the outputs must not find a fresh record.
    inputs = hashlib.sha256((BENCH / "workloads.py").read_bytes())
    record = BUILD / "digests" / f"{wl.name}-{ctx.size}-seed{ctx.seed}-{inputs.hexdigest()[:16]}.txt"
    failures = [f"op {i}: {f}" for i, o in enumerate(ops) for f in o["failures"]]
    run_failures = prepare_failures + run_checks(wl, ctx, ops, side, probes, record)
    failed = sum(1 for o in ops if o["failures"]) + (1 if run_failures else 0)
    if not failed and not record.exists():
        record.parent.mkdir(parents=True, exist_ok=True)
        record.write_text(ops[0]["digest"] + "\n")
    attempted = len(ops) + 1

    plain = [o for o in ops if not o["traced"]]
    # Each op's tree: its process holds what set-up left in the parent it
    # forked from.  The parent's own peak is left out: prepare's reference
    # executions raise it by an amount that varies from run to run.
    peak_kb = max(o["peak_kb"] for o in plain)
    e2e, notes = end_to_end(plain, ctx.work, setup_samples, peak_kb)
    print("host " + json.dumps(host))
    print("gates " + " ".join(f"{k}={','.join(sorted(v))}" for k, v in sorted(probes.items())))
    print(f"{wl.name}/host.calib_ms {calib_ms:.4f} ms  (pure-Python loop; higher = slower host)")
    print(f"{wl.name}/host.steal_s {steal_s:.4f} s  (stolen during {len(ops)} ops)")
    for name, unit in END_TO_END.items():
        print(f"{wl.name}/{name} {e2e[name]:.6g} {unit}  {notes.get(name, '')}".rstrip())
    metrics = {k: {"value": e2e[k], "unit": u} for k, u in END_TO_END.items()}
    if args.trace:
        layer = per_layer(ops, side, steal_s, calib_ms)
        for name, unit in PER_LAYER.items():
            print(f"{wl.name}/{name} {layer[name]:.6g} {unit}")
        print_attribution([o for o in ops if o["traced"]], wl.name)
        if side is not None:
            print_attribution([side], wl.name, f"{wl.side_name} pass")
        metrics = {k: {"value": layer[k], "unit": u} for k, u in PER_LAYER.items()}
    for f in run_failures + failures:
        print(f"CHECK FAILED: {f}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
