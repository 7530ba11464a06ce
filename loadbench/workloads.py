"""The benchmark's workloads: set-up, one timed op, and the op's checks.

Each workload drives the library only through its public entry points:
the experiment runners (``run_e01_completion``, ``run_e06_c_threshold``)
for the sweeps, and ``SaerService`` / ``FleetService`` with a sampled
loadgen trace for serving.  Why each workload exists, and which layer
it is predicted to stress, is in ``README.md``.

``setup`` is what a user pays once (imports, compiled-kernel load,
graph build or cache fill, trace sampling, service start) and is what
``setup_s`` times.  ``reference`` executes the workload once and returns
the digest of its checked outputs: the digest every op must reproduce,
and what ``golden.py`` commits.  ``prepare`` is the benchmark's own
untimed work: the reference execution and a warm-up.  ``op`` runs in a
process forked from the prepared parent and returns a plain dict (see
:func:`op_result`).  A workload with a ``side_op`` also runs that once
per run, untimed, in a forked process of its own: ``serve_single``
replays its trace through the fleet there, and every op's totals must
equal the fleet's.
"""

from __future__ import annotations

import hashlib
import math
import os
import shutil
from pathlib import Path
from time import perf_counter

from tracing import SERVE_LAYERS, SWEEP_LAYERS, GcMeter

#: Per-workload sizes.  ``tiny`` exists for the smoke tests and the canary.
#: A change here, or to the parameters below, changes the digests that
#: ``golden.json`` commits; rewrite them with ``golden.py``.
SIZES = {
    "full": {
        "sweep_build": {"ns": (1024, 2048), "trials": 64},
        "sweep_spool": {"n": 4096, "trials": 8},
        "serve": {"n": 8192, "rounds": 60},
    },
    "tiny": {
        "sweep_build": {"ns": (64, 128), "trials": 4},
        "sweep_spool": {"n": 256, "trials": 4},
        "serve": {"n": 256, "rounds": 12},
    },
}

#: Pools and the fleet check use two processes (the host has two
#: cores); kernels run one thread.
PROCESSES = 2
SPOOL_CS = (1.0, 1.2, 1.35, 1.5, 2.0, 3.0, 4.0, 8.0)
SWEEP_C, SWEEP_D = 1.5, 4
SERVE_C, SERVE_D, SERVE_RECOVERY, SERVE_RATE = 2.0, 4, 8, 0.4
DRAIN_ROUNDS = 2000


class Ctx:
    """Run-wide state: the seed, the sizes, the work directory, and
    whatever set-up produced.  ``reference`` is the output digest every
    op must reproduce."""

    def __init__(self, seed: int, size: str, work: Path) -> None:
        self.seed = seed
        self.size = size
        self.work = work
        self.reference: str | None = None


def derived_seeds(seed: int, k: int) -> list[int]:
    """``k`` independent integer seeds from the benchmark seed."""
    import numpy as np

    return [int(s) for s in np.random.SeedSequence(seed).generate_state(k)]


def op_result(wall, work, ms, rounds, failures, digest, **extra) -> dict:
    """What one op reports back to the harness.

    ``wall`` timed seconds; ``work`` trials run or balls assigned;
    ``ms`` latency samples (one per sweep, one per ball, ``inf`` for a
    ball never assigned); ``rounds`` protocol-round samples (per trial
    or per ball); ``digest`` a hash of every checked output.
    """
    return {"wall": wall, "work": work, "ms": ms, "rounds": rounds,
            "failures": list(failures), "digest": digest, **extra}


def _load_cext() -> bool:
    from repro.batch.kernels import resolve_kernel

    return resolve_kernel("cext").available()


# ---------------------------------------------------------------------------
# Sweeps
# ---------------------------------------------------------------------------


def table_digest(table) -> str:
    """sha256 over a result table's columns, by name, at canonical width."""
    import numpy as np

    h = hashlib.sha256()
    for name in sorted(table.columns):
        col = np.asarray(table.column(name))
        canon = col.astype(np.float64 if col.dtype.kind == "f" else np.int64)
        h.update(name.encode())
        h.update(canon.tobytes())
    return h.hexdigest()


def check_table(table, expect_rows: int) -> list[str]:
    """Row count, and every trial's max load within ``floor(c*d)``."""
    import numpy as np

    failures = []
    if len(table) != expect_rows:
        failures.append(f"table has {len(table)} rows, expected {expect_rows}")
    cap = np.floor(np.asarray(table.column("c")) * np.asarray(table.column("d")))
    if np.any(np.asarray(table.column("capacity")) != cap):
        failures.append("capacity column differs from floor(c*d)")
    over = int(np.sum(np.asarray(table.column("max_load")) > cap))
    if over:
        failures.append(f"{over} trials exceed max load floor(c*d)")
    return failures


class SweepBuild:
    """E1 with a fresh configuration-model graph per point, memory sink."""

    name = "sweep_build"
    layers = SWEEP_LAYERS

    def setup(self, ctx: Ctx) -> None:
        from repro.experiments import runners  # noqa: F401  (import cost)

        ctx.cext = _load_cext()
        ctx.p = SIZES[ctx.size][self.name]
        (ctx.e_seed,) = derived_seeds(ctx.seed, 1)

    def sweep(self, ctx: Ctx):
        from repro.experiments import runners

        _rows, meta = runners.run_e01_completion(
            ns=ctx.p["ns"], c=SWEEP_C, d=SWEEP_D, trials=ctx.p["trials"],
            seed=ctx.e_seed, processes=PROCESSES, backend="batched",
            kernel="cext", graph_cache=None,
        )
        return meta["records"]

    def expected_rows(self, ctx: Ctx) -> int:
        return len(ctx.p["ns"]) * ctx.p["trials"]

    def reference(self, ctx: Ctx) -> tuple[str, list[str]]:
        """The in-memory sweep's table digest, and its checks."""
        table = self.sweep(ctx)
        return table_digest(table), check_table(table, self.expected_rows(ctx))

    def prepare(self, ctx: Ctx) -> list[str]:
        ctx.reference, failures = self.reference(ctx)
        return failures

    def op(self, ctx: Ctx, index: int) -> dict:
        with GcMeter() as gcm:
            t0 = perf_counter()
            table = self.sweep(ctx)
            failures = check_table(table, self.expected_rows(ctx))
            digest = table_digest(table)
            wall = perf_counter() - t0
        return op_result(wall, len(table), [wall * 1e3], table.column("rounds"),
                         failures, digest, gc_pause_s=gcm.pause_s, gc_gen2=gcm.gen2)


class SweepSpool(SweepBuild):
    """E6 on one cached, shared graph, spooled to disk under supervision."""

    name = "sweep_spool"

    def setup(self, ctx: Ctx) -> None:
        import numpy as np

        from repro.experiments import runners  # noqa: F401  (import cost)
        from repro.graphs.families import build_point_graph

        ctx.cext = _load_cext()
        ctx.p = SIZES[ctx.size][self.name]
        (ctx.e_seed,) = derived_seeds(ctx.seed, 1)
        ctx.cache = ctx.work / "graph-cache"
        # The shared graph's seed, derived exactly as run_e06_c_threshold
        # derives it, so every op's build is a cache hit.
        n_tasks = len(SPOOL_CS) * ctx.p["trials"]
        g_seed = np.random.SeedSequence(ctx.e_seed).spawn(n_tasks + 1)[-1]
        build_point_graph({"n": ctx.p["n"]}, g_seed, str(ctx.cache))

    def sweep(self, ctx: Ctx, spool: Path | None = None):
        from repro.experiments import runners

        _rows, meta = runners.run_e06_c_threshold(
            n=ctx.p["n"], cs=SPOOL_CS, d=SWEEP_D, trials=ctx.p["trials"],
            seed=ctx.e_seed, processes=PROCESSES, backend="batched",
            kernel="cext", share_graph=True, graph_cache=str(ctx.cache),
            spool=None if spool is None else str(spool),
        )
        return meta["records"]

    def expected_rows(self, ctx: Ctx) -> int:
        return len(SPOOL_CS) * ctx.p["trials"]

    def _cache_entries(self, ctx: Ctx) -> int:
        return len(list(ctx.cache.glob("*.npz")))

    def prepare(self, ctx: Ctx) -> list[str]:
        # The in-memory execution of the same plan every spooled op must equal.
        ctx.reference, failures = self.reference(ctx)
        failures = [f"reference: {f}" for f in failures]
        warm = self.op(ctx, -1)
        failures += [f"warm-up: {f}" for f in warm["failures"]]
        if self._cache_entries(ctx) != 1:
            failures.append(f"graph cache holds {self._cache_entries(ctx)} entries, expected 1")
        return failures

    def op(self, ctx: Ctx, index: int) -> dict:
        from repro.durable.spool import SpoolReader

        spool = ctx.work / f"spool-{os.getpid()}-{index}"
        with GcMeter() as gcm:
            t0 = perf_counter()
            table = self.sweep(ctx, spool)
            failures = check_table(table, self.expected_rows(ctx))
            verified = SpoolReader(spool).verified_completed()
            if len(verified) != len(SPOOL_CS):
                failures.append(f"spool verifies {len(verified)} of {len(SPOOL_CS)} blocks")
            digest = table_digest(table)
            wall = perf_counter() - t0
        if digest != ctx.reference:
            failures.append("spooled table differs from the in-memory execution")
        shutil.rmtree(spool, ignore_errors=True)
        return op_result(wall, len(table), [wall * 1e3], table.column("rounds"),
                         failures, digest, gc_pause_s=gcm.pause_s, gc_gen2=gcm.gen2)


# ---------------------------------------------------------------------------
# Serving
# ---------------------------------------------------------------------------


def replay(service, arrivals) -> dict:
    """Replay a trace through ``service`` in driven mode, then drain.

    Open in protocol rounds (each round's arrivals are fixed in
    advance; Retry outcomes are not resubmitted), closed in wall time at
    round granularity: round ``t + 1`` is submitted as soon as round
    ``t`` returns, so the generator is never late.  A ball's latency
    runs from the start of its arrival round to the end of the round
    that assigned it.
    """
    import numpy as np

    submit = service.submit
    run_round = service.run_round
    starts: list[float] = []
    ends: list[float] = []
    by_round: list[list] = []
    t0 = perf_counter()
    for clients, counts in arrivals:
        starts.append(perf_counter())
        futures: list = []
        for client, balls in zip(clients.tolist(), counts.tolist()):
            futures.extend(submit(client, balls))
        run_round()
        ends.append(perf_counter())
        by_round.append(futures)
    extra = 0
    while service.in_flight and extra < DRAIN_ROUNDS:
        starts.append(perf_counter())
        run_round()
        ends.append(perf_counter())
        extra += 1
    wall = perf_counter() - t0

    tally = {"assigned": 0, "retry": 0, "dropped": 0, "unresolved": 0}
    ms: list[float] = []
    rounds: list[int] = []
    for t, futures in enumerate(by_round):
        for fut in futures:
            if not fut.done():
                tally["unresolved"] += 1
                ms.append(math.inf)
                rounds.append(1 << 30)
                continue
            out = fut.result()
            tally[out.outcome] += 1
            if out.outcome == "assigned":
                lat = out.latency_rounds
                ms.append((ends[t + lat] - starts[t]) * 1e3)
                rounds.append(lat)
            else:
                ms.append(math.inf)
                rounds.append(1 << 30)
    return {
        "wall": wall, "tally": tally, "submitted": sum(tally.values()),
        "ms": np.asarray(ms), "rounds": np.asarray(rounds, dtype=np.int64),
    }


def check_replay(run: dict, stats: dict, counters: dict) -> list[str]:
    """Conservation after the drain, and the service's own counters."""
    tally = run["tally"]
    failures = []
    if tally["unresolved"]:
        failures.append(f"{tally['unresolved']} balls unresolved after the drain")
    if run["submitted"] != run["expected"]:
        failures.append(f"{run['submitted']} balls tallied, {run['expected']} submitted")
    if stats["assigned_total"] != tally["assigned"]:
        failures.append(f"service counts {stats['assigned_total']} assigned, tally {tally['assigned']}")
    if stats["dropped_total"] != tally["dropped"]:
        failures.append(f"service counts {stats['dropped_total']} dropped, tally {tally['dropped']}")
    if stats["in_flight"]:
        failures.append(f"service reports {stats['in_flight']} balls in flight")
    metrics = stats["metrics"]
    for metric, key in counters.items():
        want = run["submitted"] if key == "submitted" else tally[key]
        if metrics.get(metric) != want:
            failures.append(f"{metric} = {metrics.get(metric)}, tally {want}")
    return failures


def replay_digest(run: dict) -> str:
    import numpy as np

    h = hashlib.sha256(repr(sorted(run["tally"].items())).encode())
    h.update(np.bincount(np.minimum(run["rounds"], 4096)).astype(np.int64).tobytes())
    return h.hexdigest()


def _proc_cpu_s(pid: int) -> float:
    """utime + stime of a live process, from ``/proc``."""
    with open(f"/proc/{pid}/stat") as fh:
        fields = fh.read().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


class ServeSingle:
    """A Poisson trace through one ``SaerService`` in driven mode.

    The same trace also goes once per run through ``FleetService`` (see
    :meth:`side_op`): the only pass through ``serve.fleet``,
    ``serve.router`` and the pipe IPC, and the check that single and
    fleet totals agree.
    """

    name = "serve_single"
    side_name = "fleet"
    layers = SERVE_LAYERS
    counters = {
        "serve_balls_total": "submitted", "serve_assigned_total": "assigned",
        "serve_retried_total": "retry", "serve_dropped_total": "dropped",
    }

    def setup(self, ctx: Ctx) -> None:
        import numpy as np

        from repro.graphs.families import build_point_graph
        from repro.serve.loadgen import make_arrivals, sample_trace

        ctx.cext = _load_cext()
        ctx.p = SIZES[ctx.size]["serve"]
        graph_seed, trace_seed, ctx.proto_seed = derived_seeds(ctx.seed, 3)
        ctx.graph = build_point_graph({"family": "trust", "n": ctx.p["n"]}, graph_seed)
        trace = sample_trace(
            make_arrivals("poisson", SERVE_RATE), ctx.graph.n_clients,
            ctx.p["rounds"], trace_seed,
        )
        ctx.arrivals = [(np.flatnonzero(c), c[np.flatnonzero(c)]) for c in trace]
        ctx.balls = int(sum(int(c.sum()) for c in trace))
        self.close(self.service(ctx))

    def service(self, ctx: Ctx):
        from repro.serve import SaerService, ServeConfig, ServingState

        state = ServingState(
            ctx.graph, SERVE_C, SERVE_D, recovery=SERVE_RECOVERY,
            seed=ctx.proto_seed, kernel="cext", track_tags=True,
        )
        return SaerService(state, ServeConfig(max_batch=1 << 30))

    def close(self, service) -> None:
        pass

    def reference(self, ctx: Ctx) -> tuple[str, list[str]]:
        """One replay's digest (totals and latency histogram), and its checks."""
        res = self.op(ctx, -1)
        return res["digest"], res["failures"]

    def prepare(self, ctx: Ctx) -> list[str]:
        # Warm-up: a few rounds on a throwaway service.
        replay(self.service(ctx), ctx.arrivals[:4])
        return []

    def op(self, ctx: Ctx, index: int) -> dict:
        service = self.service(ctx)
        try:
            cpu0 = self._worker_cpu()
            with GcMeter() as gcm:
                run = replay(service, ctx.arrivals)
            worker_cpu = self._worker_cpu() - cpu0
            stats = service.stats()
        finally:
            self.close(service)
        run["expected"] = ctx.balls
        failures = check_replay(run, stats, self.counters)
        digest = replay_digest(run)
        return op_result(
            run["wall"], run["tally"]["assigned"], run["ms"], run["rounds"],
            failures, digest, gc_pause_s=gcm.pause_s, gc_gen2=gcm.gen2,
            worker_cpu_s=worker_cpu, tally=run["tally"],
        )

    def _worker_cpu(self) -> float:
        return 0.0

    def side_op(self, ctx: Ctx, index: int) -> dict:
        """The trace through ``FleetService(workers=2)``, checked the same way."""
        return FleetPass().op(ctx, index)


class FleetPass(ServeSingle):
    """The same graph and trace through ``FleetService(workers=2)``.

    Not a workload of its own: its wall time on this two-core host
    spread too much from run to run (see ``README.md``).
    """

    name = "fleet"
    counters = {
        "fleet_balls_total": "submitted", "fleet_assigned_total": "assigned",
        "fleet_retried_total": "retry", "fleet_dropped_total": "dropped",
    }

    def service(self, ctx: Ctx):
        from repro.serve.fleet import FleetConfig, FleetService

        return FleetService(
            ctx.graph, SERVE_C, SERVE_D,
            config=FleetConfig(workers=PROCESSES, max_batch=1 << 30),
            recovery=SERVE_RECOVERY, seed=ctx.proto_seed, kernel="cext",
        )

    def close(self, service) -> None:
        service.close()

    def _worker_cpu(self) -> float:
        import multiprocessing

        return sum(_proc_cpu_s(p.pid) for p in multiprocessing.active_children())


WORKLOADS = {w.name: w for w in (SweepBuild(), SweepSpool(), ServeSingle())}
