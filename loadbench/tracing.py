"""Spans recorded from the benchmark's side of each layer boundary.

Tracing never edits ``src/``: :class:`Tracer` rebinds each wrapped
public function where its caller looks it up (a module attribute or a
class attribute), records a span per call, and restores the originals
on :meth:`Tracer.uninstall`.  Spans live in memory as parallel lists;
pool workers forked while tracing is on start from an empty recorder
(``os.register_at_fork``) and append their spans to a per-pid file in
the run's work directory after every task, which the op process merges
back (:meth:`Tracer.collect`).

A span is ``(name, start, end, parent, pid, run, idx, count, info)``:
``parent`` and ``idx`` are indices into the recording process's own
list, ``count`` is the work the call did (edges built, bytes filled,
trial rounds, ...) and ``info`` a short tag (the requested kernel gate).
"""

from __future__ import annotations

import gc
import os
import pickle
import threading
from collections import defaultdict
from pathlib import Path
from time import perf_counter
from typing import Callable, NamedTuple


class Span(NamedTuple):
    name: str
    start: float
    end: float
    parent: int
    pid: int
    run: str
    idx: int
    count: float
    info: object


class Recorder:
    """Append-only span store for one process and one thread."""

    def __init__(self, run_id: str) -> None:
        self.run_id = run_id
        self.reset()

    def reset(self) -> None:
        self.pid = os.getpid()
        self.tid = threading.get_ident()
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.counts: list[float] = []
        self.infos: list = []
        self.stack: list[int] = []
        self.flushed = 0

    def open(self, name: str, info=None) -> int:
        # Calls from helper threads (the pool's result-handler thread
        # reads pipes too) would interleave with this thread's stack.
        if threading.get_ident() != self.tid:
            return -1
        i = len(self.names)
        self.names.append(name)
        self.parents.append(self.stack[-1] if self.stack else -1)
        self.counts.append(0)
        self.infos.append(info)
        self.ends.append(0.0)
        self.stack.append(i)
        self.starts.append(perf_counter())
        return i

    def close(self, i: int) -> None:
        if i >= 0:
            self.ends[i] = perf_counter()
            self.stack.pop()

    def spans(self) -> list[Span]:
        pid, run = self.pid, self.run_id
        return [
            Span(n, s, e, p, pid, run, i, c, info)
            for i, (n, s, e, p, c, info) in enumerate(
                zip(self.names, self.starts, self.ends, self.parents,
                    self.counts, self.infos)
            )
        ]


class GcMeter:
    """Collector pauses and gen-2 collections, from ``gc.callbacks``."""

    def __init__(self) -> None:
        self.pause_s = 0.0
        self.gen2 = 0
        self._t0 = 0.0

    def __call__(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._t0 = perf_counter()
        else:
            self.pause_s += perf_counter() - self._t0
            if info.get("generation") == 2:
                self.gen2 += 1

    def __enter__(self) -> "GcMeter":
        gc.callbacks.append(self)
        return self

    def __exit__(self, *exc) -> None:
        gc.callbacks.remove(self)


def _timed(rec: Recorder, name: str, fn: Callable, count=None, info=None) -> Callable:
    """``fn`` wrapped in a span; ``count(args, kwargs, out)`` sizes it."""

    def wrapper(*args, **kwargs):
        i = rec.open(name, info(args, kwargs) if info is not None else None)
        try:
            out = fn(*args, **kwargs)
        finally:
            rec.close(i)
        if count is not None and i >= 0:
            rec.counts[i] = count(args, kwargs, out)
        return out

    wrapper.__wrapped__ = fn
    wrapper.__name__ = getattr(fn, "__name__", name)
    return wrapper


# -- work counts attached to spans -------------------------------------------


def _edges(args, kwargs, graph) -> int:
    return int(graph.n_edges)


def _fill_bytes(args, kwargs, out) -> int:
    sent = args[2] if len(args) > 2 else kwargs["sent"]
    return 8 * int(sum(sent))


def _trial_rounds(args, kwargs, result) -> int:
    return int(result.rounds.sum())


def _requested_gate(args, kwargs) -> str:
    name = kwargs.get("kernel") or os.environ.get("REPRO_KERNELS") or "numpy"
    return name.strip().lower()


def _cache_enabled(args, kwargs, out) -> int:
    cache_dir = args[4] if len(args) > 4 else kwargs.get("cache_dir")
    return int(cache_dir is not None)


def _n_items(args, kwargs, out) -> int:
    return len(args[1]) if len(args) > 1 else len(kwargs["items"])


def _block_bytes(args, kwargs, out) -> int:
    return (Path(args[0]) / out[0]).stat().st_size


#: Layer groups each workload traces.
SWEEP_LAYERS = ("graphs", "rng", "batch", "plan", "dispatch", "aggregate", "durable")
SERVE_LAYERS = ("batch", "service", "state", "metrics", "fleet")


class Tracer:
    """Install span wrappers for some layer groups; collect their spans."""

    def __init__(self, run_id: str, spool_dir: str | os.PathLike, layers) -> None:
        self.rec = Recorder(run_id)
        self.spool_dir = Path(spool_dir)
        self.layers = tuple(layers)
        self.home_pid = os.getpid()
        self._undo: list[tuple[object, str, object]] = []

    # -- rebinding -----------------------------------------------------------

    def _set(self, owner, attr: str, value) -> None:
        # ``None`` marks an attribute the class inherited: undo deletes
        # the shadowing wrapper instead of pinning a copy on the subclass.
        own = vars(owner).get(attr)
        self._undo.append((owner, attr, own))
        setattr(owner, attr, value)

    def _func(self, module, attr, name, **kw) -> None:
        self._set(module, attr, _timed(self.rec, name, getattr(module, attr), **kw))

    def _method(self, cls, attr, name, **kw) -> None:
        self._set(cls, attr, _timed(self.rec, name, getattr(cls, attr), **kw))

    def _descriptor(self, cls, attr, name, **kw) -> None:
        """Wrap a ``staticmethod`` or ``classmethod`` in a span, keeping its kind."""
        desc = cls.__dict__[attr]
        self._set(cls, attr, type(desc)(_timed(self.rec, name, desc.__func__, **kw)))

    def install(self) -> "Tracer":
        rec = self.rec
        os.register_at_fork(after_in_child=rec.reset)
        on = set(self.layers)
        if "graphs" in on:
            from repro.graphs import families
            from repro.graphs.bipartite import BipartiteGraph

            self._func(families, "random_regular_bipartite", "graphs.build", count=_edges)
            self._func(families, "trust_subsets", "graphs.build", count=_edges)
            self._func(families, "cached_graph", "graphs.cache", count=_cache_enabled)
            self._descriptor(BipartiteGraph, "from_edges", "graphs.csr")
            self._descriptor(BipartiteGraph, "from_csr", "graphs.csr")
        if "rng" in on:
            from repro.batch import engine

            self._func(engine, "fill_uniforms", "rng.fill", count=_fill_bytes)
        if "batch" in on:
            from repro.batch.kernels import CextKernel
            from repro.experiments import runners

            self._func(
                runners, "run_trials_batched", "batch.engine",
                count=_trial_rounds, info=_requested_gate,
            )
            round_fn = CextKernel.__dict__["round_fn"]

            def traced_round_fn(kern):
                return _timed(rec, "batch.kernel", round_fn(kern))

            self._set(CextKernel, "round_fn", traced_round_fn)
        if "plan" in on:
            from repro.experiments import runners

            self._func(runners, "execute", "plan.execute")
        if "dispatch" in on:
            from concurrent.futures import ProcessPoolExecutor

            from repro import plan
            from repro.parallel import pool

            self._func(pool, "map_parallel", "dispatch.map", count=_n_items)
            self._func(pool, "supervised_map", "dispatch.supervise", count=_n_items)
            self._method(ProcessPoolExecutor, "submit", "dispatch.submit")
            call = plan.BatchWorker.__dict__["__call__"]
            timed_call = _timed(rec, "dispatch.worker", call)
            spool_dir = self.spool_dir
            home = self.home_pid

            def worker_call(worker, *task):
                out = timed_call(worker, *task)
                if rec.pid != home and not rec.stack:
                    _flush(rec, spool_dir)
                return out

            self._set(plan.BatchWorker, "__call__", worker_call)
        if "aggregate" in on:
            from repro.experiments import runners
            from repro.parallel import sweep

            self._func(sweep, "assemble_blocks", "aggregate.assemble")
            self._func(runners, "as_table", "aggregate.as_table")
        if "durable" in on:
            from repro.durable import spool

            self._func(spool, "write_block", "durable.write", count=_block_bytes)
            self._method(spool.SpoolReader, "verified_completed", "durable.verify")
            self._func(os, "fsync", "durable.fsync")
        if "service" in on:
            from repro.serve.service import SaerService

            self._method(SaerService, "submit", "service.submit")
            self._method(SaerService, "run_round", "service.round")
        if "state" in on:
            from repro.serve.state import ServingState

            self._method(ServingState, "route", "state.route")
            self._method(ServingState, "admit_balls", "state.admit")
        if "metrics" in on:
            from repro.serve.metrics import Histogram

            self._method(Histogram, "observe", "metrics.observe")
            self._method(Histogram, "observe_many", "metrics.observe_many")
        if "fleet" in on:
            from multiprocessing.connection import Connection

            from repro.serve import fleet

            self._method(fleet.FleetService, "submit", "fleet.submit")
            self._method(fleet.FleetService, "run_round", "fleet.round")
            self._method(Connection, "poll", "fleet.poll")
            self._method(Connection, "recv", "fleet.recv")
            self._func(fleet, "_choose_shards", "router.choose")
        return self

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            if value is None:
                delattr(owner, attr)
            else:
                setattr(owner, attr, value)

    # -- collection ----------------------------------------------------------

    def collect(self) -> list[Span]:
        """This process's spans plus every worker's flushed spans."""
        spans = self.rec.spans()
        for path in sorted(self.spool_dir.glob("spans-*.pkl")):
            with open(path, "rb") as fh:
                while True:
                    try:
                        spans.extend(pickle.load(fh))
                    except EOFError:
                        break
            path.unlink()
        return spans


def _flush(rec: Recorder, spool_dir: Path) -> None:
    """Append a worker's finished spans to its per-pid file, then forget them."""
    spans = rec.spans()
    offset = rec.flushed
    shifted = [
        s._replace(idx=s.idx + offset, parent=s.parent + offset if s.parent >= 0 else -1)
        for s in spans
    ]
    with open(spool_dir / f"spans-{rec.pid}.pkl", "ab") as fh:
        pickle.dump(shifted, fh)
    rec.reset()
    rec.flushed = offset + len(spans)


# -- arithmetic over spans ---------------------------------------------------


def covered(intervals, lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in sorted((max(a, lo), min(b, hi)) for a, b in intervals):
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        elif b > cur_hi:
            cur_hi = b
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the time its direct children cover."""
    kids: dict[tuple[int, int], list[tuple[float, float]]] = defaultdict(list)
    for s in spans:
        if s.parent >= 0:
            kids[(s.pid, s.parent)].append((s.start, s.end))
    return [
        (s.end - s.start) - covered(kids.get((s.pid, s.idx), ()), s.start, s.end)
        for s in spans
    ]


#: Span name -> layer, as the ROADMAP names them.
LAYER_OF = {
    "graphs.build": "graphs", "graphs.csr": "graphs", "graphs.cache": "graphs.io",
    "rng.fill": "rng", "batch.engine": "batch", "batch.kernel": "batch",
    "plan.execute": "plan", "dispatch.map": "dispatch", "dispatch.supervise": "dispatch",
    "dispatch.submit": "dispatch", "dispatch.worker": "dispatch",
    "aggregate.assemble": "aggregate", "aggregate.as_table": "aggregate",
    "durable.write": "durable", "durable.verify": "durable", "durable.fsync": "durable",
    "service.submit": "service", "service.round": "service",
    "state.route": "state", "state.admit": "state",
    "metrics.observe": "metrics", "metrics.observe_many": "metrics",
    "fleet.submit": "fleet", "fleet.round": "fleet", "fleet.poll": "fleet",
    "fleet.recv": "fleet", "router.choose": "router",
}


def summarize(spans: list[Span], home_pid: int) -> dict:
    """Per-op sums the layer metrics are computed from.

    ``home`` holds the op process's spans (the blocking path),
    ``worker`` the pool workers'; both map span name to
    ``[calls, seconds, self seconds, count]``.  Derived entries cover
    what needs the span tree: graph-cache hits, gate fallbacks and the
    duration of top-level (not nested) metric observations.
    """
    selfs = self_times(spans)
    by_key = {(s.pid, s.idx): s for s in spans}
    child_names: dict[tuple[int, int], set] = defaultdict(set)
    for s in spans:
        if s.parent >= 0:
            child_names[(s.pid, s.parent)].add(s.name)
    out = {"home": defaultdict(lambda: [0, 0.0, 0.0, 0.0]),
           "worker": defaultdict(lambda: [0, 0.0, 0.0, 0.0]),
           "cache_hits": 0, "cache_load_s": 0.0, "fallbacks": 0,
           "observe_top_s": 0.0}
    for s, self_s in zip(spans, selfs):
        row = out["home" if s.pid == home_pid else "worker"][s.name]
        dur = s.end - s.start
        row[0] += 1
        row[1] += dur
        row[2] += self_s
        row[3] += s.count
        kids = child_names.get((s.pid, s.idx), ())
        if s.name == "graphs.cache" and s.count and "graphs.build" not in kids:
            out["cache_hits"] += 1
            out["cache_load_s"] += dur
        elif s.name == "batch.engine":
            ran = "cext" if "batch.kernel" in kids else "numpy"
            if s.info != ran:
                out["fallbacks"] += 1
        elif s.name.startswith("metrics."):
            parent = by_key.get((s.pid, s.parent))
            if parent is None or not parent.name.startswith("metrics."):
                out["observe_top_s"] += dur
    out["home"] = dict(out["home"])
    out["worker"] = dict(out["worker"])
    return out


def merge_summaries(summaries: list[dict]) -> dict:
    """Sum per-op summaries field by field."""
    total = {"home": defaultdict(lambda: [0, 0.0, 0.0, 0.0]),
             "worker": defaultdict(lambda: [0, 0.0, 0.0, 0.0]),
             "cache_hits": 0, "cache_load_s": 0.0, "fallbacks": 0,
             "observe_top_s": 0.0}
    for s in summaries:
        for side in ("home", "worker"):
            for name, row in s[side].items():
                acc = total[side][name]
                for j in range(4):
                    acc[j] += row[j]
        for key in ("cache_hits", "cache_load_s", "fallbacks", "observe_top_s"):
            total[key] += s[key]
    return total


def attribution(summary: dict, side: str, wall: float) -> list[tuple[str, float]]:
    """Self seconds by layer on one side, plus the unattributed remainder."""
    by_layer: dict[str, float] = defaultdict(float)
    for name, row in summary[side].items():
        by_layer[LAYER_OF.get(name, name.split(".")[0])] += row[2]
    rows = sorted(by_layer.items(), key=lambda kv: -kv[1])
    rows.append(("other", max(0.0, wall - sum(by_layer.values()))))
    return rows
