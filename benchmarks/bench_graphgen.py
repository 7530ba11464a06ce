"""Scale-axis benchmark: graph generation throughput + sweep distribution.

Three measurements, all written to ``BENCH_graphgen.json`` together with
host metadata (visible cores, CPU model, git sha, numpy version):

1. **Generation** — the whole-array generators of
   :mod:`repro.graphs.generators` against the per-client-loop baselines
   they replaced (inlined below, verbatim from the pre-rewrite module).
   Vectorized runs at ``n = 10⁶`` for the three sampling families
   (``trust_subsets``, ``community_bipartite``,
   ``erdos_renyi_bipartite``); the loop baselines are timed at a capped
   ``n`` and compared by edges/sec (see :func:`measure_generation` —
   the cap only *understates* the speedup).
2. **Configuration model** — the families built by
   ``_configuration_bipartite`` (``random_regular_bipartite``,
   ``near_regular``, ``paper_extremal``) against the pre-rewrite build
   path inlined below (full argsort per repair pass, then an edge-list
   ``from_edges`` with an ``np.unique`` check and two lexsorts), at
   ``n = 2048`` and ``n = 10⁵`` with ``Δ = ⌈log₂² n⌉`` (121 and 276).
   Both paths must return byte-identical graphs before any timing is
   reported.
3. **Sweep end-to-end** — one fixed topology, 8 grid points × 32
   trials at ``n = 10⁵`` under the batched engine, comparing *per-task
   graph shipping* (the graph pickled into every pool task) against
   *SharedGraph + on-disk cache* (zero-copy worker views, construction
   paid once ever).  Both paths produce identical records, which is
   verified before any timing is trusted.

Entry points::

    python benchmarks/bench_graphgen.py [--quick] [--json PATH]
    pytest benchmarks/bench_graphgen.py        # reduced-scale smoke

"""

from __future__ import annotations

import argparse
import json
import math
import platform
import subprocess
import time
from pathlib import Path
from unittest import mock

import numpy as np

from repro.batch import run_trials_batched
from repro.core.config import ProtocolParams
from repro.errors import GraphConstructionError, GraphValidationError
from repro.graphs import (
    community_bipartite,
    erdos_renyi_bipartite,
    geometric_bipartite,
    near_regular,
    paper_extremal,
    random_regular_bipartite,
    trust_subsets,
)
from repro.graphs import generators
from repro.graphs.bipartite import BipartiteGraph
from repro.graphs.generators import _sample_distinct
from repro.graphs.io import cached_graph
from repro.parallel import ParameterGrid
from repro.parallel.pool import available_cpus
from repro.plan import BackendSpec, ExecSpec, GraphSpec, RunPlan, SeedSpec, WorkSpec, execute
from repro.rng import make_rng


# ---------------------------------------------------------------------------
# Per-client-loop baselines (verbatim pre-rewrite implementations).
# ---------------------------------------------------------------------------


def _legacy_trust_subsets(n_clients, n_servers, k, seed=None):
    rng = make_rng(seed)
    edges = np.empty((n_clients * k, 2), dtype=np.int64)
    for v in range(n_clients):
        edges[v * k : (v + 1) * k, 0] = v
        edges[v * k : (v + 1) * k, 1] = _sample_distinct(rng, n_servers, k)
    return BipartiteGraph.from_edges(n_clients, n_servers, edges, name="legacy-trust")


def _legacy_erdos_renyi(n_clients, n_servers, p, seed=None):
    rng = make_rng(seed)
    degrees = rng.binomial(n_servers, p, size=n_clients)
    edges = []
    for v in range(n_clients):
        kk = int(degrees[v])
        if kk == 0:
            continue
        nbrs = _sample_distinct(rng, n_servers, kk)
        edges.append(np.column_stack([np.full(kk, v, dtype=np.int64), nbrs]))
    pairs = np.concatenate(edges) if edges else np.empty((0, 2), dtype=np.int64)
    return BipartiteGraph.from_edges(n_clients, n_servers, pairs, name="legacy-er")


def _legacy_community(n, n_groups, k_within, k_across, seed=None):
    group = n // n_groups
    rng = make_rng(seed)
    edges = []
    all_servers = np.arange(n, dtype=np.int64)
    for v in range(n):
        gidx = v // group
        own = all_servers[gidx * group : (gidx + 1) * group]
        rows = []
        if k_within:
            rows.append(own[_sample_distinct(rng, group, k_within)])
        if k_across:
            others = np.concatenate(
                [all_servers[: gidx * group], all_servers[(gidx + 1) * group :]]
            )
            rows.append(others[_sample_distinct(rng, others.size, k_across)])
        nbrs = np.concatenate(rows)
        edges.append(np.column_stack([np.full(nbrs.size, v, dtype=np.int64), nbrs]))
    return BipartiteGraph.from_edges(n, n, np.concatenate(edges), name="legacy-community")


def _legacy_geometric(n_clients, n_servers, radius, seed=None, torus=True):
    rng = make_rng(seed)
    cpos = rng.random((n_clients, 2))
    spos = rng.random((n_servers, 2))
    ncell = max(1, int(1.0 / radius))
    cell_w = 1.0 / ncell

    def cell_of(pts):
        return np.minimum((pts / cell_w).astype(np.int64), ncell - 1)

    scell = cell_of(spos)
    buckets = {}
    keys = scell[:, 0] * ncell + scell[:, 1]
    order = np.argsort(keys, kind="stable")
    sk = keys[order]
    starts = np.searchsorted(sk, np.arange(ncell * ncell))
    ends = np.searchsorted(sk, np.arange(ncell * ncell) + 1)
    for cell in range(ncell * ncell):
        if ends[cell] > starts[cell]:
            buckets[(cell // ncell, cell % ncell)] = order[starts[cell] : ends[cell]]
    r2 = radius * radius
    edges = []
    ccell = cell_of(cpos)
    for v in range(n_clients):
        cx, cy = int(ccell[v, 0]), int(ccell[v, 1])
        cand = []
        for dx in (-1, 0, 1):
            for dy in (-1, 0, 1):
                gx, gy = cx + dx, cy + dy
                if torus:
                    gx %= ncell
                    gy %= ncell
                elif not (0 <= gx < ncell and 0 <= gy < ncell):
                    continue
                b = buckets.get((gx, gy))
                if b is not None:
                    cand.append(b)
        if not cand:
            continue
        cidx = np.unique(np.concatenate(cand))
        diff = spos[cidx] - cpos[v]
        if torus:
            diff = np.abs(diff)
            diff = np.minimum(diff, 1.0 - diff)
        hit = cidx[(diff * diff).sum(axis=1) <= r2]
        if hit.size:
            edges.append(np.column_stack([np.full(hit.size, v, dtype=np.int64), hit]))
    pairs = np.concatenate(edges) if edges else np.empty((0, 2), dtype=np.int64)
    return BipartiteGraph.from_edges(n_clients, n_servers, pairs, name="legacy-geometric")


# ---------------------------------------------------------------------------
# Configuration-model baseline (verbatim pre-rewrite build path, sparse
# sequences only — the benchmarked families never take the dense branch).
# ---------------------------------------------------------------------------


def _legacy_build_csr(n_src, n_dst, pairs):
    order = np.lexsort((pairs[:, 1], pairs[:, 0]))
    srt = pairs[order]
    counts = np.bincount(srt[:, 0], minlength=n_src)
    indptr = np.zeros(n_src + 1, dtype=np.int64)
    np.cumsum(counts, out=indptr[1:])
    return indptr, np.ascontiguousarray(srt[:, 1].astype(np.int64))


def _legacy_from_edges(n_clients, n_servers, arr, name):
    if arr.size:
        if arr[:, 0].min() < 0 or arr[:, 0].max() >= n_clients:
            raise GraphValidationError("client index out of range")
        if arr[:, 1].min() < 0 or arr[:, 1].max() >= n_servers:
            raise GraphValidationError("server index out of range")
        keys = arr[:, 0].astype(np.int64) * np.int64(max(n_servers, 1)) + arr[:, 1]
        if np.unique(keys).size != keys.size:
            raise GraphValidationError("duplicate edges are not allowed (sampling bias)")
    c_indptr, c_indices = _legacy_build_csr(n_clients, n_servers, arr)
    s_indptr, s_indices = _legacy_build_csr(n_servers, n_clients, arr[:, ::-1])
    return BipartiteGraph(
        n_clients=n_clients,
        n_servers=n_servers,
        client_indptr=c_indptr,
        client_indices=c_indices,
        server_indptr=s_indptr,
        server_indices=s_indices,
        name=name,
    )


def _legacy_repair_duplicates(pairs, n_servers, rng):
    m = pairs.shape[0]
    for _ in range(generators._MAX_REPAIR_PASSES):
        keys = pairs[:, 0].astype(np.int64) * np.int64(n_servers) + pairs[:, 1]
        order = np.argsort(keys, kind="stable")
        sk = keys[order]
        dup_sorted = np.zeros(m, dtype=bool)
        if m > 1:
            dup_sorted[1:] = sk[1:] == sk[:-1]
        dup_idx = order[dup_sorted]
        if dup_idx.size == 0:
            return True
        partners = rng.integers(0, m, size=dup_idx.size)
        for i, j in zip(dup_idx.tolist(), partners.tolist()):
            if i == j:
                continue
            pairs[i, 1], pairs[j, 1] = pairs[j, 1], pairs[i, 1]
    return False


def _legacy_configuration_bipartite(client_degrees, server_degrees, rng, name):
    client_degrees = np.asarray(client_degrees, dtype=np.int64)
    server_degrees = np.asarray(server_degrees, dtype=np.int64)
    n_clients, n_servers = client_degrees.size, server_degrees.size
    if int(client_degrees.sum()) > (n_clients * n_servers) // 2:
        raise GraphConstructionError("legacy baseline covers sparse sequences only")
    client_stubs = np.repeat(np.arange(n_clients, dtype=np.int64), client_degrees)
    server_stubs = np.repeat(np.arange(n_servers, dtype=np.int64), server_degrees)
    for _ in range(generators._MAX_RESTARTS):
        pairs = np.column_stack([client_stubs, rng.permutation(server_stubs)])
        if _legacy_repair_duplicates(pairs, n_servers, rng):
            return _legacy_from_edges(n_clients, n_servers, pairs, name)
    raise GraphConstructionError("configuration model failed to produce a simple graph")


def _legacy_build(fn):
    """Run a configuration-model family through the pre-rewrite build path
    (the family's own degree-sequence draws are unchanged)."""
    with mock.patch.object(
        generators, "_configuration_bipartite", _legacy_configuration_bipartite
    ):
        return fn()


# ---------------------------------------------------------------------------
# Generation throughput
# ---------------------------------------------------------------------------


def _time_best(fn, repeats: int):
    best, out = math.inf, None
    for _ in range(repeats):
        start = time.perf_counter()
        out = fn()
        best = min(best, time.perf_counter() - start)
    return best, out


def measure_generation(
    n: int, n_geom: int, seed: int = 0, repeats: int = 2, n_legacy_cap: int = 200_000
) -> dict:
    """Time new vs legacy generators; returns records + per-family speedups.

    The vectorized generators are timed at full ``n``.  The per-client
    loops are timed at ``min(n, n_legacy_cap)``: the legacy
    ``community_bipartite`` is O(n²) (it materializes an n-element
    complement array per client), so running it at 10⁶ is a half-hour
    stunt rather than a measurement.  Speedups compare **edges/sec**;
    legacy per-edge throughput is flat in ``n`` for ``trust``/``er``
    (per-client cost is O(k)) and *decreasing* for ``community``, so a
    cap below ``n`` only understates the reported speedup.
    """
    k = 16
    n_legacy = min(n, n_legacy_cap)
    groups_of = lambda m: max(2, m // 10_000)
    fams = [
        (
            "trust_subsets",
            lambda m: trust_subsets(m, m, k, seed=seed),
            lambda m: _legacy_trust_subsets(m, m, k, seed=seed),
            n,
            n_legacy,
        ),
        (
            "community_bipartite",
            lambda m: community_bipartite(m, groups_of(m), 12, 4, seed=seed),
            lambda m: _legacy_community(m, groups_of(m), 12, 4, seed=seed),
            n,
            n_legacy,
        ),
        (
            "erdos_renyi_bipartite",
            lambda m: erdos_renyi_bipartite(m, m, k / m, seed=seed),
            lambda m: _legacy_erdos_renyi(m, m, k / m, seed=seed),
            n,
            n_legacy,
        ),
        (
            "geometric_bipartite",
            lambda m: geometric_bipartite(m, m, math.sqrt(k / (math.pi * m)), seed=seed),
            lambda m: _legacy_geometric(m, m, math.sqrt(k / (math.pi * m)), seed=seed),
            n_geom,
            min(n_geom, n_legacy_cap),
        ),
    ]
    records, speedups = [], {}
    for family, new_fn, legacy_fn, n_new, n_old in fams:
        t_new, g_new = _time_best(lambda: new_fn(n_new), repeats)
        t_old, g_old = _time_best(lambda: legacy_fn(n_old), 1)  # slow side: once
        g_new.validate()
        new_rate = g_new.n_edges / t_new
        old_rate = g_old.n_edges / t_old
        speedups[family] = new_rate / old_rate
        for backend, secs, g, m in (
            ("vectorized", t_new, g_new, n_new),
            ("per_client_loop", t_old, g_old, n_old),
        ):
            records.append(
                {
                    "family": family,
                    "n": m,
                    "backend": backend,
                    "seconds": round(secs, 3),
                    "edges": int(g.n_edges),
                    "edges_per_sec": round(g.n_edges / secs, 1),
                }
            )
    return {
        "n": n,
        "n_geometric": n_geom,
        "n_legacy": n_legacy,
        "speedup_metric": "edges_per_sec ratio (vectorized at n, loop at n_legacy)",
        "records": records,
        "speedups": speedups,
    }


def _same_graph(a: BipartiteGraph, b: BipartiteGraph) -> bool:
    return all(
        getattr(a, f).dtype == getattr(b, f).dtype
        and np.array_equal(getattr(a, f), getattr(b, f))
        for f in ("client_indptr", "client_indices", "server_indptr", "server_indices")
    )


def measure_configuration(sizes, seed: int = 0, repeats: int = 2) -> dict:
    """Configuration-model families: current build vs the pre-rewrite path.

    At each ``n`` the degree is ``Δ = ⌈log₂² n⌉``: ``random_regular_bipartite(n,
    Δ)``, ``near_regular(n, ⌈Δ/2⌉, Δ)``, and ``paper_extremal(n)`` at its
    default ``η = 1`` (``Δ_min = ⌈ln² n⌉`` plus the heavy clients).  Both
    paths must build byte-identical graphs; the current path is timed
    best-of-``repeats``, the legacy path once.
    """
    records, speedups = [], {}
    for n in sizes:
        delta = math.ceil(math.log2(n) ** 2)
        fams = [
            ("random_regular_bipartite", lambda: random_regular_bipartite(n, delta, seed=seed)),
            ("near_regular", lambda: near_regular(n, math.ceil(delta / 2), delta, seed=seed)),
            ("paper_extremal", lambda: paper_extremal(n, seed=seed)),
        ]
        for family, build in fams:
            t_new, g_new = _time_best(build, repeats)
            t_old, g_old = _time_best(lambda: _legacy_build(build), 1)
            if not _same_graph(g_new, g_old):
                raise AssertionError(f"{family} n={n}: build paths disagree; timing meaningless")
            del g_old
            speedups[f"{family}@{n}"] = round(t_old / t_new, 2)
            for backend, secs in (("current", t_new), ("pre_rewrite", t_old)):
                records.append(
                    {
                        "family": family,
                        "n": n,
                        "delta": delta,
                        "backend": backend,
                        "seconds": round(secs, 3),
                        "edges": int(g_new.n_edges),
                        "edges_per_sec": round(g_new.n_edges / secs, 1),
                    }
                )
    return {
        "sizes": list(sizes),
        "speedup_metric": "seconds ratio, pre_rewrite / current (same graphs, same host)",
        "records": records,
        "speedups": speedups,
    }


def host_metadata() -> dict:
    """Where the numbers were measured: never compare two files blind."""
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next(
                (ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu
            )
    except OSError:
        pass
    root = Path(__file__).resolve().parent.parent

    def git(*args):
        out = subprocess.run(["git", *args], cwd=root, capture_output=True, text=True)
        return out.stdout.strip() if out.returncode == 0 else None

    sha = git("rev-parse", "HEAD")
    return {
        "visible_cores": available_cpus(),
        "cpu_model": cpu,
        "git_sha": sha,
        "git_dirty": bool(git("status", "--porcelain", "--untracked-files=no")) if sha else None,
        "numpy": np.__version__,
        "python": platform.python_version(),
    }


# ---------------------------------------------------------------------------
# Sweep end-to-end: per-task shipping vs SharedGraph + cache
# ---------------------------------------------------------------------------


def _sim_block(graph, point, p_seeds) -> list:
    """The measured workload: one grid point's trial block, batched."""
    res = run_trials_batched(
        graph, ProtocolParams(c=point["c"], d=point["d"]), "saer", seeds=p_seeds
    )
    return [
        {"completed": bool(res.completed[i]), "rounds": int(res.rounds[i])}
        for i in range(len(p_seeds))
    ]


def _sim_record(graph, point, p_seed) -> dict:
    return _sim_block(graph, point, [p_seed])[0]


def _no_graph(point, g_seed, cache_dir):
    return None


class _ShipPoint:
    """Baseline worker: carries the graph, so every pool task pickles it."""

    def __init__(self, graph):
        self.graph = graph

    def __call__(self, _graph, point, p_seeds):
        return _sim_block(self.graph, point, p_seeds)


def measure_sweep(
    n: int,
    k: int,
    cs,
    trials: int,
    processes: int,
    cache_dir: Path,
    seed: int = 99,
) -> dict:
    """End-to-end sweep wall-clock: ship-per-task vs SharedGraph + cache.

    The shipped baseline is what a sweep did before the graph context
    existed: topology built in the parent, pickled into each of the
    ``len(cs)`` batched tasks.  The fast path loads the topology
    from the on-disk cache (construction was paid on a previous run)
    and installs it once per worker, zero-copy.
    """
    plan = RunPlan(
        grid=ParameterGrid(c=list(cs), d=[2]),
        work=WorkSpec(record=_sim_record, batch=_sim_block),
        trials=trials,
        seeds=SeedSpec(root=seed),
        backend=BackendSpec(name="batched"),
        execution=ExecSpec(processes=processes),
    )
    params = {"n_clients": n, "n_servers": n, "k": k}

    # Baseline: fresh build + per-task shipping.
    t0 = time.perf_counter()
    graph = trust_subsets(**params, seed=seed)
    t_build = time.perf_counter() - t0
    t0 = time.perf_counter()
    ship_recs = execute(plan.override(
        work=WorkSpec(record=_sim_record, batch=_ShipPoint(graph)),
        graph=GraphSpec(builder=_no_graph),
    ))
    t_ship_sweep = time.perf_counter() - t0

    # Warm the cache (cold store timed separately, not part of either side).
    t0 = time.perf_counter()
    cached_graph(trust_subsets, "trust", params, seed, cache_dir)
    t_cache_store = time.perf_counter() - t0

    # Fast path: cache hit + zero-copy graph context.
    t0 = time.perf_counter()
    graph2 = cached_graph(trust_subsets, "trust", params, seed, cache_dir)
    t_cache_load = time.perf_counter() - t0
    t0 = time.perf_counter()
    shared_recs = execute(plan.override(graph=GraphSpec(mode="pinned", graph=graph2)))
    t_shared_sweep = time.perf_counter() - t0

    assert ship_recs == shared_recs, "ship vs shared records diverged; timing meaningless"
    t_baseline = t_build + t_ship_sweep
    t_fast = t_cache_load + t_shared_sweep
    return {
        "n": n,
        "k": k,
        "grid_points": len(cs),
        "trials": trials,
        "processes": processes,
        "graph_mb": round(
            sum(
                getattr(graph, f).nbytes
                for f in ("client_indptr", "client_indices", "server_indptr", "server_indices")
            )
            / 1e6,
            1,
        ),
        "t_build": round(t_build, 3),
        "t_ship_sweep": round(t_ship_sweep, 3),
        "t_baseline_total": round(t_baseline, 3),
        "t_cache_store_cold": round(t_cache_store, 3),
        "t_cache_load": round(t_cache_load, 3),
        "t_shared_sweep": round(t_shared_sweep, 3),
        "t_fast_total": round(t_fast, 3),
        "records_equal": True,
        "speedup": round(t_baseline / t_fast, 2),
    }


def run_benchmark(quick: bool = False, cache_dir: Path | None = None) -> dict:
    if quick:
        gen = measure_generation(n=50_000, n_geom=20_000, repeats=1)
        conf = measure_configuration(sizes=(2048,), repeats=1)
        sweep_kw = dict(n=20_000, k=32, cs=(2.0, 4.0, 8.0, 16.0), trials=8, processes=2)
    else:
        gen = measure_generation(n=1_000_000, n_geom=200_000)
        conf = measure_configuration(sizes=(2048, 100_000))
        sweep_kw = dict(
            n=100_000,
            k=64,
            cs=(2.0, 3.0, 4.0, 6.0, 8.0, 12.0, 16.0, 24.0),
            trials=32,
            processes=2,
        )
    import tempfile

    if cache_dir is None:
        with tempfile.TemporaryDirectory(prefix="repro-graph-cache-") as td:
            sweep = measure_sweep(cache_dir=Path(td), **sweep_kw)
    else:
        sweep = measure_sweep(cache_dir=cache_dir, **sweep_kw)
    return {
        "benchmark": "bench_graphgen",
        "quick": quick,
        "host": host_metadata(),
        "generation": gen,
        "configuration": conf,
        "sweep": sweep,
    }


# -- pytest entry (reduced scale, CI-friendly) --------------------------------


def test_quick_generation_beats_loop():
    gen = measure_generation(n=20_000, n_geom=10_000, repeats=1)
    # The full-scale floor is 10x (asserted by the committed
    # BENCH_graphgen.json); at smoke scale just require a real win.
    for fam in ("trust_subsets", "community_bipartite", "erdos_renyi_bipartite"):
        assert gen["speedups"][fam] > 2.0, gen["speedups"]


def test_quick_configuration_matches_legacy():
    conf = measure_configuration(sizes=(1024,), repeats=1)
    assert len(conf["records"]) == 6  # byte-identity is checked inside
    assert conf["speedups"]["random_regular_bipartite@1024"] > 1.5, conf["speedups"]


def test_quick_sweep_paths_agree(tmp_path):
    sweep = measure_sweep(
        n=5_000, k=16, cs=(2.0, 8.0), trials=4, processes=2, cache_dir=tmp_path
    )
    assert sweep["records_equal"]


# -- CLI entry ----------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true", help="reduced scale for CI")
    parser.add_argument(
        "--json",
        default=str(Path(__file__).resolve().parent.parent / "BENCH_graphgen.json"),
        help="output path for the machine-readable report",
    )
    args = parser.parse_args(argv)
    report = run_benchmark(quick=args.quick)

    gen = report["generation"]
    header = f"{'family':24s} {'n':>9s} {'backend':16s} {'seconds':>9s} {'edges/sec':>12s}"
    print(header)
    print("-" * len(header))
    for rec in gen["records"]:
        print(
            f"{rec['family']:24s} {rec['n']:9d} {rec['backend']:16s} "
            f"{rec['seconds']:9.3f} {rec['edges_per_sec']:12.1f}"
        )
    print("generation speedups:", {k: round(v, 1) for k, v in gen["speedups"].items()})
    conf = report["configuration"]
    for rec in conf["records"]:
        print(
            f"{rec['family']:24s} {rec['n']:9d} {rec['backend']:16s} "
            f"{rec['seconds']:9.3f} {rec['edges_per_sec']:12.1f}"
        )
    print("configuration-model speedups:", conf["speedups"])
    sw = report["sweep"]
    print(
        f"sweep n={sw['n']} ({sw['grid_points']} points x {sw['trials']} trials, "
        f"{sw['graph_mb']} MB graph): baseline {sw['t_baseline_total']}s "
        f"(build {sw['t_build']} + ship {sw['t_ship_sweep']}) vs "
        f"shared+cache {sw['t_fast_total']}s "
        f"(load {sw['t_cache_load']} + sweep {sw['t_shared_sweep']}) "
        f"-> {sw['speedup']}x"
    )
    Path(args.json).write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")
    print(f"wrote {args.json}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
