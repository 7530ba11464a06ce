"""Tests for zero-copy graph sharing (repro.parallel.shared)."""

import pickle

import numpy as np
import pytest

from repro.core.engine import run_saer
from repro.graphs import BipartiteGraph, trust_subsets
from repro.parallel import (
    ParameterGrid,
    SharedGraph,
    current_task_graph,
    graph_context,
)
from repro.plan import (
    BackendSpec,
    ExecSpec,
    GraphSpec,
    RunPlan,
    SeedSpec,
    WorkSpec,
    execute,
)


def _graphs_equal(a, b) -> bool:
    return (
        a.n_clients == b.n_clients
        and a.n_servers == b.n_servers
        and np.array_equal(a.client_indptr, b.client_indptr)
        and np.array_equal(a.client_indices, b.client_indices)
        and np.array_equal(a.server_indptr, b.server_indptr)
        and np.array_equal(a.server_indices, b.server_indices)
    )


def _graph_point(graph, point, seed_seq):
    res = run_saer(graph, point["c"], 2, seed=seed_seq)
    return {"rounds": res.rounds, "work": res.work}


def _graph_point_block(graph, point, seed_seqs):
    return [_graph_point(graph, point, s) for s in seed_seqs]


def _pinned_plan(graph, *, grid=None, trials=1, seed=0, processes=1,
                 backend="reference"):
    return RunPlan(
        grid=grid if grid is not None else ParameterGrid(c=[2.0]),
        work=WorkSpec(record=_graph_point, batch=_graph_point_block),
        trials=trials,
        seeds=SeedSpec(root=seed),
        backend=BackendSpec(name=backend),
        graph=GraphSpec(mode="pinned", graph=graph),
        execution=ExecSpec(processes=processes),
    )


@pytest.fixture(scope="module")
def graph():
    return trust_subsets(64, 64, 8, seed=1)


class TestSharedGraph:
    def test_roundtrip_zero_copy(self, graph):
        with SharedGraph.share(graph) as sg:
            view = sg.graph
            assert _graphs_equal(view, graph)
            # Same buffer on repeated access, not a fresh copy.
            assert view is sg.graph

    def test_pickles_as_metadata_only(self, graph):
        with SharedGraph.share(graph) as sg:
            blob = pickle.dumps(sg)
            # A 64×64×8 graph is ~16KB of CSR; the handle must be far smaller.
            assert len(blob) < 2048
            attached = pickle.loads(blob)
            assert _graphs_equal(attached.graph, graph)
            attached.close()

    def test_unlink_removes_segment(self, graph):
        sg = SharedGraph.share(graph)
        name = sg.shm_name
        sg.unlink()
        from multiprocessing import shared_memory

        with pytest.raises(FileNotFoundError):
            shared_memory.SharedMemory(name=name, create=False)

    def test_nbytes_covers_all_arrays(self, graph):
        with SharedGraph.share(graph) as sg:
            floor = sum(
                getattr(graph, f).nbytes
                for f in (
                    "client_indptr",
                    "client_indices",
                    "server_indptr",
                    "server_indices",
                )
            )
            assert sg.nbytes >= floor


class TestGraphContext:
    def test_serial_installs_parent_slot(self, graph):
        with graph_context(graph, processes=1) as (view, initializer, initargs):
            assert view is graph
            assert current_task_graph() is graph
        with pytest.raises(RuntimeError):
            current_task_graph()

    def test_shared_handle_used_verbatim(self, graph):
        with SharedGraph.share(graph) as sg:
            with graph_context(sg, processes=4) as (view, initializer, initargs):
                assert initargs == (sg,)
                assert _graphs_equal(view, graph)


class TestMonteCarloWithGraph:
    """One point × trials on a pinned graph."""

    def test_serial_matches_parallel(self, graph):
        a = execute(_pinned_plan(graph, trials=6, seed=9, processes=1))
        b = execute(_pinned_plan(graph, trials=6, seed=9, processes=2))
        assert a == b

    def test_shared_memory_handle_matches(self, graph):
        a = execute(_pinned_plan(graph, trials=6, seed=9, processes=1))
        with SharedGraph.share(graph) as sg:
            c = execute(_pinned_plan(sg, trials=6, seed=9, processes=2))
        assert a == c

    def test_batched_backend_matches(self, graph):
        a = execute(_pinned_plan(graph, trials=8, seed=4, processes=1))
        b = execute(_pinned_plan(graph, trials=8, seed=4, processes=2, backend="batched"))
        assert a == b

    def test_seeds_match_graphless_spawn(self, graph):
        # A pinned graph must not change which seed a trial sees.
        def entropy(g, point, seed_seq):
            return {"entropy": seed_seq.spawn_key}

        def no_graph(point, seed, cache_dir):
            return None

        pinned = _pinned_plan(graph, trials=5, seed=77)
        work = WorkSpec(record=entropy)
        a = execute(pinned.override(work=work, graph=GraphSpec(builder=no_graph)))
        b = execute(pinned.override(work=work))
        assert a == b


class TestRunSweepWithGraph:
    def test_serial_matches_parallel(self, graph):
        grid = ParameterGrid(c=[1.5, 2.0, 4.0])
        a = execute(_pinned_plan(graph, grid=grid, trials=3, seed=5, processes=1))
        b = execute(_pinned_plan(graph, grid=grid, trials=3, seed=5, processes=2))
        assert a == b

    def test_batched_matches_per_trial(self, graph):
        grid = ParameterGrid(c=[1.5, 4.0])
        a = execute(_pinned_plan(graph, grid=grid, trials=4, seed=2, processes=1))
        b = execute(_pinned_plan(
            graph, grid=grid, trials=4, seed=2, processes=2, backend="batched",
        ))
        assert a == b

    def test_records_carry_point_and_trial(self, graph):
        recs = execute(_pinned_plan(graph, trials=2))
        assert [(r["c"], r["trial"]) for r in recs] == [(2.0, 0), (2.0, 1)]
