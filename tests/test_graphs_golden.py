"""Byte-level golden for the random graph generators.

Pins the sha256 of all four CSR arrays (bytes and dtype) of the
configuration-model families — ``random_regular_bipartite`` (sparse and
dense, the complement branch), ``biregular`` with a degree remainder,
``near_regular``, ``paper_extremal`` and one tight sequence whose repair
walk stalls and restarts — and of the distinct-sampling families —
``trust_subsets`` (sparse, and dense through the complement),
``erdos_renyi_bipartite`` (padded rows, and dense rows through the mixed
path) and ``community_bipartite`` — at three seeds each, so a rewrite of
the build path must reproduce every graph bit for bit.

Regenerate (only when a change of graph law is intended)::

    PYTHONPATH=src python tests/test_graphs_golden.py --write
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.graphs import (
    biregular,
    community_bipartite,
    erdos_renyi_bipartite,
    near_regular,
    paper_extremal,
    random_regular_bipartite,
    trust_subsets,
)

GOLDEN = Path(__file__).parent / "data" / "graph_golden.json"
ARRAYS = ("client_indptr", "client_indices", "server_indptr", "server_indices")
SEEDS = (0, 1, 2)

BUILDS = {
    "regular_sparse": lambda rng: random_regular_bipartite(300, 40, seed=rng),
    "regular_dense": lambda rng: random_regular_bipartite(96, 70, seed=rng),
    "biregular_remainder": lambda rng: biregular(300, 140, 17, seed=rng),
    "near_regular": lambda rng: near_regular(400, 20, 45, seed=rng),
    "paper_extremal": lambda rng: paper_extremal(2048, eta=0.5, seed=rng),
    "tight_restart": lambda rng: near_regular(16, 1, 16, seed=rng),
    "trust_sparse": lambda rng: trust_subsets(300, 100, 20, seed=rng),
    "trust_dense": lambda rng: trust_subsets(200, 60, 45, seed=rng),
    "erdos_renyi_sparse": lambda rng: erdos_renyi_bipartite(300, 200, 0.1, seed=rng),
    "erdos_renyi_dense": lambda rng: erdos_renyi_bipartite(120, 80, 0.6, seed=rng),
    "community": lambda rng: community_bipartite(300, 3, 20, 10, seed=rng),
}
# Seeds at which the "tight_restart" repair walk stalls and restarts.
RESTART_SEEDS = (2, 7, 16)


class _CountingGenerator(np.random.Generator):
    """``default_rng(seed)`` that counts ``shuffle`` calls: the
    configuration model shuffles the server stubs once per pairing
    attempt (``permutation`` shuffles a copy)."""

    def __init__(self, seed):
        super().__init__(np.random.PCG64(seed))
        self.shuffles = 0

    def shuffle(self, x, axis=0):
        self.shuffles += 1
        return super().shuffle(x, axis)


def _seeds(case: str):
    return RESTART_SEEDS if case == "tight_restart" else SEEDS


def _digest(graph) -> dict:
    out = {"n_clients": graph.n_clients, "n_servers": graph.n_servers, "name": graph.name}
    for attr in ARRAYS:
        arr = getattr(graph, attr)
        out[attr] = {
            "dtype": arr.dtype.str,
            "shape": list(arr.shape),
            "sha256": hashlib.sha256(np.ascontiguousarray(arr).tobytes()).hexdigest(),
        }
    return out


def _record() -> dict:
    return {
        case: {str(s): _digest(build(np.random.default_rng(s))) for s in _seeds(case)}
        for case, build in BUILDS.items()
    }


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


@pytest.mark.parametrize(
    "case,seed", [(case, s) for case in BUILDS for s in _seeds(case)]
)
def test_graph_bytes_match_golden(golden, case, seed):
    graph = BUILDS[case](np.random.default_rng(seed))
    graph.validate()
    assert _digest(graph) == golden[case][str(seed)]


@pytest.mark.parametrize("seed", RESTART_SEEDS)
def test_tight_case_really_restarts(seed):
    rng = _CountingGenerator(seed)
    graph = BUILDS["tight_restart"](rng)
    assert rng.shuffles > 1
    assert _digest(graph) == _digest(BUILDS["tight_restart"](np.random.default_rng(seed)))


if __name__ == "__main__":
    if "--write" not in sys.argv[1:]:
        raise SystemExit("usage: python tests/test_graphs_golden.py --write")
    GOLDEN.write_text(json.dumps(_record(), indent=2, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {GOLDEN}")
