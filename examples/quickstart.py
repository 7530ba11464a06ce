#!/usr/bin/env python
"""Quickstart: run SAER on a random regular client-server topology.

The 60-second tour of the public API:

1. generate a Δ-regular bipartite graph (Δ = log² n, the regime of
   Theorem 1),
2. run ``saer(c, d)`` and inspect the result,
3. run the coupled SAER/RAES execution of Corollary 2.

Run:  python examples/quickstart.py
"""

import math

import repro
from repro.theory import completion_horizon


def main() -> None:
    n = 1024
    degree = math.ceil(math.log2(n) ** 2)
    d = 4  # balls per client (the "request number")
    c = 1.5  # threshold multiplier: servers burn above floor(c*d) received

    print(f"Building a {degree}-regular bipartite graph on {n}+{n} nodes ...")
    graph = repro.graphs.random_regular_bipartite(n, degree, seed=1)
    report = repro.graphs.degree_report(graph)
    print(f"  rho = {report.rho:.2f}, eta = {report.eta:.2f} (Theorem 1 constants)\n")

    print(f"Running saer(c={c}, d={d}) ...")
    res = repro.run_saer(graph, c=c, d=d, seed=2, trace=repro.TraceLevel.FULL)
    print(f"  completed:        {res.completed}")
    print(f"  rounds:           {res.rounds}   (3*log2 n horizon: {completion_horizon(n)})")
    print(f"  work (messages):  {res.work}   ({res.work_per_client:.1f} per client)")
    print(f"  max server load:  {res.max_load}   (guaranteed <= floor(c*d) = {res.params.capacity})")
    print(f"  burned servers:   {res.blocked_servers} / {n}")
    print(f"  max_t S_t:        {res.trace.max_s_t():.3f}   (Lemma 4 bound: 0.5)\n")

    print("Coupled SAER/RAES run (Corollary 2, pathwise dominance) ...")
    cp = repro.run_coupled(graph, c=c, d=d, seed=4)
    print(f"  SAER rounds: {cp.saer.rounds}, RAES rounds: {cp.raes.rounds}")
    print(f"  RAES alive set nested in SAER's every round: {cp.nested_every_round}")


if __name__ == "__main__":
    main()
