"""Tests of the benchmark itself.

Run from the root of a checkout (the file name keeps it out of the
library's default test collection)::

    python3 -m pytest loadbench/selftest.py -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

from golden import CANARY_SEED  # noqa: E402
from stats import nearest_rank, quartile_spread, tail_percentile  # noqa: E402
from tracing import Span, attribution, covered, self_times, summarize  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
#: A seed with no committed golden digest: only the canary can catch a
#: change that alters every path the same way.
TEST_SEED = 424242
#: A tiny-size seed with a committed golden digest.
GOLDEN_SEED = 3


# -- order statistics --------------------------------------------------------


def test_tail_percentile_picks_highest_with_ten_beyond():
    values = np.arange(1, 101)[::-1]  # order must not matter
    assert tail_percentile(values) == (90, 90.0, 100)
    q, value, n = tail_percentile(np.arange(1, 1001))
    assert (q, value, n) == (99, 990.0, 1000)
    # 15 samples: p33 is the last percentile with 10 ranked beyond it.
    assert tail_percentile(np.arange(1, 16)) == (33, 5.0, 15)


def test_tail_percentile_without_enough_samples_reports_the_max():
    assert tail_percentile([3.0, 1.0, 2.0]) == (None, 3.0, 3)
    assert tail_percentile(np.arange(10)) == (None, 9.0, 10)


def test_unassigned_requests_miss_every_limit():
    values = np.r_[np.ones(95), np.full(5, np.inf)]
    q, value, _n = tail_percentile(values)
    assert q == 90 and value == 1.0
    assert nearest_rank(np.sort(values), 99) == np.inf


def test_quartile_spread_matches_statistics_quantiles():
    med, q1, q3, share = quartile_spread([10, 11, 12, 13, 14, 15, 16, 17, 18, 19])
    assert med == 14.5 and q1 == 11.75 and q3 == 17.25
    assert share == pytest.approx(5.5 / 14.5)


# -- span arithmetic ----------------------------------------------------------


def _span(name, start, end, parent=-1, idx=0, pid=1, count=0, info=None):
    return Span(name, start, end, parent, pid, "t", idx, count, info)


def test_covered_merges_overlaps_and_clips():
    assert covered([(1, 3), (2, 5), (8, 12)], 0, 10) == 6
    assert covered([], 0, 10) == 0
    assert covered([(11, 12)], 0, 10) == 0


def test_self_time_subtracts_direct_children_only():
    spans = [
        _span("plan.execute", 0.0, 10.0, idx=0),
        _span("dispatch.map", 1.0, 3.0, parent=0, idx=1),
        _span("dispatch.map", 2.0, 5.0, parent=0, idx=2),   # overlaps its sibling
        _span("rng.fill", 2.0, 2.5, parent=1, idx=3),        # grandchild of 0
        _span("durable.write", 8.0, 9.0, parent=0, idx=4),
        # Same index in another process: not a child of the first root.
        _span("dispatch.worker", 0.0, 10.0, idx=1, pid=2),
    ]
    selfs = self_times(spans)
    assert selfs[0] == pytest.approx(10 - (4 + 1))
    assert selfs[1] == pytest.approx(2 - 0.5)
    assert selfs[2] == pytest.approx(3)
    assert selfs[3] == pytest.approx(0.5)
    assert selfs[5] == pytest.approx(10)


def test_summary_counts_cache_hits_fallbacks_and_layers():
    spans = [
        _span("graphs.cache", 0.0, 1.0, idx=0, count=1),              # hit
        _span("graphs.cache", 1.0, 4.0, idx=1, count=1),              # miss: built
        _span("graphs.build", 1.5, 3.5, parent=1, idx=2, count=100),
        _span("batch.engine", 4.0, 6.0, idx=3, info="cext"),          # ran numpy
        _span("batch.engine", 6.0, 8.0, idx=4, info="cext"),
        _span("batch.kernel", 6.5, 7.5, parent=4, idx=5),
    ]
    s = summarize(spans, home_pid=1)
    assert s["cache_hits"] == 1 and s["cache_load_s"] == pytest.approx(1.0)
    assert s["fallbacks"] == 1
    assert s["home"]["graphs.build"] == [1, 2.0, 2.0, 100]
    rows = dict(attribution(s, "home", 10.0))
    assert rows["graphs"] == pytest.approx(2.0)
    assert rows["graphs.io"] == pytest.approx(1.0 + 1.0)
    assert rows["batch"] == pytest.approx(4.0)
    assert rows["other"] == pytest.approx(2.0)


# -- whole runs at tiny sizes -------------------------------------------------


def _run(args, cwd=ROOT, code=None):
    cmd = [sys.executable]
    cmd += ["-c", code, *args] if code else [str(BENCH / "run.py"), *args]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=600)


def _result(proc) -> dict:
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_run_prints_the_declared_metrics(workload, trace):
    proc = _run(["--workload", workload, "--seed", "7", "--seconds", "1",
                 "--trace", str(trace), "--size", "tiny"])
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = _result(proc)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared
    }
    for name, unit in ((m["name"], m["unit"]) for m in SPEC["end_to_end"]):
        assert f"{workload}/{name} " in proc.stdout and f" {unit}" in proc.stdout
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())


#: One corruption per workload, each applied by rebinding a public name
#: before the run starts; every one must fail the run.
CORRUPTIONS = {
    "sweep_build": """
from repro.experiments import runners
from repro.parallel.aggregate import ResultTable
real = runners.run_e01_completion
def corrupted(*a, **k):
    rows, meta = real(*a, **k)
    t = meta["records"]
    cols = t.columns
    cols["max_load"] = cols["max_load"].copy()
    cols["max_load"][0] = 99
    return rows, {**meta, "records": ResultTable(cols, len(t))}
runners.run_e01_completion = corrupted
""",
    "sweep_spool": """
from repro.durable.spool import SpoolReader
from repro.parallel.aggregate import ResultTable
real = SpoolReader.table
def corrupted(self):
    t = real(self)
    cols = t.columns
    cols["rounds"] = cols["rounds"].copy()
    cols["rounds"][-1] += 1
    return ResultTable(cols, len(t))
SpoolReader.table = corrupted
""",
    "serve_single": """
from repro.serve.service import SaerService
real = SaerService.stats
def corrupted(self):
    s = real(self)
    s["assigned_total"] += 1
    return s
SaerService.stats = corrupted
""",
}

#: Loses one ball inside the fleet only: the single-service ops stay
#: right, and the fleet pass that ``serve_single`` checks them against
#: must fail the run.
FLEET_CORRUPTION = """
from repro.serve import fleet
real = fleet.FleetService.run_round
def corrupted(self):
    if self._round == 3 and self._pending_owners:
        self._pending_owners.pop()
        self._futures.pop(self._pending_tags.pop())
    return real(self)
fleet.FleetService.run_round = corrupted
"""


#: Changes that alter an output the same way on every path of a run (the
#: reference, every op, the spool, the single service behind the fleet),
#: so that only the committed golden digests can catch them.
CONSISTENT = {
    "sweep": """
import dataclasses
from repro.experiments import runners
real = runners.run_trials_batched
def corrupted(*a, **k):
    res = real(*a, **k)
    return dataclasses.replace(res, rounds=res.rounds + 1)
runners.run_trials_batched = corrupted
""",
    "serve": """
from repro.serve import state
real = state.make_rng
def corrupted(seed):
    rng = real(seed)
    rng.random()
    return rng
state.make_rng = corrupted
""",
}


def _corrupted_run(workload, corruption, seed):
    code = "\n".join([
        "import sys",
        f"sys.path[:0] = [{str(BENCH)!r}, {str(ROOT / 'src')!r}]",
        corruption,
        "import run",
        "sys.exit(run.main(sys.argv[1:]))",
    ])
    proc = _run(["--workload", workload, "--seed", str(seed), "--seconds", "1",
                 "--size", "tiny"], code=code)
    assert proc.returncode == 1, proc.stdout + proc.stderr
    result = _result(proc)
    assert result["correct"] is False and result["failed"] >= 1
    assert "CHECK FAILED" in proc.stdout
    return proc.stdout


@pytest.mark.parametrize("workload", WORKLOADS)
def test_corrupted_output_fails_the_run(workload):
    _corrupted_run(workload, CORRUPTIONS[workload], TEST_SEED)


def test_corrupted_fleet_pass_fails_serve_single():
    out = _corrupted_run("serve_single", FLEET_CORRUPTION, TEST_SEED)
    assert "CHECK FAILED: fleet pass: " in out


@pytest.mark.parametrize("seed", [GOLDEN_SEED, TEST_SEED])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_output_changed_on_every_path_fails_the_run(workload, seed):
    out = _corrupted_run(workload, CONSISTENT[workload.split("_")[0]], seed)
    assert "ops disagree" not in out
    assert f"canary (tiny, seed {CANARY_SEED}) digest differs from the committed golden" in out
    if seed == GOLDEN_SEED:
        assert f"differs from the committed golden for seed {seed}" in out


def test_without_library_source_the_run_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / BENCH.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, str(tmp_path / BENCH.name / "run.py"), "--workload", WORKLOADS[0],
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert not proc.stdout.strip()
