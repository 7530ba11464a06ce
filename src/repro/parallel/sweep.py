"""Parameter grids and the task runners of the plan pipeline.

A :class:`ParameterGrid` is an ordered dict of ``name -> values``; its
points enumerate the cartesian product in row-major order (first key
slowest), which keeps experiment tables stable across runs.

:func:`repro.plan.execute` dispatches every plan as ``(point, seed
slice, trial indices)`` tasks, and one of the two runners here turns
each task into a typed :class:`~repro.batch.results.ResultBlock`:
:class:`_BatchPointRunner` calls a block-of-trials worker once,
:class:`_TrialBlockRunner` loops a per-trial worker over the slice.
The memory sink assembles the blocks, in task order, into one
:class:`~repro.parallel.aggregate.ResultTable` with
:func:`assemble_blocks`.
"""

from __future__ import annotations

import itertools
from typing import Callable, Sequence

from ..batch.results import ResultBlock
from .aggregate import assemble_blocks
from .shared import current_task_graph

__all__ = ["ParameterGrid", "assemble_blocks"]


class ParameterGrid:
    """An ordered cartesian product of named parameter values."""

    def __init__(self, **axes: Sequence):
        if not axes:
            raise ValueError("a sweep needs at least one axis")
        for name, vals in axes.items():
            if len(vals) == 0:
                raise ValueError(f"axis {name!r} has no values")
        self.axes: dict[str, list] = {k: list(v) for k, v in axes.items()}

    def points(self) -> list[dict]:
        """All grid points as dicts, row-major (first axis slowest)."""
        names = list(self.axes)
        out = []
        for combo in itertools.product(*(self.axes[n] for n in names)):
            out.append(dict(zip(names, combo)))
        return out

    def __len__(self) -> int:
        n = 1
        for vals in self.axes.values():
            n *= len(vals)
        return n

    def __iter__(self):
        return iter(self.points())


class _BatchPointRunner:
    """Picklable adapter: one point × a block of trials → one :class:`ResultBlock`.

    ``with_graph`` prepends the worker's zero-copy task graph to the
    call.  ``point_fn`` returns either one record dict per trial, packed
    into a block worker-side so the return payload is a handful of
    arrays instead of R dicts, or a :class:`ResultBlock` itself (built
    straight from engine arrays), which is checked and passed through.
    """

    def __init__(self, point_fn: Callable, *, with_graph: bool = False):
        self.point_fn = point_fn
        self.with_graph = with_graph

    def __call__(self, task) -> ResultBlock:
        point, seed_seqs, trials = task
        if self.with_graph:
            result = self.point_fn(current_task_graph(), point, seed_seqs, trials)
        else:
            result = self.point_fn(point, seed_seqs, trials)
        if isinstance(result, ResultBlock):
            if result.n_trials != len(trials):
                raise ValueError(
                    f"batched point_fn returned a block of {result.n_trials} "
                    f"trials for {len(trials)} trials"
                )
            return result
        return ResultBlock.from_records(point, trials, result)


class _TrialBlockRunner:
    """Picklable adapter: a *per-trial* worker looped over a task's trials.

    The task carries a point's seed slice (one seed for the per-trial
    tasks of reference runs kept in memory, the point's whole slice
    otherwise); the worker runs the trials in order in-process and the
    records pack into one :class:`ResultBlock`, so a given (point,
    trial) consumes exactly the seed it would under any task size.
    """

    def __init__(self, trial_fn: Callable, *, with_graph: bool = False):
        self.trial_fn = trial_fn
        self.with_graph = with_graph

    def __call__(self, task) -> ResultBlock:
        point, seed_seqs, trials = task
        records = []
        for seed_seq, trial in zip(seed_seqs, trials):
            if self.with_graph:
                records.append(
                    self.trial_fn(current_task_graph(), point, seed_seq, trial)
                )
            else:
                records.append(self.trial_fn(point, seed_seq, trial))
        return ResultBlock.from_records(point, trials, records)
