"""Out-of-program instrumentation for the closed-loop step benchmark.

Two installers replace module attributes of `oampc` and restore them on exit:

- `Probes` is all the untraced run installs: a timer on `sim_engine.step`
  (the end-to-end unit of work) and a recorder on `sim_engine.solve` that
  keeps each `NlpProblem` and its result for the plan audit. Around each step,
  outside its timed interval, the timer also times `reference_kernel` so the
  machine's speed at that moment is known.
- `Tracer` records a span around every call into each layer, for the traced
  run only. A span is (name, start, end, parent, step, info); spans stay in
  memory and are written out when the run ends.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Callable, Optional

import numpy as np

import oampc.nmpc
import oampc.sim_engine
import oampc.solver
from oampc.world import WorldMap

_clock = time.perf_counter

_REF_A = np.random.default_rng(0).standard_normal((20, 20))
_REF_M = _REF_A @ _REF_A.T + 20.0 * np.eye(20)


def reference_kernel() -> float:
    """Seconds taken by a fixed piece of work like the planner's inner loop:
    twenty Cholesky factorisations and solves of a 20 x 20 matrix."""
    t0 = _clock()
    for _ in range(20):
        np.linalg.solve(np.linalg.cholesky(_REF_M), _REF_M[0])
    return _clock() - t0


def _len_result(args, kwargs, result):
    return len(result)


def _projection_count(args, kwargs, result):
    # One point projection per (family, horizon step).
    return len(result.families) * result.horizon


def _sqp_info(args, kwargs, result):
    return {"iterations": result.iterations, "optimal": result.status == "optimal"}


def _qp_rows(args, kwargs, result):
    h = kwargs["h"] if "h" in kwargs else args[3]
    return len(h)


# (owner, attribute, span name, info extractor or None). Span names follow the
# module that defines the function, so they match the per-layer metric names.
TARGETS: tuple[tuple[Any, str, str, Optional[Callable]], ...] = (
    (oampc.sim_engine, "step", "sim_engine.step", None),
    (oampc.sim_engine, "scan", "lidar_sim.scan", None),
    (oampc.sim_engine, "detect_occlusions", "lidar_sim.detect_occlusions", _len_result),
    (oampc.sim_engine, "downsample", "lidar_sim.downsample", _len_result),
    (oampc.sim_engine, "build_capsules", "reachability.build_capsules", None),
    (oampc.sim_engine, "build_disks", "reachability.build_disks", None),
    (oampc.sim_engine, "fuse_measurement", "reachability.fuse_measurement", None),
    (oampc.sim_engine, "project_plan", "avoidance.project_plan", _projection_count),
    (oampc.sim_engine, "solve", "nmpc.solve", None),
    (oampc.sim_engine, "check_feasibility", "nmpc.check_feasibility", None),
    (oampc.sim_engine, "ground_truth_collision", "sim_engine.ground_truth_collision", None),
    (oampc.nmpc, "solve_sqp", "solver.solve_sqp", _sqp_info),
    (oampc.solver, "solve_qp", "solver.solve_qp", _qp_rows),
    (WorldMap, "segment_visible", "world.segment_visible", None),
    (WorldMap, "min_clearance", "world.min_clearance", None),
)


@contextmanager
def _replaced(patches):
    """Set (owner, attribute, value) triples; restore the originals on exit."""
    saved = [(owner, attr, getattr(owner, attr)) for owner, attr, _ in patches]
    try:
        for owner, attr, value in patches:
            setattr(owner, attr, value)
        yield
    finally:
        for owner, attr, value in reversed(saved):
            setattr(owner, attr, value)


@dataclass
class Probes:
    """Per-step wall times, the reference-kernel time around each step (mean
    of one run before and one after) and the (problem, result) pair of every
    solve."""

    step_seconds: list[float] = field(default_factory=list)
    reference_seconds: list[float] = field(default_factory=list)
    solves: list[tuple[Any, Any]] = field(default_factory=list)

    @contextmanager
    def installed(self):
        step = oampc.sim_engine.step
        solve = oampc.sim_engine.solve

        def timed_step(sim, log):
            before = reference_kernel()
            t0 = _clock()
            out = step(sim, log)
            self.step_seconds.append(_clock() - t0)
            self.reference_seconds.append(0.5 * (before + reference_kernel()))
            return out

        def recorded_solve(problem):
            result = solve(problem)
            self.solves.append((problem, result))
            return result

        with _replaced([(oampc.sim_engine, "step", timed_step), (oampc.sim_engine, "solve", recorded_solve)]):
            yield self


class Tracer:
    """Span recorder. `spans` rows are [name, start, end, parent, step, info]
    with `parent` the index of the enclosing span (-1 at the top) and `step`
    the index of the enclosing `sim_engine.step` span (-1 outside steps)."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._step = -1
        self.steps = 0

    def _wrap(self, fn: Callable, name: str, info: Optional[Callable]) -> Callable:
        spans, stack = self.spans, self._stack
        is_step = name == "sim_engine.step"

        def traced(*args, **kwargs):
            idx = len(spans)
            if is_step:
                self._step = self.steps
                self.steps += 1
            row = [name, _clock(), 0.0, stack[-1] if stack else -1, self._step, None]
            spans.append(row)
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                row[2] = _clock()
                stack.pop()
                if is_step:
                    self._step = -1
            if info is not None:
                row[5] = info(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    @contextmanager
    def installed(self):
        patches = [
            (owner, attr, self._wrap(getattr(owner, attr), name, info))
            for owner, attr, name, info in TARGETS
        ]
        with _replaced(patches):
            yield self

    def self_times(self) -> dict[str, float]:
        """Total self time in seconds per span name, over spans inside steps.

        Self time is a span's duration minus the durations of its direct
        children; children never overlap, so the self times of a step's
        spans add up to the step's duration.
        """
        child = [0.0] * len(self.spans)
        for name, t0, t1, parent, step, _ in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        out: dict[str, float] = {}
        for i, (name, t0, t1, parent, step, _) in enumerate(self.spans):
            if step >= 0:
                out[name] = out.get(name, 0.0) + (t1 - t0) - child[i]
        return out

    def write(self, path) -> None:
        """Write the spans as JSON lines, times relative to the first span."""
        base = self.spans[0][1] if self.spans else 0.0
        with open(path, "w") as f:
            for name, t0, t1, parent, step, info in self.spans:
                row = {"name": name, "start": t0 - base, "end": t1 - base, "parent": parent, "step": step}
                if info is not None:
                    row["info"] = info
                f.write(json.dumps(row) + "\n")
