"""Summarise a run from its step log (`TrajectoryLog.write_jsonl`), or compare two.

    python -m oampc.summarize LOG.jsonl
    python -m oampc.summarize A.jsonl --against B.jsonl

Prints the number of steps; p50 and p99 of each layer time and of the step
time (their sum); the steps over the control period, the fallback steps, the
failed steps as the benchmark counts them (the fallback plan, an audit
violation above `MpcParams.feas_tol` or a collision), the largest audit
violation, the largest audit violation of the shifted previous plan (the
fallback, applied or not) with its step and the steps where it is above
`MpcParams.feas_tol`, the collision steps, each moving (its translation, dt
times the applied speed, above `MpcParams.feas_tol`, as `check_feasibility`
measures motion) or stopped, and the smallest occlusion, agent and static
clearance with its step (the near misses); the planner's relaxed avoidance
rows per step (rows the robot starts inside, which the planner holds to the
start's standoff and the audit to the strict margin) with the steps that have
any, and the largest strict excess among them; the stop-index probes,
infeasible probes, SQP iterations, QP solves, penalty rungs (QP solves after
the first at one linearization) and interior-point iterations per step; and
the steps that ended in each stop-index search phase, with p50 and p99 of
probe_ms / solve_ms (above 1 when probes ran in parallel), and the slowest
steps with their counters. The control period is the spacing of the logged
times, or `MpcParams.dt` for a one-step log.

With --against, prints instead how the two logs differ and exits with status 1
if they do. A step differs when a field the two logs share, other than a time
(`*_ms`), is not the same to the bit, and so does a step only the longer log
has. The comparison names the first such step, the first step whose state,
applied input or plan differs (`none` when only counters or other fields
moved), the largest difference in states, applied inputs and plans (inf
between plans of different horizons), the outcomes of each log (its steps,
failed steps, moving and stopped collision steps and the largest audit
violation) and the totals of the solver counters, each with this log's total
less the other's.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from typing import NamedTuple

import numpy as np

from .nmpc import SEARCH_PHASES, MpcParams
from .sim_engine import STEP_LAYERS


# (label, StepRecord field) of the per-step solver counters.
COUNTERS = (
    ("probes", "probes"),
    ("infeasible probes", "infeasible_probes"),
    ("SQP iterations", "sqp_iterations"),
    ("QP solves", "qp_solves"),
    ("penalty rungs", "penalty_rungs"),
    ("interior-point iterations", "qp_iterations"),
)
SLOWEST = 5  # slowest steps listed
CLEARANCES = ("occlusion", "agent", "static")  # StepRecord's *_clearance fields
# The labels of totals() that are not solver counters; the last is a largest
# value, the others are step counts, the steps attempted first.
OUTCOMES = ("steps", "failed steps", "moving collision steps", "stopped collision steps", "largest audit_violation")


def percentiles(values, qs) -> np.ndarray:
    """Percentiles qs of values by linear interpolation, numpy's default
    method; nan for no values, where np.percentile raises."""
    x = np.sort(values)
    if len(x) == 0:
        return np.full(len(qs), math.nan)
    return np.interp(np.asarray(qs) / 100.0 * (len(x) - 1), np.arange(len(x)), x)


def _smallest(values: list[float]) -> str:
    """The smallest value and its step; inf, with no step, if every value is inf."""
    k = int(np.argmin(values))
    return f"{values[k]!r} at step {k}" if math.isfinite(values[k]) else repr(values[k])


def _period(rows: list[dict]) -> float:
    """The control period: the spacing of the logged times, or
    `MpcParams.dt` for a log of fewer than two steps."""
    return rows[1]["tau"] - rows[0]["tau"] if len(rows) > 1 else MpcParams().dt


def _collisions(rows: list[dict]) -> tuple[list[int], list[int]]:
    """The collision steps that moved (translation above `feas_tol`) and
    those that stopped."""
    dt = _period(rows)
    collided = [k for k, row in enumerate(rows) if row["collision"]]
    moving = [k for k in collided if dt * abs(rows[k]["applied_input"][0]) > MpcParams().feas_tol]
    return moving, [k for k in collided if k not in moving]


def _failed(rows: list[dict]) -> list[int]:
    """The steps that failed: a fallback plan, an audit above `feas_tol` or a collision."""
    tol = MpcParams().feas_tol
    return [k for k, row in enumerate(rows) if row["fallback_used"] or row["audit_violation"] > tol or row["collision"]]


def totals(rows: list[dict]) -> dict:
    """A log's outcomes (OUTCOMES) and the sum of each solver counter, by label."""
    moving, stopped = _collisions(rows)
    worst = max((row["audit_violation"] for row in rows), default=0.0)
    values = dict(zip(OUTCOMES, (len(rows), len(_failed(rows)), len(moving), len(stopped), worst)))
    values.update((label, sum(row[name] for row in rows)) for label, name in COUNTERS)
    return values


def combine(logs: list[dict]) -> dict:
    """The totals() of several logs as one: the largest audit violation is
    the largest of them, every other value their sum."""
    return {label: (max if label == OUTCOMES[-1] else sum)(t[label] for t in logs) for label in logs[0]}


def summarize(rows: list[dict]) -> list[str]:
    """The summary lines of a log's rows (one dict per step, in order)."""
    if not rows:
        return ["steps: 0"]
    dt = _period(rows)
    times = {name: np.array([row[name] for row in rows]) for name in STEP_LAYERS}
    step_ms = sum(times.values())
    lines = [f"steps: {len(rows)}", "layer times (ms): p50 p99"]
    for name, values in [*times.items(), ("step_ms", step_ms)]:
        p50, p99 = percentiles(values, [50, 99])
        lines.append(f"{name[:-3]} ms: {p50:.2f} {p99:.2f}")
    moving, stopped = _collisions(rows)
    near = ", ".join(f"{c} {_smallest([row[c + '_clearance'] for row in rows])}" for c in CLEARANCES)
    relaxed = [k for k, row in enumerate(rows) if row["relaxed_rows"]]
    excess = [row["relaxed_excess"] for row in rows]
    shift = [row["fallback_violation"] for row in rows]
    shift_failed = [k for k, v in enumerate(shift) if v > MpcParams().feas_tol]
    failed = _failed(rows)
    lines += [
        f"steps over dt ({dt * 1e3:.0f} ms): {np.count_nonzero(step_ms > dt * 1e3)}",
        f"fallback steps: {sum(row['fallback_used'] for row in rows)}",
        f"failed steps: {len(failed)} {failed}",
        f"largest audit_violation: {max(row['audit_violation'] for row in rows)!r}",
        f"largest fallback_violation: {max(shift)!r} at step {int(np.argmax(shift))}, "
        f"above feas_tol at {len(shift_failed)} steps {shift_failed}",
        f"collision steps: {len(moving) + len(stopped)} {sorted(moving + stopped)}",
        f"collision steps by motion: moving {moving}, stopped {stopped}",
        f"smallest clearance (m): {near}",
        f"relaxed rows per step: {np.mean([row['relaxed_rows'] for row in rows]):.1f}, nonzero at steps {relaxed}",
        f"largest relaxed_excess: {max(excess)!r}" + (f" at step {int(np.argmax(excess))}" if relaxed else ""),
    ]
    counters = [name for _, name in COUNTERS]
    for label, name in COUNTERS:
        lines.append(f"{label} per step: {np.mean([row[name] for row in rows]):.1f}")
    phases = [row["search"] for row in rows]
    lines.append("steps by search phase: " + " ".join(f"{p} {phases.count(p)}" for p in SEARCH_PHASES))
    p50, p99 = percentiles([row["probe_ms"] / row["solve_ms"] for row in rows], [50, 99])
    lines.append(f"probe_ms / solve_ms: {p50:.2f} {p99:.2f}")
    per_iteration = [1e3 * row["probe_ms"] / row["qp_iterations"] for row in rows if row["qp_iterations"]]
    p50, p99 = percentiles(per_iteration, [50, 99])
    lines.append(f"us per interior-point iteration: {p50:.1f} {p99:.1f}")
    lines.append("slowest steps: step_ms search " + " ".join(counters))
    for k in np.argsort(-step_ms, kind="stable")[:SLOWEST]:
        row = rows[k]
        values = " ".join(str(row[name]) for name in counters)
        lines.append(f"step {k}: {step_ms[k]:.2f} {row['search']} {values}")
    return lines


class Comparison(NamedTuple):
    """What compare returns."""

    lines: list[str]
    same: bool  # no step differs
    same_plans: bool  # no step's state, applied input or plan differs


def compare(a: list[dict], b: list[dict]) -> Comparison:
    """The comparison lines of logs a and b, and whether they are the same."""
    lines = []
    first = first_plan = None
    largest = dict.fromkeys(("state", "applied_input", "plan states", "plan inputs"), 0.0)
    for k, (x, y) in enumerate(zip(a, b)):
        shared = sorted(x.keys() & y.keys())
        differ = [name for name in shared if not name.endswith("_ms") and json.dumps(x[name]) != json.dumps(y[name])]
        if differ and first is None:
            first = f"{k} (tau {x['tau']!r}): {' '.join(differ)}"
        moved = [name for name in ("state", "applied_input", "plan") if name in differ]
        if moved and first_plan is None:
            first_plan = f"{k} (tau {x['tau']!r}): {' '.join(moved)}"
        for name, u, v in (
            ("state", x["state"], y["state"]),
            ("applied_input", x["applied_input"], y["applied_input"]),
            ("plan states", x["plan"]["states"], y["plan"]["states"]),
            ("plan inputs", x["plan"]["inputs"], y["plan"]["inputs"]),
        ):
            # Plans of different horizons have no elementwise difference.
            gap = float(np.abs(np.subtract(u, v)).max()) if np.shape(u) == np.shape(v) else math.inf
            largest[name] = max(largest[name], gap)
    if len(a) != len(b):
        k = min(len(a), len(b))
        only = f"{k} (tau {max(a, b, key=len)[k]['tau']!r}): in one log only"
        first, first_plan = first or only, first_plan or only
    lines.append(f"first step that differs: {first or 'none'}")
    lines.append(f"first plan difference: {first_plan or 'none'}")
    lines.append("largest difference: " + ", ".join(f"{name} {value!r}" for name, value in largest.items()))
    ta, tb = totals(a), totals(b)
    lines += [f"{label}: {ta[label]!r} against {tb[label]!r}" for label in OUTCOMES]
    for label, name in COUNTERS:
        steps = sum(x[name] != y[name] for x, y in zip(a, b))
        lines.append(f"{label}: {ta[label]} against {tb[label]} ({ta[label] - tb[label]:+d}), {steps} steps differ")
    return Comparison(lines, first is None, first_plan is None)


def read(path) -> list[dict]:
    with open(path) as f:
        return [json.loads(line) for line in f if line.strip()]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="python -m oampc.summarize", description=__doc__.splitlines()[0])
    parser.add_argument("log", help="JSON-lines step log")
    parser.add_argument("--against", metavar="LOG", help="compare with this log; exit 1 if they differ")
    args = parser.parse_args(argv)
    if args.against is None:
        lines, same = summarize(read(args.log)), True
    else:
        lines, same, _ = compare(read(args.log), read(args.against))
    try:
        print("\n".join(lines), flush=True)
    except BrokenPipeError:
        # The reader left early, as `| head` does: standard output goes to
        # devnull, so that the flush at exit does not fail again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    return 0 if same else 1


if __name__ == "__main__":
    sys.exit(main())
