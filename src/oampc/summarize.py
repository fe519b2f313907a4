"""Summarise a step log written by `TrajectoryLog.write_jsonl`.

    python -m oampc.summarize LOG.jsonl

Prints the number of steps; p50 and p99 of each layer time and of the step
time (their sum); the steps over the control period, the steps that applied
the fallback plan and the largest audit violation; and the stop-index
probes, QP solves and interior-point iterations per step. The control period
is the spacing of the logged times, or `MpcParams.dt` for a one-step log.
"""

from __future__ import annotations

import argparse
import json

import numpy as np

from .nmpc import MpcParams
from .sim_engine import STEP_LAYERS, percentiles


def summarize(rows: list[dict]) -> list[str]:
    """The summary lines of a log's rows (one dict per step, in order)."""
    if not rows:
        return ["steps: 0"]
    dt = rows[1]["tau"] - rows[0]["tau"] if len(rows) > 1 else MpcParams().dt
    times = {name: np.array([row[name] for row in rows]) for name in STEP_LAYERS}
    step_ms = sum(times.values())
    lines = [f"steps: {len(rows)}", "layer times (ms): p50 p99"]
    for name, values in [*times.items(), ("step_ms", step_ms)]:
        p50, p99 = percentiles(values, [50, 99])
        lines.append(f"{name[:-3]} ms: {p50:.2f} {p99:.2f}")
    lines += [
        f"steps over dt ({dt * 1e3:.0f} ms): {np.count_nonzero(step_ms > dt * 1e3)}",
        f"fallback steps: {sum(row['fallback_used'] for row in rows)}",
        f"largest audit_violation: {max(row['audit_violation'] for row in rows)!r}",
    ]
    for label, name in (("probes", "probes"), ("QP solves", "qp_solves"), ("interior-point iterations", "qp_iterations")):
        lines.append(f"{label} per step: {np.mean([row[name] for row in rows]):.1f}")
    return lines


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(prog="python -m oampc.summarize", description=__doc__.splitlines()[0])
    parser.add_argument("log", help="JSON-lines step log")
    args = parser.parse_args(argv)
    with open(args.log) as f:
        rows = [json.loads(line) for line in f if line.strip()]
    print("\n".join(summarize(rows)))


if __name__ == "__main__":
    main()
