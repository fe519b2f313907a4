#!/usr/bin/env python3
"""Closed-loop step benchmark for oampc.

Drives `oampc.sim_engine.run` over scenarios generated from a seed, one
robot in a closed loop with no think time: each control step starts when the
previous one ends. Simulated time advances by dt per step whatever the wall
time, so plans, counters and outcomes repeat exactly for a seed and run
length, and wall latency is judged against dt as a deadline.

    python3 perfbench/run.py --workload corner-occluded --seed 1 --seconds 25 --trace 0

Run it from the repository root. `--trace 0` measures the end-to-end metrics
with no span wrappers installed; `--trace 1` runs the same episodes traced
and untraced and prints the per-layer metrics and the tracing overhead. The
last line of standard output is one JSON object; the lines above it give
every metric with its unit and sample count. See perfbench/README.md.
"""

import os
import time

_T_START = time.perf_counter()
# One BLAS thread, set before numpy is imported: the steps are small dense
# problems, and the bundled OpenBLAS would otherwise start up to 64 threads.
os.environ["OPENBLAS_NUM_THREADS"] = "1"
os.environ["OMP_NUM_THREADS"] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from contextlib import nullcontext  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

# About the wall seconds one episode takes on a 2-core x86-64 container; a
# run of S seconds measures round(S / this) episodes, at least MIN_EPISODES,
# so the work, and with it every counter, is fixed by the seed and S. Two
# episodes give every workload 100 or more steps, enough for ten samples
# beyond the p90.
EPISODE_SECONDS = {"corner-occluded": 4.0, "corner-fast": 17.0, "pillars-crowd": 5.0}
MIN_EPISODES = 2
SETUP_PROBES = 5  # fresh interpreters set up before and again after the timed run
# Time of `tracing.reference_kernel` on that container when nothing else ran
# on its host. The host's load moves wall times by up to 1.7x between minutes,
# so step times are scaled to this speed: each step's wall time is multiplied
# by REFERENCE_SECONDS over the kernel's time measured around it.
REFERENCE_SECONDS = 5e-4

END_TO_END = {
    "step_ms_p50": "ms",
    "step_ms_p90": "ms",
    "steps_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
PER_LAYER = {
    "lidar_sim.scan_ms": "ms",
    "lidar_sim.detect_occlusions_ms": "ms",
    "lidar_sim.downsample_ms": "ms",
    "lidar_sim.boundaries_per_step": "count",
    "lidar_sim.circles_per_step": "count",
    "world.segment_visible_ms": "ms",
    "world.min_clearance_ms": "ms",
    "reachability.build_capsules_ms": "ms",
    "reachability.capsule_families_per_step": "count",
    "reachability.build_disks_ms": "ms",
    "reachability.fuse_measurement_ms": "ms",
    "avoidance.project_plan_ms": "ms",
    "avoidance.projections_per_step": "count",
    "nmpc.solve_self_ms": "ms",
    "nmpc.probes_per_step": "count",
    "nmpc.probe_success_ratio": "ratio",
    "nmpc.check_feasibility_ms": "ms",
    "solver.sqp_self_ms": "ms",
    "solver.sqp_iters_per_probe": "count",
    "solver.qp_calls_per_step": "count",
    "solver.qp_ms_per_call": "ms",
    "solver.qp_rows_per_call": "count",
    "sim_engine.step_ms": "ms",
    "sim_engine.other_self_ms": "ms",
    "sim_engine.trace_overhead_ms": "ms",
}


@dataclass
class Episode:
    scenario: object
    log: object
    metrics: object
    solves: list  # (NlpProblem, SolveResult) per step
    step_seconds: list  # wall time of each step
    reference_seconds: list  # reference kernel time around each step

    @property
    def scaled_seconds(self) -> list:
        """Step times at the reference machine speed."""
        return [t * REFERENCE_SECONDS / r for t, r in zip(self.step_seconds, self.reference_seconds)]


def episodes_for(workload: str, seconds: int) -> int:
    return max(MIN_EPISODES, round(seconds / EPISODE_SECONDS[workload]))


def set_up(workload: str, seed: int, episodes: int):
    """Import the program and generate the scenarios. Returns the scenarios
    and the wall seconds since this script started."""
    sys.path[:0] = [str(SRC), str(HERE)]
    from workloads import generate

    scenarios = generate(workload, seed, episodes)
    return scenarios, time.perf_counter() - _T_START


def run_episodes(scenarios, tracer=None) -> list[Episode]:
    """Run each scenario to its end, traced when a tracer is given."""
    from oampc import sim_engine
    from tracing import Probes

    out = []
    for scn in scenarios:
        probes = Probes()
        # The probes go on top of the tracer, so the reference kernel they
        # time around each step stays outside the step's span.
        with tracer.installed() if tracer is not None else nullcontext(), probes.installed():
            log, metrics = sim_engine.run(scn)
        out.append(Episode(scn, log, metrics, probes.solves, probes.step_seconds, probes.reference_seconds))
    return out


@dataclass
class Audit:
    errors: list  # correctness errors; empty when the outputs are correct
    attempted: int = 0
    failed: int = 0
    reasons: dict = field(default_factory=lambda: {"fallback": 0, "audit": 0, "collision": 0})
    worst_violation: float = 0.0  # largest FeasibilityReport.max_violation


def audit(episodes: list[Episode]) -> Audit:
    """Check the outputs and count failed steps, outside any timed region.

    A step fails if it used the fallback plan, if its applied plan fails
    `check_feasibility` at `feas_tol` against the problem it was planned for,
    or if it ends in a ground-truth collision.
    """
    from oampc.nmpc import check_feasibility
    from oampc.sim_engine import GOAL_TOLERANCE
    from oampc.unicycle import ControlInput, RobotState, dynamics_step

    out = Audit(errors=[])
    errors = out.errors
    for ep in episodes:
        scn, records = ep.scenario, ep.log.records
        dt = scn.mpc.dt
        if len(ep.solves) != len(records) or len(ep.step_seconds) != len(records):
            errors.append(f"{scn.name}: {len(records)} steps but {len(ep.solves)} solves")
            continue
        z = scn.robot_init.as_array()
        for k, (rec, (problem, result)) in enumerate(zip(records, ep.solves)):
            # The closed loop applies the first input of the logged plan.
            if not np.allclose(rec.state, z, rtol=0.0, atol=1e-12) or abs(rec.tau - k * dt) > 1e-9:
                errors.append(f"{scn.name} step {k}: state or time does not follow the applied inputs")
                break
            if not np.array_equal(rec.applied_input, rec.plan.inputs[0]):
                errors.append(f"{scn.name} step {k}: applied input is not the plan's first input")
                break
            z = dynamics_step(RobotState(*rec.state), ControlInput(*rec.applied_input), dt).as_array()
            report = check_feasibility(
                rec.plan, problem.projections, problem.static_circles, problem.params, z_init=problem.z0
            )
            out.attempted += 1
            out.worst_violation = max(out.worst_violation, report.max_violation)
            failures = {
                "fallback": rec.fallback_used,
                "audit": not report.ok(problem.params.feas_tol),
                "collision": rec.collision,
            }
            for reason, hit in failures.items():
                out.reasons[reason] += hit
            out.failed += any(failures.values())
        reached = ep.metrics.goals_reached == len(scn.goals)
        if reached and np.hypot(*(z[:2] - scn.goals[-1])) > GOAL_TOLERANCE:
            errors.append(f"{scn.name}: goal reported reached but the final state is off the goal")
    return out


def percentile(values, q: float) -> float:
    return float(np.percentile(values, q))


def same_trajectories(a: list[Episode], b: list[Episode]) -> bool:
    for x, y in zip(a, b):
        if len(x.log) != len(y.log):
            return False
        for rx, ry in zip(x.log, y.log):
            if not (np.array_equal(rx.state, ry.state) and np.array_equal(rx.plan.inputs, ry.plan.inputs)):
                return False
    return len(a) == len(b)


def layer_metrics(tracer, traced: list[Episode], untraced: list[Episode]) -> dict[str, float]:
    steps = tracer.steps
    self_s = tracer.self_times()
    spans = [s for s in tracer.spans if s[4] >= 0]

    def ms(*names):
        return 1e3 * sum(self_s.get(n, 0.0) for n in names) / steps

    def rows(name):
        return [s for s in spans if s[0] == name]

    probes, qps = rows("solver.solve_sqp"), rows("solver.solve_qp")
    step_ms = 1e3 * sum(s[2] - s[1] for s in rows("sim_engine.step")) / steps
    return {
        "lidar_sim.scan_ms": ms("lidar_sim.scan"),
        "lidar_sim.detect_occlusions_ms": ms("lidar_sim.detect_occlusions"),
        "lidar_sim.downsample_ms": ms("lidar_sim.downsample"),
        "lidar_sim.boundaries_per_step": sum(s[5] for s in rows("lidar_sim.detect_occlusions")) / steps,
        "lidar_sim.circles_per_step": sum(s[5] for s in rows("lidar_sim.downsample")) / steps,
        "world.segment_visible_ms": ms("world.segment_visible"),
        "world.min_clearance_ms": ms("world.min_clearance"),
        "reachability.build_capsules_ms": ms("reachability.build_capsules"),
        "reachability.capsule_families_per_step": len(rows("reachability.build_capsules")) / steps,
        "reachability.build_disks_ms": ms("reachability.build_disks"),
        "reachability.fuse_measurement_ms": ms("reachability.fuse_measurement"),
        "avoidance.project_plan_ms": ms("avoidance.project_plan"),
        "avoidance.projections_per_step": sum(s[5] for s in rows("avoidance.project_plan")) / steps,
        "nmpc.solve_self_ms": ms("nmpc.solve"),
        "nmpc.probes_per_step": len(probes) / steps,
        "nmpc.probe_success_ratio": sum(s[5]["optimal"] for s in probes) / max(1, len(probes)),
        "nmpc.check_feasibility_ms": ms("nmpc.check_feasibility"),
        "solver.sqp_self_ms": ms("solver.solve_sqp"),
        "solver.sqp_iters_per_probe": sum(s[5]["iterations"] for s in probes) / max(1, len(probes)),
        "solver.qp_calls_per_step": len(qps) / steps,
        "solver.qp_ms_per_call": 1e3 * self_s.get("solver.solve_qp", 0.0) / max(1, len(qps)),
        "solver.qp_rows_per_call": sum(s[5] for s in qps) / max(1, len(qps)),
        "sim_engine.step_ms": step_ms,
        "sim_engine.other_self_ms": ms("sim_engine.step", "sim_engine.ground_truth_collision"),
        "sim_engine.trace_overhead_ms": 1e3 * (mean_scaled(traced) - mean_scaled(untraced)),
    }


def mean_scaled(episodes: list[Episode]) -> float:
    return statistics.fmean(t for ep in episodes for t in ep.scaled_seconds)


def environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "OPENBLAS_NUM_THREADS": os.environ["OPENBLAS_NUM_THREADS"],
        "OMP_NUM_THREADS": os.environ["OMP_NUM_THREADS"],
    }


def setup_probes(args) -> list[float]:
    """Set-up times of SETUP_PROBES fresh interpreters doing this run's
    set-up, each started only after the previous one has exited."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", "0", "--setup-only"]
    samples = []
    for _ in range(SETUP_PROBES):
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
        samples.append(json.loads(done.stdout.strip().splitlines()[-1])["setup_s"])
    return samples


def show(name: str, value: float, unit: str, n: int, what: str) -> None:
    print(f"  {name:<40} {value:>12.4f} {unit:<6} n={n} {what}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(EPISODE_SECONDS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help="set up, print the set-up time and exit")
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (SRC / "oampc" / "__init__.py").is_file():
        print(f"error: {SRC / 'oampc'} not found; run from a checkout of the repository", file=sys.stderr)
        return 2

    episodes = episodes_for(args.workload, args.seconds)
    if args.trace:
        episodes = math.ceil(episodes / 2)
    scenarios, own_setup = set_up(args.workload, args.seed, episodes)
    if args.setup_only:
        print(json.dumps({"setup_s": own_setup}))
        return 0

    dt = scenarios[0].mpc.dt
    tracer = None
    if args.trace:
        from tracing import Tracer

        tracer = Tracer()
        runs = run_episodes(scenarios, tracer)
        untraced = run_episodes(scenarios)
    else:
        # Probes before and after the timed run sample two moments of the
        # host's load, so one slow stretch does not set the median.
        setups = [own_setup] + setup_probes(args)
        runs = run_episodes(scenarios)
        setups += setup_probes(args)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    checked = audit(runs)
    errors, attempted, failed = checked.errors, checked.attempted, checked.failed
    if tracer is not None and not same_trajectories(runs, untraced):
        errors.append("traced and untraced runs of the same scenarios planned different trajectories")

    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds} trace {args.trace}: "
          f"{len(runs)} episodes, {attempted} steps")
    print("environment " + json.dumps(environment()))
    n_ep = len(runs)
    reached = [ep.metrics.goals_reached == len(ep.scenario.goals) for ep in runs]
    ttg = [ep.metrics.time_to_goal if ok else ep.scenario.max_steps * dt for ep, ok in zip(runs, reached)]
    print("outcomes (exact for a seed and run length):")
    show("goal_rate", sum(reached) / n_ep, "ratio", n_ep, "episodes")
    show("time_to_goal_s", statistics.fmean(ttg), "s", n_ep, "episodes, a miss counts at its step budget")
    show("failed_step_rate", failed / attempted, "ratio", attempted, "steps")
    print(f"  failed steps by reason: {json.dumps(checked.reasons)}; "
          f"largest audit violation {checked.worst_violation:.3g} (feas_tol {scenarios[0].mpc.feas_tol:g})")

    if tracer is None:
        scaled_ms = [1e3 * t for ep in runs for t in ep.scaled_seconds]
        wall_ms = [1e3 * t for ep in runs for t in ep.step_seconds]
        reference_us = statistics.median(1e6 * t for ep in runs for t in ep.reference_seconds)
        n = len(scaled_ms)
        values = {
            "step_ms_p50": percentile(scaled_ms, 50),
            "step_ms_p90": percentile(scaled_ms, 90),
            "steps_per_s": 1e3 * n / sum(scaled_ms),
        }
        print(f"end-to-end (step times scaled to the reference machine speed; the reference kernel took "
              f"{reference_us:.1f} us here, median over {n} steps, against {1e6 * REFERENCE_SECONDS:.1f} us):")
        for name in ("step_ms_p50", "step_ms_p90", "steps_per_s"):
            show(name, values[name], END_TO_END[name], n, "steps")
        values["setup_s"] = statistics.median(setups)
        values["peak_rss_mb"] = peak_rss_mb
        show("setup_s", values["setup_s"], "s", len(setups), "set-ups, median")
        show("peak_rss_mb", peak_rss_mb, "MB", 1, "process")
        print("wall clock of this run (informational):")
        show("sim_engine.step_ms_p50", percentile(wall_ms, 50), "ms", n, "steps")
        show("sim_engine.step_ms_p90", percentile(wall_ms, 90), "ms", n, "steps")
        show("sim_engine.step_ms_p99", percentile(wall_ms, 99), "ms", n, "steps")
        show("sim_engine.step_ms_max", max(wall_ms), "ms", n, "steps")
        show("sim_engine.steps_per_s", 1e3 * n / sum(wall_ms), "1/s", n, "steps")
        show("sim_engine.deadline_miss_rate", sum(t > 1e3 * dt for t in wall_ms) / n, "ratio", n,
             f"steps over dt = {dt} s")
        names = END_TO_END
    else:
        values = layer_metrics(tracer, runs, untraced)
        out_dir = HERE / "out"
        out_dir.mkdir(exist_ok=True)
        span_file = out_dir / f"spans-{args.workload}-seed{args.seed}.jsonl"
        tracer.write(span_file)
        print(f"per-layer (traced run, mean per step over {tracer.steps} steps; spans in {span_file.relative_to(ROOT)}):")
        for name, unit in PER_LAYER.items():
            show(name, values[name], unit, tracer.steps, "steps")
        layer_sum = sum(v for name, v in values.items() if name.endswith("_ms") and name not in
                        ("sim_engine.step_ms", "solver.qp_ms_per_call", "sim_engine.trace_overhead_ms"))
        layer_sum += values["solver.qp_calls_per_step"] * values["solver.qp_ms_per_call"]
        print(f"  self times add up to {layer_sum:.4f} ms/step against sim_engine.step_ms "
              f"{values['sim_engine.step_ms']:.4f}; tracing overhead {values['sim_engine.trace_overhead_ms']:.4f} ms/step")
        names = PER_LAYER

    for err in errors:
        print(f"error: {err}")
    result = {
        "correct": not errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in names.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
