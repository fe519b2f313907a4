"""Tests of the benchmark itself: seeded inputs, repeatable traced counters,
an untraced run free of span wrappers, and the metric lists it promises.

    python3 -m pytest -q perfbench/tests
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parents[1]
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import run as bench  # noqa: E402
import tracing  # noqa: E402
from oampc import sim_engine  # noqa: E402
from oampc.sim_engine import AgentScript  # noqa: E402
from workloads import GENERATORS, generate  # noqa: E402


def fingerprint(scn):
    world = scn.world
    return (
        scn.name.split("/", 1)[0],
        tuple(scn.robot_init.as_array()),
        tuple(tuple(g) for g in scn.goals),
        tuple((tuple(a.waypoints.ravel()), a.speed, a.start_time) for a in scn.agents),
        tuple(tuple(o.ravel()) for o in world.obstacles),
        scn.agent_model,
        scn.mode,
        scn.max_steps,
        scn.lidar,
    )


def short(workload, seed, steps, episodes=1):
    return [s.with_overrides(max_steps=steps) for s in generate(workload, seed, episodes)]


@pytest.mark.parametrize("workload", sorted(GENERATORS))
def test_same_seed_same_scenarios(workload):
    a = [fingerprint(s) for s in generate(workload, 7, 3)]
    b = [fingerprint(s) for s in generate(workload, 7, 3)]
    c = [fingerprint(s) for s in generate(workload, 8, 3)]
    assert a == b
    assert a != c
    assert len(set(a)) == 3  # the episodes of one run differ too


COUNTERS = [name for name, unit in bench.PER_LAYER.items() if unit in ("count", "ratio")]


@pytest.mark.parametrize("workload", ["corner-occluded", "pillars-crowd"])
def test_traced_counters_repeat(workload):
    def traced_counters():
        tracer = tracing.Tracer()
        runs = bench.run_episodes(short(workload, 3, 6), tracer)
        untraced = bench.run_episodes(short(workload, 3, 6))
        assert bench.same_trajectories(runs, untraced)
        values = bench.layer_metrics(tracer, runs, untraced)
        # Self times partition each step exactly.
        assert sum(tracer.self_times().values()) * 1e3 / tracer.steps == pytest.approx(
            values["sim_engine.step_ms"], rel=1e-9
        )
        return {name: values[name] for name in COUNTERS}

    first, second = traced_counters(), traced_counters()
    assert first == second
    assert first["solver.qp_calls_per_step"] > 0


class _Spy(AgentScript):
    """A standing agent that records, at every step, what each trace target
    currently resolves to."""

    seen: list = []

    def position(self, tau):
        _Spy.seen.append([getattr(owner, attr) for owner, attr, _, _ in tracing.TARGETS])
        return super().position(tau)


def test_untraced_run_has_no_span_wrappers():
    originals = [getattr(owner, attr) for owner, attr, _, _ in tracing.TARGETS]
    scn = short("corner-occluded", 1, 3)[0]
    spy = _Spy(waypoints=np.array([[8.0, 4.0]]), speed=0.0)
    scn = scn.with_overrides(agents=scn.agents + [spy])
    _Spy.seen = []
    runs = bench.run_episodes([scn])
    assert len(runs[0].log) == 3 and _Spy.seen
    probed = {"step", "solve"}  # the step timer and the audit's solve recorder
    for seen in _Spy.seen:
        for (owner, attr, _, _), now, orig in zip(tracing.TARGETS, seen, originals):
            if owner is sim_engine and attr in probed:
                assert now is not orig and not hasattr(now, "__wrapped__")
            else:
                assert now is orig, attr
    assert [getattr(owner, attr) for owner, attr, _, _ in tracing.TARGETS] == originals


def test_benchmark_json_lists_the_printed_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == bench.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == bench.PER_LAYER
    assert {w["name"] for w in spec["workloads"]} == set(GENERATORS) == set(bench.EPISODE_SECONDS)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "corner-occluded", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
