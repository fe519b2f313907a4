"""What the test modules share: the benchmark's workloads on the import path,
the corner scenario, one call recorder, and four closed-loop runs of the
benchmark's workloads that the replay tests read, each made once a session.

recording(*targets) wraps each target, the dotted path of a function or a
method such as "oampc.solver.solve_qp", while its block runs: every call is
passed through and kept as a Call, with the index of the closed-loop step
that made it, its arguments as passed (not copied) and its result.
"""

import functools
import pkgutil
import sys
from contextlib import contextmanager
from pathlib import Path
from typing import Any, NamedTuple, Optional

import numpy as np
import pytest

import oampc.sim_engine
from oampc.nmpc import MpcParams
from oampc.reachability import AgentModel
from oampc.sim_engine import MODE_OCCLUSION_AWARE, AgentScript, Scenario, TrajectoryLog
from oampc.unicycle import RobotState
from oampc.world import WorldMap, rectangle

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
from workloads import generate  # noqa: E402


def corner_scenario(**fields) -> Scenario:
    """Two blocks leave a 1.6 m corridor at 2 <= x <= 4; a pedestrian walks
    down x = 4.8 at 0.5 m/s, hidden behind the upper block at the start.
    `fields` replace the defaults before the scenario is built."""
    world = WorldMap(
        boundary=rectangle(-1, -3, 10, 6),
        obstacles=[rectangle(2, 0.8, 4, 5), rectangle(2, -3, 4, -0.8)],
    )
    ped = AgentScript(waypoints=np.array([[4.8, 4.5], [4.8, -2.5]]), speed=0.5, initially_hidden=True)
    defaults = dict(
        name="corner",
        world=world,
        robot_init=RobotState(0.0, 0.0, 0.0),
        goals=[np.array([8.0, 0.0])],
        agents=[ped],
        mpc=MpcParams(state_bounds=(-1, 10, -3, 6)),
        agent_model=AgentModel(0.5),
        mode=MODE_OCCLUSION_AWARE,
        max_steps=64,
    )
    return Scenario(**{**defaults, **fields})


class Call(NamedTuple):
    """One recorded call. step is the index of the closed-loop step that
    made it, None outside one; result is what the call returned, or the
    exception it raised."""

    step: Optional[int]
    args: tuple
    kwargs: dict
    result: Any


def _owner(target: str) -> tuple[Any, str]:
    path, _, name = target.rpartition(".")
    return pkgutil.resolve_name(path), name


@contextmanager
def recording(*targets: str):
    """Record every call of each target until the block ends, then restore
    the targets. Yields one list of Calls per target, in the order given."""
    calls = tuple([] for _ in targets)
    step = None

    def recorded(fn, into):
        def call(*args, **kwargs):
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                into.append(Call(step, args, kwargs, exc))
                raise
            into.append(Call(step, args, kwargs, result))
            return result

        return call

    run_step = oampc.sim_engine.step

    def numbered_step(sim, log):
        nonlocal step
        step = len(log)  # the index of the record this step appends
        try:
            return run_step(sim, log)
        finally:
            step = None

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(oampc.sim_engine, "step", numbered_step)
        for target, into in zip(targets, calls):
            owner, name = _owner(target)
            patch.setattr(owner, name, recorded(getattr(owner, name), into))
        yield calls


class RecordedRun(NamedTuple):
    """A closed-loop run of a scenario and the calls recorded during it."""

    scenario: Scenario
    log: TrajectoryLog
    recorded: dict[str, list[Call]]

    def calls(self, target: str, steps: Optional[int] = None) -> list[Call]:
        """The calls of target made in the first `steps` steps, or in all."""
        return [call for call in self.recorded[target] if steps is None or call.step < steps]


# The four shared runs, seed-1 episode 0 of a workload's generation of
# `episodes` episodes, and the targets some test reads from each.
RUNS = {
    ("pillars-crowd", 1, 30): (
        "oampc.sim_engine.solve",
        "oampc.sim_engine.downsample",
        "oampc.nmpc._NlpEvaluator.__call__",
        "oampc.nmpc.solve_sqp",
        "oampc.solver.solve_qp",
    ),
    ("corner-fast", 1, 56): ("oampc.sim_engine.solve", "oampc.solver.solve_qp"),
    ("corner-occluded", 1, 47): ("oampc.sim_engine.solve", "oampc.solver.solve_qp"),
    ("corner-fast", 2, 24): ("oampc.nmpc.solve_sqp",),
}
_UNPATCHED = {t: getattr(*_owner(t)) for t in {"oampc.sim_engine.step", *(t for ts in RUNS.values() for t in ts)}}


@functools.cache
def recorded_run(workload: str, episodes: int, steps: int) -> RecordedRun:
    """The first `steps` steps of seed-1 episode 0 of `episodes` episodes of
    workload, with the calls of the targets RUNS lists for it, run once."""
    targets = RUNS[workload, episodes, steps]
    patched = [t for t in ("oampc.sim_engine.step", *targets) if getattr(*_owner(t)) is not _UNPATCHED[t]]
    assert not patched, f"a shared run recorded while {patched} are patched"
    scenario = generate(workload, 1, episodes)[0].with_overrides(max_steps=steps)
    with recording(*targets) as calls:
        log, _ = oampc.sim_engine.run(scenario)
    return RecordedRun(scenario, log, dict(zip(targets, calls)))


@pytest.fixture(scope="session")
def pillars_crowd_run():
    return recorded_run("pillars-crowd", 1, 30)


@pytest.fixture(scope="session")
def corner_fast_run():
    return recorded_run("corner-fast", 1, 56)


@pytest.fixture(scope="session")
def corner_occluded_run():
    """The whole episode: it reaches its goal in 47 steps."""
    return recorded_run("corner-occluded", 1, 47)


@pytest.fixture(scope="session")
def corner_fast_two_episodes_run():
    """Episode 0 of corner-fast's two-episode generation, another scenario
    than episode 0 of its one-episode generation."""
    return recorded_run("corner-fast", 2, 24)
