import importlib.util
import json
from pathlib import Path

import numpy as np
import pytest

import oampc.sim_engine
from oampc.summarize import read

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("step_logs", ROOT / "tools" / "step_logs.py")
step_logs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(step_logs)


def short_runs(monkeypatch):
    """One episode per workload and seed, cut at 4 steps."""
    monkeypatch.setattr(step_logs, "episodes_for", lambda workload, seconds: 1)
    monkeypatch.setattr(step_logs, "run", lambda scn: oampc.sim_engine.run(scn.with_overrides(max_steps=4)))


class TestAgainst:
    def test_same_plans_exit_zero_and_a_moved_plan_one(self, tmp_path, monkeypatch, capsys):
        short_runs(monkeypatch)
        args = ["--workloads", "corner-fast", "--seeds", "1"]
        assert step_logs.main([str(tmp_path / "a"), *args]) == 0
        capsys.readouterr()
        # The same commit: every plan the same, and equal totals.
        assert step_logs.main([str(tmp_path / "b"), *args, "--against", str(tmp_path / "a")]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out[0].endswith("0: 4 steps, budget, first plan difference: none")
        assert out[1] == "corner-fast seed 1, totals of 1 episodes:"
        rows = [json.loads(line) for line in (tmp_path / "a/corner-fast/1/0.jsonl").read_text().splitlines()]
        probes = sum(row["probes"] for row in rows)
        assert f"  probes: {probes} against {probes}" in out
        assert out[2:4] == ["  steps: 4 against 4", "  failed steps: 0 against 0"]
        assert [line.split(":")[0].strip() for line in out[2:]] == [
            "steps", "failed steps", "failed moving steps", "moving collision steps", "stopped collision steps",
            "largest audit_violation",
            "probes", "infeasible probes", "SQP iterations", "QP solves", "penalty rungs", "interior-point iterations",
        ]
        # A log to compare with whose step-2 plan differs in its last bit and
        # that used the fallback there, with one more probe at step 3.
        rows[2]["plan"]["inputs"][0][0] = float(np.nextafter(rows[2]["plan"]["inputs"][0][0], 9.0))
        rows[2]["fallback_used"] = True
        rows[3]["probes"] += 1
        (tmp_path / "a/corner-fast/1/0.jsonl").write_text("".join(json.dumps(row) + "\n" for row in rows))
        assert step_logs.main([str(tmp_path / "b"), *args, "--against", str(tmp_path / "a")]) == 1
        out = capsys.readouterr().out.splitlines()
        assert out[0].endswith(f"first plan difference: 2 (tau {rows[2]['tau']!r}): plan")
        assert "  failed steps: 0 against 1" in out
        assert f"  probes: {probes} against {probes + 1}" in out

    def test_counters_alone_exit_zero(self, tmp_path, monkeypatch, capsys):
        # Only plans decide the exit status; moved counters show in the totals.
        short_runs(monkeypatch)
        args = ["--workloads", "pillars-crowd", "--seeds", "2"]
        assert step_logs.main([str(tmp_path / "a"), *args]) == 0
        path = tmp_path / "a/pillars-crowd/2/0.jsonl"
        rows = [json.loads(line) for line in path.read_text().splitlines()]
        qp_solves = sum(row["qp_solves"] for row in rows)
        rows[1]["qp_solves"] += 4
        path.write_text("".join(json.dumps(row) + "\n" for row in rows))
        capsys.readouterr()
        assert step_logs.main([str(tmp_path / "b"), *args, "--against", str(tmp_path / "a")]) == 0
        assert f"  QP solves: {qp_solves} against {qp_solves + 4}" in capsys.readouterr().out.splitlines()

    def test_a_missing_log_exits_two_before_any_episode_runs(self, tmp_path, monkeypatch, capsys):
        # DIR holds seed 1's log, not seed 2's: nothing runs, and the error
        # names the first missing log.
        short_runs(monkeypatch)
        args = ["--workloads", "corner-fast", "--seeds", "1", "2"]
        assert step_logs.main([str(tmp_path / "a"), "--workloads", "corner-fast", "--seeds", "1"]) == 0
        capsys.readouterr()
        ran = []
        monkeypatch.setattr(step_logs, "run", lambda scn: ran.append(scn))
        with pytest.raises(SystemExit) as raised:
            step_logs.main([str(tmp_path / "b"), *args, "--against", str(tmp_path / "a")])
        assert raised.value.code == 2 and not ran and not (tmp_path / "b").exists()
        out, err = capsys.readouterr()
        assert out == "" and err.endswith(f"error: no log {tmp_path / 'a/corner-fast/2/0.jsonl'} to compare with\n")

    def test_totals_over_the_seeds_of_a_workload(self, tmp_path, monkeypatch, capsys):
        # With two or more seeds, each workload's seeds are followed by the
        # totals over all of them: the counts summed, the largest violation
        # the largest. One seed prints no such block.
        short_runs(monkeypatch)
        args = ["--workloads", "corner-fast", "--seeds", "1", "2"]
        assert step_logs.main([str(tmp_path / "a"), *args]) == 0
        assert step_logs.main([str(tmp_path / "a"), "--workloads", "corner-fast", "--seeds", "3"]) == 0
        path = tmp_path / "a/corner-fast/2/0.jsonl"
        rows = [json.loads(line) for line in path.read_text().splitlines()]
        rows[3]["audit_violation"] = 0.5
        path.write_text("".join(json.dumps(row) + "\n" for row in rows))
        capsys.readouterr()
        assert step_logs.main([str(tmp_path / "b"), *args, "--against", str(tmp_path / "a")]) == 0
        out = capsys.readouterr().out.splitlines()
        at = out.index("corner-fast seeds 1 2, totals of 2 episodes:")
        assert at == len(out) - 13 and out[at - 13] == "corner-fast seed 2, totals of 1 episodes:"
        ours = [read(tmp_path / f"b/corner-fast/{seed}/0.jsonl") for seed in (1, 2)]
        probes = sum(row["probes"] for rows in ours for row in rows)
        worst = max(row["audit_violation"] for rows in ours for row in rows)
        assert out[at + 1 : at + 3] == ["  steps: 8 against 8", "  failed steps: 0 against 1"]
        assert f"  probes: {probes} against {probes}" in out[at:]
        assert f"  largest audit_violation: {worst!r} against 0.5" in out[at:]
        args = ["--workloads", "corner-fast", "--seeds", "3", "--against", str(tmp_path / "a")]
        assert step_logs.main([str(tmp_path / "b"), *args]) == 0
        assert not any(" seeds " in line for line in capsys.readouterr().out.splitlines())
