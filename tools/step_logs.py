#!/usr/bin/env python3
"""Write the step log and `Metrics` of every episode of benchmark workloads.

    python3 tools/step_logs.py OUT --seeds 1 2 3
    python3 tools/step_logs.py OUT --workloads corner-occluded --seeds 1
    python3 tools/step_logs.py OUT --seeds 1 2 3 --against DIR

For each workload and seed, runs the episodes that
`perfbench/run.py --workload W --seed S --seconds T --trace 0` runs, with T the
`run_seconds` of BENCHMARK.json: the same scenarios, generated by
perfbench/workloads.py, one BLAS thread. Episode E is written as
OUT/W/S/E.jsonl (`TrajectoryLog.write_jsonl`) and OUT/W/S/E.metrics.json.
The logs of one episode from two checkouts compare with

    python -m oampc.summarize A/W/S/E.jsonl --against B/W/S/E.jsonl

which exits 0 when every plan, state and counter is the same to the bit.

With --against DIR, each episode's log is also compared with DIR/W/S/E.jsonl
(`summarize.compare`): its line names the first step whose plan differs, and
after each workload and seed come the number of its episodes whose plans
differ and the outcome and counter totals of its episodes, this run's against
DIR's, the steps attempted first, and with two or more seeds, after a
workload's seeds, the same over all of them. Exits 1 if any plan differs, and
2, before running any episode, if DIR lacks the log of one of them or DIR/W/S
holds more logs than the run generates: the scenarios depend on the number of
episodes generated, so those logs are of other scenarios.
"""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

# perfbench/run.py sets the benchmark's one BLAS thread when imported, so it
# comes before numpy.
from run import episodes_for  # noqa: E402

import argparse  # noqa: E402
import json  # noqa: E402
from dataclasses import asdict  # noqa: E402

from workloads import GENERATORS, generate  # noqa: E402

from oampc.sim_engine import run  # noqa: E402
from oampc.summarize import combine, compare, read, totals  # noqa: E402


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("out", type=Path, help="directory to write the logs under")
    parser.add_argument("--workloads", nargs="+", choices=sorted(GENERATORS), default=sorted(GENERATORS))
    parser.add_argument("--seeds", nargs="+", type=int, required=True)
    parser.add_argument("--against", type=Path, metavar="DIR", help="compare with the logs under DIR")
    args = parser.parse_args(argv)
    seconds = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]
    if args.against is not None:
        for workload in args.workloads:
            episodes = episodes_for(workload, seconds)
            for seed in args.seeds:
                folder = args.against / workload / str(seed)
                missing = next((i for i in range(episodes) if not (folder / f"{i}.jsonl").is_file()), None)
                if missing is not None:
                    parser.error(f"no log {folder / f'{missing}.jsonl'} to compare with")
                held = len(list(folder.glob("*.jsonl")))
                if held > episodes:
                    parser.error(f"{folder} holds {held} logs, not the {episodes} this run generates")
    moved = 0  # episodes whose plans differ
    for workload in args.workloads:
        every_ours, every_theirs, every_differ = [], [], 0
        for seed in args.seeds:
            folder = args.out / workload / str(seed)
            folder.mkdir(parents=True, exist_ok=True)
            ours, theirs, differ = [], [], 0
            for i, scenario in enumerate(generate(workload, seed, episodes_for(workload, seconds))):
                log, metrics = run(scenario)
                log.write_jsonl(folder / f"{i}.jsonl")
                (folder / f"{i}.metrics.json").write_text(json.dumps(asdict(metrics)) + "\n")
                line = f"{folder / str(i)}: {len(log)} steps, {metrics.terminal_reason}"
                if args.against is not None:
                    a, b = read(folder / f"{i}.jsonl"), read(args.against / workload / str(seed) / f"{i}.jsonl")
                    lines, _, same = compare(a, b)
                    differ += not same
                    line += ", " + next(x for x in lines if x.startswith("first plan difference"))
                    ours.append(totals(a))
                    theirs.append(totals(b))
                print(line, flush=True)
            if ours:
                print_totals(f"{workload} seed {seed}", ours, theirs, differ)
                every_ours += ours
                every_theirs += theirs
                every_differ += differ
        if every_ours and len(args.seeds) > 1:
            print_totals(f"{workload} seeds {' '.join(map(str, args.seeds))}", every_ours, every_theirs, every_differ)
        moved += every_differ
    return 1 if moved else 0


def print_totals(what: str, ours: list[dict], theirs: list[dict], differ: int) -> None:
    """How many of these episodes' plans differ, and the combined totals of
    their logs, ours against theirs."""
    ta, tb = combine(ours), combine(theirs)
    print(f"{what}: plans differ in {differ} of {len(ours)} episodes", flush=True)
    print(f"{what}, totals of {len(ours)} episodes:", flush=True)
    print("".join(f"  {label}: {ta[label]!r} against {tb[label]!r}\n" for label in ta), end="", flush=True)


if __name__ == "__main__":
    sys.exit(main())
