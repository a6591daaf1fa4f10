"""Record the report digests the correctness gate compares against.

    python3 perfbench/record_digests.py --seeds 0-19

Runs one pass of every workload per seed and writes perfbench/digests.json:
per workload the command ids of a pass, and per seed the SHA-256 digest of
each command's output.  A pass whose outcomes miss their expectations is
not recorded.  Seeded reports are byte-identical by contract, so re-record
only with a change that alters them on purpose, and say so in CHANGES.md.
"""

from __future__ import annotations

import argparse
import json
import shutil
import signal
import sys

import run
from clock import Clock
from spread import seed_list
from workloads import WORKLOADS


def record(name: str, seeds) -> dict:
    workload = WORKLOADS[name]
    entry = {"commands": None, "seeds": {}}
    workdir = run.ROOT / ".perfbench_work" / f"record-{name}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        for seed in seeds:
            fialg, commands = run.set_up(workload, seed, workdir)
            p = run.run_pass(commands, fialg.algebra.incidence_algebra.cache_clear, Clock())
            for command, outcome in zip(commands, p["outcomes"]):
                problems = run.gate.check(command.expect, outcome)
                if problems:
                    sys.exit(f"{name} seed {seed} {command.id}: {'; '.join(problems)}")
            entry["commands"] = [c.id for c in commands]
            entry["seeds"][str(seed)] = [o.digest for o in p["outcomes"]]
            print(f"{name} seed {seed}: {len(commands)} digests", flush=True)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return entry


def dumps(doc: dict) -> str:
    """JSON with one line per command list and per seed."""
    lines = []
    for name, entry in doc.items():
        seeds = [f'   "{seed}": {json.dumps(d)}' for seed, d in entry["seeds"].items()]
        lines.append(f' {json.dumps(name)}: {{\n  "commands": {json.dumps(entry["commands"])},\n'
                     '  "seeds": {\n' + ",\n".join(seeds) + "\n  }\n }")
    return "{\n" + ",\n".join(lines) + "\n}\n"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default="0-19")
    args = parser.parse_args()
    sys.path.insert(0, str(run.ROOT / "src"))
    signal.signal(signal.SIGALRM, run._on_alarm)
    doc = {name: record(name, seed_list(args.seeds)) for name in WORKLOADS}
    run.DIGESTS.write_text(dumps(doc), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
