"""Benchmark of the fialg pipeline gen-jordan -> decompose -> verify
[--identities], end to end and, in a traced run, layer by layer.

    python3 perfbench/run.py --workload gen-connected --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all --seed 1

Run from the root of a checkout: the program is imported from ./src, inputs
are written under ./.perfbench_work and traces under ./.perfbench_out.

For --seconds the run repeats: import fialg afresh and build the inputs
(one set-up), then run every command of the workload once (one pass).
Times are in reference seconds (see clock.py), and each end-to-end time
is the median over the run: setup_s over the set-ups, pipeline_s and the
stage sums over the passes.  With --trace 1 it then installs the wrappers,
sets up and runs one more pass traced, restores every original and
reports the per-layer metrics instead.  Every command's outcome goes
through the correctness gate; the last line of standard output is the
JSON result.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import resource
import shutil
import signal
import subprocess
import sys
import traceback
from pathlib import Path
from statistics import median
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import gate  # noqa: E402
from clock import Clock  # noqa: E402
from spans import Tracer  # noqa: E402
from workloads import STAGES, WORKLOADS  # noqa: E402

COMMAND_CAP_S = 60.0
DIGESTS = HERE / "digests.json"


class CommandTimeout(BaseException):
    """Raised by the alarm inside a command that overran its cap; a
    BaseException so that no handler in the program swallows it."""


def _on_alarm(signum, frame):
    raise CommandTimeout


def fresh_fialg():
    """Import fialg from ./src anew, as a fresh process would."""
    for name in [m for m in sys.modules if m == "fialg" or m.startswith("fialg.")]:
        del sys.modules[name]
    fialg = importlib.import_module("fialg")
    importlib.import_module("fialg.cli")
    if not Path(fialg.__file__).resolve().is_relative_to(ROOT / "src"):
        raise RuntimeError(f"fialg was imported from {fialg.__file__}, not ./src")
    return fialg


def execute(command) -> gate.Outcome:
    signal.setitimer(signal.ITIMER_REAL, COMMAND_CAP_S)
    try:
        return command.run()
    except CommandTimeout:
        return gate.Outcome(None, "", f"over its cap of {COMMAND_CAP_S:g} s")
    except Exception:
        return gate.Outcome(3, "", traceback.format_exc())
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)


def run_pass(commands, clear_cache, clock, tracer=None):
    """One pass: every command back to back.  Each command first empties
    the incidence_algebra cache, so it pays the construction a fresh fialg
    process pays.  Per command: wall and reference seconds (clock.py)."""
    wall, ref, outcomes = [], [], []
    for command in commands:
        clear_cache()
        if tracer is None:
            outcome, w, r = clock.time(execute, command)
        else:
            tracer.request = command.id
            outcome, w, r = clock.time(
                tracer.region, f"command.{command.stage}", execute, command
            )
        wall.append(w)
        ref.append(r)
        outcomes.append(outcome)
    return {"wall": wall, "ref": ref, "outcomes": outcomes}


def pass_times(commands, p, key: str) -> dict:
    """A pass's pipeline_s and per-stage sums, in wall or reference seconds."""
    values = {f"{stage}_s": 0.0 for stage in STAGES}
    for command, t in zip(commands, p[key]):
        values[f"{command.stage}_s"] += t
    values["pipeline_s"] = sum(p[key])
    return values


def median_times(commands, passes, setups, key: str) -> dict:
    """setup_s, pipeline_s and the stage sums, each the median of the run."""
    per_pass = [pass_times(commands, p, key) for p in passes]
    values = {k: median(v[k] for v in per_pass) for k in per_pass[0]}
    values["setup_s"] = median(s[key] for s in setups)
    return values


def recorded_digests(workload: str, seed: int):
    """The digests recorded for this seed, by command id, or None."""
    if not DIGESTS.is_file():
        return None
    entry = json.loads(DIGESTS.read_text(encoding="utf-8")).get(workload)
    if not entry or str(seed) not in entry["seeds"]:
        return None
    return dict(zip(entry["commands"], entry["seeds"][str(seed)]))


def gate_passes(workload, seed, commands, passes):
    """Check every outcome; returns (attempted, failure lines, digest note)."""
    recorded = recorded_digests(workload, seed)
    first = [o.digest for o in passes[0]["outcomes"]]
    failures = []
    attempted = 0
    for k, p in enumerate(passes):
        for i, (command, outcome) in enumerate(zip(commands, p["outcomes"])):
            attempted += 1
            if recorded is not None:
                reference = recorded.get(command.id, "missing")
            else:
                reference = first[i] if k else None
            problems = gate.check(command.expect, outcome, reference)
            if problems:
                failures.append(
                    f"FAIL {workload} seed={seed} pass={k} {command.id}: "
                    + "; ".join(problems)
                )
    if recorded is not None:
        note = "report digests checked against the record in perfbench/digests.json"
    else:
        note = (f"seed {seed} has no recorded digests; "
                "reports checked for identity across passes only")
    return attempted, failures, note


def measure(workload, seed: int, workdir: Path, seconds: float, clock):
    """Set up and run a pass, again and again for `seconds` (at least
    twice).  Each set-up imports fialg afresh and rebuilds the inputs, so
    set-up times are sampled across the run like the passes."""
    setups, passes = [], []
    start = perf_counter()
    while len(passes) < 2 or perf_counter() - start < seconds:
        (fialg, commands), wall, ref = clock.time(set_up, workload, seed, workdir)
        setups.append({"wall": wall, "ref": ref})
        passes.append(run_pass(commands, fialg.algebra.incidence_algebra.cache_clear, clock))
    return setups, passes, fialg, commands


def set_up(workload, seed: int, workdir: Path):
    fialg = fresh_fialg()
    return fialg, workload.build(fialg, seed, workdir)


def spec_metrics(kind: str):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec[kind]}


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    workload = WORKLOADS[name]
    workdir = ROOT / ".perfbench_work" / f"{name}-{seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    signal.signal(signal.SIGALRM, _on_alarm)
    clock = Clock()
    try:
        setups, passes, fialg, commands = measure(workload, seed, workdir, seconds, clock)
        if trace:
            clear_cache = fialg.algebra.incidence_algebra.cache_clear
            tracer = Tracer()
            tracer.install(fialg)
            try:
                traced_commands = tracer.region("bench.setup", workload.build, fialg, seed, workdir)
                traced = tracer.region(
                    "bench.pass", run_pass, traced_commands, clear_cache, clock, tracer
                )
            finally:
                tracer.uninstall()
            out = ROOT / ".perfbench_out"
            out.mkdir(exist_ok=True)
            tracer.dump(out / f"trace-{name}-seed{seed}.json")
        attempted, failures, note = gate_passes(
            name, seed, commands, passes + ([traced] if trace else [])
        )
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for line in failures:
        print(line)
    print(f"# {name} seed={seed}: {len(passes)} passes of {len(commands)} commands; {note}")
    wall = median_times(commands, passes, setups, "wall")
    ref = median_times(commands, passes, setups, "ref")
    if trace:
        values = tracer.per_layer()
        values["trace.overhead_ratio"] = (
            pass_times(commands, traced, "ref")["pipeline_s"] / ref["pipeline_s"]
        )
        units = spec_metrics("per_layer")
    else:
        values = {
            **ref,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        units = spec_metrics("end_to_end")
    print(f"ops_failed_frac {len(failures) / attempted:.6g} ratio "
          f"({len(failures)} of {attempted} commands)")
    metrics = {}
    for metric, unit in units.items():
        metrics[metric] = {"value": values[metric], "unit": unit}
        raw = f"  (wall median {wall[metric]:.6g} s)" if metric in wall and not trace else ""
        print(f"{metric} {values[metric]:.6g} {unit}{raw}")
    return {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": metrics,
    }


def run_all(args) -> int:
    """Every workload in a process of its own, one after the other."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    status = 0
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=300,
        )
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            status = proc.returncode
            merged["correct"] = False
            continue
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        merged["correct"] &= result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            merged["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(merged))
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=15)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "fialg" / "__init__.py").is_file():
        print(f"perfbench: no fialg sources at {ROOT / 'src' / 'fialg'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    if args.workload == "all":
        return run_all(args)
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
