"""Self-tests of the benchmark: every workload passes its gate at a reduced
size, the traced run restores every wrapped name, the gate rejects a wrong
digest or exit code, and the benchmark's own files agree with each other.

    python3 -m pytest perfbench -q
"""

import dataclasses
import json
import shutil
import signal
import subprocess
import sys

import pytest

import run
from clock import Clock
from spans import Tracer
from workloads import WORKLOADS

sys.path.insert(0, str(run.ROOT / "src"))

SEED = 1  # a seed with recorded digests

# One cheap instance per workload (its perturbed copy comes along).
REDUCED = {
    "gen-connected": "B3/Z#1",
    "split-components": "chain-4+diamond/Z9",
    "audit-identities": "B3/Z9",
    "twisted-codomain": "B3/Z",
}


@pytest.fixture
def workdir():
    path = run.ROOT / ".perfbench_work" / "selftest"
    path.mkdir(parents=True, exist_ok=True)
    previous = signal.signal(signal.SIGALRM, run._on_alarm)
    yield path
    signal.signal(signal.SIGALRM, previous)
    shutil.rmtree(path, ignore_errors=True)


def reduced(name, workdir):
    fialg, commands = run.set_up(WORKLOADS[name], SEED, workdir)
    keep = REDUCED[name]
    subset = [c for c in commands if c.instance.split("~")[0] == keep]
    assert subset, f"{keep} is not an instance of {name}"
    return fialg, subset


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_reduced_workload_passes_its_gate(name, workdir):
    fialg, commands = reduced(name, workdir)
    p = run.run_pass(commands, fialg.algebra.incidence_algebra.cache_clear, Clock())
    attempted, failures, note = run.gate_passes(name, SEED, commands, [p])
    assert attempted == len(commands)
    assert failures == []  # ops_failed_frac == 0
    assert note.startswith("report digests checked against the record")


def _bindings(fialg):
    """Every name of every fialg module and traced class, with its object."""
    out = {}
    for modname, module in sys.modules.items():
        if module is not None and (modname == "fialg" or modname.startswith("fialg.")):
            for attr, value in vars(module).items():
                out[(modname, attr)] = value
    for cls in (fialg.algebra.StructAlgebra, fialg.algebra.FinSeries, fialg.linmaps.LinMap):
        for attr, value in vars(cls).items():
            out[(cls.__qualname__, attr)] = value
    return out


def test_traced_run_restores_every_original(workdir):
    fialg, commands = reduced("split-components", workdir)
    before = _bindings(fialg)
    clear_cache = fialg.algebra.incidence_algebra.cache_clear
    tracer = Tracer()
    tracer.install(fialg)
    try:
        wrapped = [key for key, value in _bindings(fialg).items() if value is not before[key]]
        p = run.run_pass(commands, clear_cache, Clock(), tracer)
    finally:
        tracer.uninstall()
    # the wrappers were in place at every import site of a traced name ...
    for key in [("fialg.jordan", "decompose"), ("fialg.cli", "decompose"),
                ("fialg", "decompose"), ("fialg.jordan", "run_check"),
                ("fialg.linmaps", "mat_vec"), ("StructAlgebra", "multiply"),
                ("LinMap", "from_json")]:
        assert key in wrapped
    # ... the trace saw the run ...
    layers = tracer.per_layer()
    assert layers["reports.run_check.jordan_pairs.failures"] > 0
    assert layers["algebra.multiply.calls"] > 0
    assert all(not problems for problems in (
        run.gate.check(c.expect, o) for c, o in zip(commands, p["outcomes"])))
    # ... and afterwards every name is the original object again.
    after = _bindings(fialg)
    assert after.keys() == before.keys()
    assert [key for key in before if after[key] is not before[key]] == []


def test_gate_catches_wrong_digest_and_exit_code(workdir):
    fialg, commands = reduced("split-components", workdir)
    p = run.run_pass(commands, fialg.algebra.incidence_algebra.cache_clear, Clock())
    recorded = run.recorded_digests("split-components", SEED)
    for command, outcome in zip(commands, p["outcomes"]):
        assert run.gate.check(command.expect, outcome, recorded[command.id]) == []
        corrupted = recorded[command.id][:-1] + ("0" if recorded[command.id][-1] != "0" else "1")
        assert run.gate.check(command.expect, outcome, corrupted)
        wrong_exit = dataclasses.replace(outcome, exit_code=outcome.exit_code ^ 1)
        assert run.gate.check(command.expect, wrong_exit)
    timed_out = run.gate.Outcome(None, "", "over its cap")
    assert run.gate.check(commands[0].expect, timed_out) == ["over its cap"]


def test_gate_needs_witnesses_on_a_failing_report():
    expect = run.gate.Expect(1, passed=False)
    bare = json.dumps({"pass": False, "checks": [
        {"name": "x", "pass": False, "failure_count": 1, "witnesses": []}]})
    assert run.gate.check(expect, run.gate.Outcome(1, bare, ""))


def test_benchmark_files_agree():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    manifest = json.loads((run.HERE / "manifest.json").read_text())
    assert [(w["name"], w["why"]) for w in spec["workloads"]] == [
        (w.name, w.why) for w in WORKLOADS.values()
    ]
    assert {name: w["instances"] for name, w in manifest["workloads"].items()} == {
        w.name: w.describe() for w in WORKLOADS.values()
    }
    per_layer = [m["name"] for m in spec["per_layer"]]
    assert sorted(per_layer) == sorted([*Tracer().per_layer(), "trace.overhead_ratio"])
    digests = json.loads(run.DIGESTS.read_text())
    for name in WORKLOADS:
        assert set(digests[name]["seeds"]) >= set(map(str, manifest["baseline"]["seeds"]))
    assert not set(manifest["baseline"]["seeds"]) & set(manifest["held_out_seeds"])


def test_without_sources_it_fails_without_a_result():
    bare = run.ROOT / ".perfbench_work" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(run.HERE, bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    try:
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "gen-connected",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=60,
        )
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
