"""The benchmark's correctness gate, run as a test: one untimed pass of
every perfbench workload checks each command's exit code, verdict and the
SHA-256 digest of its output against perfbench/digests.json."""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).parents[1]


def test_every_benchmark_command_keeps_its_recorded_digest():
    argv = ["perfbench/run.py", "--workload", "all", "--seed", "1", "--seconds", "0"]
    r = subprocess.run(
        [sys.executable, *argv], cwd=ROOT, capture_output=True, text=True, timeout=600
    )
    assert r.returncode == 0, r.stderr
    verdict = json.loads(r.stdout.splitlines()[-1])
    assert verdict["correct"] is True and verdict["failed"] == 0, r.stdout
