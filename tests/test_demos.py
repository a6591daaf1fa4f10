"""The demos run to completion, so an API change that breaks one fails here."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = ROOT / "demos"


def demo_env(**extra):
    env = dict(os.environ, **extra)
    paths = [str(ROOT / "src"), env.get("PYTHONPATH")]
    env["PYTHONPATH"] = os.pathsep.join(p for p in paths if p)
    return env


@pytest.mark.parametrize(
    "script", sorted(p.name for p in DEMOS.glob("0[1-4]_*.py"))
)
def test_python_demo_runs(script):
    r = subprocess.run(
        [sys.executable, str(DEMOS / script)],
        capture_output=True,
        text=True,
        env=demo_env(),
        timeout=120,
    )
    assert r.returncode == 0, r.stderr


def test_cli_pipeline_demo_runs(tmp_path):
    # the demo calls `fialg` by name; a shim on PATH runs this checkout's CLI
    shim = tmp_path / "fialg"
    shim.write_text(f'#!/bin/sh\nexec "{sys.executable}" -m fialg "$@"\n')
    shim.chmod(0o755)
    path = str(tmp_path) + os.pathsep + os.environ.get("PATH", "")
    r = subprocess.run(
        ["sh", str(DEMOS / "05_cli_pipeline.sh")],
        capture_output=True,
        text=True,
        env=demo_env(PATH=path),
        timeout=120,
    )
    assert r.returncode == 0, r.stderr
    assert "pipeline complete" in r.stdout
