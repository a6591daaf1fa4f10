"""The correctness gate: what each benchmark command must produce.

Every command has an expected outcome fixed by how its instance was built:
a generated Jordan map passes, a recorded perturbation fails in a known way.
On top of that, the SHA-256 digest of each command's output must equal the
digest recorded for that seed (``digests.json``), because seeded reports are
byte-identical by contract.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass


@dataclass(frozen=True)
class Expect:
    """exit_code as documented by the CLI (0 pass, 1 checks failed, 2 input
    or precondition error); passed is the report's verdict when one is
    written; error names the exception class the diagnostic must mention."""

    exit_code: int
    passed: bool | None = None
    error: str | None = None


@dataclass(frozen=True)
class Outcome:
    """What one command produced.  exit_code is None when it hit its cap."""

    exit_code: int | None
    report: str
    stderr: str

    @property
    def digest(self) -> str:
        return hashlib.sha256((self.report + "\0" + self.stderr).encode()).hexdigest()


def verdict(report: str):
    """The pass flag of a JSON report: its ``pass`` key, or every check's
    ``pass`` for a decomposition; None for output without checks (a map)."""
    try:
        obj = json.loads(report)
    except ValueError:
        return None
    if not isinstance(obj, dict):
        return None
    if "pass" in obj:
        return obj["pass"]
    if "checks" in obj:
        return all(c["pass"] for c in obj["checks"])
    return None


def _has_witnesses(report: str) -> bool:
    obj = json.loads(report)
    return any(
        not c["pass"] and c["failure_count"] > 0 and c["witnesses"]
        for c in obj.get("checks", ())
    )


def check(expect: Expect, outcome: Outcome, digest: str | None = None) -> list[str]:
    """Every way the outcome departs from the expectation; empty when it
    matches.  digest is the reference digest, when one is known."""
    if outcome.exit_code is None:
        return [outcome.stderr]
    problems = []
    if outcome.exit_code != expect.exit_code:
        problems.append(f"exit code {outcome.exit_code}, expected {expect.exit_code}")
    if expect.passed is not None:
        got = verdict(outcome.report)
        if got != expect.passed:
            problems.append(f"report pass is {got}, expected {expect.passed}")
        elif got is False and not _has_witnesses(outcome.report):
            problems.append("failing report carries no witnesses")
    if expect.error is not None and expect.error not in outcome.stderr:
        problems.append(f"diagnostic does not name {expect.error}")
    if digest is not None and outcome.digest != digest:
        problems.append(f"digest {outcome.digest[:16]}… differs from {digest[:16]}…")
    return problems
