"""The benchmark's workloads: inputs built from a seed, and the commands of
one pass over them.

Each workload is a closed loop with one client: its commands run back to
back in one process.  Every pass runs the pipeline gen-jordan -> decompose
-> verify, and verify --identities on some instances, so every stage metric
exists on every workload; the instance mix decides which layer dominates.

``build(fialg, seed, workdir)`` writes the workload's input files under
workdir and returns the commands of one pass.  The program sees only those
files (or, on twisted-codomain, the library objects built from them).
"""

from __future__ import annotations

import io
import itertools
import json
import random
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from gate import Expect, Outcome

STAGES = ("gen_jordan", "decompose", "verify", "identities")

RINGS = {
    "Q": {"ring": "rationals"},
    "Z": {"ring": "integers"},
    "Z9": {"ring": {"modular": 9}},
}

PASSES = Expect(0, passed=True)
GENERATED = Expect(0)
NOT_JORDAN = Expect(2, error="NotJordanError")
WITNESSED_FAILURE = Expect(1, passed=False)


@dataclass(frozen=True)
class Command:
    id: str
    instance: str
    stage: str
    run: Callable[[], Outcome]
    expect: Expect


# -- posets as (elements, covering relations) ----------------------------------


def chain(n: int, tag: str = ""):
    labels = [f"{tag}{i}" for i in range(1, n + 1)]
    return labels, list(zip(labels, labels[1:]))


def diamond(tag: str = ""):
    b, l, r, t = (tag + s for s in ("bot", "l", "r", "top"))
    return [b, l, r, t], [(b, l), (b, r), (l, t), (r, t)]


def boolean3():
    subsets = [
        frozenset(c) for k in range(4) for c in itertools.combinations("abc", k)
    ]
    name = lambda s: "".join(sorted(s)) or "0"
    covers = [
        (name(s), name(t)) for s in subsets for t in subsets
        if s < t and len(t) == len(s) + 1
    ]
    return [name(s) for s in subsets], covers


def union(*parts):
    elements, relations = [], []
    for e, r in parts:
        elements += e
        relations += r
    return elements, relations


def random_connected(fialg, size: int, comparable: int, rng: random.Random):
    """A seeded random poset on `size` elements whose comparability graph is
    connected and which has exactly `comparable` comparable pairs (diagonal
    included), drawn by rejection from fialg's own generator.  Fixing the
    pair count fixes the algebra's dimension, so seeds vary the shape and
    not the size of the work."""
    while True:
        poset = fialg.posets.random_poset(size, 0.3, rng.randrange(10**9))
        if (len(poset.components()) == 1
                and len(poset.comparable_index_pairs()) == comparable):
            obj = poset.to_json()
            return obj["elements"], obj["relations"]


FIXED_POSETS = {
    "chain-9": lambda: chain(9),
    "chain-7": lambda: chain(7),
    "chain-6": lambda: chain(6),
    "chain-5": lambda: chain(5),
    "chain-4": lambda: chain(4),
    "B3": boolean3,
    "2xchain-7": lambda: union(chain(7, "a"), chain(7, "b")),
    "2xchain-5": lambda: union(chain(5, "a"), chain(5, "b")),
    "3xchain-5": lambda: union(chain(5, "a"), chain(5, "b"), chain(5, "c")),
    "chain-4+diamond": lambda: union(chain(4, "c"), diamond("d")),
}


# -- helpers shared by the workloads ------------------------------------------


def _write(path: Path, obj) -> str:
    path.write_text(json.dumps(obj, sort_keys=True, indent=2) + "\n", encoding="utf-8")
    return str(path)


def _dump(obj) -> str:
    """The CLI's own report encoding."""
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def _cli(fialg, argv, out: str | None = None) -> Outcome:
    stdout, stderr = io.StringIO(), io.StringIO()
    with redirect_stdout(stdout), redirect_stderr(stderr):
        code = fialg.cli.run(argv)
    report = Path(out).read_text(encoding="utf-8") if out and code == 0 else stdout.getvalue()
    return Outcome(code, report, stderr.getvalue())


def perturb(phi, rng: random.Random):
    """A recorded perturbation: the column of e_x gains twice the column of
    e_y, for distinct elements x and y.

    The column operation is unipotent, so the copy is exactly as invertible
    as phi.  With P = phi(e_x) and Q = phi(e_y) the new image of e_x squares
    to P + 4Q instead of P + 2Q, so over a 2-torsion-free ring the pair law
    fails at (e_x, e_x) (decompose and verify exit 2 with NotJordanError),
    and unit_sandwich_diagonal fails at x on the delta sample (verify
    --identities exits 1 with witnesses).
    """
    x, y = rng.sample(range(phi.domain.basis.diagonal_count), 2)
    ring = phi.ring
    cols = [list(c) for c in phi.columns]
    cols[x] = [ring.add(a, ring.add(b, b)) for a, b in zip(cols[x], cols[y])]
    return type(phi)(phi.domain, phi.codomain, cols)


class Workload:
    """A named instance list.  An instance row is (poset name, ring name,
    flags, copies): flags select the optional commands below, and copies
    repeats the row with fresh seeds, so that a pass sums several
    independent draws instead of leaning on one."""

    name = ""
    why = ""
    instances: tuple = ()

    def describe(self) -> list[str]:
        return [
            f"{pname}/{ring}" + (f" x{copies}" if copies > 1 else "")
            + "".join(f" +{f}" for f in sorted(flags))
            for (pname, ring, flags, copies) in self.instances
        ]

    def poset(self, fialg, pname: str, rng: random.Random):
        if pname in FIXED_POSETS:
            return FIXED_POSETS[pname]()
        # "random9d27-a": 9 elements, 27 comparable pairs
        size, comparable = pname.removeprefix("random").split("-")[0].split("d")
        return random_connected(fialg, int(size), int(comparable), rng)

    def build(self, fialg, seed: int, workdir: Path) -> list[Command]:
        rng = random.Random(f"{self.name}/{seed}")
        commands: list[Command] = []
        ring_files = {r: _write(workdir / f"ring-{r}.json", RINGS[r]) for r in RINGS}
        rows = [
            (f"{pname}/{ring}" + (f"#{i}" if copies > 1 else ""), pname, ring, flags)
            for (pname, ring, flags, copies) in self.instances
            for i in range(1, copies + 1)
        ]
        for k, (instance, pname, ring, flags) in enumerate(rows):
            elements, relations = self.poset(fialg, pname, rng)
            inst_seed = rng.randrange(1, 10**6)
            commands += self.instance_commands(
                fialg, workdir, k, instance, (elements, relations),
                ring, ring_files[ring], flags, inst_seed, rng,
            )
        return commands

    # CLI pipeline on a generated map, plus optional perturbed-copy commands.
    def instance_commands(self, fialg, workdir, k, instance, poset, ring,
                          ring_file, flags, inst_seed, rng):
        elements, relations = poset
        poset_file = _write(workdir / f"poset-{k}.json",
                            {"elements": elements, "relations": [list(r) for r in relations]})
        map_file = str(workdir / f"map-{k}.json")
        ctx = ["--poset", poset_file, "--ring", ring_file]

        def cli(argv, out=None):
            return lambda: _cli(fialg, argv, out)

        cmds = [
            Command(f"{instance}:gen-jordan", instance, "gen_jordan",
                    cli(["gen-jordan", *ctx, "--seed", str(inst_seed), "--out", map_file],
                        map_file), GENERATED),
            Command(f"{instance}:decompose", instance, "decompose",
                    cli(["decompose", *ctx, "--map", map_file]), PASSES),
            Command(f"{instance}:verify", instance, "verify",
                    cli(["verify", *ctx, "--map", map_file]), PASSES),
        ]
        if "identities" in flags:
            cmds.append(Command(f"{instance}:verify-identities", instance, "identities",
                                cli(["verify", "--identities", *ctx, "--map", map_file]),
                                PASSES))
        if {"perturbed", "perturbed-identities"} & flags:
            poset_obj = fialg.posets.validate_poset(elements, relations)
            ring_obj = fialg.rings.ring_from_json(RINGS[ring])
            phi = fialg.jordan.random_jordan_iso(poset_obj, ring_obj, inst_seed)
            bad_file = _write(workdir / f"perturbed-{k}.json", perturb(phi, rng).to_json())
            bad = f"{instance}~perturbed"
            if "perturbed" in flags:
                cmds += [
                    Command(f"{bad}:decompose", bad, "decompose",
                            cli(["decompose", *ctx, "--map", bad_file]), NOT_JORDAN),
                    Command(f"{bad}:verify", bad, "verify",
                            cli(["verify", *ctx, "--map", bad_file]), NOT_JORDAN),
                ]
            if "perturbed-identities" in flags:
                cmds.append(Command(f"{bad}:verify-identities", bad, "identities",
                                    cli(["verify", "--identities", *ctx, "--map", bad_file]),
                                    WITNESSED_FAILURE))
        return cmds


class GenConnected(Workload):
    name = "gen-connected"
    why = ("connected 9-element posets make gen-jordan enumerate all n! "
           "permutations twice, so order_isomorphisms dominates the pass")
    instances = (
        ("chain-9", "Z9", frozenset(), 1),
        ("B3", "Q", frozenset(), 3),
        ("B3", "Z", frozenset({"identities"}), 2),
        ("B3", "Z9", frozenset({"identities"}), 2),
        ("random9d27-a", "Z", frozenset({"identities"}), 1),
        ("random9d27-b", "Z9", frozenset({"identities"}), 1),
    )


class SplitComponents(Workload):
    name = "split-components"
    why = ("components of at most 7 elements keep generation cheap, so the "
           "recognizers, StructAlgebra.multiply and LinMap.invert dominate, "
           "on Jordan maps and on perturbed copies that take the witness path")
    instances = (
        ("2xchain-7", "Z", frozenset({"perturbed"}), 1),
        ("2xchain-7", "Z9", frozenset({"perturbed"}), 1),
        ("3xchain-5", "Q", frozenset({"perturbed"}), 1),
        ("3xchain-5", "Z9", frozenset({"perturbed"}), 2),
        ("chain-4+diamond", "Q", frozenset({"perturbed", "identities"}), 1),
        ("chain-4+diamond", "Z", frozenset({"perturbed", "identities"}), 1),
        ("chain-4+diamond", "Z9", frozenset({"perturbed", "identities"}), 1),
    )


class AuditIdentities(Workload):
    name = "audit-identities"
    why = ("verify --identities on Jordan maps and perturbed copies stresses "
           "FinSeries convolution, mat_vec, Fraction arithmetic and the 13 "
           "identity families")
    instances = (
        ("chain-5", "Q", frozenset({"identities", "perturbed-identities"}), 2),
        ("chain-7", "Z9", frozenset({"identities", "perturbed-identities"}), 2),
        ("3xchain-5", "Z", frozenset({"identities", "perturbed-identities"}), 1),
        ("3xchain-5", "Z9", frozenset({"identities", "perturbed-identities"}), 1),
        ("B3", "Z", frozenset({"identities", "perturbed-identities"}), 1),
        ("B3", "Z9", frozenset({"identities", "perturbed-identities"}), 1),
    )


class TwistedCodomain(Workload):
    name = "twisted-codomain"
    why = ("a rebase_codomain twist makes the structure constants dense, the "
           "contrast case for sparse-cell kernels in StructAlgebra.multiply")
    instances = (
        ("chain-4", "Q", frozenset({"identities"}), 4),
        ("chain-6", "Z9", frozenset({"identities"}), 6),
        ("chain-6", "Z", frozenset({"identities"}), 4),
        ("2xchain-5", "Z9", frozenset(), 6),
        ("B3", "Z", frozenset({"identities"}), 1),
    )

    # The CLI cannot load a non-incidence codomain, so the pipeline runs as
    # library calls: generate and twist, decompose, verify as `fialg verify`
    # does it (decompose again, keep the report), and the identity suite.
    def instance_commands(self, fialg, workdir, k, instance, poset, ring,
                          ring_file, flags, inst_seed, rng):
        jordan, linmaps = fialg.jordan, fialg.linmaps
        poset_obj = fialg.posets.validate_poset(*poset)
        ring_obj = fialg.rings.ring_from_json(RINGS[ring])
        # The twist is part of the workload, not of the draw: its density
        # sets the cost of every dense product (the twisted chain-5 algebra
        # has 79 to 186 structure constants depending on the twist seed).
        # The workload seed varies the Jordan map.
        basis_seed = k + 1
        state = {}

        def library(fn):
            def run():
                try:
                    return fn()
                except fialg.errors.FialgError as exc:
                    return Outcome(2, "", f"error: {type(exc).__name__}: {exc}\n")
            return run

        def report(rep):
            return Outcome(0 if rep.passed else 1, _dump(rep.to_json(ring_obj.format)), "")

        def gen():
            phi = jordan.random_jordan_iso(poset_obj, ring_obj, inst_seed)
            twist = jordan.random_basis_change(phi.codomain, basis_seed)
            state["phi"] = linmaps.rebase_codomain(phi, twist)
            return Outcome(0, _dump(state["phi"].to_json()), "")

        def decompose():
            dec = jordan.decompose(state["phi"])
            return Outcome(0 if dec.report.passed else 1, _dump(dec.to_json()), "")

        def verify():
            return report(jordan.decompose(state["phi"]).report)

        def identities():
            return report(jordan.verify_paper_identities(state["phi"]))

        cmds = [
            Command(f"{instance}:gen-twisted", instance, "gen_jordan", library(gen), GENERATED),
            Command(f"{instance}:decompose", instance, "decompose", library(decompose), PASSES),
            Command(f"{instance}:verify", instance, "verify", library(verify), PASSES),
        ]
        if "identities" in flags:
            cmds.append(Command(f"{instance}:identities", instance, "identities",
                                library(identities), PASSES))
        return cmds


WORKLOADS = {
    w.name: w
    for w in (GenConnected(), SplitComponents(), AuditIdentities(), TwistedCodomain())
}
