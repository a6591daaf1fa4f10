"""Wall-clock spans recorded around fialg's public entry points.

The wrappers live here, in the benchmark, not in the library: they are
installed only for a traced run and every original object is put back
afterwards.  A name is patched at every module that holds it (``fialg``,
``fialg.jordan``, ``fialg.cli``, ...), so a call is traced whichever import
path the caller used.

Each span has a name, a start, an end and a parent.  Per name the tracer
keeps calls, total time and self time (total minus the time of child
spans).  Hot leaf spans (``algebra.multiply``, ``matrices.mat_vec``,
``algebra.finseries_mul``) are only aggregated; every other span is also
kept as a record and written out when the run ends.  Ring arithmetic gets
no span: its cost lands in the caller's self time.
"""

from __future__ import annotations

import functools
import json
import math
import sys
from time import perf_counter

# verify_near_sum and near_sum_build rename the check_homomorphism results
# after run_check has built them; trace them under their near-sum names.
CHECK_ALIASES = {
    "homomorphism": "psi_homomorphism",
    "anti_homomorphism": "theta_anti_homomorphism",
}

NEAR_SUM_CHECKS = (
    "psi_homomorphism",
    "theta_anti_homomorphism",
    "diagonal_agreement",
    "strict_sum_recomposition",
    "strict_annihilation",
)

IDENTITY_CHECKS = (
    "unit_sandwich_strict",
    "unit_sandwich_diagonal",
    "coefficient_sandwich",
    "polarized_triple",
    "five_factor",
    "commuting_idempotent",
    "annihilating_idempotent",
    "diagonal_restriction_homomorphism",
    "psi_sandwich",
    "theta_sandwich",
    "psi_window_annihilation",
    "theta_window_annihilation",
    "sandwich_equality_criterion",
)

RUN_CHECKS = ("jordan_pairs",) + NEAR_SUM_CHECKS + IDENTITY_CHECKS

HOT = frozenset({"algebra.multiply", "matrices.mat_vec", "algebra.finseries_mul"})


class Tracer:
    """Span recorder.  ``stats[name]`` is ``[calls, total_s, self_s]``;
    ``counts[name]`` holds the counters measured at that boundary."""

    def __init__(self):
        self.stats: dict[str, list] = {}
        self.counts: dict[str, float] = {}
        self.records: list[tuple] = []
        self.request = None  # id of the benchmark command being run
        # One frame per open span: [child_time, span_id].  The bottom frame
        # is a root that absorbs the time of top-level spans.
        self._frames: list[list] = [[0.0, None]]
        self._next_id = 0
        self._patches: list[tuple] = []
        self._row_cache: dict[int, tuple] = {}

    # -- recording ------------------------------------------------------------

    def add(self, name: str, amount) -> None:
        self.counts[name] = self.counts.get(name, 0) + amount

    def span(self, name: str, fn, after=None):
        """Return fn wrapped in a span; ``after(tracer, args, kwargs, result)``
        records counters once the call returns."""
        frames = self._frames
        stats = self.stats.setdefault(name, [0, 0.0, 0.0])
        keep = name not in HOT
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span_id = None
            if keep:
                span_id = tracer._next_id
                tracer._next_id += 1
            parent = frames[-1][1]
            frame = [0.0, span_id]
            frames.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                frames.pop()
                elapsed = end - start
                frames[-1][0] += elapsed
                stats[0] += 1
                stats[1] += elapsed
                stats[2] += elapsed - frame[0]
                if keep:
                    tracer.records.append(
                        (span_id, parent, name, start, end, tracer.request)
                    )
            if after is not None:
                after(tracer, args, kwargs, result)
            return result

        return wrapper

    def region(self, name: str, fn, *args):
        """Run fn(*args) inside a span of its own (set-up, one command)."""
        return self.span(name, fn)(*args)

    # -- installing and restoring ---------------------------------------------

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def _patch_everywhere(self, original, wrapper) -> None:
        """Replace ``original`` by ``wrapper`` in every loaded fialg module
        that holds it under any name."""
        for modname, module in sorted(sys.modules.items()):
            if module is None or not (modname == "fialg" or modname.startswith("fialg.")):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._patch(module, attr, wrapper)

    def install(self, fialg) -> None:
        """Wrap every traced entry point of an imported fialg package."""
        if self._patches:
            raise RuntimeError("tracer is already installed")
        algebra, linmaps, jordan = fialg.algebra, fialg.linmaps, fialg.jordan

        functions = [
            ("posets.order_isomorphisms", fialg.posets.order_isomorphisms, _count_isos),
            ("algebra.incidence_algebra", algebra.incidence_algebra, None),
            ("algebra.change_basis", algebra.change_basis, None),
            ("matrices.mat_vec", fialg.matrices.mat_vec, None),
            ("matrices.invert_columns", fialg.matrices.invert_columns, None),
            ("linmaps.check_homomorphism", linmaps.check_homomorphism, None),
            ("linmaps.jordan_pair_check", linmaps.jordan_pair_check, None),
            ("linmaps.rebase_codomain", linmaps.rebase_codomain, None),
            ("cli.run", fialg.cli.run, None),
        ] + [
            (f"jordan.{fn}", getattr(jordan, fn), None)
            for fn in (
                "random_jordan_iso",
                "conjugate_by_unit",
                "near_sum_build",
                "decompose",
                "verify_near_sum",
                "verify_paper_identities",
            )
        ]
        for name, original, after in functions:
            self._patch_everywhere(original, self.span(name, original, after))
        run_check = fialg.reports.run_check
        self._patch_everywhere(run_check, self._run_check_wrapper(run_check))

        methods = [
            ("algebra.multiply", algebra.StructAlgebra, "multiply", _count_pairs),
            ("algebra.finseries_mul", algebra.FinSeries, "__mul__", None),
            ("algebra.finseries_inverse", algebra.FinSeries, "inverse", None),
            ("linmaps.invert", linmaps.LinMap, "invert", None),
            ("linmaps.compose", linmaps.LinMap, "compose", None),
        ]
        for name, cls, attr, after in methods:
            self._patch(cls, attr, self.span(name, cls.__dict__[attr], after))
        descriptor = linmaps.LinMap.__dict__["from_json"]
        self._patch(
            linmaps.LinMap,
            "from_json",
            classmethod(self.span("linmaps.from_json", descriptor.__func__)),
        )

    def uninstall(self) -> None:
        """Put every original object back, last patch first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)
        self._row_cache.clear()

    # -- counters ---------------------------------------------------------------

    def _run_check_wrapper(self, original):
        """run_check consumes each family's failure generator, so one span per
        check name times that family; its failure count is recorded too."""
        per_name = {}

        @functools.wraps(original)
        def wrapper(name, instances):
            traced = CHECK_ALIASES.get(name, name)
            fn = per_name.get(traced)
            if fn is None:
                fn = per_name[traced] = self.span(
                    f"reports.run_check.{traced}", original, _count_failures
                )
            return fn(name, instances)

        return wrapper

    # -- output -----------------------------------------------------------------

    def per_layer(self) -> dict[str, float]:
        """The per-layer metric values named in BENCHMARK.json."""
        out: dict[str, float] = {}

        def stat(name, field):
            calls, total, self_s = self.stats.get(name, (0, 0.0, 0.0))
            return {"calls": calls, "s": total, "self_s": self_s}[field]

        def put(metric):
            name, field = metric.rsplit(".", 1)
            out[metric] = stat(name, field)

        for metric in (
            "posets.order_isomorphisms.s",
            "posets.order_isomorphisms.calls",
            "algebra.multiply.self_s",
            "algebra.multiply.calls",
            "algebra.finseries_mul.self_s",
            "algebra.finseries_mul.calls",
            "algebra.finseries_inverse.s",
            "algebra.incidence_algebra.s",
            "algebra.incidence_algebra.calls",
            "algebra.change_basis.s",
            "matrices.mat_vec.self_s",
            "matrices.mat_vec.calls",
            "matrices.invert_columns.s",
            "matrices.invert_columns.calls",
            "linmaps.check_homomorphism.s",
            "linmaps.jordan_pair_check.s",
            "linmaps.invert.s",
            "linmaps.compose.s",
            "linmaps.from_json.s",
            "linmaps.rebase_codomain.s",
            "jordan.random_jordan_iso.s",
            "jordan.conjugate_by_unit.s",
            "jordan.near_sum_build.s",
            "jordan.decompose.s",
            "jordan.verify_near_sum.s",
            "jordan.verify_paper_identities.s",
            "cli.run.self_s",
        ):
            put(metric)
        for counter in (
            "posets.order_isomorphisms.found",
            "posets.order_isomorphisms.perms_tried",
            "algebra.multiply.pairs_visited",
            "algebra.multiply.pairs_useful",
        ):
            out[counter] = self.counts.get(counter, 0)
        visited = out["algebra.multiply.pairs_visited"]
        out["algebra.multiply.useful_frac"] = (
            out["algebra.multiply.pairs_useful"] / visited if visited else 0.0
        )
        for check in RUN_CHECKS:
            out[f"reports.run_check.{check}.s"] = stat(f"reports.run_check.{check}", "s")
            out[f"reports.run_check.{check}.failures"] = self.counts.get(
                f"reports.run_check.{check}.failures", 0
            )
        return out

    def dump(self, path) -> None:
        """Write the aggregates and every kept span record as JSON."""
        doc = {
            "stats": {
                name: {"calls": c, "s": t, "self_s": s}
                for name, (c, t, s) in sorted(self.stats.items())
            },
            "counts": dict(sorted(self.counts.items())),
            "spans": [
                {"id": i, "parent": p, "name": n, "start": a, "end": b, "request": r}
                for (i, p, n, a, b, r) in self.records
            ],
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)


def _count_pairs(tracer, args, kwargs, result) -> None:
    """Computed from the arguments and the cells: ``pairs_visited`` is the
    (i, j) positions the seed loop walks (nonzero u_i times every j),
    ``pairs_useful`` those whose v_j is nonzero and whose cell is not
    empty."""
    algebra, u, v = args
    rows = tracer._row_cache.get(id(algebra))
    if rows is None or rows[0] is not algebra:
        rows = (
            algebra,
            [frozenset(j for j, cell in enumerate(row) if cell) for row in algebra.cells],
        )
        tracer._row_cache[id(algebra)] = rows
    nonzero_v = {j for j, b in enumerate(v) if b}
    visited = useful = 0
    row_sets = rows[1]
    for i, a in enumerate(u):
        if a:
            visited += len(v)
            useful += len(nonzero_v & row_sets[i])
    tracer.add("algebra.multiply.pairs_visited", visited)
    tracer.add("algebra.multiply.pairs_useful", useful)


def _count_isos(tracer, args, kwargs, result) -> None:
    # The seed enumerator tries every permutation of the target: n! per call.
    tracer.add("posets.order_isomorphisms.found", len(result))
    tracer.add("posets.order_isomorphisms.perms_tried", math.factorial(args[1].size))


def _count_failures(tracer, args, kwargs, result) -> None:
    name = CHECK_ALIASES.get(result.name, result.name)
    tracer.add(f"reports.run_check.{name}.failures", result.failure_count)
