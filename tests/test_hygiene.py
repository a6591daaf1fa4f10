"""Hygiene of the fialg package: its imports, its one product kernel and
its series builders, read from the source with ast, the one column store of
a LinMap, the payload doors of its public classes, and the pytest
settings."""

import ast
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import fialg
from fialg import (
    INTEGERS,
    RATIONALS,
    FialgError,
    FinSeries,
    LinMap,
    StructAlgebra,
    change_basis,
    conjugate_by_unit,
    decompose,
    equal_by_sandwiches,
    incidence_algebra,
    modular,
    random_basis_change,
    random_jordan_iso,
    random_unit_series,
    rebase_codomain,
    verify_near_sum,
)

from conftest import chain, diamond

PACKAGE = Path(fialg.__file__).parent


def imported_names(tree):
    """The names a module binds by its import statements, with the line of
    each; `from __future__` imports are directives, not names."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0], node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name, node.lineno


def test_every_imported_name_is_used():
    unused = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        used = {
            node.id for node in ast.walk(tree) if isinstance(node, ast.Name)
        }
        unused += [
            f"{path.name}:{line} {name}"
            for name, line in imported_names(tree)
            if name not in used
        ]
    assert unused == []


def test_all_lists_exactly_the_public_names_of_the_package():
    tree = ast.parse((PACKAGE / "__init__.py").read_text())
    bound = {name for name, _ in imported_names(tree)}
    for node in tree.body:
        if isinstance(node, ast.Assign):
            bound |= {t.id for t in node.targets if isinstance(t, ast.Name)}
    public = {name for name in bound if not name.startswith("_")}
    assert len(fialg.__all__) == len(set(fialg.__all__))
    assert set(fialg.__all__) == public


def functions(body, prefix=""):
    """The module-level functions and the methods of a module body, by
    qualified name; nested functions belong to the function around them."""
    for node in body:
        if isinstance(node, ast.FunctionDef):
            yield prefix + node.name, node
        elif isinstance(node, ast.ClassDef):
            yield from functions(node.body, prefix + node.name + ".")


def test_one_product_kernel():
    """StructAlgebra has one product, multiply, on {index: nonzero} dicts;
    the dense loop over coordinate lists is the test oracle dense_multiply."""
    tree = ast.parse((PACKAGE / "algebra.py").read_text())
    (cls,) = [
        node for node in tree.body
        if isinstance(node, ast.ClassDef) and node.name == "StructAlgebra"
    ]
    methods = [node.name for node in cls.body if isinstance(node, ast.FunctionDef)]
    assert [m for m in methods if "multiply" in m or "product" in m] == ["multiply"]
    assert [
        path.name for path in sorted(PACKAGE.glob("*.py"))
        if "multiply_sparse" in path.read_text()
    ] == []
    A = incidence_algebra(chain(2), RATIONALS)
    one = RATIONALS.one
    assert A.multiply({0: one}, {2: one}) == {2: one}
    assert A.multiply({2: one}, {0: one}) == {}
    assert type(A.multiply({0: one}, {0: one})) is dict


def test_the_product_kernel_sums_integers():
    """StructAlgebra.multiply sums plain ints over the ring's lifted
    vectors and table: its body reads no ring.add or ring.mul, and it calls
    the ring's reduce once, which makes each output coordinate canonical."""
    tree = ast.parse((PACKAGE / "algebra.py").read_text())
    kernel = dict(functions(tree.body))["StructAlgebra.multiply"]
    nodes = list(ast.walk(kernel))
    assert not {"add", "mul"} & {n.attr for n in nodes if isinstance(n, ast.Attribute)}
    calls = [ast.unparse(n.func) for n in nodes if isinstance(n, ast.Call)]
    assert [c for c in calls if c.endswith("reduce")] == ["ring.reduce"]


# The functions under src/ that build a series through the checking door,
# FinSeries(...) (cls(...) inside FinSeries): the two that take their keys
# from labels.  Every other builder holds comparable index pairs and
# canonical payloads and goes through FinSeries._of, so that no hot loop
# pays for the check.
CHECKED_SERIES_BUILDERS = {"algebra.FinSeries.from_entries", "algebra.FinSeries.unit"}


def test_checked_series_builders_are_the_allowlist():
    builders = set()
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for name, fn in functions(tree.body):
            door = {"FinSeries", "cls"} if name.startswith("FinSeries.") else {"FinSeries"}
            if any(
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id in door
                for node in ast.walk(fn)
            ):
                builders.add(f"{path.stem}.{name}")
    assert builders == CHECKED_SERIES_BUILDERS


def x_squared_is_v_x(one, v):
    """The table of R[x]/(x^2 - v x) over the basis 1, x: unital and
    associative for every v, with v in cell (x, x)."""
    return [[[(0, one)], [(1, one)]], [[(1, one)], [(1, v)]]]


def split_with_identity_v_b0_plus_b1(one, v):
    """The table of R x R over the basis b0 = e1, b1 = e2 + (1 - v) e1, where
    the identity e1 + e2 is v b0 + b1: unital and associative for every v,
    which the identity coordinate then carries."""
    w = one - v
    return [[[(0, one)], [(0, w)]], [[(0, w)], [(0, w * w - w), (1, one)]]]


# Each public constructor that takes ring payloads, as a function of the
# ring and one payload v that it builds an object from: on chain-2, or on a
# two-dimensional table that obeys the laws StructAlgebra(...) checks.
PAYLOAD_DOORS = {
    "FinSeries": lambda ring, v: FinSeries(chain(2), ring, {(0, 1): v}),
    "FinSeries.from_entries": lambda ring, v: FinSeries.from_entries(
        chain(2), ring, {("1", "2"): v}
    ),
    "LinMap": lambda ring, v: LinMap(
        *[incidence_algebra(chain(2), ring)] * 2,
        [[v, ring.zero, ring.zero], [ring.zero] * 3, [ring.zero] * 3],
    ),
    "StructAlgebra.cells": lambda ring, v: StructAlgebra(
        ring, x_squared_is_v_x(ring.one, v), (ring.one, ring.zero)
    ),
    "StructAlgebra.identity": lambda ring, v: StructAlgebra(
        ring, split_with_identity_v_b0_plus_b1(ring.one, v), (v, ring.one)
    ),
}

# The public classes, exceptions aside, that take no ring payload: rings,
# posets and their maps, the basis, and the report records, which carry the
# sides a check evaluated and have no ring to normalize by.
PAYLOAD_FREE = {
    "AlgBasis",
    "CheckResult",
    "Decomposition",
    "IntegerRing",
    "ModularRing",
    "OrderMap",
    "Poset",
    "RationalRing",
    "Ring",
    "VerificationReport",
    "Witness",
}


def test_every_public_class_is_a_payload_door_or_payload_free():
    classes = {
        name
        for name in fialg.__all__
        if isinstance(getattr(fialg, name), type)
        and not issubclass(getattr(fialg, name), Exception)
    }
    doors = {door.split(".")[0] for door in PAYLOAD_DOORS}
    assert doors.isdisjoint(PAYLOAD_FREE)
    assert classes == doors | PAYLOAD_FREE


@pytest.mark.parametrize("ring", [RATIONALS, INTEGERS, modular(9)], ids=repr)
@pytest.mark.parametrize("door", sorted(PAYLOAD_DOORS))
def test_every_payload_door_normalizes_and_refuses_floats_and_bools(door, ring):
    build = PAYLOAD_DOORS[door]
    # A noncanonical int goes in as its canonical payload: 10 is 1 in Z/9.
    assert build(ring, 10) == build(ring, ring.normalize(10))
    for bad in (0.5, 1.5, 0.0, 1.0, True, False):
        with pytest.raises(FialgError):
            build(ring, bad)


def unitriangular_basis(ring, v):
    """A basis change of chain-2's incidence algebra with v above the
    diagonal, so invertible whatever v is, through the checking LinMap
    door: neither basis-change entry point gets round its refusals."""
    one, zero = ring.one, ring.zero
    A = incidence_algebra(chain(2), ring)
    return LinMap(A, A, [[one, zero, zero], [v, one, zero], [zero, zero, one]])


# The public entry points that take coordinate lists, or a basis change built
# from them through the LinMap door, as a function of the ring and one
# coordinate v that they read on chain-2.
COORDINATE_DOORS = {
    "LinMap.apply_coords": lambda ring, v: LinMap.identity(
        incidence_algebra(chain(2), ring)
    ).apply_coords([v, ring.zero, ring.zero]),
    "change_basis": lambda ring, v: change_basis(
        incidence_algebra(chain(2), ring), unitriangular_basis(ring, v)
    ),
    "rebase_codomain": lambda ring, v: rebase_codomain(
        LinMap.identity(incidence_algebra(chain(2), ring)), unitriangular_basis(ring, v)
    ),
    "equal_by_sandwiches": lambda ring, v: equal_by_sandwiches(
        LinMap.identity(incidence_algebra(chain(2), ring)),
        [v, ring.zero, ring.zero],
        [ring.normalize(10), ring.zero, ring.zero],
    ),
}


@pytest.mark.parametrize("ring", [RATIONALS, INTEGERS, modular(9)], ids=repr)
@pytest.mark.parametrize("door", sorted(COORDINATE_DOORS))
def test_every_coordinate_door_normalizes_and_refuses_floats_and_bools(door, ring):
    read = COORDINATE_DOORS[door]
    assert read(ring, 10) == read(ring, ring.normalize(10))
    for bad in (0.5, 1.5, 0.0, 1.0, True, False):
        with pytest.raises(FialgError):
            read(ring, bad)


def test_only_the_rings_import_fractions():
    """Fraction is the payload of the rationals, not a representation of a
    kernel: the kernels run in the ring's own arithmetic."""
    def imported_modules(tree):
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                yield from (alias.name for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and not node.level:
                yield node.module

    importers = [
        path.name
        for path in sorted(PACKAGE.glob("*.py"))
        if "fractions" in imported_modules(ast.parse(path.read_text(), filename=str(path)))
    ]
    assert importers == ["rings.py"]


def test_only_the_rings_read_payload_internals():
    """A payload's numerator and denominator are the rationals' business:
    a kernel that needs integers asks the ring for them (Ring.lift)."""
    readers = [
        f"{path.name}:{node.lineno}"
        for path in sorted(PACKAGE.glob("*.py"))
        if path.name != "rings.py"
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Attribute) and node.attr in ("numerator", "denominator")
    ]
    assert readers == []


# The functions outside rings.py that read the ring's own arithmetic, add,
# sub, neg or mul, off a ring (ring.mul, self.ring.add, u.ring.mul): the
# sparse kernels of matrices.py (mat_vec, _add_multiple, _eliminate), the
# series arithmetic of algebra.py, and the jordan.py loops that
# combine payloads outside a kernel.  Another function that needs ring
# arithmetic on vectors calls one of these kernels instead of opening its
# own loop.
RING_ARITHMETIC_CALLERS = {
    "algebra.FinSeries.__mul__",
    "algebra.FinSeries.__neg__",
    "algebra.FinSeries.inverse",
    "algebra.FinSeries.scale",
    "algebra._sparse_add",
    "jordan.conjugate_by_unit",
    "jordan.equal_by_sandwiches",
    "jordan.verify_paper_identities",
    "matrices._add_multiple",
    "matrices._eliminate",
    "matrices.mat_vec",
}


def test_ring_arithmetic_callers_are_the_allowlist():
    callers = set()
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "rings.py":
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        owner = {
            node: name
            for name, fn in functions(tree.body)
            for node in ast.walk(fn)
        }
        callers |= {
            f"{path.stem}.{owner.get(node, '<module>')}"
            for node in ast.walk(tree)
            if isinstance(node, ast.Attribute)
            and node.attr in ("add", "sub", "neg", "mul")
            and ast.unparse(node.value).rsplit(".", 1)[-1] == "ring"
        }
    assert callers == RING_ARITHMETIC_CALLERS


def test_the_matrix_kernels_leave_payload_arithmetic_to_the_ring():
    """Elimination asks the ring for Euclid's size and step and for its
    screen: matrices.py imports no concrete ring and spells no integer
    operation on a payload."""
    path = PACKAGE / "matrices.py"
    source = path.read_text()
    from_rings = [
        alias.name
        for node in ast.walk(ast.parse(source, filename=str(path)))
        if isinstance(node, ast.ImportFrom) and node.module == "rings"
        for alias in node.names
    ]
    assert from_rings == ["Ring"]
    spelled = [
        token
        for token in ("abs(", "//", "%", "isinstance", "ModularRing", "RationalRing")
        if token in source
    ]
    assert spelled == []


# The JSON readers and writers under src/: the formats the CLI reads (poset,
# ring and map files) and writes (posets, maps, decompositions and reports).
WIRE_FORMATS = {
    "Poset.to_json",
    "Poset.from_json",
    "LinMap.to_json",
    "LinMap.from_json",
    "Decomposition.to_json",
    "Witness.to_json",
    "CheckResult.to_json",
    "VerificationReport.to_json",
    "ring_from_json",
}


def test_every_wire_format_is_one_the_cli_speaks():
    formats = set()
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for name, _ in functions(tree.body):
            last = name.rsplit(".", 1)[-1]
            if last in ("to_json", "from_json") or last.endswith("_from_json"):
                formats.add(name)
    assert formats == WIRE_FORMATS


# The one call under src/ that passes indent= to json.dumps: the report
# writer's whole-document fallback.  Every output goes through cli._json_text,
# which writes the same bytes with the C string encoder; the pure-Python
# encoder that indent= selects is many times slower on a map.
INDENTED_JSON_WRITERS = ["cli._json_text"]


def test_one_indented_json_writer():
    writers = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        owner = {
            node: name
            for name, fn in functions(tree.body)
            for node in ast.walk(fn)
        }
        writers += [
            f"{path.stem}.{owner.get(node, '<module>')}"
            for node in ast.walk(tree)
            if isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr in ("dump", "dumps")
            and any(kw.arg == "indent" for kw in node.keywords)
        ]
    assert writers == INDENTED_JSON_WRITERS


# The functions that read a LinMap's dense view, LinMap.columns, which
# builds and caches a coordinate list of every column.  None does: the wire
# writer (to_json), the recognizers and apply_coords read the {index:
# nonzero} columns, and the view stays for callers outside the library.
DENSE_VIEW_READERS = set()


def test_dense_view_readers_are_the_allowlist():
    readers = set()
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for name, fn in functions(tree.body):
            if any(
                isinstance(node, ast.Attribute) and node.attr == "columns"
                for node in ast.walk(fn)
            ):
                readers.add(f"{path.stem}.{name}")
    assert readers == DENSE_VIEW_READERS


# The one comparison: the generators that compare two sides with == or !=
# and read .dense, so that a failure carries dense sides.  Every check's
# failures pass through it, and a second such comparison would join this
# list.
COMPARISONS = {"linmaps._mismatches"}

# The one law scan: the functions that take a list of instances, map each
# domain vector with mat_vec, make codomain products with .multiply and hand
# both sides to _mismatches.  The homomorphism, pair, triple and quadratic
# laws and the identity suite's word families are instance lists over it.
IMAGE_SCANS = {"linmaps._law_failures"}

# The entry points that decide a law through the scan.
LAW_SCAN_CALLERS = (
    "linmaps.check_homomorphism",
    "linmaps.jordan_pair_check",
    "linmaps._jordan_pair_verdict",
    "linmaps.check_jordan",
    "jordan._near_sum_holds",
    "jordan.verify_paper_identities",
)


def call_graph():
    """Each function of the package, by qualified name, with the functions
    it calls by plain name; a name defined in several modules links to
    each."""
    bodies = {}
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for name, fn in functions(tree.body):
            bodies[f"{path.stem}.{name}"] = fn
    by_name = {}
    for qualified in bodies:
        by_name.setdefault(qualified.rsplit(".", 1)[1], []).append(qualified)
    return {
        qualified: {
            callee
            for node in ast.walk(fn)
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            for callee in by_name.get(node.func.id, [])
        }
        for qualified, fn in bodies.items()
    }, bodies


def reaches(graph, start, target):
    seen, stack = {start}, [start]
    while stack:
        for callee in graph[stack.pop()] - seen:
            seen.add(callee)
            stack.append(callee)
    return target in seen


def attributes_and_calls(fn):
    """The attribute names fn reads and the plain names it calls, nested
    functions included."""
    nodes = list(ast.walk(fn))
    attrs = {node.attr for node in nodes if isinstance(node, ast.Attribute)}
    calls = {
        node.func.id
        for node in nodes
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
    }
    return attrs, calls


def is_generator(fn) -> bool:
    return any(isinstance(node, (ast.Yield, ast.YieldFrom)) for node in ast.walk(fn))


def is_comparison(fn) -> bool:
    compares = any(
        isinstance(op, (ast.Eq, ast.NotEq))
        for node in ast.walk(fn)
        if isinstance(node, ast.Compare)
        for op in node.ops
    )
    return is_generator(fn) and compares and "dense" in attributes_and_calls(fn)[0]


def is_law_scan(fn) -> bool:
    attrs, calls = attributes_and_calls(fn)
    takes_instances = "instances" in {arg.arg for arg in fn.args.args}
    return takes_instances and "multiply" in attrs and {"mat_vec", "_mismatches"} <= calls


def test_one_homomorphism_scan():
    graph, bodies = call_graph()
    for caller in ("jordan._near_sum_holds", "linmaps.check_homomorphism"):
        assert reaches(graph, caller, "linmaps._homomorphism_failures"), caller
    for caller in LAW_SCAN_CALLERS:
        assert reaches(graph, caller, "linmaps._law_failures"), caller
    for caller in LAW_SCAN_CALLERS + ("jordan.verify_near_sum",):
        assert reaches(graph, caller, "linmaps._mismatches"), caller
    assert {name for name, fn in bodies.items() if is_law_scan(fn)} == IMAGE_SCANS
    assert {name for name, fn in bodies.items() if is_comparison(fn)} == COMPARISONS


def builds_zero_vector(fn) -> bool:
    """Does fn repeat a list, as [zero] * d does, or densify a dict
    literal, as dense({}) does?"""
    return any(
        isinstance(node, ast.BinOp)
        and isinstance(node.op, ast.Mult)
        and isinstance(node.left, ast.List)
        or isinstance(node, ast.Call)
        and getattr(node.func, "attr", getattr(node.func, "id", None)) == "dense"
        and any(isinstance(arg, ast.Dict) for arg in node.args)
        for node in ast.walk(fn)
    )


def test_failure_generators_build_no_zero_vector():
    """A zero side is the empty dict, which _mismatches densifies; no
    generator spells out a zero vector of its own."""
    _, bodies = call_graph()
    builders = {
        name for name, fn in bodies.items() if is_generator(fn) and builds_zero_vector(fn)
    }
    assert builders == set()


def builds_dense_matrix(fn) -> bool:
    """Does fn build a list of repeated lists, as [[zero] * d for ...]
    does?"""
    return any(
        isinstance(node, ast.ListComp)
        and isinstance(node.elt, ast.BinOp)
        and isinstance(node.elt.op, ast.Mult)
        and isinstance(node.elt.left, ast.List)
        for node in ast.walk(fn)
    )


def test_only_the_wire_writer_builds_a_dense_matrix():
    """A matrix, a basis change included, is a LinMap's {index: nonzero}
    columns; the one function that spells one out dense is the JSON writer
    LinMap.to_json."""
    _, bodies = call_graph()
    builders = {name for name, fn in bodies.items() if builds_dense_matrix(fn)}
    assert builders == {"linmaps.LinMap.to_json"}


@pytest.mark.parametrize("ring", [RATIONALS, INTEGERS, modular(9)], ids=repr)
@pytest.mark.parametrize("twist", [False, True], ids=["incidence", "twisted"])
def test_maps_keep_one_column_store(ring, twist):
    """A map keeps its {index: nonzero} columns only: generating, writing,
    loading, decomposing and verifying it build no dense view of phi, psi or
    theta."""
    poset = diamond()
    phi = random_jordan_iso(poset, ring, seed=1)
    if twist:
        phi = rebase_codomain(phi, random_basis_change(phi.codomain, seed=2))
    loaded = LinMap.from_json(phi.domain, phi.codomain, phi.to_json())
    conj = conjugate_by_unit(random_unit_series(poset, ring, random.Random(3)))
    dec = decompose(loaded)
    assert dec.report.passed and verify_near_sum(dec).passed
    dec.to_json()  # writes psi and theta
    for m in (phi, loaded, conj, dec.phi, dec.psi, dec.theta):
        assert "columns" not in vars(m)


FAILING_PROPERTY = """
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(n):
    assert n < 10


def test_passes():
    pass
"""


def test_a_failing_property_leaves_the_session_running(tmp_path):
    """Under the repo's warning filters a failing @given test prints its
    falsifying example, and the tests after it still run."""
    shutil.copy(Path(__file__).parents[1] / "pyproject.toml", tmp_path)
    (tmp_path / "test_probe.py").write_text(FAILING_PROPERTY)
    r = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "test_probe.py"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
    )
    assert "INTERNALERROR" not in r.stdout + r.stderr
    assert "Falsifying example" in r.stdout
    assert "1 failed, 1 passed" in r.stdout
