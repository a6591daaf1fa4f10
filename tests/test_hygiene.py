"""Hygiene of the fialg package: its imports and kernel users, read from the
source with ast, the one column store of a LinMap, and the pytest settings."""

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
    LinMap,
    conjugate_by_unit,
    decompose,
    modular,
    random_basis_change,
    random_jordan_iso,
    random_unit_series,
    rebase_codomain,
    verify_near_sum,
)

from conftest import diamond

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


# The functions that still use the dense kernels, StructAlgebra.multiply
# and mat_vec: what remains of ROADMAP item 3 (sparse-only kernels).  The list
# only shrinks; a function that drops its dense call leaves it.
DENSE_KERNEL_USERS = {
    "jordan.verify_paper_identities",
    "linmaps.LinMap.apply_coords",
}


def functions(body, prefix=""):
    """The module-level functions and the methods of a module body, by
    qualified name; nested functions belong to the function around them."""
    for node in body:
        if isinstance(node, ast.FunctionDef):
            yield prefix + node.name, node
        elif isinstance(node, ast.ClassDef):
            yield from functions(node.body, prefix + node.name + ".")


def test_dense_kernel_users_are_the_allowlist():
    users = set()
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for name, fn in functions(tree.body):
            if any(
                (isinstance(node, ast.Attribute) and node.attr == "multiply")
                or (isinstance(node, ast.Name) and node.id == "mat_vec")
                for node in ast.walk(fn)
            ):
                users.add(f"{path.stem}.{name}")
    assert users == DENSE_KERNEL_USERS


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
# builds and caches a coordinate list of every column: what remains of the
# dense store.  The list only shrinks; the wire writer (to_json) and the
# recognizers read the {index: nonzero} columns instead.
DENSE_VIEW_READERS = {"linmaps.LinMap.apply_coords"}


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


# The functions that read a domain's structure constants (.cells) and
# multiply images with multiply_sparse: the one homomorphism scan and the
# Jordan scans.  A second homomorphism or anti-homomorphism scan would join
# this list.
IMAGE_SCANS = {
    "linmaps._homomorphism_failures",
    "linmaps._jordan_pair_failures",
    "linmaps._quadratic_failures",
    "linmaps.check_jordan",
}


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


def test_one_homomorphism_scan():
    graph, bodies = call_graph()
    for caller in ("jordan._near_sum_holds", "linmaps.check_homomorphism"):
        assert reaches(graph, caller, "linmaps._homomorphism_failures"), caller
    scans = {
        name
        for name, fn in bodies.items()
        if {"cells", "multiply_sparse"}
        <= {node.attr for node in ast.walk(fn) if isinstance(node, ast.Attribute)}
    }
    assert scans == IMAGE_SCANS


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
