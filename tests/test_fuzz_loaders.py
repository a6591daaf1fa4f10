"""Fuzzing the JSON doors: every loader, and `cli.run` on files of arbitrary
JSON, either succeeds or refuses with FialgError / exit 2.  Exit 3 (an
unexpected exception) is never an allowed outcome for input data."""

import contextlib
import copy
import io
import json
import tempfile
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from fialg import (
    INTEGERS,
    RATIONALS,
    LinMap,
    Poset,
    cli,
    incidence_algebra,
    modular,
    ring_from_json,
)
from fialg.algebra import sparse_vector
from fialg.errors import ContextMismatchError, FialgError
from fialg.linmaps import _check_shape

from conftest import antichain, chain, diamond, two_two_chains

LABELS = ["a", "b", "c", "d"]
KEYS = ["elements", "relations", "ring", "modular", "domain_dim", "codomain_dim",
        "columns", "entries", "x", "y", "value"]
# Integers stay small: a modulus drawn from here may be sampled from.
JSON = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(-20, 20)
    | st.floats()
    | st.text(max_size=4)
    | st.sampled_from(LABELS),
    lambda kids: st.lists(kids, max_size=4)
    | st.dictionaries(st.sampled_from(KEYS) | st.text(max_size=3), kids, max_size=4),
    max_leaves=12,
)
GOOD_SCALARS = st.sampled_from(["0", "1", "-1", "2", "1/2", "-2/3", 3])
SCALARS = (
    GOOD_SCALARS
    | st.text(alphabet="0123456789-/ +e_.٣", max_size=5)
    | st.integers(-3, 3)
    | JSON
)


@st.composite
def near_miss(draw, valid):
    """Arbitrary JSON, or an object drawn from `valid`, left whole or with
    one part replaced by arbitrary JSON, so that the fuzz gets past each
    loader's first shape check as well as failing it."""
    kind = draw(st.sampled_from(["json", "corrupt", "valid", "valid"]))
    if kind == "json":
        return draw(JSON)
    obj = copy.deepcopy(draw(valid))
    if kind == "corrupt":
        parent, key, node = None, None, obj
        while isinstance(node, (dict, list)) and node and draw(st.booleans()):
            parent = node
            key = draw(st.sampled_from(sorted(node) if isinstance(node, dict)
                                       else range(len(node))))
            node = node[key]
        if parent is None:
            return draw(JSON)
        parent[key] = draw(JSON)
    return obj


@st.composite
def valid_posets(draw):
    elements = draw(st.lists(st.sampled_from(LABELS), max_size=4, unique=True))
    if not elements:
        return {"elements": [], "relations": []}
    pair = st.lists(st.sampled_from(elements), min_size=2, max_size=2)
    return {"elements": elements, "relations": draw(st.lists(pair, max_size=4))}


VALID_RINGS = st.sampled_from([{"ring": "integers"}, {"ring": "rationals"}]) | (
    st.integers(2, 30).map(lambda n: {"ring": {"modular": n}})
)


@st.composite
def valid_maps(draw, dim, scalars):
    """The identity matrix of size dim with a few cells overwritten by
    draws from `scalars`."""
    columns = [["1" if i == j else "0" for i in range(dim)] for j in range(dim)]
    for _ in range(draw(st.integers(0, 3)) if dim else 0):
        i, j = draw(st.integers(0, dim - 1)), draw(st.integers(0, dim - 1))
        columns[j][i] = draw(scalars)
    return {"domain_dim": dim, "codomain_dim": dim, "columns": columns}


def documented_ring(obj):
    """The ring a documented spelling names: {"ring": "integers"},
    {"ring": "rationals"} or {"ring": {"modular": n}}."""
    desc = obj["ring"]
    if isinstance(desc, dict):
        return modular(desc["modular"])
    return {"integers": INTEGERS, "rationals": RATIONALS}[desc]


CONTEXTS = st.sampled_from([
    (chain(2), RATIONALS),
    (diamond(), modular(9)),
    (two_two_chains(), INTEGERS),
])


def load_or_refuse(loader, *args):
    """The loader's result, or None when it refuses with FialgError; any
    other exception propagates and fails the test."""
    try:
        return loader(*args)
    except FialgError:
        return None


@settings(max_examples=150, deadline=None)
@given(
    poset_obj=near_miss(valid_posets()),
    ring_obj=near_miss(VALID_RINGS),
    context=CONTEXTS,
    data=st.data(),
)
def test_library_loaders_accept_or_raise_fialg_error(poset_obj, ring_obj, context, data):
    poset = load_or_refuse(Poset.from_json, poset_obj)
    if poset is not None:
        assert Poset.from_json(poset.to_json()) == poset
    ring = load_or_refuse(ring_from_json, ring_obj)
    if ring is not None:
        assert ring == documented_ring(ring_obj)

    p, r = context
    algebra = incidence_algebra(p, r)
    map_obj = data.draw(near_miss(valid_maps(algebra.dimension, SCALARS)))
    phi = load_or_refuse(LinMap.from_json, algebra, algebra, map_obj)
    if phi is not None:
        assert LinMap.from_json(algebra, algebra, phi.to_json()) == phi


def dense_from_json(domain, codomain, obj):
    """LinMap.from_json as it was before it kept only nonzeros: every entry
    through ring.parse into dense payload lists, the shape checked, then the
    nonzeros kept."""
    for field in ("domain_dim", "codomain_dim", "columns"):
        if not isinstance(obj, dict) or field not in obj:
            raise FialgError(f"linear-map description lacks {field!r}")
    for field, algebra in (("domain_dim", domain), ("codomain_dim", codomain)):
        dim = obj[field]
        if isinstance(dim, bool) or not isinstance(dim, int):
            raise FialgError(f"{field} must be an integer, got {dim!r}")
        if dim != algebra.dimension:
            raise ContextMismatchError(
                f"{field} {dim} != algebra dimension {algebra.dimension}"
            )
    columns = obj["columns"]
    if not isinstance(columns, list) or not all(
        isinstance(col, list) for col in columns
    ):
        raise FialgError("linear-map columns must be a list of lists")
    parse = domain.ring.parse
    cols = [[parse(v) for v in col] for col in columns]
    _check_shape(domain, codomain, cols)
    return LinMap._of_sparse(domain, codomain, map(sparse_vector, cols))


def load_outcome(loader, domain, codomain, obj):
    """The map a loader makes, with the type of each payload it keeps, or
    the type and message of what it raises."""
    try:
        m = loader(domain, codomain, copy.deepcopy(obj))
    except Exception as exc:
        return type(exc), str(exc)
    return m, [[(k, type(v)) for k, v in col.items()] for col in m.sparse_columns]


@st.composite
def ragged_maps(draw, dim, scalars):
    """A valid_maps draw with one column a scalar shorter or longer."""
    obj = draw(valid_maps(dim, scalars))
    columns = obj["columns"] or [[]]
    col = columns[draw(st.integers(0, len(columns) - 1))]
    if col and draw(st.booleans()):
        col.pop(draw(st.integers(0, len(col) - 1)))
    else:
        col.insert(draw(st.integers(0, len(col))), draw(scalars))
    return {**obj, "columns": columns}


# JSON values that compare equal, and so hash alike, across types.
LOOKALIKES = [0, 1, False, True, 0.0, 1.0, "0", "1", "-0", "01"]


@st.composite
def lookalike_maps(draw, dim):
    """A dim x dim map whose every entry is "0", "1" or one of LOOKALIKES."""
    cell = st.sampled_from(["0", "1"]) | st.sampled_from(LOOKALIKES)
    columns = [[draw(cell) for _ in range(dim)] for _ in range(dim)]
    return {"domain_dim": dim, "codomain_dim": dim, "columns": columns}


@settings(max_examples=300, deadline=None)
@given(context=CONTEXTS, other_ring=st.booleans(), data=st.data())
def test_map_loader_matches_the_dense_loader(context, other_ring, data):
    poset, ring = context
    domain = incidence_algebra(poset, ring)
    codomain = incidence_algebra(poset, RATIONALS if other_ring else ring)
    dim = domain.dimension
    maps = valid_maps(dim, SCALARS) | ragged_maps(dim, SCALARS) | lookalike_maps(dim)
    obj = data.draw(near_miss(maps))
    assert load_outcome(LinMap.from_json, domain, codomain, obj) == load_outcome(
        dense_from_json, domain, codomain, obj
    )


# A mixed column over Q: strings a memo keyed on raw JSON values would
# confuse with true and 1.0, which the loader must still refuse.  Each case
# keeps the strings and integers, and the refused entries of REFUSED_KEPT.
MIXED_COLUMN = ["1", 1, True, 1.0, "01", "-0", "2/4"]
REFUSED_KEPT = {"true-and-1.0": (bool, float), "true": (bool,), "1.0": (float,),
                "neither": ()}


@pytest.mark.parametrize("shift", range(len(MIXED_COLUMN)))
@pytest.mark.parametrize("kept", REFUSED_KEPT)
def test_mixed_spellings_load_as_the_dense_loader_loads_them(shift, kept):
    column = [v for v in MIXED_COLUMN if type(v) in (str, int) + REFUSED_KEPT[kept]]
    shift %= len(column)
    column = column[shift:] + column[:shift]
    dim = len(column)
    algebra = incidence_algebra(antichain(dim), RATIONALS)
    unit = [[str(int(i == j)) for i in range(dim)] for j in range(1, dim)]
    obj = {"domain_dim": dim, "codomain_dim": dim, "columns": [column] + unit}
    outcome = load_outcome(LinMap.from_json, algebra, algebra, obj)
    assert outcome == load_outcome(dense_from_json, algebra, algebra, obj)
    refused = [v for v in column if type(v) in (bool, float)]
    if refused:  # the first in column order is the one reported
        message = f"scalar must be a string or an integer, got {refused[0]!r}"
        assert outcome == (FialgError, message)
    else:
        spellings = dict(zip(column, outcome[0].columns[0]))
        assert spellings == {"1": 1, 1: 1, "01": 1, "-0": 0, "2/4": Fraction(1, 2)}


def test_a_bad_scalar_is_refused_before_a_wrong_column_height():
    algebra = incidence_algebra(chain(2), RATIONALS)  # dimension 3
    unit = [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]]
    cases = [
        [unit[0], ["0", "1e3"], unit[2]],  # the bad scalar in the short column
        [unit[0], ["0", "1", "0", "0"], ["0", "0", "1e3"]],  # in a later column
    ]
    for columns in cases:
        obj = {"domain_dim": 3, "codomain_dim": 3, "columns": columns}
        outcome = load_outcome(LinMap.from_json, algebra, algebra, obj)
        assert outcome == (FialgError, "bad rational scalar '1e3'")
        assert outcome == load_outcome(dense_from_json, algebra, algebra, obj)


COMMANDS = {
    "validate-poset": ["validate-poset", "{poset}"],
    "gen-jordan": ["gen-jordan", "--poset", "{poset}", "--ring", "{ring}", "--seed", "1"],
    "check-map": ["check-map", "--poset", "{poset}", "--ring", "{ring}", "--map", "{map}"],
    "check-map-anti": ["check-map", "--poset", "{poset}", "--ring", "{ring}",
                       "--map", "{map}", "--anti"],
    "check-map-jordan": ["check-map", "--poset", "{poset}", "--ring", "{ring}",
                         "--map", "{map}", "--jordan", "--allow-torsion"],
    "decompose": ["decompose", "--poset", "{poset}", "--ring", "{ring}", "--map", "{map}"],
    "verify": ["verify", "--poset", "{poset}", "--ring", "{ring}", "--map", "{map}",
               "--allow-torsion"],
    "verify-identities": ["verify", "--poset", "{poset}", "--ring", "{ring}",
                          "--map", "{map}", "--identities", "--allow-torsion"],
}


@st.composite
def cli_files(draw):
    """A command's files: at most one is a near miss, so that the other
    inputs let the command run as far as that file allows."""
    odd = draw(st.sampled_from(["poset", "ring", "map", None]))

    def pick(name, valid):
        return draw(near_miss(valid) if name == odd else valid)

    poset_obj = pick("poset", valid_posets())
    poset = load_or_refuse(Poset.from_json, poset_obj)
    dim = 0 if poset is None else incidence_algebra(poset, RATIONALS).dimension
    return {
        "poset": poset_obj,
        "ring": pick("ring", VALID_RINGS),
        "map": pick("map", valid_maps(dim, SCALARS if odd == "map" else GOOD_SCALARS)),
    }


# Each subcommand gets its own examples, so that a crash needing one command
# and a rare file shape together is not left to the draw of the command.
@pytest.mark.parametrize("command", COMMANDS.values(), ids=COMMANDS.keys())
@settings(
    max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)
@given(objs=cli_files())
def test_cli_run_on_arbitrary_json_files_never_exits_3(command, objs):
    with tempfile.TemporaryDirectory() as tmp:
        paths = {name: str(Path(tmp) / f"{name}.json") for name in objs}
        for name, obj in objs.items():
            Path(paths[name]).write_text(json.dumps(obj), encoding="utf-8")
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.run([arg.format(**paths) for arg in command])
    assert code in (0, 1, 2), err.getvalue()
    if code == 2:
        assert err.getvalue().startswith("error:") and out.getvalue() == ""


# Any modulus >= 2 is a valid ring file: units of an odd one are drawn
# without factoring it, and an even one is refused for its 2-torsion.
LARGE_RINGS = st.integers(2, 2**200).map(lambda n: {"ring": {"modular": n}})


@settings(max_examples=100, deadline=None)
@given(ring_obj=LARGE_RINGS)
@example(ring_obj={"ring": {"modular": 2**63 + 1}})  # more units than an index holds
@example(ring_obj={"ring": {"modular": 10**30 + 57}})  # a prime past trial division
@example(ring_obj={"ring": {"modular": 2**200 - 1}})
@example(ring_obj={"ring": {"modular": 2**200}})
def test_gen_jordan_over_any_modulus_exits_0_or_refuses_torsion(ring_obj):
    with tempfile.TemporaryDirectory() as tmp:
        poset, ring = Path(tmp) / "poset.json", Path(tmp) / "ring.json"
        poset.write_text(json.dumps(chain(2).to_json()), encoding="utf-8")
        ring.write_text(json.dumps(ring_obj), encoding="utf-8")
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.run(["gen-jordan", "--poset", str(poset), "--ring", str(ring),
                            "--seed", "1"])
    if ring_obj["ring"]["modular"] % 2:
        assert code == 0, err.getvalue()
    else:
        assert code == 2
        assert err.getvalue().startswith("error: TorsionRefusedError:")
