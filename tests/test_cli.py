"""End-to-end CLI runs over the bundled fixtures: exit codes, report shapes,
and byte-level determinism."""

import gc
import json
import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from fialg import (
    INTEGERS,
    RATIONALS,
    check_homomorphism,
    check_jordan,
    cli,
    decompose,
    jordan,
    modular,
    random_jordan_iso,
    verify_paper_identities,
)
from conftest import chain, diamond, two_two_chains
from test_jordan import FALSE_PASSES, damaged_map, false_pass_map
from test_linmaps import (
    dense_check_homomorphism,
    dense_check_jordan,
    dense_jordan_pair_check,
)

FIXTURES = Path(__file__).parent / "fixtures"


def fx(name: str) -> str:
    return str(FIXTURES / name)


def run_cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "fialg", *args],
        capture_output=True,
        text=True,
    )


def test_validate_poset_accepts_and_normalizes():
    r = run_cli("validate-poset", fx("poset_diamond.json"))
    assert r.returncode == 0
    obj = json.loads(r.stdout)
    assert obj["elements"] == ["bot", "l", "r", "top"]
    assert "poset ok" in r.stderr


def test_validate_poset_rejects_cycle():
    r = run_cli("validate-poset", fx("poset_cycle.json"))
    assert r.returncode == 2
    assert "poset_cycle.json" in r.stderr
    assert r.stdout == ""


def test_missing_file_is_exit_2():
    r = run_cli("validate-poset", fx("no_such_poset.json"))
    assert r.returncode == 2
    assert "no_such_poset.json" in r.stderr


def test_gen_poset_deterministic():
    a = run_cli("gen-poset", "--n", "6", "--p", "0.4", "--seed", "11")
    b = run_cli("gen-poset", "--n", "6", "--p", "0.4", "--seed", "11")
    assert a.returncode == b.returncode == 0
    assert a.stdout == b.stdout
    assert json.loads(a.stdout)["elements"] == [str(i) for i in range(1, 7)]


def test_gen_poset_argument_validation():
    # random_poset's own refusals, which the CLI turns into exit 2
    for n, p, message in [
        ("0", "0.4", "poset size must be >= 1, got 0"),
        ("3", "1.5", "edge probability must lie in [0, 1], got 1.5"),
        ("3", "nan", "edge probability must lie in [0, 1], got nan"),
    ]:
        r = run_cli("gen-poset", "--n", n, "--p", p, "--seed", "1")
        assert r.returncode == 2
        assert r.stdout == ""
        assert r.stderr == f"error: FialgError: {message}\n"


def test_gen_jordan_then_check_map_round_trip(tmp_path):
    out = tmp_path / "m.json"
    r = run_cli(
        "gen-jordan",
        "--poset", fx("poset_diamond.json"),
        "--ring", fx("ring_mod9.json"),
        "--seed", "20",
        "--out", str(out),
    )
    assert r.returncode == 0
    # bundled fixture was produced by this exact command: must match bytes
    assert out.read_text() == Path(fx("map_jordan_diamond_mod9.json")).read_text()
    chk = run_cli(
        "check-map", "--jordan",
        "--poset", fx("poset_diamond.json"),
        "--ring", fx("ring_mod9.json"),
        "--map", str(out),
    )
    assert chk.returncode == 0
    rep = json.loads(chk.stdout)
    assert rep["pass"] is True


def test_decompose_identity_fixture_shows_five_passes():
    r = run_cli(
        "decompose",
        "--poset", fx("poset_3chain.json"),
        "--ring", fx("ring_rationals.json"),
        "--map", fx("map_identity_3chain_rationals.json"),
    )
    assert r.returncode == 0
    rep = json.loads(r.stdout)
    assert set(rep) == {"checks", "psi", "theta"}
    assert len(rep["checks"]) == 5
    assert all(c["pass"] for c in rep["checks"])


def test_check_map_jordan_rejects_perturbed_fixture():
    r = run_cli(
        "check-map", "--jordan",
        "--poset", fx("poset_3chain.json"),
        "--ring", fx("ring_rationals.json"),
        "--map", fx("map_perturbed_3chain_rationals.json"),
    )
    assert r.returncode == 1
    rep = json.loads(r.stdout)
    assert rep["pass"] is False
    failing = [c for c in rep["checks"] if not c["pass"]]
    assert failing and failing[0]["witnesses"]
    w = failing[0]["witnesses"][0]
    assert {"indices", "left", "right"} <= set(w)


def test_decompose_perturbed_fixture_is_precondition_error():
    r = run_cli(
        "decompose",
        "--poset", fx("poset_3chain.json"),
        "--ring", fx("ring_rationals.json"),
        "--map", fx("map_perturbed_3chain_rationals.json"),
    )
    assert r.returncode == 2
    assert "NotJordan" in r.stderr


@pytest.mark.parametrize("command", ["decompose", "verify"])
def test_non_jordan_map_is_refused_without_building_the_report(
    command, monkeypatch, capsys
):
    # exit 2 with the one-line diagnostic, byte for byte; the attached
    # report is never read, so it is never built
    def refuse(*args, **kwargs):
        raise AssertionError("the CLI built the NotJordanError report")

    monkeypatch.setattr(jordan, "jordan_pair_check", refuse)
    code = cli.run([
        command,
        "--poset", fx("poset_3chain.json"),
        "--ring", fx("ring_rationals.json"),
        "--map", fx("map_perturbed_3chain_rationals.json"),
    ])
    out, err = capsys.readouterr()
    assert code == 2
    assert out == ""
    assert err == (
        "error: NotJordanError: map fails the Jordan identities; "
        "see attached report\n"
    )


def test_verify_identities_torsion_gate():
    r = run_cli(
        "verify", "--identities",
        "--poset", fx("poset_3chain.json"),
        "--ring", fx("ring_mod6.json"),
        "--map", fx("map_identity_3chain_rationals.json"),
    )
    assert r.returncode == 2
    assert "TorsionRefused" in r.stderr
    # the override lets the identity map through (it satisfies every law)
    r2 = run_cli(
        "verify", "--identities", "--allow-torsion",
        "--poset", fx("poset_3chain.json"),
        "--ring", fx("ring_mod6.json"),
        "--map", fx("map_identity_3chain_rationals.json"),
    )
    assert r2.returncode == 0


def test_swap_shear_over_z2_is_not_jordan(tmp_path, capsys):
    # phi(e_a) = e_b, phi(e_b) = e_a + e_b on the 2-element antichain over
    # Z/2 passes the polarized laws; the unpolarized ones refuse it
    poset = {"elements": ["a", "b"], "relations": []}
    phi = {"domain_dim": 2, "codomain_dim": 2, "columns": [["0", "1"], ["1", "1"]]}
    ctx = [
        "--poset", write_json(tmp_path / "poset.json", poset),
        "--ring", write_json(tmp_path / "ring.json", {"ring": {"modular": 2}}),
        "--map", write_json(tmp_path / "map.json", phi),
        "--allow-torsion",
    ]
    assert cli.run(["check-map", "--jordan", *ctx]) == 1
    checks = json.loads(capsys.readouterr().out)["checks"]
    assert [c["name"] for c in checks if not c["pass"]] == ["jordan_quadratic"]
    assert cli.run(["decompose", *ctx]) == 2
    assert capsys.readouterr().err.startswith("error: NotJordanError")


def test_verify_identities_fails_a_non_jordan_map_the_families_pass(tmp_path, capsys):
    # over Z/9 this map passes all 13 families at seed 0; the Jordan guard
    # fails it with one pair witness, as verify refuses it
    relations, seed = FALSE_PASSES[0]
    phi = false_pass_map(relations)
    ctx = [
        "--poset", write_json(tmp_path / "poset.json", phi.domain.basis.poset.to_json()),
        "--ring", write_json(tmp_path / "ring.json", {"ring": {"modular": 9}}),
        "--map", write_json(tmp_path / "map.json", phi.to_json()),
    ]
    assert cli.run(["verify", "--identities", "--seed", str(seed), *ctx]) == 1
    checks = json.loads(capsys.readouterr().out)["checks"]
    assert len(checks) == 14 and all(c["pass"] for c in checks[:13])
    assert checks[13]["name"] == "jordan_pairs" and not checks[13]["pass"]
    assert len(checks[13]["witnesses"]) == 1
    assert cli.run(["verify", *ctx]) == 2


def test_verify_near_sum_and_identities_on_fixture():
    common = [
        "--poset", fx("poset_two_2chains.json"),
        "--ring", fx("ring_rationals.json"),
        "--map", fx("map_jordan_two_2chains_rationals.json"),
    ]
    near = run_cli("verify", *common)
    assert near.returncode == 0
    assert [c["name"] for c in json.loads(near.stdout)["checks"]] == [
        "psi_homomorphism",
        "theta_anti_homomorphism",
        "diagonal_agreement",
        "strict_sum_recomposition",
        "strict_annihilation",
    ]
    full = run_cli("verify", "--identities", *common)
    assert full.returncode == 0
    assert json.loads(full.stdout)["pass"] is True


def test_verify_refuses_a_seed_without_identities(capsys):
    # --seed seeds the identity samples only; without --identities it is a
    # usage error, where it used to be ignored with exit 0
    ctx = [
        "--poset", fx("poset_diamond.json"),
        "--ring", fx("ring_mod9.json"),
        "--map", fx("map_jordan_diamond_mod9.json"),
    ]
    assert cli.run(["verify", *ctx, "--seed", "3"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: --seed seeds the identity samples; it needs --identities\n"
    # with --identities an omitted seed is 7
    assert cli.run(["verify", "--identities", *ctx]) == 0
    default = capsys.readouterr().out
    assert cli.run(["verify", "--identities", *ctx, "--seed", "7"]) == 0
    assert capsys.readouterr().out == default
    assert cli.run(["verify", *ctx]) == 0


def test_check_map_refuses_allow_torsion_without_jordan(capsys, tmp_path):
    # only the Jordan laws refuse torsion, so --allow-torsion needs --jordan;
    # alone or with --anti it used to be ignored with exit 0.  It is refused
    # before any file is read: none of these files exists
    ctx = [
        "--poset", str(tmp_path / "poset.json"),
        "--ring", str(tmp_path / "ring.json"),
        "--map", str(tmp_path / "map.json"),
    ]
    for law in ([], ["--anti"]):
        assert cli.run(["check-map", *ctx, *law, "--allow-torsion"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "error: --allow-torsion gates the Jordan laws; it needs --jordan\n"
        )
    # with --jordan the flag lets a ring with 2-torsion through
    ctx = [
        "--poset", fx("poset_3chain.json"),
        "--ring", fx("ring_mod6.json"),
        "--map", fx("map_identity_3chain_rationals.json"),
    ]
    assert cli.run(["check-map", "--jordan", *ctx]) == 2
    assert "TorsionRefused" in capsys.readouterr().err
    assert cli.run(["check-map", "--jordan", "--allow-torsion", *ctx]) == 0
    assert cli.run(["check-map", "--anti", *ctx]) == 1


def test_verify_identities_on_the_empty_poset(tmp_path):
    # dimension 0: the equality criterion has no coordinate to bump
    poset = write_json(tmp_path / "poset.json", {"elements": [], "relations": []})
    ring = fx("ring_rationals.json")
    out = tmp_path / "map.json"
    gen = run_cli("gen-jordan", "--poset", poset, "--ring", ring, "--seed", "1",
                  "--out", str(out))
    assert gen.returncode == 0
    r = run_cli("verify", "--identities", "--poset", poset, "--ring", ring,
                "--map", str(out))
    assert r.returncode == 0, r.stderr
    checks = json.loads(r.stdout)["checks"]
    assert len(checks) == 13 and all(c["pass"] for c in checks)


def test_out_file_matches_stdout(tmp_path):
    args = [
        "decompose",
        "--poset", fx("poset_diamond.json"),
        "--ring", fx("ring_mod9.json"),
        "--map", fx("map_jordan_diamond_mod9.json"),
    ]
    to_stdout = run_cli(*args)
    out = tmp_path / "rep.json"
    to_file = run_cli(*args, "--out", str(out))
    assert to_stdout.returncode == to_file.returncode == 0
    assert out.read_text() == to_stdout.stdout


@pytest.mark.parametrize("command", ["gen-jordan", "verify"])
@pytest.mark.parametrize("where", ["missing-directory", "directory"])
def test_unwritable_out_path_is_exit_2(tmp_path, capsys, command, where):
    out = tmp_path / "no_such_dir" / "x.json" if where == "missing-directory" else tmp_path
    context = ["--poset", fx("poset_diamond.json"), "--ring", fx("ring_mod9.json")]
    extra = ["--seed", "1"] if command == "gen-jordan" else [
        "--map", fx("map_jordan_diamond_mod9.json")
    ]
    assert cli.run([command, *context, *extra, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: output file {str(out)!r}: ")
    assert "Traceback" not in err


def write_json(path, obj) -> str:
    path.write_text(json.dumps(obj))
    return str(path)


def assert_clean_input_error(r):
    assert r.returncode == 2
    assert r.stderr.startswith("error:") and "Traceback" not in r.stderr
    assert r.stdout == ""


@pytest.mark.parametrize(
    "ring_file, scalar",
    [("ring_rationals.json", 0.1), ("ring_integers.json", 2.7), ("ring_mod9.json", True)],
)
def test_check_map_refuses_float_and_bool_scalars(tmp_path, ring_file, scalar):
    obj = json.loads(Path(fx("map_identity_3chain_rationals.json")).read_text())
    obj["columns"][0][0] = scalar
    r = run_cli(
        "check-map",
        "--poset", fx("poset_3chain.json"),
        "--ring", fx(ring_file),
        "--map", write_json(tmp_path / "map.json", obj),
    )
    assert_clean_input_error(r)
    assert "scalar" in r.stderr


@pytest.mark.parametrize(
    "poset_obj",
    [
        {"elements": "ab", "relations": []},
        {"elements": ["a", "b"], "relations": [["a"]]},
        {"elements": ["a", "b", "c"], "relations": [["a", "b", "c"]]},
    ],
    ids=["elements-string", "relation-of-one", "relation-of-three"],
)
def test_validate_poset_rejects_malformed_shapes(tmp_path, poset_obj):
    r = run_cli("validate-poset", write_json(tmp_path / "poset.json", poset_obj))
    assert_clean_input_error(r)


def test_check_map_rejects_columns_that_are_not_lists(tmp_path):
    obj = {"domain_dim": 6, "codomain_dim": 6, "columns": [5, 6, 7]}
    r = run_cli(
        "check-map",
        "--poset", fx("poset_3chain.json"),
        "--ring", fx("ring_rationals.json"),
        "--map", write_json(tmp_path / "map.json", obj),
    )
    assert_clean_input_error(r)


@pytest.mark.parametrize(
    "field, value",
    [("domain_dim", 6.0), ("codomain_dim", 6.0), ("domain_dim", "6"), ("codomain_dim", None)],
    ids=["domain-float", "codomain-float", "domain-string", "codomain-null"],
)
def test_map_dimensions_must_be_integers(tmp_path, field, value):
    obj = json.loads(Path(fx("map_identity_3chain_rationals.json")).read_text())
    obj[field] = value
    r = run_cli(
        "decompose",
        "--poset", fx("poset_3chain.json"),
        "--ring", fx("ring_rationals.json"),
        "--map", write_json(tmp_path / "map.json", obj),
    )
    assert_clean_input_error(r)
    assert f"{field} must be an integer, got {value!r}" in r.stderr


def test_map_dimension_true_is_not_1(tmp_path):
    poset = write_json(tmp_path / "poset.json", {"elements": ["a"], "relations": []})
    obj = {"domain_dim": True, "codomain_dim": 1, "columns": [["1"]]}
    r = run_cli(
        "decompose",
        "--poset", poset,
        "--ring", fx("ring_rationals.json"),
        "--map", write_json(tmp_path / "map.json", obj),
    )
    assert_clean_input_error(r)
    assert "domain_dim must be an integer, got True" in r.stderr


@pytest.mark.parametrize("scalar", ["1e3", "1_0", " 1 ", "\u0663", "+1"])
def test_check_map_refuses_non_canonical_scalar_strings(tmp_path, scalar):
    obj = json.loads(Path(fx("map_identity_3chain_rationals.json")).read_text())
    obj["columns"][0][0] = scalar
    r = run_cli(
        "check-map",
        "--poset", fx("poset_3chain.json"),
        "--ring", fx("ring_rationals.json"),
        "--map", write_json(tmp_path / "map.json", obj),
    )
    assert_clean_input_error(r)
    assert "scalar" in r.stderr


@pytest.mark.parametrize(
    "content",
    [b"1" * 5000, b"\xff\xfe{}", b"[" * 100000 + b"]" * 100000],
    ids=["integer-past-digit-limit", "not-utf8", "nested-past-recursion-limit"],
)
def test_unreadable_json_is_exit_2(tmp_path, content):
    path = tmp_path / "poset.json"
    path.write_bytes(content)
    r = run_cli("validate-poset", str(path))
    assert_clean_input_error(r)
    assert "unreadable JSON" in r.stderr


def test_unknown_subcommand_is_exit_2():
    r = run_cli("frobnicate")
    assert r.returncode == 2


def test_internal_error_is_exit_3_with_traceback(monkeypatch, capsys):
    from fialg import cli

    def broken(*args, **kwargs):
        raise RuntimeError("injected fault")

    monkeypatch.setattr(cli, "decompose", broken)
    code = cli.run([
        "decompose",
        "--poset", fx("poset_diamond.json"),
        "--ring", fx("ring_mod9.json"),
        "--map", fx("map_jordan_diamond_mod9.json"),
    ])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    assert "Traceback" in captured.err and "RuntimeError: injected fault" in captured.err


# Odd moduli whose units cannot be drawn by factoring n: 2**63 + 1 has more
# units than an index holds, and the two primes take trial division past any
# timeout.
LARGE_ODD_MODULI = [2**63 + 1, 2**63 - 25, 10**30 + 57]
PIPELINE = [
    ["decompose"],
    ["verify"],
    ["verify", "--identities"],
    ["check-map", "--jordan"],
]


@pytest.mark.parametrize("modulus", LARGE_ODD_MODULI)
def test_pipeline_over_a_large_odd_modulus_exits_0(tmp_path, capsys, modulus):
    context = [
        "--poset", fx("poset_diamond.json"),
        "--ring", write_json(tmp_path / "ring.json", {"ring": {"modular": modulus}}),
    ]
    phi = str(tmp_path / "map.json")
    for command in [["gen-jordan", "--seed", "1", "--out", phi]] + [
        [*c, "--map", phi] for c in PIPELINE
    ]:
        code = cli.run([*command, *context])
        err = capsys.readouterr().err
        assert code == 0, (command, err)
        assert "Traceback" not in err


FIXTURE_MAPS = [
    ("poset_3chain.json", "ring_rationals.json", "map_identity_3chain_rationals.json"),
    ("poset_3chain.json", "ring_rationals.json", "map_perturbed_3chain_rationals.json"),
    ("poset_diamond.json", "ring_mod9.json", "map_jordan_diamond_mod9.json"),
    ("poset_two_2chains.json", "ring_rationals.json", "map_jordan_two_2chains_rationals.json"),
]
RECOGNIZER_COMMANDS = [
    ["check-map"],
    ["check-map", "--anti"],
    ["check-map", "--jordan"],
    ["decompose"],
    ["verify"],
]


@pytest.mark.parametrize("command", RECOGNIZER_COMMANDS, ids=" ".join)
@pytest.mark.parametrize("poset, ring, phi", FIXTURE_MAPS, ids=lambda name: name)
def test_fixture_reports_match_dense_recognizers(
    monkeypatch, capsys, command, poset, ring, phi
):
    argv = [*command, "--poset", fx(poset), "--ring", fx(ring), "--map", fx(phi)]
    outcomes = []
    for dense in (False, True):
        if dense:
            monkeypatch.setattr(cli, "check_homomorphism", dense_check_homomorphism)
            monkeypatch.setattr(jordan, "jordan_pair_check", dense_jordan_pair_check)
            for module in (cli, jordan):
                monkeypatch.setattr(
                    module,
                    "check_jordan",
                    lambda m, allow_torsion=False: dense_check_jordan(m),
                )
        code = cli.run(argv)
        outcomes.append((code, capsys.readouterr()))
    (code, out), (dense_code, dense_out) = outcomes
    assert code == dense_code
    assert out.out == dense_out.out
    assert out.err == dense_out.err


def dumps_text(obj) -> str:
    """The report bytes as the pure-Python encoder writes them: the oracle."""
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def outcome(write, obj):
    try:
        return write(obj)
    except TypeError:  # mixed key types that sort_keys cannot order
        return TypeError


# characters that json.dumps escapes; TEXT adds the ends of the range it
# writes as they are, " " and "~"
ESCAPED = '"\\\x00\x1f\n\t\x7f\u00e9\u2028\ud800\U0001f600'
TEXT = st.text(st.sampled_from(ESCAPED + "a/ ~") | st.characters(), max_size=6)
SCALARS = st.none() | st.booleans() | st.integers(-(2**100), 2**100) | st.floats() | TEXT
KEYS = TEXT | st.integers(-3, 3) | st.booleans() | st.none()


def containers(children):
    return (
        st.lists(children, max_size=4)
        | st.lists(children, max_size=4).map(tuple)
        | st.lists(TEXT | st.integers() | st.booleans() | st.none(), max_size=5)
        | st.lists(TEXT, min_size=1, max_size=4)
        | st.dictionaries(TEXT, children, max_size=4)
        | st.dictionaries(KEYS, children, max_size=3)
    )


@settings(max_examples=300, deadline=None)
@given(st.recursive(SCALARS, containers, max_leaves=20))
@example({"empty": [[], {}, (), [[{}]]], "nested": {"in": {}}})
@example({"indices": (0, 3), "columns": [["1/2", "0"], ["-1", "0"]], "passed": False})
@example(["q\"b\\s\x00\u00e9\U0001f600", "0", 2**70, -(2**70), True, None, 1.5])
@example({1: "int keys take the fallback", 2: ["x"]})
def test_report_writer_matches_json_dumps(obj):
    assert outcome(cli._json_text, obj) == outcome(dumps_text, obj)


def cli_outputs(poset, ring, seed):
    """What the CLI writes for a Jordan map and a damaged copy, by command:
    the poset, the map, the decomposition, and the check-map, verify and
    identity reports."""
    phi = random_jordan_iso(poset, ring, seed)
    bad = damaged_map(phi, "perturbed", random.Random(seed))
    dec = decompose(phi)
    yield "validate-poset", poset.to_json()
    yield "gen-jordan", phi.to_json()
    yield "decompose", dec.to_json()
    yield "verify", dec.report.to_json(ring.format)
    for m in (phi, bad):
        yield "check-map", check_homomorphism(m).to_json(ring.format)
        yield "check-map --jordan", check_jordan(m).to_json(ring.format)
        report = verify_paper_identities(m, seed=seed)
        yield "verify --identities", report.to_json(ring.format)


@pytest.mark.parametrize("ring", [RATIONALS, INTEGERS, modular(9)], ids=repr)
def test_every_output_kind_is_written_as_json_dumps_writes_it(ring):
    verdicts = {}
    for poset in (chain(3), diamond(), two_two_chains()):
        for command, obj in cli_outputs(poset, ring, seed=1):
            assert cli._json_text(obj) == dumps_text(obj), command
            if "pass" in obj:
                verdicts.setdefault(command, set()).add(obj["pass"])
    assert verdicts["verify --identities"] == {True, False}
    assert verdicts["check-map --jordan"] == {True, False}


def test_the_report_writer_leaves_no_cyclic_garbage():
    # a closure that calls itself is a reference cycle, which would keep
    # each call's parts list alive until the cyclic collector runs
    report = decompose(random_jordan_iso(diamond(), RATIONALS, seed=1)).to_json()
    gc.collect()
    gc.disable()
    try:
        cli._json_text(report)
        assert gc.collect() == 0
    finally:
        gc.enable()
