"""Poset validation, intervals, components, order maps, serialization."""

import itertools
import random

import pytest

from fialg import (
    AntisymmetryViolationError,
    DuplicateElementError,
    OrderMap,
    Poset,
    SizeMismatchError,
    UnknownElementError,
    order_isomorphisms,
    random_poset,
    validate_poset,
)
from fialg.errors import FialgError

from conftest import all_posets_up_to, chain, diamond, le, order_image, two_two_chains


def test_validate_takes_transitive_closure():
    p = validate_poset(["x", "y", "z"], [("x", "y"), ("y", "z")])
    assert le(p, "x", "z")
    assert not le(p, "z", "x")


def test_validate_rejects_duplicates_and_unknowns():
    # duplicate labels are refused by the Poset door, after the relation
    # pairs are read, so an unknown label in a pair is reported first
    with pytest.raises(DuplicateElementError) as refused:
        validate_poset(["b", "a", "b", "a", "c"], [("a", "c"), ("c", "b")])
    assert str(refused.value) == "duplicate element label(s): ['a', 'b']"
    with pytest.raises(UnknownElementError):
        validate_poset(["a"], [("a", "b")])
    with pytest.raises(UnknownElementError, match="'z'"):
        validate_poset(["a", "a"], [("a", "z")])


def test_validate_rejects_cycles():
    with pytest.raises(AntisymmetryViolationError):
        validate_poset(["a", "b"], [("a", "b"), ("b", "a")])
    with pytest.raises(AntisymmetryViolationError):
        validate_poset(["a", "b", "c"], [("a", "b"), ("b", "c"), ("c", "a")])


def test_labels_must_be_strings():
    with pytest.raises(FialgError):
        validate_poset(["a", 3], [])


def test_interval_enumeration():
    p = diamond()
    assert p.interval("bot", "top") == ["bot", "l", "r", "top"]
    assert p.interval("l", "r") == []
    assert p.interval("l", "l") == ["l"]


def test_comparable_and_strict_pairs():
    p = chain(3)
    strict = p.strict_index_pairs()
    assert strict == [(0, 1), (0, 2), (1, 2)]
    assert p.comparable_index_pairs() == sorted(
        [(0, 0), (1, 1), (2, 2)] + strict
    )


def test_covers_drop_transitive_edges():
    p = chain(3)
    assert p.covers() == [("1", "2"), ("2", "3")]


def test_components():
    assert two_two_chains().components() == [(0, 1), (2, 3)]
    assert chain(4).components() == [(0, 1, 2, 3)]


def test_restrict_induces_subposet():
    p = diamond()
    sub = p.restrict([0, 1, 3])
    assert sub.elements == ("bot", "l", "top")
    assert le(sub, "bot", "top") and le(sub, "l", "top")


def test_json_round_trip():
    for p in (chain(3), diamond(), two_two_chains()):
        assert Poset.from_json(p.to_json()) == p
    with pytest.raises(FialgError):
        Poset.from_json({"elements": ["a"]})


def test_random_poset_is_deterministic_and_valid():
    a = random_poset(6, 0.4, seed=9)
    b = random_poset(6, 0.4, seed=9)
    assert a == b
    assert random_poset(6, 0.4, seed=10) != a or True  # different seed may differ
    # extremes
    assert random_poset(4, 0.0, seed=1).covers() == []
    full = random_poset(4, 1.0, seed=1)
    assert le(full, "1", "4")


def test_order_map_monotonicity_enforced():
    p, q = chain(2), chain(2)
    m = OrderMap(p, q, (0, 1), reversing=False)
    assert order_image(m, "1") == "1"
    with pytest.raises(FialgError):
        OrderMap(p, q, (1, 0), reversing=False)  # decreasing but flagged straight
    r = OrderMap(p, q, (1, 0), reversing=True)
    assert order_image(r, "1") == "2"
    with pytest.raises(SizeMismatchError):
        OrderMap(p, chain(3), (0, 1), reversing=False)


def test_order_isomorphisms_enumeration():
    autos = order_isomorphisms(diamond(), diamond())
    # bot and top are fixed; the two middle elements may swap
    assert len(autos) == 2
    revs = order_isomorphisms(chain(3), chain(3), reversing=True)
    assert len(revs) == 1
    assert revs[0].images == (2, 1, 0)
    assert order_isomorphisms(chain(2), chain(2) , reversing=True) != []
    assert order_isomorphisms(diamond(), chain(4)) == []


def test_self_duality_of_diamond():
    assert len(order_isomorphisms(diamond(), diamond(), reversing=True)) == 2


def brute_order_isomorphisms(p, q, reversing=False):
    """The oracle for order_isomorphisms: every permutation of q's indices in
    lexicographic order, kept when it preserves (or reverses) the order."""
    if p.size != q.size:
        raise SizeMismatchError(f"{p.size} != {q.size}")
    n = p.size

    def agrees(perm, i, j):
        if reversing:
            return p.relation[i][j] == q.relation[perm[j]][perm[i]]
        return p.relation[i][j] == q.relation[perm[i]][perm[j]]

    return [
        OrderMap(p, q, perm, reversing)
        for perm in itertools.permutations(range(n))
        if all(agrees(perm, i, j) for i in range(n) for j in range(n))
    ]


def relabelled(p, rng):
    """p with its indices shuffled: an isomorphic copy whose index order
    differs, so the enumeration order of its maps is a real test."""
    perm = list(range(p.size))
    rng.shuffle(perm)
    inv = {t: i for i, t in enumerate(perm)}
    return Poset(
        tuple(p.elements[inv[t]] for t in range(p.size)),
        tuple(
            tuple(p.relation[inv[a]][inv[b]] for b in range(p.size))
            for a in range(p.size)
        ),
    )


def assert_matches_oracle(p, q):
    for rev in (False, True):
        fast = [m.images for m in order_isomorphisms(p, q, rev)]
        slow = [m.images for m in brute_order_isomorphisms(p, q, rev)]
        assert fast == slow, (p, q, rev)


def test_order_isomorphisms_match_oracle_on_all_small_posets():
    rng = random.Random(4)
    for p in all_posets_up_to(4):
        assert_matches_oracle(p, p)
        assert_matches_oracle(p, relabelled(p, rng))


@pytest.mark.parametrize("n", [5, 6])
def test_order_isomorphisms_match_oracle_on_random_posets(n):
    rng = random.Random(n)
    for seed in range(12):
        density = (0.2, 0.35, 0.5, 0.7)[seed % 4]
        p = random_poset(n, density, seed)
        assert_matches_oracle(p, relabelled(p, rng))
        assert_matches_oracle(p, random_poset(n, density, seed + 100))
