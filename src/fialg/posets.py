"""Finite partially ordered sets and order-preserving/reversing bijections.

Elements are string labels.  The order relation is stored as a dense
boolean matrix over element indices; construction always validates the three
partial-order axioms, so every Poset in circulation is genuinely a poset.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

from .errors import (
    AntisymmetryViolationError,
    DuplicateElementError,
    FialgError,
    SizeMismatchError,
    UnknownElementError,
)


@dataclass(frozen=True)
class Poset:
    """A finite poset: labels plus a reflexive-transitive-antisymmetric leq."""

    elements: tuple[str, ...]
    relation: tuple[tuple[bool, ...], ...]  # relation[i][j] <=> elements[i] <= elements[j]

    def __post_init__(self):
        _check_axioms(self.elements, self.relation)

    # -- element bookkeeping -------------------------------------------------

    @property
    def size(self) -> int:
        return len(self.elements)

    def index(self, label: str) -> int:
        try:
            return self.elements.index(label)
        except ValueError:
            raise UnknownElementError(
                f"element {label!r} is not in poset {list(self.elements)}"
            ) from None

    # -- order queries -------------------------------------------------------

    def interval(self, x: str, y: str) -> list[str]:
        """[x, y] = every z with x <= z <= y, in element order; empty when x !<= y."""
        i, j = self.index(x), self.index(y)
        if not self.relation[i][j]:
            return []
        return [
            self.elements[k]
            for k in range(self.size)
            if self.relation[i][k] and self.relation[k][j]
        ]

    def comparable_index_pairs(self) -> list[tuple[int, int]]:
        """All (i, j) with elements[i] <= elements[j], diagonal included."""
        return [
            (i, j)
            for i in range(self.size)
            for j in range(self.size)
            if self.relation[i][j]
        ]

    def strict_index_pairs(self) -> list[tuple[int, int]]:
        return [(i, j) for (i, j) in self.comparable_index_pairs() if i != j]

    def covers(self) -> list[tuple[str, str]]:
        """The covering relations: x < y with nothing strictly between."""
        out = []
        for i, j in self.strict_index_pairs():
            if not any(
                self.relation[i][k] and self.relation[k][j]
                for k in range(self.size)
                if k != i and k != j
            ):
                out.append((self.elements[i], self.elements[j]))
        return out

    def components(self) -> list[tuple[int, ...]]:
        """Connected components of the comparability graph, as index tuples."""
        seen = [False] * self.size
        comps = []
        for start in range(self.size):
            if seen[start]:
                continue
            stack, comp = [start], []
            seen[start] = True
            while stack:
                i = stack.pop()
                comp.append(i)
                for j in range(self.size):
                    if not seen[j] and (self.relation[i][j] or self.relation[j][i]):
                        seen[j] = True
                        stack.append(j)
            comps.append(tuple(sorted(comp)))
        return comps

    def restrict(self, indices: Sequence[int]) -> "Poset":
        """The induced subposet on the given element indices."""
        idx = list(indices)
        return Poset(
            tuple(self.elements[i] for i in idx),
            tuple(tuple(self.relation[i][j] for j in idx) for i in idx),
        )

    # -- serialization -------------------------------------------------------

    def to_json(self) -> dict:
        return {
            "elements": list(self.elements),
            "relations": [[x, y] for x, y in self.covers()],
        }

    @classmethod
    def from_json(cls, obj) -> "Poset":
        if not isinstance(obj, dict) or "elements" not in obj or "relations" not in obj:
            raise FialgError(f"not a poset description: {obj!r}")
        elements, relations = obj["elements"], obj["relations"]
        if not isinstance(elements, list) or not all(
            isinstance(e, str) for e in elements
        ):
            raise FialgError(f"poset elements must be a list of strings: {elements!r}")
        if not isinstance(relations, list) or not all(
            isinstance(p, list) and len(p) == 2 and all(isinstance(e, str) for e in p)
            for p in relations
        ):
            raise FialgError(
                f"poset relations must be a list of [x, y] label pairs: {relations!r}"
            )
        return validate_poset(elements, [tuple(p) for p in relations])


def _check_axioms(elements, relation):
    n = len(elements)
    if len(set(elements)) != n:
        dupes = sorted({e for e in elements if elements.count(e) > 1})
        raise DuplicateElementError(f"duplicate element label(s): {dupes}")
    for e in elements:
        if not isinstance(e, str):
            raise FialgError(f"element labels must be strings, got {e!r}")
    if len(relation) != n or any(len(row) != n for row in relation):
        raise FialgError("relation matrix shape does not match element count")
    for i in range(n):
        if not relation[i][i]:
            raise FialgError(f"relation is not reflexive at {elements[i]!r}")
    for i in range(n):
        for j in range(n):
            if i != j and relation[i][j] and relation[j][i]:
                raise AntisymmetryViolationError(
                    f"{elements[i]!r} <= {elements[j]!r} and "
                    f"{elements[j]!r} <= {elements[i]!r}"
                )
            if relation[i][j]:
                for k in range(n):
                    if relation[j][k] and not relation[i][k]:
                        raise FialgError(
                            f"relation is not transitive at "
                            f"({elements[i]!r}, {elements[j]!r}, {elements[k]!r})"
                        )


def validate_poset(elements: Sequence[str], relation_pairs: Iterable) -> Poset:
    """Close the given generating relations reflexively and transitively and
    return the resulting poset; the Poset door refuses duplicate labels and
    antisymmetry violations, after an unknown label in a relation pair."""
    elems = tuple(elements)
    pos = {e: i for i, e in enumerate(elems)}
    n = len(elems)
    leq = [[i == j for j in range(n)] for i in range(n)]
    for pair in relation_pairs:
        x, y = pair
        if x not in pos:
            raise UnknownElementError(f"relation mentions unknown element {x!r}")
        if y not in pos:
            raise UnknownElementError(f"relation mentions unknown element {y!r}")
        leq[pos[x]][pos[y]] = True
    # Warshall closure.
    for k in range(n):
        row_k = leq[k]
        for i in range(n):
            if leq[i][k]:
                row_i = leq[i]
                for j in range(n):
                    if row_k[j]:
                        row_i[j] = True
    return Poset(elems, tuple(tuple(row) for row in leq))


def random_poset(n: int, edge_probability, seed: int) -> Poset:
    """Seeded random poset on labels "1".."n": a random DAG on the fixed
    topological order 1 < 2 < ... < n, closed transitively.

    edge_probability 0 gives the antichain, 1 the chain, exactly.
    """
    if n < 1:
        raise FialgError(f"poset size must be >= 1, got {n}")
    p = edge_probability
    if not 0 <= p <= 1:
        raise FialgError(f"edge probability must lie in [0, 1], got {p!r}")
    rng = random.Random(seed)
    pairs = []
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            if rng.random() < p:
                pairs.append((str(i), str(j)))
    return validate_poset([str(i) for i in range(1, n + 1)], pairs)


@dataclass(frozen=True)
class OrderMap:
    """A bijection between posets that preserves (or exactly reverses) order.

    images[i] is the target index of source element i.  Validated on
    construction: x <= y iff images preserve (reversing=False) or swap
    (reversing=True) the comparison.
    """

    source: Poset
    target: Poset
    images: tuple[int, ...]
    reversing: bool = False

    def __post_init__(self):
        src, tgt = self.source, self.target
        if src.size != tgt.size:
            raise SizeMismatchError(
                f"source has {src.size} elements, target has {tgt.size}"
            )
        if sorted(self.images) != list(range(tgt.size)):
            raise FialgError(f"images {self.images} are not a bijection")
        for i in range(src.size):
            for j in range(src.size):
                fwd = src.relation[i][j]
                img = (
                    tgt.relation[self.images[j]][self.images[i]]
                    if self.reversing
                    else tgt.relation[self.images[i]][self.images[j]]
                )
                if fwd != img:
                    kind = "order-reversing" if self.reversing else "order-preserving"
                    raise FialgError(
                        f"map is not {kind} at "
                        f"({src.elements[i]!r}, {src.elements[j]!r})"
                    )


def order_isomorphisms(p: Poset, q: Poset, reversing: bool = False) -> list[OrderMap]:
    """Every order isomorphism (or anti-isomorphism) p -> q, enumerated in
    lexicographic image order.

    A depth-first search assigns images[0], images[1], ... in turn, trying
    targets in increasing index order, so the maps come out in the same order
    as a scan over all permutations would give them.  A target is a candidate
    for source element i only when its down-set and up-set sizes match those
    of i (swapped when reversing), and a branch is cut as soon as a newly
    assigned pair disagrees with the target order.  The cost follows the
    number of consistent partial maps, not n!; the result itself can still be
    as long as the automorphism count (k! for a k-element antichain)."""
    return [OrderMap(p, q, m, reversing) for m in _iter_order_isomorphisms(p, q, reversing)]


def _iter_order_isomorphisms(
    p: Poset, q: Poset, reversing: bool = False
) -> Iterator[tuple[int, ...]]:
    """The search behind order_isomorphisms, lazily, as image tuples: a
    caller can stop at the first one, and one that reads only the images
    builds no OrderMap, whose door re-checks the pairs checked here."""
    if p.size != q.size:
        raise SizeMismatchError(f"|{list(p.elements)}| != |{list(q.elements)}|")
    n = p.size
    src = p.relation
    # An anti-isomorphism p -> q is an isomorphism p -> q with its order
    # reversed: compare against the transposed target relation throughout.
    tgt = q.relation
    if reversing:
        tgt = [[q.relation[b][a] for b in range(n)] for a in range(n)]

    def shape(rel, i):
        return sum(rel[k][i] for k in range(n)), sum(rel[i])

    src_shapes = [shape(src, i) for i in range(n)]
    tgt_shapes = [shape(tgt, t) for t in range(n)]
    candidates = [
        [t for t in range(n) if tgt_shapes[t] == src_shapes[i]] for i in range(n)
    ]
    images: list[int] = []

    # The pairwise check also keeps the map injective: reusing a target
    # images[k] = t would need k <= i and i <= k, which antisymmetry forbids.
    def extend(i):
        if i == n:
            yield tuple(images)
            return
        for t in candidates[i]:
            if all(
                src[k][i] == tgt[images[k]][t] and src[i][k] == tgt[t][images[k]]
                for k in range(i)
            ):
                images.append(t)
                yield from extend(i + 1)
                images.pop()

    yield from extend(0)
