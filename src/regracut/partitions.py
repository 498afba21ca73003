"""Equipartitions of the vertex set and their balanced refinements."""

from __future__ import annotations

import itertools
import json
import random

from .errors import (BadOrder, BadPartition, EmptySet, OverlappingSets, RefinementTooFine, RegracutError,
                     _index, _integer)


def _vertex_sets(n: int, sets, names, empty_ok: bool = False) -> list[list[int]]:
    """The vertex sets as sorted lists of Python ints, checked at the boundary.

    Every vertex must be an integer (Python or numpy, not a bool).  Then
    each set in turn must be nonempty (unless `empty_ok`, for callers that
    count over possibly empty parts), hold no vertex twice and lie inside
    0..n-1; then no two sets may share a vertex.  Errors name a set by its
    entry in `names`: "A" or "B" in a pair, "part i" or "block i" in a list.
    """
    sets = [list(S) for S in sets]
    if not set(map(type, itertools.chain(*sets))) <= {int}:  # numpy integers pass, as Python ints
        for S, name in zip(sets, names):
            for i, v in enumerate(S):
                try:
                    S[i] = _index(v)
                except TypeError:
                    raise RegracutError(f"{name} contains the non-integer vertex {v!r}") from None
    out = [sorted(S) for S in sets]
    # one union finds whether any vertex is listed twice, in one set or two
    twice = len(set().union(*out)) < sum(map(len, out))
    for s, name in zip(out, names):
        if not s and not empty_ok:
            raise EmptySet(f"{name} is empty")
        if twice and len(set(s)) < len(s):
            raise RegracutError(f"{name} contains repeated vertices")
        if s and (s[0] < 0 or s[-1] >= n):
            raise RegracutError(f"{name} contains vertices outside 0..{n - 1}")
    if twice:
        for j, i in itertools.combinations(range(len(out)), 2):
            if not set(out[j]).isdisjoint(out[i]):
                raise OverlappingSets(f"{names[j]} and {names[i]} overlap")
    return out


class Equipartition:
    """Ordered blocks of vertices covering 0..n-1 with sizes differing by at most 1.

    ``parent[i]`` records which block of a coarser partition block i came
    from, when this partition was produced by a refinement.
    """

    __slots__ = ("blocks", "parent")

    def __init__(self, blocks, parent=None):
        blocks = [list(b) for b in blocks]
        if not blocks:
            raise BadPartition("a partition needs at least one block")
        # n vertices are listed, so if they are distinct and in 0..n-1 they cover it
        try:
            sets = _vertex_sets(sum(map(len, blocks)), blocks, [f"block {i}" for i in range(len(blocks))])
        except RegracutError as exc:
            raise BadPartition(str(exc)) from None
        blocks = tuple(map(tuple, sets))
        sizes = {len(b) for b in blocks}
        if max(sizes) - min(sizes) > 1:
            raise BadPartition(f"block sizes {sorted(sizes)} differ by more than 1")
        if parent is not None:
            parent = tuple(_integer(i, "parent index", 0, error=BadPartition) for i in parent)
            if len(parent) != len(blocks):
                raise BadPartition("parent index list must match the block count")
        self.blocks = blocks
        self.parent = parent

    @property
    def n(self) -> int:
        return sum(len(b) for b in self.blocks)

    @property
    def order(self) -> int:
        return len(self.blocks)

    def sizes(self) -> tuple[int, ...]:
        return tuple(len(b) for b in self.blocks)

    def __iter__(self):
        return iter(self.blocks)

    def __len__(self):
        return len(self.blocks)

    def __eq__(self, other):
        return isinstance(other, Equipartition) and self.blocks == other.blocks

    def __hash__(self):
        return hash(self.blocks)

    def __repr__(self):
        return f"Equipartition(order={self.order}, n={self.n})"


def _cut(vertices: list, k: int) -> list[list]:
    """The ordered list cut into k consecutive slices whose sizes differ by
    at most 1, the larger slices first."""
    small, extra = divmod(len(vertices), k)
    bounds = [i * small + min(i, extra) for i in range(k + 1)]
    return [vertices[lo:hi] for lo, hi in zip(bounds, bounds[1:])]


def equipartition(n: int, k: int, seed: int = 0) -> Equipartition:
    """Seeded uniform equipartition of 0..n-1 into k blocks."""
    k = _integer(k, "order k", 1, _integer(n, "n", 0, error=BadOrder), BadOrder)
    vertices = list(range(n))
    random.Random(_integer(seed, "seed", 0)).shuffle(vertices)
    return Equipartition(_cut(vertices, k))


def refine_equipartition(part: Equipartition, ell: int, seed: int = 0) -> Equipartition:
    """Split every block into ell sub-blocks, keeping global sizes within 1.

    Sub-blocks are listed parent-major, with parent indices recorded.
    """
    ell = _integer(ell, "split factor", 1, error=RefinementTooFine)
    min_size = min(part.sizes())
    if ell > min_size:
        raise RefinementTooFine(f"split factor {ell} exceeds smallest block ({min_size})")
    rng = random.Random(_integer(seed, "seed", 0))
    blocks = []
    for block in part.blocks:
        vertices = list(block)
        rng.shuffle(vertices)
        blocks.extend(_cut(vertices, ell))
    return Equipartition(blocks, parent=[i for i in range(part.order) for _ in range(ell)])


def is_refinement(child: Equipartition, parent: Equipartition) -> bool:
    """True when every child block sits inside the parent block it names."""
    return child.parent is not None and all(
        pi < parent.order and set(b) <= set(parent.blocks[pi]) for b, pi in zip(child.blocks, child.parent))


def load_partition(path) -> Equipartition:
    return Equipartition(_load_vertex_lists(path))


def _load_vertex_lists(path) -> list[list[int]]:
    """A JSON file's array of vertex arrays; every vertex must be a JSON
    integer (not 1.0, not true)."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except UnicodeDecodeError as exc:
            raise BadPartition(
                f"{path} is not UTF-8 text ({exc.reason} at byte {exc.start})"
            ) from None
    if not isinstance(data, list) or not all(isinstance(b, list) for b in data):
        raise BadPartition(f"{path} does not hold a JSON array of arrays")
    bad = [v for block in data for v in block if type(v) is not int]
    if bad:
        raise BadPartition(f"{path} holds the non-integer vertex {json.dumps(bad[0])}")
    return data
